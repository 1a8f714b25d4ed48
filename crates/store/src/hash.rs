//! Content hashing for the artifact store.
//!
//! Everything in the store is addressed by a SHA-256 digest, implemented
//! here in plain `std` (the crate carries no external dependencies, and
//! `std`'s `DefaultHasher` makes no cross-version stability promise —
//! cache keys must outlive compiler upgrades). Throughput is irrelevant:
//! the store hashes topology encodings and result payloads, kilobytes to
//! a few megabytes per run, against Monte-Carlo measurements that take
//! seconds to minutes.
//!
//! [`KeyBuilder`] derives *cache keys* from named fields. Two properties
//! make keys safe to persist:
//!
//! * **byte-order stability** — every integer is serialised explicitly
//!   little-endian, so the same logical inputs hash identically on any
//!   host;
//! * **field-order stability** — fields are sorted by tag before hashing,
//!   so reordering the builder calls (or the struct fields they mirror)
//!   cannot silently change the key. Changing a tag name, a value, or the
//!   domain *does* change the key, which is exactly the invalidation we
//!   want.

use mcast_topology::Graph;
use std::borrow::Cow;
use std::fmt;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Lower-case hex encoding (64 characters).
    pub fn to_hex(&self) -> String {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(64);
        for &b in &self.0 {
            s.push(HEX[(b >> 4) as usize] as char);
            s.push(HEX[(b & 0xf) as usize] as char);
        }
        s
    }

    /// Parse a 64-character lower/upper-case hex string.
    pub fn from_hex(s: &str) -> Option<Self> {
        let bytes = s.as_bytes();
        if bytes.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, pair) in bytes.chunks_exact(2).enumerate() {
            let hi = (pair[0] as char).to_digit(16)?;
            let lo = (pair[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(Self(out))
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// FIPS 180-4 round constants (fractional parts of cube roots of the
/// first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256.
///
/// ```
/// use mcast_store::hash::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     h.finalize().to_hex(),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self {
            state: [
                0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
                0x5be0cd19,
            ],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // The input fit inside the partial block; the remainder
                // logic below must not clobber the buffered prefix.
                debug_assert!(rest.is_empty());
                return;
            }
            let block = self.buf;
            self.compress(&block);
            self.buf_len = 0;
        }
        let mut chunks = rest.chunks_exact(64);
        for block in &mut chunks {
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
        }
        let tail = chunks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Absorb a `u64` in little-endian byte order.
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// Finish and return the digest.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Manual length append: update() would double-count total_len.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        let add = [a, b, c, d, e, f, g, h];
        for (s, v) in self.state.iter_mut().zip(add) {
            *s = s.wrapping_add(v);
        }
    }
}

/// One-shot SHA-256 of a byte slice.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// A cache key: the digest of a domain-separated, sorted field set.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Key(pub Digest);

impl Key {
    /// Hex form of the key (used as the on-disk object name).
    pub fn hex(&self) -> String {
        self.0.to_hex()
    }

    /// Parse an on-disk object name back into a key.
    pub fn from_hex(s: &str) -> Option<Self> {
        Digest::from_hex(s).map(Self)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Derives a [`Key`] from named fields (see module docs for the
/// stability guarantees).
///
/// Byte and string fields are borrowed, not copied, until
/// [`finish`](Self::finish) hashes them, and a [`graph`](Self::graph)
/// field is encoded chunk by chunk as it is hashed: a topology of tens of
/// megabytes is never copied into the key.
///
/// ```
/// use mcast_store::hash::KeyBuilder;
/// let a = KeyBuilder::new("demo").u64("seed", 7).str("kind", "x").finish();
/// let b = KeyBuilder::new("demo").str("kind", "x").u64("seed", 7).finish();
/// assert_eq!(a, b, "field order never matters");
/// let c = KeyBuilder::new("demo").u64("seed", 8).str("kind", "x").finish();
/// assert_ne!(a, c, "values always matter");
/// ```
pub struct KeyBuilder<'a> {
    domain: &'a str,
    fields: Vec<(&'a str, Field<'a>)>,
}

/// The value of one key field.
enum Field<'a> {
    Bytes(Cow<'a, [u8]>),
    /// The bytes of `encode_graph(graph)`, produced as they are hashed.
    Graph(&'a Graph),
}

impl<'a> KeyBuilder<'a> {
    /// Builder for keys in `domain` (e.g. `"curve"`, `"figure"`).
    pub fn new(domain: &'a str) -> Self {
        Self {
            domain,
            fields: Vec::new(),
        }
    }

    /// Add a field; panics on a duplicate tag (see [`bytes`](Self::bytes)).
    fn field(mut self, tag: &'a str, data: Field<'a>) -> Self {
        assert!(
            self.fields.iter().all(|&(t, _)| t != tag),
            "duplicate key field tag `{tag}`"
        );
        self.fields.push((tag, data));
        self
    }

    /// Add a raw byte field.
    ///
    /// # Panics
    /// Panics if `tag` was already added — a duplicated tag means two
    /// callers disagree about what the field holds.
    pub fn bytes(self, tag: &'a str, data: &'a [u8]) -> Self {
        self.field(tag, Field::Bytes(Cow::Borrowed(data)))
    }

    /// Add a topology field: `graph`'s binary encoding. The key equals
    /// the one [`bytes`](Self::bytes) gives for [`encode_graph`]`(graph)`,
    /// but [`finish`](Self::finish) streams the encoding into the hash one
    /// chunk at a time instead of building it whole.
    ///
    /// [`encode_graph`]: crate::encode_graph
    pub fn graph(self, tag: &'a str, graph: &'a Graph) -> Self {
        self.field(tag, Field::Graph(graph))
    }

    /// Add a `u64` field (serialised little-endian).
    pub fn u64(self, tag: &'a str, v: u64) -> Self {
        self.field(tag, Field::Bytes(Cow::Owned(v.to_le_bytes().to_vec())))
    }

    /// Add a UTF-8 string field.
    pub fn str(self, tag: &'a str, s: &'a str) -> Self {
        self.bytes(tag, s.as_bytes())
    }

    /// Add a `u64` sequence field (length-prefixed, little-endian).
    pub fn u64s(self, tag: &'a str, vals: &[u64]) -> Self {
        let mut buf = Vec::with_capacity(8 + vals.len() * 8);
        buf.extend_from_slice(&(vals.len() as u64).to_le_bytes());
        for v in vals {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        self.field(tag, Field::Bytes(Cow::Owned(buf)))
    }

    /// Hash the domain and the tag-sorted fields into a [`Key`].
    pub fn finish(mut self) -> Key {
        self.fields.sort_by(|a, b| a.0.cmp(b.0));
        let mut h = Sha256::new();
        h.update(b"mcast-store-key-v1");
        h.update_u64(self.domain.len() as u64);
        h.update(self.domain.as_bytes());
        for (tag, value) in &self.fields {
            h.update_u64(tag.len() as u64);
            h.update(tag.as_bytes());
            match value {
                Field::Bytes(payload) => {
                    h.update_u64(payload.len() as u64);
                    h.update(payload);
                }
                Field::Graph(graph) => crate::format::hash_encoding_into(graph, &mut h),
            }
        }
        Key(h.finalize())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vectors() {
        // FIPS 180-4 / NIST examples.
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        for _ in 0..1000 {
            h.update(&[b'a'; 1000]);
        }
        assert_eq!(
            h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_every_split() {
        let data: Vec<u8> = (0..257u32).map(|i| (i * 31 % 251) as u8).collect();
        let whole = sha256(&data);
        for split in [0, 1, 63, 64, 65, 128, 200, data.len()] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), whole, "split at {split}");
        }
    }

    #[test]
    fn hex_round_trip() {
        let d = sha256(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
    }

    #[test]
    fn key_field_order_is_irrelevant_but_everything_else_matters() {
        let base = KeyBuilder::new("d")
            .u64("seed", 1)
            .str("kind", "ratio")
            .u64s("xs", &[1, 2, 3])
            .finish();
        let reordered = KeyBuilder::new("d")
            .u64s("xs", &[1, 2, 3])
            .str("kind", "ratio")
            .u64("seed", 1)
            .finish();
        assert_eq!(base, reordered);
        // Domain, tag names, and values all perturb the key.
        assert_ne!(KeyBuilder::new("e").u64("seed", 1).finish(), base);
        assert_ne!(
            KeyBuilder::new("d")
                .u64("sd", 1)
                .str("kind", "ratio")
                .u64s("xs", &[1, 2, 3])
                .finish(),
            base
        );
        assert_ne!(
            KeyBuilder::new("d")
                .u64("seed", 2)
                .str("kind", "ratio")
                .u64s("xs", &[1, 2, 3])
                .finish(),
            base
        );
        assert_ne!(
            KeyBuilder::new("d")
                .u64("seed", 1)
                .str("kind", "ratio")
                .u64s("xs", &[1, 2])
                .finish(),
            base
        );
    }

    #[test]
    fn key_golden_value_is_pinned() {
        // Golden digest: if the key derivation scheme changes in ANY way
        // (encoding, ordering, separators), this test fails and the
        // format version must be bumped so stale caches are not read.
        let k = KeyBuilder::new("golden")
            .u64("a", 0x0123_4567_89ab_cdef)
            .str("b", "value")
            .u64s("c", &[42])
            .finish();
        assert_eq!(
            k.hex(),
            "1f34fa88b96c7103299488f2ea960d8b28f09911167bd5f20869892327ab47ac"
        );
        assert_eq!(
            k.hex(),
            KeyBuilder::new("golden")
                .u64s("c", &[42])
                .u64("a", 0x0123_4567_89ab_cdef)
                .str("b", "value")
                .finish()
                .hex()
        );
        // Length-prefixing prevents field-boundary ambiguity.
        let ab = KeyBuilder::new("g").str("t", "ab").str("u", "c").finish();
        let a_bc = KeyBuilder::new("g").str("t", "a").str("u", "bc").finish();
        assert_ne!(ab, a_bc);
    }

    #[test]
    fn graph_fields_key_like_their_encoding() {
        use mcast_topology::graph::from_edges;
        // Empty, isolated nodes only, isolated nodes beside edges, and a
        // path whose payload spans several stream chunks.
        let path: Vec<_> = (1..150_000).map(|i| (i - 1, i)).collect();
        let graphs = [
            from_edges(0, &[]),
            from_edges(5, &[]),
            from_edges(9, &[(0, 3), (3, 4), (1, 4), (7, 8)]),
            from_edges(150_000, &path),
        ];
        for g in &graphs {
            let mctb = crate::encode_graph(g);
            let key = |topology: KeyBuilder| topology.u64("seed", 7).str("kind", "ratio").finish();
            assert_eq!(
                key(KeyBuilder::new("curve").graph("topology", g)),
                key(KeyBuilder::new("curve").bytes("topology", &mctb)),
                "{} nodes, {} edges",
                g.node_count(),
                g.edge_count()
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate key field tag")]
    fn duplicate_tags_panic() {
        let _ = KeyBuilder::new("d").u64("x", 1).u64("x", 2);
    }
}
