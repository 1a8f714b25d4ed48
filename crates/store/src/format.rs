//! The versioned binary topology format (`.mct`).
//!
//! Layout (all integers little-endian, regardless of host byte order):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"MCTB"
//! 4       4     format version (u32, currently 1)
//! 8       8     node count (u64)
//! 16      8     undirected edge count (u64)
//! 24      8     payload length in bytes (u64)
//! 32      32    SHA-256 of the payload
//! 64      32    SHA-256 of header bytes 0..64
//! 96      …     payload:
//!                 (node count + 1) × u64   CSR offsets
//!                 2 × edge count   × u32   CSR neighbour ids
//! ```
//!
//! The header is checksummed separately from the payload so a reader can
//! cheaply distinguish "not a topology file / damaged header" from
//! "valid header, damaged payload", and `verify` can report which. The
//! CSR arrays are persisted verbatim — loading performs **no** rebuild,
//! but every graph invariant (sorted adjacency, symmetry, no self-loops)
//! is re-validated through [`mcast_topology::graph::try_from_csr`], so a
//! forged payload cannot smuggle in a graph the builder could not have
//! produced (which would silently change BFS tie-breaks).

use crate::atomic::write_atomic_with;
use crate::error::StoreError;
use crate::hash::{sha256, Digest, Sha256};
use mcast_topology::graph::{try_from_csr, NodeId};
use mcast_topology::Graph;
use std::io::Read as _;
use std::path::Path;

/// Magic bytes of a packed topology file.
pub const MAGIC: [u8; 4] = *b"MCTB";
/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;
/// Total header length in bytes.
pub const HEADER_LEN: usize = 96;

/// Chunk granularity of the streaming save/load paths (a multiple of 8,
/// so serialised offsets and neighbour ids never straddle a chunk).
const STREAM_CHUNK: usize = 1 << 20;

/// Serialise the payload bytes of `graph` — `(n+1)×u64` offsets then
/// `2E×u32` neighbours, little-endian — in chunks of at most
/// [`STREAM_CHUNK`] bytes. Both the in-RAM encoder and the out-of-core
/// save stream through this one serialiser, so their bytes cannot drift.
fn for_each_payload_chunk<F>(graph: &Graph, mut f: F) -> Result<(), StoreError>
where
    F: FnMut(&[u8]) -> Result<(), StoreError>,
{
    let mut buf = Vec::with_capacity(STREAM_CHUNK.min(payload_len_of(graph) + 8));
    for o in graph.csr_offsets().iter() {
        buf.extend_from_slice(&(o as u64).to_le_bytes());
        if buf.len() + 8 > STREAM_CHUNK {
            f(&buf)?;
            buf.clear();
        }
    }
    for &v in graph.csr_neighbors() {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() + 4 > STREAM_CHUNK {
            f(&buf)?;
            buf.clear();
        }
    }
    if !buf.is_empty() {
        f(&buf)?;
    }
    Ok(())
}

/// Payload length in bytes for `graph`.
fn payload_len_of(graph: &Graph) -> usize {
    graph.csr_offsets().len() * 8 + graph.csr_neighbors().len() * 4
}

/// Compose the 96-byte header for a payload hashing to `payload_sha`.
fn header_bytes(
    nodes: u64,
    edges: u64,
    payload_len: u64,
    payload_sha: &Digest,
) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[0..4].copy_from_slice(&MAGIC);
    h[4..8].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&nodes.to_le_bytes());
    h[16..24].copy_from_slice(&edges.to_le_bytes());
    h[24..32].copy_from_slice(&payload_len.to_le_bytes());
    h[32..64].copy_from_slice(&payload_sha.0);
    let header_sha = sha256(&h[..64]);
    h[64..96].copy_from_slice(&header_sha.0);
    h
}

/// Hash the payload of `graph` without materialising it.
fn payload_sha_of(graph: &Graph) -> Digest {
    let mut hasher = Sha256::new();
    for_each_payload_chunk(graph, |chunk| {
        hasher.update(chunk);
        Ok(())
    })
    .expect("hashing cannot fail");
    hasher.finalize()
}

/// The 96-byte header of `graph`'s encoding (one pass over the payload,
/// for its checksum).
fn header_of(graph: &Graph) -> [u8; HEADER_LEN] {
    header_bytes(
        graph.node_count() as u64,
        graph.edge_count() as u64,
        payload_len_of(graph) as u64,
        &payload_sha_of(graph),
    )
}

/// Feed `hasher` the length of [`encode_graph`]`(graph)` as a
/// little-endian `u64`, then its bytes: what `update_u64(len)` and
/// `update(&bytes)` on the materialised encoding would, with one
/// `STREAM_CHUNK` of buffer instead of the whole encoding. Cache keys
/// hash topologies through this.
pub(crate) fn hash_encoding_into(graph: &Graph, hasher: &mut Sha256) {
    hasher.update_u64((HEADER_LEN + payload_len_of(graph)) as u64);
    hasher.update(&header_of(graph));
    for_each_payload_chunk(graph, |chunk| {
        hasher.update(chunk);
        Ok(())
    })
    .expect("hashing cannot fail");
}

/// Encode a graph into the binary topology format, in RAM.
///
/// This materialises header + payload as one byte vector — fine for the
/// fast/paper tiers; the `huge` tier persists through [`save_graph`],
/// which streams the identical bytes to disk without the intermediate
/// vector, and cache keys stream them into the hash
/// ([`KeyBuilder::graph`](crate::KeyBuilder::graph)).
pub fn encode_graph(graph: &Graph) -> Vec<u8> {
    let payload_len = payload_len_of(graph);
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(&header_of(graph));
    for_each_payload_chunk(graph, |chunk| {
        out.extend_from_slice(chunk);
        Ok(())
    })
    .expect("vector append cannot fail");
    debug_assert_eq!(out.len(), HEADER_LEN + payload_len);
    out
}

/// Parsed header of a packed topology (exposed for `mcs topo verify`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopologyHeader {
    /// Format version.
    pub version: u32,
    /// Node count.
    pub nodes: u64,
    /// Undirected edge count.
    pub edges: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
    /// Payload checksum.
    pub payload_sha: Digest,
}

/// Decode and validate the 96-byte header.
pub fn decode_header(data: &[u8]) -> Result<TopologyHeader, StoreError> {
    if data.len() < HEADER_LEN {
        return Err(StoreError::Truncated {
            expected: HEADER_LEN,
            found: data.len(),
        });
    }
    let mut found = [0u8; 4];
    found.copy_from_slice(&data[0..4]);
    if found != MAGIC {
        return Err(StoreError::BadMagic {
            found,
            expected: MAGIC,
        });
    }
    let stored = &data[64..96];
    if sha256(&data[..64]).0 != *stored {
        return Err(StoreError::HeaderCorrupt);
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let mut sha = [0u8; 32];
    sha.copy_from_slice(&data[32..64]);
    Ok(TopologyHeader {
        version,
        nodes: u64::from_le_bytes(data[8..16].try_into().expect("8 bytes")),
        edges: u64::from_le_bytes(data[16..24].try_into().expect("8 bytes")),
        payload_len: u64::from_le_bytes(data[24..32].try_into().expect("8 bytes")),
        payload_sha: Digest(sha),
    })
}

/// Payload length a valid header implies, with fully checked arithmetic.
///
/// A forged header can claim node/edge counts near `u64::MAX`; naive
/// `edges * 8` arithmetic would wrap on 64-bit hosts (and `as usize`
/// truncates on 32-bit ones), making a corrupt file look internally
/// consistent. Every step here is checked, so such headers are rejected
/// as [`StoreError::PayloadCorrupt`] instead.
fn expected_payload_len(header: &TopologyHeader) -> Result<usize, StoreError> {
    let nodes: usize = header
        .nodes
        .try_into()
        .map_err(|_| StoreError::PayloadCorrupt)?;
    let edges: usize = header
        .edges
        .try_into()
        .map_err(|_| StoreError::PayloadCorrupt)?;
    nodes
        .checked_add(1)
        .and_then(|n1| n1.checked_mul(8))
        .and_then(|o| edges.checked_mul(8)?.checked_add(o))
        .ok_or(StoreError::PayloadCorrupt)
}

/// Decode a packed topology, validating header checksum, payload
/// checksum, and every graph invariant.
pub fn decode_graph(data: &[u8]) -> Result<Graph, StoreError> {
    let header = decode_header(data)?;
    let expected_payload = expected_payload_len(&header)?;
    if header.payload_len as usize != expected_payload {
        return Err(StoreError::PayloadCorrupt);
    }
    let expected_total = HEADER_LEN + expected_payload;
    if data.len() < expected_total {
        return Err(StoreError::Truncated {
            expected: expected_total,
            found: data.len(),
        });
    }
    if data.len() > expected_total {
        return Err(StoreError::PayloadCorrupt);
    }
    let payload = &data[HEADER_LEN..];
    if sha256(payload) != header.payload_sha {
        return Err(StoreError::PayloadCorrupt);
    }
    let n = header.nodes as usize;
    let mut offsets = Vec::with_capacity(n + 1);
    for chunk in payload[..(n + 1) * 8].chunks_exact(8) {
        let v = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        let v: usize = v
            .try_into()
            .map_err(|_| StoreError::InvalidTopology("offset exceeds usize".into()))?;
        offsets.push(v);
    }
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(header.edges as usize * 2);
    for chunk in payload[(n + 1) * 8..].chunks_exact(4) {
        neighbors.push(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
    }
    let graph =
        try_from_csr(offsets, neighbors).map_err(|e| StoreError::InvalidTopology(e.to_string()))?;
    if graph.edge_count() as u64 != header.edges {
        return Err(StoreError::InvalidTopology(
            "header edge count disagrees with payload".into(),
        ));
    }
    Ok(graph)
}

/// Save a graph to `path` (atomically), streaming the payload.
///
/// Byte-identical to `write_atomic(path, &encode_graph(graph))` but the
/// encoded file never exists as one vector in RAM: pass one hashes the
/// payload chunkwise, pass two re-serialises the same chunks straight
/// into the buffered temp-file writer. At the `huge` tier this keeps the
/// save-side footprint at one `STREAM_CHUNK` instead of ~1.5× the
/// graph's own size.
pub fn save_graph(path: &Path, graph: &Graph) -> Result<(), StoreError> {
    let header = header_of(graph);
    write_atomic_with(path, |w| {
        w.write_all(&header).map_err(|e| StoreError::io(path, e))?;
        for_each_payload_chunk(graph, |chunk| {
            w.write_all(chunk).map_err(|e| StoreError::io(path, e))
        })
    })
}

/// Load a graph from `path`, streaming the payload.
///
/// Same validation and error typing as [`decode_graph`] on the whole
/// file, but the payload is read in `STREAM_CHUNK`-sized pieces and
/// parsed directly into the CSR vectors, so the raw bytes and the graph
/// never coexist in RAM.
pub fn load_graph(path: &Path) -> Result<Graph, StoreError> {
    let file = std::fs::File::open(path).map_err(|e| StoreError::io(path, e))?;
    let file_len: usize = file
        .metadata()
        .map_err(|e| StoreError::io(path, e))?
        .len()
        .try_into()
        .map_err(|_| StoreError::PayloadCorrupt)?;
    let mut reader = std::io::BufReader::new(file);

    let mut header_buf = [0u8; HEADER_LEN];
    if file_len < HEADER_LEN {
        // Match decode_graph on short files: report how much was found.
        return Err(StoreError::Truncated {
            expected: HEADER_LEN,
            found: file_len,
        });
    }
    reader
        .read_exact(&mut header_buf)
        .map_err(|e| StoreError::io(path, e))?;
    let header = decode_header(&header_buf)?;
    let expected_payload = expected_payload_len(&header)?;
    if header.payload_len as usize != expected_payload {
        return Err(StoreError::PayloadCorrupt);
    }
    let expected_total = HEADER_LEN + expected_payload;
    if file_len < expected_total {
        return Err(StoreError::Truncated {
            expected: expected_total,
            found: file_len,
        });
    }
    if file_len > expected_total {
        return Err(StoreError::PayloadCorrupt);
    }

    let n = header.nodes as usize;
    let mut offsets: Vec<usize> = Vec::with_capacity(n + 1);
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(header.edges as usize * 2);
    let mut hasher = Sha256::new();
    let mut remaining = expected_payload;
    let mut chunk = vec![0u8; STREAM_CHUNK.min(expected_payload.max(1))];
    // Offsets serialise before neighbours and STREAM_CHUNK is a multiple
    // of 8, so within each chunk the split point is byte-aligned.
    let mut offsets_bytes_left = (n + 1) * 8;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        let buf = &mut chunk[..take];
        reader
            .read_exact(buf)
            .map_err(|e| StoreError::io(path, e))?;
        hasher.update(buf);
        let off_take = take.min(offsets_bytes_left);
        for b in buf[..off_take].chunks_exact(8) {
            let v = u64::from_le_bytes(b.try_into().expect("8 bytes"));
            let v: usize = v
                .try_into()
                .map_err(|_| StoreError::InvalidTopology("offset exceeds usize".into()))?;
            offsets.push(v);
        }
        offsets_bytes_left -= off_take;
        for b in buf[off_take..].chunks_exact(4) {
            neighbors.push(u32::from_le_bytes(b.try_into().expect("4 bytes")));
        }
        remaining -= take;
    }
    if hasher.finalize() != header.payload_sha {
        return Err(StoreError::PayloadCorrupt);
    }
    let graph =
        try_from_csr(offsets, neighbors).map_err(|e| StoreError::InvalidTopology(e.to_string()))?;
    if graph.edge_count() as u64 != header.edges {
        return Err(StoreError::InvalidTopology(
            "header edge count disagrees with payload".into(),
        ));
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::graph::from_edges;

    fn demo_graph() -> Graph {
        from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5)])
    }

    #[test]
    fn round_trip_preserves_graph_exactly() {
        let g = demo_graph();
        let bytes = encode_graph(&g);
        let back = decode_graph(&bytes).unwrap();
        assert_eq!(g, back);
        // Isolated node 6 survives.
        assert_eq!(back.node_count(), 7);
        assert_eq!(back.degree(6), 0);
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = demo_graph();
        assert_eq!(encode_graph(&g), encode_graph(&g));
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = from_edges(0, &[]);
        let back = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(back.node_count(), 0);
        assert_eq!(back.edge_count(), 0);
    }

    #[test]
    fn header_reports_counts() {
        let g = demo_graph();
        let h = decode_header(&encode_graph(&g)).unwrap();
        assert_eq!(h.version, FORMAT_VERSION);
        assert_eq!(h.nodes, 7);
        assert_eq!(h.edges, 6);
        assert_eq!(h.payload_len, 8 * 8 + 12 * 4);
    }

    #[test]
    fn bad_magic_and_truncation_are_typed() {
        let g = demo_graph();
        let bytes = encode_graph(&g);
        assert!(matches!(
            decode_graph(&bytes[..10]),
            Err(StoreError::Truncated { .. })
        ));
        let mut forged = bytes.clone();
        forged[0] = b'X';
        assert!(matches!(
            decode_graph(&forged),
            Err(StoreError::BadMagic { .. })
        ));
        // Truncated payload (header intact).
        assert!(matches!(
            decode_graph(&bytes[..bytes.len() - 1]),
            Err(StoreError::Truncated { .. })
        ));
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            decode_graph(&extended),
            Err(StoreError::PayloadCorrupt)
        ));
    }

    #[test]
    fn corrupted_header_fields_are_detected() {
        let g = demo_graph();
        let bytes = encode_graph(&g);
        // Any header byte flip (after magic) → HeaderCorrupt, because the
        // header hash no longer matches. A version flip is also caught by
        // the checksum before the version check runs.
        for idx in [5usize, 9, 17, 25, 40] {
            let mut forged = bytes.clone();
            forged[idx] ^= 0xff;
            assert!(
                matches!(decode_graph(&forged), Err(StoreError::HeaderCorrupt)),
                "byte {idx}"
            );
        }
        // A *consistently re-checksummed* wrong version is typed.
        let mut forged = bytes.clone();
        forged[4..8].copy_from_slice(&99u32.to_le_bytes());
        let rehash = sha256(&forged[..64]);
        forged[64..96].copy_from_slice(&rehash.0);
        assert!(matches!(
            decode_graph(&forged),
            Err(StoreError::UnsupportedVersion {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn corrupted_payload_is_detected() {
        let g = demo_graph();
        let bytes = encode_graph(&g);
        for idx in [HEADER_LEN, HEADER_LEN + 9, bytes.len() - 1] {
            let mut forged = bytes.clone();
            forged[idx] ^= 0x01;
            assert!(
                matches!(decode_graph(&forged), Err(StoreError::PayloadCorrupt)),
                "byte {idx}"
            );
        }
    }

    #[test]
    fn forged_but_rechecksummed_payload_fails_invariants() {
        // Rewrite a neighbour id and fix up both checksums: the CSR
        // validator must still reject it (asymmetric edge).
        let g = demo_graph();
        let mut bytes = encode_graph(&g);
        let ndir = g.csr_neighbors().len();
        let last = HEADER_LEN + (g.node_count() + 1) * 8 + (ndir - 1) * 4;
        bytes[last..last + 4].copy_from_slice(&0u32.to_le_bytes());
        let payload_sha = sha256(&bytes[HEADER_LEN..]);
        bytes[32..64].copy_from_slice(&payload_sha.0);
        let header_sha = sha256(&bytes[..64]);
        bytes[64..96].copy_from_slice(&header_sha.0);
        assert!(matches!(
            decode_graph(&bytes),
            Err(StoreError::InvalidTopology(_))
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("mcast-store-fmt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("demo.mct");
        let g = demo_graph();
        save_graph(&path, &g).unwrap();
        assert_eq!(load_graph(&path).unwrap(), g);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_save_matches_in_ram_encoder_byte_for_byte() {
        // The cache keys hash encode_graph's bytes, so the streaming
        // writer must never diverge from the in-RAM encoder.
        let dir = std::env::temp_dir().join(format!("mcast-store-strm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("demo.mct");
        let g = demo_graph();
        save_graph(&path, &g).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), encode_graph(&g));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn forged_astronomical_edge_count_is_rejected_not_wrapped() {
        // edges ≈ 2^61 would wrap `edges * 8` on a 64-bit host if the
        // length arithmetic were unchecked; with a re-checksummed header
        // the only defence is expected_payload_len's checked math.
        let g = demo_graph();
        let mut forged = encode_graph(&g);
        forged[16..24].copy_from_slice(&(1u64 << 61).to_le_bytes());
        let rehash = sha256(&forged[..64]);
        forged[64..96].copy_from_slice(&rehash.0);
        assert!(matches!(
            decode_graph(&forged),
            Err(StoreError::PayloadCorrupt)
        ));
        // Same rejection through the streaming loader.
        let dir = std::env::temp_dir().join(format!("mcast-store-forge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("forged.mct");
        write_atomic_with(&path, |w| {
            w.write_all(&forged).map_err(|e| StoreError::io(&path, e))
        })
        .unwrap();
        assert!(matches!(load_graph(&path), Err(StoreError::PayloadCorrupt)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_loader_types_errors_like_the_in_ram_decoder() {
        let dir = std::env::temp_dir().join(format!("mcast-store-lderr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = demo_graph();
        let bytes = encode_graph(&g);
        let write = |name: &str, data: &[u8]| {
            let p = dir.join(name);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&p, data).unwrap();
            p
        };
        // Short file → Truncated with the found length, like decode_graph.
        let p = write("short.mct", &bytes[..10]);
        assert!(matches!(
            load_graph(&p),
            Err(StoreError::Truncated {
                expected: HEADER_LEN,
                found: 10
            })
        ));
        // Truncated payload (header intact).
        let p = write("cut.mct", &bytes[..bytes.len() - 1]);
        assert!(matches!(load_graph(&p), Err(StoreError::Truncated { .. })));
        // Trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        let p = write("long.mct", &extended);
        assert!(matches!(load_graph(&p), Err(StoreError::PayloadCorrupt)));
        // Flipped payload byte → checksum mismatch.
        let mut flipped = bytes.clone();
        flipped[HEADER_LEN + 9] ^= 0x01;
        let p = write("flip.mct", &flipped);
        assert!(matches!(load_graph(&p), Err(StoreError::PayloadCorrupt)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
