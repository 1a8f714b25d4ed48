//! Bit-parallel multi-source BFS with wide lanes and direction switching.
//!
//! Every §4 quantity the paper needs — reachability profiles `S(r)`/`T(r)`,
//! the unicast normaliser `ū`, sampled path statistics — is an aggregate
//! over *many* single-source BFS sweeps of the same graph. [`BatchBfs`]
//! advances up to [`MAX_LANES`] sources simultaneously in the MS-BFS
//! style: each node carries `W` `u64` mask words (`W` ∈ {1, 4, 8}, chosen
//! per sweep from the source count) whose bit `k·64+i` means "lane
//! `k·64+i` has seen this node", and one level-synchronous pass over the
//! CSR adjacency propagates all lanes at once with word-wide ORs. The
//! word loops have a compile-time trip count (the sweep is monomorphised
//! per width), so they autovectorise.
//!
//! Each level runs in one of two directions:
//!
//! * **push** (top-down): every frontier node tests `frontier & !seen`
//!   against each neighbour and commits discoveries in place — a fused
//!   single pass with no candidate list, where a non-discovering edge is
//!   one load and two ALU ops. Cheap while the frontier is sparse.
//! * **pull** (bottom-up): every not-yet-fully-seen node scans its own
//!   neighbours' frontier words and stops as soon as all of its missing
//!   lanes are covered. Cheap while the frontier is dense — the
//!   direction-optimising trade ([Beamer et al.]): switch to pull when the
//!   frontier's edge count `m_f` crosses `m_u / α` (edges still incident
//!   to unfinished nodes), and back to push when the frontier population
//!   `n_f` drops below `n / β`. Unlike the single-source setting — where
//!   pull wins early because one covered bit retires a node — a
//!   multi-source pull keeps scanning until *every* missing lane is
//!   covered, so its advantage is thinner and `α` defaults near 1: pull
//!   engages only once the frontier's edge count actually exceeds the
//!   remaining work. The pull scan walks a sorted active list in blocks
//!   bounded by CSR edge span, so large graphs stream through the cache
//!   instead of thrashing it.
//!
//! Both directions discover exactly the same per-level sets (the kernel is
//! level-synchronous), so distances and histograms are bit-identical in
//! every mode and at every width; `batch_props.rs` pins this.
//!
//! The engine has two entry points, one job each:
//!
//! * [`BatchBfs::run`] records per-lane distance arrays, identical to what
//!   [`crate::bfs::Bfs`] produces for each source (BFS distances are
//!   unique, so the traversal schedule cannot change them). Its consumer
//!   is [`BatchBfs::parent_tree`].
//! * [`BatchBfs::run_totals`] records only the *lane-summed* histogram
//!   `Σ_lane S_lane(r)` — all that the averaged `T(r)` and the path
//!   statistics (`Σ r·S(r)`, `Σ S(r) − lanes`, the largest eccentricity)
//!   read. It traverses a **leaf-folded** view: only nodes of degree ≥ 2
//!   carry mask words, and every degree-≤1 node is counted analytically
//!   from its sole neighbour's discoveries (exactly those lanes reach it,
//!   one level later, and nothing else ever can). The paper's tree-like
//!   topologies are mostly leaves (ti5000: 87%), so the folded sweep
//!   touches a core an order of magnitude smaller than the graph while
//!   producing bit-identical histograms.
//!
//! What the kernel deliberately does **not** record is BFS parents: parent
//! choice depends on the scalar queue's FIFO discovery order, which a
//! word-parallel frontier does not reproduce, and the delivery-tree sizes
//! built from parents would silently change. Consumers that need the
//! scalar engine's FIFO tree (the delivery sizer) keep using it; see
//! `DESIGN.md` §9. Consumers that only need *some* deterministic
//! shortest-path tree — the multi-session churn engine grafting dozens
//! of new sessions in one tick — call [`BatchBfs::parent_tree`], which
//! derives parents from a lane's finished distances under the
//! schedule-independent lowest-id rule of
//! [`crate::bfs::min_index_parents`], so batched and scalar construction
//! of the same source tree are bit-identical by construction.

use crate::bfs::UNREACHED;
use crate::graph::{Graph, NodeId, OffsetSlice, OffsetsView};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Lanes carried by one `u64` mask word.
pub const LANES_PER_WORD: usize = 64;

/// Maximum mask words per node (widest sweep).
pub const MAX_WORDS: usize = 8;

/// Maximum sources one sweep advances simultaneously.
pub const MAX_LANES: usize = LANES_PER_WORD * MAX_WORDS;

/// Default `α` of the push→pull switch (`m_f · α > m_u`). Classic
/// single-source direction optimisation uses α ≈ 14, but a multi-source
/// pull cannot retire an active node until every missing lane is covered,
/// so its early exit fires far less often; pull only pays off once the
/// frontier's edge count genuinely exceeds the remaining incident edges.
pub const DEFAULT_ALPHA: u64 = 1;

/// Default `β` of the pull→push switch (`n_f · β < n`).
pub const DEFAULT_BETA: u64 = 24;

/// Edge span (CSR entries) one pull block scans before moving on; bounds
/// the working set of neighbour frontier words per block.
const PULL_EDGE_BLOCK: usize = 1 << 15;

/// Per-level traversal direction policy for one [`BatchBfs`] engine.
///
/// Every policy produces bit-identical distances and histograms — the
/// kernel is level-synchronous, so direction only changes how a level's
/// discovery set is computed, never what it is. `Auto` is the default and
/// the fast path; the forced modes exist for tests and A/B artifact
/// checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Switch per level on the classic thresholds: push→pull when the
    /// frontier's edge count times `alpha` exceeds the edges still
    /// incident to unfinished nodes, pull→push when the frontier
    /// population times `beta` drops below the node count.
    Auto {
        /// Push→pull aggressiveness (larger switches later).
        alpha: u64,
        /// Pull→push aggressiveness (larger switches back later).
        beta: u64,
    },
    /// Top-down fused-discover push on every level.
    AlwaysPush,
    /// Bottom-up CSR scan on every level.
    AlwaysPull,
}

impl Default for Direction {
    fn default() -> Self {
        Direction::Auto {
            alpha: DEFAULT_ALPHA,
            beta: DEFAULT_BETA,
        }
    }
}

/// Effective lane cap for batching call sites (see [`max_lanes`]).
static LANE_LIMIT: AtomicUsize = AtomicUsize::new(MAX_LANES);

/// Process-wide direction override (see [`set_direction_override`]):
/// 0 = none, 1 = auto, 2 = push, 3 = pull.
static DIRECTION_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The lane cap batching call sites should chunk sources by. Defaults to
/// [`MAX_LANES`]; [`set_lane_limit`] narrows it process-wide (results
/// are bit-identical at every width, only the sweep shape changes).
pub fn max_lanes() -> usize {
    LANE_LIMIT.load(Ordering::Relaxed)
}

/// Cap [`max_lanes`] at `limit` (one of 64, 256, 512); `None` restores
/// the full width. Affects how call sites *chunk* source lists — any
/// individual [`BatchBfs::run`] still accepts up to [`MAX_LANES`] sources.
///
/// # Panics
/// Panics if `limit` is not one of the supported widths.
pub fn set_lane_limit(limit: Option<usize>) {
    let v = limit.unwrap_or(MAX_LANES);
    assert!(
        v == 64 || v == 256 || v == 512,
        "lane limit must be 64, 256 or 512, got {v}"
    );
    LANE_LIMIT.store(v, Ordering::Relaxed);
}

/// Forced traversal direction applied by [`set_direction_override`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirectionOverride {
    /// The default `α`/`β` heuristic.
    Auto,
    /// Push on every level.
    Push,
    /// Pull on every level.
    Pull,
}

/// Process-wide direction override applied to every engine created after
/// the call (`None` restores the default heuristic). Results are
/// bit-identical in every mode; this exists so artifact-level A/B checks
/// (goldens across push-only / pull-enabled runs) can flip the whole
/// pipeline without threading a knob through every constructor.
pub fn set_direction_override(mode: Option<DirectionOverride>) {
    let code = match mode {
        None => 0,
        Some(DirectionOverride::Auto) => 1,
        Some(DirectionOverride::Push) => 2,
        Some(DirectionOverride::Pull) => 3,
    };
    DIRECTION_OVERRIDE.store(code, Ordering::Relaxed);
}

fn direction_for_new_engine() -> Direction {
    match DIRECTION_OVERRIDE.load(Ordering::Relaxed) {
        2 => Direction::AlwaysPush,
        3 => Direction::AlwaysPull,
        _ => Direction::default(),
    }
}

/// Mask words needed for `lanes` sources: the narrowest supported width
/// that fits, so small batches never pay for unused words.
fn words_for(lanes: usize) -> usize {
    if lanes <= LANES_PER_WORD {
        1
    } else if lanes <= 4 * LANES_PER_WORD {
        4
    } else {
        8
    }
}

/// Record `level` as node `xi`'s distance in every lane set in `new` (the
/// lanes that discovered `xi` this level).
#[inline]
fn record_level<const W: usize>(dist: &mut [u32], n: usize, xi: usize, new: &[u64; W], level: u32) {
    for (k, &nw) in new.iter().enumerate() {
        let base = k * LANES_PER_WORD;
        let mut bits = nw;
        while bits != 0 {
            let lane = base + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            dist[lane * n + xi] = level;
        }
    }
}

/// Leaf-folded view of the graph for totals sweeps: the *core* is the
/// subgraph induced by nodes of degree ≥ 2, renumbered compactly, and
/// every folded degree-≤1 neighbour collapses into a per-core-node count.
///
/// The fold is exact for lane-summed counting because a degree-1 node's
/// lanes can only ever arrive from its sole neighbour: each time that
/// neighbour gains new lanes, the leaf gains *exactly* those lanes one
/// level later, so the leaf's whole discovery history is
/// `leaf_count · popcount(neighbour's new lanes)` — no leaf mask words
/// needed. Sources that are themselves folded get per-sweep virtual
/// slots (see [`BatchBfs::run_totals`]).
struct CoreRep {
    /// Core index per node (`u32::MAX` marks a folded node).
    core_id: Vec<u32>,
    /// CSR offsets of the core-only adjacency, in core-id space. `usize`,
    /// like the graph's own offsets at their widest, so no core can
    /// outgrow them.
    core_off: Vec<usize>,
    /// Core-only neighbour lists, in core-id space.
    core_neigh: Vec<u32>,
    /// Folded degree-≤1 neighbours per core node.
    leaf_count: Vec<u32>,
}

impl CoreRep {
    /// Build the folded view of `graph`.
    fn build(graph: &Graph) -> Self {
        let n = graph.node_count();
        let offsets = graph.csr_offsets();
        let neigh = graph.csr_neighbors();
        let mut core_id = vec![u32::MAX; n];
        let mut ncore = 0u32;
        let mut core_arcs = 0usize;
        for (v, id) in core_id.iter_mut().enumerate() {
            let deg = offsets.at(v + 1) - offsets.at(v);
            if deg >= 2 {
                *id = ncore;
                ncore += 1;
            }
        }
        // Exact pre-count of the core arcs, so the neighbour list is
        // allocated once at its final size.
        for v in 0..n {
            if core_id[v] == u32::MAX {
                continue;
            }
            core_arcs += neigh[offsets.at(v)..offsets.at(v + 1)]
                .iter()
                .filter(|&&x| core_id[x as usize] != u32::MAX)
                .count();
        }
        let mut core_off = Vec::with_capacity(ncore as usize + 1);
        core_off.push(0);
        let mut core_neigh = Vec::with_capacity(core_arcs);
        let mut leaf_count = vec![0u32; ncore as usize];
        for v in 0..n {
            let ci = core_id[v];
            if ci == u32::MAX {
                continue;
            }
            for &x in &neigh[offsets.at(v)..offsets.at(v + 1)] {
                let xc = core_id[x as usize];
                if xc != u32::MAX {
                    core_neigh.push(xc);
                } else {
                    leaf_count[ci as usize] += 1;
                }
            }
            core_off.push(core_neigh.len());
        }
        debug_assert_eq!(core_neigh.len(), core_arcs, "core arc pre-count drifted");
        Self {
            core_id,
            core_off,
            core_neigh,
            leaf_count,
        }
    }
}

/// Reusable bit-parallel BFS engine over one graph.
///
/// ```
/// use mcast_topology::batch::BatchBfs;
/// use mcast_topology::bfs::Bfs;
/// use mcast_topology::graph::from_edges;
///
/// let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
/// let mut batch = BatchBfs::new(&g);
/// batch.run(&[0, 2]);
/// let mut scalar = Bfs::new(&g);
/// scalar.run_scratch(0);
/// assert_eq!(batch.distances(0), scalar.scratch_distances());
/// batch.run_totals(&[0, 2]);
/// // S(r) from node 0 is [1, 1, 1, 1, 1], from node 2 [1, 2, 2].
/// assert_eq!(batch.level_totals(), &[2, 3, 3, 1, 1]);
/// ```
pub struct BatchBfs<'g> {
    graph: &'g Graph,
    /// Node-major interleaved lane masks: word `k` of node `v` lives at
    /// `seen[v * words + k]`; bit `i` of word `k` is lane `k·64+i`.
    seen: Vec<u64>,
    /// Lane masks of the current frontier (nodes discovered at the
    /// previous level), non-zero only for nodes in `front`.
    frontier: Vec<u64>,
    /// Accumulator for the next frontier's lane masks.
    next: Vec<u64>,
    /// Nodes with a non-zero `frontier` word.
    front: Vec<NodeId>,
    /// Scratch: the frontier list under construction.
    spare: Vec<NodeId>,
    /// Pull mode: sorted not-yet-fully-seen nodes with degree > 0.
    active: Vec<NodeId>,
    /// Lane-major distances: `dist[lane * n + v]`. Only populated by
    /// [`run`](Self::run).
    dist: Vec<u32>,
    /// Lane-summed `S(r)` of a [`run_totals`](Self::run_totals) sweep.
    level_totals: Vec<u64>,
    /// Leaf-folded core view, built on the first totals sweep.
    core: Option<CoreRep>,
    /// Totals sweeps: folded sources promoted to virtual slots.
    promoted: Vec<NodeId>,
    /// Totals sweeps: slot→slot pushes wiring the virtual slots in.
    pairs: Vec<(u32, u32)>,
    /// Totals sweeps: per-slot effective folded-leaf counts.
    leaf_eff: Vec<u32>,
    lanes: usize,
    /// Mask words per node in the last sweep.
    words: usize,
    /// Test/tuning override for the per-sweep width choice.
    forced_words: Option<usize>,
    direction: Direction,
    /// Levels of the last sweep that ran bottom-up.
    pull_levels_last: u32,
    /// Whether the last sweep was [`run`](Self::run) (distance arrays)
    /// rather than [`run_totals`](Self::run_totals) (lane-summed
    /// histogram).
    dist_recorded: bool,
    /// The sources of the last sweep, per lane (for parent derivation).
    sources_last: Vec<NodeId>,
}

impl<'g> BatchBfs<'g> {
    /// New engine for `graph`; buffers are reused across [`run`](Self::run)s.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            seen: Vec::new(),
            frontier: Vec::new(),
            next: Vec::new(),
            front: Vec::new(),
            spare: Vec::new(),
            active: Vec::new(),
            dist: Vec::new(),
            level_totals: Vec::new(),
            core: None,
            promoted: Vec::new(),
            pairs: Vec::new(),
            leaf_eff: Vec::new(),
            lanes: 0,
            words: 0,
            forced_words: None,
            direction: direction_for_new_engine(),
            pull_levels_last: 0,
            dist_recorded: false,
            sources_last: Vec::new(),
        }
    }

    /// The graph this engine traverses.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The direction policy sweeps run under.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// Set the direction policy for subsequent sweeps. Results are
    /// bit-identical under every policy; only performance changes.
    pub fn set_direction(&mut self, direction: Direction) {
        self.direction = direction;
    }

    /// Force the per-node mask width for subsequent sweeps (`Some(1 | 4 |
    /// 8)`), overriding the automatic choice from the source count;
    /// `None` restores auto. A sweep still panics if its sources exceed
    /// the forced width's lanes.
    ///
    /// # Panics
    /// Panics if `words` is not 1, 4 or 8.
    pub fn force_words(&mut self, words: Option<usize>) {
        if let Some(w) = words {
            assert!(w == 1 || w == 4 || w == 8, "width must be 1, 4 or 8 words");
        }
        self.forced_words = words;
    }

    /// Levels of the last sweep that ran bottom-up (0 for a pure push
    /// sweep).
    pub fn pull_levels(&self) -> u32 {
        self.pull_levels_last
    }

    /// Run one level-synchronous sweep from `sources` (lane `i` is rooted
    /// at `sources[i]`; duplicates are fine — lanes stay independent),
    /// recording each lane's distance array for
    /// [`distances`](Self::distances) and [`parent_tree`](Self::parent_tree)
    /// until the next sweep.
    ///
    /// When observability is enabled, each sweep bumps `bfs.batch.sweeps`,
    /// `bfs.batch.sources` (lanes advanced) and `bfs.batch.levels`
    /// (frontier expansions); sweeps in which the direction heuristic
    /// engaged the bottom-up scan additionally bump `bfs.batch.pull_sweeps`
    /// and `bfs.batch.pull_levels`. When a timed trace is recording, each
    /// sweep opens a `bfs/batch_sweep` span, so those counter deltas
    /// attribute to the individual sweep.
    ///
    /// # Panics
    /// Panics if `sources` is empty, longer than [`MAX_LANES`] (or the
    /// forced width's lanes), or names a node out of range.
    pub fn run(&mut self, sources: &[NodeId]) {
        // Monomorphise over both the mask width and the offset width, so
        // the hot loops index offsets with no per-access branch.
        let graph = self.graph;
        match (self.checked_words(sources), graph.csr_offsets()) {
            (1, OffsetsView::Narrow(o)) => self.sweep_w::<1, _>(sources, o),
            (4, OffsetsView::Narrow(o)) => self.sweep_w::<4, _>(sources, o),
            (8, OffsetsView::Narrow(o)) => self.sweep_w::<8, _>(sources, o),
            (1, OffsetsView::Wide(o)) => self.sweep_w::<1, _>(sources, o),
            (4, OffsetsView::Wide(o)) => self.sweep_w::<4, _>(sources, o),
            (8, OffsetsView::Wide(o)) => self.sweep_w::<8, _>(sources, o),
            _ => unreachable!("width validated by force_words"),
        }
    }

    /// Sweep from `sources` like [`run`](Self::run), but record only the
    /// *lane-summed* discovery histogram [`level_totals`](Self::level_totals)
    /// — entry `r` is `Σ_lane S_lane(r)` — and no per-lane structure.
    /// Every consumer that folds lanes into running integer sums gets a
    /// bit-identical fold from this histogram, because u64 addition is
    /// exact and associative: the averaged `T(r)`
    /// ([`crate::reachability::AverageReachability`]) and the path
    /// statistics ([`crate::metrics::exact_path_stats`]: `Σ r·S(r)`,
    /// `Σ S(r) − lanes` and the largest eccentricity, `len − 1`).
    ///
    /// Because no per-lane state survives, this sweep traverses a
    /// *leaf-folded* view of the graph (`CoreRep`): only nodes of
    /// degree ≥ 2 carry mask words, and each folded degree-≤1 node is
    /// counted analytically from its sole neighbour's new lanes — exact,
    /// since those are the only lanes that can ever reach it. On the
    /// leaf-heavy tree-ish topologies of the paper this shrinks the
    /// traversal to a small core (ti5000: 650 of 5000 nodes). Folded
    /// *sources* are promoted to per-sweep virtual slots wired to their
    /// neighbours, so every source placement stays exact. The folded
    /// walk is top-down on every level regardless of the direction
    /// policy — a bottom-up scan would need the leaf mask words this
    /// representation deliberately never materialises — which changes
    /// nothing observable: every direction produces bit-identical
    /// histograms ([`pull_levels`](Self::pull_levels) reads 0).
    ///
    /// # Panics
    /// Same contract as [`run`](Self::run).
    pub fn run_totals(&mut self, sources: &[NodeId]) {
        match self.checked_words(sources) {
            1 => self.totals_sweep_w::<1>(sources),
            4 => self.totals_sweep_w::<4>(sources),
            8 => self.totals_sweep_w::<8>(sources),
            _ => unreachable!("width validated by force_words"),
        }
    }

    /// Per-sweep mask width for `sources`, validating the batch size.
    fn checked_words(&self, sources: &[NodeId]) -> usize {
        let words = self
            .forced_words
            .unwrap_or_else(|| words_for(sources.len()));
        let cap = words * LANES_PER_WORD;
        assert!(
            !sources.is_empty() && sources.len() <= cap,
            "source batch must hold 1..={cap} sources, got {}",
            sources.len()
        );
        words
    }

    fn sweep_w<const W: usize, O: OffsetSlice>(&mut self, sources: &[NodeId], offsets: O) {
        // Timed span only while a trace records: a sweep is the BFS
        // kernel's unit of work, and the span carries this sweep's
        // counter deltas. Costs one relaxed load when tracing is off.
        let _span = mcast_obs::trace::active().then(|| mcast_obs::span_at("bfs/batch_sweep"));
        let n = self.graph.node_count();
        let lanes = sources.len();
        self.lanes = lanes;
        self.words = W;
        self.dist_recorded = true;
        self.sources_last.clear();
        self.sources_last.extend_from_slice(sources);

        // Full-lane masks: bit set iff that lane exists this sweep. The
        // tail word is partial and trailing words of a forced-wide sweep
        // are zero, so dead lanes are inert everywhere below.
        let mut full = [0u64; W];
        for (k, f) in full.iter_mut().enumerate() {
            let lo = k * LANES_PER_WORD;
            *f = if lanes >= lo + LANES_PER_WORD {
                !0
            } else if lanes > lo {
                (1u64 << (lanes - lo)) - 1
            } else {
                0
            };
        }

        self.seen.clear();
        self.seen.resize(n * W, 0);
        self.frontier.clear();
        self.frontier.resize(n * W, 0);
        self.next.clear();
        self.next.resize(n * W, 0);
        self.dist.clear();
        self.dist.resize(lanes * n, UNREACHED);
        self.level_totals.clear();

        let graph = self.graph;
        let neigh = graph.csr_neighbors();
        let seen = &mut self.seen[..];
        let frontier = &mut self.frontier[..];
        let next = &mut self.next[..];
        let dist = &mut self.dist[..];

        let mut front = std::mem::take(&mut self.front);
        front.clear();
        for (lane, &s) in sources.iter().enumerate() {
            let si = s as usize;
            assert!(si < n, "source {s} out of range");
            let (wk, bit) = (lane / LANES_PER_WORD, 1u64 << (lane % LANES_PER_WORD));
            seen[si * W + wk] |= bit;
            if frontier[si * W..si * W + W].iter().all(|&w| w == 0) {
                front.push(s);
            }
            frontier[si * W + wk] |= bit;
            dist[lane * n + si] = 0;
        }

        // Heuristic bookkeeping: `front_deg` is the frontier's edge count
        // (m_f); `remaining_deg` counts edges still incident to nodes not
        // yet seen by every lane (m_u), decremented exactly when a node
        // turns full.
        let mut remaining_deg = 2 * graph.edge_count() as u64;
        let mut front_deg: u64 = 0;
        for &v in &front {
            let vi = v as usize;
            let deg = (offsets.at(vi + 1) - offsets.at(vi)) as u64;
            front_deg += deg;
            if seen[vi * W..vi * W + W] == full[..] {
                remaining_deg -= deg;
            }
        }

        let mut next_front = std::mem::take(&mut self.spare);
        let mut active = std::mem::take(&mut self.active);
        active.clear();
        let mut active_built = false;
        let direction = self.direction;
        let mut pulling = false;
        let mut pull_levels: u32 = 0;
        let mut level: u32 = 0;
        while !front.is_empty() {
            level += 1;
            let want_pull = match direction {
                Direction::AlwaysPush => false,
                Direction::AlwaysPull => true,
                Direction::Auto { alpha, beta } => {
                    if pulling {
                        // Stay bottom-up while the frontier is a large
                        // share of the graph: revert when n_f·β < n.
                        (front.len() as u64).saturating_mul(beta) >= n as u64
                    } else {
                        front_deg.saturating_mul(alpha) > remaining_deg
                    }
                }
            };

            if !want_pull {
                // ---- top-down push --------------------------------------
                // Two passes built to keep the branch predictor out of the
                // hot loop. The edge pass is branch-free: every frontier
                // node unconditionally ORs its frontier words into each
                // neighbour's accumulator — a "did this edge discover
                // anything" test here is mispredicted roughly half the
                // time on sparse graphs, and its penalty dwarfs the store
                // it would save. Taking the frontier words clears them in
                // the same pass (the graph has no self-loops).
                pulling = false;
                for &v in &front {
                    let vi = v as usize;
                    let fb = vi * W;
                    let mut fw = [0u64; W];
                    for k in 0..W {
                        fw[k] = frontier[fb + k];
                        frontier[fb + k] = 0;
                    }
                    for &x in &neigh[offsets.at(vi)..offsets.at(vi + 1)] {
                        let xb = x as usize * W;
                        let nx = &mut next[xb..xb + W];
                        for k in 0..W {
                            nx[k] |= fw[k];
                        }
                    }
                }
                // The resolve pass then scans the accumulator *in node
                // order* — a sequential stream the prefetcher can run
                // ahead of — zeroing it as it goes, and commits each
                // touched node's genuinely-new lanes. As a side effect
                // the new frontier list comes out sorted by node id, so
                // the next edge pass walks the CSR monotonically.
                next_front.clear();
                front_deg = 0;
                for (xi, nx) in next.chunks_exact_mut(W).enumerate() {
                    let mut any = 0u64;
                    for w in nx.iter() {
                        any |= w;
                    }
                    if any == 0 {
                        continue;
                    }
                    let xb = xi * W;
                    let mut new = [0u64; W];
                    let mut any_new = 0u64;
                    for k in 0..W {
                        let nw = nx[k] & !seen[xb + k];
                        nx[k] = 0;
                        new[k] = nw;
                        any_new |= nw;
                    }
                    if any_new == 0 {
                        continue;
                    }
                    let mut became_full = true;
                    for k in 0..W {
                        let s2 = seen[xb + k] | new[k];
                        seen[xb + k] = s2;
                        frontier[xb + k] = new[k];
                        became_full &= s2 == full[k];
                    }
                    next_front.push(xi as NodeId);
                    let deg = (offsets.at(xi + 1) - offsets.at(xi)) as u64;
                    front_deg += deg;
                    if became_full {
                        remaining_deg -= deg;
                    }
                    record_level::<W>(dist, n, xi, &new, level);
                }
            } else {
                // ---- bottom-up pull -----------------------------------
                if !active_built {
                    // First pull level: gather every node some lane still
                    // misses (degree-0 nodes can never be discovered).
                    // Recomputes `remaining_deg` from scratch so the
                    // incremental bookkeeping cannot drift.
                    active.clear();
                    remaining_deg = 0;
                    for v in 0..n {
                        let deg = offsets.at(v + 1) - offsets.at(v);
                        if deg == 0 {
                            continue;
                        }
                        if seen[v * W..v * W + W] != full[..] {
                            active.push(v as NodeId);
                            remaining_deg += deg as u64;
                        }
                    }
                    active_built = true;
                }
                pulling = true;
                pull_levels += 1;
                next_front.clear();
                // The active list is sorted by node id, so `seen`, the
                // CSR offsets and the neighbour ranges all stream; blocks
                // bound the CSR span scanned per burst, keeping the
                // random-access frontier words of one block's neighbours
                // LLC-resident on graphs with id locality.
                let mut ai = 0;
                while ai < active.len() {
                    let mut blk_end = ai;
                    let mut span = 0usize;
                    while blk_end < active.len() && span < PULL_EDGE_BLOCK {
                        let v = active[blk_end] as usize;
                        span += offsets.at(v + 1) - offsets.at(v);
                        blk_end += 1;
                    }
                    for &x in &active[ai..blk_end] {
                        let xi = x as usize;
                        let xb = xi * W;
                        let mut miss = [0u64; W];
                        let mut any_miss = 0u64;
                        for k in 0..W {
                            let m = full[k] & !seen[xb + k];
                            miss[k] = m;
                            any_miss |= m;
                        }
                        if any_miss == 0 {
                            continue;
                        }
                        let mut acc = [0u64; W];
                        for &y in &neigh[offsets.at(xi)..offsets.at(xi + 1)] {
                            let yb = y as usize * W;
                            let mut rem = 0u64;
                            for k in 0..W {
                                acc[k] |= frontier[yb + k] & miss[k];
                                rem |= miss[k] & !acc[k];
                            }
                            if rem == 0 {
                                break; // every missing lane covered
                            }
                        }
                        let mut any_new = 0u64;
                        for a in acc.iter() {
                            any_new |= a;
                        }
                        if any_new != 0 {
                            // Park discoveries in `next`: the frontier
                            // must stay intact until the level completes.
                            next[xb..xb + W].copy_from_slice(&acc);
                            next_front.push(x);
                        }
                    }
                    ai = blk_end;
                }
                // Install the new frontier: clear the old one, move the
                // parked discoveries in, and record them.
                for &v in &front {
                    let fb = v as usize * W;
                    for k in 0..W {
                        frontier[fb + k] = 0;
                    }
                }
                front_deg = 0;
                for &x in &next_front {
                    let xi = x as usize;
                    let xb = xi * W;
                    let mut became_full = true;
                    let mut new = [0u64; W];
                    for k in 0..W {
                        let nw = next[xb + k];
                        next[xb + k] = 0;
                        frontier[xb + k] = nw;
                        new[k] = nw;
                        let s2 = seen[xb + k] | nw;
                        seen[xb + k] = s2;
                        became_full &= s2 == full[k];
                    }
                    let deg = (offsets.at(xi + 1) - offsets.at(xi)) as u64;
                    front_deg += deg;
                    if became_full {
                        remaining_deg -= deg;
                    }
                    record_level::<W>(dist, n, xi, &new, level);
                }
                // Compact: fully-seen nodes never discover again.
                active.retain(|&v| seen[v as usize * W..v as usize * W + W] != full[..]);
            }
            std::mem::swap(&mut front, &mut next_front);
        }
        self.front = front;
        self.spare = next_front;
        self.active = active;
        self.pull_levels_last = pull_levels;
        if mcast_obs::enabled() {
            mcast_obs::counter("bfs.batch.sweeps").add(1);
            mcast_obs::counter("bfs.batch.sources").add(lanes as u64);
            mcast_obs::counter("bfs.batch.levels").add(u64::from(level));
            if pull_levels > 0 {
                mcast_obs::counter("bfs.batch.pull_sweeps").add(1);
                mcast_obs::counter("bfs.batch.pull_levels").add(u64::from(pull_levels));
            }
        }
    }

    /// Lane-summed counting sweep over the leaf-folded core (see
    /// [`run_totals`](Self::run_totals) for the fold argument). Slot ids
    /// replace node ids throughout: `0..ncore` are core nodes, slots past
    /// `ncore` are this sweep's promoted (folded) sources.
    fn totals_sweep_w<const W: usize>(&mut self, sources: &[NodeId]) {
        let _span = mcast_obs::trace::active().then(|| mcast_obs::span_at("bfs/batch_sweep"));
        let n = self.graph.node_count();
        let lanes = sources.len();
        self.lanes = lanes;
        self.words = W;
        self.dist_recorded = false;
        self.sources_last.clear();
        self.sources_last.extend_from_slice(sources);
        self.level_totals.clear();

        let core = self
            .core
            .take()
            .unwrap_or_else(|| CoreRep::build(self.graph));
        let ncore = core.leaf_count.len();
        // Graph offsets only wire the few promoted sources (cold path);
        // the hot level loop runs on the core's own CSR.
        let offsets = self.graph.csr_offsets();
        let neigh = self.graph.csr_neighbors();

        // Promote every folded source (leaf or isolated node) to a
        // virtual slot; duplicates share one slot, lanes stay independent
        // in its mask words.
        let mut promoted = std::mem::take(&mut self.promoted);
        let mut pairs = std::mem::take(&mut self.pairs);
        promoted.clear();
        pairs.clear();
        for &s in sources {
            let si = s as usize;
            assert!(si < n, "source {s} out of range");
            if core.core_id[si] == u32::MAX && !promoted.contains(&s) {
                promoted.push(s);
            }
        }
        let nslots = ncore + promoted.len();
        let slot_of = |v: NodeId| -> u32 {
            let c = core.core_id[v as usize];
            if c != u32::MAX {
                return c;
            }
            match promoted.iter().position(|&p| p == v) {
                Some(i) => (ncore + i) as u32,
                None => u32::MAX,
            }
        };

        // Wire each virtual slot to its neighbourhood. A promoted leaf
        // exchanges lanes with its (core or promoted) neighbours through
        // explicit slot→slot pushes, and aggregate-counts its own folded
        // leaf neighbours; its core neighbours stop aggregate-counting it
        // in turn. A folded neighbour that is *not* promoted never needs
        // a push back in: its lanes are a subset of what this slot
        // already sent it.
        let leaf_eff = &mut self.leaf_eff;
        leaf_eff.clear();
        leaf_eff.extend_from_slice(&core.leaf_count);
        leaf_eff.resize(nslots, 0);
        for (i, &l) in promoted.iter().enumerate() {
            let ls = (ncore + i) as u32;
            let li = l as usize;
            for &u in &neigh[offsets.at(li)..offsets.at(li + 1)] {
                let us = slot_of(u);
                if us != u32::MAX {
                    pairs.push((us, ls));
                    pairs.push((ls, us));
                    if core.core_id[u as usize] != u32::MAX {
                        leaf_eff[us as usize] -= 1;
                    }
                } else {
                    leaf_eff[ls as usize] += 1;
                }
            }
        }

        self.seen.clear();
        self.seen.resize(nslots * W, 0);
        self.frontier.clear();
        self.frontier.resize(nslots * W, 0);
        self.next.clear();
        self.next.resize(nslots * W, 0);
        let seen = &mut self.seen[..];
        let frontier = &mut self.frontier[..];
        let next = &mut self.next[..];

        let mut front = std::mem::take(&mut self.front);
        front.clear();
        for (lane, &s) in sources.iter().enumerate() {
            let sb = slot_of(s) as usize * W;
            let (wk, bit) = (lane / LANES_PER_WORD, 1u64 << (lane % LANES_PER_WORD));
            seen[sb + wk] |= bit;
            if frontier[sb..sb + W].iter().all(|&w| w == 0) {
                front.push((sb / W) as NodeId);
            }
            frontier[sb + wk] |= bit;
        }
        // Σ_lane S_lane(0): one source per lane.
        self.level_totals.push(lanes as u64);

        let mut next_front = std::mem::take(&mut self.spare);
        let mut level: u32 = 0;
        while !front.is_empty() {
            level += 1;
            let mut level_total = 0u64;
            // Slot→slot pushes read the frontier before the edge pass
            // takes it; a slot with no new lanes contributes zero words.
            for &(a, b) in &pairs {
                let (ab, bb) = (a as usize * W, b as usize * W);
                for k in 0..W {
                    next[bb + k] |= frontier[ab + k];
                }
            }
            for &v in &front {
                let vi = v as usize;
                let fb = vi * W;
                let mut fw = [0u64; W];
                let mut pop = 0u64;
                for k in 0..W {
                    fw[k] = frontier[fb + k];
                    frontier[fb + k] = 0;
                    pop += u64::from(fw[k].count_ones());
                }
                // Folded leaf children: each receives exactly this slot's
                // new lanes one level out, and nothing else ever reaches
                // them — count them without touching them.
                level_total += u64::from(leaf_eff[vi]) * pop;
                if vi < ncore {
                    for &x in &core.core_neigh[core.core_off[vi]..core.core_off[vi + 1]] {
                        let xb = x as usize * W;
                        for k in 0..W {
                            next[xb + k] |= fw[k];
                        }
                    }
                }
            }
            next_front.clear();
            for xi in 0..nslots {
                let xb = xi * W;
                let mut any = 0u64;
                for k in 0..W {
                    any |= next[xb + k];
                }
                if any == 0 {
                    continue;
                }
                let mut new = [0u64; W];
                let mut any_new = 0u64;
                for k in 0..W {
                    let nw = next[xb + k] & !seen[xb + k];
                    next[xb + k] = 0;
                    new[k] = nw;
                    any_new |= nw;
                }
                if any_new == 0 {
                    continue;
                }
                for k in 0..W {
                    seen[xb + k] |= new[k];
                    frontier[xb + k] = new[k];
                    level_total += u64::from(new[k].count_ones());
                }
                next_front.push(xi as NodeId);
            }
            // Aggregate counts land at the same level they would in the
            // unfolded sweep: a folded leaf's discoveries trail its
            // neighbour's appearances by exactly one level, which is the
            // level being resolved here. Contiguity survives the fold —
            // a level with zero total means an empty core frontier.
            if level_total > 0 {
                debug_assert_eq!(self.level_totals.len(), level as usize);
                self.level_totals.push(level_total);
            }
            std::mem::swap(&mut front, &mut next_front);
        }
        self.front = front;
        self.spare = next_front;
        self.promoted = promoted;
        self.pairs = pairs;
        self.core = Some(core);
        self.pull_levels_last = 0;
        if mcast_obs::enabled() {
            mcast_obs::counter("bfs.batch.sweeps").add(1);
            mcast_obs::counter("bfs.batch.sources").add(lanes as u64);
            mcast_obs::counter("bfs.batch.levels").add(u64::from(level));
        }
    }

    /// Lanes advanced by the last sweep.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Mask words per node used by the last sweep (1, 4 or 8).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Distances from `lane`'s source — identical to
    /// [`crate::bfs::Bfs::scratch_distances`] for that source
    /// ([`UNREACHED`] marks unreachable nodes).
    ///
    /// # Panics
    /// Panics if `lane` is out of range, or if the last sweep was not
    /// [`run`](Self::run) (no distances recorded).
    pub fn distances(&self, lane: usize) -> &[u32] {
        assert!(lane < self.lanes, "lane {lane} out of range");
        assert!(
            self.dist_recorded,
            "distances not recorded by the last sweep (use run, not run_totals)"
        );
        let n = self.graph.node_count();
        &self.dist[lane * n..(lane + 1) * n]
    }

    /// Lane-summed discovery histogram of the last
    /// [`run_totals`](Self::run_totals) sweep: entry `r` is
    /// `Σ_lane S_lane(r)` — exactly the sum of the lanes' scalar
    /// [`crate::reachability::Reachability`] profiles, each read as zero
    /// past its own eccentricity. The length is the largest lane
    /// eccentricity plus one.
    ///
    /// # Panics
    /// Panics if the last sweep was not `run_totals`.
    pub fn level_totals(&self) -> &[u64] {
        assert!(
            !self.dist_recorded && !self.sources_last.is_empty(),
            "lane-summed histogram only recorded by run_totals"
        );
        &self.level_totals
    }

    /// Derive `lane`'s shortest-path parent array into `out` — the batch
    /// join entry point for engines that graft many sources per tick.
    ///
    /// Parents follow the schedule-independent lowest-id rule of
    /// [`crate::bfs::min_index_parents`] applied to this lane's recorded
    /// distances, so the result is bit-identical to deriving from a
    /// scalar [`crate::bfs::Bfs`] sweep of the same source (batch and
    /// scalar distances already agree). Note this is *not* the scalar
    /// engine's FIFO parent array; a consumer must pick one rule and use
    /// it on every path, as `mcast_tree::storm` does.
    ///
    /// # Panics
    /// Panics if `lane` is out of range or the last sweep was
    /// [`run_totals`](Self::run_totals) (no distances recorded).
    pub fn parent_tree(&self, lane: usize, out: &mut Vec<NodeId>) {
        let source = self.sources_last[lane];
        crate::bfs::min_index_parents(self.graph, self.distances(lane), source, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::Bfs;
    use crate::graph::from_edges;
    use crate::reachability::Reachability;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1)).collect();
        from_edges(n, &edges)
    }

    /// Lane sum of the scalar `S(r)` profiles of `sources`: the
    /// independent oracle for [`BatchBfs::level_totals`].
    fn scalar_profile_sum(g: &Graph, sources: &[NodeId]) -> Vec<u64> {
        let mut sum: Vec<u64> = Vec::new();
        for &s in sources {
            let profile = Reachability::from_source(g, s);
            if profile.s_vec().len() > sum.len() {
                sum.resize(profile.s_vec().len(), 0);
            }
            for (r, &c) in profile.s_vec().iter().enumerate() {
                sum[r] += c;
            }
        }
        sum
    }

    /// `run` against the scalar BFS lane by lane, and `run_totals` against
    /// the scalar profile sum, at every mask width the batch fits in.
    fn assert_matches_scalar(g: &Graph, sources: &[NodeId]) {
        let mut batch = BatchBfs::new(g);
        batch.run(sources);
        let mut scalar = Bfs::new(g);
        for (lane, &s) in sources.iter().enumerate() {
            scalar.run_scratch(s);
            assert_eq!(
                batch.distances(lane),
                scalar.scratch_distances(),
                "lane {lane} source {s}"
            );
        }
        let expect = scalar_profile_sum(g, sources);
        for w in [1usize, 4, 8] {
            if sources.len() > w * LANES_PER_WORD {
                continue;
            }
            batch.force_words(Some(w));
            batch.run_totals(sources);
            assert_eq!(batch.level_totals(), &expect[..], "W={w}");
        }
    }

    #[test]
    fn matches_scalar_on_path_and_cycle() {
        assert_matches_scalar(&path_graph(9), &[0, 4, 8]);
        let edges: Vec<_> = (0..8)
            .map(|i| (i as NodeId, ((i + 1) % 8) as NodeId))
            .collect();
        assert_matches_scalar(&from_edges(8, &edges), &[0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn matches_scalar_on_disconnected_graph() {
        // Two components plus two isolated nodes; sources include the
        // leaves 0, 2, 4, 5 and the isolated 3, 6, 7.
        let g = from_edges(8, &[(0, 1), (1, 2), (4, 5)]);
        let sources: Vec<NodeId> = (0..8).collect();
        assert_matches_scalar(&g, &sources);
    }

    #[test]
    fn duplicate_sources_keep_lanes_independent() {
        let g = path_graph(6);
        let mut batch = BatchBfs::new(&g);
        batch.run(&[2, 2, 5]);
        assert_eq!(batch.distances(0), batch.distances(1));
        assert_eq!(batch.distances(2), &[5, 4, 3, 2, 1, 0]);
        // S(r) from 2 is [1, 2, 2, 1], from 5 [1, 1, 1, 1, 1, 1].
        batch.run_totals(&[2, 2, 5]);
        assert_eq!(batch.level_totals(), &[3, 5, 5, 3, 1, 1]);
    }

    #[test]
    fn full_width_and_reuse() {
        // 64 lanes on a graph with fewer nodes (sources repeat), then a
        // second run on the same engine must fully reset state.
        let g = from_edges(10, &[(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7)]);
        let sources: Vec<NodeId> = (0..64).map(|i| (i % 10) as NodeId).collect();
        assert_matches_scalar(&g, &sources);
        let mut batch = BatchBfs::new(&g);
        batch.run(&sources);
        batch.run(&[9]);
        assert_eq!(batch.lanes(), 1);
        assert_eq!(batch.distances(0)[9], 0);
        assert_eq!(batch.distances(0)[0], UNREACHED);
        batch.run_totals(&sources);
        batch.run_totals(&[9]);
        assert_eq!(batch.level_totals(), &[1]); // node 9 is isolated
    }

    #[test]
    fn wide_batches_match_scalar() {
        // 65 (4 words, one live bit in word 1), 256 (full 4 words) and
        // 300 (8 words, partial tail) lanes on a mixed graph.
        let g = from_edges(
            12,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (1, 4),
                (4, 5),
                (6, 7),
                (7, 8),
                (8, 6),
                (9, 10),
            ],
        );
        for lanes in [65usize, 256, 300] {
            let sources: Vec<NodeId> = (0..lanes).map(|i| (i % 12) as NodeId).collect();
            assert_matches_scalar(&g, &sources);
        }
    }

    #[test]
    fn forced_width_matches_auto() {
        let g = from_edges(9, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7)]);
        let sources: Vec<NodeId> = (0..9).collect();
        let mut auto = BatchBfs::new(&g);
        auto.run(&sources);
        for w in [1usize, 4, 8] {
            let mut forced = BatchBfs::new(&g);
            forced.force_words(Some(w));
            forced.run(&sources);
            assert_eq!(forced.words(), w);
            for lane in 0..sources.len() {
                assert_eq!(forced.distances(lane), auto.distances(lane), "W={w}");
            }
        }
    }

    #[test]
    fn forced_directions_match_auto() {
        let g = from_edges(
            10,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 8),
            ],
        );
        let sources: Vec<NodeId> = (0..10).collect();
        let mut auto = BatchBfs::new(&g);
        auto.run(&sources);
        let mut pull = BatchBfs::new(&g);
        pull.set_direction(Direction::AlwaysPull);
        pull.run(&sources);
        assert!(pull.pull_levels() > 0, "forced pull must pull");
        let mut push = BatchBfs::new(&g);
        push.set_direction(Direction::AlwaysPush);
        push.run(&sources);
        assert_eq!(push.pull_levels(), 0, "forced push must not pull");
        for lane in 0..sources.len() {
            assert_eq!(pull.distances(lane), auto.distances(lane), "lane {lane}");
            assert_eq!(push.distances(lane), auto.distances(lane), "lane {lane}");
        }
    }

    #[test]
    fn total_distance_matches_sp_tree() {
        // The path statistics read Σ r·tot[r] and tot.len() − 1 off the
        // lane-summed histogram: they must be the sources' summed
        // shortest-path-tree distances and their largest eccentricity.
        let g = from_edges(7, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 6)]);
        let mut batch = BatchBfs::new(&g);
        batch.run_totals(&[0, 3]);
        let tot = batch.level_totals();
        let total: u64 = tot.iter().enumerate().map(|(r, &c)| r as u64 * c).sum();
        let mut bfs = Bfs::new(&g);
        let (t0, t3) = (bfs.run(0), bfs.run(3));
        assert_eq!(total, t0.total_distance() + t3.total_distance());
        let ecc = t0.eccentricity().max(t3.eccentricity());
        assert_eq!(tot.len() - 1, ecc as usize);
    }

    #[test]
    fn run_and_run_totals_share_one_engine() {
        // Alternating the two sweeps on one engine: neither may leave
        // state the other reads.
        let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let sources: Vec<NodeId> = (0..8).collect();
        let mut fresh = BatchBfs::new(&g);
        fresh.run(&sources);
        let mut shared = BatchBfs::new(&g);
        shared.run_totals(&sources);
        assert_eq!(shared.level_totals(), scalar_profile_sum(&g, &sources));
        shared.run(&sources);
        for lane in 0..sources.len() {
            assert_eq!(shared.distances(lane), fresh.distances(lane));
        }
        shared.run_totals(&sources[..3]);
        assert_eq!(shared.level_totals(), scalar_profile_sum(&g, &sources[..3]));
    }

    #[test]
    fn run_totals_matches_profile_fold_on_degenerate_shapes() {
        // Every shape the leaf fold has to treat specially at once: a
        // star whose satellites fold (0 centre, 1-3 leaves), a chain tail
        // (3-4-5, 5 folds), a leaf–leaf pair (6-7, both fold), and an
        // isolated node (8). Sources hit a folded leaf (1), a leaf–leaf
        // pair end (6), the isolated node (8), a core node (4), and a
        // duplicate of the folded leaf (1 again, sharing its slot).
        let g = from_edges(9, &[(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (6, 7)]);
        let mut scalar = Bfs::new(&g);
        for sources in [
            &[1, 6, 8, 4, 1][..],
            &[0][..],       // all-core source
            &[8][..],       // isolated source only
            &[6, 7][..],    // both ends of a fully folded component
            &[5, 2, 1][..], // folded leaves of different parents
        ] {
            let expect = scalar_profile_sum(&g, sources);
            let mut totals = BatchBfs::new(&g);
            totals.run_totals(sources);
            assert_eq!(totals.level_totals(), &expect[..], "sources {sources:?}");
            assert_eq!(totals.pull_levels(), 0);
            // Interleaved reuse: folded and unfolded sweeps share scratch
            // buffers; neither representation may corrupt the other.
            totals.run(sources);
            for (lane, &s) in sources.iter().enumerate() {
                scalar.run_scratch(s);
                assert_eq!(totals.distances(lane), scalar.scratch_distances());
            }
            totals.run_totals(sources);
            assert_eq!(totals.level_totals(), &expect[..], "sources {sources:?}");
        }
    }

    #[test]
    fn run_totals_ignores_direction_policy() {
        // The folded walk is top-down by construction; a pull-forcing
        // policy must change nothing (and never report pull levels).
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let sources: Vec<NodeId> = vec![0, 5, 2];
        let mut push = BatchBfs::new(&g);
        push.run_totals(&sources);
        let expect = push.level_totals().to_vec();
        let mut pull = BatchBfs::new(&g);
        pull.set_direction(Direction::AlwaysPull);
        pull.run_totals(&sources);
        assert_eq!(pull.level_totals(), &expect[..]);
        assert_eq!(pull.pull_levels(), 0);
    }

    #[test]
    #[should_panic(expected = "lane-summed histogram")]
    fn level_totals_unavailable_after_run() {
        let g = path_graph(4);
        let mut batch = BatchBfs::new(&g);
        batch.run(&[0]);
        let _ = batch.level_totals();
    }

    #[test]
    fn parent_tree_matches_scalar_derivation() {
        // Diamond: two equal-length paths 0-1-3 and 0-2-3 — the lowest-id
        // rule must pick 1 as 3's parent on both engines.
        let g = from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]);
        let mut batch = BatchBfs::new(&g);
        batch.run(&[0, 4]);
        let mut scalar = Bfs::new(&g);
        let mut from_batch = Vec::new();
        let mut from_scalar = Vec::new();
        for (lane, &s) in [0u32, 4].iter().enumerate() {
            batch.parent_tree(lane, &mut from_batch);
            scalar.run_scratch(s);
            crate::bfs::min_index_parents(&g, scalar.scratch_distances(), s, &mut from_scalar);
            assert_eq!(from_batch, from_scalar, "lane {lane} source {s}");
            // Every reached non-source node's parent sits one hop closer.
            for (v, &parent) in from_batch.iter().enumerate() {
                let d = batch.distances(lane)[v];
                if v as NodeId == s || d == UNREACHED {
                    continue;
                }
                assert_eq!(batch.distances(lane)[parent as usize], d - 1);
            }
        }
        batch.parent_tree(0, &mut from_batch);
        assert_eq!(from_batch[3], 1, "lowest-id rule must pick 1 over 2");
    }

    #[test]
    #[should_panic(expected = "distances not recorded")]
    fn parent_tree_unavailable_after_totals_sweep() {
        let g = path_graph(4);
        let mut batch = BatchBfs::new(&g);
        batch.run_totals(&[0]);
        batch.parent_tree(0, &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "distances not recorded")]
    fn distances_unavailable_after_totals_sweep() {
        let g = path_graph(4);
        let mut batch = BatchBfs::new(&g);
        batch.run(&[0]);
        batch.run_totals(&[0]);
        batch.distances(0);
    }

    #[test]
    #[should_panic(expected = "source batch")]
    fn empty_batch_rejected() {
        let g = path_graph(3);
        BatchBfs::new(&g).run(&[]);
    }

    #[test]
    #[should_panic(expected = "source batch")]
    fn forced_width_caps_batch_size() {
        let g = path_graph(3);
        let mut batch = BatchBfs::new(&g);
        batch.force_words(Some(1));
        let sources: Vec<NodeId> = (0..65).map(|i| (i % 3) as NodeId).collect();
        batch.run(&sources);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_source_rejected() {
        let g = path_graph(3);
        BatchBfs::new(&g).run(&[3]);
    }
}
