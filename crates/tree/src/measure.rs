//! The paper's §2 measurement methodology.
//!
//! "For each network we pick a source at random. For each m, we pick
//! `N_rcvr` random sets of m distinct receiver locations chosen uniformly
//! over the network. For each random set … we compute the size of the
//! delivery tree `L(m)`; we also compute the sum of the unicast paths …
//! and average those to determine the average unicast path length `ū(m)`
//! for this sample … For each such sample we compute the ratio … We repeat
//! this for `N_source` random choices of the sources [picked with
//! replacement] … then average this quantity."
//!
//! [`SourceMeasurer`] produces the per-(source, receiver-set) samples;
//! [`ratio_curve`] / [`lhat_curve`] run the full `N_source × N_rcvr`
//! average. Because sources are drawn **with replacement**, the same node
//! is often picked for several source indices (on ARPA's 47 nodes, 100
//! draws hit only ~44 distinct sources); [`SourcePlan`] groups the draws
//! by node and [`MeasureEngine`] runs one BFS per *distinct* node while
//! every source index keeps its own RNG stream, so the merged statistics
//! are bit-identical to the naive one-BFS-per-index schedule. That BFS is
//! the source's only traversal: the delivery sizer keeps its FIFO parents
//! and distances, and `ū` is scanned from those distances. The curve
//! drivers here are single-threaded — the experiment crate parallelises by
//! sharding [`SourcePlan`] groups across worker-owned engines and merging
//! [`RunningStats`] in source-index order.

use crate::delivery::DeliverySizer;
use crate::sampling::{self, DedupMarks, ReceiverPool};
use crate::stats::RunningStats;
use mcast_topology::bfs::Bfs;
use mcast_topology::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sample-count configuration (paper defaults: 100 × 100).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MeasureConfig {
    /// `N_source`: random sources, drawn with replacement.
    pub sources: usize,
    /// `N_rcvr`: receiver sets per (source, group-size) pair.
    pub receiver_sets: usize,
    /// Root seed; every (source index, point) derives from it.
    pub seed: u64,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            sources: 100,
            receiver_sets: 100,
            seed: 0x6d63_6173_7431,
        }
    }
}

/// One point of a measured curve.
#[derive(Clone, Copy, Debug)]
pub struct CurvePoint {
    /// Group size (the paper's `m` or `n`).
    pub x: usize,
    /// Accumulated samples at this size.
    pub stats: RunningStats,
}

/// Which §-model a measured curve samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SampleKind {
    /// §2: `L(m)/ū(m)` over `m` distinct receivers.
    Ratio,
    /// §4: `L̂(n)/(n·ū)` over `n` with-replacement receivers.
    NormalizedTree,
}

/// Per-source measurement engine: one BFS, then cheap repeated sampling.
///
/// Samples are tallied in a plain local counter and flushed to the
/// global `tree.samples` metric on drop, so observability costs one
/// non-atomic increment per sample and one atomic add per source. When
/// reused across sources via [`SourceMeasurer::reuse`], the flush covers
/// every source index the measurer served.
pub struct SourceMeasurer {
    sizer: DeliverySizer,
    pool: ReceiverPool,
    mean_dist: f64,
    buf: Vec<NodeId>,
    /// Epoch-marked dedup scratch for Floyd sampling: grown once to the
    /// pool's high-water mark, so the steady-state §2 sample path performs
    /// no allocation and no hashing.
    dedup: DedupMarks,
    samples: u64,
    /// Source indices served (grows via `reuse` and the dedup cache).
    sources: u64,
}

impl SourceMeasurer {
    /// Measurer whose receivers range over every node except `source`
    /// (the paper's general-network model).
    pub fn new(graph: &Graph, source: NodeId) -> Self {
        let pool = ReceiverPool::AllExceptSource {
            nodes: graph.node_count(),
            source,
        };
        Self::with_pool(graph, source, pool)
    }

    /// Measurer with an explicit receiver pool (e.g. k-ary tree leaves).
    pub fn with_pool(graph: &Graph, source: NodeId, pool: ReceiverPool) -> Self {
        let sizer = DeliverySizer::from_graph(graph, source);
        let mean_dist = mean_pool_distance(&sizer, &pool);
        Self {
            sizer,
            pool,
            mean_dist,
            buf: Vec::new(),
            dedup: DedupMarks::new(),
            samples: 0,
            sources: 1,
        }
    }

    /// Re-target this measurer at a new source without allocating: the
    /// sizer's parent/dist/mark buffers are refilled in place through
    /// `bfs` ([`DeliverySizer::rebind`]), the receiver pool follows the
    /// source, `ū` is rescanned from the refilled distances, and the
    /// receiver/dedup scratch buffers carry over. Sample/source tallies
    /// keep accumulating and flush once on drop.
    ///
    /// An [`ReceiverPool::AllExceptSource`] pool tracks the new source;
    /// explicit/range pools (fixed site sets) are kept as-is.
    ///
    /// # Panics
    /// Panics if `bfs` belongs to a graph of a different node count.
    pub fn reuse(&mut self, bfs: &mut Bfs<'_>, source: NodeId) {
        self.sizer.rebind(bfs, source);
        if let ReceiverPool::AllExceptSource { source: s, .. } = &mut self.pool {
            *s = source;
        }
        self.mean_dist = mean_pool_distance(&self.sizer, &self.pool);
        self.sources += 1;
    }

    /// The source this measurer is currently rooted at.
    pub fn source(&self) -> NodeId {
        self.sizer.source()
    }

    /// This source's average unicast path length over the pool (`ū`).
    pub fn mean_distance(&self) -> f64 {
        self.mean_dist
    }

    /// The receiver pool size (`M`).
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// §2 sample: `m` distinct receivers; returns `L / ū_sample` where
    /// `ū_sample` is the mean unicast path of *this* receiver set, or
    /// `None` when every sampled receiver is unreachable from the source
    /// (`ū_sample = 0`, so the ratio is undefined). The RNG stream is
    /// consumed identically either way, so skipping never perturbs later
    /// draws.
    ///
    /// # Panics
    /// Panics if `m` is zero or exceeds the pool.
    pub fn try_ratio_sample<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> Option<f64> {
        assert!(m > 0, "need at least one receiver");
        self.samples += 1;
        sampling::distinct_marked(&self.pool, m, rng, &mut self.buf, &mut self.dedup);
        let (tree, unicast) = self.sizer.sample(&self.buf);
        if unicast == 0 {
            return None;
        }
        Some(tree as f64 * m as f64 / unicast as f64)
    }

    /// [`Self::try_ratio_sample`] for callers that know the topology is
    /// connected.
    ///
    /// # Panics
    /// Panics if `m` is zero or exceeds the pool, or if the sample is
    /// degenerate (all receivers unreachable) — release builds used to
    /// divide by zero here and emit silent NaN.
    pub fn ratio_sample<R: Rng + ?Sized>(&mut self, m: usize, rng: &mut R) -> f64 {
        self.try_ratio_sample(m, rng)
            .expect("ratio_sample: no sampled receiver is reachable from the source")
    }

    /// §3 sample: `n` with-replacement receivers; returns the raw tree
    /// size `L̂`.
    pub fn tree_sample<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> u64 {
        self.samples += 1;
        sampling::with_replacement(&self.pool, n, rng, &mut self.buf);
        self.sizer.tree_links(&self.buf)
    }

    /// §4 sample: `L̂ / (n · ū)` with `ū` this source's mean unicast path
    /// length — the normalisation of the paper's Fig 6 — or `None` when
    /// the source reaches no pool site at all (`ū = 0`). The RNG stream
    /// is consumed identically either way.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn try_normalized_tree_sample<R: Rng + ?Sized>(
        &mut self,
        n: usize,
        rng: &mut R,
    ) -> Option<f64> {
        assert!(n > 0, "need at least one receiver");
        let l = self.tree_sample(n, rng);
        if self.mean_dist == 0.0 {
            return None;
        }
        Some(l as f64 / (n as f64 * self.mean_dist))
    }

    /// [`Self::try_normalized_tree_sample`] for callers that know the
    /// topology is connected.
    ///
    /// # Panics
    /// Panics if `n` is zero or the source reaches no pool site.
    pub fn normalized_tree_sample<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> f64 {
        self.try_normalized_tree_sample(n, rng)
            .expect("normalized_tree_sample: source reaches no pool site (ū = 0)")
    }
}

/// `ū` over the pool: mean hop distance to the *reachable* pool sites.
fn mean_pool_distance(sizer: &DeliverySizer, pool: &ReceiverPool) -> f64 {
    let mut total = 0u64;
    let mut reachable = 0u64;
    for i in 0..pool.len() {
        if let Some(d) = sizer.distance(pool.site(i)) {
            total += u64::from(d);
            reachable += 1;
        }
    }
    if reachable == 0 {
        0.0
    } else {
        total as f64 / reachable as f64
    }
}

impl Drop for SourceMeasurer {
    fn drop(&mut self) {
        if self.samples > 0 && mcast_obs::enabled() {
            mcast_obs::counter("tree.samples").add(self.samples);
            mcast_obs::counter("tree.sources_measured").add(self.sources);
        }
    }
}

/// Derive the RNG for a given (seed, source index) pair, so shards can be
/// distributed across threads while reproducing the sequential result
/// structure.
pub fn source_rng(seed: u64, source_index: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (source_index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// Pick the source node for `source_index` (paper: uniform, with
/// replacement).
pub fn pick_source(graph: &Graph, seed: u64, source_index: usize) -> NodeId {
    let mut rng = source_rng(seed ^ 0x5eed, source_index);
    rng.gen_range(0..graph.node_count() as NodeId)
}

/// One distinct source node and every source index that drew it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SourceGroup {
    /// The drawn node.
    pub node: NodeId,
    /// Source indices (ascending) that picked `node`.
    pub indices: Vec<usize>,
}

/// The deduplicated source schedule for one (graph, config) pair.
///
/// [`pick_source`] draws `N_source` nodes with replacement; this plan
/// groups the draws by node (in first-appearance order) so the engine runs
/// one BFS per **distinct** node. Dedup is purely a work-sharing
/// transform: each index still derives its own [`source_rng`] stream, so
/// per-index sample values — and any index-order merge of their
/// [`RunningStats`] — are unchanged.
#[derive(Clone, Debug)]
pub struct SourcePlan {
    groups: Vec<SourceGroup>,
    total: usize,
}

impl SourcePlan {
    /// Draw and group all `cfg.sources` source indices.
    pub fn new(graph: &Graph, cfg: &MeasureConfig) -> Self {
        let mut slot: Vec<Option<usize>> = vec![None; graph.node_count()];
        let mut groups: Vec<SourceGroup> = Vec::new();
        for index in 0..cfg.sources {
            let node = pick_source(graph, cfg.seed, index);
            match slot[node as usize] {
                Some(g) => groups[g].indices.push(index),
                None => {
                    slot[node as usize] = Some(groups.len());
                    groups.push(SourceGroup {
                        node,
                        indices: vec![index],
                    });
                }
            }
        }
        Self {
            groups,
            total: cfg.sources,
        }
    }

    /// The groups, in first-appearance order of their node.
    pub fn groups(&self) -> &[SourceGroup] {
        &self.groups
    }

    /// Number of distinct source nodes (= BFS runs needed).
    pub fn distinct(&self) -> usize {
        self.groups.len()
    }

    /// Total source indices covered (`N_source`).
    pub fn total(&self) -> usize {
        self.total
    }
}

/// A worker-owned measurement engine: one BFS frontier queue plus one
/// [`SourceMeasurer`] whose buffers persist across sources.
///
/// After warm-up (first bind), re-binding to a new source allocates
/// nothing, and binding to the *current* source is free — which is what
/// makes [`SourcePlan`] dedup pay: consecutive indices of a group hit the
/// cache and share the BFS.
pub struct MeasureEngine<'g> {
    graph: &'g Graph,
    bfs: Bfs<'g>,
    measurer: Option<SourceMeasurer>,
    rebinds: u64,
}

impl<'g> MeasureEngine<'g> {
    /// Engine for `graph`; no BFS is run until the first [`Self::bind`].
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            bfs: Bfs::new(graph),
            measurer: None,
            rebinds: 0,
        }
    }

    /// Measurer rooted at `source` (general-network receiver pool),
    /// running a BFS only if the engine is not already bound to it.
    pub fn bind(&mut self, source: NodeId) -> &mut SourceMeasurer {
        let hit = self.measurer.as_ref().is_some_and(|m| m.source() == source);
        if !hit {
            self.rebinds += 1;
            match &mut self.measurer {
                Some(m) => m.reuse(&mut self.bfs, source),
                None => self.measurer = Some(SourceMeasurer::new(self.graph, source)),
            }
        }
        self.measurer.as_mut().expect("measurer bound")
    }

    /// How many binds actually ran a BFS (cache misses).
    pub fn rebinds(&self) -> u64 {
        self.rebinds
    }
}

/// Measure every source index of `group` on `engine`: one BFS (at most),
/// `indices × xs × receiver_sets` samples. Returns, per source index in
/// ascending order, the per-`x` statistics — exactly what the naive
/// one-measurer-per-index schedule produces, since each index keeps its
/// own [`source_rng`] stream and degenerate samples are skipped
/// deterministically (the RNG advances regardless).
pub fn measure_group(
    engine: &mut MeasureEngine<'_>,
    group: &SourceGroup,
    xs: &[usize],
    cfg: &MeasureConfig,
    kind: SampleKind,
) -> Vec<(usize, Vec<RunningStats>)> {
    let mut out = Vec::with_capacity(group.indices.len());
    for (k, &index) in group.indices.iter().enumerate() {
        let measurer = engine.bind(group.node);
        if k > 0 {
            // Cache hit for a *different* source index: the paper drew
            // this node again, so it counts as another measured source.
            measurer.sources += 1;
        }
        let mut rng = source_rng(cfg.seed, index);
        let mut per_x = Vec::with_capacity(xs.len());
        for &x in xs {
            let mut stats = RunningStats::new();
            for _ in 0..cfg.receiver_sets {
                let sample = match kind {
                    SampleKind::Ratio => measurer.try_ratio_sample(x, &mut rng),
                    SampleKind::NormalizedTree => measurer.try_normalized_tree_sample(x, &mut rng),
                };
                if let Some(v) = sample {
                    stats.push(v);
                }
            }
            per_x.push(stats);
        }
        out.push((index, per_x));
    }
    out
}

/// Sequential curve driver on the dedup engine: per-index statistics are
/// merged in source-index order, the same reduction the parallel driver
/// performs — so sequential and parallel results are bit-identical by
/// construction.
fn sequential_curve(
    graph: &Graph,
    xs: &[usize],
    cfg: &MeasureConfig,
    kind: SampleKind,
) -> Vec<CurvePoint> {
    let plan = SourcePlan::new(graph, cfg);
    let mut per_index: Vec<Option<Vec<RunningStats>>> = vec![None; plan.total()];
    let mut engine = MeasureEngine::new(graph);
    for group in plan.groups() {
        for (index, stats) in measure_group(&mut engine, group, xs, cfg, kind) {
            per_index[index] = Some(stats);
        }
    }
    merge_indexed(xs, per_index)
}

/// Merge per-source-index statistics (ascending index order) into curve
/// points. Order matters bit-wise: every driver — sequential or parallel —
/// must reduce in this order to produce identical artefacts.
pub fn merge_indexed(xs: &[usize], per_index: Vec<Option<Vec<RunningStats>>>) -> Vec<CurvePoint> {
    let mut merged = vec![RunningStats::new(); xs.len()];
    for per_x in per_index.into_iter().flatten() {
        for (m, s) in merged.iter_mut().zip(per_x) {
            m.merge(&s);
        }
    }
    xs.iter()
        .zip(merged)
        .map(|(&x, stats)| CurvePoint { x, stats })
        .collect()
}

/// Measure the §2 ratio curve `E[L(m)/ū(m)]` at each `m`.
pub fn ratio_curve(graph: &Graph, ms: &[usize], cfg: &MeasureConfig) -> Vec<CurvePoint> {
    sequential_curve(graph, ms, cfg, SampleKind::Ratio)
}

/// Measure the §4 normalised curve `E[L̂(n)/(n·ū)]` at each `n`.
pub fn lhat_curve(graph: &Graph, ns: &[usize], cfg: &MeasureConfig) -> Vec<CurvePoint> {
    sequential_curve(graph, ns, cfg, SampleKind::NormalizedTree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::graph::from_edges;

    fn binary_tree(depth: u32) -> Graph {
        let n = (1u32 << (depth + 1)) - 1;
        let edges: Vec<_> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
        from_edges(n as usize, &edges)
    }

    #[test]
    fn single_receiver_ratio_is_one() {
        let g = binary_tree(4);
        let mut m = SourceMeasurer::new(&g, 0);
        let mut rng = source_rng(1, 0);
        for _ in 0..50 {
            let r = m.ratio_sample(1, &mut rng);
            assert!((r - 1.0).abs() < 1e-12, "ratio {r}");
        }
    }

    #[test]
    fn normalized_single_receiver_is_one_on_average() {
        let g = binary_tree(5);
        let mut m = SourceMeasurer::new(&g, 0);
        let mut rng = source_rng(2, 0);
        let mut stats = RunningStats::new();
        for _ in 0..4000 {
            stats.push(m.normalized_tree_sample(1, &mut rng));
        }
        assert!((stats.mean() - 1.0).abs() < 0.05, "mean {}", stats.mean());
    }

    #[test]
    fn ratio_grows_sublinearly() {
        // Multicast efficiency: E[L(m)/ū] must fall below m and above 1.
        let g = binary_tree(6);
        let cfg = MeasureConfig {
            sources: 5,
            receiver_sets: 20,
            seed: 3,
        };
        let pts = ratio_curve(&g, &[2, 8, 32], &cfg);
        for p in &pts {
            let mean = p.stats.mean();
            assert!(mean > 1.0, "m={} mean={mean}", p.x);
            assert!(mean < p.x as f64, "m={} mean={mean}", p.x);
        }
        // Monotone in m.
        assert!(pts[0].stats.mean() < pts[1].stats.mean());
        assert!(pts[1].stats.mean() < pts[2].stats.mean());
    }

    #[test]
    fn lhat_normalised_decreases_with_n() {
        let g = binary_tree(7);
        let cfg = MeasureConfig {
            sources: 4,
            receiver_sets: 20,
            seed: 4,
        };
        let pts = lhat_curve(&g, &[1, 16, 128], &cfg);
        // Per-receiver efficiency improves with group size.
        assert!(pts[0].stats.mean() > pts[1].stats.mean());
        assert!(pts[1].stats.mean() > pts[2].stats.mean());
        // And the n=1 point is exactly 1 in expectation-normalised form.
        assert!((pts[0].stats.mean() - 1.0).abs() < 0.1);
    }

    #[test]
    fn leaf_pool_measures_leaves_only() {
        let g = binary_tree(3);
        let pool = ReceiverPool::IdRange(7..15);
        let mut m = SourceMeasurer::with_pool(&g, 0, pool);
        assert_eq!(m.pool_size(), 8);
        assert!((m.mean_distance() - 3.0).abs() < 1e-12); // all leaves at depth 3
        let mut rng = source_rng(5, 0);
        // Saturating the leaves gives the full 14-link tree.
        let l = m.tree_sample(10_000, &mut rng);
        assert_eq!(l, 14);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = binary_tree(5);
        let cfg = MeasureConfig {
            sources: 3,
            receiver_sets: 5,
            seed: 42,
        };
        let a = ratio_curve(&g, &[4, 9], &cfg);
        let b = ratio_curve(&g, &[4, 9], &cfg);
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.stats.mean(), pb.stats.mean());
            assert_eq!(pa.stats.count(), pb.stats.count());
        }
    }

    #[test]
    fn source_rngs_differ_between_sources() {
        let mut a = source_rng(7, 0);
        let mut b = source_rng(7, 1);
        let xa: u64 = a.gen();
        let xb: u64 = b.gen();
        assert_ne!(xa, xb);
    }

    #[test]
    fn curve_sample_counts_are_full() {
        let g = binary_tree(4);
        let cfg = MeasureConfig {
            sources: 3,
            receiver_sets: 7,
            seed: 9,
        };
        let pts = lhat_curve(&g, &[2], &cfg);
        assert_eq!(pts[0].stats.count(), 21);
    }

    #[test]
    fn source_plan_partitions_every_index() {
        let g = binary_tree(3); // 15 nodes, so 60 draws repeat heavily
        let cfg = MeasureConfig {
            sources: 60,
            receiver_sets: 1,
            seed: 11,
        };
        let plan = SourcePlan::new(&g, &cfg);
        assert_eq!(plan.total(), 60);
        assert!(plan.distinct() <= 15);
        assert!(plan.distinct() > 1);
        // Every index appears exactly once, under the node it drew.
        let mut seen = [false; 60];
        for group in plan.groups() {
            assert!(!group.indices.is_empty());
            for &i in &group.indices {
                assert_eq!(group.node, pick_source(&g, cfg.seed, i));
                assert!(!seen[i], "index {i} duplicated");
                seen[i] = true;
            }
            assert!(group.indices.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(seen.iter().all(|&s| s));
        // Groups appear in order of their first index.
        let firsts: Vec<usize> = plan.groups().iter().map(|g| g.indices[0]).collect();
        assert!(firsts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn engine_runs_one_bfs_per_distinct_source() {
        let g = binary_tree(4);
        let cfg = MeasureConfig {
            sources: 40,
            receiver_sets: 2,
            seed: 13,
        };
        let plan = SourcePlan::new(&g, &cfg);
        let mut engine = MeasureEngine::new(&g);
        for group in plan.groups() {
            let _ = measure_group(&mut engine, group, &[2, 5], &cfg, SampleKind::Ratio);
        }
        assert_eq!(engine.rebinds(), plan.distinct() as u64);
        // Re-binding the last node again is a cache hit.
        let last = plan.groups().last().unwrap().node;
        let before = engine.rebinds();
        let _ = engine.bind(last);
        assert_eq!(engine.rebinds(), before);
    }

    #[test]
    fn dedup_curves_match_the_naive_schedule_bitwise() {
        // Reference: one fresh measurer per source index (the pre-dedup
        // schedule), merged in index order. The engine must reproduce it
        // bit-for-bit on a graph small enough that draws repeat.
        let g = binary_tree(3);
        let cfg = MeasureConfig {
            sources: 25,
            receiver_sets: 6,
            seed: 21,
        };
        let xs = [2usize, 7];
        for kind in [SampleKind::Ratio, SampleKind::NormalizedTree] {
            let mut per_index = Vec::with_capacity(cfg.sources);
            for index in 0..cfg.sources {
                let source = pick_source(&g, cfg.seed, index);
                let mut measurer = SourceMeasurer::new(&g, source);
                let mut rng = source_rng(cfg.seed, index);
                let mut per_x = Vec::with_capacity(xs.len());
                for &x in &xs {
                    let mut stats = RunningStats::new();
                    for _ in 0..cfg.receiver_sets {
                        stats.push(match kind {
                            SampleKind::Ratio => measurer.ratio_sample(x, &mut rng),
                            SampleKind::NormalizedTree => {
                                measurer.normalized_tree_sample(x, &mut rng)
                            }
                        });
                    }
                    per_x.push(stats);
                }
                per_index.push(Some(per_x));
            }
            let naive = merge_indexed(&xs, per_index);
            let dedup = sequential_curve(&g, &xs, &cfg, kind);
            for (a, b) in naive.iter().zip(&dedup) {
                assert_eq!(a.x, b.x);
                assert_eq!(a.stats.count(), b.stats.count());
                assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
                assert_eq!(a.stats.variance().to_bits(), b.stats.variance().to_bits());
            }
        }
    }

    #[test]
    fn reuse_matches_a_fresh_measurer() {
        let g = binary_tree(5);
        let mut bfs = Bfs::new(&g);
        let mut reused = SourceMeasurer::new(&g, 0);
        for source in [9u32, 30, 0, 9] {
            reused.reuse(&mut bfs, source);
            let mut fresh = SourceMeasurer::new(&g, source);
            assert_eq!(reused.source(), source);
            assert_eq!(
                reused.mean_distance().to_bits(),
                fresh.mean_distance().to_bits()
            );
            assert_eq!(reused.pool_size(), fresh.pool_size());
            let mut ra = source_rng(17, 3);
            let mut rb = source_rng(17, 3);
            for &m in &[1usize, 4, 12] {
                assert_eq!(
                    reused.ratio_sample(m, &mut ra).to_bits(),
                    fresh.ratio_sample(m, &mut rb).to_bits()
                );
            }
        }
    }

    #[test]
    fn degenerate_samples_are_skipped_not_nan() {
        // Node 0 is isolated: every receiver is unreachable, unicast = 0,
        // ū = 0. The try-samplers must skip (the old path emitted NaN in
        // release builds), and the RNG must advance as if they hadn't.
        let g = from_edges(4, &[(1, 2), (2, 3)]);
        let mut m = SourceMeasurer::new(&g, 0);
        let mut rng = source_rng(23, 0);
        assert_eq!(m.try_ratio_sample(2, &mut rng), None);
        assert_eq!(m.try_normalized_tree_sample(2, &mut rng), None);
        assert_eq!(m.mean_distance(), 0.0);

        // A fully disconnected graph: every point ends up empty — zero
        // counts, no NaN — rather than poisoning the curve.
        let iso = from_edges(3, &[]);
        let cfg = MeasureConfig {
            sources: 4,
            receiver_sets: 3,
            seed: 5,
        };
        for pts in [
            ratio_curve(&iso, &[1, 2], &cfg),
            lhat_curve(&iso, &[1, 2], &cfg),
        ] {
            for p in &pts {
                assert_eq!(p.stats.count(), 0);
                assert!(!p.stats.mean().is_nan());
            }
        }
    }

    #[test]
    #[should_panic(expected = "no sampled receiver is reachable")]
    fn ratio_sample_panics_deterministically_when_degenerate() {
        let g = from_edges(3, &[(1, 2)]);
        let mut m = SourceMeasurer::new(&g, 0);
        let mut rng = source_rng(29, 0);
        let _ = m.ratio_sample(1, &mut rng);
    }
}
