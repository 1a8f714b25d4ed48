//! Topology summary metrics: degree statistics, average unicast path length
//! (the paper's `ū`), diameter, and eccentricity sweeps.
//!
//! Average path length is the normaliser of nearly every figure in the
//! paper, so both an exact all-pairs computation (fine up to a few thousand
//! nodes) and a sampled estimator (for the 56k-node Internet stand-in) are
//! provided.

use crate::batch::{max_lanes, BatchBfs};
use crate::bfs::Bfs;
use crate::graph::{Graph, NodeId};

/// Degree distribution summary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree, `2E/N`.
    pub mean: f64,
}

/// Compute [`DegreeStats`]. Returns `None` on the empty graph.
pub fn degree_stats(graph: &Graph) -> Option<DegreeStats> {
    if graph.node_count() == 0 {
        return None;
    }
    let mut min = usize::MAX;
    let mut max = 0usize;
    for v in graph.nodes() {
        let d = graph.degree(v);
        min = min.min(d);
        max = max.max(d);
    }
    Some(DegreeStats {
        min,
        max,
        mean: graph.average_degree(),
    })
}

/// Shared core of the path-length statistics: batched BFS sweeps from
/// `sources`, summing distances to every *other* reachable node as exact
/// integers. From one chunk's lane-summed histogram `tot`
/// ([`BatchBfs::run_totals`]), `Σ_{r≥1} r·tot[r]` is the chunk's distance
/// sum, `Σ_{r≥1} tot[r]` its reachable-pair count and `tot.len() − 1` its
/// largest eccentricity — the same integers the per-source scalar loop
/// accumulates, so results are bit-identical.
fn path_stats_over(graph: &Graph, sources: &[NodeId]) -> (f64, u32) {
    let mut total = 0u128;
    let mut pairs = 0u128;
    let mut max_seen = 0u32;
    if !sources.is_empty() {
        let mut batch = BatchBfs::new(graph);
        for chunk in sources.chunks(max_lanes()) {
            batch.run_totals(chunk);
            let tot = batch.level_totals();
            for (r, &c) in tot.iter().enumerate().skip(1) {
                total += r as u128 * u128::from(c);
                pairs += u128::from(c);
            }
            max_seen = max_seen.max(tot.len() as u32 - 1);
        }
    }
    if pairs == 0 {
        (0.0, 0)
    } else {
        (total as f64 / pairs as f64, max_seen)
    }
}

/// Exact average hop distance over all ordered reachable pairs `(u, v)`,
/// `u != v`, and the exact diameter, via one bit-parallel BFS sweep per
/// [`max_lanes`] nodes.
///
/// Returns `(avg_path_length, diameter)`. For graphs with fewer than two
/// nodes (or no reachable pairs) both are zero.
pub fn exact_path_stats(graph: &Graph) -> (f64, u32) {
    let all: Vec<NodeId> = graph.nodes().collect();
    path_stats_over(graph, &all)
}

/// Sampled estimate of the average hop distance: BFS from each of the given
/// `sources`, averaging distances to all *other* reachable nodes. Also
/// returns the largest distance seen (a lower bound on the diameter).
///
/// With sources drawn uniformly this is an unbiased estimator of `ū` on a
/// connected graph.
pub fn sampled_path_stats(graph: &Graph, sources: &[NodeId]) -> (f64, u32) {
    path_stats_over(graph, sources)
}

/// Histogram of node degrees: `hist[d]` = number of nodes with degree
/// `d`. Empty for the empty graph.
pub fn degree_histogram(graph: &Graph) -> Vec<u64> {
    let mut hist = Vec::new();
    for v in graph.nodes() {
        let d = graph.degree(v);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Degree assortativity (Pearson correlation of degrees across edges).
/// `NaN` when degenerate (no edges or zero variance). Real router maps
/// are disassortative (hubs attach to leaves), another property the
/// power-law stand-ins should reproduce.
pub fn degree_assortativity(graph: &Graph) -> f64 {
    let mut n = 0.0f64;
    let (mut sx, mut sy, mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for (u, v) in graph.edges() {
        // Count each edge in both orientations so the measure is
        // symmetric.
        for (a, b) in [(u, v), (v, u)] {
            let x = graph.degree(a) as f64;
            let y = graph.degree(b) as f64;
            n += 1.0;
            sx += x;
            sy += y;
            sxy += x * y;
            sxx += x * x;
            syy += y * y;
        }
    }
    if n == 0.0 {
        return f64::NAN;
    }
    let cov = sxy / n - (sx / n) * (sy / n);
    let vx = sxx / n - (sx / n).powi(2);
    let vy = syy / n - (sy / n).powi(2);
    if vx <= 0.0 || vy <= 0.0 {
        return f64::NAN;
    }
    cov / (vx * vy).sqrt()
}

/// Average hop distance from a single `source` to every other node it can
/// reach (the per-source `ū` used when the paper normalises a sample by
/// "the average unicast path length for this sample of receiver locations"
/// is computed in `mcast-tree`; this is the all-destinations version).
pub fn mean_distance_from(graph: &Graph, source: NodeId) -> f64 {
    let mut bfs = Bfs::new(graph);
    bfs.run_scratch(source);
    let reached = bfs.scratch_order().len();
    if reached <= 1 {
        return 0.0;
    }
    let total: u64 = bfs
        .scratch_order()
        .iter()
        .map(|&v| u64::from(bfs.scratch_distances()[v as usize]))
        .sum();
    total as f64 / (reached - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{from_edges, GraphBuilder};

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1)).collect();
        from_edges(n, &edges)
    }

    #[test]
    fn degree_stats_star() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 1.6).abs() < 1e-12);
    }

    #[test]
    fn degree_stats_empty() {
        assert!(degree_stats(&GraphBuilder::new(0).build()).is_none());
    }

    #[test]
    fn exact_stats_on_path4() {
        // P4 distances: d(0,1)=1 d(0,2)=2 d(0,3)=3 d(1,2)=1 d(1,3)=2 d(2,3)=1
        // mean over unordered pairs = 10/6; ordered pairs give the same mean.
        let g = path_graph(4);
        let (avg, diam) = exact_path_stats(&g);
        assert!((avg - 10.0 / 6.0).abs() < 1e-12);
        assert_eq!(diam, 3);
    }

    #[test]
    fn exact_stats_complete_graph() {
        let mut b = GraphBuilder::new(5);
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                b.add_edge(u, v);
            }
        }
        let (avg, diam) = exact_path_stats(&b.build());
        assert!((avg - 1.0).abs() < 1e-12);
        assert_eq!(diam, 1);
    }

    #[test]
    fn exact_stats_trivial_graphs() {
        assert_eq!(exact_path_stats(&GraphBuilder::new(0).build()), (0.0, 0));
        assert_eq!(exact_path_stats(&GraphBuilder::new(1).build()), (0.0, 0));
        // Disconnected pairs are simply skipped.
        let g = from_edges(4, &[(0, 1), (2, 3)]);
        let (avg, diam) = exact_path_stats(&g);
        assert!((avg - 1.0).abs() < 1e-12);
        assert_eq!(diam, 1);
    }

    #[test]
    fn sampled_matches_exact_when_all_sources_used() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]);
        let all: Vec<NodeId> = g.nodes().collect();
        let (exact, diam) = exact_path_stats(&g);
        let (sampled, max_seen) = sampled_path_stats(&g, &all);
        assert!((exact - sampled).abs() < 1e-12);
        assert_eq!(diam, max_seen);
    }

    #[test]
    fn batched_stats_bit_identical_to_scalar_loop() {
        // Replicate the pre-batching scalar accumulation and demand exact
        // f64 equality, including on a graph wide enough for two chunks.
        let mut b = GraphBuilder::new(100);
        for i in 0..99u32 {
            b.add_edge(i, i + 1);
            b.add_edge(i, (i * 7 + 3) % 100);
        }
        let g = b.build();
        let mut bfs = Bfs::new(&g);
        let (mut total, mut pairs, mut diam) = (0u128, 0u128, 0u32);
        for v in g.nodes() {
            bfs.run_scratch(v);
            for &u in bfs.scratch_order() {
                let d = bfs.scratch_distances()[u as usize];
                if d > 0 {
                    total += u128::from(d);
                    pairs += 1;
                    diam = diam.max(d);
                }
            }
        }
        let expect = (total as f64 / pairs as f64, diam);
        let got = exact_path_stats(&g);
        assert_eq!(got.0.to_bits(), expect.0.to_bits());
        assert_eq!(got.1, expect.1);
    }

    #[test]
    fn mean_distance_from_endpoint_of_path() {
        let g = path_graph(4);
        // From node 0: distances 1,2,3 to the other three nodes.
        assert!((mean_distance_from(&g, 0) - 2.0).abs() < 1e-12);
        // From node 1: distances 1,1,2.
        assert!((mean_distance_from(&g, 1) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mean_distance_isolated_source() {
        let g = from_edges(3, &[(0, 1)]);
        assert_eq!(mean_distance_from(&g, 2), 0.0);
    }

    #[test]
    fn degree_histogram_star_and_empty() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(degree_histogram(&g), vec![0, 4, 0, 0, 1]);
        assert!(degree_histogram(&GraphBuilder::new(0).build()).is_empty());
        let isolated = GraphBuilder::new(3).build();
        assert_eq!(degree_histogram(&isolated), vec![3]);
    }

    #[test]
    fn assortativity_signs() {
        // A star is maximally disassortative.
        let star = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let a = degree_assortativity(&star);
        // Degenerate: every edge joins degree-4 to degree-1, zero variance
        // per side? No — variance exists across orientations: value -1.
        assert!((a + 1.0).abs() < 1e-9, "star assortativity {a}");
        // A cycle is degree-regular: correlation undefined.
        let cycle = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(degree_assortativity(&cycle).is_nan());
        // Two stars joined hub-to-hub are *more* assortative than a star.
        let double = from_edges(8, &[(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 4)]);
        assert!(degree_assortativity(&double) > a);
        assert!(degree_assortativity(&GraphBuilder::new(2).build()).is_nan());
    }
}
