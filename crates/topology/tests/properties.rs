//! Property-based tests for the graph substrate.

use mcast_topology::bfs::Bfs;
use mcast_topology::components::{largest_component, Components};
use mcast_topology::graph::{from_edges, Graph, NodeId};
use mcast_topology::io::{parse_edge_list, write_edge_list};
use mcast_topology::metrics::{exact_path_stats, sampled_path_stats};
use mcast_topology::reachability::Reachability;
use proptest::prelude::*;

/// Strategy: a random graph as (node_count, raw edge list) with duplicates
/// and self-loops allowed (the builder must clean them).
fn raw_graph() -> impl Strategy<Value = (usize, Vec<(NodeId, NodeId)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        (Just(n), proptest::collection::vec(edge, 0..120))
    })
}

proptest! {
    #[test]
    fn builder_cleaning_invariants((n, edges) in raw_graph()) {
        let g = from_edges(n, &edges);
        // No self-loops, no duplicates, symmetric adjacency.
        for v in g.nodes() {
            let ns = g.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            prop_assert!(!ns.contains(&v), "no self loop");
            for &u in ns {
                prop_assert!(g.neighbors(u).contains(&v), "symmetric");
            }
        }
        // Handshake lemma.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        prop_assert_eq!(g.edges().count(), g.edge_count());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_rule((n, edges) in raw_graph()) {
        let g = from_edges(n, &edges);
        let t = Bfs::new(&g).run(0);
        // Every edge's endpoints differ by at most 1 in distance (when both
        // are reached), the defining property of BFS layering.
        for (u, v) in g.edges() {
            match (t.distance(u), t.distance(v)) {
                (Some(du), Some(dv)) => {
                    prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
                }
                (None, None) => {}
                _ => prop_assert!(false, "edge with one endpoint reached"),
            }
        }
        // Parents are one hop closer.
        for v in g.nodes() {
            if let Some(p) = t.parent(v) {
                prop_assert_eq!(t.distance(p).unwrap() + 1, t.distance(v).unwrap());
                prop_assert!(g.has_edge(p, v));
            }
        }
    }

    #[test]
    fn bfs_path_length_equals_distance((n, edges) in raw_graph()) {
        let g = from_edges(n, &edges);
        let t = Bfs::new(&g).run(0);
        for v in g.nodes() {
            if let Some(path) = t.path_to(v) {
                prop_assert_eq!(path.len() as u32 - 1, t.distance(v).unwrap());
                prop_assert_eq!(path[0], 0);
                prop_assert_eq!(*path.last().unwrap(), v);
                for w in path.windows(2) {
                    prop_assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn components_partition_the_nodes((n, edges) in raw_graph()) {
        let g = from_edges(n, &edges);
        let c = Components::find(&g);
        let mut sizes = vec![0usize; c.count()];
        for v in g.nodes() {
            sizes[c.label(v) as usize] += 1;
        }
        for (i, &s) in sizes.iter().enumerate() {
            prop_assert_eq!(s, c.size(i as u32));
        }
        prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        // Edges never cross components.
        for (u, v) in g.edges() {
            prop_assert_eq!(c.label(u), c.label(v));
        }
    }

    #[test]
    fn largest_component_is_connected_and_maximal((n, edges) in raw_graph()) {
        let g = from_edges(n, &edges);
        let ex = largest_component(&g);
        let c = Components::find(&ex.graph);
        prop_assert!(c.is_connected());
        let orig = Components::find(&g);
        let want = orig.largest().map(|l| orig.size(l)).unwrap_or(0);
        prop_assert_eq!(ex.graph.node_count(), want);
        prop_assert_eq!(ex.original.len(), ex.graph.node_count());
    }

    #[test]
    fn reachability_sums_to_reached_count((n, edges) in raw_graph()) {
        let g = from_edges(n, &edges);
        let t = Bfs::new(&g).run(0);
        let r = Reachability::from_source(&g, 0);
        prop_assert_eq!(r.total() as usize, t.reached_count());
        prop_assert_eq!(r.s(0), 1);
        // T is nondecreasing.
        let tv = r.t_vec();
        prop_assert!(tv.windows(2).all(|w| w[0] <= w[1]));
        prop_assert_eq!(*tv.last().unwrap(), r.total());
    }

    #[test]
    fn edge_list_round_trip((n, edges) in raw_graph()) {
        let g = from_edges(n, &edges);
        let g2 = parse_edge_list(&write_edge_list(&g)).unwrap();
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn sampled_path_stats_with_all_sources_is_exact((n, edges) in raw_graph()) {
        let g = from_edges(n, &edges);
        let all: Vec<NodeId> = g.nodes().collect();
        let (exact, diam) = exact_path_stats(&g);
        let (sampled, max_seen) = sampled_path_stats(&g, &all);
        prop_assert!((exact - sampled).abs() < 1e-9);
        prop_assert_eq!(diam, max_seen);
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The per-source scalar accumulation the path statistics were first
/// written as: one BFS per listed source (duplicates included), summing
/// every positive distance as an exact integer.
fn scalar_path_stats(g: &Graph, sources: &[NodeId]) -> (f64, u32) {
    let mut bfs = Bfs::new(g);
    let (mut total, mut pairs, mut diam) = (0u128, 0u128, 0u32);
    for &s in sources {
        bfs.run_scratch(s);
        for &u in bfs.scratch_order() {
            let d = bfs.scratch_distances()[u as usize];
            if d > 0 {
                total += u128::from(d);
                pairs += 1;
                diam = diam.max(d);
            }
        }
    }
    if pairs == 0 {
        (0.0, 0)
    } else {
        (total as f64 / pairs as f64, diam)
    }
}

// The path statistics against the scalar loop, bit for bit, on sparse
// random graphs: about half the nodes end up degree 0 or 1, so the
// batched sweep's leaf and isolated sources are routine, and graphs past
// 512 nodes take two lane chunks. Sampled sources repeat and always
// include a leaf and an isolated node when the graph has one.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn path_stats_are_bit_identical_to_the_scalar_loop(
        small in 2usize..40,
        big in any::<bool>(),
        density in 0usize..120,
        source_count in 1usize..600,
        seed in any::<u64>(),
    ) {
        let n = if big { 513 + 5 * small } else { small };
        let mut state = seed;
        let edges: Vec<(NodeId, NodeId)> = (0..n * density / 100)
            .map(|_| {
                let u = (splitmix(&mut state) % n as u64) as NodeId;
                let v = (splitmix(&mut state) % n as u64) as NodeId;
                (u, v)
            })
            .collect();
        let g = from_edges(n, &edges);

        let all: Vec<NodeId> = g.nodes().collect();
        let (exact, diam) = exact_path_stats(&g);
        let (want, want_diam) = scalar_path_stats(&g, &all);
        prop_assert_eq!(exact.to_bits(), want.to_bits(), "{} vs {}", exact, want);
        prop_assert_eq!(diam, want_diam);

        let mut sources: Vec<NodeId> = (0..source_count)
            .map(|_| (splitmix(&mut state) % n as u64) as NodeId)
            .collect();
        if sources.len() >= 2 {
            sources[0] = sources[1];
        }
        sources.extend(g.nodes().find(|&v| g.degree(v) == 1));
        sources.extend(g.nodes().find(|&v| g.degree(v) == 0));
        let (sampled, max_seen) = sampled_path_stats(&g, &sources);
        let (want, want_max) = scalar_path_stats(&g, &sources);
        prop_assert_eq!(sampled.to_bits(), want.to_bits(), "{} vs {}", sampled, want);
        prop_assert_eq!(max_seen, want_max);
    }
}

// BFS against a reference Floyd–Warshall on small graphs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn bfs_matches_floyd_warshall((n, edges) in (2usize..12).prop_flat_map(|n| {
        let edge = (0..n as NodeId, 0..n as NodeId);
        (Just(n), proptest::collection::vec(edge, 0..30))
    })) {
        let g = from_edges(n, &edges);
        let inf = u32::MAX / 4;
        let mut d = vec![vec![inf; n]; n];
        for v in 0..n {
            d[v][v] = 0;
        }
        for (u, v) in g.edges() {
            d[u as usize][v as usize] = 1;
            d[v as usize][u as usize] = 1;
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = d[i][k] + d[k][j];
                    if via < d[i][j] {
                        d[i][j] = via;
                    }
                }
            }
        }
        let mut bfs = Bfs::new(&g);
        for s in 0..n {
            let t = bfs.run(s as NodeId);
            for v in 0..n {
                let expect = if d[s][v] >= inf { None } else { Some(d[s][v]) };
                prop_assert_eq!(t.distance(v as NodeId), expect, "s={} v={}", s, v);
            }
        }
    }
}

proptest! {
    // Robustness: the edge-list parser must never panic, whatever the
    // input — it either parses or returns a structured error.
    #[test]
    fn parser_never_panics_on_arbitrary_input(text in ".{0,200}") {
        let _ = parse_edge_list(&text);
    }

    #[test]
    fn parser_never_panics_on_numeric_soup(
        tokens in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..30),
        headers in proptest::collection::vec(any::<u64>(), 0..3),
        small_header in proptest::option::of(0u64..100_000),
    ) {
        let mut text = String::new();
        for h in headers {
            // Out-of-range headers must be *rejected*, not allocated: a
            // single `nodes 18446744073709551615` line used to abort the
            // process with a failed 23 GB allocation. (In-range but huge
            // counts are a caller choice, not parser hostility, so the
            // fuzz domain is split into "must reject" and "small".)
            let h = h | (1 << 33);
            text.push_str(&format!("nodes {h}\n"));
        }
        if let Some(h) = small_header {
            text.push_str(&format!("nodes {h}\n"));
        }
        for (a, b) in tokens {
            // Same domain split for edge ids: either clearly out of range
            // (must be rejected) or small (must be accepted).
            let a = if a % 2 == 0 { a % 100_000 } else { a | (1 << 33) };
            let b = if b % 3 == 0 { b % 100_000 } else { b | (1 << 33) };
            text.push_str(&format!("{a} {b}\n"));
        }
        // May be Ok or Err (ids can exceed NodeId range or the header),
        // but must not panic, and Ok graphs must be well-formed.
        if let Ok(g) = parse_edge_list(&text) {
            let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
        }
    }
}

#[test]
fn graph_equality_is_structural() {
    let a = from_edges(3, &[(0, 1), (1, 2)]);
    let b = from_edges(3, &[(1, 2), (1, 0), (0, 1)]);
    assert_eq!(a, b);
}

#[test]
fn large_path_graph_bfs_is_linear_time_smoke() {
    // 200k-node path: completes instantly if BFS is O(V+E).
    let n = 200_000usize;
    let edges: Vec<(NodeId, NodeId)> = (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1)).collect();
    let g: Graph = from_edges(n, &edges);
    let t = Bfs::new(&g).run(0);
    assert_eq!(t.distance((n - 1) as NodeId), Some((n - 1) as u32));
}
