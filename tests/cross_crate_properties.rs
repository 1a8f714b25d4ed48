//! Property-based tests spanning crates: generator outputs feed the tree
//! machinery, and the measured quantities obey the paper's structural
//! inequalities on arbitrary random inputs.

use mcast_core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;

/// Reference delivery-tree size: explicit union of BFS paths.
fn brute_tree_links(graph: &Graph, source: NodeId, receivers: &[NodeId]) -> u64 {
    let tree = Bfs::new(graph).run(source);
    let mut edges: HashSet<(NodeId, NodeId)> = HashSet::new();
    for &r in receivers {
        if let Some(path) = tree.path_to(r) {
            for w in path.windows(2) {
                let e = if w[0] < w[1] {
                    (w[0], w[1])
                } else {
                    (w[1], w[0])
                };
                edges.insert(e);
            }
        }
    }
    edges.len() as u64
}

fn arbitrary_connected_graph() -> impl Strategy<Value = Graph> {
    (3usize..40, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = StdRng::seed_from_u64(seed);
        // Degree 3 needs enough pairs; clamp for the tiniest graphs.
        let degree = 3.0f64.min((n - 1) as f64);
        mcast_core::gen::random::random_with_degree(n, degree, &mut rng).expect("valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sizer_matches_brute_force_on_random_graphs(
        graph in arbitrary_connected_graph(),
        source_pick in any::<u32>(),
        receiver_picks in proptest::collection::vec(any::<u32>(), 1..25),
    ) {
        let n = graph.node_count() as u32;
        let source = source_pick % n;
        let receivers: Vec<NodeId> = receiver_picks.iter().map(|&r| r % n).collect();
        let mut sizer = DeliverySizer::from_graph(&graph, source);
        let fast = sizer.tree_links(&receivers);
        let brute = brute_tree_links(&graph, source, &receivers);
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn tree_size_is_monotone_under_receiver_addition(
        graph in arbitrary_connected_graph(),
        receiver_picks in proptest::collection::vec(any::<u32>(), 2..20),
    ) {
        let n = graph.node_count() as u32;
        let receivers: Vec<NodeId> = receiver_picks.iter().map(|&r| r % n).collect();
        let mut sizer = DeliverySizer::from_graph(&graph, 0);
        let mut prev = 0;
        for cut in 1..=receivers.len() {
            let l = sizer.tree_links(&receivers[..cut]);
            prop_assert!(l >= prev, "shrank from {prev} to {l}");
            prev = l;
        }
    }

    #[test]
    fn tree_bounded_by_unicast_and_distinct_count(
        graph in arbitrary_connected_graph(),
        receiver_picks in proptest::collection::vec(any::<u32>(), 1..20),
    ) {
        let n = graph.node_count() as u32;
        let receivers: Vec<NodeId> = receiver_picks
            .iter()
            .map(|&r| 1 + (r % (n - 1))) // never the source 0
            .collect();
        let mut sizer = DeliverySizer::from_graph(&graph, 0);
        let (tree, unicast) = sizer.sample(&receivers);
        prop_assert!(tree <= unicast, "tree {tree} > unicast {unicast}");
        let distinct: HashSet<_> = receivers.iter().collect();
        // Reaching d distinct non-source nodes needs at least d links and
        // at most the whole graph.
        prop_assert!(tree >= distinct.len() as u64);
        prop_assert!(tree <= graph.edge_count() as u64);
    }

    #[test]
    fn reachability_profile_consistent_with_mean_distance(
        graph in arbitrary_connected_graph(),
    ) {
        // ū from metrics == Σ r·S(r)/(N−1) from the profile.
        let prof = Reachability::from_source(&graph, 0);
        let n = graph.node_count() as f64;
        let from_profile: f64 = (1..=prof.eccentricity())
            .map(|r| r as f64 * prof.s(r) as f64)
            .sum::<f64>() / (n - 1.0);
        let direct = mcast_core::topology::metrics::mean_distance_from(&graph, 0);
        prop_assert!((from_profile - direct).abs() < 1e-9);
    }

    #[test]
    fn generated_topologies_always_satisfy_cleaning_invariants(
        seed in any::<u64>(),
        choice in 0usize..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = match choice {
            0 => mcast_core::gen::transit_stub::transit_stub(
                TransitStubParams {
                    transit_domains: 2,
                    transit_domain_size: 3,
                    stubs_per_transit_node: 2,
                    stub_domain_size: 3,
                    transit_edge_prob: 0.5,
                    stub_edge_prob: 0.5,
                    extra_transit_stub_edges: 4,
                    extra_stub_stub_edges: 4,
                },
                &mut rng,
            )
            .unwrap(),
            1 => mcast_core::gen::tiers::tiers(
                TiersParams {
                    wan_nodes: 6,
                    man_count: 2,
                    man_nodes: 5,
                    lans_per_man: 2,
                    lan_hosts: 4,
                    wan_redundancy: 1,
                    man_redundancy: 1,
                },
                &mut rng,
            )
            .unwrap(),
            2 => mcast_core::gen::power_law::power_law(
                PowerLawParams { nodes: 60, edges_per_node: 1.5 },
                &mut rng,
            )
            .unwrap(),
            _ => mcast_core::gen::overlay::overlay(
                OverlayParams {
                    grid_dim: 3,
                    cluster_size: 6,
                    intra_extra_edges: 1,
                    tunnel_length: 1,
                    long_range_tunnels: 2,
                },
                &mut rng,
            )
            .unwrap(),
        };
        // Connected, deduplicated, no self-loops, symmetric.
        prop_assert!(Components::find(&graph).is_connected());
        for v in graph.nodes() {
            let ns = graph.neighbors(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(!ns.contains(&v));
        }
    }

    #[test]
    fn ratio_sample_is_at_least_longest_path_fraction(
        graph in arbitrary_connected_graph(),
        seed in any::<u64>(),
    ) {
        // L ≥ max distance and Σdist ≤ m·max ⇒ ratio = L·m/Σdist ≥ 1.
        let mut measurer = SourceMeasurer::new(&graph, 0, None);
        let mut rng = StdRng::seed_from_u64(seed);
        let m = 3.min(graph.node_count() - 1);
        let ratio = measurer.ratio_sample(m, &mut rng);
        prop_assert!(ratio >= 1.0 - 1e-12, "ratio {ratio}");
        prop_assert!(ratio <= m as f64 + 1e-12, "ratio {ratio}");
    }
}
