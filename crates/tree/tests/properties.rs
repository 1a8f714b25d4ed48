//! Property-based tests for the delivery-tree machinery.

use mcast_topology::bfs::Bfs;
use mcast_topology::graph::{from_edges, Graph};
use mcast_topology::NodeId;
use mcast_tree::affinity::{AffinitySampler, RootedTree};
use mcast_tree::delivery::DeliverySizer;
use mcast_tree::dynamics::{simulate_churn, ChurnConfig, LifetimeShape};
use mcast_tree::extremes;
use mcast_tree::policy::{sizer_with_policy, TieBreak};
use mcast_tree::stats::RunningStats;
use mcast_tree::storm::{SessionTree, Storm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Random labelled tree from a Prüfer-like attachment sequence.
fn random_tree(n: usize, attach: &[u32]) -> Graph {
    let edges: Vec<(NodeId, NodeId)> = (1..n)
        .map(|i| {
            let parent = attach[(i - 1) % attach.len().max(1)] % i as u32;
            (parent, i as NodeId)
        })
        .collect();
    from_edges(n, &edges)
}

fn tree_strategy() -> impl Strategy<Value = Graph> {
    (2usize..40, proptest::collection::vec(any::<u32>(), 1..40))
        .prop_map(|(n, attach)| random_tree(n, &attach))
}

/// Random connected graph: a random tree plus random chords, so shortest
/// paths tie and the tree depends on the BFS parent rule.
fn connected_strategy() -> impl Strategy<Value = Graph> {
    (
        tree_strategy(),
        proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
    )
        .prop_map(|(tree, chords)| {
            let n = tree.node_count() as u32;
            let mut edges: Vec<(NodeId, NodeId)> = tree.edges().collect();
            edges.extend(chords.into_iter().map(|(a, b)| (a % n, b % n)));
            from_edges(n as usize, &edges)
        })
}

proptest! {
    #[test]
    fn member_tree_tracks_delivery_sizer_through_churn(
        graph in connected_strategy(),
        ops in proptest::collection::vec((any::<bool>(), any::<u32>()), 1..60),
    ) {
        // `SessionTree::from_graph` and `DeliverySizer::from_graph` take
        // the same FIFO BFS tree, so they agree even where paths tie.
        let n = graph.node_count() as u32;
        let mut member_tree = SessionTree::from_graph(&graph, 0);
        let mut sizer = DeliverySizer::from_graph(&graph, 0);
        let mut members: Vec<NodeId> = Vec::new();
        for (join, pick) in ops {
            let before = sizer.tree_links(&members);
            if join || members.is_empty() {
                let site = 1 + pick % (n - 1);
                members.push(site);
                let grafted = member_tree.join(site);
                prop_assert_eq!(grafted, sizer.tree_links(&members) - before);
            } else {
                let idx = (pick as usize) % members.len();
                let site = members.swap_remove(idx);
                let pruned = member_tree.leave(site);
                prop_assert_eq!(pruned, Some(before - sizer.tree_links(&members)));
            }
            prop_assert_eq!(member_tree.links(), sizer.tree_links(&members));
            prop_assert_eq!(member_tree.member_count(), members.len() as u64);
        }
    }

    #[test]
    fn affinity_invariants_hold_on_random_trees(
        graph in tree_strategy(),
        n_receivers in 1usize..12,
        beta in -3.0f64..3.0,
        seed in any::<u64>(),
    ) {
        let tree = RootedTree::from_graph(&graph, 0);
        let mut sampler = AffinitySampler::new(&tree, n_receivers, beta, seed);
        for _ in 0..40 {
            sampler.step();
        }
        // Tree links equal an independent recount via DeliverySizer.
        let mut sizer = DeliverySizer::from_graph(&graph, 0);
        prop_assert_eq!(
            u64::from(sampler.tree_links()),
            sizer.tree_links(sampler.receivers())
        );
        // Mean pairwise distance equals the brute-force value.
        let rs = sampler.receivers();
        let mut brute = 0u64;
        for i in 0..rs.len() {
            for j in (i + 1)..rs.len() {
                brute += u64::from(tree.distance(rs[i], rs[j]));
            }
        }
        let pairs = rs.len() as f64 * (rs.len() as f64 - 1.0) / 2.0;
        let expect = if pairs > 0.0 { brute as f64 / pairs } else { 0.0 };
        prop_assert!((sampler.mean_pairwise_distance() - expect).abs() < 1e-9);
    }

    #[test]
    fn rooted_tree_distance_is_a_metric(graph in tree_strategy(), picks in proptest::collection::vec(any::<u32>(), 3)) {
        let tree = RootedTree::from_graph(&graph, 0);
        let n = graph.node_count() as u32;
        let a = picks[0] % n;
        let b = picks[1] % n;
        let c = picks[2] % n;
        prop_assert_eq!(tree.distance(a, a), 0);
        prop_assert_eq!(tree.distance(a, b), tree.distance(b, a));
        prop_assert!(tree.distance(a, c) <= tree.distance(a, b) + tree.distance(b, c));
        // Agrees with BFS.
        let bfs = Bfs::new(&graph).run(a);
        prop_assert_eq!(tree.distance(a, b), bfs.distance(b).unwrap());
    }

    #[test]
    fn extreme_sequences_bound_each_other(k in 1u64..5, depth in 1u32..7) {
        let leaves = k.pow(depth);
        let mut prev_spread = 0;
        let mut prev_packed = 0;
        for m in 1..=leaves.min(64) {
            let spread = extremes::disaffinity_distinct(k, depth, m);
            let packed = extremes::affinity_distinct(k, depth, m);
            prop_assert!(spread >= packed, "m={m}");
            // Both monotone nondecreasing.
            prop_assert!(spread >= prev_spread);
            prop_assert!(packed >= prev_packed);
            // Bounded by total links and below by depth (for m >= 1).
            let all_links = if k == 1 { u64::from(depth) } else { (k.pow(depth + 1) - k) / (k - 1) };
            prop_assert!(spread <= all_links);
            prop_assert!(packed >= u64::from(depth));
            prev_spread = spread;
            prev_packed = packed;
        }
    }

    #[test]
    fn policies_preserve_single_receiver_costs(
        graph in tree_strategy(),
        extra in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..15),
        seed in any::<u64>(),
    ) {
        // Add random chords so ties actually exist.
        let n = graph.node_count() as u32;
        let mut edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        for (a, b) in extra {
            edges.push((a % n, b % n));
        }
        let g = from_edges(n as usize, &edges);
        let reference = DeliverySizer::from_graph(&g, 0);
        let mut rng = StdRng::seed_from_u64(seed);
        for policy in [TieBreak::LowestId, TieBreak::HighestId, TieBreak::Random] {
            let mut sizer = sizer_with_policy(&g, 0, policy, &mut rng);
            for v in g.nodes() {
                prop_assert_eq!(sizer.distance(v), reference.distance(v));
                if let Some(d) = reference.distance(v) {
                    prop_assert_eq!(sizer.tree_links(&[v]), u64::from(d));
                }
            }
        }
    }

    #[test]
    fn running_stats_mean_is_within_bounds(xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(s.mean() >= lo - 1e-9 && s.mean() <= hi + 1e-9);
        prop_assert_eq!(s.count() as usize, xs.len());
        if xs.len() > 1 {
            prop_assert!(s.variance() >= -1e-9);
        }
    }

    // Satellite of the `(time_bits, session, seq)` event-key fix: a storm
    // calendar whose times are drawn from a tiny pool — so most events
    // collide on the exact same instant — replays bit-identically, and
    // replays bit-identically again when skeleton grafting is forced
    // through the batched path. Equal-time ordering therefore cannot
    // depend on heap internals, float comparison quirks, or the graft
    // schedule.
    #[test]
    fn equal_time_storms_replay_bit_identically(
        graph in tree_strategy(),
        sessions in 1u32..5,
        ops in proptest::collection::vec((0u8..4, any::<u32>(), any::<u32>()), 1..80),
    ) {
        let n = graph.node_count() as u32;
        let run = |threshold: usize| {
            let mut storm = Storm::new(&graph).batch_threshold(threshold).sample_every(1);
            for s in 0..sessions {
                // All sessions ignite at the same tied instant.
                storm.schedule_session_start(1.0, s, s % n);
            }
            for &(time_slot, pick, site) in &ops {
                // Four distinct times across up to 80 events: ties are the
                // common case, not the corner case.
                let t = 1.0 + f64::from(time_slot);
                let session = pick % (sessions + 1); // may hit a never-started id
                let site = site % n;
                if pick % 3 == 0 {
                    storm.schedule_leave(t, session, site);
                } else {
                    storm.schedule_join(t, session, site);
                }
            }
            for s in 0..sessions {
                storm.schedule_session_end(5.0, s);
            }
            storm.run().expect("session ids are unique")
        };
        let a = run(1);
        let b = run(1);
        let scalar = run(usize::MAX);
        prop_assert_eq!(a.events, b.events);
        prop_assert_eq!(&a.samples, &b.samples);
        prop_assert_eq!(a.mean_links.to_bits(), b.mean_links.to_bits());
        prop_assert_eq!(&a.samples, &scalar.samples);
        prop_assert_eq!(a.grafted_links, scalar.grafted_links);
        prop_assert_eq!(a.pruned_links, scalar.pruned_links);
        // Leaves never underflow: every pruned link was first grafted.
        prop_assert!(a.pruned_links <= a.grafted_links);
    }

    // The churn runner under the bits-keyed calendar: identical configs
    // replay bit-identically for every lifetime shape — including Fixed,
    // where all departures are arrival-time translates and the calendar
    // order is exactly the arrival order.
    #[test]
    fn churn_replays_bit_identically_across_lifetime_shapes(
        graph in connected_strategy(),
        shape_pick in 0u8..3,
        seed in any::<u64>(),
    ) {
        let shape = match shape_pick {
            0 => LifetimeShape::Exponential,
            1 => LifetimeShape::Pareto { alpha: 2.5 },
            _ => LifetimeShape::Fixed,
        };
        let cfg = ChurnConfig {
            arrival_rate: 3.0,
            mean_lifetime: 1.0,
            lifetime_shape: shape,
            warmup_events: 40,
            sample_events: 120,
            seed,
        };
        let a = simulate_churn(&graph, 0, &cfg);
        let b = simulate_churn(&graph, 0, &cfg);
        prop_assert_eq!(a.mean_links.to_bits(), b.mean_links.to_bits());
        prop_assert_eq!(a.mean_members.to_bits(), b.mean_members.to_bits());
        prop_assert_eq!(a.link_samples.count(), b.link_samples.count());
        prop_assert_eq!(a.grafts, b.grafts);
        prop_assert_eq!(a.prunes, b.prunes);
    }
}
