//! Property tests for the bit-parallel multi-source BFS kernel.
//!
//! Strategies are integer ranges and `any::<u64>()`; graphs and source
//! batches are derived from sampled seeds with an inline splitmix64.

use mcast_topology::batch::{BatchBfs, Direction, MAX_LANES};
use mcast_topology::bfs::{Bfs, UNREACHED};
use mcast_topology::graph::{from_edges, Graph, NodeId};
use mcast_topology::reachability::{AverageReachability, Reachability};
use proptest::prelude::*;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random graph with duplicate edges and self-loops in the raw list
/// (the builder cleans them) and deliberately sparse edge counts, so
/// disconnected graphs and isolated nodes are routine.
fn random_graph(n: usize, edge_count: usize, seed: u64) -> Graph {
    let mut state = seed;
    let edges: Vec<(NodeId, NodeId)> = (0..edge_count)
        .map(|_| {
            let u = (splitmix(&mut state) % n as u64) as NodeId;
            let v = (splitmix(&mut state) % n as u64) as NodeId;
            (u, v)
        })
        .collect();
    from_edges(n, &edges)
}

/// Like [`random_graph`], but edges are drawn only among the first
/// `prefix` nodes — everything past the prefix is guaranteed isolated,
/// making unreachable sentinels the common case rather than the corner.
fn random_graph_on_prefix(n: usize, prefix: usize, edge_count: usize, seed: u64) -> Graph {
    let mut state = seed ^ 0x0dd0_0d15;
    let edges: Vec<(NodeId, NodeId)> = (0..edge_count)
        .map(|_| {
            let u = (splitmix(&mut state) % prefix as u64) as NodeId;
            let v = (splitmix(&mut state) % prefix as u64) as NodeId;
            (u, v)
        })
        .collect();
    from_edges(n, &edges)
}

/// Sources drawn with replacement, so duplicate lanes are exercised.
fn random_sources(n: usize, count: usize, seed: u64) -> Vec<NodeId> {
    let mut state = seed ^ 0x5bf0_3635;
    (0..count)
        .map(|_| (splitmix(&mut state) % n as u64) as NodeId)
        .collect()
}

/// One lane of a `run` sweep against a scalar BFS from the same source:
/// distances, reached count and the shortest-path-tree distance sum must
/// all agree exactly.
fn assert_lane_matches_scalar(
    batch: &BatchBfs<'_>,
    scalar: &mut Bfs<'_>,
    lane: usize,
    source: NodeId,
) -> Result<(), TestCaseError> {
    let t = scalar.run(source);
    let dist = batch.distances(lane);
    prop_assert_eq!(dist, scalar.scratch_distances());
    let reached: Vec<u64> = dist
        .iter()
        .filter(|&&d| d != UNREACHED)
        .map(|&d| u64::from(d))
        .collect();
    prop_assert_eq!(reached.len(), t.reached_count());
    prop_assert_eq!(reached.iter().sum::<u64>(), t.total_distance());
    Ok(())
}

/// Lane sum of the scalar `S(r)` profiles of `sources`: the independent
/// oracle for `run_totals`' `level_totals()`.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // The bit-parallel kernel against the scalar BFS, across the batch
    // widths that exercise its mask boundaries: 1 (single lane), 63 (one
    // bit shy of a full word), 64 (exactly one word), 65 (spills into the
    // second mask word), 256 (full 4-word sweep), 512 (full 8-word sweep).
    // `run` is held lane by lane to the scalar distances, `run_totals` to
    // the lane sum of the scalar profiles.
    #[test]
    fn batched_bfs_is_bit_identical_to_scalar(
        n in 2usize..40,
        edge_count in 0usize..120,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, edge_count, seed);
        let mut batch = BatchBfs::new(&g);
        let mut scalar = Bfs::new(&g);
        for width in [1usize, 63, 64, 65, 256, 512] {
            let sources = random_sources(n, width, seed ^ width as u64);
            for chunk in sources.chunks(MAX_LANES) {
                batch.run(chunk);
                prop_assert_eq!(batch.lanes(), chunk.len());
                for (lane, &s) in chunk.iter().enumerate() {
                    assert_lane_matches_scalar(&batch, &mut scalar, lane, s)?;
                }
                batch.run_totals(chunk);
                prop_assert_eq!(batch.lanes(), chunk.len());
                prop_assert_eq!(batch.level_totals(), scalar_profile_sum(&g, chunk));
            }
        }
    }

    // The streaming integer accumulation in `over_sources` against a
    // replication of the pre-batch algorithm: per-source float T(r)
    // vectors, padded with their own saturated totals, merged in source
    // order. Every value is an exact integer below 2^53, so the two must
    // agree bit for bit.
    #[test]
    fn average_reachability_matches_float_replication(
        n in 2usize..40,
        edge_count in 0usize..120,
        source_count in 1usize..70,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, edge_count, seed);
        let sources = random_sources(n, source_count, seed);
        let avg = AverageReachability::over_sources(&g, &sources).unwrap();

        let mut sums: Vec<f64> = Vec::new();
        for &s in &sources {
            let t = Reachability::from_source(&g, s).t_vec();
            if t.len() > sums.len() {
                let pad = sums.last().copied().unwrap_or(0.0);
                sums.resize(t.len(), pad);
            }
            let own_total = *t.last().unwrap() as f64;
            for (r, slot) in sums.iter_mut().enumerate() {
                *slot += t.get(r).map(|&v| v as f64).unwrap_or(own_total);
            }
        }
        let count = sources.len() as f64;
        prop_assert_eq!(avg.t_vec().len(), sums.len());
        for (r, (&got, &want)) in avg.t_vec().iter().zip(&sums).enumerate() {
            let want = want / count;
            prop_assert_eq!(got.to_bits(), want.to_bits(), "r={}: {} vs {}", r, got, want);
        }
    }

    // The batch join entry point: a lane's derived parent tree is
    // bit-identical to deriving from a scalar sweep's distances, and
    // every parent is a genuine shortest-path predecessor — the minimum
    // such neighbour, independent of any traversal schedule.
    #[test]
    fn batch_parent_trees_match_scalar_derivation(
        n in 2usize..40,
        edge_count in 0usize..120,
        source_count in 1usize..65,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, edge_count, seed);
        let sources = random_sources(n, source_count.min(MAX_LANES), seed);
        let mut batch = BatchBfs::new(&g);
        batch.run(&sources);
        let mut scalar = Bfs::new(&g);
        let mut from_batch = Vec::new();
        let mut from_scalar = Vec::new();
        for (lane, &s) in sources.iter().enumerate() {
            batch.parent_tree(lane, &mut from_batch);
            scalar.run_scratch(s);
            mcast_topology::bfs::min_index_parents(
                &g, scalar.scratch_distances(), s, &mut from_scalar);
            prop_assert_eq!(&from_batch, &from_scalar, "lane {} source {}", lane, s);
            let dist = batch.distances(lane);
            for v in 0..n as NodeId {
                let (d, p) = (dist[v as usize], from_batch[v as usize]);
                if v == s {
                    prop_assert_eq!(p, s);
                } else if d == UNREACHED {
                    prop_assert_eq!(p, UNREACHED);
                } else {
                    prop_assert_eq!(dist[p as usize], d - 1, "node {}", v);
                    // Minimality: no lower-id neighbour one hop closer.
                    for &u in g.neighbors(v) {
                        if u >= p { break; }
                        prop_assert_ne!(dist[u as usize], d - 1, "node {}", v);
                    }
                }
            }
        }
    }

    // Direction independence: the kernel is level-synchronous, so a
    // level's discovery set — and therefore every distance — cannot
    // depend on whether it was computed top-down or bottom-up. Sweep the same batch under the default heuristic,
    // forced push, forced pull, and random α/β switch points (α=0 never
    // pulls, large α with β=0 bounces back immediately) and demand bit
    // identity throughout.
    #[test]
    fn pull_and_push_sweeps_are_bit_identical(
        n in 2usize..40,
        edge_count in 0usize..140,
        source_count in 1usize..70,
        alpha in 0u64..40,
        beta in 0u64..60,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, edge_count, seed);
        let sources = random_sources(n, source_count, seed);
        let mut reference = BatchBfs::new(&g);
        reference.set_direction(Direction::AlwaysPush);
        reference.run(&sources);
        prop_assert_eq!(reference.pull_levels(), 0);
        let policies = [
            Direction::default(),
            Direction::AlwaysPull,
            Direction::Auto { alpha, beta },
            Direction::Auto { alpha: u64::MAX, beta: 0 },
        ];
        for policy in policies {
            let mut other = BatchBfs::new(&g);
            other.set_direction(policy);
            other.run(&sources);
            for lane in 0..sources.len() {
                prop_assert_eq!(
                    other.distances(lane), reference.distances(lane),
                    "{:?} lane {}", policy, lane);
            }
        }
    }

    // Width genericity: forcing the mask width to any of the supported
    // word counts (sources permitting) changes only the sweep shape,
    // never the results — distances against the auto-width sweep, lane
    // totals against the scalar profiles.
    #[test]
    fn forced_widths_are_bit_identical(
        n in 2usize..40,
        edge_count in 0usize..120,
        source_count in 1usize..65,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, edge_count, seed);
        let sources = random_sources(n, source_count, seed);
        let mut reference = BatchBfs::new(&g);
        reference.run(&sources);
        prop_assert_eq!(reference.words(), 1);
        let expect = scalar_profile_sum(&g, &sources);
        for w in [1usize, 4, 8] {
            let mut forced = BatchBfs::new(&g);
            forced.force_words(Some(w));
            forced.run(&sources);
            prop_assert_eq!(forced.words(), w);
            for lane in 0..sources.len() {
                prop_assert_eq!(
                    forced.distances(lane), reference.distances(lane), "W={} lane {}", w, lane);
            }
            forced.run_totals(&sources);
            prop_assert_eq!(forced.words(), w);
            prop_assert_eq!(forced.level_totals(), &expect[..], "W={}", w);
        }
    }

    // Sentinel agreement on disconnected graphs: edges are confined to
    // the low half of the id range, so sources in the high half are
    // isolated (or in tiny shards) and most distances stay UNREACHED.
    // Batch and scalar must agree on exactly which nodes are unreachable
    // — same u32::MAX sentinel, no width-dependent misreads — at every
    // mask boundary width, and the totals sweep must count exactly the
    // reachable nodes.
    #[test]
    fn disconnected_sentinels_agree_with_scalar(
        n in 4usize..40,
        edge_count in 0usize..60,
        seed in any::<u64>(),
    ) {
        let half = n / 2;
        let g = random_graph_on_prefix(n, half.max(1), edge_count, seed);
        let mut batch = BatchBfs::new(&g);
        let mut scalar = Bfs::new(&g);
        for width in [1usize, 63, 64, 65, 256, 512] {
            let sources = random_sources(n, width, seed ^ (width as u64) << 8);
            batch.run(&sources);
            let mut reached = 0usize;
            for (lane, &s) in sources.iter().enumerate() {
                scalar.run_scratch(s);
                let sd = scalar.scratch_distances();
                prop_assert_eq!(batch.distances(lane), sd, "width {} lane {}", width, lane);
                let unreached =
                    batch.distances(lane).iter().filter(|&&d| d == UNREACHED).count();
                prop_assert_eq!(
                    unreached, n - scalar.scratch_order().len(),
                    "width {} lane {}", width, lane);
                reached += n - unreached;
            }
            batch.run_totals(&sources);
            prop_assert_eq!(batch.level_totals().iter().sum::<u64>() as usize, reached);
            prop_assert_eq!(
                batch.level_totals(), scalar_profile_sum(&g, &sources), "width {}", width);
        }
    }

    // The leaf-folded totals sweep must reproduce the per-lane fold of the
    // scalar profiles exactly: `level_totals()[r] == Σ_lane S_lane(r)`
    // (lanes past their own eccentricity contribute zero). Sparse random graphs are
    // rich in the shapes the fold has to get right — leaf sources,
    // leaf–leaf two-node components, isolated sources, duplicate
    // sources sharing a promoted slot — and the width loop crosses every
    // mask-word boundary.
    #[test]
    fn leaf_folded_totals_match_per_lane_fold(
        n in 2usize..40,
        edge_count in 0usize..50,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, edge_count, seed);
        let mut batch = BatchBfs::new(&g);
        for width in [1usize, 63, 64, 65, 256, 512] {
            let mut sources = random_sources(n, width, seed ^ (width as u64) << 8);
            // Force at least one duplicate pair once the batch has room.
            if sources.len() >= 2 {
                sources[0] = sources[1];
            }
            let expect = scalar_profile_sum(&g, &sources);
            // Reusing the same engine crosses the folded and unfolded
            // representations; neither may leak into the other.
            batch.run(&sources);
            batch.run_totals(&sources);
            prop_assert_eq!(batch.level_totals(), &expect[..], "width {}", width);
        }
    }

    // A batch that reuses its scratch state across runs behaves like a
    // fresh kernel each time (no leakage between sweeps).
    #[test]
    fn reused_batch_state_is_clean(
        n in 2usize..30,
        edge_count in 0usize..80,
        seed in any::<u64>(),
    ) {
        let g = random_graph(n, edge_count, seed);
        let mut reused = BatchBfs::new(&g);
        let mut scalar = Bfs::new(&g);
        for round in 0..3u64 {
            let sources = random_sources(n, 5, seed ^ round);
            reused.run(&sources);
            let mut fresh = BatchBfs::new(&g);
            fresh.run(&sources);
            for (lane, &s) in sources.iter().enumerate() {
                prop_assert_eq!(reused.distances(lane), fresh.distances(lane));
                assert_lane_matches_scalar(&reused, &mut scalar, lane, s)?;
            }
            // Interleave a totals sweep: it must match the scalar
            // profiles, and the next round's `run` must be unaffected.
            reused.run_totals(&sources);
            prop_assert_eq!(reused.level_totals(), scalar_profile_sum(&g, &sources));
        }
    }
}
