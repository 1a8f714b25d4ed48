//! Cross-crate ground truth: the analytical formulas of `mcast-analysis`
//! (§3 of the paper) must agree with brute-force Monte-Carlo simulation
//! on real k-ary tree graphs built by `mcast-gen` and measured by
//! `mcast-tree`.

use mcast_core::analysis::{kary, nm};
use mcast_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn simulate_leaves(k: u32, depth: u32, n: usize, trials: usize, seed: u64) -> RunningStats {
    let tree = KaryTree::new(k, depth).unwrap();
    let graph = tree.graph();
    let pool = ReceiverPool::IdRange(tree.first_leaf()..graph.node_count() as NodeId);
    let mut measurer = SourceMeasurer::with_pool(graph, tree.root(), pool);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = RunningStats::new();
    for _ in 0..trials {
        stats.push(measurer.tree_sample(n, &mut rng) as f64);
    }
    stats
}

fn simulate_all_sites(k: u32, depth: u32, n: usize, trials: usize, seed: u64) -> RunningStats {
    let tree = KaryTree::new(k, depth).unwrap();
    let graph = tree.graph();
    let mut measurer = SourceMeasurer::new(graph, tree.root(), None);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stats = RunningStats::new();
    for _ in 0..trials {
        stats.push(measurer.tree_sample(n, &mut rng) as f64);
    }
    stats
}

#[test]
fn eq4_matches_simulation_across_k_and_depth() {
    for (k, depth) in [(2u32, 8u32), (3, 5), (4, 4)] {
        for n in [1usize, 3, 10, 50, 400] {
            let exact = kary::l_hat_leaves(f64::from(k), depth, n as f64);
            let sim = simulate_leaves(k, depth, n, 600, 0xE44 ^ n as u64);
            let tol = 4.0 * sim.std_err() + 0.02 * exact;
            assert!(
                (exact - sim.mean()).abs() < tol,
                "k={k} D={depth} n={n}: exact {exact} vs sim {} ± {}",
                sim.mean(),
                sim.std_err()
            );
        }
    }
}

#[test]
fn eq21_matches_simulation_with_receivers_everywhere() {
    for (k, depth) in [(2u32, 8u32), (3, 5)] {
        for n in [1usize, 8, 64, 512] {
            let exact = kary::l_hat_all_sites(f64::from(k), depth, n as f64);
            let sim = simulate_all_sites(k, depth, n, 600, 0xE21 ^ n as u64);
            let tol = 4.0 * sim.std_err() + 0.02 * exact;
            assert!(
                (exact - sim.mean()).abs() < tol,
                "k={k} D={depth} n={n}: exact {exact} vs sim {} ± {}",
                sim.mean(),
                sim.std_err()
            );
        }
    }
}

#[test]
fn eq18_matches_distinct_receiver_simulation() {
    let (k, depth) = (2u32, 10u32);
    let tree = KaryTree::new(k, depth).unwrap();
    let graph = tree.graph();
    let pool = ReceiverPool::IdRange(tree.first_leaf()..graph.node_count() as NodeId);
    let mut measurer = SourceMeasurer::with_pool(graph, tree.root(), pool);
    let mut rng = StdRng::seed_from_u64(0xE18);
    for m in [1usize, 16, 128, 700] {
        let theory = nm::l_of_m_leaves(f64::from(k), depth, m as f64);
        let mut stats = RunningStats::new();
        for _ in 0..600 {
            // ratio · (m·D / m) recovers L because every leaf sits at
            // depth D; ratio_sample returns L·m/Σdist = L/D.
            stats.push(measurer.ratio_sample(m, &mut rng) * f64::from(depth));
        }
        let tol = 4.0 * stats.std_err() + 0.02 * theory;
        assert!(
            (theory - stats.mean()).abs() < tol,
            "m={m}: theory {theory} vs sim {} ± {}",
            stats.mean(),
            stats.std_err()
        );
    }
}

#[test]
fn occupancy_conversion_matches_observed_distinct_counts() {
    // Eq 1 in vivo: draw n with replacement, count distinct leaves.
    let tree = KaryTree::new(2, 9).unwrap();
    let m_total = tree.leaf_count();
    let pool = ReceiverPool::IdRange(tree.first_leaf()..tree.node_count() as NodeId);
    let mut rng = StdRng::seed_from_u64(0xE01);
    let mut buf = Vec::new();
    for n in [10usize, 100, 1000] {
        let mut stats = RunningStats::new();
        for _ in 0..300 {
            mcast_core::tree::sampling::with_replacement(&pool, n, &mut rng, &mut buf);
            let mut seen = buf.clone();
            seen.sort_unstable();
            seen.dedup();
            stats.push(seen.len() as f64);
        }
        let predicted = nm::expected_distinct(m_total as f64, n as f64);
        assert!(
            (stats.mean() - predicted).abs() < 4.0 * stats.std_err() + 0.5,
            "n={n}: predicted {predicted} vs observed {}",
            stats.mean()
        );
    }
}

#[test]
fn asymptote_slope_emerges_in_simulation() {
    // The paper's core claim, measured end-to-end: L̂(n)/n declines
    // linearly in ln n with slope −1/ln k on a big binary tree.
    let (k, depth) = (2u32, 13u32);
    let ns = [32usize, 128, 512, 2048];
    let mut pts = Vec::new();
    for &n in &ns {
        let sim = simulate_leaves(k, depth, n, 300, 0xA5);
        pts.push(((n as f64).ln(), sim.mean() / n as f64));
    }
    let fit = linear_fit(&pts).unwrap();
    let predicted = -1.0 / f64::from(k).ln();
    assert!(
        (fit.slope - predicted).abs() / predicted.abs() < 0.1,
        "slope {} vs predicted {predicted}",
        fit.slope
    );
    assert!(fit.r2 > 0.99, "r2 {}", fit.r2);
}
