//! Pins the single-session churn simulation bit for bit.
//!
//! Three runs, one per lifetime shape, on a square mesh: a grid has many
//! equal-length shortest paths, so the outcome depends on which parent
//! each node's tree takes. The mesh is relabelled out of row-major order,
//! where a FIFO BFS would meet every level in id order and so pick the
//! same parents as the lowest-id rule. Every `ChurnOutcome` field is
//! compared with recorded values: the counts exactly, the means and the
//! sample statistics as `to_bits()`. Re-pin only with a documented
//! reason.

use mcast_topology::graph::from_edges;
use mcast_topology::{Graph, NodeId};
use mcast_tree::dynamics::{simulate_churn, ChurnConfig, ChurnOutcome, LifetimeShape};

/// A 12 × 12 grid whose cell `(r, c)` is node `(12 r + c) · 7 mod 144`
/// (7 is prime to 144, so the labels are a permutation).
fn mesh() -> Graph {
    const SIDE: NodeId = 12;
    let id = |r: NodeId, c: NodeId| (r * SIDE + c) * 7 % (SIDE * SIDE);
    let mut edges = Vec::new();
    for r in 0..SIDE {
        for c in 0..SIDE {
            if c + 1 < SIDE {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < SIDE {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    from_edges((SIDE * SIDE) as usize, &edges)
}

/// `[mean_links bits, mean_members bits, grafts, prunes, sample count,
/// sample mean bits, sample m2 bits]`; the destructuring is exhaustive,
/// so a new field fails to compile here until it is pinned too.
fn fields(out: &ChurnOutcome) -> [u64; 7] {
    let ChurnOutcome {
        mean_links,
        mean_members,
        grafts,
        prunes,
        link_samples,
    } = out;
    let (count, mean, m2) = link_samples.to_parts();
    [
        mean_links.to_bits(),
        mean_members.to_bits(),
        *grafts,
        *prunes,
        count,
        mean.to_bits(),
        m2.to_bits(),
    ]
}

fn run(shape: LifetimeShape, seed: u64) -> [u64; 7] {
    let cfg = ChurnConfig {
        arrival_rate: 6.0,
        mean_lifetime: 2.0,
        lifetime_shape: shape,
        warmup_events: 500,
        sample_events: 5_000,
        seed,
    };
    let out = simulate_churn(&mesh(), 0, &cfg);
    fields(&out)
}

#[test]
fn exponential_churn_on_a_mesh_is_pinned() {
    assert_eq!(
        run(LifetimeShape::Exponential, 1),
        [
            0x404dc0350891371d,
            0x402814718c467ea8,
            7604,
            7605,
            5000,
            0x404e561e4f765fee,
            0x412f1fc166cf4211,
        ]
    );
}

#[test]
fn pareto_churn_on_a_mesh_is_pinned() {
    assert_eq!(
        run(LifetimeShape::Pareto { alpha: 2.5 }, 2),
        [
            0x404dcc70c887188c,
            0x40285ce18a705111,
            7209,
            7230,
            5000,
            0x404e56e978d4fdf3,
            0x412a7cbb970a3d6c,
        ]
    );
}

#[test]
fn fixed_churn_on_a_mesh_is_pinned() {
    assert_eq!(
        run(LifetimeShape::Fixed, 3),
        [
            0x404e3bfc6aefae52,
            0x40286525e4c4067f,
            7548,
            7534,
            5000,
            0x404f1594af4f0d88,
            0x4130bbcadec56d6b,
        ]
    );
}
