//! Membership churn: joins and leaves with incremental tree maintenance.
//!
//! The paper measures static snapshots, but the pricing application that
//! motivated Chuang–Sirbu bills *sessions*, whose membership evolves.
//! This module simulates an M/G/∞ group: receivers arrive as a Poisson
//! process at rate `λ` at uniform sites and stay for i.i.d. lifetimes
//! ([`LifetimeShape`]: exponential, heavy-tailed Pareto, or fixed). The
//! stationary group size is Poisson(λ·E\[S\]) *whatever the lifetime
//! distribution* (M/G/∞ insensitivity), so the stationary tree size must
//! match the static with-replacement expectation at a Poisson-mixed `n` —
//! verified in the tests, which is a strong end-to-end check of both
//! machineries.
//!
//! The maintained tree mirrors real protocol behaviour: a join grafts the
//! member's rootward path until it meets the tree (link refcount 0→1 =
//! graft message), a leave prunes refcounts back (1→0 = prune).

use crate::stats::RunningStats;
use mcast_topology::bfs::{Bfs, UNREACHED};
use mcast_topology::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A refcounted source-specific delivery tree supporting joins/leaves.
pub struct MemberTree {
    source: NodeId,
    parent: Vec<NodeId>,
    dist: Vec<u32>,
    /// Members whose path crosses the link above this node.
    refcount: Vec<u32>,
    /// Members currently joined exactly at this site (so a leave at a
    /// site with no member is detectably a no-op, never an underflow).
    members: Vec<u32>,
    member_count: u64,
    links: u64,
}

impl MemberTree {
    /// Build for `(graph, source)` with no members.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn new(graph: &Graph, source: NodeId) -> Self {
        let mut bfs = Bfs::new(graph);
        bfs.run_scratch(source);
        Self {
            source,
            parent: bfs.scratch_parents().to_vec(),
            dist: bfs.scratch_distances().to_vec(),
            refcount: vec![0; graph.node_count()],
            members: vec![0; graph.node_count()],
            member_count: 0,
            links: 0,
        }
    }

    /// Current number of links in the tree.
    pub fn links(&self) -> u64 {
        self.links
    }

    /// Current number of members (joins minus matched leaves).
    pub fn member_count(&self) -> u64 {
        self.member_count
    }

    /// Members currently joined exactly at `site`.
    pub fn members_at(&self, site: NodeId) -> u32 {
        self.members[site as usize]
    }

    /// Add a member at `site`; returns the number of links grafted.
    /// Unreachable sites and the source itself join for free (no rootward
    /// path to graft), but still count as members.
    pub fn join(&mut self, site: NodeId) -> u64 {
        self.members[site as usize] += 1;
        self.member_count += 1;
        if self.dist[site as usize] == UNREACHED {
            return 0;
        }
        let mut grafted = 0;
        let mut v = site;
        while v != self.source {
            let rc = &mut self.refcount[v as usize];
            *rc += 1;
            if *rc == 1 {
                grafted += 1;
            }
            v = self.parent[v as usize];
        }
        self.links += grafted;
        grafted
    }

    /// Remove a member previously added at `site`; returns the number of
    /// links pruned.
    ///
    /// Leaving a site that has no current member — a leave-before-join, a
    /// repeated leave, or a stray prune for the source — is a no-op that
    /// returns 0: the link count and every refcount are left untouched,
    /// so a desynchronised caller can never underflow the tree.
    pub fn leave(&mut self, site: NodeId) -> u64 {
        let m = &mut self.members[site as usize];
        if *m == 0 {
            return 0;
        }
        *m -= 1;
        self.member_count -= 1;
        if self.dist[site as usize] == UNREACHED {
            return 0;
        }
        let mut pruned = 0;
        let mut v = site;
        while v != self.source {
            let rc = &mut self.refcount[v as usize];
            debug_assert!(*rc > 0, "leave without matching join at {v}");
            *rc -= 1;
            if *rc == 0 {
                pruned += 1;
            }
            v = self.parent[v as usize];
        }
        self.links -= pruned;
        pruned
    }
}

/// Shape of the membership-lifetime distribution (the mean is always
/// [`ChurnConfig::mean_lifetime`]).
///
/// By M/G/∞ insensitivity, the *stationary* group-size law — and hence
/// the stationary tree size — depends on the lifetime distribution only
/// through its mean; the tests verify that an exponential, a heavy-tailed
/// Pareto, and a deterministic lifetime all give the same `E[L]`.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum LifetimeShape {
    /// Memoryless lifetimes (the M/M/∞ special case).
    #[default]
    Exponential,
    /// Heavy-tailed Pareto lifetimes with shape `alpha > 1`
    /// (`x_min = mean·(α−1)/α`).
    Pareto {
        /// Tail exponent, must exceed 1 for the mean to exist.
        alpha: f64,
    },
    /// Every member stays exactly the mean lifetime.
    Fixed,
}

/// Churn process configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ChurnConfig {
    /// Poisson arrival rate λ (members per unit time).
    pub arrival_rate: f64,
    /// Mean membership lifetime `E[S]`.
    pub mean_lifetime: f64,
    /// Lifetime distribution shape (mean fixed by `mean_lifetime`).
    pub lifetime_shape: LifetimeShape,
    /// Events discarded before measuring.
    pub warmup_events: usize,
    /// Events measured (time-weighted).
    pub sample_events: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ChurnConfig {
    /// The stationary mean group size `λ·E[S]` (M/G/∞).
    pub fn mean_group_size(&self) -> f64 {
        self.arrival_rate * self.mean_lifetime
    }

    /// Draw one lifetime (shared with the multi-session storm engine).
    pub(crate) fn sample_lifetime<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mean = self.mean_lifetime;
        match self.lifetime_shape {
            LifetimeShape::Exponential => -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() * mean,
            LifetimeShape::Pareto { alpha } => {
                assert!(alpha > 1.0, "Pareto mean needs alpha > 1");
                let x_min = mean * (alpha - 1.0) / alpha;
                x_min * rng.gen_range(f64::MIN_POSITIVE..1.0f64).powf(-1.0 / alpha)
            }
            LifetimeShape::Fixed => mean,
        }
    }
}

/// Result of a churn simulation: time-weighted statistics.
#[derive(Clone, Debug)]
pub struct ChurnOutcome {
    /// Time-averaged tree size.
    pub mean_links: f64,
    /// Time-averaged group size.
    pub mean_members: f64,
    /// Total grafts observed during the measurement phase.
    pub grafts: u64,
    /// Total prunes observed during the measurement phase.
    pub prunes: u64,
    /// Per-event tree-size samples (unweighted, for error estimation).
    pub link_samples: RunningStats,
}

/// Map an event time to a `u64` that orders exactly like the `f64`
/// (a monotone total order over every non-NaN value, negatives
/// included). Keys built from it compare with plain integer `Ord`, so
/// heap order can never depend on insertion order, float environment, or
/// a `partial_cmp` fallback — two events at the *same* time carry the
/// same bits and fall through to the explicit integer tie-breakers.
///
/// This is the canonical time key of every event calendar in the crate:
/// the single-session departure heap below and the multi-session
/// [`crate::storm`] queue's `(time_bits, session, seq)` tuples.
///
/// # Panics
/// Panics (debug) on NaN — a NaN event time is always a caller bug.
#[inline]
pub fn time_order_bits(t: f64) -> u64 {
    debug_assert!(!t.is_nan(), "event times must not be NaN");
    let bits = t.to_bits();
    // Positive floats order as-is above all negatives; negative floats
    // reverse. The standard sign-fold keeps both monotone.
    if bits >> 63 == 0 {
        bits | (1 << 63)
    } else {
        !bits
    }
}

/// Inverse of [`time_order_bits`]: recover the `f64` a key was built
/// from (exact — the fold is a bijection on non-NaN bit patterns).
#[inline]
pub fn time_order_value(bits: u64) -> f64 {
    if bits >> 63 == 1 {
        f64::from_bits(bits & !(1 << 63))
    } else {
        f64::from_bits(!bits)
    }
}

/// Departure-heap key: `(time_order_bits, site)` — a total integer order
/// with the site id as the deterministic tie-breaker for equal times.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct TimeKey {
    bits: u64,
    site: NodeId,
}

/// Reversed wrapper: `BinaryHeap` is a max-heap, we want earliest first.
#[derive(PartialEq, Eq)]
struct Earliest(TimeKey);

impl PartialOrd for Earliest {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Earliest {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.cmp(&self.0)
    }
}

/// A churn event calendar desynchronised from the simulation loop — the
/// typed form of what used to be a panic deep inside the runner, so a
/// suite run can quarantine the one affected curve instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChurnError {
    /// A departure was due (the next-event scan saw one earlier than the
    /// next arrival) but the calendar had none to pop.
    MissingDeparture {
        /// Index of the event being processed when the desync surfaced.
        event: usize,
        /// Simulation clock at that point.
        now: f64,
    },
    /// A session id was started twice in the multi-session engine.
    DuplicateSession {
        /// The offending session id.
        session: u32,
        /// Simulation clock at that point.
        now: f64,
    },
}

impl std::fmt::Display for ChurnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChurnError::MissingDeparture { event, now } => write!(
                f,
                "churn calendar desync: departure due at event {event} (t={now}) but the calendar is empty"
            ),
            ChurnError::DuplicateSession { session, now } => {
                write!(f, "storm calendar desync: session {session} started twice (t={now})")
            }
        }
    }
}

impl std::error::Error for ChurnError {}

/// Run the churn process on `(graph, source)` — an event-driven M/G/∞
/// simulation with per-member departure times.
///
/// A desynchronised event calendar surfaces as a typed [`ChurnError`]
/// instead of a panic, so runner paths can fold it into their per-group
/// failure reporting.
///
/// # Panics
/// Panics if the rates are not positive or the graph has fewer than two
/// nodes (configuration bugs, not runtime conditions).
pub fn try_simulate_churn(
    graph: &Graph,
    source: NodeId,
    cfg: &ChurnConfig,
) -> Result<ChurnOutcome, ChurnError> {
    assert!(cfg.arrival_rate > 0.0, "arrival rate must be positive");
    assert!(cfg.mean_lifetime > 0.0, "lifetime must be positive");
    assert!(graph.node_count() >= 2, "need at least two nodes");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut tree = MemberTree::new(graph, source);
    let mut departures: std::collections::BinaryHeap<Earliest> = std::collections::BinaryHeap::new();
    let n_nodes = graph.node_count() as NodeId;

    let mut now = 0.0f64;
    let exp_sample = |rng: &mut StdRng, rate: f64| -> f64 {
        -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() / rate
    };
    let mut next_arrival = exp_sample(&mut rng, cfg.arrival_rate);

    let mut weighted_links = 0.0;
    let mut weighted_members = 0.0;
    let mut total_time = 0.0;
    let mut grafts = 0u64;
    let mut prunes = 0u64;
    let mut link_samples = RunningStats::new();

    let total_events = cfg.warmup_events + cfg.sample_events;
    for event in 0..total_events {
        let next_departure = departures
            .peek()
            .map(|k| time_order_value(k.0.bits))
            .unwrap_or(f64::INFINITY);
        let t_next = next_arrival.min(next_departure);
        let dt = t_next - now;
        let measuring = event >= cfg.warmup_events;
        if measuring {
            weighted_links += tree.links() as f64 * dt;
            weighted_members += departures.len() as f64 * dt;
            total_time += dt;
            link_samples.push(tree.links() as f64);
        }
        now = t_next;
        if next_arrival <= next_departure {
            // Arrival at a uniform non-source site.
            let site = loop {
                let v = rng.gen_range(0..n_nodes);
                if v != source {
                    break v;
                }
            };
            let g = tree.join(site);
            if measuring {
                grafts += g;
            }
            let depart_at = now + cfg.sample_lifetime(&mut rng);
            departures.push(Earliest(TimeKey {
                bits: time_order_bits(depart_at),
                site,
            }));
            next_arrival = now + exp_sample(&mut rng, cfg.arrival_rate);
        } else {
            let Some(Earliest(TimeKey { site, .. })) = departures.pop() else {
                return Err(ChurnError::MissingDeparture { event, now });
            };
            let p = tree.leave(site);
            if measuring {
                prunes += p;
            }
        }
    }
    Ok(ChurnOutcome {
        mean_links: weighted_links / total_time,
        mean_members: weighted_members / total_time,
        grafts,
        prunes,
        link_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::DeliverySizer;
    use crate::sampling::{self, ReceiverPool};
    use mcast_topology::graph::from_edges;

    fn binary_tree(depth: u32) -> Graph {
        let n = (1u32 << (depth + 1)) - 1;
        let edges: Vec<_> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
        from_edges(n as usize, &edges)
    }

    #[test]
    fn member_tree_join_leave_round_trip() {
        let g = binary_tree(3);
        let mut t = MemberTree::new(&g, 0);
        assert_eq!(t.links(), 0);
        assert_eq!(t.join(7), 3);
        assert_eq!(t.join(8), 1); // shares 0-1-3
        assert_eq!(t.links(), 4);
        assert_eq!(t.join(8), 0); // second member at the same site
        assert_eq!(t.leave(8), 0); // one still there
        assert_eq!(t.leave(8), 1); // now the 3-8 link prunes
        assert_eq!(t.leave(7), 3);
        assert_eq!(t.links(), 0);
    }

    #[test]
    fn leave_before_join_is_a_noop() {
        // Regression: a leave with no matching join used to underflow the
        // path refcounts in release builds (debug_assert only in debug).
        let g = binary_tree(3);
        let mut t = MemberTree::new(&g, 0);
        assert_eq!(t.leave(7), 0);
        assert_eq!(t.links(), 0);
        assert_eq!(t.member_count(), 0);
        // The tree still behaves correctly afterwards.
        assert_eq!(t.join(7), 3);
        assert_eq!(t.leave(7), 3);
        assert_eq!(t.links(), 0);
    }

    #[test]
    fn repeated_leave_is_a_noop() {
        let g = binary_tree(3);
        let mut t = MemberTree::new(&g, 0);
        t.join(7);
        t.join(8);
        let links = t.links();
        assert_eq!(t.leave(8), 1);
        // Second and third leave at the same site: nothing left to prune,
        // nothing to underflow.
        assert_eq!(t.leave(8), 0);
        assert_eq!(t.leave(8), 0);
        assert_eq!(t.links(), links - 1);
        assert_eq!(t.member_count(), 1);
        assert_eq!(t.leave(7), 3);
        assert_eq!(t.links(), 0);
    }

    #[test]
    fn source_join_and_leave_touch_no_links() {
        let g = binary_tree(2);
        let mut t = MemberTree::new(&g, 0);
        assert_eq!(t.join(0), 0);
        assert_eq!(t.member_count(), 1);
        assert_eq!(t.members_at(0), 1);
        assert_eq!(t.leave(0), 0);
        assert_eq!(t.leave(0), 0, "stray source prune stays a no-op");
        assert_eq!(t.member_count(), 0);
        assert_eq!(t.links(), 0);
    }

    #[test]
    fn time_order_bits_is_monotone_and_invertible() {
        let times = [
            -f64::INFINITY,
            -1.5e300,
            -2.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.25,
            1.0,
            1.0 + f64::EPSILON,
            6.5e12,
            f64::INFINITY,
        ];
        for w in times.windows(2) {
            assert!(
                time_order_bits(w[0]) <= time_order_bits(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        for &t in &times {
            let round = time_order_value(time_order_bits(t));
            assert_eq!(round.to_bits(), t.to_bits(), "{t} round-trip");
        }
        // Strictness away from the -0.0/0.0 fold.
        assert!(time_order_bits(1.0) < time_order_bits(1.0 + f64::EPSILON));
    }

    #[test]
    fn churn_error_is_typed_and_displayable() {
        let e = ChurnError::MissingDeparture { event: 41, now: 2.5 };
        let text = e.to_string();
        assert!(text.contains("event 41") && text.contains("desync"), "{text}");
        let d = ChurnError::DuplicateSession { session: 9, now: 0.0 };
        assert!(d.to_string().contains("session 9"), "{d}");
    }

    #[test]
    fn join_matches_delivery_sizer() {
        let g = binary_tree(5);
        let mut t = MemberTree::new(&g, 0);
        let mut sizer = DeliverySizer::from_graph(&g, 0);
        let receivers = [9u32, 23, 44, 44, 61, 12];
        for &r in &receivers {
            t.join(r);
        }
        assert_eq!(t.links(), sizer.tree_links(&receivers));
    }

    #[test]
    fn stationary_group_size_is_lambda_over_mu() {
        let g = binary_tree(6);
        let cfg = ChurnConfig {
            arrival_rate: 5.0,
            mean_lifetime: 4.0,
            lifetime_shape: LifetimeShape::Exponential,
            warmup_events: 2_000,
            sample_events: 30_000,
            seed: 42,
        };
        let out = try_simulate_churn(&g, 0, &cfg).expect("calendar stays in sync");
        let expect = cfg.mean_group_size();
        assert!(
            (out.mean_members - expect).abs() / expect < 0.08,
            "members {} vs {expect}",
            out.mean_members
        );
    }

    #[test]
    fn stationary_tree_size_matches_static_expectation() {
        // E[L] under churn = E_n~Poisson(ν)[L̂(n)] — cross-checked by a
        // direct static Monte-Carlo with Poisson-drawn n.
        let g = binary_tree(6);
        let cfg = ChurnConfig {
            arrival_rate: 6.0,
            mean_lifetime: 3.0,
            lifetime_shape: LifetimeShape::Exponential,
            warmup_events: 2_000,
            sample_events: 40_000,
            seed: 7,
        };
        let churn = try_simulate_churn(&g, 0, &cfg).expect("calendar stays in sync");

        let mut sizer = DeliverySizer::from_graph(&g, 0);
        let pool = ReceiverPool::AllExceptSource {
            nodes: g.node_count(),
            source: 0,
        };
        let mut rng = StdRng::seed_from_u64(11);
        let mut buf = Vec::new();
        let nu = cfg.mean_group_size();
        let mut direct = RunningStats::new();
        for _ in 0..8_000 {
            // Poisson(ν) via Knuth (ν = 18, fine).
            let mut k = 0usize;
            let mut p = 1.0f64;
            let l = (-nu).exp();
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    break;
                }
                k += 1;
            }
            if k == 0 {
                direct.push(0.0);
                continue;
            }
            sampling::with_replacement(&pool, k, &mut rng, &mut buf);
            direct.push(sizer.tree_links(&buf) as f64);
        }
        let diff = (churn.mean_links - direct.mean()).abs();
        let tol = 4.0 * (churn.link_samples.std_err() + direct.std_err()) + 0.02 * direct.mean();
        assert!(
            diff < tol,
            "churn {} vs static {} (tol {tol})",
            churn.mean_links,
            direct.mean()
        );
    }

    #[test]
    fn grafts_balance_prunes_in_steady_state() {
        let g = binary_tree(5);
        let cfg = ChurnConfig {
            arrival_rate: 3.0,
            mean_lifetime: 2.0,
            lifetime_shape: LifetimeShape::Exponential,
            warmup_events: 1_000,
            sample_events: 20_000,
            seed: 3,
        };
        let out = try_simulate_churn(&g, 0, &cfg).expect("calendar stays in sync");
        let ratio = out.grafts as f64 / out.prunes as f64;
        assert!((ratio - 1.0).abs() < 0.1, "grafts/prunes {ratio}");
        assert!(out.grafts > 1_000, "some churn happened");
    }

    #[test]
    fn lifetime_distribution_is_insensitive_in_steady_state() {
        // M/G/∞ insensitivity: the stationary group-size law — and hence
        // E[L] — depends on the lifetime distribution only through its
        // mean. Exponential, heavy-tailed Pareto, and deterministic
        // lifetimes with the same mean must agree.
        let g = binary_tree(6);
        let run = |shape: LifetimeShape, seed: u64| {
            try_simulate_churn(
                &g,
                0,
                &ChurnConfig {
                    arrival_rate: 8.0,
                    mean_lifetime: 2.5,
                    lifetime_shape: shape,
                    warmup_events: 4_000,
                    sample_events: 60_000,
                    seed,
                },
            )
            .expect("calendar stays in sync")
        };
        let exp = run(LifetimeShape::Exponential, 1);
        let pareto = run(LifetimeShape::Pareto { alpha: 2.5 }, 2);
        let fixed = run(LifetimeShape::Fixed, 3);
        for out in [&exp, &pareto, &fixed] {
            assert!(
                (out.mean_members - 20.0).abs() / 20.0 < 0.1,
                "members {}",
                out.mean_members
            );
        }
        let lref = exp.mean_links;
        for (name, out) in [("pareto", &pareto), ("fixed", &fixed)] {
            assert!(
                (out.mean_links - lref).abs() / lref < 0.06,
                "{name}: {} vs exponential {lref}",
                out.mean_links
            );
        }
    }

    #[test]
    fn pareto_lifetimes_have_the_requested_mean() {
        let cfg = ChurnConfig {
            arrival_rate: 1.0,
            mean_lifetime: 4.0,
            lifetime_shape: LifetimeShape::Pareto { alpha: 3.0 },
            warmup_events: 0,
            sample_events: 1,
            seed: 0,
        };
        let mut rng = StdRng::seed_from_u64(9);
        let mean: f64 = (0..200_000)
            .map(|_| cfg.sample_lifetime(&mut rng))
            .sum::<f64>()
            / 200_000.0;
        assert!((mean - 4.0).abs() < 0.15, "sampled mean {mean}");
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let g = binary_tree(2);
        let _ = try_simulate_churn(
            &g,
            0,
            &ChurnConfig {
                arrival_rate: 0.0,
                mean_lifetime: 1.0,
                lifetime_shape: LifetimeShape::Exponential,
                warmup_events: 0,
                sample_events: 1,
                seed: 0,
            },
        );
    }
}
