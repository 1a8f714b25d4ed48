//! The canonical eight-topology suite of the paper's Table 1.
//!
//! Four "real" networks (ARPA, MBone, Internet, AS — rebuilt or stood in
//! for as documented in `DESIGN.md` §3) and four generated ones (r100,
//! ts1000, ts1008, ti5000). Every topology is produced deterministically
//! from the run seed, is connected, and matches the paper's node counts
//! and average degrees.

use crate::config::{RunConfig, Scale};
use mcast_gen::overlay::{overlay, OverlayParams};
use mcast_gen::power_law::{power_law, PowerLawParams};
use mcast_gen::random::random_with_degree;
use mcast_gen::tiers::{tiers, TiersParams};
use mcast_gen::transit_stub::{transit_stub, TransitStubParams};
use mcast_topology::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Mutex;

/// Whether a suite member models a real map or a generator output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkKind {
    /// Stand-in for (or reconstruction of) a real measured map.
    Real,
    /// Output of a topology generator, as in the paper.
    Generated,
}

/// One suite member.
#[derive(Clone, Debug)]
pub struct Network {
    /// The paper's name for it (`"ARPA"`, `"ts1000"`, …).
    pub name: &'static str,
    /// Real-map stand-in or generated.
    pub kind: NetworkKind,
    /// The topology itself (always connected).
    pub graph: Graph,
}

fn rng_for(cfg: &RunConfig, tag: &str) -> StdRng {
    StdRng::seed_from_u64(cfg.sub_seed(tag))
}

/// In-process memo of built topologies, keyed by everything a build
/// depends on: `(name, seed, scale)`. `None` (the default) means
/// disabled; [`crate::sched::run_suite`] enables it for the duration of
/// a scheduled run so curve tasks and figure assemblies share one build
/// per topology instead of regenerating it. Builders are deterministic
/// and a clone is the same graph, so serving from the memo never changes
/// a number.
#[allow(clippy::type_complexity)]
static NET_MEMO: Mutex<Option<HashMap<(&'static str, u64, &'static str), Graph>>> =
    Mutex::new(None);

/// Turn the topology memo on (fresh and empty) or off (releasing it).
pub(crate) fn memo_set_enabled(on: bool) {
    let mut memo = NET_MEMO.lock().unwrap_or_else(|e| e.into_inner());
    *memo = on.then(HashMap::new);
}

fn memoized(
    name: &'static str,
    kind: NetworkKind,
    cfg: &RunConfig,
    build: impl FnOnce() -> Graph,
) -> Network {
    let key = (name, cfg.seed, cfg.scale_name());
    {
        let memo = NET_MEMO.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(graph) = memo.as_ref().and_then(|m| m.get(&key)) {
            if mcast_obs::enabled() {
                mcast_obs::counter("networks.memo.hit").add(1);
            }
            return Network {
                name,
                kind,
                graph: graph.clone(),
            };
        }
    }
    // Build outside the lock so scheduler workers can generate different
    // topologies concurrently; a racing duplicate build produces the
    // same bytes and the last insert wins.
    let graph = build();
    let mut memo = NET_MEMO.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(m) = memo.as_mut() {
        m.insert(key, graph.clone());
    }
    drop(memo);
    Network { name, kind, graph }
}

/// The embedded ARPANET reconstruction (47 nodes).
pub fn arpa(cfg: &RunConfig) -> Network {
    memoized("ARPA", NetworkKind::Real, cfg, mcast_gen::arpa::arpa)
}

/// MBone stand-in: cluster-and-tunnel overlay, ≈ 3,980 nodes.
pub fn mbone(cfg: &RunConfig) -> Network {
    memoized("MBone", NetworkKind::Real, cfg, || {
        overlay(OverlayParams::mbone(), &mut rng_for(cfg, "mbone"))
            .expect("mbone parameters are valid")
    })
}

/// Internet router-map stand-in: power-law graph. Paper scale: 56,317
/// nodes; fast scale: 12,000; huge scale: 10⁶.
pub fn internet(cfg: &RunConfig) -> Network {
    memoized("Internet", NetworkKind::Real, cfg, || {
        let mut params = PowerLawParams::internet_map();
        match cfg.scale {
            Scale::Fast => params.nodes = 12_000,
            Scale::Paper => {}
            Scale::Huge => params.nodes = 1_000_000,
        }
        power_law(params, &mut rng_for(cfg, "internet")).expect("internet parameters are valid")
    })
}

/// NLANR AS-map stand-in: power-law graph, 4,902 nodes (huge: 10⁶ with
/// the same attachment parameters).
pub fn as_map(cfg: &RunConfig) -> Network {
    memoized("AS", NetworkKind::Real, cfg, || {
        let mut params = PowerLawParams::as_map();
        if cfg.scale == Scale::Huge {
            params.nodes = 1_000_000;
        }
        power_law(params, &mut rng_for(cfg, "as")).expect("AS parameters are valid")
    })
}

/// GT-ITM-style flat random graph, 100 nodes, average degree ≈ 4
/// (huge: 100,000 nodes at the same degree).
pub fn r100(cfg: &RunConfig) -> Network {
    memoized("r100", NetworkKind::Generated, cfg, || {
        let n = if cfg.scale == Scale::Huge {
            100_000
        } else {
            100
        };
        random_with_degree(n, 4.0, &mut rng_for(cfg, "r100")).expect("r100 parameters are valid")
    })
}

/// Transit-stub, 1000 nodes, average degree ≈ 3.6 (huge: 1,001,000).
pub fn ts1000(cfg: &RunConfig) -> Network {
    memoized("ts1000", NetworkKind::Generated, cfg, || {
        let params = if cfg.scale == Scale::Huge {
            TransitStubParams::ts1000000()
        } else {
            TransitStubParams::ts1000()
        };
        transit_stub(params, &mut rng_for(cfg, "ts1000")).expect("ts1000 parameters are valid")
    })
}

/// Transit-stub, 1008 nodes, average degree ≈ 7.5 (huge: 1,009,008).
pub fn ts1008(cfg: &RunConfig) -> Network {
    memoized("ts1008", NetworkKind::Generated, cfg, || {
        let params = if cfg.scale == Scale::Huge {
            TransitStubParams::ts1008000()
        } else {
            TransitStubParams::ts1008()
        };
        transit_stub(params, &mut rng_for(cfg, "ts1008")).expect("ts1008 parameters are valid")
    })
}

/// TIERS-style WAN/MAN/LAN hierarchy, 5000 nodes (huge: 1,015,200).
pub fn ti5000(cfg: &RunConfig) -> Network {
    memoized("ti5000", NetworkKind::Generated, cfg, || {
        let params = if cfg.scale == Scale::Huge {
            TiersParams::ti1000000()
        } else {
            TiersParams::ti5000()
        };
        tiers(params, &mut rng_for(cfg, "ti5000")).expect("ti5000 parameters are valid")
    })
}

/// The generated panel (Fig 1a / 6a / 7a order).
pub fn generated(cfg: &RunConfig) -> Vec<Network> {
    let _span = mcast_obs::span("generate");
    vec![r100(cfg), ts1000(cfg), ts1008(cfg), ti5000(cfg)]
}

/// The real panel (Fig 1b / 6b / 7b order).
pub fn real(cfg: &RunConfig) -> Vec<Network> {
    let _span = mcast_obs::span("generate");
    vec![arpa(cfg), mbone(cfg), internet(cfg), as_map(cfg)]
}

/// All eight, generated panel first.
pub fn suite(cfg: &RunConfig) -> Vec<Network> {
    let mut v = generated(cfg);
    v.extend(real(cfg));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::components::Components;

    #[test]
    fn suite_members_are_connected_and_named() {
        let cfg = RunConfig::fast();
        let suite = suite(&cfg);
        assert_eq!(suite.len(), 8);
        let names: Vec<_> = suite.iter().map(|n| n.name).collect();
        assert_eq!(
            names,
            vec!["r100", "ts1000", "ts1008", "ti5000", "ARPA", "MBone", "Internet", "AS"]
        );
        for n in &suite {
            assert!(
                Components::find(&n.graph).is_connected(),
                "{} is disconnected",
                n.name
            );
        }
    }

    #[test]
    fn node_counts_match_table1() {
        let cfg = RunConfig::fast();
        assert_eq!(arpa(&cfg).graph.node_count(), 47);
        assert_eq!(r100(&cfg).graph.node_count(), 100);
        assert_eq!(ts1000(&cfg).graph.node_count(), 1000);
        assert_eq!(ts1008(&cfg).graph.node_count(), 1008);
        assert_eq!(ti5000(&cfg).graph.node_count(), 5000);
        assert_eq!(as_map(&cfg).graph.node_count(), 4902);
        assert_eq!(internet(&cfg).graph.node_count(), 12_000);
    }

    #[test]
    fn paper_scale_internet_is_full_size() {
        // Only check the parameter plumbing (building 56k nodes is fine
        // but slow for a unit test loop).
        let mut params = PowerLawParams::internet_map();
        assert_eq!(params.nodes, 56_317);
        params.nodes = 1000;
        assert!(params.validate().is_ok());
    }

    #[test]
    fn huge_scale_swaps_in_scaled_generators() {
        // Build only the cheapest huge member here; the million-node
        // builds belong to the gated `huge_tier` integration test.
        let cfg = RunConfig::huge();
        let g = r100(&cfg).graph;
        assert_eq!(g.node_count(), 100_000);
        assert!(Components::find(&g).is_connected());
        let deg = g.average_degree();
        assert!((3.8..4.2).contains(&deg), "average degree {deg}");
    }

    #[test]
    fn memo_serves_bit_identical_graphs_only_while_enabled() {
        // Safe to flip concurrently with other tests: memo-served graphs
        // are clones of deterministic builds, so every caller sees the
        // same bytes whether or not the memo is on.
        let cfg = RunConfig::fast();
        let cold = ts1000(&cfg).graph;
        memo_set_enabled(true);
        let first = ts1000(&cfg).graph;
        let second = ts1000(&cfg).graph;
        memo_set_enabled(false);
        let after = ts1000(&cfg).graph;
        assert_eq!(cold, first);
        assert_eq!(first, second);
        assert_eq!(after, cold);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = RunConfig::fast();
        assert_eq!(ts1000(&cfg).graph, ts1000(&cfg).graph);
        let other = RunConfig {
            seed: 7,
            ..RunConfig::fast()
        };
        assert_ne!(ts1000(&cfg).graph, ts1000(&other).graph);
    }

    #[test]
    fn degrees_span_the_papers_range() {
        // "the average degrees range from 2.7 to 7.5"
        let cfg = RunConfig::fast();
        let suite = suite(&cfg);
        let degs: Vec<f64> = suite.iter().map(|n| n.graph.average_degree()).collect();
        let min = degs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = degs.iter().cloned().fold(0.0, f64::max);
        assert!(min > 1.8 && min < 3.2, "min degree {min}");
        assert!(max > 6.0 && max < 9.0, "max degree {max}");
    }
}
