//! Extension experiment: churn at scale — a population of concurrent
//! multicast sessions driven through the event engine of
//! [`mcast_tree::storm`].
//!
//! The paper's scaling law prices one tree; a backbone carries many.
//! This experiment runs two scenarios over one shared topology:
//!
//! * **steady state** — sessions arrive Poisson and live exponential
//!   lifetimes (M/M/∞ over sessions) while each live session's
//!   membership churns at a swept rate; the per-session `L(m)` read off
//!   the time-weighted aggregates must track the Chuang–Sirbu exponent,
//!   i.e. the law survives being embedded in a churning population;
//! * **flash crowd** — every session ignites at the same instant with
//!   geographically correlated receivers from the §5 affinity sampler,
//!   exercising the batched (64-lane BFS) graft path, and the aggregate
//!   link count and join throughput are reported as a time series.
//!
//! Determinism: scenario runs are sequential inside the engine and the
//! steady sweep is merged by index, so every emitted number is
//! bit-identical at any `--threads` setting.

use crate::config::RunConfig;
use crate::dataset::{DataSet, Report, Series};
use crate::figures::chuang_sirbu_reference;
use crate::networks;
use crate::runner::parallel_map;
use mcast_tree::dynamics::LifetimeShape;
use mcast_tree::storm::{simulate_flash, simulate_steady, FlashConfig, SteadyConfig};

/// Member arrival rates swept in the steady-state scenario (per-session
/// mean group size = rate × mean lifetime, lifetime fixed at 1).
pub const MEMBER_RATES: [f64; 5] = [2.0, 5.0, 10.0, 30.0, 100.0];

/// Run the storm experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(
        "storm",
        "Extension: churn at scale — concurrent-session storms over one topology",
    );
    report.note(
        "steady state: M/M/inf session arrivals, each session's membership churning; \
         flash crowd: all sessions ignite at one instant with affinity-correlated receivers",
    );
    let net = networks::ts1000(cfg);
    let graph = net.graph;
    // Scenario sizes: enough concurrency to exercise skeleton sharing
    // and the batched graft path at fast scale; a denser population and
    // longer horizon at paper scale. (The 10^5-session regime is the
    // `bench_storm` harness's job — a figure run keeps CI-sized.)
    let (session_rate, horizon, measure_from, flash_sessions) = match cfg.scale {
        crate::config::Scale::Fast => (30.0, 16.0, 6.0, 300u32),
        // Huge keeps the paper's session counts: the topology underneath
        // is already 1000× larger, which is the variable under study.
        crate::config::Scale::Paper | crate::config::Scale::Huge => (120.0, 40.0, 15.0, 5_000),
    };

    // Steady-state sweep: one storm per member rate, merged by index.
    let steady: Vec<(f64, f64, f64, u64)> = parallel_map(MEMBER_RATES.len(), cfg, |i| {
        let rate = MEMBER_RATES[i];
        let scfg = SteadyConfig {
            session_rate,
            mean_session_lifetime: 2.0,
            member_rate: rate,
            mean_member_lifetime: 1.0,
            member_lifetime_shape: LifetimeShape::Exponential,
            horizon,
            measure_from,
            sample_every: 0,
            seed: cfg.sub_seed(&format!("storm-steady-{rate}")),
        };
        let out = simulate_steady(&graph, &scfg).expect("generated calendars are consistent");
        // Per-session averages: the population-level read of L(m).
        let m = out.mean_members / out.mean_sessions;
        let l = out.mean_links / out.mean_sessions;
        (m, l, out.mean_sessions, out.stale_events)
    });

    let lm_points: Vec<(f64, f64)> = steady.iter().map(|&(m, l, ..)| (m, l)).collect();
    for (i, &(m, l, sessions, stale)) in steady.iter().enumerate() {
        report.note(format!(
            "steady rate {}: mean sessions {sessions:.1}, per-session members {m:.1} -> links {l:.1} \
             ({stale} stale post-teardown events absorbed)",
            MEMBER_RATES[i],
        ));
    }
    let xs: Vec<f64> = lm_points.iter().map(|p| p.0).collect();
    report.datasets.push(DataSet {
        id: "storm-lm".into(),
        title: "per-session L(m) across a steady-state session population (ts1000)".into(),
        xlabel: "mean members per session".into(),
        ylabel: "mean links per session".into(),
        log_x: true,
        log_y: true,
        series: vec![
            Series::new("storm steady state", lm_points),
            chuang_sirbu_reference(&xs),
        ],
    });

    // Flash crowd: one deterministic run, sampled every few events.
    let fcfg = FlashConfig {
        sessions: flash_sessions,
        receivers_per_session: 8,
        beta: 1.0,
        sampler_sweeps: 2,
        burst_time: 1.0,
        join_window: 2.0,
        mean_lifetime: 4.0,
        sample_every: 256,
        seed: cfg.sub_seed("storm-flash"),
    };
    let flash = simulate_flash(&graph, 0, &fcfg).expect("generated calendars are consistent");
    report.note(format!(
        "flash crowd: {} sessions ignited at t={}, peak aggregate links {}, \
         {} batched skeleton builds over {} sweeps, {} scalar",
        flash.sessions_started,
        fcfg.burst_time,
        flash.peak_links,
        flash.trees_built_batch,
        flash.batch_sweeps,
        flash.trees_built_scalar,
    ));
    let links_series: Vec<(f64, f64)> = flash
        .samples
        .iter()
        .map(|s| (s.time, s.links as f64))
        .collect();
    let members_series: Vec<(f64, f64)> = flash
        .samples
        .iter()
        .map(|s| (s.time, s.members as f64))
        .collect();
    // Join throughput between consecutive samples (joins are cumulative).
    let joins_series: Vec<(f64, f64)> = flash
        .samples
        .windows(2)
        .filter(|w| w[1].time > w[0].time)
        .map(|w| {
            (
                w[1].time,
                (w[1].joins - w[0].joins) as f64 / (w[1].time - w[0].time),
            )
        })
        .collect();
    report.datasets.push(DataSet {
        id: "storm-flash".into(),
        title: format!(
            "flash crowd of {} sessions: aggregate tree state over time",
            fcfg.sessions
        ),
        xlabel: "time".into(),
        ylabel: "aggregate count".into(),
        log_x: false,
        log_y: false,
        series: vec![
            Series::new("links (all sessions)", links_series),
            Series::new("members (all sessions)", members_series),
        ],
    });
    report.datasets.push(DataSet {
        id: "storm-joins".into(),
        title: "flash crowd join throughput".into(),
        xlabel: "time".into(),
        ylabel: "joins per unit time".into(),
        log_x: false,
        log_y: false,
        series: vec![Series::new("join rate", joins_series)],
    });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_figure_is_thread_invariant() {
        // The acceptance bar for the engine: identical event streams —
        // and therefore bit-identical L(m) telemetry — whatever the
        // worker count.
        let one = run(&RunConfig {
            threads: 1,
            ..RunConfig::fast()
        });
        let four = run(&RunConfig {
            threads: 4,
            ..RunConfig::fast()
        });
        assert_eq!(one.datasets.len(), four.datasets.len());
        for (a, b) in one.datasets.iter().zip(&four.datasets) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.series.len(), b.series.len());
            for (sa, sb) in a.series.iter().zip(&b.series) {
                assert_eq!(sa.points.len(), sb.points.len(), "{}", a.id);
                for (pa, pb) in sa.points.iter().zip(&sb.points) {
                    assert_eq!(pa.0.to_bits(), pb.0.to_bits(), "{} x", a.id);
                    assert_eq!(pa.1.to_bits(), pb.1.to_bits(), "{} y", a.id);
                }
            }
        }
    }

    #[test]
    fn steady_state_lm_shows_economies_of_scale() {
        let r = run(&RunConfig::fast());
        let lm = &r.dataset("storm-lm").unwrap().series[0].points;
        assert_eq!(lm.len(), MEMBER_RATES.len());
        // Links grow with group size but sublinearly: the per-member
        // share of the tree shrinks as sessions grow.
        for w in lm.windows(2) {
            assert!(w[1].1 > w[0].1, "links must grow: {lm:?}");
            assert!(
                w[1].1 / w[1].0 < w[0].1 / w[0].0,
                "links per member must shrink: {lm:?}"
            );
        }
    }

    #[test]
    fn flash_crowd_ramps_and_drains() {
        let r = run(&RunConfig::fast());
        let links = &r.dataset("storm-flash").unwrap().series[0].points;
        assert!(!links.is_empty());
        let peak = links.iter().map(|p| p.1).fold(0.0f64, f64::max);
        let last = links.last().unwrap().1;
        assert!(peak > 0.0, "the burst must build trees");
        assert!(last < peak, "membership must drain after the burst");
    }
}
