//! Extension experiment: session churn.
//!
//! The static `L(m)` curve prices a snapshot; real sessions breathe. This
//! experiment runs the M/M/∞ join/leave process of
//! [`mcast_tree::dynamics`] on the ts1000 topology across a sweep of mean
//! group sizes and reports (a) the time-averaged tree size against the
//! static expectation at the same mean size — they must agree — and
//! (b) the graft/prune signalling rate per arrival, which the static
//! analysis cannot see at all.

use crate::config::RunConfig;
use crate::dataset::{DataSet, Report, Series};
use crate::networks;
use crate::runner::{parallel_map, try_parallel_map_with, CurveError, GroupFailure};
use mcast_tree::dynamics::{simulate_churn, ChurnConfig, LifetimeShape};
use mcast_tree::sampling::{self, ReceiverPool};
use mcast_tree::{DeliverySizer, RunningStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Poisson sampler (Knuth's product method; fine for the means used
/// here, ν ≤ 300).
fn poisson<R: Rng + ?Sized>(nu: f64, rng: &mut R) -> usize {
    let limit = (-nu).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= limit {
            return k;
        }
        k += 1;
    }
}

/// Mean group sizes swept (λ/μ with μ fixed at 1).
pub const MEAN_SIZES: [f64; 6] = [2.0, 5.0, 10.0, 30.0, 100.0, 300.0];

/// Run the churn experiment, panicking on a failed curve (the historical
/// contract of the figure registry; the suite scheduler calls
/// [`try_run`] and quarantines instead).
pub fn run(cfg: &RunConfig) -> Report {
    match try_run(cfg) {
        Ok(report) => report,
        Err(e) => panic!("{e}"),
    }
}

/// Run the churn experiment, reporting per-curve failures as a
/// [`CurveError`] like the other fallible runner paths: a panicking
/// churn run becomes a [`GroupFailure`] naming the mean-size point, and
/// every surviving point still runs.
pub fn try_run(cfg: &RunConfig) -> Result<Report, CurveError> {
    let mut report = Report::new(
        "churn",
        "Extension: session churn — dynamic tree size vs the static snapshot",
    );
    report
        .note("M/M/inf membership: Poisson arrivals, exponential lifetimes, mean size = lambda/mu");
    let net = networks::ts1000(cfg);
    let graph = net.graph;
    let events = match cfg.scale {
        crate::config::Scale::Fast => (2_000usize, 20_000usize),
        // As with the storm figure, huge scale varies the topology (the
        // ts1000 slot becomes a million-node transit-stub), not the
        // event counts.
        crate::config::Scale::Paper | crate::config::Scale::Huge => (10_000, 120_000),
    };

    // Dynamic side: one churn run per mean size (parallel). A panicking
    // run folds into the per-group failure report.
    let dynamic_items = try_parallel_map_with(
        MEAN_SIZES.len(),
        cfg,
        |_| (),
        |(), i| {
            // Same drill point as a curve's source groups: index i is
            // the mean-size point, so a fault armed for (task "churn",
            // group i) kills exactly one point of the sweep.
            crate::fault::hit_group(i);
            let nu = MEAN_SIZES[i];
            let ccfg = ChurnConfig {
                arrival_rate: nu,
                mean_lifetime: 1.0,
                lifetime_shape: LifetimeShape::Exponential,
                warmup_events: events.0,
                sample_events: events.1,
                seed: cfg.sub_seed(&format!("churn-{nu}")),
            };
            let out = simulate_churn(&graph, 0, &ccfg);
            // Signalling load: tree links grafted or pruned per membership
            // event — the quantity a static snapshot cannot see.
            let churn_cost = (out.grafts + out.prunes) as f64 / events.1 as f64;
            (out.mean_members, out.mean_links, churn_cost)
        },
    );
    let dynamic: Vec<(f64, f64, f64)> = dynamic_items.map_err(|map_err| CurveError {
        failures: map_err
            .failures
            .into_iter()
            .map(|f| GroupFailure {
                group_index: f.index,
                source: 0, // every churn curve is rooted at node 0
                source_indices: vec![f.index],
                payload: f.payload,
            })
            .collect(),
        completed: map_err.completed,
    })?;

    // Static side: E[L̂(N)] with N ~ Poisson(mean size) — the stationary
    // group-size law of the M/M/∞ process — at the same source (0).
    let static_means: Vec<f64> = parallel_map(MEAN_SIZES.len(), cfg, |i| {
        let nu = MEAN_SIZES[i];
        let mut sizer = DeliverySizer::from_graph(&graph, 0);
        let pool = ReceiverPool::AllExceptSource {
            nodes: graph.node_count(),
            source: 0,
        };
        let mut rng = StdRng::seed_from_u64(cfg.sub_seed(&format!("churn-static-{nu}")));
        let mut buf = Vec::new();
        let mut stats = RunningStats::new();
        for _ in 0..2_000 {
            let k = poisson(nu, &mut rng);
            if k == 0 {
                stats.push(0.0);
                continue;
            }
            sampling::with_replacement(&pool, k, &mut rng, &mut buf);
            stats.push(sizer.tree_links(&buf) as f64);
        }
        stats.mean()
    });

    let mut dyn_series = Vec::new();
    let mut static_series = Vec::new();
    let mut signalling = Vec::new();
    for (i, &nu) in MEAN_SIZES.iter().enumerate() {
        dyn_series.push((nu, dynamic[i].1));
        static_series.push((nu, static_means[i]));
        signalling.push((nu, dynamic[i].2));
        report.note(format!(
            "mean size {nu}: dynamic L {:.1} (members {:.1}), static L {:.1}, links touched/event {:.2}",
            dynamic[i].1,
            dynamic[i].0,
            static_series[i].1,
            dynamic[i].2,
        ));
    }
    report.datasets.push(DataSet {
        id: "churn-tree".into(),
        title: "time-averaged tree size under churn vs static snapshot (ts1000)".into(),
        xlabel: "mean group size".into(),
        ylabel: "links".into(),
        log_x: true,
        log_y: true,
        series: vec![
            Series::new("dynamic (churn)", dyn_series),
            Series::new("static snapshot", static_series),
        ],
    });
    report.datasets.push(DataSet {
        id: "churn-signalling".into(),
        title: "graft/prune links touched per membership event".into(),
        xlabel: "mean group size".into(),
        ylabel: "links per event".into(),
        log_x: true,
        log_y: false,
        series: vec![Series::new("links touched", signalling)],
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_matches_static_snapshot() {
        let cfg = RunConfig {
            threads: 4,
            ..RunConfig::fast()
        };
        let r = run(&cfg);
        let d = r.dataset("churn-tree").unwrap();
        let dynamic = &d.series[0].points;
        let stat = &d.series[1].points;
        for (dy, st) in dynamic.iter().zip(stat) {
            let rel = (dy.1 - st.1).abs() / st.1;
            assert!(
                rel < 0.12,
                "mean size {}: dynamic {} vs static {}",
                dy.0,
                dy.1,
                st.1
            );
        }
    }

    #[test]
    fn signalling_cost_per_event_decreases_with_group_size() {
        // Bigger groups share more of the tree: a membership change
        // touches fewer links on average.
        let cfg = RunConfig {
            threads: 4,
            ..RunConfig::fast()
        };
        let r = run(&cfg);
        let s = &r.dataset("churn-signalling").unwrap().series[0].points;
        assert!(
            s.first().unwrap().1 > s.last().unwrap().1,
            "signalling {:?}",
            s
        );
    }
}
