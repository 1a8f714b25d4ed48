//! Figure 6: measured `L̂(n)/(n·ū)` versus `ln n` for the eight networks.
//!
//! §4's prediction: networks with exponential reachability (r100, ts1000,
//! ts1008, Internet, AS) give curves linear in `ln n`; sub-exponential
//! ones (ti5000, ARPA, MBone) fit less well. We also overlay the Eq 30
//! analytical approximation (driven by each network's measured `S(r)`) as
//! `pred:<name>` series — an extension of the paper's plot that makes the
//! §4.1 approximation quality directly visible.

use crate::config::RunConfig;
use crate::dataset::{DataSet, Report, Series};
use crate::figures::table1::spread_sources;
use crate::networks::{self, Network};
use crate::runner::{log_grid, parallel_lhat_curve};
use mcast_analysis::fit::linear_fit;
use mcast_analysis::reachability::empirical_all_sites;
use mcast_topology::bfs::Bfs;
use mcast_topology::reachability::Reachability;
use mcast_topology::Graph;

/// Cap on the receiver-draw count (the paper plots to 10^4).
const MAX_N: usize = 10_000;

/// The receiver-draw grid Figure 6 measures for `graph`. Shared with the
/// suite scheduler so its pre-warmed curves hit the same cache keys as
/// panel assembly.
pub(crate) fn grid(graph: &Graph) -> Vec<usize> {
    log_grid(graph.node_count().min(MAX_N), 4)
}

/// Eq 30 prediction for one network, averaged over a few spread sources
/// and normalised like the measurement.
fn prediction(net: &Network, ns: &[usize]) -> Vec<(f64, f64)> {
    let sources = spread_sources(&net.graph, 16);
    let mut bfs = Bfs::new(&net.graph);
    let mut acc = vec![0.0f64; ns.len()];
    for &source in &sources {
        bfs.run_scratch(source);
        let profile = Reachability::from_distances(bfs.scratch_distances(), bfs.scratch_order());
        // Mean distance from this source (sites = all reached, minus self).
        let reached = profile.total() as f64;
        let mean_dist: f64 = (1..=profile.eccentricity())
            .map(|r| r as f64 * profile.s(r) as f64)
            .sum::<f64>()
            / (reached - 1.0);
        for (i, &n) in ns.iter().enumerate() {
            acc[i] += empirical_all_sites(&profile, n as f64) / (n as f64 * mean_dist);
        }
    }
    ns.iter()
        .zip(acc)
        .map(|(&n, a)| (n as f64, a / sources.len() as f64))
        .collect()
}

fn panel(cfg: &RunConfig, id: &str, title: &str, nets: &[Network], report: &mut Report) {
    let mcfg = cfg.measure();
    let mut series = Vec::new();
    for net in nets {
        let ns = grid(&net.graph);
        let curve = parallel_lhat_curve(&net.graph, &ns, &mcfg, cfg);
        let points: Vec<(f64, f64)> = curve.iter().map(|p| (p.x as f64, p.stats.mean())).collect();
        let errors: Vec<f64> = curve.iter().map(|p| p.stats.std_err()).collect();

        // Linearity in ln n — the §4 diagnostic.
        let logpts: Vec<(f64, f64)> = points
            .iter()
            .filter(|p| p.0 >= 2.0)
            .map(|p| (p.0.ln(), p.1))
            .collect();
        if let Some(fit) = linear_fit(&logpts) {
            report.note(format!(
                "{}: L(n)/(n*u) vs ln n linear fit R2 {:.4}, slope {:.4}",
                net.name, fit.r2, fit.slope
            ));
        }
        series.push(Series::with_errors(net.name, points, errors));
        series.push(Series::new(
            format!("pred:{}", net.name),
            prediction(net, &ns),
        ));
    }
    report.datasets.push(DataSet {
        id: id.into(),
        title: title.into(),
        xlabel: "n".into(),
        ylabel: "L(n)/(n u)".into(),
        log_x: true,
        log_y: false,
        series,
    });
}

/// Run the Figure 6 experiment.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new("fig6", "Fig 6: L(n)/(n u) versus ln n for several networks");
    report.note("receivers drawn with replacement over all non-source nodes; u = per-source mean unicast path");
    report.note("pred:<name> series are the Eq 30 approximation from measured S(r) (extension)");
    panel(
        cfg,
        "fig6a",
        "Fig 6(a): generated network topologies",
        &networks::generated(cfg),
        &mut report,
    );
    panel(
        cfg,
        "fig6b",
        "Fig 6(b): real network topologies (stand-ins)",
        &networks::real(cfg),
        &mut report,
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_run_structure_and_trends() {
        let cfg = RunConfig {
            threads: 2,
            ..RunConfig::fast()
        };
        let r = run(&cfg);
        let a = r.dataset("fig6a").unwrap();
        let b = r.dataset("fig6b").unwrap();
        assert_eq!(a.series.len(), 8); // 4 nets + 4 predictions
        assert_eq!(b.series.len(), 8);
        for panel in [a, b] {
            for s in panel
                .series
                .iter()
                .filter(|s| !s.label.starts_with("pred:"))
            {
                // Starts at 1 (n = 1 normalised) and decreases overall.
                assert!(
                    (s.points[0].1 - 1.0).abs() < 0.15,
                    "{}: {}",
                    s.label,
                    s.points[0].1
                );
                let last = s.points.last().unwrap().1;
                assert!(last < 0.75, "{}: final value {last}", s.label);
            }
        }
        // Predictions should be in the same ballpark as measurements.
        let meas = r.series("fig6a", "ts1000").unwrap();
        let pred = r.series("fig6a", "pred:ts1000").unwrap();
        for (m, p) in meas.points.iter().zip(&pred.points) {
            assert!((m.1 - p.1).abs() < 0.25, "n={}: {} vs {}", m.0, m.1, p.1);
        }
    }
}
