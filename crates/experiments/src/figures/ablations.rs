//! Extension experiments beyond the paper's artefacts (DESIGN.md §7).
//!
//! * `ablate-shared` — source-specific versus center-based shared trees
//!   (the comparison the paper's footnote 1 delegates to Wei & Estrin);
//! * `ablate-steiner` — shortest-path trees versus the greedy Steiner
//!   heuristic: how much of `L(m)` is routing inefficiency;
//! * `ablate-norm` — how the fitted Chuang–Sirbu exponent depends on the
//!   normalisation convention (per-sample `ū(m)` as in the paper, global
//!   `ū`, or none);
//! * `ablate-tiebreak` — how the shortest-path tie-breaking policy
//!   (lowest-id / highest-id / randomised ECMP) moves the `L(m)` curve.

use crate::config::RunConfig;
use crate::dataset::{DataSet, Report, Series};
use crate::figures::table1::spread_sources;
use crate::networks;
use crate::runner::log_grid;
use mcast_analysis::fit::power_law_fit;
use mcast_topology::Graph;
use mcast_tree::measure::{pick_source, source_rng, SourceMeasurer};
use mcast_tree::sampling::{self, ReceiverPool};
use mcast_tree::shared::{choose_center, SharedTreeSizer};
use mcast_tree::steiner::SteinerHeuristic;
use mcast_tree::{DeliverySizer, RunningStats};

fn sample_counts(cfg: &RunConfig) -> (usize, usize) {
    let m = cfg.measure();
    (m.sources.min(20), m.receiver_sets.min(20))
}

/// Shared-vs-source-specific tree sizes across group sizes.
pub fn run_shared(cfg: &RunConfig) -> Report {
    let mut report = Report::new(
        "ablate-shared",
        "Extension: source-specific vs shared (center-based) delivery trees",
    );
    report.note("center = lowest-eccentricity node among 16 spread candidates (CBT/PIM-SM style)");
    let (n_sources, n_sets) = sample_counts(cfg);
    for net in [networks::ts1000(cfg), networks::as_map(cfg)] {
        let graph = &net.graph;
        let center = choose_center(graph, &spread_sources(graph, 16));
        let mut shared = SharedTreeSizer::new(graph, center);
        let ms = log_grid(graph.node_count() / 2, 3);
        let mut spt_series = Vec::new();
        let mut shared_series = Vec::new();
        let mut buf = Vec::new();
        for &m in &ms {
            let mut spt_stats = RunningStats::new();
            let mut shared_stats = RunningStats::new();
            for s in 0..n_sources {
                let source = pick_source(graph, cfg.sub_seed("ablate-shared"), s);
                let mut sizer = DeliverySizer::from_graph(graph, source);
                let pool = ReceiverPool::AllExceptSource {
                    nodes: graph.node_count(),
                    source,
                };
                let mut rng = source_rng(cfg.sub_seed("ablate-shared"), s);
                for _ in 0..n_sets {
                    sampling::distinct(&pool, m, &mut rng, &mut buf);
                    spt_stats.push(sizer.tree_links(&buf) as f64);
                    shared_stats.push(shared.tree_links(source, &buf) as f64);
                }
            }
            spt_series.push((m as f64, spt_stats.mean()));
            shared_series.push((m as f64, shared_stats.mean()));
        }
        // Overhead summary at the largest m.
        let last = spt_series.len() - 1;
        report.note(format!(
            "{}: shared/source tree-size ratio {:.3} at m={}, {:.3} at m={}",
            net.name,
            shared_series[0].1 / spt_series[0].1,
            ms[0],
            shared_series[last].1 / spt_series[last].1,
            ms[last],
        ));
        report.datasets.push(DataSet {
            id: format!("ablate-shared-{}", net.name),
            title: format!("shared vs source trees on {}", net.name),
            xlabel: "m".into(),
            ylabel: "links".into(),
            log_x: true,
            log_y: true,
            series: vec![
                Series::new("source-specific", spt_series),
                Series::new("shared", shared_series),
            ],
        });
    }
    report
}

/// SPT-vs-Steiner cost ratio across group sizes.
pub fn run_steiner(cfg: &RunConfig) -> Report {
    let mut report = Report::new(
        "ablate-steiner",
        "Extension: shortest-path trees vs greedy Steiner heuristic",
    );
    report.note("Steiner: Takahashi-Matsuyama nearest-terminal grafting (within 2x of optimal)");
    let (n_sources, n_sets) = sample_counts(cfg);
    // Steiner rounds are O(m (V+E)); keep to the mid-size networks.
    for net in [networks::r100(cfg), networks::ts1000(cfg)] {
        let graph = &net.graph;
        let ms = log_grid(graph.node_count() / 2, 3);
        let mut ratio_series = Vec::new();
        let mut buf = Vec::new();
        for &m in &ms {
            let mut ratio = RunningStats::new();
            for s in 0..n_sources.min(6) {
                let source = pick_source(graph, cfg.sub_seed("ablate-steiner"), s);
                let mut spt = DeliverySizer::from_graph(graph, source);
                let mut steiner = SteinerHeuristic::new(graph);
                let pool = ReceiverPool::AllExceptSource {
                    nodes: graph.node_count(),
                    source,
                };
                let mut rng = source_rng(cfg.sub_seed("ablate-steiner"), s);
                for _ in 0..n_sets.min(6) {
                    sampling::distinct(&pool, m, &mut rng, &mut buf);
                    let t = spt.tree_links(&buf) as f64;
                    let st = steiner.tree_links(source, &buf) as f64;
                    if st > 0.0 {
                        ratio.push(t / st);
                    }
                }
            }
            ratio_series.push((m as f64, ratio.mean()));
        }
        let worst = ratio_series.iter().map(|p| p.1).fold(1.0f64, f64::max);
        report.note(format!(
            "{}: SPT/Steiner cost ratio peaks at {:.3} (1.0 = optimal routing)",
            net.name, worst
        ));
        report.datasets.push(DataSet {
            id: format!("ablate-steiner-{}", net.name),
            title: format!("SPT vs Steiner cost on {}", net.name),
            xlabel: "m".into(),
            ylabel: "L_spt / L_steiner".into(),
            log_x: true,
            log_y: false,
            series: vec![Series::new("spt/steiner", ratio_series)],
        });
    }
    report
}

/// Exponent sensitivity to the normalisation convention.
pub fn run_norm(cfg: &RunConfig) -> Report {
    let mut report = Report::new(
        "ablate-norm",
        "Extension: Chuang-Sirbu exponent vs normalisation convention",
    );
    let (n_sources, n_sets) = sample_counts(cfg);
    let net = networks::ts1000(cfg);
    let graph: &Graph = &net.graph;
    let ms = log_grid(graph.node_count() / 2, 4);

    // Three conventions: per-sample u(m) (the paper's), global per-source
    // u, and raw links.
    let mut per_sample: Vec<(f64, f64)> = Vec::new();
    let mut global_u: Vec<(f64, f64)> = Vec::new();
    let mut raw: Vec<(f64, f64)> = Vec::new();
    let mut acc: Vec<(RunningStats, RunningStats, RunningStats)> =
        vec![Default::default(); ms.len()];
    for s in 0..n_sources {
        let source = pick_source(graph, cfg.sub_seed("ablate-norm"), s);
        let mut measurer = SourceMeasurer::new(graph, source, None);
        let ubar = measurer.mean_distance();
        let mut sizer = DeliverySizer::from_graph(graph, source);
        let pool = ReceiverPool::AllExceptSource {
            nodes: graph.node_count(),
            source,
        };
        let mut rng = source_rng(cfg.sub_seed("ablate-norm"), s);
        let mut buf = Vec::new();
        for (i, &m) in ms.iter().enumerate() {
            for _ in 0..n_sets {
                acc[i].0.push(measurer.ratio_sample(m, &mut rng));
                sampling::distinct(&pool, m, &mut rng, &mut buf);
                let links = sizer.tree_links(&buf) as f64;
                acc[i].1.push(links / ubar);
                acc[i].2.push(links);
            }
        }
    }
    for (i, &m) in ms.iter().enumerate() {
        per_sample.push((m as f64, acc[i].0.mean()));
        global_u.push((m as f64, acc[i].1.mean()));
        raw.push((m as f64, acc[i].2.mean()));
    }
    for (label, pts) in [
        ("per-sample u(m) [paper]", &per_sample),
        ("global per-source u", &global_u),
        ("raw links", &raw),
    ] {
        if let Some(fit) = power_law_fit(pts) {
            report.note(format!(
                "{label}: exponent {:.3} (R2 {:.3})",
                fit.exponent, fit.r2
            ));
        }
    }
    report.datasets.push(DataSet {
        id: "ablate-norm".into(),
        title: "normalisation ablation on ts1000".into(),
        xlabel: "m".into(),
        ylabel: "normalised tree size".into(),
        log_x: true,
        log_y: true,
        series: vec![
            Series::new("per-sample u(m) [paper]", per_sample),
            Series::new("global per-source u", global_u),
            Series::new("raw links", raw),
        ],
    });
    report
}

/// Tie-breaking policy sensitivity of the measured `L(m)` curve.
pub fn run_tiebreak(cfg: &RunConfig) -> Report {
    use mcast_tree::policy::{sizer_with_policy, TieBreak};
    let mut report = Report::new(
        "ablate-tiebreak",
        "Extension: L(m) under different shortest-path tie-breaking policies",
    );
    report.note(
        "policies act on the all-shortest-paths DAG; unicast distances are policy-independent",
    );
    let (n_sources, n_sets) = sample_counts(cfg);
    // ts1008 is the densest suite member (most equal-cost ties).
    for net in [networks::ts1008(cfg), networks::r100(cfg)] {
        let graph = &net.graph;
        let ms = log_grid(graph.node_count() / 2, 3);
        let mut series = Vec::new();
        for policy in [TieBreak::LowestId, TieBreak::HighestId, TieBreak::Random] {
            let mut acc = vec![RunningStats::new(); ms.len()];
            let mut buf = Vec::new();
            for s in 0..n_sources {
                let seed = cfg.sub_seed("ablate-tiebreak");
                let source = pick_source(graph, seed, s);
                // Separate RNG streams so every policy sees the exact
                // same receiver sets.
                let mut policy_rng = source_rng(seed ^ 0xec39, s);
                let mut rng = source_rng(seed, s);
                let mut sizer = sizer_with_policy(graph, source, policy, &mut policy_rng);
                let pool = ReceiverPool::AllExceptSource {
                    nodes: graph.node_count(),
                    source,
                };
                for (i, &m) in ms.iter().enumerate() {
                    for _ in 0..n_sets {
                        sampling::distinct(&pool, m, &mut rng, &mut buf);
                        let links = sizer.tree_links(&buf) as f64;
                        let unicast: u64 = buf
                            .iter()
                            .map(|&r| u64::from(sizer.distance(r).expect("connected")))
                            .sum();
                        acc[i].push(links * m as f64 / unicast as f64);
                    }
                }
            }
            let points: Vec<(f64, f64)> = ms
                .iter()
                .zip(&acc)
                .map(|(&m, st)| (m as f64, st.mean()))
                .collect();
            if let Some(fit) = power_law_fit(&points) {
                report.note(format!(
                    "{} / {policy:?}: exponent {:.3} (R2 {:.3})",
                    net.name, fit.exponent, fit.r2
                ));
            }
            series.push(Series::new(format!("{policy:?}"), points));
        }
        report.datasets.push(DataSet {
            id: format!("ablate-tiebreak-{}", net.name),
            title: format!("tie-break policies on {}", net.name),
            xlabel: "m".into(),
            ylabel: "L(m)/u".into(),
            log_x: true,
            log_y: true,
            series,
        });
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunConfig {
        RunConfig {
            threads: 2,
            ..RunConfig::fast()
        }
    }

    #[test]
    fn shared_trees_cost_more_for_small_groups() {
        let r = run_shared(&cfg());
        assert_eq!(r.datasets.len(), 2);
        let d = r.dataset("ablate-shared-ts1000").unwrap();
        let spt = &d.series[0].points;
        let shared = &d.series[1].points;
        // Small groups: the detour through the center hurts.
        assert!(shared[0].1 > spt[0].1, "{} vs {}", shared[0].1, spt[0].1);
        // Saturated groups: both approach the spanning tree, ratio → 1.
        let last = spt.len() - 1;
        let ratio = shared[last].1 / spt[last].1;
        assert!(ratio < 1.3, "saturated ratio {ratio}");
    }

    #[test]
    fn steiner_ratio_at_least_one_and_modest() {
        let r = run_steiner(&cfg());
        for d in &r.datasets {
            for &(m, ratio) in &d.series[0].points {
                assert!(ratio >= 1.0 - 1e-9, "{}: ratio {ratio} at m={m}", d.id);
                assert!(ratio < 1.6, "{}: ratio {ratio} at m={m}", d.id);
            }
        }
    }

    #[test]
    fn tiebreak_policies_barely_move_the_curve() {
        let r = run_tiebreak(&cfg());
        assert_eq!(r.datasets.len(), 2);
        // Exponents per network differ by < 0.05 across policies.
        for net in ["ts1008", "r100"] {
            let exps: Vec<f64> = r
                .notes
                .iter()
                .filter(|n| n.starts_with(&format!("{net} /")))
                .map(|n| {
                    n.split("exponent ")
                        .nth(1)
                        .unwrap()
                        .split(' ')
                        .next()
                        .unwrap()
                        .parse()
                        .unwrap()
                })
                .collect();
            assert_eq!(exps.len(), 3, "{net}");
            let spread = exps.iter().cloned().fold(0.0f64, f64::max)
                - exps.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(spread < 0.05, "{net}: exponent spread {spread} ({exps:?})");
        }
    }

    #[test]
    fn norm_choice_barely_moves_the_exponent() {
        let r = run_norm(&cfg());
        let exps: Vec<f64> = r
            .notes
            .iter()
            .filter(|n| n.contains("exponent"))
            .map(|n| {
                n.split("exponent ")
                    .nth(1)
                    .unwrap()
                    .split(' ')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        assert_eq!(exps.len(), 3);
        let spread = exps.iter().cloned().fold(0.0f64, f64::max)
            - exps.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread < 0.08,
            "exponent spread {spread} across conventions ({exps:?})"
        );
    }
}
