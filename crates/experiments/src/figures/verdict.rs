//! The reproduction verdict: every shape criterion from `DESIGN.md` §4,
//! checked programmatically against a fresh run of the artefacts.
//!
//! `mcs verdict` is the one-command answer to "does this repository
//! actually reproduce the paper?": it regenerates the figures at the
//! configured scale, extracts the quantities the paper's claims are made
//! of (fitted exponents, slopes, linearity scores, orderings), and prints
//! a PASS/FAIL table. The integration tests assert the same criteria;
//! this artefact exists so a human can see them all at once.
//!
//! Extraction goes through the typed [`FigureError`] path: a figure whose
//! report is missing a dataset, series, or fit produces an ERROR row
//! naming exactly what was absent, instead of an `expect` panic that the
//! scheduler's `catch_unwind` would report as a quarantined task.

use crate::config::RunConfig;
use crate::dataset::{Report, TableData};
use crate::figures::{require_dataset, require_fit, require_series, FigureError};
use mcast_analysis::fit::linear_fit;

/// Regenerate one graded figure through the [`crate::suite`] registry
/// rather than by calling the figure module directly: when the report
/// memo or the on-disk cache is live (scheduled/cached runs), the
/// verdict then grades the *same* report object those runs produced
/// instead of recomputing it.
fn rerun(id: &str, cfg: &RunConfig) -> Result<Report, FigureError> {
    crate::suite::run(id, cfg).ok_or_else(|| FigureError::UnregisteredExperiment { id: id.into() })
}

/// One checked criterion: the measured rendering and pass flag, or the
/// typed extraction failure.
struct Check {
    id: &'static str,
    claim: &'static str,
    outcome: Result<(String, bool), FigureError>,
}

/// Borrow a rerun report, cloning out the error so several checks can
/// grade the same figure.
fn ok(report: &Result<Report, FigureError>) -> Result<&Report, FigureError> {
    report.as_ref().map_err(Clone::clone)
}

fn extract_exponents(report: &Report) -> Vec<(String, f64)> {
    report
        .notes
        .iter()
        .filter(|n| n.contains("fitted exponent"))
        .filter_map(|n| {
            let name = n.split(':').next()?.to_string();
            let value = n
                .split("exponent ")
                .nth(1)?
                .split(' ')
                .next()?
                .parse()
                .ok()?;
            Some((name, value))
        })
        .collect()
}

fn log_linearity(points: &[(f64, f64)], min_x: f64) -> f64 {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.0 >= min_x)
        .map(|p| (p.0.ln(), p.1))
        .collect();
    linear_fit(&pts).map(|f| f.r2).unwrap_or(f64::NAN)
}

/// Run every artefact and evaluate the DESIGN.md §4 criteria.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::new(
        "verdict",
        "Reproduction verdict: DESIGN.md §4 shape criteria",
    );
    let mut checks: Vec<Check> = Vec::new();
    let exp_family = ["r100", "ts1000", "ts1008", "Internet", "AS"];

    // --- Fig 1: Chuang–Sirbu exponents. ---
    let fig1 = rerun("fig1", cfg);
    checks.push(Check {
        id: "fig1-exponent",
        claim: "exponential-family L(m)/u fits m^k with k near 0.8",
        outcome: (|| {
            let exps = extract_exponents(ok(&fig1)?);
            let family_exps: Vec<f64> = exps
                .iter()
                .filter(|(n, _)| exp_family.contains(&n.as_str()))
                .map(|(_, e)| *e)
                .collect();
            let mean_exp = family_exps.iter().sum::<f64>() / family_exps.len().max(1) as f64;
            Ok((
                format!("mean exponent {mean_exp:.3} over {exp_family:?}"),
                (0.72..=0.88).contains(&mean_exp),
            ))
        })(),
    });
    checks.push(Check {
        id: "fig1-subexp",
        claim: "sub-exponential networks fit lower exponents (paper: 'less in agreement')",
        outcome: (|| {
            let exps = extract_exponents(ok(&fig1)?);
            let family_exps: Vec<f64> = exps
                .iter()
                .filter(|(n, _)| exp_family.contains(&n.as_str()))
                .map(|(_, e)| *e)
                .collect();
            let sub_exps: Vec<f64> = exps
                .iter()
                .filter(|(n, _)| ["ti5000", "ARPA", "MBone"].contains(&n.as_str()))
                .map(|(_, e)| *e)
                .collect();
            let max_sub = sub_exps.iter().cloned().fold(0.0, f64::max);
            let min_family = family_exps.iter().cloned().fold(f64::INFINITY, f64::min);
            Ok((
                format!("max sub-exp {max_sub:.3} < min exponential {min_family:.3}"),
                max_sub < min_family,
            ))
        })(),
    });

    // --- Fig 2: h(x) slope ratio. ---
    let fig2 = rerun("fig2", cfg);
    checks.push(Check {
        id: "fig2-slope",
        claim: "h(x) slope scales as k^(-1/2): slope(k=2)/slope(k=4) = sqrt(2)",
        outcome: (|| {
            let fig2 = ok(&fig2)?;
            let slope = |panel: &str, label: &str| -> Result<f64, FigureError> {
                let s = require_series(fig2, panel, label)?;
                let pts: Vec<(f64, f64)> =
                    s.points.iter().copied().filter(|p| p.0 > 0.15).collect();
                Ok(require_fit("fig2", &format!("{panel} `{label}` h(x)"), &pts)?.slope)
            };
            let ratio = slope("fig2a", "k=2, D=17")? / slope("fig2b", "k=4, D=9")?;
            Ok((
                format!("ratio {ratio:.3} (target 1.414)"),
                (ratio - std::f64::consts::SQRT_2).abs() < 0.25,
            ))
        })(),
    });

    // --- Fig 3: asymptote slope. ---
    let fig3 = rerun("fig3", cfg);
    let m = mcast_analysis::kary::leaf_count(2.0, 17);
    // Shared with fig5-form below: the in-range ln-x fit of one series.
    let line_of = |r: &Report, panel: &str, label: &str| {
        let s = require_series(r, panel, label)?;
        let pts: Vec<(f64, f64)> = s
            .points
            .iter()
            .filter(|p| p.0 * m > 5.0 && p.0 < 0.05)
            .map(|p| (p.0.ln(), p.1))
            .collect();
        require_fit(&r.id, &format!("{panel} `{label}` vs ln x"), &pts)
    };
    checks.push(Check {
        id: "fig3-slope",
        claim: "exact L(n)/n is linear in ln(n/M) with slope -1/ln k",
        outcome: (|| {
            let fit = line_of(ok(&fig3)?, "fig3a", "k=2, D=17")?;
            let predicted = -1.0 / 2.0f64.ln();
            Ok((
                format!(
                    "slope {:.4} vs predicted {predicted:.4}, R2 {:.4}",
                    fit.slope, fit.r2
                ),
                (fit.slope - predicted).abs() / predicted.abs() < 0.06 && fit.r2 > 0.99,
            ))
        })(),
    });

    // --- Fig 4: k-ary exponents. ---
    let fig4 = rerun("fig4", cfg);
    checks.push(Check {
        id: "fig4-exponent",
        claim: "k-ary exact L(m) agrees with m^0.8 'remarkably' well",
        outcome: (|| {
            let kary_exps: Vec<f64> = extract_exponents(ok(&fig4)?)
                .iter()
                .map(|(_, e)| *e)
                .collect();
            let all_in = kary_exps.iter().all(|e| (0.68..=0.95).contains(e));
            Ok((
                format!("exponents {kary_exps:?}"),
                all_in && kary_exps.len() == 6,
            ))
        })(),
    });

    // --- Fig 5: same slope, shifted intercept. ---
    let fig5 = rerun("fig5", cfg);
    checks.push(Check {
        id: "fig5-form",
        claim: "receivers-everywhere keeps the form, only c changes (§3.4)",
        outcome: (|| {
            let f5 = line_of(ok(&fig5)?, "fig5a", "k=2, D=17")?;
            let f3 = line_of(ok(&fig3)?, "fig3a", "k=2, D=17")?;
            Ok((
                format!(
                    "slope {:.3} vs {:.3}; intercept shift {:.3}",
                    f5.slope,
                    f3.slope,
                    (f5.intercept - f3.intercept).abs()
                ),
                (f5.slope - f3.slope).abs() / f3.slope.abs() < 0.08
                    && (f5.intercept - f3.intercept).abs() > 0.2,
            ))
        })(),
    });

    // --- Figs 6 + 7: the reachability dichotomy. ---
    let fig6 = rerun("fig6", cfg);
    checks.push(Check {
        id: "fig6-linearity",
        claim: "L(n)/(n u) linear in ln n for exponential reachability; worse for ti5000/MBone",
        outcome: (|| {
            let fig6 = ok(&fig6)?;
            let lin = |name: &str| {
                for panel in ["fig6a", "fig6b"] {
                    if let Some(s) = fig6.series(panel, name) {
                        return log_linearity(&s.points, 2.0);
                    }
                }
                f64::NAN
            };
            let worst_exp_lin = exp_family
                .iter()
                .map(|n| lin(n))
                .fold(f64::INFINITY, f64::min);
            let ti = lin("ti5000");
            let mbone = lin("MBone");
            Ok((
                format!(
                    "worst exponential R2 {worst_exp_lin:.3}; ti5000 {ti:.3}, MBone {mbone:.3}"
                ),
                worst_exp_lin > 0.97 && ti < worst_exp_lin && mbone < worst_exp_lin,
            ))
        })(),
    });

    let fig7 = rerun("fig7", cfg);
    checks.push(Check {
        id: "fig7-dichotomy",
        claim: "ln T(r) splits the suite: exponential family fits a line, the rest do not",
        outcome: (|| {
            let fig7 = ok(&fig7)?;
            let r2_of = |name: &str| -> f64 {
                fig7.notes
                    .iter()
                    .find(|n| n.starts_with(&format!("{name}:")))
                    .and_then(|n| n.split("R2 ").nth(1))
                    .and_then(|t| t.trim().parse().ok())
                    .unwrap_or(f64::NAN)
            };
            let floor = exp_family
                .iter()
                .map(|n| r2_of(n))
                .fold(f64::INFINITY, f64::min);
            let ceil = ["ti5000", "ARPA", "MBone"]
                .iter()
                .map(|n| r2_of(n))
                .fold(0.0, f64::max);
            Ok((
                format!("exponential floor {floor:.3} > sub-exponential ceiling {ceil:.3}"),
                floor > ceil,
            ))
        })(),
    });

    // --- Fig 8: non-exponential S(r) breaks the form. ---
    let fig8 = rerun("fig8", cfg);
    checks.push(Check {
        id: "fig8-families",
        claim: "only exponential S(r) preserves the k-ary asymptotic form (§4.3)",
        outcome: (|| {
            let fig8 = ok(&fig8)?;
            let d8 = require_dataset(fig8, "fig8")?;
            let lin8 = |label: &str| -> Result<f64, FigureError> {
                let s = d8.series.iter().find(|s| s.label == label).ok_or_else(|| {
                    FigureError::MissingSeries {
                        figure: fig8.id.clone(),
                        dataset: "fig8".into(),
                        series: label.into(),
                    }
                })?;
                let pts: Vec<(f64, f64)> = s
                    .points
                    .iter()
                    .filter(|p| p.0 > 10.0 && p.0 < 1e6)
                    .map(|p| (p.0.ln(), p.1))
                    .collect();
                Ok(require_fit("fig8", &format!("`{label}` vs ln n"), &pts)?.r2)
            };
            let exp_lin = lin8("S(r) = 2^r")?;
            let pow_lin = lin8("S(r) ~ r^3")?;
            Ok((
                format!("exponential R2 {exp_lin:.4} vs power-law R2 {pow_lin:.4}"),
                exp_lin > 0.995 && pow_lin < exp_lin,
            ))
        })(),
    });

    // --- Fig 9: affinity ordering and washout. ---
    let fig9 = rerun("fig9", cfg);
    checks.push(Check {
        id: "fig9-affinity",
        claim: "affinity shrinks the tree, strongest at small n, washing out at large n (§5.4)",
        outcome: (|| {
            let fig9 = ok(&fig9)?;
            let d9 = require_dataset(fig9, "fig9a")?;
            let val = |label: &str, idx: usize| -> Result<f64, FigureError> {
                let s = d9.series.iter().find(|s| s.label == label).ok_or_else(|| {
                    FigureError::MissingSeries {
                        figure: fig9.id.clone(),
                        dataset: "fig9a".into(),
                        series: label.into(),
                    }
                })?;
                Ok(s.points[idx].1)
            };
            let small_gap = val("beta=-10", 4)? - val("beta=10", 4)?;
            let last = d9.series[0].points.len() - 1;
            let large_gap = val("beta=-10", last)? - val("beta=10", last)?;
            Ok((
                format!("beta gap at n~10: {small_gap:.3}; at n=10^4: {large_gap:.3}"),
                small_gap > 0.2 && large_gap < small_gap / 3.0,
            ))
        })(),
    });

    // --- Render. ---
    let mut table = TableData {
        id: "verdict".into(),
        title: "shape criteria".into(),
        headers: ["check", "verdict", "measured", "claim"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        rows: Vec::new(),
    };
    let total = checks.len();
    let mut passed = 0;
    for c in checks {
        let (verdict, measured) = match c.outcome {
            Ok((measured, true)) => {
                passed += 1;
                ("PASS", measured)
            }
            Ok((measured, false)) => ("FAIL", measured),
            Err(e) => ("ERROR", e.to_string()),
        };
        table.push_row(vec![
            c.id.to_string(),
            verdict.to_string(),
            measured,
            c.claim.to_string(),
        ]);
    }
    report.note(format!("{passed}/{total} criteria hold at this scale/seed"));
    report.tables.push(table);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_criteria_pass_at_fast_scale() {
        let cfg = RunConfig {
            threads: 4,
            ..RunConfig::fast()
        };
        let r = run(&cfg);
        let table = &r.tables[0];
        let failures: Vec<&Vec<String>> =
            table.rows.iter().filter(|row| row[1] != "PASS").collect();
        assert!(
            failures.is_empty(),
            "failing criteria: {:?}",
            failures
                .iter()
                .map(|r| format!("{}: {}", r[0], r[2]))
                .collect::<Vec<_>>()
        );
        assert_eq!(table.rows.len(), 10);
    }

    #[test]
    fn extraction_failures_become_error_rows_not_panics() {
        // Grade a fabricated check outcome the way `run` renders it: the
        // ERROR row must carry the typed error's message.
        let c = Check {
            id: "fig2-slope",
            claim: "claim",
            outcome: Err(FigureError::MissingSeries {
                figure: "fig2".into(),
                dataset: "fig2a".into(),
                series: "k=2, D=17".into(),
            }),
        };
        let rendered = match c.outcome {
            Ok(_) => unreachable!(),
            Err(e) => e.to_string(),
        };
        assert!(rendered.contains("has no series `k=2, D=17`"), "{rendered}");
    }
}
