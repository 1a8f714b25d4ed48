//! Registry mapping experiment ids to runners.
//!
//! When a cache is bound (`mcs --cache-dir`), whole figure reports are
//! served content-addressed: the key covers everything that determines a
//! report's numbers (experiment id, scale, seed, sample counts, codec
//! versions), so a second run of an unchanged suite re-renders every
//! artifact from cached reports without measuring anything.

use crate::config::RunConfig;
use crate::dataset::Report;
use crate::figures;
use mcast_store::{Key, KeyBuilder, ObjectKind};
use std::collections::HashMap;
use std::sync::Mutex;

/// In-process memo of finished figure reports, keyed by [`figure_key`].
/// `None` (the default) means disabled; [`crate::sched::run_suite`]
/// enables it for the duration of a scheduled run so `verdict`'s
/// internal re-runs of Figs 1–9 reuse the reports their own tasks
/// already produced instead of recomputing them. Reports are
/// deterministic functions of the key, so a memo hit never changes a
/// number (the meta stamp is re-applied per call, exactly as the
/// on-disk report cache does).
static REPORT_MEMO: Mutex<Option<HashMap<Key, Report>>> = Mutex::new(None);

/// Turn the figure-report memo on (fresh and empty) or off (releasing it).
pub(crate) fn memo_set_enabled(on: bool) {
    let mut memo = REPORT_MEMO.lock().unwrap_or_else(|e| e.into_inner());
    *memo = on.then(HashMap::new);
}

fn memo_get(key: &Key) -> Option<Report> {
    REPORT_MEMO
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .and_then(|m| m.get(key).cloned())
}

fn memo_put(key: Key, report: &Report) {
    let mut memo = REPORT_MEMO.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(m) = memo.as_mut() {
        m.insert(key, report.clone());
    }
}

/// All experiment ids, in paper order.
pub const EXPERIMENT_IDS: [&str; 17] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablate-shared",
    "ablate-steiner",
    "ablate-norm",
    "ablate-tiebreak",
    "churn",
    "storm",
    "verdict",
];

/// One-line description per experiment (shown by `mcs list`).
pub fn describe(id: &str) -> Option<&'static str> {
    Some(match id {
        "table1" => "description of the eight networks used in Figure 1",
        "fig1" => "measured L(m)/u vs m^0.8 on generated and real networks",
        "fig2" => "h(x) for k-ary trees vs the predicted x k^(-1/2)",
        "fig3" => "exact L(n)/n vs n/M, receivers at leaves, vs the asymptote",
        "fig4" => "k-ary L(m)/u vs m^0.8 (exact + occupancy conversion)",
        "fig5" => "exact L(n)/n vs n/M, receivers at all sites",
        "fig6" => "measured L(n)/(n u) vs ln n on all networks (+ Eq 30 overlay)",
        "fig7" => "reachability T(r) on all networks",
        "fig8" => "L(n) under exponential / power-law / super-exponential S(r)",
        "fig9" => "affinity: L_beta(n) on binary trees, beta in {-10..10}",
        "ablate-shared" => "(extension) source-specific vs shared center-based trees",
        "ablate-steiner" => "(extension) SPT cost vs greedy Steiner heuristic",
        "ablate-norm" => "(extension) exponent sensitivity to the normalisation",
        "ablate-tiebreak" => "(extension) L(m) under different tie-breaking policies",
        "churn" => "(extension) session join/leave dynamics vs static snapshots",
        "storm" => "(extension) event-driven churn across many concurrent sessions",
        "verdict" => "(summary) PASS/FAIL check of every DESIGN.md shape criterion",
        _ => return None,
    })
}

/// Version of the cached-report payload (pretty JSON via
/// [`crate::render::report_json`]); bump when the report schema or the
/// serialisation changes so stale objects read as misses.
const REPORT_CODEC_VERSION: u64 = 1;

/// Cache key for one figure report. Thread count is deliberately
/// excluded: reports are bit-identical at any thread count.
fn figure_key(id: &str, cfg: &RunConfig) -> Key {
    let m = cfg.measure();
    KeyBuilder::new("figure")
        .str("id", id)
        .str("scale", cfg.scale_name())
        .u64("seed", cfg.seed)
        .u64("sources", m.sources as u64)
        .u64("receiver_sets", m.receiver_sets as u64)
        .u64("format", u64::from(mcast_store::FORMAT_VERSION))
        .u64("codec", REPORT_CODEC_VERSION)
        .finish()
}

/// Run one experiment by id.
///
/// The whole experiment runs under a span named after the id (so phase
/// spans like `generate`/`measure` nest beneath it in `mcs --metrics`
/// dumps), and the returned report is stamped with the run's
/// [`crate::dataset::RunMeta`].
///
/// With a cache bound, the report is fetched from (or published to) the
/// store keyed by `figure_key`. Cached reports are re-stamped with the
/// *current* run's metadata, so the `threads` fields always describe the
/// run that emitted the artifact (the numbers don't depend on them).
pub fn run(id: &str, cfg: &RunConfig) -> Option<Report> {
    describe(id)?; // unknown ids bail before opening a span
    let _span = mcast_obs::span_at(id.to_string());
    let store = mcast_store::active();
    let memo_on = REPORT_MEMO
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .is_some();
    let key = (memo_on || store.is_some()).then(|| figure_key(id, cfg));
    if memo_on {
        if let Some(mut report) = memo_get(key.as_ref().expect("key computed when memo on")) {
            if mcast_obs::enabled() {
                mcast_obs::counter("suite.memo.hit").add(1);
            }
            report.meta = Some(cfg.run_meta());
            return Some(report);
        }
    }
    let report = if let Some(handle) = store {
        let key = key.expect("key computed when store active");
        let cached = handle
            .cache
            .get(&key, ObjectKind::Report)
            .and_then(|bytes| {
                let report = std::str::from_utf8(&bytes).ok().and_then(Report::from_json);
                if report.is_none() {
                    mcast_obs::warn!("store", "cached report {key} failed to decode; re-running");
                }
                report
            });
        match cached {
            Some(mut report) => {
                report.meta = Some(cfg.run_meta());
                report
            }
            None => {
                let mut report = run_inner(id, cfg)?;
                report.meta = Some(cfg.run_meta());
                let json = crate::render::report_json(&report);
                if let Err(e) = handle.cache.put(&key, ObjectKind::Report, json.as_bytes()) {
                    mcast_obs::warn!("store", "cache write failed for {id}: {e}");
                }
                report
            }
        }
    } else {
        let mut report = run_inner(id, cfg)?;
        report.meta = Some(cfg.run_meta());
        report
    };
    if memo_on {
        memo_put(key.expect("key computed when memo on"), &report);
    }
    Some(report)
}

fn run_inner(id: &str, cfg: &RunConfig) -> Option<Report> {
    Some(match id {
        "table1" => figures::table1::run(cfg),
        "fig1" => figures::fig1::run(cfg),
        "fig2" => figures::fig2::run(cfg),
        "fig3" => figures::fig3::run(cfg),
        "fig4" => figures::fig4::run(cfg),
        "fig5" => figures::fig5::run(cfg),
        "fig6" => figures::fig6::run(cfg),
        "fig7" => figures::fig7::run(cfg),
        "fig8" => figures::fig8::run(cfg),
        "fig9" => figures::fig9::run(cfg),
        "ablate-shared" => figures::ablations::run_shared(cfg),
        "ablate-steiner" => figures::ablations::run_steiner(cfg),
        "ablate-norm" => figures::ablations::run_norm(cfg),
        "ablate-tiebreak" => figures::ablations::run_tiebreak(cfg),
        "churn" => figures::churn::run(cfg),
        "storm" => figures::storm::run(cfg),
        "verdict" => figures::verdict::run(cfg),
        _ => return None,
    })
}

/// A request the suite registry cannot satisfy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SuiteError {
    /// The named experiment is not in [`EXPERIMENT_IDS`].
    UnknownExperiment {
        /// The name as the caller gave it.
        name: String,
    },
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::UnknownExperiment { name } => write!(
                f,
                "unknown experiment `{name}`; known experiments: {}",
                EXPERIMENT_IDS.join(", ")
            ),
        }
    }
}

impl std::error::Error for SuiteError {}

/// Expand and validate a list of requested experiment names: `all`
/// expands to the full paper-order suite, duplicates are kept in request
/// order, and any unknown name is an error that lists every valid id.
pub fn resolve_ids<S: AsRef<str>>(requested: &[S]) -> Result<Vec<String>, SuiteError> {
    let mut ids = Vec::new();
    for name in requested {
        let name = name.as_ref();
        if name == "all" {
            ids.extend(EXPERIMENT_IDS.iter().map(|s| s.to_string()));
        } else if describe(name).is_some() {
            ids.push(name.to_string());
        } else {
            return Err(SuiteError::UnknownExperiment {
                name: name.to_string(),
            });
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_id_is_described_and_runnable() {
        for id in EXPERIMENT_IDS {
            assert!(describe(id).is_some(), "{id} missing description");
        }
        assert!(describe("fig10").is_none());
        assert!(run("nope", &RunConfig::fast()).is_none());
    }

    #[test]
    fn resolve_ids_expands_and_rejects() {
        assert_eq!(
            resolve_ids(&["fig2", "fig3"]).unwrap(),
            vec!["fig2".to_string(), "fig3".to_string()]
        );
        assert_eq!(resolve_ids(&["all"]).unwrap().len(), EXPERIMENT_IDS.len());
        let err = resolve_ids(&["fig2", "fig99"]).unwrap_err();
        assert_eq!(
            err,
            SuiteError::UnknownExperiment {
                name: "fig99".to_string()
            }
        );
        let text = err.to_string();
        assert!(text.contains("unknown experiment `fig99`"), "{text}");
        assert!(
            text.contains("table1") && text.contains("verdict"),
            "{text}"
        );
        assert!(resolve_ids::<&str>(&[]).unwrap().is_empty());
    }

    #[test]
    fn figure_keys_separate_inputs() {
        let fast = RunConfig::fast();
        let base = figure_key("fig2", &fast);
        assert_eq!(base, figure_key("fig2", &fast));
        assert_ne!(base, figure_key("fig3", &fast));
        assert_ne!(base, figure_key("fig2", &RunConfig::paper()));
        let reseeded = RunConfig { seed: 7, ..fast };
        assert_ne!(base, figure_key("fig2", &reseeded));
        // Thread count must NOT perturb the key.
        let threaded = RunConfig { threads: 5, ..fast };
        assert_eq!(base, figure_key("fig2", &threaded));
    }

    #[test]
    fn cached_figure_reports_round_trip() {
        let _guard = crate::runner::tests::cache_test_lock();
        mcast_store::deactivate();
        let cfg = RunConfig::fast();
        let plain = run("fig2", &cfg).unwrap();
        let root = std::env::temp_dir().join(format!("mcs-suite-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        mcast_store::configure(&root, false).unwrap();
        let first = run("fig2", &cfg).unwrap();
        let second = run("fig2", &cfg).unwrap();
        mcast_store::deactivate();
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(plain, first);
        assert_eq!(first, second, "cache hit must reproduce the report exactly");
        assert_eq!(
            crate::render::report_json(&first),
            crate::render::report_json(&second),
            "rendered artifacts must be byte-identical"
        );
    }

    #[test]
    fn cheap_experiments_run_and_report_their_ids() {
        // Hold the cache lock: run() consults the process-global cache,
        // and a concurrently configured one would serialise reports here.
        let _guard = crate::runner::tests::cache_test_lock();
        // Exact-computation experiments are fast enough for a unit test.
        for id in ["fig2", "fig3", "fig4", "fig5", "fig8"] {
            let r = run(id, &RunConfig::fast()).unwrap();
            assert_eq!(r.id, id);
            assert!(!r.datasets.is_empty(), "{id} produced no datasets");
        }
    }
}
