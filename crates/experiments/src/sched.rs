//! Fault-isolated, suite-level parallel scheduler.
//!
//! `mcs suite` historically ran experiments strictly sequentially, and a
//! single worker panic unwound the whole process — hours of Monte-Carlo
//! on the big topologies died with no diagnosis of which source group
//! failed. This module lifts parallelism from per-curve to suite level
//! and isolates faults per task:
//!
//! - The suite is decomposed into **tasks**: one per (experiment,
//!   topology, curve) for the measurement-heavy Figs 1 and 6, one per
//!   remaining experiment. Tasks are ordered by an approximate cost
//!   (big topologies first) in a shared queue, so `--threads N` overlaps
//!   the small figures with the Internet/AS monsters instead of idling
//!   behind them.
//! - Curve tasks measure into the in-process **curve memo** (and the
//!   on-disk store when bound) single-threaded; the scheduler's width is
//!   the parallelism. Curve keys exclude thread count and per-curve
//!   merges are index-ordered, so every assembled figure is bit-identical
//!   to a sequential run. `verdict`, which re-runs Fig 1/Fig 6 to grade
//!   them, reuses the memo instead of re-measuring sixteen curves, and a
//!   companion **topology memo** ([`networks`]) builds each suite
//!   topology once per run instead of once per task and assembly.
//! - A panicking task is **captured** (via the fallible drivers in
//!   [`crate::runner`]), retried up to [`SchedPolicy::max_retries`]
//!   times, then **quarantined**: the rest of the suite still completes,
//!   the run reports which (experiment, source group) failed, and the
//!   checkpointed survivors make a later `--resume` cheap.
//!
//! Wired through `obs`: counters `sched.task.{ok,panic,retry,
//! quarantined}`, a `sched/<label>` span per task, and JSONL failure
//! events. Under `--trace` the same spans become per-lane timed trace
//! records, and the scheduler additionally emits `sched.queue_depth`
//! instants after every dequeue/requeue (counter bumps inside a task
//! are attributed to its `sched/<label>` span automatically). See
//! `DESIGN.md` §8 for the full specification and §10 for the trace
//! format.

use crate::config::RunConfig;
use crate::dataset::Report;
use crate::figures::{fig1, fig6};
use crate::networks::Network;
use crate::runner::{self, CurveError, GroupFailure};
use crate::suite;
use crate::{fault, networks};
use mcast_topology::Graph;
use mcast_tree::measure::SampleKind;
use std::collections::{HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Failure-handling policy for one scheduled suite run.
#[derive(Clone, Copy, Debug)]
pub struct SchedPolicy {
    /// Keep scheduling after a task exhausts its retries (quarantine it
    /// and continue) instead of aborting the suite at the first failure.
    pub keep_going: bool,
    /// Retries granted to a failing task before quarantine (`1` means a
    /// task must fail twice to be quarantined). Ignored under fail-fast.
    pub max_retries: u32,
}

impl Default for SchedPolicy {
    fn default() -> Self {
        Self {
            keep_going: false,
            max_retries: 1,
        }
    }
}

/// How one scheduled task ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskStatus {
    /// Completed, possibly after retries.
    Ok,
    /// Failed `max_retries + 1` times and was set aside; the rest of the
    /// suite continued without it.
    Quarantined,
    /// Failed under fail-fast; the suite aborted.
    Failed,
    /// Never ran: the suite aborted first, or a dependency was
    /// quarantined.
    Skipped,
}

impl TaskStatus {
    /// Lower-case label for summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskStatus::Ok => "ok",
            TaskStatus::Quarantined => "quarantined",
            TaskStatus::Failed => "failed",
            TaskStatus::Skipped => "skipped",
        }
    }
}

/// Captured context from a task's last failed attempt.
#[derive(Clone, Debug)]
pub struct TaskFailure {
    /// Rendered panic payload or curve-error summary.
    pub payload: String,
    /// Per-source-group captures when the failure came from a measured
    /// curve (empty for whole-task panics).
    pub groups: Vec<GroupFailure>,
}

/// Outcome of one scheduled task.
#[derive(Clone, Debug)]
pub struct TaskOutcome {
    /// Display label: `fig1/Internet` for curve tasks, the experiment id
    /// for whole-experiment tasks and figure assemblies.
    pub label: String,
    /// The experiment id this task contributes to.
    pub experiment: String,
    /// Final status.
    pub status: TaskStatus,
    /// Attempts actually started (1 = succeeded or failed with no retry;
    /// 0 = skipped).
    pub attempts: u32,
    /// Context from the last failed attempt, if any.
    pub failure: Option<TaskFailure>,
}

/// Aggregate status of a scheduled suite run; `mcs` maps it to the exit
/// code (complete → 0, partial → 2, failed → 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SuiteStatus {
    /// Every task and assembly succeeded.
    Complete,
    /// At least one task was quarantined or skipped, but at least one
    /// report was produced.
    Partial,
    /// The suite aborted (fail-fast) or produced no report at all.
    Failed,
}

/// Result of [`run_suite`].
#[derive(Debug)]
pub struct SuiteRun {
    /// Successful reports, one per requested id occurrence that could be
    /// assembled, in request order.
    pub reports: Vec<Report>,
    /// One outcome per task (plan order) plus one per figure assembly.
    pub outcomes: Vec<TaskOutcome>,
    /// Aggregate status.
    pub status: SuiteStatus,
}

impl SuiteRun {
    /// Outcomes that ended in quarantine or fail-fast failure.
    pub fn failures(&self) -> impl Iterator<Item = &TaskOutcome> {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.status, TaskStatus::Quarantined | TaskStatus::Failed))
    }
}

/// Builds one suite network from the run configuration.
type NetworkBuilder = fn(&RunConfig) -> Network;

/// One unit of schedulable work.
enum Work {
    /// Measure one (network, curve) pair into the curve memo/store.
    Curve {
        build: NetworkBuilder,
        kind: SampleKind,
        grid: fn(&Graph) -> Vec<usize>,
    },
    /// Run one whole experiment through the [`suite`] registry.
    Experiment,
}

struct Task {
    seq: usize,
    label: String,
    experiment: String,
    cost: u64,
    attempts: u32,
    work: Work,
}

/// The eight Table-1 networks with their builders, panel order.
const CURVE_NETS: [(&str, NetworkBuilder); 8] = [
    ("r100", networks::r100),
    ("ts1000", networks::ts1000),
    ("ts1008", networks::ts1008),
    ("ti5000", networks::ti5000),
    ("ARPA", networks::arpa),
    ("MBone", networks::mbone),
    ("Internet", networks::internet),
    ("AS", networks::as_map),
];

/// Approximate cost weight of one curve task (≈ node count: BFS work per
/// group scales with it). Only the *ordering* matters — big first — so a
/// static table beats building every topology at planning time.
fn curve_cost(name: &str, cfg: &RunConfig) -> u64 {
    match name {
        "Internet" => {
            if cfg.scale == crate::config::Scale::Paper {
                56_317
            } else {
                12_000
            }
        }
        "ti5000" => 5_000,
        "AS" => 4_902,
        "MBone" => 3_980,
        "ts1008" => 1_008,
        "ts1000" => 1_000,
        "r100" => 100,
        _ => 1_000,
    }
}

/// Approximate cost weight of one whole-experiment task (relative wall
/// time at fast scale; exact-computation figures are near-free).
fn experiment_cost(id: &str) -> u64 {
    match id {
        "table1" => 30_000,
        "fig7" => 20_000,
        "fig9" => 8_000,
        "churn" => 5_000,
        "storm" => 6_000,
        "ablate-shared" | "ablate-steiner" | "ablate-tiebreak" => 3_000,
        "ablate-norm" => 2_000,
        "fig8" => 1_500,
        "fig2" | "fig3" | "fig4" | "fig5" => 200,
        _ => 1_000,
    }
}

/// Decompose requested experiment ids into scheduled tasks, cost-sorted
/// descending (ties broken by plan order, so the schedule is
/// deterministic). Figs 1 and 6 become eight curve tasks each; `verdict`
/// contributes no task of its own but pre-warms both figures' curves
/// (its internal re-runs then hit the memo); everything else is one
/// whole-experiment task. Duplicate ids share tasks.
fn plan_tasks(ids: &[String], cfg: &RunConfig) -> Vec<Task> {
    struct Planner<'a> {
        cfg: &'a RunConfig,
        tasks: Vec<Task>,
        seen: HashSet<String>,
    }
    impl Planner<'_> {
        fn push(&mut self, task: Task) {
            if self.seen.insert(task.label.clone()) {
                self.tasks.push(task);
            }
        }

        fn push_curves(&mut self, figure: &str) {
            let (kind, grid): (SampleKind, fn(&Graph) -> Vec<usize>) = match figure {
                "fig1" => (SampleKind::Ratio, fig1::grid),
                _ => (SampleKind::NormalizedTree, fig6::grid),
            };
            for (name, build) in CURVE_NETS {
                let task = Task {
                    seq: self.tasks.len(),
                    label: format!("{figure}/{name}"),
                    experiment: figure.to_string(),
                    cost: curve_cost(name, self.cfg),
                    attempts: 0,
                    work: Work::Curve { build, kind, grid },
                };
                self.push(task);
            }
        }
    }

    let mut p = Planner {
        cfg,
        tasks: Vec::new(),
        seen: HashSet::new(),
    };
    for id in ids {
        match id.as_str() {
            "fig1" => p.push_curves("fig1"),
            "fig6" => p.push_curves("fig6"),
            "verdict" => {
                p.push_curves("fig1");
                p.push_curves("fig6");
            }
            other => {
                let task = Task {
                    seq: p.tasks.len(),
                    label: other.to_string(),
                    experiment: other.to_string(),
                    cost: experiment_cost(other),
                    attempts: 0,
                    work: Work::Experiment,
                };
                p.push(task);
            }
        }
    }
    let mut tasks = p.tasks;
    tasks.sort_by(|a, b| b.cost.cmp(&a.cost).then(a.seq.cmp(&b.seq)));
    tasks
}

/// Run one curve task: build the network, measure its grid into the memo
/// (and store, when bound). Inner thread count is pinned to 1 — the
/// scheduler's width is the parallelism — which changes no numbers:
/// curve keys exclude thread count and merges are index-ordered.
fn run_curve(
    cfg: &RunConfig,
    build: NetworkBuilder,
    kind: SampleKind,
    grid: fn(&Graph) -> Vec<usize>,
) -> Result<(), CurveError> {
    let net = build(cfg);
    let xs = grid(&net.graph);
    let mcfg = cfg.measure();
    let inner = RunConfig { threads: 1, ..*cfg };
    match kind {
        SampleKind::Ratio => runner::try_parallel_ratio_curve(&net.graph, &xs, &mcfg, &inner),
        SampleKind::NormalizedTree => {
            runner::try_parallel_lhat_curve(&net.graph, &xs, &mcfg, &inner)
        }
    }
    .map(|_points| ()) // the memo / store now hold the curve
}

/// Run one task attempt under panic capture. `Ok(Some(report))` for
/// whole-experiment tasks, `Ok(None)` for curve tasks (their output
/// lives in the memo/store).
fn run_task(task: &Task, cfg: &RunConfig) -> Result<Option<Report>, TaskFailure> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _ctx = fault::context(&task.label);
        fault::hit_task(&task.label);
        match &task.work {
            Work::Curve { build, kind, grid } => {
                run_curve(cfg, *build, *kind, *grid).map(|()| None)
            }
            // Churn has a fallible path: a panicking curve comes back
            // as per-group failures instead of an opaque unwind, so the
            // quarantine report can name the
            // mean-size point that died. Inner width is pinned to 1
            // like curve tasks — the scheduler's width is the
            // parallelism, and the thread-local fault context then
            // covers the figure's per-point drill hooks; index-ordered
            // merges keep the report bit-identical at any width.
            Work::Experiment if task.experiment == "churn" => {
                let inner = RunConfig { threads: 1, ..*cfg };
                crate::figures::churn::try_run(&inner).map(Some)
            }
            Work::Experiment => match suite::run(&task.experiment, cfg) {
                Some(report) => Ok(Some(report)),
                None => Err(CurveError {
                    failures: Vec::new(),
                    completed: 0,
                }),
            },
        }
    }));
    match outcome {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) if e.failures.is_empty() => Err(TaskFailure {
            payload: format!("unknown experiment `{}`", task.experiment),
            groups: Vec::new(),
        }),
        Ok(Err(curve_err)) => Err(TaskFailure {
            payload: curve_err.to_string(),
            groups: curve_err.failures,
        }),
        Err(p) => Err(TaskFailure {
            payload: runner::payload_text(p),
            groups: Vec::new(),
        }),
    }
}

struct SchedCounters {
    ok: &'static mcast_obs::Counter,
    panic: &'static mcast_obs::Counter,
    retry: &'static mcast_obs::Counter,
    quarantined: &'static mcast_obs::Counter,
}

/// Enables the curve and topology memos for the run and guarantees they
/// are disabled (and their memory released) however the run ends.
struct MemoGuard;

impl Drop for MemoGuard {
    fn drop(&mut self) {
        runner::memo_set_enabled(false);
        networks::memo_set_enabled(false);
        suite::memo_set_enabled(false);
    }
}

/// Run the requested experiments through the fault-isolated scheduler.
///
/// Ids must already be resolved (see [`suite::resolve_ids`]). Reports
/// come back in request order and are bit-identical to a sequential
/// `suite::run` of the same ids at any `cfg.threads`; under
/// `policy.keep_going` a panicking task is retried then quarantined and
/// the rest of the suite still completes.
pub fn run_suite(ids: &[String], cfg: &RunConfig, policy: &SchedPolicy) -> SuiteRun {
    runner::memo_set_enabled(true);
    networks::memo_set_enabled(true);
    suite::memo_set_enabled(true);
    let _memo = MemoGuard;
    let obs_on = mcast_obs::enabled();
    // Pre-register the counters so they appear (at zero) in every
    // `--metrics` dump of a scheduled run, failures or not.
    let counters = obs_on.then(|| SchedCounters {
        ok: mcast_obs::counter("sched.task.ok"),
        panic: mcast_obs::counter("sched.task.panic"),
        retry: mcast_obs::counter("sched.task.retry"),
        quarantined: mcast_obs::counter("sched.task.quarantined"),
    });

    let tasks = plan_tasks(ids, cfg);
    let task_count = tasks.len();
    let workers = cfg.resolved_threads().min(task_count).max(1);
    if obs_on {
        mcast_obs::gauge("sched.workers").set(workers as i64);
    }
    let queue: Mutex<VecDeque<Task>> = Mutex::new(tasks.into());
    let outcomes: Mutex<Vec<TaskOutcome>> = Mutex::new(Vec::new());
    let reports_map: Mutex<HashMap<String, Report>> = Mutex::new(HashMap::new());
    let abort = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for _w in 0..workers {
            let queue = &queue;
            let outcomes = &outcomes;
            let reports_map = &reports_map;
            let abort = &abort;
            let counters = &counters;
            scope.spawn(move || loop {
                if abort.load(Ordering::Relaxed) {
                    break;
                }
                let (task, depth) = {
                    let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                    let t = q.pop_front();
                    (t, q.len())
                };
                let Some(mut task) = task else { break };
                if mcast_obs::trace::active() {
                    mcast_obs::trace::instant("sched.queue_depth", depth as i64);
                }
                let _span = mcast_obs::span_at(format!("sched/{}", task.label));
                task.attempts += 1;
                match run_task(&task, cfg) {
                    Ok(report) => {
                        if let Some(c) = counters {
                            c.ok.add(1);
                        }
                        mcast_obs::info!(
                            "sched",
                            "task {} ok (attempt {})",
                            task.label,
                            task.attempts
                        );
                        if let Some(r) = report {
                            reports_map
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .insert(task.experiment.clone(), r);
                        }
                        outcomes
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(TaskOutcome {
                                label: task.label,
                                experiment: task.experiment,
                                status: TaskStatus::Ok,
                                attempts: task.attempts,
                                failure: None,
                            });
                    }
                    Err(failure) => {
                        if let Some(c) = counters {
                            c.panic.add(1);
                        }
                        mcast_obs::error!(
                            "sched",
                            "task {} failed (attempt {}): {}",
                            task.label,
                            task.attempts,
                            failure.payload
                        );
                        if !policy.keep_going {
                            outcomes
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(TaskOutcome {
                                    label: task.label,
                                    experiment: task.experiment,
                                    status: TaskStatus::Failed,
                                    attempts: task.attempts,
                                    failure: Some(failure),
                                });
                            abort.store(true, Ordering::Relaxed);
                            break;
                        }
                        if task.attempts <= policy.max_retries {
                            if let Some(c) = counters {
                                c.retry.add(1);
                            }
                            mcast_obs::warn!(
                                "sched",
                                "task {} requeued for retry {}",
                                task.label,
                                task.attempts
                            );
                            let depth = {
                                let mut q = queue.lock().unwrap_or_else(|e| e.into_inner());
                                q.push_back(task);
                                q.len()
                            };
                            if mcast_obs::trace::active() {
                                mcast_obs::trace::instant("sched.queue_depth", depth as i64);
                            }
                        } else {
                            if let Some(c) = counters {
                                c.quarantined.add(1);
                            }
                            mcast_obs::error!(
                                "sched",
                                "task {} quarantined after {} attempts: {}",
                                task.label,
                                task.attempts,
                                failure.payload
                            );
                            outcomes
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .push(TaskOutcome {
                                    label: task.label,
                                    experiment: task.experiment,
                                    status: TaskStatus::Quarantined,
                                    attempts: task.attempts,
                                    failure: Some(failure),
                                });
                        }
                    }
                }
            });
        }
    });

    let mut outcomes = outcomes.into_inner().unwrap_or_else(|e| e.into_inner());
    // Tasks still queued after a fail-fast abort never ran.
    for task in queue.into_inner().unwrap_or_else(|e| e.into_inner()) {
        outcomes.push(TaskOutcome {
            label: task.label,
            experiment: task.experiment,
            status: TaskStatus::Skipped,
            attempts: task.attempts,
            failure: None,
        });
    }
    outcomes.sort_by(|a, b| a.label.cmp(&b.label));
    let mut reports_map = reports_map.into_inner().unwrap_or_else(|e| e.into_inner());
    let aborted = abort.load(Ordering::Relaxed);

    // Phase B: assemble the curve-decomposed figures (and verdict, which
    // grades them) on this thread, in request order. Their inner
    // measurement calls hit the memo, so assembly is cheap; any panic
    // here is captured the same way.
    let task_ok = |outcomes: &[TaskOutcome], pred: &dyn Fn(&TaskOutcome) -> bool| {
        outcomes
            .iter()
            .filter(|o| pred(o))
            .all(|o| o.status == TaskStatus::Ok)
    };
    let mut assembled: HashSet<String> = HashSet::new();
    for id in ids {
        if assembled.contains(id) || reports_map.contains_key(id) {
            continue;
        }
        let is_assembly = matches!(id.as_str(), "fig1" | "fig6" | "verdict");
        if !is_assembly {
            continue;
        }
        assembled.insert(id.clone());
        let deps_ok = !aborted
            && match id.as_str() {
                // A figure needs all of its own curve tasks.
                "fig1" | "fig6" => task_ok(&outcomes, &|o: &TaskOutcome| {
                    o.label.starts_with(&format!("{id}/"))
                }),
                // The verdict grades the whole suite; any quarantined
                // task would force it to re-measure the poisoned curve.
                _ => task_ok(&outcomes, &|_| true),
            };
        if !deps_ok {
            mcast_obs::warn!(
                "sched",
                "skipping {id}: dependencies quarantined or aborted"
            );
            outcomes.push(TaskOutcome {
                label: id.clone(),
                experiment: id.clone(),
                status: TaskStatus::Skipped,
                attempts: 0,
                failure: None,
            });
            continue;
        }
        let _span = mcast_obs::span_at(format!("sched/{id}/assemble"));
        match catch_unwind(AssertUnwindSafe(|| suite::run(id, cfg))) {
            Ok(Some(report)) => {
                reports_map.insert(id.clone(), report);
                outcomes.push(TaskOutcome {
                    label: id.clone(),
                    experiment: id.clone(),
                    status: TaskStatus::Ok,
                    attempts: 1,
                    failure: None,
                });
            }
            Ok(None) => unreachable!("resolved id `{id}` must be registered"),
            Err(p) => {
                let payload = runner::payload_text(p);
                if let Some(c) = &counters {
                    c.panic.add(1);
                    c.quarantined.add(1);
                }
                mcast_obs::error!("sched", "assembly of {id} panicked: {payload}");
                outcomes.push(TaskOutcome {
                    label: id.clone(),
                    experiment: id.clone(),
                    status: TaskStatus::Quarantined,
                    attempts: 1,
                    failure: Some(TaskFailure {
                        payload,
                        groups: Vec::new(),
                    }),
                });
            }
        }
    }

    let reports: Vec<Report> = ids
        .iter()
        .filter_map(|id| reports_map.get(id).cloned())
        .collect();
    let status = if outcomes.iter().any(|o| o.status == TaskStatus::Failed) {
        SuiteStatus::Failed
    } else if outcomes
        .iter()
        .any(|o| matches!(o.status, TaskStatus::Quarantined | TaskStatus::Skipped))
    {
        if reports.is_empty() && !ids.is_empty() {
            SuiteStatus::Failed
        } else {
            SuiteStatus::Partial
        }
    } else {
        SuiteStatus::Complete
    };
    SuiteRun {
        reports,
        outcomes,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_orders_big_topologies_first_and_dedups() {
        let cfg = RunConfig::fast();
        let ids: Vec<String> = ["fig1", "fig2", "fig1", "verdict"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let tasks = plan_tasks(&ids, &cfg);
        // fig1 curves (8, deduped across the repeat and verdict's
        // pre-warm) + fig6 curves (8, from verdict) + fig2.
        assert_eq!(tasks.len(), 17);
        assert!(tasks.windows(2).all(|w| w[0].cost >= w[1].cost));
        assert_eq!(tasks[0].label, "fig1/Internet");
        assert_eq!(tasks[1].label, "fig6/Internet");
        assert!(tasks.iter().any(|t| t.label == "fig2"));
        let labels: HashSet<&str> = tasks.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels.len(), tasks.len(), "labels are unique");
    }

    #[test]
    fn costs_cover_every_experiment_and_network() {
        let cfg = RunConfig::fast();
        for id in suite::EXPERIMENT_IDS {
            assert!(experiment_cost(id) > 0);
        }
        for (name, _) in CURVE_NETS {
            assert!(curve_cost(name, &cfg) > 0);
        }
        // Paper-scale Internet dominates everything, as in Table 1.
        let paper = RunConfig {
            scale: crate::config::Scale::Paper,
            ..cfg
        };
        assert!(curve_cost("Internet", &paper) > curve_cost("Internet", &cfg));
    }

    #[test]
    fn scheduled_reports_match_sequential_bit_identically() {
        let _guard = crate::runner::tests::cache_test_lock();
        mcast_store::deactivate();
        let cfg = RunConfig {
            threads: 2,
            ..RunConfig::fast()
        };
        let ids: Vec<String> = ["fig2", "fig3", "fig5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let run = run_suite(&ids, &cfg, &SchedPolicy::default());
        assert_eq!(run.status, SuiteStatus::Complete);
        assert_eq!(run.reports.len(), 3);
        assert!(run.outcomes.iter().all(|o| o.status == TaskStatus::Ok));
        for (id, scheduled) in ids.iter().zip(&run.reports) {
            // Derived PartialEq covers every field, points included;
            // rendering is a pure function of the report, so equal
            // reports mean byte-identical artefacts.
            let sequential = suite::run(id, &cfg).unwrap();
            assert_eq!(&sequential, scheduled, "{id} differs");
        }
    }

    #[test]
    fn empty_request_is_complete() {
        let run = run_suite(&[], &RunConfig::fast(), &SchedPolicy::default());
        assert_eq!(run.status, SuiteStatus::Complete);
        assert!(run.reports.is_empty());
        assert!(run.outcomes.is_empty());
    }
}
