//! Integration tests for the fault-isolated suite scheduler, driven
//! through the `fault-inject` hooks (enabled for tests via the
//! self-dev-dependency in Cargo.toml).
//!
//! The injector and the curve memo are process-global, so every test
//! takes [`sched_lock`].

use mcast_experiments::sched::{run_suite, SchedPolicy, SuiteStatus, TaskStatus};
use mcast_experiments::{fault, suite, RunConfig};

/// Serialises tests: the fault injector, curve memo, and store binding
/// are process-global.
fn sched_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn ids(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| s.to_string()).collect()
}

fn cfg() -> RunConfig {
    RunConfig {
        threads: 2,
        ..RunConfig::fast()
    }
}

#[test]
fn quarantined_task_does_not_stop_the_suite() {
    let _guard = sched_lock();
    fault::arm(Some("fig2"), None, 2); // fails on both attempts
    let run = run_suite(
        &ids(&["fig2", "fig3"]),
        &cfg(),
        &SchedPolicy {
            keep_going: true,
            max_retries: 1,
        },
    );
    fault::disarm();

    assert_eq!(run.status, SuiteStatus::Partial);
    assert_eq!(run.reports.len(), 1, "fig3 still completed");
    assert_eq!(run.reports[0].id, "fig3");
    let fig2 = run
        .outcomes
        .iter()
        .find(|o| o.label == "fig2")
        .expect("fig2 outcome recorded");
    assert_eq!(fig2.status, TaskStatus::Quarantined);
    assert_eq!(fig2.attempts, 2, "one run + one retry");
    let failure = fig2.failure.as_ref().expect("quarantine carries context");
    assert!(
        failure.payload.contains("injected fault at task fig2"),
        "{}",
        failure.payload
    );
    let fig3 = run.outcomes.iter().find(|o| o.label == "fig3").unwrap();
    assert_eq!(fig3.status, TaskStatus::Ok);
}

#[test]
fn transient_fault_is_retried_to_success() {
    let _guard = sched_lock();
    fault::arm(Some("fig3"), None, 1); // fails once, then heals
    let run = run_suite(
        &ids(&["fig2", "fig3"]),
        &cfg(),
        &SchedPolicy {
            keep_going: true,
            max_retries: 1,
        },
    );
    fault::disarm();

    assert_eq!(run.status, SuiteStatus::Complete);
    assert_eq!(run.reports.len(), 2);
    let fig3 = run.outcomes.iter().find(|o| o.label == "fig3").unwrap();
    assert_eq!(fig3.status, TaskStatus::Ok);
    assert_eq!(fig3.attempts, 2, "the retry succeeded");
    assert!(fig3.failure.is_none(), "success clears the failure context");
}

#[test]
fn fail_fast_aborts_the_suite() {
    let _guard = sched_lock();
    // One worker makes the abort deterministic: fig2 is popped first
    // (equal costs fall back to request order), fails, and the rest of
    // the queue is reported skipped.
    let seq = RunConfig {
        threads: 1,
        ..RunConfig::fast()
    };
    fault::arm(Some("fig2"), None, 1);
    let run = run_suite(
        &ids(&["fig2", "fig3", "fig5"]),
        &seq,
        &SchedPolicy::default(),
    );
    fault::disarm();

    assert_eq!(run.status, SuiteStatus::Failed);
    let fig2 = run.outcomes.iter().find(|o| o.label == "fig2").unwrap();
    assert_eq!(fig2.status, TaskStatus::Failed);
    assert_eq!(fig2.attempts, 1, "fail-fast never retries");
    for label in ["fig3", "fig5"] {
        let o = run.outcomes.iter().find(|o| o.label == label).unwrap();
        assert_eq!(o.status, TaskStatus::Skipped, "{label} never ran");
        assert_eq!(o.attempts, 0);
    }
    assert!(run.reports.is_empty(), "nothing completed before the abort");
}

#[test]
fn surviving_reports_are_bit_identical_to_sequential_runs() {
    let _guard = sched_lock();
    fault::arm(Some("fig4"), None, 2);
    let run = run_suite(
        &ids(&["fig4", "fig3", "fig8"]),
        &cfg(),
        &SchedPolicy {
            keep_going: true,
            max_retries: 1,
        },
    );
    fault::disarm();

    assert_eq!(run.status, SuiteStatus::Partial);
    assert_eq!(run.reports.len(), 2);
    for report in &run.reports {
        // Derived PartialEq covers every field; rendering is a pure
        // function of the report, so equality means byte-identical
        // artefacts.
        let sequential = suite::run(&report.id, &cfg()).expect("registered id");
        assert_eq!(
            &sequential, report,
            "{} must be unaffected by the quarantined task",
            report.id
        );
    }
}

#[test]
fn failures_iterator_surfaces_only_broken_tasks() {
    let _guard = sched_lock();
    fault::arm(Some("fig5"), None, 2);
    let run = run_suite(
        &ids(&["fig5", "fig2"]),
        &cfg(),
        &SchedPolicy {
            keep_going: true,
            max_retries: 1,
        },
    );
    fault::disarm();

    let failed: Vec<&str> = run.failures().map(|o| o.label.as_str()).collect();
    assert_eq!(failed, vec!["fig5"]);
}

#[test]
fn faulted_churn_curve_quarantines_churn_only() {
    let _guard = sched_lock();
    // Kill one mean-size point inside the churn figure (task "churn",
    // group index 2) on both attempts: the typed fallible path must
    // name that group in the quarantine report, and the sibling
    // experiment must come out byte-identical to a sequential run.
    fault::arm(Some("churn"), Some(2), 2);
    let run = run_suite(
        &ids(&["churn", "fig2"]),
        &cfg(),
        &SchedPolicy {
            keep_going: true,
            max_retries: 1,
        },
    );
    fault::disarm();

    assert_eq!(run.status, SuiteStatus::Partial);
    let churn = run.outcomes.iter().find(|o| o.label == "churn").unwrap();
    assert_eq!(churn.status, TaskStatus::Quarantined);
    assert_eq!(churn.attempts, 2);
    let failure = churn.failure.as_ref().expect("quarantine carries context");
    assert_eq!(failure.groups.len(), 1, "exactly one point died");
    assert_eq!(failure.groups[0].group_index, 2);
    assert!(
        failure.groups[0].payload.contains("injected fault"),
        "{}",
        failure.groups[0].payload
    );
    // Every surviving point still ran before the error was reported.
    assert!(
        failure.payload.contains("5 completed"),
        "{}",
        failure.payload
    );

    assert_eq!(run.reports.len(), 1, "fig2 still completed");
    let sequential = suite::run("fig2", &cfg()).expect("registered id");
    assert_eq!(&sequential, &run.reports[0], "survivor must be untouched");
}

#[test]
fn clean_suite_is_complete_with_one_outcome_per_task() {
    let _guard = sched_lock();
    fault::disarm();
    let run = run_suite(&ids(&["fig2", "fig8"]), &cfg(), &SchedPolicy::default());
    assert_eq!(run.status, SuiteStatus::Complete);
    assert_eq!(run.reports.len(), 2);
    assert_eq!(run.outcomes.len(), 2);
    assert!(run.outcomes.iter().all(|o| o.status == TaskStatus::Ok));
    assert!(run.outcomes.iter().all(|o| o.attempts == 1));
    assert_eq!(run.failures().count(), 0);
}
