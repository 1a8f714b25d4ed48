//! End-to-end tests of the `--trace` run-telemetry sidecars and the
//! `mcs obs` post-processing family.
//!
//! Everything here parses the sidecars with `mcast_obs::json` /
//! `mcast_obs::export`.
//!
//! Every test runs traced `mcs` processes, and one compares the span
//! shares of two of them, so the tests take turns: under the parallel
//! test runner a sibling's runs would share the CPUs with the two runs
//! being compared and skew their profiles.

use mcast_obs::export::{parse_trace, summarize};
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Held for the whole of each test in this file.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    // A failed sibling poisons the lock; the turn is still free.
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

fn mcs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcs"))
}

/// Fresh scratch directory, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcs-trace-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn traced_suite_produces_reportable_trace_and_run_meta() {
    let _turn = one_at_a_time();
    let base = scratch("report");
    let tdir = base.join("t");
    let out = mcs()
        .args(["--fast", "--seed", "7", "--threads", "2", "--quiet"])
        .args(["--trace", tdir.to_str().unwrap(), "--trace-alloc"])
        .args(["--only", "fig2,fig8", "suite"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace parses and summarises: scheduler wrapper spans exist,
    // timestamps are ordered, and --trace-alloc attributed allocations.
    let text = std::fs::read_to_string(tdir.join("trace.jsonl")).unwrap();
    let trace = parse_trace(&text).unwrap();
    assert!(
        trace.spans.iter().any(|s| s.path.starts_with("sched/fig2")),
        "missing sched wrapper spans"
    );
    assert!(trace.spans.iter().all(|s| s.t1_ns >= s.t0_ns));
    assert!(
        trace.spans.iter().any(|s| s.alloc.is_some()),
        "--trace-alloc must attach alloc deltas"
    );
    let summary = summarize(&trace);
    assert!(summary.duration_ns > 0);
    assert!(!summary.lanes.is_empty());
    assert!(summary.total_self_ns() > 0);
    // Lane busy is an interval union: it can never exceed the extent.
    for lane in &summary.lanes {
        assert!(lane.busy_ns <= summary.duration_ns, "lane over 100%");
    }

    // run-meta.json carries the real wall clock and points at the trace.
    let meta_text = std::fs::read_to_string(tdir.join("run-meta.json")).unwrap();
    let meta = mcast_obs::json::parse(&meta_text).unwrap();
    assert!(meta
        .get("cmd")
        .and_then(|v| v.as_str())
        .unwrap()
        .contains("suite"));
    assert!(meta.get("duration_ms").and_then(|v| v.as_f64()).unwrap() > 0.0);
    assert_eq!(meta.get("exit").and_then(|v| v.as_u64()), Some(0));
    assert_eq!(meta.get("threads").and_then(|v| v.as_u64()), Some(2));
    assert_eq!(
        meta.get("alloc_counting").and_then(|v| v.as_bool()),
        Some(true)
    );

    // `mcs obs report` renders the summary table from the same file.
    let trace_path = tdir.join("trace.jsonl");
    let out = mcs()
        .args(["obs", "report", trace_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("span (top by self time)"), "{stdout}");
    assert!(stdout.contains("lanes"), "{stdout}");
    assert!(stdout.contains("sched/fig2"), "{stdout}");

    // `obs flame` and `obs chrome` both transform without error.
    let out = mcs()
        .args(["obs", "flame", trace_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(!out.stdout.is_empty());
    let out = mcs()
        .args(["obs", "chrome", trace_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let chrome = String::from_utf8(out.stdout).unwrap();
    assert!(chrome.starts_with("{\"traceEvents\":["), "{chrome}");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn obs_diff_of_identical_config_runs_exits_clean() {
    let _turn = one_at_a_time();
    let base = scratch("diff");
    let run = |tag: &str| {
        let tdir = base.join(tag);
        let out = mcs()
            .args(["--fast", "--seed", "7", "--quiet"])
            .args(["--trace", tdir.to_str().unwrap()])
            .args(["--only", "fig2,fig8", "suite"])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        tdir.join("trace.jsonl")
    };
    let a = run("a");
    let b = run("b");
    let out = mcs()
        .args(["obs", "diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "identical-config runs must pass the default budget\nstdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0 breach(es)"), "{stdout}");
    std::fs::remove_dir_all(&base).ok();
}

/// Satellite drill: a task that panics to quarantine must still close
/// every one of its spans in the trace — unwinding runs the span guards,
/// and `close_frame` degrades to lossy (no counter attribution) rather
/// than dropping the record.
#[test]
fn quarantined_task_still_closes_its_trace_spans() {
    let _turn = one_at_a_time();
    let base = scratch("fault");
    let tdir = base.join("t");
    let out = mcs()
        .args(["--fast", "--seed", "7", "--threads", "2", "--quiet"])
        .args(["--trace", tdir.to_str().unwrap()])
        .args(["--only", "fig1,fig2", "--keep-going", "suite"])
        .env("MCS_FAULT_TASK", "fig1/MBone")
        .env("MCS_FAULT_GROUP", "3")
        .env("MCS_FAULT_TIMES", "2")
        .output()
        .expect("binary runs");
    assert_eq!(
        out.status.code(),
        Some(2),
        "partial suites exit 2\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(tdir.join("trace.jsonl")).unwrap();
    let trace = parse_trace(&text).unwrap();
    // Both attempts of the doomed task appear, closed: a span only
    // reaches the file with both endpoints present.
    let attempts = trace
        .spans
        .iter()
        .filter(|s| s.path == "sched/fig1/MBone")
        .count();
    assert_eq!(attempts, 2, "initial attempt + one retry, both closed");
    assert!(trace.spans.iter().all(|s| s.t1_ns >= s.t0_ns));
    // The survivors traced normally alongside the quarantined task.
    assert!(trace.spans.iter().any(|s| s.path.starts_with("sched/fig2")));
    // And the whole file still summarises (the report path works on
    // partial-run traces).
    let summary = summarize(&trace);
    assert!(summary.spans.contains_key("sched/fig1/MBone"));
    // run-meta records the partial exit.
    let meta_text = std::fs::read_to_string(tdir.join("run-meta.json")).unwrap();
    let meta = mcast_obs::json::parse(&meta_text).unwrap();
    assert_eq!(meta.get("exit").and_then(|v| v.as_u64()), Some(2));
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn cache_ls_shows_the_last_run_meta() {
    let _turn = one_at_a_time();
    let base = scratch("cachels");
    let cache = base.join("cache");
    let tdir = base.join("t");
    let out = mcs()
        .args(["--fast", "--seed", "7", "--quiet"])
        .args(["--cache-dir", cache.to_str().unwrap()])
        .args(["--trace", tdir.to_str().unwrap()])
        .arg("fig2")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(cache.join("run-meta.json").exists());
    let out = mcs()
        .args(["--cache-dir", cache.to_str().unwrap(), "cache", "ls"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("last run:"), "{stdout}");
    assert!(stdout.contains("thread(s)"), "{stdout}");
    assert!(stdout.contains("trace "), "{stdout}");
    std::fs::remove_dir_all(&base).ok();
}

/// The observability contract extended to traces: `--out` artefacts are
/// byte-identical whether or not a trace (and the counting allocator)
/// is recording.
#[test]
fn trace_on_off_artefacts_are_byte_identical() {
    let _turn = one_at_a_time();
    let base = scratch("bytes");
    let plain = base.join("plain");
    let traced = base.join("traced");
    let tdir = base.join("t");
    let out = mcs()
        .args(["--fast", "--seed", "7", "--quiet"])
        .args(["--out", plain.to_str().unwrap(), "fig8"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let out = mcs()
        .args(["--fast", "--seed", "7", "--quiet"])
        .args(["--out", traced.to_str().unwrap()])
        .args(["--trace", tdir.to_str().unwrap(), "--trace-alloc", "fig8"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let mut names: Vec<String> = std::fs::read_dir(&plain)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert!(!names.is_empty());
    let mut traced_names: Vec<String> = std::fs::read_dir(&traced)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    traced_names.sort();
    // Same file set — in particular no run-meta.json leaked into --out.
    assert_eq!(names, traced_names);
    for f in &names {
        assert_eq!(
            std::fs::read(plain.join(f)).unwrap(),
            std::fs::read(traced.join(f)).unwrap(),
            "{f} differs with tracing on"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}
