//! Kill-and-resume equivalence for the `mcs` binary.
//!
//! A run that is killed partway through and resumed with `--resume` must
//! produce artefacts bit-identical to an uninterrupted run — at *any*
//! thread count, because measured statistics are merged in plan-index
//! order and checkpoints persist only fully-measured dedup groups.
//!
//! The kill is scheduled at a fraction of a measured full-run duration,
//! so it lands mid-measure under most build profiles; whenever it
//! actually lands (before the first checkpoint, between groups, mid
//! append, or after completion), the resumed run must converge to the
//! same bytes. That timing-independence is the property under test.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

fn mcs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcs"))
}

/// Monte-Carlo figures (measured, not exact): the ones checkpointing
/// actually matters for.
const FIGS: &[&str] = &["fig1", "fig6"];

fn run_to_completion(args: &[&str]) {
    let out = mcs().args(args).output().expect("mcs runs");
    assert!(
        out.status.success(),
        "mcs {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Compare every artefact `ref_dir` produced against `got_dir`.
/// JSON reports embed run metadata (thread count), so they are only
/// compared when `include_json` is set (same-invocation comparisons).
fn assert_artifacts_identical(ref_dir: &Path, got_dir: &Path, include_json: bool) {
    let mut compared = 0;
    for entry in std::fs::read_dir(ref_dir).expect("reference dir") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name();
        let is_json = name.to_string_lossy().ends_with(".json");
        if is_json && !include_json {
            continue;
        }
        let a = std::fs::read(entry.path()).expect("reference artefact");
        let b = std::fs::read(got_dir.join(&name))
            .unwrap_or_else(|e| panic!("missing artefact {name:?}: {e}"));
        assert_eq!(a, b, "artefact {name:?} differs");
        compared += 1;
    }
    assert!(compared > 0, "no artefacts compared");
}

#[test]
fn killed_run_resumes_to_bit_identical_artifacts() {
    let base = std::env::temp_dir().join(format!("mcs-resume-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dir = |tag: &str| -> PathBuf { base.join(tag) };
    let s = |p: &PathBuf| p.to_str().unwrap().to_string();
    let cache = dir("cache");

    // Reference: uncached single-threaded run, also used to calibrate
    // the kill delay to the build profile under test.
    let started = Instant::now();
    let ref_out = dir("reference");
    let mut args = vec![
        "--fast",
        "--seed",
        "7",
        "--threads",
        "1",
        "--quiet",
        "--out",
        &*s(&ref_out),
    ]
    .into_iter()
    .map(String::from)
    .collect::<Vec<_>>();
    args.extend(FIGS.iter().map(|f| f.to_string()));
    run_to_completion(&args.iter().map(String::as_str).collect::<Vec<_>>()[..]);
    let full_run = started.elapsed();

    // Cached run at a different thread count, killed partway through.
    let killed_out = dir("killed");
    let mut child = mcs()
        .args([
            "--fast",
            "--seed",
            "7",
            "--threads",
            "2",
            "--quiet",
            "--cache-dir",
            &s(&cache),
            "--out",
            &s(&killed_out),
        ])
        .args(FIGS)
        .spawn()
        .expect("mcs spawns");
    std::thread::sleep((full_run / 2).max(Duration::from_millis(50)));
    let _ = child.kill();
    let _ = child.wait();

    // Resume at yet another thread count; must complete cleanly from
    // whatever mixture of cache objects and checkpoints the kill left.
    let resumed_out = dir("resumed");
    let mut resume_args = vec![
        "--fast",
        "--seed",
        "7",
        "--threads",
        "3",
        "--quiet",
        "--cache-dir",
        &*s(&cache),
        "--resume",
        "--out",
        &*s(&resumed_out),
    ]
    .into_iter()
    .map(String::from)
    .collect::<Vec<_>>();
    resume_args.extend(FIGS.iter().map(|f| f.to_string()));
    run_to_completion(&resume_args.iter().map(String::as_str).collect::<Vec<_>>()[..]);

    // Numeric artefacts are bit-identical to the uninterrupted reference
    // even though reference/killed/resumed all used different thread
    // counts. (JSON reports embed the thread count in their metadata and
    // are checked in the same-invocation comparison below.)
    assert_artifacts_identical(&ref_out, &resumed_out, false);

    // An identical re-invocation is served from the now-complete cache
    // and reproduces every artefact — including JSON — byte for byte.
    let rerun_out = dir("rerun");
    let mut rerun_args = vec![
        "--fast",
        "--seed",
        "7",
        "--threads",
        "3",
        "--quiet",
        "--cache-dir",
        &*s(&cache),
        "--out",
        &*s(&rerun_out),
    ]
    .into_iter()
    .map(String::from)
    .collect::<Vec<_>>();
    rerun_args.extend(FIGS.iter().map(|f| f.to_string()));
    run_to_completion(&rerun_args.iter().map(String::as_str).collect::<Vec<_>>()[..]);
    assert_artifacts_identical(&resumed_out, &rerun_out, true);

    // The completed cache passes its own integrity check.
    let out = mcs()
        .args(["--cache-dir", &s(&cache), "cache", "verify"])
        .output()
        .expect("cache verify runs");
    assert!(
        out.status.success(),
        "cache verify failed: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    let _ = std::fs::remove_dir_all(&base);
}
