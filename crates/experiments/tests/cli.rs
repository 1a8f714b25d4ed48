//! End-to-end tests of the `mcs` binary.

use mcast_obs::json::{self, Value};
use std::process::Command;

fn mcs() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mcs"))
}

#[test]
fn list_shows_every_experiment() {
    let out = mcs().arg("list").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for id in mcast_experiments::suite::EXPERIMENT_IDS {
        assert!(stdout.contains(id), "missing {id} in list output");
    }
}

#[test]
fn runs_an_exact_figure_and_writes_artefacts() {
    let dir = std::env::temp_dir().join(format!("mcs-cli-test-{}", std::process::id()));
    let out = mcs()
        .args(["--fast", "--out", dir.to_str().unwrap(), "fig8"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fig8"));
    assert!(stdout.contains("S(r) = 2^r"));
    for f in [
        "fig8.json",
        "fig8.csv",
        "fig8.dat",
        "fig8.svg",
        "fig8-sim.csv",
    ] {
        assert!(dir.join(f).exists(), "missing artefact {f}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seed_changes_measured_output() {
    let run = |seed: &str| {
        let out = mcs()
            .args(["--fast", "--seed", seed, "--threads", "2", "fig2"])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    // fig2 is exact: identical regardless of seed (regression guard for
    // accidental nondeterminism in exact paths).
    assert_eq!(run("1"), run("2"));
}

#[test]
fn measure_subcommand_works_on_an_edge_list() {
    let dir = std::env::temp_dir();
    let file = dir.join(format!("mcs-measure-{}.txt", std::process::id()));
    // A 6-cycle with chords.
    std::fs::write(&file, "0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n1 4\n").unwrap();
    let out = mcs()
        .args(["--fast", "measure", file.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("topology statistics"));
    assert!(stdout.contains("exponent"));
    std::fs::remove_file(&file).ok();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = mcs().output().expect("binary runs");
    assert!(!out.status.success());
    let out = mcs().arg("fig99").output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment"));
    let out = mcs().arg("--bogus").output().expect("binary runs");
    assert!(!out.status.success());
    let out = mcs()
        .args(["measure", "/nonexistent/file"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn rejects_bad_flag_combinations() {
    // --threads 0 is no longer silently "all cores".
    let out = mcs().args(["--threads", "0", "fig2"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("at least 1"), "stderr: {err}");

    // --verbose and --quiet conflict.
    let out = mcs()
        .args(["--verbose", "--quiet", "fig2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("mutually exclusive"), "stderr: {err}");

    // measure takes exactly one file.
    let out = mcs().args(["measure", "a.txt", "b.txt"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("exactly one"), "stderr: {err}");
}

#[test]
fn quiet_suppresses_stdout_and_verbose_emits_jsonl() {
    let out = mcs().args(["--quiet", "fig2"]).output().unwrap();
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "quiet run printed a report");

    let out = mcs().args(["--verbose", "fig2"]).output().unwrap();
    assert!(out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("\"level\": \"info\""),
        "verbose run emitted no info events: {err}"
    );
    assert!(err.contains("fig2"), "event should name the experiment");
}

#[test]
fn metrics_dump_is_valid_json_with_spans_and_meta() {
    let dir = std::env::temp_dir().join(format!("mcs-metrics-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mpath = dir.join("m.json");
    let out = mcs()
        .args([
            "--fast",
            "--seed",
            "42",
            "--threads",
            "2",
            "--metrics",
            mpath.to_str().unwrap(),
            "fig2",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&mpath).expect("metrics file written");
    let v = json::parse(&text).expect("metrics dump parses");
    let meta = v.get("meta").expect("meta block");
    assert_eq!(meta.get("seed").and_then(Value::as_u64), Some(42));
    assert_eq!(meta.get("scale").and_then(Value::as_str), Some("fast"));
    assert_eq!(meta.get("threads").and_then(Value::as_u64), Some(2));
    assert!(
        meta.get("duration_ms").and_then(Value::as_f64).unwrap() > 0.0,
        "wall time recorded"
    );
    // Per-experiment wall time: the fig2 span exists with a numeric total.
    let total_ms = v
        .get("spans")
        .and_then(|s| s.get("fig2"))
        .and_then(|s| s.get("total_ms"));
    assert!(
        total_ms.and_then(Value::as_f64).is_some(),
        "missing fig2 span: {text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn suite_only_rejects_unknown_ids_listing_known_ones() {
    let out = mcs()
        .args(["--fast", "--only", "fig2,nope", "suite"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown experiment `nope`"), "stderr: {err}");
    for id in mcast_experiments::suite::EXPERIMENT_IDS {
        assert!(err.contains(id), "error must list known id {id}: {err}");
    }

    // --only outside `suite` is rejected up front.
    let out = mcs().args(["--only", "fig2", "fig2"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("suite"), "stderr: {err}");
}

#[test]
fn suite_only_runs_exactly_the_requested_figures() {
    let out = mcs()
        .args(["--fast", "--only", "fig2, fig8", "suite"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("fig2"));
    assert!(stdout.contains("fig8"));
    assert!(!stdout.contains("fig3"), "fig3 was not requested");
}

#[test]
fn resume_without_cache_dir_is_rejected() {
    let out = mcs().args(["--resume", "fig2"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--cache-dir"), "stderr: {err}");
}

#[test]
fn topo_pack_verify_unpack_round_trips() {
    let dir = std::env::temp_dir().join(format!("mcs-topo-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let edges = dir.join("in.txt");
    std::fs::write(&edges, "0 1\n1 2\n2 3\n3 0\n1 3\n").unwrap();
    let packed = dir.join("g.mct");
    let unpacked = dir.join("out.txt");

    let out = mcs()
        .args([
            "topo",
            "pack",
            edges.to_str().unwrap(),
            packed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("4 nodes / 5 edges"));

    let out = mcs()
        .args(["topo", "verify", packed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("OK"), "verify output: {stdout}");
    assert!(stdout.contains("4 nodes"));

    let out = mcs()
        .args([
            "topo",
            "unpack",
            packed.to_str().unwrap(),
            unpacked.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    // Pack(unpack(x)) is a fixed point: same graph, same bytes.
    let repacked = dir.join("g2.mct");
    let out = mcs()
        .args([
            "topo",
            "pack",
            unpacked.to_str().unwrap(),
            repacked.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(&packed).unwrap(),
        std::fs::read(&repacked).unwrap(),
        "pack → unpack → pack must reproduce identical bytes"
    );

    // A flipped byte makes verify fail with a typed complaint.
    let mut bytes = std::fs::read(&packed).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&packed, &bytes).unwrap();
    let out = mcs()
        .args(["topo", "verify", packed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("payload"), "stderr: {err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_cached_run_hits_at_least_95_percent_and_is_byte_identical() {
    let base = std::env::temp_dir().join(format!("mcs-cache-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");
    let run = |out_dir: &std::path::Path, metrics: &std::path::Path| {
        let out = mcs()
            .args([
                "--fast",
                "--seed",
                "5",
                "--threads",
                "2",
                "--quiet",
                "--cache-dir",
                cache.to_str().unwrap(),
                "--out",
                out_dir.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
                "--only",
                "fig1,fig2,fig8",
                "suite",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let (out1, out2) = (base.join("out1"), base.join("out2"));
    let (m1, m2) = (base.join("m1.json"), base.join("m2.json"));
    run(&out1, &m1);
    run(&out2, &m2);

    // The second identical run is served from the cache: ≥95% hit rate.
    let text = std::fs::read_to_string(&m2).unwrap();
    let v = json::parse(&text).unwrap();
    let counter = |name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    };
    let (hits, misses) = (counter("store.cache.hit"), counter("store.cache.miss"));
    assert!(hits > 0, "second run recorded no cache hits: {text}");
    let rate = hits as f64 / (hits + misses) as f64;
    assert!(
        rate >= 0.95,
        "hit rate {rate:.3} ({hits} hits / {misses} misses)"
    );

    // ... and reproduces every artefact byte for byte.
    for entry in std::fs::read_dir(&out1).unwrap() {
        let name = entry.unwrap().file_name();
        assert_eq!(
            std::fs::read(out1.join(&name)).unwrap(),
            std::fs::read(out2.join(&name)).unwrap(),
            "artefact {name:?} differs between cold and warm runs"
        );
    }

    // The cache subcommands see a healthy store.
    let cache_cmd = |op: &str| {
        mcs()
            .args(["--cache-dir", cache.to_str().unwrap(), "cache", op])
            .output()
            .unwrap()
    };
    let out = cache_cmd("ls");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains("0 object(s)"), "ls: {stdout}");
    assert!(
        stdout.contains("report"),
        "ls should show report objects: {stdout}"
    );
    let out = cache_cmd("verify");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("0 corrupt"));
    // Nothing stale to collect after clean completions.
    let out = cache_cmd("gc");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("removed 0"));

    // A corrupted object is reported by verify and collected by gc.
    let objects: Vec<std::path::PathBuf> = walk_mco(&cache.join("objects"));
    assert!(!objects.is_empty());
    let victim = &objects[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(victim, &bytes).unwrap();
    let out = cache_cmd("verify");
    assert!(
        !out.status.success(),
        "verify must fail on a corrupt object"
    );
    let out = cache_cmd("gc");
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("removed 1"));
    assert!(!victim.exists(), "gc must remove the corrupt object");

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn cache_gc_dry_run_lists_evictions_without_deleting() {
    let base = std::env::temp_dir().join(format!("mcs-gc-dry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache_dir = base.join("cache");
    // Plant a healthy object, then corrupt it, and drop temp litter
    // beside it — both are gc candidates of different reasons.
    let corrupt_key_hex;
    {
        let cache = mcast_store::DiskCache::open(&cache_dir).unwrap();
        let key = mcast_store::KeyBuilder::new("cli-test")
            .u64("x", 7)
            .finish();
        corrupt_key_hex = key.hex();
        cache
            .put(&key, mcast_store::ObjectKind::Curve, b"soon to be corrupt")
            .unwrap();
        let objects = walk_mco(&cache_dir.join("objects"));
        assert_eq!(objects.len(), 1);
        let mut bytes = std::fs::read(&objects[0]).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&objects[0], &bytes).unwrap();
        std::fs::write(cache_dir.join("objects").join("litter.tmp"), b"junk").unwrap();
    }
    let cache_cmd = |ops: &[&str]| {
        let mut args = vec!["--cache-dir", cache_dir.to_str().unwrap(), "cache"];
        args.extend(ops);
        mcs().args(&args).output().unwrap()
    };

    // Dry run: both candidates named (reason, bytes, key) — nothing gone.
    let out = cache_cmd(&["gc", "--dry-run"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 file(s) would be removed"), "{stdout}");
    assert!(stdout.contains("corrupt-object"), "{stdout}");
    assert!(stdout.contains("temp-litter"), "{stdout}");
    assert!(stdout.contains(&corrupt_key_hex), "{stdout}");
    assert_eq!(walk_mco(&cache_dir.join("objects")).len(), 1, "object kept");
    assert!(
        cache_dir.join("objects").join("litter.tmp").exists(),
        "litter kept"
    );

    // The real gc then removes exactly what the plan listed.
    let out = cache_cmd(&["gc"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("removed 2"));
    assert!(walk_mco(&cache_dir.join("objects")).is_empty());
    assert!(!cache_dir.join("objects").join("litter.tmp").exists());

    // An empty plan is an empty dry run.
    let out = cache_cmd(&["gc", "--dry-run"]);
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("0 file(s) would be removed"));

    std::fs::remove_dir_all(&base).ok();
}

fn walk_mco(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut found = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return found;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            found.extend(walk_mco(&path));
        } else if path.extension().is_some_and(|e| e == "mco") {
            found.push(path);
        }
    }
    found.sort();
    found
}

#[test]
fn suite_scheduler_flags_are_validated() {
    // --keep-going / --fail-fast / --max-retries only make sense with
    // the suite subcommand.
    for args in [
        &["--keep-going", "fig2"][..],
        &["--fail-fast", "fig2"][..],
        &["--max-retries", "2", "fig2"][..],
    ] {
        let out = mcs().args(args).output().unwrap();
        assert!(!out.status.success(), "{args:?} must be rejected");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("suite"), "{args:?}: {err}");
    }

    let out = mcs()
        .args(["--keep-going", "--fail-fast", "--only", "fig2", "suite"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("mutually exclusive"), "stderr: {err}");

    let out = mcs()
        .args(["--max-retries", "banana", "--only", "fig2", "suite"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// The acceptance drill from the issue: inject a panic into one source
/// group of one fig1 curve, run `suite --keep-going`, and check that the
/// run degrades to a *partial* report (exit 2) that names the failure,
/// with every surviving artefact byte-identical — then `--resume`
/// completes the suite from the checkpoints.
#[test]
fn keep_going_suite_survives_an_injected_panic_and_resumes() {
    let base = std::env::temp_dir().join(format!("mcs-fault-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let cache = base.join("cache");
    let (out_a, out_b, out_c) = (base.join("a"), base.join("b"), base.join("c"));
    let metrics = base.join("m.json");
    let common = |out_dir: &std::path::Path| {
        let mut cmd = mcs();
        cmd.args(["--fast", "--seed", "7", "--threads", "2"]);
        cmd.args(["--out", out_dir.to_str().unwrap()]);
        cmd.args(["--only", "fig1,fig2", "suite"]);
        cmd
    };

    // Baseline: a clean run of fig1 + fig2.
    let out = common(&out_a).arg("--quiet").output().unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Faulted run: source group 3 of the fig1/MBone curve panics on both
    // attempts (initial + the one retry), so the task is quarantined.
    let mut cmd = common(&out_b);
    cmd.args(["--keep-going", "--cache-dir", cache.to_str().unwrap()]);
    cmd.args(["--metrics", metrics.to_str().unwrap()]);
    cmd.env("MCS_FAULT_TASK", "fig1/MBone")
        .env("MCS_FAULT_GROUP", "3")
        .env("MCS_FAULT_TIMES", "2");
    let out = cmd.output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "partial suites exit 2\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("partial"), "summary: {stdout}");
    assert!(stdout.contains("quarantined"), "summary: {stdout}");
    assert!(stdout.contains("fig1/MBone"), "summary: {stdout}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("source group 3"),
        "stderr must name the failing source group: {stderr}"
    );

    // The surviving figure is byte-identical to the clean run; the
    // poisoned figure was never assembled.
    assert_eq!(
        std::fs::read(out_a.join("fig2.json")).unwrap(),
        std::fs::read(out_b.join("fig2.json")).unwrap(),
        "fig2 must be unaffected by the fig1 fault"
    );
    assert!(
        !out_b.join("fig1.json").exists(),
        "fig1 must not be assembled from a quarantined curve"
    );

    // Metrics record the two captured panics, the retry, and the
    // quarantine decision (substring match: the dump is plain JSON).
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("\"sched.task.panic\": 2"), "{text}");
    assert!(text.contains("\"sched.task.retry\": 1"), "{text}");
    assert!(text.contains("\"sched.task.quarantined\": 1"), "{text}");

    // Resume with the fault gone: only the failed groups re-measure and
    // the suite completes, reproducing the baseline bytes.
    let mut cmd = common(&out_c);
    cmd.args([
        "--quiet",
        "--cache-dir",
        cache.to_str().unwrap(),
        "--resume",
    ]);
    let out = cmd.output().unwrap();
    assert!(
        out.status.success(),
        "resume must complete: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for f in ["fig1.json", "fig2.json"] {
        assert_eq!(
            std::fs::read(out_a.join(f)).unwrap(),
            std::fs::read(out_c.join(f)).unwrap(),
            "{f} after resume differs from a clean run"
        );
    }

    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn metrics_flag_never_changes_artefacts() {
    let base = std::env::temp_dir().join(format!("mcs-obs-identity-{}", std::process::id()));
    let plain = base.join("plain");
    let observed = base.join("observed");
    let run = |dir: &std::path::Path, metrics: Option<&std::path::Path>| {
        let mut cmd = mcs();
        cmd.args(["--fast", "--threads", "2", "--out", dir.to_str().unwrap()]);
        if let Some(m) = metrics {
            cmd.args(["--metrics", m.to_str().unwrap()]);
        }
        let out = cmd.arg("fig2").output().unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    run(&plain, None);
    let m = base.join("m.json");
    run(&observed, Some(&m));
    let a = std::fs::read(plain.join("fig2.json")).unwrap();
    let b = std::fs::read(observed.join("fig2.json")).unwrap();
    assert_eq!(a, b, "fig2.json must be byte-identical with --metrics");
    std::fs::remove_dir_all(&base).ok();
}
