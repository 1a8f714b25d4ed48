//! Golden-report regression tests for the two §4 figures — fig7's
//! averaged `T(r)` flows through the batched BFS kernel's totals sweep,
//! fig6's measured curves and Eq 30 prediction through the scalar BFS —
//! and for the churn experiment, whose numbers flow through the
//! incremental member tree.
//!
//! The fixtures under `goldens/` are rendered with
//! [`mcast_experiments::render::report_canonical`] — every float as its
//! IEEE-754 bit pattern — with `RunConfig { threads: 2, ..RunConfig::fast() }`
//! and the rand 0.8 random stream. The commit *before* the batched kernel
//! landed renders the same bytes, as do `results/fig6.json` and
//! `results/fig7.json`; `churn-fast.txt` was rendered the same way
//! before churn moved onto `storm::SessionTree`. A byte mismatch here
//! means a change moved a measured number, not just its formatting.

use mcast_experiments::config::RunConfig;
use mcast_experiments::figures::{churn, fig6, fig7};
use mcast_experiments::render::report_canonical;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests that must see the kernel's default direction and
/// lane width against the one that overrides those process globals.
fn kernel_mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn cfg() -> RunConfig {
    RunConfig {
        threads: 2,
        ..RunConfig::fast()
    }
}

/// Point out the first differing line, not a megabyte diff.
fn assert_canonical_eq(got: &str, want: &str, name: &str) {
    if got == want {
        return;
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{name}: first divergence at line {} (1-based)", i + 1);
    }
    panic!(
        "{name}: line counts differ: got {}, golden {}",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
fn fig6_report_is_byte_identical_to_prebatch_golden() {
    let report = fig6::run(&cfg());
    assert_canonical_eq(
        &report_canonical(&report),
        include_str!("goldens/fig6-fast.txt"),
        "fig6",
    );
}

#[test]
fn fig7_report_is_byte_identical_to_prebatch_golden() {
    let _mode = kernel_mode_lock();
    let report = fig7::run(&cfg());
    assert_canonical_eq(
        &report_canonical(&report),
        include_str!("goldens/fig7-fast.txt"),
        "fig7",
    );
}

#[test]
fn churn_report_is_byte_identical_to_its_golden() {
    // Recorded before churn moved from the dense per-node member tree to
    // the sparse `SessionTree`: the tree representation must not move a
    // single number.
    let report = churn::run(&cfg());
    assert_canonical_eq(
        &report_canonical(&report),
        include_str!("goldens/churn-fast.txt"),
        "churn",
    );
}

#[test]
fn fig7_report_is_byte_identical_in_every_kernel_mode() {
    // The direction-optimising wide-lane kernel must not move a single
    // bit of any artefact: replay fig7 (whose T(r) comes from
    // `run_totals`) with the traversal forced top-down, forced
    // bottom-up, and at each supported lane cap, and demand the
    // pre-batch golden every time. The overrides are process globals,
    // so the lock keeps the default-mode golden test out of this one.
    // storm_pins.rs does the same for the distance-recording `run`.
    use mcast_topology::batch::{set_direction_override, set_lane_limit, DirectionOverride};
    let _mode = kernel_mode_lock();
    let golden = include_str!("goldens/fig7-fast.txt");
    for (name, dir) in [
        ("push-only", DirectionOverride::Push),
        ("pull-enabled", DirectionOverride::Pull),
        ("auto", DirectionOverride::Auto),
    ] {
        set_direction_override(Some(dir));
        let report = fig7::run(&cfg());
        set_direction_override(None);
        assert_canonical_eq(&report_canonical(&report), golden, name);
    }
    for width in [64usize, 256, 512] {
        set_lane_limit(Some(width));
        let report = fig7::run(&cfg());
        set_lane_limit(None);
        assert_canonical_eq(
            &report_canonical(&report),
            golden,
            &format!("width-{width}"),
        );
    }
}
