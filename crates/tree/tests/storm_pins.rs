//! Pins the storm engine's outcomes bit for bit.
//!
//! A small flash crowd (one batched skeleton sweep) and a small steady
//! state (scalar skeletons, stale post-teardown leaves) on a generated
//! graph. Every `StormOutcome` field is compared with recorded values:
//! the counts exactly, the means and each sample's time as `to_bits()`.
//! Any change to the calendar order or to a skeleton's parents moves one
//! of them; re-pin only with a documented reason. The flash run's one
//! skeleton sweep is the only workload caller of the BFS kernel's
//! distance-recording `run`, so it is also replayed in every kernel
//! direction and at every lane cap.

use mcast_gen::random::gnp_connected;
use mcast_topology::Graph;
use mcast_tree::dynamics::LifetimeShape;
use mcast_tree::storm::{
    simulate_flash, simulate_steady, FlashConfig, SteadyConfig, StormOutcome, StormSample,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Mutex, MutexGuard};

/// Serialises the tests that must see the kernel's default direction and
/// lane width against the one that overrides those process globals.
fn kernel_mode_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn graph() -> Graph {
    gnp_connected(300, 0.012, &mut StdRng::seed_from_u64(20)).expect("valid G(n, p) parameters")
}

fn flash_cfg() -> FlashConfig {
    FlashConfig {
        sessions: 240,
        receivers_per_session: 4,
        beta: 1.0,
        sampler_sweeps: 1,
        burst_time: 1.0,
        join_window: 2.0,
        mean_lifetime: 4.0,
        sample_every: 250,
        seed: 1999,
    }
}

fn steady_cfg() -> SteadyConfig {
    SteadyConfig {
        session_rate: 20.0,
        mean_session_lifetime: 2.0,
        member_rate: 3.0,
        mean_member_lifetime: 1.0,
        member_lifetime_shape: LifetimeShape::Exponential,
        horizon: 12.0,
        measure_from: 4.0,
        sample_every: 250,
        seed: 11,
    }
}

/// `(time bits, sessions, members, links, joins)` of one sample.
type Sample = (u64, u64, u64, u64, u64);

/// Counts in `StormOutcome` declaration order, from `events` to
/// `trees_built_scalar`.
type Counts = [u64; 14];

/// Compare every field of `out`; the destructuring is exhaustive, so a
/// new field fails to compile here until it is pinned too.
fn assert_pinned(out: &StormOutcome, counts: Counts, means: [u64; 3], samples: &[Sample]) {
    let StormOutcome {
        events,
        joins,
        leaves,
        sessions_started,
        sessions_ended,
        stale_events,
        grafted_links,
        pruned_links,
        peak_sessions,
        peak_members,
        peak_links,
        batch_sweeps,
        trees_built_batch,
        trees_built_scalar,
        mean_sessions,
        mean_members,
        mean_links,
        samples: got_samples,
    } = out;
    let got_counts = [
        *events,
        *joins,
        *leaves,
        *sessions_started,
        *sessions_ended,
        *stale_events,
        *grafted_links,
        *pruned_links,
        *peak_sessions,
        *peak_members,
        *peak_links,
        *batch_sweeps,
        *trees_built_batch,
        *trees_built_scalar,
    ];
    assert_eq!(got_counts, counts, "counts");
    let got_means = [
        mean_sessions.to_bits(),
        mean_members.to_bits(),
        mean_links.to_bits(),
    ];
    assert_eq!(
        got_means, means,
        "mean_sessions, mean_members, mean_links bits"
    );
    let got_samples: Vec<Sample> = got_samples
        .iter()
        .map(
            |&StormSample {
                 time,
                 sessions,
                 members,
                 links,
                 joins,
             }| { (time.to_bits(), sessions, members, links, joins) },
        )
        .collect();
    assert_eq!(got_samples, samples, "samples");
}

/// The flash run's pins; `skeletons` is `(batch_sweeps,
/// trees_built_batch, trees_built_scalar)`, the only counts the lane cap
/// may move.
fn assert_flash_pinned(out: &StormOutcome, skeletons: [u64; 3]) {
    let [sweeps, batch, scalar] = skeletons;
    assert_pinned(
        out,
        [
            2400, 960, 960, 240, 240, 0, 3400, 3400, 240, 741, 2670, sweeps, batch, scalar,
        ],
        [0x4049be72de6d28fd, 0x40558005b74ed8af, 0x4074d83e92e6537b],
        &[
            (0x3ff053e481d8ea9a, 240, 10, 46, 10),
            (0x3ff87253a0f9fd16, 240, 236, 948, 248),
            (0x3fff667fb34dac48, 240, 410, 1545, 460),
            (0x40030d6273837c75, 240, 548, 2031, 654),
            (0x4005d31ea03d2ba7, 239, 663, 2419, 836),
            (0x400b861175cf4b3a, 237, 663, 2424, 960),
            (0x4014498e553e1171, 218, 432, 1663, 960),
            (0x401d65fbdd42501b, 161, 239, 945, 960),
            (0x402901651289bf60, 71, 79, 325, 960),
        ],
    );
}

#[test]
fn flash_outcome_is_pinned() {
    let _mode = kernel_mode_lock();
    let out = simulate_flash(&graph(), 0, &flash_cfg()).expect("consistent calendar");
    assert_flash_pinned(&out, [1, 167, 0]);
}

#[test]
fn flash_outcome_is_pinned_in_every_kernel_mode() {
    // The 167 sources of the burst tick go through one batched `run`
    // sweep; its distances, and so every skeleton's lowest-id parents,
    // must not depend on the traversal direction or the lane cap. A
    // 64-lane cap splits the tick into two full sweeps and leaves the
    // 39-source tail, below the batch threshold, to the scalar path.
    use mcast_topology::batch::{set_direction_override, set_lane_limit, DirectionOverride};
    let _mode = kernel_mode_lock();
    let g = graph();
    for dir in [
        DirectionOverride::Push,
        DirectionOverride::Pull,
        DirectionOverride::Auto,
    ] {
        set_direction_override(Some(dir));
        let out = simulate_flash(&g, 0, &flash_cfg());
        set_direction_override(None);
        assert_flash_pinned(&out.expect("consistent calendar"), [1, 167, 0]);
    }
    for (width, skeletons) in [
        (64usize, [2, 128, 39]),
        (256, [1, 167, 0]),
        (512, [1, 167, 0]),
    ] {
        set_lane_limit(Some(width));
        let out = simulate_flash(&g, 0, &flash_cfg());
        set_lane_limit(None);
        assert_flash_pinned(&out.expect("consistent calendar"), skeletons);
    }
}

#[test]
fn steady_outcome_is_pinned() {
    let out = simulate_steady(&graph(), &steady_cfg()).expect("consistent calendar");
    assert_pinned(
        &out,
        [
            3236, 1368, 877, 250, 250, 491, 4826, 4826, 46, 105, 401, 0, 0, 170,
        ],
        [0x4042a10821d479ad, 0x405168068b88ac22, 0x4070614be2a63fc9],
        &[
            (0x400342327d3194ed, 32, 48, 178, 113),
            (0x400c712ce07c8cac, 30, 54, 210, 229),
            (0x4012c4fb98cd4bf8, 35, 67, 263, 341),
            (0x4017489927f43e26, 28, 63, 236, 444),
            (0x401ba443489575ca, 40, 56, 219, 538),
            (0x401fcd3bae2d5cf2, 38, 55, 208, 651),
            (0x4021fc1f913d3c46, 46, 61, 227, 750),
            (0x4023ec3822d1b45a, 42, 83, 301, 868),
            (0x4025a1d93adacfbf, 41, 91, 332, 987),
            (0x40272323d1da52c4, 38, 78, 305, 1091),
            (0x40291367fad8f8f2, 26, 60, 232, 1189),
            (0x402cbba57e446386, 9, 32, 126, 1285),
        ],
    );
}
