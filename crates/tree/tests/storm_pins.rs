//! Pins the storm engine's outcomes bit for bit.
//!
//! A small flash crowd (one batched skeleton sweep) and a small steady
//! state (scalar skeletons, stale post-teardown leaves) on a generated
//! graph. Every `StormOutcome` field is compared with recorded values:
//! the counts exactly, the means and each sample's time as `to_bits()`.
//! Any change to the calendar order or to a skeleton's parents moves one
//! of them; re-pin only with a documented reason.

use mcast_gen::random::gnp_connected;
use mcast_topology::Graph;
use mcast_tree::dynamics::LifetimeShape;
use mcast_tree::storm::{
    simulate_flash, simulate_steady, FlashConfig, SteadyConfig, StormOutcome, StormSample,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

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

#[test]
fn flash_outcome_is_pinned() {
    let out = simulate_flash(&graph(), 0, &flash_cfg()).expect("consistent calendar");
    assert_pinned(
        &out,
        [
            2400, 960, 960, 240, 240, 0, 3400, 3400, 240, 741, 2670, 1, 167, 0,
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
