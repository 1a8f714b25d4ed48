//! Session dynamics meet pricing: what a static tariff misses.
//!
//! A multicast session's membership churns; the Chuang–Sirbu tariff
//! prices a snapshot. This example runs the M/M/∞ join/leave process on a
//! transit-stub network, compares the time-averaged tree cost with the
//! tariff's charge at the mean group size, and reports the graft/prune
//! signalling load — the operational cost that only a dynamic model can
//! show.
//!
//! Run with: `cargo run --release --example session_churn`

use mcast_core::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let graph = mcast_core::gen::transit_stub::transit_stub(
        TransitStubParams::ts1000(),
        &mut StdRng::seed_from_u64(77),
    )
    .expect("valid parameters");
    let (ubar, _) = mcast_core::topology::metrics::exact_path_stats(&graph);
    let tariff = Tariff::chuang_sirbu(ubar);
    println!("ts1000-style network, u = {ubar:.2} hops\n");

    println!("mean-size  members  tree-links  CS-charge  charge/cost  grafts+prunes/event");
    for nu in [3.0, 10.0, 30.0, 100.0, 300.0] {
        let cfg = ChurnConfig {
            arrival_rate: nu,
            mean_lifetime: 1.0,
            lifetime_shape: LifetimeShape::Exponential,
            warmup_events: 3_000,
            sample_events: 30_000,
            seed: 42,
        };
        let out = try_simulate_churn(&graph, 0, &cfg).expect("calendar stays in sync");
        let charge = tariff.charge(nu.round() as usize);
        println!(
            "{:>9} {:>8.1} {:>11.1} {:>10.1} {:>12.2} {:>18.2}",
            nu,
            out.mean_members,
            out.mean_links,
            charge,
            charge / out.mean_links,
            (out.grafts + out.prunes) as f64 / cfg.sample_events as f64,
        );
    }
    println!(
        "\nThe m^0.8 tariff tracks even the *time-averaged* cost of a churning\n\
         session within tens of percent — and bigger sessions absorb membership\n\
         changes with fewer link grafts/prunes per event."
    );
}
