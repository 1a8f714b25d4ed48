//! Speed floor of the bit-parallel BFS kernel on the paper's largest
//! topology.
//!
//! Times 64 scalar BFS runs, each folded into one lane-summed `S(r)`
//! histogram, against a single 64-lane `BatchBfs::run_totals` sweep over
//! the same sources on ti5000, best of several repetitions each. The two
//! histograms must be equal and the batched sweep at least 6× faster.
//!
//! It is `#[ignore]`d because a wall-clock ratio means nothing in a debug
//! build or on a loaded runner; CI's `huge-smoke` job runs it with
//! `cargo test --release -p mcast-integration --test batch_speedup -- --ignored`.

use mcast_core::experiments::figures::table1::spread_sources;
use mcast_core::experiments::{networks, RunConfig};
use mcast_core::topology::batch::BatchBfs;
use mcast_core::topology::bfs::Bfs;
use mcast_core::topology::NodeId;
use std::time::{Duration, Instant};

/// The acceptance floor: batched over scalar wall time on ti5000.
const MIN_SPEEDUP: f64 = 6.0;

/// Timed repetitions per side; the fastest one counts.
const REPS: usize = 20;

/// Lane-summed discovery histogram from one scalar BFS per source.
fn scalar_totals(bfs: &mut Bfs<'_>, sources: &[NodeId]) -> Vec<u64> {
    let mut totals: Vec<u64> = Vec::new();
    for &s in sources {
        bfs.run_scratch(s);
        let dist = bfs.scratch_distances();
        for &v in bfs.scratch_order() {
            let r = dist[v as usize] as usize;
            if r >= totals.len() {
                totals.resize(r + 1, 0);
            }
            totals[r] += 1;
        }
    }
    totals
}

/// Lane-summed discovery histogram from one batched totals sweep.
fn batched_totals(batch: &mut BatchBfs<'_>, sources: &[NodeId]) -> Vec<u64> {
    batch.run_totals(sources);
    batch.level_totals().to_vec()
}

fn best_of<R>(mut f: impl FnMut() -> R) -> Duration {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed()
        })
        .min()
        .expect("at least one repetition")
}

#[test]
#[ignore = "wall-clock ratio; run in release with --ignored"]
fn batched_totals_sweep_is_at_least_6x_the_scalar_loop_on_ti5000() {
    let graph = networks::ti5000(&RunConfig::fast()).graph;
    let sources = spread_sources(&graph, 64);
    assert_eq!(sources.len(), 64);

    let mut bfs = Bfs::new(&graph);
    let mut batch = BatchBfs::new(&graph);
    let scalar = scalar_totals(&mut bfs, &sources);
    let batched = batched_totals(&mut batch, &sources);
    assert_eq!(scalar, batched, "batched and scalar S(r) histograms differ");

    let scalar_time = best_of(|| scalar_totals(&mut bfs, &sources));
    let batched_time = best_of(|| batched_totals(&mut batch, &sources));
    let speedup = scalar_time.as_secs_f64() / batched_time.as_secs_f64();
    eprintln!(
        "ti5000, 64 sources: scalar {scalar_time:?}, batched {batched_time:?}, {speedup:.1}x"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "batched sweep is {speedup:.2}x the scalar loop, below the {MIN_SPEEDUP}x floor"
    );
}
