//! Proof of the engine's zero-allocation steady state: after warm-up,
//! re-binding sources and drawing samples must not touch the allocator.
//!
//! A counting global allocator wraps the system one; the single test in
//! this binary snapshots the allocation count around the steady-state
//! loop. (Keep this file at exactly one test: the counter is global, so a
//! concurrently running sibling test would make it noisy.)

use mcast_gen::arpa::arpa;
use mcast_tree::measure::{measure_group, MeasureConfig, MeasureEngine, SampleKind, SourcePlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_sampling_performs_no_allocation() {
    let graph = arpa();
    let cfg = MeasureConfig {
        sources: 60,
        receiver_sets: 3,
        seed: 2026,
    };
    let xs = [2usize, 8, 16];
    let mut engine = MeasureEngine::new(&graph);

    // Warm-up: visit every source once at the largest group size, growing
    // each buffer (BFS queue, sizer arrays, receiver buffer, Floyd dedup
    // set) to its high-water mark.
    for s in 0..graph.node_count() as u32 {
        let m = engine.bind(s, None);
        let mut rng = mcast_tree::measure::source_rng(cfg.seed, s as usize);
        let _ = m.try_ratio_sample(16, &mut rng);
        let _ = m.try_normalized_tree_sample(16, &mut rng);
    }

    // Steady state: rebinding across sources and sampling at every size
    // must be allocation-free. (`measure_group` itself builds its result
    // vectors, so the raw sampler loop is what's pinned here.)
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for round in 0..5u64 {
        for s in 0..graph.node_count() as u32 {
            let m = engine.bind(s, None);
            let mut rng = mcast_tree::measure::source_rng(cfg.seed ^ round, s as usize);
            for &x in &xs {
                for _ in 0..cfg.receiver_sets {
                    let v = m.try_ratio_sample(x, &mut rng).expect("arpa is connected");
                    assert!(v.is_finite());
                    let w = m
                        .try_normalized_tree_sample(x, &mut rng)
                        .expect("arpa is connected");
                    assert!(w.is_finite());
                }
            }
        }
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state sampling allocated {} times",
        after - before
    );

    // And the curve path allocates only its per-source bookkeeping, not
    // per sample: a full dedup pass over a plan stays within a small
    // budget proportional to sources × points, far below sample count.
    let plan = SourcePlan::new(&graph, &cfg);
    let mut engine = MeasureEngine::new(&graph);
    for group in plan.groups() {
        let _ = measure_group(&mut engine, group, &xs, &cfg, SampleKind::Ratio, None);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut engine2 = MeasureEngine::new(&graph);
    for group in plan.groups() {
        let _ = measure_group(&mut engine2, group, &xs, &cfg, SampleKind::Ratio, None);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    let samples = (cfg.sources * xs.len() * cfg.receiver_sets) as u64;
    let bookkeeping = after - before;
    assert!(
        bookkeeping < samples / 2,
        "curve pass allocated {bookkeeping} times for {samples} samples — \
         the per-sample path is not allocation-free"
    );
}
