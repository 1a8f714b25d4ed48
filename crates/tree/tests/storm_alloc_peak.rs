//! Bounds the storm engine's live heap over a run: a skeleton is held
//! while sessions rooted at its source have still to start, so a
//! calendar of many short sessions on distinct sources never holds more
//! than a few skeletons at once, however many it builds.
//!
//! A counting global allocator tracks live bytes and their peak; the
//! single test in this binary resets the peak just before `Storm::run`.
//! (Keep this file at exactly one test: the counters are global, so a
//! concurrently running sibling test would make them noisy.)

use mcast_topology::graph::from_edges;
use mcast_topology::NodeId;
use mcast_tree::storm::Storm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

#[test]
fn a_steady_storm_holds_only_the_skeletons_of_live_sessions() {
    // A binary tree of 20,000 nodes: each skeleton is 40 kB of `u16`
    // parents.
    let n: NodeId = 20_000;
    let edges: Vec<_> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
    let graph = from_edges(n as usize, &edges);
    let skeleton_bytes = n as usize * std::mem::size_of::<u16>();

    // 300 sessions, each on its own source, arriving one a second and
    // living 2.5 s with three members: at most three are live at once,
    // and every one needs a skeleton of its own.
    let sessions: u32 = 300;
    let mut storm = Storm::new(&graph);
    for s in 0..sessions {
        let t = f64::from(s);
        let source = s * 61 % n;
        storm.schedule_session_start(t, s, source);
        for k in 1..=3 {
            let site = (source + k * 977) % n;
            storm.schedule_join(t + 0.5, s, site);
            storm.schedule_leave(t + 1.0 + f64::from(k) * 0.25, s, site);
        }
        storm.schedule_session_end(t + 2.5, s);
    }
    let calendar_bytes = storm.pending_events() * 24;

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = storm.run().expect("consistent calendar");
    let peak = PEAK.load(Ordering::Relaxed) - before;

    assert_eq!(out.trees_built_scalar, u64::from(sessions));
    assert_eq!(out.peak_sessions, 3);
    // What a run may hold at once: per-session and per-source
    // bookkeeping within the calendar's own size, one node-sized `u32`
    // scratch for parent derivation, and a few skeletons. All 300
    // skeletons would be 12 MB.
    let budget = calendar_bytes + n as usize * 4 + 4 * skeleton_bytes;
    assert!(
        peak <= budget,
        "a run over {sessions} one-source sessions peaked at {peak} bytes above its \
         start, over the {budget}-byte budget: skeletons of ended sessions are kept"
    );
}
