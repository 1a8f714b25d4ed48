//! Counting-allocator proof of `GraphBuilder::build`'s in-place CSR
//! construction: the build recycles the builder's own edge buffer into
//! the neighbour array and allocates only O(nodes) counter words on top —
//! never a second edge-sized array. The old edge-list-then-copy build
//! kept the full edge list alive while filling `neighbors`, an extra
//! ~8 bytes per directed edge at peak; this test would catch any
//! regression back to that shape.
//!
//! A counting global allocator tracks live bytes and the high-water mark.
//! (Keep this file at exactly one test: the counters are global, so a
//! concurrently running sibling test would make them noisy.)

use mcast_topology::{GraphBuilder, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct TrackingAlloc;

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

#[test]
fn build_peak_is_linear_in_nodes_not_edges() {
    const N: usize = 1_000;
    const EDGES: usize = 100_000; // 800 KiB of edge buffer, 28 KiB of counters

    let mut b = GraphBuilder::new(N);
    // Deterministic LCG edge soup, duplicates and reversals included.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % N as u64) as NodeId
    };
    for _ in 0..EDGES {
        let u = next();
        let v = next();
        b.add_edge(u, v);
    }

    // Window the high-water mark around the build alone. The edge buffer
    // is already live (inside `b`) and is reused in place, so the delta
    // is exactly the build's scratch: two u32 count arrays, two usize
    // prefix-sum arrays, one u32 cursor array, and the narrowed u32
    // offsets — ~28 bytes per node, independent of the edge count.
    let live_before = LIVE.load(Ordering::Relaxed);
    PEAK.store(live_before, Ordering::Relaxed);
    let g = b.build();
    let delta = PEAK.load(Ordering::Relaxed).saturating_sub(live_before);

    assert!(g.edge_count() > 50_000, "dedup kept {}", g.edge_count());
    // ~28·N ≈ 28 KiB of scratch; 200 KiB of headroom still sits far
    // below the ≥ 800 KiB an edge-list copy would have added.
    assert!(
        delta < 200_000,
        "build high-water mark grew by {delta} bytes — an edge-sized \
         allocation is back in the build path"
    );
}
