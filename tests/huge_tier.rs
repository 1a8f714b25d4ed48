//! Gated `huge`-tier drill: generate a million-node topology, round-trip
//! it through the streamed MCTB pack/unpack path, and run one batched
//! totals sweep, checking bit-identity across BFS lane widths.
//!
//! This is the end-to-end proof behind `mcs suite --scale huge`: the
//! streaming generator, the compact CSR build, the out-of-core store
//! path, and the leaf-folded totals kernel all touch a graph three
//! orders of magnitude past the paper's. It is `#[ignore]`d because the
//! build takes minutes and gigabytes; CI's `huge-smoke` job and
//! `cargo test --release --test huge_tier -- --ignored` run it.

use mcast_core::gen::tiers::{tiers, TiersParams};
use mcast_core::store::format::{load_graph, save_graph};
use mcast_core::topology::batch::BatchBfs;
use mcast_core::topology::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
#[ignore = "million-node build (minutes, GiBs); run with --ignored or via CI huge-smoke"]
fn million_node_generate_pack_sweep_round_trip() {
    let params = TiersParams::ti1000000();
    assert_eq!(params.node_count(), 1_015_200);
    let graph = tiers(params, &mut StdRng::seed_from_u64(1999)).expect("huge tiers params valid");
    assert_eq!(graph.node_count(), 1_015_200);
    assert!(graph.edge_count() >= 1_000_000, "{}", graph.edge_count());

    // Out-of-core round trip: the streamed save must reload into the
    // same graph, byte-validated (header + payload checksums) on the way
    // back in.
    let dir = std::env::temp_dir().join(format!("mcast-huge-tier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.join("ti1000000.mct");
    save_graph(&path, &graph).expect("streamed save");
    let back = load_graph(&path).expect("streamed load");
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(graph, back);

    // One batched totals sweep over 64 spread-out sources. The suite's
    // S(r) numbers come from exactly this histogram, so the lane width
    // must never change a bit: 8 narrow (64-lane) sweeps folded together
    // equal one wide (512-lane) sweep.
    let n = graph.node_count();
    let sources: Vec<NodeId> = (0..64)
        .map(|i| ((i * (n / 64)) + n / 128) as NodeId)
        .collect();

    let mut narrow = BatchBfs::new(&graph);
    narrow.force_words(Some(1));
    let mut folded: Vec<u64> = Vec::new();
    for chunk in sources.chunks(8) {
        narrow.run_totals(chunk);
        let t = narrow.level_totals();
        if t.len() > folded.len() {
            folded.resize(t.len(), 0);
        }
        for (r, &c) in t.iter().enumerate() {
            folded[r] += c;
        }
    }

    let mut wide = BatchBfs::new(&graph);
    wide.force_words(Some(8));
    wide.run_totals(&sources);
    assert_eq!(folded, wide.level_totals().to_vec());

    // Sanity on the histogram itself: r = 0 counts the sources, the
    // topology is connected so every lane reaches every node.
    assert_eq!(folded[0], 64);
    assert_eq!(folded.iter().sum::<u64>(), 64 * n as u64);
}
