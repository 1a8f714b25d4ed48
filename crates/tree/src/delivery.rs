//! Delivery-tree construction and sizing.
//!
//! The paper's multicast model is source-specific shortest-path routing
//! ("packets traverse the shortest path between source and receiver"): the
//! delivery tree is the union of the BFS shortest paths from the source to
//! each receiver, and `L` merely counts its links — "we do not weight the
//! links by their length or bandwidth".

use mcast_topology::bfs::{Bfs, UNREACHED};
use mcast_topology::{Graph, NodeId};

/// Incremental delivery-tree sizer bound to one (graph, source) pair.
///
/// ```
/// use mcast_topology::graph::from_edges;
/// use mcast_tree::DeliverySizer;
///
/// // A path 0-1-2-3: receivers {2, 3} share the 0-1-2 trunk.
/// let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let mut sizer = DeliverySizer::from_graph(&g, 0);
/// assert_eq!(sizer.tree_links(&[2, 3]), 3);
/// assert_eq!(sizer.unicast_links(&[2, 3]), 5);
/// ```
///
/// Each receiver's rootward parent chain is walked only until it meets a
/// node already in the tree, so sizing a receiver set costs `O(new links)`
/// amortised — the same grafting pattern DVMRP/PIM-SSM joins perform.
/// Epoch-stamped visitation marks make successive receiver sets O(1) to
/// reset.
pub struct DeliverySizer {
    source: NodeId,
    parent: Vec<NodeId>,
    dist: Vec<u32>,
    mark: Vec<u32>,
    epoch: u32,
}

impl DeliverySizer {
    /// Build from a graph and source by running BFS.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn from_graph(graph: &Graph, source: NodeId) -> Self {
        let mut bfs = Bfs::new(graph);
        bfs.run_scratch(source);
        Self::from_parts(
            source,
            bfs.scratch_parents().to_vec(),
            bfs.scratch_distances().to_vec(),
        )
    }

    /// Build from a caller-supplied routing table: `parent[v]` must be one
    /// hop closer to `source` for every reachable `v` (`UNREACHED`
    /// otherwise), and `dist` the matching hop counts. This is how the
    /// tie-breaking policies in [`crate::policy`] inject alternative
    /// shortest-path trees.
    pub fn from_routing(source: NodeId, parent: Vec<NodeId>, dist: Vec<u32>) -> Self {
        assert_eq!(parent.len(), dist.len());
        Self::from_parts(source, parent, dist)
    }

    fn from_parts(source: NodeId, parent: Vec<NodeId>, dist: Vec<u32>) -> Self {
        let n = parent.len();
        Self {
            source,
            parent,
            dist,
            mark: vec![0; n],
            epoch: 0,
        }
    }

    /// Re-root the sizer at a new `source` on the same graph, reusing
    /// every buffer: `bfs` refills `parent`/`dist` in place via
    /// [`Bfs::run_into`], and the epoch-stamped `mark` buffer carries
    /// over untouched (stale marks belong to older epochs and can never
    /// match a future one). In the steady state this performs no
    /// allocation at all — it is the "refill" half of the worker-owned
    /// measurement engine.
    ///
    /// # Panics
    /// Panics if `bfs`'s graph has a different node count than the one
    /// this sizer was built for, or if `source` is out of range.
    pub fn rebind(&mut self, bfs: &mut Bfs<'_>, source: NodeId) {
        assert_eq!(
            bfs.graph().node_count(),
            self.mark.len(),
            "rebind requires a graph with the same node count"
        );
        bfs.run_into(source, &mut self.dist, &mut self.parent);
        self.source = source;
    }

    /// The source the delivery trees are rooted at.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Hop distance from the source to `v` (`None` if unreachable).
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        match self.dist[v as usize] {
            UNREACHED => None,
            d => Some(d),
        }
    }

    /// Number of links in the delivery tree reaching `receivers`
    /// (duplicates and the source itself contribute no links; unreachable
    /// receivers are skipped — the experiment suite only measures connected
    /// topologies, but the sizer stays total).
    pub fn tree_links(&mut self, receivers: &[NodeId]) -> u64 {
        self.epoch = self.epoch.checked_add(1).unwrap_or_else(|| {
            self.mark.fill(0);
            1
        });
        let epoch = self.epoch;
        self.mark[self.source as usize] = epoch;
        let mut links = 0u64;
        for &r in receivers {
            if self.dist[r as usize] == UNREACHED {
                continue;
            }
            let mut v = r;
            while self.mark[v as usize] != epoch {
                self.mark[v as usize] = epoch;
                links += 1;
                v = self.parent[v as usize];
            }
        }
        links
    }

    /// Total unicast cost of reaching `receivers` individually: the sum of
    /// shortest-path hop counts (unreachable receivers are skipped).
    pub fn unicast_links(&self, receivers: &[NodeId]) -> u64 {
        receivers
            .iter()
            .filter(|&&r| self.dist[r as usize] != UNREACHED)
            .map(|&r| u64::from(self.dist[r as usize]))
            .sum()
    }

    /// Convenience: `(tree_links, unicast_links)` for one receiver set.
    pub fn sample(&mut self, receivers: &[NodeId]) -> (u64, u64) {
        (self.tree_links(receivers), self.unicast_links(receivers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::graph::from_edges;

    /// Depth-3 complete binary tree rooted at 0.
    fn binary_tree() -> Graph {
        let edges: Vec<_> = (1..15u32).map(|i| ((i - 1) / 2, i)).collect();
        from_edges(15, &edges)
    }

    #[test]
    fn single_receiver_is_its_path() {
        let g = binary_tree();
        let mut s = DeliverySizer::from_graph(&g, 0);
        assert_eq!(s.tree_links(&[7]), 3);
        assert_eq!(s.unicast_links(&[7]), 3);
    }

    #[test]
    fn sibling_receivers_share_the_trunk() {
        let g = binary_tree();
        let mut s = DeliverySizer::from_graph(&g, 0);
        // Leaves 7 and 8 share parent 3 and grandparent 1.
        assert_eq!(s.tree_links(&[7, 8]), 4);
        assert_eq!(s.unicast_links(&[7, 8]), 6);
    }

    #[test]
    fn all_leaves_give_full_tree() {
        let g = binary_tree();
        let mut s = DeliverySizer::from_graph(&g, 0);
        let leaves: Vec<NodeId> = (7..15).collect();
        assert_eq!(s.tree_links(&leaves), 14); // every edge of the tree
    }

    #[test]
    fn duplicates_and_source_add_nothing() {
        let g = binary_tree();
        let mut s = DeliverySizer::from_graph(&g, 0);
        assert_eq!(s.tree_links(&[7, 7, 7]), 3);
        assert_eq!(s.tree_links(&[0]), 0);
        assert_eq!(s.tree_links(&[]), 0);
        assert_eq!(s.tree_links(&[0, 7, 7]), 3);
    }

    #[test]
    fn successive_receiver_sets_are_independent() {
        let g = binary_tree();
        let mut s = DeliverySizer::from_graph(&g, 0);
        assert_eq!(s.tree_links(&[7]), 3);
        assert_eq!(s.tree_links(&[8]), 3); // not 1: marks were reset
        assert_eq!(s.tree_links(&[7, 8]), 4);
    }

    #[test]
    fn tree_never_exceeds_unicast_sum() {
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
                (1, 5),
            ],
        );
        let mut s = DeliverySizer::from_graph(&g, 0);
        let (tree, uni) = s.sample(&[2, 3, 4, 6]);
        assert!(tree <= uni, "{tree} > {uni}");
        assert!(tree >= 4); // must reach four distinct non-source nodes
    }

    #[test]
    fn unreachable_receivers_are_skipped() {
        let g = from_edges(5, &[(0, 1), (1, 2)]); // 3, 4 isolated
        let mut s = DeliverySizer::from_graph(&g, 0);
        assert_eq!(s.tree_links(&[2, 3, 4]), 2);
        assert_eq!(s.unicast_links(&[2, 3, 4]), 2);
        assert_eq!(s.distance(3), None);
        assert_eq!(s.distance(2), Some(2));
    }

    #[test]
    fn non_root_source() {
        let g = binary_tree();
        let mut s = DeliverySizer::from_graph(&g, 7);
        // Path 7 -> 3 -> 1 -> 0 -> 2: distance 4.
        assert_eq!(s.tree_links(&[2]), 4);
        // 8 shares 7's parent 3: path 7->3->8 is 2 links.
        assert_eq!(s.tree_links(&[8]), 2);
    }

    #[test]
    fn rebind_matches_fresh_construction() {
        let g = binary_tree();
        let mut bfs = Bfs::new(&g);
        let mut s = DeliverySizer::from_graph(&g, 0);
        for src in [7u32, 3, 0, 14, 7] {
            s.rebind(&mut bfs, src);
            let mut fresh = DeliverySizer::from_graph(&g, src);
            assert_eq!(s.source(), src);
            for set in [&[2u32, 5][..], &[7, 8, 9][..], &[0][..], &[14][..]] {
                assert_eq!(s.tree_links(set), fresh.tree_links(set), "src {src}");
                assert_eq!(s.unicast_links(set), fresh.unicast_links(set), "src {src}");
            }
        }
    }

    #[test]
    fn rebind_reuses_buffers_in_place() {
        let g = binary_tree();
        let mut bfs = Bfs::new(&g);
        let mut s = DeliverySizer::from_graph(&g, 0);
        let (p0, d0, m0) = (s.parent.as_ptr(), s.dist.as_ptr(), s.mark.as_ptr());
        for src in [1u32, 9, 4] {
            s.rebind(&mut bfs, src);
            let _ = s.tree_links(&[13, 2]);
        }
        assert_eq!(s.parent.as_ptr(), p0, "parent buffer reallocated");
        assert_eq!(s.dist.as_ptr(), d0, "dist buffer reallocated");
        assert_eq!(s.mark.as_ptr(), m0, "mark buffer reallocated");
    }

    #[test]
    #[should_panic(expected = "same node count")]
    fn rebind_rejects_mismatched_graph() {
        let big = binary_tree();
        let small = from_edges(3, &[(0, 1), (1, 2)]);
        let mut bfs = Bfs::new(&big);
        let mut s = DeliverySizer::from_graph(&small, 0);
        s.rebind(&mut bfs, 1);
    }

    #[test]
    fn epoch_overflow_resets_marks() {
        let g = binary_tree();
        let mut s = DeliverySizer::from_graph(&g, 0);
        s.epoch = u32::MAX - 1;
        assert_eq!(s.tree_links(&[7]), 3);
        assert_eq!(s.tree_links(&[7]), 3); // crosses the overflow boundary
        assert_eq!(s.tree_links(&[7, 8]), 4);
    }
}
