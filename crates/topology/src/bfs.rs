//! Breadth-first shortest paths and shortest-path trees.
//!
//! Everything in the paper is hop-count based, so BFS is the single
//! shortest-path engine of the workspace. [`Bfs`] owns reusable scratch
//! buffers so repeated traversals (hundreds of thousands per experiment)
//! allocate nothing after the first run.

use crate::graph::{Graph, NodeId};

/// Sentinel distance for unreached nodes.
pub const UNREACHED: u32 = u32::MAX;

/// A completed single-source shortest-path tree.
///
/// `parent[source] == source`; unreachable nodes have `parent == UNREACHED`
/// (as a `NodeId`) and `dist == UNREACHED`.
#[derive(Clone, Debug)]
pub struct SpTree {
    source: NodeId,
    dist: Vec<u32>,
    parent: Vec<NodeId>,
    /// Nodes in BFS discovery order (source first); only reached nodes.
    order: Vec<NodeId>,
}

impl SpTree {
    /// The source this tree is rooted at.
    #[inline]
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Hop distance from the source, or `None` if unreachable.
    #[inline]
    pub fn distance(&self, v: NodeId) -> Option<u32> {
        match self.dist[v as usize] {
            UNREACHED => None,
            d => Some(d),
        }
    }

    /// Raw distance slice (`UNREACHED` marks unreachable nodes).
    #[inline]
    pub fn distances(&self) -> &[u32] {
        &self.dist
    }

    /// BFS parent of `v` (deterministic: the lowest-id node at distance
    /// `d-1` adjacent to `v`, because adjacency lists are sorted and the
    /// queue is FIFO). `None` for the source itself and unreachable nodes.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        if v == self.source {
            return None;
        }
        match self.parent[v as usize] {
            UNREACHED => None,
            p => Some(p),
        }
    }

    /// Nodes in discovery order (source first). Excludes unreachable nodes.
    #[inline]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of nodes reached (including the source).
    #[inline]
    pub fn reached_count(&self) -> usize {
        self.order.len()
    }

    /// Whether every node of the graph was reached.
    #[inline]
    pub fn all_reached(&self) -> bool {
        self.order.len() == self.dist.len()
    }

    /// Maximum finite distance (the source's eccentricity within its
    /// component). Zero for a single-node component.
    pub fn eccentricity(&self) -> u32 {
        self.order
            .iter()
            .map(|&v| self.dist[v as usize])
            .max()
            .unwrap_or(0)
    }

    /// Sum of finite distances from the source to every reached node —
    /// the numerator of the average unicast path length.
    pub fn total_distance(&self) -> u64 {
        self.order
            .iter()
            .map(|&v| u64::from(self.dist[v as usize]))
            .sum()
    }

    /// The unicast path from the source to `v` (inclusive of both ends),
    /// following BFS parents. `None` if `v` is unreachable.
    pub fn path_to(&self, v: NodeId) -> Option<Vec<NodeId>> {
        self.distance(v)?;
        let mut path = vec![v];
        let mut cur = v;
        while cur != self.source {
            cur = self.parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

/// Reusable BFS engine over one graph.
pub struct Bfs<'g> {
    graph: &'g Graph,
    dist: Vec<u32>,
    parent: Vec<NodeId>,
    queue: Vec<NodeId>,
}

impl<'g> Bfs<'g> {
    /// New engine for `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        let n = graph.node_count();
        Self {
            graph,
            dist: vec![UNREACHED; n],
            parent: vec![UNREACHED; n],
            queue: Vec::with_capacity(n),
        }
    }

    /// The graph this engine traverses.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Run BFS from `source`, producing an owned [`SpTree`].
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn run(&mut self, source: NodeId) -> SpTree {
        self.run_scratch(source);
        SpTree {
            source,
            dist: self.dist.clone(),
            parent: self.parent.clone(),
            order: self.queue.clone(),
        }
    }

    /// Run BFS from `source` into the internal scratch buffers, avoiding
    /// the copy that [`run`](Self::run) makes. Accessors below read the
    /// scratch state until the next call.
    ///
    /// When observability is enabled, each run bumps the `bfs.runs` and
    /// `bfs.nodes_visited` counters (batched: two atomic adds per
    /// traversal, nothing per node).
    pub fn run_scratch(&mut self, source: NodeId) {
        traverse(
            self.graph,
            source,
            &mut self.dist,
            &mut self.parent,
            &mut self.queue,
        );
    }

    /// Run BFS from `source` directly into caller-owned `dist`/`parent`
    /// buffers, so a long-lived consumer (e.g. a delivery-tree sizer)
    /// can be refilled in place without any allocation: the buffers are
    /// resized once to the node count (a no-op when, as in the steady
    /// state, they already match) and overwritten. Only the engine's
    /// internal queue is used for the frontier; the scratch
    /// `dist`/`parent` from a previous [`run_scratch`](Self::run_scratch)
    /// are left untouched.
    ///
    /// Counter behaviour matches `run_scratch` (`bfs.runs`,
    /// `bfs.nodes_visited`).
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn run_into(&mut self, source: NodeId, dist: &mut Vec<u32>, parent: &mut Vec<NodeId>) {
        let n = self.graph.node_count();
        dist.resize(n, UNREACHED);
        parent.resize(n, UNREACHED);
        traverse(self.graph, source, dist, parent, &mut self.queue);
    }

    /// Scratch distances from the last [`run_scratch`](Self::run_scratch).
    #[inline]
    pub fn scratch_distances(&self) -> &[u32] {
        &self.dist
    }

    /// Scratch parents from the last [`run_scratch`](Self::run_scratch).
    #[inline]
    pub fn scratch_parents(&self) -> &[NodeId] {
        &self.parent
    }

    /// Scratch discovery order from the last [`run_scratch`](Self::run_scratch).
    #[inline]
    pub fn scratch_order(&self) -> &[NodeId] {
        &self.queue
    }
}

/// The single BFS core shared by [`Bfs::run_scratch`] and
/// [`Bfs::run_into`]: fills `dist`/`parent` (which must already be
/// node-count sized) and leaves the discovery order in `queue`.
fn traverse(
    graph: &Graph,
    source: NodeId,
    dist: &mut [u32],
    parent: &mut [NodeId],
    queue: &mut Vec<NodeId>,
) {
    assert!(
        (source as usize) < graph.node_count(),
        "source {source} out of range"
    );
    dist.fill(UNREACHED);
    parent.fill(UNREACHED);
    queue.clear();

    dist[source as usize] = 0;
    parent[source as usize] = source;
    queue.push(source);
    let mut head = 0usize;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u as usize];
        for &w in graph.neighbors(u) {
            if dist[w as usize] == UNREACHED {
                dist[w as usize] = du + 1;
                parent[w as usize] = u;
                queue.push(w);
            }
        }
    }
    if mcast_obs::enabled() {
        mcast_obs::counter("bfs.runs").add(1);
        mcast_obs::counter("bfs.nodes_visited").add(queue.len() as u64);
    }
}

/// Derive a shortest-path parent array from a finished distance array
/// using a rule that depends only on the distances, not on any traversal
/// schedule: `parent[v]` is the **lowest-id** neighbour of `v` at
/// distance `dist[v] − 1`.
///
/// Scalar [`Bfs`] parents follow the FIFO discovery order instead, which
/// a bit-parallel sweep does not reproduce — this rule is the common
/// ground: feed it distances from [`Bfs::scratch_distances`] or from
/// [`crate::batch::BatchBfs::distances`] and the resulting tree is
/// bit-identical either way. The multi-session churn engine builds its
/// shared per-source skeletons through it so batched and scalar tree
/// construction can never disagree.
///
/// `out` is resized to the node count; unreachable nodes get
/// [`UNREACHED`], the source points at itself.
///
/// # Panics
/// Panics if `dist` is not node-count sized or `dist[source] != 0`.
pub fn min_index_parents(graph: &Graph, dist: &[u32], source: NodeId, out: &mut Vec<NodeId>) {
    let n = graph.node_count();
    assert_eq!(dist.len(), n, "distance array must be node-count sized");
    assert_eq!(
        dist[source as usize], 0,
        "source {source} must be at distance 0"
    );
    out.clear();
    out.resize(n, UNREACHED);
    out[source as usize] = source;
    for v in 0..n as NodeId {
        let dv = dist[v as usize];
        if v == source || dv == UNREACHED {
            continue;
        }
        // Adjacency lists are sorted, so the first match is the minimum.
        for &u in graph.neighbors(v) {
            if dist[u as usize] == dv - 1 {
                out[v as usize] = u;
                break;
            }
        }
        debug_assert_ne!(out[v as usize], UNREACHED, "no parent for reached node {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::from_edges;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i as NodeId, i as NodeId + 1)).collect();
        from_edges(n, &edges)
    }

    #[test]
    fn distances_on_path() {
        let g = path_graph(5);
        let t = Bfs::new(&g).run(0);
        for v in 0..5 {
            assert_eq!(t.distance(v), Some(v));
        }
        assert_eq!(t.eccentricity(), 4);
        assert_eq!(t.total_distance(), 10); // 0+1+2+3+4
    }

    #[test]
    fn parent_chain_on_path() {
        let g = path_graph(4);
        let t = Bfs::new(&g).run(0);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.parent(1), Some(0));
        assert_eq!(t.parent(3), Some(2));
        assert_eq!(t.path_to(3), Some(vec![0, 1, 2, 3]));
    }

    #[test]
    fn unreachable_nodes() {
        let g = from_edges(4, &[(0, 1)]); // 2, 3 isolated
        let t = Bfs::new(&g).run(0);
        assert_eq!(t.distance(2), None);
        assert_eq!(t.parent(2), None);
        assert_eq!(t.path_to(3), None);
        assert_eq!(t.reached_count(), 2);
        assert!(!t.all_reached());
    }

    #[test]
    fn tie_break_prefers_lowest_id_parent() {
        // Both 1 and 2 are at distance 1; node 3 is adjacent to both.
        let g = from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let t = Bfs::new(&g).run(0);
        assert_eq!(t.distance(3), Some(2));
        assert_eq!(t.parent(3), Some(1)); // 1 dequeued before 2
    }

    #[test]
    fn discovery_order_is_source_first_and_monotone_in_distance() {
        let g = from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)]);
        let t = Bfs::new(&g).run(0);
        assert_eq!(t.order()[0], 0);
        let ds: Vec<u32> = t.order().iter().map(|&v| t.distance(v).unwrap()).collect();
        assert!(ds.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn scratch_reuse_matches_owned_run() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mut bfs = Bfs::new(&g);
        let owned = bfs.run(2);
        bfs.run_scratch(2);
        assert_eq!(bfs.scratch_distances(), owned.distances());
        // Re-running from another source fully resets state.
        bfs.run_scratch(0);
        assert_eq!(bfs.scratch_distances()[2], 2);
    }

    #[test]
    fn run_into_matches_scratch_and_reuses_capacity() {
        let g = from_edges(6, &[(0, 1), (0, 2), (1, 3), (2, 4), (3, 5)]);
        let mut bfs = Bfs::new(&g);
        let mut dist = Vec::new();
        let mut parent = Vec::new();
        bfs.run_into(1, &mut dist, &mut parent);
        bfs.run_scratch(1);
        assert_eq!(dist, bfs.scratch_distances());
        assert_eq!(parent, bfs.scratch_parents());

        // Refilling from another source reuses the same allocations and
        // fully overwrites stale state.
        let dist_ptr = dist.as_ptr();
        let parent_ptr = parent.as_ptr();
        bfs.run_into(4, &mut dist, &mut parent);
        assert_eq!(dist_ptr, dist.as_ptr());
        assert_eq!(parent_ptr, parent.as_ptr());
        bfs.run_scratch(4);
        assert_eq!(dist, bfs.scratch_distances());
        assert_eq!(parent, bfs.scratch_parents());
    }

    #[test]
    fn run_into_resizes_wrongly_sized_buffers() {
        let g = path_graph(4);
        let mut bfs = Bfs::new(&g);
        // Too small and too large both end up exactly node-count sized.
        let mut dist = vec![7u32; 2];
        let mut parent = vec![9 as NodeId; 11];
        bfs.run_into(0, &mut dist, &mut parent);
        assert_eq!(dist.len(), 4);
        assert_eq!(parent.len(), 4);
        assert_eq!(dist, vec![0, 1, 2, 3]);
        assert_eq!(parent, vec![0, 0, 1, 2]);
    }

    #[test]
    fn run_into_leaves_scratch_state_alone() {
        let g = path_graph(5);
        let mut bfs = Bfs::new(&g);
        bfs.run_scratch(0);
        let before = bfs.scratch_distances().to_vec();
        let mut dist = Vec::new();
        let mut parent = Vec::new();
        bfs.run_into(4, &mut dist, &mut parent);
        assert_eq!(bfs.scratch_distances(), &before[..]);
        assert_eq!(dist[0], 4); // the run_into result is from source 4
    }

    #[test]
    fn source_is_its_own_root() {
        let g = path_graph(3);
        let t = Bfs::new(&g).run(1);
        assert_eq!(t.source(), 1);
        assert_eq!(t.distance(1), Some(0));
        assert_eq!(t.parent(1), None);
        assert_eq!(t.path_to(1), Some(vec![1]));
    }

    #[test]
    fn cycle_distances_wrap_both_ways() {
        let edges: Vec<_> = (0..6)
            .map(|i| (i as NodeId, ((i + 1) % 6) as NodeId))
            .collect();
        let g = from_edges(6, &edges);
        let t = Bfs::new(&g).run(0);
        assert_eq!(t.distance(3), Some(3));
        assert_eq!(t.distance(5), Some(1));
        assert_eq!(t.eccentricity(), 3);
    }
}
