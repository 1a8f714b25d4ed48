//! The paper's reachability functions.
//!
//! For a graph and a chosen source, `S(r)` is the number of distinct sites
//! exactly `r` hops from the source and `T(r) = Σ_{j<=r} S(j)` the number
//! within `r` hops (the source itself is `S(0) = 1`). Section 4 of the paper
//! shows the asymptotic form of the multicast tree size is controlled by
//! whether `S(r)` grows exponentially; Figure 7 plots `ln T(r)` versus `r`
//! averaged over random sources.

use crate::batch::{max_lanes, BatchBfs};
use crate::bfs::Bfs;
use crate::graph::{Graph, NodeId};

/// Errors from reachability computations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReachabilityError {
    /// An average was requested over an empty source set.
    NoSources,
}

impl std::fmt::Display for ReachabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSources => write!(f, "reachability average needs at least one source"),
        }
    }
}

impl std::error::Error for ReachabilityError {}

/// Per-source reachability profile.
///
/// ```
/// use mcast_topology::graph::from_edges;
/// use mcast_topology::reachability::Reachability;
///
/// // A path graph seen from one end: S(r) = 1 at every hop.
/// let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let reach = Reachability::from_source(&g, 0);
/// assert_eq!(reach.s_vec(), &[1, 1, 1, 1]);
/// assert_eq!(reach.t(2), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reachability {
    s: Vec<u64>,
}

impl Reachability {
    /// Compute the profile of `graph` seen from `source`.
    pub fn from_source(graph: &Graph, source: NodeId) -> Self {
        let mut bfs = Bfs::new(graph);
        bfs.run_scratch(source);
        Self::from_distances(bfs.scratch_distances(), bfs.scratch_order())
    }

    /// Build from precomputed BFS scratch state (distances + reached order).
    pub fn from_distances(dist: &[u32], order: &[NodeId]) -> Self {
        let ecc = order.iter().map(|&v| dist[v as usize]).max().unwrap_or(0);
        let mut s = vec![0u64; ecc as usize + 1];
        for &v in order {
            s[dist[v as usize] as usize] += 1;
        }
        Self { s }
    }

    /// `S(r)`: sites exactly `r` hops away. Zero beyond the eccentricity.
    pub fn s(&self, r: usize) -> u64 {
        self.s.get(r).copied().unwrap_or(0)
    }

    /// `T(r)`: sites within `r` hops (inclusive; `T(0) = 1`).
    pub fn t(&self, r: usize) -> u64 {
        self.s.iter().take(r + 1).sum()
    }

    /// Full `S` vector, index = hop count.
    pub fn s_vec(&self) -> &[u64] {
        &self.s
    }

    /// Full cumulative `T` vector.
    pub fn t_vec(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.s
            .iter()
            .map(|&x| {
                acc += x;
                acc
            })
            .collect()
    }

    /// Eccentricity of the source (largest `r` with `S(r) > 0`).
    pub fn eccentricity(&self) -> usize {
        self.s.len() - 1
    }

    /// Total sites reached, `T(eccentricity)`.
    pub fn total(&self) -> u64 {
        self.s.iter().sum()
    }
}

/// `T(r)` averaged over several sources (the paper averages over its
/// `N_source` random source choices). Entries beyond a source's
/// eccentricity contribute that source's saturated total.
#[derive(Clone, Debug, PartialEq)]
pub struct AverageReachability {
    t: Vec<f64>,
}

impl AverageReachability {
    /// Average the profiles of the given `sources` on `graph`.
    ///
    /// Sources are swept in batches of up to [`max_lanes`] by
    /// [`BatchBfs::run_totals`], which hands back each batch's
    /// lane-summed discovery histogram; its cumulative sum *is*
    /// `Σ_lane T_lane(r)` (a lane's `S` is zero past its eccentricity,
    /// so saturation is automatic), and one integer add per radius folds
    /// the batch in. Memory stays `O(max eccentricity)` no matter how
    /// many sources are averaged. The summed counts are exact integers
    /// below 2⁵³, so the result is bit-identical to averaging scalar
    /// per-source profiles at every lane width and in every fold order.
    /// A trailing sub-width chunk (even one whose sources are all
    /// isolated) contributes exactly its lanes — the kernel's dead lanes
    /// are inert and never reach the fold.
    ///
    /// # Errors
    /// Returns [`ReachabilityError::NoSources`] if `sources` is empty.
    pub fn over_sources(graph: &Graph, sources: &[NodeId]) -> Result<Self, ReachabilityError> {
        if sources.is_empty() {
            return Err(ReachabilityError::NoSources);
        }
        let mut batch = BatchBfs::new(graph);
        // sums[r] = Σ over processed sources of T_src(r); a source whose
        // eccentricity lies below r contributes its saturated total there.
        let mut sums: Vec<u64> = Vec::new();
        for chunk in sources.chunks(max_lanes()) {
            batch.run_totals(chunk);
            let agg = batch.level_totals();
            let prev_total = sums.last().copied().unwrap_or(0);
            if agg.len() > sums.len() {
                sums.resize(agg.len(), prev_total);
            }
            let mut cum = 0u64;
            for (r, &ar) in agg.iter().enumerate() {
                cum += ar;
                sums[r] += cum;
            }
            for slot in sums.iter_mut().skip(agg.len()) {
                *slot += cum;
            }
        }
        let count = sources.len() as f64;
        Ok(Self {
            t: sums.iter().map(|&v| v as f64 / count).collect(),
        })
    }

    /// Averaged `T(r)`; saturates at the mean reached count beyond the
    /// largest eccentricity.
    pub fn t(&self, r: usize) -> f64 {
        let idx = r.min(self.t.len() - 1);
        self.t[idx]
    }

    /// Full averaged vector, index = hop count.
    pub fn t_vec(&self) -> &[f64] {
        &self.t
    }

    /// Largest eccentricity across the averaged sources.
    pub fn max_radius(&self) -> usize {
        self.t.len() - 1
    }

    /// Crude exponentiality score: the coefficient of determination (R²) of
    /// a least-squares line fit to `ln T(r)` over the pre-saturation range
    /// (`T(r) <= fraction * total`). The paper's dichotomy — exponential vs
    /// sub-exponential reachability — shows up as high vs low R² here.
    ///
    /// Degenerate profiles score `f64::NAN` rather than panicking: an
    /// isolated source saturates at `T(r) = 1` immediately, leaving fewer
    /// than three pre-saturation points to fit, and an empty or
    /// non-positive curve offers nothing to take a logarithm of.
    pub fn exponential_fit_r2(&self, fraction: f64) -> f64 {
        let Some(&total) = self.t.last() else {
            return f64::NAN;
        };
        if !total.is_finite() || total <= 0.0 {
            return f64::NAN;
        }
        let cutoff = fraction * total;
        let pts: Vec<(f64, f64)> = self
            .t
            .iter()
            .enumerate()
            .skip(1) // T(0) = 1 carries no growth information
            .take_while(|&(_, &tv)| tv <= cutoff)
            .map(|(r, &tv)| (r as f64, tv.ln()))
            .collect();
        if pts.len() < 3 {
            return f64::NAN;
        }
        let n = pts.len() as f64;
        let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
        let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
        let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
        let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
        let syy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum();
        if sxx == 0.0 || syy == 0.0 {
            return f64::NAN;
        }
        (sxy * sxy) / (sxx * syy)
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
    fn path_reachability_from_end() {
        let g = path_graph(5);
        let r = Reachability::from_source(&g, 0);
        assert_eq!(r.s_vec(), &[1, 1, 1, 1, 1]);
        assert_eq!(r.t(0), 1);
        assert_eq!(r.t(2), 3);
        assert_eq!(r.t(10), 5);
        assert_eq!(r.eccentricity(), 4);
        assert_eq!(r.total(), 5);
    }

    #[test]
    fn path_reachability_from_middle() {
        let g = path_graph(5);
        let r = Reachability::from_source(&g, 2);
        assert_eq!(r.s_vec(), &[1, 2, 2]);
        assert_eq!(r.t_vec(), vec![1, 3, 5]);
    }

    #[test]
    fn binary_tree_reachability_is_powers_of_two() {
        // Depth-3 complete binary tree, nodes 0..15 with parent (i-1)/2.
        let edges: Vec<_> = (1..15u32).map(|i| ((i - 1) / 2, i)).collect();
        let g = from_edges(15, &edges);
        let r = Reachability::from_source(&g, 0);
        assert_eq!(r.s_vec(), &[1, 2, 4, 8]);
    }

    #[test]
    fn disconnected_source_sees_only_component() {
        let g = from_edges(4, &[(0, 1)]);
        let r = Reachability::from_source(&g, 0);
        assert_eq!(r.total(), 2);
        assert_eq!(r.s(1), 1);
        assert_eq!(r.s(2), 0);
    }

    #[test]
    fn average_reachability_mixes_sources() {
        let g = path_graph(5);
        // From 0: T = [1,2,3,4,5]; from 2: T = [1,3,5] saturating at 5.
        let avg = AverageReachability::over_sources(&g, &[0, 2]).unwrap();
        assert_eq!(avg.max_radius(), 4);
        let expect = [1.0, 2.5, 4.0, 4.5, 5.0];
        for (r, e) in expect.iter().enumerate() {
            assert!((avg.t(r) - e).abs() < 1e-12, "r={r}");
        }
        assert!((avg.t(99) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_tree_scores_higher_r2_than_path() {
        // Complete binary tree depth 9 vs path: tree T(r) is exponential,
        // path T(r) is linear, so ln T is concave for the path.
        let n = (1u32 << 10) - 1;
        let tree_edges: Vec<_> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
        let tree = from_edges(n as usize, &tree_edges);
        let path = path_graph(1023);
        let tr = AverageReachability::over_sources(&tree, &[0]).unwrap();
        let pr = AverageReachability::over_sources(&path, &[0]).unwrap();
        let tree_r2 = tr.exponential_fit_r2(0.9);
        let path_r2 = pr.exponential_fit_r2(0.9);
        assert!(tree_r2 > 0.98, "tree r2 = {tree_r2}");
        assert!(path_r2 < tree_r2, "path r2 = {path_r2}");
    }

    #[test]
    fn average_requires_sources() {
        let g = path_graph(3);
        let err = AverageReachability::over_sources(&g, &[]).unwrap_err();
        assert_eq!(err, ReachabilityError::NoSources);
        assert!(err.to_string().contains("at least one source"));
    }

    #[test]
    fn isolated_node_profile_scores_nan_not_panic() {
        // Node 3 is isolated: averaged alone its curve saturates at T(r)=1,
        // which used to feed unwrap()/ln() hazards in the fit.
        let g = from_edges(4, &[(0, 1), (1, 2)]);
        let lonely = AverageReachability::over_sources(&g, &[3]).unwrap();
        assert_eq!(lonely.max_radius(), 0);
        assert!((lonely.t(7) - 1.0).abs() < 1e-12);
        assert!(lonely.exponential_fit_r2(0.9).is_nan());
        // Mixing the isolated node with a real source must not panic either.
        let mixed = AverageReachability::over_sources(&g, &[0, 3]).unwrap();
        assert_eq!(mixed.max_radius(), 2);
        assert!((mixed.t(0) - 1.0).abs() < 1e-12);
        assert!((mixed.t(9) - 2.0).abs() < 1e-12); // (3 + 1) / 2
    }

    #[test]
    fn many_sources_stream_past_one_batch() {
        // 70 sources once forced two 64-lane chunks; the wide kernel now
        // takes them in one 4-word sweep, and with a narrowed lane limit
        // they split again — either way the running-sum merge must agree
        // with averaging each scalar profile.
        let g = path_graph(70);
        let sources: Vec<NodeId> = (0..70).collect();
        let avg = AverageReachability::over_sources(&g, &sources).unwrap();
        let mut expect = vec![0.0f64; 70];
        for &s in &sources {
            let tv = Reachability::from_source(&g, s).t_vec();
            for (r, slot) in expect.iter_mut().enumerate() {
                *slot += *tv.get(r).unwrap_or(tv.last().unwrap()) as f64;
            }
        }
        for slot in &mut expect {
            *slot /= 70.0;
        }
        assert_eq!(avg.max_radius(), 69);
        for (r, &e) in expect.iter().enumerate() {
            assert_eq!(avg.t(r).to_bits(), e.to_bits(), "r={r}");
        }
    }
}
