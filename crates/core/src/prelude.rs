//! Convenient single-import surface for downstream users.
//!
//! ```
//! use mcast_core::prelude::*;
//!
//! let tree = KaryTree::new(2, 6).unwrap();
//! let study = ScalingStudy::new(tree.into_graph()).with_samples(4, 4);
//! assert!(study.scaling_exponent().exponent > 0.0);
//! ```

pub use crate::{ReachabilityClass, ScalingStudy};

pub use mcast_topology::bfs::{Bfs, SpTree};
pub use mcast_topology::components::{largest_component, Components};
pub use mcast_topology::graph::from_edges;
pub use mcast_topology::reachability::{AverageReachability, Reachability};
pub use mcast_topology::{Graph, GraphBuilder, NodeId};

pub use mcast_gen::kary::KaryTree;
pub use mcast_gen::overlay::OverlayParams;
pub use mcast_gen::power_law::PowerLawParams;
pub use mcast_gen::tiers::TiersParams;
pub use mcast_gen::transit_stub::TransitStubParams;
pub use mcast_gen::waxman::WaxmanParams;

pub use mcast_tree::affinity::{AffinityConfig, AffinitySampler, RootedTree};
pub use mcast_tree::dynamics::{
    try_simulate_churn, ChurnConfig, ChurnOutcome, LifetimeShape, MemberTree,
};
pub use mcast_tree::measure::{MeasureConfig, SourceMeasurer};
pub use mcast_tree::policy::TieBreak;
pub use mcast_tree::sampling::ReceiverPool;
pub use mcast_tree::shared::SharedTreeSizer;
pub use mcast_tree::steiner::SteinerHeuristic;
pub use mcast_tree::{DeliverySizer, RunningStats};

pub use mcast_analysis::fit::{linear_fit, power_law_fit, LinearFit, PowerLawFit};
pub use mcast_analysis::kary::{l_hat_all_sites, l_hat_leaves};
pub use mcast_analysis::nm::l_of_m_leaves;
pub use mcast_analysis::pricing::Tariff;

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use super::*;
        let g: Graph = from_edges(3, &[(0, 1), (1, 2)]);
        let _ = Components::find(&g);
        let _: NodeId = 0;
    }
}
