//! Multicast delivery-tree machinery for the multicast-scaling study.
//!
//! The quantity at the heart of the paper is `L(m)`: the number of links in
//! the source-specific shortest-path delivery tree connecting a source to
//! `m` receiver sites. This crate builds those trees and measures them:
//!
//! * [`delivery`] — incremental delivery-tree sizing on top of a BFS
//!   shortest-path tree (each receiver's path is walked rootward until it
//!   merges with the already-built tree, mirroring how source-specific
//!   multicast routing grafts branches);
//! * [`sampling`] — the paper's receiver models: `m` *distinct* uniform
//!   sites (§2), `n` with-replacement draws (§3), and leaf-only pools;
//! * [`measure`] — the §2 methodology: per-(source, receiver-set) samples
//!   of `L/ū`, averaged over `N_source × N_rcvr` draws;
//! * [`stats`] — streaming mean/variance accumulation;
//! * [`affinity`] — the §5 receiver affinity/disaffinity model: Metropolis
//!   sampling of configurations weighted by `exp(−β·d̄(α))` on rooted
//!   trees, with O(depth) incremental updates;
//! * [`extremes`] — the §5.2/§5.3 closed forms for `β = ±∞` on k-ary
//!   trees;
//! * [`shared`] — center-based (CBT/PIM-SM style) shared trees, the
//!   alternative the paper's footnote 1 scopes out (ablation support);
//! * [`steiner`] — a greedy nearest-terminal Steiner heuristic, bounding
//!   how far shortest-path trees sit from cost-optimal trees;
//! * [`policy`] — explicit shortest-path tie-breaking (lowest-id,
//!   highest-id, randomised ECMP) over the all-shortest-paths DAG;
//! * [`dynamics`] — join/leave membership churn of one session (session
//!   dynamics), maintained incrementally on a [`storm::SessionTree`];
//! * [`storm`] — event-driven churn across 10⁵+ concurrent sessions:
//!   a deterministic `(time_bits, session, seq)` event calendar, sparse
//!   per-session trees ([`storm::SessionTree`], the crate's one
//!   incremental member tree) over shared shortest-path skeletons, and
//!   batched flash-crowd grafts through the bit-parallel BFS kernel;
//! * [`affinity_general`] — the affinity model on arbitrary connected
//!   graphs via an all-pairs distance matrix (the paper only simulates
//!   trees).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affinity;
pub mod affinity_general;
pub mod delivery;
pub mod dynamics;
pub mod extremes;
pub mod measure;
pub mod policy;
pub mod sampling;
pub mod shared;
pub mod stats;
pub mod steiner;
pub mod storm;

pub use delivery::DeliverySizer;
pub use measure::{MeasureConfig, MeasureEngine, SampleKind, SourceMeasurer, SourcePlan};
pub use stats::RunningStats;
