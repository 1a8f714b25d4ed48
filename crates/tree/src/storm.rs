//! `storm`: event-driven churn across many concurrent multicast sessions.
//!
//! The single-session machinery in [`crate::dynamics`] answers what one
//! group's tree, a [`SessionTree`] like each of this engine's sessions,
//! does under churn; the Chuang–Sirbu law, though, is a statement about
//! a *population* of trees, and the heavy-traffic regime the
//! capacity-scaling literature reasons about is 10⁵–10⁶ sessions
//! churning over one shared topology. This module is that engine:
//!
//! * **One sorted calendar.** Events are keyed by [`EventKey`] —
//!   `(time_bits, session, seq)`, where `time_bits` is
//!   [`crate::dynamics::time_order_bits`] of the event time. The key is a
//!   plain integer tuple with derived `Ord`, so equal-time events always
//!   replay in `(session, seq)` order: the stream is bit-reproducible
//!   whatever order events were scheduled in and whatever the float
//!   environment does. Scheduling appends to a plain vector, and nothing
//!   is scheduled while a run is in progress, so [`Storm::run`] sorts the
//!   calendar once, in place; `seq` makes every key unique, so that is
//!   exactly the order a priority queue would pop. The key is the only
//!   copy of the time (the fold inverts exactly), so an event is 24 bytes
//!   and one `Storm` schedules at most [`Storm::MAX_EVENTS`] of them.
//! * **Three passes over the sorted calendar.** Sessions never interact:
//!   an event changes only its own session's tree, and the aggregates are
//!   sums over sessions. So a run applies events where they are cheap and
//!   folds their effects where the order matters:
//!   1. *skeletons*, in time order: per tick (every event of one instant)
//!      decide which sources' shortest-path skeletons the batch kernel
//!      builds, and count the scalar builds;
//!   2. *sessions*, session-major: following a per-session list threaded
//!      through the events' own `seq` fields, which the sorted calendar
//!      no longer needs, run each session's events back to back in time
//!      order with one [`SessionTree`] alive at a time, and write each
//!      event's effect (links grafted or pruned, started, ended, stale)
//!      into the event's own calendar slot;
//!   3. *fold*, in time order: sum the effects into totals, peaks,
//!      samples and time-weighted means, tick by tick.
//! * **Shared skeletons, sparse sessions.** A dense refcount array per
//!   session would cost `O(sessions × nodes)` memory — 10⁵ sessions on
//!   ti5000 is gigabytes. Instead each distinct source's shortest-path
//!   skeleton (one parent array, built under the schedule-independent
//!   lowest-id rule of `min_index_parents`) is shared behind an `Arc`, and
//!   a [`SessionTree`] holds only its own sparse counts — memory
//!   proportional to *members*, not nodes. A join grafts only up to the
//!   first node already in the tree, a leave prunes only up to the first
//!   node that stays in it. A skeleton stores its parents as `u16` ids on
//!   graphs below 65,535 nodes, and the engine drops its handle on one
//!   as soon as the last session rooted there has started.
//! * **Batched grafts.** When a tick starts at least
//!   [`Storm::DEFAULT_BATCH_THRESHOLD`] sessions whose skeletons are not
//!   yet built — a flash crowd igniting — the engine routes skeleton
//!   construction through [`BatchBfs`] 64 lanes per sweep; every other
//!   skeleton is built lazily by one scalar BFS, reusing the engine's
//!   single scratch. Both paths derive parents with the same rule from
//!   bit-identical distances, so batching can never change a number
//!   (pinned by tests).
//!
//! Determinism contract: a [`Storm`] run is a pure function of the graph
//! and the scheduled event set. The engine is sequential; callers that
//! parallelise across scenarios (the `mcs storm` experiment) merge by
//! index, so per-tick L(m) telemetry is bit-identical at every thread
//! count.

use crate::dynamics::{time_order_bits, time_order_value, LifetimeShape};
use mcast_topology::batch::{max_lanes, BatchBfs, LANES_PER_WORD};
use mcast_topology::bfs::{min_index_parents, Bfs, UNREACHED};
use mcast_topology::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Deterministic calendar key: events order by time (via the
/// total-order bit fold), then session id, then schedule sequence.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventKey {
    /// [`time_order_bits`] of the event time.
    pub time_bits: u64,
    /// Session the event belongs to.
    pub session: u32,
    /// Monotone schedule counter — the final tie-breaker, so two events
    /// of one session at one instant apply in the order they were
    /// scheduled.
    pub seq: u32,
}

/// What an event does. The `schedule_*` methods write the first four
/// variants; the session pass replaces each with the effect it had, which
/// is all the fold needs. Link counts fit a `u32`: a session's tree has
/// fewer links than the graph has nodes.
#[derive(Clone, Copy, Debug)]
enum EventKind {
    SessionStart {
        source: NodeId,
    },
    SessionEnd,
    Join {
        site: NodeId,
    },
    Leave {
        site: NodeId,
    },
    /// A session started.
    Started,
    /// A session ended holding `links` links. Its member count is parked
    /// in the event's `key.seq`, which no later pass reads.
    Ended {
        links: u32,
    },
    /// A join that grafted `links` links.
    Grafted {
        links: u32,
    },
    /// A leave that removed a member and pruned `links` links.
    Pruned {
        links: u32,
    },
    /// An event addressed to a session that was not live, or a leave at a
    /// site with no member.
    Stale,
}

impl EventKind {
    /// Whether the session pass has replaced the scheduled kind.
    fn is_applied(self) -> bool {
        !matches!(
            self,
            EventKind::SessionStart { .. }
                | EventKind::SessionEnd
                | EventKind::Join { .. }
                | EventKind::Leave { .. }
        )
    }
}

/// A scheduled event. Its time lives only in `key.time_bits`; the fold
/// recovers the clock with [`time_order_value`].
#[derive(Clone, Copy, Debug)]
struct Event {
    key: EventKey,
    kind: EventKind,
}

// The calendar holds every scheduled event at once (1.2 M in a 10⁵-session
// flash crowd): a field that widens `Event` widens the whole calendar.
const _: () = assert!(std::mem::size_of::<Event>() == 24);

/// An event calendar desynchronised from the engine's contract, or too
/// large to schedule — a typed error, so a suite run can quarantine the
/// one affected curve instead of aborting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StormError {
    /// A session id was started twice.
    DuplicateSession {
        /// The offending session id.
        session: u32,
        /// Simulation clock at that point.
        now: f64,
    },
    /// A flash scenario would schedule more events than one [`Storm`] can
    /// hold ([`Storm::MAX_EVENTS`]); refused before the calendar is
    /// allocated.
    CalendarTooLarge {
        /// Sessions requested.
        sessions: u32,
        /// Receivers requested per session.
        receivers_per_session: u32,
    },
}

impl std::fmt::Display for StormError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StormError::DuplicateSession { session, now } => {
                write!(f, "storm calendar desync: session {session} started twice (t={now})")
            }
            StormError::CalendarTooLarge {
                sessions,
                receivers_per_session,
            } => write!(
                f,
                "storm calendar too large: {sessions} sessions x {receivers_per_session} receivers need more than 2^32 - 1 events"
            ),
        }
    }
}

impl std::error::Error for StormError {}

/// A skeleton's parent array at the narrowest id width the graph needs:
/// `u16` ids, with `u16::MAX` standing for [`UNREACHED`], below
/// [`Parents::NARROW_LIMIT`] nodes, `u32` ids otherwise. Halving the
/// width halves a storm's skeleton memory, which on ti5000 with 5,000
/// live sources is most of the engine's footprint.
enum Parents {
    Narrow(Vec<u16>),
    Wide(Vec<NodeId>),
}

impl Parents {
    /// Graphs with fewer nodes than this store `u16` parents: every id is
    /// below `u16::MAX`, which is left free for the sentinel.
    const NARROW_LIMIT: usize = u16::MAX as usize;

    /// Take the parents `scratch` holds (one per node, as
    /// `min_index_parents` writes them). The narrow copy leaves `scratch`
    /// allocated for the next build; the wide case moves it out.
    fn from_scratch(scratch: &mut Vec<NodeId>) -> Self {
        if scratch.len() < Self::NARROW_LIMIT {
            Parents::Narrow(
                scratch
                    .iter()
                    .map(|&p| u16::try_from(p).unwrap_or(u16::MAX))
                    .collect(),
            )
        } else {
            Parents::Wide(std::mem::take(scratch))
        }
    }

    /// Parent of `v`, or [`UNREACHED`].
    #[inline]
    fn get(&self, v: NodeId) -> NodeId {
        match self {
            Parents::Narrow(p) => match p[v as usize] {
                u16::MAX => UNREACHED,
                id => NodeId::from(id),
            },
            Parents::Wide(p) => p[v as usize],
        }
    }
}

/// One source's shortest-path skeleton: parent pointers under the
/// lowest-id rule in a storm, under the FIFO BFS rule in
/// [`SessionTree::from_graph`]. `parent.get(source) == source`;
/// unreachable nodes carry [`UNREACHED`]. Shared by every session rooted
/// there.
struct SourceTree {
    source: NodeId,
    parent: Parents,
}

impl SourceTree {
    /// The one constructor both build paths use: wrap the parents that
    /// `scratch` holds for `source`.
    fn from_scratch(source: NodeId, scratch: &mut Vec<NodeId>) -> Arc<Self> {
        Arc::new(SourceTree {
            source,
            parent: Parents::from_scratch(scratch),
        })
    }
}

/// A source's skeleton during one run: the tree once built, and how many
/// of the calendar's session starts rooted there the session pass has
/// still to apply. The engine drops its handle when that reaches zero.
struct Skeleton {
    tree: Option<Arc<SourceTree>>,
    starts_left: u32,
}

/// A sparse per-session member tree over a shared `SourceTree`: the
/// crate's one incremental delivery tree. A storm runs one per live
/// session; single-session churn ([`crate::dynamics::simulate_churn`])
/// runs one built by [`SessionTree::from_graph`].
///
/// State is two sorted `(node, count)` vectors, so memory scales with the
/// session's tree, not the graph:
/// * `members`: members joined exactly at a site;
/// * `count`: for each node in the tree other than the source, the
///   members joined at it plus its children in the tree. A node is in
///   the tree, and so is the link above it, exactly while its count is
///   non-zero, so a join grafts rootward only until it meets a node whose
///   count was already non-zero, and a leave prunes only until it meets
///   one whose count stays non-zero.
///
/// Members at the source or at an unreachable site are counted in
/// `members` only: they have no link to graft. A leave of a non-member is
/// a no-op that touches no count, so a desynchronised caller can never
/// underflow the tree.
pub struct SessionTree {
    skeleton: Arc<SourceTree>,
    members: Vec<(NodeId, u32)>,
    count: Vec<(NodeId, u32)>,
    member_count: u64,
    links: u64,
}

/// Increment `node`'s count in a sorted sparse vector; returns the new
/// count.
fn sparse_incr(vec: &mut Vec<(NodeId, u32)>, node: NodeId) -> u32 {
    match vec.binary_search_by_key(&node, |e| e.0) {
        Ok(i) => {
            vec[i].1 += 1;
            vec[i].1
        }
        Err(i) => {
            vec.insert(i, (node, 1));
            1
        }
    }
}

/// Decrement `node`'s count (which must be present and positive);
/// returns the new count and drops emptied entries.
fn sparse_decr(vec: &mut Vec<(NodeId, u32)>, node: NodeId) -> u32 {
    let i = vec
        .binary_search_by_key(&node, |e| e.0)
        .expect("decrement of an absent sparse entry");
    vec[i].1 -= 1;
    let left = vec[i].1;
    if left == 0 {
        vec.remove(i);
    }
    left
}

/// A session tree's `members` and `count` vectors, emptied, kept between
/// sessions so the session pass allocates to a high-water mark, not per
/// session.
type SparseBuffers = (Vec<(NodeId, u32)>, Vec<(NodeId, u32)>);

impl SessionTree {
    /// An empty session rooted at `source` on `graph`'s FIFO BFS
    /// shortest-path tree — the tree [`crate::DeliverySizer::from_graph`]
    /// sizes — with the skeleton's parents as narrow as a storm's.
    ///
    /// # Panics
    /// Panics if `source` is out of range.
    pub fn from_graph(graph: &Graph, source: NodeId) -> Self {
        let mut bfs = Bfs::new(graph);
        bfs.run_scratch(source);
        let mut parents = bfs.scratch_parents().to_vec();
        Self::new(
            SourceTree::from_scratch(source, &mut parents),
            SparseBuffers::default(),
        )
    }

    /// An empty session on `skeleton`, in `buffers` from an ended one.
    fn new(skeleton: Arc<SourceTree>, (members, count): SparseBuffers) -> Self {
        debug_assert!(members.is_empty() && count.is_empty());
        Self {
            skeleton,
            members,
            count,
            member_count: 0,
            links: 0,
        }
    }

    /// End the session: drop its handle on the skeleton and hand back
    /// its emptied buffers.
    fn into_buffers(self) -> SparseBuffers {
        let (mut members, mut count) = (self.members, self.count);
        members.clear();
        count.clear();
        (members, count)
    }

    /// The session's source.
    pub fn source(&self) -> NodeId {
        self.skeleton.source
    }

    /// Links currently in this session's delivery tree.
    pub fn links(&self) -> u64 {
        self.links
    }

    /// Members currently in this session.
    pub fn member_count(&self) -> u64 {
        self.member_count
    }

    /// Whether `site` joins without a rootward path: the source itself,
    /// or a site its skeleton never reached.
    fn pathless(&self, site: NodeId) -> bool {
        site == self.skeleton.source || self.skeleton.parent.get(site) == UNREACHED
    }

    /// Add a member at `site`; returns links grafted. The source and
    /// unreachable sites join for free but still count as members.
    pub fn join(&mut self, site: NodeId) -> u64 {
        sparse_incr(&mut self.members, site);
        self.member_count += 1;
        if self.pathless(site) {
            return 0;
        }
        let mut grafted = 0;
        let mut v = site;
        while v != self.skeleton.source && sparse_incr(&mut self.count, v) == 1 {
            grafted += 1;
            v = self.skeleton.parent.get(v);
        }
        self.links += grafted;
        grafted
    }

    /// Remove a member at `site`; returns `Some(links pruned)`, or
    /// `None` — a guaranteed no-op — when no member is joined there
    /// (leave-before-join, repeated leave, stale post-teardown prune).
    pub fn leave(&mut self, site: NodeId) -> Option<u64> {
        self.members.binary_search_by_key(&site, |e| e.0).ok()?;
        sparse_decr(&mut self.members, site);
        self.member_count -= 1;
        if self.pathless(site) {
            return Some(0);
        }
        let mut pruned = 0;
        let mut v = site;
        while v != self.skeleton.source && sparse_decr(&mut self.count, v) == 0 {
            pruned += 1;
            v = self.skeleton.parent.get(v);
        }
        self.links -= pruned;
        Some(pruned)
    }
}

/// One telemetry sample of the aggregate state, taken every
/// [`Storm::sample_every`] applied events.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StormSample {
    /// Simulation clock.
    pub time: f64,
    /// Live sessions.
    pub sessions: u64,
    /// Members summed over live sessions.
    pub members: u64,
    /// Links summed over live sessions — the aggregate L(m).
    pub links: u64,
    /// Cumulative joins applied so far (rates fall out of deltas).
    pub joins: u64,
}

/// Aggregate result of a [`Storm::run`].
#[derive(Clone, Debug, Default)]
pub struct StormOutcome {
    /// Events applied.
    pub events: u64,
    /// Member joins applied.
    pub joins: u64,
    /// Member leaves that removed a member.
    pub leaves: u64,
    /// Sessions started.
    pub sessions_started: u64,
    /// Sessions torn down.
    pub sessions_ended: u64,
    /// Events referencing a session no longer (or never) live — e.g.
    /// leaves scheduled past their session's teardown. Counted, ignored.
    pub stale_events: u64,
    /// Links grafted across all sessions.
    pub grafted_links: u64,
    /// Links pruned across all sessions (teardowns included).
    pub pruned_links: u64,
    /// Peak concurrent sessions.
    pub peak_sessions: u64,
    /// Peak aggregate members.
    pub peak_members: u64,
    /// Peak aggregate links.
    pub peak_links: u64,
    /// `BatchBfs` sweeps used for skeleton construction.
    pub batch_sweeps: u64,
    /// Skeletons built on the batched path.
    pub trees_built_batch: u64,
    /// Skeletons built by scalar BFS.
    pub trees_built_scalar: u64,
    /// Time-weighted mean of live sessions over the measured window.
    pub mean_sessions: f64,
    /// Time-weighted mean of aggregate members over the measured window.
    pub mean_members: f64,
    /// Time-weighted mean of aggregate links over the measured window.
    pub mean_links: f64,
    /// Per-tick telemetry (empty when sampling is disabled).
    pub samples: Vec<StormSample>,
}

/// The multi-session event engine. Schedule events, then [`run`](Self::run).
///
/// A run consumes the calendar and drops every session and skeleton it
/// built, so the same `Storm` can be scheduled and run again, with the
/// outcome a fresh engine would give. One `Storm` schedules at most
/// [`Storm::MAX_EVENTS`] (2³² − 1) events over its life; the `schedule_*`
/// methods panic past that.
pub struct Storm<'g> {
    graph: &'g Graph,
    bfs: Bfs<'g>,
    batch: BatchBfs<'g>,
    batch_threshold: usize,
    sample_every: u64,
    measure_from: f64,
    measure_until: f64,
    /// Scheduled events, in schedule order until [`run`](Self::run) sorts
    /// them.
    calendar: Vec<Event>,
    next_seq: u32,
    /// Every source with a session start still to apply in this run.
    skeletons: HashMap<NodeId, Skeleton>,
    /// Scratch for parent derivation, shared by both build paths.
    parent_scratch: Vec<NodeId>,
    /// Scratch for the batch prefetch.
    wanted: Vec<NodeId>,
}

impl<'g> Storm<'g> {
    /// Ticks grafting at least this many uncached sources route skeleton
    /// construction through [`BatchBfs`]. Pinned to one mask word of
    /// lanes — the narrowest sweep the kernel runs — not to the kernel's
    /// maximum width, so the break-even point does not move when the
    /// wide-lane ceiling grows.
    pub const DEFAULT_BATCH_THRESHOLD: usize = LANES_PER_WORD;

    /// Events one `Storm` can schedule over its life, 2³² − 1: the
    /// schedule counter [`EventKey::seq`] is a `u32`.
    pub const MAX_EVENTS: u64 = u32::MAX as u64;

    /// New engine over `graph` with an empty calendar.
    pub fn new(graph: &'g Graph) -> Self {
        Self {
            graph,
            bfs: Bfs::new(graph),
            batch: BatchBfs::new(graph),
            batch_threshold: Self::DEFAULT_BATCH_THRESHOLD,
            sample_every: 0,
            measure_from: 0.0,
            measure_until: f64::INFINITY,
            calendar: Vec::new(),
            next_seq: 0,
            skeletons: HashMap::new(),
            parent_scratch: Vec::new(),
            wanted: Vec::new(),
        }
    }

    /// Override the batched-graft threshold (tests pin batch-vs-scalar
    /// bit-identity by forcing each path; `usize::MAX` disables batching).
    pub fn batch_threshold(mut self, threshold: usize) -> Self {
        self.batch_threshold = threshold.max(1);
        self
    }

    /// Record a telemetry sample every `n` applied events (0 disables).
    pub fn sample_every(mut self, n: u64) -> Self {
        self.sample_every = n;
        self
    }

    /// Start of the time-weighted measurement window (events before it
    /// still apply; they just don't contribute to the reported means).
    pub fn measure_from(mut self, t: f64) -> Self {
        self.measure_from = t;
        self
    }

    /// End of the time-weighted measurement window. Without a cap the
    /// calendar's drain tail — arrivals stopped, members trickling out —
    /// would bias steady-state means toward empty.
    pub fn measure_until(mut self, t: f64) -> Self {
        self.measure_until = t;
        self
    }

    /// Events currently scheduled.
    pub fn pending_events(&self) -> usize {
        self.calendar.len()
    }

    fn push(&mut self, t: f64, session: u32, kind: EventKind) {
        let seq = self.next_seq;
        assert!(
            seq < u32::MAX,
            "a Storm schedules at most {} (2^32 - 1) events",
            Self::MAX_EVENTS
        );
        self.next_seq += 1;
        let key = EventKey {
            time_bits: time_order_bits(t),
            session,
            seq,
        };
        self.calendar.push(Event { key, kind });
    }

    /// Schedule session `session` to start at `t` rooted at `source`. An
    /// id may start again once its previous session has ended.
    pub fn schedule_session_start(&mut self, t: f64, session: u32, source: NodeId) {
        assert!(
            (source as usize) < self.graph.node_count(),
            "source out of range"
        );
        self.push(t, session, EventKind::SessionStart { source });
    }

    /// Schedule the teardown of `session` at `t`: every remaining member
    /// leaves and the session's state is dropped.
    pub fn schedule_session_end(&mut self, t: f64, session: u32) {
        self.push(t, session, EventKind::SessionEnd);
    }

    /// Schedule a member join at `site` in `session` at `t`.
    pub fn schedule_join(&mut self, t: f64, session: u32, site: NodeId) {
        assert!(
            (site as usize) < self.graph.node_count(),
            "site out of range"
        );
        self.push(t, session, EventKind::Join { site });
    }

    /// Schedule a member leave at `site` in `session` at `t`.
    pub fn schedule_leave(&mut self, t: f64, session: u32, site: NodeId) {
        self.push(t, session, EventKind::Leave { site });
    }

    fn build_scalar(&mut self, source: NodeId) -> Arc<SourceTree> {
        self.bfs.run_scratch(source);
        min_index_parents(
            self.graph,
            self.bfs.scratch_distances(),
            source,
            &mut self.parent_scratch,
        );
        SourceTree::from_scratch(source, &mut self.parent_scratch)
    }

    /// Consume the calendar, applying every event in `(time, session,
    /// seq)` order, and report the aggregate outcome.
    ///
    /// On `Ok` and on `Err` alike the calendar is empty afterwards and no
    /// session or skeleton is left over: the engine is ready for a new
    /// schedule.
    ///
    /// # Errors
    /// [`StormError::DuplicateSession`] if a session id starts while it
    /// is live — the calendar is desynchronised and the aggregates would
    /// silently double-count. The error names the first such start in
    /// `(time, session, seq)` order.
    pub fn run(&mut self) -> Result<StormOutcome, StormError> {
        let _span = mcast_obs::span_at("storm/run");
        let mut calendar = std::mem::take(&mut self.calendar);
        // Every key is unique (`seq` is), so the unstable sort is the one
        // total order a priority queue would pop.
        calendar.sort_unstable_by_key(|ev| ev.key);
        let mut out = StormOutcome::default();
        self.prefetch_skeletons(&calendar, &mut out);
        let applied = self.apply_sessions(&mut calendar);
        self.skeletons.clear();
        applied?;
        self.fold(&calendar, &mut out);
        Ok(out)
    }

    /// The skeletons pass, in time order: per tick, batch-build the skeletons of a
    /// flash crowd's worth of not-yet-built sources, and count each other
    /// source's first start as one scalar build (made lazily by the
    /// session pass). Also counts every source's starts, so the session
    /// pass knows when a skeleton's last session has started.
    fn prefetch_skeletons(&mut self, calendar: &[Event], out: &mut StormOutcome) {
        let _span = mcast_obs::span("skeletons");
        for tick in calendar.chunk_by(|a, b| a.key.time_bits == b.key.time_bits) {
            self.wanted.clear();
            for ev in tick {
                if let EventKind::SessionStart { source } = ev.kind {
                    if !self.skeletons.contains_key(&source) {
                        self.wanted.push(source);
                    }
                }
            }
            self.wanted.sort_unstable();
            self.wanted.dedup();
            if self.wanted.len() >= self.batch_threshold {
                for chunk in self.wanted.chunks(max_lanes()) {
                    // An exactly-threshold tick is one batch sweep and
                    // nothing else; only a trailing chunk too small to
                    // amortise a sweep falls through to the per-source
                    // scalar path below.
                    if chunk.len() < self.batch_threshold {
                        continue;
                    }
                    self.batch.run(chunk);
                    out.batch_sweeps += 1;
                    for (lane, &source) in chunk.iter().enumerate() {
                        self.batch.parent_tree(lane, &mut self.parent_scratch);
                        let tree = SourceTree::from_scratch(source, &mut self.parent_scratch);
                        self.skeletons.insert(
                            source,
                            Skeleton {
                                tree: Some(tree),
                                starts_left: 0,
                            },
                        );
                        out.trees_built_batch += 1;
                    }
                }
            }
            for ev in tick {
                if let EventKind::SessionStart { source } = ev.kind {
                    let skeleton = self.skeletons.entry(source).or_insert_with(|| {
                        out.trees_built_scalar += 1;
                        Skeleton {
                            tree: None,
                            starts_left: 0,
                        }
                    });
                    skeleton.starts_left += 1;
                }
            }
        }
    }

    /// The skeleton for one session start at `source`, built now if the
    /// prefetch left it to the scalar path. The engine keeps its own
    /// handle only while sessions rooted there have still to start.
    fn take_skeleton(&mut self, source: NodeId) -> Arc<SourceTree> {
        let slot = self
            .skeletons
            .get_mut(&source)
            .expect("the prefetch counted every session start");
        slot.starts_left -= 1;
        let built = slot.tree.clone();
        if slot.starts_left == 0 {
            self.skeletons.remove(&source);
        }
        built.unwrap_or_else(|| {
            let tree = self.build_scalar(source);
            if let Some(slot) = self.skeletons.get_mut(&source) {
                slot.tree = Some(Arc::clone(&tree));
            }
            tree
        })
    }

    /// The sessions pass, session-major: apply each session's events back to back,
    /// in time order, with one [`SessionTree`] alive at a time, and leave
    /// each event's effect in its calendar slot for the fold. Sessions
    /// are taken in the order of their first events.
    ///
    /// # Errors
    /// [`StormError::DuplicateSession`] for the earliest start, in
    /// calendar order, of a session that is already live.
    fn apply_sessions(&mut self, calendar: &mut [Event]) -> Result<(), StormError> {
        let _span = mcast_obs::span("sessions");
        link_sessions(calendar);
        let mut duplicate: Option<usize> = None;
        let mut spare = SparseBuffers::default();
        for first in 0..calendar.len() {
            if calendar[first].kind.is_applied() {
                continue; // an event of a session already applied
            }
            let mut live: Option<SessionTree> = None;
            let mut next = first as u32;
            while next != NO_NEXT {
                let pos = next as usize;
                let ev = &mut calendar[pos];
                next = ev.key.seq;
                ev.kind = match ev.kind {
                    EventKind::SessionStart { .. } if live.is_some() => {
                        // Positions are calendar order, so the smallest is
                        // the duplicate a time-ordered replay meets first.
                        duplicate = Some(duplicate.map_or(pos, |d| d.min(pos)));
                        EventKind::Stale
                    }
                    EventKind::SessionStart { source } => {
                        let skeleton = self.take_skeleton(source);
                        live = Some(SessionTree::new(skeleton, std::mem::take(&mut spare)));
                        EventKind::Started
                    }
                    EventKind::SessionEnd => match live.take() {
                        Some(tree) => {
                            ev.key.seq = narrow(tree.member_count());
                            let links = narrow(tree.links());
                            spare = tree.into_buffers();
                            EventKind::Ended { links }
                        }
                        None => EventKind::Stale,
                    },
                    EventKind::Join { site } => match live.as_mut() {
                        Some(tree) => EventKind::Grafted {
                            links: narrow(tree.join(site)),
                        },
                        None => EventKind::Stale,
                    },
                    EventKind::Leave { site } => match live.as_mut().and_then(|t| t.leave(site)) {
                        Some(links) => EventKind::Pruned {
                            links: narrow(links),
                        },
                        None => EventKind::Stale,
                    },
                    applied => unreachable!("{applied:?} applied twice"),
                };
            }
            if let Some(tree) = live {
                spare = tree.into_buffers();
            }
        }
        match duplicate {
            Some(pos) => Err(StormError::DuplicateSession {
                session: calendar[pos].key.session,
                now: time_order_value(calendar[pos].key.time_bits),
            }),
            None => Ok(()),
        }
    }

    /// The fold, in time order: sum the effects the sessions pass left in
    /// the calendar into totals, peaks, samples and the time-weighted
    /// means, with the float operations of a single time-ordered drain.
    fn fold(&self, calendar: &[Event], out: &mut StormOutcome) {
        let _span = mcast_obs::span("fold");
        let mut now = 0.0f64;
        let mut sessions_total: u64 = 0;
        let mut links_total: u64 = 0;
        let mut members_total: u64 = 0;
        let mut measured_time = 0.0f64;
        let mut w_sessions = 0.0f64;
        let mut w_members = 0.0f64;
        let mut w_links = 0.0f64;

        for tick in calendar.chunk_by(|a, b| a.key.time_bits == b.key.time_bits) {
            // Advance the clock to the tick, integrating the measured
            // window (state is piecewise constant between ticks).
            let t = time_order_value(tick[0].key.time_bits);
            let lo = now.max(self.measure_from);
            let hi = t.min(self.measure_until);
            if hi > lo {
                let dt = hi - lo;
                measured_time += dt;
                w_sessions += sessions_total as f64 * dt;
                w_members += members_total as f64 * dt;
                w_links += links_total as f64 * dt;
            }
            now = t;

            for ev in tick {
                match ev.kind {
                    EventKind::Started => {
                        sessions_total += 1;
                        out.sessions_started += 1;
                    }
                    EventKind::Ended { links } => {
                        let links = u64::from(links);
                        out.pruned_links += links;
                        links_total -= links;
                        members_total -= u64::from(ev.key.seq);
                        sessions_total -= 1;
                        out.sessions_ended += 1;
                    }
                    EventKind::Grafted { links } => {
                        out.grafted_links += u64::from(links);
                        links_total += u64::from(links);
                        members_total += 1;
                        out.joins += 1;
                    }
                    EventKind::Pruned { links } => {
                        out.pruned_links += u64::from(links);
                        links_total -= u64::from(links);
                        members_total -= 1;
                        out.leaves += 1;
                    }
                    EventKind::Stale => out.stale_events += 1,
                    scheduled => unreachable!("the session pass left {scheduled:?} unapplied"),
                }
                out.events += 1;
                out.peak_sessions = out.peak_sessions.max(sessions_total);
                out.peak_members = out.peak_members.max(members_total);
                out.peak_links = out.peak_links.max(links_total);
                if self.sample_every > 0 && out.events.is_multiple_of(self.sample_every) {
                    out.samples.push(StormSample {
                        time: now,
                        sessions: sessions_total,
                        members: members_total,
                        links: links_total,
                        joins: out.joins,
                    });
                }
            }
        }

        if measured_time > 0.0 {
            out.mean_sessions = w_sessions / measured_time;
            out.mean_members = w_members / measured_time;
            out.mean_links = w_links / measured_time;
        }
        if mcast_obs::enabled() {
            mcast_obs::counter("storm.events").add(out.events);
            mcast_obs::counter("storm.joins").add(out.joins);
            mcast_obs::counter("storm.leaves").add(out.leaves);
            mcast_obs::counter("storm.sessions.started").add(out.sessions_started);
            mcast_obs::counter("storm.sessions.ended").add(out.sessions_ended);
            mcast_obs::counter("storm.stale").add(out.stale_events);
            mcast_obs::counter("storm.batch.sweeps").add(out.batch_sweeps);
            mcast_obs::counter("storm.trees.batch").add(out.trees_built_batch);
            mcast_obs::counter("storm.trees.scalar").add(out.trees_built_scalar);
        }
    }
}

/// A per-session count that fits an event slot: links are fewer than the
/// graph's `u32` node ids, members fewer than the calendar's events.
fn narrow(n: u64) -> u32 {
    u32::try_from(n).expect("a session's links and members fit a u32")
}

/// The `seq` of the last event of a session's list.
const NO_NEXT: u32 = u32::MAX;

/// Thread each session's events, in calendar order, into a list through
/// their `seq` fields, which the sorted calendar no longer needs: after
/// this, an event's `seq` is the position of its session's next event,
/// or [`NO_NEXT`]. A calendar holds at most [`Storm::MAX_EVENTS`]
/// events, so every position is below `NO_NEXT`. The only side table has
/// one entry per session, not per event.
fn link_sessions(calendar: &mut [Event]) {
    let mut next_of: HashMap<u32, u32> = HashMap::new();
    for (pos, ev) in calendar.iter_mut().enumerate().rev() {
        ev.key.seq = next_of
            .insert(ev.key.session, pos as u32)
            .unwrap_or(NO_NEXT);
    }
}

fn exp_sample(rng: &mut StdRng, rate: f64) -> f64 {
    -rng.gen_range(f64::MIN_POSITIVE..1.0f64).ln() / rate
}

fn uniform_node(rng: &mut StdRng, n: NodeId) -> NodeId {
    rng.gen_range(0..n)
}

/// Steady-state scenario: sessions arrive Poisson(`session_rate`) with
/// exponential lifetimes (M/M/∞ over sessions), and each live session's
/// members arrive Poisson(`member_rate`) at uniform non-source sites and
/// stay for lifetimes of mean `mean_member_lifetime` and shape
/// `member_lifetime_shape`. The stationary session count is
/// `session_rate × mean_session_lifetime`.
#[derive(Clone, Copy, Debug)]
pub struct SteadyConfig {
    /// Session arrival rate Λ.
    pub session_rate: f64,
    /// Mean session lifetime (exponential).
    pub mean_session_lifetime: f64,
    /// Member arrival rate λ within each live session.
    pub member_rate: f64,
    /// Mean membership lifetime `E[S]`.
    pub mean_member_lifetime: f64,
    /// Membership lifetime distribution shape (mean fixed by
    /// `mean_member_lifetime`).
    pub member_lifetime_shape: LifetimeShape,
    /// Generate session arrivals on `[0, horizon)`.
    pub horizon: f64,
    /// Start of the measured window (warmup before it; the window closes
    /// at `horizon`, so the post-horizon drain tail is never measured).
    pub measure_from: f64,
    /// Telemetry sampling stride in events (0 disables).
    pub sample_every: u64,
    /// RNG seed for the whole generated event set.
    pub seed: u64,
}

/// Generate and run a [`SteadyConfig`] scenario on `graph`.
///
/// # Panics
/// Panics if rates are non-positive or the graph has fewer than two
/// nodes.
pub fn simulate_steady(graph: &Graph, cfg: &SteadyConfig) -> Result<StormOutcome, StormError> {
    assert!(cfg.session_rate > 0.0, "session rate must be positive");
    assert!(
        cfg.mean_session_lifetime > 0.0,
        "session lifetime must be positive"
    );
    assert!(
        cfg.member_rate > 0.0,
        "member arrival rate must be positive"
    );
    assert!(graph.node_count() >= 2, "need at least two nodes");
    let n = graph.node_count() as NodeId;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut storm = Storm::new(graph)
        .sample_every(cfg.sample_every)
        .measure_from(cfg.measure_from)
        .measure_until(cfg.horizon);

    let mut t = 0.0f64;
    let mut session: u32 = 0;
    loop {
        t += exp_sample(&mut rng, cfg.session_rate);
        if t >= cfg.horizon {
            break;
        }
        let source = uniform_node(&mut rng, n);
        let end = t + exp_sample(&mut rng, 1.0 / cfg.mean_session_lifetime);
        storm.schedule_session_start(t, session, source);
        // Member arrivals over the session's lifetime; leaves past the
        // teardown are left to the engine's stale handling, like a real
        // protocol's prune timers firing after the session is gone.
        let mut u = t;
        loop {
            u += exp_sample(&mut rng, cfg.member_rate);
            if u >= end {
                break;
            }
            let site = loop {
                let v = uniform_node(&mut rng, n);
                if v != source {
                    break v;
                }
            };
            storm.schedule_join(u, session, site);
            let stay = cfg
                .member_lifetime_shape
                .sample(cfg.mean_member_lifetime, &mut rng);
            storm.schedule_leave(u + stay, session, site);
        }
        storm.schedule_session_end(end, session);
        session += 1;
    }
    storm.run()
}

/// Flash-crowd scenario: `sessions` sessions all ignite at `burst_time`
/// (the same instant, so skeleton grafting hits the batched path), each
/// with `receivers_per_session` geographically correlated receivers drawn
/// from the §5 affinity sampler (Metropolis chain over the topology's
/// BFS skeleton, weighted `exp(−β·d̄)`), joining within `join_window` and
/// draining with exponential lifetimes.
#[derive(Clone, Copy, Debug)]
pub struct FlashConfig {
    /// Concurrent sessions ignited by the burst.
    pub sessions: u32,
    /// Receivers per session.
    pub receivers_per_session: u32,
    /// Affinity strength β (`> 0` clusters each session's receivers).
    pub beta: f64,
    /// Metropolis sweeps between consecutive sessions' receiver draws.
    pub sampler_sweeps: u32,
    /// The instant every session starts.
    pub burst_time: f64,
    /// Joins land uniformly in `(burst_time, burst_time + join_window]`
    /// (0 puts every join in the burst tick itself).
    pub join_window: f64,
    /// Mean membership lifetime (exponential drain).
    pub mean_lifetime: f64,
    /// Telemetry sampling stride in events (0 disables).
    pub sample_every: u64,
    /// RNG seed.
    pub seed: u64,
}

/// Generate and run a [`FlashConfig`] scenario on `graph`, using `root`
/// as the BFS-skeleton root for the affinity sampler.
///
/// The calendar is reserved up front at its exact size: each session
/// schedules a start, an end, and a join and a leave per receiver.
///
/// # Errors
/// [`StormError::CalendarTooLarge`] if that count exceeds
/// [`Storm::MAX_EVENTS`], before anything is allocated.
///
/// # Panics
/// Panics if the graph is not connected (the affinity chain needs a
/// spanning skeleton), `sessions == 0`, or `receivers_per_session == 0`.
pub fn simulate_flash(
    graph: &Graph,
    root: NodeId,
    cfg: &FlashConfig,
) -> Result<StormOutcome, StormError> {
    assert!(cfg.sessions > 0, "need at least one session");
    assert!(cfg.receivers_per_session > 0, "need at least one receiver");
    assert!(cfg.mean_lifetime > 0.0, "lifetime must be positive");
    // In u32, like the schedule counter: overflow is exceeding the limit.
    let calendar = cfg
        .receivers_per_session
        .checked_mul(2)
        .and_then(|joins_and_leaves| joins_and_leaves.checked_add(2))
        .and_then(|per_session| per_session.checked_mul(cfg.sessions))
        .ok_or(StormError::CalendarTooLarge {
            sessions: cfg.sessions,
            receivers_per_session: cfg.receivers_per_session,
        })?;
    let n = graph.node_count() as NodeId;

    // Spanning BFS skeleton of the topology, rooted at `root`, as the
    // affinity sampler's tree (§5 samples on rooted trees; distances on
    // the skeleton are a hop-metric proxy for the full graph's).
    let mut bfs = Bfs::new(graph);
    bfs.run_scratch(root);
    assert_eq!(
        bfs.scratch_order().len(),
        graph.node_count(),
        "flash scenario needs a connected graph"
    );
    let edges: Vec<(NodeId, NodeId)> = (0..n)
        .filter(|&v| v != root)
        .map(|v| (bfs.scratch_parents()[v as usize], v))
        .collect();
    let skeleton = mcast_topology::graph::from_edges(graph.node_count(), &edges);
    let rooted = crate::affinity::RootedTree::from_graph(&skeleton, root);
    let mut sampler = crate::affinity::AffinitySampler::new(
        &rooted,
        cfg.receivers_per_session as usize,
        cfg.beta,
        cfg.seed ^ 0x5701_24af,
    );

    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut storm = Storm::new(graph)
        .sample_every(cfg.sample_every)
        .measure_from(cfg.burst_time);
    storm.calendar.reserve_exact(calendar as usize);
    for session in 0..cfg.sessions {
        let source = uniform_node(&mut rng, n);
        storm.schedule_session_start(cfg.burst_time, session, source);
        for _ in 0..cfg.sampler_sweeps {
            sampler.sweep();
        }
        let mut last_leave = cfg.burst_time;
        // Snapshot the chain's current configuration as this session's
        // receiver set (correlated placements, decorrelated sessions).
        for i in 0..sampler.receivers().len() {
            let site = sampler.receivers()[i];
            let join_at = if cfg.join_window > 0.0 {
                cfg.burst_time + rng.gen_range(0.0..cfg.join_window)
            } else {
                cfg.burst_time
            };
            let leave_at = join_at + exp_sample(&mut rng, 1.0 / cfg.mean_lifetime);
            storm.schedule_join(join_at, session, site);
            storm.schedule_leave(leave_at, session, site);
            last_leave = last_leave.max(leave_at);
        }
        storm.schedule_session_end(last_leave, session);
    }
    storm.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delivery::DeliverySizer;
    use mcast_topology::graph::from_edges;

    /// A heap-shaped binary tree on `n` nodes: node `i` hangs off
    /// `(i - 1) / 2`.
    fn heap_tree(n: NodeId) -> Graph {
        let edges: Vec<_> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
        from_edges(n as usize, &edges)
    }

    fn binary_tree(depth: u32) -> Graph {
        heap_tree((1 << (depth + 1)) - 1)
    }

    /// A connected graph with shortest-path ties (a grid-ish mesh), so
    /// parent-rule determinism actually matters.
    fn mesh(side: NodeId) -> Graph {
        let mut edges = Vec::new();
        for r in 0..side {
            for c in 0..side {
                let v = r * side + c;
                if c + 1 < side {
                    edges.push((v, v + 1));
                }
                if r + 1 < side {
                    edges.push((v, v + side));
                }
            }
        }
        from_edges((side * side) as usize, &edges)
    }

    #[test]
    fn event_keys_order_by_time_then_session_then_seq() {
        let k = |t: f64, session: u32, seq: u32| EventKey {
            time_bits: time_order_bits(t),
            session,
            seq,
        };
        assert!(k(1.0, 9, 9) < k(2.0, 0, 0));
        assert!(k(1.0, 0, 9) < k(1.0, 1, 0));
        assert!(k(1.0, 3, 0) < k(1.0, 3, 1));
        // Equal times compare equal on bits, never via float comparison.
        assert_eq!(k(0.1 + 0.2, 0, 0).time_bits, k(0.1 + 0.2, 0, 0).time_bits);
    }

    /// Drive a `SessionTree` on `skeleton` through `ops` (join or leave,
    /// site), which must end with every member gone, against a recount:
    /// the member multiset sized from scratch by `DeliverySizer` after
    /// every op. On a tree graph the shortest-path tree is unique, so the
    /// lowest-id rule and the sizer's FIFO rule coincide, and a join's
    /// grafts must be the recount's rise and a leave's prunes its fall.
    fn assert_matches_member_tree(g: &Graph, skeleton: Arc<SourceTree>, ops: &[(bool, NodeId)]) {
        let mut sizer = DeliverySizer::from_graph(g, skeleton.source);
        let mut members: Vec<NodeId> = Vec::new();
        let mut tree = SessionTree::new(skeleton, SparseBuffers::default());
        for &(join, site) in ops {
            let before = sizer.tree_links(&members);
            if join {
                members.push(site);
                let grafted = tree.join(site);
                assert_eq!(grafted, sizer.tree_links(&members) - before, "join {site}");
            } else {
                let pruned = tree.leave(site);
                match members.iter().position(|&m| m == site) {
                    Some(i) => {
                        members.swap_remove(i);
                        let fall = before - sizer.tree_links(&members);
                        assert_eq!(pruned, Some(fall), "leave {site}");
                    }
                    None => assert_eq!(pruned, None, "leave of non-member {site}"),
                }
            }
            assert_eq!(tree.links(), sizer.tree_links(&members));
            assert_eq!(tree.member_count(), members.len() as u64);
        }
        assert_eq!(tree.links(), 0);
        assert!(tree.count.is_empty(), "prunes empty the sparse state");
    }

    #[test]
    fn session_tree_matches_member_tree_on_unique_spt() {
        let g = binary_tree(5);
        let mut storm = Storm::new(&g);
        let skeleton = storm.build_scalar(0);
        assert!(matches!(skeleton.parent, Parents::Narrow(_)));
        let ops: [(bool, NodeId); 13] = [
            (true, 9),
            (true, 23),
            (true, 44),
            (true, 44),
            (false, 44),
            (true, 61),
            (false, 23),
            (false, 23), // double leave: a no-op
            (true, 12),
            (false, 9),
            (false, 61),
            (false, 44), // second leave of the doubly-joined site
            (false, 12),
        ];
        assert_matches_member_tree(&g, skeleton, &ops);
    }

    #[test]
    fn wide_session_tree_matches_member_tree_on_unique_spt() {
        // Past the u16 id range: skeletons store u32 parents, built on
        // both the scalar and the batched path.
        let n: NodeId = 70_001;
        let g = heap_tree(n);
        let sources = [0, n - 2];
        let ops: [(bool, NodeId); 13] = [
            (true, n - 1), // the largest id
            (true, 65_535),
            (true, 65_534),
            (true, 0),
            (true, n - 1),
            (false, 65_535),
            (false, 65_535), // double leave: a no-op
            (true, 40_000),
            (false, n - 1),
            (false, 0),
            (false, 65_534),
            (false, 40_000),
            (false, n - 1),
        ];
        let mut storm = Storm::new(&g);
        storm.batch.run(&sources);
        for (lane, &source) in sources.iter().enumerate() {
            let scalar = storm.build_scalar(source);
            storm.batch.parent_tree(lane, &mut storm.parent_scratch);
            let batched = SourceTree::from_scratch(source, &mut storm.parent_scratch);
            for skeleton in [scalar, batched] {
                assert!(matches!(skeleton.parent, Parents::Wide(_)));
                assert_matches_member_tree(&g, skeleton, &ops);
            }
        }
    }

    #[test]
    fn parents_round_trip_unreached_and_the_largest_id_at_both_widths() {
        // The last narrow node count and the first wide one.
        for n in [Parents::NARROW_LIMIT - 1, Parents::NARROW_LIMIT] {
            let largest = (n - 1) as NodeId;
            let mut scratch = vec![0; n];
            scratch[1] = UNREACHED;
            scratch[2] = largest;
            scratch[largest as usize] = largest;
            let parents = Parents::from_scratch(&mut scratch);
            assert_eq!(
                matches!(parents, Parents::Narrow(_)),
                n < Parents::NARROW_LIMIT,
                "{n} nodes"
            );
            assert_eq!(parents.get(0), 0);
            assert_eq!(parents.get(1), UNREACHED);
            assert_eq!(parents.get(2), largest);
            assert_eq!(parents.get(largest), largest);
        }
    }

    #[test]
    fn an_oversized_flash_calendar_is_a_typed_error() {
        // 2^30 sessions × (2 + 2 × 1) events is 2^32, one past the limit.
        let cfg = FlashConfig {
            sessions: 1 << 30,
            receivers_per_session: 1,
            ..flash_cfg(1)
        };
        let err = simulate_flash(&binary_tree(3), 0, &cfg).unwrap_err();
        assert_eq!(
            err,
            StormError::CalendarTooLarge {
                sessions: 1 << 30,
                receivers_per_session: 1
            }
        );
        assert_eq!(
            err.to_string(),
            "storm calendar too large: 1073741824 sessions x 1 receivers need more than 2^32 - 1 events"
        );
    }

    #[test]
    #[should_panic(expected = "at most 4294967295 (2^32 - 1) events")]
    fn scheduling_past_the_event_limit_panics() {
        let g = binary_tree(2);
        let mut storm = Storm::new(&g);
        storm.next_seq = u32::MAX - 1;
        storm.schedule_session_start(0.0, 0, 0); // the last event that fits
        storm.schedule_session_end(1.0, 0);
    }

    fn flash_cfg(sessions: u32) -> FlashConfig {
        FlashConfig {
            sessions,
            receivers_per_session: 3,
            beta: 1.0,
            sampler_sweeps: 2,
            burst_time: 1.0,
            join_window: 0.5,
            mean_lifetime: 2.0,
            sample_every: 64,
            seed: 1999,
        }
    }

    /// Schedule a `cfg`-shaped burst with uniform sources and sites drawn
    /// from `seed`.
    fn schedule_burst(storm: &mut Storm, cfg: &FlashConfig, seed: u64) {
        let n = storm.graph.node_count() as NodeId;
        let mut rng = StdRng::seed_from_u64(seed);
        for session in 0..cfg.sessions {
            let source = uniform_node(&mut rng, n);
            storm.schedule_session_start(cfg.burst_time, session, source);
            let mut last = cfg.burst_time;
            for _ in 0..cfg.receivers_per_session {
                let site = uniform_node(&mut rng, n);
                let at = cfg.burst_time + rng.gen_range(0.0..cfg.join_window);
                let leave = at + exp_sample(&mut rng, 1.0 / cfg.mean_lifetime);
                storm.schedule_join(at, session, site);
                storm.schedule_leave(leave, session, site);
                last = last.max(leave);
            }
            storm.schedule_session_end(last, session);
        }
    }

    #[test]
    fn batched_and_scalar_graft_paths_are_bit_identical() {
        let g = mesh(9); // 81 nodes: a burst can need >64 skeletons
        let cfg = flash_cfg(200);
        // Schedule the identical event set through both engines.
        let run_with = |threshold: usize| {
            let mut storm = Storm::new(&g)
                .batch_threshold(threshold)
                .sample_every(cfg.sample_every)
                .measure_from(cfg.burst_time);
            schedule_burst(&mut storm, &cfg, 7);
            storm.run().expect("calendar is consistent")
        };
        let batched = run_with(1);
        let scalar = run_with(usize::MAX);
        assert!(batched.batch_sweeps > 0, "batched run must batch");
        assert_eq!(scalar.batch_sweeps, 0, "scalar run must not");
        assert!(batched.trees_built_batch >= 64, "burst covers a full word");
        assert_eq!(batched.events, scalar.events);
        assert_eq!(batched.grafted_links, scalar.grafted_links);
        assert_eq!(batched.pruned_links, scalar.pruned_links);
        assert_eq!(batched.peak_links, scalar.peak_links);
        assert_eq!(
            batched.mean_links.to_bits(),
            scalar.mean_links.to_bits(),
            "L(m) telemetry must be bit-identical across graft paths"
        );
        assert_eq!(batched.samples, scalar.samples);
    }

    #[test]
    fn calendar_applies_in_time_session_seq_order_whatever_the_schedule_order() {
        // Scheduled back to front: ends, then joins, then starts; the
        // sessions of each instant in descending id; one session joining,
        // leaving and rejoining at one instant.
        let g = binary_tree(3); // sites 7 and 14 hang 3 links below 0, site 2 one
        let mut storm = Storm::new(&g).sample_every(1);
        storm.schedule_session_end(3.0, 1);
        storm.schedule_session_end(3.0, 0);
        storm.schedule_join(2.0, 1, 2);
        storm.schedule_join(1.0, 0, 7);
        storm.schedule_leave(1.0, 0, 7);
        storm.schedule_join(1.0, 0, 14);
        storm.schedule_session_start(0.0, 1, 0);
        storm.schedule_session_start(0.0, 0, 0);
        let out = storm.run().unwrap();
        assert_eq!(out.stale_events, 0, "every event found its session");
        let applied: Vec<_> = out
            .samples
            .iter()
            .map(|s| (s.time, s.sessions, s.members, s.links, s.joins))
            .collect();
        assert_eq!(
            applied,
            [
                (0.0, 1, 0, 0, 0), // start 0
                (0.0, 2, 0, 0, 0), // start 1
                (1.0, 2, 1, 3, 1), // 0 joins 7
                (1.0, 2, 0, 0, 1), // 0 leaves 7
                (1.0, 2, 1, 3, 2), // 0 joins 14
                (2.0, 2, 2, 4, 3), // 1 joins 2
                (3.0, 1, 1, 1, 3), // end 0
                (3.0, 0, 0, 0, 3), // end 1
            ]
        );
    }

    #[test]
    fn a_second_schedule_and_run_matches_a_fresh_engine() {
        let g = mesh(9);
        let cfg = flash_cfg(200);
        let engine = || {
            Storm::new(&g)
                .batch_threshold(1)
                .sample_every(cfg.sample_every)
                .measure_from(cfg.burst_time)
        };
        // The burst plus one session that is still live when the calendar
        // runs out, so state a run left behind would show.
        let schedule = |storm: &mut Storm| {
            schedule_burst(storm, &cfg, 7);
            storm.schedule_session_start(9.0, cfg.sessions, 0);
            storm.schedule_join(9.5, cfg.sessions, 80);
        };
        let mut fresh = engine();
        schedule(&mut fresh);
        let fresh = fresh.run().unwrap();
        assert!(fresh.batch_sweeps > 0 && fresh.joins > 0);

        let mut reused = engine();
        for _ in 0..2 {
            schedule(&mut reused);
            let again = reused.run().unwrap();
            assert_eq!(format!("{again:?}"), format!("{fresh:?}"));
        }
        // A run cut short by an error leaves nothing behind either.
        reused.schedule_session_start(0.0, 0, 0);
        reused.schedule_session_start(0.5, 0, 0);
        assert!(reused.run().is_err());
        schedule(&mut reused);
        let after_error = reused.run().unwrap();
        assert_eq!(format!("{after_error:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn exactly_threshold_tick_is_one_batch_and_no_scalar_pass() {
        // 529 nodes: enough distinct sources for a full wide chunk plus a
        // sub-threshold tail in one tick.
        let g = mesh(23);
        let run_burst = |count: usize| {
            let mut storm = Storm::new(&g);
            for session in 0..count as u32 {
                storm.schedule_session_start(1.0, session, session as NodeId);
                storm.schedule_session_end(2.0, session);
            }
            storm.run().expect("calendar is consistent")
        };
        // Exactly the threshold: one sweep covering every skeleton, with
        // no scalar pass riding along.
        let exact = run_burst(Storm::DEFAULT_BATCH_THRESHOLD);
        assert_eq!(exact.batch_sweeps, 1, "one full-word tick, one sweep");
        assert_eq!(
            exact.trees_built_batch,
            Storm::DEFAULT_BATCH_THRESHOLD as u64
        );
        assert_eq!(exact.trees_built_scalar, 0, "no empty scalar pass");
        // One source short: the batch path must not engage at all.
        let below = run_burst(Storm::DEFAULT_BATCH_THRESHOLD - 1);
        assert_eq!(below.batch_sweeps, 0);
        assert_eq!(
            below.trees_built_scalar,
            Storm::DEFAULT_BATCH_THRESHOLD as u64 - 1
        );
        // A full wide chunk plus a tail below the threshold: the tail is
        // cheaper per-source scalar than as a nearly-empty sweep.
        let lanes = mcast_topology::batch::max_lanes();
        let tail = run_burst(lanes + 8);
        assert_eq!(tail.batch_sweeps, 1);
        assert_eq!(tail.trees_built_batch, lanes as u64);
        assert_eq!(tail.trees_built_scalar, 8);
    }

    #[test]
    fn flash_replays_bit_identically() {
        let g = mesh(6);
        let cfg = flash_cfg(120);
        let a = simulate_flash(&g, 0, &cfg).unwrap();
        let b = simulate_flash(&g, 0, &cfg).unwrap();
        assert_eq!(a.events, b.events);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.mean_links.to_bits(), b.mean_links.to_bits());
        assert_eq!(a.peak_sessions, cfg.sessions as u64);
        // Everything drains: every join eventually leaves or is torn down.
        let last = a.samples.last().expect("sampling enabled");
        assert!(last.links <= a.peak_links);
        assert_eq!(a.sessions_started, cfg.sessions as u64);
        assert_eq!(a.sessions_ended, cfg.sessions as u64);
    }

    #[test]
    fn steady_state_tracks_mm_infinity_means() {
        let g = binary_tree(6);
        let cfg = SteadyConfig {
            session_rate: 40.0,
            mean_session_lifetime: 2.0,
            member_rate: 6.0,
            mean_member_lifetime: 1.0,
            member_lifetime_shape: LifetimeShape::Exponential,
            horizon: 60.0,
            measure_from: 20.0,
            sample_every: 1024,
            seed: 11,
        };
        let out = simulate_steady(&g, &cfg).unwrap();
        // E[sessions] = Λ·D = 80.
        let expect_sessions = cfg.session_rate * cfg.mean_session_lifetime;
        assert!(
            (out.mean_sessions - expect_sessions).abs() / expect_sessions < 0.15,
            "sessions {} vs {expect_sessions}",
            out.mean_sessions
        );
        // E[members] = E[sessions]·(λ·E[S] of a session's *stationary*
        // phase) — lifetimes truncated by teardown pull it below λ·E[S],
        // so only sanity-bound it.
        assert!(out.mean_members > 0.0 && out.mean_links > 0.0);
        assert!(out.joins > 1_000, "enough churn to measure: {}", out.joins);
        // Teardown-stranded leaves surface as stale events, never errors.
        assert!(out.stale_events > 0);
    }

    #[test]
    fn duplicate_session_id_is_a_typed_error() {
        let g = binary_tree(3);
        let mut storm = Storm::new(&g);
        storm.schedule_session_start(0.0, 5, 0);
        storm.schedule_session_start(1.0, 5, 1);
        storm.schedule_join(2.0, 5, 7); // never applied
        let err = storm.run().unwrap_err();
        assert_eq!(
            err,
            StormError::DuplicateSession {
                session: 5,
                now: 1.0
            }
        );
        assert_eq!(
            err.to_string(),
            "storm calendar desync: session 5 started twice (t=1)"
        );
        assert_eq!(storm.pending_events(), 0, "the error consumed the calendar");
    }

    #[test]
    fn stale_events_are_counted_noops() {
        let g = binary_tree(3);
        let mut storm = Storm::new(&g);
        storm.schedule_session_start(0.0, 0, 0);
        storm.schedule_join(1.0, 0, 7);
        storm.schedule_session_end(2.0, 0);
        storm.schedule_leave(3.0, 0, 7); // after teardown: stale
        storm.schedule_leave(3.5, 1, 4); // unknown session: stale
        assert_eq!(storm.pending_events(), 5);
        let out = storm.run().unwrap();
        assert_eq!(storm.pending_events(), 0);
        assert_eq!(out.stale_events, 2);
        assert_eq!(out.joins, 1);
        assert_eq!(out.leaves, 0);
        assert_eq!(out.grafted_links, out.pruned_links);
    }

    #[test]
    fn skeletons_are_shared_across_sessions() {
        let g = binary_tree(4);
        let mut storm = Storm::new(&g);
        for s in 0..10 {
            storm.schedule_session_start(0.5, s, 3);
            storm.schedule_join(1.0, s, 14);
            storm.schedule_session_end(2.0, s);
        }
        let out = storm.run().unwrap();
        assert_eq!(out.trees_built_scalar, 1, "one skeleton serves all");
        assert_eq!(out.peak_sessions, 10);
    }
}
