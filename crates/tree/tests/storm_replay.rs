//! The storm engine against a reference replay.
//!
//! `Storm::run` applies each session's events back to back and folds the
//! effects in time order afterwards. The reference here does what the
//! engine's contract describes, the plain way: one pass over the events
//! in `(time, session, seq)` order, a member multiset per live session
//! whose tree `DeliverySizer` recounts from scratch after every event (a
//! join's grafts are the rise in links, a leave's prunes the fall), and
//! the same per-tick skeleton batching rule for the build counters. On
//! forests every shortest-path tree is unique, so the two must agree on
//! every `StormOutcome` field, bit for bit, or on the error.

use mcast_topology::batch::max_lanes;
use mcast_topology::graph::{from_edges, Graph};
use mcast_topology::NodeId;
use mcast_tree::delivery::DeliverySizer;
use mcast_tree::dynamics::{time_order_bits, time_order_value};
use mcast_tree::storm::{Storm, StormError, StormOutcome, StormSample};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};

#[derive(Clone, Copy, Debug)]
enum Op {
    Start(NodeId),
    End,
    Join(NodeId),
    Leave(NodeId),
}

/// One scheduled event: time, session, what. A calendar is a list of
/// these in schedule order, so the index is the event's `seq`.
type Scheduled = (f64, u32, Op);

/// Engine settings shared by both sides.
#[derive(Clone, Copy, Debug)]
struct Settings {
    threshold: usize,
    sample_every: u64,
    measure_from: f64,
    measure_until: f64,
}

fn run_storm(
    graph: &Graph,
    calendar: &[Scheduled],
    s: Settings,
) -> Result<StormOutcome, StormError> {
    let mut storm = Storm::new(graph)
        .batch_threshold(s.threshold)
        .sample_every(s.sample_every)
        .measure_from(s.measure_from)
        .measure_until(s.measure_until);
    for &(t, session, op) in calendar {
        match op {
            Op::Start(source) => storm.schedule_session_start(t, session, source),
            Op::End => storm.schedule_session_end(t, session),
            Op::Join(site) => storm.schedule_join(t, session, site),
            Op::Leave(site) => storm.schedule_leave(t, session, site),
        }
    }
    storm.run()
}

/// A live session of the replay: its members, with repeats, and the
/// links of their delivery tree as last recounted.
struct Recount {
    sizer: DeliverySizer,
    members: Vec<NodeId>,
    links: u64,
}

impl Recount {
    /// Size the tree of the current members from scratch; returns the
    /// link count before and after.
    fn recount(&mut self) -> (u64, u64) {
        let before = self.links;
        self.links = self.sizer.tree_links(&self.members);
        (before, self.links)
    }
}

/// The time-ordered replay: every event applied to its session's member
/// multiset the moment the clock reaches it.
fn replay(graph: &Graph, calendar: &[Scheduled], s: Settings) -> Result<StormOutcome, StormError> {
    let bits = |i: usize| time_order_bits(calendar[i].0);
    let mut order: Vec<usize> = (0..calendar.len()).collect();
    order.sort_by_key(|&i| (bits(i), calendar[i].1, i));

    let mut out = StormOutcome::default();
    let mut live: HashMap<u32, Recount> = HashMap::new();
    let mut built: HashSet<NodeId> = HashSet::new();
    let (mut links, mut members) = (0u64, 0u64);
    let mut now = 0.0f64;
    let (mut measured, mut w_sessions, mut w_members, mut w_links) = (0.0f64, 0.0, 0.0, 0.0);
    for tick in order.chunk_by(|&a, &b| bits(a) == bits(b)) {
        let t = time_order_value(bits(tick[0]));
        let lo = now.max(s.measure_from);
        let hi = t.min(s.measure_until);
        if hi > lo {
            let dt = hi - lo;
            measured += dt;
            w_sessions += live.len() as f64 * dt;
            w_members += members as f64 * dt;
            w_links += links as f64 * dt;
        }
        now = t;

        // The batching rule: a tick starting at least `threshold` sources
        // with no skeleton yet builds them in full-enough chunks.
        let mut wanted: Vec<NodeId> = tick
            .iter()
            .filter_map(|&i| match calendar[i].2 {
                Op::Start(source) if !built.contains(&source) => Some(source),
                _ => None,
            })
            .collect();
        wanted.sort_unstable();
        wanted.dedup();
        if wanted.len() >= s.threshold {
            for chunk in wanted.chunks(max_lanes()) {
                if chunk.len() >= s.threshold {
                    out.batch_sweeps += 1;
                    out.trees_built_batch += chunk.len() as u64;
                    built.extend(chunk);
                }
            }
        }

        for &i in tick {
            let (_, session, op) = calendar[i];
            match op {
                Op::Start(source) => {
                    if live.contains_key(&session) {
                        return Err(StormError::DuplicateSession { session, now });
                    }
                    if built.insert(source) {
                        out.trees_built_scalar += 1;
                    }
                    let sizer = DeliverySizer::from_graph(graph, source);
                    live.insert(
                        session,
                        Recount {
                            sizer,
                            members: Vec::new(),
                            links: 0,
                        },
                    );
                    out.sessions_started += 1;
                }
                Op::End => match live.remove(&session) {
                    Some(tree) => {
                        out.pruned_links += tree.links;
                        links -= tree.links;
                        members -= tree.members.len() as u64;
                        out.sessions_ended += 1;
                    }
                    None => out.stale_events += 1,
                },
                Op::Join(site) => match live.get_mut(&session) {
                    Some(tree) => {
                        tree.members.push(site);
                        let (before, after) = tree.recount();
                        let g = after - before;
                        out.grafted_links += g;
                        links += g;
                        members += 1;
                        out.joins += 1;
                    }
                    None => out.stale_events += 1,
                },
                Op::Leave(site) => match live.get_mut(&session).and_then(|tree| {
                    let at = tree.members.iter().position(|&m| m == site)?;
                    Some((tree, at))
                }) {
                    Some((tree, at)) => {
                        tree.members.swap_remove(at);
                        let (before, after) = tree.recount();
                        let p = before - after;
                        out.pruned_links += p;
                        links -= p;
                        members -= 1;
                        out.leaves += 1;
                    }
                    None => out.stale_events += 1,
                },
            }
            out.events += 1;
            out.peak_sessions = out.peak_sessions.max(live.len() as u64);
            out.peak_members = out.peak_members.max(members);
            out.peak_links = out.peak_links.max(links);
            if s.sample_every > 0 && out.events.is_multiple_of(s.sample_every) {
                out.samples.push(StormSample {
                    time: now,
                    sessions: live.len() as u64,
                    members,
                    links,
                    joins: out.joins,
                });
            }
        }
    }
    if measured > 0.0 {
        out.mean_sessions = w_sessions / measured;
        out.mean_members = w_members / measured;
        out.mean_links = w_links / measured;
    }
    Ok(out)
}

/// An outcome's counts in declaration order, its means as bits, and each
/// sample as `(time bits, [sessions, members, links, joins])`.
type Fields = ([u64; 14], [u64; 3], Vec<(u64, [u64; 4])>);

/// Every field of an outcome; the destructuring is exhaustive, so a new
/// field fails to compile here until it is compared.
fn fields(out: &StormOutcome) -> Fields {
    let StormOutcome {
        events,
        joins,
        leaves,
        sessions_started,
        sessions_ended,
        stale_events,
        grafted_links,
        pruned_links,
        peak_sessions,
        peak_members,
        peak_links,
        batch_sweeps,
        trees_built_batch,
        trees_built_scalar,
        mean_sessions,
        mean_members,
        mean_links,
        samples,
    } = out;
    let counts = [
        *events,
        *joins,
        *leaves,
        *sessions_started,
        *sessions_ended,
        *stale_events,
        *grafted_links,
        *pruned_links,
        *peak_sessions,
        *peak_members,
        *peak_links,
        *batch_sweeps,
        *trees_built_batch,
        *trees_built_scalar,
    ];
    let means = [
        mean_sessions.to_bits(),
        mean_members.to_bits(),
        mean_links.to_bits(),
    ];
    let samples = samples
        .iter()
        .map(|s| (s.time.to_bits(), [s.sessions, s.members, s.links, s.joins]))
        .collect();
    (counts, means, samples)
}

/// A random forest on `n` nodes: node `i` hangs off an earlier node, and
/// when `cut` is set, about half the edges are dropped, so some sites are
/// unreachable from some sources.
fn forest(n: usize, attach: &[u32], cut: Option<u64>) -> Graph {
    let edges: Vec<(NodeId, NodeId)> = (1..n)
        .filter(|&i| cut.is_none_or(|mask| mask >> (i % 64) & 1 == 0))
        .map(|i| (attach[(i - 1) % attach.len()] % i as u32, i as NodeId))
        .collect();
    from_edges(n, &edges)
}

/// `count` session ids: from 0, spread out, or at the top of the `u32`
/// range.
fn session_ids(mode: u8, count: u32) -> Vec<u32> {
    (0..count)
        .map(|i| match mode {
            0 => i,
            1 => 5_000 + 7 * i,
            _ => u32::MAX - 2 * i,
        })
        .collect()
}

/// Instants on a coarse grid (half steps, some negative), so events of
/// different sessions and of one session often tie.
fn at(slot: u8) -> f64 {
    (f64::from(slot) - 2.0) * 0.5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn storm_matches_a_time_ordered_member_tree_replay(
        shape in (2usize..24, proptest::collection::vec(any::<u32>(), 1..24), proptest::option::of(any::<u64>())),
        ids in (0u8..3, 1u32..6),
        // ((session, source), (gap, duration), ends): each session's
        // lives follow one another, so a gap or a duration of 0 ties a
        // start with the end before or after it.
        lives in proptest::collection::vec(((any::<u32>(), any::<u32>()), (0u8..4, 0u8..8), 0u8..4), 0..10),
        // ((session, site), (slot, what), stay): what = 0 joins, 1 and 2
        // join and leave `stay` half-steps later, 3 only leaves.
        churn in proptest::collection::vec(((any::<u32>(), any::<u32>()), (0u8..20, 0u8..4), 0u8..6), 0..40),
        knobs in ((0usize..4, 0u64..4), (0u8..8, 0u8..16)),
        shuffle_seed in any::<u64>(),
    ) {
        let (n, attach, cut) = shape;
        let graph = forest(n, &attach, cut);
        let n = n as u32;
        let pool = session_ids(ids.0, ids.1 + 1);
        let ids = &pool[..pool.len() - 1];

        let mut calendar: Vec<Scheduled> = Vec::new();
        let mut cursor = vec![0u8; ids.len()];
        let mut last_end = vec![None; ids.len()];
        for ((pick, source), (gap, duration), ends) in lives {
            let k = pick as usize % ids.len();
            let start = cursor[k] + gap;
            cursor[k] = start + duration;
            calendar.push((at(start), ids[k], Op::Start(source % n)));
            if let Some(end) = last_end[k].replace((at(cursor[k]), ends)) {
                calendar.push((end.0, ids[k], Op::End));
            }
        }
        // A session's last life stays open past the calendar's end one
        // time in four.
        for (k, end) in last_end.into_iter().enumerate() {
            if let Some((t, 1..)) = end {
                calendar.push((t, ids[k], Op::End));
            }
        }
        for ((pick, site), (slot, what), stay) in churn {
            // The pool's last id is never started.
            let session = pool[pick as usize % pool.len()];
            let site = site % n;
            if what < 3 {
                calendar.push((at(slot), session, Op::Join(site)));
            }
            if what > 0 {
                calendar.push((at(slot + stay), session, Op::Leave(site)));
            }
        }
        // The schedule order is the `seq` tie-break: shuffle it.
        calendar.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));

        let ((threshold, sample_every), (from, until)) = knobs;
        let settings = Settings {
            threshold: [1, 2, Storm::DEFAULT_BATCH_THRESHOLD, usize::MAX][threshold],
            sample_every,
            measure_from: at(from),
            measure_until: if until >= 12 { f64::INFINITY } else { at(until) },
        };
        let got = run_storm(&graph, &calendar, settings);
        let want = replay(&graph, &calendar, settings);
        match (&got, &want) {
            (Ok(got), Ok(want)) => prop_assert_eq!(fields(got), fields(want)),
            _ => prop_assert_eq!(got.err(), want.err()),
        }
    }
}

#[test]
fn the_error_names_the_earliest_duplicate_in_time_session_seq_order() {
    let graph = forest(16, &[0, 1, 2, 3], None);
    let calendar: Vec<Scheduled> = vec![
        // Session 2 starts again at t = 3, the latest duplicate, but the
        // first one a session-by-session pass meets.
        (0.0, 2, Op::Start(0)),
        (3.0, 2, Op::Start(0)),
        // Sessions 8 and 5 both start again at t = 2: the lower id is
        // first in calendar order, though 8's restart was scheduled first.
        (1.0, 8, Op::Start(3)),
        (2.0, 8, Op::Start(4)),
        (0.5, 5, Op::Start(1)),
        (2.0, 5, Op::Join(9)),
        (2.0, 5, Op::Start(1)),
        (2.0, 5, Op::Start(2)),
        // A reused id is not a duplicate: session 1 ends before it
        // starts again, at the same instant, in schedule order.
        (0.0, 1, Op::Start(0)),
        (1.5, 1, Op::End),
        (1.5, 1, Op::Start(5)),
    ];
    let expected = StormError::DuplicateSession {
        session: 5,
        now: 2.0,
    };
    let settings = Settings {
        threshold: Storm::DEFAULT_BATCH_THRESHOLD,
        sample_every: 1,
        measure_from: 0.0,
        measure_until: f64::INFINITY,
    };
    assert_eq!(replay(&graph, &calendar, settings).unwrap_err(), expected);
    assert_eq!(
        run_storm(&graph, &calendar, settings).unwrap_err(),
        expected
    );
}
