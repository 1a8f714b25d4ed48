//! Multi-threaded Monte-Carlo drivers.
//!
//! The paper's methodology is embarrassingly parallel across sources: each
//! (source, receiver-set) sample is independent, and per-source RNGs are
//! derived from the root seed, so the sharded result is *identical* to the
//! sequential one regardless of thread count.
//!
//! Work is distributed over [`SourcePlan`] groups (one per **distinct**
//! source node) rather than raw source indices: each worker owns a
//! [`MeasureEngine`] that persists across its items, so a group costs one
//! BFS no matter how many times the paper's with-replacement draw repeated
//! its node, and the steady-state sampling path allocates nothing.

use crate::config::RunConfig;
use mcast_obs::Progress;
use mcast_store::checkpoint::{CheckpointWriter, GroupRecord, IndexStats};
use mcast_store::{CacheHandle, Key, KeyBuilder, ObjectKind};
use mcast_topology::batch::{max_lanes, BatchBfs};
use mcast_topology::{Graph, NodeId};
use mcast_tree::measure::{
    batched_mean_distances, measure_group, merge_indexed, CurvePoint, MeasureConfig, MeasureEngine,
    SampleKind, SourcePlan,
};
use mcast_tree::RunningStats;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A panic captured from one item of a fallible map.
#[derive(Debug, Clone)]
pub struct ItemFailure {
    /// Index of the failing item in `0..count`.
    pub index: usize,
    /// The panic payload rendered to text (`String`/`&str` payloads are
    /// preserved verbatim).
    pub payload: String,
}

/// Error of [`try_parallel_map_with`]: at least one item panicked. Every
/// other item still ran to completion (surviving workers drain the whole
/// cursor before reporting), so side effects such as checkpoint appends
/// cover everything except the listed failures.
#[derive(Debug, Clone)]
pub struct MapError {
    /// Every captured failure, in ascending item order.
    pub failures: Vec<ItemFailure>,
    /// How many items completed successfully.
    pub completed: usize,
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let first = &self.failures[0];
        write!(
            f,
            "{} item(s) panicked ({} completed); first: item {}: {}",
            self.failures.len(),
            self.completed,
            first.index,
            first.payload
        )
    }
}

impl std::error::Error for MapError {}

/// Render a caught panic payload to text.
pub(crate) fn payload_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// How many items one cursor claim hands a worker: large enough to
/// amortise the atomic RMW and keep consecutive items (often cache hits
/// for an engine-carrying worker) together, small enough to steal-balance
/// tail latency across threads.
fn cursor_batch(count: usize, threads: usize) -> usize {
    (count / (threads.max(1) * 8)).clamp(1, 64)
}

/// Run `f(state, index)` for every index in `0..count` across the
/// configured worker threads, where each worker first builds its own
/// `state = init(worker)` and carries it across every item it processes
/// (work-stealing via a batched atomic cursor), collecting outputs in
/// index order.
///
/// Per-worker state is what makes zero-allocation measurement possible:
/// a worker's BFS engine, sizer buffers, and scratch sets persist across
/// items instead of being rebuilt per item.
///
/// When observability is enabled, each worker reports how many items it
/// processed (`runner.thread.<t>.tasks` — the spread across threads is
/// the steal balance) and every item's wall time feeds the
/// `runner.task_us` log-scale histogram; `runner.threads` records the
/// worker count. Metric handles are resolved once per worker, so the
/// per-item cost is one histogram record and one counter add — no name
/// formatting or registry lookup on the hot path.
pub fn parallel_map_with<S, O, I, F>(count: usize, cfg: &RunConfig, init: I, f: F) -> Vec<O>
where
    O: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> O + Sync,
{
    match try_parallel_map_with(count, cfg, init, f) {
        Ok(out) => out,
        // Callers of the infallible API keep the historical contract
        // (panics propagate), but only after every surviving item ran
        // and the failure was diagnosed with its item index.
        Err(e) => std::panic::resume_unwind(Box::new(e.to_string())),
    }
}

/// Fault-isolating [`parallel_map_with`]: each item runs under
/// `catch_unwind`, a panicking item is recorded as an [`ItemFailure`]
/// (with its index and payload) instead of unwinding the driver, and the
/// surviving workers drain every remaining item before `Err` is returned.
///
/// A worker whose item panicked rebuilds its state via `init` before the
/// next item — a half-updated engine must never contribute to another
/// group's numbers — so results for the non-failing items stay
/// bit-identical to a clean run at every thread count. The sequential
/// (`threads <= 1`) path captures the same way, so `--threads 1` reports
/// the failing index too.
pub fn try_parallel_map_with<S, O, I, F>(
    count: usize,
    cfg: &RunConfig,
    init: I,
    f: F,
) -> Result<Vec<O>, MapError>
where
    O: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, usize) -> O + Sync,
{
    let threads = cfg.resolved_threads().min(count.max(1));
    if count == 0 {
        return Ok(Vec::new());
    }
    let obs_on = mcast_obs::enabled();
    if obs_on {
        mcast_obs::gauge("runner.threads").set(threads as i64);
    }
    // Per-worker handles, resolved once: the per-item instrumentation
    // must not format metric names or take the registry lock.
    let worker_obs = |t: usize| {
        obs_on.then(|| {
            (
                mcast_obs::histogram("runner.task_us"),
                mcast_obs::counter(&format!("runner.thread.{t}.tasks")),
            )
        })
    };
    let run_item = |obs: &Option<(&'static mcast_obs::Histogram, &'static mcast_obs::Counter)>,
                    state: &mut S,
                    i: usize|
     -> O {
        if let Some((task_us, tasks)) = obs {
            let started = Instant::now();
            let out = f(state, i);
            let us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            task_us.record(us);
            tasks.add(1);
            out
        } else {
            f(state, i)
        }
    };
    // One item, fault-isolated: (re)build worker state if the previous
    // item poisoned it, run under catch_unwind, and turn a panic into a
    // typed failure. An `init` panic is captured the same way (and
    // re-attempted on the next item, so a transient init fault doesn't
    // doom the whole range).
    let process = |obs: &Option<(&'static mcast_obs::Histogram, &'static mcast_obs::Counter)>,
                   state: &mut Option<S>,
                   worker: usize,
                   i: usize|
     -> Result<O, ItemFailure> {
        if state.is_none() {
            match catch_unwind(AssertUnwindSafe(|| init(worker))) {
                Ok(s) => *state = Some(s),
                Err(p) => {
                    return Err(ItemFailure {
                        index: i,
                        payload: format!("worker state init panicked: {}", payload_text(p)),
                    })
                }
            }
        }
        let st = state.as_mut().expect("state initialised above");
        match catch_unwind(AssertUnwindSafe(|| run_item(obs, st, i))) {
            Ok(o) => Ok(o),
            Err(p) => {
                *state = None;
                Err(ItemFailure {
                    index: i,
                    payload: payload_text(p),
                })
            }
        }
    };
    let mut slots: Vec<Option<O>> = (0..count).map(|_| None).collect();
    let mut failures: Vec<ItemFailure>;
    if threads <= 1 {
        let obs = worker_obs(0);
        let mut state = None;
        failures = Vec::new();
        for (i, slot) in slots.iter_mut().enumerate() {
            match process(&obs, &mut state, 0, i) {
                Ok(o) => *slot = Some(o),
                Err(fail) => failures.push(fail),
            }
        }
    } else {
        let batch = cursor_batch(count, threads);
        let cursor = AtomicUsize::new(0);
        let shared_failures: Mutex<Vec<ItemFailure>> = Mutex::new(Vec::new());
        let collected: Vec<(usize, O)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let cursor = &cursor;
                    let process = &process;
                    let worker_obs = &worker_obs;
                    let shared_failures = &shared_failures;
                    scope.spawn(move || {
                        let obs = worker_obs(t);
                        let mut state = None;
                        let mut local: Vec<(usize, O)> = Vec::new();
                        loop {
                            let start = cursor.fetch_add(batch, Ordering::Relaxed);
                            if start >= count {
                                break;
                            }
                            // One timed span per claimed batch — only when a
                            // trace is recording, so plain `--metrics` span
                            // trees stay exactly as before.
                            let _span = mcast_obs::trace::active()
                                .then(|| mcast_obs::span_at("runner/batch"));
                            for i in start..(start + batch).min(count) {
                                match process(&obs, &mut state, t, i) {
                                    Ok(o) => local.push((i, o)),
                                    Err(fail) => shared_failures
                                        .lock()
                                        .unwrap_or_else(|e| e.into_inner())
                                        .push(fail),
                                }
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        for (i, o) in collected {
            slots[i] = Some(o);
        }
        failures = shared_failures.into_inner().unwrap_or_else(|e| e.into_inner());
    }
    if failures.is_empty() {
        return Ok(slots.into_iter().map(|s| s.expect("slot filled")).collect());
    }
    failures.sort_by_key(|f| f.index);
    let completed = slots.iter().filter(|s| s.is_some()).count();
    for fail in &failures {
        mcast_obs::error!("runner", "item {} panicked: {}", fail.index, fail.payload);
    }
    if obs_on {
        mcast_obs::counter("runner.item.panic").add(failures.len() as u64);
    }
    Err(MapError { failures, completed })
}

/// Stateless [`parallel_map_with`]: run `f(index)` for every index in
/// `0..count`, collecting outputs in index order.
pub fn parallel_map<O, F>(count: usize, cfg: &RunConfig, f: F) -> Vec<O>
where
    O: Send,
    F: Fn(usize) -> O + Sync,
{
    parallel_map_with(count, cfg, |_| (), move |(), i| f(i))
}

/// One measurement group that panicked during a curve measurement.
#[derive(Debug, Clone)]
pub struct GroupFailure {
    /// Index of the group in the curve's [`SourcePlan`].
    pub group_index: usize,
    /// The distinct source node the group measures.
    pub source: NodeId,
    /// The with-replacement source indices the group covers.
    pub source_indices: Vec<usize>,
    /// Rendered panic payload.
    pub payload: String,
}

/// Error of a fallible curve measurement: one or more source groups
/// panicked. Every surviving group was measured — and, when a store is
/// bound, appended to the curve's checkpoint — before this was returned,
/// so a later `--resume` only re-measures the failed groups.
#[derive(Debug, Clone)]
pub struct CurveError {
    /// Per-group captures, in ascending plan order.
    pub failures: Vec<GroupFailure>,
    /// Groups measured successfully by this call.
    pub completed: usize,
}

impl std::fmt::Display for CurveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let first = &self.failures[0];
        write!(
            f,
            "{} source group(s) panicked ({} completed); first: group {} (source node {}, source indices {:?}): {}",
            self.failures.len(),
            self.completed,
            first.group_index,
            first.source,
            first.source_indices,
            first.payload
        )
    }
}

impl std::error::Error for CurveError {}

/// In-process curve memo used by the suite scheduler (`crate::sched`):
/// while enabled, measured curves are shared across experiments in this
/// process, keyed by the same [`curve_key`] the on-disk cache uses — so
/// e.g. `verdict`, which re-runs Fig 1's and Fig 6's measurements to
/// extract its criteria, reuses the scheduler's curves instead of
/// re-measuring all sixteen. `None` (the default) disables it; sharing
/// memory across unrelated library calls must be opt-in.
static CURVE_MEMO: Mutex<Option<HashMap<Key, Vec<CurvePoint>>>> = Mutex::new(None);

/// Enable (fresh and empty) or disable-and-clear the curve memo.
pub(crate) fn memo_set_enabled(on: bool) {
    let mut memo = CURVE_MEMO.lock().unwrap_or_else(|e| e.into_inner());
    *memo = if on { Some(HashMap::new()) } else { None };
}

fn memo_enabled() -> bool {
    CURVE_MEMO
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .is_some()
}

fn memo_get(key: &Key) -> Option<Vec<CurvePoint>> {
    CURVE_MEMO
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_ref()
        .and_then(|map| map.get(key).cloned())
}

fn memo_put(key: Key, points: &[CurvePoint]) {
    if let Some(map) = CURVE_MEMO
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .as_mut()
    {
        map.insert(key, points.to_vec());
    }
}

/// Shared driver: shard the deduplicated [`SourcePlan`] across workers
/// under a `measure` span, each worker measuring whole groups on its
/// persistent [`MeasureEngine`], then merge per-source statistics in
/// source-index order — the same reduction the sequential drivers in
/// `mcast_tree::measure` perform, so the result is bit-identical to
/// theirs at every thread count.
///
/// Progress is reported per source index (the paper's unit of work), not
/// per group, so the bar's total matches `N_source`. The span lives on
/// the calling thread; workers only touch counters, so the span tree
/// stays stable regardless of thread count.
fn try_parallel_curve(
    graph: &Graph,
    xs: &[usize],
    mcfg: &MeasureConfig,
    cfg: &RunConfig,
    kind: SampleKind,
) -> Result<Vec<CurvePoint>, CurveError> {
    let _span = mcast_obs::span("measure");
    let store = mcast_store::active();
    let memo_on = memo_enabled();
    // The key covers every number-determining input; computed once and
    // shared between the memo and the on-disk cache.
    let key = (memo_on || store.is_some()).then(|| curve_key(graph, xs, mcfg, kind));
    if memo_on {
        if let Some(points) = memo_get(key.as_ref().expect("key computed when memo on")) {
            if mcast_obs::enabled() {
                mcast_obs::counter("runner.memo.hit").add(1);
            }
            return Ok(points);
        }
    }
    let points = match store {
        Some(handle) => try_cached_curve(
            &handle,
            key.expect("key computed when store active"),
            graph,
            xs,
            mcfg,
            cfg,
            kind,
        )?,
        None => try_measure_curve(graph, xs, mcfg, cfg, kind, Vec::new(), None)?,
    };
    if memo_on {
        memo_put(key.expect("key computed when memo on"), &points);
    }
    Ok(points)
}

/// The measurement loop proper: shard pending groups across workers,
/// optionally appending each finished group to a checkpoint, then merge
/// everything (resumed + fresh) in source-index order.
///
/// `done` carries per-index statistics recovered from a checkpoint; a
/// group is *pending* iff any of its indices is still missing. Group
/// results are deterministic functions of `(graph, mcfg, index)`, so the
/// merged curve is bit-identical however the work was split between a
/// previous (killed) run and this one.
///
/// On `Err`, every group the surviving workers finished has already been
/// appended (and flushed) to `ckpt`, and the returned [`CurveError`]
/// names each failed group's plan index, source node, and source
/// indices.
fn try_measure_curve(
    graph: &Graph,
    xs: &[usize],
    mcfg: &MeasureConfig,
    cfg: &RunConfig,
    kind: SampleKind,
    mut done: Vec<Option<Vec<RunningStats>>>,
    ckpt: Option<Mutex<CheckpointWriter>>,
) -> Result<Vec<CurvePoint>, CurveError> {
    let plan = SourcePlan::new(graph, mcfg);
    done.resize(plan.total(), None);
    let pending: Vec<usize> = plan
        .groups()
        .iter()
        .enumerate()
        .filter(|(_, g)| g.indices.iter().any(|&i| done[i].is_none()))
        .map(|(gi, _)| gi)
        .collect();
    // One bit-parallel sweep over the pending groups' distinct sources
    // computes every ū up front (64 per traversal); each group then binds
    // with its mean precomputed instead of scanning the receiver pool.
    let pending_nodes: Vec<NodeId> = pending.iter().map(|&gi| plan.groups()[gi].node).collect();
    let means = plan_mean_distances(graph, &pending_nodes, cfg);
    let progress = Progress::new("measure", plan.total() as u64);
    let samples_per_source = (xs.len() * mcfg.receiver_sets) as u64;
    let resumed_indices = plan.total()
        - pending
            .iter()
            .map(|&gi| plan.groups()[gi].indices.len())
            .sum::<usize>();
    for _ in 0..resumed_indices {
        progress.item_done();
    }
    let ckpt = &ckpt;
    let per_group = try_parallel_map_with(
        pending.len(),
        cfg,
        |_worker| MeasureEngine::new(graph),
        |engine, k| {
            let gi = pending[k];
            crate::fault::hit_group(gi);
            let group = &plan.groups()[gi];
            let mean = means.as_ref().map(|m| m[k]);
            let out = measure_group(engine, group, xs, mcfg, kind, mean);
            if let Some(writer) = ckpt {
                let record = GroupRecord {
                    entries: out
                        .iter()
                        .map(|(index, stats)| IndexStats {
                            index: *index as u64,
                            stats: stats.iter().map(RunningStats::to_parts).collect(),
                        })
                        .collect(),
                };
                // into_inner: a panic elsewhere must not poison the
                // surviving workers' checkpoint appends.
                let result = writer
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .append(&record);
                if let Err(e) = result {
                    mcast_obs::warn!("store", "checkpoint append failed: {e}");
                }
            }
            for _ in &group.indices {
                progress.add_samples(samples_per_source);
                progress.item_done();
            }
            out
        },
    );
    progress.finish();
    // The checkpoint writer flushes every append, so simply dropping
    // `ckpt` on either path below leaves a complete record of all
    // surviving groups for `--resume`.
    let per_group = match per_group {
        Ok(per_group) => per_group,
        Err(map_err) => {
            let failures: Vec<GroupFailure> = map_err
                .failures
                .iter()
                .map(|fail| {
                    let gi = pending[fail.index];
                    let group = &plan.groups()[gi];
                    GroupFailure {
                        group_index: gi,
                        source: group.node,
                        source_indices: group.indices.clone(),
                        payload: fail.payload.clone(),
                    }
                })
                .collect();
            for fail in &failures {
                mcast_obs::error!(
                    "runner",
                    "source group {} (node {}, source indices {:?}) panicked: {}",
                    fail.group_index,
                    fail.source,
                    fail.source_indices,
                    fail.payload
                );
            }
            return Err(CurveError {
                failures,
                completed: map_err.completed,
            });
        }
    };
    for group_out in per_group {
        for (index, stats) in group_out {
            done[index] = Some(stats);
        }
    }
    Ok(merge_indexed(xs, done))
}

/// Plan-level ū pre-sweep: one bit-parallel sweep per lane-width batch of
/// pending distinct sources replaces each group's O(V) receiver-pool
/// distance scan. The
/// batched means are bit-identical to the scans
/// ([`batched_mean_distances`]), so curves are unchanged; if the sweep
/// itself panics the caller falls back to the scanning path rather than
/// failing the curve.
fn plan_mean_distances(graph: &Graph, nodes: &[NodeId], cfg: &RunConfig) -> Option<Vec<f64>> {
    if nodes.is_empty() {
        return Some(Vec::new());
    }
    let chunks: Vec<&[NodeId]> = nodes.chunks(max_lanes()).collect();
    match try_parallel_map_with(
        chunks.len(),
        cfg,
        |_worker| BatchBfs::new(graph),
        |batch, ci| batched_mean_distances(batch, chunks[ci]),
    ) {
        Ok(per_chunk) => Some(per_chunk.into_iter().flatten().collect()),
        Err(e) => {
            mcast_obs::warn!(
                "runner",
                "mean-distance pre-sweep failed ({e}); falling back to per-source scans"
            );
            None
        }
    }
}

/// Cache key for one measured curve: every input that determines the
/// numbers. Thread count is deliberately absent — results are
/// bit-identical at any thread count, which is what makes the cache
/// shareable between differently-parallel runs (and between a one-shot
/// `mcs measure --cache-dir` and a `mcs serve` daemon: the serve
/// backend keys its single-flight table and cache probes with exactly
/// this function).
pub fn curve_key(graph: &Graph, xs: &[usize], mcfg: &MeasureConfig, kind: SampleKind) -> Key {
    let kind_name = match kind {
        SampleKind::Ratio => "ratio",
        SampleKind::NormalizedTree => "normalized-tree",
    };
    let xs64: Vec<u64> = xs.iter().map(|&x| x as u64).collect();
    KeyBuilder::new("curve")
        .bytes("topology", &mcast_store::encode_graph(graph))
        .u64("seed", mcfg.seed)
        .u64("sources", mcfg.sources as u64)
        .u64("receiver_sets", mcfg.receiver_sets as u64)
        .str("kind", kind_name)
        .u64s("xs", &xs64)
        .u64("format", u64::from(mcast_store::FORMAT_VERSION))
        .u64("codec", CURVE_CODEC_VERSION)
        .finish()
}

/// Version of the cached-curve payload encoding below; bump on any
/// change so stale objects become misses instead of garbage.
const CURVE_CODEC_VERSION: u64 = 1;

/// Serialise a measured curve bit-exactly: per point `x`, sample count,
/// and the mean/m2 accumulator floats as IEEE-754 bit patterns.
fn encode_curve(points: &[CurvePoint]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + points.len() * 32);
    out.extend_from_slice(&(points.len() as u64).to_le_bytes());
    for p in points {
        let (count, mean, m2) = p.stats.to_parts();
        out.extend_from_slice(&(p.x as u64).to_le_bytes());
        out.extend_from_slice(&count.to_le_bytes());
        out.extend_from_slice(&mean.to_bits().to_le_bytes());
        out.extend_from_slice(&m2.to_bits().to_le_bytes());
    }
    out
}

/// Inverse of [`encode_curve`]; `None` when the payload does not echo
/// the requested x grid (a codec or key-derivation bug, treated as a
/// cache miss).
fn decode_curve(bytes: &[u8], xs: &[usize]) -> Option<Vec<CurvePoint>> {
    let n = u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?) as usize;
    if n != xs.len() || bytes.len() != 8 + n * 32 {
        return None;
    }
    let mut points = Vec::with_capacity(n);
    for (i, chunk) in bytes[8..].chunks_exact(32).enumerate() {
        let x = u64::from_le_bytes(chunk[0..8].try_into().ok()?) as usize;
        if x != xs[i] {
            return None;
        }
        let count = u64::from_le_bytes(chunk[8..16].try_into().ok()?);
        let mean = f64::from_bits(u64::from_le_bytes(chunk[16..24].try_into().ok()?));
        let m2 = f64::from_bits(u64::from_le_bytes(chunk[24..32].try_into().ok()?));
        points.push(CurvePoint {
            x,
            stats: RunningStats::from_parts(count, mean, m2),
        });
    }
    Some(points)
}

/// The cache-aware measurement path: serve the whole curve from the
/// store when its key hits; otherwise measure (checkpointing each
/// finished group, and — under `--resume` — starting from whatever a
/// previous killed run already finished), then publish the curve and
/// drop the now-redundant checkpoint.
///
/// On a measurement failure nothing is published and the checkpoint is
/// *kept*: it holds every surviving group, so a later `--resume` only
/// has to re-measure the groups that panicked.
fn try_cached_curve(
    handle: &CacheHandle,
    key: Key,
    graph: &Graph,
    xs: &[usize],
    mcfg: &MeasureConfig,
    cfg: &RunConfig,
    kind: SampleKind,
) -> Result<Vec<CurvePoint>, CurveError> {
    if let Some(bytes) = handle.cache.get(&key, ObjectKind::Curve) {
        if let Some(points) = decode_curve(&bytes, xs) {
            return Ok(points);
        }
        mcast_obs::warn!("store", "cached curve {key} failed to decode; remeasuring");
    }
    let ckpt_dir = handle.cache.checkpoint_dir();
    if !handle.resume {
        mcast_store::checkpoint::remove(&ckpt_dir, &key);
    }
    let opened = {
        let _span = mcast_obs::span("checkpoint");
        mcast_store::checkpoint::open(&ckpt_dir, &key, xs.len() as u32)
    };
    let (writer, records) = match opened {
        Ok((w, r)) => (Some(Mutex::new(w)), r),
        Err(e) => {
            mcast_obs::warn!("store", "checkpoint unavailable ({e}); measuring without");
            (None, Vec::new())
        }
    };
    let mut done: Vec<Option<Vec<RunningStats>>> = Vec::new();
    for record in records {
        for entry in record.entries {
            let index = entry.index as usize;
            if index >= done.len() {
                done.resize(index + 1, None);
            }
            if entry.stats.len() == xs.len() {
                done[index] = Some(
                    entry
                        .stats
                        .iter()
                        .map(|&(c, mean, m2)| RunningStats::from_parts(c, mean, m2))
                        .collect(),
                );
            }
        }
    }
    let points = try_measure_curve(graph, xs, mcfg, cfg, kind, done, writer)?;
    match handle.cache.put(&key, ObjectKind::Curve, &encode_curve(&points)) {
        Ok(()) => mcast_store::checkpoint::remove(&ckpt_dir, &key),
        Err(e) => mcast_obs::warn!("store", "cache write failed: {e}"),
    }
    Ok(points)
}

fn unwrap_curve(result: Result<Vec<CurvePoint>, CurveError>) -> Vec<CurvePoint> {
    match result {
        Ok(points) => points,
        // The infallible API keeps the historical contract (panics
        // propagate) — but only after surviving groups were measured,
        // checkpointed, and the failure diagnosed with group context.
        Err(e) => std::panic::resume_unwind(Box::new(e.to_string())),
    }
}

/// Parallel version of [`mcast_tree::measure::ratio_curve`] (§2's
/// `E[L(m)/ū(m)]`).
pub fn parallel_ratio_curve(
    graph: &Graph,
    ms: &[usize],
    mcfg: &MeasureConfig,
    cfg: &RunConfig,
) -> Vec<CurvePoint> {
    unwrap_curve(try_parallel_ratio_curve(graph, ms, mcfg, cfg))
}

/// Parallel version of [`mcast_tree::measure::lhat_curve`] (§4's
/// `E[L̂(n)/(n·ū)]`).
pub fn parallel_lhat_curve(
    graph: &Graph,
    ns: &[usize],
    mcfg: &MeasureConfig,
    cfg: &RunConfig,
) -> Vec<CurvePoint> {
    unwrap_curve(try_parallel_lhat_curve(graph, ns, mcfg, cfg))
}

/// Fault-isolating [`parallel_ratio_curve`]: a panicking source group
/// becomes a [`CurveError`] naming the group instead of unwinding, and
/// every surviving group is still measured (and checkpointed when a
/// store is bound).
pub fn try_parallel_ratio_curve(
    graph: &Graph,
    ms: &[usize],
    mcfg: &MeasureConfig,
    cfg: &RunConfig,
) -> Result<Vec<CurvePoint>, CurveError> {
    try_parallel_curve(graph, ms, mcfg, cfg, SampleKind::Ratio)
}

/// Fault-isolating [`parallel_lhat_curve`]; see
/// [`try_parallel_ratio_curve`].
pub fn try_parallel_lhat_curve(
    graph: &Graph,
    ns: &[usize],
    mcfg: &MeasureConfig,
    cfg: &RunConfig,
) -> Result<Vec<CurvePoint>, CurveError> {
    try_parallel_curve(graph, ns, mcfg, cfg, SampleKind::NormalizedTree)
}

/// A log-spaced grid of integer group sizes from 1 to `max`, deduplicated:
/// the x grid of Figs 1 and 6.
pub fn log_grid(max: usize, per_decade: usize) -> Vec<usize> {
    assert!(max >= 1);
    assert!(per_decade >= 1);
    let mut out = vec![];
    let step = 10f64.powf(1.0 / per_decade as f64);
    let mut x = 1f64;
    while x <= max as f64 {
        let v = x.round() as usize;
        if out.last() != Some(&v) {
            out.push(v);
        }
        x *= step;
    }
    if out.last() != Some(&max) {
        out.push(max);
    }
    out
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mcast_topology::graph::from_edges;
    use mcast_tree::measure::{lhat_curve, ratio_curve};

    fn binary_tree(depth: u32) -> Graph {
        let n = (1u32 << (depth + 1)) - 1;
        let edges: Vec<_> = (1..n).map(|i| ((i - 1) / 2, i)).collect();
        from_edges(n as usize, &edges)
    }

    #[test]
    fn parallel_map_preserves_order() {
        let cfg = RunConfig {
            threads: 4,
            ..RunConfig::fast()
        };
        let out = parallel_map(100, &cfg, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert!(parallel_map(0, &cfg, |i| i).is_empty());
    }

    #[test]
    fn parallel_map_with_carries_worker_state() {
        let cfg = RunConfig {
            threads: 3,
            ..RunConfig::fast()
        };
        // State = (worker id, items seen so far by this worker). Every
        // output must report a sane worker id and a strictly positive
        // per-worker sequence number, and ids must cover > 1 worker.
        let out = parallel_map_with(
            200,
            &cfg,
            |t| (t, 0usize),
            |(t, seen), _i| {
                *seen += 1;
                (*t, *seen)
            },
        );
        assert_eq!(out.len(), 200);
        assert!(out.iter().all(|&(t, seen)| t < 3 && seen >= 1));
        let total: usize = (0..3)
            .map(|t| {
                out.iter()
                    .filter(|&&(w, _)| w == t)
                    .map(|&(_, s)| s)
                    .max()
                    .unwrap_or(0)
            })
            .sum();
        assert_eq!(total, 200, "per-worker sequence maxima must partition");
    }

    #[test]
    fn cursor_batch_bounds() {
        assert_eq!(cursor_batch(1, 8), 1);
        assert_eq!(cursor_batch(0, 4), 1);
        assert!(cursor_batch(1_000_000, 4) == 64);
        let b = cursor_batch(200, 8);
        assert!((1..=64).contains(&b), "{b}");
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let g = binary_tree(6);
        let mcfg = MeasureConfig {
            sources: 6,
            receiver_sets: 8,
            seed: 77,
        };
        let cfg = RunConfig {
            threads: 3,
            ..RunConfig::fast()
        };
        let ms = [2usize, 8, 20];
        let seq = ratio_curve(&g, &ms, &mcfg);
        let par = parallel_ratio_curve(&g, &ms, &mcfg, &cfg);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.stats.count(), b.stats.count());
            assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
            assert_eq!(a.stats.variance().to_bits(), b.stats.variance().to_bits());
        }
        let ns = [1usize, 16];
        let seq = lhat_curve(&g, &ns, &mcfg);
        let par = parallel_lhat_curve(&g, &ns, &mcfg, &cfg);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
        }
    }

    #[test]
    fn curve_codec_round_trips_bit_exactly() {
        let points: Vec<CurvePoint> = [(1usize, 0.25f64), (10, 1.0 / 3.0), (100, 1e-30)]
            .iter()
            .map(|&(x, v)| {
                let mut stats = RunningStats::new();
                stats.push(v);
                stats.push(v * 2.0);
                CurvePoint { x, stats }
            })
            .collect();
        let xs = [1usize, 10, 100];
        let bytes = encode_curve(&points);
        let back = decode_curve(&bytes, &xs).unwrap();
        for (a, b) in points.iter().zip(&back) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.stats.count(), b.stats.count());
            assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
            assert_eq!(a.stats.variance().to_bits(), b.stats.variance().to_bits());
        }
        // Wrong grid or truncated payload is a miss, not garbage.
        assert!(decode_curve(&bytes, &[1, 10]).is_none());
        assert!(decode_curve(&bytes, &[1, 10, 99]).is_none());
        assert!(decode_curve(&bytes[..bytes.len() - 1], &xs).is_none());
    }

    /// Serialises tests that bind the process-global cache.
    pub(crate) fn cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn cached_curve_is_bit_identical_to_uncached_and_reused() {
        let _guard = cache_test_lock();
        let g = binary_tree(5);
        let mcfg = MeasureConfig {
            sources: 5,
            receiver_sets: 6,
            seed: 41,
        };
        let cfg = RunConfig {
            threads: 2,
            ..RunConfig::fast()
        };
        let ms = [1usize, 4, 16];
        mcast_store::deactivate();
        let plain = parallel_ratio_curve(&g, &ms, &mcfg, &cfg);

        let root = std::env::temp_dir().join(format!("mcs-runner-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        mcast_store::configure(&root, false).unwrap();
        let first = parallel_ratio_curve(&g, &ms, &mcfg, &cfg);
        let key = curve_key(&g, &ms, &mcfg, SampleKind::Ratio);
        let handle = mcast_store::active().unwrap();
        assert!(handle.cache.contains(&key), "curve object persisted");
        // Completed curve leaves no checkpoint behind.
        assert!(!mcast_store::checkpoint::checkpoint_path(
            &handle.cache.checkpoint_dir(),
            &key
        )
        .exists());
        // Second run must be served from the object; corrupt nothing and
        // the numbers stay bit-identical to the uncached measurement.
        let second = parallel_ratio_curve(&g, &ms, &mcfg, &cfg);
        mcast_store::deactivate();
        let _ = std::fs::remove_dir_all(&root);
        for ((a, b), c) in plain.iter().zip(&first).zip(&second) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
            assert_eq!(a.stats.variance().to_bits(), b.stats.variance().to_bits());
            assert_eq!(b.stats.mean().to_bits(), c.stats.mean().to_bits());
            assert_eq!(b.stats.variance().to_bits(), c.stats.variance().to_bits());
            assert_eq!(b.stats.count(), c.stats.count());
        }
    }

    #[test]
    fn killed_run_resumes_bit_identically_at_any_thread_count() {
        let _guard = cache_test_lock();
        let g = binary_tree(6);
        let mcfg = MeasureConfig {
            sources: 9,
            receiver_sets: 7,
            seed: 123,
        };
        let xs = [1usize, 3, 9, 27];
        let reference_cfg = RunConfig {
            threads: 1,
            ..RunConfig::fast()
        };
        mcast_store::deactivate();
        let reference = parallel_ratio_curve(&g, &xs, &mcfg, &reference_cfg);

        for threads in [1usize, 2, 3] {
            let cfg = RunConfig {
                threads,
                ..RunConfig::fast()
            };
            let root = std::env::temp_dir().join(format!(
                "mcs-resume-{}-{threads}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&root);
            // Simulate a run killed mid-measure: checkpoint only a prefix
            // of the plan's groups (what a dead process leaves behind),
            // then resume and require bit-identical curves.
            let key = curve_key(&g, &xs, &mcfg, SampleKind::Ratio);
            {
                let cache = mcast_store::DiskCache::open(&root).unwrap();
                let (mut writer, prior) =
                    mcast_store::checkpoint::open(&cache.checkpoint_dir(), &key, xs.len() as u32)
                        .unwrap();
                assert!(prior.is_empty());
                let plan = SourcePlan::new(&g, &mcfg);
                let survivors = plan.groups().len() / 2;
                assert!(survivors >= 1, "test needs at least one finished group");
                let mut engine = MeasureEngine::new(&g);
                for group in &plan.groups()[..survivors] {
                    let out =
                        measure_group(&mut engine, group, &xs, &mcfg, SampleKind::Ratio, None);
                    writer
                        .append(&GroupRecord {
                            entries: out
                                .iter()
                                .map(|(index, stats)| IndexStats {
                                    index: *index as u64,
                                    stats: stats.iter().map(RunningStats::to_parts).collect(),
                                })
                                .collect(),
                        })
                        .unwrap();
                }
            }
            mcast_store::configure(&root, true).unwrap();
            let resumed = parallel_ratio_curve(&g, &xs, &mcfg, &cfg);
            mcast_store::deactivate();
            let _ = std::fs::remove_dir_all(&root);
            for (a, b) in reference.iter().zip(&resumed) {
                assert_eq!(a.x, b.x);
                assert_eq!(a.stats.count(), b.stats.count(), "threads={threads}");
                assert_eq!(
                    a.stats.mean().to_bits(),
                    b.stats.mean().to_bits(),
                    "threads={threads}"
                );
                assert_eq!(
                    a.stats.variance().to_bits(),
                    b.stats.variance().to_bits(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn sequential_capture_reports_failing_index() {
        let cfg = RunConfig {
            threads: 1,
            ..RunConfig::fast()
        };
        let err = try_parallel_map_with(
            6,
            &cfg,
            |_| (),
            |(), i| {
                if i == 3 {
                    panic!("boom at {i}");
                }
                i * 10
            },
        )
        .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].index, 3);
        assert_eq!(err.failures[0].payload, "boom at 3");
        assert_eq!(err.completed, 5);
        assert!(err.to_string().contains("item 3"), "{err}");
    }

    #[test]
    fn parallel_capture_drains_survivors_and_rebuilds_state() {
        let cfg = RunConfig {
            threads: 3,
            ..RunConfig::fast()
        };
        // State counts items since the last rebuild. A panic poisons the
        // worker's state, which must be rebuilt (fresh counter) before
        // the next item — stale state never contributes.
        let err = try_parallel_map_with(
            50,
            &cfg,
            |_t| 0usize,
            |since_rebuild, i| {
                *since_rebuild += 1;
                if i == 7 || i == 23 {
                    panic!("injected");
                }
                i
            },
        )
        .unwrap_err();
        let indices: Vec<usize> = err.failures.iter().map(|f| f.index).collect();
        assert_eq!(indices, vec![7, 23], "sorted, both captured");
        assert_eq!(err.completed, 48, "every surviving item ran");
    }

    #[test]
    fn init_panic_is_captured_not_propagated() {
        let cfg = RunConfig {
            threads: 1,
            ..RunConfig::fast()
        };
        let calls = std::sync::atomic::AtomicUsize::new(0);
        // First init attempt panics; the item it would have served is
        // reported failed, and the retried init serves the rest.
        let err = try_parallel_map_with(
            3,
            &cfg,
            |_| {
                if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("init fault");
                }
            },
            |(), i| i,
        )
        .unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].index, 0);
        assert!(
            err.failures[0].payload.contains("init panicked"),
            "{}",
            err.failures[0].payload
        );
        assert_eq!(err.completed, 2);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn failed_group_keeps_checkpoint_and_resume_completes_bit_identically() {
        let _cache_guard = cache_test_lock();
        let _fault_guard = crate::fault::tests::fault_test_lock();
        let g = binary_tree(5);
        let mcfg = MeasureConfig {
            sources: 7,
            receiver_sets: 5,
            seed: 99,
        };
        let cfg = RunConfig {
            threads: 2,
            ..RunConfig::fast()
        };
        let xs = [1usize, 4, 12];
        mcast_store::deactivate();
        let reference = parallel_ratio_curve(&g, &xs, &mcfg, &cfg);

        let root = std::env::temp_dir().join(format!("mcs-fault-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        mcast_store::configure(&root, false).unwrap();
        let victim = SourcePlan::new(&g, &mcfg).groups().len() / 2;
        // Task-filter the fault to this test's context and measure
        // single-threaded (hooks fire on the calling thread), so curves
        // measured by concurrently running tests can't trip it.
        crate::fault::arm(Some("runner-ckpt-test"), Some(victim), 1);
        let seq_cfg = RunConfig { threads: 1, ..cfg };
        let err = {
            let _ctx = crate::fault::context("runner-ckpt-test");
            try_parallel_ratio_curve(&g, &xs, &mcfg, &seq_cfg).unwrap_err()
        };
        crate::fault::disarm();
        assert_eq!(err.failures.len(), 1);
        assert_eq!(err.failures[0].group_index, victim);
        assert!(
            err.failures[0].payload.contains("injected fault"),
            "{}",
            err.failures[0].payload
        );

        // The failed curve was not published, but the survivors'
        // checkpoint was kept for resume.
        let handle = mcast_store::active().unwrap();
        let key = curve_key(&g, &xs, &mcfg, SampleKind::Ratio);
        assert!(!handle.cache.contains(&key), "failed curve must not publish");
        assert!(
            mcast_store::checkpoint::checkpoint_path(&handle.cache.checkpoint_dir(), &key)
                .exists(),
            "survivors' checkpoint must be kept"
        );
        mcast_store::deactivate();

        // Resume: only the failed group re-measures; the curve comes out
        // bit-identical to the clean uncached reference.
        mcast_store::configure(&root, true).unwrap();
        let resumed = parallel_ratio_curve(&g, &xs, &mcfg, &cfg);
        mcast_store::deactivate();
        let _ = std::fs::remove_dir_all(&root);
        for (a, b) in reference.iter().zip(&resumed) {
            assert_eq!(a.x, b.x);
            assert_eq!(a.stats.count(), b.stats.count());
            assert_eq!(a.stats.mean().to_bits(), b.stats.mean().to_bits());
            assert_eq!(a.stats.variance().to_bits(), b.stats.variance().to_bits());
        }
    }

    #[test]
    fn curve_key_separates_inputs() {
        let g = binary_tree(3);
        let g2 = binary_tree(4);
        let mcfg = MeasureConfig {
            sources: 3,
            receiver_sets: 3,
            seed: 1,
        };
        let base = curve_key(&g, &[1, 2], &mcfg, SampleKind::Ratio);
        assert_eq!(base, curve_key(&g, &[1, 2], &mcfg, SampleKind::Ratio));
        assert_ne!(base, curve_key(&g2, &[1, 2], &mcfg, SampleKind::Ratio));
        assert_ne!(base, curve_key(&g, &[1, 3], &mcfg, SampleKind::Ratio));
        assert_ne!(
            base,
            curve_key(&g, &[1, 2], &mcfg, SampleKind::NormalizedTree)
        );
        let reseeded = MeasureConfig { seed: 2, ..mcfg };
        assert_ne!(base, curve_key(&g, &[1, 2], &reseeded, SampleKind::Ratio));
    }

    #[test]
    fn single_thread_path_works() {
        let cfg = RunConfig {
            threads: 1,
            ..RunConfig::fast()
        };
        let out = parallel_map(5, &cfg, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn log_grid_shape() {
        let g = log_grid(1000, 3);
        assert_eq!(*g.first().unwrap(), 1);
        assert_eq!(*g.last().unwrap(), 1000);
        assert!(g.windows(2).all(|w| w[0] < w[1]), "{g:?}");
        // Roughly 3 points per decade.
        assert!(g.len() >= 9 && g.len() <= 13, "{}", g.len());
        assert_eq!(log_grid(1, 5), vec![1]);
    }
}
