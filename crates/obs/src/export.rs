//! Trace exporters and the diff engine behind `mcs obs`.
//!
//! Everything here consumes the `trace.jsonl` sidecar written by
//! [`mod@crate::trace`] (parsed with the crate's own [`crate::json`] parser,
//! so no external dependencies) and produces:
//!
//! * [`chrome_trace`] — Chrome trace-event JSON (`about:tracing`,
//!   Perfetto) with one complete (`"X"`) event per span occurrence and
//!   counter (`"C"`) events for instants;
//! * [`folded_stacks`] — collapsed-stack lines (`a;b;c <self µs>`) for
//!   any flamegraph renderer;
//! * [`TraceSummary`] — per-path aggregates (count, inclusive wall,
//!   self wall, allocation totals) plus per-lane busy time and
//!   utilisation — the unit `mcs obs report` prints and `mcs obs diff`
//!   compares;
//! * [`diff`] — budget-checked comparison of two summaries, the CI
//!   perf-regression gate.
//!
//! Self time is inclusive wall minus the inclusive wall of **direct**
//! children (by path), clamped at zero per path — clock jitter between
//! a parent's own timestamps and its children's must not produce
//! negative self time.

use crate::json::{self, Value};
use crate::trace::AllocDelta;
use std::collections::BTreeMap;

/// One span occurrence parsed back from `trace.jsonl`.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// Full `/`-separated span path.
    pub path: String,
    /// Recording lane (thread) id.
    pub tid: u32,
    /// Start, ns since trace epoch.
    pub t0_ns: u64,
    /// End, ns since trace epoch.
    pub t1_ns: u64,
    /// Counter deltas attributed to this occurrence.
    pub counters: Vec<(String, u64)>,
    /// Allocation deltas when the counting allocator was engaged.
    pub alloc: Option<AllocDelta>,
}

/// One instant event parsed back from `trace.jsonl`.
#[derive(Clone, Debug)]
pub struct InstantRec {
    /// Signal name.
    pub name: String,
    /// Recording lane id.
    pub tid: u32,
    /// Timestamp, ns since trace epoch.
    pub t_ns: u64,
    /// Signal value.
    pub value: i64,
}

/// A fully parsed trace sidecar.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    /// Key/value pairs from the leading `meta` line (minus `ev`).
    pub meta: Vec<(String, Value)>,
    /// Span occurrences in file order.
    pub spans: Vec<SpanRec>,
    /// Instant events in file order.
    pub instants: Vec<InstantRec>,
}

fn need_u64(v: &Value, key: &str, line_no: usize) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("trace line {line_no}: missing/invalid \"{key}\""))
}

fn need_str<'v>(v: &'v Value, key: &str, line_no: usize) -> Result<&'v str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("trace line {line_no}: missing/invalid \"{key}\""))
}

/// Parse the contents of a `trace.jsonl` file. Unknown event kinds are
/// skipped (forward compatibility); malformed lines are errors.
pub fn parse_trace(text: &str) -> Result<ParsedTrace, String> {
    let mut out = ParsedTrace::default();
    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("trace line {line_no}: {e}"))?;
        let ev = need_str(&v, "ev", line_no)?;
        match ev {
            "meta" => {
                if let Some(obj) = v.as_obj() {
                    out.meta = obj
                        .iter()
                        .filter(|(k, _)| k != "ev")
                        .map(|(k, val)| (k.clone(), val.clone()))
                        .collect();
                }
            }
            "span" => {
                let counters = match v.get("counters").and_then(Value::as_obj) {
                    Some(obj) => obj
                        .iter()
                        .map(|(k, c)| {
                            c.as_u64()
                                .map(|c| (k.clone(), c))
                                .ok_or_else(|| format!("trace line {line_no}: bad counter"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    None => Vec::new(),
                };
                let alloc = match v.get("alloc") {
                    Some(a) => Some(AllocDelta {
                        count: need_u64(a, "count", line_no)?,
                        bytes: need_u64(a, "bytes", line_no)?,
                        peak: need_u64(a, "peak", line_no)?,
                    }),
                    None => None,
                };
                out.spans.push(SpanRec {
                    path: need_str(&v, "path", line_no)?.to_string(),
                    tid: need_u64(&v, "tid", line_no)? as u32,
                    t0_ns: need_u64(&v, "t0", line_no)?,
                    t1_ns: need_u64(&v, "t1", line_no)?,
                    counters,
                    alloc,
                });
            }
            "instant" => {
                out.instants.push(InstantRec {
                    name: need_str(&v, "name", line_no)?.to_string(),
                    tid: need_u64(&v, "tid", line_no)? as u32,
                    t_ns: need_u64(&v, "t", line_no)?,
                    value: v
                        .get("v")
                        .and_then(Value::as_i64)
                        .ok_or_else(|| format!("trace line {line_no}: missing/invalid \"v\""))?,
                });
            }
            _ => {} // unknown event kinds from future writers: skip
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// Render as Chrome trace-event JSON (load in `about:tracing` or
/// Perfetto). Spans become complete (`"X"`) events with microsecond
/// timestamps; instants become counter (`"C"`) events so queue depth
/// and friends plot as time series.
pub fn chrome_trace(trace: &ParsedTrace) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(128 + trace.spans.len() * 128);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    for s in &trace.spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"ph\":\"X\",\"name\":");
        json::write_str(&mut out, &s.path);
        let _ = write!(
            out,
            ",\"cat\":\"span\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}",
            s.tid,
            micros(s.t0_ns),
            micros(s.t1_ns.saturating_sub(s.t0_ns))
        );
        if !s.counters.is_empty() || s.alloc.is_some() {
            out.push_str(",\"args\":{");
            let mut first_arg = true;
            for (name, delta) in &s.counters {
                if !first_arg {
                    out.push(',');
                }
                first_arg = false;
                json::write_str(&mut out, name);
                let _ = write!(out, ":{delta}");
            }
            if let Some(a) = s.alloc {
                if !first_arg {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"alloc_count\":{},\"alloc_bytes\":{},\"alloc_peak\":{}",
                    a.count, a.bytes, a.peak
                );
            }
            out.push('}');
        }
        out.push('}');
    }
    for i in &trace.instants {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"ph\":\"C\",\"name\":");
        json::write_str(&mut out, &i.name);
        let _ = write!(
            out,
            ",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"value\":{}}}}}",
            i.tid,
            micros(i.t_ns),
            i.value
        );
    }
    out.push_str("\n]}\n");
    out
}

/// Nanoseconds → microseconds with three decimals (Chrome's unit),
/// rendered without float formatting surprises.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

// ---------------------------------------------------------------------------
// Folded stacks (flamegraph) export
// ---------------------------------------------------------------------------

/// Render collapsed-stack lines (`seg;seg;seg <self µs>`) suitable for
/// any flamegraph renderer. One line per span path with non-zero self
/// time; self = inclusive − Σ temporally nested children, clamped at
/// zero.
pub fn folded_stacks(trace: &ParsedTrace) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (path, stat) in aggregate_paths(trace, &per_span_self(trace)) {
        let self_us = stat.self_ns / 1_000;
        if self_us == 0 {
            continue;
        }
        let _ = writeln!(out, "{} {}", path.replace('/', ";"), self_us);
    }
    out
}

// ---------------------------------------------------------------------------
// Summary
// ---------------------------------------------------------------------------

/// Per-path aggregate over all occurrences in a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PathStat {
    /// Number of occurrences.
    pub count: u64,
    /// Inclusive wall time, ns (sum over occurrences).
    pub wall_ns: u64,
    /// Self wall time, ns: inclusive minus spans temporally nested
    /// inside each occurrence on the same lane, clamped ≥ 0.
    pub self_ns: u64,
    /// Total allocations attributed to this path.
    pub alloc_count: u64,
    /// Total bytes allocated, attributed to this path.
    pub alloc_bytes: u64,
    /// Largest single-occurrence peak of net live growth, bytes.
    pub alloc_peak: u64,
}

/// Per-lane (thread) aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStat {
    /// Lane id.
    pub tid: u32,
    /// Σ self time of spans recorded on this lane, ns.
    pub busy_ns: u64,
}

/// The comparable digest of one trace: what `mcs obs report` prints,
/// what the CI baseline commits, and what [`diff`] consumes.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Meta fields carried over from the trace.
    pub meta: Vec<(String, Value)>,
    /// Wall-clock extent of the trace (max t1 − min t0), ns.
    pub duration_ns: u64,
    /// Per-path aggregates, sorted by path.
    pub spans: BTreeMap<String, PathStat>,
    /// Per-lane busy time, sorted by lane id.
    pub lanes: Vec<LaneStat>,
}

/// Per-occurrence self time, ns, computed by *temporal* nesting within
/// each lane: spans on one thread open and close LIFO, so their
/// intervals nest strictly, and a span's self time is its duration
/// minus the durations of the spans directly inside it. Path prefixes
/// are deliberately not consulted — the scheduler's wrapper span
/// (`sched/<task>`) and the task's own root span share an interval but
/// not a path lineage, and path-based subtraction would double-count
/// that wall time (lane utilisation above 100%).
fn per_span_self(trace: &ParsedTrace) -> Vec<u64> {
    let mut by_lane: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        by_lane.entry(s.tid).or_default().push(i);
    }
    let mut self_ns = vec![0u64; trace.spans.len()];
    for mut idxs in by_lane.into_values() {
        // Containment order: earlier start first, outer (later end) first
        // among equal starts.
        idxs.sort_by(|&a, &b| {
            let (sa, sb) = (&trace.spans[a], &trace.spans[b]);
            sa.t0_ns.cmp(&sb.t0_ns).then(sb.t1_ns.cmp(&sa.t1_ns))
        });
        // Stack of (span index, Σ durations of its direct children).
        let mut stack: Vec<(usize, u64)> = Vec::new();
        let finish = |stack: &mut Vec<(usize, u64)>, self_ns: &mut Vec<u64>| {
            let (top, children) = stack.pop().expect("finish on empty stack");
            let s = &trace.spans[top];
            let dur = s.t1_ns.saturating_sub(s.t0_ns);
            // Clamp: a malformed trace can overlap without nesting.
            self_ns[top] = dur.saturating_sub(children);
            if let Some(parent) = stack.last_mut() {
                parent.1 += dur;
            }
        };
        for &i in &idxs {
            let t0 = trace.spans[i].t0_ns;
            while let Some(&(top, _)) = stack.last() {
                if trace.spans[top].t1_ns <= t0 {
                    finish(&mut stack, &mut self_ns);
                } else {
                    break;
                }
            }
            stack.push((i, 0));
        }
        while !stack.is_empty() {
            finish(&mut stack, &mut self_ns);
        }
    }
    self_ns
}

/// Aggregate inclusive/self wall and alloc totals per path.
/// `self_ns` is the per-occurrence vector from [`per_span_self`],
/// index-aligned with `trace.spans`.
fn aggregate_paths(trace: &ParsedTrace, self_ns: &[u64]) -> BTreeMap<String, PathStat> {
    let mut stats: BTreeMap<String, PathStat> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        let e = stats.entry(s.path.clone()).or_default();
        e.count += 1;
        e.wall_ns += s.t1_ns.saturating_sub(s.t0_ns);
        e.self_ns += self_ns[i];
        if let Some(a) = s.alloc {
            e.alloc_count += a.count;
            e.alloc_bytes += a.bytes;
            e.alloc_peak = e.alloc_peak.max(a.peak);
        }
    }
    stats
}

/// Build the summary digest of a parsed trace.
pub fn summarize(trace: &ParsedTrace) -> TraceSummary {
    let self_ns = per_span_self(trace);
    let spans = aggregate_paths(trace, &self_ns);
    let duration_ns = match (
        trace.spans.iter().map(|s| s.t0_ns).min(),
        trace.spans.iter().map(|s| s.t1_ns).max(),
    ) {
        (Some(t0), Some(t1)) => t1.saturating_sub(t0),
        _ => 0,
    };
    // Per-lane busy: Σ self time on the lane — equal, by construction,
    // to the length of the union of the lane's span intervals, so
    // utilisation never exceeds 100%.
    let mut lanes: BTreeMap<u32, u64> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        *lanes.entry(s.tid).or_default() += self_ns[i];
    }
    TraceSummary {
        meta: trace.meta.clone(),
        duration_ns,
        spans,
        lanes: lanes
            .into_iter()
            .map(|(tid, busy_ns)| LaneStat { tid, busy_ns })
            .collect(),
    }
}

impl TraceSummary {
    /// Σ self time across all paths, ns.
    pub fn total_self_ns(&self) -> u64 {
        self.spans.values().map(|s| s.self_ns).sum()
    }

    /// Render as the committable summary JSON (`mcs obs report --json`):
    /// one span per line so baselines diff cleanly in git.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        out.push_str("{\n  \"version\": 1,\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push(' ');
            json::write_str(&mut out, k);
            out.push_str(": ");
            v.write(&mut out);
        }
        let _ = write!(
            out,
            " }},\n  \"duration_ns\": {},\n  \"lanes\": [",
            self.duration_ns
        );
        for (i, l) in self.lanes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"tid\": {}, \"busy_ns\": {}}}",
                l.tid, l.busy_ns
            );
        }
        out.push_str("\n  ],\n  \"spans\": {");
        for (i, (path, s)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            json::write_str(&mut out, path);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"wall_ns\": {}, \"self_ns\": {}, \
                 \"alloc_count\": {}, \"alloc_bytes\": {}, \"alloc_peak\": {}}}",
                s.count, s.wall_ns, s.self_ns, s.alloc_count, s.alloc_bytes, s.alloc_peak
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parse a summary previously written by [`TraceSummary::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("summary: {e}"))?;
        let mut out = TraceSummary {
            duration_ns: v.get("duration_ns").and_then(Value::as_u64).unwrap_or(0),
            ..TraceSummary::default()
        };
        if let Some(meta) = v.get("meta").and_then(Value::as_obj) {
            out.meta = meta.to_vec();
        }
        if let Some(lanes) = v.get("lanes").and_then(Value::as_arr) {
            for l in lanes {
                out.lanes.push(LaneStat {
                    tid: l.get("tid").and_then(Value::as_u64).unwrap_or(0) as u32,
                    busy_ns: l.get("busy_ns").and_then(Value::as_u64).unwrap_or(0),
                });
            }
        }
        let spans = v
            .get("spans")
            .and_then(Value::as_obj)
            .ok_or("summary: missing \"spans\" object")?;
        for (path, s) in spans {
            let grab = |key: &str| s.get(key).and_then(Value::as_u64).unwrap_or(0);
            out.spans.insert(
                path.clone(),
                PathStat {
                    count: grab("count"),
                    wall_ns: grab("wall_ns"),
                    self_ns: grab("self_ns"),
                    alloc_count: grab("alloc_count"),
                    alloc_bytes: grab("alloc_bytes"),
                    alloc_peak: grab("alloc_peak"),
                },
            );
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Diff + budgets
// ---------------------------------------------------------------------------

/// Thresholds for [`diff`], loadable from a JSON budget file:
///
/// ```json
/// { "default_wall_pct": 25.0, "normalise": true, "min_wall_ms": 5.0,
///   "spans": { "suite": 10.0 } }
/// ```
#[derive(Clone, Debug)]
pub struct Budget {
    /// Allowed wall-time change, percent, for spans without an override.
    pub default_wall_pct: f64,
    /// Compare share-of-total-self-time instead of raw nanoseconds —
    /// hardware-independent, the right setting for CI.
    pub normalise: bool,
    /// Noise floor, ms: spans below this in both runs are skipped, and
    /// no span breaches unless its wall time moved by at least this much
    /// (or by [`MOVE_FLOOR_SHARE`] of the run, up to [`MOVE_FLOOR_CAP_MS`],
    /// whichever is larger).
    pub min_wall_ms: f64,
    /// Per-path threshold overrides, percent.
    pub spans: BTreeMap<String, f64>,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            default_wall_pct: 25.0,
            normalise: true,
            min_wall_ms: 5.0,
            spans: BTreeMap::new(),
        }
    }
}

impl Budget {
    /// Parse a budget file; absent keys keep their defaults.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("budget: {e}"))?;
        let mut b = Budget::default();
        if let Some(p) = v.get("default_wall_pct").and_then(Value::as_f64) {
            b.default_wall_pct = p;
        }
        if let Some(n) = v.get("normalise").and_then(Value::as_bool) {
            b.normalise = n;
        }
        if let Some(m) = v.get("min_wall_ms").and_then(Value::as_f64) {
            b.min_wall_ms = m;
        }
        if let Some(spans) = v.get("spans").and_then(Value::as_obj) {
            for (path, pct) in spans {
                b.spans.insert(
                    path.clone(),
                    pct.as_f64()
                        .ok_or_else(|| format!("budget: span \"{path}\" threshold not a number"))?,
                );
            }
        }
        Ok(b)
    }
}

/// One compared span path.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Span path.
    pub path: String,
    /// Baseline wall, ns (`None`: path new in the candidate).
    pub wall_a: Option<u64>,
    /// Candidate wall, ns (`None`: path vanished).
    pub wall_b: Option<u64>,
    /// Measured change, percent, in the budget's metric (normalised
    /// share or raw wall). `None` when not comparable.
    pub delta_pct: Option<f64>,
    /// Threshold applied, percent.
    pub budget_pct: f64,
    /// Whether this row breaches its threshold.
    pub breach: bool,
}

/// Result of comparing a candidate summary against a baseline.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// One row per compared path (baseline ∪ candidate, above floor).
    pub rows: Vec<DiffRow>,
    /// Number of breaching rows.
    pub breaches: usize,
    /// Smallest wall-time move, ns, that can breach: the larger of the
    /// budget's `min_wall_ms` and [`MOVE_FLOOR_SHARE`] of the larger run's
    /// total self time, the latter capped at [`MOVE_FLOOR_CAP_MS`].
    pub move_floor_ns: u64,
}

/// Share of the larger run's total self time that a span's wall time
/// must move by before it can breach, up to [`MOVE_FLOOR_CAP_MS`]. A
/// short run on a busy host is noisy by more than a fixed 5 ms floor
/// allows: 60 identical-config pairs of a ~150 ms two-figure fast suite
/// on 2 vCPUs (7 trace lanes) moved their worst span by up to 19% of
/// the run, 9 pairs by over 5% and 2 by over 10%.
pub const MOVE_FLOOR_SHARE: f64 = 0.10;

/// Largest breach floor, ms, that [`MOVE_FLOOR_SHARE`] can set. The
/// noise it absorbs is preemption, which stretches a span by whole
/// scheduler slices however long the run is, so it does not grow with
/// the run: in the same 60 pairs, the largest moves of a span whose
/// share swung past the 25% budget were 33, 28 and 20 ms, and the rest
/// at most 18 ms. Budgets whose own `min_wall_ms` is at
/// least this (CI's is 20) keep exactly their fixed floor.
pub const MOVE_FLOOR_CAP_MS: f64 = 20.0;

/// Compare candidate `b` against baseline `a` under `budget`. Paths
/// below the budget's wall floor in **both** summaries are skipped;
/// paths present on only one side are reported but never breach (suite
/// composition changes are reviewed with the change, not gated here). A
/// second, run-scaled floor guards breaches: a span whose wall time
/// moved by less than `min_wall_ms`, or by less than
/// [`MOVE_FLOOR_SHARE`] of the larger run's total self time capped at
/// [`MOVE_FLOOR_CAP_MS`], never breaches, however large the relative
/// swing — short spans jitter by large percentages under scheduler noise.
pub fn diff(a: &TraceSummary, b: &TraceSummary, budget: &Budget) -> DiffReport {
    let floor_ns = (budget.min_wall_ms * 1e6) as u64;
    let run_ns = a.total_self_ns().max(b.total_self_ns()) as f64;
    let move_floor_ns =
        floor_ns.max((run_ns * MOVE_FLOOR_SHARE).min(MOVE_FLOOR_CAP_MS * 1e6) as u64);
    let total_a = a.total_self_ns().max(1) as f64;
    let total_b = b.total_self_ns().max(1) as f64;
    let mut paths: Vec<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    paths.sort();
    paths.dedup();
    let mut report = DiffReport {
        move_floor_ns,
        ..DiffReport::default()
    };
    for path in paths {
        let sa = a.spans.get(path);
        let sb = b.spans.get(path);
        let wall_a = sa.map(|s| s.wall_ns);
        let wall_b = sb.map(|s| s.wall_ns);
        if wall_a.unwrap_or(0) < floor_ns && wall_b.unwrap_or(0) < floor_ns {
            continue;
        }
        let budget_pct = budget
            .spans
            .get(path)
            .copied()
            .unwrap_or(budget.default_wall_pct);
        let (delta_pct, breach) = match (sa, sb) {
            (Some(sa), Some(sb)) => {
                let (ma, mb) = if budget.normalise {
                    (sa.wall_ns as f64 / total_a, sb.wall_ns as f64 / total_b)
                } else {
                    (sa.wall_ns as f64, sb.wall_ns as f64)
                };
                let delta = if ma > 0.0 {
                    (mb - ma) / ma * 100.0
                } else if mb > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                };
                let moved_ns = sa.wall_ns.abs_diff(sb.wall_ns);
                (
                    Some(delta),
                    delta.abs() > budget_pct && moved_ns >= move_floor_ns,
                )
            }
            _ => (None, false),
        };
        if breach {
            report.breaches += 1;
        }
        report.rows.push(DiffRow {
            path: path.clone(),
            wall_a,
            wall_b,
            delta_pct,
            budget_pct,
            breach,
        });
    }
    report
}

// ---------------------------------------------------------------------------
// Text renderers
// ---------------------------------------------------------------------------

fn fmt_ns(ns: u64) -> String {
    let ms = ns as f64 / 1e6;
    if ms >= 1000.0 {
        format!("{:.2}s", ms / 1000.0)
    } else if ms >= 1.0 {
        format!("{ms:.1}ms")
    } else {
        format!("{:.0}µs", ns as f64 / 1e3)
    }
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}

/// Render the human-readable report (`mcs obs report`): top spans by
/// self wall time, allocation attribution, per-lane utilisation.
pub fn report_text(summary: &TraceSummary, top: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace: {} span path(s), {} lane(s), duration {}",
        summary.spans.len(),
        summary.lanes.len(),
        fmt_ns(summary.duration_ns)
    );
    for (k, v) in &summary.meta {
        let mut rendered = String::new();
        v.write(&mut rendered);
        let _ = writeln!(out, "  meta {k} = {rendered}");
    }
    let mut by_self: Vec<(&String, &PathStat)> = summary.spans.iter().collect();
    by_self.sort_by(|x, y| y.1.self_ns.cmp(&x.1.self_ns).then(x.0.cmp(y.0)));
    let _ = writeln!(
        out,
        "\n{:<44} {:>7} {:>10} {:>10} {:>10} {:>10}",
        "span (top by self time)", "count", "wall", "self", "allocs", "peak"
    );
    for (path, s) in by_self.iter().take(top) {
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>10} {:>10} {:>10} {:>10}",
            path,
            s.count,
            fmt_ns(s.wall_ns),
            fmt_ns(s.self_ns),
            s.alloc_count,
            fmt_bytes(s.alloc_peak)
        );
    }
    if !summary.lanes.is_empty() && summary.duration_ns > 0 {
        let _ = writeln!(out, "\nlanes (busy = Σ self time on lane):");
        for l in &summary.lanes {
            let util = l.busy_ns as f64 / summary.duration_ns as f64 * 100.0;
            let _ = writeln!(
                out,
                "  lane {:>3}: busy {:>10}  utilisation {:>5.1}%",
                l.tid,
                fmt_ns(l.busy_ns),
                util
            );
        }
    }
    out
}

/// Render the diff table (`mcs obs diff`). Breaching rows are marked
/// `BREACH`; rows present on one side only are marked `only`.
pub fn diff_text(report: &DiffReport, budget: &Budget) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let metric = if budget.normalise {
        "share of total self time"
    } else {
        "raw wall time"
    };
    let _ = writeln!(
        out,
        "diff metric: {metric} (floor {} ms; a breach needs a move of {})",
        budget.min_wall_ms,
        fmt_ns(report.move_floor_ns)
    );
    let _ = writeln!(
        out,
        "{:<44} {:>10} {:>10} {:>9} {:>8}  verdict",
        "span", "base", "cand", "delta", "budget"
    );
    for r in &report.rows {
        let base = r.wall_a.map(fmt_ns).unwrap_or_else(|| "-".into());
        let cand = r.wall_b.map(fmt_ns).unwrap_or_else(|| "-".into());
        let delta = r
            .delta_pct
            .map(|d| format!("{d:+.1}%"))
            .unwrap_or_else(|| "-".into());
        let verdict = if r.breach {
            "BREACH"
        } else if r.delta_pct.is_none() {
            "only"
        } else {
            "ok"
        };
        let _ = writeln!(
            out,
            "{:<44} {:>10} {:>10} {:>9} {:>7.1}%  {}",
            r.path, base, cand, delta, r.budget_pct, verdict
        );
    }
    let _ = writeln!(
        out,
        "\n{} breach(es) across {} compared span(s)",
        report.breaches,
        report.rows.len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> ParsedTrace {
        // suite [0..100ms] with children a [0..60ms] and b [70..90ms] on
        // lane 0; worker span on lane 1 [10..50ms].
        let ms = |m: u64| m * 1_000_000;
        ParsedTrace {
            meta: vec![("cmd".into(), Value::Str("unit".into()))],
            spans: vec![
                SpanRec {
                    path: "suite/a".into(),
                    tid: 0,
                    t0_ns: ms(0),
                    t1_ns: ms(60),
                    counters: vec![("items".into(), 4)],
                    alloc: Some(AllocDelta {
                        count: 10,
                        bytes: 4096,
                        peak: 2048,
                    }),
                },
                SpanRec {
                    path: "suite/b".into(),
                    tid: 0,
                    t0_ns: ms(70),
                    t1_ns: ms(90),
                    counters: vec![],
                    alloc: None,
                },
                SpanRec {
                    path: "suite".into(),
                    tid: 0,
                    t0_ns: ms(0),
                    t1_ns: ms(100),
                    counters: vec![],
                    alloc: None,
                },
                SpanRec {
                    path: "sched/w".into(),
                    tid: 1,
                    t0_ns: ms(10),
                    t1_ns: ms(50),
                    counters: vec![],
                    alloc: None,
                },
            ],
            instants: vec![InstantRec {
                name: "sched.queue_depth".into(),
                tid: 1,
                t_ns: ms(10),
                value: 3,
            }],
        }
    }

    #[test]
    fn roundtrips_through_jsonl() {
        let trace = sample_trace();
        let data = crate::trace::TraceData {
            events: trace
                .spans
                .iter()
                .map(|s| {
                    crate::trace::TraceEvent::Span(crate::trace::SpanEvent {
                        path: s.path.clone(),
                        tid: s.tid,
                        t0_ns: s.t0_ns,
                        t1_ns: s.t1_ns,
                        counters: s.counters.clone(),
                        alloc: s.alloc,
                    })
                })
                .chain(trace.instants.iter().map(|i| {
                    crate::trace::TraceEvent::Instant(crate::trace::InstantEvent {
                        name: i.name.clone(),
                        tid: i.tid,
                        t_ns: i.t_ns,
                        value: i.value,
                    })
                }))
                .collect(),
        };
        let jsonl = data.write_jsonl(&[("cmd", Value::Str("unit".into()))]);
        let parsed = parse_trace(&jsonl).unwrap();
        assert_eq!(parsed.spans.len(), 4);
        assert_eq!(parsed.instants.len(), 1);
        assert_eq!(parsed.spans[0].counters, vec![("items".to_string(), 4)]);
        assert_eq!(
            parsed.spans[0].alloc,
            Some(AllocDelta {
                count: 10,
                bytes: 4096,
                peak: 2048
            })
        );
        // meta keeps the writer's "version" stamp plus caller fields.
        assert!(parsed.meta.iter().any(|(k, _)| k == "version"));
        assert!(parsed.meta.iter().any(|(k, _)| k == "cmd"));
    }

    #[test]
    fn summary_self_time_and_lanes() {
        let s = summarize(&sample_trace());
        assert_eq!(s.duration_ns, 100_000_000);
        let suite = &s.spans["suite"];
        assert_eq!(suite.wall_ns, 100_000_000);
        // self = 100ms − (60ms + 20ms children)
        assert_eq!(suite.self_ns, 20_000_000);
        assert_eq!(s.spans["suite/a"].self_ns, 60_000_000);
        assert_eq!(s.spans["suite/a"].alloc_peak, 2048);
        // lane 0 busy: 20 + 60 + 20; lane 1: 40 (sched has no parent span)
        assert_eq!(s.lanes.len(), 2);
        assert_eq!(s.lanes[0].busy_ns, 100_000_000);
        assert_eq!(s.lanes[1].busy_ns, 40_000_000);
    }

    #[test]
    fn cross_lane_path_children_do_not_erode_parent_self() {
        let mut t = sample_trace();
        // A path-child on another lane, longer than the parent. Nesting
        // is temporal and lane-local, so the parent keeps its own self
        // time and the other lane's busy is the union of its intervals.
        t.spans.push(SpanRec {
            path: "suite/big".into(),
            tid: 1,
            t0_ns: 0,
            t1_ns: 500_000_000,
            counters: vec![],
            alloc: None,
        });
        let s = summarize(&t);
        assert_eq!(s.spans["suite"].self_ns, 20_000_000);
        // sched/w [10..50ms] nests temporally inside big [0..500ms].
        assert_eq!(s.spans["suite/big"].self_ns, 460_000_000);
        assert_eq!(s.lanes[1].busy_ns, 500_000_000);
    }

    #[test]
    fn temporally_nested_spans_on_one_lane_split_self_time() {
        // The scheduler-wrapper case: `sched/t` and the path-unrelated
        // task root `t` cover the same interval on one lane. Path-based
        // subtraction would double-count and push lane utilisation past
        // 100%; temporal nesting splits the wall time exactly once.
        let ms = |m: u64| m * 1_000_000;
        let span = |path: &str, a: u64, b: u64| SpanRec {
            path: path.into(),
            tid: 0,
            t0_ns: ms(a),
            t1_ns: ms(b),
            counters: vec![],
            alloc: None,
        };
        let t = ParsedTrace {
            meta: vec![],
            spans: vec![
                span("sched/t", 0, 100),
                span("t", 5, 95),
                span("t/inner", 10, 40),
            ],
            instants: vec![],
        };
        let s = summarize(&t);
        assert_eq!(s.spans["sched/t"].self_ns, ms(10));
        assert_eq!(s.spans["t"].self_ns, ms(60));
        assert_eq!(s.spans["t/inner"].self_ns, ms(30));
        assert_eq!(s.lanes.len(), 1);
        assert_eq!(
            s.lanes[0].busy_ns,
            ms(100),
            "busy = interval union, ≤ duration"
        );
        assert_eq!(s.total_self_ns(), ms(100));
    }

    #[test]
    fn folded_stacks_use_semicolons_and_self_time() {
        let out = folded_stacks(&sample_trace());
        assert!(out.contains("suite;a 60000"), "{out}");
        assert!(out.contains("suite 20000"), "{out}");
        assert!(out.contains("sched;w 40000"), "{out}");
    }

    #[test]
    fn chrome_trace_is_parseable_with_events() {
        let out = chrome_trace(&sample_trace());
        let v = json::parse(&out).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 5);
        let x = &events[0];
        assert_eq!(x.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(x.get("name").unwrap().as_str(), Some("suite/a"));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(60_000.0));
        let c = &events[4];
        assert_eq!(c.get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(
            c.get("args").unwrap().get("value").unwrap().as_i64(),
            Some(3)
        );
    }

    #[test]
    fn summary_json_roundtrip() {
        let s = summarize(&sample_trace());
        let text = s.to_json();
        let back = TraceSummary::from_json(&text).unwrap();
        assert_eq!(back.duration_ns, s.duration_ns);
        assert_eq!(back.spans, s.spans);
        assert_eq!(back.lanes, s.lanes);
    }

    #[test]
    fn diff_identical_summaries_is_clean() {
        let s = summarize(&sample_trace());
        let report = diff(&s, &s, &Budget::default());
        assert_eq!(report.breaches, 0);
        assert!(report.rows.iter().all(|r| !r.breach));
        assert_eq!(
            report
                .rows
                .iter()
                .filter(|r| r.delta_pct == Some(0.0))
                .count(),
            report.rows.len()
        );
    }

    #[test]
    fn diff_flags_regression_beyond_budget() {
        let a = summarize(&sample_trace());
        let mut b = a.clone();
        // Triple suite/a's share.
        b.spans.get_mut("suite/a").unwrap().wall_ns *= 3;
        b.spans.get_mut("suite/a").unwrap().self_ns *= 3;
        let report = diff(&a, &b, &Budget::default());
        assert!(report.breaches >= 1);
        let row = report.rows.iter().find(|r| r.path == "suite/a").unwrap();
        assert!(row.breach, "{row:?}");
    }

    #[test]
    fn diff_sub_floor_absolute_moves_never_breach() {
        // A short span can halve or triple under scheduler noise; as long
        // as the absolute move stays under the floor it must not breach.
        let raw = Budget {
            normalise: false,
            ..Budget::default()
        };
        let mut a = TraceSummary::default();
        let mut b = TraceSummary::default();
        for (sum, wall) in [(&mut a, 6_000_000u64), (&mut b, 2_000_000)] {
            sum.spans.insert(
                "suite/tiny".into(),
                PathStat {
                    count: 1,
                    wall_ns: wall,
                    self_ns: wall,
                    ..PathStat::default()
                },
            );
        }
        let report = diff(&a, &b, &raw);
        let row = &report.rows[0];
        assert_eq!(row.delta_pct.map(f64::round), Some(-67.0));
        assert!(!row.breach, "{row:?}");
        // The same relative swing above the floor still breaches.
        b.spans.get_mut("suite/tiny").unwrap().wall_ns = 20_000_000;
        assert_eq!(diff(&a, &b, &raw).breaches, 1);
    }

    /// A summary of flat spans whose self time is their wall time, ms.
    fn flat(spans: &[(&str, f64)]) -> TraceSummary {
        let mut sum = TraceSummary::default();
        for &(path, ms) in spans {
            let ns = (ms * 1e6) as u64;
            sum.spans.insert(
                path.into(),
                PathStat {
                    count: 1,
                    wall_ns: ns,
                    self_ns: ns,
                    ..PathStat::default()
                },
            );
        }
        sum
    }

    #[test]
    fn diff_near_floor_span_that_halves_in_a_long_run_does_not_breach() {
        // Two identical-config runs: a span just above the 5 ms floor
        // halves (its share falls by over half) while the rest of the
        // ~200 ms run holds still.
        let a = flat(&[("fig8/gen.random", 9.6), ("fig8/measure", 190.0)]);
        let b = flat(&[("fig8/gen.random", 4.1), ("fig8/measure", 190.0)]);
        let budget = Budget::default();
        let report = diff(&a, &b, &budget);
        let row = report
            .rows
            .iter()
            .find(|r| r.path == "fig8/gen.random")
            .unwrap();
        assert!(row.delta_pct.unwrap() < -50.0, "{row:?}");
        // It moved by more than the fixed floor, but by under a tenth of
        // the run.
        let moved_ns = row.wall_a.unwrap() - row.wall_b.unwrap();
        assert!(moved_ns > (budget.min_wall_ms * 1e6) as u64, "{row:?}");
        assert_eq!(
            report.move_floor_ns,
            (199.6 * 1e6 * MOVE_FLOOR_SHARE) as u64
        );
        assert!(moved_ns < report.move_floor_ns, "{report:?}");
        assert!(!row.breach, "{row:?}");
        assert_eq!(report.breaches, 0);
    }

    #[test]
    fn diff_of_a_long_run_keeps_the_capped_floor() {
        // A 15 s suite under CI's budget: the run-scaled floor stops at
        // its cap, so CI's 20 ms floor is what a span has to move by.
        let ci = Budget {
            min_wall_ms: 20.0,
            ..Budget::default()
        };
        let a = flat(&[
            ("storm/run", 1200.0),
            ("sched/churn", 75.0),
            ("rest", 13725.0),
        ]);
        let report = diff(&a, &a, &ci);
        assert_eq!(report.move_floor_ns, (MOVE_FLOOR_CAP_MS * 1e6) as u64);
        assert_eq!(report.breaches, 0);
        // A span of 8% of the run moving 30% still breaches...
        let b = flat(&[
            ("storm/run", 1560.0),
            ("sched/churn", 75.0),
            ("rest", 13725.0),
        ]);
        let report = diff(&a, &b, &ci);
        let row = report.rows.iter().find(|r| r.path == "storm/run").unwrap();
        assert!(row.breach, "{row:?}");
        assert_eq!(report.breaches, 1, "{report:?}");
        // ...and so does a 75 ms span that doubles.
        let c = flat(&[
            ("storm/run", 1200.0),
            ("sched/churn", 150.0),
            ("rest", 13725.0),
        ]);
        let report = diff(&a, &c, &ci);
        let row = report
            .rows
            .iter()
            .find(|r| r.path == "sched/churn")
            .unwrap();
        assert!(row.breach, "{row:?}");
        assert_eq!(report.breaches, 1, "{report:?}");
    }

    #[test]
    fn diff_large_span_moving_30_percent_still_breaches() {
        // Half the run grows by 30%: past the run-scaled floor, while the
        // other half holds still.
        let raw = Budget {
            normalise: false,
            ..Budget::default()
        };
        let a = flat(&[("fig8/measure", 100.0), ("fig8/rest", 100.0)]);
        let b = flat(&[("fig8/measure", 130.0), ("fig8/rest", 100.0)]);
        let report = diff(&a, &b, &raw);
        assert_eq!(report.breaches, 1, "{report:?}");
        let row = report.rows.iter().find(|r| r.breach).unwrap();
        assert_eq!(row.path, "fig8/measure");
        assert_eq!(row.delta_pct.map(f64::round), Some(30.0));
    }

    #[test]
    fn diff_normalised_is_scale_invariant() {
        let a = summarize(&sample_trace());
        let mut b = a.clone();
        // Uniformly 2× slower hardware: all shares unchanged.
        for s in b.spans.values_mut() {
            s.wall_ns *= 2;
            s.self_ns *= 2;
        }
        b.duration_ns *= 2;
        let report = diff(&a, &b, &Budget::default());
        assert_eq!(report.breaches, 0, "{report:?}");
        // Raw mode must flag the same change.
        let raw = Budget {
            normalise: false,
            ..Budget::default()
        };
        assert!(diff(&a, &b, &raw).breaches > 0);
    }

    #[test]
    fn diff_new_and_vanished_paths_never_breach() {
        let a = summarize(&sample_trace());
        let mut b = a.clone();
        b.spans.remove("suite/b");
        b.spans.insert(
            "suite/new".into(),
            PathStat {
                count: 1,
                wall_ns: 50_000_000,
                self_ns: 50_000_000,
                ..PathStat::default()
            },
        );
        let report = diff(&a, &b, &Budget::default());
        let gone = report.rows.iter().find(|r| r.path == "suite/b").unwrap();
        let new = report.rows.iter().find(|r| r.path == "suite/new").unwrap();
        assert!(!gone.breach && gone.wall_b.is_none());
        assert!(!new.breach && new.wall_a.is_none());
    }

    #[test]
    fn budget_parses_overrides_and_floor() {
        let b = Budget::from_json(
            r#"{"default_wall_pct": 10.0, "normalise": false,
                "min_wall_ms": 1.5, "spans": {"suite": 40.0}}"#,
        )
        .unwrap();
        assert_eq!(b.default_wall_pct, 10.0);
        assert!(!b.normalise);
        assert_eq!(b.min_wall_ms, 1.5);
        assert_eq!(b.spans["suite"], 40.0);
        // Floor: a 0.1 ms span is skipped entirely.
        let mut a = TraceSummary::default();
        a.spans.insert(
            "tiny".into(),
            PathStat {
                count: 1,
                wall_ns: 100_000,
                self_ns: 100_000,
                ..PathStat::default()
            },
        );
        let report = diff(&a, &a, &b);
        assert!(report.rows.is_empty());
    }

    #[test]
    fn report_and_diff_texts_render() {
        let s = summarize(&sample_trace());
        let text = report_text(&s, 10);
        assert!(text.contains("suite/a"));
        assert!(text.contains("utilisation"));
        assert!(text.contains("meta cmd = \"unit\""));
        let d = diff(&s, &s, &Budget::default());
        let dt = diff_text(&d, &Budget::default());
        assert!(dt.contains("0 breach(es)"), "{dt}");
    }

    #[test]
    fn parse_rejects_malformed_lines_but_skips_unknown_kinds() {
        assert!(parse_trace("{\"ev\":\"future-kind\",\"x\":1}\n").is_ok());
        assert!(parse_trace("{\"ev\":\"span\"}\n").is_err());
        assert!(parse_trace("not json\n").is_err());
    }
}
