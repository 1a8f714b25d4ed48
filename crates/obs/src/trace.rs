//! The timed trace recorder: a sidecar event stream layered on the RAII
//! span tree.
//!
//! Where [`mod@crate::span`] aggregates (per-path count/total/min/max), the
//! trace records **occurrences**: every traced span close emits one
//! event carrying monotonic start/end timestamps, the recording
//! thread's lane id, the counter deltas attributed to the span, and —
//! when the counting allocator is engaged — allocation deltas. Drivers
//! add [`instant`] events for point-in-time signals (scheduler queue
//! depth, retries).
//!
//! Recording is strictly sidecar: nothing here touches experiment state
//! or report artifacts, and the whole module is gated on one relaxed
//! atomic ([`active`]) that is off unless a recorder was started.
//!
//! ## Attribution model
//!
//! Each thread keeps a stack of open *frames*, one per live traced span
//! on that thread. A counter bumped while tracing attributes its delta
//! to the **innermost open frame on the bumping thread** (exclusive
//! attribution: parents do not aggregate their children's deltas, and a
//! bump on a thread with no open span is dropped from the trace — the
//! aggregate registry still sees it). Allocation deltas follow the same
//! model via the thread-local stats of [`crate::alloc`]; the per-span
//! peak uses a watermark save/restore so nested spans see only their
//! own net growth.
//!
//! ## Lossiness
//!
//! Like the span collector, the trace is lossy by design during thread
//! teardown or unwinding: if the thread-local frame stack is
//! unavailable, the span event is still emitted with whatever
//! attribution could be recovered (possibly none). A panicking scope's
//! spans therefore always *close* in the trace — pinned by tests here
//! and by the scheduler fault drill.

use crate::json;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Whether a trace recorder is currently collecting. One relaxed load;
/// instrumentation blocks that allocate or lock should gate on it.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Process-wide monotonic epoch: all trace timestamps are nanoseconds
/// since the first recorder start in this process.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the trace epoch (saturating).
fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Allocation deltas attributed to one span occurrence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocDelta {
    /// Allocations (allocs + reallocs) during the span, on its thread.
    pub count: u64,
    /// Total bytes requested during the span, on its thread.
    pub bytes: u64,
    /// Peak net growth of live bytes above the level at span entry.
    pub peak: u64,
}

/// One completed span occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    /// Full `/`-separated span path.
    pub path: String,
    /// Recording thread's lane id (stable per thread, dense from 0).
    pub tid: u32,
    /// Start, nanoseconds since the trace epoch.
    pub t0_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub t1_ns: u64,
    /// Counter deltas attributed to this occurrence (sorted by name).
    pub counters: Vec<(String, u64)>,
    /// Allocation deltas, when the counting allocator was engaged.
    pub alloc: Option<AllocDelta>,
}

/// A point-in-time signal (queue depth, retry, …).
#[derive(Clone, Debug, PartialEq)]
pub struct InstantEvent {
    /// Signal name.
    pub name: String,
    /// Recording thread's lane id.
    pub tid: u32,
    /// Timestamp, nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Signal value.
    pub value: i64,
}

/// One recorded trace event.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A completed span occurrence.
    Span(SpanEvent),
    /// A point-in-time signal.
    Instant(InstantEvent),
}

/// Everything a stopped recorder collected.
#[derive(Clone, Debug, Default)]
pub struct TraceData {
    /// Events in completion order (spans appear when they close).
    pub events: Vec<TraceEvent>,
}

struct Recorder {
    events: Vec<TraceEvent>,
}

fn recorder() -> &'static Mutex<Option<Recorder>> {
    static RECORDER: OnceLock<Mutex<Option<Recorder>>> = OnceLock::new();
    RECORDER.get_or_init(|| Mutex::new(None))
}

thread_local! {
    /// Dense per-thread lane id, assigned on first trace activity.
    static LANE: Cell<u32> = const { Cell::new(u32::MAX) };
    /// Stack of open frames for counter/alloc attribution.
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// The calling thread's trace lane id (dense from 0, stable for the
/// thread's lifetime).
pub fn lane() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    LANE.with(|l| {
        let v = l.get();
        if v != u32::MAX {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed);
        l.set(v);
        v
    })
}

struct Frame {
    counters: BTreeMap<&'static str, u64>,
    alloc: Option<crate::alloc::FrameBase>,
}

/// Start a new recorder. Subsequent span closes and [`instant`] calls
/// are collected until [`stop`]. Restarting an active recorder discards
/// the earlier events.
pub fn start() {
    epoch(); // pin the epoch before any timestamp is taken
    let mut rec = recorder().lock().unwrap_or_else(|e| e.into_inner());
    *rec = Some(Recorder { events: Vec::new() });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Stop recording and return everything collected, or `None` if no
/// recorder was active.
pub fn stop() -> Option<TraceData> {
    ACTIVE.store(false, Ordering::Relaxed);
    let mut rec = recorder().lock().unwrap_or_else(|e| e.into_inner());
    rec.take().map(|r| TraceData { events: r.events })
}

fn push_event(ev: TraceEvent) {
    let mut rec = recorder().lock().unwrap_or_else(|e| e.into_inner());
    if let Some(r) = rec.as_mut() {
        r.events.push(ev);
    }
}

/// Open an attribution frame for a traced span; returns the start
/// timestamp. Called by [`crate::span::SpanGuard`] when tracing is
/// active.
pub(crate) fn open_frame() -> u64 {
    let alloc = crate::alloc::frame_base();
    // Lossy like the span stack: if TLS is unavailable the span still
    // times; only attribution for it (and its children) is lost.
    let _ = FRAMES.try_with(|f| {
        if let Ok(mut f) = f.try_borrow_mut() {
            f.push(Frame {
                counters: BTreeMap::new(),
                alloc,
            });
        }
    });
    now_ns()
}

/// Close the innermost frame and emit the span event. Runs during
/// unwinding when a spanned scope panics — every fallible step is
/// `try_`, so the span always closes (worst case without attribution).
pub(crate) fn close_frame(path: &str, t0_ns: u64) {
    let t1_ns = now_ns();
    let frame = FRAMES
        .try_with(|f| f.try_borrow_mut().ok().and_then(|mut f| f.pop()))
        .ok()
        .flatten();
    let (counters, alloc) = match frame {
        Some(frame) => {
            let alloc = frame.alloc.map(crate::alloc::frame_delta);
            (
                frame
                    .counters
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
                alloc,
            )
        }
        None => (Vec::new(), None),
    };
    push_event(TraceEvent::Span(SpanEvent {
        path: path.to_string(),
        tid: lane(),
        t0_ns,
        t1_ns,
        counters,
        alloc,
    }));
}

/// Attribute a counter delta to the innermost open frame on this
/// thread. Called by [`crate::metrics::Counter::add`] while tracing.
pub(crate) fn on_counter_add(name: &'static str, n: u64) {
    let _ = FRAMES.try_with(|f| {
        if let Ok(mut f) = f.try_borrow_mut() {
            if let Some(top) = f.last_mut() {
                *top.counters.entry(name).or_insert(0) += n;
            }
        }
    });
}

/// Record a point-in-time signal (no-op unless tracing is active).
pub fn instant(name: &str, value: i64) {
    if !active() {
        return;
    }
    push_event(TraceEvent::Instant(InstantEvent {
        name: name.to_string(),
        tid: lane(),
        t_ns: now_ns(),
        value,
    }));
}

impl TraceData {
    /// Render as `trace.jsonl`: one `meta` line, then one line per
    /// event in completion order. See DESIGN §10 for the schema.
    pub fn write_jsonl(&self, meta: &[(&str, json::Value)]) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(256 + self.events.len() * 96);
        out.push_str("{\"ev\":\"meta\",\"version\":1");
        for (k, v) in meta {
            out.push(',');
            json::write_str(&mut out, k);
            out.push(':');
            v.write(&mut out);
        }
        out.push_str("}\n");
        for ev in &self.events {
            match ev {
                TraceEvent::Span(s) => {
                    out.push_str("{\"ev\":\"span\",\"path\":");
                    json::write_str(&mut out, &s.path);
                    let _ = write!(
                        out,
                        ",\"tid\":{},\"t0\":{},\"t1\":{}",
                        s.tid, s.t0_ns, s.t1_ns
                    );
                    if !s.counters.is_empty() {
                        out.push_str(",\"counters\":{");
                        for (i, (name, delta)) in s.counters.iter().enumerate() {
                            if i > 0 {
                                out.push(',');
                            }
                            json::write_str(&mut out, name);
                            let _ = write!(out, ":{delta}");
                        }
                        out.push('}');
                    }
                    if let Some(a) = s.alloc {
                        let _ = write!(
                            out,
                            ",\"alloc\":{{\"count\":{},\"bytes\":{},\"peak\":{}}}",
                            a.count, a.bytes, a.peak
                        );
                    }
                    out.push_str("}\n");
                }
                TraceEvent::Instant(i) => {
                    out.push_str("{\"ev\":\"instant\",\"name\":");
                    json::write_str(&mut out, &i.name);
                    let _ = writeln!(
                        out,
                        ",\"tid\":{},\"t\":{},\"v\":{}}}",
                        i.tid, i.t_ns, i.value
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, span_at};

    fn traced_guard() -> std::sync::MutexGuard<'static, ()> {
        let g = crate::test_lock();
        crate::set_enabled(true);
        start();
        g
    }

    fn spans(data: &TraceData) -> Vec<&SpanEvent> {
        data.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn records_span_occurrences_with_timestamps() {
        let _g = traced_guard();
        {
            let _a = span_at("test-trace-root");
            let _b = span("child");
        }
        {
            let _a = span_at("test-trace-root");
        }
        let data = stop().expect("recorder was active");
        crate::set_enabled(false);
        let spans = spans(&data);
        let roots: Vec<_> = spans
            .iter()
            .filter(|s| s.path == "test-trace-root")
            .collect();
        assert_eq!(roots.len(), 2, "one event per occurrence");
        let child = spans
            .iter()
            .find(|s| s.path == "test-trace-root/child")
            .expect("child span traced");
        assert!(child.t1_ns >= child.t0_ns);
        // The child closes before its parent.
        assert!(spans[0].path.contains("child"));
        assert_eq!(child.tid, lane());
    }

    #[test]
    fn counter_deltas_attribute_to_innermost_span() {
        let _g = traced_guard();
        let c = crate::metrics::counter("test.trace.attr");
        {
            let _outer = span_at("test-trace-outer");
            c.add(1);
            {
                let _inner = span("inner");
                c.add(10);
                c.add(20);
            }
            c.add(2);
        }
        let data = stop().unwrap();
        crate::set_enabled(false);
        let spans = spans(&data);
        let inner = spans.iter().find(|s| s.path.ends_with("/inner")).unwrap();
        let outer = spans.iter().find(|s| s.path == "test-trace-outer").unwrap();
        assert_eq!(inner.counters, vec![("test.trace.attr".to_string(), 30)]);
        assert_eq!(outer.counters, vec![("test.trace.attr".to_string(), 3)]);
    }

    #[test]
    fn spans_still_close_during_unwinding() {
        let _g = traced_guard();
        let caught = std::panic::catch_unwind(|| {
            let _outer = span_at("test-trace-unwind");
            let _inner = span("doomed");
            panic!("boom");
        });
        assert!(caught.is_err());
        let data = stop().unwrap();
        crate::set_enabled(false);
        let spans = spans(&data);
        assert!(spans.iter().any(|s| s.path == "test-trace-unwind"));
        assert!(spans.iter().any(|s| s.path == "test-trace-unwind/doomed"));
        for s in spans {
            assert!(s.t1_ns >= s.t0_ns, "{} closed with t1 < t0", s.path);
        }
    }

    #[test]
    fn instants_and_jsonl_shape() {
        let _g = traced_guard();
        {
            let _s = span_at("test-trace-jsonl");
            instant("test.queue_depth", 7);
        }
        let data = stop().unwrap();
        crate::set_enabled(false);
        let text = data.write_jsonl(&[("cmd", json::Value::Str("unit".into()))]);
        let mut lines = text.lines();
        let meta = json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(meta.get("ev").unwrap().as_str(), Some("meta"));
        assert_eq!(meta.get("cmd").unwrap().as_str(), Some("unit"));
        let mut saw_span = false;
        let mut saw_instant = false;
        for line in lines {
            let v = json::parse(line).expect("every line parses");
            match v.get("ev").unwrap().as_str().unwrap() {
                "span" => {
                    if v.get("path").unwrap().as_str() == Some("test-trace-jsonl") {
                        saw_span = true;
                        assert!(v.get("t1").unwrap().as_u64() >= v.get("t0").unwrap().as_u64());
                    }
                }
                "instant" => {
                    if v.get("name").unwrap().as_str() == Some("test.queue_depth") {
                        saw_instant = true;
                        assert_eq!(v.get("v").unwrap().as_i64(), Some(7));
                    }
                }
                other => panic!("unknown event kind {other}"),
            }
        }
        assert!(saw_span && saw_instant, "{text}");
    }

    #[test]
    fn inactive_trace_records_nothing() {
        let _g = crate::test_lock();
        crate::set_enabled(true);
        assert!(!active());
        {
            let _s = span_at("test-trace-inactive");
            instant("test.trace.noop", 1);
        }
        crate::set_enabled(false);
        assert!(stop().is_none());
    }

    #[test]
    fn restart_discards_previous_events() {
        let _g = traced_guard();
        {
            let _s = span_at("test-trace-first");
        }
        start();
        {
            let _s = span_at("test-trace-second");
        }
        let data = stop().unwrap();
        crate::set_enabled(false);
        let spans = spans(&data);
        assert!(spans.iter().all(|s| s.path != "test-trace-first"));
        assert!(spans.iter().any(|s| s.path == "test-trace-second"));
    }
}
