//! The `mcs serve` measurement backend: glue between the `mcast-serve`
//! daemon (protocol, admission, quotas, single-flight) and this crate's
//! scheduler + cache stack.
//!
//! The daemon's router hands a fully parsed [`MeasureSpec`] to
//! [`ServeBackend`], which resolves it *exactly* like the one-shot
//! `mcs measure` path does — largest component, `log_grid((n/2).max(2), 4)`
//! default grid — and then calls the fault-isolating curve drivers in
//! [`crate::runner`]. Those drivers are already cache-aware: when an
//! MCSO store is bound (`mcs serve --cache-dir`), a warm key is served
//! from disk and a cold one is measured, checkpointed per group and
//! published. The backend's own contributions are:
//!
//! * **Keys.** [`Backend::query_key`] is [`crate::runner::curve_key`] over the
//!   resolved component graph and grid — byte-for-byte the key the
//!   cache and checkpoints use, so the daemon's single-flight table,
//!   its `X-Cache` accounting and the on-disk store can never disagree
//!   about query identity.
//! * **Canonical bodies.** Response bodies are rendered from the curve
//!   alone (never from cache state or timing), so identical queries
//!   produce byte-identical bodies whether measured, disk-cached or
//!   coalesced.
//! * **Per-request run-meta sidecars.** A one-shot `mcs` run writes a
//!   single `<cache>/run-meta.json` at exit; a daemon serves many
//!   overlapping runs from one process, so each request instead gets
//!   its own `<cache>/run-meta/req-<id>.json` (atomic rename, unique
//!   id) and concurrent requests never race on a shared sidecar.

use crate::config::{RunConfig, Scale};
use crate::runner::{curve_key, log_grid, try_parallel_lhat_curve, try_parallel_ratio_curve};
use mcast_obs::json::{write_f64, write_str};
use mcast_serve::router::{
    Backend, BackendError, GroupFailureInfo, MeasureOutput, MeasureSpec, QueryKind,
};
use mcast_topology::components::largest_component;
use mcast_topology::Graph;
use mcast_tree::measure::{CurvePoint, MeasureConfig, SampleKind};
use std::fmt::Write as _;
use std::time::Instant;

/// [`Backend`] implementation backed by the workspace scheduler and the
/// (optionally bound) MCSO disk cache.
pub struct ServeBackend {
    /// Worker threads per measurement (0 = all cores); the server-wide
    /// `--threads` setting. Not part of any cache key.
    pub threads: usize,
}

impl ServeBackend {
    /// A backend using `threads` workers per measurement (0 = all cores).
    pub fn new(threads: usize) -> Self {
        Self { threads }
    }
}

/// A spec resolved to the things the scheduler actually consumes.
struct Resolved {
    /// Largest component of the registered topology, dense ids.
    graph: Graph,
    /// The group-size grid (explicit `xs` or the `mcs measure` default).
    xs: Vec<usize>,
    /// Sample counts + seed.
    mcfg: MeasureConfig,
    /// Scheduler sample kind for the query's curve family.
    kind: SampleKind,
}

fn resolve(spec: &MeasureSpec) -> Resolved {
    let graph = largest_component(&spec.topology.graph).graph;
    let xs = match &spec.xs {
        Some(xs) => xs.clone(),
        None => log_grid((graph.node_count() / 2).max(2), 4),
    };
    Resolved {
        graph,
        xs,
        mcfg: MeasureConfig {
            sources: spec.sources,
            receiver_sets: spec.receiver_sets,
            seed: spec.seed,
        },
        kind: match spec.kind {
            QueryKind::Ratio => SampleKind::Ratio,
            QueryKind::Lhat => SampleKind::NormalizedTree,
        },
    }
}

fn invalid(message: String) -> BackendError {
    BackendError {
        message,
        code: "invalid_query",
        status: 400,
        completed: 0,
        groups: Vec::new(),
    }
}

/// Render the canonical response body. Depends only on the query and
/// its (deterministic) curve — never on cache state, timing or ids —
/// so identical queries always produce byte-identical bodies.
fn render_body(spec: &MeasureSpec, r: &Resolved, points: &[CurvePoint]) -> Vec<u8> {
    let mut s = String::with_capacity(256 + points.len() * 64);
    s.push_str("{\"kind\":");
    write_str(&mut s, spec.kind.name());
    s.push_str(",\"topology\":");
    write_str(&mut s, &spec.topology.id);
    let _ = write!(
        s,
        ",\"nodes\":{},\"links\":{},\"seed\":{},\"sources\":{},\"receiver_sets\":{},\"points\":[",
        r.graph.node_count(),
        r.graph.edge_count(),
        spec.seed,
        spec.sources,
        spec.receiver_sets
    );
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{{\"m\":{},\"count\":{},\"mean\":", p.x, p.stats.count());
        write_f64(&mut s, p.stats.mean());
        s.push_str(",\"std_err\":");
        write_f64(&mut s, p.stats.std_err());
        s.push('}');
    }
    s.push_str("]}\n");
    s.into_bytes()
}

/// Write this request's own run-meta sidecar (satellite of the one-shot
/// `<cache>/run-meta.json`): `<cache>/run-meta/req-<id>.json`, atomic,
/// keyed by the server-unique request id so overlapping requests never
/// contend. No-op when the daemon runs cache-less.
fn write_request_meta(
    spec: &MeasureSpec,
    r: &Resolved,
    status: &str,
    cache_hit: bool,
    duration_ms: u64,
) {
    let Some(handle) = mcast_store::active() else {
        return;
    };
    let dir = handle.cache.root().join("run-meta");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        mcast_obs::warn!("serve", "run-meta dir unavailable: {e}");
        return;
    }
    let mut s = String::from("{\"version\":1,\"mode\":\"serve\"");
    let _ = write!(s, ",\"request_id\":{}", spec.request_id);
    s.push_str(",\"topology\":");
    write_str(&mut s, &spec.topology.id);
    s.push_str(",\"kind\":");
    write_str(&mut s, spec.kind.name());
    let _ = write!(
        s,
        ",\"seed\":{},\"sources\":{},\"receiver_sets\":{},\"points\":{},\"threads\":{}",
        spec.seed,
        spec.sources,
        spec.receiver_sets,
        r.xs.len(),
        spec.threads
    );
    s.push_str(",\"status\":");
    write_str(&mut s, status);
    let _ = writeln!(
        s,
        ",\"cache_hit\":{cache_hit},\"duration_ms\":{duration_ms}}}"
    );
    let path = dir.join(format!("req-{:08}.json", spec.request_id));
    if let Err(e) = mcast_store::write_atomic_str(&path, &s) {
        mcast_obs::warn!("serve", "run-meta write failed: {e}");
    }
}

impl Backend for ServeBackend {
    fn query_key(&self, spec: &MeasureSpec) -> String {
        let r = resolve(spec);
        curve_key(&r.graph, &r.xs, &r.mcfg, r.kind).hex()
    }

    fn measure(
        &self,
        spec: &MeasureSpec,
        progress: &mut dyn FnMut(String),
    ) -> Result<MeasureOutput, BackendError> {
        let started = Instant::now();
        let r = resolve(spec);
        let n = r.graph.node_count();
        if n < 2 {
            let err = invalid(format!(
                "largest component of topology {} has {} node(s); nothing to measure",
                spec.topology.id, n
            ));
            write_request_meta(spec, &r, err.code, false, 0);
            return Err(err);
        }
        if spec.sources == 0 || spec.receiver_sets == 0 {
            let err = invalid("sources and receiver_sets must be >= 1".to_string());
            write_request_meta(spec, &r, err.code, false, 0);
            return Err(err);
        }
        if let Some(&bad) = r.xs.iter().find(|&&m| m == 0 || m > n) {
            let err = invalid(format!(
                "group size {bad} is outside 1..={n} (component size)"
            ));
            write_request_meta(spec, &r, err.code, false, 0);
            return Err(err);
        }

        // Hit = the bound store already holds this exact key; the curve
        // drivers below will then serve it from disk without measuring.
        let cache_hit = match mcast_store::active() {
            Some(handle) => handle
                .cache
                .contains(&curve_key(&r.graph, &r.xs, &r.mcfg, r.kind)),
            None => false,
        };
        progress(format!(
            "{{\"ev\":\"measure.plan\",\"points\":{},\"sources\":{},\"receiver_sets\":{},\"nodes\":{},\"cache_hit\":{}}}",
            r.xs.len(),
            spec.sources,
            spec.receiver_sets,
            n,
            cache_hit
        ));

        let cfg = RunConfig {
            scale: Scale::Fast, // irrelevant: sample counts come from `mcfg`
            seed: spec.seed,
            threads: spec.threads,
        };
        let result = match r.kind {
            SampleKind::Ratio => try_parallel_ratio_curve(&r.graph, &r.xs, &r.mcfg, &cfg),
            SampleKind::NormalizedTree => try_parallel_lhat_curve(&r.graph, &r.xs, &r.mcfg, &cfg),
        };
        let duration_ms = started.elapsed().as_millis() as u64;
        match result {
            Ok(points) => {
                // Same guard as `mcs measure`: a degenerate curve (all
                // samples skipped) is an error, not a NaN payload.
                if points
                    .iter()
                    .any(|p| p.stats.count() == 0 || !p.stats.mean().is_finite())
                {
                    write_request_meta(spec, &r, "degenerate_curve", cache_hit, duration_ms);
                    return Err(BackendError {
                        message: format!(
                            "topology {} produced a degenerate curve (unreachable receivers)",
                            spec.topology.id
                        ),
                        code: "degenerate_curve",
                        status: 500,
                        completed: 0,
                        groups: Vec::new(),
                    });
                }
                progress(format!(
                    "{{\"ev\":\"measure.done\",\"cache_hit\":{cache_hit},\"duration_ms\":{duration_ms}}}"
                ));
                write_request_meta(spec, &r, "ok", cache_hit, duration_ms);
                Ok(MeasureOutput {
                    body: render_body(spec, &r, &points),
                    cache_hit,
                })
            }
            Err(e) => {
                // Exit-2 partial-failure semantics, mapped onto the wire:
                // survivors were measured and checkpointed, each failed
                // group is named. A bound store makes the retry cheap.
                write_request_meta(spec, &r, "partial_failure", cache_hit, duration_ms);
                Err(BackendError {
                    message: e.to_string(),
                    code: "partial_failure",
                    status: 500,
                    completed: e.completed,
                    groups: e
                        .failures
                        .iter()
                        .map(|f| GroupFailureInfo {
                            group_index: f.group_index,
                            source: f.source as usize,
                            message: f.payload.clone(),
                        })
                        .collect(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_serve::registry::TopologyRegistry;

    fn spec_for(text: &str, xs: Option<Vec<usize>>) -> MeasureSpec {
        let registry = TopologyRegistry::new(None).unwrap();
        let (entry, _) = registry.register("edge-list", text.as_bytes()).unwrap();
        MeasureSpec {
            topology: entry,
            kind: QueryKind::Ratio,
            seed: 7,
            sources: 4,
            receiver_sets: 3,
            xs,
            threads: 1,
            request_id: 1,
        }
    }

    #[test]
    fn key_is_stable_and_thread_independent() {
        let b1 = ServeBackend::new(1);
        let b8 = ServeBackend::new(8);
        let spec = spec_for("0 1\n1 2\n2 3\n3 0\n", None);
        let k = b1.query_key(&spec);
        assert_eq!(k, b1.query_key(&spec));
        assert_eq!(k, b8.query_key(&spec));
        let other = spec_for("0 1\n1 2\n2 3\n3 0\n0 2\n", None);
        assert_ne!(k, b1.query_key(&other));
    }

    #[test]
    fn measure_yields_canonical_deterministic_body() {
        // measure() consults the process-global cache when one is
        // active; serialize with the tests that configure it.
        let _guard = crate::runner::tests::cache_test_lock();
        let b = ServeBackend::new(1);
        let spec = spec_for("0 1\n1 2\n2 3\n3 0\n0 2\n2 4\n", Some(vec![1, 2, 3]));
        let mut lines = Vec::new();
        let out = b.measure(&spec, &mut |l| lines.push(l)).unwrap();
        let out2 = b.measure(&spec, &mut |_| {}).unwrap();
        assert_eq!(out.body, out2.body, "bodies must be byte-identical");
        assert!(out.body.ends_with(b"]}\n"));
        let v = mcast_obs::json::parse(std::str::from_utf8(&out.body).unwrap()).unwrap();
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("ratio"));
        assert_eq!(
            v.get("points").and_then(|p| p.as_arr()).map(|a| a.len()),
            Some(3)
        );
        assert!(lines.iter().any(|l| l.contains("measure.plan")));
        assert!(lines.iter().any(|l| l.contains("measure.done")));
    }

    #[test]
    fn oversized_group_and_tiny_component_are_invalid_queries() {
        let b = ServeBackend::new(1);
        let spec = spec_for("0 1\n1 2\n", Some(vec![50]));
        let err = b.measure(&spec, &mut |_| {}).unwrap_err();
        assert_eq!(err.code, "invalid_query");
        assert_eq!(err.status, 400);
    }
}
