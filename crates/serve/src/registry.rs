//! Content-addressed topology registry + single-flight coalescing.
//!
//! **Registry.** Uploaded topologies (edge-list or MCTB bodies) are
//! validated through the store's decode path — which re-runs every CSR
//! invariant via `try_from_csr` — then held in memory under a
//! content-addressed id: the first 16 hex digits of the SHA-256 of the
//! canonical MCTB encoding. Re-uploading the same graph (in either
//! format) is idempotent and returns the same id. With a persist
//! directory configured, each topology is also written as
//! `<dir>/<id>.mct` and reloaded on boot, so a daemon restart keeps its
//! catalogue.
//!
//! **Single-flight.** Identical measurement queries arriving
//! concurrently must cost one scheduler execution. [`Flights`] keys
//! in-flight work by the request's cache key; the first caller becomes
//! the *leader* and runs the measurement, every later caller becomes a
//! *follower* and blocks on the leader's outcome, then shares the same
//! `Arc`'d response bytes — byte-identical by construction. Successful
//! outcomes are memoized (the MCSO disk cache also holds them; the memo
//! just skips decode/re-render); failures are handed to current waiters
//! but *not* memoized, so a partial failure is retryable.

use mcast_topology::Graph;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};

/// A registered topology.
pub struct TopologyEntry {
    /// Content-addressed id (16 hex chars of SHA-256 over MCTB bytes).
    pub id: String,
    /// The validated graph.
    pub graph: Arc<Graph>,
    /// Canonical MCTB encoding (cache-key input).
    pub mctb: Arc<Vec<u8>>,
}

/// In-memory topology catalogue with optional on-disk persistence.
pub struct TopologyRegistry {
    persist_dir: Option<PathBuf>,
    entries: Mutex<HashMap<String, Arc<TopologyEntry>>>,
}

/// Why an upload was rejected.
#[derive(Debug)]
pub struct RegistryError {
    /// Human-readable reason (decode/validation failure text).
    pub message: String,
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RegistryError {}

/// Derive the content-addressed id for a canonical MCTB encoding.
pub fn topology_id(mctb: &[u8]) -> String {
    let hex = mcast_store::sha256(mctb).to_hex();
    hex[..16].to_string()
}

impl TopologyRegistry {
    /// An empty registry. With `persist_dir` set, uploads are written
    /// as `<dir>/<id>.mct` and any existing `.mct` files are loaded
    /// immediately (corrupt files are skipped with a warning — a torn
    /// write must not brick the daemon).
    pub fn new(persist_dir: Option<PathBuf>) -> std::io::Result<Self> {
        let registry = Self {
            persist_dir: persist_dir.clone(),
            entries: Mutex::new(HashMap::new()),
        };
        if let Some(dir) = persist_dir {
            std::fs::create_dir_all(&dir)?;
            let mut paths: Vec<_> = std::fs::read_dir(&dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "mct"))
                .collect();
            paths.sort();
            for path in paths {
                match mcast_store::load_graph(&path) {
                    Ok(graph) => {
                        let mctb = mcast_store::encode_graph(&graph);
                        let id = topology_id(&mctb);
                        registry.insert(TopologyEntry {
                            id,
                            graph: Arc::new(graph),
                            mctb: Arc::new(mctb),
                        });
                    }
                    Err(err) => {
                        mcast_obs::warn!(
                            "serve.registry",
                            "skipping unreadable topology {}: {err}",
                            path.display()
                        );
                    }
                }
            }
        }
        Ok(registry)
    }

    fn insert(&self, entry: TopologyEntry) -> Arc<TopologyEntry> {
        let mut entries = self.entries.lock().expect("registry mutex poisoned");
        let arc = Arc::new(entry);
        entries.insert(arc.id.clone(), Arc::clone(&arc));
        arc
    }

    /// Register an uploaded body. `format` is `"edge-list"` or
    /// `"mctb"`; both paths end in the store decode (and therefore
    /// `try_from_csr`) so an invalid graph can never enter the
    /// catalogue. Returns the entry and whether it was newly created.
    pub fn register(
        &self,
        format: &str,
        body: &[u8],
    ) -> Result<(Arc<TopologyEntry>, bool), RegistryError> {
        let mctb = match format {
            "mctb" => {
                // Canonicalise: decode (full validation), re-encode.
                let graph = mcast_store::decode_graph(body).map_err(|e| RegistryError {
                    message: format!("invalid MCTB body: {e}"),
                })?;
                mcast_store::encode_graph(&graph)
            }
            "edge-list" => {
                let text = std::str::from_utf8(body).map_err(|_| RegistryError {
                    message: "edge-list body is not UTF-8".to_string(),
                })?;
                let graph =
                    mcast_topology::io::parse_edge_list(text).map_err(|e| RegistryError {
                        message: format!("invalid edge list: {e}"),
                    })?;
                mcast_store::encode_graph(&graph)
            }
            other => {
                return Err(RegistryError {
                    message: format!(
                        "unknown topology format `{other}` (expected `edge-list` or `mctb`)"
                    ),
                })
            }
        };
        // Decode the canonical bytes: this is the try_from_csr gate,
        // and it gives us the graph the measurement engine will use.
        let graph = mcast_store::decode_graph(&mctb).map_err(|e| RegistryError {
            message: format!("canonical re-decode failed: {e}"),
        })?;
        let id = topology_id(&mctb);
        {
            let entries = self.entries.lock().expect("registry mutex poisoned");
            if let Some(existing) = entries.get(&id) {
                return Ok((Arc::clone(existing), false));
            }
        }
        if let Some(dir) = &self.persist_dir {
            let path = dir.join(format!("{id}.mct"));
            mcast_store::save_graph(&path, &graph).map_err(|e| RegistryError {
                message: format!("persisting topology failed: {e}"),
            })?;
        }
        let entry = self.insert(TopologyEntry {
            id,
            graph: Arc::new(graph),
            mctb: Arc::new(mctb),
        });
        Ok((entry, true))
    }

    /// Look up a topology by id.
    pub fn get(&self, id: &str) -> Option<Arc<TopologyEntry>> {
        self.entries
            .lock()
            .expect("registry mutex poisoned")
            .get(id)
            .cloned()
    }

    /// Catalogue summary: `(id, nodes, edges)` sorted by id.
    pub fn list(&self) -> Vec<(String, usize, usize)> {
        let entries = self.entries.lock().expect("registry mutex poisoned");
        let mut out: Vec<_> = entries
            .values()
            .map(|e| (e.id.clone(), e.graph.node_count(), e.graph.edge_count()))
            .collect();
        out.sort();
        out
    }

    /// Number of registered topologies.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("registry mutex poisoned").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Result of one measurement execution, shared between the leader and
/// every follower of a flight.
pub struct Outcome {
    /// Response body bytes (canonical JSON rendering).
    pub body: Arc<Vec<u8>>,
    /// `true` when the body is an error payload (HTTP 500 partial).
    pub is_error: bool,
    /// Whether the leader served it from the MCSO cache.
    pub cache_hit: bool,
}

struct Flight {
    slot: Mutex<Option<Arc<Outcome>>>,
    done: Condvar,
}

/// What a [`Flights::join`] caller should do.
pub enum FlightRole {
    /// Run the work, then [`Flights::complete`] with the outcome.
    Leader,
    /// Another thread is running identical work; this is its outcome.
    Follower(Arc<Outcome>),
    /// A previous flight already memoized a successful outcome.
    Memoized(Arc<Outcome>),
}

/// Single-flight table keyed by the request's cache key. One mutex
/// guards both maps, so retiring a flight and memoizing its outcome is
/// one step: no caller can find the key in neither and lead again.
pub struct Flights {
    state: Mutex<FlightState>,
    memo_cap: usize,
}

#[derive(Default)]
struct FlightState {
    inflight: HashMap<String, Arc<Flight>>,
    memo: HashMap<String, Arc<Outcome>>,
}

impl Flights {
    /// A table memoizing at most `memo_cap` successful outcomes (the
    /// MCSO disk cache remains the durable tier; this only skips
    /// decode + re-render for hot keys).
    pub fn new(memo_cap: usize) -> Self {
        Self {
            state: Mutex::new(FlightState::default()),
            memo_cap,
        }
    }

    /// Join the flight for `key`.
    pub fn join(&self, key: &str) -> FlightRole {
        let flight = {
            let mut state = self.state.lock().expect("flight mutex poisoned");
            if let Some(hit) = state.memo.get(key) {
                return FlightRole::Memoized(Arc::clone(hit));
            }
            match state.inflight.get(key) {
                Some(flight) => Arc::clone(flight),
                None => {
                    let flight = Arc::new(Flight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    state.inflight.insert(key.to_string(), flight);
                    return FlightRole::Leader;
                }
            }
        };
        mcast_obs::counter("serve.singleflight.wait").add(1);
        let mut slot = flight.slot.lock().expect("flight slot poisoned");
        while slot.is_none() {
            slot = flight.done.wait(slot).expect("flight slot poisoned");
        }
        FlightRole::Follower(Arc::clone(slot.as_ref().expect("slot filled above")))
    }

    /// Leader hands in the outcome: retires the flight and memoizes a
    /// success in one critical section, then wakes all followers.
    pub fn complete(&self, key: &str, outcome: Arc<Outcome>) {
        let flight = {
            let mut state = self.state.lock().expect("flight mutex poisoned");
            if !outcome.is_error {
                if state.memo.len() >= self.memo_cap {
                    // Simple bound: drop everything rather than track LRU —
                    // the disk cache refills any evicted key on next miss.
                    state.memo.clear();
                }
                state.memo.insert(key.to_string(), Arc::clone(&outcome));
            }
            state.inflight.remove(key)
        };
        if let Some(flight) = flight {
            *flight.slot.lock().expect("flight slot poisoned") = Some(outcome);
            flight.done.notify_all();
        }
    }

    /// Number of keys currently in flight.
    pub fn inflight_len(&self) -> usize {
        self.state
            .lock()
            .expect("flight mutex poisoned")
            .inflight
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcast_topology::GraphBuilder;

    fn triangle_edge_list() -> &'static [u8] {
        b"0 1\n1 2\n2 0\n"
    }

    fn triangle_graph() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.build()
    }

    #[test]
    fn register_is_idempotent_across_formats() {
        let reg = TopologyRegistry::new(None).unwrap();
        let (first, created) = reg.register("edge-list", triangle_edge_list()).unwrap();
        assert!(created);
        let mctb = mcast_store::encode_graph(&triangle_graph());
        let (second, created) = reg.register("mctb", &mctb).unwrap();
        assert!(!created, "same graph re-registered under a new id");
        assert_eq!(first.id, second.id);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get(&first.id).unwrap().graph.node_count(), 3);
    }

    #[test]
    fn invalid_bodies_are_rejected() {
        let reg = TopologyRegistry::new(None).unwrap();
        assert!(reg.register("edge-list", b"zero one\n").is_err());
        assert!(reg.register("mctb", b"not a topology").is_err());
        assert!(reg.register("dot", b"graph {}").is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn persistence_round_trips_across_instances() {
        let dir = std::env::temp_dir().join(format!(
            "mcast-serve-reg-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let id = {
            let reg = TopologyRegistry::new(Some(dir.clone())).unwrap();
            reg.register("edge-list", triangle_edge_list())
                .unwrap()
                .0
                .id
                .clone()
        };
        let reloaded = TopologyRegistry::new(Some(dir.clone())).unwrap();
        assert_eq!(reloaded.list(), vec![(id, 3, 3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_flight_has_one_leader_and_memoizes_success() {
        let flights = Flights::new(8);
        let FlightRole::Leader = flights.join("k") else {
            panic!("first join must lead");
        };
        assert!(matches!(flights.join("other"), FlightRole::Leader));
        let outcome = Arc::new(Outcome {
            body: Arc::new(b"{}".to_vec()),
            is_error: false,
            cache_hit: false,
        });
        flights.complete("k", Arc::clone(&outcome));
        match flights.join("k") {
            FlightRole::Memoized(hit) => assert!(Arc::ptr_eq(&hit.body, &outcome.body)),
            _ => panic!("success must memoize"),
        }
        assert_eq!(flights.inflight_len(), 1); // "other" still open
    }

    #[test]
    fn failures_are_not_memoized() {
        let flights = Flights::new(8);
        assert!(matches!(flights.join("k"), FlightRole::Leader));
        flights.complete(
            "k",
            Arc::new(Outcome {
                body: Arc::new(b"{\"error\":{}}".to_vec()),
                is_error: true,
                cache_hit: false,
            }),
        );
        assert!(
            matches!(flights.join("k"), FlightRole::Leader),
            "failure must be retryable"
        );
    }

    #[test]
    fn racing_joins_and_completes_on_one_key_have_one_leader() {
        // Between retiring a flight and memoizing its outcome no join
        // may find the key in neither map; each round is a fresh key
        // that all threads race for at once, and exactly one leads.
        const THREADS: usize = 8;
        const ROUNDS: usize = 1_000;
        let flights = Flights::new(ROUNDS);
        let start = std::sync::Barrier::new(THREADS);
        let leaders: Vec<usize> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut led = vec![0usize; ROUNDS];
                        for (round, led) in led.iter_mut().enumerate() {
                            let key = format!("k{round}");
                            start.wait();
                            if let FlightRole::Leader = flights.join(&key) {
                                *led += 1;
                                flights.complete(
                                    &key,
                                    Arc::new(Outcome {
                                        body: Arc::new(b"{}".to_vec()),
                                        is_error: false,
                                        cache_hit: false,
                                    }),
                                );
                            }
                            // Join again after the completion raced: the
                            // memo must answer, never a second leader.
                            if let FlightRole::Leader = flights.join(&key) {
                                *led += 1;
                            }
                        }
                        led
                    })
                })
                .collect();
            let mut total = vec![0usize; ROUNDS];
            for worker in workers {
                for (sum, led) in total.iter_mut().zip(worker.join().unwrap()) {
                    *sum += led;
                }
            }
            total
        });
        for (round, &count) in leaders.iter().enumerate() {
            assert_eq!(count, 1, "round {round} had {count} leaders");
        }
        assert_eq!(flights.inflight_len(), 0);
    }

    #[test]
    fn followers_share_the_leaders_bytes() {
        let flights = Arc::new(Flights::new(8));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let flights = Arc::clone(&flights);
            handles.push(std::thread::spawn(move || match flights.join("k") {
                FlightRole::Leader => {
                    let outcome = Arc::new(Outcome {
                        body: Arc::new(b"payload".to_vec()),
                        is_error: false,
                        cache_hit: false,
                    });
                    flights.complete("k", Arc::clone(&outcome));
                    (true, outcome)
                }
                FlightRole::Follower(o) | FlightRole::Memoized(o) => (false, o),
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results.iter().filter(|(lead, _)| *lead).count(), 1);
        let leader_body = &results.iter().find(|(lead, _)| *lead).unwrap().1.body;
        for (_, outcome) in &results {
            assert_eq!(outcome.body.as_slice(), leader_body.as_slice());
        }
    }
}
