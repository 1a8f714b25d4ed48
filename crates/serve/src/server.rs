//! The daemon: TCP acceptor, bounded worker pool, request logging, and
//! graceful drain.
//!
//! Threading model (std-only, no async runtime):
//!
//! * one *acceptor* thread blocks on `accept` and pushes connections
//!   into the [`BoundedQueue`]; when the queue is full it answers 503
//!   inline and closes — overload is shed at the door, cheaply;
//! * `workers` threads pop connections, frame the request with the
//!   incremental parser, and route it;
//! * graceful shutdown (the `/v1/admin/shutdown` endpoint, or
//!   [`ServerHandle::shutdown`]) stops admission, lets queued and
//!   in-flight requests finish — each finished source group was already
//!   checkpointed by the store layer, so even a hard kill mid-drain
//!   resumes bit-identically — then joins every thread.

use crate::admission::{AdmissionError, BoundedQueue};
use crate::protocol::{error_body, unary_response, ProtocolError, Request, RequestParser};
use crate::quota::{monotonic_ns, QuotaConfig, Quotas};
use crate::registry::{Flights, TopologyRegistry};
use crate::router::{self, Backend, Ctx, ResponseInfo, ShutdownSignal};
use mcast_obs::json::write_str;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything needed to boot a daemon.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Admission queue capacity (beyond in-flight work).
    pub queue_cap: usize,
    /// Per-client token-bucket parameters.
    pub quota: QuotaConfig,
    /// Largest accepted request body.
    pub max_body: usize,
    /// Directory persisting uploaded topologies (`None` = memory only).
    pub topo_dir: Option<PathBuf>,
    /// JSONL request log path (`None` = off).
    pub request_log: Option<PathBuf>,
    /// Threads handed to the measurement backend per query.
    pub threads: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 64,
            quota: QuotaConfig::default(),
            max_body: crate::protocol::DEFAULT_MAX_BODY_BYTES,
            topo_dir: None,
            request_log: None,
            threads: 0,
        }
    }
}

/// A running daemon.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<ShutdownSignal>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful drain (idempotent; also triggered by the
    /// `/v1/admin/shutdown` endpoint).
    pub fn shutdown(&self) {
        self.shutdown.trigger();
    }

    /// Block until every thread has drained and exited.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

struct RequestLog {
    file: Mutex<std::io::BufWriter<std::fs::File>>,
}

impl RequestLog {
    fn open(path: &PathBuf) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self {
            file: Mutex::new(std::io::BufWriter::new(file)),
        })
    }

    fn record(&self, client: &str, method: &str, path: &str, info: &ResponseInfo, ms: u64) {
        let mut line = String::from("{\"ev\":\"serve.request\",\"t_ms\":");
        line.push_str(&ms.to_string());
        line.push_str(",\"client\":");
        write_str(&mut line, client);
        line.push_str(",\"method\":");
        write_str(&mut line, method);
        line.push_str(",\"path\":");
        write_str(&mut line, path);
        line.push_str(",\"status\":");
        line.push_str(&info.status.to_string());
        line.push_str(",\"bytes_out\":");
        line.push_str(&info.bytes_out.to_string());
        line.push_str(",\"streamed\":");
        line.push_str(if info.streamed { "true" } else { "false" });
        line.push_str("}\n");
        let mut file = self.file.lock().expect("request log mutex poisoned");
        let _ = file.write_all(line.as_bytes());
        let _ = file.flush();
    }
}

/// Bind, spawn the acceptor + worker pool, and return a handle. The
/// daemon serves until shutdown is triggered; `backend` supplies the
/// measurement engine.
pub fn serve(config: ServeConfig, backend: Arc<dyn Backend>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let shutdown = Arc::new(ShutdownSignal::new());
    shutdown.set_addr(addr);
    let registry = TopologyRegistry::new(config.topo_dir.clone())?;
    let request_log = match &config.request_log {
        Some(path) => Some(Arc::new(RequestLog::open(path)?)),
        None => None,
    };
    let ctx = Arc::new(Ctx {
        registry,
        flights: Flights::new(256),
        quotas: Quotas::new(config.quota),
        backend,
        shutdown: Arc::clone(&shutdown),
        threads: config.threads,
        started: Instant::now(),
        next_request_id: AtomicU64::new(1),
    });
    let queue: Arc<BoundedQueue<TcpStream>> = Arc::new(BoundedQueue::new(config.queue_cap));

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for worker_id in 0..config.workers.max(1) {
        let queue = Arc::clone(&queue);
        let ctx = Arc::clone(&ctx);
        let request_log = request_log.clone();
        let max_body = config.max_body;
        workers.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{worker_id}"))
                .spawn(move || {
                    while let Some(stream) = queue.pop() {
                        handle_connection(&ctx, stream, max_body, request_log.as_deref());
                    }
                })?,
        );
    }

    let acceptor = {
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name("serve-acceptor".to_string())
            .spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.is_triggered() {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    mcast_obs::counter("serve.request.accepted").add(1);
                    if let Err((mut stream, why)) = queue.try_push(stream) {
                        // Load-shed at the door: the acceptor never blocks
                        // on request work, it answers 503 inline and moves
                        // on to the next connection.
                        mcast_obs::counter("serve.request.shed").add(1);
                        let (code, message) = match why {
                            AdmissionError::Full => {
                                ("overloaded", "admission queue is full; retry shortly")
                            }
                            AdmissionError::Closed => ("draining", "server is shutting down"),
                        };
                        let body = error_body(503, code, message, &[]);
                        let _ = stream.write_all(&unary_response(
                            503,
                            "application/json",
                            body.as_bytes(),
                            &[("Retry-After", "1")],
                        ));
                        continue;
                    }
                }
                // Stop admission; queued connections still drain.
                queue.close();
            })?
    };

    mcast_obs::info!("serve", "listening on {addr}");
    Ok(ServerHandle {
        addr,
        shutdown,
        acceptor: Some(acceptor),
        workers,
    })
}

fn handle_connection(
    ctx: &Ctx,
    mut stream: TcpStream,
    max_body: usize,
    request_log: Option<&RequestLog>,
) {
    let t0 = monotonic_ns();
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    let request = match read_request(&mut stream, max_body) {
        Ok(Some(request)) => request,
        Ok(None) => return, // bare connect/disconnect (shutdown waker)
        Err(err) => {
            mcast_obs::counter("serve.request.error").add(1);
            let body = error_body(err.status(), err.code(), &err.to_string(), &[]);
            let _ = stream.write_all(&unary_response(
                err.status(),
                "application/json",
                body.as_bytes(),
                &[],
            ));
            return;
        }
    };
    let client = router::client_id(&request).to_string();
    let info = match router::handle(ctx, &request, &mut stream) {
        Ok(info) => info,
        Err(_) => return, // client went away mid-response
    };
    let _ = stream.flush();
    if let Some(log) = request_log {
        let ms = monotonic_ns().saturating_sub(t0) / 1_000_000;
        log.record(&client, &request.method, &request.path, &info, ms);
    }
}

fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Option<Request>, ProtocolError> {
    let mut parser = RequestParser::new(max_body);
    let mut buf = [0u8; 16 * 1024];
    let mut got_any = false;
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                if got_any {
                    return Err(ProtocolError::UnexpectedEof);
                }
                return Ok(None);
            }
            Ok(n) => n,
            Err(_) => {
                return if got_any {
                    Err(ProtocolError::UnexpectedEof)
                } else {
                    Ok(None)
                };
            }
        };
        got_any = true;
        if let Some(request) = parser.feed(&buf[..n])? {
            return Ok(Some(request));
        }
    }
}
