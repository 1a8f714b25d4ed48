//! End-to-end tests of the `mcs serve` daemon: boot on an ephemeral
//! port, upload the paper's ARPA map, and drive it with real TCP
//! clients — concurrent identical queries must coalesce to exactly one
//! scheduler execution with byte-identical bodies, quotas must throttle
//! with structured 429s, concurrent cold queries must get their own
//! run-meta sidecars, and shutdown must drain cleanly.

use mcast_serve::protocol::{encode_request, parse_response, ParsedResponse};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Daemon {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Daemon {
    /// Boot `mcs serve` on an ephemeral port with a cache under a fresh
    /// temp dir; extra flags are appended verbatim.
    fn boot(tag: &str, extra: &[&str]) -> Daemon {
        let dir = std::env::temp_dir().join(format!("mcs-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr.txt");
        let cache = dir.join("cache");
        let mut args = vec![
            "serve".to_string(),
            "--port".to_string(),
            "0".to_string(),
            "--cache-dir".to_string(),
            cache.to_str().unwrap().to_string(),
            "--addr-file".to_string(),
            addr_file.to_str().unwrap().to_string(),
            "--workers".to_string(),
            "12".to_string(),
            "--request-log".to_string(),
            dir.join("requests.jsonl").to_str().unwrap().to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        let child = Command::new(env!("CARGO_BIN_EXE_mcs"))
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("daemon spawns");
        // The addr file is written atomically after the listening line,
        // so its presence means the socket is accepting.
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                let trimmed = text.trim().to_string();
                if !trimmed.is_empty() {
                    break trimmed;
                }
            }
            assert!(
                Instant::now() < deadline,
                "daemon never wrote its addr file"
            );
            std::thread::sleep(Duration::from_millis(25));
        };
        Daemon { child, addr, dir }
    }

    fn cache_dir(&self) -> PathBuf {
        self.dir.join("cache")
    }

    /// POST /v1/admin/shutdown, then require the process to drain and
    /// exit by itself.
    fn shutdown_and_wait(mut self) {
        let resp = http(&self.addr, "POST", "/v1/admin/shutdown", &[], b"");
        assert_eq!(
            resp.status, 200,
            "shutdown endpoint answers before draining"
        );
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait().expect("try_wait works") {
                Some(status) => {
                    assert!(status.success(), "daemon exits 0 after drain");
                    break;
                }
                None => {
                    assert!(Instant::now() < deadline, "daemon did not drain in time");
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        }
        let mut stdout = String::new();
        self.child
            .stdout
            .take()
            .expect("stdout piped")
            .read_to_string(&mut stdout)
            .unwrap();
        assert!(stdout.contains("drained and stopped"), "stdout: {stdout}");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One HTTP exchange over a fresh connection (the server answers one
/// request per connection and closes).
fn http(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> ParsedResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    stream
        .write_all(&encode_request(method, target, headers, body))
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    parse_response(&raw).expect("well-formed response")
}

/// The ARPA stand-in map as an uploadable edge list.
fn arpa_edge_list() -> String {
    let cfg = mcast_experiments::RunConfig::fast();
    let network = mcast_experiments::networks::arpa(&cfg);
    mcast_topology::io::write_edge_list(&network.graph)
}

fn upload_arpa(addr: &str) -> String {
    let body = arpa_edge_list();
    let resp = http(
        addr,
        "POST",
        "/v1/topo?format=edge-list",
        &[("x-client-id", "uploader")],
        body.as_bytes(),
    );
    assert_eq!(resp.status, 201, "fresh upload answers 201 Created");
    let v = mcast_obs::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    v.get("id")
        .and_then(|id| id.as_str())
        .expect("upload returns the topology id")
        .to_string()
}

fn counter(stats: &mcast_obs::json::Value, name: &str) -> u64 {
    stats
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or(0)
}

#[test]
fn concurrent_identical_queries_coalesce_to_one_execution() {
    let daemon = Daemon::boot("coalesce", &[]);
    let id = upload_arpa(&daemon.addr);
    let query = format!(
        "{{\"topology\":\"{id}\",\"kind\":\"ratio\",\"seed\":42,\"sources\":4,\"receiver_sets\":3,\"xs\":[1,2,4,8]}}"
    );

    // Eight identical cold queries in flight at once: the single-flight
    // table must run the scheduler exactly once and share its bytes.
    let bodies: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let addr = daemon.addr.clone();
                let query = query.clone();
                scope.spawn(move || {
                    let resp = http(
                        &addr,
                        "POST",
                        "/v1/measure",
                        &[("x-client-id", &format!("client-{i}"))],
                        query.as_bytes(),
                    );
                    assert_eq!(
                        resp.status,
                        200,
                        "body: {}",
                        String::from_utf8_lossy(&resp.body)
                    );
                    resp.body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for body in &bodies[1..] {
        assert_eq!(body, &bodies[0], "all eight bodies must be byte-identical");
    }

    let stats_resp = http(&daemon.addr, "GET", "/v1/stats", &[], b"");
    assert_eq!(stats_resp.status, 200);
    let stats = mcast_obs::json::parse(std::str::from_utf8(&stats_resp.body).unwrap()).unwrap();
    assert_eq!(counter(&stats, "serve.exec"), 1, "exactly one execution");
    assert_eq!(counter(&stats, "serve.cache.miss"), 1, "one cold miss");
    assert_eq!(
        counter(&stats, "serve.cache.hit"),
        7,
        "seven coalesced hits"
    );

    // A ninth, later query is a warm hit with the same bytes, and says
    // so out of band (the X-Cache header, never the body).
    let warm = http(
        &daemon.addr,
        "POST",
        "/v1/measure",
        &[("x-client-id", "latecomer")],
        query.as_bytes(),
    );
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-cache"), Some("hit"));
    assert_eq!(warm.body, bodies[0]);

    daemon.shutdown_and_wait();
}

#[test]
fn quota_exhaustion_yields_structured_429() {
    // Burst of 2 and a near-zero refill: the third request from the
    // same client must throttle; a different client is unaffected.
    let daemon = Daemon::boot("quota", &["--quota-rate", "0.001", "--quota-burst", "2"]);
    let id = upload_arpa(&daemon.addr);
    let query = format!(
        "{{\"topology\":\"{id}\",\"seed\":1,\"sources\":2,\"receiver_sets\":2,\"xs\":[1,2]}}"
    );
    for _ in 0..2 {
        let resp = http(
            &daemon.addr,
            "POST",
            "/v1/measure",
            &[("x-client-id", "greedy")],
            query.as_bytes(),
        );
        assert_eq!(resp.status, 200);
    }
    let throttled = http(
        &daemon.addr,
        "POST",
        "/v1/measure",
        &[("x-client-id", "greedy")],
        query.as_bytes(),
    );
    assert_eq!(throttled.status, 429);
    assert!(throttled.header("retry-after").is_some(), "Retry-After set");
    let v = mcast_obs::json::parse(std::str::from_utf8(&throttled.body).unwrap()).unwrap();
    let err = v.get("error").expect("structured error payload");
    assert_eq!(
        err.get("code").and_then(|c| c.as_str()),
        Some("quota_exhausted")
    );
    assert_eq!(err.get("status").and_then(|s| s.as_u64()), Some(429));
    assert!(err.get("retry_after_ms").and_then(|r| r.as_u64()).is_some());

    let other = http(
        &daemon.addr,
        "POST",
        "/v1/measure",
        &[("x-client-id", "patient")],
        query.as_bytes(),
    );
    assert_eq!(other.status, 200, "quotas are per-client");
    daemon.shutdown_and_wait();
}

#[test]
fn concurrent_cold_queries_get_their_own_run_meta_sidecars() {
    // Regression: the one-shot CLI writes a single <cache>/run-meta.json
    // per process; two overlapping serve requests must never race on a
    // shared sidecar — each execution writes run-meta/req-<id>.json.
    let daemon = Daemon::boot("runmeta", &[]);
    let id = upload_arpa(&daemon.addr);
    std::thread::scope(|scope| {
        for seed in [101u64, 202] {
            let addr = daemon.addr.clone();
            let query = format!(
                "{{\"topology\":\"{id}\",\"seed\":{seed},\"sources\":4,\"receiver_sets\":3,\"xs\":[1,2,4]}}"
            );
            scope.spawn(move || {
                let resp = http(&addr, "POST", "/v1/measure", &[], query.as_bytes());
                assert_eq!(resp.status, 200);
                assert_eq!(resp.header("x-cache"), Some("miss"));
            });
        }
    });
    let meta_dir = daemon.cache_dir().join("run-meta");
    let mut metas: Vec<PathBuf> = std::fs::read_dir(&meta_dir)
        .expect("run-meta dir exists")
        .map(|e| e.unwrap().path())
        .collect();
    metas.sort();
    assert_eq!(
        metas.len(),
        2,
        "one sidecar per executed request: {metas:?}"
    );
    let mut request_ids = Vec::new();
    for path in &metas {
        let name = path.file_name().unwrap().to_str().unwrap();
        assert!(
            name.starts_with("req-") && name.ends_with(".json"),
            "{name}"
        );
        let v = mcast_obs::json::parse(&std::fs::read_to_string(path).unwrap())
            .expect("sidecar is valid JSON");
        assert_eq!(v.get("mode").and_then(|m| m.as_str()), Some("serve"));
        assert_eq!(v.get("status").and_then(|s| s.as_str()), Some("ok"));
        request_ids.push(v.get("request_id").and_then(|r| r.as_u64()).unwrap());
    }
    assert_ne!(request_ids[0], request_ids[1], "ids are unique per request");
    daemon.shutdown_and_wait();
}

#[test]
fn bad_queries_get_structured_errors() {
    let daemon = Daemon::boot("errors", &[]);
    // Unknown topology → 404 with a machine-readable code.
    let resp = http(
        &daemon.addr,
        "POST",
        "/v1/measure",
        &[],
        b"{\"topology\":\"deadbeefdeadbeef\"}",
    );
    assert_eq!(resp.status, 404);
    let v = mcast_obs::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str()),
        Some("unknown_topology")
    );
    // Garbage upload → 400 invalid_topology.
    let resp = http(
        &daemon.addr,
        "POST",
        "/v1/topo?format=edge-list",
        &[],
        b"this is not an edge list",
    );
    assert_eq!(resp.status, 400);
    let v = mcast_obs::json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap();
    assert_eq!(
        v.get("error")
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str()),
        Some("invalid_topology")
    );
    daemon.shutdown_and_wait();
}

#[test]
fn streamed_queries_emit_progress_then_the_canonical_body() {
    let daemon = Daemon::boot("stream", &[]);
    let id = upload_arpa(&daemon.addr);
    let unary = http(
        &daemon.addr,
        "POST",
        "/v1/measure",
        &[],
        format!(
            "{{\"topology\":\"{id}\",\"seed\":9,\"sources\":2,\"receiver_sets\":2,\"xs\":[1,2]}}"
        )
        .as_bytes(),
    );
    assert_eq!(unary.status, 200);
    let streamed = http(
        &daemon.addr,
        "POST",
        "/v1/measure",
        &[],
        format!(
            "{{\"topology\":\"{id}\",\"seed\":9,\"sources\":2,\"receiver_sets\":2,\"xs\":[1,2],\"stream\":true}}"
        )
        .as_bytes(),
    );
    assert_eq!(streamed.status, 200);
    assert!(streamed.chunks.is_some(), "streamed answers are chunked");
    let lines = streamed.jsonl_lines();
    assert!(lines.len() >= 2, "at least a join event plus the result");
    for line in &lines {
        mcast_obs::json::parse(line).expect("every streamed line is JSON");
    }
    // The final line is the result body — byte-identical to the unary
    // answer for the same query (modulo the trailing newline framing).
    let last = lines.last().unwrap().as_bytes();
    let unary_trimmed = &unary.body[..unary.body.len() - 1];
    assert_eq!(last, unary_trimmed, "stream result equals unary body");
    daemon.shutdown_and_wait();
}
