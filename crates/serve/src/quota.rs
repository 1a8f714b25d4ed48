//! Per-client token-bucket quotas.
//!
//! Each client id (the `X-Client-Id` header, `anonymous` when absent)
//! gets its own bucket: `burst` tokens of headroom refilled at
//! `rate_per_sec`. Every admitted measurement or upload costs one
//! token; an empty bucket answers 429 with a `retry_after_ms` hint so
//! well-behaved clients back off instead of hammering the acceptor.
//!
//! Buckets take the clock as an explicit nanosecond argument, so the
//! refill arithmetic is directly testable without sleeping.
//!
//! The table is bounded by the clients that are still drawing on their
//! budget, not by every id ever sent. Once it holds [`PRUNE_FLOOR`]
//! clients, a new client first triggers a sweep that drops every bucket
//! that has refilled to `burst`. That is exact: a full bucket admits and
//! throttles exactly like the fresh bucket a new client gets. The next
//! sweep waits until the table has doubled (and at least reached the
//! floor again), so sweeping costs amortised O(1) per new client. With
//! `rate_per_sec = 0` nothing refills, so nothing is ever dropped.

use std::collections::HashMap;
use std::sync::Mutex;

/// Table size at which [`Quotas`] first drops the buckets of clients
/// whose budget has fully refilled.
pub const PRUNE_FLOOR: usize = 4096;

/// Quota parameters shared by every client of one server.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Sustained request rate per client (tokens per second). Zero
    /// disables refill (each client gets `burst` requests, ever).
    pub rate_per_sec: f64,
    /// Bucket capacity: how far a client may burst above the rate.
    pub burst: f64,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        // Generous for interactive use; the CLI exposes both knobs.
        Self {
            rate_per_sec: 50.0,
            burst: 100.0,
        }
    }
}

/// One client's bucket.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    tokens: f64,
    last_ns: u64,
}

impl Bucket {
    /// Tokens this bucket holds at `now_ns`, refill included.
    fn refilled(&self, config: &QuotaConfig, now_ns: u64) -> f64 {
        let elapsed = now_ns.saturating_sub(self.last_ns) as f64 / 1e9;
        (self.tokens + elapsed * config.rate_per_sec).min(config.burst)
    }
}

/// The buckets plus the size at which the next sweep runs.
#[derive(Debug)]
struct Table {
    buckets: HashMap<String, Bucket>,
    prune_at: usize,
}

/// Outcome of a quota check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QuotaDecision {
    /// Token taken; proceed.
    Admit,
    /// Bucket empty; retry after roughly this many milliseconds.
    Throttle {
        /// Milliseconds until one token will have refilled.
        retry_after_ms: u64,
    },
}

/// Token buckets for all clients of one server.
#[derive(Debug)]
pub struct Quotas {
    config: QuotaConfig,
    table: Mutex<Table>,
}

impl Quotas {
    /// New quota table; all buckets start full.
    pub fn new(config: QuotaConfig) -> Self {
        Self {
            config,
            table: Mutex::new(Table {
                buckets: HashMap::new(),
                prune_at: PRUNE_FLOOR,
            }),
        }
    }

    /// The configured parameters.
    pub fn config(&self) -> QuotaConfig {
        self.config
    }

    /// Try to take one token for `client` at time `now_ns` (any
    /// monotonic nanosecond clock; tests pass synthetic values).
    pub fn admit_at(&self, client: &str, now_ns: u64) -> QuotaDecision {
        let mut table = self.table.lock().expect("quota mutex poisoned");
        let Table { buckets, prune_at } = &mut *table;
        if buckets.len() >= *prune_at && !buckets.contains_key(client) {
            buckets.retain(|_, b| b.refilled(&self.config, now_ns) < self.config.burst);
            *prune_at = PRUNE_FLOOR.max(2 * buckets.len());
        }
        let bucket = buckets.entry(client.to_string()).or_insert(Bucket {
            tokens: self.config.burst,
            last_ns: now_ns,
        });
        bucket.tokens = bucket.refilled(&self.config, now_ns);
        bucket.last_ns = now_ns;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            QuotaDecision::Admit
        } else {
            let deficit = 1.0 - bucket.tokens;
            let retry_after_ms = if self.config.rate_per_sec > 0.0 {
                (deficit / self.config.rate_per_sec * 1e3).ceil() as u64
            } else {
                u64::MAX
            };
            QuotaDecision::Throttle { retry_after_ms }
        }
    }

    /// [`Quotas::admit_at`] against the process monotonic clock.
    pub fn admit(&self, client: &str) -> QuotaDecision {
        self.admit_at(client, monotonic_ns())
    }

    /// Number of clients tracked: every client seen since the last sweep,
    /// plus those whose budget had not refilled at it.
    pub fn client_count(&self) -> usize {
        self.table
            .lock()
            .expect("quota mutex poisoned")
            .buckets
            .len()
    }
}

/// Nanoseconds from a process-local monotonic epoch.
pub fn monotonic_ns() -> u64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quotas(rate: f64, burst: f64) -> Quotas {
        Quotas::new(QuotaConfig {
            rate_per_sec: rate,
            burst,
        })
    }

    #[test]
    fn burst_then_throttle() {
        let q = quotas(1.0, 3.0);
        for _ in 0..3 {
            assert_eq!(q.admit_at("c", 0), QuotaDecision::Admit);
        }
        match q.admit_at("c", 0) {
            QuotaDecision::Throttle { retry_after_ms } => {
                // Needs one full token at 1/sec → ~1000 ms.
                assert!((900..=1100).contains(&retry_after_ms), "{retry_after_ms}");
            }
            other => panic!("expected throttle, got {other:?}"),
        }
    }

    #[test]
    fn refill_restores_admission() {
        let q = quotas(2.0, 1.0);
        assert_eq!(q.admit_at("c", 0), QuotaDecision::Admit);
        assert!(matches!(q.admit_at("c", 1), QuotaDecision::Throttle { .. }));
        // 0.6 s at 2 tokens/s refills 1.2 → capped at burst 1.0.
        assert_eq!(q.admit_at("c", 600_000_000), QuotaDecision::Admit);
    }

    #[test]
    fn clients_are_independent() {
        let q = quotas(0.0, 1.0);
        assert_eq!(q.admit_at("a", 0), QuotaDecision::Admit);
        assert!(matches!(q.admit_at("a", 0), QuotaDecision::Throttle { .. }));
        assert_eq!(q.admit_at("b", 0), QuotaDecision::Admit);
        assert_eq!(q.client_count(), 2);
    }

    #[test]
    fn idle_clients_do_not_grow_the_table_without_bound() {
        let q = quotas(50.0, 100.0);
        // 100k one-off clients, 1 ms apart: each bucket is full again
        // 20 ms after its only request, so a sweep drops all but the last
        // few and the table never passes the floor.
        for i in 0..100_000u64 {
            let client = format!("client-{i}");
            assert_eq!(q.admit_at(&client, i * 1_000_000), QuotaDecision::Admit);
            let tracked = q.client_count();
            assert!(tracked <= PRUNE_FLOOR, "{tracked} clients tracked at {i}");
        }
    }

    #[test]
    fn a_sweep_keeps_draining_clients_and_swept_ones_return_full() {
        let q = quotas(1.0, 2.0);
        assert_eq!(q.admit_at("busy", 0), QuotaDecision::Admit);
        assert_eq!(q.admit_at("busy", 0), QuotaDecision::Admit);
        for i in 0..PRUNE_FLOOR as u64 - 2 {
            q.admit_at(&format!("idle-{i}"), 0);
        }
        assert_eq!(q.admit_at("draining", 9_900_000_000), QuotaDecision::Admit);
        assert_eq!(q.admit_at("draining", 9_900_000_000), QuotaDecision::Admit);
        assert_eq!(q.client_count(), PRUNE_FLOOR);
        // A new client at 10 s sweeps: the idle buckets and "busy" have
        // refilled to burst and go; "draining" holds 0.1 tokens and stays.
        q.admit_at("late", 10_000_000_000);
        assert_eq!(q.client_count(), 2);
        assert!(matches!(
            q.admit_at("draining", 10_000_000_000),
            QuotaDecision::Throttle { .. }
        ));
        // "busy" comes back to a full bucket, as if it had been kept.
        assert_eq!(q.admit_at("busy", 10_000_000_000), QuotaDecision::Admit);
        assert_eq!(q.admit_at("busy", 10_000_000_000), QuotaDecision::Admit);
        assert!(matches!(
            q.admit_at("busy", 10_000_000_000),
            QuotaDecision::Throttle { .. }
        ));
    }

    #[test]
    fn zero_rate_never_refills() {
        let q = quotas(0.0, 1.0);
        assert_eq!(q.admit_at("c", 0), QuotaDecision::Admit);
        match q.admit_at("c", u64::MAX / 2) {
            QuotaDecision::Throttle { retry_after_ms } => {
                assert_eq!(retry_after_ms, u64::MAX);
            }
            other => panic!("expected throttle, got {other:?}"),
        }
    }
}
