//! Admission control: the server's promise to degrade by *refusing*
//! work instead of melting under it.
//!
//! Three gates, checked in order, each of which turns overload into a
//! fast, retryable error rather than unbounded queueing:
//!
//! 1. **Connection limit** — at most [`AdmissionConfig::max_connections`]
//!    service threads exist. A connection past the limit gets a
//!    `Shed` error frame during the handshake and is closed.
//! 2. **Statement queue depth** — at most
//!    [`AdmissionConfig::queue_depth`] statements may be in flight
//!    across all connections. Past that, requests are shed before any
//!    parsing or execution happens.
//! 3. **Latency governor** — if the p99 statement latency observed
//!    over the current [`AdmissionConfig::governor_window`] (a
//!    sliding view over the cumulative `server_statement_ns`
//!    histogram) exceeds [`AdmissionConfig::shed_p99_ns`], new
//!    statements are shed until the tail recovers. This is the brake
//!    that keeps p99 bounded in an open-loop workload: admitting more
//!    work when the tail is already blown only moves queueing delay
//!    somewhere invisible. The window is what lets the tail *recover*:
//!    once a window passes with no completions (because everything was
//!    shed), the estimate empties and the gate reopens, so shedding
//!    can never latch permanently on all-time history.
//!
//! Shed errors carry code 2002 and `is_retryable() == true`, so a
//! well-behaved client backs off and retries; see `docs/ERRORS.md`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use exodus_db::DbError;
use exodus_obs::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_NS};

/// Knobs governing how much concurrent work the server accepts.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Maximum simultaneously served connections; further connections
    /// are shed at handshake time.
    pub max_connections: usize,
    /// Maximum statements in flight across all connections; further
    /// requests are shed before execution.
    pub queue_depth: usize,
    /// Shed statements while the windowed p99 statement latency
    /// exceeds this many nanoseconds (`None` disables the governor).
    pub shed_p99_ns: Option<u64>,
    /// Length of the latency governor's observation window. The p99
    /// feeding gate 3 is computed over statements that *completed
    /// within the current window*, so the estimate — and therefore the
    /// shedding decision — tracks recent behavior and recovers once
    /// the tail does, instead of latching on all-time history.
    pub governor_window: Duration,
    /// How long a statement may wait for the single-writer gate before
    /// failing with a retryable `Busy` error instead of blocking the
    /// service thread indefinitely.
    pub lock_timeout: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_connections: 128,
            queue_depth: 256,
            shed_p99_ns: None,
            governor_window: Duration::from_secs(1),
            lock_timeout: Duration::from_secs(5),
        }
    }
}

/// Metric families the server registers, plus the counters the
/// admission gates update. One instance is shared by the acceptor and
/// every service thread.
pub struct ServerMetrics {
    /// The registry these families live in (the database's own
    /// registry when it has one, so `/metrics` shows both sides).
    pub registry: Arc<MetricsRegistry>,
    /// Connections accepted, including ones later shed.
    pub connections_total: Arc<Counter>,
    /// Connections currently being served.
    pub active_connections: Arc<Gauge>,
    /// Connections refused at handshake by the connection limit.
    pub shed_connections_total: Arc<Counter>,
    /// Statements admitted for execution.
    pub statements_total: Arc<Counter>,
    /// Statements refused by the queue-depth or latency gates.
    pub shed_statements_total: Arc<Counter>,
    /// Statements currently executing or queued.
    pub inflight_statements: Arc<Gauge>,
    /// Wall-clock statement service time, admission to final frame.
    pub statement_ns: Arc<Histogram>,
    /// Request frames decoded.
    pub frames_in_total: Arc<Counter>,
    /// Response frames written.
    pub frames_out_total: Arc<Counter>,
    /// HTTP `/metrics` scrapes served.
    pub metrics_scrapes_total: Arc<Counter>,
}

impl ServerMetrics {
    /// Register the server families in `registry`.
    pub fn register(registry: Arc<MetricsRegistry>) -> ServerMetrics {
        ServerMetrics {
            connections_total: registry
                .counter("server_connections_total", "Connections accepted."),
            active_connections: registry
                .gauge("server_active_connections", "Connections currently served."),
            shed_connections_total: registry.counter(
                "server_shed_connections_total",
                "Connections refused by the connection limit.",
            ),
            statements_total: registry.counter(
                "server_statements_total",
                "Statements admitted for execution.",
            ),
            shed_statements_total: registry.counter(
                "server_shed_statements_total",
                "Statements refused by queue-depth or latency gates.",
            ),
            inflight_statements: registry.gauge(
                "server_inflight_statements",
                "Statements currently executing or queued.",
            ),
            statement_ns: registry.histogram(
                "server_statement_ns",
                "Statement service time in nanoseconds, admission to final frame.",
                LATENCY_BUCKETS_NS,
            ),
            frames_in_total: registry.counter("server_frames_in_total", "Request frames decoded."),
            frames_out_total: registry
                .counter("server_frames_out_total", "Response frames written."),
            metrics_scrapes_total: registry.counter(
                "server_metrics_scrapes_total",
                "HTTP /metrics scrapes served.",
            ),
            registry,
        }
    }
}

/// Shared admission state: the gates plus the metrics they update.
pub struct Admission {
    config: AdmissionConfig,
    metrics: ServerMetrics,
    active_connections: AtomicU64,
    inflight: AtomicU64,
    governor: Mutex<GovernorWindow>,
}

/// The latency governor's sliding view over the cumulative
/// `server_statement_ns` histogram: bucket counts snapshotted at the
/// start of the current window, so quantiles can be computed over the
/// difference (= observations made during the window alone).
struct GovernorWindow {
    /// Cumulative `(bound, count)` pairs at the window start.
    base: Vec<(u64, u64)>,
    started: Instant,
}

/// RAII slot for one admitted connection; releasing it reopens the gate.
pub struct ConnSlot {
    admission: Arc<Admission>,
}

/// RAII slot for one admitted statement.
pub struct StatementSlot {
    admission: Arc<Admission>,
}

impl std::fmt::Debug for ConnSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ConnSlot")
    }
}

impl std::fmt::Debug for StatementSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StatementSlot")
    }
}

impl Admission {
    /// Build admission state over `config`, registering metric
    /// families in `registry` — or, when an earlier server on the same
    /// registry already did, counting on into those.
    pub fn new(config: AdmissionConfig, registry: Arc<MetricsRegistry>) -> Arc<Admission> {
        let metrics = ServerMetrics::register(registry);
        // An earlier server's observations are not this governor's.
        let base = metrics.statement_ns.cumulative();
        Arc::new(Admission {
            config,
            metrics,
            active_connections: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            governor: Mutex::new(GovernorWindow {
                base,
                started: Instant::now(),
            }),
        })
    }

    /// The configuration this server runs under.
    pub fn config(&self) -> &AdmissionConfig {
        &self.config
    }

    /// The server metric families.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Gate 1: claim a connection slot, or shed.
    pub fn admit_connection(self: &Arc<Admission>) -> Result<ConnSlot, DbError> {
        self.metrics.connections_total.inc();
        let limit = self.config.max_connections as u64;
        let mut held = self.active_connections.load(Ordering::Relaxed);
        loop {
            if held >= limit {
                self.metrics.shed_connections_total.inc();
                return Err(DbError::Shed(format!(
                    "connection limit of {limit} reached; retry after backoff"
                )));
            }
            match self.active_connections.compare_exchange_weak(
                held,
                held + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => held = now,
            }
        }
        self.metrics.active_connections.inc();
        Ok(ConnSlot {
            admission: Arc::clone(self),
        })
    }

    /// Gates 2 and 3: claim a statement slot, or shed.
    pub fn admit_statement(self: &Arc<Admission>) -> Result<StatementSlot, DbError> {
        let limit = self.config.queue_depth as u64;
        let mut held = self.inflight.load(Ordering::Relaxed);
        loop {
            if held >= limit {
                self.metrics.shed_statements_total.inc();
                return Err(DbError::Shed(format!(
                    "statement queue depth of {limit} reached; retry after backoff"
                )));
            }
            match self.inflight.compare_exchange_weak(
                held,
                held + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => held = now,
            }
        }
        // The latency governor runs after the queue-depth CAS, so a
        // shed here must hand the claimed count back itself (the gauge
        // has not been touched yet — only the raw counter).
        if let Some(ceiling) = self.config.shed_p99_ns {
            if let Some(p99) = self.windowed_p99() {
                if p99 > ceiling {
                    self.metrics.shed_statements_total.inc();
                    self.inflight.fetch_sub(1, Ordering::AcqRel);
                    return Err(DbError::Shed(format!(
                        "p99 statement latency {p99}ns exceeds governor ceiling \
                         {ceiling}ns; retry after backoff"
                    )));
                }
            }
        }
        self.metrics.inflight_statements.inc();
        self.metrics.statements_total.inc();
        Ok(StatementSlot {
            admission: Arc::clone(self),
        })
    }

    /// The p99 of statement latencies observed during the current
    /// governor window, or `None` if the window has none yet.
    ///
    /// `server_statement_ns` is cumulative and never resets, so the
    /// governor snapshots its bucket counts each time a window
    /// elapses and takes quantiles over the difference. Rotation
    /// empties the view, which is exactly what lets a tripped
    /// governor recover: shed statements never execute and so add no
    /// observations — against all-time counts the estimate would be
    /// frozen and the server would refuse work forever, while against
    /// a fresh window the estimate is `None`, a probe trickle is
    /// admitted, and shedding resumes only if *those* statements blow
    /// the tail again.
    fn windowed_p99(&self) -> Option<u64> {
        let mut window = self.governor.lock().unwrap();
        let current = self.metrics.statement_ns.cumulative();
        if window.started.elapsed() >= self.config.governor_window {
            window.base = current.clone();
            window.started = Instant::now();
        }
        let base_total = window.base.last().map_or(0, |&(_, c)| c);
        let total = current.last().map_or(0, |&(_, c)| c) - base_total;
        if total == 0 {
            return None;
        }
        let rank = (0.99 * total as f64).ceil().max(1.0) as u64;
        current
            .iter()
            .enumerate()
            .find(|&(i, &(_, cum))| {
                let b = window.base.get(i).map_or(0, |&(_, c)| c);
                cum - b >= rank
            })
            .map(|(_, &(bound, _))| bound)
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.admission
            .active_connections
            .fetch_sub(1, Ordering::AcqRel);
        self.admission.metrics.active_connections.dec();
    }
}

impl Drop for StatementSlot {
    fn drop(&mut self) {
        self.admission.inflight.fetch_sub(1, Ordering::AcqRel);
        self.admission.metrics.inflight_statements.dec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admission(max_conns: usize, depth: usize) -> Arc<Admission> {
        Admission::new(
            AdmissionConfig {
                max_connections: max_conns,
                queue_depth: depth,
                shed_p99_ns: None,
                lock_timeout: Duration::from_millis(10),
                ..AdmissionConfig::default()
            },
            Arc::new(MetricsRegistry::new()),
        )
    }

    #[test]
    fn connection_limit_sheds_and_recovers() {
        let adm = admission(2, 8);
        let a = adm.admit_connection().unwrap();
        let _b = adm.admit_connection().unwrap();
        let refused = adm.admit_connection().unwrap_err();
        assert_eq!(refused.code(), 2002);
        assert!(refused.is_retryable());
        drop(a);
        adm.admit_connection().unwrap();
        assert_eq!(adm.metrics().shed_connections_total.get(), 1);
        assert_eq!(adm.metrics().connections_total.get(), 4);
    }

    #[test]
    fn queue_depth_sheds_statements() {
        let adm = admission(8, 1);
        let slot = adm.admit_statement().unwrap();
        let refused = adm.admit_statement().unwrap_err();
        assert_eq!(refused.code(), 2002);
        drop(slot);
        let _held = adm.admit_statement().unwrap();
        assert_eq!(adm.metrics().statements_total.get(), 2);
        assert_eq!(adm.metrics().shed_statements_total.get(), 1);
        assert_eq!(adm.metrics().inflight_statements.get(), 1);
    }

    #[test]
    fn latency_governor_sheds_when_tail_blows() {
        let adm = Admission::new(
            AdmissionConfig {
                // Above the histogram's smallest bucket bound (1024ns),
                // so a fast workload's estimate stays under it.
                shed_p99_ns: Some(2_000),
                ..AdmissionConfig::default()
            },
            Arc::new(MetricsRegistry::new()),
        );
        // Tail under the ceiling: admitted.
        for _ in 0..100 {
            adm.metrics().statement_ns.observe(100);
        }
        adm.admit_statement().unwrap();
        // Blow the tail far past the ceiling: shed, with no slot leak.
        for _ in 0..1_000 {
            adm.metrics().statement_ns.observe(50_000_000);
        }
        let before = adm.inflight.load(Ordering::Relaxed);
        let refused = adm.admit_statement().unwrap_err();
        assert_eq!(refused.code(), 2002);
        assert!(refused.is_retryable());
        assert_eq!(adm.inflight.load(Ordering::Relaxed), before);
    }

    #[test]
    fn latency_governor_recovers_after_the_window_rotates() {
        let adm = Admission::new(
            AdmissionConfig {
                shed_p99_ns: Some(2_000),
                governor_window: Duration::from_millis(20),
                ..AdmissionConfig::default()
            },
            Arc::new(MetricsRegistry::new()),
        );
        // A blown tail trips the governor, repeatedly, within the
        // window — even though shed statements add no observations.
        for _ in 0..1_000 {
            adm.metrics().statement_ns.observe(50_000_000);
        }
        assert_eq!(adm.admit_statement().unwrap_err().code(), 2002);
        assert_eq!(adm.admit_statement().unwrap_err().code(), 2002);
        // Once the window elapses the stale estimate is discarded and
        // the gate reopens — no permanent latch on all-time history.
        std::thread::sleep(Duration::from_millis(30));
        let probe = adm.admit_statement().expect("governor must unlatch");
        drop(probe);
        // Fresh observations in the new window can trip it again.
        for _ in 0..1_000 {
            adm.metrics().statement_ns.observe(50_000_000);
        }
        assert_eq!(adm.admit_statement().unwrap_err().code(), 2002);
    }
}
