//! Database-level observability: the metrics bundle every layer
//! registers into, and the statement-verb taxonomy.
//!
//! One [`DbMetrics`] lives on the [`crate::Database`] when metrics are
//! enabled (the default). Construction registers the session-layer
//! instruments (`db_*`) and collects the handles the hot path bumps;
//! storage and executor instruments are registered onto the same
//! registry by their own crates. See `docs/OBSERVABILITY.md` for the
//! full catalogue.

use std::sync::Arc;

use excess_exec::ExecMetrics;
use excess_lang::Stmt;
use exodus_obs::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BUCKETS_NS};

/// Statement verbs with a dedicated `db_statements_<verb>_total`
/// counter. Everything else (DDL, grants, ranges, ...) lands in
/// `other`.
pub(crate) const VERBS: [&str; 8] = [
    "retrieve", "append", "delete", "replace", "execute", "explain", "observe", "other",
];

/// Index into [`VERBS`] / [`DbMetrics::statements_by_verb`] for a
/// statement.
pub(crate) fn verb_index(stmt: &Stmt) -> usize {
    match stmt {
        Stmt::Retrieve { .. } => 0,
        Stmt::Append { .. } => 1,
        Stmt::Delete { .. } => 2,
        Stmt::Replace { .. } => 3,
        Stmt::Execute { .. } => 4,
        Stmt::Explain { .. } => 5,
        Stmt::Observe { .. } => 6,
        _ => 7,
    }
}

/// The database's metric handles plus the registry they live in.
pub(crate) struct DbMetrics {
    /// The registry all layers register into; [`crate::Database::metrics_snapshot`]
    /// reads it.
    pub(crate) registry: Arc<MetricsRegistry>,
    /// Executor instruments, shared with every statement's `ExecCtx`.
    pub(crate) exec: Arc<ExecMetrics>,
    /// Statements executed (any verb, successful or not).
    pub(crate) statements: Arc<Counter>,
    /// Per-verb statement counters, indexed by [`verb_index`].
    pub(crate) statements_by_verb: [Arc<Counter>; VERBS.len()],
    /// Statements that returned an error.
    pub(crate) errors: Arc<Counter>,
    /// Currently open sessions.
    pub(crate) active_sessions: Arc<Gauge>,
    /// Wall-clock statement latency.
    pub(crate) statement_ns: Arc<Histogram>,
    /// Statements that entered the slow-query log.
    pub(crate) slow_queries: Arc<Counter>,
    /// Cacheable retrieves that ran a session's cached plan.
    pub(crate) stmt_cache_hits: Arc<Counter>,
    /// Cacheable retrieves that were checked and planned afresh.
    pub(crate) stmt_cache_misses: Arc<Counter>,
}

impl DbMetrics {
    /// Register the session layer's instruments on `registry` (the
    /// storage and executor instruments are assumed to be registered by
    /// their own layers).
    pub(crate) fn register(registry: Arc<MetricsRegistry>, exec: Arc<ExecMetrics>) -> DbMetrics {
        let statements_by_verb = VERBS.map(|verb| {
            registry.counter(
                &format!("db_statements_{verb}_total"),
                &format!("Statements executed with the {verb} verb."),
            )
        });
        DbMetrics {
            statements: registry.counter(
                "db_statements_total",
                "Statements executed (any verb, successful or not).",
            ),
            statements_by_verb,
            errors: registry.counter("db_errors_total", "Statements that returned an error."),
            active_sessions: registry.gauge("db_active_sessions", "Currently open sessions."),
            statement_ns: registry.histogram(
                "db_statement_ns",
                "Wall-clock statement latency.",
                LATENCY_BUCKETS_NS,
            ),
            slow_queries: registry.counter(
                "db_slow_queries_total",
                "Statements that entered the slow-query log.",
            ),
            stmt_cache_hits: registry.counter(
                "db_statement_cache_hits_total",
                "Single retrieves that ran the plan their session cached for their shape.",
            ),
            stmt_cache_misses: registry.counter(
                "db_statement_cache_misses_total",
                "Single retrieves whose shape their session checked and planned afresh.",
            ),
            exec,
            registry,
        }
    }
}
