//! Queryable system introspection: the `sys.*` virtual collections.
//!
//! Every database exposes a read-only `sys` schema of *virtual
//! collections* — `sys.metrics`, `sys.sessions`, `sys.transactions`,
//! `sys.collections`, `sys.slow_queries`, `sys.trace_spans`,
//! `sys.replication` — materialized on demand from live engine state
//! and queryable with ordinary EXCESS:
//!
//! ```text
//! retrieve (m in sys.metrics) where m.name = "db_statements_total"
//! ```
//!
//! A `SystemView` is a row provider: it declares a tuple schema once
//! and produces a `Vec<Value>` of tuple rows when scanned. The planner
//! compiles a range over `sys.<name>` into a dedicated `SystemScan`
//! leaf whose cursor loads the provider's rows exactly once per open —
//! that single load *is* the view's consistent snapshot — so filters,
//! projections, aggregates, `explain analyze` and `observe` compose
//! over system views exactly as over stored collections.
//!
//! Design constraints the providers honor:
//!
//! * **No catalog re-entry.** A provider runs under the statement's
//!   already-held shared catalog lock, so it receives the catalog by
//!   reference in `SysCtx` and must never call `db.catalog.read()`
//!   itself (read-recursion on a `parking_lot` lock can deadlock
//!   behind a queued writer).
//! * **No blocking on foreign locks.** `sys.replication` peeks at the
//!   source slot with `try_lock`: a replication poll holding that
//!   mutex must never be able to deadlock (or even stall) an
//!   introspection query.
//! * **Read-only and privilege-free.** System views surface operational
//!   state, not stored data; scanning one requires no object privilege
//!   and works on read replicas (introspection is never refused with
//!   the replica's `ReadOnly` error).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use excess_sema::SystemViewDef;
use exodus_obs::SampleValue;
use extra_model::{Attribute, QualType, Type, Value};
use parking_lot::Mutex;

use crate::catalog::Catalog;
use crate::database::Database;

fn int8() -> Type {
    Type::Base(extra_model::BaseType::Int8)
}

/// Per-scan context handed to a [`SystemView`]: the database and the
/// catalog view the running statement already holds. Providers read
/// `cat` instead of re-locking `db.catalog` (see the module docs).
pub(crate) struct SysCtx<'a> {
    /// The database whose state is being introspected.
    pub(crate) db: &'a Database,
    /// The catalog as seen by the running statement.
    pub(crate) cat: &'a Catalog,
}

/// A provider of one `sys.<name>` virtual collection: a fixed tuple
/// schema plus a row materializer invoked once per scan open.
///
/// Rows must be [`Value::Tuple`]s matching [`SystemView::fields`] in
/// declaration order. Providers should return rows in a deterministic
/// order (sorted by a natural key) so identical queries produce
/// identical row orders at any degree of parallelism.
pub(crate) trait SystemView: Send + Sync {
    /// The collection's name, without the `sys.` prefix.
    fn name(&self) -> &'static str;
    /// One-line description (surfaced in docs and error messages).
    fn help(&self) -> &'static str;
    /// The element tuple's attributes, in declaration order.
    fn fields(&self) -> Vec<Attribute>;
    /// Materialize the rows — one consistent snapshot per call.
    fn rows(&self, cx: &SysCtx<'_>) -> Vec<Value>;
}

impl dyn SystemView {
    /// The sema-facing definition: name plus owned tuple element type.
    pub(crate) fn def(&self) -> SystemViewDef {
        SystemViewDef {
            name: self.name().to_string(),
            elem: QualType::own(Type::Tuple(self.fields())),
        }
    }
}

// ---------------------------------------------------------------------------
// Session registry (feeds sys.sessions).
// ---------------------------------------------------------------------------

/// Live state of one open session, shared between the session itself
/// (which bumps `statements`) and annotators like the wire server
/// (which set `peer` and `state`).
pub struct SessionInfo {
    /// Process-unique session id (also the slow-query log's
    /// attribution key).
    pub id: u64,
    /// The session's user.
    pub user: String,
    /// Remote peer address, set by the server for wire sessions;
    /// `None` for in-process sessions.
    peer: Mutex<Option<String>>,
    /// Statements executed by this session.
    statements: AtomicU64,
    /// Admission / lifecycle state (`"open"`, `"admitted"`,
    /// `"draining"`, ...), annotated by the owning layer.
    state: Mutex<String>,
}

impl SessionInfo {
    /// Statements executed so far.
    pub fn statements(&self) -> u64 {
        self.statements.load(Ordering::Relaxed)
    }

    pub(crate) fn bump_statements(&self) {
        self.statements.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn set_peer(&self, peer: Option<String>) {
        *self.peer.lock() = peer;
    }

    pub(crate) fn set_state(&self, state: &str) {
        let mut s = self.state.lock();
        s.clear();
        s.push_str(state);
    }
}

/// The database-wide registry of open sessions behind `sys.sessions`.
#[derive(Default)]
pub struct SessionRegistry {
    next: AtomicU64,
    sessions: Mutex<Vec<Arc<SessionInfo>>>,
}

impl SessionRegistry {
    pub(crate) fn register(&self, user: &str) -> Arc<SessionInfo> {
        let info = Arc::new(SessionInfo {
            id: self.next.fetch_add(1, Ordering::Relaxed) + 1,
            user: user.to_string(),
            peer: Mutex::new(None),
            statements: AtomicU64::new(0),
            state: Mutex::new("open".to_string()),
        });
        self.sessions.lock().push(info.clone());
        info
    }

    pub(crate) fn unregister(&self, id: u64) {
        let mut sessions = self.sessions.lock();
        if let Some(i) = sessions.iter().position(|s| s.id == id) {
            sessions.swap_remove(i);
        }
    }

    /// All open sessions, sorted by id.
    pub(crate) fn snapshot(&self) -> Vec<Arc<SessionInfo>> {
        let mut out = self.sessions.lock().clone();
        out.sort_by_key(|s| s.id);
        out
    }
}

// ---------------------------------------------------------------------------
// The built-in providers.
// ---------------------------------------------------------------------------

/// `sys.metrics`: one row per registered metric family, name-sorted.
/// Counters and gauges carry their value in both `value` and `count`;
/// histograms surface their sum in `value` and their observation count
/// in `count`. Empty when the database was built with metrics off.
struct MetricsView;

impl SystemView for MetricsView {
    fn name(&self) -> &'static str {
        "metrics"
    }
    fn help(&self) -> &'static str {
        "every registered metric family: name, kind, value, count, help"
    }
    fn fields(&self) -> Vec<Attribute> {
        vec![
            Attribute::own("name", Type::varchar()),
            Attribute::own("kind", Type::varchar()),
            Attribute::own("value", Type::float8()),
            Attribute::own("count", int8()),
            Attribute::own("help", Type::varchar()),
        ]
    }
    fn rows(&self, cx: &SysCtx<'_>) -> Vec<Value> {
        let Some(snap) = cx.db.metrics_snapshot() else {
            return Vec::new();
        };
        snap.metrics
            .into_iter()
            .map(|m| {
                let (kind, value, count) = match &m.value {
                    SampleValue::Counter(v) => ("counter", *v as f64, *v as i64),
                    SampleValue::Gauge(v) => ("gauge", *v as f64, *v),
                    SampleValue::Histogram { sum, count, .. } => {
                        ("histogram", *sum as f64, *count as i64)
                    }
                };
                Value::Tuple(vec![
                    Value::str(&m.name),
                    Value::str(kind),
                    Value::Float(value),
                    Value::Int(count),
                    Value::str(&m.help),
                ])
            })
            .collect()
    }
}

/// `sys.sessions`: one row per open session, sorted by id. Wire
/// sessions carry the peer address and admission state the server
/// annotated; in-process sessions show kind `local` and a null peer.
struct SessionsView;

impl SystemView for SessionsView {
    fn name(&self) -> &'static str {
        "sessions"
    }
    fn help(&self) -> &'static str {
        "every open session: id, user_name, kind, peer, statements, state"
    }
    fn fields(&self) -> Vec<Attribute> {
        vec![
            Attribute::own("id", int8()),
            // `user` is a reserved word in EXCESS (`grant ... to user`),
            // so the attribute is `user_name`.
            Attribute::own("user_name", Type::varchar()),
            Attribute::own("kind", Type::varchar()),
            Attribute::own("peer", Type::varchar()),
            Attribute::own("statements", int8()),
            Attribute::own("state", Type::varchar()),
        ]
    }
    fn rows(&self, cx: &SysCtx<'_>) -> Vec<Value> {
        cx.db
            .sessions
            .snapshot()
            .into_iter()
            .map(|s| {
                let peer = s.peer.lock().clone();
                let kind = if peer.is_some() { "wire" } else { "local" };
                Value::Tuple(vec![
                    Value::Int(s.id as i64),
                    Value::str(&s.user),
                    Value::str(kind),
                    peer.map(|p| Value::str(&p)).unwrap_or(Value::Null),
                    Value::Int(s.statements() as i64),
                    Value::str(&s.state.lock()),
                ])
            })
            .collect()
    }
}

/// `sys.transactions`: a single row of transaction-manager state —
/// logical clock, the current writer's timestamp (null when idle), the
/// snapshot watermark, and lifetime commit/abort/park totals.
struct TransactionsView;

impl SystemView for TransactionsView {
    fn name(&self) -> &'static str {
        "transactions"
    }
    fn help(&self) -> &'static str {
        "transaction-manager state: clock, writer, watermark, totals"
    }
    fn fields(&self) -> Vec<Attribute> {
        vec![
            Attribute::own("clock", int8()),
            Attribute::own("write_ts", int8()),
            Attribute::own("watermark", int8()),
            Attribute::own("active_snapshots", int8()),
            Attribute::own("committed", int8()),
            Attribute::own("aborted", int8()),
            Attribute::own("parked", int8()),
            Attribute::own("pending_reclaims", int8()),
        ]
    }
    fn rows(&self, cx: &SysCtx<'_>) -> Vec<Value> {
        let txn = cx.db.store.storage().txn().clone();
        vec![Value::Tuple(vec![
            Value::Int(txn.clock() as i64),
            txn.current_write_ts()
                .map(|ts| Value::Int(ts as i64))
                .unwrap_or(Value::Null),
            Value::Int(txn.watermark() as i64),
            Value::Int(txn.active_count() as i64),
            Value::Int(txn.committed_total() as i64),
            Value::Int(txn.aborted_total() as i64),
            Value::Int(txn.parked_total() as i64),
            Value::Int(txn.pending_reclaims() as i64),
        ])]
    }
}

/// `sys.collections`: one row per named top-level collection, sorted
/// by name, with live member count and recorded `analyze` statistics —
/// `fresh` says whether the stats' row count still matches the live
/// member count.
struct CollectionsView;

impl SystemView for CollectionsView {
    fn name(&self) -> &'static str {
        "collections"
    }
    fn help(&self) -> &'static str {
        "named collections with member counts and analyze-stats freshness"
    }
    fn fields(&self) -> Vec<Attribute> {
        vec![
            Attribute::own("name", Type::varchar()),
            Attribute::own("members", int8()),
            Attribute::own("analyzed", Type::boolean()),
            Attribute::own("analyzed_rows", int8()),
            Attribute::own("stats_attrs", int8()),
            Attribute::own("fresh", Type::boolean()),
        ]
    }
    fn rows(&self, cx: &SysCtx<'_>) -> Vec<Value> {
        let mut names: Vec<&String> = cx
            .cat
            .named
            .iter()
            .filter(|(_, o)| o.is_collection)
            .map(|(n, _)| n)
            .collect();
        names.sort();
        names
            .into_iter()
            .map(|name| {
                let obj = &cx.cat.named[name];
                let members = cx.db.store.member_count(obj.oid).unwrap_or(0) as i64;
                let stats = cx.cat.stats.get(name);
                let (analyzed, rows, attrs) = match stats {
                    Some(s) => (true, s.row_count as i64, s.attrs.len() as i64),
                    None => (false, 0, 0),
                };
                Value::Tuple(vec![
                    Value::str(name),
                    Value::Int(members),
                    Value::Bool(analyzed),
                    if analyzed {
                        Value::Int(rows)
                    } else {
                        Value::Null
                    },
                    Value::Int(attrs),
                    Value::Bool(analyzed && rows == members),
                ])
            })
            .collect()
    }
}

/// `sys.slow_queries`: the slow-query log, slowest first, each entry
/// attributed to its originating session id and statement verb. Empty
/// unless the database was built with tracing on.
struct SlowQueriesView;

impl SystemView for SlowQueriesView {
    fn name(&self) -> &'static str {
        "slow_queries"
    }
    fn help(&self) -> &'static str {
        "over-threshold statements, slowest first, with session and verb"
    }
    fn fields(&self) -> Vec<Attribute> {
        vec![
            Attribute::own("statement", Type::varchar()),
            Attribute::own("verb", Type::varchar()),
            Attribute::own("session", int8()),
            Attribute::own("elapsed_ns", int8()),
        ]
    }
    fn rows(&self, cx: &SysCtx<'_>) -> Vec<Value> {
        cx.db
            .slow_queries()
            .into_iter()
            .map(|q| {
                Value::Tuple(vec![
                    Value::str(&q.statement),
                    Value::str(q.verb),
                    Value::Int(q.session_id as i64),
                    Value::Int(q.elapsed_ns as i64),
                ])
            })
            .collect()
    }
}

/// `sys.trace_spans`: the tracer's retained spans, oldest first
/// (children complete before their parents). Empty unless the database
/// was built with tracing on.
struct TraceSpansView;

impl SystemView for TraceSpansView {
    fn name(&self) -> &'static str {
        "trace_spans"
    }
    fn help(&self) -> &'static str {
        "completed tracing spans, oldest first"
    }
    fn fields(&self) -> Vec<Attribute> {
        vec![
            Attribute::own("id", int8()),
            Attribute::own("parent", int8()),
            Attribute::own("name", Type::varchar()),
            Attribute::own("detail", Type::varchar()),
            Attribute::own("start_ns", int8()),
            Attribute::own("elapsed_ns", int8()),
        ]
    }
    fn rows(&self, cx: &SysCtx<'_>) -> Vec<Value> {
        cx.db
            .trace_spans()
            .into_iter()
            .map(|s| {
                Value::Tuple(vec![
                    Value::Int(s.id as i64),
                    s.parent
                        .map(|p| Value::Int(p as i64))
                        .unwrap_or(Value::Null),
                    Value::str(s.name),
                    Value::str(&s.detail),
                    Value::Int(s.start_ns as i64),
                    Value::Int(s.elapsed_ns as i64),
                ])
            })
            .collect()
    }
}

/// `sys.replication`: one row describing this database's replication
/// role. On a replica: the replay horizon, current lag, and the
/// configured shed limit. On a primary with live subscribers: the
/// durable frontier and shipped totals. Fields that do not apply to
/// the role are null. The source slot is inspected with `try_lock`
/// only — never blocking behind a replication poll.
struct ReplicationView;

impl SystemView for ReplicationView {
    fn name(&self) -> &'static str {
        "replication"
    }
    fn help(&self) -> &'static str {
        "replication role and progress: horizon/lag or shipped frontier"
    }
    fn fields(&self) -> Vec<Attribute> {
        vec![
            Attribute::own("role", Type::varchar()),
            Attribute::own("horizon", int8()),
            Attribute::own("lag", int8()),
            Attribute::own("max_lag", int8()),
            Attribute::own("durable_lsn", int8()),
            Attribute::own("shipped_records", int8()),
            Attribute::own("shipped_bytes", int8()),
        ]
    }
    fn rows(&self, cx: &SysCtx<'_>) -> Vec<Value> {
        if let Some(state) = &cx.db.replica {
            return vec![Value::Tuple(vec![
                Value::str("replica"),
                Value::Int(state.horizon.load(Ordering::SeqCst) as i64),
                Value::Int(state.lag.load(Ordering::SeqCst) as i64),
                state
                    .max_lag
                    .map(|l| Value::Int(l as i64))
                    .unwrap_or(Value::Null),
                Value::Null,
                Value::Null,
                Value::Null,
            ])];
        }
        // Primary side: peek at the source without blocking. A held
        // lock (a replication poll in flight) or no live source both
        // report a bare primary row.
        let source = cx.db.repl.try_lock().and_then(|slot| slot.source.upgrade());
        match source {
            Some(src) => vec![Value::Tuple(vec![
                Value::str("primary"),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Int(src.durable_lsn() as i64),
                Value::Int(src.shipped_records() as i64),
                Value::Int(src.shipped_bytes() as i64),
            ])],
            None => vec![Value::Tuple(vec![
                Value::str("primary"),
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
                Value::Null,
            ])],
        }
    }
}

// ---------------------------------------------------------------------------
// Registry plumbing on Database.
// ---------------------------------------------------------------------------

/// Every `sys.*` provider, in declaration order.
static SYSTEM_VIEWS: &[&dyn SystemView] = &[
    &MetricsView,
    &SessionsView,
    &TransactionsView,
    &CollectionsView,
    &SlowQueriesView,
    &TraceSpansView,
    &ReplicationView,
];

fn system_view(name: &str) -> Option<&'static dyn SystemView> {
    SYSTEM_VIEWS.iter().copied().find(|v| v.name() == name)
}

impl Database {
    /// The definition of `sys.<name>`, if there is such a view.
    pub(crate) fn system_view_def(&self, name: &str) -> Option<SystemViewDef> {
        system_view(name).map(|v| v.def())
    }

    /// Every system view's definition.
    pub(crate) fn system_view_defs(&self) -> Vec<SystemViewDef> {
        SYSTEM_VIEWS.iter().map(|v| v.def()).collect()
    }

    /// Every system view's name, help line, and fields (drives the
    /// documentation and the docs drift gate).
    pub fn system_view_schemas(&self) -> Vec<(String, String, Vec<Attribute>)> {
        SYSTEM_VIEWS
            .iter()
            .map(|v| (v.name().to_string(), v.help().to_string(), v.fields()))
            .collect()
    }

    /// Materialize `sys.<name>`'s rows against `cat` — one consistent
    /// snapshot per call (the scan cursor calls this exactly once per
    /// open).
    pub(crate) fn system_view_rows_with(&self, cat: &Catalog, name: &str) -> Option<Vec<Value>> {
        let cx = SysCtx { db: self, cat };
        system_view(name).map(|v| v.rows(&cx))
    }

    /// Validate that every view's rows match its declared schema arity
    /// (used by tests).
    #[doc(hidden)]
    pub fn check_system_views(self: &Arc<Self>) -> Result<(), String> {
        let cat = self.catalog.read();
        let cx = SysCtx {
            db: self,
            cat: &cat,
        };
        for v in SYSTEM_VIEWS {
            let arity = v.fields().len();
            for row in v.rows(&cx) {
                match row {
                    Value::Tuple(fields) if fields.len() == arity => {}
                    other => {
                        return Err(format!(
                            "sys.{}: row {other:?} does not match the declared arity {arity}",
                            v.name(),
                        ))
                    }
                }
            }
        }
        Ok(())
    }
}
