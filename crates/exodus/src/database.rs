//! The `Database` facade and `Session`s.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use excess_exec::{QueryProfile, QueryResult};
use excess_lang::ops::OpAssoc;
use excess_lang::{parse_program, AttrDecl, InheritClause, OperatorTable, Param, Privilege, Stmt};
use excess_sema::lower::lower_qual;
use excess_sema::{
    AttrStats, CollectionStats, FunctionDef, IndexInfo, NamedObject, ProcedureDef, RangeEnv,
    SemaCtx, HISTOGRAM_BUCKETS,
};
use exodus_obs::{
    MetricsRegistry, MetricsSnapshot, RingTracer, SlowQuery, SlowQueryLog, Span, SpanGuard,
    TraceConfig,
};
use exodus_storage::btree::BTree;
use exodus_storage::{Durability, Oid, RecoveryReport, StorageManager, WriteTxn};
use extra_model::adt::Assoc;
use extra_model::schema::InheritSpec;
use extra_model::{AdtType, Attribute, ObjectStore, Ownership, QualType, Type, Value};

use crate::catalog::{genesis, write_image, Catalog, CatalogImage, CatalogView, ADMIN};
use crate::dml::{self, ExplainSink, Params, Scope};
use crate::error::{DbError, DbResult};
use crate::observe::{verb_index, DbMetrics};

/// Result of one statement.
#[derive(Debug)]
pub enum Response {
    /// A DDL/update acknowledgment.
    Done(String),
    /// Query rows.
    Rows(QueryResult),
    /// An `explain [analyze]` report.
    Explained(Explanation),
    /// An `observe <stmt>` report: the inner response plus the metric
    /// activity the statement caused.
    Observed(Observation),
}

impl Response {
    /// The rows, if this was a query (looking through `observe`).
    pub fn rows(self) -> Option<QueryResult> {
        match self {
            Response::Rows(r) => Some(r),
            Response::Observed(o) => o.response.rows(),
            Response::Done(_) | Response::Explained(_) => None,
        }
    }

    /// The explanation, if this was an `explain` (looking through
    /// `observe`).
    pub fn explanation(self) -> Option<Explanation> {
        match self {
            Response::Explained(e) => Some(e),
            Response::Observed(o) => o.response.explanation(),
            _ => None,
        }
    }

    /// The observation, if this was an `observe`.
    pub fn observation(self) -> Option<Observation> {
        match self {
            Response::Observed(o) => Some(o),
            _ => None,
        }
    }
}

/// What an `observe <stmt>` saw: the wrapped statement's response plus
/// the counters it moved (zero deltas omitted). Requires metrics
/// (`counters` is empty when the database was built with
/// [`DatabaseBuilder::metrics`] off).
#[derive(Debug)]
pub struct Observation {
    /// The wrapped statement's own response.
    pub response: Box<Response>,
    /// Wall-clock duration of the wrapped statement.
    pub elapsed_ns: u64,
    /// Counter deltas caused by the statement, sorted by name with
    /// zero deltas dropped.
    pub counters: Vec<(String, u64)>,
}

impl fmt::Display for Observation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "elapsed: {:.3} ms", self.elapsed_ns as f64 / 1e6)?;
        for (name, delta) in &self.counters {
            writeln!(f, "{name}: +{delta}")?;
        }
        Ok(())
    }
}

/// A structured `EXPLAIN` report: the optimizer's physical plan, plus —
/// for `EXPLAIN ANALYZE` — the observed per-operator execution profile.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The physical plan, rendered as an indented operator tree.
    pub plan: String,
    /// Per-operator metrics (`EXPLAIN ANALYZE` only).
    pub profile: Option<QueryProfile>,
}

impl fmt::Display for Explanation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The profile renders the same tree annotated with actuals, so
        // show it alone when present; the bare plan otherwise.
        match &self.profile {
            Some(p) => write!(f, "{p}"),
            None => f.write_str(self.plan.trim_end()),
        }
    }
}

/// An EXTRA/EXCESS database.
pub struct Database {
    pub(crate) store: ObjectStore,
    pub(crate) catalog: RwLock<Catalog>,
    pub(crate) ops: RwLock<OperatorTable>,
    pub(crate) batch_size: usize,
    pub(crate) worker_threads: usize,
    pub(crate) recovery: Option<RecoveryReport>,
    pub(crate) metrics: Option<DbMetrics>,
    pub(crate) tracer: Option<Arc<RingTracer>>,
    pub(crate) slow_log: Option<Arc<SlowQueryLog<QueryProfile>>>,
    /// The generation of the catalog image on the pages: bumped by
    /// every image [`Database::commit`] writes, adopted from the image
    /// on open, and compared by a replica after each replayed batch.
    pub(crate) catalog_epoch: AtomicU64,
    /// The object store's [`ObjectStore::image_shape`] as of the last
    /// committed catalog image: a writer that finds the store's tables
    /// grew or shrank since then rewrites the image.
    image_shape: parking_lot::Mutex<(usize, usize)>,
    /// The shared replication source, created on first
    /// [`Database::replication_source`] call and kept alive by its
    /// subscribers.
    pub(crate) repl: parking_lot::Mutex<crate::replication::SourceSlot>,
    /// Present iff this database is a read replica: the replay latch,
    /// horizon and lag the session layer consults on every statement.
    pub(crate) replica: Option<Arc<crate::replication::ReplicaState>>,
    /// Registry of open sessions, surfaced through `sys.sessions`.
    pub(crate) sessions: crate::sysview::SessionRegistry,
}

/// Configuration for a [`Database`], applied atomically at
/// [`DatabaseBuilder::build`]. Replaces the old mutable setters.
#[derive(Default)]
pub struct DatabaseBuilder {
    storage: Option<StorageManager>,
    path: Option<PathBuf>,
    durability: Option<Durability>,
    pool_pages: Option<usize>,
    batch_size: Option<usize>,
    worker_threads: Option<usize>,
    metrics: Option<bool>,
    trace: Option<TraceConfig>,
}

impl DatabaseBuilder {
    /// Storage manager to build over (file-backed, or an in-memory pool
    /// of a specific size). Defaults to an in-memory 4096-page pool.
    /// Mutually exclusive with [`DatabaseBuilder::path`].
    pub fn storage(mut self, sm: StorageManager) -> Self {
        self.storage = Some(sm);
        self
    }

    /// Open (or create) a file-backed database at `path`. Crash recovery
    /// runs before the first statement; inspect the outcome via
    /// [`Database::recovery`]. Defaults to [`Durability::Fsync`] unless
    /// [`DatabaseBuilder::durability`] says otherwise.
    pub fn path(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Durability level for a file-backed database (see
    /// [`exodus_storage::Durability`] for the exact contract):
    ///
    /// * [`Durability::None`] — no write-ahead log; crash loses
    ///   everything since the last explicit flush. The write path is
    ///   byte-identical to the pre-WAL engine (benchmarks use this).
    /// * [`Durability::Buffered`] — every update statement is logged and
    ///   survives a process crash, but not an OS crash or power loss.
    /// * [`Durability::Fsync`] — the log is fsynced at each statement
    ///   boundary; survives power loss.
    ///
    /// Requires [`DatabaseBuilder::path`].
    pub fn durability(mut self, level: Durability) -> Self {
        self.durability = Some(level);
        self
    }

    /// Buffer-pool size in pages for a [`DatabaseBuilder::path`]-opened
    /// database (default 4096).
    pub fn pool_pages(mut self, n: usize) -> Self {
        self.pool_pages = Some(n);
        self
    }

    /// Rows per execution batch. `1` degenerates to row-at-a-time
    /// iteration (useful for comparisons); the default is
    /// [`excess_exec::DEFAULT_BATCH_SIZE`]. Clamped to at least 1.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.batch_size = Some(n);
        self
    }

    /// Worker threads available to each query — its degree of
    /// parallelism. **DOP-1 determinism:** at the default of `1` every
    /// query runs entirely on the calling thread, so execution order
    /// (and thus any timing or buffer-pool counters) is fully
    /// deterministic; at higher values results are still merged in
    /// deterministic scan order, but thread scheduling varies. `0` is
    /// rejected by [`DatabaseBuilder::build`] — it is not a degree of
    /// parallelism (the old setter silently treated it as 1).
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.worker_threads = Some(n);
        self
    }

    /// System-wide metrics (the `exodus-obs` registry): WAL, buffer
    /// pool, recovery, executor and statement counters, readable via
    /// [`Database::metrics_snapshot`]. **On by default**; the enabled
    /// cost is a few relaxed atomic adds per statement/batch. Pass
    /// `false` for a zero-instrumentation build (snapshots return
    /// `None` and `observe` reports no counters).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = Some(on);
        self
    }

    /// Enable structured tracing spans and the slow-query log (see
    /// [`TraceConfig`]). Off by default. A traced database profiles
    /// every statement, so each [`QueryResult`] (`result.profile`) and
    /// each slow-query entry carries a full [`QueryProfile`].
    pub fn trace(mut self, config: TraceConfig) -> Self {
        self.trace = Some(config);
        self
    }

    /// Build the database.
    pub fn build(self) -> DbResult<Arc<Database>> {
        if self.worker_threads == Some(0) {
            return Err(DbError::Catalog(
                "worker_threads must be at least 1 (1 = run queries on the calling \
                 thread, deterministically)"
                    .into(),
            ));
        }
        if self.storage.is_some() && self.path.is_some() {
            return Err(DbError::Catalog(
                "storage(..) and path(..) are mutually exclusive; path opens its own \
                 storage manager"
                    .into(),
            ));
        }
        if self.path.is_none()
            && matches!(
                self.durability,
                Some(Durability::Buffered | Durability::Fsync)
            )
        {
            return Err(DbError::Catalog(
                "durability requires a file-backed database; set path(..)".into(),
            ));
        }
        let (sm, recovery) = match self.path {
            Some(path) => {
                let (sm, report) = StorageManager::open(
                    &path,
                    self.pool_pages.unwrap_or(4096),
                    self.durability.unwrap_or(Durability::Fsync),
                )?;
                (sm, Some(report))
            }
            None => {
                let sm = self
                    .storage
                    .unwrap_or_else(|| StorageManager::in_memory(self.pool_pages.unwrap_or(4096)));
                (sm, None)
            }
        };
        let mut db = Database::open(sm, recovery, None, self.metrics.unwrap_or(true), self.trace)?;
        if let Some(n) = self.batch_size {
            db.batch_size = n.max(1);
        }
        if let Some(n) = self.worker_threads {
            db.worker_threads = n;
        }
        Ok(Arc::new(db))
    }
}

impl Database {
    /// Configure a new database.
    pub fn builder() -> DatabaseBuilder {
        DatabaseBuilder::default()
    }

    /// An in-memory database with the built-in ADTs registered.
    pub fn in_memory() -> Arc<Database> {
        let sm = StorageManager::in_memory(4096);
        Arc::new(Self::open(sm, None, None, true, None).expect("in-memory genesis"))
    }

    /// Open a database over `sm` through the one catalog path: genesis
    /// on a volume no catalog image ever committed on (never on a
    /// replica, whose pages come from its primary), then — on every
    /// volume — the catalog image is read back from its pages and
    /// installed.
    pub(crate) fn open(
        sm: StorageManager,
        recovery: Option<RecoveryReport>,
        replica: Option<Arc<crate::replication::ReplicaState>>,
        metrics_on: bool,
        trace: Option<TraceConfig>,
    ) -> DbResult<Database> {
        if replica.is_none() && CatalogImage::never_written(&sm)? {
            genesis(&sm)?;
        }
        let image = CatalogImage::read(&sm)?;
        let store = ObjectStore::attach(sm, &image.roots);
        let db = Self::assemble(store, recovery, replica, metrics_on, trace);
        db.install(image)?;
        Ok(db)
    }

    /// The one catalog install path, for open and replica refresh
    /// alike: load the store's tables from the image, swap its catalog
    /// in, and adopt its generation.
    pub(crate) fn install(&self, image: CatalogImage) -> DbResult<()> {
        self.store.import_image(&image.store_image)?;
        *self.catalog.write() = image.catalog;
        self.catalog_epoch.store(image.generation, Ordering::SeqCst);
        *self.image_shape.lock() = self.store.image_shape();
        Ok(())
    }

    /// Commit a write transaction — the one place a catalog image is
    /// written. When `catalog_changed` (the statement was DDL, a grant,
    /// `analyze`...) or the store's tables changed since the last image
    /// committed (a nested `append` interned a new type), the image is
    /// rewritten inside the transaction first, so catalog and pages
    /// commit — or vanish — as one unit. The caller holds the writer
    /// gate and no catalog lock.
    fn commit(&self, txn: WriteTxn, catalog_changed: bool) -> DbResult<u64> {
        let shape = self.store.image_shape();
        if catalog_changed || shape != *self.image_shape.lock() {
            let generation = self.catalog_epoch.fetch_add(1, Ordering::SeqCst) + 1;
            let image = self.catalog.read().to_image(&self.store, generation);
            write_image(self.store.storage(), &image)?;
        }
        let ts = txn.commit()?;
        *self.image_shape.lock() = shape;
        Ok(ts)
    }

    fn assemble(
        store: ObjectStore,
        recovery: Option<RecoveryReport>,
        replica: Option<Arc<crate::replication::ReplicaState>>,
        metrics_on: bool,
        trace: Option<TraceConfig>,
    ) -> Database {
        let sm = store.storage().clone();
        let metrics = metrics_on.then(|| {
            let registry = Arc::new(MetricsRegistry::new());
            sm.register_metrics(&registry);
            if let Some(report) = &recovery {
                report.register_metrics(&registry);
            }
            let exec = excess_exec::ExecMetrics::register(&registry);
            DbMetrics::register(registry, exec)
        });
        let (tracer, slow_log) = match trace {
            Some(config) => {
                let tracer = Arc::new(RingTracer::new(config.span_capacity));
                if let Some(report) = &recovery {
                    // Recovery ran inside StorageManager::open, before
                    // any tracer existed; record it retroactively as an
                    // immediately-closed span carrying the report.
                    drop(tracer.start(
                        "recovery",
                        format!(
                            "scanned {} records, replayed {} units, rolled back {}",
                            report.records_scanned, report.units_replayed, report.units_rolled_back
                        ),
                    ));
                }
                let log = Arc::new(SlowQueryLog::new(
                    config.slow_query_threshold_ns,
                    config.slow_query_capacity,
                ));
                (Some(tracer), Some(log))
            }
            None => (None, None),
        };
        let catalog = Catalog::new();
        let mut ops = OperatorTable::new();
        sync_operators(&mut ops, &catalog.adts);
        Database {
            store,
            catalog: RwLock::new(catalog),
            ops: RwLock::new(ops),
            batch_size: excess_exec::DEFAULT_BATCH_SIZE,
            worker_threads: 1,
            recovery,
            metrics,
            tracer,
            slow_log,
            catalog_epoch: AtomicU64::new(0),
            image_shape: parking_lot::Mutex::new((0, 0)),
            repl: parking_lot::Mutex::new(crate::replication::SourceSlot::default()),
            replica,
            sessions: crate::sysview::SessionRegistry::default(),
        }
    }

    /// The crash-recovery report from opening a file-backed database via
    /// [`DatabaseBuilder::path`] (`None` for in-memory databases).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The storage durability level ([`Durability::None`] for in-memory
    /// databases and pre-WAL storage managers).
    pub fn durability(&self) -> Durability {
        self.store.storage().durability()
    }

    /// Force every dirty page to the volume, fsync it, and prune the
    /// write-ahead log to the records written since this call. The next
    /// open recovers from a (near-)empty log. No-op consistency-wise:
    /// an interrupted checkpoint changes no logical state.
    pub fn checkpoint(&self) -> DbResult<()> {
        if self.replica.is_some() {
            return Err(DbError::ReadOnly(
                "a replica checkpoints when the primary's checkpoint arrives in the \
                 replication stream; checkpoint the primary instead"
                    .into(),
            ));
        }
        self.store.storage().checkpoint()?;
        Ok(())
    }

    /// The object store.
    pub fn store(&self) -> &ObjectStore {
        &self.store
    }

    /// Read access to the catalog (benchmark harnesses and tools).
    pub fn read_catalog(&self) -> parking_lot::RwLockReadGuard<'_, Catalog> {
        self.catalog.read()
    }

    /// Bulk-append members to a named collection, bypassing the EXCESS
    /// layer (used by benchmark loaders). Members go through the same
    /// write as `append`, so integrity edges and the collection's
    /// indexes (keys included) are maintained; loading before
    /// `define index` still skips the per-member index work.
    pub fn bulk_append(&self, collection: &str, members: Vec<Value>) -> DbResult<Vec<Oid>> {
        if self.replica.is_some() {
            return Err(DbError::ReadOnly(
                "a read-only replica cannot load data; bulk-append on the primary".into(),
            ));
        }
        // The whole load is one write transaction (lock order: writer
        // slot before catalog), so readers either see none of the batch
        // or all of it. Resolve the collection only *after* the
        // transaction holds the writer gate and the catalog lock: a
        // resolution taken before the gate could race a concurrent
        // `destroy` and append into freed heap structures. An error
        // return aborts via the WriteTxn drop guard.
        let txn = self.store.storage().begin_txn()?;
        let cat = self.catalog.read();
        let obj = cat
            .named
            .get(collection)
            .cloned()
            .ok_or_else(|| DbError::Catalog(format!("no collection '{collection}'")))?;
        let elem = self.store.collection_elem(obj.oid)?;
        let (ranges, frame) = (RangeEnv::default(), Params::default());
        let snap = self.store.current_snap();
        let scope = Scope::new(self, &cat, &ranges, ADMIN, &frame, snap);
        // Resolved once, not per member: an unindexed load does no
        // index work at all.
        let indexes = scope.indexes_on(obj.oid)?;
        let mut oids = Vec::with_capacity(members.len());
        for mut m in members {
            // `own` members are stored as given (the loader vouches for
            // them); reference-mode members become objects.
            if elem.mode != Ownership::Own {
                m = scope.as_member(&elem, m)?;
                if let Value::Ref(oid) = &m {
                    oids.push(*oid);
                }
            }
            scope.insert_member(&indexes, obj.oid, m)?;
        }
        drop(cat);
        self.commit(txn, false)?;
        Ok(oids)
    }

    /// Rows per execution batch. `1` degenerates to row-at-a-time
    /// iteration (useful for comparisons); the default is
    /// [`excess_exec::DEFAULT_BATCH_SIZE`].
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Worker threads available to each query (degree of parallelism).
    pub fn worker_threads(&self) -> usize {
        self.worker_threads
    }

    /// The registry every layer registers its instruments into, for
    /// components that add their own metric families on top of the
    /// engine's (the wire-protocol server registers its `server_*`
    /// families here so one `/metrics` exposition covers the whole
    /// process). `None` when built with [`DatabaseBuilder::metrics`]
    /// off.
    pub fn metrics_registry(&self) -> Option<Arc<MetricsRegistry>> {
        self.metrics.as_ref().map(|m| m.registry.clone())
    }

    /// A point-in-time view of every registered metric — WAL, buffer
    /// pool, recovery, executor and statement instruments — in
    /// deterministic (name-sorted) order. `None` when the database was
    /// built with [`DatabaseBuilder::metrics`] off. Encode with
    /// [`MetricsSnapshot::to_prometheus`].
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(|m| m.registry.snapshot())
    }

    /// The slow-query log, slowest first: statements at or above the
    /// configured threshold, each with its [`QueryProfile`] (the profile
    /// renders the full annotated plan). Empty unless
    /// [`DatabaseBuilder::trace`] was set.
    pub fn slow_queries(&self) -> Vec<SlowQuery<QueryProfile>> {
        self.slow_log
            .as_ref()
            .map(|log| log.entries())
            .unwrap_or_default()
    }

    /// Completed tracing spans, oldest first (children complete before
    /// their parents). Empty unless [`DatabaseBuilder::trace`] was set.
    pub fn trace_spans(&self) -> Vec<Span> {
        self.tracer.as_ref().map(|t| t.spans()).unwrap_or_default()
    }

    /// Open a tracing span, if tracing is on. Bind the guard with a
    /// name (`let _span = ...`) — `_` drops it immediately.
    pub(crate) fn span(&self, name: &'static str, detail: impl Into<String>) -> Option<SpanGuard> {
        self.tracer.as_ref().map(|t| t.start(name, detail))
    }

    /// The executor's metric handles, cloned into each statement's
    /// `ExecCtx`.
    pub(crate) fn exec_metrics(&self) -> Option<std::sync::Arc<excess_exec::ExecMetrics>> {
        self.metrics.as_ref().map(|m| m.exec.clone())
    }

    /// Register a new ADT at runtime, extending the parser's operator
    /// table with the ADT's registered operators.
    pub fn register_adt(&self, adt: Arc<dyn AdtType>) -> DbResult<()> {
        if self.replica.is_some() {
            return Err(DbError::ReadOnly(
                "custom ADTs are not replicated; a replica resolves the built-in ADTs \
                 only (docs/REPLICATION.md)"
                    .into(),
            ));
        }
        // A write transaction of its own, so the image records the new
        // ADT id (a later open without the ADT then fails 1008).
        let txn = self.store.storage().begin_txn()?;
        {
            let mut cat = self.catalog.write();
            cat.adts.register(adt)?;
            sync_operators(&mut self.ops.write(), &cat.adts);
        }
        self.commit(txn, true)?;
        Ok(())
    }

    /// Open an admin session.
    pub fn session(self: &Arc<Self>) -> Session {
        self.session_as(ADMIN)
    }

    /// Open a session as a specific user.
    pub fn session_as(self: &Arc<Self>, user: &str) -> Session {
        if let Some(m) = &self.metrics {
            m.active_sessions.inc();
        }
        let info = self.sessions.register(user);
        Session {
            db: self.clone(),
            user: user.to_string(),
            ranges: RangeEnv::default(),
            txn: None,
            lock_timeout: None,
            info,
        }
    }

    /// One-shot convenience: run statements in a fresh admin session.
    pub fn run(self: &Arc<Self>, src: &str) -> DbResult<Vec<Response>> {
        self.session().run(src)
    }

    /// One-shot convenience: run and return the last statement's rows.
    pub fn query(self: &Arc<Self>, src: &str) -> DbResult<QueryResult> {
        self.session().query(src)
    }
}

pub(crate) fn sync_operators(ops: &mut OperatorTable, adts: &extra_model::AdtRegistry) {
    for (sym, prec, assoc, arity) in adts.operator_symbols() {
        let a = match assoc {
            Assoc::Left => OpAssoc::Left,
            Assoc::Right => OpAssoc::Right,
        };
        ops.register(sym, prec, a, arity == 1);
    }
}

/// A session: a user plus the session's `range of` declarations and, at
/// most, one open explicit transaction.
pub struct Session {
    db: Arc<Database>,
    /// The session's user.
    pub user: String,
    ranges: RangeEnv,
    /// The open explicit transaction (`begin` ... `commit`/`abort`).
    /// Holds the storage writer slot, so at most one session can have
    /// one at a time; everything the session executes while it is open
    /// runs at the transaction's own timestamp.
    txn: Option<exodus_storage::WriteTxn>,
    /// How long a write statement may wait on the storage writer gate
    /// before failing with the retryable [`DbError::Busy`]. `None`
    /// (the default) blocks indefinitely, preserving the historical
    /// in-process behavior; the server sets a bound so one remote
    /// client holding a transaction cannot wedge a service thread
    /// forever.
    lock_timeout: Option<std::time::Duration>,
    /// This session's row in the database's session registry (feeds
    /// `sys.sessions`); unregistered on drop.
    info: Arc<crate::sysview::SessionInfo>,
}

impl Drop for Session {
    fn drop(&mut self) {
        // An explicit transaction left open when the session dies is
        // aborted (the WriteTxn drop rolls it back and frees the writer
        // slot).
        self.txn = None;
        self.db.sessions.unregister(self.info.id);
        if let Some(m) = &self.db.metrics {
            m.active_sessions.dec();
        }
    }
}

impl Session {
    /// This session's process-unique id — the `id` attribute of its
    /// `sys.sessions` row and the attribution key in `sys.slow_queries`.
    pub fn session_id(&self) -> u64 {
        self.info.id
    }

    /// Annotate this session's `sys.sessions` row with the remote peer
    /// address (the wire server calls this; a set peer flips the row's
    /// `kind` from `local` to `wire`).
    pub fn set_peer(&self, peer: Option<String>) {
        self.info.set_peer(peer);
    }

    /// Annotate this session's `sys.sessions` row with an admission /
    /// lifecycle state (`"admitted"`, `"draining"`, ...).
    pub fn set_session_state(&self, state: &str) {
        self.info.set_state(state);
    }

    /// Bound how long write statements may wait on the storage writer
    /// gate before failing with the retryable [`DbError::Busy`]
    /// (code 2001). `None` restores the default: block indefinitely.
    pub fn set_lock_timeout(&mut self, limit: Option<std::time::Duration>) {
        self.lock_timeout = limit;
    }

    /// Acquire the writer gate, honoring the session's lock timeout.
    fn acquire_write_txn(&self, db: &Arc<Database>) -> DbResult<exodus_storage::WriteTxn> {
        let Some(limit) = self.lock_timeout else {
            return Ok(db.store.storage().begin_txn()?);
        };
        let deadline = std::time::Instant::now() + limit;
        loop {
            if let Some(txn) = db.store.storage().try_begin_txn()? {
                return Ok(txn);
            }
            if std::time::Instant::now() >= deadline {
                return Err(DbError::Busy(format!(
                    "writer gate still held after {limit:?}; retry after backoff"
                )));
            }
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    }

    /// Run one or more statements.
    pub fn run(&mut self, src: &str) -> DbResult<Vec<Response>> {
        let stmts = {
            let _span = self.db.span("parse", src);
            let ops = self.db.ops.read();
            parse_program(src, &ops)?
        };
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.execute(&stmt)?);
        }
        Ok(out)
    }

    /// Run statements and return the last one's rows (it must be a
    /// retrieve).
    pub fn query(&mut self, src: &str) -> DbResult<QueryResult> {
        let responses = self.run(src)?;
        match responses.into_iter().next_back() {
            Some(Response::Rows(r)) => Ok(r),
            _ => Err(DbError::Catalog(
                "the last statement was not a retrieve".into(),
            )),
        }
    }

    /// Explain a statement's physical plan without executing it
    /// (EXPLAIN). The source may also carry an explicit
    /// `explain [analyze]` prefix, which takes precedence.
    pub fn explain(&mut self, src: &str) -> DbResult<Explanation> {
        self.explain_inner(src, false)
    }

    /// Execute a statement with per-operator profiling and return the
    /// plan annotated with observed metrics (EXPLAIN ANALYZE). Update
    /// statements are applied — exactly once.
    pub fn explain_analyze(&mut self, src: &str) -> DbResult<Explanation> {
        self.explain_inner(src, true)
    }

    /// Execute a statement — exactly once — and report the metric
    /// activity it caused (`observe <stmt>`). The source may also
    /// carry an explicit `observe` prefix, which is not doubled.
    pub fn observe(&mut self, src: &str) -> DbResult<Observation> {
        let stmts = {
            let ops = self.db.ops.read();
            parse_program(src, &ops)?
        };
        let stmt = stmts
            .into_iter()
            .next_back()
            .ok_or_else(|| DbError::Catalog("nothing to observe".into()))?;
        let stmt = match stmt {
            s @ Stmt::Observe { .. } => s,
            other => Stmt::Observe {
                stmt: Box::new(other),
            },
        };
        match self.execute(&stmt)? {
            Response::Observed(o) => Ok(o),
            _ => Err(DbError::Catalog("statement produced no observation".into())),
        }
    }

    fn explain_inner(&mut self, src: &str, analyze: bool) -> DbResult<Explanation> {
        let stmts = {
            let ops = self.db.ops.read();
            parse_program(src, &ops)?
        };
        let stmt = stmts
            .into_iter()
            .next_back()
            .ok_or_else(|| DbError::Catalog("nothing to explain".into()))?;
        let (analyze, inner) = match stmt {
            Stmt::Explain { analyze: a, stmt } => (analyze || a, *stmt),
            other => (analyze, other),
        };
        match self.execute(&Stmt::Explain {
            analyze,
            stmt: Box::new(inner),
        })? {
            Response::Explained(e) => Ok(e),
            _ => Err(DbError::Catalog("statement produced no explanation".into())),
        }
    }

    /// Execute a single parsed statement. Plain retrieves run under a
    /// shared catalog lock (concurrent readers proceed in parallel);
    /// everything else takes the exclusive lock.
    pub fn execute(&mut self, stmt: &Stmt) -> DbResult<Response> {
        let db = self.db.clone();
        self.info.bump_statements();
        if db.metrics.is_none() && db.tracer.is_none() {
            // Fully uninstrumented build: not even a clock read.
            return self.execute_inner(&db, stmt);
        }
        // Render the statement only when a tracer will keep it.
        let _span = db
            .tracer
            .as_ref()
            .map(|t| t.start("statement", stmt.to_string()));
        let t0 = std::time::Instant::now();
        let result = self.execute_inner(&db, stmt);
        let elapsed_ns = t0.elapsed().as_nanos() as u64;
        if let Some(m) = &db.metrics {
            m.statements.inc();
            m.statements_by_verb[verb_index(stmt)].inc();
            if result.is_err() {
                m.errors.inc();
            }
            m.statement_ns.observe(elapsed_ns);
        }
        if let Some(log) = &db.slow_log {
            if log.is_slow(elapsed_ns) {
                if let Some(m) = &db.metrics {
                    m.slow_queries.inc();
                }
                let profile = result.as_ref().ok().and_then(response_profile);
                log.record(
                    stmt.to_string(),
                    elapsed_ns,
                    self.info.id,
                    verb_of(stmt),
                    profile,
                );
            }
        }
        result
    }

    /// The statement path proper, shared by the instrumented wrapper
    /// above. Every statement executes through a transaction:
    ///
    /// * `begin` / `commit` / `abort` manage the session's explicit
    ///   transaction (which holds the storage writer slot for its whole
    ///   lifetime);
    /// * inside an explicit transaction, DML runs at the transaction's
    ///   own timestamp (DDL is refused — see [`txn_permits`]);
    /// * an autocommit read runs against a fresh [`exodus_storage::Snapshot`]
    ///   under the shared catalog lock (it never blocks, and never sees
    ///   another session's uncommitted writes);
    /// * any other autocommit statement runs inside an implicit
    ///   single-statement write transaction. The writer slot is always
    ///   acquired *before* the catalog lock (lock order: writer gate,
    ///   then catalog), so a session blocked on the gate never holds a
    ///   lock a reader needs.
    fn execute_inner(&mut self, db: &Arc<Database>, stmt: &Stmt) -> DbResult<Response> {
        // A range declaration is pure session state: it reads no data
        // and writes no pages, so it needs neither the writer gate nor
        // a snapshot — on a primary or a replica. Routing it through
        // the implicit write transaction would make a reader session's
        // `range of R is C; retrieve ...` block on a concurrent writer
        // — exactly what snapshot reads promise not to do.
        if let Stmt::RangeOf { .. } = stmt {
            return Ok(declare_range(&mut self.ranges, stmt));
        }
        // A replica session routes through the read-only path before
        // any write machinery: even `begin` would append to the local
        // log and diverge it from the primary's stream.
        if let Some(state) = db.replica.clone() {
            return self.replica_execute(db, &state, stmt);
        }
        match stmt {
            Stmt::Begin => return self.begin_txn(db),
            Stmt::Commit => return self.commit_txn(db),
            Stmt::Abort => return self.abort_txn(db),
            _ => {}
        }
        let read_only = reads_only(stmt);
        if let Some(txn) = &self.txn {
            if let Err(m) = txn_permits(stmt) {
                return Err(DbError::Txn(m));
            }
            if read_only {
                return self.read(db, stmt, txn.ts());
            }
            return self.write(db, stmt);
        }
        if read_only {
            // Autocommit read: a registered snapshot (not `TS_LATEST`) so
            // a concurrent writer's in-flight rows stay invisible and
            // vacuum cannot reclaim versions this statement still needs.
            let snap = db.store.storage().begin_snapshot();
            return self.read(db, stmt, snap.ts());
        }
        // Implicit single-statement transaction: acquire the writer slot
        // first, then the catalog lock. Commit happens even when the
        // statement itself failed — partial page effects of a failed
        // statement were already applied and logged, exactly as the old
        // per-statement unit behaved — so error semantics are unchanged.
        let txn = self.acquire_write_txn(db)?;
        let response = self.write(db, stmt);
        let _commit_span = db.span("wal_commit", "");
        db.commit(txn, stmt_bumps_epoch(stmt))?;
        let _ = db.store.vacuum();
        response
    }

    /// A plain retrieve — bare, explained or observed — under the
    /// shared catalog lock, every storage read resolving the record
    /// version visible at `snap`.
    fn read(&self, db: &Database, stmt: &Stmt, snap: u64) -> DbResult<Response> {
        let cat = db.catalog.read();
        let frame = Params::default();
        let scope = Scope::new(db, &cat, &self.ranges, &self.user, &frame, snap);
        let retrieve = |stmt: &Stmt, sink: Option<&mut ExplainSink>| {
            Ok(Response::Rows(dml::retrieve(&scope, stmt, sink)?.0))
        };
        match stmt {
            Stmt::Explain { analyze, stmt } => explain(*analyze, |sink| retrieve(stmt, Some(sink))),
            Stmt::Observe { stmt } => observe(db, || retrieve(stmt, None)),
            _ => retrieve(stmt, None),
        }
    }

    /// Any other statement, under the exclusive catalog lock; the
    /// caller holds the writer gate.
    fn write(&mut self, db: &Database, stmt: &Stmt) -> DbResult<Response> {
        let mut cat = db.catalog.write();
        exec_statement(
            db,
            &mut cat,
            &mut self.ranges,
            &self.user,
            stmt,
            &Params::default(),
        )
    }

    /// The replica statement path: `retrieve` (without `into`) runs
    /// against a snapshot pinned at the replay horizon under the replay
    /// latch, and everything else — anything that would append to the
    /// local log — is refused with the stable [`DbError::ReadOnly`]
    /// code (`range of`, pure session state, never gets here). When the
    /// replica trails the primary past its configured lag bound, reads
    /// are shed with the retryable [`DbError::Lagging`] code instead.
    fn replica_execute(
        &mut self,
        db: &Arc<Database>,
        state: &Arc<crate::replication::ReplicaState>,
        stmt: &Stmt,
    ) -> DbResult<Response> {
        match stmt {
            Stmt::Retrieve { into: None, .. } => {
                if let Some(max) = state.max_lag {
                    let lag = state.lag.load(std::sync::atomic::Ordering::Relaxed);
                    if lag > max {
                        return Err(DbError::Lagging(format!(
                            "replay lag is {lag} records, over the configured bound of \
                             {max}; retry after the replica catches up, or read the \
                             primary"
                        )));
                    }
                }
                // Shared replay latch: the pump applies batches under
                // the exclusive side, so this read never observes a
                // half-applied page mutation.
                let _replay = state.latch.read();
                let snap = db.store.storage().begin_snapshot();
                self.read(db, stmt, snap.ts())
            }
            Stmt::Retrieve { into: Some(_), .. } => Err(DbError::ReadOnly(
                "retrieve ... into creates a named object; run it on the primary".into(),
            )),
            Stmt::Begin | Stmt::Commit | Stmt::Abort => Err(DbError::ReadOnly(
                "explicit transactions are not available on a read-only replica; run \
                 them on the primary"
                    .into(),
            )),
            other => Err(DbError::ReadOnly(format!(
                "a read-only replica can only serve retrieve queries; route '{}' to \
                 the primary",
                verb_of(other)
            ))),
        }
    }

    /// `begin`: open the session's explicit transaction.
    fn begin_txn(&mut self, db: &Arc<Database>) -> DbResult<Response> {
        if self.txn.is_some() {
            return Err(DbError::Txn(
                "a transaction is already open; commit or abort it first".into(),
            ));
        }
        let _span = db.span("txn", "begin");
        let txn = self.acquire_write_txn(db)?;
        self.txn = Some(txn);
        Ok(Response::Done("transaction started".into()))
    }

    /// `commit`: durably publish the open transaction's writes.
    fn commit_txn(&mut self, db: &Arc<Database>) -> DbResult<Response> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| DbError::Txn("no transaction is open; use begin first".into()))?;
        let _span = db.span("txn", "commit");
        let ts = db.commit(txn, false)?;
        let _ = db.store.vacuum();
        Ok(Response::Done(format!("committed at timestamp {ts}")))
    }

    /// `abort`: discard the open transaction's writes.
    fn abort_txn(&mut self, db: &Arc<Database>) -> DbResult<Response> {
        let txn = self
            .txn
            .take()
            .ok_or_else(|| DbError::Txn("no transaction is open; use begin first".into()))?;
        let _span = db.span("txn", "abort");
        txn.abort()?;
        let _ = db.store.vacuum();
        Ok(Response::Done("transaction aborted".into()))
    }
}

/// Whether a statement only reads data: a plain retrieve, bare or
/// directly under `explain` or `observe`.
fn reads_only(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Explain { stmt, .. } | Stmt::Observe { stmt } => {
            matches!(**stmt, Stmt::Retrieve { into: None, .. })
        }
        _ => matches!(stmt, Stmt::Retrieve { into: None, .. }),
    }
}

/// Whether a statement may run inside an explicit transaction. Only DML
/// — `retrieve`, `append`, `delete`, `replace` — plus `range of`
/// declarations and `explain`/`observe` wrappers of those qualify. DDL,
/// grants, procedure execution and `retrieve … into` are refused: they
/// mutate in-memory catalog state the page-level rollback cannot
/// restore.
fn txn_permits(stmt: &Stmt) -> Result<(), String> {
    match stmt {
        Stmt::Retrieve { into: Some(_), .. } => Err(
            "'retrieve into' cannot run inside an explicit transaction; it names a new set \
             in the catalog, which an abort cannot take back (commit or abort first)"
                .into(),
        ),
        Stmt::Retrieve { .. }
        | Stmt::Append { .. }
        | Stmt::Delete { .. }
        | Stmt::Replace { .. }
        | Stmt::RangeOf { .. } => Ok(()),
        Stmt::Explain { stmt, .. } | Stmt::Observe { stmt } => txn_permits(stmt),
        other => Err(format!(
            "'{}' cannot run inside an explicit transaction; only retrieve, append, \
             delete, replace and range declarations can (commit or abort first)",
            verb_of(other)
        )),
    }
}

/// Whether a statement may mutate catalog state the image must record
/// (DDL, grants, analyze, `retrieve into`...) — even when it fails: a
/// grant to two users of which the second does not exist has granted to
/// the first, and the image must say so. DML never does: B+-tree roots
/// are fixed pages, so inserts and splits never move anything the
/// catalog points at.
fn stmt_bumps_epoch(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Retrieve { into, .. } => into.is_some(),
        Stmt::Append { .. }
        | Stmt::Delete { .. }
        | Stmt::Replace { .. }
        | Stmt::RangeOf { .. }
        | Stmt::Begin
        | Stmt::Commit
        | Stmt::Abort => false,
        Stmt::Explain { stmt, .. } | Stmt::Observe { stmt } => stmt_bumps_epoch(stmt),
        _ => true,
    }
}

/// The leading verb of a statement, for error messages.
fn verb_of(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::DefineType { .. } => "define type",
        Stmt::Create { .. } => "create",
        Stmt::Destroy { .. } => "destroy",
        Stmt::DropType { .. } => "drop type",
        Stmt::DefineFunction { .. } => "define function",
        Stmt::DefineProcedure { .. } => "define procedure",
        Stmt::DropFunction { .. } => "drop function",
        Stmt::DropProcedure { .. } => "drop procedure",
        Stmt::DefineIndex { .. } => "define index",
        Stmt::RangeOf { .. } => "range of",
        Stmt::Retrieve { .. } => "retrieve",
        Stmt::Append { .. } => "append",
        Stmt::Delete { .. } => "delete",
        Stmt::Replace { .. } => "replace",
        Stmt::Execute { .. } => "execute",
        Stmt::Grant { .. } => "grant",
        Stmt::Revoke { .. } => "revoke",
        Stmt::CreateUser { .. } => "create user",
        Stmt::CreateGroup { .. } => "create group",
        Stmt::AddToGroup { .. } => "add user",
        Stmt::Explain { .. } => "explain",
        Stmt::Observe { .. } => "observe",
        Stmt::Analyze { .. } => "analyze",
        Stmt::Begin => "begin",
        Stmt::Commit => "commit",
        Stmt::Abort => "abort",
    }
}

/// The execution profile carried by a response, looking through
/// `observe` wrappers (for the slow-query log).
fn response_profile(r: &Response) -> Option<QueryProfile> {
    match r {
        Response::Rows(rows) => rows.profile.clone(),
        Response::Explained(e) => e.profile.clone(),
        Response::Observed(o) => response_profile(&o.response),
        Response::Done(_) => None,
    }
}

/// `range of <var> is [all] <path>`: the one place a range declaration
/// lands, for sessions and procedure bodies alike.
fn declare_range(ranges: &mut RangeEnv, stmt: &Stmt) -> Response {
    let Stmt::RangeOf {
        var,
        universal,
        path,
    } = stmt
    else {
        unreachable!("dispatch");
    };
    ranges.declare(var, *universal, path.clone());
    Response::Done(format!("range of {var} declared"))
}

/// The statement interpreter (shared by sessions and procedure bodies,
/// whose frame is `params`).
pub(crate) fn exec_statement(
    db: &Database,
    cat: &mut Catalog,
    ranges: &mut RangeEnv,
    user: &str,
    stmt: &Stmt,
    params: &Params,
) -> DbResult<Response> {
    match stmt {
        Stmt::DefineType {
            name,
            inherits,
            attrs,
        } => define_type(cat, name, inherits, attrs),
        Stmt::Create { qty, name, key } => create_named(db, cat, qty, name, key.as_deref()),
        Stmt::Destroy { name } => destroy_named(db, cat, user, name),
        Stmt::DropType { name } => drop_type(cat, name),
        Stmt::DefineFunction {
            name,
            params: ps,
            returns,
            body,
        } => define_function(db, cat, name, ps, returns, body),
        Stmt::DefineProcedure {
            name,
            params: ps,
            body,
        } => define_procedure(cat, name, ps, body),
        Stmt::DropFunction { name } => {
            let before = cat.functions.len();
            cat.functions.retain(|f| f.name != *name);
            if cat.functions.len() == before {
                return Err(DbError::Catalog(format!("no function '{name}'")));
            }
            Ok(Response::Done(format!("function {name} dropped")))
        }
        Stmt::DropProcedure { name } => {
            if cat.procedures.remove(name).is_none() {
                return Err(DbError::Catalog(format!("no procedure '{name}'")));
            }
            Ok(Response::Done(format!("procedure {name} dropped")))
        }
        Stmt::DefineIndex {
            name,
            collection,
            attr,
            unique,
        } => define_index(db, cat, name, collection, attr, *unique),
        Stmt::RangeOf { .. } => Ok(declare_range(ranges, stmt)),
        Stmt::Retrieve { .. }
        | Stmt::Append { .. }
        | Stmt::Delete { .. }
        | Stmt::Replace { .. }
        | Stmt::Execute { .. } => dml::run(db, cat, ranges, user, stmt, params, None),
        // `explain [analyze] <stmt>`: render the physical plan; under
        // `analyze`, also execute the statement — exactly once — with
        // per-operator profiling. A plan-only explain mutates nothing
        // (the statement's query is planned but never run).
        Stmt::Explain { analyze, stmt } => explain(*analyze, |sink| {
            dml::run(db, cat, ranges, user, stmt, params, Some(sink))
        }),
        Stmt::Observe { stmt } => {
            observe(db, || exec_statement(db, cat, ranges, user, stmt, params))
        }
        Stmt::Analyze { collection } => analyze_collection(db, cat, collection),
        Stmt::Grant {
            privileges,
            object,
            grantees,
        } => {
            require_admin(user, "grant")?;
            for g in grantees {
                if !cat.auth.grantee_exists(g) {
                    return Err(DbError::Catalog(format!("no user or group '{g}'")));
                }
                cat.auth.grant(object, g, privileges);
            }
            Ok(Response::Done(format!("granted on {object}")))
        }
        Stmt::Revoke {
            privileges,
            object,
            grantees,
        } => {
            require_admin(user, "revoke")?;
            for g in grantees {
                cat.auth.revoke(object, g, privileges);
            }
            Ok(Response::Done(format!("revoked on {object}")))
        }
        Stmt::CreateUser { name } => {
            require_admin(user, "create user")?;
            if !cat.auth.create_user(name) {
                return Err(DbError::Catalog(format!("user '{name}' already exists")));
            }
            Ok(Response::Done(format!("user {name} created")))
        }
        Stmt::CreateGroup { name } => {
            require_admin(user, "create group")?;
            if !cat.auth.create_group(name) {
                return Err(DbError::Catalog(format!("group '{name}' already exists")));
            }
            Ok(Response::Done(format!("group {name} created")))
        }
        Stmt::AddToGroup { user: u, group } => {
            require_admin(user, "add user to group")?;
            if !cat.auth.user_exists(u) {
                return Err(DbError::Catalog(format!("no user '{u}'")));
            }
            if !cat.auth.add_to_group(u, group) {
                return Err(DbError::Catalog(format!("no group '{group}'")));
            }
            Ok(Response::Done(format!("{u} added to {group}")))
        }
        // Transaction control is handled by the session before dispatch
        // (`Session::execute_inner`); reaching here means the verb was
        // nested somewhere it cannot work (a procedure body, `observe`,
        // `explain`).
        Stmt::Begin | Stmt::Commit | Stmt::Abort => Err(DbError::Txn(format!(
            "'{}' is a session-level statement; it cannot run inside \
             procedures, explain, or observe",
            verb_of(stmt)
        ))),
    }
}

/// `explain [analyze] <stmt>`: `run` the statement against a sink that
/// takes its plan and, under `analyze`, its profile.
fn explain(
    analyze: bool,
    run: impl FnOnce(&mut ExplainSink) -> DbResult<Response>,
) -> DbResult<Response> {
    let mut sink = ExplainSink {
        analyze,
        ..Default::default()
    };
    run(&mut sink)?;
    Ok(Response::Explained(Explanation {
        plan: sink
            .plan
            .ok_or_else(|| DbError::Catalog("statement produced no plan".into()))?,
        profile: sink.profile,
    }))
}

/// `observe <stmt>`: `run` the statement — exactly once — and report
/// the metric activity it caused: wall-clock time plus every counter
/// delta (zeros dropped). With metrics disabled the statement still
/// runs; the counter list is just empty.
fn observe(db: &Database, run: impl FnOnce() -> DbResult<Response>) -> DbResult<Response> {
    let before = db.metrics_snapshot();
    let t0 = std::time::Instant::now();
    let response = run()?;
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let counters = match (before, db.metrics_snapshot()) {
        (Some(b), Some(a)) => MetricsSnapshot::counter_deltas(&b, &a),
        _ => Vec::new(),
    };
    Ok(Response::Observed(Observation {
        response: Box::new(response),
        elapsed_ns,
        counters,
    }))
}

fn require_admin(user: &str, action: &str) -> DbResult<()> {
    if user == ADMIN {
        Ok(())
    } else {
        Err(DbError::Auth(format!("only {ADMIN} may {action}")))
    }
}

// ---------------------------------------------------------------------------
// DDL
// ---------------------------------------------------------------------------

fn lower_attrs(cat: &Catalog, attrs: &[AttrDecl]) -> DbResult<Vec<Attribute>> {
    attrs
        .iter()
        .map(|a| {
            Ok(Attribute {
                name: a.name.clone(),
                qty: lower_qual(&a.qty, &cat.types, &cat.adts)?,
            })
        })
        .collect()
}

fn define_type(
    cat: &mut Catalog,
    name: &str,
    inherits: &[InheritClause],
    attrs: &[AttrDecl],
) -> DbResult<Response> {
    if cat.named.contains_key(name) || cat.adts.contains(name) {
        return Err(DbError::Catalog(format!(
            "the name '{name}' is already in use"
        )));
    }
    let specs: Vec<InheritSpec> = inherits
        .iter()
        .map(|c| InheritSpec {
            base: c.base.clone(),
            renames: c.renames.clone(),
        })
        .collect();
    // Forward-declare so self-referential attribute types resolve
    // (`define type Person (kids: { own ref Person })`).
    let id = cat.types.declare(name)?;
    let lowered = match lower_attrs(cat, attrs) {
        Ok(l) => l,
        Err(e) => {
            let _ = cat.types.undefine(name);
            return Err(e);
        }
    };
    if let Err(e) = cat.types.complete(id, specs, lowered) {
        let _ = cat.types.undefine(name);
        return Err(e.into());
    }
    Ok(Response::Done(format!("type {name} defined")))
}

/// Default (all-null / empty) value for a freshly created instance.
pub(crate) fn default_value(qty: &QualType, types: &extra_model::TypeRegistry) -> Value {
    if qty.mode != Ownership::Own {
        return Value::Null;
    }
    match &qty.ty {
        Type::Set(_) => Value::empty_set(),
        Type::Array(Some(n), _) => Value::null_array(*n),
        Type::Array(None, _) => Value::Array(Vec::new()),
        Type::Schema(tid) => Value::Tuple(
            types
                .get(*tid)
                .attributes()
                .map(|a| default_value(&a.qty, types))
                .collect::<Vec<_>>(),
        ),
        Type::Tuple(attrs) => {
            Value::Tuple(attrs.iter().map(|a| default_value(&a.qty, types)).collect())
        }
        _ => Value::Null,
    }
}

fn create_named(
    db: &Database,
    cat: &mut Catalog,
    qty: &excess_lang::QualTypeExpr,
    name: &str,
    key: Option<&str>,
) -> DbResult<Response> {
    if cat.named.contains_key(name) || cat.types.contains(name) || cat.adts.contains(name) {
        return Err(DbError::Catalog(format!(
            "the name '{name}' is already in use"
        )));
    }
    let lowered = lower_qual(qty, &cat.types, &cat.adts)?;
    if lowered.mode != Ownership::Own {
        return Err(DbError::Catalog(
            "top-level named instances are owned by the database; drop the ref qualifier".into(),
        ));
    }
    let (oid, is_collection) = match &lowered.ty {
        Type::Set(elem) => (db.store.create_collection(elem)?, true),
        _ => {
            let v = default_value(&lowered, &cat.types);
            (db.store.create_object(&cat.types, &lowered, v)?, false)
        }
    };
    cat.named.insert(
        name.to_string(),
        NamedObject {
            name: name.to_string(),
            oid,
            qty: lowered,
            is_collection,
        },
    );
    // A key (paper: associated with set instances) is a unique index.
    if let Some(attr) = key {
        if !is_collection {
            cat.named.remove(name);
            return Err(DbError::Catalog(
                "keys are associated with set instances; this is not a set".into(),
            ));
        }
        if let Err(e) = define_index(db, cat, &format!("{name}_key"), name, attr, true) {
            cat.named.remove(name);
            return Err(e);
        }
    }
    Ok(Response::Done(format!("{name} created")))
}

fn destroy_named(db: &Database, cat: &mut Catalog, user: &str, name: &str) -> DbResult<Response> {
    let obj = cat
        .named
        .get(name)
        .cloned()
        .ok_or_else(|| DbError::Catalog(format!("no named object '{name}'")))?;
    if !cat.auth.allowed(user, name, Privilege::Delete) {
        return Err(DbError::Auth(format!("{user} may not destroy {name}")));
    }
    db.store.delete_object(&cat.types, obj.oid)?;
    cat.named.remove(name);
    cat.indexes.retain(|i| i.collection != name);
    Ok(Response::Done(format!("{name} destroyed")))
}

fn drop_type(cat: &mut Catalog, name: &str) -> DbResult<Response> {
    let id = cat.types.lookup(name)?;
    if cat.types.has_dependents(id) {
        return Err(DbError::Catalog(format!(
            "type '{name}' has dependent types; drop them first"
        )));
    }
    fn mentions(ty: &Type, id: extra_model::TypeId) -> bool {
        match ty {
            Type::Schema(t) => *t == id,
            Type::Set(e) | Type::Array(_, e) => mentions(&e.ty, id),
            Type::Tuple(attrs) => attrs.iter().any(|a| mentions(&a.qty.ty, id)),
            _ => false,
        }
    }
    if let Some(obj) = cat.named.values().find(|o| mentions(&o.qty.ty, id)) {
        return Err(DbError::Catalog(format!(
            "type '{name}' is used by named instance '{}'",
            obj.name
        )));
    }
    cat.types.undefine(name)?;
    Ok(Response::Done(format!("type {name} dropped")))
}

fn define_function(
    db: &Database,
    cat: &mut Catalog,
    name: &str,
    params: &[Param],
    returns: &excess_lang::QualTypeExpr,
    body: &Stmt,
) -> DbResult<Response> {
    let lowered_params: Vec<(String, QualType)> = params
        .iter()
        .map(|p| Ok((p.name.clone(), lower_qual(&p.qty, &cat.types, &cat.adts)?)))
        .collect::<DbResult<_>>()?;
    let lowered_returns = lower_qual(returns, &cat.types, &cat.adts)?;
    let attached_to = lowered_params.first().and_then(|(_, q)| match q.ty {
        Type::Schema(t) => Some(t),
        _ => None,
    });
    if cat
        .functions
        .iter()
        .any(|f| f.name == name && f.attached_to == attached_to)
    {
        return Err(DbError::Catalog(format!(
            "function '{name}' is already defined for this receiver type"
        )));
    }
    // Validate the body with the parameters in scope. Parameters of
    // schema type are reference-valued at runtime.
    let view = CatalogView::new(db, cat);
    let mut ctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    for (p, q) in &lowered_params {
        ctx.vars.insert(p.clone(), runtime_param_type(q));
    }
    let checked = ctx.check_retrieve(body)?;
    if checked.output.len() != 1 {
        return Err(DbError::Catalog(
            "a function body must retrieve exactly one target".into(),
        ));
    }
    let def = FunctionDef {
        name: name.to_string(),
        params: lowered_params
            .iter()
            .map(|(p, q)| (p.clone(), runtime_param_type(q)))
            .collect(),
        returns: lowered_returns,
        body: body.clone(),
        attached_to,
    };
    cat.functions.push(def);
    Ok(Response::Done(format!("function {name} defined")))
}

/// A parameter declared with a schema type is passed by reference.
pub(crate) fn runtime_param_type(q: &QualType) -> QualType {
    match (&q.mode, &q.ty) {
        (Ownership::Own, Type::Schema(_)) => QualType::reference(q.ty.clone()),
        _ => q.clone(),
    }
}

fn define_procedure(
    cat: &mut Catalog,
    name: &str,
    params: &[Param],
    body: &[Stmt],
) -> DbResult<Response> {
    if cat.procedures.contains_key(name) {
        return Err(DbError::Catalog(format!(
            "procedure '{name}' already exists"
        )));
    }
    excess_sema::validate_procedure_body(body)?;
    let lowered: Vec<(String, QualType)> = params
        .iter()
        .map(|p| {
            Ok((
                p.name.clone(),
                runtime_param_type(&lower_qual(&p.qty, &cat.types, &cat.adts)?),
            ))
        })
        .collect::<DbResult<_>>()?;
    cat.procedures.insert(
        name.to_string(),
        ProcedureDef {
            name: name.to_string(),
            params: lowered,
            body: body.to_vec(),
        },
    );
    Ok(Response::Done(format!("procedure {name} defined")))
}

fn define_index(
    db: &Database,
    cat: &mut Catalog,
    name: &str,
    collection: &str,
    attr: &str,
    unique: bool,
) -> DbResult<Response> {
    if cat.indexes.iter().any(|i| i.name == name) {
        return Err(DbError::Catalog(format!("index '{name}' already exists")));
    }
    let obj = cat
        .named
        .get(collection)
        .cloned()
        .ok_or_else(|| DbError::Catalog(format!("no collection '{collection}'")))?;
    if !obj.is_collection {
        return Err(DbError::Catalog(format!("'{collection}' is not a set")));
    }
    let elem = db.store.collection_elem(obj.oid)?;
    let view = CatalogView::new(db, cat);
    let ctx = SemaCtx::new(&cat.types, &cat.adts, &view);
    let (pos, attr_qty) = ctx.attr(&elem, attr)?;
    // The access-method applicability check: orderable attribute types
    // only (for ADTs, the registry's table decides).
    let indexable = match &attr_qty.ty {
        Type::Base(_) => true,
        Type::Adt(id) => cat.adts.indexable(*id),
        _ => false,
    };
    if !indexable {
        return Err(DbError::Catalog(format!(
            "attribute '{attr}' has no ordered key encoding; a B+-tree does not apply"
        )));
    }
    let tree = BTree::create(db.store.storage().pool())?;
    // Populate from the current members.
    let mut scan = db
        .store
        .scan_members_batch_at(obj.oid, db.store.current_snap())?;
    loop {
        let batch = scan.next_batch(1024)?;
        if batch.is_empty() {
            break;
        }
        for (rid, member) in batch {
            if let Some(key) = dml::member_attr_key(db, &member, pos, &cat.adts)? {
                tree.insert(db.store.storage().pool(), &key, rid.pack(), unique)
                    .map_err(|e| match e {
                        exodus_storage::StorageError::DuplicateKey => DbError::Catalog(format!(
                            "cannot build unique index: duplicate {attr} values in {collection}"
                        )),
                        other => other.into(),
                    })?;
            }
        }
    }
    cat.indexes.push(IndexInfo {
        name: name.to_string(),
        collection: collection.to_string(),
        attr: attr.to_string(),
        root: tree.root(),
        unique,
    });
    Ok(Response::Done(format!(
        "index {name} built on {collection}({attr})"
    )))
}

/// Per-attribute accumulator for one `analyze` scan.
struct StatAcc {
    attr: String,
    pos: usize,
    /// Whether the attribute has a numeric key space (histogram-worthy).
    numeric: bool,
    nulls: u64,
    values: Vec<f64>,
    distinct: std::collections::HashSet<u64>,
}

/// A hash key identifying a scalar value for distinct counting.
fn distinct_key(v: &Value) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    match v {
        Value::Int(i) => (0u8, *i).hash(&mut h),
        // Ints and floats share a key space so `1` and `1.0` coincide.
        Value::Float(x) => {
            if x.fract() == 0.0 && x.abs() < i64::MAX as f64 {
                (0u8, *x as i64).hash(&mut h)
            } else {
                (1u8, x.to_bits()).hash(&mut h)
            }
        }
        Value::Bool(b) => (2u8, *b).hash(&mut h),
        Value::Str(s) => (3u8, s).hash(&mut h),
        Value::Enum(ord, _) => (4u8, *ord).hash(&mut h),
        Value::Adt(id, bytes) => (5u8, *id, bytes).hash(&mut h),
        Value::Ref(oid) => (6u8, *oid).hash(&mut h),
        // Structured values are not statted (their accumulators are never
        // built); this arm only backstops schema evolution.
        _ => 7u8.hash(&mut h),
    }
    h.finish()
}

/// `analyze <collection>`: scan the members once and record per-attribute
/// optimizer statistics — row count, distinct-count estimate, equi-depth
/// histogram, null fraction — in the catalog, whose image the statement's
/// commit rewrites, so a crash either keeps the whole analyze or none of
/// it. Runs as an implicit write transaction (holding the writer gate),
/// so the scan sees exactly the committed state it stamps statistics for.
fn analyze_collection(db: &Database, cat: &mut Catalog, collection: &str) -> DbResult<Response> {
    let obj = cat
        .named
        .get(collection)
        .cloned()
        .ok_or_else(|| DbError::Catalog(format!("no collection '{collection}'")))?;
    if !obj.is_collection {
        return Err(DbError::Catalog(format!("'{collection}' is not a set")));
    }
    let elem = db.store.collection_elem(obj.oid)?;
    // Attributes with a scalar runtime shape get accumulators; owned
    // structured attributes (nested tuples/sets/arrays) are skipped.
    let attr_decls: Vec<(String, QualType)> = match &elem.ty {
        Type::Schema(tid) => cat
            .types
            .get(*tid)
            .attributes()
            .map(|a| (a.name.clone(), a.qty.clone()))
            .collect(),
        Type::Tuple(attrs) => attrs
            .iter()
            .map(|a| (a.name.clone(), a.qty.clone()))
            .collect(),
        _ => Vec::new(),
    };
    let mut accs: Vec<StatAcc> = attr_decls
        .iter()
        .enumerate()
        .filter_map(|(pos, (name, qty))| {
            let scalar =
                qty.mode != Ownership::Own || matches!(qty.ty, Type::Base(_) | Type::Adt(_));
            scalar.then(|| StatAcc {
                attr: name.clone(),
                pos,
                numeric: matches!(&qty.ty, Type::Base(b) if b.is_integer() || b.is_float()),
                nulls: 0,
                values: Vec::new(),
                distinct: std::collections::HashSet::new(),
            })
        })
        .collect();
    let snap = db.store.current_snap();
    let mut scan = db.store.scan_members_batch_at(obj.oid, snap)?;
    let mut row_count = 0u64;
    loop {
        let batch = scan.next_batch(1024)?;
        if batch.is_empty() {
            break;
        }
        row_count += batch.len() as u64;
        for (_, member) in &batch {
            // Collections of `{own ref T}` hand back references; chase
            // them to the tuple the statistics describe.
            let mut member = member.clone();
            while let Value::Ref(oid) = member {
                member = db.store.value_of_at(oid, snap)?;
            }
            let fields = match &member {
                Value::Tuple(fs) => fs.as_slice(),
                _ => &[],
            };
            for acc in &mut accs {
                match fields.get(acc.pos) {
                    None | Some(Value::Null) => acc.nulls += 1,
                    Some(v) => {
                        acc.distinct.insert(distinct_key(v));
                        if acc.numeric {
                            match v {
                                Value::Int(i) => acc.values.push(*i as f64),
                                Value::Float(x) => acc.values.push(*x),
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
    let attrs = accs
        .into_iter()
        .map(|mut acc| {
            let n = acc.values.len();
            let bounds = if acc.numeric && n > 0 {
                acc.values
                    .sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                // Equi-depth boundaries: bounds[i] is the value at rank
                // i·n/B, so each bucket holds an equal share of the rows.
                (0..=HISTOGRAM_BUCKETS)
                    .map(|i| acc.values[(i * (n - 1)) / HISTOGRAM_BUCKETS])
                    .collect()
            } else {
                Vec::new()
            };
            AttrStats {
                attr: acc.attr,
                distinct: acc.distinct.len() as u64,
                null_frac: if row_count == 0 {
                    0.0
                } else {
                    acc.nulls as f64 / row_count as f64
                },
                bounds,
            }
        })
        .collect();
    let stats = CollectionStats { row_count, attrs };
    let n_attrs = stats.attrs.len();
    cat.stats.insert(collection.to_string(), stats);
    Ok(Response::Done(format!(
        "analyzed {collection}: {row_count} rows, {n_attrs} attributes"
    )))
}
