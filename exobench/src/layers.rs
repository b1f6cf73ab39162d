//! The engine-API manifest: the only file of the benchmark that names engine
//! functions. Every workload and probe reaches the engine through a wrapper
//! here, so a refactor of the engine that touches a signature below knows
//! exactly which benchmark calls it has to carry along.
//!
//! Only snapshot-taking read variants are pinned (`*_at`, batch scans): the
//! non-snapshot twins and the callback `scan_members` are scheduled for
//! removal and the benchmark must not hold them in place.
//!
//! Pinned functions, by layer (crate):
//!
//! * `server`  — `Server::spawn`, `Server::addr`, `Server::admission` +
//!   `Admission::metrics` (shed counters), `TcpTransport::bind`,
//!   `AdmissionConfig::default`, `RemoteSession::{connect, send, drain}`,
//!   `Client::run` on `RemoteSession`, `protocol::{write_frame, read_frame}`,
//!   `Frame::RowBatch`.
//! * `excess`  — `parse_statement`, `OperatorTable::new`.
//! * `exodus`  — `Database::builder` with `storage / path / durability /
//!   pool_pages / worker_threads / metrics / build`, `Database::{session,
//!   bulk_append, read_catalog, store, metrics_snapshot, checkpoint}`,
//!   `Session::{run, execute, explain, explain_analyze}`,
//!   `Replica::{in_process, pump, pump_until_caught_up, database,
//!   lag_records, applied_lsn}`, `ReplicaOptions::default`,
//!   `MetricsSnapshot::{counter, get}`, `Catalog::named`.
//! * `extra`   — `valueio::{to_bytes, from_bytes, tuple_field_from_bytes}`,
//!   `ObjectStore::{value_of_at, fields_of_batch_at, scan_members_batch_at,
//!   storage, roots, export_image, attach, import_image}`,
//!   `MemberScan::next_batch`.
//! * `storage` — `StorageManager::{in_memory, open, pool, begin_snapshot,
//!   create_file, insert, scan, checkpoint}`, `BufferPool::{pin, stats,
//!   volume_pages, wal}`, `PinnedPage::with_read`, `HeapScan::{with_snapshot,
//!   next_batch_into}`, `RecordBatch::{new, len}`,
//!   `heap::read_records_versioned`, `ObjectTable::{create, allocate,
//!   get_many}`, `BTree::{create, insert, lookup}`, `Wal::{open, append,
//!   flush}`, `WalRecord::HeapInsert`, `ReplicationSource::{new, fetch}`,
//!   `ReplicaApplier::{new, ingest}`.

use std::path::Path;
use std::sync::Arc;

pub use excess_lang::Stmt;
use excess_lang::{parse_statement, OperatorTable};
use exodus_db::Client as _;
pub use exodus_db::{Database, Durability, Replica, Response, Session, Value};
use exodus_db::{ReplicaOptions, SampleValue};
use exodus_server::protocol::{read_frame, write_frame};
use exodus_server::{AdmissionConfig, Frame, TcpTransport};
pub use exodus_server::{RemoteSession, Server};
use exodus_storage::btree::BTree;
use exodus_storage::heap::{read_records_versioned, HeapScan, RecordBatch};
use exodus_storage::object::ObjectTable;
use exodus_storage::wal::DEFAULT_SEGMENT_BYTES;
pub use exodus_storage::{FileId, Oid, RecordId, StorageManager, WalEntry};
use exodus_storage::{ReplicaApplier, ReplicationSource, Wal, WalRecord};
use extra_model::valueio;
pub use extra_model::{MemberScan, ObjectStore};

pub type R<T> = Result<T, String>;

fn e(err: impl std::fmt::Display) -> String {
    err.to_string()
}

/// Bytes per volume page (`exodus_storage::page::PAGE_SIZE`).
pub const PAGE_BYTES: u64 = exodus_storage::page::PAGE_SIZE as u64;

// ---------------------------------------------------------------- exodus

/// An in-memory database whose pool holds `pool_pages` frames.
pub fn db_in_memory(pool_pages: usize, workers: usize, metrics: bool) -> R<Arc<Database>> {
    Database::builder()
        .storage(StorageManager::in_memory(pool_pages))
        .worker_threads(workers)
        .metrics(metrics)
        .build()
        .map_err(e)
}

/// A file-backed database at `path`.
pub fn db_file(path: &Path, pool_pages: usize, durability: Durability) -> R<Arc<Database>> {
    Database::builder()
        .path(path)
        .pool_pages(pool_pages)
        .durability(durability)
        .build()
        .map_err(e)
}

pub fn session(db: &Arc<Database>) -> Session {
    db.session()
}

/// `Session::run`: parse, plan and execute `text`, the untraced statement path.
pub fn run(s: &mut Session, text: &str) -> R<Vec<Response>> {
    s.run(text).map_err(e)
}

/// `Session::execute` of an already parsed statement.
pub fn execute(s: &mut Session, stmt: &Stmt) -> R<Response> {
    s.execute(stmt).map_err(e)
}

/// `Session::explain`: parse and plan without executing; the rendered plan.
pub fn explain(s: &mut Session, text: &str) -> R<String> {
    s.explain(text).map(|x| x.plan).map_err(e)
}

/// One operator of an executed plan.
pub struct OpTime {
    pub label: String,
    /// Wall time inside the operator, inclusive of its inputs.
    pub ms: f64,
    /// Largest batch it produced, in rows.
    pub peak_batch: u64,
}

/// `Session::explain_analyze`: the executed plan's operators, pre-order.
pub fn explain_analyze(s: &mut Session, text: &str) -> R<Vec<OpTime>> {
    let explained = s.explain_analyze(text).map_err(e)?;
    let profile = explained
        .profile
        .ok_or("explain analyze returned no profile")?;
    Ok(profile
        .nodes
        .into_iter()
        .map(|n| OpTime {
            label: n.label,
            ms: n.elapsed_ns as f64 / 1e6,
            peak_batch: n.peak_batch,
        })
        .collect())
}

pub fn bulk_append(db: &Arc<Database>, collection: &str, members: Vec<Value>) -> R<Vec<Oid>> {
    db.bulk_append(collection, members).map_err(e)
}

/// The anchor oid of a named collection.
pub fn collection_anchor(db: &Arc<Database>, name: &str) -> R<Oid> {
    db.read_catalog()
        .named
        .get(name)
        .map(|n| n.oid)
        .ok_or_else(|| format!("no collection '{name}'"))
}

/// `Database::checkpoint`: write every dirty page back and cut the log.
pub fn checkpoint(db: &Arc<Database>) -> R<()> {
    db.checkpoint().map_err(e)
}

/// The value of registry counter `name`; `None` when the family no longer
/// exists (a metric derived from it is then reported as 0, not as an error).
pub fn counter(db: &Arc<Database>, name: &str) -> Option<u64> {
    db.metrics_snapshot()?.counter(name)
}

/// `(sum, count)` of registry histogram `name`.
pub fn histogram_sum_count(db: &Arc<Database>, name: &str) -> Option<(u64, u64)> {
    match db.metrics_snapshot()?.get(name)?.value {
        SampleValue::Histogram { sum, count, .. } => Some((sum, count)),
        _ => None,
    }
}

/// Buffer-pool counters `(hits, misses, evictions)`.
pub fn pool_stats(db: &Arc<Database>) -> (u64, u64, u64) {
    sm_pool_stats(db.store().storage())
}

/// Bytes of the volume behind `db` (pages allocated so far).
pub fn volume_bytes(db: &Arc<Database>) -> u64 {
    db.store().storage().pool().volume_pages() * PAGE_BYTES
}

// --------------------------------------------------------------- excess

/// `excess::parse_statement` with the built-in operator table.
pub fn parse(text: &str) -> R<Stmt> {
    thread_local! {
        static OPS: OperatorTable = OperatorTable::new();
    }
    OPS.with(|ops| parse_statement(text, ops).map_err(e))
}

// --------------------------------------------------------------- server

/// Serve `db` on a loopback port picked by the kernel.
pub fn serve(db: &Arc<Database>) -> R<Server> {
    let transport = TcpTransport::bind("127.0.0.1:0").map_err(e)?;
    Server::spawn(db.clone(), transport, AdmissionConfig::default()).map_err(e)
}

pub fn connect(server: &Server) -> R<RemoteSession> {
    RemoteSession::connect(server.addr(), "admin").map_err(e)
}

pub fn remote_run(s: &mut RemoteSession, text: &str) -> R<Vec<Response>> {
    s.run(text).map_err(e)
}

/// Pipeline `texts` on one connection: send them all, then drain the replies.
pub fn remote_pipeline(s: &mut RemoteSession, texts: &[String]) -> R<Vec<Vec<Response>>> {
    for text in texts {
        s.send(text).map_err(e)?;
    }
    s.drain()
        .map_err(e)?
        .into_iter()
        .map(|reply| reply.map_err(e))
        .collect()
}

/// Connections and statements the server refused so far.
pub fn shed_total(server: &Server) -> u64 {
    let m = server.admission().metrics();
    m.shed_connections_total.get() + m.shed_statements_total.get()
}

/// `protocol::write_frame` of one `RowBatch` frame into memory.
pub fn encode_row_batch(rows: &[Vec<Value>], out: &mut Vec<u8>) -> R<()> {
    out.clear();
    write_frame(
        out,
        &Frame::RowBatch {
            rows: rows.to_vec(),
        },
    )
    .map_err(e)
}

/// `protocol::read_frame` of one encoded frame; the number of rows it held.
pub fn decode_row_batch(mut bytes: &[u8]) -> R<usize> {
    match read_frame(&mut bytes).map_err(e)? {
        Some(Frame::RowBatch { rows }) => Ok(rows.len()),
        other => Err(format!("expected a RowBatch frame, read {other:?}")),
    }
}

// ---------------------------------------------------------- replication

/// Bootstrap an in-process replica of `primary` at `path`; returns once it
/// has replayed the primary's whole log.
pub fn replica_in_process(primary: &Arc<Database>, path: &Path) -> R<Replica> {
    Replica::in_process(primary, path, ReplicaOptions::default()).map_err(e)
}

pub fn replica_pump_until_caught_up(r: &mut Replica) -> R<()> {
    r.pump_until_caught_up().map_err(e)
}

/// `Replica::pump` once; the records the primary's durable log is still
/// ahead by afterwards (`Replica::lag_records`).
pub fn replica_pump_once_lag(r: &mut Replica) -> R<u64> {
    r.pump().map_err(e)?;
    Ok(r.lag_records())
}

// ---------------------------------------------------------------- extra

pub fn value_to_bytes(v: &Value) -> Vec<u8> {
    valueio::to_bytes(v)
}

pub fn value_from_bytes(bytes: &[u8]) -> R<Value> {
    valueio::from_bytes(bytes).map_err(e)
}

pub fn tuple_field_from_bytes(bytes: &[u8], pos: usize) -> R<Option<Value>> {
    valueio::tuple_field_from_bytes(bytes, pos).map_err(e)
}

/// A fresh snapshot timestamp of the database's storage manager. The
/// registration is dropped at once: probes run with no concurrent writer.
pub fn snapshot_ts(sm: &StorageManager) -> u64 {
    sm.begin_snapshot().ts()
}

pub fn value_of_at(store: &ObjectStore, oid: Oid, snap: u64) -> R<Value> {
    store.value_of_at(oid, snap).map_err(e)
}

pub fn fields_of_batch_at(
    store: &ObjectStore,
    oids: &[Oid],
    pos: usize,
    snap: u64,
) -> R<Vec<Option<Value>>> {
    store.fields_of_batch_at(oids, pos, snap).map_err(e)
}

/// Drain a snapshot member scan of `anchor` in batches of `batch`; the members.
pub fn scan_members_at(
    store: &ObjectStore,
    anchor: Oid,
    snap: u64,
    batch: usize,
) -> R<Vec<(RecordId, Value)>> {
    let mut scan: MemberScan = store.scan_members_batch_at(anchor, snap).map_err(e)?;
    let mut out = Vec::new();
    loop {
        let rows = scan.next_batch(batch).map_err(e)?;
        if rows.is_empty() {
            return Ok(out);
        }
        out.extend(rows);
    }
}

/// What a restart needs besides the volume and its log: the store's root
/// pages and its in-memory image. `Database` keeps its catalog in memory only,
/// so a reopened volume is read the way a restarted replica reads it.
pub struct StoreImage {
    roots: extra_model::StoreRoots,
    image: Vec<u8>,
}

pub fn store_image(db: &Arc<Database>) -> StoreImage {
    StoreImage {
        roots: db.store().roots(),
        image: db.store().export_image(),
    }
}

/// Reopen the volume at `path` (crash recovery runs inside) and attach the
/// object store to it. Returns the store and the log records recovery scanned.
pub fn reopen_store(path: &Path, pool_pages: usize, image: &StoreImage) -> R<(ObjectStore, u64)> {
    let (sm, report) = StorageManager::open(path, pool_pages, Durability::Fsync).map_err(e)?;
    let store = ObjectStore::attach(sm, &image.roots);
    store.import_image(&image.image).map_err(e)?;
    Ok((store, report.records_scanned))
}

// -------------------------------------------------------------- storage

pub fn sm_in_memory(pool_pages: usize) -> StorageManager {
    StorageManager::in_memory(pool_pages)
}

/// A file-backed, unlogged storage manager (`Durability::None`).
pub fn sm_file(path: &Path, pool_pages: usize) -> R<StorageManager> {
    StorageManager::open(path, pool_pages, Durability::None)
        .map(|(sm, _)| sm)
        .map_err(e)
}

/// A file-backed storage manager with an fsynced log.
pub fn sm_file_logged(path: &Path, pool_pages: usize) -> R<StorageManager> {
    StorageManager::open(path, pool_pages, Durability::Fsync)
        .map(|(sm, _)| sm)
        .map_err(e)
}

pub fn sm_pool_stats(sm: &StorageManager) -> (u64, u64, u64) {
    let s = sm.pool().stats();
    (s.hits, s.misses, s.evictions)
}

pub fn sm_checkpoint(sm: &StorageManager) -> R<()> {
    sm.checkpoint().map_err(e)
}

/// A heap file holding `records`; the file and each record's id.
pub fn heap_load(sm: &StorageManager, records: &[Vec<u8>]) -> R<(FileId, Vec<RecordId>)> {
    let file = sm.create_file().map_err(e)?;
    let rids = records
        .iter()
        .map(|r| sm.insert(file, r).map_err(e))
        .collect::<R<Vec<_>>>()?;
    Ok((file, rids))
}

/// `BufferPool::pin` + `with_read` of one page; the first byte, so the read is used.
pub fn pin_page(sm: &StorageManager, page_no: u64) -> R<u8> {
    let page = sm.pool().pin(page_no).map_err(e)?;
    Ok(page.with_read(|buf| buf[0]))
}

/// `HeapScan::next_batch_into` under a snapshot until the file is exhausted;
/// the records seen (visibility is checked per record inside the scan).
pub fn heap_scan_count(sm: &StorageManager, file: FileId, snap: u64, batch: usize) -> R<usize> {
    let mut scan: HeapScan = sm.scan(file).with_snapshot(snap);
    let mut buf = RecordBatch::new();
    let mut seen = 0;
    loop {
        scan.next_batch_into(batch, &mut buf).map_err(e)?;
        if buf.is_empty() {
            return Ok(seen);
        }
        seen += buf.len();
    }
}

/// `heap::read_records_versioned`; how many of `rids` were readable.
pub fn heap_read_versioned(sm: &StorageManager, rids: &[RecordId]) -> usize {
    read_records_versioned(sm.pool(), rids)
        .iter()
        .filter(|r| r.is_some())
        .count()
}

/// An object table mapping one fresh oid to each of `rids`.
pub fn object_table_load(sm: &StorageManager, rids: &[RecordId]) -> R<(ObjectTable, Vec<Oid>)> {
    let table = ObjectTable::create(sm.pool()).map_err(e)?;
    let oids = rids
        .iter()
        .map(|&rid| table.allocate(sm.pool(), rid, 0).map_err(e))
        .collect::<R<Vec<_>>>()?;
    Ok((table, oids))
}

/// `ObjectTable::get_many`; how many of `oids` resolved.
pub fn object_table_get_many(sm: &StorageManager, table: &ObjectTable, oids: &[Oid]) -> R<usize> {
    Ok(table
        .get_many(sm.pool(), oids)
        .map_err(e)?
        .iter()
        .filter(|x| x.is_some())
        .count())
}

/// A B+-tree holding `key(i) -> i` for `i < n`.
pub fn btree_load(sm: &StorageManager, n: u64, key: impl Fn(u64) -> [u8; 8]) -> R<BTree> {
    let tree = BTree::create(sm.pool()).map_err(e)?;
    for i in 0..n {
        tree.insert(sm.pool(), &key(i), i, true).map_err(e)?;
    }
    Ok(tree)
}

pub fn btree_lookup(sm: &StorageManager, tree: &BTree, key: &[u8]) -> R<Vec<u64>> {
    tree.lookup(sm.pool(), key).map_err(e)
}

/// A stand-alone fsynced log in `dir`.
pub fn wal_open(dir: &Path) -> R<Arc<Wal>> {
    Wal::open(dir, Durability::Fsync, DEFAULT_SEGMENT_BYTES)
        .map(Arc::new)
        .map_err(e)
}

/// `Wal::append` of one small structure record (buffered, not yet durable).
pub fn wal_append(wal: &Wal, i: u64) -> R<u64> {
    wal.append(
        0,
        &WalRecord::HeapInsert {
            file: 1,
            rid: i,
            len: 64,
        },
    )
    .map_err(e)
}

/// `Wal::flush`: make everything appended durable (one fsync).
pub fn wal_flush(wal: &Wal) -> R<()> {
    wal.flush().map_err(e)
}

/// The log of a WAL-backed database.
pub fn wal_of(db: &Arc<Database>) -> R<Arc<Wal>> {
    db.store()
        .storage()
        .pool()
        .wal()
        .cloned()
        .ok_or_else(|| "database has no write-ahead log".to_string())
}

pub fn repl_source(wal: Arc<Wal>) -> R<ReplicationSource> {
    ReplicationSource::new(wal).map_err(e)
}

/// `ReplicationSource::fetch`: up to `max` committed entries after `after`.
pub fn repl_fetch(src: &ReplicationSource, after: u64, max: usize) -> R<Vec<WalEntry>> {
    src.fetch(after, max).map(|(entries, _)| entries).map_err(e)
}

/// A replica-side applier over a fresh logged volume at `path`.
pub fn repl_applier(path: &Path, pool_pages: usize) -> R<ReplicaApplier> {
    ReplicaApplier::new(sm_file_logged(path, pool_pages)?).map_err(e)
}

/// `ReplicaApplier::ingest`: append to the local log and replay.
pub fn repl_ingest(applier: &mut ReplicaApplier, entries: &[WalEntry]) -> R<u64> {
    applier
        .ingest(entries)
        .map(|stats| stats.records)
        .map_err(e)
}
