//! WAL-shipping replication, database half (protocol: `docs/REPLICATION.md`).
//!
//! The storage layer already ships and replays physical log entries
//! ([`exodus_storage::ReplicationSource`] / [`exodus_storage::ReplicaApplier`]);
//! what it cannot ship is the catalog, which lives only in memory on the
//! primary. This module closes that gap with an **epoch-versioned
//! catalog image**: every batch a [`Source`] hands out carries the
//! primary's current catalog epoch, and when the subscriber's epoch is
//! stale the batch also carries a full serialized catalog — store
//! roots, the type registry, named objects, functions and procedures
//! (bodies travel as EXCESS source text and are re-parsed), indexes,
//! optimizer statistics, and the authorization tables.
//!
//! A [`Replica`] is then an ordinary [`Database`] over an ordinary
//! recovered volume, with three twists:
//!
//! * a pump ([`Replica::pump`]) polls its [`ReplStream`], feeds entries
//!   to the applier under a replay latch, and swaps in fresh catalog
//!   images;
//! * its sessions are read-only — only `retrieve` (without `into`) and
//!   `range of` execute; everything else is refused with the stable
//!   [`DbError::ReadOnly`] code 1007, because any write path would
//!   append to the replica's local log and diverge it from the
//!   primary's;
//! * reads pin a snapshot at the **replay horizon** — the last replayed
//!   commit timestamp — and can be shed with [`DbError::Lagging`]
//!   (code 2004) when replay trails the primary past a configured
//!   bound.
//!
//! Custom ADTs registered at runtime on the primary are **not**
//! shipped (an ADT is executable code, not data); replicas resolve the
//! built-in ADTs only, and refuse with [`DbError::AdtMismatch`] a
//! catalog image whose ADT table names one they lack. DDL visibility
//! on a replica is eventually consistent: a catalog image can
//! momentarily lead the replayed data (the epoch bumps before the DDL's
//! commit record is durable), so a query against a just-created
//! collection may transiently error until the next batch lands.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use excess_lang::{parse_program, OperatorTable, Stmt};
use excess_sema::{CollectionStats, FunctionDef, IndexInfo, NamedObject, ProcedureDef};
use exodus_obs::{Histogram, TraceConfig, COUNT_BUCKETS};
use exodus_storage::wal::{decode_frames, encode_frame};
use exodus_storage::{
    Durability, FileId, Oid, RecordId, ReplicaApplier, ReplicationSource, StorageManager, WalEntry,
};
use extra_model::typeio::{read_qty, write_qty};
use extra_model::{AdtId, ObjectStore, QualType, StoreRoots, TypeId, TypeRegistry};

use crate::catalog::{Auth, Catalog, StatsEntry};
use crate::database::{sync_operators, Database};
use crate::error::{DbError, DbResult};

/// Serialization version of the catalog image (bump on layout change;
/// primary and replica must agree).
const IMAGE_VERSION: u32 = 2;

// ---------------------------------------------------------------------------
// Byte helpers (little-endian, length-prefixed; the same dialect as the
// storage layer's frame codec).
// ---------------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn truncated() -> DbError {
    DbError::Net("malformed replication payload: truncated".into())
}

fn get_u8(buf: &[u8], pos: &mut usize) -> DbResult<u8> {
    let v = *buf.get(*pos).ok_or_else(truncated)?;
    *pos += 1;
    Ok(v)
}

fn get_u32(buf: &[u8], pos: &mut usize) -> DbResult<u32> {
    let end = pos
        .checked_add(4)
        .filter(|&e| e <= buf.len())
        .ok_or_else(truncated)?;
    let v = u32::from_le_bytes(buf[*pos..end].try_into().expect("4 bytes"));
    *pos = end;
    Ok(v)
}

fn get_u64(buf: &[u8], pos: &mut usize) -> DbResult<u64> {
    let end = pos
        .checked_add(8)
        .filter(|&e| e <= buf.len())
        .ok_or_else(truncated)?;
    let v = u64::from_le_bytes(buf[*pos..end].try_into().expect("8 bytes"));
    *pos = end;
    Ok(v)
}

fn get_str(buf: &[u8], pos: &mut usize) -> DbResult<String> {
    let len = get_u32(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(truncated)?;
    let s = std::str::from_utf8(&buf[*pos..end])
        .map_err(|_| DbError::Net("malformed replication payload: invalid utf-8".into()))?
        .to_string();
    *pos = end;
    Ok(s)
}

fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> DbResult<&'a [u8]> {
    let len = get_u32(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or_else(truncated)?;
    let b = &buf[*pos..end];
    *pos = end;
    Ok(b)
}

// ---------------------------------------------------------------------------
// The batch: what one poll of the stream returns.
// ---------------------------------------------------------------------------

/// One unit of the replication protocol: committed log entries after
/// the subscriber's cursor, the primary's durable frontier (the lag
/// denominator), and — when the subscriber's catalog epoch is stale —
/// a full catalog image.
pub struct Batch {
    /// The primary's catalog epoch at poll time.
    pub epoch: u64,
    /// A serialized catalog image, present iff the subscriber polled
    /// with a different (stale) epoch.
    pub image: Option<Vec<u8>>,
    /// Committed log entries with LSNs after the subscriber's cursor.
    pub entries: Vec<WalEntry>,
    /// The primary's durable log frontier at poll time.
    pub durable_lsn: u64,
}

impl Batch {
    /// Wire encoding (the `T_REPL_BATCH` payload): epoch, durable
    /// frontier, optional image, then the raw CRC-framed log entries.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, self.durable_lsn);
        match &self.image {
            Some(img) => {
                out.push(1);
                put_bytes(&mut out, img);
            }
            None => out.push(0),
        }
        for e in &self.entries {
            encode_frame(e, &mut out);
        }
        out
    }

    /// Decode a [`Batch::to_bytes`] payload. The trailing entry frames
    /// are CRC-checked by the storage codec.
    pub fn from_bytes(buf: &[u8]) -> DbResult<Batch> {
        let mut pos = 0;
        let epoch = get_u64(buf, &mut pos)?;
        let durable_lsn = get_u64(buf, &mut pos)?;
        let image = match get_u8(buf, &mut pos)? {
            0 => None,
            1 => Some(get_bytes(buf, &mut pos)?.to_vec()),
            _ => {
                return Err(DbError::Net(
                    "malformed replication payload: bad image tag".into(),
                ))
            }
        };
        let entries = decode_frames(&buf[pos..])?;
        Ok(Batch {
            epoch,
            image,
            entries,
            durable_lsn,
        })
    }
}

/// A subscriber's view of the primary: one poll returns one [`Batch`].
/// Implemented in-process by [`InProcessStream`] and over the wire by
/// the server crate's replication client.
pub trait ReplStream: Send {
    /// Fetch committed entries with LSNs after `after_lsn` (at most
    /// `max_records`), plus a catalog image when `have_epoch` is stale.
    fn poll(&mut self, after_lsn: u64, have_epoch: u64, max_records: usize) -> DbResult<Batch>;
}

// ---------------------------------------------------------------------------
// The primary side.
// ---------------------------------------------------------------------------

/// The primary-side endpoint: wraps the storage-level
/// [`ReplicationSource`] (which pins log GC) and stamps each batch
/// with the catalog epoch, attaching a fresh catalog image when the
/// subscriber's is stale. One source is shared by every subscriber of
/// a database ([`Database::replication_source`]).
pub struct Source {
    db: Weak<Database>,
    inner: ReplicationSource,
}

impl Source {
    /// Serve one poll. `have_epoch` 0 (no catalog yet) always gets an
    /// image — the primary's epoch starts at 1.
    pub fn poll(&self, after_lsn: u64, have_epoch: u64, max_records: usize) -> DbResult<Batch> {
        let db = self
            .db
            .upgrade()
            .ok_or_else(|| DbError::Net("the primary database has shut down".into()))?;
        // Epoch before image: a concurrent DDL between the two reads
        // makes the image newer than the stamped epoch, so the
        // subscriber re-fetches it on the next poll — redundant, never
        // wrong. Image before entries: the data in the batch can run
        // ahead of the catalog (unreachable pages — harmless), while
        // the reverse (catalog naming pages the entries don't cover
        // yet) is confined to the epoch-vs-commit-durability race
        // documented on the module.
        let epoch = db.catalog_epoch.load(Ordering::SeqCst);
        let image = (have_epoch != epoch).then(|| encode_catalog_image(&db));
        let (entries, durable_lsn) = self.inner.fetch(after_lsn, max_records)?;
        Ok(Batch {
            epoch,
            image,
            entries,
            durable_lsn,
        })
    }

    /// The primary's durable log frontier.
    pub fn durable_lsn(&self) -> u64 {
        self.inner.durable_lsn()
    }

    /// Records shipped through this source (`repl_shipped_records_total`).
    pub fn shipped_records(&self) -> u64 {
        self.inner.shipped_records()
    }

    /// Frame bytes shipped through this source (`repl_shipped_bytes_total`).
    pub fn shipped_bytes(&self) -> u64 {
        self.inner.shipped_bytes()
    }

    /// Sequence number of the segment currently being shipped from.
    pub fn segment_seq(&self) -> u64 {
        self.inner.segment_seq()
    }
}

/// The database's cached source handle plus the register-once flag for
/// the `repl_shipped_*` metric family.
#[derive(Default)]
pub(crate) struct SourceSlot {
    pub(crate) source: Weak<Source>,
    pub(crate) metrics_registered: bool,
}

impl Database {
    /// The database's replication source, shared by every subscriber
    /// (created on first use; kept alive by the subscribers
    /// themselves). While any subscriber holds it, checkpoints stop
    /// pruning the log. Requires a WAL-backed database; fails on a
    /// primary whose pre-subscription history was already pruned (see
    /// `docs/REPLICATION.md` on bootstrap).
    pub fn replication_source(self: &Arc<Self>) -> DbResult<Arc<Source>> {
        if self.replica.is_some() {
            return Err(DbError::ReadOnly(
                "cascading replication is not supported; subscribe to the primary".into(),
            ));
        }
        let wal = self.store.storage().pool().wal().cloned().ok_or_else(|| {
            DbError::Catalog(
                "replication requires a WAL-backed primary; open it with path(..) and \
                 durability buffered or fsync"
                    .into(),
            )
        })?;
        let (src, register) = {
            let mut slot = self.repl.lock();
            if let Some(src) = slot.source.upgrade() {
                return Ok(src);
            }
            let inner = ReplicationSource::new(wal.clone())?;
            let src = Arc::new(Source {
                db: Arc::downgrade(self),
                inner,
            });
            slot.source = Arc::downgrade(&src);
            let register = !slot.metrics_registered;
            slot.metrics_registered = true;
            (src, register)
        };
        if register {
            if let Some(reg) = self.metrics_registry() {
                // The closures navigate a weak chain so the registry
                // keeps neither the database nor the source alive; a
                // lapsed source reads as 0 until the next subscriber.
                let w = Arc::downgrade(self);
                reg.counter_fn(
                    "repl_shipped_records_total",
                    "WAL records shipped to replication subscribers.",
                    move || {
                        w.upgrade()
                            .and_then(|db| db.repl.lock().source.upgrade())
                            .map(|s| s.shipped_records())
                            .unwrap_or(0)
                    },
                );
                let w = Arc::downgrade(self);
                reg.counter_fn(
                    "repl_shipped_bytes_total",
                    "WAL frame bytes shipped to replication subscribers.",
                    move || {
                        w.upgrade()
                            .and_then(|db| db.repl.lock().source.upgrade())
                            .map(|s| s.shipped_bytes())
                            .unwrap_or(0)
                    },
                );
                reg.gauge_fn(
                    "repl_shipped_segments",
                    "Sequence number of the primary log segment currently being shipped.",
                    move || wal.segment_seq() as i64,
                );
            }
        }
        Ok(src)
    }
}

/// A [`ReplStream`] over an in-process primary: the replica and the
/// primary share an address space (the "in-process pair" of
/// `docs/REPLICATION.md`).
pub struct InProcessStream {
    source: Arc<Source>,
}

impl InProcessStream {
    /// Subscribe to a primary.
    pub fn new(source: Arc<Source>) -> InProcessStream {
        InProcessStream { source }
    }
}

impl ReplStream for InProcessStream {
    fn poll(&mut self, after_lsn: u64, have_epoch: u64, max_records: usize) -> DbResult<Batch> {
        self.source.poll(after_lsn, have_epoch, max_records)
    }
}

// ---------------------------------------------------------------------------
// The catalog image.
// ---------------------------------------------------------------------------

/// Serialize the primary's full catalog under the shared catalog lock.
/// Deterministic (maps are emitted sorted); function and procedure
/// bodies travel as EXCESS source text and are re-parsed on the
/// replica.
pub(crate) fn encode_catalog_image(db: &Database) -> Vec<u8> {
    let cat = db.catalog.read();
    let mut out = Vec::new();
    put_u32(&mut out, IMAGE_VERSION);
    let roots = db.store.roots();
    put_u64(&mut out, roots.table_root);
    put_u64(&mut out, roots.backrefs_root);
    put_u64(&mut out, roots.children_root);
    put_u64(&mut out, roots.file);
    put_bytes(&mut out, &db.store.export_image());
    // Types and stored values name ADTs by id: ship what each id means
    // here so the importer can refuse a registry that disagrees.
    let adts: Vec<&str> = (0..)
        .map_while(|id| cat.adts.get(AdtId(id)).ok())
        .map(|adt| adt.name())
        .collect();
    put_u32(&mut out, adts.len() as u32);
    for name in adts {
        put_str(&mut out, name);
    }
    put_bytes(&mut out, &cat.types.to_bytes());

    let mut named: Vec<&NamedObject> = cat.named.values().collect();
    named.sort_by(|a, b| a.name.cmp(&b.name));
    put_u32(&mut out, named.len() as u32);
    for o in named {
        put_str(&mut out, &o.name);
        put_u64(&mut out, o.oid.0);
        write_qty(&o.qty, &mut out);
        out.push(o.is_collection as u8);
    }

    put_u32(&mut out, cat.functions.len() as u32);
    for f in &cat.functions {
        put_str(&mut out, &f.name);
        put_u32(&mut out, f.params.len() as u32);
        for (p, q) in &f.params {
            put_str(&mut out, p);
            write_qty(q, &mut out);
        }
        write_qty(&f.returns, &mut out);
        put_str(&mut out, &f.body.to_string());
        match f.attached_to {
            Some(t) => {
                out.push(1);
                put_u32(&mut out, t.0);
            }
            None => out.push(0),
        }
    }

    let mut procs: Vec<&ProcedureDef> = cat.procedures.values().collect();
    procs.sort_by(|a, b| a.name.cmp(&b.name));
    put_u32(&mut out, procs.len() as u32);
    for p in procs {
        put_str(&mut out, &p.name);
        put_u32(&mut out, p.params.len() as u32);
        for (name, q) in &p.params {
            put_str(&mut out, name);
            write_qty(q, &mut out);
        }
        put_u32(&mut out, p.body.len() as u32);
        for s in &p.body {
            put_str(&mut out, &s.to_string());
        }
    }

    put_u32(&mut out, cat.indexes.len() as u32);
    for i in &cat.indexes {
        put_str(&mut out, &i.name);
        put_str(&mut out, &i.collection);
        put_str(&mut out, &i.attr);
        put_u64(&mut out, i.root);
        out.push(i.unique as u8);
    }

    let mut stats: Vec<(&String, &StatsEntry)> = cat.stats.iter().collect();
    stats.sort_by_key(|(name, _)| name.as_str());
    put_u32(&mut out, stats.len() as u32);
    for (name, entry) in stats {
        put_str(&mut out, name);
        put_bytes(&mut out, &entry.stats.to_bytes());
        put_u64(&mut out, entry.record.page);
        put_u32(&mut out, entry.record.slot as u32);
    }
    match cat.stats_file {
        Some(f) => {
            out.push(1);
            put_u64(&mut out, f.0);
        }
        None => out.push(0),
    }

    put_bytes(&mut out, &cat.auth.to_bytes());
    out
}

/// A decoded catalog image: the fixed store roots, the store's own
/// type/collection tables (applied via [`ObjectStore::import_image`]),
/// and a rebuilt [`Catalog`] (built-in ADTs only — an image whose ADT
/// table says otherwise is refused with [`DbError::AdtMismatch`]).
pub(crate) struct CatalogImage {
    pub(crate) roots: StoreRoots,
    pub(crate) store_image: Vec<u8>,
    pub(crate) catalog: Catalog,
}

/// Decode an [`encode_catalog_image`] payload, re-parsing function and
/// procedure bodies against the built-in operator table.
pub(crate) fn decode_catalog_image(buf: &[u8]) -> DbResult<CatalogImage> {
    let mut pos = 0;
    let version = get_u32(buf, &mut pos)?;
    if version != IMAGE_VERSION {
        return Err(DbError::Net(format!(
            "catalog image version {version} does not match this build's {IMAGE_VERSION}; \
             upgrade primary and replica together"
        )));
    }
    let roots = StoreRoots {
        table_root: get_u64(buf, &mut pos)?,
        backrefs_root: get_u64(buf, &mut pos)?,
        children_root: get_u64(buf, &mut pos)?,
        file: get_u64(buf, &mut pos)?,
    };
    let store_image = get_bytes(buf, &mut pos)?.to_vec();

    let mut cat = Catalog::new();
    for id in 0..get_u32(buf, &mut pos)? {
        let name = get_str(buf, &mut pos)?;
        let here = cat.adts.lookup(&name).ok();
        if here != Some(AdtId(id)) {
            let here = here.map_or("missing".into(), |h| h.to_string());
            return Err(DbError::AdtMismatch(format!(
                "ADT '{name}' is {} on the primary but {here} in this node's registry; a \
                 replica resolves the built-in ADTs only",
                AdtId(id)
            )));
        }
    }
    cat.types = TypeRegistry::from_bytes(get_bytes(buf, &mut pos)?)?;

    for _ in 0..get_u32(buf, &mut pos)? {
        let name = get_str(buf, &mut pos)?;
        let oid = Oid(get_u64(buf, &mut pos)?);
        let qty = read_qty(buf, &mut pos)?;
        let is_collection = get_u8(buf, &mut pos)? != 0;
        cat.named.insert(
            name.clone(),
            NamedObject {
                name,
                oid,
                qty,
                is_collection,
            },
        );
    }

    // Bodies re-parse against the built-in ADTs' operator table; a
    // replica never sees custom-ADT operators (module docs).
    let mut ops = OperatorTable::new();
    sync_operators(&mut ops, &cat.adts);
    let parse_one = |src: &str, ops: &OperatorTable| -> DbResult<Stmt> {
        parse_program(src, ops)?
            .into_iter()
            .next()
            .ok_or_else(|| DbError::Net("catalog image carried an empty statement body".into()))
    };

    for _ in 0..get_u32(buf, &mut pos)? {
        let name = get_str(buf, &mut pos)?;
        let mut params: Vec<(String, QualType)> = Vec::new();
        for _ in 0..get_u32(buf, &mut pos)? {
            let p = get_str(buf, &mut pos)?;
            params.push((p, read_qty(buf, &mut pos)?));
        }
        let returns = read_qty(buf, &mut pos)?;
        let body = parse_one(&get_str(buf, &mut pos)?, &ops)?;
        let attached_to = match get_u8(buf, &mut pos)? {
            0 => None,
            _ => Some(TypeId(get_u32(buf, &mut pos)?)),
        };
        cat.functions.push(FunctionDef {
            name,
            params,
            returns,
            body,
            attached_to,
        });
    }

    for _ in 0..get_u32(buf, &mut pos)? {
        let name = get_str(buf, &mut pos)?;
        let mut params: Vec<(String, QualType)> = Vec::new();
        for _ in 0..get_u32(buf, &mut pos)? {
            let p = get_str(buf, &mut pos)?;
            params.push((p, read_qty(buf, &mut pos)?));
        }
        let mut body = Vec::new();
        for _ in 0..get_u32(buf, &mut pos)? {
            body.push(parse_one(&get_str(buf, &mut pos)?, &ops)?);
        }
        cat.procedures
            .insert(name.clone(), ProcedureDef { name, params, body });
    }

    for _ in 0..get_u32(buf, &mut pos)? {
        let name = get_str(buf, &mut pos)?;
        let collection = get_str(buf, &mut pos)?;
        let attr = get_str(buf, &mut pos)?;
        let root = get_u64(buf, &mut pos)?;
        let unique = get_u8(buf, &mut pos)? != 0;
        cat.indexes.push(IndexInfo {
            name,
            collection,
            attr,
            root,
            unique,
        });
    }

    for _ in 0..get_u32(buf, &mut pos)? {
        let name = get_str(buf, &mut pos)?;
        let stats = CollectionStats::from_bytes(get_bytes(buf, &mut pos)?)
            .ok_or_else(|| DbError::Net("catalog image carried malformed statistics".into()))?;
        let page = get_u64(buf, &mut pos)?;
        let slot = get_u32(buf, &mut pos)? as u16;
        cat.stats.insert(
            name,
            StatsEntry {
                stats,
                record: RecordId { page, slot },
            },
        );
    }
    cat.stats_file = match get_u8(buf, &mut pos)? {
        0 => None,
        _ => Some(FileId(get_u64(buf, &mut pos)?)),
    };

    cat.auth = Auth::from_bytes(get_bytes(buf, &mut pos)?)
        .ok_or_else(|| DbError::Net("catalog image carried malformed auth tables".into()))?;

    Ok(CatalogImage {
        roots,
        store_image,
        catalog: cat,
    })
}

// ---------------------------------------------------------------------------
// The replica side.
// ---------------------------------------------------------------------------

/// Shared replica state the session layer consults on every statement:
/// the replay latch, the published horizon, and the lag gauge.
pub struct ReplicaState {
    /// Readers hold this shared per statement; the pump holds it
    /// exclusively per batch, so a query never observes a half-applied
    /// B+-tree split.
    pub(crate) latch: RwLock<()>,
    /// Last replayed commit timestamp (monotonic; the `repl_horizon`
    /// gauge). Snapshots taken by replica reads pin exactly here.
    pub(crate) horizon: AtomicU64,
    /// Records between the primary's durable frontier and the replica's
    /// applied cursor, as of the last poll (`repl_lag_records`).
    pub(crate) lag: AtomicU64,
    /// Shed reads with [`DbError::Lagging`] when `lag` exceeds this.
    pub(crate) max_lag: Option<u64>,
}

/// Configuration for [`Replica::connect`].
pub struct ReplicaOptions {
    /// Buffer-pool pages for the replica's local store (default 4096).
    pub pool_pages: usize,
    /// Durability of the replica's local log (default
    /// [`Durability::Fsync`]; [`Durability::None`] is refused — a
    /// replica *is* its log).
    pub durability: Durability,
    /// Shed reads with [`DbError::Lagging`] (code 2004) when replay
    /// trails the primary's durable frontier by more than this many
    /// records (default: never shed).
    pub max_lag: Option<u64>,
    /// Register metrics (`repl_*` and the whole engine family) on the
    /// replica database (default true).
    pub metrics: bool,
    /// Tracing configuration for the replica database (default off;
    /// enables the `repl` span around each pump).
    pub trace: Option<TraceConfig>,
    /// Records fetched per poll (default 512).
    pub batch_records: usize,
}

impl Default for ReplicaOptions {
    fn default() -> Self {
        ReplicaOptions {
            pool_pages: 4096,
            durability: Durability::Fsync,
            max_lag: None,
            metrics: true,
            trace: None,
            batch_records: 512,
        }
    }
}

/// A read replica: an ordinary database continuously replaying the
/// primary's log. Open sessions via [`Replica::database`]; drive
/// replay via [`Replica::pump`] (the server's `--replica-of` mode runs
/// a pump thread; tests call it synchronously).
pub struct Replica {
    db: Arc<Database>,
    stream: Box<dyn ReplStream>,
    applier: ReplicaApplier,
    state: Arc<ReplicaState>,
    epoch: u64,
    batch_records: usize,
    lag_hist: Option<Arc<Histogram>>,
}

impl Replica {
    /// Connect a replica at `path` to an in-process primary
    /// (equivalent to `--replica-of` for two databases sharing a
    /// process).
    pub fn in_process(
        primary: &Arc<Database>,
        path: impl Into<PathBuf>,
        opts: ReplicaOptions,
    ) -> DbResult<Replica> {
        let source = primary.replication_source()?;
        Replica::connect(path, Box::new(InProcessStream::new(source)), opts)
    }

    /// Open (or re-open) the replica volume at `path`, run ordinary
    /// crash recovery on its local log, then catch up over `stream`
    /// until the primary's durable frontier is reached and a catalog
    /// image is in hand. Restarting a crashed replica is exactly this
    /// call again — replay resumes from the recovered cursor.
    pub fn connect(
        path: impl Into<PathBuf>,
        mut stream: Box<dyn ReplStream>,
        opts: ReplicaOptions,
    ) -> DbResult<Replica> {
        if opts.durability == Durability::None {
            return Err(DbError::Catalog(
                "a replica needs a write-ahead log; use durability buffered or fsync".into(),
            ));
        }
        let path = path.into();
        let (sm, report) = StorageManager::open(&path, opts.pool_pages, opts.durability)?;
        let mut applier = ReplicaApplier::new(sm)?;
        // Initial catch-up, before any session can observe the store:
        // the first poll carries epoch 0, so the primary always sends
        // an image (its epoch starts at 1).
        let mut epoch = 0u64;
        let mut image: Option<Vec<u8>> = None;
        loop {
            let mut batch = stream.poll(applier.applied_lsn(), epoch, opts.batch_records)?;
            if let Some(img) = batch.image.take() {
                image = Some(img);
                epoch = batch.epoch;
            }
            let drained = batch.entries.is_empty();
            applier.ingest(&batch.entries)?;
            if drained && applier.applied_lsn() >= batch.durable_lsn {
                break;
            }
        }
        let image =
            image.ok_or_else(|| DbError::Net("the primary never sent a catalog image".into()))?;
        let decoded = decode_catalog_image(&image)?;
        let store = ObjectStore::attach(applier.storage().clone(), &decoded.roots);
        store.import_image(&decoded.store_image)?;
        let state = Arc::new(ReplicaState {
            latch: RwLock::new(()),
            horizon: AtomicU64::new(applier.horizon()),
            lag: AtomicU64::new(0),
            max_lag: opts.max_lag,
        });
        let db = Database::assemble_replica(
            store,
            decoded.catalog,
            Some(report),
            state.clone(),
            opts.metrics,
            opts.trace,
        );
        let lag_hist = db.metrics_registry().map(|reg| {
            let counters = applier.counters();
            let c = counters.records.clone();
            reg.counter_fn(
                "repl_replayed_records_total",
                "Shipped WAL records appended to the replica's local log.",
                move || c.load(Ordering::Relaxed),
            );
            let c = counters.units.clone();
            reg.counter_fn(
                "repl_replayed_units_total",
                "Committed units replayed into the replica's store.",
                move || c.load(Ordering::Relaxed),
            );
            let c = counters.checkpoints.clone();
            reg.counter_fn(
                "repl_replayed_checkpoints_total",
                "Shipped checkpoints executed locally (flush + local log GC).",
                move || c.load(Ordering::Relaxed),
            );
            let wal = applier.wal();
            reg.gauge_fn(
                "repl_replayed_segments",
                "Sequence number of the replica log segment currently being written.",
                move || wal.segment_seq() as i64,
            );
            let st = state.clone();
            reg.gauge_fn(
                "repl_horizon",
                "Last replayed commit timestamp; replica reads pin here.",
                move || st.horizon.load(Ordering::Relaxed) as i64,
            );
            let st = state.clone();
            reg.gauge_fn(
                "repl_lag_records",
                "Records between the primary's durable frontier and the replica's \
                 applied cursor, as of the last poll.",
                move || st.lag.load(Ordering::Relaxed) as i64,
            );
            reg.histogram(
                "repl_lag",
                "Replay lag in records, observed at each poll.",
                COUNT_BUCKETS,
            )
        });
        Ok(Replica {
            db,
            stream,
            applier,
            state,
            epoch,
            batch_records: opts.batch_records,
            lag_hist,
        })
    }

    /// One replication round trip: poll the stream, apply the entries
    /// under the replay latch, swap in a fresh catalog image if one
    /// arrived, then publish the new horizon and lag. Returns the
    /// number of entries applied (0 = caught up at poll time).
    pub fn pump(&mut self) -> DbResult<u64> {
        let batch = self
            .stream
            .poll(self.applier.applied_lsn(), self.epoch, self.batch_records)?;
        let _span = self.db.start_span(
            "repl",
            format!(
                "{} records, durable lsn {}{}",
                batch.entries.len(),
                batch.durable_lsn,
                if batch.image.is_some() {
                    ", catalog image"
                } else {
                    ""
                }
            ),
        );
        let applied = batch.entries.len() as u64;
        // Entries first, then the image: the data may briefly run
        // ahead of the catalog (harmless), never the other way within
        // a batch.
        if !batch.entries.is_empty() {
            let _replay = self.state.latch.write();
            self.applier.ingest(&batch.entries)?;
        }
        if let Some(image) = &batch.image {
            let decoded = decode_catalog_image(image)?;
            let _replay = self.state.latch.write();
            self.db.store.import_image(&decoded.store_image)?;
            let mut cat = self.db.catalog.write();
            *cat = decoded.catalog;
            self.epoch = batch.epoch;
        }
        let lag = batch.durable_lsn.saturating_sub(self.applier.applied_lsn());
        self.state
            .horizon
            .store(self.applier.horizon(), Ordering::Relaxed);
        self.state.lag.store(lag, Ordering::Relaxed);
        if let Some(h) = &self.lag_hist {
            h.observe(lag);
        }
        Ok(applied)
    }

    /// Pump until a poll returns nothing and the applied cursor covers
    /// the primary's durable frontier.
    pub fn pump_until_caught_up(&mut self) -> DbResult<()> {
        loop {
            if self.pump()? == 0 && self.state.lag.load(Ordering::Relaxed) == 0 {
                return Ok(());
            }
        }
    }

    /// The replica database. Sessions opened on it are read-only:
    /// `retrieve` and `range of` execute (pinned at the replay
    /// horizon); everything else fails with [`DbError::ReadOnly`].
    pub fn database(&self) -> Arc<Database> {
        self.db.clone()
    }

    /// Last replayed commit timestamp (the `repl_horizon` gauge).
    pub fn horizon(&self) -> u64 {
        self.state.horizon.load(Ordering::Relaxed)
    }

    /// Replay lag in records as of the last poll.
    pub fn lag_records(&self) -> u64 {
        self.state.lag.load(Ordering::Relaxed)
    }

    /// The replica's applied log cursor (its local durable LSN).
    pub fn applied_lsn(&self) -> u64 {
        self.applier.applied_lsn()
    }
}
