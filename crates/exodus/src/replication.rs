//! WAL-shipping replication, database half (protocol: `docs/REPLICATION.md`).
//!
//! The storage layer ships and replays physical log entries
//! ([`exodus_storage::ReplicationSource`] / [`exodus_storage::ReplicaApplier`]),
//! and since the catalog is itself a logged record — the catalog image
//! every catalog-changing statement rewrites inside its own transaction
//! (DESIGN.md §14) — the log is all a replica needs: a [`Batch`] carries
//! log entries and the primary's durable frontier, nothing else.
//!
//! A [`Replica`] is then an ordinary [`Database`] over an ordinary
//! recovered volume, with three twists:
//!
//! * a pump ([`Replica::pump`]) polls its [`ReplStream`], feeds entries
//!   to the applier under a replay latch, and — when the replayed
//!   catalog image's generation moved — installs it under the same
//!   latch, so readers see a catalog and the pages it names together;
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
//! replicated (an ADT is executable code, not data); replicas resolve
//! the built-in ADTs only, and refuse with [`DbError::AdtMismatch`] a
//! catalog image whose ADT table names one they lack.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::RwLock;

use exodus_obs::{Histogram, TraceConfig, COUNT_BUCKETS};
use exodus_storage::encoding::ByteReader;
use exodus_storage::wal::{decode_frames, encode_frame};
use exodus_storage::{Durability, ReplicaApplier, ReplicationSource, StorageManager, WalEntry};

use crate::catalog::CatalogImage;
use crate::database::Database;
use crate::error::{DbError, DbResult};

// ---------------------------------------------------------------------------
// The batch: what one poll of the stream returns.
// ---------------------------------------------------------------------------

/// One unit of the replication protocol: committed log entries after
/// the subscriber's cursor and the primary's durable frontier (the lag
/// denominator).
pub struct Batch {
    /// Committed log entries with LSNs after the subscriber's cursor.
    pub entries: Vec<WalEntry>,
    /// The primary's durable log frontier at poll time.
    pub durable_lsn: u64,
}

impl Batch {
    /// Wire encoding (the `T_REPL_BATCH` payload): the durable
    /// frontier, then the raw CRC-framed log entries.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.durable_lsn.to_le_bytes().to_vec();
        for e in &self.entries {
            encode_frame(e, &mut out);
        }
        out
    }

    /// Decode a [`Batch::to_bytes`] payload. The trailing entry frames
    /// are CRC-checked by the storage codec.
    pub fn from_bytes(buf: &[u8]) -> DbResult<Batch> {
        let durable_lsn = ByteReader::new(buf)
            .get_u64()
            .map_err(|e| DbError::Net(format!("malformed replication payload: {e}")))?;
        Ok(Batch {
            entries: decode_frames(&buf[8..])?,
            durable_lsn,
        })
    }
}

/// A subscriber's view of the primary: one poll returns one [`Batch`].
/// Implemented in-process by the primary's shared
/// [`ReplicationSource`] ([`Database::replication_source`]) and over the
/// wire by the server crate's replication client.
pub trait ReplStream: Send {
    /// Fetch committed entries with LSNs after `after_lsn` (at most
    /// `max_records`).
    fn poll(&mut self, after_lsn: u64, max_records: usize) -> DbResult<Batch>;
}

// ---------------------------------------------------------------------------
// The primary side.
// ---------------------------------------------------------------------------

/// The primary side: the storage-level source (which pins log GC) is
/// itself the stream an in-process subscriber polls.
impl ReplStream for Arc<ReplicationSource> {
    fn poll(&mut self, after_lsn: u64, max_records: usize) -> DbResult<Batch> {
        let (entries, durable_lsn) = self.fetch(after_lsn, max_records)?;
        Ok(Batch {
            entries,
            durable_lsn,
        })
    }
}

/// The database's cached source handle plus the register-once flag for
/// the `repl_shipped_*` metric family.
#[derive(Default)]
pub(crate) struct SourceSlot {
    pub(crate) source: Weak<ReplicationSource>,
    pub(crate) metrics_registered: bool,
}

impl Database {
    /// The database's replication source, shared by every subscriber
    /// (created on first use; kept alive by the subscribers
    /// themselves). While any subscriber holds it, checkpoints stop
    /// pruning the log. Requires a WAL-backed database; fails on a
    /// primary whose pre-subscription history was already pruned (see
    /// `docs/REPLICATION.md` on bootstrap).
    pub fn replication_source(self: &Arc<Self>) -> DbResult<Arc<ReplicationSource>> {
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
            let src = Arc::new(ReplicationSource::new(wal.clone())?);
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
        Replica::connect(path, Box::new(primary.replication_source()?), opts)
    }

    /// Open (or re-open) the replica volume at `path`, run ordinary
    /// crash recovery on its local log, catch up over `stream` until the
    /// primary's durable frontier is reached, then install the replayed
    /// catalog image. Restarting a crashed replica is exactly this call
    /// again — replay resumes from the recovered cursor; a restarted
    /// replica whose primary is unreachable serves what it has replayed.
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
        // Initial catch-up, before any session can observe the store.
        loop {
            let batch = match stream.poll(applier.applied_lsn(), opts.batch_records) {
                Ok(batch) => batch,
                // Restarted without its primary: serve what was replayed.
                Err(_) if applier.applied_lsn() > 0 => break,
                Err(e) => return Err(e),
            };
            let drained = batch.entries.is_empty();
            applier.ingest(&batch.entries)?;
            if drained && applier.applied_lsn() >= batch.durable_lsn {
                break;
            }
        }
        let state = Arc::new(ReplicaState {
            latch: RwLock::new(()),
            horizon: AtomicU64::new(applier.horizon()),
            lag: AtomicU64::new(0),
            max_lag: opts.max_lag,
        });
        let db = Arc::new(Database::open(
            applier.storage().clone(),
            Some(report),
            Some(state.clone()),
            opts.metrics,
            opts.trace,
        )?);
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
            batch_records: opts.batch_records,
            lag_hist,
        })
    }

    /// One replication round trip: poll the stream, apply the entries
    /// under the replay latch — installing the replayed catalog image
    /// under the same latch when its generation moved — then publish
    /// the new horizon and lag. Returns the number of entries applied
    /// (0 = caught up at poll time).
    pub fn pump(&mut self) -> DbResult<u64> {
        let batch = self
            .stream
            .poll(self.applier.applied_lsn(), self.batch_records)?;
        let _span = self.db.span(
            "repl",
            format!(
                "{} records, durable lsn {}",
                batch.entries.len(),
                batch.durable_lsn
            ),
        );
        let applied = batch.entries.len() as u64;
        if !batch.entries.is_empty() {
            let _replay = self.state.latch.write();
            self.applier.ingest(&batch.entries)?;
            let sm = self.applier.storage();
            if CatalogImage::generation(sm)? != self.db.catalog_epoch.load(Ordering::SeqCst) {
                self.db.install(CatalogImage::read(sm)?)?;
            }
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
