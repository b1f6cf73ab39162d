//! # exodus-storage
//!
//! A storage manager in the mold of the EXODUS storage system: the substrate
//! the EXTRA data model and EXCESS query language were specified against.
//!
//! The paper ("A Data Model and Query Language for EXODUS", Carey, DeWitt &
//! Vandenberg, SIGMOD 1988) assumes a storage layer providing OID-addressed
//! persistent objects, collection scans, and pluggable access methods. This
//! crate provides:
//!
//! * [`page`] — 8 KiB slotted pages with a slot directory and in-page
//!   compaction.
//! * [`volume`] — the page space: in-memory or file-backed.
//! * [`buffer`] — a clock-replacement buffer pool with pin/unpin semantics
//!   and hit/miss statistics.
//! * [`heap`] — heap files (chained pages) holding variable-length records
//!   addressed by record id.
//! * [`object`] — the object table: stable logical OIDs mapped to record
//!   ids, so records may move without invalidating references (the storage
//!   half of EXTRA's object identity).
//! * [`btree`] — a B+-tree access method over order-preserving byte keys.
//! * [`lob`] — large storage objects (EXODUS's hallmark): byte sequences
//!   spanning many pages with positional read/write.
//! * [`encoding`] — order-preserving key encoding for composite keys.
//! * [`wal`] — a segmented, CRC-checksummed write-ahead log with write
//!   transactions, one logged unit each, as the unit of atomicity.
//! * [`recovery`] — the analysis/redo pass that brings a volume back to a
//!   consistent state after a crash.
//! * [`txn`] — snapshot-isolated transactions: a commit-timestamp clock,
//!   versioned-record visibility rules, reader snapshots that never block
//!   the writer, and runtime abort via in-memory before-images.
//! * [`failpoint`] — deterministic crash injection for testing the two
//!   modules above (`cfg(test)` / the `failpoints` cargo feature).
//!
//! # Quick example
//!
//! ```
//! use exodus_storage::StorageManager;
//!
//! let sm = StorageManager::in_memory(64);
//! let file = sm.create_file().unwrap();
//! let rid = sm.insert(file, b"hello, exodus").unwrap();
//! assert_eq!(sm.read(rid).unwrap(), b"hello, exodus");
//! ```
//!
//! # Durability
//!
//! A file-backed manager opened with [`StorageManager::open`] and a
//! [`Durability`] other than [`Durability::None`] is crash-consistent:
//! mutations grouped under a [`WriteTxn`] either survive a crash entirely or
//! disappear entirely, and opening the database again runs recovery
//! automatically. See [`wal`] for the protocol and DESIGN.md §11 for the
//! guarantees per level.
//!
//! ```no_run
//! use exodus_storage::{Durability, StorageManager};
//!
//! let path = std::path::Path::new("/tmp/example.vol");
//! let (sm, report) = StorageManager::open(path, 1024, Durability::Fsync).unwrap();
//! assert!(report.was_clean());
//! let txn = sm.begin_txn().unwrap();
//! let file = sm.create_file().unwrap();
//! sm.insert(file, b"durable").unwrap();
//! txn.commit().unwrap(); // page changes + commit record hit the log
//! sm.checkpoint().unwrap();
//! ```

#![deny(rustdoc::broken_intra_doc_links)]
pub mod btree;
pub mod buffer;
pub mod crc;
pub mod encoding;
pub mod error;
pub mod failpoint;
pub mod heap;
pub mod lob;
pub mod object;
pub mod page;
pub mod recovery;
pub mod repl;
pub mod txn;
pub mod volume;
pub mod wal;

pub use buffer::BufferStats;
pub use error::{StorageError, StorageResult};
pub use heap::{FileId, RecordId};
pub use object::Oid;
pub use recovery::RecoveryReport;
pub use repl::{ApplierCounters, ApplyStats, ReplicaApplier, ReplicationSource};
pub use txn::{visible, ReclaimOp, Snapshot, TxnManager, WriteTxn, TS_INF, TS_LATEST};
pub use wal::{DeltaBase, Durability, Lsn, Wal, WalEntry, WalRecord};

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use buffer::BufferPool;
use exodus_obs::MetricsRegistry;
use volume::{FileVolume, MemVolume};

/// The top-level storage manager: a buffer pool over a volume, plus
/// factories for heap files, B+-trees, object tables and large objects.
///
/// Cloneable handle (`Arc` inside); safe to share across threads.
#[derive(Clone)]
pub struct StorageManager {
    pool: Arc<BufferPool>,
    /// Checkpoints taken through this manager (shared across clones).
    checkpoints: Arc<AtomicU64>,
    /// Transaction manager (shared across clones).
    txn: Arc<TxnManager>,
}

impl StorageManager {
    /// Create a storage manager over an in-memory volume with a buffer pool
    /// of `pool_pages` frames.
    pub fn in_memory(pool_pages: usize) -> Self {
        StorageManager {
            pool: Arc::new(BufferPool::new(Box::new(MemVolume::new()), pool_pages)),
            checkpoints: Arc::new(AtomicU64::new(0)),
            txn: Arc::new(TxnManager::new()),
        }
    }

    /// Create a storage manager backed by a file on disk.
    ///
    /// No write-ahead log is attached: equivalent to
    /// [`StorageManager::open`] with [`Durability::None`], minus the
    /// recovery pass. Prefer `open` for anything that must survive a
    /// crash.
    pub fn file_backed(path: &std::path::Path, pool_pages: usize) -> StorageResult<Self> {
        Ok(StorageManager {
            pool: Arc::new(BufferPool::new(
                Box::new(FileVolume::open(path)?),
                pool_pages,
            )),
            checkpoints: Arc::new(AtomicU64::new(0)),
            txn: Arc::new(TxnManager::new()),
        })
    }

    /// Open (or create) a file-backed database at `path`, running crash
    /// recovery first. Returns the manager and a [`RecoveryReport`]
    /// describing what recovery found.
    ///
    /// The write-ahead log lives in a sibling directory named
    /// `<path>.wal`. With [`Durability::None`] any leftover log is
    /// replayed one final time and then deleted — subsequent writes are
    /// unlogged, and a stale log must not outlive them.
    pub fn open(
        path: &Path,
        pool_pages: usize,
        durability: Durability,
    ) -> StorageResult<(Self, RecoveryReport)> {
        Self::open_with_config(path, pool_pages, durability, wal::DEFAULT_SEGMENT_BYTES)
    }

    /// [`StorageManager::open`] with an explicit log segment size
    /// (rollover boundary tests use tiny segments).
    pub fn open_with_config(
        path: &Path,
        pool_pages: usize,
        durability: Durability,
        segment_bytes: u64,
    ) -> StorageResult<(Self, RecoveryReport)> {
        let wal_dir = wal_dir_for(path);
        let report = recovery::recover(&wal_dir, path)?;
        let pool = match durability {
            Durability::None => {
                // Unlogged mode: recovery ran above; a log kept around any
                // longer could replay stale images over unlogged writes.
                if wal_dir.exists() {
                    std::fs::remove_dir_all(&wal_dir)?;
                }
                BufferPool::new(Box::new(FileVolume::open(path)?), pool_pages)
            }
            Durability::Buffered | Durability::Fsync => {
                let volume = FileVolume::open(path)?;
                let wal = Arc::new(Wal::open(&wal_dir, durability, segment_bytes)?);
                BufferPool::with_wal(Box::new(volume), pool_pages, wal)
            }
        };
        let txn = Arc::new(TxnManager::new());
        // The commit clock restarts from the highest durable timestamp so
        // recovered versions stay visible and new commits sort after old.
        txn.seed_clock(report.clock);
        Ok((
            StorageManager {
                pool: Arc::new(pool),
                checkpoints: Arc::new(AtomicU64::new(0)),
                txn,
            },
            report,
        ))
    }

    /// The configured durability level ([`Durability::None`] when no log
    /// is attached).
    pub fn durability(&self) -> Durability {
        self.pool.wal().map_or(Durability::None, |w| w.durability())
    }

    /// Take a checkpoint: bring the volume up to date with the log and
    /// prune log segments that can never be replayed again.
    ///
    /// Protocol (with a WAL attached): hold the writer gate, flush the log,
    /// write all dirty pages back (every change they hold is logged),
    /// sync the volume, append [`WalRecord::Checkpoint`] — after which
    /// each page's next change logs a full image again — flush it, then
    /// delete dead segments. If a crash lands anywhere inside, recovery
    /// replays from the *previous* checkpoint — the new record only
    /// becomes the cutoff once durable. Without a WAL this degrades to
    /// flush-and-sync.
    pub fn checkpoint(&self) -> StorageResult<()> {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        let Some(wal) = self.pool.wal().cloned() else {
            self.pool.flush_all()?;
            return self.pool.sync_volume();
        };
        let _hold = self.txn.hold_writers();
        wal.flush()?;
        self.pool.flush_all()?;
        self.pool.sync_volume()?;
        let cp_lsn = wal.append_checkpoint(self.txn.clock())?;
        wal.flush()?;
        wal.gc_segments(cp_lsn)?;
        Ok(())
    }

    /// The underlying buffer pool.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The transaction manager (shared across clones of this handle).
    pub fn txn(&self) -> &Arc<TxnManager> {
        &self.txn
    }

    /// Take a read snapshot at the current commit clock. The snapshot
    /// never blocks the writer and the writer never blocks it.
    pub fn begin_snapshot(&self) -> Snapshot {
        self.txn.begin_snapshot()
    }

    /// Begin a write transaction: claim the writer gate (blocking until
    /// it frees), open a logged unit, and start before-image capture so
    /// the transaction can abort at runtime. Every page dirtied until
    /// [`WriteTxn::commit`] stays in the pool (no-steal) and its change is
    /// logged at commit, so a crash anywhere inside rolls the whole
    /// transaction back on recovery; the pool must have room for the
    /// write set. Mutations made through the returned guard are stamped
    /// with its provisional timestamp by the versioned heap APIs.
    pub fn begin_txn(&self) -> StorageResult<WriteTxn> {
        self.begin_txn_with(true)
            .map(|txn| txn.expect("a waiting claim takes the gate"))
    }

    /// [`StorageManager::begin_txn`], but give up immediately when the
    /// writer gate is held — by a writer or a checkpoint (vacuum's
    /// politeness, and a session's lock timeout).
    pub fn try_begin_txn(&self) -> StorageResult<Option<WriteTxn>> {
        self.begin_txn_with(false)
    }

    fn begin_txn_with(&self, wait: bool) -> StorageResult<Option<WriteTxn>> {
        let Some(ts) = self.txn.acquire_writer(wait) else {
            return Ok(None);
        };
        let unit = match self.pool.wal().map(|wal| wal.append_begin()) {
            Some(Err(e)) => {
                self.txn.release_writer(ts, false);
                return Err(e);
            }
            Some(Ok(unit)) => unit,
            None => 0,
        };
        self.pool.begin_undo_capture();
        Ok(Some(WriteTxn::new(
            self.txn.clone(),
            self.pool.clone(),
            ts,
            unit,
        )))
    }

    /// Register this manager's instruments on `reg` under the `storage_`
    /// prefix: buffer-pool counters, checkpoint count, and — when a WAL
    /// is attached — append/fsync/group-commit activity. All values are
    /// read through callbacks over counters the subsystems maintain
    /// anyway, so registration adds no hot-path cost.
    pub fn register_metrics(&self, reg: &MetricsRegistry) {
        let pool = self.pool.clone();
        reg.counter_fn(
            "storage_pool_hits_total",
            "Page pins satisfied from the buffer pool.",
            {
                let pool = pool.clone();
                move || pool.stats().hits
            },
        );
        reg.counter_fn(
            "storage_pool_misses_total",
            "Page pins that required a volume read.",
            {
                let pool = pool.clone();
                move || pool.stats().misses
            },
        );
        reg.counter_fn(
            "storage_pool_evictions_total",
            "Frames reclaimed by the clock hand.",
            {
                let pool = pool.clone();
                move || pool.stats().evictions
            },
        );
        reg.counter_fn(
            "storage_pool_writebacks_total",
            "Dirty pages written back to the volume.",
            {
                let pool = pool.clone();
                move || pool.stats().writebacks
            },
        );
        let checkpoints = self.checkpoints.clone();
        reg.counter_fn(
            "storage_checkpoints_total",
            "Checkpoints taken.",
            move || checkpoints.load(Ordering::Relaxed),
        );
        let txn = self.txn.clone();
        reg.gauge_fn(
            "storage_txn_active",
            "Active transactions: registered snapshots plus the in-flight writer.",
            move || txn.active_count() as i64,
        );
        let txn = self.txn.clone();
        reg.counter_fn(
            "storage_txn_committed_total",
            "Write transactions committed.",
            move || txn.committed_total(),
        );
        let txn = self.txn.clone();
        reg.counter_fn(
            "storage_txn_aborted_total",
            "Write transactions aborted (runtime abort, not crash rollback).",
            move || txn.aborted_total(),
        );
        let txn = self.txn.clone();
        reg.counter_fn(
            "storage_txn_commit_indeterminate_total",
            "Commits parked after a failed fsync: the commit record is in the log but \
             unpublished, so a restart may surface transactions this process never showed.",
            move || txn.parked_total(),
        );
        reg.histogram_shared(
            "storage_txn_commit_wait_ns",
            "Wall-clock commit latency in nanoseconds (images + commit record + fsync wait).",
            self.txn.commit_wait_histogram(),
        );
        if let Some(wal) = self.pool.wal() {
            let w = wal.clone();
            reg.counter_fn(
                "storage_wal_appends_total",
                "Log records appended.",
                move || w.metrics().appends.load(Ordering::Relaxed),
            );
            let w = wal.clone();
            reg.counter_fn(
                "storage_wal_append_bytes_total",
                "Log frame bytes appended.",
                move || w.metrics().append_bytes.load(Ordering::Relaxed),
            );
            let w = wal.clone();
            reg.counter_fn(
                "storage_wal_fsyncs_total",
                "Log fsyncs issued.",
                move || w.metrics().fsyncs.load(Ordering::Relaxed),
            );
            reg.histogram_shared(
                "storage_wal_group_commit_records",
                "Records made durable per fsync (group-commit batch size).",
                wal.metrics().group_commit_records.clone(),
            );
            reg.histogram_shared(
                "storage_wal_fsync_ns",
                "Wall-clock log fsync latency in nanoseconds.",
                wal.metrics().fsync_ns.clone(),
            );
        }
    }

    /// Create a new heap file, returning its id.
    pub fn create_file(&self) -> StorageResult<FileId> {
        heap::HeapFile::create(&self.pool)
    }

    /// Insert a record into a heap file.
    pub fn insert(&self, file: FileId, data: &[u8]) -> StorageResult<RecordId> {
        heap::HeapFile::open(file).insert(&self.pool, data)
    }

    /// Read a record by id.
    pub fn read(&self, rid: RecordId) -> StorageResult<Vec<u8>> {
        heap::read_record(&self.pool, rid)
    }

    /// Overwrite a record (the record may move; the new id is returned).
    pub fn update(&self, file: FileId, rid: RecordId, data: &[u8]) -> StorageResult<RecordId> {
        heap::HeapFile::open(file).update(&self.pool, rid, data)
    }

    /// Scan every live record of a heap file.
    pub fn scan(&self, file: FileId) -> heap::HeapScan {
        heap::HeapFile::open(file).scan(self.pool.clone())
    }

    /// Flush all dirty pages to the volume.
    pub fn flush(&self) -> StorageResult<()> {
        self.pool.flush_all()
    }
}

/// The log directory for a volume at `path`: a sibling named
/// `<path>.wal`.
fn wal_dir_for(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    std::path::PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_small_records() {
        let sm = StorageManager::in_memory(16);
        let f = sm.create_file().unwrap();
        let mut rids = Vec::new();
        for i in 0..100u32 {
            let data = format!("record-{i}");
            rids.push((sm.insert(f, data.as_bytes()).unwrap(), data));
        }
        for (rid, data) in &rids {
            assert_eq!(sm.read(*rid).unwrap(), data.as_bytes());
        }
    }

    #[test]
    fn scan_sees_all_records() {
        let sm = StorageManager::in_memory(16);
        let f = sm.create_file().unwrap();
        for i in 0..500u32 {
            sm.insert(f, &i.to_be_bytes()).unwrap();
        }
        let seen: Vec<Vec<u8>> = sm.scan(f).map(|r| r.unwrap().1).collect();
        assert_eq!(seen.len(), 500);
    }

    #[test]
    fn delete_removes_from_scan() {
        let sm = StorageManager::in_memory(16);
        let f = sm.create_file().unwrap();
        let keep = sm.insert(f, b"keep").unwrap();
        let kill = sm.insert(f, b"kill").unwrap();
        heap::HeapFile::open(f).delete(sm.pool(), kill).unwrap();
        let seen: Vec<_> = sm.scan(f).map(|r| r.unwrap()).collect();
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, keep);
        assert!(sm.read(kill).is_err());
    }

    /// A checkpoint keeps writers out through the writer gate, and a
    /// writer that will not wait gets `None` at once instead of waiting
    /// the checkpoint out. The hold itself is neither a commit nor an
    /// abort.
    #[test]
    fn try_begin_txn_returns_at_once_while_a_checkpoint_holds_the_gate() {
        let dir = std::env::temp_dir().join(format!("exodus-sm-gate-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (sm, _) = StorageManager::open(&dir.join("vol.db"), 32, Durability::Buffered).unwrap();
        let hold = sm.txn.hold_writers();
        let (tx, rx) = std::sync::mpsc::channel();
        let sm2 = sm.clone();
        let t = std::thread::spawn(move || tx.send(sm2.try_begin_txn().unwrap().is_some()));
        let got = rx.recv_timeout(std::time::Duration::from_millis(100));
        drop(hold);
        t.join().unwrap().ok();
        assert_eq!(got, Ok(false), "try_begin_txn waited for the checkpoint");
        let txn = &sm.txn;
        assert_eq!(
            (txn.committed_total(), txn.aborted_total(), txn.clock()),
            (0, 0, 0)
        );
        assert!(
            sm.try_begin_txn().unwrap().is_some(),
            "the gate is free again"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn update_preserves_other_records() {
        let sm = StorageManager::in_memory(16);
        let f = sm.create_file().unwrap();
        let a = sm.insert(f, b"aaaa").unwrap();
        let b = sm.insert(f, b"bbbb").unwrap();
        let a2 = sm.update(f, a, &vec![b'x'; 3000]).unwrap();
        assert_eq!(sm.read(a2).unwrap(), vec![b'x'; 3000]);
        assert_eq!(sm.read(b).unwrap(), b"bbbb");
    }
}
