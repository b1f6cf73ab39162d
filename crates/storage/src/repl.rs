//! WAL-shipping replication, storage half.
//!
//! The segmented, CRC-framed write-ahead log already *is* a replication
//! stream: every committed unit travels as physical page records — byte
//! runs against the page's previous state, or full images — that the
//! redo-only recovery pass applies. This module adds the two endpoints:
//!
//! * [`ReplicationSource`] — reads committed entries straight out of the
//!   primary's segment files a frame at a time (tail-following; the OS
//!   page cache makes freshly appended bytes visible) and pins segment GC
//!   so a checkpoint can never prune history a subscriber still needs.
//!   Shipping stops at the *durable* boundary — under
//!   [`crate::Durability::Fsync`] only fsynced records leave the primary,
//!   so a replica can never get ahead of what a primary crash would
//!   preserve.
//! * [`ReplicaApplier`] — appends received entries to the replica's own
//!   log (byte-identical frames at identical LSNs, so replica restart is
//!   ordinary [`crate::recovery::recover`]), then replays committed
//!   units into the buffer pool through
//!   [`crate::buffer::BufferPool::redo_page`] — recovery's redo function
//!   over the pool's page, which holds exactly what the stream's earlier
//!   records made it. Entries of a still-open unit wait in a pending
//!   buffer — exactly mirroring recovery's rule that only committed units
//!   redo — and a shipped `Checkpoint` becomes a real local checkpoint:
//!   flush everything, then prune the local log.
//!
//! Bootstrap requires the primary's log to reach back to LSN 1 (genesis
//! pages only ever appear there); a [`ReplicationSource`] therefore pins
//! the whole log for its lifetime. Seeding a replica from a primary
//! whose pre-source history is already pruned fails with a clear error —
//! base backups are future work (see ROADMAP).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{StorageError, StorageResult};
use crate::wal::{scan_log, Wal, WalEntry, WalRecord};
use crate::{Lsn, StorageManager};

/// The primary-side endpoint: hand out committed log entries after a
/// subscriber's cursor, and keep the segments they live in alive.
pub struct ReplicationSource {
    wal: Arc<Wal>,
    shipped_records: AtomicU64,
    shipped_bytes: AtomicU64,
}

impl ReplicationSource {
    /// Attach a source to a primary's log, pinning segment GC down to
    /// LSN 1 for the source's lifetime (see the module docs on
    /// bootstrap). Fails when pre-existing checkpoints already pruned
    /// the log's head — a subscriber could never replay genesis.
    pub fn new(wal: Arc<Wal>) -> StorageResult<ReplicationSource> {
        wal.set_gc_floor(1);
        // Verify LSN 1 is still on disk: the earliest segment must be
        // the one that starts the chain.
        match wal.read_entries_after(0, 1) {
            Ok(_) => {}
            Err(e) => {
                wal.set_gc_floor(u64::MAX);
                return Err(e);
            }
        }
        Ok(ReplicationSource {
            wal,
            shipped_records: AtomicU64::new(0),
            shipped_bytes: AtomicU64::new(0),
        })
    }

    /// Committed entries with LSNs strictly after `after_lsn`, capped at
    /// `max_records`, plus the primary's current durable frontier (the
    /// lag denominator). An empty batch means the subscriber is caught
    /// up.
    pub fn fetch(&self, after_lsn: Lsn, max_records: usize) -> StorageResult<(Vec<WalEntry>, Lsn)> {
        let (entries, bytes) = self.wal.read_entries_after(after_lsn, max_records)?;
        self.shipped_records
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        self.shipped_bytes.fetch_add(bytes, Ordering::Relaxed);
        Ok((entries, self.wal.durable_lsn()))
    }

    /// The primary's durable log frontier.
    pub fn durable_lsn(&self) -> Lsn {
        self.wal.durable_lsn()
    }

    /// Records shipped through this source so far.
    pub fn shipped_records(&self) -> u64 {
        self.shipped_records.load(Ordering::Relaxed)
    }

    /// Frame bytes shipped through this source so far.
    pub fn shipped_bytes(&self) -> u64 {
        self.shipped_bytes.load(Ordering::Relaxed)
    }

    /// Sequence number of the primary segment currently being shipped
    /// from (monotonic; the `repl_shipped_segments` gauge).
    pub fn segment_seq(&self) -> u64 {
        self.wal.segment_seq()
    }
}

impl Drop for ReplicationSource {
    fn drop(&mut self) {
        // Release the GC pin: without subscribers the checkpoint rule
        // alone governs pruning again.
        self.wal.set_gc_floor(u64::MAX);
    }
}

/// Counters describing one [`ReplicaApplier::ingest`] call.
#[derive(Debug, Default, Clone, Copy)]
pub struct ApplyStats {
    /// Entries appended to the local log.
    pub records: u64,
    /// Committed units whose page records were redone.
    pub units: u64,
    /// Page records redone into the pool.
    pub pages: u64,
    /// Shipped checkpoints executed locally (flush + local log GC).
    pub checkpoints: u64,
}

/// The replica-side endpoint: a cursor into the shipped stream plus the
/// pending buffer of the currently open unit. Operates on a perfectly
/// ordinary [`StorageManager`] — the local log is a real [`Wal`] and
/// restart recovery is the storage manager's own.
pub struct ReplicaApplier {
    sm: StorageManager,
    wal: Arc<Wal>,
    /// Entries of the trailing still-open unit: appended to the local
    /// log but not yet replayed (their commit has not arrived). Mirrors
    /// recovery's committed-units-only redo rule.
    pending: Vec<WalEntry>,
    records: Arc<AtomicU64>,
    units: Arc<AtomicU64>,
    checkpoints: Arc<AtomicU64>,
}

/// Shared handles onto a [`ReplicaApplier`]'s lifetime counters, for
/// metric callbacks that outlive a borrow of the applier.
#[derive(Clone)]
pub struct ApplierCounters {
    /// Entries appended to the local log.
    pub records: Arc<AtomicU64>,
    /// Committed units replayed.
    pub units: Arc<AtomicU64>,
    /// Shipped checkpoints executed locally.
    pub checkpoints: Arc<AtomicU64>,
}

impl ReplicaApplier {
    /// Wrap a freshly opened replica storage manager. `sm` must be
    /// WAL-backed (opened via [`StorageManager::open`], which already
    /// ran recovery); the trailing open unit, if the last session
    /// crashed mid-ship, is re-read into the pending buffer so its
    /// remainder can complete it.
    pub fn new(sm: StorageManager) -> StorageResult<ReplicaApplier> {
        let wal =
            sm.pool().wal().cloned().ok_or_else(|| {
                StorageError::Corrupt("a replica needs a WAL-backed store".into())
            })?;
        // Preload: entries of the unit left open at the log's tail.
        // Units are serialized on the primary, so the open unit's
        // entries are exactly the suffix from its Begin record.
        let mut pending = Vec::new();
        scan_log(wal.dir(), |e| match e.rec {
            WalRecord::Begin => pending = vec![e],
            WalRecord::Commit { .. } => pending.clear(),
            _ if !pending.is_empty() => pending.push(e),
            _ => {}
        })?;
        Ok(ReplicaApplier {
            sm,
            wal,
            pending,
            records: Arc::new(AtomicU64::new(0)),
            units: Arc::new(AtomicU64::new(0)),
            checkpoints: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Shared handles onto the lifetime counters (metric callbacks).
    pub fn counters(&self) -> ApplierCounters {
        ApplierCounters {
            records: self.records.clone(),
            units: self.units.clone(),
            checkpoints: self.checkpoints.clone(),
        }
    }

    /// The local write-ahead log (shared handle), e.g. for a
    /// segment-sequence gauge.
    pub fn wal(&self) -> Arc<Wal> {
        self.wal.clone()
    }

    /// The replica's storage manager (the one the applier replays
    /// into).
    pub fn storage(&self) -> &StorageManager {
        &self.sm
    }

    /// The LSN up to which the local log mirrors the primary's — the
    /// fetch cursor for the next batch.
    pub fn applied_lsn(&self) -> Lsn {
        self.wal.appended_lsn()
    }

    /// The replay horizon: the last commit timestamp made visible to
    /// replica readers (the storage clock — snapshots pin to it).
    pub fn horizon(&self) -> u64 {
        self.sm.txn().clock()
    }

    /// Total committed units replayed by this applier.
    pub fn units_applied(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }

    /// Shipped checkpoints executed locally.
    pub fn checkpoints_applied(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }

    /// Sequence number of the local segment being appended to.
    pub fn segment_seq(&self) -> u64 {
        self.wal.segment_seq()
    }

    /// Append a batch of shipped entries to the local log and replay
    /// what became committed. Entries must continue the local log
    /// exactly (`first.lsn == applied_lsn() + 1`, consecutive after
    /// that) — the local [`Wal::append`] assigns the same LSNs the
    /// primary did, which is verified per record.
    ///
    /// Failure mid-batch leaves a prefix appended (and possibly
    /// applied); that is the crash case recovery and the pending-buffer
    /// preload in [`ReplicaApplier::new`] are built for. Callers drop
    /// the applier and reopen the replica.
    pub fn ingest(&mut self, entries: &[WalEntry]) -> StorageResult<ApplyStats> {
        let mut stats = ApplyStats::default();
        let mut max_ts = 0;
        let first = self.wal.appended_lsn() + 1;
        for (offset, e) in entries.iter().enumerate() {
            let expect = first + offset as u64;
            if e.lsn != expect {
                return Err(StorageError::Corrupt(format!(
                    "replication stream gap: got lsn {}, want {expect}",
                    e.lsn
                )));
            }
            match &e.rec {
                WalRecord::Checkpoint { clock } => {
                    self.apply_checkpoint(e, *clock, &mut stats)?;
                }
                rec => {
                    let lsn = self.wal.append(e.unit, rec)?;
                    debug_assert_eq!(lsn, e.lsn, "local log diverged from the stream");
                    stats.records += 1;
                    // Outside a unit nothing is redone; a unit's records
                    // wait for its commit.
                    if e.unit != 0 {
                        if e.rec == WalRecord::Begin {
                            // Units never interleave in the log: whatever
                            // is pending belongs to a unit that died.
                            self.pending.clear();
                        }
                        self.pending.push(e.clone());
                        if let WalRecord::Commit { ts } = e.rec {
                            self.apply_commit(e.unit, &mut stats)?;
                            max_ts = max_ts.max(ts);
                        }
                    }
                }
            }
        }
        // One durability point per batch: the local log holds everything
        // this call shipped before the caller reports progress — and
        // before any new horizon is published. Publishing only after the
        // flush means a reader can never be handed a horizon whose
        // commit record a crash could still lose; the recovered horizon
        // is always at least what readers were shown.
        self.wal.flush()?;
        if max_ts > 0 {
            self.advance_clock(max_ts);
        }
        self.records.fetch_add(stats.records, Ordering::Relaxed);
        self.units.fetch_add(stats.units, Ordering::Relaxed);
        self.checkpoints
            .fetch_add(stats.checkpoints, Ordering::Relaxed);
        Ok(stats)
    }

    /// A unit's commit arrived: redo its buffered page records in LSN
    /// order. The commit's timestamp becomes the horizon only at the
    /// caller's batch-end flush — visibility must never run ahead of the
    /// local log's durability.
    fn apply_commit(&mut self, unit: u64, stats: &mut ApplyStats) -> StorageResult<()> {
        let pool = self.sm.pool();
        for e in &self.pending {
            if e.unit == unit && e.rec.page_no().is_some() {
                pool.redo_page(&e.rec, e.lsn)?;
                stats.pages += 1;
            }
        }
        self.pending.retain(|e| e.unit != unit);
        stats.units += 1;
        Ok(())
    }

    /// A shipped checkpoint becomes a local one. Order matters twice
    /// over: the local log must be durable before pages flush (the
    /// usual rule — `flush_all` enforces it per page), and every page
    /// must be on the volume before the checkpoint record enters the
    /// local log — otherwise a crash could recover from a checkpoint
    /// whose pre-images the local log no longer holds.
    fn apply_checkpoint(
        &mut self,
        e: &WalEntry,
        clock: u64,
        stats: &mut ApplyStats,
    ) -> StorageResult<()> {
        let pool = self.sm.pool();
        self.wal.flush()?;
        pool.flush_all()?;
        pool.sync_volume()?;
        let lsn = self.wal.append_checkpoint(clock)?;
        debug_assert_eq!(lsn, e.lsn, "local log diverged from the stream");
        self.wal.flush()?;
        self.wal.gc_segments(lsn)?;
        stats.records += 1;
        stats.checkpoints += 1;
        if clock > 0 {
            self.advance_clock(clock);
        }
        Ok(())
    }

    /// Move the storage clock (never backwards): replica snapshots pin
    /// to it, so this is what publishes a new horizon to readers.
    fn advance_clock(&self, ts: u64) {
        let txn = self.sm.txn();
        if ts > txn.clock() {
            txn.seed_clock(ts);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Durability, StorageManager};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("exodus-repl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn pump(src: &ReplicationSource, app: &mut ReplicaApplier) {
        loop {
            let (entries, _) = src.fetch(app.applied_lsn(), 512).unwrap();
            if entries.is_empty() {
                break;
            }
            app.ingest(&entries).unwrap();
        }
    }

    #[test]
    fn ships_and_replays_committed_units() {
        let dir = temp_dir("ship");
        let (sm, _) = StorageManager::open(&dir.join("p.vol"), 128, Durability::Fsync).unwrap();
        let txn = sm.begin_txn().unwrap();
        let file = sm.create_file().unwrap();
        txn.commit().unwrap();
        let mut rids = Vec::new();
        for i in 0..20u8 {
            let txn = sm.begin_txn().unwrap();
            rids.push(sm.insert(file, &[i; 100]).unwrap());
            txn.commit().unwrap();
        }
        let src = ReplicationSource::new(sm.pool().wal().unwrap().clone()).unwrap();

        let (rsm, _) = StorageManager::open(&dir.join("r.vol"), 128, Durability::Fsync).unwrap();
        let mut app = ReplicaApplier::new(rsm.clone()).unwrap();
        pump(&src, &mut app);
        assert_eq!(app.applied_lsn(), src.durable_lsn());
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(rsm.read(*rid).unwrap(), vec![i as u8; 100]);
        }
        assert!(src.shipped_records() > 0);
        assert!(app.units_applied() >= 20);
    }

    #[test]
    fn shipped_checkpoint_prunes_local_log_and_survives_reopen() {
        let dir = temp_dir("ckpt");
        let (sm, _) = StorageManager::open(&dir.join("p.vol"), 128, Durability::Fsync).unwrap();
        let src = ReplicationSource::new(sm.pool().wal().unwrap().clone()).unwrap();
        let txn = sm.begin_txn().unwrap();
        let file = sm.create_file().unwrap();
        let rid_a = sm.insert(file, b"before checkpoint").unwrap();
        txn.commit().unwrap();
        sm.checkpoint().unwrap();
        let txn = sm.begin_txn().unwrap();
        let rid_b = sm.insert(file, b"after checkpoint").unwrap();
        txn.commit().unwrap();

        let (rsm, _) = StorageManager::open(&dir.join("r.vol"), 128, Durability::Fsync).unwrap();
        let mut app = ReplicaApplier::new(rsm.clone()).unwrap();
        pump(&src, &mut app);
        assert!(app.checkpoints_applied() >= 1);
        let cursor = app.applied_lsn();
        drop(app);
        drop(rsm);

        // Reopen: recovery replays the (pruned) local log; the cursor
        // must come back exactly where shipping left off.
        let (rsm, _) = StorageManager::open(&dir.join("r.vol"), 128, Durability::Fsync).unwrap();
        let app = ReplicaApplier::new(rsm.clone()).unwrap();
        assert_eq!(app.applied_lsn(), cursor);
        assert_eq!(rsm.read(rid_a).unwrap(), b"before checkpoint".to_vec());
        assert_eq!(rsm.read(rid_b).unwrap(), b"after checkpoint".to_vec());
    }

    #[test]
    fn source_pins_gc_and_prune_detection_works() {
        let dir = temp_dir("pin");
        // Tiny segments so checkpoints would prune without the pin.
        let (sm, _) =
            StorageManager::open_with_config(&dir.join("p.vol"), 128, Durability::Fsync, 4096)
                .unwrap();
        let src = ReplicationSource::new(sm.pool().wal().unwrap().clone()).unwrap();
        let txn = sm.begin_txn().unwrap();
        let file = sm.create_file().unwrap();
        txn.commit().unwrap();
        for i in 0..10u8 {
            let txn = sm.begin_txn().unwrap();
            sm.insert(file, &[i; 1000]).unwrap();
            txn.commit().unwrap();
            sm.checkpoint().unwrap();
        }
        // With the source alive, history back to LSN 1 is still there.
        let (entries, _) = src.fetch(0, 10_000).unwrap();
        assert_eq!(entries.first().unwrap().lsn, 1);
        drop(src);
        // Dropping the source lifts the pin; the next checkpoint prunes,
        // and a late subscriber gets a clear error.
        sm.checkpoint().unwrap();
        let wal = sm.pool().wal().unwrap().clone();
        let err = match ReplicationSource::new(wal) {
            Err(e) => e,
            Ok(_) => panic!("subscribing to a pruned log must fail"),
        };
        assert!(err.to_string().contains("pruned"), "got: {err}");
    }

    #[test]
    fn frame_codec_round_trips() {
        let dir = temp_dir("codec");
        let (sm, _) = StorageManager::open(&dir.join("p.vol"), 128, Durability::Fsync).unwrap();
        let txn = sm.begin_txn().unwrap();
        let file = sm.create_file().unwrap();
        sm.insert(file, b"payload").unwrap();
        txn.commit().unwrap();
        let wal = sm.pool().wal().unwrap();
        let (entries, frame_bytes) = wal.read_entries_after(0, 1024).unwrap();
        assert!(!entries.is_empty());
        let mut bytes = Vec::new();
        for e in &entries {
            crate::wal::encode_frame(e, &mut bytes);
        }
        assert_eq!(
            bytes.len() as u64,
            frame_bytes,
            "frame lengths count the bytes shipped"
        );
        let decoded = crate::wal::decode_frames(&bytes).unwrap();
        assert_eq!(decoded.len(), entries.len());
        for (a, b) in entries.iter().zip(&decoded) {
            assert_eq!(a.lsn, b.lsn);
            assert_eq!(a.unit, b.unit);
        }
        // A flipped byte is an error, not a silent tail.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        assert!(crate::wal::decode_frames(&corrupt).is_err());
    }
}
