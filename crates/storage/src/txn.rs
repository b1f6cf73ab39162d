//! Multi-version concurrency control: snapshot-isolated transactions.
//!
//! This module is the storage layer's one write scope: a [`TxnManager`]
//! issuing monotonic commit timestamps and owning the writer gate, a
//! [`Snapshot`] guard giving readers a frozen, consistent view that never
//! blocks (or is blocked by) the writer, and a [`WriteTxn`] guard — one
//! logged unit of [`crate::wal`], with in-memory rollback so `abort` works
//! at runtime, not just across a crash.
//!
//! # The protocol
//!
//! * **Record versioning.** Every heap record carries a
//!   `(begin_ts, end_ts)` header stamped by [`crate::heap`]. A version is
//!   [`visible`] to a snapshot `s` when `begin <= s && (end == TS_INF ||
//!   s < end)`. Updates insert a *new* version and end-stamp the old one;
//!   deletes just end-stamp. Old versions are reachable through per-object
//!   version chains ([`TxnManager::note_chain`]) until vacuum reclaims
//!   them.
//! * **Single writer, many readers.** One write transaction runs at a
//!   time, serialized by the writer gate — the only thing that serializes
//!   writers; a checkpoint holds the same gate. Its provisional timestamp
//!   — drawn from a dedicated `next_ts` counter, always above the clock —
//!   is also its commit timestamp, valid precisely because writers are
//!   serialized. Readers take snapshots at the *published* clock, so an
//!   in-flight (or committed-but-not-yet-durable) writer's versions are
//!   invisible to everyone but itself.
//! * **Commit.** Append a redo record for each page in the write set —
//!   its byte runs that differ from the captured before-image, or a full
//!   image where a delta cannot stand alone (see [`crate::wal`]) — then
//!   [`crate::wal::WalRecord::Commit`]`{ ts }` — the commit point — then
//!   *release the writer gate before flushing*: the next writer appends
//!   its records while this one waits on the fsync, and committers
//!   queued on the same fsync share it (group commit; see
//!   [`crate::wal::Wal::flush_up_to`]). The clock is published only
//!   after the record is durable, so a commit is never visible before
//!   it would survive a crash. Crash before the commit record ⇒
//!   recovery rolls the whole transaction back by omission.
//! * **Abort.** Restore the buffer pool's captured before-images
//!   ([`crate::buffer`]'s undo capture), drop the version-chain and
//!   reclaim bookkeeping the transaction accumulated, and release the
//!   gate *without* a commit record. Pages the transaction allocated leak
//!   (zeroed) — the volume allocator is append-only and a leaked free
//!   page is harmless.
//! * **Vacuum.** Structural garbage — dead record versions, object-table
//!   slots of deleted objects — cannot be reclaimed at commit time
//!   because older snapshots may still need them. Mutators defer
//!   [`ReclaimOp`]s instead; [`TxnManager::take_ripe`] hands back the ops
//!   whose commit timestamp is at or below the reclaim watermark (the
//!   oldest active snapshot, or the clock when none are active).
//!
//! See DESIGN.md §13 for the visibility rules and the documented
//! limitations (secondary-index reads under old snapshots, page leaks on
//! abort).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use parking_lot::Mutex;

use crate::error::StorageResult;
use crate::heap::RecordId;
use crate::object::Oid;

/// `end_ts` of a live (not yet deleted or superseded) record version.
pub const TS_INF: u64 = u64::MAX;

/// A pseudo-snapshot that sees every live version regardless of begin
/// timestamp — the legacy "no transactions in play" view. Storage-level
/// callers that never run concurrently with a writer (unit tests, offline
/// tools) may use it; session code must take real snapshots, because at
/// `TS_LATEST` an in-flight writer's uncommitted versions are visible.
pub const TS_LATEST: u64 = u64::MAX;

/// Is the version stamped `(begin, end)` visible to snapshot `snap`?
///
/// Visible iff the version was committed at or before the snapshot and
/// not end-stamped at or before it: `begin <= snap && (end == TS_INF ||
/// snap < end)`.
#[inline]
pub fn visible(begin: u64, end: u64, snap: u64) -> bool {
    begin <= snap && (end == TS_INF || snap < end)
}

/// A deferred reclamation of structure space that older snapshots may
/// still need. Buffered per-transaction, promoted to the manager's global
/// list at commit (stamped with the commit timestamp), dropped at abort.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReclaimOp {
    /// Physically delete a dead record version from its heap page.
    Record {
        /// The dead version's record id.
        rid: RecordId,
    },
    /// Free the object-table slot of a deleted object.
    ObjectSlot {
        /// The deleted object.
        oid: Oid,
    },
    /// Remove `rid` from `oid`'s in-memory version chain.
    ChainEntry {
        /// Object whose chain holds the dead version.
        oid: Oid,
        /// The dead version's record id.
        rid: RecordId,
    },
}

/// A [`ReclaimOp`] plus the commit timestamp of the transaction that made
/// the underlying version dead. Safe to apply once every active snapshot
/// is at or past `ts`.
#[derive(Debug, Clone)]
pub struct Reclaim {
    /// Commit timestamp after which the target is garbage.
    pub ts: u64,
    /// What to reclaim.
    pub op: ReclaimOp,
}

/// Side-state the active write transaction accumulates; promoted at
/// commit, reverted at abort.
#[derive(Default)]
struct Scratch {
    /// Version-chain entries this transaction published (object, old rid).
    chain_added: Vec<(Oid, u64)>,
    /// Reclaims this transaction would make ripe by committing.
    reclaims: Vec<ReclaimOp>,
}

/// Issues commit timestamps, tracks active snapshots, serializes writers,
/// and buffers deferred reclamation. One per [`crate::StorageManager`]
/// (shared across clones).
pub struct TxnManager {
    /// Highest *published* (committed) timestamp. Snapshots read here.
    clock: AtomicU64,
    /// Highest timestamp ever handed to a writer. Kept separate from
    /// `clock` because a committing writer releases the gate *before*
    /// its commit fsync returns (group commit): the next writer needs a
    /// fresh timestamp while the previous one is still unpublished.
    next_ts: AtomicU64,
    /// Provisional timestamp of the in-flight writer (0 = none).
    write_ts: AtomicU64,
    /// Active snapshot timestamps → refcount.
    snapshots: Mutex<BTreeMap<u64, u64>>,
    /// The writer gate: held by at most one write transaction or
    /// checkpoint.
    writer: StdMutex<bool>,
    writer_cv: Condvar,
    /// In-memory version chains: object → record ids of superseded
    /// versions (oldest first). Rebuilt empty on restart — no snapshot
    /// survives a crash, so no old version is ever needed again.
    chains: Mutex<HashMap<u64, Vec<u64>>>,
    scratch: Mutex<Scratch>,
    /// Committed-but-not-yet-reclaimable garbage, watermark-gated.
    reclaim: Mutex<Vec<Reclaim>>,
    committed: AtomicU64,
    aborted: AtomicU64,
    /// Commits whose fsync failed: in the log, never published. Neither
    /// committed nor aborted — see `park_unflushed`.
    parked: AtomicU64,
    /// Wall-clock commit latency (images + commit record + fsync wait).
    commit_wait_ns: Arc<exodus_obs::Histogram>,
}

impl TxnManager {
    /// A fresh manager with the clock at 0 (no committed transactions).
    pub fn new() -> TxnManager {
        TxnManager {
            clock: AtomicU64::new(0),
            next_ts: AtomicU64::new(0),
            write_ts: AtomicU64::new(0),
            snapshots: Mutex::new(BTreeMap::new()),
            writer: StdMutex::new(false),
            writer_cv: Condvar::new(),
            chains: Mutex::new(HashMap::new()),
            scratch: Mutex::new(Scratch::default()),
            reclaim: Mutex::new(Vec::new()),
            committed: AtomicU64::new(0),
            aborted: AtomicU64::new(0),
            parked: AtomicU64::new(0),
            commit_wait_ns: Arc::new(exodus_obs::Histogram::new(exodus_obs::LATENCY_BUCKETS_NS)),
        }
    }

    /// Restore the commit clock after recovery (see
    /// [`crate::RecoveryReport::clock`]). Must run before any transaction
    /// starts.
    pub fn seed_clock(&self, clock: u64) {
        self.clock.store(clock, Ordering::Release);
        self.next_ts.store(clock, Ordering::Release);
    }

    /// The highest committed timestamp.
    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    /// The in-flight writer's provisional timestamp, if a write
    /// transaction is active *on this manager*. The object store stamps
    /// every mutation with it and refuses to mutate without one.
    pub fn current_write_ts(&self) -> Option<u64> {
        match self.write_ts.load(Ordering::Acquire) {
            0 => None,
            ts => Some(ts),
        }
    }

    /// Take a read snapshot at the current clock. The guard keeps the
    /// snapshot registered (holding back vacuum) until dropped.
    ///
    /// The clock is read *while holding* the snapshots lock — the same
    /// lock [`TxnManager::watermark`] takes — so a snapshot at ts `T` is
    /// registered before any watermark computation can observe
    /// `clock > T` with no snapshot `<= T`. Reading the clock before
    /// locking would leave a window where a concurrent commit publishes
    /// `T+1` and vacuum, seeing an empty map and the new clock, reclaims
    /// versions end-stamped at `T+1` that this snapshot still needs.
    pub fn begin_snapshot(self: &Arc<Self>) -> Snapshot {
        let mut snaps = self.snapshots.lock();
        let ts = self.clock();
        *snaps.entry(ts).or_insert(0) += 1;
        drop(snaps);
        Snapshot {
            mgr: Some(self.clone()),
            ts,
        }
    }

    fn release_snapshot(&self, ts: u64) {
        let mut snaps = self.snapshots.lock();
        if let Some(n) = snaps.get_mut(&ts) {
            *n -= 1;
            if *n == 0 {
                snaps.remove(&ts);
            }
        }
    }

    /// Claim the writer gate: wait for it to free when `wait`, else give
    /// up at once when it is held. Returns whether it was claimed. The one
    /// claim of write transactions and checkpoints.
    fn claim_gate(&self, wait: bool) -> bool {
        let mut held = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        while *held {
            if !wait {
                return false;
            }
            held = self.writer_cv.wait(held).unwrap_or_else(|e| e.into_inner());
        }
        *held = true;
        true
    }

    fn free_gate(&self) {
        *self.writer.lock().unwrap_or_else(|e| e.into_inner()) = false;
        self.writer_cv.notify_one();
    }

    /// Claim the writer gate (see [`TxnManager::claim_gate`]; vacuum does
    /// not wait — reclamation never waits behind real work) and return
    /// the new writer's provisional timestamp: the next unissued one,
    /// always above both the clock and every earlier writer's timestamp.
    pub(crate) fn acquire_writer(&self, wait: bool) -> Option<u64> {
        if !self.claim_gate(wait) {
            return None;
        }
        let ts = self.next_ts.fetch_add(1, Ordering::AcqRel) + 1;
        self.write_ts.store(ts, Ordering::Release);
        *self.scratch.lock() = Scratch::default();
        Some(ts)
    }

    /// Hold the writer gate without opening a transaction, until the guard
    /// drops: waits out the active writer and keeps new ones out. Issues
    /// no timestamp and publishes nothing. Checkpoints use it so no
    /// transaction's uncommitted pages are mid-flight while the volume is
    /// brought up to date.
    pub(crate) fn hold_writers(&self) -> WriterHold<'_> {
        self.claim_gate(true);
        WriterHold(self)
    }

    /// Free the writer gate and take the transaction's scratch, without
    /// deciding its fate. The committing path calls this *before* its
    /// commit fsync so the next writer can overlap log appends with the
    /// disk wait, then settles the scratch with
    /// [`TxnManager::publish_commit`] once durable.
    fn detach_writer(&self, ts: u64) -> Scratch {
        let scratch = std::mem::take(&mut *self.scratch.lock());
        let active = self.write_ts.swap(0, Ordering::AcqRel);
        debug_assert_eq!(active, ts);
        self.free_gate();
        scratch
    }

    /// Publish a detached transaction as committed: promote its deferred
    /// reclaims (stamped with the commit timestamp) and advance the
    /// clock. `fetch_max` because group-committed transactions can
    /// publish out of order — a later committer whose fsync batch
    /// covered ours may get here first, and the clock must never move
    /// backwards.
    fn publish_commit(&self, ts: u64, scratch: Scratch) {
        let mut reclaim = self.reclaim.lock();
        reclaim.extend(scratch.reclaims.into_iter().map(|op| Reclaim { ts, op }));
        drop(reclaim);
        self.clock.fetch_max(ts, Ordering::AcqRel);
        self.committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Revert a detached transaction's scratch (abort path): drop the
    /// chain entries it published; its reclaims die with the scratch.
    fn revert_scratch(&self, scratch: Scratch) {
        let mut chains = self.chains.lock();
        for (oid, rid) in scratch.chain_added {
            if let Some(rids) = chains.get_mut(&oid.0) {
                rids.retain(|&r| r != rid);
                if rids.is_empty() {
                    chains.remove(&oid.0);
                }
            }
        }
        drop(chains);
        self.aborted.fetch_add(1, Ordering::Relaxed);
    }

    /// A commit whose fsync failed: the commit record is in the log but
    /// its durability is unknown. Keep the version chains and promote
    /// the reclaims (a *later* successful commit fsyncs past our record
    /// and makes this transaction durable — log order guarantees it) but
    /// leave the clock alone: visibility must never precede durability.
    /// If no later commit ever lands, the reclaims stay unripe forever
    /// (the watermark cannot reach `ts`), which only wastes memory.
    ///
    /// A later commit is not the only path to durability: the buffer
    /// pool's flush rule ("no dirty page leaves the pool ahead of its
    /// log record") fsyncs the log through a page's LSN before any
    /// write-back, and that flush can cover the parked commit record
    /// too. After a restart the transaction is then visible even though
    /// this process never published it — runtime and post-crash states
    /// diverge by exactly this transaction. A parked transaction counts
    /// in neither `committed_total` nor `aborted_total` (its fate is
    /// undecided); it is surfaced through [`TxnManager::parked_total`]
    /// and the `storage_txn_commit_indeterminate_total` metric so the
    /// indeterminate state is observable.
    fn park_unflushed(&self, ts: u64, scratch: Scratch) {
        let mut reclaim = self.reclaim.lock();
        reclaim.extend(scratch.reclaims.into_iter().map(|op| Reclaim { ts, op }));
        drop(reclaim);
        self.parked.fetch_add(1, Ordering::Relaxed);
    }

    /// Release the writer gate. `publish` commits the provisional
    /// timestamp to the clock and promotes the transaction's scratch;
    /// otherwise the scratch is reverted.
    pub(crate) fn release_writer(&self, ts: u64, publish: bool) {
        let scratch = self.detach_writer(ts);
        if publish {
            self.publish_commit(ts, scratch);
        } else {
            self.revert_scratch(scratch);
        }
    }

    /// Publish `rid` as a superseded version of `oid`, reachable by
    /// readers whose snapshot predates the in-flight end-stamp. Must be
    /// called *before* the old version is end-stamped so a concurrent
    /// reader can always resolve one way or the other.
    pub fn note_chain(&self, oid: Oid, rid: RecordId) {
        self.chains
            .lock()
            .entry(oid.0)
            .or_default()
            .push(rid.pack());
        self.scratch.lock().chain_added.push((oid, rid.pack()));
    }

    /// Drop `rid` from `oid`'s version chain (vacuum reclaimed the
    /// physical record, so the chain entry is dead weight).
    pub fn remove_chain(&self, oid: Oid, rid: RecordId) {
        let mut chains = self.chains.lock();
        if let Some(rids) = chains.get_mut(&oid.0) {
            rids.retain(|&r| r != rid.pack());
            if rids.is_empty() {
                chains.remove(&oid.0);
            }
        }
    }

    /// Superseded version rids of `oid`, oldest first.
    pub fn chain_rids(&self, oid: Oid) -> Vec<RecordId> {
        self.chains
            .lock()
            .get(&oid.0)
            .map(|v| v.iter().map(|&r| RecordId::unpack(r)).collect())
            .unwrap_or_default()
    }

    /// Defer a reclamation until every snapshot that might need the
    /// target has ended. Requires an active write transaction.
    pub fn defer_reclaim(&self, op: ReclaimOp) {
        debug_assert!(
            self.current_write_ts().is_some(),
            "defer_reclaim outside a write transaction"
        );
        self.scratch.lock().reclaims.push(op);
    }

    /// The reclaim watermark: reclamation stamped at or below it cannot
    /// be observed by any active snapshot.
    ///
    /// The clock fallback must be read while the snapshots lock is held:
    /// [`TxnManager::begin_snapshot`] registers under the same lock, so
    /// an "empty map, use the clock" decision here cannot interleave
    /// with a snapshot that read an older clock but has not registered
    /// yet.
    pub fn watermark(&self) -> u64 {
        let snaps = self.snapshots.lock();
        let wm = snaps.keys().next().copied().unwrap_or_else(|| self.clock());
        drop(snaps);
        wm
    }

    /// Drain and return the deferred reclaims that are ripe under the
    /// current watermark.
    pub fn take_ripe(&self) -> Vec<Reclaim> {
        let wm = self.watermark();
        let mut reclaim = self.reclaim.lock();
        let (ripe, keep): (Vec<_>, Vec<_>) = reclaim.drain(..).partition(|r| r.ts <= wm);
        *reclaim = keep;
        ripe
    }

    /// Number of deferred reclaims waiting for the watermark.
    pub fn pending_reclaims(&self) -> usize {
        self.reclaim.lock().len()
    }

    /// Active snapshots plus the in-flight writer, for the
    /// `storage_txn_active` gauge.
    pub fn active_count(&self) -> u64 {
        let snaps: u64 = self.snapshots.lock().values().sum();
        snaps + u64::from(self.current_write_ts().is_some())
    }

    /// Committed write transactions.
    pub fn committed_total(&self) -> u64 {
        self.committed.load(Ordering::Relaxed)
    }

    /// Aborted write transactions.
    pub fn aborted_total(&self) -> u64 {
        self.aborted.load(Ordering::Relaxed)
    }

    /// Commits parked with an indeterminate outcome: the commit record
    /// was appended but its fsync failed, so the transaction is in the
    /// log yet never published at runtime (see `park_unflushed`). Any
    /// nonzero value means a restart may surface transactions this
    /// process never showed.
    pub fn parked_total(&self) -> u64 {
        self.parked.load(Ordering::Relaxed)
    }

    /// The commit-latency histogram (shared with the metrics registry).
    pub fn commit_wait_histogram(&self) -> Arc<exodus_obs::Histogram> {
        self.commit_wait_ns.clone()
    }
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new()
    }
}

/// The writer gate held by a checkpoint (see [`TxnManager::hold_writers`]).
pub(crate) struct WriterHold<'a>(&'a TxnManager);

impl Drop for WriterHold<'_> {
    fn drop(&mut self) {
        self.0.free_gate();
    }
}

/// A registered read snapshot (see [`TxnManager::begin_snapshot`]).
/// Copyable by timestamp ([`Snapshot::ts`]); the guard itself pins the
/// reclaim watermark until dropped.
pub struct Snapshot {
    mgr: Option<Arc<TxnManager>>,
    ts: u64,
}

impl Snapshot {
    /// The snapshot timestamp: this reader sees exactly the versions
    /// committed at or before it.
    pub fn ts(&self) -> u64 {
        self.ts
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        if let Some(mgr) = self.mgr.take() {
            mgr.release_snapshot(self.ts);
        }
    }
}

/// A write transaction: the writer gate, a logged unit (with a log), and
/// the buffer pool's write set, bundled. Obtained from
/// [`crate::StorageManager::begin_txn`]; dropped without an explicit
/// [`WriteTxn::commit`] it aborts.
pub struct WriteTxn {
    mgr: Arc<TxnManager>,
    pool: Arc<crate::buffer::BufferPool>,
    ts: u64,
    unit: u64,
    done: bool,
}

impl WriteTxn {
    pub(crate) fn new(
        mgr: Arc<TxnManager>,
        pool: Arc<crate::buffer::BufferPool>,
        ts: u64,
        unit: u64,
    ) -> WriteTxn {
        WriteTxn {
            mgr,
            pool,
            ts,
            unit,
            done: false,
        }
    }

    /// The transaction's provisional (= eventual commit) timestamp.
    pub fn ts(&self) -> u64 {
        self.ts
    }

    /// Commit: log the write set and the commit record, release every
    /// gate, flush, then publish the clock. Returns the commit
    /// timestamp.
    ///
    /// The write set and the writer gate are released *before* the commit
    /// fsync: once the commit record is appended the transaction can no
    /// longer abort, so the next writer may start appending its own
    /// records while this one waits on the disk.
    /// Concurrent committers queued behind the same fsync then share it
    /// ([`crate::wal::Wal::flush_up_to`]'s group commit). The clock is
    /// published only once the record is durable, so readers never see a
    /// commit that a crash could still un-happen.
    ///
    /// If *appending* fails the transaction is aborted in memory and the
    /// error is returned — a failed commit leaves no trace, same as
    /// `abort`. If the *fsync* fails the outcome is indeterminate (the
    /// record is in the log; the clock stays unpublished) and the error
    /// is returned; see [`TxnManager`]'s `park_unflushed`.
    pub fn commit(mut self) -> StorageResult<u64> {
        let start = std::time::Instant::now();
        self.done = true;
        let ts = self.ts;
        let Some(wal) = self.pool.wal().cloned() else {
            // No log: the in-memory state is the only state.
            self.pool.end_undo_capture();
            self.mgr.release_writer(ts, true);
            self.mgr
                .commit_wait_ns
                .observe(start.elapsed().as_nanos() as u64);
            return Ok(ts);
        };
        let commit_lsn = match self.pool.log_commit(&wal, self.unit, ts) {
            Ok(lsn) => lsn,
            Err(e) => {
                // The commit record is absent: roll the transaction back
                // in memory so the running process agrees with what
                // recovery would decide.
                let rollback = self.pool.rollback_undo();
                self.mgr.release_writer(ts, false);
                rollback?;
                return Err(e);
            }
        };
        // Commit point passed. Release the gates so the next writer
        // overlaps with our fsync wait, then make the record durable.
        self.pool.end_undo_capture();
        let scratch = self.mgr.detach_writer(ts);
        if let Err(e) = wal.flush_up_to(commit_lsn) {
            self.mgr.park_unflushed(ts, scratch);
            // Surface the parked state as its own error kind so callers
            // (and the wire protocol) can tell "rolled back, retry
            // freely" from "outcome unknown until recovery".
            return Err(crate::StorageError::IndeterminateCommit {
                ts,
                cause: e.to_string(),
            });
        }
        self.mgr.publish_commit(ts, scratch);
        self.mgr
            .commit_wait_ns
            .observe(start.elapsed().as_nanos() as u64);
        Ok(ts)
    }

    /// Abort: restore captured before-images, release the writer gate
    /// without a commit record, revert the transaction's chain/reclaim
    /// scratch.
    pub fn abort(mut self) -> StorageResult<()> {
        self.done = true;
        self.abort_inner()
    }

    fn abort_inner(&mut self) -> StorageResult<()> {
        // The write set stays gated until its before-images are back, so
        // no uncommitted byte can reach the volume while we rewind.
        let rollback = self.pool.rollback_undo();
        self.mgr.release_writer(self.ts, false);
        rollback
    }
}

impl Drop for WriteTxn {
    fn drop(&mut self) {
        if !self.done {
            self.done = true;
            let _ = self.abort_inner();
        }
    }
}

impl std::fmt::Debug for WriteTxn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteTxn")
            .field("ts", &self.ts)
            .field("unit", &self.unit)
            .field("done", &self.done)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_rules() {
        // Committed at 5, live.
        assert!(!visible(5, TS_INF, 4));
        assert!(visible(5, TS_INF, 5));
        assert!(visible(5, TS_INF, 6));
        // Committed at 5, deleted at 8.
        assert!(visible(5, 8, 5));
        assert!(visible(5, 8, 7));
        assert!(!visible(5, 8, 8));
        // begin 0 = always-visible (pre-MVCC records).
        assert!(visible(0, TS_INF, 0));
        // TS_LATEST sees every live version.
        assert!(visible(u64::MAX, TS_INF, TS_LATEST));
    }

    #[test]
    fn snapshot_refcounts_and_watermark() {
        let mgr = Arc::new(TxnManager::new());
        mgr.seed_clock(10);
        assert_eq!(mgr.watermark(), 10);
        let s1 = mgr.begin_snapshot();
        assert_eq!(s1.ts(), 10);
        mgr.seed_clock(20);
        let s2 = mgr.begin_snapshot();
        assert_eq!(s2.ts(), 20);
        assert_eq!(mgr.watermark(), 10);
        assert_eq!(mgr.active_count(), 2);
        drop(s1);
        assert_eq!(mgr.watermark(), 20);
        drop(s2);
        assert_eq!(mgr.watermark(), 20);
        assert_eq!(mgr.active_count(), 0);
    }

    #[test]
    fn writer_gate_is_exclusive() {
        let mgr = Arc::new(TxnManager::new());
        let ts = mgr.acquire_writer(true).unwrap();
        assert_eq!(ts, 1);
        assert_eq!(mgr.current_write_ts(), Some(1));
        assert!(mgr.acquire_writer(false).is_none());
        mgr.release_writer(ts, true);
        assert_eq!(mgr.clock(), 1);
        assert_eq!(mgr.current_write_ts(), None);
        assert_eq!(mgr.committed_total(), 1);
        // The next writer sees the published clock.
        let ts2 = mgr.acquire_writer(false).unwrap();
        assert_eq!(ts2, 2);
        mgr.release_writer(ts2, false);
        assert_eq!(mgr.clock(), 1, "aborted writer publishes nothing");
        assert_eq!(mgr.aborted_total(), 1);
    }

    #[test]
    fn abort_reverts_chains_and_reclaims() {
        let mgr = Arc::new(TxnManager::new());
        let ts = mgr.acquire_writer(true).unwrap();
        let rid = RecordId { page: 9, slot: 3 };
        mgr.note_chain(Oid(7), rid);
        mgr.defer_reclaim(ReclaimOp::Record { rid });
        assert_eq!(mgr.chain_rids(Oid(7)), vec![rid]);
        mgr.release_writer(ts, false);
        assert!(mgr.chain_rids(Oid(7)).is_empty());
        assert_eq!(mgr.pending_reclaims(), 0);
    }

    #[test]
    fn reclaims_ripen_at_watermark() {
        let mgr = Arc::new(TxnManager::new());
        let snap = mgr.begin_snapshot(); // ts 0 pins the watermark
        let ts = mgr.acquire_writer(true).unwrap();
        mgr.defer_reclaim(ReclaimOp::ObjectSlot { oid: Oid(3) });
        mgr.release_writer(ts, true);
        assert_eq!(mgr.pending_reclaims(), 1);
        assert!(mgr.take_ripe().is_empty(), "snapshot 0 holds it back");
        assert_eq!(mgr.pending_reclaims(), 1);
        drop(snap);
        let ripe = mgr.take_ripe();
        assert_eq!(ripe.len(), 1);
        assert_eq!(ripe[0].ts, 1);
        assert_eq!(mgr.pending_reclaims(), 0);
    }

    #[test]
    fn parked_commit_is_counted_but_never_published() {
        let mgr = Arc::new(TxnManager::new());
        let ts = mgr.acquire_writer(true).unwrap();
        mgr.defer_reclaim(ReclaimOp::ObjectSlot { oid: Oid(1) });
        let scratch = mgr.detach_writer(ts);
        mgr.park_unflushed(ts, scratch);
        assert_eq!(mgr.parked_total(), 1);
        assert_eq!(mgr.committed_total(), 0, "fate undecided: not a commit");
        assert_eq!(mgr.aborted_total(), 0, "fate undecided: not an abort");
        assert_eq!(mgr.clock(), 0, "visibility never precedes durability");
        // The parked reclaim stays unripe: the watermark (= clock with no
        // snapshots) cannot reach the unpublished timestamp.
        assert_eq!(mgr.pending_reclaims(), 1);
        assert!(mgr.take_ripe().is_empty());
    }

    #[test]
    fn concurrent_writers_serialize() {
        let mgr = Arc::new(TxnManager::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let mgr = mgr.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let ts = mgr.acquire_writer(true).unwrap();
                    mgr.release_writer(ts, true);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mgr.clock(), 200, "every commit bumped the clock once");
        assert_eq!(mgr.committed_total(), 200);
    }
}
