//! Buffer pool with clock (second-chance) replacement.
//!
//! All page access in the system goes through [`BufferPool::pin`], which
//! returns a [`PinnedPage`] guard. While pinned, a page cannot be evicted;
//! dropping the guard unpins it. Dirty pages are written back on eviction
//! and on [`BufferPool::flush_all`]. The pool records hit/miss/eviction
//! counters so the benchmark suite (experiment E9) can observe locality.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::{StorageError, StorageResult};
use crate::page::{self, PAGE_SIZE};
use crate::volume::Volume;
use crate::wal::{page_record, Lsn, Wal, WalRecord};

struct Frame {
    page_no: u64,
    data: RwLock<Box<[u8; PAGE_SIZE]>>,
    dirty: AtomicBool,
    pins: AtomicU32,
    referenced: AtomicBool,
    /// LSN of the last WAL record covering this page (0 without a WAL).
    lsn: AtomicU64,
}

struct PoolState {
    /// page_no → index into `frames`.
    map: HashMap<u64, usize>,
    frames: Vec<Option<Arc<Frame>>>,
    hand: usize,
}

/// The open write transaction's write set. While `capturing` is set (one
/// writer at a time — the transaction manager's writer gate guarantees
/// this), a page the writer allocates or first writes joins `images` with
/// a copy of its pre-write bytes. The set is the no-steal gate (with a log,
/// its dirty pages stay in the pool), the commit's page list (each page is
/// logged as its difference from the before-image) and the rollback list
/// ([`BufferPool::rollback_undo`] writes the before-images back). The WAL
/// never sees uncommitted bytes (rollback by omission covers the crash
/// case), so abort works identically with or without a log.
#[derive(Default)]
struct UndoState {
    capturing: AtomicBool,
    images: Mutex<HashMap<u64, BeforeImage>>,
}

/// A page as it was before the writer's first write to it.
struct BeforeImage {
    /// `None` for a page the writer allocated and has not written yet: it
    /// is all zeros, and it has no before-image to log a delta against.
    bytes: Option<Box<[u8; PAGE_SIZE]>>,
    /// Whether the frame was dirty then (rollback restores the flag).
    dirty: bool,
}

/// Monotonic counters describing pool behaviour.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BufferStats {
    /// Pins satisfied from the pool.
    pub hits: u64,
    /// Pins that required a volume read.
    pub misses: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
}

/// A buffer pool over a [`Volume`].
///
/// The frame table is guarded by a read/write lock rather than a mutex so
/// concurrent scan workers can satisfy pin *hits* — by far the common case
/// under morsel-parallel execution — under a shared lock; only misses,
/// allocations, and eviction take the exclusive lock.
pub struct BufferPool {
    volume: Box<dyn Volume>,
    capacity: usize,
    state: RwLock<PoolState>,
    /// Structure-modification locks, keyed by a structure's root page
    /// (heap-file chain extension must be serialized per file).
    smo_locks: Mutex<HashMap<u64, Arc<Mutex<()>>>>,
    /// Cached heap-file page chains, keyed by header page. Pages are
    /// never freed or reused (the volume allocator is append-only), so a
    /// cached chain can only grow: [`crate::heap::HeapFile::insert`]
    /// appends the new page under the file's SMO lock, and a missing
    /// entry is rebuilt by walking the chain. This keeps
    /// chain-partitioning (morsel-parallel scans) from re-pinning every
    /// page just to read next pointers — which would also make buffer
    /// counters depend on the degree of parallelism.
    chains: Mutex<HashMap<u64, Vec<u64>>>,
    /// The write-ahead log, when the pool is recoverable. Governs the
    /// no-steal eviction gate, the flush rule, and page checksums.
    wal: Option<Arc<Wal>>,
    /// Abort support: page before-images captured for the active writer
    /// transaction.
    undo: UndoState,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `volume`. Capacity is
    /// clamped to at least 4 frames (some operations pin a few pages at
    /// once).
    pub fn new(volume: Box<dyn Volume>, capacity: usize) -> Self {
        Self::build(volume, capacity, None)
    }

    /// Create a recoverable pool: every page write happens inside a write
    /// transaction, pages in its write set are gated from eviction until it
    /// ends (no-steal), the log is flushed up to a page's LSN before any
    /// write-back (the flush rule), and pages are checksummed across the
    /// volume boundary.
    pub fn with_wal(volume: Box<dyn Volume>, capacity: usize, wal: Arc<Wal>) -> Self {
        Self::build(volume, capacity, Some(wal))
    }

    fn build(volume: Box<dyn Volume>, capacity: usize, wal: Option<Arc<Wal>>) -> Self {
        let capacity = capacity.max(4);
        BufferPool {
            volume,
            capacity,
            state: RwLock::new(PoolState {
                map: HashMap::with_capacity(capacity),
                frames: vec![None; capacity],
                hand: 0,
            }),
            smo_locks: Mutex::new(HashMap::new()),
            chains: Mutex::new(HashMap::new()),
            wal,
            undo: UndoState::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The attached write-ahead log, if the pool is recoverable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// The structure-modification lock for the structure rooted at
    /// `root_page`. Chain/tree shape changes must hold this lock so
    /// concurrent writers cannot orphan pages.
    pub fn smo_lock(&self, root_page: u64) -> Arc<Mutex<()>> {
        self.smo_locks
            .lock()
            .entry(root_page)
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone()
    }

    /// The cached page chain for the heap file headed at `header`, if
    /// one has been built (see the `chains` field).
    pub(crate) fn chain_get(&self, header: u64) -> Option<Vec<u64>> {
        self.chains.lock().get(&header).cloned()
    }

    /// Install the full page chain for the heap file headed at `header`.
    pub(crate) fn chain_put(&self, header: u64, pages: Vec<u64>) {
        self.chains.lock().insert(header, pages);
    }

    /// Record that a new page was linked onto the end of `header`'s
    /// chain. A no-op when the chain was never cached. Callers must hold
    /// the file's SMO lock (the same lock that serializes the link).
    pub(crate) fn chain_append(&self, header: u64, page: u64) {
        if let Some(pages) = self.chains.lock().get_mut(&header) {
            pages.push(page);
        }
    }

    /// Start capturing page before-images for a writer. Callers must hold
    /// the transaction manager's writer gate (capture state is global to
    /// the pool).
    pub(crate) fn begin_undo_capture(&self) {
        self.undo.images.lock().clear();
        self.undo.capturing.store(true, Ordering::Release);
    }

    /// Stop capturing and discard the captured images (commit path).
    pub(crate) fn end_undo_capture(&self) {
        self.undo.capturing.store(false, Ordering::Release);
        self.undo.images.lock().clear();
    }

    /// Stop capturing and write every captured before-image back over its
    /// page (abort path), with the page's LSN and dirty flag as they were;
    /// then empty the write set. Each page stays gated until its
    /// before-image is back. Cached heap-page chains are dropped wholesale:
    /// an aborted chain extension leaves stale cached page lists, and
    /// chains are cheap to rebuild.
    pub(crate) fn rollback_undo(self: &Arc<Self>) -> StorageResult<()> {
        self.undo.capturing.store(false, Ordering::Release);
        let restored = self.write_set().into_iter().try_for_each(|page_no| {
            // Not under the write set's lock: a pin miss takes it.
            let page = self.pin(page_no)?;
            let mut data = page.frame.data.write();
            let undo = self.undo.images.lock();
            let Some(BeforeImage {
                bytes: Some(bytes),
                dirty,
            }) = undo.get(&page_no)
            else {
                return Ok(()); // allocated, never written: still zeros
            };
            data.copy_from_slice(&bytes[..]);
            page.frame
                .lsn
                .store(page::page_lsn(&bytes[..]), Ordering::Release);
            // With a log the page was gated since capture, so a page clean
            // then still matches the volume — and writing it back could
            // tear a page no redo record covers. Without one it may have
            // been written back since, so it must be rewritten.
            let dirty = *dirty || self.wal.is_none();
            page.frame.dirty.store(dirty, Ordering::Relaxed);
            Ok(())
        });
        self.undo.images.lock().clear();
        self.chains.lock().clear();
        restored
    }

    /// The open transaction's write set, in page order.
    fn write_set(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self.undo.images.lock().keys().copied().collect();
        pages.sort_unstable();
        pages
    }

    /// Add `page_no` to the write set if capture is on and this is the
    /// writer's first touch of the page, with `before` as its before-image
    /// (`None` for a page just allocated). With a log attached, every page
    /// write happens inside a write transaction: a delta is right only if
    /// the page's last logged state is its before-image.
    fn capture_undo(&self, page_no: u64, before: Option<&[u8; PAGE_SIZE]>, dirty: bool) {
        if !self.undo.capturing.load(Ordering::Acquire) {
            debug_assert!(
                self.wal.is_none(),
                "page {page_no} written outside a write transaction: its next delta \
                 would not apply over its last logged state"
            );
            return;
        }
        let mut undo = self.undo.images.lock();
        let image = undo
            .entry(page_no)
            .or_insert(BeforeImage { bytes: None, dirty });
        if image.bytes.is_none() {
            image.bytes = before.map(|b| Box::new(*b));
        }
    }

    /// The no-steal rule: with a log, a page in the open transaction's
    /// write set must not reach the volume before its commit record.
    fn gated(&self, page_no: u64) -> bool {
        self.wal.is_some() && self.undo.images.lock().contains_key(&page_no)
    }

    /// Log the open transaction's commit: for each page in its write set,
    /// the redo record [`crate::wal`] builds against the page's
    /// before-image — a delta, an image, or nothing for unchanged bytes —
    /// stamped into the page as its LSN; then the commit record carrying
    /// `ts`. Returns the commit record's LSN. On error the caller rolls
    /// the transaction back.
    pub(crate) fn log_commit(
        self: &Arc<Self>,
        wal: &Wal,
        unit: u64,
        ts: u64,
    ) -> StorageResult<Lsn> {
        let mut redone = Vec::new();
        for page_no in self.write_set() {
            let prior = wal.has_redo_record(page_no);
            let page = self.pin(page_no)?;
            let rec = page.with_read(|after| {
                let undo = self.undo.images.lock();
                let before = undo.get(&page_no).and_then(|b| b.bytes.as_deref());
                page_record(page_no, before.map(|b| &b[..]), after, prior)
            });
            let Some(rec) = rec else { continue };
            let lsn = wal.append(unit, &rec)?;
            page.frame.lsn.store(lsn, Ordering::Release);
            page::set_page_lsn(&mut page.frame.data.write()[..], lsn);
            redone.push(page_no);
        }
        let lsn = wal.append(unit, &WalRecord::Commit { ts })?;
        wal.note_redone(redone);
        Ok(lsn)
    }

    /// Snapshot of the pool counters.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Reset the pool counters (benchmark harness convenience).
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.writebacks.store(0, Ordering::Relaxed);
    }

    /// Pin a page, reading it from the volume on a miss.
    pub fn pin(self: &Arc<Self>, page_no: u64) -> StorageResult<PinnedPage> {
        // Fast path: resident page, shared lock only. The pin count is
        // bumped while the lock is held, so the evictor (which needs the
        // exclusive lock) can never reclaim the frame underneath us.
        {
            let state = self.state.read();
            if let Some(frame) = Self::try_hit(&state, page_no) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(PinnedPage {
                    pool: self.clone(),
                    frame,
                });
            }
        }
        let mut state = self.state.write();
        // Re-check: another thread may have faulted the page in between
        // the lock handoff.
        if let Some(frame) = Self::try_hit(&state, page_no) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(PinnedPage {
                pool: self.clone(),
                frame,
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let idx = self.find_victim(&mut state)?;
        let mut data = Box::new([0u8; PAGE_SIZE]);
        self.volume.read_page(page_no, &mut data[..])?;
        if self.wal.is_some() && !page::verify_page_checksum(&data[..]) {
            return Err(StorageError::Corrupt(format!(
                "page {page_no} failed its checksum (torn write?); \
                 recovery rebuilds such pages from the log"
            )));
        }
        let frame = Arc::new(Frame {
            page_no,
            lsn: AtomicU64::new(page::page_lsn(&data[..])),
            data: RwLock::new(data),
            dirty: AtomicBool::new(false),
            pins: AtomicU32::new(1),
            referenced: AtomicBool::new(true),
        });
        state.map.insert(page_no, idx);
        state.frames[idx] = Some(frame.clone());
        Ok(PinnedPage {
            pool: self.clone(),
            frame,
        })
    }

    /// Look up a resident page and pin it. Must run under either lock
    /// mode (the pin bump is what fences out the evictor).
    fn try_hit(state: &PoolState, page_no: u64) -> Option<Arc<Frame>> {
        let &idx = state.map.get(&page_no)?;
        let frame = state.frames[idx]
            .as_ref()
            .expect("mapped frame exists")
            .clone();
        frame.pins.fetch_add(1, Ordering::Relaxed);
        frame.referenced.store(true, Ordering::Relaxed);
        Some(frame)
    }

    /// Allocate a fresh page on the volume and pin it (contents zeroed).
    pub fn allocate(self: &Arc<Self>) -> StorageResult<PinnedPage> {
        let page_no = self.volume.allocate_page()?;
        // The fresh (dirty, zeroed) page joins the writer's write set.
        self.capture_undo(page_no, None, true);
        let mut state = self.state.write();
        let idx = self.find_victim(&mut state)?;
        let frame = Arc::new(Frame {
            page_no,
            lsn: AtomicU64::new(0),
            data: RwLock::new(Box::new([0u8; PAGE_SIZE])),
            dirty: AtomicBool::new(true),
            pins: AtomicU32::new(1),
            referenced: AtomicBool::new(true),
        });
        state.map.insert(page_no, idx);
        state.frames[idx] = Some(frame.clone());
        Ok(PinnedPage {
            pool: self.clone(),
            frame,
        })
    }

    /// Find a free or evictable frame index. Called with the state lock
    /// held; may write back a dirty victim.
    fn find_victim(&self, state: &mut PoolState) -> StorageResult<usize> {
        // First pass: any empty frame.
        if let Some(idx) = state.frames.iter().position(|f| f.is_none()) {
            return Ok(idx);
        }
        // Clock: up to two sweeps (first clears reference bits).
        let n = state.frames.len();
        for _ in 0..2 * n {
            let idx = state.hand;
            state.hand = (state.hand + 1) % n;
            let frame = state.frames[idx].as_ref().expect("full pool has no gaps");
            if frame.pins.load(Ordering::Relaxed) > 0 {
                continue;
            }
            if frame.referenced.swap(false, Ordering::Relaxed) {
                continue;
            }
            if frame.dirty.load(Ordering::Relaxed) && self.gated(frame.page_no) {
                continue;
            }
            // Victim found: write back if dirty, then drop.
            if frame.dirty.load(Ordering::Relaxed) {
                self.write_back(frame)?;
            }
            self.evictions.fetch_add(1, Ordering::Relaxed);
            let page_no = frame.page_no;
            state.map.remove(&page_no);
            state.frames[idx] = None;
            return Ok(idx);
        }
        Err(StorageError::PoolExhausted)
    }

    /// Write one dirty frame to the volume, honouring the flush rule and
    /// stamping the page checksum when the pool is recoverable.
    fn write_back(&self, frame: &Frame) -> StorageResult<()> {
        if let Some(wal) = &self.wal {
            // The flush rule: the log must be durable up to this page's
            // LSN before the page itself is.
            wal.flush_up_to(frame.lsn.load(Ordering::Acquire))?;
            let data = frame.data.read();
            let mut scratch = Box::new([0u8; PAGE_SIZE]);
            scratch.copy_from_slice(&data[..]);
            drop(data);
            page::stamp_page_checksum(&mut scratch[..]);
            self.volume.write_page(frame.page_no, &scratch[..])?;
        } else {
            let data = frame.data.read();
            self.volume.write_page(frame.page_no, &data[..])?;
        }
        frame.dirty.store(false, Ordering::Relaxed);
        self.writebacks.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Write back every dirty page. Pages gated by an open write
    /// transaction are skipped (checkpoints hold the writer gate, so they
    /// see everything).
    pub fn flush_all(&self) -> StorageResult<()> {
        let state = self.state.read();
        for frame in state.frames.iter().flatten() {
            if frame.dirty.load(Ordering::Relaxed) && !self.gated(frame.page_no) {
                self.write_back(frame)?;
            }
        }
        Ok(())
    }

    /// Redo a page record at `lsn` onto the pool's copy of its page
    /// ([`WalRecord::redo`] — replication replay, the live twin of
    /// recovery). The replica's page is exactly what the stream's earlier
    /// records made it, so a prior-based delta applies over it. The volume
    /// is extended with zeroed pages as needed; the frame is left dirty so
    /// normal write-back persists it, subject to the flush rule against
    /// the *local* log.
    pub fn redo_page(self: &Arc<Self>, rec: &WalRecord, lsn: Lsn) -> StorageResult<()> {
        let page_no = rec
            .page_no()
            .ok_or_else(|| StorageError::Corrupt("redo of a record with no page".into()))?;
        while self.volume.page_count() <= page_no {
            self.volume.allocate_page()?;
        }
        let page = self.pin(page_no)?;
        rec.redo(&mut page.frame.data.write()[..], lsn, true)?;
        page.frame.lsn.store(lsn, Ordering::Release);
        page.frame.dirty.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Number of pages in the underlying volume.
    pub fn volume_pages(&self) -> u64 {
        self.volume.page_count()
    }

    /// Force the volume's written pages to stable storage.
    pub fn sync_volume(&self) -> StorageResult<()> {
        self.volume.sync()
    }
}

/// A pinned page: access the bytes with [`PinnedPage::with_read`] /
/// [`PinnedPage::with_write`]. The pin is released on drop.
pub struct PinnedPage {
    pool: Arc<BufferPool>,
    frame: Arc<Frame>,
}

impl PinnedPage {
    /// The page number this guard pins.
    pub fn page_no(&self) -> u64 {
        self.frame.page_no
    }

    /// Run `f` with shared access to the page bytes.
    pub fn with_read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let data = self.frame.data.read();
        f(&data[..])
    }

    /// Run `f` with exclusive access to the page bytes; marks the page
    /// dirty and adds it to the open write transaction's write set (its
    /// change is logged at commit).
    pub fn with_write<R>(&self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut data = self.frame.data.write();
        // Before-image capture must see the pre-write bytes, so it runs
        // after the exclusive latch is held but before `f` mutates.
        let dirty = self.frame.dirty.swap(true, Ordering::Relaxed);
        self.pool
            .capture_undo(self.frame.page_no, Some(&data), dirty);
        f(&mut data[..])
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::Relaxed);
        let _ = &self.pool; // keeps the pool alive while pages are pinned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::MemVolume;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemVolume::new()), frames))
    }

    #[test]
    fn pin_hit_and_miss_counters() {
        let p = pool(8);
        let page = p.allocate().unwrap();
        let no = page.page_no();
        drop(page);
        let _a = p.pin(no).unwrap();
        let _b = p.pin(no).unwrap();
        let s = p.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(4);
        let mut pages = Vec::new();
        for i in 0..12u8 {
            let page = p.allocate().unwrap();
            page.with_write(|buf| buf[0] = i);
            pages.push(page.page_no());
        }
        // Re-read everything: evicted dirty pages must have been persisted.
        for (i, &no) in pages.iter().enumerate() {
            let page = p.pin(no).unwrap();
            assert_eq!(page.with_read(|buf| buf[0]), i as u8);
        }
        assert!(p.stats().evictions > 0);
        assert!(p.stats().writebacks > 0);
    }

    #[test]
    fn pool_exhausted_when_all_pinned() {
        let p = pool(4);
        let _guards: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        assert!(matches!(p.allocate(), Err(StorageError::PoolExhausted)));
    }

    #[test]
    fn flush_all_persists() {
        let p = pool(8);
        let page = p.allocate().unwrap();
        let no = page.page_no();
        page.with_write(|buf| buf[7] = 77);
        drop(page);
        p.flush_all().unwrap();
        // Force eviction of the clean frame by filling the pool.
        for _ in 0..16 {
            let _ = p.allocate().unwrap();
        }
        let page = p.pin(no).unwrap();
        assert_eq!(page.with_read(|buf| buf[7]), 77);
    }

    #[test]
    fn concurrent_pins() {
        let p = pool(16);
        let page = p.allocate().unwrap();
        let no = page.page_no();
        page.with_write(|buf| buf[0] = 1);
        drop(page);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let page = p.pin(no).unwrap();
                    page.with_write(|buf| buf[0] = buf[0].wrapping_add(1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let page = p.pin(no).unwrap();
        assert_eq!(
            page.with_read(|buf| buf[0]),
            1u8.wrapping_add((8 * 1000) as u8)
        );
    }
}
