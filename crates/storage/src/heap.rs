//! Heap files: unordered collections of variable-length records.
//!
//! A heap file is identified by its header page ([`FileId`]). The header
//! page records the first and last data pages; data pages form a doubly
//! linked chain. Records are addressed by [`RecordId`] — `(page, slot)` —
//! which stays valid until the record is deleted or moved by an update.
//!
//! Inserts go to the last page of the chain if the record fits, otherwise a
//! new page is appended (first-fit on the tail keeps inserts O(1); the
//! free-space of interior pages is reused only by in-page updates, which
//! matches the simple space management the EXODUS-era storage managers
//! shipped with).
//!
//! # Record versioning
//!
//! Every stored record is prefixed with a [`VERSION_HEADER`]-byte
//! `(begin_ts, end_ts)` pair (little-endian), the MVCC stamps
//! [`crate::txn::visible`] is evaluated against. [`HeapFile::insert`]
//! stamps `(0, TS_INF)` — visible to every snapshot — so non-transactional
//! callers never notice; [`HeapFile::insert_at`] stamps a real begin
//! timestamp, and [`set_record_end`] / [`HeapFile::delete_versioned`]
//! end-stamp a version in place (same-length update, so the record never
//! moves). Scans carry a snapshot timestamp and filter invisible versions
//! before the caller sees them.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::page::{PageKind, PageView, SlottedPage, NO_PAGE};
use crate::txn::{visible, TS_INF, TS_LATEST};

/// Identifies a heap file by its header page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u64);

/// Identifies a record: the page it lives on and its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// Page number.
    pub page: u64,
    /// Slot within the page.
    pub slot: u16,
}

impl RecordId {
    /// Pack into a u64 (page in the high 48 bits, slot in the low 16) for
    /// storage inside index entries.
    pub fn pack(self) -> u64 {
        (self.page << 16) | self.slot as u64
    }

    /// Inverse of [`RecordId::pack`].
    pub fn unpack(v: u64) -> RecordId {
        RecordId {
            page: v >> 16,
            slot: (v & 0xFFFF) as u16,
        }
    }
}

/// Bytes of MVCC version header — `begin_ts(8) | end_ts(8)`, little-endian
/// — prepended to every stored record.
pub const VERSION_HEADER: usize = 16;

/// Prepend a `(begin, end)` version header to `data`.
fn with_header(begin: u64, end: u64, data: &[u8]) -> Vec<u8> {
    let mut raw = Vec::with_capacity(VERSION_HEADER + data.len());
    raw.extend_from_slice(&begin.to_le_bytes());
    raw.extend_from_slice(&end.to_le_bytes());
    raw.extend_from_slice(data);
    raw
}

/// Split a stored record into `(begin_ts, end_ts, payload)`.
fn split_version(raw: &[u8]) -> StorageResult<(u64, u64, &[u8])> {
    if raw.len() < VERSION_HEADER {
        return Err(StorageError::Corrupt(format!(
            "heap record shorter than its version header ({} bytes)",
            raw.len()
        )));
    }
    let mut b = [0u8; 8];
    b.copy_from_slice(&raw[..8]);
    let begin = u64::from_le_bytes(b);
    b.copy_from_slice(&raw[8..16]);
    let end = u64::from_le_bytes(b);
    Ok((begin, end, &raw[VERSION_HEADER..]))
}

// Header-page body layout: first(8) | last(8) | record_count(8).
const HB_FIRST: usize = 0;
const HB_LAST: usize = 8;
const HB_COUNT: usize = 16;

fn body_get_u64(body: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&body[off..off + 8]);
    u64::from_le_bytes(b)
}

fn body_put_u64(body: &mut [u8], off: usize, v: u64) {
    body[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

/// Handle to a heap file. Stateless: all state lives on pages.
#[derive(Debug, Clone, Copy)]
pub struct HeapFile {
    id: FileId,
}

impl HeapFile {
    /// Create a new heap file, returning its id.
    pub fn create(pool: &Arc<BufferPool>) -> StorageResult<FileId> {
        let header = pool.allocate()?;
        header.with_write(|buf| {
            let mut p = SlottedPage::format(buf, PageKind::HeapHeader);
            let body = p.body_mut();
            body_put_u64(body, HB_FIRST, NO_PAGE);
            body_put_u64(body, HB_LAST, NO_PAGE);
            body_put_u64(body, HB_COUNT, 0);
        });
        Ok(FileId(header.page_no()))
    }

    /// Open an existing heap file by id.
    pub fn open(id: FileId) -> HeapFile {
        HeapFile { id }
    }

    /// The file's id.
    pub fn id(&self) -> FileId {
        self.id
    }

    /// Number of live records (maintained on the header page).
    pub fn record_count(&self, pool: &Arc<BufferPool>) -> StorageResult<u64> {
        let header = pool.pin(self.id.0)?;
        Ok(header.with_read(|buf| body_get_u64(PageView::new(buf).body(), HB_COUNT)))
    }

    fn bump_count(&self, pool: &Arc<BufferPool>, delta: i64) -> StorageResult<()> {
        let header = pool.pin(self.id.0)?;
        header.with_write(|buf| {
            let mut p = SlottedPage::new(buf);
            let body = p.body_mut();
            let c = body_get_u64(body, HB_COUNT) as i64 + delta;
            body_put_u64(body, HB_COUNT, c.max(0) as u64);
        });
        Ok(())
    }

    /// Insert a record, returning its id. The version is stamped
    /// `(0, TS_INF)`: visible to every snapshot. Serialized per file so
    /// chain extension cannot orphan pages under concurrency.
    pub fn insert(&self, pool: &Arc<BufferPool>, data: &[u8]) -> StorageResult<RecordId> {
        self.insert_at(pool, data, 0)
    }

    /// Insert a record version beginning at `begin_ts`: invisible to any
    /// snapshot before it, so an in-flight transaction's inserts (stamped
    /// with its provisional timestamp) hide from concurrent readers.
    pub fn insert_at(
        &self,
        pool: &Arc<BufferPool>,
        data: &[u8],
        begin_ts: u64,
    ) -> StorageResult<RecordId> {
        if data.len() + VERSION_HEADER > SlottedPage::MAX_RECORD {
            return Err(StorageError::RecordTooLarge(data.len()));
        }
        self.insert_raw(pool, &with_header(begin_ts, TS_INF, data))
    }

    /// Insert pre-stamped record bytes (version header already attached).
    fn insert_raw(&self, pool: &Arc<BufferPool>, raw: &[u8]) -> StorageResult<RecordId> {
        let lock = pool.smo_lock(self.id.0);
        let _guard = lock.lock();
        let header = pool.pin(self.id.0)?;
        let last = header.with_read(|buf| body_get_u64(PageView::new(buf).body(), HB_LAST));
        if last != NO_PAGE {
            let page = pool.pin(last)?;
            let slot = page.with_write(|buf| {
                let mut p = SlottedPage::new(buf);
                if p.can_fit(raw.len()) {
                    Some(p.insert(raw))
                } else {
                    None
                }
            });
            if let Some(slot) = slot {
                drop(header);
                self.bump_count(pool, 1)?;
                return Ok(RecordId {
                    page: last,
                    slot: slot?,
                });
            }
        }
        // Append a new data page to the chain.
        let new_page = pool.allocate()?;
        let new_no = new_page.page_no();
        let slot = new_page.with_write(|buf| {
            let mut p = SlottedPage::format(buf, PageKind::Heap);
            p.set_prev(last);
            p.insert(raw)
        })?;
        if last != NO_PAGE {
            let prev = pool.pin(last)?;
            prev.with_write(|buf| SlottedPage::new(buf).set_next(new_no));
        }
        header.with_write(|buf| {
            let mut p = SlottedPage::new(buf);
            let body = p.body_mut();
            if body_get_u64(body, HB_FIRST) == NO_PAGE {
                body_put_u64(body, HB_FIRST, new_no);
            }
            body_put_u64(body, HB_LAST, new_no);
        });
        pool.chain_append(self.id.0, new_no);
        drop(header);
        self.bump_count(pool, 1)?;
        Ok(RecordId { page: new_no, slot })
    }

    /// Update a record in place, carrying its version stamps over. If the
    /// new value no longer fits on its page the record is deleted and
    /// re-inserted, so the returned id may differ.
    pub fn update(
        &self,
        pool: &Arc<BufferPool>,
        rid: RecordId,
        data: &[u8],
    ) -> StorageResult<RecordId> {
        if data.len() + VERSION_HEADER > SlottedPage::MAX_RECORD {
            return Err(StorageError::RecordTooLarge(data.len()));
        }
        let page = pool.pin(rid.page)?;
        let (begin, end) = page.with_read(|buf| {
            PageView::new(buf)
                .read(rid.page, rid.slot)
                .and_then(|raw| split_version(raw).map(|(b, e, _)| (b, e)))
        })?;
        let raw = with_header(begin, end, data);
        let fit = page.with_write(|buf| SlottedPage::new(buf).update(rid.page, rid.slot, &raw))?;
        if fit {
            return Ok(rid);
        }
        page.with_write(|buf| SlottedPage::new(buf).delete(rid.page, rid.slot))?;
        drop(page);
        self.bump_count(pool, -1)?;
        self.insert_raw(pool, &raw)
    }

    /// Physically delete a record.
    pub fn delete(&self, pool: &Arc<BufferPool>, rid: RecordId) -> StorageResult<()> {
        let page = pool.pin(rid.page)?;
        page.with_write(|buf| SlottedPage::new(buf).delete(rid.page, rid.slot))?;
        drop(page);
        self.bump_count(pool, -1)
    }

    /// Logically delete: end-stamp the record's version at `end_ts` and
    /// decrement the live-record count. The bytes stay in place so older
    /// snapshots keep reading them; vacuum reclaims the space once no
    /// snapshot can see the version ([`crate::txn::TxnManager::take_ripe`]).
    pub fn delete_versioned(
        &self,
        pool: &Arc<BufferPool>,
        rid: RecordId,
        end_ts: u64,
    ) -> StorageResult<()> {
        set_record_end(pool, rid, end_ts)?;
        self.bump_count(pool, -1)
    }

    /// First data page of the chain, if any.
    pub fn first_page(&self, pool: &Arc<BufferPool>) -> StorageResult<u64> {
        let header = pool.pin(self.id.0)?;
        Ok(header.with_read(|buf| body_get_u64(PageView::new(buf).body(), HB_FIRST)))
    }

    /// Iterate over all live records, at the [`TS_LATEST`] pseudo-snapshot
    /// (every live version; see [`HeapScan::with_snapshot`]).
    pub fn scan(&self, pool: Arc<BufferPool>) -> HeapScan {
        HeapScan {
            pool,
            file: *self,
            page: None,
            slot: 0,
            done: false,
            run: None,
            snap: TS_LATEST,
        }
    }

    /// Split the file into at most `k` scans over contiguous runs of the
    /// page chain (morsel sources for parallel execution). Every live
    /// record appears in exactly one partition, and concatenating the
    /// partitions in order reproduces the full-scan record order. Fewer
    /// than `k` scans come back when the chain has fewer pages; an empty
    /// file yields no partitions.
    pub fn partitions(&self, pool: &Arc<BufferPool>, k: usize) -> StorageResult<Vec<HeapScan>> {
        let pages = match pool.chain_get(self.id.0) {
            Some(pages) => pages,
            None => {
                // Build the chain once and cache it. Pages are never
                // unlinked (deletes only empty them), so the cache stays
                // valid; inserts extend it via `chain_append`. Built under
                // the SMO lock so a concurrent chain extension cannot slip
                // between the walk and the install.
                let lock = pool.smo_lock(self.id.0);
                let _guard = lock.lock();
                let mut pages = Vec::new();
                let mut page_no = self.first_page(pool)?;
                while page_no != NO_PAGE {
                    pages.push(page_no);
                    let page = pool.pin(page_no)?;
                    page_no = page.with_read(|buf| PageView::new(buf).next());
                }
                pool.chain_put(self.id.0, pages.clone());
                pages
            }
        };
        if pages.is_empty() {
            return Ok(Vec::new());
        }
        let per = pages.len().div_ceil(k.max(1));
        Ok(pages
            .chunks(per)
            .map(|run| HeapScan {
                pool: pool.clone(),
                file: *self,
                page: None,
                slot: 0,
                done: false,
                run: Some(Run {
                    pages: run.to_vec(),
                    next: 0,
                }),
                snap: TS_LATEST,
            })
            .collect())
    }
}

/// Read one record by id (file-independent: the id names the page),
/// stripping the version header.
pub fn read_record(pool: &Arc<BufferPool>, rid: RecordId) -> StorageResult<Vec<u8>> {
    read_record_versioned(pool, rid).map(|(_, _, data)| data)
}

/// Read one record with its version stamps: `(begin_ts, end_ts, bytes)`.
pub fn read_record_versioned(
    pool: &Arc<BufferPool>,
    rid: RecordId,
) -> StorageResult<(u64, u64, Vec<u8>)> {
    let page = pool.pin(rid.page)?;
    page.with_read(|buf| {
        PageView::new(buf)
            .read(rid.page, rid.slot)
            .and_then(|raw| split_version(raw).map(|(b, e, d)| (b, e, d.to_vec())))
    })
}

/// Visit many records on their pinned pages: `visit(i, begin_ts, end_ts,
/// bytes)` is called for `rids[i]` with the record's bytes borrowed from
/// the page, so nothing is copied per record. Records are grouped by
/// page and each distinct page is pinned once (visit order is page
/// order, not input order). Per-record failures — a stale id naming a
/// freed slot or an unreadable page — skip that entry instead of
/// failing the batch, mirroring the tolerant per-record probing of
/// version-chain walks.
pub fn visit_records_versioned(
    pool: &Arc<BufferPool>,
    rids: &[RecordId],
    mut visit: impl FnMut(usize, u64, u64, &[u8]),
) {
    // Ids already in page order (one id, say) skip the sorted index.
    let mut order = Vec::new();
    if !rids.is_sorted_by_key(|r| (r.page, r.slot)) {
        order = (0..rids.len()).collect();
        order.sort_unstable_by_key(|&i| (rids[i].page, rids[i].slot));
    }
    let at = |k: usize| order.get(k).copied().unwrap_or(k);
    let mut i = 0;
    while i < rids.len() {
        let page_no = rids[at(i)].page;
        let mut j = i;
        while j < rids.len() && rids[at(j)].page == page_no {
            j += 1;
        }
        if let Ok(page) = pool.pin(page_no) {
            page.with_read(|buf| {
                let view = PageView::new(buf);
                for idx in (i..j).map(at) {
                    if let Ok((b, e, d)) =
                        view.read(page_no, rids[idx].slot).and_then(split_version)
                    {
                        visit(idx, b, e, d);
                    }
                }
            });
        }
        i = j;
    }
}

/// [`visit_records_versioned`] with every record copied out: `(begin_ts,
/// end_ts, bytes)` per input id, in input order, `None` for the entries
/// the visit skipped.
pub fn read_records_versioned(
    pool: &Arc<BufferPool>,
    rids: &[RecordId],
) -> Vec<Option<(u64, u64, Vec<u8>)>> {
    let mut out: Vec<Option<(u64, u64, Vec<u8>)>> = vec![None; rids.len()];
    visit_records_versioned(pool, rids, |i, b, e, d| out[i] = Some((b, e, d.to_vec())));
    out
}

/// End-stamp a record version in place at `end_ts` (same-length update:
/// the record never moves). Does not touch the file's record counter —
/// use [`HeapFile::delete_versioned`] for a counted logical delete.
pub fn set_record_end(pool: &Arc<BufferPool>, rid: RecordId, end_ts: u64) -> StorageResult<()> {
    let page = pool.pin(rid.page)?;
    page.with_write(|buf| {
        let mut raw = PageView::new(buf).read(rid.page, rid.slot)?.to_vec();
        if raw.len() < VERSION_HEADER {
            return Err(StorageError::Corrupt(format!(
                "heap record shorter than its version header ({} bytes)",
                raw.len()
            )));
        }
        raw[8..16].copy_from_slice(&end_ts.to_le_bytes());
        let fit = SlottedPage::new(buf).update(rid.page, rid.slot, &raw)?;
        debug_assert!(fit, "same-length update never moves");
        Ok(())
    })
}

/// Delete one record by id without touching the file's record counter.
/// Prefer [`HeapFile::delete`] when the file is known (it keeps the
/// file's live-record count).
pub fn delete_record(pool: &Arc<BufferPool>, rid: RecordId) -> StorageResult<()> {
    let page = pool.pin(rid.page)?;
    page.with_write(|buf| SlottedPage::new(buf).delete(rid.page, rid.slot))
}

/// A batch of records packed into one contiguous byte arena.
///
/// `HeapScan::next_batch_into` refills a caller-owned `RecordBatch` so the
/// per-record copies land in a single reused allocation instead of one
/// `Vec<u8>` per record. Record slices stay valid until the next refill.
#[derive(Debug, Default)]
pub struct RecordBatch {
    /// Concatenated record payload bytes (version headers stripped).
    bytes: Vec<u8>,
    /// Per-record `(rid, start, end)` — payload offsets into `bytes`.
    index: Vec<(RecordId, u32, u32)>,
}

impl RecordBatch {
    /// An empty batch (no backing capacity yet).
    pub fn new() -> RecordBatch {
        RecordBatch::default()
    }

    /// Drop all records but keep the arena capacity for reuse.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.index.clear();
    }

    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn push(&mut self, rid: RecordId, data: &[u8]) {
        let start = self.bytes.len() as u32;
        self.bytes.extend_from_slice(data);
        self.index.push((rid, start, self.bytes.len() as u32));
    }

    /// Iterate over `(rid, record bytes)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (RecordId, &[u8])> {
        self.index
            .iter()
            .map(|&(rid, s, e)| (rid, &self.bytes[s as usize..e as usize]))
    }
}

/// An explicit run of chain pages a partitioned scan is confined to.
#[derive(Debug)]
struct Run {
    pages: Vec<u64>,
    /// Index of the next page to visit after the current one.
    next: usize,
}

/// Iterator over `(RecordId, bytes)` pairs of a heap file.
pub struct HeapScan {
    pool: Arc<BufferPool>,
    file: HeapFile,
    /// Current page number; `None` before the first advance.
    page: Option<u64>,
    slot: u16,
    done: bool,
    /// `Some` confines the scan to an explicit page run (see
    /// [`HeapFile::partitions`]); `None` follows the on-page chain.
    run: Option<Run>,
    /// Snapshot timestamp the scan filters against ([`TS_LATEST`] = every
    /// live version).
    snap: u64,
}

impl HeapScan {
    /// Confine the scan to the versions visible at snapshot `snap`.
    pub fn with_snapshot(mut self, snap: u64) -> HeapScan {
        self.snap = snap;
        self
    }
    /// The first page this scan should visit, or `None` when empty.
    fn start_page(&mut self) -> StorageResult<Option<u64>> {
        match &mut self.run {
            Some(run) => {
                let first = run.pages.first().copied();
                run.next = 1;
                Ok(first)
            }
            None => {
                let first = self.file.first_page(&self.pool)?;
                Ok((first != NO_PAGE).then_some(first))
            }
        }
    }

    /// The page after the current one: the next entry of an explicit run,
    /// or `chain_next` read from the page itself.
    fn follow(&mut self, chain_next: u64) -> Option<u64> {
        match &mut self.run {
            Some(run) => {
                let n = run.pages.get(run.next).copied();
                run.next += 1;
                n
            }
            // Page 0 is never a heap data page: a zeroed page (a chain
            // extension rewound by transaction abort) reads `next == 0`,
            // which must terminate the walk, not jump to page 0.
            None => (chain_next != NO_PAGE && chain_next != 0).then_some(chain_next),
        }
    }

    /// Drain up to `n` records into a batch, pinning each visited page
    /// once (the row-at-a-time [`Iterator`] path re-pins per record).
    /// Returns an empty vector when the scan is exhausted.
    pub fn next_batch(&mut self, n: usize) -> StorageResult<Vec<(RecordId, Vec<u8>)>> {
        let mut batch = RecordBatch::new();
        self.next_batch_into(n, &mut batch)?;
        Ok(batch.iter().map(|(rid, b)| (rid, b.to_vec())).collect())
    }

    /// Refill `out` with up to `n` records, reusing its arena. `out` is
    /// cleared first; it stays empty when the scan is exhausted.
    pub fn next_batch_into(&mut self, n: usize, out: &mut RecordBatch) -> StorageResult<()> {
        out.clear();
        if self.done || n == 0 {
            return Ok(());
        }
        loop {
            let page_no = match self.page {
                Some(p) => p,
                None => match self.start_page().inspect_err(|_| self.done = true)? {
                    Some(first) => {
                        self.page = Some(first);
                        self.slot = 0;
                        first
                    }
                    None => {
                        self.done = true;
                        return Ok(());
                    }
                },
            };
            let page = self.pool.pin(page_no).inspect_err(|_| {
                self.done = true;
            })?;
            // One pin per page: copy every live slot we still need.
            let next = page.with_read(|buf| {
                let p = PageView::new(buf);
                let slots = p.slot_count();
                while self.slot < slots && out.len() < n {
                    let s = self.slot;
                    self.slot += 1;
                    if p.is_live(s) {
                        let raw = p.read(page_no, s).expect("live slot readable");
                        let (begin, end, data) =
                            split_version(raw).expect("record carries a version header");
                        if visible(begin, end, self.snap) {
                            out.push(
                                RecordId {
                                    page: page_no,
                                    slot: s,
                                },
                                data,
                            );
                        }
                    }
                }
                if self.slot < slots {
                    None // batch filled mid-page; resume here next call
                } else {
                    Some(p.next())
                }
            });
            match next {
                None => return Ok(()),
                Some(chain_next) => match self.follow(chain_next) {
                    None => {
                        self.done = true;
                        return Ok(());
                    }
                    Some(next_page) => {
                        self.page = Some(next_page);
                        self.slot = 0;
                        if out.len() == n {
                            return Ok(());
                        }
                    }
                },
            }
        }
    }
}

impl Iterator for HeapScan {
    type Item = StorageResult<(RecordId, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            let page_no = match self.page {
                Some(p) => p,
                None => {
                    let first = match self.start_page() {
                        Ok(Some(p)) => p,
                        Ok(None) => {
                            self.done = true;
                            return None;
                        }
                        Err(e) => {
                            self.done = true;
                            return Some(Err(e));
                        }
                    };
                    self.page = Some(first);
                    self.slot = 0;
                    first
                }
            };
            let page = match self.pool.pin(page_no) {
                Ok(p) => p,
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            };
            let found = page.with_read(|buf| {
                let p = PageView::new(buf);
                let n = p.slot_count();
                while self.slot < n {
                    let s = self.slot;
                    self.slot += 1;
                    if p.is_live(s) {
                        let raw = p.read(page_no, s).expect("live slot readable");
                        let (begin, end, data) =
                            split_version(raw).expect("record carries a version header");
                        if !visible(begin, end, self.snap) {
                            continue;
                        }
                        return Some((
                            RecordId {
                                page: page_no,
                                slot: s,
                            },
                            data.to_vec(),
                        ));
                    }
                }
                None
            });
            if let Some(hit) = found {
                return Some(Ok(hit));
            }
            // Advance to the next page in the chain (or explicit run).
            let chain_next = page.with_read(|buf| PageView::new(buf).next());
            match self.follow(chain_next) {
                None => {
                    self.done = true;
                    return None;
                }
                Some(next) => {
                    self.page = Some(next);
                    self.slot = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::MemVolume;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemVolume::new()), 32))
    }

    #[test]
    fn spans_many_pages() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        let rec = vec![5u8; 1000];
        let rids: Vec<_> = (0..100).map(|_| f.insert(&pool, &rec).unwrap()).collect();
        let pages: std::collections::HashSet<u64> = rids.iter().map(|r| r.page).collect();
        assert!(
            pages.len() > 1,
            "1000-byte × 100 records need multiple pages"
        );
        assert_eq!(f.record_count(&pool).unwrap(), 100);
        assert_eq!(f.scan(pool.clone()).count(), 100);
    }

    #[test]
    fn record_count_tracks_mutations() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        let a = f.insert(&pool, b"a").unwrap();
        let _b = f.insert(&pool, b"b").unwrap();
        assert_eq!(f.record_count(&pool).unwrap(), 2);
        f.delete(&pool, a).unwrap();
        assert_eq!(f.record_count(&pool).unwrap(), 1);
    }

    #[test]
    fn update_moving_record_keeps_count() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        // Nearly fill one page.
        f.insert(&pool, &vec![0u8; 7000]).unwrap();
        let small = f.insert(&pool, b"tiny").unwrap();
        let moved = f.update(&pool, small, &vec![1u8; 5000]).unwrap();
        assert_ne!(
            small.page, moved.page,
            "grown record must move off the full page"
        );
        assert_eq!(f.record_count(&pool).unwrap(), 2);
        assert_eq!(read_record(&pool, moved).unwrap(), vec![1u8; 5000]);
    }

    #[test]
    fn scan_empty_file() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        assert_eq!(f.scan(pool.clone()).count(), 0);
    }

    #[test]
    fn two_files_are_independent() {
        let pool = pool();
        let f1 = HeapFile::open(HeapFile::create(&pool).unwrap());
        let f2 = HeapFile::open(HeapFile::create(&pool).unwrap());
        f1.insert(&pool, b"one").unwrap();
        f2.insert(&pool, b"two").unwrap();
        f2.insert(&pool, b"three").unwrap();
        assert_eq!(f1.scan(pool.clone()).count(), 1);
        assert_eq!(f2.scan(pool.clone()).count(), 2);
    }

    #[test]
    fn batch_scan_matches_iterator() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        let rids: Vec<_> = (0..100u8)
            .map(|i| f.insert(&pool, &vec![i; 700]).unwrap())
            .collect();
        // Leave dead slots so batching must skip them.
        f.delete(&pool, rids[3]).unwrap();
        f.delete(&pool, rids[50]).unwrap();
        let want: Vec<_> = f.scan(pool.clone()).map(|r| r.unwrap()).collect();
        for n in [1usize, 7, 98, 200] {
            let mut s = f.scan(pool.clone());
            let mut got = Vec::new();
            loop {
                let b = s.next_batch(n).unwrap();
                if b.is_empty() {
                    break;
                }
                assert!(b.len() <= n);
                got.extend(b);
            }
            assert_eq!(got, want, "batch size {n}");
        }
    }

    #[test]
    fn batch_scan_empty_file() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        assert!(f.scan(pool.clone()).next_batch(16).unwrap().is_empty());
    }

    /// Concatenated partition output for a given `k`.
    fn partition_union(f: &HeapFile, pool: &Arc<BufferPool>, k: usize) -> Vec<(RecordId, Vec<u8>)> {
        let mut got = Vec::new();
        for mut part in f.partitions(pool, k).unwrap() {
            loop {
                let b = part.next_batch(17).unwrap();
                if b.is_empty() {
                    break;
                }
                got.extend(b);
            }
        }
        got
    }

    #[test]
    fn partitions_cover_file_in_order() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        let rids: Vec<_> = (0..120u8)
            .map(|i| f.insert(&pool, &vec![i; 600]).unwrap())
            .collect();
        f.delete(&pool, rids[10]).unwrap();
        f.delete(&pool, rids[77]).unwrap();
        let want: Vec<_> = f.scan(pool.clone()).map(|r| r.unwrap()).collect();
        let n_pages: std::collections::HashSet<u64> = want.iter().map(|(r, _)| r.page).collect();
        assert!(n_pages.len() >= 4, "fixture must span several pages");
        for k in [1usize, 2, 3, n_pages.len(), n_pages.len() + 50] {
            let parts = f.partitions(&pool, k).unwrap();
            assert!(!parts.is_empty() && parts.len() <= k);
            assert_eq!(partition_union(&f, &pool, k), want, "k={k}");
        }
    }

    #[test]
    fn partitions_k1_equals_full_scan() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        for i in 0..40u8 {
            f.insert(&pool, &vec![i; 500]).unwrap();
        }
        let parts = f.partitions(&pool, 1).unwrap();
        assert_eq!(parts.len(), 1);
        let want: Vec<_> = f.scan(pool.clone()).map(|r| r.unwrap()).collect();
        assert_eq!(partition_union(&f, &pool, 1), want);
    }

    #[test]
    fn partitions_single_page_file() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        f.insert(&pool, b"only").unwrap();
        let parts = f.partitions(&pool, 8).unwrap();
        assert_eq!(parts.len(), 1, "one page cannot split further");
        assert_eq!(partition_union(&f, &pool, 8).len(), 1);
    }

    #[test]
    fn partitions_see_pages_added_after_chain_is_cached() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        for i in 0..40u8 {
            f.insert(&pool, &vec![i; 600]).unwrap();
        }
        let _ = f.partitions(&pool, 4).unwrap(); // builds and caches the chain
        for i in 40..80u8 {
            f.insert(&pool, &vec![i; 600]).unwrap(); // must extend the cache
        }
        let want: Vec<_> = f.scan(pool.clone()).map(|r| r.unwrap()).collect();
        assert_eq!(partition_union(&f, &pool, 3), want);
        // And the cached walk costs no extra pins per call: two calls in
        // a row pin the same number of pages.
        pool.reset_stats();
        let _ = f.partitions(&pool, 4).unwrap();
        let first = pool.stats();
        let _ = f.partitions(&pool, 4).unwrap();
        let second = pool.stats();
        assert_eq!(
            first.hits + first.misses,
            0,
            "cached partitions pin nothing"
        );
        assert_eq!(second, first);
    }

    #[test]
    fn partitions_empty_file() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        assert!(f.partitions(&pool, 4).unwrap().is_empty());
    }

    #[test]
    fn batch_into_reuses_arena() {
        let pool = pool();
        let f = HeapFile::open(HeapFile::create(&pool).unwrap());
        for i in 0..30u8 {
            f.insert(&pool, &[i; 64]).unwrap();
        }
        let mut scan = f.scan(pool.clone());
        let mut batch = RecordBatch::new();
        let mut seen = 0usize;
        loop {
            scan.next_batch_into(7, &mut batch).unwrap();
            if batch.is_empty() {
                break;
            }
            for (_, bytes) in batch.iter() {
                assert_eq!(bytes, vec![seen as u8; 64]);
                seen += 1;
            }
        }
        assert_eq!(seen, 30);
    }

    #[test]
    fn rid_pack_round_trip() {
        let rid = RecordId {
            page: 123456789,
            slot: 4321,
        };
        assert_eq!(RecordId::unpack(rid.pack()), rid);
    }
}
