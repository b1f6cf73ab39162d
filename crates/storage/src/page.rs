//! Slotted pages.
//!
//! Every page is [`PAGE_SIZE`] bytes. A page begins with a fixed header and
//! a slot directory growing downward from the header while record bytes grow
//! upward from the end of the page:
//!
//! ```text
//! +-----------+----------------+ ... free ... +----------+----------+
//! |  header   | slot0 slot1 …  |              | record1  | record0  |
//! +-----------+----------------+--------------+----------+----------+
//! ```
//!
//! Header layout (little-endian):
//!
//! | offset | size | field |
//! |--------|------|-------|
//! | 0      | 8    | `next` page in chain (`NO_PAGE` if none) |
//! | 8      | 8    | `prev` page in chain |
//! | 16     | 2    | slot count |
//! | 18     | 2    | free-space pointer (offset of lowest record byte) |
//! | 20     | 2    | page kind tag |
//! | 22     | 2    | reserved |
//! | 24     | 8    | `page_lsn`: LSN of the last WAL record covering this page |
//! | 32     | 4    | page checksum (stamped at write-back; 0 = never stamped) |
//! | 36     | 4    | reserved |
//!
//! Each slot is 4 bytes: `offset: u16`, `len: u16`. On heap pages a
//! deleted slot has `offset == DEAD_SLOT`; slot ids are never reused within
//! a page so record ids stay stable until compaction off-page. B+-tree
//! nodes, which no record id addresses, keep the directory dense and in
//! key order instead ([`SlottedPage::insert_at`], [`SlottedPage::remove_at`]).

use crate::error::{StorageError, StorageResult};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Sentinel page number meaning "no page".
pub const NO_PAGE: u64 = u64::MAX;
/// Sentinel slot offset marking a deleted slot.
const DEAD_SLOT: u16 = u16::MAX;

const H_NEXT: usize = 0;
const H_PREV: usize = 8;
const H_NSLOTS: usize = 16;
const H_FREE: usize = 18;
const H_KIND: usize = 20;
const H_LSN: usize = 24;
const H_CKSUM: usize = 32;
/// First byte past the fixed header; the slot directory starts here.
pub const HEADER_SIZE: usize = 40;
/// The header bytes no redo record carries: the page LSN (stamped by
/// whoever applies a record) and the checksum (stamped at write-back).
pub(crate) const UNLOGGED: std::ops::Range<usize> = H_LSN..H_CKSUM + 4;
const SLOT_SIZE: usize = 4;

/// The LSN of the last WAL record whose effects this page contains.
/// Zero on pages that have never been touched under a WAL.
pub fn page_lsn(buf: &[u8]) -> u64 {
    get_u64(buf, H_LSN)
}

/// Stamp the page LSN (see [`page_lsn`]).
pub fn set_page_lsn(buf: &mut [u8], lsn: u64) {
    put_u64(buf, H_LSN, lsn);
}

/// CRC-32 of the page contents, excluding the checksum field itself.
fn page_crc(buf: &[u8]) -> u32 {
    let c = crate::crc::crc32_multi(&[&buf[..H_CKSUM], &buf[H_CKSUM + 4..]]);
    // 0 is reserved to mean "never stamped"; remap a real 0 to 1.
    if c == 0 {
        1
    } else {
        c
    }
}

/// Stamp the page checksum. Called by the buffer pool as a page is written
/// back to a recoverable volume, so torn disk writes are detectable.
pub fn stamp_page_checksum(buf: &mut [u8]) {
    let c = page_crc(buf);
    buf[H_CKSUM..H_CKSUM + 4].copy_from_slice(&c.to_le_bytes());
}

/// Verify the page checksum. `true` when the stored checksum matches the
/// contents, or when the page was never stamped (checksum field 0 — e.g. a
/// freshly allocated page that no write-back ever covered).
pub fn verify_page_checksum(buf: &[u8]) -> bool {
    let stored = u32::from_le_bytes([
        buf[H_CKSUM],
        buf[H_CKSUM + 1],
        buf[H_CKSUM + 2],
        buf[H_CKSUM + 3],
    ]);
    stored == 0 || stored == page_crc(buf)
}

/// Tags distinguishing what structure a page belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum PageKind {
    /// Unallocated / freshly formatted.
    Free = 0,
    /// Heap-file data page.
    Heap = 1,
    /// Heap-file header page.
    HeapHeader = 2,
    /// B+-tree interior node.
    BTreeInternal = 3,
    /// B+-tree leaf node.
    BTreeLeaf = 4,
    /// Object-table directory page.
    ObjectDir = 5,
    /// Large-object data page.
    Lob = 6,
    /// Volume metadata (page 0).
    Meta = 7,
}

impl PageKind {
    fn from_u16(v: u16) -> PageKind {
        match v {
            1 => PageKind::Heap,
            2 => PageKind::HeapHeader,
            3 => PageKind::BTreeInternal,
            4 => PageKind::BTreeLeaf,
            5 => PageKind::ObjectDir,
            6 => PageKind::Lob,
            7 => PageKind::Meta,
            _ => PageKind::Free,
        }
    }
}

/// A typed view over one page's bytes, providing slotted-record operations.
///
/// `SlottedPage` borrows the raw frame bytes; it performs no locking itself
/// (the buffer pool's frame latch covers access).
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

/// Read-only counterpart to [`SlottedPage`]: usable on a shared borrow of
/// the frame so readers never copy the page.
pub struct PageView<'a> {
    buf: &'a [u8],
}

impl<'a> PageView<'a> {
    /// Wrap page bytes for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        PageView { buf }
    }

    /// The page kind tag.
    pub fn kind(&self) -> PageKind {
        PageKind::from_u16(get_u16(self.buf, H_KIND))
    }

    /// Next page in this page's chain.
    pub fn next(&self) -> u64 {
        get_u64(self.buf, H_NEXT)
    }

    /// Previous page in this page's chain.
    pub fn prev(&self) -> u64 {
        get_u64(self.buf, H_PREV)
    }

    /// Number of slots ever allocated (live + dead).
    pub fn slot_count(&self) -> u16 {
        get_u16(self.buf, H_NSLOTS)
    }

    fn slot(&self, slot: u16) -> (u16, u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        (get_u16(self.buf, base), get_u16(self.buf, base + 2))
    }

    /// Whether a slot holds a live record.
    pub fn is_live(&self, slot: u16) -> bool {
        slot < self.slot_count() && self.slot(slot).0 != DEAD_SLOT
    }

    /// Read a record by slot id.
    pub fn read(&self, page_no: u64, slot: u16) -> StorageResult<&'a [u8]> {
        read_record(self.buf, page_no, slot)
    }

    /// Raw access to the area past the header.
    pub fn body(&self) -> &'a [u8] {
        &self.buf[HEADER_SIZE..]
    }

    /// The page LSN (see [`page_lsn`]).
    pub fn lsn(&self) -> u64 {
        page_lsn(self.buf)
    }
}

/// The bytes of record `slot`. A slot past the directory or a dead one
/// is [`StorageError::InvalidSlot`]; a directory or record that runs
/// outside the page is [`StorageError::Corrupt`], never a panic.
fn read_record(buf: &[u8], page_no: u64, slot: u16) -> StorageResult<&[u8]> {
    let n = get_u16(buf, H_NSLOTS);
    if slot >= n {
        return Err(StorageError::InvalidSlot {
            page: page_no,
            slot,
        });
    }
    let dir_end = HEADER_SIZE + n as usize * SLOT_SIZE;
    if dir_end > PAGE_SIZE {
        return Err(StorageError::Corrupt(format!(
            "page {page_no}: {n} slots overrun the page"
        )));
    }
    let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
    let off = get_u16(buf, base);
    if off == DEAD_SLOT {
        return Err(StorageError::InvalidSlot {
            page: page_no,
            slot,
        });
    }
    let (off, end) = (off as usize, off as usize + get_u16(buf, base + 2) as usize);
    if off < dir_end || end > PAGE_SIZE {
        return Err(StorageError::Corrupt(format!(
            "page {page_no}: slot {slot} record {off}..{end} lies outside the record area"
        )));
    }
    Ok(&buf[off..end])
}

fn get_u16(buf: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([buf[off], buf[off + 1]])
}

fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    buf[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], off: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[off..off + 8]);
    u64::from_le_bytes(b)
}

fn put_u64(buf: &mut [u8], off: usize, v: u64) {
    buf[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

impl<'a> SlottedPage<'a> {
    /// Wrap existing page bytes. The caller must have formatted the page
    /// (via [`SlottedPage::format`]) at some point.
    pub fn new(buf: &'a mut [u8]) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        SlottedPage { buf }
    }

    /// Initialize an empty slotted page of the given kind.
    pub fn format(buf: &'a mut [u8], kind: PageKind) -> Self {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        buf.fill(0);
        put_u64(buf, H_NEXT, NO_PAGE);
        put_u64(buf, H_PREV, NO_PAGE);
        put_u16(buf, H_NSLOTS, 0);
        put_u16(buf, H_FREE, PAGE_SIZE as u16);
        put_u16(buf, H_KIND, kind as u16);
        SlottedPage { buf }
    }

    /// The page kind tag.
    pub fn kind(&self) -> PageKind {
        PageKind::from_u16(get_u16(self.buf, H_KIND))
    }

    /// Next page in this page's chain.
    pub fn next(&self) -> u64 {
        get_u64(self.buf, H_NEXT)
    }

    /// Set the next-page link.
    pub fn set_next(&mut self, p: u64) {
        put_u64(self.buf, H_NEXT, p);
    }

    /// Previous page in this page's chain.
    pub fn prev(&self) -> u64 {
        get_u64(self.buf, H_PREV)
    }

    /// Set the previous-page link.
    pub fn set_prev(&mut self, p: u64) {
        put_u64(self.buf, H_PREV, p);
    }

    /// Number of slots ever allocated on this page (live + dead).
    pub fn slot_count(&self) -> u16 {
        get_u16(self.buf, H_NSLOTS)
    }

    fn free_ptr(&self) -> u16 {
        get_u16(self.buf, H_FREE)
    }

    fn slot_dir_end(&self) -> usize {
        HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE
    }

    /// Bytes of contiguous free space between the slot directory and the
    /// lowest record. A new record needs its length **plus** the 4 bytes
    /// of its slot entry; callers add those to what they ask for, so a
    /// gap narrower than a slot entry shows up as the deficit it is.
    pub fn free_space(&self) -> usize {
        (self.free_ptr() as usize).saturating_sub(self.slot_dir_end())
    }

    /// Total reclaimable bytes (contiguous free space plus dead-record
    /// space); a compaction makes it all contiguous.
    pub fn reclaimable_space(&self) -> usize {
        let mut dead = 0usize;
        for s in 0..self.slot_count() {
            let (off, len) = self.slot(s);
            if off == DEAD_SLOT {
                dead += len as usize;
            }
        }
        self.free_space() + dead
    }

    fn slot(&self, slot: u16) -> (u16, u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        (get_u16(self.buf, base), get_u16(self.buf, base + 2))
    }

    fn set_slot(&mut self, slot: u16, off: u16, len: u16) {
        let base = HEADER_SIZE + slot as usize * SLOT_SIZE;
        put_u16(self.buf, base, off);
        put_u16(self.buf, base + 2, len);
    }

    /// Largest record this (empty) page layout could hold.
    pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

    /// Insert a record, compacting if fragmented. Returns the slot id.
    pub fn insert(&mut self, data: &[u8]) -> StorageResult<u16> {
        if data.len() > Self::MAX_RECORD {
            return Err(StorageError::RecordTooLarge(data.len()));
        }
        let need = data.len() + SLOT_SIZE;
        if self.free_space() < need {
            if self.reclaimable_space() >= need {
                self.compact();
            } else {
                return Err(StorageError::RecordTooLarge(data.len()));
            }
        }
        let slot = self.slot_count();
        let new_free = self.free_ptr() as usize - data.len();
        self.buf[new_free..new_free + data.len()].copy_from_slice(data);
        put_u16(self.buf, H_FREE, new_free as u16);
        put_u16(self.buf, H_NSLOTS, slot + 1);
        self.set_slot(slot, new_free as u16, data.len() as u16);
        Ok(slot)
    }

    /// Whether an insert of `len` bytes would succeed.
    pub fn can_fit(&self, len: usize) -> bool {
        len <= Self::MAX_RECORD
            && self.reclaimable_space() >= len + SLOT_SIZE
            && self.slot_count() < u16::MAX - 1
    }

    /// Read a record by slot id.
    pub fn read(&self, page_no: u64, slot: u16) -> StorageResult<&[u8]> {
        read_record(self.buf, page_no, slot)
    }

    /// Whether a slot holds a live record.
    pub fn is_live(&self, slot: u16) -> bool {
        slot < self.slot_count() && self.slot(slot).0 != DEAD_SLOT
    }

    /// Delete a record. The slot id is not reused.
    pub fn delete(&mut self, page_no: u64, slot: u16) -> StorageResult<()> {
        if !self.is_live(slot) {
            return Err(StorageError::InvalidSlot {
                page: page_no,
                slot,
            });
        }
        let (_, len) = self.slot(slot);
        self.set_slot(slot, DEAD_SLOT, len);
        Ok(())
    }

    /// Update a record in place if the new data fits (possibly after
    /// compaction); returns `false` if it cannot fit on this page, leaving
    /// the old record intact.
    pub fn update(&mut self, page_no: u64, slot: u16, data: &[u8]) -> StorageResult<bool> {
        if !self.is_live(slot) {
            return Err(StorageError::InvalidSlot {
                page: page_no,
                slot,
            });
        }
        let (off, len) = self.slot(slot);
        if data.len() <= len as usize {
            // Shrink in place; tail bytes become internal fragmentation
            // reclaimed on the next compaction.
            let start = off as usize;
            self.buf[start..start + data.len()].copy_from_slice(data);
            self.set_slot(slot, off, data.len() as u16);
            return Ok(true);
        }
        // Need more room: logically delete, then try to re-insert reusing
        // the same slot id.
        self.set_slot(slot, DEAD_SLOT, len);
        if self.free_space() < data.len() {
            if self.reclaimable_space() >= data.len() {
                self.compact();
            } else {
                // Restore and report no-fit.
                self.set_slot(slot, off, len);
                return Ok(false);
            }
        }
        let new_free = self.free_ptr() as usize - data.len();
        self.buf[new_free..new_free + data.len()].copy_from_slice(data);
        put_u16(self.buf, H_FREE, new_free as u16);
        self.set_slot(slot, new_free as u16, data.len() as u16);
        Ok(true)
    }

    /// Slide all live records to the end of the page, squeezing out dead
    /// space. Slot ids are preserved.
    pub fn compact(&mut self) {
        let old = self.buf.to_vec();
        let mut free = PAGE_SIZE;
        for s in 0..self.slot_count() {
            let (off, len) = self.slot(s);
            if off == DEAD_SLOT {
                // Zero-length, so reclaimable_space stays exact.
                self.set_slot(s, DEAD_SLOT, 0);
                continue;
            }
            let (off, len) = (off as usize, len as usize);
            free -= len;
            self.buf[free..free + len].copy_from_slice(&old[off..off + len]);
            self.set_slot(s, free as u16, len as u16);
        }
        put_u16(self.buf, H_FREE, free as u16);
    }

    /// Insert `data` as slot `i` of a dense directory kept in order (a
    /// B+-tree node), shifting slots `i..` up one place; compacts first
    /// when only fragmented space would fit it. Returns `false`, changing
    /// nothing, when the record does not fit.
    pub fn insert_at(&mut self, i: u16, data: &[u8]) -> StorageResult<bool> {
        let n = self.slot_count();
        let dir_end = self.slot_dir_end();
        if i > n || dir_end > self.free_ptr() as usize || self.free_ptr() as usize > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "slot {i} of {n}: directory or free pointer outside the page"
            )));
        }
        let need = data.len() + SLOT_SIZE;
        if self.free_space() < need {
            let mut used = 0;
            for s in 0..n {
                used += read_record(self.buf, NO_PAGE, s)
                    .map_err(|_| {
                        StorageError::Corrupt(format!("slot {s}: record outside the page"))
                    })?
                    .len();
            }
            if dir_end + used + need > PAGE_SIZE {
                return Ok(false);
            }
            self.compact();
        }
        let at = HEADER_SIZE + i as usize * SLOT_SIZE;
        self.buf.copy_within(at..dir_end, at + SLOT_SIZE);
        let off = self.free_ptr() as usize - data.len();
        self.buf[off..off + data.len()].copy_from_slice(data);
        put_u16(self.buf, H_FREE, off as u16);
        put_u16(self.buf, H_NSLOTS, n + 1);
        self.set_slot(i, off as u16, data.len() as u16);
        Ok(true)
    }

    /// Remove slot `i` of a dense directory, shifting the slots after it
    /// down one place; its record bytes are reclaimed by the next
    /// compaction.
    pub fn remove_at(&mut self, i: u16) -> StorageResult<()> {
        let n = self.slot_count();
        let dir_end = self.slot_dir_end();
        if i >= n || dir_end > PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "slot {i} of {n}: directory outside the page"
            )));
        }
        let at = HEADER_SIZE + i as usize * SLOT_SIZE;
        self.buf.copy_within(at + SLOT_SIZE..dir_end, at);
        put_u16(self.buf, H_NSLOTS, n - 1);
        Ok(())
    }

    /// Count of live records on the page.
    pub fn live_count(&self) -> usize {
        (0..self.slot_count()).filter(|&s| self.is_live(s)).count()
    }

    /// Raw access to the area past the header, for non-slotted page kinds
    /// (object directory and LOB pages manage their own layout).
    pub fn body(&self) -> &[u8] {
        &self.buf[HEADER_SIZE..]
    }

    /// Mutable raw access to the area past the header.
    pub fn body_mut(&mut self) -> &mut [u8] {
        &mut self.buf[HEADER_SIZE..]
    }

    /// The page LSN (see [`page_lsn`]).
    pub fn lsn(&self) -> u64 {
        page_lsn(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8; PAGE_SIZE]> {
        Box::new([0u8; PAGE_SIZE])
    }

    #[test]
    fn insert_read_delete() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
        let s0 = p.insert(b"alpha").unwrap();
        let s1 = p.insert(b"beta").unwrap();
        assert_eq!(p.read(0, s0).unwrap(), b"alpha");
        assert_eq!(p.read(0, s1).unwrap(), b"beta");
        p.delete(0, s0).unwrap();
        assert!(p.read(0, s0).is_err());
        assert_eq!(p.read(0, s1).unwrap(), b"beta");
        assert_eq!(p.live_count(), 1);
    }

    #[test]
    fn fill_page_then_overflow() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
        let rec = [7u8; 100];
        let mut n = 0;
        while p.can_fit(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        assert!(n >= 70, "expected dozens of 100-byte records, got {n}");
        assert!(p.insert(&rec).is_err());
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
        let mut slots = Vec::new();
        let rec = [1u8; 200];
        while p.can_fit(rec.len()) {
            slots.push(p.insert(&rec).unwrap());
        }
        // Delete every other record, then a large record must still fit via
        // compaction.
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 0 {
                p.delete(0, *s).unwrap();
            }
        }
        let big = vec![9u8; 1500];
        assert!(p.can_fit(big.len()));
        let s = p.insert(&big).unwrap();
        assert_eq!(p.read(0, s).unwrap(), &big[..]);
        // Survivors unchanged.
        for (i, s) in slots.iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(p.read(0, *s).unwrap(), &rec[..]);
            }
        }
    }

    /// A page whose contiguous gap is narrower than a slot entry (0–3
    /// bytes) but whose dead space covers the record: the insert must
    /// either be refused or leave every live record and the new one
    /// byte-intact — never lay the new slot entry over the record.
    #[test]
    fn insert_into_a_gap_narrower_than_a_slot_entry() {
        for gap in 0..SLOT_SIZE {
            let mut buf = fresh();
            let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
            let victim = p.insert(&[0xEE; 100]).unwrap();
            let mut live: Vec<(u16, Vec<u8>)> = Vec::new();
            for i in 0..77u8 {
                let rec = vec![i; 100];
                live.push((p.insert(&rec).unwrap(), rec));
            }
            // The last record leaves exactly `gap` contiguous bytes.
            let contiguous = p.free_ptr() as usize - p.slot_dir_end();
            let last = vec![0x77; contiguous - SLOT_SIZE - gap];
            live.push((p.insert(&last).unwrap(), last));
            assert_eq!(p.free_ptr() as usize - p.slot_dir_end(), gap);
            p.delete(0, victim).unwrap();

            let new = [0xAB; 100];
            if let Ok(slot) = p.insert(&new) {
                assert_eq!(p.read(0, slot).unwrap(), &new[..], "gap {gap}");
            }
            for (slot, rec) in &live {
                assert_eq!(p.read(0, *slot).unwrap(), &rec[..], "gap {gap}");
            }
        }
    }

    #[test]
    fn update_grow_and_shrink() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
        let s = p.insert(b"short").unwrap();
        assert!(p
            .update(0, s, b"a considerably longer record body")
            .unwrap());
        assert_eq!(p.read(0, s).unwrap(), b"a considerably longer record body");
        assert!(p.update(0, s, b"x").unwrap());
        assert_eq!(p.read(0, s).unwrap(), b"x");
    }

    #[test]
    fn update_no_fit_keeps_original() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
        let filler = vec![0u8; 4000];
        p.insert(&filler).unwrap();
        let s = p.insert(&filler[..3000]).unwrap();
        // Growing to 6000 cannot fit alongside the 4000-byte filler.
        assert!(!p.update(0, s, &vec![1u8; 6000]).unwrap());
        assert_eq!(p.read(0, s).unwrap().len(), 3000);
    }

    #[test]
    fn chain_links_round_trip() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
        assert_eq!(p.next(), NO_PAGE);
        p.set_next(42);
        p.set_prev(7);
        assert_eq!(p.next(), 42);
        assert_eq!(p.prev(), 7);
        assert_eq!(p.kind(), PageKind::Heap);
    }

    /// A slot whose record runs outside the page, or a slot count whose
    /// directory does, reads as `Corrupt` through both views.
    #[test]
    fn read_bounds_checks_the_slot() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
        let s = p.insert(b"record").unwrap();
        let base = HEADER_SIZE + s as usize * SLOT_SIZE;
        let hostile: [(usize, u16); 5] = [
            (base, (PAGE_SIZE - 2) as u16), // offset: runs past the end
            (base, HEADER_SIZE as u16),     // offset: into the directory
            (base, u16::MAX - 1),           // offset: past the page
            (base + 2, u16::MAX),           // length: past the page
            (H_NSLOTS, (PAGE_SIZE / SLOT_SIZE) as u16), // directory past the page
        ];
        for (at, v) in hostile {
            let mut bad = buf.clone();
            put_u16(&mut bad[..], at, v);
            let corrupt = |r: StorageResult<&[u8]>| matches!(r, Err(StorageError::Corrupt(_)));
            assert!(corrupt(PageView::new(&bad[..]).read(0, s)), "{at}={v}");
            assert!(
                corrupt(SlottedPage::new(&mut bad[..]).read(0, s)),
                "{at}={v}"
            );
        }
        assert_eq!(PageView::new(&buf[..]).read(0, s).unwrap(), b"record");
    }

    /// `insert_at`/`remove_at` keep a dense directory in the order given,
    /// reclaim removed records by compaction, and refuse a record that
    /// cannot fit without changing the page.
    #[test]
    fn insert_at_and_remove_at_keep_order() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::BTreeLeaf);
        let mut model: Vec<Vec<u8>> = Vec::new();
        for i in 0..40u8 {
            let at = (i as usize * 7) % (model.len() + 1);
            let rec = vec![i; 150];
            assert!(p.insert_at(at as u16, &rec).unwrap());
            model.insert(at, rec);
            if i % 3 == 0 {
                p.remove_at(0).unwrap();
                model.remove(0);
            }
        }
        let read = |p: &SlottedPage<'_>| -> Vec<Vec<u8>> {
            (0..p.slot_count())
                .map(|s| p.read(0, s).unwrap().to_vec())
                .collect()
        };
        assert_eq!(read(&p), model);
        // Fits only once the removed records' bytes are compacted away.
        let big = vec![0xAB; 3000];
        assert!(p.free_space() < big.len() + SLOT_SIZE);
        assert!(p.insert_at(1, &big).unwrap());
        model.insert(1, big);
        assert_eq!(read(&p), model);
        let before = p.buf.to_vec();
        assert!(!p.insert_at(0, &vec![9u8; PAGE_SIZE / 2]).unwrap());
        assert_eq!(p.buf.to_vec(), before, "a refused insert changes nothing");
        assert!(p.remove_at(p.slot_count()).is_err());
    }

    #[test]
    fn record_too_large_rejected() {
        let mut buf = fresh();
        let mut p = SlottedPage::format(&mut buf[..], PageKind::Heap);
        assert!(matches!(
            p.insert(&vec![0u8; PAGE_SIZE]),
            Err(StorageError::RecordTooLarge(_))
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(Vec<u8>),
        /// Insert a record that leaves exactly this many contiguous
        /// free bytes (when the page has room for one).
        FillTo(usize),
        /// Insert a record as long as an earlier deleted one — the size
        /// a compaction frees exactly.
        InsertFreed(usize),
        Delete(usize),
        Update(usize, Vec<u8>),
        Compact,
    }

    fn op_strategy() -> impl Strategy<Value = Op> {
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..300).prop_map(Op::Insert),
            (0usize..8).prop_map(Op::FillTo),
            (0usize..64).prop_map(Op::InsertFreed),
            (0usize..64).prop_map(Op::Delete),
            ((0usize..64), proptest::collection::vec(any::<u8>(), 0..300))
                .prop_map(|(s, d)| Op::Update(s, d)),
            Just(Op::Compact),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random insert/delete/update/compact sequences, steered at
        /// nearly-full pages, agree with a Vec model: `can_fit` and
        /// `insert` agree, and every live record reads back unchanged
        /// after every step.
        #[test]
        fn page_matches_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
            let mut buf = Box::new([0u8; PAGE_SIZE]);
            let mut page = SlottedPage::format(&mut buf[..], PageKind::Heap);
            // model[slot] = Some(bytes) while live.
            let mut model: Vec<Option<Vec<u8>>> = Vec::new();
            // Lengths of the records deleted so far.
            let mut freed: Vec<usize> = Vec::new();
            for op in ops {
                let insert = match op {
                    Op::Insert(data) => Some(data),
                    Op::FillTo(gap) => (page.free_ptr() as usize - page.slot_dir_end())
                        .checked_sub(SLOT_SIZE + gap)
                        .map(|len| vec![0x5A; len]),
                    Op::InsertFreed(i) => {
                        (!freed.is_empty()).then(|| vec![0xA5; freed[i % freed.len()]])
                    }
                    Op::Delete(i) if !model.is_empty() => {
                        let slot = i % model.len();
                        let got = page.delete(0, slot as u16).is_ok();
                        prop_assert_eq!(got, model[slot].is_some());
                        freed.extend(model[slot].take().map(|data| data.len()));
                        None
                    }
                    Op::Update(i, data) if !model.is_empty() => {
                        let slot = i % model.len();
                        match (page.update(0, slot as u16, &data), &model[slot]) {
                            (Ok(true), Some(_)) => model[slot] = Some(data),
                            (Ok(false), Some(_)) => { /* no room; record unchanged */ }
                            (Err(_), None) => {}
                            (got, _) => {
                                return Err(TestCaseError::fail(format!("slot {slot}: {got:?}")))
                            }
                        }
                        None
                    }
                    Op::Delete(_) | Op::Update(..) => None,
                    Op::Compact => {
                        page.compact();
                        None
                    }
                };
                if let Some(data) = insert {
                    let fits = page.can_fit(data.len());
                    match page.insert(&data) {
                        Ok(slot) => {
                            prop_assert!(fits, "insert succeeded where can_fit said no");
                            prop_assert_eq!(slot as usize, model.len());
                            model.push(Some(data));
                        }
                        Err(_) => prop_assert!(!fits, "insert failed where can_fit said yes"),
                    }
                }
                // Full-state check.
                for (slot, expect) in model.iter().enumerate() {
                    match expect {
                        Some(data) => prop_assert_eq!(page.read(0, slot as u16).unwrap(), &data[..]),
                        None => prop_assert!(page.read(0, slot as u16).is_err()),
                    }
                }
            }
        }
    }
}
