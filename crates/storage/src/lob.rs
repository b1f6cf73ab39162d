//! Large storage objects.
//!
//! The EXODUS storage manager's signature feature was the *large storage
//! object*: an uninterpreted byte sequence of arbitrary size supporting
//! positional reads and writes. EXTRA needs them for long `varchar` values
//! and big variable-length arrays that exceed a page.
//!
//! This implementation stores a LOB as a chain of pages. The first page's
//! body starts with the total length (u64); the remainder of every body is
//! data. Reads and writes are positional; `append`, `truncate`, and
//! byte-range `insert`/`remove` are provided. Unlike the original (which
//! used a B-tree of byte ranges for O(log n) mid-object edits),
//! mid-object `insert`/`remove` here rewrite the tail — a documented
//! simplification that preserves the interface.

use std::sync::Arc;

use crate::buffer::{BufferPool, PinnedPage};
use crate::error::{StorageError, StorageResult};
use crate::page::{PageKind, PageView, SlottedPage, NO_PAGE, PAGE_SIZE};

const BODY: usize = PAGE_SIZE - crate::page::HEADER_SIZE;
/// Data capacity of the first page (length header uses 8 bytes).
const FIRST_CAP: usize = BODY - 8;
/// Data capacity of continuation pages.
const CONT_CAP: usize = BODY;

/// Handle to a large object, identified by its first page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LobId(pub u64);

/// Large-object operations over a buffer pool.
#[derive(Debug, Clone, Copy)]
pub struct Lob {
    id: LobId,
}

impl Lob {
    /// Create an empty large object.
    pub fn create(pool: &Arc<BufferPool>) -> StorageResult<Lob> {
        Ok(Self::format(&pool.allocate()?))
    }

    /// Make `page_no`, an allocated page that holds nothing, an empty
    /// large object.
    pub fn create_at(pool: &Arc<BufferPool>, page_no: u64) -> StorageResult<Lob> {
        Ok(Self::format(&pool.pin(page_no)?))
    }

    fn format(page: &PinnedPage) -> Lob {
        page.with_write(|buf| {
            let mut p = SlottedPage::format(buf, PageKind::Lob);
            p.body_mut()[..8].copy_from_slice(&0u64.to_le_bytes());
        });
        Lob {
            id: LobId(page.page_no()),
        }
    }

    /// Open an existing large object.
    pub fn open(id: LobId) -> Lob {
        Lob { id }
    }

    /// The object's id.
    pub fn id(&self) -> LobId {
        self.id
    }

    /// Total length in bytes.
    pub fn len(&self, pool: &Arc<BufferPool>) -> StorageResult<u64> {
        let page = pool.pin(self.id.0)?;
        Ok(page.with_read(|buf| {
            let body = PageView::new(buf).body();
            let mut a = [0u8; 8];
            a.copy_from_slice(&body[..8]);
            u64::from_le_bytes(a)
        }))
    }

    /// Whether the object is empty.
    pub fn is_empty(&self, pool: &Arc<BufferPool>) -> StorageResult<bool> {
        Ok(self.len(pool)? == 0)
    }

    fn set_len(&self, pool: &Arc<BufferPool>, len: u64) -> StorageResult<()> {
        let page = pool.pin(self.id.0)?;
        page.with_write(|buf| {
            let mut p = SlottedPage::new(buf);
            p.body_mut()[..8].copy_from_slice(&len.to_le_bytes());
        });
        Ok(())
    }

    /// Map a byte offset to `(chain index, offset within that page's data)`.
    fn locate(offset: u64) -> (u64, usize) {
        if offset < FIRST_CAP as u64 {
            (0, offset as usize)
        } else {
            let rest = offset - FIRST_CAP as u64;
            (
                1 + rest / CONT_CAP as u64,
                (rest % CONT_CAP as u64) as usize,
            )
        }
    }

    fn cap(chain_idx: u64) -> usize {
        if chain_idx == 0 {
            FIRST_CAP
        } else {
            CONT_CAP
        }
    }

    fn data_start(chain_idx: u64) -> usize {
        if chain_idx == 0 {
            8
        } else {
            0
        }
    }

    /// Page number of chain index `idx`, extending the chain when
    /// `extend` is set.
    fn page_at(&self, pool: &Arc<BufferPool>, idx: u64, extend: bool) -> StorageResult<u64> {
        let mut page_no = self.id.0;
        for _ in 0..idx {
            let page = pool.pin(page_no)?;
            let next = page.with_read(|buf| PageView::new(buf).next());
            if next != NO_PAGE {
                page_no = next;
                continue;
            }
            if !extend {
                return Err(StorageError::LobOutOfBounds { offset: 0, len: 0 });
            }
            let new_page = pool.allocate()?;
            let new_no = new_page.page_no();
            new_page.with_write(|buf| {
                let mut p = SlottedPage::format(buf, PageKind::Lob);
                p.set_prev(page_no);
            });
            page.with_write(|buf| SlottedPage::new(buf).set_next(new_no));
            page_no = new_no;
        }
        Ok(page_no)
    }

    /// Read `len` bytes starting at `offset`.
    pub fn read(&self, pool: &Arc<BufferPool>, offset: u64, len: usize) -> StorageResult<Vec<u8>> {
        let total = self.len(pool)?;
        if offset + len as u64 > total {
            return Err(StorageError::LobOutOfBounds { offset, len: total });
        }
        let mut out = Vec::with_capacity(len);
        let (mut idx, mut in_page) = Self::locate(offset);
        let mut page_no = self.page_at(pool, idx, false)?;
        while out.len() < len {
            let page = pool.pin(page_no)?;
            let take = (Self::cap(idx) - in_page).min(len - out.len());
            page.with_read(|buf| {
                let body = PageView::new(buf).body();
                let start = Self::data_start(idx) + in_page;
                out.extend_from_slice(&body[start..start + take]);
            });
            if out.len() < len {
                let next = page.with_read(|buf| PageView::new(buf).next());
                if next == NO_PAGE {
                    return Err(StorageError::LobOutOfBounds { offset, len: total });
                }
                page_no = next;
                idx += 1;
                in_page = 0;
            }
        }
        Ok(out)
    }

    /// Read the whole object.
    pub fn read_all(&self, pool: &Arc<BufferPool>) -> StorageResult<Vec<u8>> {
        let n = self.len(pool)?;
        self.read(pool, 0, n as usize)
    }

    /// Write `data` at `offset`. Writing at or past the current end
    /// extends the object (a gap is an error).
    pub fn write(&self, pool: &Arc<BufferPool>, offset: u64, data: &[u8]) -> StorageResult<()> {
        let total = self.len(pool)?;
        if offset > total {
            return Err(StorageError::LobOutOfBounds { offset, len: total });
        }
        let (mut idx, mut in_page) = Self::locate(offset);
        let mut page_no = self.page_at(pool, idx, true)?;
        let mut written = 0usize;
        while written < data.len() {
            let page = pool.pin(page_no)?;
            let take = (Self::cap(idx) - in_page).min(data.len() - written);
            page.with_write(|buf| {
                let mut p = SlottedPage::new(buf);
                let start = Self::data_start(idx) + in_page;
                p.body_mut()[start..start + take].copy_from_slice(&data[written..written + take]);
            });
            written += take;
            if written < data.len() {
                idx += 1;
                in_page = 0;
                page_no = self.page_at(pool, idx, true)?;
            }
        }
        let new_end = offset + data.len() as u64;
        if new_end > total {
            self.set_len(pool, new_end)?;
        }
        Ok(())
    }

    /// Append `data` at the end.
    pub fn append(&self, pool: &Arc<BufferPool>, data: &[u8]) -> StorageResult<()> {
        let end = self.len(pool)?;
        self.write(pool, end, data)
    }

    /// Shrink the object to `len` bytes (no-op if already shorter).
    pub fn truncate(&self, pool: &Arc<BufferPool>, len: u64) -> StorageResult<()> {
        let total = self.len(pool)?;
        if len < total {
            self.set_len(pool, len)?;
        }
        Ok(())
    }

    /// Insert `data` at `offset`, shifting the tail right (EXODUS byte-range
    /// insert; implemented by tail rewrite).
    pub fn insert(&self, pool: &Arc<BufferPool>, offset: u64, data: &[u8]) -> StorageResult<()> {
        let total = self.len(pool)?;
        if offset > total {
            return Err(StorageError::LobOutOfBounds { offset, len: total });
        }
        let tail = self.read(pool, offset, (total - offset) as usize)?;
        self.write(pool, offset, data)?;
        self.write(pool, offset + data.len() as u64, &tail)
    }

    /// Remove `len` bytes at `offset`, shifting the tail left (EXODUS
    /// byte-range delete; implemented by tail rewrite).
    pub fn remove(&self, pool: &Arc<BufferPool>, offset: u64, len: u64) -> StorageResult<()> {
        let total = self.len(pool)?;
        if offset + len > total {
            return Err(StorageError::LobOutOfBounds { offset, len: total });
        }
        let tail = self.read(pool, offset + len, (total - offset - len) as usize)?;
        self.write(pool, offset, &tail)?;
        self.set_len(pool, total - len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::MemVolume;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemVolume::new()), 128))
    }

    #[test]
    fn small_round_trip() {
        let pool = pool();
        let lob = Lob::create(&pool).unwrap();
        lob.append(&pool, b"hello").unwrap();
        lob.append(&pool, b", world").unwrap();
        assert_eq!(lob.read_all(&pool).unwrap(), b"hello, world");
        assert_eq!(lob.len(&pool).unwrap(), 12);
    }

    #[test]
    fn multi_page_object() {
        let pool = pool();
        let lob = Lob::create(&pool).unwrap();
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        lob.append(&pool, &data).unwrap();
        assert_eq!(lob.len(&pool).unwrap(), 100_000);
        assert_eq!(lob.read_all(&pool).unwrap(), data);
        // Positional read across a page boundary.
        let chunk = lob.read(&pool, FIRST_CAP as u64 - 10, 20).unwrap();
        assert_eq!(&chunk[..], &data[FIRST_CAP - 10..FIRST_CAP + 10]);
    }

    #[test]
    fn positional_overwrite() {
        let pool = pool();
        let lob = Lob::create(&pool).unwrap();
        lob.append(&pool, &vec![0u8; 20_000]).unwrap();
        lob.write(&pool, 9_995, b"MARKER").unwrap();
        let got = lob.read(&pool, 9_990, 16).unwrap();
        assert_eq!(&got[5..11], b"MARKER");
        assert_eq!(lob.len(&pool).unwrap(), 20_000, "overwrite keeps length");
    }

    #[test]
    fn out_of_bounds_rejected() {
        let pool = pool();
        let lob = Lob::create(&pool).unwrap();
        lob.append(&pool, b"abc").unwrap();
        assert!(lob.read(&pool, 2, 5).is_err());
        assert!(lob.write(&pool, 10, b"x").is_err(), "gap write rejected");
    }

    #[test]
    fn truncate_then_regrow() {
        let pool = pool();
        let lob = Lob::create(&pool).unwrap();
        lob.append(&pool, b"0123456789").unwrap();
        lob.truncate(&pool, 4).unwrap();
        assert_eq!(lob.read_all(&pool).unwrap(), b"0123");
        lob.append(&pool, b"XY").unwrap();
        assert_eq!(lob.read_all(&pool).unwrap(), b"0123XY");
    }

    #[test]
    fn insert_and_remove_mid_object() {
        let pool = pool();
        let lob = Lob::create(&pool).unwrap();
        lob.append(&pool, b"hello world").unwrap();
        lob.insert(&pool, 5, b" brave").unwrap();
        assert_eq!(lob.read_all(&pool).unwrap(), b"hello brave world");
        lob.remove(&pool, 5, 6).unwrap();
        assert_eq!(lob.read_all(&pool).unwrap(), b"hello world");
    }

    #[test]
    fn insert_spanning_pages() {
        let pool = pool();
        let lob = Lob::create(&pool).unwrap();
        let base: Vec<u8> = (0..30_000u32).map(|i| (i % 127) as u8).collect();
        lob.append(&pool, &base).unwrap();
        let wedge = vec![0xEEu8; 5000];
        lob.insert(&pool, 15_000, &wedge).unwrap();
        let all = lob.read_all(&pool).unwrap();
        assert_eq!(all.len(), 35_000);
        assert_eq!(&all[..15_000], &base[..15_000]);
        assert_eq!(&all[15_000..20_000], &wedge[..]);
        assert_eq!(&all[20_000..], &base[15_000..]);
    }
}
