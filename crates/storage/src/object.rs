//! The object table: stable logical object identifiers.
//!
//! EXTRA's `ref` and `own ref` semantics require *object identity* that
//! survives record movement (an update can relocate a record to another
//! page). The object table maps a logical [`Oid`] to the record id where
//! the object's bytes currently live, plus a type tag for the upper layers.
//!
//! Layout: a root page holds the next-OID counter and an array of directory
//! page numbers; each directory page holds a fixed-size array of entries
//! (`rid: u64, type_id: u32, flags: u32`). OID `n` lives at entry
//! `n % ENTRIES_PER_PAGE` of directory page `n / ENTRIES_PER_PAGE`. Root
//! pages chain when a database outgrows one root.

use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::heap::RecordId;
use crate::page::{PageKind, PageView, SlottedPage, NO_PAGE, PAGE_SIZE};

/// A logical object identifier. OID 0 is reserved as "null".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl Oid {
    /// The null OID.
    pub const NULL: Oid = Oid(0);

    /// Whether this is the null OID.
    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// One object-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectEntry {
    /// Where the object's record currently lives.
    pub rid: RecordId,
    /// Upper-layer type tag (EXTRA schema-type id).
    pub type_id: u32,
}

const ENTRY_SIZE: usize = 16;
const BODY: usize = PAGE_SIZE - crate::page::HEADER_SIZE;
const ENTRIES_PER_PAGE: u64 = (BODY / ENTRY_SIZE) as u64;
// Root body: next_oid(8) then directory page numbers (8 bytes each).
const ROOT_DIRS: u64 = ((BODY - 8) / 8) as u64;
const FLAG_LIVE: u32 = 1;

/// Handle to an object table, identified by its root page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectTable {
    root: u64,
}

fn body_get_u64(b: &[u8], off: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[off..off + 8]);
    u64::from_le_bytes(a)
}

fn body_put_u64(b: &mut [u8], off: usize, v: u64) {
    b[off..off + 8].copy_from_slice(&v.to_le_bytes());
}

fn body_get_u32(b: &[u8], off: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[off..off + 4]);
    u32::from_le_bytes(a)
}

fn body_put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

impl ObjectTable {
    /// Create a new, empty object table.
    pub fn create(pool: &Arc<BufferPool>) -> StorageResult<ObjectTable> {
        let root = pool.allocate()?;
        root.with_write(|buf| {
            let mut p = SlottedPage::format(buf, PageKind::ObjectDir);
            let body = p.body_mut();
            body_put_u64(body, 0, 1); // next_oid: 0 is null
            for i in 0..ROOT_DIRS as usize {
                body_put_u64(body, 8 + i * 8, NO_PAGE);
            }
        });
        Ok(ObjectTable {
            root: root.page_no(),
        })
    }

    /// Open an existing object table by root page number.
    pub fn open(root: u64) -> ObjectTable {
        ObjectTable { root }
    }

    /// The root page number (persist this to reopen).
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Find the root-chain page and slot index covering directory `dir_no`,
    /// walking/extending the chain as needed.
    fn root_for_dir(
        &self,
        pool: &Arc<BufferPool>,
        dir_no: u64,
        create: bool,
    ) -> StorageResult<Option<(u64, usize)>> {
        let mut page_no = self.root;
        let mut base = 0u64;
        loop {
            if dir_no < base + ROOT_DIRS {
                return Ok(Some((page_no, (dir_no - base) as usize)));
            }
            let page = pool.pin(page_no)?;
            let next = page.with_read(|buf| PageView::new(buf).next());
            if next != NO_PAGE {
                page_no = next;
                base += ROOT_DIRS;
                continue;
            }
            if !create {
                return Ok(None);
            }
            let new_root = pool.allocate()?;
            let new_no = new_root.page_no();
            new_root.with_write(|buf| {
                let mut p = SlottedPage::format(buf, PageKind::ObjectDir);
                let body = p.body_mut();
                for i in 0..ROOT_DIRS as usize {
                    body_put_u64(body, 8 + i * 8, NO_PAGE);
                }
            });
            page.with_write(|buf| SlottedPage::new(buf).set_next(new_no));
            page_no = new_no;
            base += ROOT_DIRS;
        }
    }

    /// Directory page number for `dir_no`, creating it if requested.
    fn dir_page(
        &self,
        pool: &Arc<BufferPool>,
        dir_no: u64,
        create: bool,
    ) -> StorageResult<Option<u64>> {
        let Some((root_no, idx)) = self.root_for_dir(pool, dir_no, create)? else {
            return Ok(None);
        };
        let root = pool.pin(root_no)?;
        let existing = root.with_read(|buf| body_get_u64(PageView::new(buf).body(), 8 + idx * 8));
        if existing != NO_PAGE {
            return Ok(Some(existing));
        }
        if !create {
            return Ok(None);
        }
        let dir = pool.allocate()?;
        let dir_page_no = dir.page_no();
        dir.with_write(|buf| {
            SlottedPage::format(buf, PageKind::ObjectDir);
        });
        root.with_write(|buf| {
            let mut p = SlottedPage::new(buf);
            body_put_u64(p.body_mut(), 8 + idx * 8, dir_page_no);
        });
        Ok(Some(dir_page_no))
    }

    /// Allocate a fresh OID mapped to `rid` with type tag `type_id`.
    pub fn allocate(
        &self,
        pool: &Arc<BufferPool>,
        rid: RecordId,
        type_id: u32,
    ) -> StorageResult<Oid> {
        let root = pool.pin(self.root)?;
        let oid = root.with_write(|buf| {
            let mut p = SlottedPage::new(buf);
            let body = p.body_mut();
            let oid = body_get_u64(body, 0);
            body_put_u64(body, 0, oid + 1);
            oid
        });
        drop(root);
        self.write_entry(pool, Oid(oid), rid, type_id)?;
        Ok(Oid(oid))
    }

    fn write_entry(
        &self,
        pool: &Arc<BufferPool>,
        oid: Oid,
        rid: RecordId,
        type_id: u32,
    ) -> StorageResult<()> {
        let dir_no = oid.0 / ENTRIES_PER_PAGE;
        let idx = (oid.0 % ENTRIES_PER_PAGE) as usize;
        let dir_page_no = self
            .dir_page(pool, dir_no, true)?
            .expect("create=true always yields a page");
        let dir = pool.pin(dir_page_no)?;
        dir.with_write(|buf| {
            let mut p = SlottedPage::new(buf);
            let body = p.body_mut();
            body_put_u64(body, idx * ENTRY_SIZE, rid.pack());
            body_put_u32(body, idx * ENTRY_SIZE + 8, type_id);
            body_put_u32(body, idx * ENTRY_SIZE + 12, FLAG_LIVE);
        });
        Ok(())
    }

    /// Look up an OID.
    pub fn get(&self, pool: &Arc<BufferPool>, oid: Oid) -> StorageResult<ObjectEntry> {
        if oid.is_null() {
            return Err(StorageError::UnknownOid(0));
        }
        let dir_no = oid.0 / ENTRIES_PER_PAGE;
        let idx = (oid.0 % ENTRIES_PER_PAGE) as usize;
        let Some(dir_page_no) = self.dir_page(pool, dir_no, false)? else {
            return Err(StorageError::UnknownOid(oid.0));
        };
        let dir = pool.pin(dir_page_no)?;
        dir.with_read(|buf| {
            let body = PageView::new(buf).body();
            let flags = body_get_u32(body, idx * ENTRY_SIZE + 12);
            if flags & FLAG_LIVE == 0 {
                return Err(StorageError::UnknownOid(oid.0));
            }
            Ok(ObjectEntry {
                rid: RecordId::unpack(body_get_u64(body, idx * ENTRY_SIZE)),
                type_id: body_get_u32(body, idx * ENTRY_SIZE + 8),
            })
        })
    }

    /// Look up many OIDs, pinning each directory page once per run of
    /// entries it covers instead of once per OID (sequentially
    /// allocated OIDs — the common probe pattern — share directory
    /// pages). Unknown, dead, and null OIDs yield `None`.
    pub fn get_many(
        &self,
        pool: &Arc<BufferPool>,
        oids: &[Oid],
    ) -> StorageResult<Vec<Option<ObjectEntry>>> {
        // OIDs already in order (one, a deduplicated batch) skip the index.
        let mut order = Vec::new();
        if !oids.is_sorted() {
            order = (0..oids.len()).collect();
            order.sort_unstable_by_key(|&i| oids[i].0);
        }
        let at = |k: usize| order.get(k).copied().unwrap_or(k);
        let mut out: Vec<Option<ObjectEntry>> = vec![None; oids.len()];
        let mut i = 0;
        while i < oids.len() {
            if oids[at(i)].is_null() {
                i += 1;
                continue;
            }
            let dir_no = oids[at(i)].0 / ENTRIES_PER_PAGE;
            let mut j = i;
            while j < oids.len() && oids[at(j)].0 / ENTRIES_PER_PAGE == dir_no {
                j += 1;
            }
            if let Some(dir_page_no) = self.dir_page(pool, dir_no, false)? {
                let dir = pool.pin(dir_page_no)?;
                dir.with_read(|buf| {
                    let body = PageView::new(buf).body();
                    for idx in (i..j).map(at) {
                        let k = (oids[idx].0 % ENTRIES_PER_PAGE) as usize;
                        if body_get_u32(body, k * ENTRY_SIZE + 12) & FLAG_LIVE != 0 {
                            out[idx] = Some(ObjectEntry {
                                rid: RecordId::unpack(body_get_u64(body, k * ENTRY_SIZE)),
                                type_id: body_get_u32(body, k * ENTRY_SIZE + 8),
                            });
                        }
                    }
                });
            }
            i = j;
        }
        Ok(out)
    }

    /// Point the OID at a new record id (the record moved).
    pub fn relocate(&self, pool: &Arc<BufferPool>, oid: Oid, rid: RecordId) -> StorageResult<()> {
        let entry = self.get(pool, oid)?; // validates liveness
        self.write_entry(pool, oid, rid, entry.type_id)
    }

    /// Free an OID (the object was destroyed). The slot is tombstoned; OIDs
    /// are never reused, preserving identity semantics.
    pub fn free(&self, pool: &Arc<BufferPool>, oid: Oid) -> StorageResult<()> {
        self.get(pool, oid)?; // validates liveness
        let dir_no = oid.0 / ENTRIES_PER_PAGE;
        let idx = (oid.0 % ENTRIES_PER_PAGE) as usize;
        let dir_page_no = self.dir_page(pool, dir_no, false)?.expect("entry exists");
        let dir = pool.pin(dir_page_no)?;
        dir.with_write(|buf| {
            let mut p = SlottedPage::new(buf);
            body_put_u32(p.body_mut(), idx * ENTRY_SIZE + 12, 0);
        });
        Ok(())
    }

    /// Highest OID allocated so far (exclusive bound).
    pub fn next_oid(&self, pool: &Arc<BufferPool>) -> StorageResult<u64> {
        let root = pool.pin(self.root)?;
        Ok(root.with_read(|buf| body_get_u64(PageView::new(buf).body(), 0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::volume::MemVolume;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemVolume::new()), 64))
    }

    fn rid(page: u64, slot: u16) -> RecordId {
        RecordId { page, slot }
    }

    #[test]
    fn allocate_and_get() {
        let pool = pool();
        let t = ObjectTable::create(&pool).unwrap();
        let a = t.allocate(&pool, rid(10, 1), 7).unwrap();
        let b = t.allocate(&pool, rid(11, 2), 8).unwrap();
        assert_ne!(a, b);
        assert_eq!(
            t.get(&pool, a).unwrap(),
            ObjectEntry {
                rid: rid(10, 1),
                type_id: 7
            }
        );
        assert_eq!(
            t.get(&pool, b).unwrap(),
            ObjectEntry {
                rid: rid(11, 2),
                type_id: 8
            }
        );
    }

    #[test]
    fn null_and_unknown_oids_error() {
        let pool = pool();
        let t = ObjectTable::create(&pool).unwrap();
        assert!(matches!(
            t.get(&pool, Oid::NULL),
            Err(StorageError::UnknownOid(0))
        ));
        assert!(matches!(
            t.get(&pool, Oid(9999)),
            Err(StorageError::UnknownOid(9999))
        ));
    }

    #[test]
    fn relocate_updates_mapping() {
        let pool = pool();
        let t = ObjectTable::create(&pool).unwrap();
        let o = t.allocate(&pool, rid(1, 0), 3).unwrap();
        t.relocate(&pool, o, rid(99, 4)).unwrap();
        let e = t.get(&pool, o).unwrap();
        assert_eq!(e.rid, rid(99, 4));
        assert_eq!(e.type_id, 3, "type preserved across relocation");
    }

    #[test]
    fn free_tombstones_without_reuse() {
        let pool = pool();
        let t = ObjectTable::create(&pool).unwrap();
        let a = t.allocate(&pool, rid(1, 0), 1).unwrap();
        t.free(&pool, a).unwrap();
        assert!(matches!(t.get(&pool, a), Err(StorageError::UnknownOid(_))));
        let b = t.allocate(&pool, rid(2, 0), 1).unwrap();
        assert!(b.0 > a.0, "OIDs are never reused");
        // Double free is an error.
        assert!(t.free(&pool, a).is_err());
    }

    #[test]
    fn many_oids_span_directory_pages() {
        let pool = pool();
        let t = ObjectTable::create(&pool).unwrap();
        let n = ENTRIES_PER_PAGE * 3 + 17;
        let mut oids = Vec::new();
        for i in 0..n {
            oids.push(
                t.allocate(&pool, rid(i, (i % 100) as u16), i as u32)
                    .unwrap(),
            );
        }
        for (i, o) in oids.iter().enumerate() {
            let e = t.get(&pool, *o).unwrap();
            assert_eq!(e.rid, rid(i as u64, (i % 100) as u16));
            assert_eq!(e.type_id, i as u32);
        }
        assert_eq!(t.next_oid(&pool).unwrap(), n + 1);
    }
}
