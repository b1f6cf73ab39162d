//! A page-based B+-tree access method.
//!
//! Keys are arbitrary byte strings compared with `memcmp` — the
//! order-preserving encodings in [`crate::encoding`] make this match the
//! source types' natural order, including for composite keys and
//! ADT-supplied orderings (the table-driven access-method extensibility the
//! paper calls for). Values are `u64` (packed record ids or OIDs).
//!
//! Duplicate keys are allowed unless the index is used in unique mode.
//! Leaves are chained through the page `next`/`prev` links, so range scans
//! walk the leaf level without touching interior nodes. Deletion is lazy
//! (no merging); the tree is identified by a fixed root page, with root
//! splits relocating the old root's content so the root page number never
//! changes.
//!
//! Node layout: every node is a [`SlottedPage`] whose slot directory is
//! kept dense and in key order, so a descent binary-searches it on the
//! pinned page and an insert or delete shifts slot entries in place
//! ([`SlottedPage::insert_at`], [`SlottedPage::remove_at`]). The key
//! length is the slot length minus 8.
//!
//! * leaf: slot `i` holds `key ++ val:u64`.
//! * internal: slot 0 holds `child0:u64` (an empty key); slot `i > 0`
//!   holds `key ++ child:u64`, the child covering keys from that
//!   separator up to the next one.
//!
//! A split moves the upper half of a node's slot bytes to a new right
//! sibling. An insert past the last key of the rightmost leaf instead
//! starts a new leaf holding only the new entry, so ascending loads leave
//! full leaves behind them. Every slot read is bounds-checked: a malformed
//! node is [`StorageError::Corrupt`], never a panic.

use std::collections::VecDeque;
use std::ops::Bound;
use std::sync::Arc;

use crate::buffer::{BufferPool, PinnedPage};
use crate::error::{StorageError, StorageResult};
use crate::page::{PageKind, PageView, SlottedPage, NO_PAGE, UNLOGGED};

/// Maximum key length accepted by the tree (must leave room for several
/// entries per node).
pub const MAX_KEY: usize = 1024;

/// Bytes of the `u64` that ends every slot record.
const VAL: usize = 8;

/// Deepest descent accepted: a longer one can only be a child-pointer
/// cycle in a corrupt tree.
const MAX_DEPTH: usize = 32;

/// Handle to a B+-tree, identified by its root page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    root: u64,
}

/// A node read in place on a latched page.
struct NodeView<'a> {
    page: PageView<'a>,
    page_no: u64,
    leaf: bool,
    n: u16,
}

impl<'a> NodeView<'a> {
    fn new(buf: &'a [u8], page_no: u64) -> StorageResult<Self> {
        let page = PageView::new(buf);
        let leaf = match page.kind() {
            PageKind::BTreeLeaf => true,
            PageKind::BTreeInternal => false,
            other => {
                return Err(StorageError::Corrupt(format!(
                    "page {page_no} is not a btree node (kind {other:?})"
                )))
            }
        };
        let n = page.slot_count();
        if !leaf && n == 0 {
            return Err(StorageError::Corrupt(format!(
                "btree internal node {page_no} has no child"
            )));
        }
        Ok(NodeView {
            page,
            page_no,
            leaf,
            n,
        })
    }

    /// A node the leaf chain or a descent must have reached as a leaf.
    fn leaf(buf: &'a [u8], page_no: u64) -> StorageResult<Self> {
        let node = NodeView::new(buf, page_no)?;
        if !node.leaf {
            return Err(StorageError::Corrupt(format!(
                "btree leaf chain reached internal node {page_no}"
            )));
        }
        Ok(node)
    }

    /// Slot `i`'s record bytes.
    fn record(&self, i: u16) -> StorageResult<&'a [u8]> {
        let rec = self.page.read(self.page_no, i)?;
        if rec.len() < VAL {
            return Err(StorageError::Corrupt(format!(
                "btree node {} slot {i} is shorter than its value",
                self.page_no
            )));
        }
        Ok(rec)
    }

    /// Slot `i`'s key and its value (a leaf) or child page (internal).
    fn entry(&self, i: u16) -> StorageResult<(&'a [u8], u64)> {
        let rec = self.record(i)?;
        let (key, val) = rec.split_at(rec.len() - VAL);
        let val = u64::from_le_bytes(val.try_into().expect("VAL bytes"));
        Ok((key, val))
    }

    fn key(&self, i: u16) -> StorageResult<&'a [u8]> {
        Ok(self.entry(i)?.0)
    }

    /// The first slot in `lo..n` whose key is not `before` the target
    /// (keys ascend, so the slots that are form a prefix).
    fn partition(&self, lo: u16, before: impl Fn(&[u8]) -> bool) -> StorageResult<u16> {
        let (mut lo, mut hi) = (lo, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.key(mid)?) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// The child slot a search takes: the last separator `<= key` when
    /// `upper` (where an insert goes, after equal keys), else the last
    /// `< key` (the leftmost leaf an equal key can sit in).
    fn route(&self, key: &[u8], upper: bool) -> StorageResult<u16> {
        Ok(self.partition(1, |k| if upper { k <= key } else { k < key })? - 1)
    }

    /// The first slot whose key is inside `lower`.
    fn lower_pos(&self, lower: &Bound<Vec<u8>>) -> StorageResult<u16> {
        match lower {
            Bound::Unbounded => Ok(0),
            Bound::Included(l) => self.partition(0, |k| k < l.as_slice()),
            Bound::Excluded(l) => self.partition(0, |k| k <= l.as_slice()),
        }
    }

    /// The first slot from `lo` whose key is past `upper`.
    fn upper_pos(&self, lo: u16, upper: &Bound<Vec<u8>>) -> StorageResult<u16> {
        match upper {
            Bound::Unbounded => Ok(self.n),
            Bound::Included(u) => self.partition(lo, |k| k <= u.as_slice()),
            Bound::Excluded(u) => self.partition(lo, |k| k < u.as_slice()),
        }
    }
}

/// Run `f` on the node at `page_no` under its read latch.
fn with_node<R>(
    pool: &Arc<BufferPool>,
    page_no: u64,
    f: impl FnOnce(&NodeView<'_>) -> StorageResult<R>,
) -> StorageResult<R> {
    pool.pin(page_no)?
        .with_read(|buf| f(&NodeView::new(buf, page_no)?))
}

/// Run `f` on the leaf at `page_no` under its read latch.
fn with_leaf<R>(
    pool: &Arc<BufferPool>,
    page_no: u64,
    f: impl FnOnce(&NodeView<'_>) -> StorageResult<R>,
) -> StorageResult<R> {
    pool.pin(page_no)?
        .with_read(|buf| f(&NodeView::leaf(buf, page_no)?))
}

/// `key ++ val`, a slot record.
fn record(key: &[u8], val: u64) -> Vec<u8> {
    let mut rec = Vec::with_capacity(key.len() + VAL);
    rec.extend_from_slice(key);
    rec.extend_from_slice(&val.to_le_bytes());
    rec
}

/// Insert `rec` at slot `i` of a node that has room for it.
fn insert_fitting(p: &mut SlottedPage<'_>, i: u16, rec: &[u8]) -> StorageResult<()> {
    if p.insert_at(i, rec)? {
        Ok(())
    } else {
        Err(StorageError::Corrupt(
            "btree split left no room for the entry".into(),
        ))
    }
}

/// A split's outcome: the separator key and the new right sibling.
type Split = (Vec<u8>, u64);

impl BTree {
    /// Create an empty tree.
    pub fn create(pool: &Arc<BufferPool>) -> StorageResult<BTree> {
        let root = pool.allocate()?;
        root.with_write(|buf| {
            SlottedPage::format(buf, PageKind::BTreeLeaf);
        });
        Ok(BTree {
            root: root.page_no(),
        })
    }

    /// Open an existing tree by root page number.
    pub fn open(root: u64) -> BTree {
        BTree { root }
    }

    /// The root page number (persist this to reopen).
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Walk from the root to a leaf, taking the child slot `route` picks
    /// in each internal node; `path` (when given) records each internal
    /// page and the slot taken there.
    fn descend(
        &self,
        pool: &Arc<BufferPool>,
        route: impl Fn(&NodeView<'_>) -> StorageResult<u16>,
        mut path: Option<&mut Vec<(u64, u16)>>,
    ) -> StorageResult<u64> {
        let mut page_no = self.root;
        for _ in 0..MAX_DEPTH {
            let step = with_node(pool, page_no, |node| {
                if node.leaf {
                    return Ok(None);
                }
                let slot = route(node)?;
                Ok(Some((slot, node.entry(slot)?.1)))
            })?;
            let Some((slot, child)) = step else {
                return Ok(page_no);
            };
            if let Some(path) = path.as_deref_mut() {
                path.push((page_no, slot));
            }
            page_no = child;
        }
        Err(StorageError::Corrupt(format!(
            "btree {} is deeper than {MAX_DEPTH} levels",
            self.root
        )))
    }

    /// The leftmost leaf an entry with `key` can sit in.
    fn leftmost_for(&self, pool: &Arc<BufferPool>, key: &[u8]) -> StorageResult<u64> {
        self.descend(pool, |n| n.route(key, false), None)
    }

    /// The first leaf a scan from `lower` visits.
    fn first_leaf(&self, pool: &Arc<BufferPool>, lower: &Bound<Vec<u8>>) -> StorageResult<u64> {
        match lower {
            Bound::Unbounded => self.descend(pool, |_| Ok(0), None),
            Bound::Included(key) | Bound::Excluded(key) => self.leftmost_for(pool, key),
        }
    }

    /// Insert `(key, val)`. In unique mode an existing equal key is a
    /// [`StorageError::DuplicateKey`] error.
    pub fn insert(
        &self,
        pool: &Arc<BufferPool>,
        key: &[u8],
        val: u64,
        unique: bool,
    ) -> StorageResult<()> {
        if key.len() > MAX_KEY {
            return Err(StorageError::RecordTooLarge(key.len()));
        }
        let mut path = Vec::new();
        let leaf_no = self.descend(pool, |n| n.route(key, true), Some(&mut path))?;
        let leaf = pool.pin(leaf_no)?;
        // The upper-bound slot: after existing equal keys. In a unique
        // tree an equal key can only sit just before it, because
        // separators route every key equal to one to its right.
        let (pos, append) = leaf.with_read(|buf| {
            let node = NodeView::leaf(buf, leaf_no)?;
            let pos = node.partition(0, |k| k <= key)?;
            if unique && pos > 0 && node.key(pos - 1)? == key {
                return Err(StorageError::DuplicateKey);
            }
            Ok((pos, pos == node.n && node.page.next() == NO_PAGE))
        })?;
        let rec = record(key, val);
        if leaf.with_write(|buf| SlottedPage::new(buf).insert_at(pos, &rec))? {
            return Ok(());
        }
        let (mut sep, mut right) = if append {
            append_leaf(pool, &leaf, rec)?
        } else {
            split(pool, &leaf, pos, &rec)?
        };
        while let Some((parent_no, slot)) = path.pop() {
            let parent = pool.pin(parent_no)?;
            let rec = record(&sep, right);
            if parent.with_write(|buf| SlottedPage::new(buf).insert_at(slot + 1, &rec))? {
                return Ok(());
            }
            (sep, right) = split(pool, &parent, slot + 1, &rec)?;
        }
        self.split_root(pool, sep, right)
    }

    /// The root page split: move its content to a fresh page and turn the
    /// root into an internal node over the two halves, so the tree keeps a
    /// stable root page number.
    fn split_root(&self, pool: &Arc<BufferPool>, sep: Vec<u8>, right: u64) -> StorageResult<()> {
        let root = pool.pin(self.root)?;
        let image = root.with_read(|buf| buf.to_vec());
        let left = pool.allocate()?;
        left.with_write(|buf| {
            buf[..UNLOGGED.start].copy_from_slice(&image[..UNLOGGED.start]);
            buf[UNLOGGED.end..].copy_from_slice(&image[UNLOGGED.end..]);
        });
        if PageView::new(&image).kind() == PageKind::BTreeLeaf {
            // `right` is the leaf split's new sibling.
            pool.pin(right)?
                .with_write(|buf| SlottedPage::new(buf).set_prev(left.page_no()));
        }
        root.with_write(|buf| {
            let mut p = SlottedPage::format(buf, PageKind::BTreeInternal);
            p.insert(&left.page_no().to_le_bytes())?;
            p.insert(&record(&sep, right))
        })?;
        Ok(())
    }

    /// Walk the run of entries equal to `key`, calling `stop` on each
    /// value in key-then-insertion order, until `stop` returns `true`:
    /// the leaf page and slot where it did. Duplicate runs may spill
    /// across leaves, so the walk follows the chain until a greater key
    /// (or the chain end) is seen.
    fn find_equal(
        &self,
        pool: &Arc<BufferPool>,
        key: &[u8],
        mut stop: impl FnMut(u64) -> bool,
    ) -> StorageResult<Option<(u64, u16)>> {
        let mut page_no = self.leftmost_for(pool, key)?;
        while page_no != NO_PAGE {
            let (hit, next) = with_leaf(pool, page_no, |leaf| {
                for i in leaf.partition(0, |k| k < key)?..leaf.n {
                    let (k, v) = leaf.entry(i)?;
                    if k != key {
                        return Ok((None, NO_PAGE));
                    }
                    if stop(v) {
                        return Ok((Some(i), NO_PAGE));
                    }
                }
                Ok((None, leaf.page.next()))
            })?;
            if let Some(slot) = hit {
                return Ok(Some((page_no, slot)));
            }
            page_no = next;
        }
        Ok(None)
    }

    /// All values stored under exactly `key`.
    pub fn lookup(&self, pool: &Arc<BufferPool>, key: &[u8]) -> StorageResult<Vec<u64>> {
        let mut out = Vec::new();
        self.find_equal(pool, key, |v| {
            out.push(v);
            false
        })?;
        Ok(out)
    }

    /// Delete one `(key, val)` pair; returns whether it was found.
    pub fn delete(&self, pool: &Arc<BufferPool>, key: &[u8], val: u64) -> StorageResult<bool> {
        let Some((page_no, slot)) = self.find_equal(pool, key, |v| v == val)? else {
            return Ok(false);
        };
        pool.pin(page_no)?
            .with_write(|buf| SlottedPage::new(buf).remove_at(slot))?;
        Ok(true)
    }

    /// Range scan over `[lower, upper]` bounds (byte-wise key order).
    pub fn scan(
        &self,
        pool: Arc<BufferPool>,
        lower: Bound<Vec<u8>>,
        upper: Bound<Vec<u8>>,
    ) -> BTreeScan {
        BTreeScan {
            tree: *self,
            pool,
            lower,
            upper,
            entries: VecDeque::new(),
            state: ScanState::NotStarted,
            stop_after: None,
        }
    }

    /// Split a bounded scan into at most `k` scans over contiguous runs
    /// of the in-range leaf chain (morsel sources for parallel
    /// execution). Concatenating the partitions in order reproduces the
    /// full bounded scan's entry order. Fewer than `k` scans come back
    /// when the range touches fewer leaves; an empty range yields none.
    pub fn partitions(
        &self,
        pool: &Arc<BufferPool>,
        k: usize,
        lower: Bound<Vec<u8>>,
        upper: Bound<Vec<u8>>,
    ) -> StorageResult<Vec<BTreeScan>> {
        // Collect the leaf chain from the lower-bound leaf up to the
        // first leaf wholly past the upper bound.
        let mut leaves = Vec::new();
        let mut page_no = self.first_leaf(pool, &lower)?;
        while page_no != NO_PAGE {
            page_no = with_leaf(pool, page_no, |leaf| {
                if leaf.n > 0 && leaf.upper_pos(0, &upper)? == 0 {
                    return Ok(NO_PAGE);
                }
                leaves.push(page_no);
                Ok(leaf.page.next())
            })?;
        }
        if leaves.is_empty() {
            return Ok(Vec::new());
        }
        let per = leaves.len().div_ceil(k.max(1));
        Ok(leaves
            .chunks(per)
            .map(|run| BTreeScan {
                tree: *self,
                pool: pool.clone(),
                lower: lower.clone(),
                upper: upper.clone(),
                entries: VecDeque::new(),
                state: ScanState::At(run[0]),
                stop_after: run.last().copied(),
            })
            .collect())
    }
}

/// Start a new rightmost leaf holding only `rec`, which sorts past
/// every key of the full rightmost leaf `leaf`.
fn append_leaf(pool: &Arc<BufferPool>, leaf: &PinnedPage, rec: Vec<u8>) -> StorageResult<Split> {
    let right = pool.allocate()?;
    right.with_write(|buf| {
        let mut p = SlottedPage::format(buf, PageKind::BTreeLeaf);
        p.set_prev(leaf.page_no());
        p.insert(&rec)
    })?;
    leaf.with_write(|buf| SlottedPage::new(buf).set_next(right.page_no()));
    let mut sep = rec;
    sep.truncate(sep.len() - VAL);
    Ok((sep, right.page_no()))
}

/// Split the full node on `page` while inserting `rec` at slot `pos`:
/// the upper half of its slot bytes moves to a new right sibling, and
/// the separator to post in the parent comes back. An internal split
/// moves the first right slot's key up and keeps its child as the new
/// node's slot 0.
fn split(pool: &Arc<BufferPool>, page: &PinnedPage, pos: u16, rec: &[u8]) -> StorageResult<Split> {
    let page_no = page.page_no();
    let image = page.with_read(|buf| buf.to_vec());
    let node = NodeView::new(&image, page_no)?;
    if node.n < 2 {
        return Err(StorageError::Corrupt(format!(
            "btree node {page_no} is full with {} slots",
            node.n
        )));
    }
    let mut total = 0;
    for i in 0..node.n {
        total += node.record(i)?.len();
    }
    // The first slot at which the lower part holds half the bytes.
    let (mut mid, mut below) = (0, 0);
    while mid < node.n && below * 2 < total {
        below += node.record(mid)?.len();
        mid += 1;
    }
    let mid = mid.clamp(1, node.n - 1);
    let (kind, next) = (node.page.kind(), node.page.next());
    let right = pool.allocate()?;
    let right_no = right.page_no();
    let mut sep = node.key(mid)?.to_vec();
    let to_right = if node.leaf { pos >= mid } else { pos > mid };
    right.with_write(|buf| -> StorageResult<()> {
        let mut p = SlottedPage::format(buf, kind);
        if node.leaf {
            p.set_prev(page_no);
            p.set_next(next);
        }
        for i in mid..node.n {
            if !node.leaf && i == mid {
                p.insert(&node.entry(i)?.1.to_le_bytes())?;
            } else {
                p.insert(node.record(i)?)?;
            }
        }
        if to_right {
            insert_fitting(&mut p, pos - mid, rec)?;
        }
        Ok(())
    })?;
    if node.leaf && next != NO_PAGE {
        pool.pin(next)?
            .with_write(|buf| SlottedPage::new(buf).set_prev(right_no));
    }
    page.with_write(|buf| -> StorageResult<()> {
        let mut p = SlottedPage::new(buf);
        for i in (mid..node.n).rev() {
            p.remove_at(i)?;
        }
        p.compact();
        if node.leaf {
            p.set_next(right_no);
        }
        if !to_right {
            insert_fitting(&mut p, pos, rec)?;
        }
        Ok(())
    })?;
    if node.leaf && to_right && pos == mid {
        // The new entry leads the right leaf.
        sep = rec[..rec.len() - VAL].to_vec();
    }
    Ok((sep, right_no))
}

enum ScanState {
    NotStarted,
    /// The next leaf to load.
    At(u64),
    Done,
}

/// Iterator over `(key, value)` pairs in key order.
pub struct BTreeScan {
    tree: BTree,
    pool: Arc<BufferPool>,
    lower: Bound<Vec<u8>>,
    upper: Bound<Vec<u8>>,
    /// The in-range entries of the last leaf loaded, not yet returned.
    entries: VecDeque<(Vec<u8>, u64)>,
    state: ScanState,
    /// Partitioned scans stop following the chain after this leaf.
    stop_after: Option<u64>,
}

impl BTreeScan {
    /// Copy the in-range entries of leaf `page_no` out under one read
    /// latch, and note where the scan goes next.
    fn load_leaf(&mut self, page_no: u64) -> StorageResult<()> {
        let (entries, lower, upper) = (&mut self.entries, &self.lower, &self.upper);
        let (past_upper, next) = with_leaf(&self.pool, page_no, |leaf| {
            let start = leaf.lower_pos(lower)?;
            let end = leaf.upper_pos(start, upper)?;
            for i in start..end {
                let (k, v) = leaf.entry(i)?;
                entries.push_back((k.to_vec(), v));
            }
            Ok((end < leaf.n, leaf.page.next()))
        })?;
        self.state = if past_upper || self.stop_after == Some(page_no) || next == NO_PAGE {
            ScanState::Done
        } else {
            ScanState::At(next)
        };
        Ok(())
    }

    /// Load leaves until an entry is buffered; `false` once exhausted.
    fn fill(&mut self) -> StorageResult<bool> {
        while self.entries.is_empty() {
            let loaded = match self.state {
                ScanState::Done => return Ok(false),
                ScanState::NotStarted => self
                    .tree
                    .first_leaf(&self.pool, &self.lower)
                    .and_then(|first| self.load_leaf(first)),
                ScanState::At(page_no) => self.load_leaf(page_no),
            };
            if let Err(e) = loaded {
                self.state = ScanState::Done;
                self.entries.clear();
                return Err(e);
            }
        }
        Ok(true)
    }

    /// Drain up to `n` in-bounds entries into a batch. Returns an empty
    /// vector when the scan is exhausted.
    pub fn next_batch(&mut self, n: usize) -> StorageResult<Vec<(Vec<u8>, u64)>> {
        let mut out = Vec::new();
        while out.len() < n && self.fill()? {
            let take = (n - out.len()).min(self.entries.len());
            out.extend(self.entries.drain(..take));
        }
        Ok(out)
    }
}

impl Iterator for BTreeScan {
    type Item = StorageResult<(Vec<u8>, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.fill() {
            Ok(true) => self.entries.pop_front().map(Ok),
            Ok(false) => None,
            Err(e) => Some(Err(e)),
        }
    }
}
