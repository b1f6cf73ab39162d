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
//! Node layout (within the page body, past the common header):
//!
//! * leaf: `count:u16` then `count` × (`klen:u16`, key bytes, `val:u64`)
//! * internal: `count:u16` (number of separators), `child0:u64`, then
//!   `count` × (`klen:u16`, key bytes, `child:u64`)

use std::ops::Bound;
use std::sync::Arc;

use crate::buffer::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::page::{PageKind, PageView, SlottedPage, NO_PAGE, PAGE_SIZE};

/// Maximum key length accepted by the tree (must leave room for several
/// entries per node).
pub const MAX_KEY: usize = 1024;

const BODY: usize = PAGE_SIZE - crate::page::HEADER_SIZE;

/// Handle to a B+-tree, identified by its root page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BTree {
    root: u64,
}

#[derive(Debug, Clone)]
struct Leaf {
    entries: Vec<(Vec<u8>, u64)>,
}

#[derive(Debug, Clone)]
struct Internal {
    keys: Vec<Vec<u8>>,
    children: Vec<u64>,
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(Leaf),
    Internal(Internal),
}

fn decode_node(kind: PageKind, body: &[u8]) -> StorageResult<Node> {
    let mut pos = 0usize;
    let take_u16 = |pos: &mut usize| -> StorageResult<u16> {
        if *pos + 2 > body.len() {
            return Err(StorageError::Corrupt("btree node truncated".into()));
        }
        let v = u16::from_le_bytes([body[*pos], body[*pos + 1]]);
        *pos += 2;
        Ok(v)
    };
    let take_u64 = |pos: &mut usize| -> StorageResult<u64> {
        if *pos + 8 > body.len() {
            return Err(StorageError::Corrupt("btree node truncated".into()));
        }
        let mut a = [0u8; 8];
        a.copy_from_slice(&body[*pos..*pos + 8]);
        *pos += 8;
        Ok(u64::from_le_bytes(a))
    };
    let take_key = |pos: &mut usize| -> StorageResult<Vec<u8>> {
        let klen = if *pos + 2 <= body.len() {
            let v = u16::from_le_bytes([body[*pos], body[*pos + 1]]) as usize;
            *pos += 2;
            v
        } else {
            return Err(StorageError::Corrupt("btree key truncated".into()));
        };
        if *pos + klen > body.len() {
            return Err(StorageError::Corrupt("btree key truncated".into()));
        }
        let k = body[*pos..*pos + klen].to_vec();
        *pos += klen;
        Ok(k)
    };
    match kind {
        PageKind::BTreeLeaf => {
            let count = take_u16(&mut pos)? as usize;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let k = take_key(&mut pos)?;
                let v = take_u64(&mut pos)?;
                entries.push((k, v));
            }
            Ok(Node::Leaf(Leaf { entries }))
        }
        PageKind::BTreeInternal => {
            let count = take_u16(&mut pos)? as usize;
            let mut children = Vec::with_capacity(count + 1);
            children.push(take_u64(&mut pos)?);
            let mut keys = Vec::with_capacity(count);
            for _ in 0..count {
                keys.push(take_key(&mut pos)?);
                children.push(take_u64(&mut pos)?);
            }
            Ok(Node::Internal(Internal { keys, children }))
        }
        other => Err(StorageError::Corrupt(format!(
            "page is not a btree node (kind {other:?})"
        ))),
    }
}

fn leaf_encoded_size(l: &Leaf) -> usize {
    2 + l
        .entries
        .iter()
        .map(|(k, _)| 2 + k.len() + 8)
        .sum::<usize>()
}

fn internal_encoded_size(n: &Internal) -> usize {
    2 + 8 + n.keys.iter().map(|k| 2 + k.len() + 8).sum::<usize>()
}

fn encode_leaf(l: &Leaf, body: &mut [u8]) {
    let mut pos = 0usize;
    body[pos..pos + 2].copy_from_slice(&(l.entries.len() as u16).to_le_bytes());
    pos += 2;
    for (k, v) in &l.entries {
        body[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
        pos += 2;
        body[pos..pos + k.len()].copy_from_slice(k);
        pos += k.len();
        body[pos..pos + 8].copy_from_slice(&v.to_le_bytes());
        pos += 8;
    }
}

fn encode_internal(n: &Internal, body: &mut [u8]) {
    let mut pos = 0usize;
    body[pos..pos + 2].copy_from_slice(&(n.keys.len() as u16).to_le_bytes());
    pos += 2;
    body[pos..pos + 8].copy_from_slice(&n.children[0].to_le_bytes());
    pos += 8;
    for (k, c) in n.keys.iter().zip(n.children.iter().skip(1)) {
        body[pos..pos + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
        pos += 2;
        body[pos..pos + k.len()].copy_from_slice(k);
        pos += k.len();
        body[pos..pos + 8].copy_from_slice(&c.to_le_bytes());
        pos += 8;
    }
}

/// Result of inserting into a subtree: a split produces the separator key
/// and the new right sibling's page number.
type SplitResult = Option<(Vec<u8>, u64)>;

impl BTree {
    /// Create an empty tree.
    pub fn create(pool: &Arc<BufferPool>) -> StorageResult<BTree> {
        let root = pool.allocate()?;
        root.with_write(|buf| {
            let mut p = SlottedPage::format(buf, PageKind::BTreeLeaf);
            encode_leaf(
                &Leaf {
                    entries: Vec::new(),
                },
                p.body_mut(),
            );
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

    fn read_node(&self, pool: &Arc<BufferPool>, page_no: u64) -> StorageResult<Node> {
        let page = pool.pin(page_no)?;
        page.with_read(|buf| {
            let v = PageView::new(buf);
            decode_node(v.kind(), v.body())
        })
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
        if unique && !self.lookup(pool, key)?.is_empty() {
            return Err(StorageError::DuplicateKey);
        }
        if let Some((sep, right)) = self.insert_rec(pool, self.root, key, val)? {
            self.split_root(pool, sep, right)?;
        }
        Ok(())
    }

    fn insert_rec(
        &self,
        pool: &Arc<BufferPool>,
        page_no: u64,
        key: &[u8],
        val: u64,
    ) -> StorageResult<SplitResult> {
        match self.read_node(pool, page_no)? {
            Node::Leaf(mut leaf) => {
                // Upper-bound position: after existing equal keys.
                let pos = leaf.entries.partition_point(|(k, _)| k.as_slice() <= key);
                leaf.entries.insert(pos, (key.to_vec(), val));
                if leaf_encoded_size(&leaf) <= BODY {
                    let page = pool.pin(page_no)?;
                    page.with_write(|buf| encode_leaf(&leaf, SlottedPage::new(buf).body_mut()));
                    return Ok(None);
                }
                // Split the leaf.
                let mid = leaf.entries.len() / 2;
                let right_entries = leaf.entries.split_off(mid);
                let sep = right_entries[0].0.clone();
                let page = pool.pin(page_no)?;
                let old_next = page.with_read(|buf| PageView::new(buf).next());
                let right_page = pool.allocate()?;
                let right_no = right_page.page_no();
                right_page.with_write(|buf| {
                    let mut p = SlottedPage::format(buf, PageKind::BTreeLeaf);
                    p.set_prev(page_no);
                    p.set_next(old_next);
                    encode_leaf(
                        &Leaf {
                            entries: right_entries,
                        },
                        p.body_mut(),
                    );
                });
                if old_next != NO_PAGE {
                    let nxt = pool.pin(old_next)?;
                    nxt.with_write(|buf| SlottedPage::new(buf).set_prev(right_no));
                }
                page.with_write(|buf| {
                    let mut p = SlottedPage::new(buf);
                    p.set_next(right_no);
                    encode_leaf(&leaf, p.body_mut());
                });
                Ok(Some((sep, right_no)))
            }
            Node::Internal(mut node) => {
                let idx = node.keys.partition_point(|k| k.as_slice() <= key);
                let child = node.children[idx];
                let Some((sep, right)) = self.insert_rec(pool, child, key, val)? else {
                    return Ok(None);
                };
                node.keys.insert(idx, sep);
                node.children.insert(idx + 1, right);
                if internal_encoded_size(&node) <= BODY {
                    let page = pool.pin(page_no)?;
                    page.with_write(|buf| encode_internal(&node, SlottedPage::new(buf).body_mut()));
                    return Ok(None);
                }
                // Split the internal node: middle key moves up.
                let mid = node.keys.len() / 2;
                let up_key = node.keys[mid].clone();
                let right_keys = node.keys.split_off(mid + 1);
                node.keys.pop(); // remove up_key from the left node
                let right_children = node.children.split_off(mid + 1);
                let right_page = pool.allocate()?;
                let right_no = right_page.page_no();
                right_page.with_write(|buf| {
                    let mut p = SlottedPage::format(buf, PageKind::BTreeInternal);
                    encode_internal(
                        &Internal {
                            keys: right_keys,
                            children: right_children,
                        },
                        p.body_mut(),
                    );
                });
                let page = pool.pin(page_no)?;
                page.with_write(|buf| encode_internal(&node, SlottedPage::new(buf).body_mut()));
                Ok(Some((up_key, right_no)))
            }
        }
    }

    /// The root page split: move its content to a fresh page and turn the
    /// root into an internal node over the two halves, so the tree keeps a
    /// stable root page number.
    fn split_root(&self, pool: &Arc<BufferPool>, sep: Vec<u8>, right: u64) -> StorageResult<()> {
        let root = pool.pin(self.root)?;
        let (kind, body, next) = root.with_read(|buf| {
            let v = PageView::new(buf);
            (v.kind(), v.body().to_vec(), v.next())
        });
        let left_page = pool.allocate()?;
        let left_no = left_page.page_no();
        left_page.with_write(|buf| {
            let mut p = SlottedPage::format(buf, kind);
            p.body_mut().copy_from_slice(&body);
            if kind == PageKind::BTreeLeaf {
                p.set_next(next);
            }
        });
        if kind == PageKind::BTreeLeaf && next != NO_PAGE {
            // `next` is the right sibling produced by the leaf split.
            let nxt = pool.pin(next)?;
            nxt.with_write(|buf| SlottedPage::new(buf).set_prev(left_no));
        }
        root.with_write(|buf| {
            let mut p = SlottedPage::format(buf, PageKind::BTreeInternal);
            encode_internal(
                &Internal {
                    keys: vec![sep],
                    children: vec![left_no, right],
                },
                p.body_mut(),
            );
        });
        Ok(())
    }

    /// Page number of the leftmost leaf whose range may contain `key`.
    fn descend(&self, pool: &Arc<BufferPool>, key: &[u8]) -> StorageResult<u64> {
        let mut page_no = self.root;
        loop {
            match self.read_node(pool, page_no)? {
                Node::Leaf(_) => return Ok(page_no),
                Node::Internal(node) => {
                    let idx = node.keys.partition_point(|k| k.as_slice() < key);
                    page_no = node.children[idx];
                }
            }
        }
    }

    /// Leftmost leaf of the whole tree.
    fn leftmost_leaf(&self, pool: &Arc<BufferPool>) -> StorageResult<u64> {
        let mut page_no = self.root;
        loop {
            match self.read_node(pool, page_no)? {
                Node::Leaf(_) => return Ok(page_no),
                Node::Internal(node) => page_no = node.children[0],
            }
        }
    }

    /// All values stored under exactly `key`.
    pub fn lookup(&self, pool: &Arc<BufferPool>, key: &[u8]) -> StorageResult<Vec<u64>> {
        let mut out = Vec::new();
        let mut page_no = self.descend(pool, key)?;
        loop {
            let Node::Leaf(leaf) = self.read_node(pool, page_no)? else {
                return Err(StorageError::Corrupt("descend did not reach a leaf".into()));
            };
            // Collect matches; stop at the first key past the target.
            // Duplicate runs may spill across leaves, so continue down the
            // chain until a greater key (or the chain end) is seen.
            for (k, v) in &leaf.entries {
                match k.as_slice().cmp(key) {
                    std::cmp::Ordering::Less => {}
                    std::cmp::Ordering::Equal => out.push(*v),
                    std::cmp::Ordering::Greater => return Ok(out),
                }
            }
            let page = pool.pin(page_no)?;
            let next = page.with_read(|buf| PageView::new(buf).next());
            if next == NO_PAGE {
                return Ok(out);
            }
            page_no = next;
        }
    }

    /// Delete one `(key, val)` pair; returns whether it was found.
    pub fn delete(&self, pool: &Arc<BufferPool>, key: &[u8], val: u64) -> StorageResult<bool> {
        let mut page_no = self.descend(pool, key)?;
        loop {
            let Node::Leaf(mut leaf) = self.read_node(pool, page_no)? else {
                return Err(StorageError::Corrupt("descend did not reach a leaf".into()));
            };
            if let Some(pos) = leaf
                .entries
                .iter()
                .position(|(k, v)| k.as_slice() == key && *v == val)
            {
                leaf.entries.remove(pos);
                let page = pool.pin(page_no)?;
                page.with_write(|buf| encode_leaf(&leaf, SlottedPage::new(buf).body_mut()));
                return Ok(true);
            }
            // Stop once entries exceed the key.
            if leaf.entries.iter().any(|(k, _)| k.as_slice() > key) {
                return Ok(false);
            }
            let page = pool.pin(page_no)?;
            let next = page.with_read(|buf| PageView::new(buf).next());
            if next == NO_PAGE {
                return Ok(false);
            }
            page_no = next;
        }
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
            state: ScanState::NotStarted,
            start_at: None,
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
        let mut page_no = match &lower {
            Bound::Unbounded => self.leftmost_leaf(pool)?,
            Bound::Included(key) | Bound::Excluded(key) => self.descend(pool, key)?,
        };
        loop {
            let Node::Leaf(leaf) = self.read_node(pool, page_no)? else {
                return Err(StorageError::Corrupt(
                    "leaf chain reached a non-leaf".into(),
                ));
            };
            let min_key = leaf.entries.first().map(|(k, _)| k.as_slice());
            let wholly_past = match (&upper, min_key) {
                (Bound::Included(u), Some(mk)) => mk > u.as_slice(),
                (Bound::Excluded(u), Some(mk)) => mk >= u.as_slice(),
                _ => false,
            };
            if wholly_past {
                break;
            }
            leaves.push(page_no);
            let page = pool.pin(page_no)?;
            let next = page.with_read(|buf| PageView::new(buf).next());
            if next == NO_PAGE {
                break;
            }
            page_no = next;
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
                state: ScanState::NotStarted,
                start_at: Some(run[0]),
                stop_after: Some(*run.last().expect("chunks are non-empty")),
            })
            .collect())
    }

    /// Total number of entries (walks the leaf level).
    pub fn len(&self, pool: &Arc<BufferPool>) -> StorageResult<usize> {
        let mut n = 0usize;
        let mut page_no = self.leftmost_leaf(pool)?;
        loop {
            let Node::Leaf(leaf) = self.read_node(pool, page_no)? else {
                return Err(StorageError::Corrupt(
                    "leaf chain reached a non-leaf".into(),
                ));
            };
            n += leaf.entries.len();
            let page = pool.pin(page_no)?;
            let next = page.with_read(|buf| PageView::new(buf).next());
            if next == NO_PAGE {
                return Ok(n);
            }
            page_no = next;
        }
    }

    /// Whether the tree holds no entries.
    pub fn is_empty(&self, pool: &Arc<BufferPool>) -> StorageResult<bool> {
        Ok(self.len(pool)? == 0)
    }
}

enum ScanState {
    NotStarted,
    /// Buffered entries of the current leaf plus the next leaf's page no.
    InLeaf {
        entries: std::vec::IntoIter<(Vec<u8>, u64)>,
        next: u64,
    },
    Done,
}

/// Iterator over `(key, value)` pairs in key order.
pub struct BTreeScan {
    tree: BTree,
    pool: Arc<BufferPool>,
    lower: Bound<Vec<u8>>,
    upper: Bound<Vec<u8>>,
    state: ScanState,
    /// Partitioned scans start at this leaf instead of descending.
    start_at: Option<u64>,
    /// Partitioned scans stop following the chain after this leaf.
    stop_after: Option<u64>,
}

impl BTreeScan {
    fn load_leaf(&mut self, page_no: u64) -> StorageResult<()> {
        let Node::Leaf(leaf) = self.tree.read_node(&self.pool, page_no)? else {
            return Err(StorageError::Corrupt("scan reached a non-leaf".into()));
        };
        let next = if self.stop_after == Some(page_no) {
            NO_PAGE
        } else {
            let page = self.pool.pin(page_no)?;
            page.with_read(|buf| PageView::new(buf).next())
        };
        self.state = ScanState::InLeaf {
            entries: leaf.entries.into_iter(),
            next,
        };
        Ok(())
    }

    fn start(&mut self) -> StorageResult<()> {
        if let Some(first) = self.start_at {
            return self.load_leaf(first);
        }
        let first = match &self.lower {
            Bound::Unbounded => self.tree.leftmost_leaf(&self.pool)?,
            Bound::Included(k) | Bound::Excluded(k) => {
                let k = k.clone();
                self.tree.descend(&self.pool, &k)?
            }
        };
        self.load_leaf(first)
    }

    fn below_lower(&self, key: &[u8]) -> bool {
        match &self.lower {
            Bound::Unbounded => false,
            Bound::Included(l) => key < l.as_slice(),
            Bound::Excluded(l) => key <= l.as_slice(),
        }
    }

    fn above_upper(&self, key: &[u8]) -> bool {
        match &self.upper {
            Bound::Unbounded => false,
            Bound::Included(u) => key > u.as_slice(),
            Bound::Excluded(u) => key >= u.as_slice(),
        }
    }
}

impl BTreeScan {
    /// Drain up to `n` in-bounds entries into a batch, draining whole
    /// buffered leaves at a time. Returns an empty vector when the scan
    /// is exhausted.
    pub fn next_batch(&mut self, n: usize) -> StorageResult<Vec<(Vec<u8>, u64)>> {
        let mut out: Vec<(Vec<u8>, u64)> = Vec::new();
        if n == 0 {
            return Ok(out);
        }
        loop {
            match &mut self.state {
                ScanState::Done => return Ok(out),
                ScanState::NotStarted => {
                    if let Err(e) = self.start() {
                        self.state = ScanState::Done;
                        return Err(e);
                    }
                }
                ScanState::InLeaf { entries, next } => {
                    let next = *next;
                    let mut past_upper = false;
                    for (k, v) in entries.by_ref() {
                        if match &self.lower {
                            Bound::Unbounded => false,
                            Bound::Included(l) => k < *l,
                            Bound::Excluded(l) => k <= *l,
                        } {
                            continue;
                        }
                        if match &self.upper {
                            Bound::Unbounded => false,
                            Bound::Included(u) => k > *u,
                            Bound::Excluded(u) => k >= *u,
                        } {
                            past_upper = true;
                            break;
                        }
                        out.push((k, v));
                        if out.len() == n {
                            return Ok(out);
                        }
                    }
                    if past_upper || next == NO_PAGE {
                        self.state = ScanState::Done;
                        return Ok(out);
                    }
                    if let Err(e) = self.load_leaf(next) {
                        self.state = ScanState::Done;
                        return Err(e);
                    }
                }
            }
        }
    }
}

impl Iterator for BTreeScan {
    type Item = StorageResult<(Vec<u8>, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match &mut self.state {
                ScanState::Done => return None,
                ScanState::NotStarted => {
                    if let Err(e) = self.start() {
                        self.state = ScanState::Done;
                        return Some(Err(e));
                    }
                }
                ScanState::InLeaf { entries, next } => {
                    let next = *next;
                    match entries.next() {
                        Some((k, v)) => {
                            if self.below_lower(&k) {
                                continue;
                            }
                            if self.above_upper(&k) {
                                self.state = ScanState::Done;
                                return None;
                            }
                            return Some(Ok((k, v)));
                        }
                        None => {
                            if next == NO_PAGE {
                                self.state = ScanState::Done;
                                return None;
                            }
                            if let Err(e) = self.load_leaf(next) {
                                self.state = ScanState::Done;
                                return Some(Err(e));
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::KeyWriter;
    use crate::volume::MemVolume;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Box::new(MemVolume::new()), 256))
    }

    fn ikey(v: i64) -> Vec<u8> {
        let mut k = KeyWriter::new();
        k.put_i64(v);
        k.into_bytes()
    }

    #[test]
    fn insert_lookup_small() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        for i in 0..50 {
            t.insert(&pool, &ikey(i), i as u64 * 10, false).unwrap();
        }
        for i in 0..50 {
            assert_eq!(t.lookup(&pool, &ikey(i)).unwrap(), vec![i as u64 * 10]);
        }
        assert!(t.lookup(&pool, &ikey(999)).unwrap().is_empty());
        assert_eq!(t.len(&pool).unwrap(), 50);
    }

    #[test]
    fn batch_scan_matches_iterator() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        for i in 0..2000 {
            t.insert(&pool, &ikey(i), i as u64, false).unwrap();
        }
        let bounds = [
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(ikey(100)), Bound::Excluded(ikey(1500))),
            (Bound::Excluded(ikey(0)), Bound::Included(ikey(0))),
        ];
        for (lo, hi) in bounds {
            let want: Vec<_> = t
                .scan(pool.clone(), lo.clone(), hi.clone())
                .map(|r| r.unwrap())
                .collect();
            for n in [1usize, 64, 4096] {
                let mut s = t.scan(pool.clone(), lo.clone(), hi.clone());
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
    }

    #[test]
    fn partitions_cover_range_in_order() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        for i in 0..2000 {
            t.insert(&pool, &ikey(i), i as u64, false).unwrap();
        }
        let bounds = [
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(ikey(100)), Bound::Excluded(ikey(1500))),
            (Bound::Excluded(ikey(1999)), Bound::Unbounded),
        ];
        for (lo, hi) in bounds {
            let want: Vec<_> = t
                .scan(pool.clone(), lo.clone(), hi.clone())
                .map(|r| r.unwrap())
                .collect();
            for k in [1usize, 3, 7, 1000] {
                let parts = t.partitions(&pool, k, lo.clone(), hi.clone()).unwrap();
                assert!(parts.len() <= k, "at most k partitions");
                let mut got = Vec::new();
                for mut part in parts {
                    loop {
                        let b = part.next_batch(64).unwrap();
                        if b.is_empty() {
                            break;
                        }
                        got.extend(b);
                    }
                }
                assert_eq!(got, want, "k={k} bounds {lo:?}..{hi:?}");
            }
        }
    }

    #[test]
    fn partitions_empty_tree() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        let parts = t
            .partitions(&pool, 4, Bound::Unbounded, Bound::Unbounded)
            .unwrap();
        // The empty root leaf forms at most one partition, which yields
        // no entries.
        assert!(parts.len() <= 1);
        for mut p in parts {
            assert!(p.next_batch(16).unwrap().is_empty());
        }
    }

    #[test]
    fn many_inserts_force_splits_sorted_scan() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        // Insert in a scrambled order; enough volume for multi-level splits.
        let n: i64 = 5000;
        let mut order: Vec<i64> = (0..n).collect();
        // Deterministic shuffle.
        for i in 0..order.len() {
            let j = (i * 2654435761) % order.len();
            order.swap(i, j);
        }
        for &i in &order {
            t.insert(&pool, &ikey(i), i as u64, false).unwrap();
        }
        let got: Vec<i64> = t
            .scan(pool.clone(), Bound::Unbounded, Bound::Unbounded)
            .map(|r| r.unwrap().1 as i64)
            .collect();
        assert_eq!(got.len(), n as usize);
        let expect: Vec<i64> = (0..n).collect();
        assert_eq!(got, expect, "scan must be in key order after splits");
    }

    #[test]
    fn duplicate_keys_all_returned() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        for v in 0..200u64 {
            t.insert(&pool, &ikey(7), v, false).unwrap();
            t.insert(&pool, &ikey(8), v + 1000, false).unwrap();
        }
        let mut vals = t.lookup(&pool, &ikey(7)).unwrap();
        vals.sort_unstable();
        assert_eq!(vals, (0..200).collect::<Vec<u64>>());
    }

    #[test]
    fn unique_mode_rejects_duplicates() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        t.insert(&pool, &ikey(1), 10, true).unwrap();
        assert!(matches!(
            t.insert(&pool, &ikey(1), 11, true),
            Err(StorageError::DuplicateKey)
        ));
        // Different key still fine.
        t.insert(&pool, &ikey(2), 20, true).unwrap();
    }

    #[test]
    fn delete_specific_pair() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        t.insert(&pool, &ikey(5), 50, false).unwrap();
        t.insert(&pool, &ikey(5), 51, false).unwrap();
        assert!(t.delete(&pool, &ikey(5), 50).unwrap());
        assert_eq!(t.lookup(&pool, &ikey(5)).unwrap(), vec![51]);
        assert!(!t.delete(&pool, &ikey(5), 50).unwrap(), "already gone");
        assert!(!t.delete(&pool, &ikey(404), 1).unwrap());
    }

    #[test]
    fn range_scan_bounds() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        for i in 0..100 {
            t.insert(&pool, &ikey(i), i as u64, false).unwrap();
        }
        let got: Vec<u64> = t
            .scan(
                pool.clone(),
                Bound::Included(ikey(10)),
                Bound::Excluded(ikey(20)),
            )
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(got, (10..20).collect::<Vec<u64>>());
        let got: Vec<u64> = t
            .scan(pool.clone(), Bound::Excluded(ikey(95)), Bound::Unbounded)
            .map(|r| r.unwrap().1)
            .collect();
        assert_eq!(got, (96..100).collect::<Vec<u64>>());
    }

    #[test]
    fn string_keys() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        let names = ["mercury", "venus", "earth", "mars", "jupiter"];
        for (i, n) in names.iter().enumerate() {
            let mut k = KeyWriter::new();
            k.put_str(n);
            t.insert(&pool, &k.into_bytes(), i as u64, true).unwrap();
        }
        let got: Vec<u64> = t
            .scan(pool.clone(), Bound::Unbounded, Bound::Unbounded)
            .map(|r| r.unwrap().1)
            .collect();
        // Alphabetical: earth jupiter mars mercury venus.
        assert_eq!(got, vec![2, 4, 3, 0, 1]);
    }

    #[test]
    fn oversized_key_rejected() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        assert!(t.insert(&pool, &vec![0u8; MAX_KEY + 1], 0, false).is_err());
    }

    #[test]
    fn interleaved_insert_delete_stress() {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        let mut live = std::collections::BTreeMap::new();
        for round in 0..3000i64 {
            let k = round % 500;
            if round % 3 == 2 {
                let expect = live.remove(&k).is_some();
                assert_eq!(t.delete(&pool, &ikey(k), k as u64).unwrap(), expect);
            } else if let std::collections::btree_map::Entry::Vacant(e) = live.entry(k) {
                t.insert(&pool, &ikey(k), k as u64, false).unwrap();
                e.insert(());
            }
        }
        let got: Vec<i64> = t
            .scan(pool.clone(), Bound::Unbounded, Bound::Unbounded)
            .map(|r| r.unwrap().1 as i64)
            .collect();
        let expect: Vec<i64> = live.keys().copied().collect();
        assert_eq!(got, expect);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_matches_btreemap(ops in proptest::collection::vec((0i64..200, proptest::bool::ANY), 1..400)) {
            let pool = pool();
            let t = BTree::create(&pool).unwrap();
            let mut model: std::collections::BTreeMap<i64, u64> = Default::default();
            for (k, is_insert) in ops {
                if is_insert {
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(k) {
                        t.insert(&pool, &ikey(k), k as u64, true).unwrap();
                        e.insert(k as u64);
                    }
                } else if model.remove(&k).is_some() {
                    proptest::prop_assert!(t.delete(&pool, &ikey(k), k as u64).unwrap());
                }
            }
            let got: Vec<u64> = t.scan(pool.clone(), Bound::Unbounded, Bound::Unbounded)
                .map(|r| r.unwrap().1).collect();
            let expect: Vec<u64> = model.values().copied().collect();
            proptest::prop_assert_eq!(got, expect);
        }
    }
}
