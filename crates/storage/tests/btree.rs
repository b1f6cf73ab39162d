//! The B+-tree access method against models and hostile bytes: point
//! cases (lookups, duplicates, bounds, partitions, key order), a proptest
//! against a sorted-map model deep enough for three levels, mutated and
//! fuzzed node pages, and the leaf fill that ascending loads leave
//! behind.

use std::ops::Bound;
use std::sync::Arc;

use exodus_storage::btree::{BTree, BTreeScan, MAX_KEY};
use exodus_storage::buffer::BufferPool;
use exodus_storage::encoding::KeyWriter;
use exodus_storage::page::{PageKind, PageView, HEADER_SIZE, NO_PAGE, PAGE_SIZE};
use exodus_storage::volume::MemVolume;
use exodus_storage::{StorageError, StorageResult};
use proptest::prelude::*;

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
    assert_eq!(
        t.scan(pool.clone(), Bound::Unbounded, Bound::Unbounded)
            .count(),
        50
    );
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

/// The child in slot 0 of node `page_no`, or `None` for a leaf (the
/// layout the `btree` module documents).
fn first_child(pool: &Arc<BufferPool>, page_no: u64) -> Option<u64> {
    pool.pin(page_no).unwrap().with_read(|buf| {
        let page = PageView::new(buf);
        (page.kind() == PageKind::BTreeInternal).then(|| {
            let rec = page.read(page_no, 0).unwrap();
            u64::from_le_bytes(rec[rec.len() - 8..].try_into().unwrap())
        })
    })
}

fn leftmost_leaf(pool: &Arc<BufferPool>, t: &BTree) -> u64 {
    let mut page_no = t.root();
    while let Some(child) = first_child(pool, page_no) {
        page_no = child;
    }
    page_no
}

/// Tree depth along the leftmost path (1 = a lone leaf root).
fn depth(pool: &Arc<BufferPool>, t: &BTree) -> usize {
    let mut page_no = t.root();
    let mut levels = 1;
    while let Some(child) = first_child(pool, page_no) {
        page_no = child;
        levels += 1;
    }
    levels
}

/// Drain a scan through `next_batch(n)`.
fn drain(mut s: BTreeScan, n: usize) -> StorageResult<Vec<(Vec<u8>, u64)>> {
    let mut got = Vec::new();
    loop {
        let b = s.next_batch(n)?;
        if b.is_empty() {
            return Ok(got);
        }
        assert!(b.len() <= n);
        got.extend(b);
    }
}

#[test]
fn ascending_inserts_leave_full_leaves() {
    let pool = pool();
    let t = BTree::create(&pool).unwrap();
    let n = 5000;
    for i in 0..n {
        t.insert(&pool, &ikey(i), i as u64, true).unwrap();
    }
    // A slot entry is 4 bytes; a record is the key and an 8-byte value.
    let per_leaf = (PAGE_SIZE - HEADER_SIZE) / (4 + ikey(0).len() + 8);
    let mut counts = Vec::new();
    let mut page_no = leftmost_leaf(&pool, &t);
    while page_no != NO_PAGE {
        page_no = pool.pin(page_no).unwrap().with_read(|buf| {
            let page = PageView::new(buf);
            counts.push(page.slot_count() as usize);
            page.next()
        });
    }
    let (last, full) = counts.split_last().unwrap();
    assert!(full.iter().all(|&c| c == per_leaf), "{counts:?}");
    assert_eq!(full.len() * per_leaf + last, n as usize);
}

/// A test key: mostly short keys over a tiny alphabet (shared
/// prefixes, many duplicates), some near `MAX_KEY` so nodes hold few
/// entries and the tree grows three or more levels.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        proptest::collection::vec(proptest::sample::select(vec![0u8, 1, 7, 255]), 0..64),
        proptest::collection::vec(proptest::sample::select(vec![0u8, 1, 7, 255]), 0..4),
        ((MAX_KEY - 24)..=MAX_KEY, 0u8..3, 0u8..16).prop_map(long_key),
        ((MAX_KEY - 24)..=MAX_KEY, 0u8..3, 0u8..16).prop_map(long_key),
    ]
}

fn long_key((len, fill, last): (usize, u8, u8)) -> Vec<u8> {
    let mut key = vec![fill; len];
    key[len - 1] = last;
    key
}

fn bound_strategy() -> impl Strategy<Value = Bound<Vec<u8>>> {
    prop_oneof![
        Just(Bound::Unbounded),
        key_strategy().prop_map(Bound::Included),
        key_strategy().prop_map(Bound::Excluded),
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(Vec<u8>),
    /// Delete the `i % len`-th live pair, or a pair never inserted.
    Delete(usize),
    Lookup(Vec<u8>),
    Scan(Bound<Vec<u8>>, Bound<Vec<u8>>, usize),
    Partitions(Bound<Vec<u8>>, Bound<Vec<u8>>, usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Insert),
        key_strategy().prop_map(Op::Insert),
        (0usize..10_000).prop_map(Op::Delete),
        key_strategy().prop_map(Op::Lookup),
        (
            bound_strategy(),
            bound_strategy(),
            proptest::sample::select(vec![1usize, 7, 1024])
        )
            .prop_map(|(lo, hi, n)| Op::Scan(lo, hi, n)),
        (bound_strategy(), bound_strategy(), 1usize..6)
            .prop_map(|(lo, hi, k)| Op::Partitions(lo, hi, k)),
    ]
}

type Model = std::collections::BTreeMap<(Vec<u8>, u64), ()>;

fn in_range(model: &Model, lo: &Bound<Vec<u8>>, hi: &Bound<Vec<u8>>) -> Vec<(Vec<u8>, u64)> {
    let inside = |k: &Vec<u8>| {
        (match lo {
            Bound::Unbounded => true,
            Bound::Included(l) => k >= l,
            Bound::Excluded(l) => k > l,
        }) && match hi {
            Bound::Unbounded => true,
            Bound::Included(h) => k <= h,
            Bound::Excluded(h) => k < h,
        }
    };
    model.keys().filter(|(k, _)| inside(k)).cloned().collect()
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Interleaved inserts, deletes, lookups, bounded scans at three
    /// batch sizes and partitioned scans agree with a sorted-map
    /// model in unique and non-unique mode. Values come from a
    /// counter, so equal keys sit in insertion (= value) order.
    #[test]
    fn tree_matches_model(
        unique in proptest::bool::ANY,
        ops in proptest::collection::vec(op_strategy(), 500..1000),
    ) {
        let pool = pool();
        let t = BTree::create(&pool).unwrap();
        let mut model = Model::new();
        let mut next_val = 0u64;
        for op in ops {
            match op {
                Op::Insert(key) => {
                    next_val += 1;
                    let dup = unique && model.keys().any(|(k, _)| *k == key);
                    match t.insert(&pool, &key, next_val, unique) {
                        Ok(()) => {
                            prop_assert!(!dup, "duplicate accepted");
                            model.insert((key, next_val), ());
                        }
                        Err(StorageError::DuplicateKey) => prop_assert!(dup),
                        Err(e) => panic!("insert: {e}"),
                    }
                }
                Op::Delete(i) if i % 4 == 0 || model.is_empty() => {
                    prop_assert!(!t.delete(&pool, &ikey(i as i64), u64::MAX).unwrap());
                }
                Op::Delete(i) => {
                    let (key, val) = model.keys().nth(i % model.len()).unwrap().clone();
                    prop_assert!(t.delete(&pool, &key, val).unwrap());
                    model.remove(&(key, val));
                }
                Op::Lookup(key) => {
                    let want: Vec<u64> =
                        model.keys().filter(|(k, _)| *k == key).map(|(_, v)| *v).collect();
                    prop_assert_eq!(t.lookup(&pool, &key).unwrap(), want);
                }
                Op::Scan(lo, hi, n) => {
                    let want = in_range(&model, &lo, &hi);
                    let got = drain(t.scan(pool.clone(), lo.clone(), hi.clone()), n).unwrap();
                    prop_assert_eq!(&got, &want);
                    let got: Vec<_> = t.scan(pool.clone(), lo, hi).map(|r| r.unwrap()).collect();
                    prop_assert_eq!(got, want);
                }
                Op::Partitions(lo, hi, k) => {
                    let want = in_range(&model, &lo, &hi);
                    let parts = t.partitions(&pool, k, lo, hi).unwrap();
                    prop_assert!(parts.len() <= k);
                    let mut got = Vec::new();
                    for part in parts {
                        got.extend(drain(part, 7).unwrap());
                    }
                    prop_assert_eq!(got, want);
                }
            }
        }
        let all = in_range(&model, &Bound::Unbounded, &Bound::Unbounded);
        prop_assert_eq!(drain(t.scan(pool.clone(), Bound::Unbounded, Bound::Unbounded), 1024).unwrap(), all);
        prop_assert!(depth(&pool, &t) >= 3, "depth {}", depth(&pool, &t));
    }
}

/// A tree three levels deep over 8-byte keys.
fn deep_tree() -> (Arc<BufferPool>, BTree) {
    let pool = pool();
    let t = BTree::create(&pool).unwrap();
    for i in 0..3000 {
        // Long keys keep fan-out small.
        let mut key = ikey(i);
        key.resize(600, 0);
        t.insert(&pool, &key, i as u64, false).unwrap();
    }
    assert!(depth(&pool, &t) >= 3);
    (pool, t)
}

/// Run every public operation, each of which visits the root and the
/// leftmost leaf; returns the names of those that did not return `Err`.
fn ops_not_failing(pool: &Arc<BufferPool>, t: &BTree) -> Vec<&'static str> {
    let mut key = ikey(0);
    key.resize(600, 0);
    let all = || t.scan(pool.clone(), Bound::Unbounded, Bound::Unbounded);
    let mut ok = Vec::new();
    let mut check = |name, failed: bool| {
        if !failed {
            ok.push(name);
        }
    };
    check("lookup", t.lookup(pool, &key).is_err());
    check("insert", t.insert(pool, &key, 9, false).is_err());
    check("insert unique", t.insert(pool, &key, 9, true).is_err());
    check("delete", t.delete(pool, &key, 0).is_err());
    check("scan", all().any(|r| r.is_err()));
    check("next_batch", drain(all(), 7).is_err());
    check(
        "partitions",
        t.partitions(pool, 3, Bound::Unbounded, Bound::Unbounded)
            .and_then(|parts| parts.into_iter().try_for_each(|p| drain(p, 64).map(drop)))
            .is_err(),
    );
    ok
}

/// Overwrite bytes of page `page_no`.
fn poke(pool: &Arc<BufferPool>, page_no: u64, f: impl FnOnce(&mut [u8])) {
    pool.pin(page_no).unwrap().with_write(f);
}

fn put16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

/// Mutated node headers and slot directories make every operation
/// that reaches the node return `Err` — never panic, never answer.
#[test]
fn hostile_node_bytes_are_errors() {
    const NSLOTS: usize = 16;
    const KIND: usize = 20;
    const DIR: usize = HEADER_SIZE;
    let every_slot = |f: fn(&mut [u8], usize)| {
        move |buf: &mut [u8]| {
            let n = u16::from_le_bytes([buf[NSLOTS], buf[NSLOTS + 1]]) as usize;
            for s in 0..n {
                f(buf, DIR + s * 4);
            }
        }
    };
    type Mutation = (&'static str, Box<dyn Fn(&mut [u8])>);
    let mutations: Vec<Mutation> = vec![
        (
            "kind heap",
            Box::new(|b| put16(b, KIND, PageKind::Heap as u16)),
        ),
        ("kind free", Box::new(|b| put16(b, KIND, 0))),
        ("slot count huge", Box::new(|b| put16(b, NSLOTS, u16::MAX))),
        ("slot count past page", Box::new(|b| put16(b, NSLOTS, 2100))),
        (
            "offsets past page",
            Box::new(every_slot(|b, s| put16(b, s, 8190))),
        ),
        (
            "offsets into directory",
            Box::new(every_slot(|b, s| put16(b, s, 0))),
        ),
        (
            "offsets dead",
            Box::new(every_slot(|b, s| put16(b, s, u16::MAX))),
        ),
        (
            "lengths huge",
            Box::new(every_slot(|b, s| put16(b, s + 2, u16::MAX))),
        ),
        (
            "lengths short",
            Box::new(every_slot(|b, s| put16(b, s + 2, 3))),
        ),
    ];
    for (name, mutate) in &mutations {
        // The root: an internal node every operation visits.
        let (pool, t) = deep_tree();
        poke(&pool, t.root(), mutate);
        assert_eq!(
            ops_not_failing(&pool, &t),
            Vec::<&str>::new(),
            "root: {name}"
        );
    }
    for (name, mutate) in mutations.iter().filter(|(n, _)| !n.starts_with("kind")) {
        // The leftmost leaf, which every operation here reaches.
        let (pool, t) = deep_tree();
        let leaf = leftmost_leaf(&pool, &t);
        poke(&pool, leaf, mutate);
        assert_eq!(
            ops_not_failing(&pool, &t),
            Vec::<&str>::new(),
            "leaf: {name}"
        );
    }
    // A slot count of zero leaves an internal node childless.
    let (pool, t) = deep_tree();
    poke(&pool, t.root(), |b| put16(b, NSLOTS, 0));
    assert_eq!(
        ops_not_failing(&pool, &t),
        Vec::<&str>::new(),
        "root: no slots"
    );
}

/// Random byte overwrites in the header fields and slot areas of
/// random nodes never panic: every operation answers or errs.
#[test]
fn random_node_bytes_never_panic() {
    let mut rng = proptest::test_runner::TestRng::deterministic("btree_fuzz", 0);
    for _ in 0..100 {
        let (pool, t) = deep_tree();
        let pages = pool.volume_pages();
        for _ in 0..8 {
            let page_no = rng.next_u64() % pages;
            let is_node = pool.pin(page_no).unwrap().with_read(|b| {
                matches!(
                    PageView::new(b).kind(),
                    PageKind::BTreeLeaf | PageKind::BTreeInternal
                )
            });
            if !is_node {
                continue;
            }
            // Skip the chain links (0..16): a cycle there would loop
            // a scan rather than corrupt a node.
            let at = 16 + (rng.next_u64() as usize) % (PAGE_SIZE - 16);
            if (24..40).contains(&at) {
                continue; // LSN and checksum
            }
            let byte = rng.next_u64() as u8;
            poke(&pool, page_no, |b| b[at] = byte);
        }
        let _ = ops_not_failing(&pool, &t);
    }
}
