//! Kill-at-every-point crash recovery tests.
//!
//! These run only with the `failpoints` feature (`cargo test -p
//! exodus-storage --features failpoints`): they arm deterministic crash
//! plans that make the N-th durable write fail — or tear, applying only
//! half its bytes — and every later write fail, simulating a process kill
//! at that exact moment. The database is then reopened (running recovery)
//! and the surviving state is compared against a replayed model.
//!
//! The contract under test: with [`Durability::Fsync`], after a crash at
//! *any* write, the database reopens to exactly the state produced by a
//! prefix of the committed units — every unit whose `commit()` returned is
//! present in full, the interrupted unit is present in full or absent in
//! full, and heap/B+-tree/LOB structures stay mutually consistent.
#![cfg(feature = "failpoints")]

use std::ops::Bound;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use exodus_storage::btree::BTree;
use exodus_storage::buffer::BufferPool;
use exodus_storage::failpoint::{self, CrashPlan};
use exodus_storage::heap::HeapFile;
use exodus_storage::lob::{Lob, LobId};
use exodus_storage::{Durability, FileId, StorageManager, StorageResult};

/// Deterministic page numbers from unit 0's allocation order (page 0 is
/// volume metadata).
const HEAP_PAGE: u64 = 1;
const BTREE_ROOT: u64 = 2;
const LOB_FIRST: u64 = 3;
/// A second heap of opaque statistics-style records: inserted once and
/// updated in place (with a size change, forcing relocation) later.
const STATS_PAGE: u64 = 4;

const N_UNITS: usize = 6;

/// An analyze-style statistics payload: version-tagged and larger in v2,
/// so the in-place update must relocate the record.
fn stats_payload(version: u8) -> Vec<u8> {
    let mut p = format!("stats:Departments:v{version}:").into_bytes();
    p.extend((0..16 * version as usize).flat_map(|i| (i as u64).to_le_bytes()));
    p
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("exodus-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn open(dir: &Path) -> (StorageManager, exodus_storage::RecoveryReport) {
    StorageManager::open(&dir.join("vol.db"), 64, Durability::Fsync).expect("open + recovery")
}

fn ikey(v: i64) -> Vec<u8> {
    let mut k = exodus_storage::encoding::KeyWriter::new();
    k.put_i64(v);
    k.into_bytes()
}

/// Apply unit `i`'s mutations (unit 0 creates the structures). Mirrored
/// exactly by [`model_apply`].
fn apply_unit(pool: &Arc<BufferPool>, i: usize) -> StorageResult<()> {
    let heap = HeapFile::open(FileId(HEAP_PAGE));
    let tree = BTree::open(BTREE_ROOT);
    let lob = Lob::open(LobId(LOB_FIRST));
    let stats = HeapFile::open(FileId(STATS_PAGE));
    if i == 0 {
        let f = HeapFile::create(pool)?;
        assert_eq!(f, FileId(HEAP_PAGE), "allocation order changed");
        let t = BTree::create(pool)?;
        assert_eq!(t.root(), BTREE_ROOT, "allocation order changed");
        let l = Lob::create(pool)?;
        assert_eq!(l.id(), LobId(LOB_FIRST), "allocation order changed");
        let s = HeapFile::create(pool)?;
        assert_eq!(s, FileId(STATS_PAGE), "allocation order changed");
    }
    heap.insert(pool, format!("unit-{i}").as_bytes())?;
    tree.insert(pool, &ikey(i as i64), i as u64, true)?;
    if i == 1 {
        // First `analyze`: the serialized statistics record lands in the
        // dedicated file inside this unit.
        stats.insert(pool, &stats_payload(1))?;
    }
    if i == 4 {
        // Re-analyze: the payload is rewritten in place; v2 is larger,
        // so the update relocates the record within the logged unit.
        let (rid, _) = stats
            .scan(pool.clone())
            .map(|r| r.unwrap())
            .next()
            .expect("unit 1 committed before unit 4 runs");
        stats.update(pool, rid, &stats_payload(2))?;
    }
    if i == 3 {
        // A unit that also updates and deletes: the rid of unit 2's
        // record is found by scan, its content rewritten in place.
        let (rid, _) = heap
            .scan(pool.clone())
            .map(|r| r.unwrap())
            .find(|(_, data)| data == b"unit-2")
            .expect("unit 2 committed before unit 3 runs");
        heap.update(pool, rid, b"unit-2-updated")?;
        tree.delete(pool, &ikey(1), 1)?;
    }
    lob.append(pool, &[b'0' + i as u8; 4])?;
    Ok(())
}

/// In-memory mirror of the on-disk state after `m` units applied.
#[derive(Debug, PartialEq, Eq)]
struct Model {
    recs: Vec<Vec<u8>>,
    tree: Vec<(Vec<u8>, u64)>,
    lob: Vec<u8>,
    stats: Vec<Vec<u8>>,
}

impl Model {
    fn empty() -> Model {
        Model {
            recs: Vec::new(),
            tree: Vec::new(),
            lob: Vec::new(),
            stats: Vec::new(),
        }
    }

    fn after(m: usize) -> Model {
        let mut model = Model::empty();
        for i in 0..m {
            model.recs.push(format!("unit-{i}").into_bytes());
            model.tree.push((ikey(i as i64), i as u64));
            if i == 1 {
                model.stats.push(stats_payload(1));
            }
            if i == 4 {
                model.stats = vec![stats_payload(2)];
            }
            if i == 3 {
                let pos = model.recs.iter().position(|r| r == b"unit-2").unwrap();
                model.recs[pos] = b"unit-2-updated".to_vec();
                model.tree.retain(|(k, _)| k != &ikey(1));
            }
            model.lob.extend_from_slice(&[b'0' + i as u8; 4]);
        }
        model.recs.sort();
        model.tree.sort();
        model
    }
}

/// Read the actual state back. An absent setup unit (page 1 never became
/// a heap header) reads as the empty model.
fn snapshot(sm: &StorageManager) -> Model {
    use exodus_storage::page::{PageKind, PageView};
    let pool = sm.pool();
    let heap = HeapFile::open(FileId(HEAP_PAGE));
    // Setup may not have committed: page 1 then either does not exist or
    // is a zeroed allocation (kind Free) that no image ever restored.
    let is_header = pool
        .pin(HEAP_PAGE)
        .map(|p| p.with_read(|buf| PageView::new(buf).kind() == PageKind::HeapHeader))
        .unwrap_or(false);
    if !is_header {
        return Model::empty();
    }
    let mut recs: Vec<Vec<u8>> = heap
        .scan(pool.clone())
        .map(|r| r.expect("scan after recovery").1)
        .collect();
    recs.sort();
    let mut tree: Vec<(Vec<u8>, u64)> = BTree::open(BTREE_ROOT)
        .scan(pool.clone(), Bound::Unbounded, Bound::Unbounded)
        .map(|r| r.expect("btree scan after recovery"))
        .collect();
    tree.sort();
    let lob = Lob::open(LobId(LOB_FIRST))
        .read_all(pool)
        .expect("lob read after recovery");
    let mut stats: Vec<Vec<u8>> = HeapFile::open(FileId(STATS_PAGE))
        .scan(pool.clone())
        .map(|r| r.expect("stats scan after recovery").1)
        .collect();
    stats.sort();
    Model {
        recs,
        tree,
        lob,
        stats,
    }
}

/// Run the workload, one write transaction per `apply_unit`, stopping at the
/// first error (the injected crash). Returns how many units' commits
/// returned `Ok` — with sequential execution those are exactly units
/// `0..n` — and whether a further unit was in flight.
fn run_workload(sm: &StorageManager) -> (usize, bool) {
    for i in 0..N_UNITS {
        let r = (|| -> StorageResult<()> {
            let txn = sm.begin_txn()?;
            apply_unit(sm.pool(), i)?;
            txn.commit().map(|_| ())
        })();
        if r.is_err() {
            return (i, true);
        }
        if i == 2 {
            // A mid-workload checkpoint: exercises image logging, volume
            // sync, and segment GC under crash injection. An interrupted
            // checkpoint changes no logical state.
            if sm.checkpoint().is_err() {
                return (i + 1, false);
            }
        }
    }
    (N_UNITS, false)
}

/// Crash after `after_writes` durable writes (optionally tearing the
/// crashing write), reopen, and check the recovered state.
fn crash_and_check(tag: &str, plan: CrashPlan) {
    let dir = temp_dir(tag);
    let (sm, _) = open(&dir);
    failpoint::arm(plan);
    let (committed, interrupted) = run_workload(&sm);
    let fired = failpoint::crashed();
    failpoint::disarm();
    drop(sm);
    if !fired {
        assert_eq!(committed, N_UNITS, "no crash fired; workload must finish");
    }

    let (sm, report) = open(&dir);
    let got = snapshot(&sm);
    let want_committed = Model::after(committed);
    let matches = if got == want_committed {
        true
    } else if interrupted {
        // The in-flight unit's commit record may have become durable just
        // before the crash (commit() errored later): then the whole unit
        // survives — atomically.
        got == Model::after(committed + 1)
    } else {
        false
    };
    assert!(
        matches,
        "{tag}: after crash (plan {plan:?}, report {report:?}) state is neither \
         {committed} nor {} committed units:\n{got:?}",
        committed + 1
    );

    // Idempotence: recovering again (a crash *during* recovery means it
    // simply runs again on restart) reaches the same state.
    drop(sm);
    let (sm, _) = open(&dir);
    assert_eq!(snapshot(&sm), got, "{tag}: second recovery diverged");
    drop(sm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_at_every_point() {
    let _x = failpoint::exclusive();
    // Count the workload's durable writes on an uninstrumented run.
    let dir = temp_dir("count");
    let (sm, _) = open(&dir);
    failpoint::start_counting();
    let (committed, interrupted) = run_workload(&sm);
    let total = failpoint::writes_observed();
    failpoint::disarm();
    assert_eq!((committed, interrupted), (N_UNITS, false));
    assert_eq!(snapshot(&sm), Model::after(N_UNITS));
    assert!(total > 40, "workload too small to be interesting: {total}");
    drop(sm);
    let _ = std::fs::remove_dir_all(&dir);

    // Kill at every single write point, clean and torn.
    for n in 0..total {
        for torn in [false, true] {
            crash_and_check(
                "kill",
                CrashPlan {
                    after_writes: n,
                    torn,
                },
            );
        }
    }
}

#[test]
fn crash_during_recovery_is_idempotent() {
    let _x = failpoint::exclusive();
    // Set up a database that crashed mid-workload (torn, so recovery has
    // real page records to replay).
    let dir = temp_dir("double");
    let (sm, _) = open(&dir);
    failpoint::arm(CrashPlan {
        after_writes: 25,
        torn: true,
    });
    let (committed, interrupted) = run_workload(&sm);
    assert!(failpoint::crashed(), "plan must fire mid-workload");
    failpoint::disarm();
    drop(sm);

    // Count recovery's own durable writes.
    failpoint::start_counting();
    let (sm, report) = open(&dir);
    let rec_writes = failpoint::writes_observed();
    failpoint::disarm();
    assert!(
        report.pages_restored > 0,
        "fixture must give recovery work: {report:?}"
    );
    let want = snapshot(&sm);
    drop(sm);

    // Now crash recovery itself at every one of its write points (the
    // fixture's log is untouched by a failed recovery attempt only up to
    // truncation, which is itself idempotent), then let it finish.
    for n in 0..rec_writes {
        for torn in [false, true] {
            failpoint::arm(CrashPlan {
                after_writes: n,
                torn,
            });
            let attempt = StorageManager::open(&dir.join("vol.db"), 64, Durability::Fsync);
            let fired = failpoint::crashed();
            failpoint::disarm();
            drop(attempt);
            assert!(fired || n >= rec_writes, "plan at {n} should fire");
            let (sm, _) = open(&dir);
            assert_eq!(
                snapshot(&sm),
                want,
                "crash at recovery write {n} (torn={torn}) diverged"
            );
            drop(sm);
        }
    }
    // The original workload postcondition still holds.
    let (sm, _) = open(&dir);
    let got = snapshot(&sm);
    assert!(
        got == Model::after(committed) || (interrupted && got == Model::after(committed + 1)),
        "final state inconsistent: {got:?}"
    );
    drop(sm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rows written by the two interleaved transactions of
/// [`interleaved_txn_commits_are_atomic`].
const T1_ROWS: [&[u8]; 2] = [b"t1-a", b"t1-b"];
const T2_ROWS: [&[u8]; 2] = [b"t2-a", b"t2-b"];

/// Run two write transactions whose commits interleave: T2 queues on the
/// writer gate before T1 commits, so with group commit T2's appends
/// overlap T1's commit fsync. Returns whether each commit returned `Ok`.
fn run_interleaved(sm: &StorageManager) -> [bool; 2] {
    let heap = HeapFile::open(FileId(HEAP_PAGE));
    // T1 opens and writes first; if the crash lands here, T2 never runs.
    let txn1 = match (|| -> StorageResult<exodus_storage::WriteTxn> {
        let txn = sm.begin_txn()?;
        for row in T1_ROWS {
            heap.insert_at(sm.pool(), row, txn.ts())?;
        }
        Ok(txn)
    })() {
        Ok(txn) => txn,
        Err(_) => return [false, false],
    };
    // T2 announces, then blocks on the writer gate T1 still holds; the
    // short sleep makes "announced" mean "blocked" in practice. (If the
    // scheduler defeats it the run degrades to serial commits, which
    // the postcondition also covers.)
    let (queued_tx, queued_rx) = std::sync::mpsc::channel::<()>();
    let sm2 = sm.clone();
    let t2 = std::thread::spawn(move || -> bool {
        queued_tx.send(()).ok();
        (|| -> StorageResult<()> {
            let txn = sm2.begin_txn()?;
            let heap = HeapFile::open(FileId(HEAP_PAGE));
            for row in T2_ROWS {
                heap.insert_at(sm2.pool(), row, txn.ts())?;
            }
            txn.commit().map(|_| ())
        })()
        .is_ok()
    });
    queued_rx.recv().expect("t2 announces before begin_txn");
    std::thread::sleep(std::time::Duration::from_millis(10));
    let ok1 = txn1.commit().is_ok();
    let ok2 = t2.join().expect("t2 thread");
    [ok1, ok2]
}

/// Sorted live rows of the test heap after recovery.
fn surviving_rows(sm: &StorageManager) -> Vec<Vec<u8>> {
    let mut rows: Vec<Vec<u8>> = HeapFile::open(FileId(HEAP_PAGE))
        .scan(sm.pool().clone())
        .map(|r| r.expect("scan after recovery").1)
        .collect();
    rows.sort();
    rows
}

/// Whether every row of `set` is in `rows` (`true`) or none is (`false`);
/// panics on a partial overlap — the atomicity violation under test.
fn all_or_nothing(tag: &str, rows: &[Vec<u8>], set: &[&[u8]]) -> bool {
    let n = set.iter().filter(|r| rows.iter().any(|g| g == *r)).count();
    assert!(
        n == 0 || n == set.len(),
        "{tag}: transaction torn apart: {n}/{} of {set:?} survived ({rows:?})",
        set.len()
    );
    n == set.len()
}

/// Satellite: crash at every durable-write point while two transactions
/// commit interleaved (T2 appending during T1's commit fsync — the
/// group-commit overlap), reopen, and assert per-transaction atomicity:
/// each transaction survives in full or not at all, T2 never survives
/// without T1 (log order), and a commit that returned `Ok` is durable.
#[test]
fn interleaved_txn_commits_are_atomic() {
    let _x = failpoint::exclusive();

    let setup = |dir: &Path| -> StorageManager {
        let (sm, _) = open(dir);
        let txn = sm.begin_txn().expect("setup txn");
        let f = HeapFile::create(sm.pool()).expect("create heap");
        assert_eq!(f, FileId(HEAP_PAGE), "allocation order changed");
        txn.commit().expect("setup commit");
        sm
    };

    // Size the kill loop on an uninstrumented run.
    let dir = temp_dir("ileave-count");
    let sm = setup(&dir);
    failpoint::start_counting();
    let oks = run_interleaved(&sm);
    let total = failpoint::writes_observed();
    failpoint::disarm();
    assert_eq!(oks, [true, true], "uninstrumented run must commit both");
    assert_eq!(
        surviving_rows(&sm).len(),
        4,
        "both transactions' rows visible"
    );
    drop(sm);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(total > 10, "workload too small to be interesting: {total}");

    for n in 0..total {
        for torn in [false, true] {
            let tag = format!("ileave n={n} torn={torn}");
            let dir = temp_dir("ileave");
            let sm = setup(&dir);
            failpoint::arm(CrashPlan {
                after_writes: n,
                torn,
            });
            let [ok1, ok2] = run_interleaved(&sm);
            failpoint::disarm();
            drop(sm);

            let (sm, report) = open(&dir);
            let rows = surviving_rows(&sm);
            let t1 = all_or_nothing(&tag, &rows, &T1_ROWS);
            let t2 = all_or_nothing(&tag, &rows, &T2_ROWS);
            assert!(
                !t2 || t1,
                "{tag}: T2 survived without T1 (log order broken); report {report:?}"
            );
            // An acknowledged commit is durable. (The converse is fine:
            // a commit whose fsync crashed may still have reached the
            // disk, or been made durable by the other's batch.)
            assert!(!ok1 || t1, "{tag}: T1 acknowledged but lost");
            assert!(!ok2 || t2, "{tag}: T2 acknowledged but lost");
            drop(sm);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Torn-write protection for page deltas: checkpoint; change page P and
/// commit (P's first change since the checkpoint, so a full image); write
/// P back torn; change P again and commit (a delta over the first
/// change); crash and reopen. Recovery must rebuild P from the image and
/// the delta alone — had the first change been logged as a delta, the
/// only base for it would be the torn volume page, which recovery refuses
/// as corrupt instead.
#[test]
fn torn_write_back_after_checkpoint_is_repaired_by_the_first_image() {
    use exodus_storage::page::{verify_page_checksum, PAGE_SIZE};
    use exodus_storage::wal::{DeltaBase, WalRecord};
    let _x = failpoint::exclusive();
    let dir = temp_dir("torn-writeback");
    let (sm, _) = open(&dir);
    let page_no = {
        let txn = sm.begin_txn().unwrap();
        let page = sm.pool().allocate().unwrap();
        page.with_write(|buf| buf[100..200].fill(0x11));
        txn.commit().unwrap();
        page.page_no()
    };
    sm.checkpoint().unwrap();
    let wal = sm.pool().wal().unwrap().clone();
    let after_checkpoint = wal.appended_lsn();
    let change = |at: usize, byte: u8| {
        let txn = sm.begin_txn().unwrap();
        sm.pool()
            .pin(page_no)
            .unwrap()
            .with_write(|buf| buf[at] = byte);
        txn.commit().unwrap();
    };
    change(6_000, 0xA1);

    // Write P back torn — its first half reaches the volume, not the
    // second with the change — and let the process go on.
    failpoint::arm(CrashPlan {
        after_writes: 0,
        torn: true,
    });
    assert!(sm.flush().is_err(), "the write-back must tear");
    assert!(failpoint::crashed());
    failpoint::disarm();

    change(1_000, 0xB2);
    let (entries, _) = wal.read_entries_after(after_checkpoint, 100).unwrap();
    let shapes: Vec<&str> = entries
        .iter()
        .filter(|e| e.rec.page_no() == Some(page_no))
        .map(|e| match e.rec {
            WalRecord::PageImage { .. } => "image",
            WalRecord::PageDelta {
                base: DeltaBase::Prior,
                ..
            } => "delta",
            _ => "other",
        })
        .collect();
    assert_eq!(shapes, ["image", "delta"], "the log this test is about");
    drop(sm); // crash: the pool's copy of P dies; the volume's is torn
    let volume = std::fs::read(dir.join("vol.db")).unwrap();
    let at = page_no as usize * PAGE_SIZE;
    assert!(
        !verify_page_checksum(&volume[at..at + PAGE_SIZE]),
        "the volume's copy of P must be torn for this test to mean anything"
    );

    let (sm, report) = open(&dir);
    assert!(report.pages_restored > 0, "{report:?}");
    let bytes = sm
        .pool()
        .pin(page_no)
        .expect("recovery rebuilt the torn page")
        .with_read(|buf| (buf[150], buf[6_000], buf[1_000]));
    assert_eq!(bytes, (0x11, 0xA1, 0xB2), "both changes survive");
    drop(sm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Random single-op units with a random crash point: the survivors must be
/// exactly the committed prefix of ops (with the in-flight op all-or-
/// nothing), replayed against a `BTreeMap` model.
#[test]
fn prop_random_dml_random_crash() {
    let _x = failpoint::exclusive();
    // Deterministic xorshift so failures reproduce.
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut rng = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    for case in 0..30 {
        let ops: Vec<(u8, i64)> = (0..(5 + rng() % 20))
            .map(|_| ((rng() % 3) as u8, (rng() % 40) as i64))
            .collect();
        let crash_at = rng() % 120;
        let torn = rng() % 2 == 0;

        let dir = temp_dir(&format!("prop-{case}"));
        let (sm, _) = open(&dir);
        // Setup unit: heap + btree at the usual deterministic pages.
        {
            let txn = sm.begin_txn().unwrap();
            let f = HeapFile::create(sm.pool()).unwrap();
            assert_eq!(f, FileId(HEAP_PAGE));
            let t = BTree::create(sm.pool()).unwrap();
            assert_eq!(t.root(), BTREE_ROOT);
            txn.commit().unwrap();
        }
        failpoint::arm(CrashPlan {
            after_writes: crash_at,
            torn,
        });
        // Apply ops, each in its own unit; track the committed model and
        // the model with the in-flight op also applied.
        let heap = HeapFile::open(FileId(HEAP_PAGE));
        let tree = BTree::open(BTREE_ROOT);
        let mut committed: std::collections::BTreeMap<i64, u64> = Default::default();
        let mut next = committed.clone();
        let mut in_flight = false;
        for &(kind, k) in &ops {
            next = committed.clone();
            let r = (|| -> StorageResult<()> {
                let txn = sm.begin_txn()?;
                match kind {
                    0 | 1 => {
                        if let std::collections::btree_map::Entry::Vacant(e) = next.entry(k) {
                            heap.insert(sm.pool(), format!("k{k}").as_bytes())?;
                            tree.insert(sm.pool(), &ikey(k), k as u64, true)?;
                            e.insert(k as u64);
                        }
                    }
                    _ => {
                        if next.remove(&k).is_some() {
                            let (rid, _) = heap
                                .scan(sm.pool().clone())
                                .map(|r| r.unwrap())
                                .find(|(_, d)| d == format!("k{k}").as_bytes())
                                .expect("committed key has a record");
                            heap.delete(sm.pool(), rid)?;
                            tree.delete(sm.pool(), &ikey(k), k as u64)?;
                        }
                    }
                }
                txn.commit().map(|_| ())
            })();
            match r {
                Ok(()) => committed = next.clone(),
                Err(_) => {
                    in_flight = true;
                    break;
                }
            }
        }
        failpoint::disarm();
        drop(sm);

        let (sm, _) = open(&dir);
        let mut got: Vec<Vec<u8>> = heap.scan(sm.pool().clone()).map(|r| r.unwrap().1).collect();
        got.sort();
        let tree_keys: Vec<u64> = tree
            .scan(sm.pool().clone(), Bound::Unbounded, Bound::Unbounded)
            .map(|r| r.unwrap().1)
            .collect();
        let render = |m: &std::collections::BTreeMap<i64, u64>| {
            let mut v: Vec<Vec<u8>> = m.keys().map(|k| format!("k{k}").into_bytes()).collect();
            v.sort();
            v
        };
        let ok = got == render(&committed) || (in_flight && got == render(&next));
        assert!(
            ok,
            "case {case} (crash_at {crash_at} torn {torn} ops {ops:?}):\n\
             got {got:?}\nwant {:?} (or +1 op)",
            render(&committed)
        );
        // Heap and index agree (catalog/data consistency).
        let mut heap_keys: Vec<u64> = got
            .iter()
            .map(|r| {
                std::str::from_utf8(r)
                    .unwrap()
                    .strip_prefix('k')
                    .unwrap()
                    .parse::<u64>()
                    .unwrap()
            })
            .collect();
        heap_keys.sort_unstable();
        let mut tk = tree_keys.clone();
        tk.sort_unstable();
        assert_eq!(heap_keys, tk, "case {case}: heap and B+-tree diverged");
        drop(sm);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A unit that died mid-commit stays dead in every later life. Life 1
/// creates heaps H and G, then unit 2 inserts `ghost` into G and is killed
/// at its commit record: its `Begin` and page records are in the log,
/// its `Commit` is not. Life 2 commits two units into H only. Neither a
/// replica replaying from LSN 1 nor recovery after a crash may read
/// `ghost` — which they did while every life numbered its units from 1,
/// so life 2's second unit committed the dead unit's id.
#[test]
fn a_unit_killed_mid_commit_stays_dead_after_a_restart() {
    use exodus_storage::wal::WalRecord;
    use exodus_storage::{ReplicaApplier, ReplicationSource};
    let _x = failpoint::exclusive();
    let dir = temp_dir("unit-ids");
    let rows = |sm: &StorageManager, file: FileId| -> Vec<Vec<u8>> {
        sm.scan(file).map(|r| r.unwrap().1).collect()
    };

    // Life 1.
    let (sm, _) = open(&dir);
    let txn = sm.begin_txn().unwrap();
    let (h, g) = (sm.create_file().unwrap(), sm.create_file().unwrap());
    sm.insert(h, b"base-h").unwrap();
    sm.insert(g, b"base-g").unwrap();
    txn.commit().unwrap();
    let wal = sm.pool().wal().unwrap().clone();
    let before_ghost = wal.appended_lsn();
    let txn = sm.begin_txn().unwrap();
    sm.insert(g, b"ghost").unwrap();
    // Let the page records through; kill the commit record.
    failpoint::arm(CrashPlan {
        after_writes: 2,
        torn: false,
    });
    assert!(txn.commit().is_err(), "the commit append must be killed");
    assert!(failpoint::crashed());
    failpoint::disarm();
    drop((wal, sm));

    // Life 2: recovery rolls the dead unit back; two units write H only.
    let (sm, report) = open(&dir);
    assert_eq!(report.units_rolled_back, 1, "{report:?}");
    let wal = sm.pool().wal().unwrap();
    let (dead, _) = wal.read_entries_after(before_ghost, 100).unwrap();
    let shapes: Vec<bool> = dead.iter().map(|e| e.rec.page_no().is_some()).collect();
    assert_eq!(shapes, [false, true, true], "Begin and two page records");
    assert!(matches!(dead[0].rec, WalRecord::Begin));
    assert_eq!(rows(&sm, g), [b"base-g".to_vec()]);
    for row in [b"h-1", b"h-2"] {
        let txn = sm.begin_txn().unwrap();
        sm.insert(h, row).unwrap();
        txn.commit().unwrap();
    }

    // A replica bootstrapped from LSN 1 reads G as the primary does.
    let src = ReplicationSource::new(sm.pool().wal().unwrap().clone()).unwrap();
    let (rsm, _) = StorageManager::open(&dir.join("replica.db"), 64, Durability::Fsync).unwrap();
    let mut app = ReplicaApplier::new(rsm.clone()).unwrap();
    loop {
        let (entries, _) = src.fetch(app.applied_lsn(), 512).unwrap();
        if entries.is_empty() {
            break;
        }
        app.ingest(&entries).unwrap();
    }
    assert_eq!(
        rows(&rsm, g),
        [b"base-g".to_vec()],
        "the replica redid a dead unit"
    );
    assert_eq!(rows(&rsm, h).len(), 3);
    drop((app, rsm, src));

    // Crash without a checkpoint: recovery still rolls the dead unit back.
    drop(sm);
    let (sm, report) = open(&dir);
    assert_eq!(report.units_rolled_back, 1, "{report:?}");
    assert_eq!(
        rows(&sm, g),
        [b"base-g".to_vec()],
        "recovery redid a dead unit"
    );
    assert_eq!(rows(&sm, h).len(), 3);
    drop(sm);
    let _ = std::fs::remove_dir_all(&dir);
}
