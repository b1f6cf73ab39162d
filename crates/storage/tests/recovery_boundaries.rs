//! Recovery boundary conditions that need no fault injection: empty logs,
//! segment rollover, log-less reopen, durability-mode transitions, and
//! checkpoint-driven segment GC.

use std::path::{Path, PathBuf};

use exodus_storage::heap::HeapFile;
use exodus_storage::wal::{DeltaBase, WalRecord};
use exodus_storage::{Durability, StorageError, StorageManager, StorageResult};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("exodus-rb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn wal_segments(dir: &Path) -> Vec<PathBuf> {
    let wal_dir = dir.join("vol.db.wal");
    if !wal_dir.exists() {
        return Vec::new();
    }
    let mut v: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    v.sort();
    v
}

/// Insert `n` records, each in its own write transaction.
fn put_units(sm: &StorageManager, from: usize, n: usize) -> StorageResult<exodus_storage::FileId> {
    let txn = sm.begin_txn()?;
    let file = sm.create_file()?;
    txn.commit()?;
    for i in from..from + n {
        let txn = sm.begin_txn()?;
        sm.insert(file, format!("rec-{i}").as_bytes())?;
        txn.commit()?;
    }
    Ok(file)
}

fn read_all(sm: &StorageManager, file: exodus_storage::FileId) -> Vec<String> {
    let mut v: Vec<String> = sm
        .scan(file)
        .map(|r| String::from_utf8(r.unwrap().1).unwrap())
        .collect();
    v.sort();
    v
}

fn expect(from: usize, n: usize) -> Vec<String> {
    let mut v: Vec<String> = (from..from + n).map(|i| format!("rec-{i}")).collect();
    v.sort();
    v
}

#[test]
fn empty_log_recovery_is_clean() {
    let dir = temp_dir("empty");
    let (_, report) = StorageManager::open(&dir.join("vol.db"), 32, Durability::Fsync).unwrap();
    assert!(report.was_clean());
    assert_eq!(report.records_scanned, 0);
    assert_eq!(report.last_lsn, 0);
    // Reopen over an existing-but-empty log: still clean.
    let (_, report) = StorageManager::open(&dir.join("vol.db"), 32, Durability::Fsync).unwrap();
    assert!(report.was_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn old_log_format_version_is_refused_loudly() {
    let dir = temp_dir("oldfmt");
    let path = dir.join("vol.db");
    let (sm, _) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    put_units(&sm, 0, 5).unwrap();
    drop(sm);
    // Stamp the first segment as log-format v1, v2 — the image-only
    // format before page deltas — then v3, whose B+-tree pages held
    // their entries in the page body (bytes 4..8 of the header). Opening
    // must fail with an explicit version error, not treat the segment as
    // a torn tail and truncate it.
    let seg = wal_segments(&dir).into_iter().next().expect("a segment");
    for old in [1u32, 2, 3] {
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[4..8].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&seg, &bytes).unwrap();
        let err = StorageManager::open(&path, 32, Durability::Fsync)
            .err()
            .expect("old-format log must refuse to open");
        assert!(
            matches!(
                err,
                StorageError::UnsupportedLogVersion { found, expected: 4 } if found == old
            ),
            "unexpected error: {err}"
        );
        assert!(err
            .to_string()
            .contains(&format!("log-format version {old}")));
        assert_eq!(
            std::fs::read(&seg).unwrap(),
            bytes,
            "a refused v{old} segment is left untouched, not truncated as torn"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_units_survive_reopen_without_flush() {
    for durability in [Durability::Buffered, Durability::Fsync] {
        let dir = temp_dir(&format!("noflush-{durability:?}"));
        let path = dir.join("vol.db");
        let (sm, _) = StorageManager::open(&path, 32, durability).unwrap();
        let file = put_units(&sm, 0, 20).unwrap();
        // No flush, no checkpoint: dirty pages die with the pool. The
        // committed page records in the log are the only durable copy.
        drop(sm);
        let (sm, report) = StorageManager::open(&path, 32, durability).unwrap();
        assert!(report.pages_restored > 0, "log must have done the work");
        assert_eq!(read_all(&sm, file), expect(0, 20), "{durability:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn segment_rollover_across_reopen() {
    let dir = temp_dir("rollover");
    let path = dir.join("vol.db");
    // Tiny segments: a few units' page deltas roll the log over.
    let (sm, _) = StorageManager::open_with_config(&path, 32, Durability::Fsync, 1024).unwrap();
    let file = put_units(&sm, 0, 30).unwrap();
    drop(sm);
    assert!(
        wal_segments(&dir).len() > 3,
        "expected several segments: {:?}",
        wal_segments(&dir)
    );
    let (sm, _) = StorageManager::open_with_config(&path, 32, Durability::Fsync, 1024).unwrap();
    assert_eq!(read_all(&sm, file), expect(0, 30));
    // Keep writing across the reopened segment boundary, then reopen again.
    for i in 30..40 {
        let txn = sm.begin_txn().unwrap();
        sm.insert(file, format!("rec-{i}").as_bytes()).unwrap();
        txn.commit().unwrap();
    }
    drop(sm);
    let (sm, _) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    assert_eq!(read_all(&sm, file), expect(0, 40));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_prunes_segments() {
    let dir = temp_dir("gc");
    let path = dir.join("vol.db");
    let (sm, _) = StorageManager::open_with_config(&path, 64, Durability::Fsync, 1024).unwrap();
    let file = put_units(&sm, 0, 30).unwrap();
    let before = wal_segments(&dir).len();
    assert!(before > 3, "fixture needs several segments: {before}");
    sm.checkpoint().unwrap();
    let after = wal_segments(&dir).len();
    assert!(
        after < before,
        "checkpoint must prune ({before} -> {after})"
    );
    // Everything still readable, and still readable after a log-only
    // reopen (the pruned segments were genuinely dead).
    assert_eq!(read_all(&sm, file), expect(0, 30));
    drop(sm);
    let (sm, report) = StorageManager::open(&path, 64, Durability::Fsync).unwrap();
    assert!(
        report.was_clean(),
        "post-checkpoint reopen should be clean: {report:?}"
    );
    assert_eq!(read_all(&sm, file), expect(0, 30));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durability_none_recovers_then_drops_the_log() {
    let dir = temp_dir("tonone");
    let path = dir.join("vol.db");
    let (sm, _) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    let file = put_units(&sm, 0, 10).unwrap();
    drop(sm); // dirty pages unflushed; only the log has them
              // Opening with Durability::None must still run recovery once, then
              // delete the log so it can never replay over unlogged writes.
    let (sm, report) = StorageManager::open(&path, 32, Durability::None).unwrap();
    assert!(report.pages_restored > 0);
    assert_eq!(read_all(&sm, file), expect(0, 10));
    assert!(wal_segments(&dir).is_empty(), "log must be gone");
    assert_eq!(sm.durability(), Durability::None);
    // Unlogged writes persist via plain flush.
    sm.insert(file, b"rec-10").unwrap();
    sm.flush().unwrap();
    drop(sm);
    let (sm, report) = StorageManager::open(&path, 32, Durability::None).unwrap();
    assert!(report.was_clean());
    assert_eq!(read_all(&sm, file), expect(0, 11));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Abort restores a page's before-image; the next commit on that page
/// logs a delta over the restored bytes (the aborted transaction logged
/// nothing but its `Begin`), and recovery rebuilds exactly the committed
/// rows from the log alone.
#[test]
fn abort_then_commit_on_the_same_page() {
    let dir = temp_dir("abortcommit");
    let path = dir.join("vol.db");
    let (sm, _) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    let txn = sm.begin_txn().unwrap();
    let heap = HeapFile::open(HeapFile::create(sm.pool()).unwrap());
    let kept = heap.insert_at(sm.pool(), b"kept", txn.ts()).unwrap();
    txn.commit().unwrap();
    let page_bytes = || sm.pool().pin(kept.page).unwrap().with_read(|b| b.to_vec());
    let committed_page = page_bytes();
    let wal = sm.pool().wal().unwrap().clone();
    let before_abort = wal.appended_lsn();

    let txn = sm.begin_txn().unwrap();
    heap.insert_at(sm.pool(), b"aborted", txn.ts()).unwrap();
    txn.abort().unwrap();
    assert_eq!(page_bytes(), committed_page, "abort restores the page");

    let txn = sm.begin_txn().unwrap();
    let rid = heap.insert_at(sm.pool(), b"committed", txn.ts()).unwrap();
    assert_eq!(
        rid.page, kept.page,
        "the fixture commits on the aborted page"
    );
    txn.commit().unwrap();

    let (entries, _) = wal.read_entries_after(before_abort, 100).unwrap();
    let aborted_unit = entries[0].unit;
    assert!(matches!(entries[0].rec, WalRecord::Begin));
    assert!(
        entries[1..].iter().all(|e| e.unit != aborted_unit),
        "an aborted transaction logs no page: {entries:?}"
    );
    assert!(
        entries.iter().any(|e| matches!(
            e.rec,
            WalRecord::PageDelta { page_no, base: DeltaBase::Prior, .. } if page_no == kept.page
        )),
        "the commit after the abort logs a delta on the page: {entries:?}"
    );
    drop(sm); // crash: nothing written back

    let (sm, _) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    assert_eq!(
        read_all(&sm, heap.id()),
        vec!["committed".to_string(), "kept".to_string()]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A write transaction dropped without `commit` aborts: the running
/// store and recovery both lose its rows.
#[test]
fn txn_drop_aborts() {
    let dir = temp_dir("dropabort");
    let path = dir.join("vol.db");
    let (sm, _) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    let file = put_units(&sm, 0, 1).unwrap();
    {
        let _txn = sm.begin_txn().unwrap();
        sm.insert(file, b"dropped").unwrap();
        // Guard dropped here: abort-on-drop.
    }
    assert_eq!(read_all(&sm, file), expect(0, 1));
    drop(sm);
    let (sm, _) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    assert_eq!(read_all(&sm, file), expect(0, 1));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// No-steal: the pages an open write transaction changed never reach the
/// volume before its commit record — not when a small pool evicts to make
/// room, not on a flush, and not after the transaction aborts.
#[test]
fn no_steal_keeps_uncommitted_bytes_off_the_volume() {
    use exodus_storage::page::PAGE_SIZE;
    const MARK: [u8; 16] = [0xEE; 16];
    let dir = temp_dir("nosteal");
    let path = dir.join("vol.db");
    let (sm, _) = StorageManager::open(&path, 8, Durability::Fsync).unwrap();
    // Three pools' worth of committed pages, all on the volume.
    let pages: Vec<u64> = (0..24)
        .map(|_| {
            let txn = sm.begin_txn().unwrap();
            let page = sm.pool().allocate().unwrap();
            page.with_write(|b| b[100] = 1);
            txn.commit().unwrap();
            page.page_no()
        })
        .collect();
    sm.checkpoint().unwrap();
    let (changed, others) = pages.split_at(4);
    let marked_on_volume = || {
        let volume = std::fs::read(&path).unwrap();
        changed
            .iter()
            .filter(|&&p| {
                let at = p as usize * PAGE_SIZE + 200;
                volume[at..at + MARK.len()] == MARK
            })
            .count()
    };
    let read_others = || {
        for &p in others {
            sm.pool().pin(p).unwrap().with_read(|_| ());
        }
    };

    let txn = sm.begin_txn().unwrap();
    for &p in changed {
        let page = sm.pool().pin(p).unwrap();
        page.with_write(|b| b[200..200 + MARK.len()].copy_from_slice(&MARK));
    }
    let evictions = sm.pool().stats().evictions;
    read_others();
    assert!(
        sm.pool().stats().evictions >= evictions + others.len() as u64,
        "the reads must cycle the pool"
    );
    assert_eq!(marked_on_volume(), 0, "eviction stole an uncommitted page");
    sm.flush().unwrap();
    assert_eq!(marked_on_volume(), 0, "a flush stole an uncommitted page");

    txn.abort().unwrap();
    read_others();
    sm.flush().unwrap();
    assert_eq!(
        marked_on_volume(),
        0,
        "the aborted bytes reached the volume"
    );
    for &p in changed {
        let bytes = sm.pool().pin(p).unwrap().with_read(|b| (b[100], b[200]));
        assert_eq!(bytes, (1, 0), "abort restored page {p}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
