//! Page deltas, the redo payload of the log: which record a commit logs
//! for a changed page, how a delta redoes, and how the record decoder
//! treats hostile bytes.

use exodus_storage::crc::crc32;
use exodus_storage::page::PAGE_SIZE;
use exodus_storage::wal::{decode_frames, encode_frame, DeltaBase, WalEntry, WalRecord};
use exodus_storage::{Durability, StorageError, StorageManager};
use proptest::prelude::*;

/// The page LSN and checksum: header bytes no redo record carries.
const UNLOGGED: std::ops::Range<usize> = 24..36;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("exodus-delta-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// `bytes` with the unlogged header fields zeroed, for comparing pages.
fn logged(bytes: &[u8]) -> Vec<u8> {
    let mut v = bytes.to_vec();
    v[UNLOGGED].fill(0);
    v
}

/// The shape of each page record `sm` logged after `from`, in log order.
fn logged_since(sm: &StorageManager, from: u64) -> Vec<String> {
    let wal = sm.pool().wal().unwrap();
    let (entries, _) = wal.read_entries_after(from, 100).unwrap();
    entries
        .iter()
        .filter_map(|e| match &e.rec {
            WalRecord::PageImage { .. } => Some("image".to_string()),
            WalRecord::PageDelta { base, runs, .. } => {
                Some(format!("{base:?} delta x{}", runs.len()))
            }
            _ => None,
        })
        .collect()
}

/// Run `change` on page `page_no` in one write transaction; the page records
/// its commit logged.
fn commit(sm: &StorageManager, page_no: u64, change: impl FnOnce(&mut [u8])) -> Vec<String> {
    let from = sm.pool().wal().unwrap().appended_lsn();
    let txn = sm.begin_txn().unwrap();
    sm.pool().pin(page_no).unwrap().with_write(change);
    txn.commit().unwrap();
    logged_since(sm, from)
}

/// Each rule of the commit path, end to end: a fresh page is a zero-based
/// delta; a page with no before-image is an image; a later change is a
/// delta of merged runs over the prior state; unchanged bytes log
/// nothing; the first change after a checkpoint — and after a restart —
/// is a full image. Recovery rebuilds the page from those records alone.
#[test]
fn a_commit_logs_the_smallest_record_that_stands_alone() {
    let dir = temp_dir("rules");
    let path = dir.join("vol.db");
    let (sm, _) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    let from = sm.pool().wal().unwrap().appended_lsn();
    let txn = sm.begin_txn().unwrap();
    let fresh = sm.pool().allocate().unwrap();
    fresh.with_write(|p| p[4_000] = 1);
    let unwritten = sm.pool().allocate().unwrap();
    txn.commit().unwrap();
    assert_eq!(
        logged_since(&sm, from),
        ["Zero delta x1", "image"],
        "a fresh page is a delta over zeros; a page never written has no \
         before-image"
    );
    let page_no = unwritten.page_no();
    drop((fresh, unwritten));

    let mut model = vec![0u8; PAGE_SIZE];
    let fill = |p: &mut [u8]| p[100..200].fill(0x11);
    assert_eq!(
        commit(&sm, page_no, fill),
        ["Zero delta x1"],
        "an all-zero before-image needs no earlier record"
    );
    fill(&mut model);
    let edit = |p: &mut [u8]| {
        p[3] ^= 1; // header bytes outside the LSN and checksum are logged
        p[100..110].fill(0xEE);
        p[113] = 0xEE; // three equal bytes after the run: merged into it
        p[UNLOGGED.start] ^= 1; // the LSN field is never logged
        p[PAGE_SIZE - 1] = 9;
    };
    assert_eq!(commit(&sm, page_no, edit), ["Prior delta x3"]);
    edit(&mut model);
    assert!(
        commit(&sm, page_no, |_| {}).is_empty(),
        "unchanged bytes log nothing"
    );
    sm.checkpoint().unwrap();
    assert_eq!(commit(&sm, page_no, |p| p[5_000] = 7), ["image"]);
    assert_eq!(commit(&sm, page_no, |p| p[5_001] = 8), ["Prior delta x1"]);
    model[5_000..5_002].copy_from_slice(&[7, 8]);
    drop(sm); // crash: nothing written back since the checkpoint

    let (sm, report) = StorageManager::open(&path, 32, Durability::Fsync).unwrap();
    assert_eq!(report.pages_restored, 1, "{report:?}");
    let page = sm.pool().pin(page_no).unwrap().with_read(logged);
    assert_eq!(page, logged(&model), "recovery rebuilt the page");
    assert_eq!(
        commit(&sm, page_no, |p| p[6_000] = 9),
        ["image"],
        "a restart forgets which pages have redo records"
    );
    drop(sm);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_prior_delta_never_builds_on_unvouched_bytes() {
    let rec = WalRecord::PageDelta {
        page_no: 3,
        base: DeltaBase::Prior,
        runs: vec![(64, vec![1])],
    };
    let mut page = vec![0u8; PAGE_SIZE];
    assert!(matches!(
        rec.redo(&mut page, 1, false),
        Err(StorageError::Corrupt(_))
    ));
    assert_eq!(page, vec![0u8; PAGE_SIZE], "nothing applied");
}

/// A frame around raw record bytes, with a valid length and CRC: what
/// reaches the record decoder.
fn frame_of(record: &[u8]) -> Vec<u8> {
    let mut body = 5u64.to_le_bytes().to_vec();
    body.extend_from_slice(&1u64.to_le_bytes());
    body.extend_from_slice(record);
    let mut frame = (body.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// Hostile bytes that pass the CRC: a run past the page, into the LSN or
/// checksum field, empty, overlapping or out of order, an unknown base,
/// or a page number whose byte offset overflows, is refused.
#[test]
fn hostile_delta_records_are_refused() {
    const TAG_PAGE_DELTA: u8 = 6;
    let record = |page_no: u64, base: u8, runs: &[(u16, u16)]| {
        let mut rec = vec![TAG_PAGE_DELTA];
        rec.extend_from_slice(&page_no.to_le_bytes());
        rec.push(base);
        for &(at, len) in runs {
            rec.extend_from_slice(&at.to_le_bytes());
            rec.extend_from_slice(&len.to_le_bytes());
            rec.extend(std::iter::repeat_n(0xAB, len as usize));
        }
        decode_frames(&frame_of(&rec))
    };
    let ok = record(9, 1, &[(64, 8), (100, 1)]).expect("a well-formed delta");
    assert!(matches!(ok[0].rec, WalRecord::PageDelta { .. }));
    let page = PAGE_SIZE as u16;
    let lsn = UNLOGGED.start as u16;
    for runs in [
        &[(page - 1, 2)][..],            // past the end of the page
        &[(page, 1)],                    // starts past the end
        &[(lsn, 1)],                     // into the LSN field
        &[(lsn - 1, 2)],                 // straddles into it
        &[(UNLOGGED.end as u16 - 1, 1)], // the checksum's last byte
        &[(100, 0)],                     // an empty run
        &[(100, 8), (104, 1)],           // overlapping runs
        &[(200, 1), (100, 1)],           // descending runs
    ] {
        assert!(record(9, 1, runs).is_err(), "{runs:?}");
    }
    assert!(record(9, 2, &[]).is_err(), "unknown base");
    assert!(record(u64::MAX, 0, &[]).is_err(), "page offset overflows");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// A delta survives its frame codec and redoes to exactly its runs;
    /// every truncation and random flips of its frame are refused, never
    /// a panic.
    #[test]
    fn prop_delta_frames_round_trip_and_refuse_mangling(
        gaps in proptest::collection::vec((1usize..400, 1usize..64, any::<u8>()), 1..24),
        base_zero in any::<bool>(),
        flips in proptest::collection::vec((0usize..1 << 20, 1u8..=255), 1..16),
    ) {
        // Runs laid end to end after the header, separated by gaps.
        let mut runs = Vec::new();
        let mut at = UNLOGGED.end;
        for (gap, len, byte) in gaps {
            at += gap;
            if at + len > PAGE_SIZE {
                break;
            }
            runs.push((at as u16, vec![byte; len]));
            at += len;
        }
        prop_assume!(!runs.is_empty());
        let base = if base_zero { DeltaBase::Zero } else { DeltaBase::Prior };
        let rec = WalRecord::PageDelta { page_no: 2, base, runs: runs.clone() };
        let mut frame = Vec::new();
        encode_frame(&WalEntry { lsn: 5, unit: 1, rec: rec.clone() }, &mut frame);
        let decoded = decode_frames(&frame).unwrap();
        prop_assert_eq!(&decoded[0].rec, &rec);

        let mut page = vec![0x5Au8; PAGE_SIZE];
        let mut want = if base_zero { vec![0u8; PAGE_SIZE] } else { page.clone() };
        for (at, bytes) in &runs {
            want[*at as usize..*at as usize + bytes.len()].copy_from_slice(bytes);
        }
        rec.redo(&mut page, 77, true).unwrap();
        prop_assert_eq!(logged(&page), logged(&want));
        prop_assert_eq!(&page[UNLOGGED.start..UNLOGGED.start + 8], &77u64.to_le_bytes());

        for cut in 1..frame.len() {
            prop_assert!(decode_frames(&frame[..cut]).is_err());
        }
        for (at, x) in flips {
            let mut bad = frame.clone();
            bad[at % frame.len()] ^= x;
            prop_assert!(decode_frames(&bad).is_err());
        }
    }
}
