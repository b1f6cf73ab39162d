//! Crash recovery: analysis and redo over the write-ahead log.
//!
//! [`recover`] is run against the volume *file* before the volume, buffer
//! pool, or [`crate::wal::Wal`] are constructed (see
//! [`crate::StorageManager::open`]). It is a pure function of the log and
//! volume contents, so running it twice — or crashing halfway through and
//! running it again — converges to the same state (idempotent recovery).
//!
//! The state machine:
//!
//! 1. **Analysis.** Scan every segment, CRC-validating frames and the LSN
//!    chain. The scan yields the valid prefix of the log; a torn final
//!    record (or garbage tail) marks the end and is measured for
//!    truncation. Within the prefix, find the last
//!    [`WalRecord::Checkpoint`] and collect, after it: the set of
//!    committed units (those whose [`WalRecord::Commit`] made it into the
//!    valid prefix) and their page records ([`WalRecord::PageImage`],
//!    [`WalRecord::PageDelta`]).
//! 2. **Redo.** Rebuild each page those records name by redoing them in
//!    LSN order through [`WalRecord::redo`], page by page, then write it
//!    once with the last record's LSN and a fresh checksum. The first
//!    record after the checkpoint for every page is an image or a
//!    zero-based delta, so a page is rebuilt without reading the volume:
//!    a *torn page* — half-written by a crash mid-write-back — is simply
//!    overwritten (per-page checksums exist to *detect* such pages on
//!    later reads). A prior-based delta with no earlier record for its
//!    page is refused as corrupt, never laid over volume bytes.
//!    Uncommitted units contribute nothing: that is the statement
//!    rollback. The volume file is padded to a whole number of pages
//!    first (a torn `allocate_page` can leave a ragged tail).
//! 3. **Truncate.** Physically truncate the torn tail and delete any
//!    segments past it, then fsync, so the next [`crate::wal::Wal::open`]
//!    appends from a clean end.
//!
//! There is no undo pass: the no-steal buffer-pool rule guarantees no
//! uncommitted page ever reached the volume, so there is nothing to undo.

use std::collections::HashSet;
use std::fs::OpenOptions;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::{StorageError, StorageResult};
use crate::failpoint::{self, WriteAction};
use crate::page::{self, PAGE_SIZE};
use crate::wal::{self, WalEntry, WalRecord};

/// What a recovery pass did. Returned by [`recover`] and surfaced through
/// [`crate::StorageManager::open`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid log records scanned (from the whole log, not only the
    /// replayed suffix).
    pub records_scanned: u64,
    /// Committed units whose images were replayed.
    pub units_replayed: u64,
    /// Units that had begun but not committed — rolled back by omission.
    pub units_rolled_back: u64,
    /// Pages rebuilt from the log and written to the volume.
    pub pages_restored: u64,
    /// Whether the log ended in a torn/corrupt record.
    pub torn_tail: bool,
    /// Bytes of invalid log tail truncated.
    pub bytes_truncated: u64,
    /// LSN of the last valid record (0 for an empty log).
    pub last_lsn: u64,
    /// Highest commit timestamp made durable before the crash: the max
    /// over every [`WalRecord::Commit`]'s `ts` and every
    /// [`WalRecord::Checkpoint`]'s `clock` in the valid prefix. The
    /// transaction manager's commit clock restarts from here.
    pub clock: u64,
}

impl RecoveryReport {
    /// Whether recovery found anything to do at all.
    pub fn was_clean(&self) -> bool {
        self.pages_restored == 0 && self.units_rolled_back == 0 && !self.torn_tail
    }

    /// Register this report's figures on `reg` under the
    /// `storage_recovery_` prefix. Recovery runs once, before the rest of
    /// the system comes up, so the values are constants captured at
    /// registration time.
    pub fn register_metrics(&self, reg: &exodus_obs::MetricsRegistry) {
        let fields: [(&str, &str, u64); 5] = [
            (
                "storage_recovery_records_scanned",
                "Valid log records scanned by the last recovery pass.",
                self.records_scanned,
            ),
            (
                "storage_recovery_units_replayed",
                "Committed units replayed by the last recovery pass.",
                self.units_replayed,
            ),
            (
                "storage_recovery_units_rolled_back",
                "Uncommitted units rolled back by the last recovery pass.",
                self.units_rolled_back,
            ),
            (
                "storage_recovery_pages_restored",
                "Pages rebuilt from the log and written to the volume by the last recovery pass.",
                self.pages_restored,
            ),
            (
                "storage_recovery_bytes_truncated",
                "Bytes of invalid log tail truncated by the last recovery pass.",
                self.bytes_truncated,
            ),
        ];
        for (name, help, value) in fields {
            reg.counter_fn(name, help, move || value);
        }
    }
}

/// Run analysis + redo + tail truncation. `wal_dir` may not exist yet (a
/// fresh database): recovery is then a no-op. See the module docs for the
/// protocol.
pub fn recover(wal_dir: &Path, volume_path: &Path) -> StorageResult<RecoveryReport> {
    let (entries, tail) = wal::read_log(wal_dir)?;
    let mut report = RecoveryReport {
        records_scanned: entries.len() as u64,
        torn_tail: tail.torn,
        bytes_truncated: tail.torn_bytes,
        last_lsn: tail.last_lsn,
        ..Default::default()
    };

    // The commit clock survives anywhere in the valid prefix: commits
    // carry their timestamp, checkpoints carry the clock so segment GC
    // (which drops pre-checkpoint segments) cannot lose it.
    report.clock = entries
        .iter()
        .map(|e| match e.rec {
            WalRecord::Commit { ts } => ts,
            WalRecord::Checkpoint { clock } => clock,
            _ => 0,
        })
        .max()
        .unwrap_or(0);

    // Analysis: the units begun and committed after the last checkpoint.
    let after_checkpoint = entries
        .iter()
        .rposition(|e| matches!(e.rec, WalRecord::Checkpoint { .. }))
        .map_or(0, |i| i + 1);
    let live = &entries[after_checkpoint..];
    let mut begun: HashSet<u64> = HashSet::new();
    let mut committed: HashSet<u64> = HashSet::new();
    for e in live {
        match e.rec {
            WalRecord::Begin => {
                begun.insert(e.unit);
            }
            WalRecord::Commit { .. } => {
                committed.insert(e.unit);
            }
            _ => {}
        }
    }
    report.units_replayed = committed.len() as u64;
    report.units_rolled_back = begun.difference(&committed).count() as u64;

    // Redo: committed units' page records, grouped by page (a stable sort
    // keeps each page's records in LSN order).
    let mut redo: Vec<(u64, &WalEntry)> = live
        .iter()
        .filter(|e| committed.contains(&e.unit))
        .filter_map(|e| Some((e.rec.page_no()?, e)))
        .collect();
    redo.sort_by_key(|&(page_no, _)| page_no);
    if !redo.is_empty() || volume_path.exists() {
        let mut vol = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(volume_path)?;
        // A torn allocate_page can leave a ragged tail; square it off
        // (even with nothing to replay — the volume must reopen cleanly).
        let len = vol.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            let padded = len.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64;
            vol.set_len(padded)?;
            vol.sync_data()?;
        }
        let mut buf = vec![0u8; PAGE_SIZE];
        for records in redo.chunk_by(|a, b| a.0 == b.0) {
            for (i, (_, e)) in records.iter().enumerate() {
                e.rec.redo(&mut buf, e.lsn, i > 0)?;
            }
            let page_no = records[0].0;
            page::stamp_page_checksum(&mut buf);
            match failpoint::check_write("recovery.write_page", PAGE_SIZE)? {
                WriteAction::Full => {
                    vol.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))?;
                    vol.write_all(&buf)?;
                }
                WriteAction::Torn(n) => {
                    vol.seek(SeekFrom::Start(page_no * PAGE_SIZE as u64))?;
                    vol.write_all(&buf[..n])?;
                    // Writing half a page may also leave a ragged file end.
                    let len = vol.metadata()?.len();
                    if len % PAGE_SIZE as u64 != 0 {
                        vol.set_len(len.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64)?;
                    }
                    return Err(StorageError::Io(std::io::Error::other(
                        "failpoint: torn recovery write",
                    )));
                }
            }
            report.pages_restored += 1;
        }
        // Restored pages may land past the old end with a gap: the gap
        // pages read as zero, i.e. PageKind::Free — harmless.
        vol.sync_data()?;
    }

    // Truncate the invalid tail so the reopened log ends cleanly.
    if tail.torn {
        truncate_tail(wal_dir, tail.valid_end)?;
    }
    Ok(report)
}

/// Physically remove everything past the last valid frame: truncate the
/// segment holding it and delete any later segments. With no valid end
/// (the very first segment's header was torn), all segments go.
fn truncate_tail(wal_dir: &Path, valid_end: Option<(u64, u64)>) -> StorageResult<()> {
    for (seq, path) in wal::list_segments(wal_dir)? {
        match valid_end {
            Some((keep_seq, keep_off)) if seq == keep_seq => {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(keep_off)?;
                f.sync_data()?;
            }
            Some((keep_seq, _)) if seq < keep_seq => {}
            _ => std::fs::remove_file(&path)?,
        }
    }
    Ok(())
}
