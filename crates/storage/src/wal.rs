//! Write-ahead log: append-only, segmented, checksummed.
//!
//! The log is a directory of segment files (`wal-NNNNNNNNNN.seg`). Each
//! segment starts with a 16-byte header (magic, format version, LSN of the
//! segment's first record) and then holds a sequence of frames:
//!
//! ```text
//! | len: u32 | crc: u32 | lsn: u64 | unit: u64 | record bytes ... |
//! |<-------- frame header ------->|<-------- crc-covered -------->|
//! ```
//!
//! `len` counts the crc-covered bytes. LSNs number records contiguously
//! from 1 across segments; a reader verifies both the CRC and the LSN
//! chain, so a torn tail (a frame half-written at a crash) is detected and
//! truncated rather than replayed.
//!
//! # The recovery protocol (redo-only, no-steal)
//!
//! A *logged unit* is one write transaction ([`crate::WriteTxn`]) as the
//! log sees it: the storage-level unit of atomicity (the database layer
//! wraps each DML statement in one). The protocol:
//!
//! 1. [`crate::StorageManager::begin_txn`] claims the writer gate, so one
//!    unit is open at a time, and appends the unit's [`WalRecord::Begin`]. The buffer pool keeps each page's
//!    before-image from the transaction's first write to it; those pages
//!    are its write set and may **not** be written back to the volume
//!    while it is open (the no-steal rule — uncommitted bytes never reach
//!    the volume).
//! 2. At commit, every page the unit dirtied is logged as the byte runs
//!    that differ from its before-image ([`WalRecord::PageDelta`]), or as
//!    a full [`WalRecord::PageImage`] where a delta cannot stand alone:
//!    the page's first change since the last checkpoint (torn-write
//!    protection — recovery never builds on volume bytes) or a page with
//!    no before-image. A page whose bytes did not change logs nothing.
//!    Then [`WalRecord::Commit`], then the log is flushed per the
//!    [`Durability`] level.
//!
//! Recovery ([`crate::recovery`]) and replicas ([`crate::repl`]) redo the
//! page records of committed units in LSN order through one function,
//! [`WalRecord::redo`]; uncommitted units contribute nothing, which is
//! exactly statement rollback. [`WalRecord::Checkpoint`] marks a point
//! where the volume held everything earlier; segments wholly before it are
//! deleted.
//!
//! A delta is right only if its before-image is the page's last logged
//! state, so every page write happens inside a write transaction (the
//! buffer pool asserts it). The flush rule ("no dirty page leaves the pool
//! ahead of its log record") is enforced by the buffer pool calling
//! [`Wal::flush_up_to`] with the page's LSN before any volume write.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use exodus_obs::{Histogram, COUNT_BUCKETS, LATENCY_BUCKETS_NS};
use parking_lot::Mutex;

use crate::crc::crc32;
use crate::error::{StorageError, StorageResult};
use crate::failpoint::{self, WriteAction};
use crate::page::{self, PAGE_SIZE, UNLOGGED};

/// A log sequence number. Records are numbered contiguously from 1; 0
/// means "no record" (e.g. the page LSN of a never-logged page).
pub type Lsn = u64;

/// How hard committed work is pinned down.
///
/// See DESIGN.md §11 for the full crash-consistency contract table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// No write-ahead log at all. Fastest; an interrupted process may
    /// corrupt a file-backed volume. The only choice for in-memory
    /// volumes, where there is nothing to recover.
    #[default]
    None,
    /// Log records are written to the segment file but not fsynced at
    /// commit. Committed statements survive a *process* crash (the OS
    /// still holds the bytes) but may be lost on power failure.
    Buffered,
    /// The log is fsynced before a commit is acknowledged. Committed
    /// statements survive power loss.
    Fsync,
}

/// What the runs of a [`WalRecord::PageDelta`] are laid over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaBase {
    /// A page of zeros: the before-image was all zeros (a fresh page), so
    /// redo needs no earlier state of the page.
    Zero = 0,
    /// The page as its previous redo record left it.
    Prior = 1,
}

/// One log record. The frame envelope (LSN + unit id) travels outside the
/// record, so variants only carry operation payloads.
///
/// `PageImage` and `PageDelta` are the redo payload ([`WalRecord::redo`]);
/// the others delimit units and checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A logged unit opened.
    Begin,
    /// A logged unit committed; its page records precede this record.
    /// `ts` is the commit timestamp its transaction published, so recovery
    /// can restore the commit clock.
    Commit {
        /// Commit timestamp published by this unit.
        ts: u64,
    },
    /// Everything with a smaller LSN is on the volume. `clock` snapshots
    /// the commit clock at checkpoint time so segment GC cannot lose it.
    Checkpoint {
        /// Commit clock at checkpoint time.
        clock: u64,
    },
    /// Full after-image of one page.
    PageImage {
        /// The page the image belongs to.
        page_no: u64,
        /// Exactly [`PAGE_SIZE`] bytes.
        image: Vec<u8>,
    },
    /// The bytes of one page a unit changed: `runs` of `(offset, bytes)`
    /// laid over `base`, ascending, never overlapping, and outside the
    /// page's LSN and checksum fields.
    PageDelta {
        /// The page the runs belong to.
        page_no: u64,
        /// What the runs are laid over.
        base: DeltaBase,
        /// `(offset, bytes)` pairs, in page order.
        runs: Vec<(u16, Vec<u8>)>,
    },
    /// A heap-file record was inserted. Descriptive only: nothing redoes
    /// it, and the engine no longer writes it.
    HeapInsert {
        /// Header page of the heap file.
        file: u64,
        /// Packed [`crate::RecordId`] of the new record.
        rid: u64,
        /// Record length in bytes.
        len: u32,
    },
}

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_CHECKPOINT: u8 = 3;
const TAG_PAGE_IMAGE: u8 = 4;
const TAG_HEAP_INSERT: u8 = 5;
const TAG_PAGE_DELTA: u8 = 6;

/// Bytes of a delta run's `offset: u16 | len: u16` header.
const RUN_HEADER: usize = 4;
/// The largest page number whose byte offset in a volume file fits a u64.
const MAX_PAGE_NO: u64 = u64::MAX / PAGE_SIZE as u64;

fn le_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_le_bytes(a)
}

impl WalRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let mut u64s = |tag: u8, vals: &[u64]| {
            out.push(tag);
            for v in vals {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        match self {
            WalRecord::Begin => u64s(TAG_BEGIN, &[]),
            WalRecord::Commit { ts } => u64s(TAG_COMMIT, &[*ts]),
            WalRecord::Checkpoint { clock } => u64s(TAG_CHECKPOINT, &[*clock]),
            WalRecord::PageImage { page_no, image } => {
                debug_assert_eq!(image.len(), PAGE_SIZE);
                u64s(TAG_PAGE_IMAGE, &[*page_no]);
                out.extend_from_slice(image);
            }
            WalRecord::PageDelta {
                page_no,
                base,
                runs,
            } => {
                u64s(TAG_PAGE_DELTA, &[*page_no]);
                out.push(*base as u8);
                for (offset, bytes) in runs {
                    out.extend_from_slice(&offset.to_le_bytes());
                    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
            }
            WalRecord::HeapInsert { file, rid, len } => {
                u64s(TAG_HEAP_INSERT, &[*file, *rid, *len as u64])
            }
        }
    }

    fn decode(buf: &[u8]) -> Option<WalRecord> {
        let (&tag, rest) = buf.split_first()?;
        let u64s = |want: usize| -> Option<Vec<u64>> {
            (rest.len() == want * 8).then(|| rest.chunks_exact(8).map(le_u64).collect())
        };
        let page_no = || Some(le_u64(rest.get(..8)?)).filter(|&p| p <= MAX_PAGE_NO);
        Some(match tag {
            TAG_BEGIN if rest.is_empty() => WalRecord::Begin,
            TAG_COMMIT => WalRecord::Commit { ts: u64s(1)?[0] },
            TAG_CHECKPOINT => WalRecord::Checkpoint { clock: u64s(1)?[0] },
            TAG_PAGE_IMAGE if rest.len() == 8 + PAGE_SIZE => WalRecord::PageImage {
                page_no: page_no()?,
                image: rest[8..].to_vec(),
            },
            TAG_PAGE_DELTA => WalRecord::PageDelta {
                page_no: page_no()?,
                base: match *rest.get(8)? {
                    0 => DeltaBase::Zero,
                    1 => DeltaBase::Prior,
                    _ => return None,
                },
                runs: decode_runs(&rest[9..])?,
            },
            TAG_HEAP_INSERT => {
                let v = u64s(3)?;
                WalRecord::HeapInsert {
                    file: v[0],
                    rid: v[1],
                    len: v[2] as u32,
                }
            }
            _ => return None,
        })
    }

    /// The page a redo record rebuilds; `None` for records that carry no
    /// page bytes.
    pub fn page_no(&self) -> Option<u64> {
        match self {
            WalRecord::PageImage { page_no, .. } | WalRecord::PageDelta { page_no, .. } => {
                Some(*page_no)
            }
            _ => None,
        }
    }

    /// Redo this page record onto `page` and stamp `lsn` as its page LSN —
    /// the one redo path of recovery and replicas.
    ///
    /// `prior` says whether `page` holds the page as its previous redo
    /// record left it. When it does not (volume bytes, a fresh buffer),
    /// only an image or a [`DeltaBase::Zero`] delta can rebuild the page: a
    /// [`DeltaBase::Prior`] delta is refused as corrupt rather than laid
    /// over bytes nothing vouches for.
    pub fn redo(&self, page: &mut [u8], lsn: Lsn, prior: bool) -> StorageResult<()> {
        match self {
            WalRecord::PageImage { image, .. } => page.copy_from_slice(image),
            WalRecord::PageDelta {
                page_no,
                base,
                runs,
            } => {
                match base {
                    DeltaBase::Zero => page.fill(0),
                    DeltaBase::Prior if !prior => {
                        return Err(StorageError::Corrupt(format!(
                            "page {page_no}: a delta with no earlier record for the page \
                             since the last checkpoint"
                        )))
                    }
                    DeltaBase::Prior => {}
                }
                for (offset, bytes) in runs {
                    let at = *offset as usize;
                    page[at..at + bytes.len()].copy_from_slice(bytes);
                }
            }
            _ => {
                return Err(StorageError::Corrupt(
                    "redo of a record with no page".into(),
                ))
            }
        }
        page::set_page_lsn(page, lsn);
        Ok(())
    }
}

/// Decode delta runs, refusing any that is empty, out of page order, past
/// [`PAGE_SIZE`], or into the page's LSN and checksum fields.
fn decode_runs(mut rest: &[u8]) -> Option<Vec<(u16, Vec<u8>)>> {
    let mut runs = Vec::new();
    let mut floor = 0;
    while !rest.is_empty() {
        let (header, tail) = rest.split_at_checked(RUN_HEADER)?;
        let at = u16::from_le_bytes([header[0], header[1]]) as usize;
        let len = u16::from_le_bytes([header[2], header[3]]) as usize;
        let end = at + len;
        if len == 0 || at < floor || end > PAGE_SIZE || (at < UNLOGGED.end && end > UNLOGGED.start)
        {
            return None;
        }
        let (bytes, tail) = tail.split_at_checked(len)?;
        runs.push((at as u16, bytes.to_vec()));
        floor = end;
        rest = tail;
    }
    Some(runs)
}

/// The redo record for one page a unit dirtied, or `None` when its bytes
/// did not change. `before` is the page's before-image from the unit's
/// first write to it; `prior` says whether the page has a committed redo
/// record since the last checkpoint, which a [`DeltaBase::Prior`] delta
/// builds on. Where a delta cannot stand alone the full image is logged.
///
/// A delta is always smaller than the image: runs closer than a run
/// header are merged, so headers never cost more than the equal bytes
/// between runs, and the twelve unlogged header bytes pay for the rest.
pub(crate) fn page_record(
    page_no: u64,
    before: Option<&[u8]>,
    after: &[u8],
    prior: bool,
) -> Option<WalRecord> {
    let image = || WalRecord::PageImage {
        page_no,
        image: after.to_vec(),
    };
    let Some(before) = before else {
        return Some(image());
    };
    let runs = diff_runs(before, after);
    if runs.is_empty() {
        return None;
    }
    let zero = [0..UNLOGGED.start, UNLOGGED.end..PAGE_SIZE]
        .into_iter()
        .all(|r| before[r].iter().all(|&b| b == 0));
    let base = match (zero, prior) {
        (true, _) => DeltaBase::Zero,
        (false, true) => DeltaBase::Prior,
        (false, false) => return Some(image()),
    };
    Some(WalRecord::PageDelta {
        page_no,
        base,
        runs,
    })
}

/// The byte runs where `after` differs from `before`, outside the page's
/// LSN and checksum fields. Runs no more than a run header apart are
/// merged: the equal bytes between them cost no more than a second header.
fn diff_runs(before: &[u8], after: &[u8]) -> Vec<(u16, Vec<u8>)> {
    let mut runs = Vec::new();
    for region in [0..UNLOGGED.start, UNLOGGED.end..PAGE_SIZE] {
        let mut at = region.start;
        while let Some(start) =
            first_diff(&before[at..region.end], &after[at..region.end]).map(|d| at + d)
        {
            let mut end = start + 1;
            let mut probe = end;
            while probe < region.end && probe - end <= RUN_HEADER {
                if before[probe] != after[probe] {
                    end = probe + 1;
                }
                probe += 1;
            }
            runs.push((start as u16, after[start..end].to_vec()));
            at = probe;
        }
    }
    runs
}

/// Offset of the first byte where `a` and `b` differ. Compares 64-byte
/// blocks as slices (a memcmp) before looking at single bytes.
fn first_diff(a: &[u8], b: &[u8]) -> Option<usize> {
    const BLOCK: usize = 64;
    let mut at = 0;
    while at < a.len() {
        let end = (at + BLOCK).min(a.len());
        if a[at..end] != b[at..end] {
            return (at..end).find(|&i| a[i] != b[i]);
        }
        at = end;
    }
    None
}

/// Magic bytes opening every segment file.
const SEG_MAGIC: [u8; 4] = *b"XWAL";
/// Log format version.
///
/// * **v1** — pre-MVCC: `Commit`/`Checkpoint` carried no payload and
///   heap records had no version header.
/// * **v2** — MVCC: `Commit { ts }` / `Checkpoint { clock }` carry a
///   u64 timestamp, and every heap record travels with a 16-byte
///   `(begin_ts, end_ts)` header (which also changes the page images).
/// * **v3** — page deltas: commits log `PageDelta` runs against the
///   before-image, and recovery needs each page's first record after a
///   checkpoint to be an image or a zero-based delta. The descriptive
///   heap/B+-tree/LOB records of v2 are gone.
/// * **v4** — B+-tree nodes are slotted pages (a dense, key-ordered slot
///   directory in the page header, not a `count:u16` and entries in the
///   body), which changes the page images and deltas a log carries.
///
/// An older log cannot be read by this build (its records fail decode and
/// would read as a torn tail, silently truncating committed data), so a
/// segment with another version is refused with
/// [`StorageError::UnsupportedLogVersion`] instead of treated as torn.
/// There is no migration; the volume carries no separate stamp, so the
/// WAL segment header is the format gate.
const SEG_VERSION: u32 = 4;
/// Bytes of the segment header: magic, version, first LSN.
pub(crate) const SEG_HEADER: usize = 16;
/// Default segment size before rollover.
pub const DEFAULT_SEGMENT_BYTES: u64 = 4 * 1024 * 1024;
/// Bytes of the frame header (`len` + `crc`).
const FRAME_HEADER: usize = 8;
/// Bytes of a frame body before its record: `lsn | unit`.
const FRAME_ENVELOPE: usize = 16;
/// The largest frame body a reader accepts: the envelope plus the largest
/// record, a page image (a delta is logged only when smaller).
const MAX_FRAME_BODY: usize = FRAME_ENVELOPE + 1 + 8 + PAGE_SIZE;

fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:010}.seg"))
}

/// List segment files in `dir`, ordered by sequence number.
pub(crate) fn list_segments(dir: &Path) -> StorageResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".seg"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((seq, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// One decoded log entry.
#[derive(Debug, Clone)]
pub struct WalEntry {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The logged unit it belongs to (0 = outside any unit).
    pub unit: u64,
    /// The record itself.
    pub rec: WalRecord,
}

/// Append `lsn | unit | rec` to `out` as one frame: `len | crc | body`.
fn put_frame(lsn: Lsn, unit: u64, rec: &WalRecord, out: &mut Vec<u8>) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    out.extend_from_slice(&lsn.to_le_bytes());
    out.extend_from_slice(&unit.to_le_bytes());
    rec.encode_into(out);
    let body = start + FRAME_HEADER;
    let len = (out.len() - body) as u32;
    let crc = crc32(&out[body..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..body].copy_from_slice(&crc.to_le_bytes());
}

/// One step of a [`FrameReader`].
enum Frame<'a> {
    /// A frame whose length and CRC check out; `bytes` is its size on disk
    /// or on the wire.
    Valid {
        lsn: Lsn,
        unit: u64,
        rec: &'a [u8],
        bytes: u64,
    },
    /// The stream ended exactly at a frame boundary.
    End,
    /// Why the next frame is unreadable: a short header or body, an
    /// impossible length, or a CRC mismatch.
    Bad(&'static str),
}

/// Reads frames one at a time from a byte stream into one reused body
/// buffer — the one frame parser behind log scans, replication reads and
/// wire batches. Callers decide what a [`Frame::Bad`] means: a torn tail
/// to stop at, or an error.
struct FrameReader<R> {
    src: R,
    body: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    fn new(src: R) -> Self {
        FrameReader {
            src,
            body: Vec::new(),
        }
    }

    fn next(&mut self) -> StorageResult<Frame<'_>> {
        self.body.clear();
        match (&mut self.src)
            .take(FRAME_HEADER as u64)
            .read_to_end(&mut self.body)?
        {
            0 => return Ok(Frame::End),
            FRAME_HEADER => {}
            _ => return Ok(Frame::Bad("short frame header")),
        }
        // `len: u32 | crc: u32`, both little-endian: one u64.
        let header = le_u64(&self.body);
        let (len, crc) = ((header & 0xFFFF_FFFF) as usize, (header >> 32) as u32);
        if !(FRAME_ENVELOPE + 1..=MAX_FRAME_BODY).contains(&len) {
            return Ok(Frame::Bad("frame length out of range"));
        }
        self.body.clear();
        if (&mut self.src)
            .take(len as u64)
            .read_to_end(&mut self.body)?
            < len
        {
            return Ok(Frame::Bad("short frame body"));
        }
        if crc32(&self.body) != crc {
            return Ok(Frame::Bad("frame failed its CRC"));
        }
        let (envelope, rec) = self.body.split_at(FRAME_ENVELOPE);
        Ok(Frame::Valid {
            lsn: le_u64(envelope),
            unit: le_u64(&envelope[8..]),
            rec,
            bytes: (FRAME_HEADER + len) as u64,
        })
    }
}

/// Open segment `path` for reading: its first LSN (`None` when the header
/// is torn) and a frame reader positioned just past the header. A segment
/// of another log-format version is refused.
fn open_segment(path: &Path) -> StorageResult<(Option<Lsn>, FrameReader<BufReader<File>>)> {
    let mut src = BufReader::new(File::open(path)?);
    let mut header = Vec::with_capacity(SEG_HEADER);
    (&mut src)
        .take(SEG_HEADER as u64)
        .read_to_end(&mut header)?;
    let intact = header.len() == SEG_HEADER && header[..4] == SEG_MAGIC;
    if intact {
        // An intact magic with the wrong version is old data, not a torn
        // header: refuse it loudly rather than truncate-and-recover past
        // committed work written by another format.
        let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if version != SEG_VERSION {
            return Err(StorageError::UnsupportedLogVersion {
                found: version,
                expected: SEG_VERSION,
            });
        }
    }
    Ok((intact.then(|| le_u64(&header[8..])), FrameReader::new(src)))
}

/// Where a log scan stopped.
#[derive(Debug, Default)]
pub(crate) struct LogTail {
    /// LSN of the last valid record (0 when the log is empty).
    pub last_lsn: Lsn,
    /// Whether the scan hit a torn/corrupt frame (vs clean end-of-log).
    pub torn: bool,
    /// Segment seq + byte offset just past the last valid frame, if any
    /// segment exists.
    pub valid_end: Option<(u64, u64)>,
    /// Bytes of invalid tail discovered (in the torn segment and beyond).
    pub torn_bytes: u64,
}

/// Scan every segment, handing each valid entry to `visit` in order, and
/// report where validity ends. Stops at the first torn frame; later
/// segments are counted as torn bytes wholesale.
pub(crate) fn scan_log(dir: &Path, mut visit: impl FnMut(WalEntry)) -> StorageResult<LogTail> {
    let mut tail = LogTail::default();
    let mut expect_lsn: Lsn = 0; // 0 = take the first segment's word for it
    for (seq, path) in list_segments(dir)? {
        let seg_len = std::fs::metadata(&path)?.len();
        if tail.torn {
            tail.torn_bytes += seg_len;
            continue;
        }
        let (first, mut frames) = open_segment(&path)?;
        // A segment created moments before the crash (header torn), or one
        // that does not continue the chain: end of the valid log.
        let Some(first) = first.filter(|&f| expect_lsn == 0 || f == expect_lsn) else {
            tail.torn = true;
            tail.torn_bytes += seg_len;
            continue;
        };
        expect_lsn = first;
        let mut pos = SEG_HEADER as u64;
        tail.valid_end = Some((seq, pos));
        while let Frame::Valid {
            lsn,
            unit,
            rec,
            bytes,
        } = frames.next()?
        {
            if lsn != expect_lsn {
                break;
            }
            let Some(rec) = WalRecord::decode(rec) else {
                break;
            };
            visit(WalEntry { lsn, unit, rec });
            tail.last_lsn = lsn;
            expect_lsn += 1;
            pos += bytes;
            tail.valid_end = Some((seq, pos));
        }
        if pos < seg_len {
            tail.torn = true;
            tail.torn_bytes += seg_len - pos;
        }
    }
    Ok(tail)
}

/// [`scan_log`], collecting the entries.
pub(crate) fn read_log(dir: &Path) -> StorageResult<(Vec<WalEntry>, LogTail)> {
    let mut entries = Vec::new();
    let tail = scan_log(dir, |e| entries.push(e))?;
    Ok((entries, tail))
}

/// Encode one entry as an on-disk/wire frame
/// (`len | crc | lsn | unit | record`), appending to `out`. The frame
/// bytes are identical to what [`Wal::append`] writes, so a replica can
/// verify the CRC chain it receives and a wire batch is just a slice of
/// the log.
pub fn encode_frame(entry: &WalEntry, out: &mut Vec<u8>) {
    put_frame(entry.lsn, entry.unit, &entry.rec, out);
}

/// Decode a concatenation of [`encode_frame`] frames. Strict, unlike a
/// log scan: a short frame, CRC mismatch or undecodable record is an
/// error, not a tail — a replication batch is never torn.
pub fn decode_frames(bytes: &[u8]) -> StorageResult<Vec<WalEntry>> {
    let mut frames = FrameReader::new(bytes);
    let mut entries = Vec::new();
    loop {
        match frames.next()? {
            Frame::Valid { lsn, unit, rec, .. } => {
                let rec = WalRecord::decode(rec).ok_or_else(|| {
                    StorageError::Corrupt(format!("undecodable replication record at lsn {lsn}"))
                })?;
                entries.push(WalEntry { lsn, unit, rec });
            }
            Frame::End => return Ok(entries),
            Frame::Bad(why) => {
                return Err(StorageError::Corrupt(format!("replication batch: {why}")))
            }
        }
    }
}

impl Wal {
    /// Read up to `max_records` committed-to-durability entries with LSNs
    /// strictly after `after_lsn`, straight from the segment files (the
    /// OS page cache makes freshly appended bytes visible), a frame at a
    /// time. Returns the entries and their frame bytes: nothing when
    /// `after_lsn` is already the durable frontier, and an error naming
    /// the pruned history when `after_lsn + 1` predates the earliest
    /// surviving segment (the subscriber must re-seed).
    pub fn read_entries_after(
        &self,
        after_lsn: Lsn,
        max_records: usize,
    ) -> StorageResult<(Vec<WalEntry>, u64)> {
        let durable = self.durable_lsn();
        let mut out = Vec::new();
        let mut frame_bytes = 0;
        if after_lsn >= durable || max_records == 0 {
            return Ok((out, frame_bytes));
        }
        let segs = list_segments(&self.dir)?;
        match segs.first().and_then(|(_, p)| segment_first_lsn(p)) {
            Some(first) if first <= after_lsn + 1 => {}
            Some(first) => {
                return Err(StorageError::Corrupt(format!(
                    "replication history pruned: need lsn {} but the log now starts at {first}",
                    after_lsn + 1
                )))
            }
            None => {
                return Err(StorageError::Corrupt(
                    "replication history pruned: no readable segment".into(),
                ))
            }
        }
        for window in 0..segs.len() {
            // Skip segments wholly before the cursor: dead if the next
            // segment starts at or before it (same test as GC).
            if let Some((_, next_path)) = segs.get(window + 1) {
                if segment_first_lsn(next_path).is_some_and(|first| first <= after_lsn + 1) {
                    continue;
                }
            }
            let (_, mut frames) = open_segment(&segs[window].1)?;
            // A bad frame is an in-flight append: stop at the ragged tail.
            while let Frame::Valid {
                lsn,
                unit,
                rec,
                bytes,
            } = frames.next()?
            {
                if lsn > durable || out.len() >= max_records {
                    return Ok((out, frame_bytes));
                }
                if lsn > after_lsn {
                    let rec = WalRecord::decode(rec).ok_or_else(|| {
                        StorageError::Corrupt(format!("undecodable log record at lsn {lsn}"))
                    })?;
                    out.push(WalEntry { lsn, unit, rec });
                    frame_bytes += bytes;
                }
            }
        }
        Ok((out, frame_bytes))
    }
}

struct WalInner {
    file: File,
    seg_seq: u64,
    seg_len: u64,
    /// LSN of the last appended record.
    appended_lsn: Lsn,
    /// LSN through which the log has been fsynced.
    synced_lsn: Lsn,
}

/// Process-local activity counters a [`Wal`] maintains on its hot paths.
/// Plain relaxed atomics and owned histograms — the metrics registry
/// reads them through callbacks at snapshot time (see `exodus-obs`).
pub struct WalMetrics {
    /// Records appended by this process.
    pub appends: AtomicU64,
    /// Frame bytes (header + body) appended by this process.
    pub append_bytes: AtomicU64,
    /// `sync_data` calls issued (group commits + segment rollovers).
    pub fsyncs: AtomicU64,
    /// Records made durable per fsync (the group-commit batch size).
    pub group_commit_records: Arc<Histogram>,
    /// Wall-clock `sync_data` latency.
    pub fsync_ns: Arc<Histogram>,
}

impl WalMetrics {
    fn new() -> WalMetrics {
        WalMetrics {
            appends: AtomicU64::new(0),
            append_bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            group_commit_records: Arc::new(Histogram::new(COUNT_BUCKETS)),
            fsync_ns: Arc::new(Histogram::new(LATENCY_BUCKETS_NS)),
        }
    }
}

/// The write-ahead log. See the module docs for the protocol.
pub struct Wal {
    dir: PathBuf,
    durability: Durability,
    segment_bytes: u64,
    inner: Mutex<WalInner>,
    /// Serializes group-flush leaders (see [`Wal::flush_up_to`]). Held
    /// across the fsync so queued committers wake to find their LSN
    /// already covered; *not* held while appending, so the next writer's
    /// records stream into the segment during the leader's disk wait.
    flush_lock: Mutex<()>,
    /// The id the next unit gets: past every unit id in the log, so no
    /// unit — committed or dead — shares its id with an earlier one.
    next_unit: AtomicU64,
    /// Pages with a committed redo record since the last checkpoint: their
    /// next change may be logged as a [`DeltaBase::Prior`] delta. Starts
    /// empty at open, so each page's first change after a restart logs an
    /// image too.
    redone: Mutex<HashSet<u64>>,
    /// Mirror of `inner.appended_lsn` readable without the append lock.
    appended: AtomicU64,
    /// Mirror of `inner.synced_lsn` readable without the append lock.
    synced: AtomicU64,
    /// Lowest LSN that must stay reachable in segment files
    /// ([`u64::MAX`] = no floor). Replication sources pin this so
    /// checkpoint GC cannot prune segments a subscriber still needs.
    gc_floor: AtomicU64,
    metrics: WalMetrics,
}

impl Wal {
    /// Open (or create) the log in `dir`, positioning appends after the
    /// last valid record. Run [`crate::recovery::recover`] first: this
    /// trusts the tail it finds. `durability` must not be
    /// [`Durability::None`] — a database without a log simply has no
    /// [`Wal`].
    pub fn open(dir: &Path, durability: Durability, segment_bytes: u64) -> StorageResult<Wal> {
        assert!(
            durability != Durability::None,
            "Durability::None means no WAL is constructed"
        );
        std::fs::create_dir_all(dir)?;
        let mut last_unit = 0;
        let tail = scan_log(dir, |e| last_unit = last_unit.max(e.unit))?;
        let (file, seg_seq, seg_len) = match tail.valid_end {
            Some((seq, off)) => {
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(segment_path(dir, seq))?;
                file.set_len(off)?; // drop any torn tail defensively
                file.seek(std::io::SeekFrom::Start(off))?;
                (file, seq, off)
            }
            None => {
                let (file, len) = new_segment(dir, 1, 1)?;
                (file, 1, len)
            }
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            durability,
            segment_bytes,
            inner: Mutex::new(WalInner {
                file,
                seg_seq,
                seg_len,
                appended_lsn: tail.last_lsn,
                synced_lsn: tail.last_lsn,
            }),
            flush_lock: Mutex::new(()),
            next_unit: AtomicU64::new(last_unit + 1),
            redone: Mutex::new(HashSet::new()),
            appended: AtomicU64::new(tail.last_lsn),
            synced: AtomicU64::new(tail.last_lsn),
            gc_floor: AtomicU64::new(u64::MAX),
            metrics: WalMetrics::new(),
        })
    }

    /// The log's activity counters (see [`WalMetrics`]).
    pub fn metrics(&self) -> &WalMetrics {
        &self.metrics
    }

    /// Fsync `inner`'s segment file, accounting the latency and the
    /// number of records the sync makes durable (the group-commit batch).
    fn sync_inner(&self, inner: &mut WalInner) -> StorageResult<()> {
        failpoint::check_write("wal.fsync", 0).map(|_| ())?;
        let batch = inner.appended_lsn - inner.synced_lsn;
        let start = Instant::now();
        inner.file.sync_data()?;
        self.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .fsync_ns
            .observe(start.elapsed().as_nanos() as u64);
        self.metrics.group_commit_records.observe(batch);
        inner.synced_lsn = inner.synced_lsn.max(inner.appended_lsn);
        self.synced.store(inner.synced_lsn, Ordering::Release);
        Ok(())
    }

    /// The configured durability level (never [`Durability::None`]).
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Append one record for `unit` (0 = outside any unit); returns its
    /// LSN. Buffered in the OS — call [`Wal::flush`] to make it durable.
    pub fn append(&self, unit: u64, rec: &WalRecord) -> StorageResult<Lsn> {
        let mut inner = self.inner.lock();
        let lsn = inner.appended_lsn + 1;
        let mut frame = Vec::with_capacity(64);
        put_frame(lsn, unit, rec, &mut frame);
        match failpoint::check_write("wal.append", frame.len())? {
            WriteAction::Full => inner.file.write_all(&frame)?,
            WriteAction::Torn(n) => {
                inner.file.write_all(&frame[..n])?;
                return Err(StorageError::Io(std::io::Error::other(
                    "failpoint: torn log append",
                )));
            }
        }
        inner.seg_len += frame.len() as u64;
        inner.appended_lsn = lsn;
        self.appended.store(lsn, Ordering::Release);
        self.metrics.appends.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .append_bytes
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        if inner.seg_len >= self.segment_bytes {
            if self.durability == Durability::Fsync {
                // The retiring segment may hold frames newer than the last
                // group fsync; pin them down before moving on, so
                // `flush_up_to` never needs to reach back across files.
                self.sync_inner(&mut inner)?;
            }
            let (file, len) = new_segment(&self.dir, inner.seg_seq + 1, lsn + 1)?;
            inner.file = file;
            inner.seg_seq += 1;
            inner.seg_len = len;
        }
        Ok(lsn)
    }

    /// Append a [`WalRecord::Checkpoint`]: from here on every page's next
    /// change logs a full image again, so recovery from this checkpoint
    /// never builds on volume bytes. Returns its LSN.
    pub fn append_checkpoint(&self, clock: u64) -> StorageResult<Lsn> {
        let lsn = self.append(0, &WalRecord::Checkpoint { clock })?;
        self.redone.lock().clear();
        Ok(lsn)
    }

    /// LSN of the last appended record.
    pub fn appended_lsn(&self) -> Lsn {
        self.appended.load(Ordering::Acquire)
    }

    /// LSN through which the log has been fsynced.
    pub fn synced_lsn(&self) -> Lsn {
        self.synced.load(Ordering::Acquire)
    }

    /// The LSN through which records are durable at this log's
    /// configured level — the shipping boundary for replication. Under
    /// [`Durability::Fsync`] only fsynced records qualify; under
    /// [`Durability::Buffered`] the level's contract is "survives a
    /// process crash", so everything appended qualifies.
    pub fn durable_lsn(&self) -> Lsn {
        match self.durability {
            Durability::Fsync => self.synced_lsn(),
            _ => self.appended_lsn(),
        }
    }

    /// Pin segment GC: segments containing records at or after `lsn`
    /// survive [`Wal::gc_segments`] regardless of checkpoint progress.
    /// `u64::MAX` lifts the floor.
    pub fn set_gc_floor(&self, lsn: Lsn) {
        self.gc_floor.store(lsn, Ordering::Release);
    }

    /// Sequence number of the segment currently being appended to
    /// (segments shipped/replayed so far, for the `repl_*` gauges).
    pub fn segment_seq(&self) -> u64 {
        self.inner.lock().seg_seq
    }

    /// The log directory (replication preload scans it via `scan_log`).
    pub(crate) fn dir(&self) -> &Path {
        &self.dir
    }

    /// Make everything appended so far durable per the configured level.
    /// Under [`Durability::Buffered`] this is a no-op (the OS holds the
    /// bytes; that survives a process crash, which is the level's
    /// contract). Under [`Durability::Fsync`] the segment is fsynced —
    /// once per distinct LSN, so a burst of committers shares one fsync
    /// (group commit).
    pub fn flush(&self) -> StorageResult<()> {
        let target = self.appended.load(Ordering::Acquire);
        self.flush_up_to(target)
    }

    /// Ensure the log is durable through `lsn`: the flush rule for page
    /// write-back ("no dirty page leaves the pool ahead of its log
    /// record") and the commit-durability wait, in one.
    ///
    /// Group commit: flushers serialize on a dedicated leader lock, not
    /// the append lock. The leader clones the segment's file handle and
    /// fsyncs *outside* the append lock, so concurrent committers keep
    /// appending during the disk wait; followers queued on the leader
    /// lock wake to find `synced_lsn` already past their target and
    /// return without ever touching the disk — a burst of committers
    /// costs one fsync.
    pub fn flush_up_to(&self, lsn: Lsn) -> StorageResult<()> {
        if self.durability != Durability::Fsync {
            return Ok(());
        }
        loop {
            // Fast path: an earlier leader's batch covered us.
            if self.inner.lock().synced_lsn >= lsn {
                return Ok(());
            }
            let _leader = self.flush_lock.lock();
            let (file, seg_seq, target, already) = {
                let inner = self.inner.lock();
                if inner.synced_lsn >= lsn {
                    return Ok(());
                }
                (
                    inner.file.try_clone()?,
                    inner.seg_seq,
                    inner.appended_lsn,
                    inner.synced_lsn,
                )
            };
            failpoint::check_write("wal.fsync", 0).map(|_| ())?;
            let start = Instant::now();
            file.sync_data()?;
            self.metrics.fsyncs.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .fsync_ns
                .observe(start.elapsed().as_nanos() as u64);
            self.metrics.group_commit_records.observe(target - already);
            let mut inner = self.inner.lock();
            if inner.seg_seq == seg_seq {
                inner.synced_lsn = inner.synced_lsn.max(target);
                self.synced.store(inner.synced_lsn, Ordering::Release);
            }
            // A rollover during our fsync already pinned the retired
            // segment down (and advanced `synced_lsn` itself); loop in
            // the unlikely case `lsn` still is not covered.
            if inner.synced_lsn >= lsn {
                return Ok(());
            }
        }
    }

    /// Open a logged unit: draw its id and append its
    /// [`WalRecord::Begin`]. Returns the unit id. The caller holds the
    /// writer gate, so units never interleave in the log.
    pub(crate) fn append_begin(&self) -> StorageResult<u64> {
        let id = self.next_unit.fetch_add(1, Ordering::Relaxed);
        self.append(id, &WalRecord::Begin)?;
        Ok(id)
    }

    /// Whether `page_no` has a committed redo record since the last
    /// checkpoint, so its next change may be a [`DeltaBase::Prior`] delta.
    pub(crate) fn has_redo_record(&self, page_no: u64) -> bool {
        self.redone.lock().contains(&page_no)
    }

    /// Note that `pages` now have a committed redo record (their unit's
    /// commit record is in the log), so their next change may be a delta.
    pub(crate) fn note_redone(&self, pages: impl IntoIterator<Item = u64>) {
        self.redone.lock().extend(pages);
    }

    /// Delete segments that end strictly before `keep_lsn` (every record
    /// the segment holds is older). Called after a checkpoint record with
    /// that LSN is durable: such segments can never be replayed again. The
    /// segment holding `keep_lsn` — and the current one — always survive.
    pub fn gc_segments(&self, keep_lsn: Lsn) -> StorageResult<()> {
        // A replication source may have pinned a lower floor: segments a
        // subscriber still needs survive the checkpoint's pruning.
        let keep_lsn = keep_lsn.min(self.gc_floor.load(Ordering::Acquire));
        let segs = list_segments(&self.dir)?;
        // A segment is dead if the *next* segment starts at or before
        // `keep_lsn` (so everything in it is < keep_lsn).
        for pair in segs.windows(2) {
            let (_, ref path) = pair[0];
            let (_, ref next_path) = pair[1];
            if segment_first_lsn(next_path).is_some_and(|first| first <= keep_lsn) {
                std::fs::remove_file(path)?;
            }
        }
        Ok(())
    }
}

/// Read the `first_lsn` field of a segment header, if it is intact.
fn segment_first_lsn(path: &Path) -> Option<Lsn> {
    open_segment(path).ok()?.0
}

/// Create segment file `seq`, writing its header.
fn new_segment(dir: &Path, seq: u64, first_lsn: Lsn) -> StorageResult<(File, u64)> {
    let mut header = Vec::with_capacity(SEG_HEADER);
    header.extend_from_slice(&SEG_MAGIC);
    header.extend_from_slice(&SEG_VERSION.to_le_bytes());
    header.extend_from_slice(&first_lsn.to_le_bytes());
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(segment_path(dir, seq))?;
    match failpoint::check_write("wal.segment", header.len())? {
        WriteAction::Full => file.write_all(&header)?,
        WriteAction::Torn(n) => {
            file.write_all(&header[..n])?;
            return Err(StorageError::Io(std::io::Error::other(
                "failpoint: torn segment header",
            )));
        }
    }
    Ok((file, SEG_HEADER as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("exodus-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn all_record_shapes() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin,
            WalRecord::Commit { ts: 42 },
            WalRecord::Checkpoint { clock: 17 },
            WalRecord::PageImage {
                page_no: 7,
                image: vec![0xA5; PAGE_SIZE],
            },
            WalRecord::PageDelta {
                page_no: 7,
                base: DeltaBase::Prior,
                runs: vec![(16, vec![1, 2]), (UNLOGGED.end as u16, vec![3])],
            },
            WalRecord::PageDelta {
                page_no: 8,
                base: DeltaBase::Zero,
                runs: vec![(PAGE_SIZE as u16 - 1, vec![9])],
            },
            WalRecord::HeapInsert {
                file: 1,
                rid: 99,
                len: 128,
            },
        ]
    }

    #[test]
    fn record_encoding_round_trips() {
        for rec in all_record_shapes() {
            let mut buf = Vec::new();
            rec.encode_into(&mut buf);
            assert_eq!(WalRecord::decode(&buf).as_ref(), Some(&rec), "{rec:?}");
        }
    }

    #[test]
    fn append_read_round_trip() {
        let dir = temp_dir("roundtrip");
        let wal = Wal::open(&dir, Durability::Buffered, DEFAULT_SEGMENT_BYTES).unwrap();
        let recs = all_record_shapes();
        for (i, rec) in recs.iter().enumerate() {
            let lsn = wal.append(i as u64, rec).unwrap();
            assert_eq!(lsn, i as u64 + 1);
        }
        wal.flush().unwrap();
        drop(wal);
        let (entries, tail) = read_log(&dir).unwrap();
        assert!(!tail.torn);
        assert_eq!(entries.len(), recs.len());
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.lsn, i as u64 + 1);
            assert_eq!(e.unit, i as u64);
            assert_eq!(e.rec, recs[i]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_rollover_and_reopen() {
        let dir = temp_dir("rollover");
        // Tiny segments: every couple of appends rolls over.
        let wal = Wal::open(&dir, Durability::Buffered, 128).unwrap();
        for i in 0..50u64 {
            wal.append(
                0,
                &WalRecord::HeapInsert {
                    file: i,
                    rid: i,
                    len: 1,
                },
            )
            .unwrap();
        }
        drop(wal);
        assert!(
            list_segments(&dir).unwrap().len() > 3,
            "expected several segments"
        );
        let (entries, tail) = read_log(&dir).unwrap();
        assert_eq!(entries.len(), 50);
        assert!(!tail.torn);
        // Reopen appends where we left off.
        let wal = Wal::open(&dir, Durability::Buffered, 128).unwrap();
        let lsn = wal.append(0, &WalRecord::Checkpoint { clock: 0 }).unwrap();
        assert_eq!(lsn, 51);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_detected_and_ignored() {
        let dir = temp_dir("torn");
        let wal = Wal::open(&dir, Durability::Buffered, DEFAULT_SEGMENT_BYTES).unwrap();
        for i in 0..10u64 {
            wal.append(
                1,
                &WalRecord::HeapInsert {
                    file: 0,
                    rid: i,
                    len: 1,
                },
            )
            .unwrap();
        }
        drop(wal);
        // Chop the last frame in half.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 20).unwrap();
        drop(f);
        let (entries, tail) = read_log(&dir).unwrap();
        assert_eq!(entries.len(), 9);
        assert!(tail.torn);
        assert!(tail.torn_bytes > 0);
        // Garbage at the tail is equally rejected (CRC).
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xFF; 64]).unwrap();
        drop(f);
        let (entries, tail) = read_log(&dir).unwrap();
        assert_eq!(entries.len(), 9);
        assert!(tail.torn);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_log_reads_empty() {
        let dir = temp_dir("empty");
        let (entries, tail) = read_log(&dir).unwrap();
        assert!(entries.is_empty());
        assert!(!tail.torn);
        assert_eq!(tail.last_lsn, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unit_ids_outlive_a_reopen_and_checkpoints_forget_redo_records() {
        let dir = temp_dir("units");
        let wal = Wal::open(&dir, Durability::Buffered, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(wal.append_begin().unwrap(), 1);
        assert_eq!(wal.append_begin().unwrap(), 2);
        wal.note_redone([42]);
        assert!(wal.has_redo_record(42));
        assert!(!wal.has_redo_record(43));
        wal.append_checkpoint(0).unwrap();
        assert!(!wal.has_redo_record(42));
        drop(wal);
        // A later life numbers its units past every id in the log.
        let wal = Wal::open(&dir, Durability::Buffered, DEFAULT_SEGMENT_BYTES).unwrap();
        assert_eq!(wal.append_begin().unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
