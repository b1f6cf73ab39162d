//! Deterministic fault injection for crash-recovery testing.
//!
//! Every durable write in the storage crate — volume page writes, volume
//! growth, WAL frame appends, and the fsyncs between them — passes through
//! the crate-internal `check_write` hook before touching the file system.
//! In normal operation the hook is a single relaxed atomic load. When a
//! test arms a [`CrashPlan`], the N-th write either vanishes entirely or is
//! *torn* (only a prefix of the bytes reaches the file), and every later
//! write fails — simulating a process kill at that exact point. Reads are
//! never affected, so the test can reopen the database afterwards and drive
//! recovery.
//!
//! The writer gate passes through a second hook, `note_gate_wait`, each
//! time a writer starts to wait on it, so a test can act once a writer
//! is queued rather than sleep and hope; production builds compile it
//! to nothing.
//!
//! The control surface (`arm`, `disarm`, `crashed`, `start_counting`,
//! `writes_observed`, `gate_waits`) is compiled only under `cfg(test)` or the
//! `failpoints` cargo feature; production builds carry nothing but the
//! disarmed fast path.
//!
//! State is process-global, so tests that arm failpoints must serialize
//! themselves via the `exclusive` lock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::error::{StorageError, StorageResult};

/// Whether any failpoint plan is active. Fast-path gate: written only by
/// the (test-only) control functions, read on every durable write.
static ARMED: AtomicBool = AtomicBool::new(false);

static STATE: Mutex<Option<State>> = Mutex::new(None);

/// The writer-gate hook: a writer is about to wait for the gate to free.
/// Counted only where the control surface can read the count.
pub(crate) fn note_gate_wait() {
    #[cfg(any(test, feature = "failpoints"))]
    control::GATE_WAITS.fetch_add(1, Ordering::Relaxed);
}

struct State {
    mode: Mode,
    /// Durable writes observed since arming.
    writes: u64,
    /// Site names seen since arming, with counts.
    sites: Vec<(&'static str, u64)>,
    /// Whether the plan has fired (all later writes fail).
    fired: bool,
}

// Only the control surface constructs these; without it the disarmed
// fast path never reaches them.
#[cfg_attr(not(any(test, feature = "failpoints")), allow(dead_code))]
enum Mode {
    /// Count writes and record sites; never fail.
    Count,
    /// Crash on the `after_writes + 1`-th write.
    Crash(CrashPlan),
}

/// A deterministic crash: let `after_writes` durable writes through, then
/// kill the process at the next one.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Number of writes that complete before the crash.
    pub after_writes: u64,
    /// If true, the crashing write is *torn*: half its bytes are applied
    /// before the failure (a page or log frame straddling the kill).
    pub torn: bool,
}

/// What the instrumented write path should do (crate-internal).
pub(crate) enum WriteAction {
    /// Perform the full write.
    Full,
    /// Write only the first `n` bytes, then report the injected crash.
    Torn(usize),
}

fn injected() -> StorageError {
    StorageError::Io(std::io::Error::other("failpoint: injected crash"))
}

/// The write-path hook: decides the fate of a `len`-byte durable write at
/// `site`. Returns `Err` once the armed plan has fired.
pub(crate) fn check_write(site: &'static str, len: usize) -> StorageResult<WriteAction> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(WriteAction::Full);
    }
    let mut guard = STATE.lock().expect("failpoint state");
    let Some(state) = guard.as_mut() else {
        return Ok(WriteAction::Full);
    };
    if state.fired {
        return Err(injected());
    }
    match state.sites.iter_mut().find(|(s, _)| *s == site) {
        Some((_, n)) => *n += 1,
        None => state.sites.push((site, 1)),
    }
    state.writes += 1;
    if let Mode::Crash(plan) = &state.mode {
        if state.writes > plan.after_writes {
            state.fired = true;
            return if plan.torn && len > 1 {
                Ok(WriteAction::Torn(len / 2))
            } else {
                Err(injected())
            };
        }
    }
    Ok(WriteAction::Full)
}

#[cfg(any(test, feature = "failpoints"))]
mod control {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::MutexGuard;

    /// Times a writer has started to wait on a held writer gate.
    pub(super) static GATE_WAITS: AtomicU64 = AtomicU64::new(0);

    static EXCLUSIVE: Mutex<()> = Mutex::new(());

    /// Serialize failpoint-using tests: the registry is process-global.
    /// (A poisoned lock — a previous test panicked — is still usable.)
    pub fn exclusive() -> MutexGuard<'static, ()> {
        EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Arm a crash plan. Stays armed (failing all writes once fired)
    /// until [`disarm`].
    pub fn arm(plan: CrashPlan) {
        let mut guard = STATE.lock().expect("failpoint state");
        *guard = Some(State {
            mode: Mode::Crash(plan),
            writes: 0,
            sites: Vec::new(),
            fired: false,
        });
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Count durable writes without ever failing. Use with
    /// [`writes_observed`] to size a kill-at-every-point loop.
    pub fn start_counting() {
        let mut guard = STATE.lock().expect("failpoint state");
        *guard = Some(State {
            mode: Mode::Count,
            writes: 0,
            sites: Vec::new(),
            fired: false,
        });
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Drop any active plan; writes behave normally again.
    pub fn disarm() {
        ARMED.store(false, Ordering::SeqCst);
        *STATE.lock().expect("failpoint state") = None;
    }

    /// Whether the armed crash plan has fired.
    pub fn crashed() -> bool {
        STATE
            .lock()
            .expect("failpoint state")
            .as_ref()
            .is_some_and(|s| s.fired)
    }

    /// Durable writes observed since the last [`arm`]/[`start_counting`].
    pub fn writes_observed() -> u64 {
        STATE
            .lock()
            .expect("failpoint state")
            .as_ref()
            .map_or(0, |s| s.writes)
    }

    /// Times a writer has started to wait on a held writer gate, in this
    /// process. Counted under the gate's lock just before the wait
    /// releases it, so once the count moves, the gate's holder cannot
    /// free the gate before that writer is waiting.
    pub fn gate_waits() -> u64 {
        GATE_WAITS.load(Ordering::SeqCst)
    }

    /// Distinct write sites observed since arming, with hit counts.
    pub fn sites_observed() -> Vec<(&'static str, u64)> {
        STATE
            .lock()
            .expect("failpoint state")
            .as_ref()
            .map_or_else(Vec::new, |s| s.sites.clone())
    }
}

#[cfg(any(test, feature = "failpoints"))]
pub use control::{
    arm, crashed, disarm, exclusive, gate_waits, sites_observed, start_counting, writes_observed,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_crashing() {
        let _x = exclusive();
        start_counting();
        for _ in 0..5 {
            assert!(matches!(check_write("t.site", 64), Ok(WriteAction::Full)));
        }
        assert_eq!(writes_observed(), 5);
        assert_eq!(sites_observed(), vec![("t.site", 5)]);

        arm(CrashPlan {
            after_writes: 2,
            torn: false,
        });
        assert!(check_write("t.a", 8).is_ok());
        assert!(check_write("t.b", 8).is_ok());
        assert!(check_write("t.c", 8).is_err());
        assert!(crashed());
        // Poisoned: everything later fails too.
        assert!(check_write("t.d", 8).is_err());
        disarm();
        assert!(check_write("t.e", 8).is_ok());
    }

    #[test]
    fn torn_write_applies_half() {
        let _x = exclusive();
        arm(CrashPlan {
            after_writes: 0,
            torn: true,
        });
        match check_write("t.torn", 100) {
            Ok(WriteAction::Torn(n)) => assert_eq!(n, 50),
            other => panic!("expected torn action, got {other:?}"),
        }
        assert!(crashed());
        disarm();
    }

    impl std::fmt::Debug for WriteAction {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                WriteAction::Full => write!(f, "Full"),
                WriteAction::Torn(n) => write!(f, "Torn({n})"),
            }
        }
    }
}
