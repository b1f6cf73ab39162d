//! Structured tracing spans and the slow-query log.
//!
//! A [`Span`] is a named, timed region of work with an optional parent,
//! forming per-statement trees (`statement` → `parse` → … → `commit`).
//! [`RingTracer`] keeps the most recent completed spans in a fixed-size
//! ring; parentage is tracked through a thread-local stack so callers
//! never thread span ids by hand.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One completed, timed region of work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id within the tracer.
    pub id: u64,
    /// Id of the enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Static name (`"parse"`, `"execute"`, `"wal_commit"`, ...).
    pub name: &'static str,
    /// Free-form detail (the statement text, a unit id, ...).
    pub detail: String,
    /// Start time in nanoseconds relative to the tracer's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub elapsed_ns: u64,
}

thread_local! {
    /// Stack of open span ids on this thread (innermost last).
    static PARENTS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A tracer that retains the most recent spans in a bounded ring
/// buffer. Spans are recorded on completion (guard drop), so the ring
/// holds finished work in completion order — children before parents.
pub struct RingTracer {
    epoch: Instant,
    next_id: AtomicU64,
    capacity: usize,
    ring: Mutex<VecDeque<Span>>,
}

impl RingTracer {
    /// A tracer retaining up to `capacity` completed spans.
    pub fn new(capacity: usize) -> RingTracer {
        RingTracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Open a span; it is recorded when the returned guard drops.
    /// Nesting is tracked per thread: a span opened while another is
    /// open on the same thread becomes its child.
    pub fn start(self: &Arc<Self>, name: &'static str, detail: impl Into<String>) -> SpanGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = PARENTS.with(|p| {
            let mut p = p.borrow_mut();
            let parent = p.last().copied();
            p.push(id);
            parent
        });
        SpanGuard {
            tracer: self.clone(),
            id,
            parent,
            name,
            detail: detail.into(),
            started: Instant::now(),
        }
    }

    /// The retained spans, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        self.ring
            .lock()
            .expect("tracer lock")
            .iter()
            .cloned()
            .collect()
    }

    /// Record one completed span (evicting the oldest at capacity).
    fn record(&self, span: Span) {
        let mut ring = self.ring.lock().expect("tracer lock");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }
}

/// RAII guard for an open span: records the [`Span`] into its tracer on
/// drop.
pub struct SpanGuard {
    tracer: Arc<RingTracer>,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    detail: String,
    started: Instant,
}

impl SpanGuard {
    /// This span's id (usable as an explicit parent reference).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        PARENTS.with(|p| {
            let mut p = p.borrow_mut();
            // Pop our own id; under panic-unwind an inner guard may
            // already have cleaned up, so search rather than assume LIFO.
            if let Some(i) = p.iter().rposition(|&x| x == self.id) {
                p.remove(i);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            detail: std::mem::take(&mut self.detail),
            start_ns: self.started.duration_since(self.tracer.epoch).as_nanos() as u64,
            elapsed_ns: self.started.elapsed().as_nanos() as u64,
        };
        self.tracer.record(span);
    }
}

/// Configuration for tracing and the slow-query log, passed to the
/// session layer's builder.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// How many completed spans the ring retains.
    pub span_capacity: usize,
    /// How many slow queries the log retains.
    pub slow_query_capacity: usize,
    /// Statements at or above this duration enter the slow-query log.
    /// Zero logs every statement.
    pub slow_query_threshold_ns: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            span_capacity: 1024,
            slow_query_capacity: 32,
            slow_query_threshold_ns: 10_000_000, // 10 ms
        }
    }
}

/// One over-threshold statement retained by the [`SlowQueryLog`].
#[derive(Debug, Clone)]
pub struct SlowQuery<P> {
    /// The statement text.
    pub statement: String,
    /// Wall-clock duration.
    pub elapsed_ns: u64,
    /// Id of the session that ran the statement (0 when unknown), so
    /// entries stay attributable across concurrent wire sessions.
    pub session_id: u64,
    /// The statement's verb (`"retrieve"`, `"append"`, ...).
    pub verb: &'static str,
    /// Caller-supplied payload (the session layer stores the query's
    /// execution profile).
    pub payload: Option<P>,
}

/// A bounded log of the most recent statements that ran at or above a
/// threshold. Generic over the payload so this crate needs no knowledge
/// of upper layers' profile types.
pub struct SlowQueryLog<P> {
    threshold_ns: u64,
    capacity: usize,
    entries: Mutex<VecDeque<SlowQuery<P>>>,
}

impl<P> SlowQueryLog<P> {
    /// A log retaining up to `capacity` entries at or above
    /// `threshold_ns`.
    pub fn new(threshold_ns: u64, capacity: usize) -> SlowQueryLog<P> {
        SlowQueryLog {
            threshold_ns,
            capacity: capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    /// Whether a statement of this duration belongs in the log. Callers
    /// check this *before* building the payload so fast statements pay
    /// nothing.
    pub fn is_slow(&self, elapsed_ns: u64) -> bool {
        elapsed_ns >= self.threshold_ns
    }

    /// Record one slow statement (evicting the oldest at capacity).
    /// `session_id` attributes the entry to its originating session
    /// (pass 0 when unknown); `verb` is the statement's verb.
    pub fn record(
        &self,
        statement: String,
        elapsed_ns: u64,
        session_id: u64,
        verb: &'static str,
        payload: Option<P>,
    ) {
        let mut entries = self.entries.lock().expect("slow-query lock");
        if entries.len() == self.capacity {
            entries.pop_front();
        }
        entries.push_back(SlowQuery {
            statement,
            elapsed_ns,
            session_id,
            verb,
            payload,
        });
    }
}

impl<P: Clone> SlowQueryLog<P> {
    /// Retained entries, slowest first.
    pub fn entries(&self) -> Vec<SlowQuery<P>> {
        let mut out: Vec<SlowQuery<P>> = self
            .entries
            .lock()
            .expect("slow-query lock")
            .iter()
            .cloned()
            .collect();
        out.sort_by_key(|q| std::cmp::Reverse(q.elapsed_ns));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_on_drop() {
        let tracer = Arc::new(RingTracer::new(16));
        {
            let outer = tracer.start("statement", "retrieve x");
            let outer_id = outer.id();
            {
                let _inner = tracer.start("parse", "");
            }
            let spans = tracer.spans();
            assert_eq!(spans.len(), 1, "inner recorded before outer closes");
            assert_eq!(spans[0].name, "parse");
            assert_eq!(spans[0].parent, Some(outer_id));
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "statement");
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }

    #[test]
    fn ring_evicts_oldest() {
        let tracer = Arc::new(RingTracer::new(2));
        for name in ["a", "b", "c"] {
            let _g = tracer.start(
                if name == "a" {
                    "a"
                } else if name == "b" {
                    "b"
                } else {
                    "c"
                },
                "",
            );
        }
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["b", "c"]);
    }

    #[test]
    fn siblings_share_a_parent() {
        let tracer = Arc::new(RingTracer::new(16));
        {
            let root = tracer.start("statement", "");
            let root_id = root.id();
            let _a = tracer.start("parse", "");
            drop(_a);
            let _b = tracer.start("execute", "");
            drop(_b);
            let spans = tracer.spans();
            assert!(spans.iter().all(|s| s.parent == Some(root_id)));
        }
    }

    #[test]
    fn slow_query_log_thresholds_and_evicts() {
        let log: SlowQueryLog<&'static str> = SlowQueryLog::new(100, 2);
        assert!(!log.is_slow(99));
        assert!(log.is_slow(100));
        log.record("q1".into(), 150, 0, "retrieve", Some("p1"));
        log.record("q2".into(), 400, 0, "retrieve", None);
        log.record("q3".into(), 250, 0, "retrieve", Some("p3"));
        let entries = log.entries();
        assert_eq!(entries.len(), 2, "q1 evicted");
        assert_eq!(entries[0].statement, "q2");
        assert_eq!(entries[1].statement, "q3");
        assert_eq!(entries[1].payload, Some("p3"));
    }

    #[test]
    fn slow_query_entries_are_session_attributable() {
        let log: SlowQueryLog<()> = SlowQueryLog::new(0, 8);
        log.record("retrieve (x in xs) x".into(), 300, 7, "retrieve", None);
        log.record("append ys (1)".into(), 900, 12, "append", None);
        let entries = log.entries();
        assert_eq!(entries.len(), 2);
        // Slowest first: the append from session 12.
        assert_eq!(entries[0].session_id, 12);
        assert_eq!(entries[0].verb, "append");
        assert_eq!(entries[1].session_id, 7);
        assert_eq!(entries[1].verb, "retrieve");
    }
}
