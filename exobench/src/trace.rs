//! Spans recorded by the benchmark around its calls into the engine's layers.
//!
//! The engine is not instrumented here: every span is opened and closed in the
//! benchmark's own code, kept in memory while the run measures, and written
//! out as JSON lines when the run ends. A span's self time is its duration
//! minus the time its direct children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

/// The instant every span's `start_ns` and `end_ns` count from: the first
/// time anyone asks, which `main` does before any workload starts.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 = a root span.
    pub parent: u32,
    /// The operation this span belongs to; spans of one operation share it.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span and operation ids, unique over the whole run whichever recorder
/// hands them out. `Relaxed`: the counters publish no other data.
static NEXT_SPAN: AtomicU32 = AtomicU32::new(1);
static NEXT_OP: AtomicU32 = AtomicU32::new(1);

/// One client thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: epoch(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Start the next operation; spans opened until the next call carry its id.
    pub fn next_op(&mut self) {
        self.op = NEXT_OP.fetch_add(1, Ordering::Relaxed);
    }

    /// Time `f` inside a span named `name`, nested in whichever span is open.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.spans.len();
        let parent = self.open.last().map_or(0, |&p| self.spans[p].id);
        self.spans.push(Span {
            id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            parent,
            op: self.op,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut own: BTreeMap<u32, u64> = spans.iter().map(|s| (s.id, s.dur_ns())).collect();
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(t) = own.get_mut(&s.parent) {
            *t = t.saturating_sub(s.dur_ns());
        }
    }
    own
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::obj([
            ("id", Json::from(s.id as u64)),
            ("parent", Json::from(s.parent as u64)),
            ("op", Json::from(s.op as u64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("end_ns", Json::from(s.end_ns)),
        ]);
        writeln!(out, "{line}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let span = |id, parent, start_ns, end_ns| Span {
            id,
            parent,
            op: 1,
            name: "x",
            start_ns,
            end_ns,
        };
        let spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 30)];
        let own = self_times(&spans);
        assert_eq!((own[&1], own[&2], own[&3]), (50, 40, 10));
    }

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::new();
        t.next_op();
        t.span("op", |t| t.span("child", |_| ()));
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].op, spans[1].op);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
