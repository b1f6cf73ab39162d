//! The six workloads and what they share: the per-client recorder, the
//! statement operation (untraced: one `Session::run`; traced: the same work
//! as separate, spanned calls on the layers), and the registry `main` walks.

mod point_wire;
mod replica_follow;
mod scans;
mod write_mix;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::Expect;
use crate::layers::{self, Database, Response, Server, Session, R};
use crate::stats::{Metric, Summary};
use crate::trace::{Span, Tracer};

/// What a run was asked to do.
pub struct Env {
    pub seed: u64,
    /// Multiplies every collection size (1 = the sizes the README states).
    pub scale: f64,
    /// Scratch directory for file-backed volumes; removed when the run ends.
    pub data_dir: PathBuf,
}

impl Env {
    /// `n` rows at scale 1, scaled, never below `floor`.
    pub fn rows(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(floor)
    }

    /// A fresh directory for one set-up of `workload`.
    pub fn fresh_dir(&self, workload: &str, rep: usize) -> R<PathBuf> {
        let dir = self.data_dir.join(format!("{workload}-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Schema + load + analyze + server/replica start, from the seed.
    pub setup: fn(&Env, usize) -> R<Box<dyn Instance>>,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "path_scan",
        why: "implicit-join path queries over a pool that fits: exec, extra decode/deref and storage pins do the work, parse/plan/wire are ~0",
        setup: scans::path_scan,
    },
    Workload {
        name: "nested_unnest",
        why: "nested-set unnest with a large result: Set/Tuple decode and materialisation, few pins, no per-row deref",
        setup: scans::nested_unnest,
    },
    Workload {
        name: "spill_scan",
        why: "the same scans over a file volume 8x larger than the pool: buffer misses and evictions dominate",
        setup: scans::spill_scan,
    },
    Workload {
        name: "point_wire",
        why: "tiny indexed lookups over loopback TCP from 2 clients: frames, admission, parse and plan are most of each statement",
        setup: point_wire::setup,
    },
    Workload {
        name: "write_mix",
        why: "2 sessions of logged autocommit appends with scans of the same collection beside them: txn, WAL, snapshot reads beside writers; every acknowledged write checked after a crash",
        setup: write_mix::setup,
    },
    Workload {
        name: "replica_follow",
        why: "commit on a durable primary until the row is readable on a WAL-shipping replica: repl ingest/replay and the pump do the work",
        setup: replica_follow::setup,
    },
];

/// A set-up workload: its databases are loaded and its clients can start.
pub trait Instance {
    /// Drive the closed loop for `budget`. With `traced`, every operation is
    /// decomposed into spanned calls on the layers.
    fn section(&mut self, budget: Duration, traced: bool) -> R<Section>;

    /// The database whose registry and pool counters describe the workload
    /// (the primary, where there are two).
    fn db(&self) -> &Arc<Database>;

    /// A read statement of the workload's own mix, for the traced run's
    /// local-versus-remote and plan-versus-parse samples.
    fn sample_read(&self, i: usize) -> (String, Expect);

    /// The server the clients go through, when they reach the engine over
    /// the wire protocol.
    fn server(&self) -> Option<&Server> {
        None
    }

    /// `valueio`-encoded bytes of every user value written so far.
    fn user_bytes(&self) -> u64;

    /// `(volume bytes, log bytes)` behind those values, all nodes together.
    fn stored_bytes(&self) -> (u64, u64);

    /// Checks that need the loop to have ended (durability after a crash,
    /// replica equals primary) and the numbers only they produce.
    fn finish(self: Box<Self>) -> R<Finish> {
        Ok(Finish::default())
    }
}

#[derive(Default)]
pub struct Finish {
    pub attempted: u64,
    pub failed: u64,
    pub detail: Vec<Metric>,
}

/// One operation that completed with the right answer.
#[derive(Debug, Clone, Copy)]
pub struct Done {
    /// Seconds from the section's start to the operation's completion.
    pub at_s: f64,
    /// Client-observed latency.
    pub ms: f64,
    /// Statements the operation completed (8 for a pipelined one).
    pub stmts: u32,
    /// Rows those statements had to examine (known from the generator).
    pub rows: u64,
    /// Whether the workload's `stmt_*` metrics describe this operation.
    pub primary: bool,
}

/// What one client thread observed.
pub struct Recorder {
    start: Instant,
    pub attempted: u64,
    pub failed: u64,
    pub done: Vec<Done>,
    pub classes: BTreeMap<&'static str, Vec<f64>>,
    pub tracer: Option<Tracer>,
    first_failure: Option<String>,
}

impl Recorder {
    /// A recorder for one client of the section that began at `start`.
    pub fn new(start: Instant, traced: bool) -> Recorder {
        Recorder {
            start,
            attempted: 0,
            failed: 0,
            done: Vec::new(),
            classes: BTreeMap::new(),
            tracer: traced.then(Tracer::new),
            first_failure: None,
        }
    }

    /// Account for one finished operation of `stmts` statements.
    pub fn record(
        &mut self,
        class: &'static str,
        primary: bool,
        stmts: u64,
        rows: u64,
        ms: f64,
        outcome: Result<(), String>,
    ) {
        self.attempted += 1;
        match outcome {
            Ok(()) => {
                self.classes.entry(class).or_default().push(ms);
                self.done.push(Done {
                    at_s: self.start.elapsed().as_secs_f64(),
                    ms,
                    stmts: stmts as u32,
                    rows,
                    primary,
                });
            }
            Err(why) => {
                self.failed += 1;
                self.first_failure.get_or_insert(format!("{class}: {why}"));
            }
        }
    }

    /// One in-process statement: untraced it is a single `Session::run`;
    /// traced, the same statement goes through `parse` then `execute`, each
    /// inside its own span under the operation's span (`op` when the
    /// operation feeds the `stmt_*` metrics, `op.aux` when it does not).
    pub fn local_stmt(&mut self, sess: &mut Session, op: &StmtOp, primary: bool) {
        let t = Instant::now();
        let reply = match &mut self.tracer {
            None => layers::run(sess, &op.text).and_then(last_response),
            Some(tracer) => {
                tracer.next_op();
                let root = if primary { "op" } else { "op.aux" };
                tracer.span(root, |tr| spanned_stmt(tr, sess, &op.text))
            }
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.record(op.class, primary, 1, op.rows, ms, check(&op.expect, reply));
    }
}

/// `parse` then `execute`, each in a span of the layer it belongs to.
pub fn spanned_stmt(tr: &mut Tracer, sess: &mut Session, text: &str) -> R<Response> {
    let stmt = tr.span("excess.parse", |_| layers::parse(text))?;
    tr.span("exodus.execute", |_| layers::execute(sess, &stmt))
}

pub fn last_response(mut replies: Vec<Response>) -> R<Response> {
    replies.pop().ok_or_else(|| "no response".to_string())
}

pub fn check(expect: &Expect, reply: R<Response>) -> Result<(), String> {
    match reply {
        Ok(r) if expect.holds_for(&r) => Ok(()),
        Ok(_) => Err("wrong answer".into()),
        Err(e) => Err(e),
    }
}

/// One statement with the answer it must produce.
pub struct StmtOp {
    pub class: &'static str,
    pub text: String,
    pub expect: Expect,
    /// Rows the statement has to examine, from the generator.
    pub rows: u64,
}

/// Equal slices a section's window is cut into. Statement latency and
/// throughput are computed per slice and reported as the median over the
/// slices, so a disturbance shorter than half the window (another tenant of
/// the host, a writeback storm) does not move them.
pub const SLICES: usize = 8;

/// One measured stretch of the closed loop, all clients merged.
pub struct Section {
    /// The window the loop was given; operations that were in flight when it
    /// closed complete a little after it.
    pub budget_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub done: Vec<Done>,
    pub classes: BTreeMap<&'static str, Vec<f64>>,
    pub spans: Vec<Span>,
    pub first_failure: Option<String>,
}

/// A section's statement metrics: each the median over its slices.
pub struct Sliced {
    pub p50_ms: Metric,
    pub p95_ms: Metric,
    pub stmts_per_s: Metric,
}

impl Section {
    pub fn merge(budget: Duration, recorders: Vec<Recorder>) -> Section {
        let mut s = Section {
            budget_s: budget.as_secs_f64(),
            attempted: 0,
            failed: 0,
            done: Vec::new(),
            classes: BTreeMap::new(),
            spans: Vec::new(),
            first_failure: None,
        };
        for r in recorders {
            s.attempted += r.attempted;
            s.failed += r.failed;
            s.done.extend(r.done);
            for (class, ms) in r.classes {
                s.classes.entry(class).or_default().extend(ms);
            }
            if let Some(t) = r.tracer {
                s.spans.extend(t.into_spans());
            }
            s.first_failure = s.first_failure.or(r.first_failure);
        }
        s
    }

    /// Continue this section with `next`, which ran right after it (or after
    /// a stretch that is accounted elsewhere).
    pub fn append(&mut self, next: Section) {
        let offset = self.budget_s;
        self.budget_s += next.budget_s;
        self.attempted += next.attempted;
        self.failed += next.failed;
        self.done.extend(next.done.into_iter().map(|d| Done {
            at_s: d.at_s + offset,
            ..d
        }));
        for (class, ms) in next.classes {
            self.classes.entry(class).or_default().extend(ms);
        }
        self.spans.extend(next.spans);
        if self.first_failure.is_none() {
            self.first_failure = next.first_failure;
        }
    }

    /// Rows the completed statements had to examine: of the primary
    /// operations only, or of all.
    pub fn rows(&self, primary_only: bool) -> u64 {
        self.done
            .iter()
            .filter(|d| d.primary || !primary_only)
            .map(|d| d.rows)
            .sum()
    }

    /// Statements completed with the right answer.
    pub fn stmts(&self) -> u64 {
        self.done.iter().map(|d| d.stmts as u64).sum()
    }

    /// Per slice: the primary operations' p50 and p95, and the statements
    /// completed per second; then the median over the slices. An operation
    /// belongs to the slice it completed in (one that completed after the
    /// window, to the last). A slice's rate is its statements over the time
    /// from the last completion before it to its own last completion, which
    /// for a closed loop is the time those statements took.
    pub fn sliced(&self) -> Sliced {
        let width = self.budget_s / SLICES as f64;
        let mut latencies = vec![Vec::new(); SLICES];
        let mut stmts = [0u64; SLICES];
        let mut last_done = [0f64; SLICES];
        for d in &self.done {
            let slice = ((d.at_s / width) as usize).min(SLICES - 1);
            if d.primary {
                latencies[slice].push(d.ms);
            }
            stmts[slice] += d.stmts as u64;
            last_done[slice] = last_done[slice].max(d.at_s);
        }
        let mut rates = Vec::with_capacity(SLICES);
        let mut from = 0.0;
        for (&n, &until) in stmts.iter().zip(&last_done) {
            if n > 0 && until > from {
                rates.push(n as f64 / (until - from));
                from = until;
            }
        }
        latencies.retain(|l| !l.is_empty());
        let per_slice = |f: fn(&Summary) -> f64| -> Vec<f64> {
            latencies.iter().map(|l| f(&Summary::of(l))).collect()
        };
        let n = latencies.iter().map(Vec::len).sum();
        let over_slices = |name, unit, values: &[f64], n| Metric {
            n,
            ..Metric::median(name, unit, values)
        };
        Sliced {
            p50_ms: over_slices("stmt_p50_ms", "ms", &per_slice(|s| s.median), n),
            p95_ms: over_slices("stmt_p95_ms", "ms", &per_slice(|s| s.p95), n),
            stmts_per_s: over_slices("stmts_per_s", "1/s", &rates, self.stmts() as usize),
        }
    }
}

/// Drive one thread per client, each repeating `op` until `budget` has
/// elapsed since the common start, and merge what they recorded.
pub fn closed_loop<C: Send>(
    clients: &mut [C],
    budget: Duration,
    traced: bool,
    op: impl Fn(&mut C, &mut Recorder) + Sync,
) -> R<Section> {
    let start = Instant::now();
    let op = &op;
    let recorders = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(start, traced);
                    while start.elapsed() < budget {
                        op(client, &mut rec);
                    }
                    rec
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<R<Vec<_>>>()
    })?;
    Ok(Section::merge(budget, recorders))
}

/// Bytes of the files directly inside `dir` (a log's segments).
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|f| f.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The log directory the storage manager keeps beside a volume at `path`.
pub fn wal_dir(path: &std::path::Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".wal");
    PathBuf::from(os)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One statement every 10 ms for 2 s, except a slow stretch in the second
    /// slice: the slice medians do not see it.
    #[test]
    fn slice_medians_ignore_a_short_disturbance() {
        let mut rec = Recorder::new(Instant::now(), false);
        let mut at_s = 0.0;
        while at_s < 2.0 {
            let ms = if (0.25..0.5).contains(&at_s) {
                40.0
            } else {
                10.0
            };
            at_s += ms / 1e3;
            rec.done.push(Done {
                at_s,
                ms,
                stmts: 1,
                rows: 1,
                primary: true,
            });
        }
        let sliced = Section::merge(Duration::from_secs(2), vec![rec]).sliced();
        assert!((sliced.p50_ms.value - 10.0).abs() < 1e-9);
        assert!((sliced.p95_ms.value - 10.0).abs() < 1e-9);
        assert!(
            (sliced.stmts_per_s.value - 100.0).abs() < 1.0,
            "{}",
            sliced.stmts_per_s.value
        );
        assert_eq!(sliced.p50_ms.n, sliced.stmts_per_s.n);
    }
}
