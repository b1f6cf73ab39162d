//! Per-operator query profiling (EXPLAIN ANALYZE).
//!
//! A [`PlanIndex`] assigns every node of a prepared plan a slot in
//! pre-order, labelled as `explain` prints the node and estimated by the
//! cost model — the tree it indexes is the planner's own, so there is
//! nothing to pair. A [`PlanProfiler`] pairs the index with
//! `Cell`-based counters that cursors bump as batches flow — one add per
//! batch, never per row, and wall-clock sampling only happens when a
//! profiler is installed on the [`crate::eval::ExecCtx`], so the
//! disabled path costs a single `Option` check per pull.
//!
//! Parallel workers [`PlanProfiler::fork`] a zero-counter profiler over
//! the shared index and the driver [`PlanProfiler::absorb`]s them after
//! the scope joins; counter sums are order-independent, so the merged
//! profile is deterministic and agrees with a serial run of the same
//! plan. The finished [`QueryProfile`] renders as an annotated plan tree
//! (`Display`).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use excess_algebra::cost::cardinality;
use excess_algebra::Physical;
use excess_sema::CatalogLookup;

use crate::cexpr::{AggSource, CExpr};
use crate::plan::Plan;

/// Immutable per-plan metadata: node address → pre-order slot, plus each
/// slot's label/estimate. Shared (via `Arc`) between the driving profiler
/// and per-worker forks.
pub struct PlanIndex {
    by_addr: HashMap<usize, u32>,
    meta: Vec<NodeMeta>,
}

/// Display metadata for one plan node.
pub struct NodeMeta {
    /// Tree depth (root = 0).
    pub depth: u16,
    /// One-line operator description.
    pub label: String,
    /// Planner-estimated output rows.
    pub est_rows: f64,
}

impl PlanIndex {
    /// Index `root` in pre-order, each node labelled as `explain` prints
    /// it and estimated by the cost model over `catalog`.
    pub fn new(root: &Plan, catalog: &dyn CatalogLookup) -> PlanIndex {
        let mut idx = PlanIndex {
            by_addr: HashMap::new(),
            meta: Vec::new(),
        };
        idx.walk(root, 0, catalog);
        idx
    }

    /// Index `node` and its subtree.
    fn walk(&mut self, node: &Plan, depth: u16, catalog: &dyn CatalogLookup) {
        let slot = self.meta.len() as u32;
        self.by_addr.insert(node as *const Plan as usize, slot);
        self.meta.push(NodeMeta {
            depth,
            label: node.label(),
            est_rows: cardinality(node, catalog),
        });
        // Aggregate `over` plans live inside this node's compiled
        // expressions; index them as extra children so their cursors (and
        // the morsel driver) report per-operator metrics too.
        self.walk_node_exprs(node, depth + 1, catalog);
        match node {
            Physical::Unit
            | Physical::SeqScan { .. }
            | Physical::SystemScan { .. }
            | Physical::IndexScan { .. } => {}
            Physical::NestedLoop { outer, inner } => {
                self.walk(outer, depth + 1, catalog);
                self.walk(inner, depth + 1, catalog);
            }
            Physical::Unnest { input, .. }
            | Physical::Filter { input, .. }
            // The universe sub-plan re-opens per input row; profiling it
            // would double-count arbitrarily, so only the input is walked
            // (as `explain` prints only the input).
            | Physical::UniversalFilter { input, .. }
            | Physical::Project { input, .. }
            | Physical::Sort { input, .. }
            | Physical::HashJoin { input, .. }
            | Physical::IndexJoin { input, .. }
            | Physical::Parallel { input, .. } => self.walk(input, depth + 1, catalog),
        }
    }

    /// Walk the expressions attached to `node` looking for aggregate
    /// `over` plans to index.
    fn walk_node_exprs(&mut self, node: &Plan, depth: u16, catalog: &dyn CatalogLookup) {
        match node {
            Physical::Filter { pred, .. } | Physical::UniversalFilter { pred, .. } => {
                self.walk_expr(&pred.expr, depth, catalog);
            }
            Physical::Project { targets, .. } => {
                for (_, e) in targets {
                    self.walk_expr(&e.expr, depth, catalog);
                }
            }
            Physical::Sort { key, .. } => self.walk_expr(&key.expr, depth, catalog),
            Physical::HashJoin { key, .. } | Physical::IndexJoin { key, .. } => {
                self.walk_expr(&key.expr, depth, catalog)
            }
            _ => {}
        }
    }

    /// Recurse an expression tree; every aggregate's `over` plan becomes
    /// an indexed subtree. EXCESS function bodies are skipped — they
    /// re-plan per call site and re-open per row, so their counters would
    /// not correspond to any one plan node.
    fn walk_expr(&mut self, e: &CExpr, depth: u16, catalog: &dyn CatalogLookup) {
        match e {
            CExpr::Agg(agg) => {
                if let AggSource::Ranges(plan) = &agg.source {
                    self.walk(plan, depth, catalog);
                }
                if let Some(a) = &agg.arg {
                    self.walk_expr(a, depth, catalog);
                }
                if let Some(q) = &agg.qual {
                    self.walk_expr(q, depth, catalog);
                }
                for b in &agg.by {
                    self.walk_expr(b, depth, catalog);
                }
            }
            CExpr::Attr(inner, _)
            | CExpr::Path(_, inner)
            | CExpr::Not(inner)
            | CExpr::Neg(inner) => self.walk_expr(inner, depth, catalog),
            CExpr::Idx(a, b) | CExpr::Bin(_, a, b) => {
                self.walk_expr(a, depth, catalog);
                self.walk_expr(b, depth, catalog);
            }
            CExpr::AdtCall { args, .. } | CExpr::FunCall { args, .. } => {
                for a in args {
                    self.walk_expr(a, depth, catalog);
                }
            }
            CExpr::SetLit(items) | CExpr::TupleLit(items) => {
                for i in items {
                    self.walk_expr(i, depth, catalog);
                }
            }
            CExpr::Const(_)
            | CExpr::Var(_)
            | CExpr::NamedSet(_)
            | CExpr::NamedRef(_)
            | CExpr::NamedValue(_) => {}
        }
    }

    /// The slot assigned to `node`, if it belongs to this plan.
    pub fn slot_of(&self, node: &Plan) -> Option<u32> {
        self.by_addr.get(&(node as *const Plan as usize)).copied()
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }
}

/// Per-slot counters. `Cell`-based: the profiler lives on an `ExecCtx`,
/// which is single-threaded by design.
#[derive(Default)]
struct OpCounters {
    rows_in: Cell<u64>,
    rows_out: Cell<u64>,
    batches_in: Cell<u64>,
    batches_out: Cell<u64>,
    elapsed_ns: Cell<u64>,
    peak_batch: Cell<u64>,
}

/// Work done by one parallel worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Morsels the worker claimed from the shared queue.
    pub morsels: u64,
    /// Scan rows the worker produced from those morsels.
    pub rows: u64,
}

/// Exchange-operator detail recorded by the morsel driver.
struct ParallelDetail {
    slot: u32,
    workers: Vec<WorkerStats>,
    merge_wait_ns: u64,
}

/// Live profiling state for one plan execution.
pub struct PlanProfiler {
    index: Arc<PlanIndex>,
    counters: Vec<OpCounters>,
    details: RefCell<Vec<ParallelDetail>>,
}

impl PlanProfiler {
    /// A profiler over a freshly built index.
    pub fn new(index: PlanIndex) -> PlanProfiler {
        Self::over(Arc::new(index))
    }

    fn over(index: Arc<PlanIndex>) -> PlanProfiler {
        let counters = (0..index.len()).map(|_| OpCounters::default()).collect();
        PlanProfiler {
            index,
            counters,
            details: RefCell::new(Vec::new()),
        }
    }

    /// The shared plan index.
    pub fn index(&self) -> &PlanIndex {
        &self.index
    }

    /// A zero-counter profiler over the same plan, for a parallel worker.
    pub fn fork(&self) -> PlanProfiler {
        Self::over(self.index.clone())
    }

    /// Fold a worker profiler's counters into this one. Sums (and a max
    /// for the peak) are order-independent, so merged counts match a
    /// serial run regardless of worker scheduling.
    pub fn absorb(&self, other: PlanProfiler) {
        for (mine, theirs) in self.counters.iter().zip(&other.counters) {
            mine.rows_in.set(mine.rows_in.get() + theirs.rows_in.get());
            mine.rows_out
                .set(mine.rows_out.get() + theirs.rows_out.get());
            mine.batches_in
                .set(mine.batches_in.get() + theirs.batches_in.get());
            mine.batches_out
                .set(mine.batches_out.get() + theirs.batches_out.get());
            mine.elapsed_ns
                .set(mine.elapsed_ns.get() + theirs.elapsed_ns.get());
            mine.peak_batch
                .set(mine.peak_batch.get().max(theirs.peak_batch.get()));
        }
        self.details.borrow_mut().extend(other.details.into_inner());
    }

    /// Record one batch consumed by the operator at `slot`.
    #[inline]
    pub fn record_in(&self, slot: u32, rows: usize) {
        let c = &self.counters[slot as usize];
        c.rows_in.set(c.rows_in.get() + rows as u64);
        c.batches_in.set(c.batches_in.get() + 1);
    }

    /// Record one batch produced by the operator at `slot`.
    #[inline]
    pub fn record_out(&self, slot: u32, rows: usize) {
        let c = &self.counters[slot as usize];
        c.rows_out.set(c.rows_out.get() + rows as u64);
        c.batches_out.set(c.batches_out.get() + 1);
        c.peak_batch.set(c.peak_batch.get().max(rows as u64));
    }

    /// Add cursor-pull wall time (inclusive of upstream pulls) to `slot`.
    #[inline]
    pub fn record_ns(&self, slot: u32, ns: u64) {
        let c = &self.counters[slot as usize];
        c.elapsed_ns.set(c.elapsed_ns.get() + ns);
    }

    /// Record exchange-operator detail: per-worker morsel/row counts and
    /// the time the merging tail spent draining the result channel.
    pub fn record_parallel(&self, slot: u32, workers: Vec<WorkerStats>, merge_wait_ns: u64) {
        self.details.borrow_mut().push(ParallelDetail {
            slot,
            workers,
            merge_wait_ns,
        });
    }

    /// Assemble the final profile.
    pub fn finish(
        self,
        total_ns: u64,
        result_rows: u64,
        dop: usize,
        buffer: Option<BufferDelta>,
    ) -> QueryProfile {
        let details = self.details.into_inner();
        let nodes = self
            .index
            .meta
            .iter()
            .zip(&self.counters)
            .enumerate()
            .map(|(slot, (meta, c))| {
                let (workers, merge_wait_ns) = details
                    .iter()
                    .filter(|d| d.slot == slot as u32)
                    .fold((Vec::new(), 0), |(mut ws, wait), d| {
                        ws.extend(d.workers.iter().copied());
                        (ws, wait + d.merge_wait_ns)
                    });
                OpProfile {
                    depth: meta.depth,
                    label: meta.label.clone(),
                    est_rows: Some(meta.est_rows),
                    rows_in: c.rows_in.get(),
                    rows_out: c.rows_out.get(),
                    batches_in: c.batches_in.get(),
                    batches_out: c.batches_out.get(),
                    elapsed_ns: c.elapsed_ns.get(),
                    peak_batch: c.peak_batch.get(),
                    workers,
                    merge_wait_ns,
                }
            })
            .collect();
        QueryProfile {
            nodes,
            total_ns,
            result_rows,
            dop,
            buffer,
        }
    }
}

/// Buffer-pool activity during one statement (after − before of the
/// pool's monotonic counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferDelta {
    /// Pins satisfied from the pool.
    pub hits: u64,
    /// Pins that required a volume read.
    pub misses: u64,
    /// Frames reclaimed by the clock hand.
    pub evictions: u64,
    /// Dirty pages written back.
    pub writebacks: u64,
}

impl BufferDelta {
    /// Counter difference `after − before` (saturating, the counters are
    /// monotonic).
    pub fn between(
        before: &exodus_storage::BufferStats,
        after: &exodus_storage::BufferStats,
    ) -> BufferDelta {
        BufferDelta {
            hits: after.hits.saturating_sub(before.hits),
            misses: after.misses.saturating_sub(before.misses),
            evictions: after.evictions.saturating_sub(before.evictions),
            writebacks: after.writebacks.saturating_sub(before.writebacks),
        }
    }
}

/// Observed metrics for one plan node.
#[derive(Debug, Clone, PartialEq)]
pub struct OpProfile {
    /// Tree depth (root = 0).
    pub depth: u16,
    /// One-line operator description.
    pub label: String,
    /// Planner-estimated output rows.
    pub est_rows: Option<f64>,
    /// Rows consumed from the operator's input.
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Input batches consumed.
    pub batches_in: u64,
    /// Output batches produced.
    pub batches_out: u64,
    /// Cumulative cursor-pull wall time, inclusive of upstream pulls.
    pub elapsed_ns: u64,
    /// Largest output batch (rows) — batch-fill health.
    pub peak_batch: u64,
    /// Per-worker morsel/row counts (parallel exchanges only).
    pub workers: Vec<WorkerStats>,
    /// Time the exchange's merging tail spent draining worker output.
    pub merge_wait_ns: u64,
}

impl OpProfile {
    /// Observed selectivity (`rows_out / rows_in`), when the operator
    /// consumed any input.
    pub fn selectivity(&self) -> Option<f64> {
        (self.rows_in > 0).then(|| self.rows_out as f64 / self.rows_in as f64)
    }
}

/// A complete execution profile: per-node metrics in plan pre-order plus
/// statement-level totals.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryProfile {
    /// Per-node metrics, pre-order (depth gives the tree shape).
    pub nodes: Vec<OpProfile>,
    /// End-to-end execution wall time.
    pub total_ns: u64,
    /// Rows in the statement's result (or staged bindings, for updates).
    pub result_rows: u64,
    /// Worker threads the session allowed.
    pub dop: usize,
    /// Buffer-pool delta over the statement.
    pub buffer: Option<BufferDelta>,
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

impl fmt::Display for QueryProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for n in &self.nodes {
            for _ in 0..n.depth {
                write!(f, "  ")?;
            }
            write!(f, "{} (", n.label)?;
            match n.est_rows {
                Some(est) => write!(f, "est={est:.0} rows={}", n.rows_out)?,
                None => write!(f, "rows={}", n.rows_out)?,
            }
            write!(f, " batches={}", n.batches_out)?;
            if let Some(sel) = n.selectivity() {
                if n.rows_out != n.rows_in {
                    write!(f, " in={}", n.rows_in)?;
                    // Selectivity only makes sense for reducing operators;
                    // scans and unnests fan out from their seed rows.
                    if n.rows_out < n.rows_in {
                        write!(f, " sel={:.1}%", sel * 100.0)?;
                    }
                }
            }
            if n.peak_batch > 0 {
                write!(f, " peak={}", n.peak_batch)?;
            }
            write!(f, " time={})", fmt_ms(n.elapsed_ns))?;
            if !n.workers.is_empty() {
                write!(f, " [merge_wait={}", fmt_ms(n.merge_wait_ns))?;
                for (i, w) in n.workers.iter().enumerate() {
                    write!(f, ", w{i}: {} morsels/{} rows", w.morsels, w.rows)?;
                }
                write!(f, "]")?;
            }
            writeln!(f)?;
        }
        write!(
            f,
            "-- total: {} rows={} dop={}",
            fmt_ms(self.total_ns),
            self.result_rows,
            self.dop
        )?;
        if let Some(b) = &self.buffer {
            write!(
                f,
                "\n-- buffer pool: hits={} misses={} evictions={} writebacks={}",
                b.hits, b.misses, b.evictions, b.writebacks
            )?;
        }
        Ok(())
    }
}
