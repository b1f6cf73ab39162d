//! Cardinality and cost estimation.
//!
//! Deliberately simple, System R-flavored: collection sizes come from the
//! catalog, predicate selectivities from fixed factors, set fan-out from a
//! default. The estimates only need to rank alternatives consistently
//! (scan vs index, join orders); the benchmark suite (experiment E8)
//! checks the rankings, not the absolute numbers.
//!
//! The executor is batched (see `excess-exec`): operators exchange
//! [`BATCH_ROWS`]-row column batches, so an operator's cost has a
//! dominant per-row term plus a small per-batch dispatch term
//! ([`batch_overhead`]). The per-batch term is kept small and monotone
//! in cardinality so it refines absolute estimates without flipping any
//! ranking the per-row terms establish.

use std::collections::HashMap;

use excess_lang::{BinOp, Expr, Lit, UnOp};
use excess_sema::{AttrStats, ResolvedRange, RootSource, SemaCtx, StatOp};
use extra_model::Value;

use crate::plan::{join_attr, Physical, PlanExpr};

/// Default members per nested set when no statistics exist.
pub const DEFAULT_FANOUT: f64 = 4.0;
/// Default collection size when the catalog has no count.
pub const DEFAULT_SIZE: f64 = 1000.0;
/// Selectivity of an equality predicate.
pub const SEL_EQ: f64 = 0.05;
/// Selectivity of a range predicate.
pub const SEL_RANGE: f64 = 0.33;
/// Selectivity of any other predicate.
pub const SEL_OTHER: f64 = 0.5;
/// Rows per execution batch assumed by the cost model (mirrors the
/// executor's default batch size).
pub const BATCH_ROWS: f64 = 1024.0;
/// Fixed cost of pushing one batch through an operator (cursor dispatch,
/// column bookkeeping) — small relative to one row's worth of work.
pub const COST_PER_BATCH: f64 = 0.1;

/// Amortized per-batch dispatch overhead for a stream of `rows` rows: at
/// least one batch, then one more per [`BATCH_ROWS`] rows.
pub fn batch_overhead(rows: f64) -> f64 {
    (rows / BATCH_ROWS).ceil().max(1.0) * COST_PER_BATCH
}

/// Minimum rows at the leftmost scan before a pipeline fans out to
/// worker threads: the planner's gate on its estimate, and the
/// executor's on the actual member count (aggregate `over` plans are not
/// cost-planned).
pub const PARALLEL_MIN_ROWS: f64 = 4096.0;
/// Per-worker startup/teardown charge (thread spawn, per-worker context,
/// partition bookkeeping) in row-cost units.
pub const PARALLEL_STARTUP_COST: f64 = 256.0;
/// Per-row cost of merging worker output back into the serial tail in
/// deterministic order.
pub const PARALLEL_MERGE_COST: f64 = 0.01;
/// Assumed rows in a `sys.*` virtual collection. System views carry no
/// statistics machinery — a fixed small default keeps them cheap enough
/// to sit on a join's inner side without ever dominating a plan.
pub const SYSTEM_VIEW_ROWS: f64 = 64.0;

/// Cost of running a pipeline of serial cost `input_cost` under a
/// parallel exchange at degree `dop`: the pipeline work divides across
/// workers, while startup scales with `dop` and the ordered merge scales
/// with the output rows. At `dop = 1` this degenerates to the serial
/// cost plus startup, so the planner never prefers a one-worker exchange.
pub fn parallel_cost(input_cost: f64, out_rows: f64, dop: usize) -> f64 {
    let d = dop.max(1) as f64;
    input_cost / d
        + d * PARALLEL_STARTUP_COST
        + out_rows * PARALLEL_MERGE_COST
        + batch_overhead(out_rows)
}

fn fixed_conjunct_selectivity(c: &Expr) -> f64 {
    match c {
        Expr::Binary(BinOp::Eq | BinOp::Is, _, _) => SEL_EQ,
        Expr::Binary(BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge, _, _) => SEL_RANGE,
        _ => SEL_OTHER,
    }
}

/// Map each range variable of `plan` to the collection it scans (bare
/// collection bindings only — the shapes statistics describe).
pub fn scan_collections<E>(plan: &Physical<E>, out: &mut HashMap<String, String>) {
    let mut add = |b: &ResolvedRange| {
        if let RootSource::Collection(obj) = &b.root {
            out.insert(b.var.clone(), obj.name.clone());
        }
    };
    match plan {
        Physical::Unit | Physical::SystemScan { .. } => {}
        Physical::SeqScan { binding } | Physical::IndexScan { binding, .. } => add(binding),
        Physical::Unnest { input, binding, .. }
        | Physical::HashJoin { input, binding, .. }
        | Physical::IndexJoin { input, binding, .. } => {
            add(binding);
            scan_collections(input, out);
        }
        Physical::NestedLoop { outer, inner } => {
            scan_collections(outer, out);
            scan_collections(inner, out);
        }
        Physical::Filter { input, .. }
        | Physical::UniversalFilter { input, .. }
        | Physical::Project { input, .. }
        | Physical::Sort { input, .. }
        | Physical::Parallel { input, .. } => scan_collections(input, out),
    }
}

/// Comparison shape statistics can answer, or `None` for operators they
/// cannot (`is`, `in`, ...).
fn stat_op(op: BinOp) -> Option<StatOp> {
    match op {
        BinOp::Eq => Some(StatOp::Eq),
        BinOp::Ne => Some(StatOp::Ne),
        BinOp::Lt => Some(StatOp::Lt),
        BinOp::Le => Some(StatOp::Le),
        BinOp::Gt => Some(StatOp::Gt),
        BinOp::Ge => Some(StatOp::Ge),
        _ => None,
    }
}

/// Mirror a comparison across its operands (`5 < E.age` ≡ `E.age > 5`).
fn flip_stat_op(op: StatOp) -> StatOp {
    match op {
        StatOp::Lt => StatOp::Gt,
        StatOp::Le => StatOp::Ge,
        StatOp::Gt => StatOp::Lt,
        StatOp::Ge => StatOp::Le,
        other => other,
    }
}

/// Numeric literal value of an expression, for histogram probes.
fn lit_f64(e: &Expr, ctx: &SemaCtx<'_>) -> Option<f64> {
    match e {
        Expr::Unary(UnOp::Neg, inner) => Some(-lit_f64(inner, ctx)?),
        _ => match ctx.literal(e)? {
            Lit::Int(i) => Some(*i as f64),
            Lit::Float(f) => Some(*f),
            _ => None,
        },
    }
}

/// Numeric view of a constant [`Value`], for histogram probes.
pub(crate) fn value_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Selectivity of a single comparison against one attribute's
/// statistics. `None` when the statistics cannot answer it (no
/// histogram and a non-equality operator, or no numeric constant).
/// Only a range comparison reads the constant's `value`.
fn attr_selectivity(a: &AttrStats, op: StatOp, value: impl FnOnce() -> Option<f64>) -> Option<f64> {
    match op {
        StatOp::Eq => Some(a.eq_selectivity()),
        StatOp::Ne => Some((1.0 - a.null_frac - a.eq_selectivity()).clamp(0.0, 1.0)),
        _ => a.cmp_selectivity(op, value()?),
    }
}

/// Selectivity of one conjunct, consulting `analyze` statistics for
/// `V.attr <op> const` shapes over known scan sources and falling back
/// to the fixed factors otherwise — so unanalyzed collections see
/// exactly the constant-based estimates.
fn conjunct_selectivity(c: &Expr, sources: &HashMap<String, String>, ctx: &SemaCtx<'_>) -> f64 {
    if let Expr::Binary(op, lhs, rhs) = c {
        if let Some(sop) = stat_op(*op) {
            let sides = [(lhs, rhs, sop), (rhs, lhs, flip_stat_op(sop))];
            for (attr_side, const_side, sop) in sides {
                let Expr::Path(base, attr) = &**attr_side else {
                    continue;
                };
                let Expr::Var(v) = &**base else { continue };
                let Some(stats) = sources.get(v).and_then(|c| ctx.catalog.stats_for(c)) else {
                    continue;
                };
                let Some(a) = stats.attr(attr) else { continue };
                if let Some(sel) = attr_selectivity(a, sop, || lit_f64(const_side, ctx)) {
                    return sel;
                }
            }
        }
    }
    fixed_conjunct_selectivity(c)
}

/// Estimated selectivity of a predicate given the scan sources of the
/// plan it filters: the product over its conjuncts.
pub fn selectivity_with(pred: &Expr, sources: &HashMap<String, String>, ctx: &SemaCtx<'_>) -> f64 {
    match pred {
        Expr::Binary(BinOp::And, a, b) => {
            selectivity_with(a, sources, ctx) * selectivity_with(b, sources, ctx)
        }
        c => conjunct_selectivity(c, sources, ctx),
    }
}

/// Collection a bare collection binding scans, if that is its shape.
pub(crate) fn binding_collection(b: &ResolvedRange) -> Option<&str> {
    match &b.root {
        RootSource::Collection(obj) => Some(&obj.name),
        _ => None,
    }
}

/// Selectivity of an equi join probe against `binding`'s collection on
/// `attr`: expected fraction of build members matching one probe key.
fn eq_join_selectivity(b: &ResolvedRange, attr: &str, ctx: &SemaCtx<'_>) -> f64 {
    binding_collection(b)
        .and_then(|c| ctx.catalog.stats_for(c))
        .and_then(|s| s.attr(attr).map(AttrStats::eq_selectivity))
        .unwrap_or(SEL_EQ)
}

/// Estimated members produced by iterating a binding once.
pub fn binding_cardinality(b: &ResolvedRange, ctx: &SemaCtx<'_>) -> f64 {
    match &b.root {
        RootSource::Collection(obj) => ctx
            .collection_size(&obj.name)
            .map(|n| n as f64)
            .or_else(|| ctx.catalog.stats_for(&obj.name).map(|s| s.row_count as f64))
            .unwrap_or(DEFAULT_SIZE),
        RootSource::Object(_) => {
            if b.steps.is_empty() {
                1.0
            } else {
                DEFAULT_FANOUT
            }
        }
        RootSource::Var(_) => DEFAULT_FANOUT,
        RootSource::System(_) => SYSTEM_VIEW_ROWS,
    }
}

/// Estimated output cardinality of a physical plan.
pub fn cardinality<E: PlanExpr>(plan: &Physical<E>, ctx: &SemaCtx<'_>) -> f64 {
    match plan {
        Physical::Unit => 1.0,
        Physical::SeqScan { binding } | Physical::SystemScan { binding, .. } => {
            binding_cardinality(binding, ctx)
        }
        Physical::IndexScan {
            binding,
            index,
            probe,
            ..
        } => {
            let base = binding_cardinality(binding, ctx);
            let from_stats = (|| {
                let sop = stat_op(probe.op)?;
                let stats = ctx.catalog.stats_for(binding_collection(binding)?)?;
                attr_selectivity(stats.attr(&index.attr)?, sop, || {
                    if let Some(slot) = probe.hole {
                        ctx.read_hole(slot);
                    }
                    value_f64(&probe.value)
                })
            })();
            let sel = from_stats.unwrap_or(match probe.op {
                BinOp::Eq => SEL_EQ,
                _ => SEL_RANGE,
            });
            (base * sel).max(1.0)
        }
        Physical::Unnest { input, binding, .. } => {
            cardinality(input, ctx) * binding_cardinality(binding, ctx)
        }
        Physical::NestedLoop { outer, inner } => cardinality(outer, ctx) * cardinality(inner, ctx),
        Physical::Filter { input, pred } => {
            let mut sources = HashMap::new();
            scan_collections(input, &mut sources);
            (cardinality(input, ctx) * selectivity_with(pred.src(), &sources, ctx)).max(1.0)
        }
        Physical::HashJoin {
            input, binding, on, ..
        } => {
            let n = cardinality(input, ctx);
            let t = binding_cardinality(binding, ctx);
            (n * t * eq_join_selectivity(binding, join_attr(&**on), ctx)).max(1.0)
        }
        Physical::IndexJoin {
            input,
            binding,
            index,
            ..
        } => {
            let n = cardinality(input, ctx);
            let t = binding_cardinality(binding, ctx);
            (n * t * eq_join_selectivity(binding, &index.attr, ctx)).max(1.0)
        }
        Physical::UniversalFilter { input, .. } => (cardinality(input, ctx) * SEL_OTHER).max(1.0),
        Physical::Project { input, .. }
        | Physical::Sort { input, .. }
        | Physical::Parallel { input, .. } => cardinality(input, ctx),
    }
}

/// Estimated cost (abstract units ≈ member visits). Each operator pays
/// its per-row work plus [`batch_overhead`] for the batches it emits.
pub fn cost(plan: &Physical, ctx: &SemaCtx<'_>) -> f64 {
    match plan {
        Physical::Unit => 0.0,
        Physical::SeqScan { binding } | Physical::SystemScan { binding, .. } => {
            let n = binding_cardinality(binding, ctx);
            n + batch_overhead(n)
        }
        Physical::IndexScan { binding, .. } => {
            let n = binding_cardinality(binding, ctx).max(2.0);
            let out = cardinality(plan, ctx);
            n.log2() + out + batch_overhead(out)
        }
        Physical::Unnest { input, binding, .. } => {
            let out = cardinality(input, ctx) * binding_cardinality(binding, ctx);
            cost(input, ctx) + out + batch_overhead(out)
        }
        Physical::NestedLoop { outer, inner } => {
            let out = cardinality(plan, ctx);
            cost(outer, ctx) + cardinality(outer, ctx) * cost(inner, ctx) + batch_overhead(out)
        }
        Physical::Filter { input, .. } => {
            let n = cardinality(input, ctx);
            cost(input, ctx) + n + batch_overhead(n)
        }
        Physical::UniversalFilter {
            input, universe, ..
        } => {
            let universe = cardinality(universe, ctx);
            let n = cardinality(input, ctx);
            cost(input, ctx) + n * universe + batch_overhead(n)
        }
        Physical::Project { input, .. } => {
            let n = cardinality(input, ctx);
            cost(input, ctx) + n + batch_overhead(n)
        }
        Physical::Sort { input, .. } => {
            let n = cardinality(input, ctx).max(2.0);
            cost(input, ctx) + n * n.log2() + batch_overhead(n)
        }
        Physical::HashJoin { input, binding, .. } => {
            // Build scans and dereferences every member once; probes are
            // then O(1) hash lookups, plus one emit per matching row.
            let n = cardinality(input, ctx);
            let t = binding_cardinality(binding, ctx);
            let out = cardinality(plan, ctx);
            cost(input, ctx) + 2.0 * t + n + out + batch_overhead(out)
        }
        Physical::IndexJoin { input, binding, .. } => {
            let n = cardinality(input, ctx);
            let t = binding_cardinality(binding, ctx).max(2.0);
            let out = cardinality(plan, ctx);
            cost(input, ctx) + n * t.log2() + out + batch_overhead(out)
        }
        Physical::Parallel { input, dop } => {
            parallel_cost(cost(input, ctx), cardinality(input, ctx), *dop)
        }
    }
}
