//! The expression evaluator.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use excess_lang::BinOp;
use excess_sema::CatalogLookup;
use extra_model::{
    AdtRegistry, ModelError, ModelResult, ObjectStore, SetBuilder, TypeRegistry, Value,
};

use crate::batch::{Bindings, RowBatch, DEFAULT_BATCH_SIZE};
use crate::cexpr::{AggFunc, AggSource, CAgg, CExpr, MAX_CALL_DEPTH};
use crate::env::{Env, MemberId};
use crate::paths::Unslotted;
use crate::profile::PlanProfiler;

/// Shared execution context.
pub struct ExecCtx<'a> {
    /// The object store.
    pub store: &'a ObjectStore,
    /// Schema types.
    pub types: &'a TypeRegistry,
    /// ADTs.
    pub adts: &'a AdtRegistry,
    /// Catalog (named objects for late binding). `Sync` so parallel
    /// workers can share it (see the `parallel` module).
    pub catalog: &'a (dyn CatalogLookup + Sync),
    /// Rows per execution batch (see [`crate::batch`]).
    pub batch_size: usize,
    /// Worker threads available to parallel exchanges. At 1 (the
    /// default) every pipeline runs serially; worker contexts are
    /// themselves created with 1 so parallelism never nests.
    pub workers: usize,
    /// Current EXCESS-function call depth.
    pub depth: Cell<u32>,
    /// Group tables of cacheable aggregates, keyed by aggregate id.
    pub agg_cache: RefCell<HashMap<usize, HashMap<Vec<u8>, Value>>>,
    /// Snapshot timestamp every storage read evaluates against: the
    /// statement's registered snapshot, or the write transaction's own
    /// timestamp.
    pub snapshot: u64,
    /// Per-operator profiler (EXPLAIN ANALYZE). `None` — the default —
    /// keeps the batch path counter-free and untimed.
    pub profiler: Option<PlanProfiler>,
    /// Database-wide executor counters (see [`crate::ExecMetrics`]).
    /// `None` when the database was built with metrics disabled.
    pub metrics: Option<std::sync::Arc<crate::metrics::ExecMetrics>>,
    /// The values of the statement's literals, which a plan made for its
    /// template binds at its holes.
    pub holes: &'a [Value],
}

impl<'a> ExecCtx<'a> {
    /// New context with the default batch size, every storage read
    /// pinned to the version state visible at `snapshot`.
    pub fn new(
        store: &'a ObjectStore,
        types: &'a TypeRegistry,
        adts: &'a AdtRegistry,
        catalog: &'a (dyn CatalogLookup + Sync),
        snapshot: u64,
    ) -> Self {
        ExecCtx {
            store,
            types,
            adts,
            catalog,
            batch_size: DEFAULT_BATCH_SIZE,
            workers: 1,
            depth: Cell::new(0),
            agg_cache: RefCell::new(HashMap::new()),
            snapshot,
            profiler: None,
            metrics: None,
            holes: &[],
        }
    }

    /// Bind a template plan's holes to `holes`.
    pub fn with_holes(mut self, holes: &'a [Value]) -> Self {
        self.holes = holes;
        self
    }

    /// Override the execution batch size (clamped to at least 1).
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n.max(1);
        self
    }

    /// Override the worker-thread budget (clamped to at least 1).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Install a per-operator profiler; cursors opened through
    /// [`crate::cursor::open`] with its index will bump its counters and
    /// sample wall time per pull.
    pub fn with_profiler(mut self, profiler: PlanProfiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Attach the database-wide executor counters. `None` leaves the
    /// batch loop entirely counter-free (the metrics-disabled path).
    pub fn with_metrics(
        mut self,
        metrics: Option<std::sync::Arc<crate::metrics::ExecMetrics>>,
    ) -> Self {
        self.metrics = metrics;
        self
    }

    /// Count one batch of `rows` input rows against `slot`, when both a
    /// slot and a profiler are present. A no-op (one branch) otherwise.
    #[inline]
    pub fn prof_in(&self, slot: Option<u32>, rows: usize) {
        if let (Some(s), Some(p)) = (slot, self.profiler.as_ref()) {
            p.record_in(s, rows);
        }
    }
}

/// Field `pos` of `v`, through references: the single-row form of what
/// [`crate::paths`] does per batch.
pub(crate) fn attr_of(ctx: &ExecCtx<'_>, v: Value, pos: usize) -> ModelResult<Value> {
    match v {
        Value::Ref(oid) => {
            let (mut field, mut failed) =
                ctx.store.fields_of_many_at(&[oid], &[pos], ctx.snapshot)?;
            match failed.pop() {
                Some((_, e)) => Err(e),
                None => Ok(field.pop().expect("one field per oid")),
            }
        }
        Value::Tuple(mut fields) if pos < fields.len() => Ok(fields.swap_remove(pos)),
        Value::Null => Ok(Value::Null),
        _ => Err(invariant("an attribute step reads a tuple of its type")),
    }
}

/// The error for a value the checker's typing rules out where it stands.
/// Reaching one is a checker bug, reported rather than panicked on.
pub(crate) fn invariant(what: &str) -> ModelError {
    ModelError::Semantic(format!("internal invariant violated: {what}"))
}

/// Truth of a qualification: null is false (two-valued logic with null
/// rejection, per QUEL lineage); the checker admits only booleans.
pub(crate) fn truthy(v: &Value) -> ModelResult<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Null => Ok(false),
        _ => Err(invariant("a qualification is boolean")),
    }
}

pub(crate) static NULL: Value = Value::Null;

/// Borrow the value of a variable, or of a path under one, when it can
/// be had without a storage read: from a slot the operator resolved for
/// the batch, or by stepping through bound tuples.
pub(crate) fn peek<'a>(e: &CExpr, env: &'a dyn Bindings) -> Option<&'a Value> {
    match e {
        CExpr::Var(n) => env.value(n),
        CExpr::Path(slot, attr) => env.slot(*slot).or_else(|| peek(attr, env)),
        CExpr::Attr(base, pos) => match peek(base, env)? {
            Value::Tuple(fields) => fields.get(*pos),
            Value::Null => Some(&NULL),
            _ => None,
        },
        _ => None,
    }
}

/// Evaluate a compiled expression.
pub fn eval(e: &CExpr, ctx: &ExecCtx<'_>, env: &dyn Bindings) -> ModelResult<Value> {
    match e {
        CExpr::Const(v) => Ok(v.clone()),
        CExpr::Hole(slot) => ctx
            .holes
            .get(*slot)
            .cloned()
            .ok_or_else(|| ModelError::Semantic(format!("literal {slot} is not bound"))),
        CExpr::Var(n) => env
            .value(n)
            .cloned()
            .ok_or_else(|| ModelError::Semantic(format!("unbound variable '{n}'"))),
        CExpr::NamedSet(oid) => {
            let mut members = Vec::new();
            let mut scan = ctx.store.scan_members_batch_at(*oid, ctx.snapshot)?;
            loop {
                let chunk = scan.next_batch(ctx.batch_size.max(1))?;
                if chunk.is_empty() {
                    break;
                }
                members.extend(chunk.into_iter().map(|(_, v)| v));
            }
            Ok(Value::Set(members))
        }
        CExpr::NamedRef(oid) => Ok(Value::Ref(*oid)),
        CExpr::NamedValue(oid) => ctx.store.value_of_at(*oid, ctx.snapshot),
        CExpr::Path(_, attr) => match peek(e, env) {
            Some(v) => Ok(v.clone()),
            None => eval(attr, ctx, env),
        },
        CExpr::Attr(base, pos) => match peek(e, env) {
            Some(v) => Ok(v.clone()),
            None => attr_of(ctx, eval(base, ctx, env)?, *pos),
        },
        CExpr::Idx(base, idx) => match (
            ctx.store.deref(eval(base, ctx, env)?, ctx.snapshot)?,
            eval(idx, ctx, env)?,
        ) {
            // 1-based, as the paper writes `TopTen[1]`.
            (Value::Array(mut items), Value::Int(i)) => match usize::try_from(i) {
                Ok(at @ 1..) if at <= items.len() => Ok(items.swap_remove(at - 1)),
                _ => Err(ModelError::IndexOutOfRange {
                    index: i,
                    len: items.len(),
                }),
            },
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Err(invariant("an index applies an integer to an array")),
        },
        CExpr::Not(a) => match eval(a, ctx, env)? {
            Value::Null => Ok(Value::Null),
            v => Ok(Value::Bool(!truthy(&v)?)),
        },
        CExpr::Neg(a) => match eval(a, ctx, env)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            _ => Err(invariant("negation applies to a number")),
        },
        CExpr::Bin(op, a, b) => eval_bin(*op, a, b, ctx, env),
        CExpr::AdtCall { id, func, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, ctx, env))
                .collect::<ModelResult<_>>()?;
            // A null argument yields null, as it does for `+`.
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            (ctx.adts.function(*id, func)?.body)(&vals)
        }
        CExpr::FunCall { func, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, ctx, env))
                .collect::<ModelResult<_>>()?;
            call_function(func, &vals, ctx)
        }
        CExpr::Agg(agg) => eval_agg(agg, ctx, env),
        CExpr::SetLit(items) => {
            let mut set = SetBuilder::default();
            for i in items {
                set.insert(eval(i, ctx, env)?);
            }
            Ok(set.finish())
        }
        CExpr::TupleLit(fields) => Ok(Value::Tuple(
            fields
                .iter()
                .map(|f| eval(f, ctx, env))
                .collect::<ModelResult<_>>()?,
        )),
    }
}

/// Invoke a pre-planned EXCESS function on as many arguments as it has
/// parameters, which the checker's binding of the call ensures.
pub fn call_function(
    func: &crate::cexpr::CompiledFunction,
    args: &[Value],
    ctx: &ExecCtx<'_>,
) -> ModelResult<Value> {
    if ctx.depth.get() >= MAX_CALL_DEPTH {
        return Err(ModelError::Semantic(format!(
            "EXCESS function call depth exceeded in '{}'",
            func.name
        )));
    }
    ctx.depth.set(ctx.depth.get() + 1);
    let result = (|| {
        let mut env = Env::new();
        for (p, v) in func.params.iter().zip(args.iter()) {
            let id = match v {
                Value::Ref(o) => MemberId::Object(*o),
                _ => MemberId::None,
            };
            env.bind(p, v.clone(), id);
        }
        let result = crate::run::run_plan(&func.plan, ctx, &env)?;
        if func.returns_set {
            let mut set = SetBuilder::default();
            for row in result.rows {
                if let Some(v) = row.into_iter().next() {
                    set.insert(v);
                }
            }
            Ok(set.finish())
        } else {
            Ok(result
                .rows
                .into_iter()
                .next()
                .and_then(|r| r.into_iter().next())
                .unwrap_or(Value::Null))
        }
    })();
    ctx.depth.set(ctx.depth.get() - 1);
    result
}

fn eval_bin(
    op: BinOp,
    a: &CExpr,
    b: &CExpr,
    ctx: &ExecCtx<'_>,
    env: &dyn Bindings,
) -> ModelResult<Value> {
    // Short-circuit logic.
    match op {
        BinOp::And => {
            let va = eval(a, ctx, env)?;
            if !va.is_null() && !truthy(&va)? {
                return Ok(Value::Bool(false));
            }
            let vb = eval(b, ctx, env)?;
            return Ok(Value::Bool(truthy(&va)? && truthy(&vb)?));
        }
        BinOp::Or => {
            let va = eval(a, ctx, env)?;
            if truthy(&va)? {
                return Ok(Value::Bool(true));
            }
            let vb = eval(b, ctx, env)?;
            return Ok(Value::Bool(truthy(&vb)?));
        }
        _ => {}
    }
    let va = eval(a, ctx, env)?;
    let vb = eval(b, ctx, env)?;
    match op {
        BinOp::Is | BinOp::IsNot => {
            // Identity: OID equality; null is only itself.
            let same = match (&va, &vb) {
                (Value::Null, Value::Null) => true,
                (Value::Ref(x), Value::Ref(y)) => x == y,
                _ => false,
            };
            Ok(Value::Bool(if op == BinOp::Is { same } else { !same }))
        }
        BinOp::Eq | BinOp::Ne => {
            if va.is_null() || vb.is_null() {
                return Ok(Value::Bool(false));
            }
            // An ordered ADT's values are equal when their keys are.
            let equal = match va.compare(&vb, ctx.adts) {
                Some(ord) => ord == std::cmp::Ordering::Equal,
                None => va.member_eq(&vb),
            };
            Ok(Value::Bool(if op == BinOp::Eq { equal } else { !equal }))
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if va.is_null() || vb.is_null() {
                return Ok(Value::Bool(false));
            }
            // The checker admits ordered types only; NaN orders nowhere.
            let ok = va.compare(&vb, ctx.adts).is_some_and(|ord| match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                _ => ord.is_ge(),
            });
            Ok(Value::Bool(ok))
        }
        BinOp::In => eval_membership(&va, &vb),
        BinOp::Contains => eval_membership(&vb, &va),
        BinOp::Union | BinOp::Intersect | BinOp::SetMinus => match (va, vb) {
            (Value::Set(mut sa), Value::Set(sb)) => {
                match op {
                    BinOp::Union => sb.into_iter().for_each(|v| {
                        if !has(&sa, &v) {
                            sa.push(v)
                        }
                    }),
                    BinOp::Intersect => sa.retain(|v| has(&sb, v)),
                    _ => sa.retain(|v| !has(&sb, v)),
                }
                Ok(Value::Set(sa))
            }
            // A null operand yields null, as it does for `+`.
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            _ => Err(invariant("set operators apply to sets")),
        },
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            if va.is_null() || vb.is_null() {
                return Ok(Value::Null);
            }
            arith(op, &va, &vb)
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

/// Whether `set` holds a member equal to `v`, by the equality of `=`.
fn has(set: &[Value], v: &Value) -> bool {
    set.iter().any(|m| m.member_eq(v))
}

fn eval_membership(member: &Value, set: &Value) -> ModelResult<Value> {
    match set {
        _ if member.is_null() => Ok(Value::Bool(false)),
        // Ref-set members compare by identity, own members by value —
        // both are `member_eq` on the member representation.
        Value::Set(ms) => Ok(Value::Bool(has(ms, member))),
        Value::Null => Ok(Value::Bool(false)),
        _ => Err(invariant("membership tests a set")),
    }
}

fn arith(op: BinOp, a: &Value, b: &Value) -> ModelResult<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => match op {
            BinOp::Add => Ok(Value::Int(x.wrapping_add(*y))),
            BinOp::Sub => Ok(Value::Int(x.wrapping_sub(*y))),
            BinOp::Mul => Ok(Value::Int(x.wrapping_mul(*y))),
            BinOp::Div => {
                if *y == 0 {
                    Err(ModelError::Semantic("division by zero".into()))
                } else {
                    Ok(Value::Int(x.wrapping_div(*y)))
                }
            }
            BinOp::Mod => {
                if *y == 0 {
                    Err(ModelError::Semantic("division by zero".into()))
                } else {
                    Ok(Value::Int(x.wrapping_rem(*y)))
                }
            }
            _ => unreachable!(),
        },
        _ => match (a.as_f64(), b.as_f64(), op) {
            (Some(x), Some(y), BinOp::Add) => Ok(Value::Float(x + y)),
            (Some(x), Some(y), BinOp::Sub) => Ok(Value::Float(x - y)),
            (Some(x), Some(y), BinOp::Mul) => Ok(Value::Float(x * y)),
            (Some(x), Some(y), BinOp::Div) => Ok(Value::Float(x / y)),
            _ => Err(invariant("arithmetic applies to numbers, % to integers")),
        },
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

/// Encoded `by` values of one row: the group it falls in. An aggregate
/// without a `by` list has one group, whose key is empty.
fn group_key(by: &[CExpr], ctx: &ExecCtx<'_>, env: &dyn Bindings) -> ModelResult<Vec<u8>> {
    if by.is_empty() {
        return Ok(Vec::new());
    }
    let vals: Vec<Value> = by
        .iter()
        .map(|b| eval(b, ctx, env))
        .collect::<ModelResult<_>>()?;
    Ok(extra_model::valueio::to_bytes(&Value::Tuple(vals)))
}

/// The running state of one group of an aggregate: values fold in as
/// they arrive, in arrival order, so nothing but `unique` and user set
/// functions keeps what it has seen.
enum Acc {
    Count(i64),
    /// Int and float parts are kept apart and combined once at the end.
    Sum {
        int: i64,
        float: f64,
        any_float: bool,
        any: bool,
    },
    Avg {
        sum: f64,
        n: usize,
    },
    /// `min` / `max`.
    Best(Option<Value>),
    /// `unique` and user set functions.
    Set(SetBuilder),
}

impl Acc {
    fn new(func: &AggFunc) -> Acc {
        match func {
            AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => Acc::Sum {
                int: 0,
                float: 0.0,
                any_float: false,
                any: false,
            },
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFunc::Min | AggFunc::Max => Acc::Best(None),
            AggFunc::Unique | AggFunc::UserSet(_) => Acc::Set(SetBuilder::default()),
        }
    }

    fn push(&mut self, func: &AggFunc, v: Value, ctx: &ExecCtx<'_>) -> ModelResult<()> {
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum {
                int,
                float,
                any_float,
                any,
            } => match v {
                Value::Int(i) => {
                    *int = int.wrapping_add(i);
                    *any = true;
                }
                Value::Float(f) => {
                    *float += f;
                    *any_float = true;
                    *any = true;
                }
                Value::Null => {}
                _ => return Err(invariant("sum folds numbers")),
            },
            Acc::Avg { sum, n } => match v {
                Value::Int(i) => {
                    *sum += i as f64;
                    *n += 1;
                }
                Value::Float(f) => {
                    *sum += f;
                    *n += 1;
                }
                Value::Null => {}
                _ => return Err(invariant("avg folds numbers")),
            },
            Acc::Best(best) => {
                if v.is_null() {
                    return Ok(());
                }
                let better = match best.as_ref().map(|b| v.compare(b, ctx.adts)) {
                    None => true,
                    Some(Some(ord)) if matches!(func, AggFunc::Min) => ord.is_lt(),
                    Some(Some(ord)) => ord.is_gt(),
                    Some(None) => false,
                };
                if better {
                    *best = Some(v);
                }
            }
            Acc::Set(set) => {
                if !(v.is_null() && matches!(func, AggFunc::Unique)) {
                    set.insert(v);
                }
            }
        }
        Ok(())
    }

    fn finish(self, func: &AggFunc, ctx: &ExecCtx<'_>) -> ModelResult<Value> {
        Ok(match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum { any: false, .. } => Value::Null,
            Acc::Sum {
                int,
                float,
                any_float: true,
                ..
            } => Value::Float(float + int as f64),
            Acc::Sum { int, .. } => Value::Int(int),
            Acc::Avg { n: 0, .. } => Value::Null,
            Acc::Avg { sum, n } => Value::Float(sum / n as f64),
            Acc::Best(best) => best.unwrap_or(Value::Null),
            Acc::Set(set) => match func {
                AggFunc::UserSet(f) => call_function(f, &[set.finish()], ctx)?,
                _ => set.finish(),
            },
        })
    }
}

/// The group table of one aggregate while it is being computed.
struct Groups<'f> {
    func: &'f AggFunc,
    /// The group of the empty key (no `by` list), folded in place.
    whole: Option<Acc>,
    keyed: HashMap<Vec<u8>, Acc>,
}

impl Groups<'_> {
    /// Fold `(group key, value)` rows in, in order.
    fn fold(&mut self, rows: Vec<(Vec<u8>, Value)>, ctx: &ExecCtx<'_>) -> ModelResult<()> {
        for (key, val) in rows {
            let acc = if key.is_empty() {
                self.whole.get_or_insert_with(|| Acc::new(self.func))
            } else {
                self.keyed.entry(key).or_insert_with(|| Acc::new(self.func))
            };
            acc.push(self.func, val, ctx)?;
        }
        Ok(())
    }

    fn finish(self, ctx: &ExecCtx<'_>) -> ModelResult<HashMap<Vec<u8>, Value>> {
        let whole = self.whole.map(|acc| (Vec::new(), acc));
        self.keyed
            .into_iter()
            .chain(whole)
            .map(|(key, acc)| Ok((key, acc.finish(self.func, ctx)?)))
            .collect()
    }
}

fn eval_agg(agg: &CAgg, ctx: &ExecCtx<'_>, env: &dyn Bindings) -> ModelResult<Value> {
    match &agg.source {
        AggSource::SetArg => {
            let arg = agg
                .arg
                .as_ref()
                .expect("SetArg aggregates carry their argument");
            let v = ctx.store.deref(eval(arg, ctx, env)?, ctx.snapshot)?;
            let vals = match v {
                Value::Set(ms) => ms,
                Value::Array(items) => items.into_iter().filter(|i| !i.is_null()).collect(),
                Value::Null => Vec::new(),
                _ => return Err(invariant("an aggregate without 'over' folds a set")),
            };
            let mut acc = Acc::new(&agg.func);
            for v in vals {
                acc.push(&agg.func, v, ctx)?;
            }
            acc.finish(&agg.func, ctx)
        }
        AggSource::Ranges(plan) => {
            // Group table: either cached or computed now.
            let cached = agg.cacheable && ctx.agg_cache.borrow().contains_key(&agg.id);
            if !cached {
                // The qualifying rows of one batch of the `over` ranges,
                // in batch order, as `(group key, argument value)`.
                let rows_of = |wctx: &ExecCtx<'_>, batch: RowBatch| {
                    let paths = agg.paths.resolve(wctx, &batch)?;
                    let mut rows: Vec<(Vec<u8>, Value)> = Vec::with_capacity(batch.len());
                    for r in 0..batch.len() {
                        let row = paths.row(&batch, r);
                        if let Some(q) = &agg.qual {
                            if !truthy(&eval(q, wctx, &row)?)? {
                                continue;
                            }
                        }
                        let key = group_key(&agg.by, wctx, &row)?;
                        let val = match &agg.arg {
                            Some(a) => eval(a, wctx, &row)?,
                            None => Value::Null,
                        };
                        rows.push((key, val));
                    }
                    Ok(rows)
                };
                // Aggregate `over` plans bypass the planner's exchange
                // insertion, so the morsel driver is consulted here.
                // Workers produce the rows; they are folded here in the
                // driver's deterministic merge order, which is scan
                // order — so float sums are bit-identical to the serial
                // path's at every degree of parallelism.
                let seed = RowBatch::single(env);
                // The aggregate plan's root doubles as its "exchange"
                // node in the profile: per-worker morsel stats attach
                // there when the driver engages.
                let agg_slot = ctx.profiler.as_ref().and_then(|p| p.index().slot_of(plan));
                let mut groups = Groups {
                    func: &agg.func,
                    whole: None,
                    keyed: HashMap::new(),
                };
                match crate::parallel::try_parallel_slotted(plan, ctx, &seed, agg_slot, &rows_of)? {
                    Some(parts) => {
                        for part in parts {
                            groups.fold(part, ctx)?;
                        }
                    }
                    None => {
                        // Serial path: iterate the `over` ranges
                        // batch-at-a-time, seeded with the current
                        // bindings (correlation through free outer
                        // variables).
                        let index = ctx.profiler.as_ref().map(|p| p.index());
                        let mut cur = crate::cursor::open(plan, seed, index);
                        while let Some(batch) = cur.next(ctx)? {
                            groups.fold(rows_of(ctx, batch)?, ctx)?;
                        }
                    }
                }
                let table = groups.finish(ctx)?;
                ctx.agg_cache.borrow_mut().insert(agg.id, table);
            }
            // The outer row is not a row of the batches `by`'s slots
            // were resolved for.
            let key = group_key(&agg.by, ctx, &Unslotted(env))?;
            let cache = ctx.agg_cache.borrow();
            let table = cache.get(&agg.id).expect("just inserted");
            let result = table.get(&key).cloned().unwrap_or(match agg.func {
                AggFunc::Count => Value::Int(0),
                AggFunc::Unique => Value::empty_set(),
                _ => Value::Null,
            });
            if !agg.cacheable {
                drop(cache);
                ctx.agg_cache.borrow_mut().remove(&agg.id);
            }
            Ok(result)
        }
    }
}
