//! The expression evaluator.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use excess_lang::BinOp;
use excess_sema::CatalogLookup;
use extra_model::{AdtRegistry, ModelError, ModelResult, ObjectStore, TypeRegistry, Value};

use crate::batch::{Bindings, RowBatch, DEFAULT_BATCH_SIZE};
use crate::cexpr::{AggFunc, AggSource, CAgg, CExpr, MAX_CALL_DEPTH};
use crate::env::{Env, MemberId};
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
    /// Dereferenced-object cache. An `ExecCtx` lives for one statement,
    /// and statements stage every expression evaluation before mutating
    /// (set-oriented updates), so object values are stable for the
    /// context's lifetime. Bounded to keep wide scans from pinning
    /// arbitrary amounts of memory.
    deref_cache: RefCell<HashMap<exodus_storage::Oid, Value>>,
    /// Projected-attribute cache: `(object, field position)` → field
    /// value, filled by the skip-decode deref in the `Attr` evaluator.
    /// Same lifetime/staleness argument as `deref_cache`.
    attr_cache: RefCell<HashMap<(exodus_storage::Oid, usize), Value>>,
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
}

/// Entry cap for [`ExecCtx::deref_cache`].
const DEREF_CACHE_CAP: usize = 4096;

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
            deref_cache: RefCell::new(HashMap::new()),
            attr_cache: RefCell::new(HashMap::new()),
            snapshot,
            profiler: None,
            metrics: None,
        }
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
    /// [`crate::plan::ExecNode::cursor_profiled`] will bump its counters
    /// and sample wall time per pull.
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

/// Chase references until a non-reference value is reached. Hot path for
/// implicit joins (`E.dept.budget`): resolved objects are cached on the
/// context, so a batch of rows referencing the same object pays one
/// storage read.
pub fn deref(ctx: &ExecCtx<'_>, mut v: Value) -> ModelResult<Value> {
    while let Value::Ref(oid) = v {
        if let Some(hit) = ctx.deref_cache.borrow().get(&oid) {
            if let Some(m) = ctx.metrics.as_ref() {
                m.deref_hits.inc();
            }
            v = hit.clone();
            continue;
        }
        v = ctx.store.value_of_at(oid, ctx.snapshot)?;
        if let Some(m) = ctx.metrics.as_ref() {
            m.deref_misses.inc();
        }
        let mut cache = ctx.deref_cache.borrow_mut();
        if cache.len() < DEREF_CACHE_CAP {
            cache.insert(oid, v.clone());
        } else if let Some(m) = ctx.metrics.as_ref() {
            m.deref_full.inc();
        }
    }
    Ok(v)
}

/// Truthiness of a qualification value.
pub fn truthy(v: &Value) -> ModelResult<bool> {
    v.truthy()
}

/// Evaluate a compiled expression.
pub fn eval(e: &CExpr, ctx: &ExecCtx<'_>, env: &dyn Bindings) -> ModelResult<Value> {
    match e {
        CExpr::Const(v) => Ok(v.clone()),
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
        CExpr::Attr(base, pos) => {
            // Fast path: project straight out of a bound variable's tuple
            // without cloning the whole row value first.
            if let CExpr::Var(n) = &**base {
                match env.value(n) {
                    Some(Value::Tuple(fields)) => {
                        return match fields.get(*pos) {
                            Some(f) => Ok(f.clone()),
                            None => Err(ModelError::Semantic(format!(
                                "tuple has {} fields, wanted position {pos}",
                                fields.len()
                            ))),
                        };
                    }
                    Some(Value::Null) => return Ok(Value::Null),
                    _ => {} // refs and unbound fall through to the general path
                }
            }
            let v = eval(base, ctx, env)?;
            // Projected deref: when the base is a reference, skip-decode
            // just the wanted field off the stored record instead of
            // materializing the whole object value (the hot path of
            // implicit joins such as `E.dept.budget`).
            let v = if let Value::Ref(oid) = v {
                if let Some(hit) = ctx.attr_cache.borrow().get(&(oid, *pos)) {
                    if let Some(m) = ctx.metrics.as_ref() {
                        m.deref_hits.inc();
                    }
                    return Ok(hit.clone());
                }
                if !ctx.deref_cache.borrow().contains_key(&oid) {
                    if let Some(field) = ctx.store.field_of_at(oid, *pos, ctx.snapshot)? {
                        if let Some(m) = ctx.metrics.as_ref() {
                            m.deref_misses.inc();
                        }
                        let mut cache = ctx.attr_cache.borrow_mut();
                        if cache.len() < DEREF_CACHE_CAP {
                            cache.insert((oid, *pos), field.clone());
                        } else if let Some(m) = ctx.metrics.as_ref() {
                            m.deref_full.inc();
                        }
                        return Ok(field);
                    }
                }
                // Not a plain tuple record (ref chain, null, out-of-range
                // position): the full deref reproduces ordinary behavior.
                deref(ctx, Value::Ref(oid))?
            } else {
                deref(ctx, v)?
            };
            match v {
                Value::Tuple(mut fields) => {
                    if *pos >= fields.len() {
                        return Err(ModelError::Semantic(format!(
                            "tuple has {} fields, wanted position {pos}",
                            fields.len()
                        )));
                    }
                    Ok(fields.swap_remove(*pos))
                }
                Value::Null => Ok(Value::Null),
                other => Err(ModelError::TypeMismatch {
                    expected: "a tuple".into(),
                    got: other.kind().into(),
                }),
            }
        }
        CExpr::Idx(base, idx) => {
            let b = deref(ctx, eval(base, ctx, env)?)?;
            let i = eval(idx, ctx, env)?;
            if b.is_null() || i.is_null() {
                return Ok(Value::Null);
            }
            Ok(b.array_index(i.as_i64()?)?.clone())
        }
        CExpr::Not(a) => {
            let v = eval(a, ctx, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            Ok(Value::Bool(!v.truthy()?))
        }
        CExpr::Neg(a) => match eval(a, ctx, env)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(ModelError::TypeMismatch {
                expected: "a number".into(),
                got: other.kind().into(),
            }),
        },
        CExpr::Bin(op, a, b) => eval_bin(*op, a, b, ctx, env),
        CExpr::AdtCall { id, func, args } => {
            let vals: Vec<Value> = args
                .iter()
                .map(|a| eval(a, ctx, env))
                .collect::<ModelResult<_>>()?;
            let f = ctx.adts.function(*id, func)?;
            (f.body)(&vals)
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
            let mut set = Value::empty_set();
            for i in items {
                let v = eval(i, ctx, env)?;
                set.set_insert(v)?;
            }
            Ok(set)
        }
        CExpr::TupleLit(fields) => Ok(Value::Tuple(
            fields
                .iter()
                .map(|f| eval(f, ctx, env))
                .collect::<ModelResult<_>>()?,
        )),
    }
}

/// Invoke a pre-planned EXCESS function.
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
    if args.len() != func.params.len() {
        return Err(ModelError::Semantic(format!(
            "'{}' takes {} arguments, got {}",
            func.name,
            func.params.len(),
            args.len()
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
            let mut set = Value::empty_set();
            for row in result.rows {
                if let Some(v) = row.into_iter().next() {
                    set.set_insert(v)?;
                }
            }
            Ok(set)
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
            if !va.is_null() && !va.truthy()? {
                return Ok(Value::Bool(false));
            }
            let vb = eval(b, ctx, env)?;
            return Ok(Value::Bool(va.truthy()? && vb.truthy()?));
        }
        BinOp::Or => {
            let va = eval(a, ctx, env)?;
            if !va.is_null() && va.truthy()? {
                return Ok(Value::Bool(true));
            }
            let vb = eval(b, ctx, env)?;
            return Ok(Value::Bool(va.truthy()? || vb.truthy()?));
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
            // Numeric cross-type equality via compare.
            let equal = match va.compare(&vb, ctx.adts) {
                Some(ord) => ord == std::cmp::Ordering::Equal,
                None => va == vb,
            };
            Ok(Value::Bool(if op == BinOp::Eq { equal } else { !equal }))
        }
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if va.is_null() || vb.is_null() {
                return Ok(Value::Bool(false));
            }
            let ord = va
                .compare(&vb, ctx.adts)
                .ok_or_else(|| ModelError::TypeMismatch {
                    expected: "comparable values".into(),
                    got: format!("{} vs {}", va.kind(), vb.kind()),
                })?;
            let ok = match op {
                BinOp::Lt => ord.is_lt(),
                BinOp::Le => ord.is_le(),
                BinOp::Gt => ord.is_gt(),
                BinOp::Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(ok))
        }
        BinOp::In => eval_membership(&va, &vb, ctx),
        BinOp::Contains => eval_membership(&vb, &va, ctx),
        BinOp::Union => {
            let (sa, sb) = (deref(ctx, va)?, deref(ctx, vb)?);
            sa.set_union(&sb)
        }
        BinOp::Intersect => {
            let (sa, sb) = (deref(ctx, va)?, deref(ctx, vb)?);
            sa.set_intersect(&sb)
        }
        BinOp::SetMinus => {
            let (sa, sb) = (deref(ctx, va)?, deref(ctx, vb)?);
            sa.set_minus(&sb)
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            if va.is_null() || vb.is_null() {
                return Ok(Value::Null);
            }
            arith(op, &va, &vb)
        }
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn eval_membership(member: &Value, set: &Value, ctx: &ExecCtx<'_>) -> ModelResult<Value> {
    if member.is_null() {
        return Ok(Value::Bool(false));
    }
    let set = deref(ctx, set.clone())?;
    match set {
        // Ref-set members compare by identity, own members by value —
        // both are plain equality on the member representation.
        Value::Set(ms) => Ok(Value::Bool(ms.contains(member))),
        Value::Array(items) => Ok(Value::Bool(items.contains(member))),
        Value::Null => Ok(Value::Bool(false)),
        other => Err(ModelError::TypeMismatch {
            expected: "a set".into(),
            got: other.kind().into(),
        }),
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
                    Ok(Value::Int(x / y))
                }
            }
            BinOp::Mod => {
                if *y == 0 {
                    Err(ModelError::Semantic("division by zero".into()))
                } else {
                    Ok(Value::Int(x % y))
                }
            }
            _ => unreachable!(),
        },
        _ => {
            let x = a.as_f64()?;
            let y = b.as_f64()?;
            match op {
                BinOp::Add => Ok(Value::Float(x + y)),
                BinOp::Sub => Ok(Value::Float(x - y)),
                BinOp::Mul => Ok(Value::Float(x * y)),
                BinOp::Div => Ok(Value::Float(x / y)),
                BinOp::Mod => Err(ModelError::TypeMismatch {
                    expected: "integers for %".into(),
                    got: format!("{} % {}", a.kind(), b.kind()),
                }),
                _ => unreachable!(),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Aggregates
// ---------------------------------------------------------------------------

fn group_key(by: &[CExpr], ctx: &ExecCtx<'_>, env: &dyn Bindings) -> ModelResult<Vec<u8>> {
    let vals: Vec<Value> = by
        .iter()
        .map(|b| eval(b, ctx, env))
        .collect::<ModelResult<_>>()?;
    Ok(extra_model::valueio::to_bytes(&Value::Tuple(vals)))
}

fn finalize(func: &AggFunc, vals: Vec<Value>, ctx: &ExecCtx<'_>) -> ModelResult<Value> {
    match func {
        AggFunc::Count => Ok(Value::Int(vals.len() as i64)),
        AggFunc::Sum => {
            let mut int_sum = 0i64;
            let mut float_sum = 0f64;
            let mut any_float = false;
            let mut any = false;
            for v in &vals {
                match v {
                    Value::Int(i) => {
                        int_sum = int_sum.wrapping_add(*i);
                        any = true;
                    }
                    Value::Float(f) => {
                        float_sum += f;
                        any_float = true;
                        any = true;
                    }
                    Value::Null => {}
                    other => {
                        return Err(ModelError::TypeMismatch {
                            expected: "numbers for sum".into(),
                            got: other.kind().into(),
                        })
                    }
                }
            }
            if !any {
                Ok(Value::Null)
            } else if any_float {
                Ok(Value::Float(float_sum + int_sum as f64))
            } else {
                Ok(Value::Int(int_sum))
            }
        }
        AggFunc::Avg => {
            let mut sum = 0f64;
            let mut n = 0usize;
            for v in &vals {
                match v {
                    Value::Int(i) => {
                        sum += *i as f64;
                        n += 1;
                    }
                    Value::Float(f) => {
                        sum += f;
                        n += 1;
                    }
                    Value::Null => {}
                    other => {
                        return Err(ModelError::TypeMismatch {
                            expected: "numbers for avg".into(),
                            got: other.kind().into(),
                        })
                    }
                }
            }
            if n == 0 {
                Ok(Value::Null)
            } else {
                Ok(Value::Float(sum / n as f64))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let want_min = matches!(func, AggFunc::Min);
            let mut best: Option<Value> = None;
            for v in vals {
                if v.is_null() {
                    continue;
                }
                best = match best {
                    None => Some(v),
                    Some(b) => match v.compare(&b, ctx.adts) {
                        Some(ord) if (want_min && ord.is_lt()) || (!want_min && ord.is_gt()) => {
                            Some(v)
                        }
                        _ => Some(b),
                    },
                };
            }
            Ok(best.unwrap_or(Value::Null))
        }
        AggFunc::Unique => {
            let mut set = Value::empty_set();
            for v in vals {
                if !v.is_null() {
                    set.set_insert(v)?;
                }
            }
            Ok(set)
        }
        AggFunc::UserSet(func) => {
            let mut set = Value::empty_set();
            for v in vals {
                set.set_insert(v)?;
            }
            call_function(func, &[set], ctx)
        }
    }
}

fn eval_agg(agg: &CAgg, ctx: &ExecCtx<'_>, env: &dyn Bindings) -> ModelResult<Value> {
    match &agg.source {
        AggSource::SetArg => {
            let arg = agg
                .arg
                .as_ref()
                .expect("SetArg aggregates carry their argument");
            let v = deref(ctx, eval(arg, ctx, env)?)?;
            let vals = match v {
                Value::Set(ms) => ms,
                Value::Array(items) => items.into_iter().filter(|i| !i.is_null()).collect(),
                Value::Null => Vec::new(),
                other => {
                    return Err(ModelError::TypeMismatch {
                        expected: "a set".into(),
                        got: other.kind().into(),
                    })
                }
            };
            finalize(&agg.func, vals, ctx)
        }
        AggSource::Ranges(plan) => {
            // Group table: either cached or computed now.
            let cached = agg.cacheable && ctx.agg_cache.borrow().contains_key(&agg.id);
            if !cached {
                let mut groups: HashMap<Vec<u8>, Vec<Value>> = HashMap::new();
                // Parallel path: aggregate `over` plans bypass the
                // planner's exchange insertion, so the morsel driver is
                // consulted here. Workers run the per-row qual/key/arg
                // evaluation; the deterministic merge order makes the
                // group value lists — and thus float sums — identical to
                // serial execution.
                let seed = RowBatch::single(env);
                // The aggregate plan's root doubles as its "exchange"
                // node in the profile: per-worker morsel stats attach
                // there when the driver engages.
                let agg_slot = ctx.profiler.as_ref().and_then(|p| p.index().slot_of(plan));
                let parallel = crate::parallel::try_parallel_slotted(
                    plan,
                    ctx,
                    &seed,
                    agg_slot,
                    &|wctx, batch| {
                        let mut rows: Vec<(Vec<u8>, Value)> = Vec::with_capacity(batch.len());
                        for r in 0..batch.len() {
                            let row = batch.row(r);
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
                    },
                )?;
                match parallel {
                    Some(parts) => {
                        for part in parts {
                            for (key, val) in part {
                                groups.entry(key).or_default().push(val);
                            }
                        }
                    }
                    None => {
                        // Serial path: iterate the `over` ranges
                        // batch-at-a-time, seeded with the current bindings
                        // (correlation through free outer variables).
                        let mut cur =
                            plan.cursor_profiled(seed, ctx.profiler.as_ref().map(|p| p.index()));
                        while let Some(batch) = cur.next(ctx)? {
                            for r in 0..batch.len() {
                                let row = batch.row(r);
                                if let Some(q) = &agg.qual {
                                    if !truthy(&eval(q, ctx, &row)?)? {
                                        continue;
                                    }
                                }
                                let key = group_key(&agg.by, ctx, &row)?;
                                let val = match &agg.arg {
                                    Some(a) => eval(a, ctx, &row)?,
                                    None => Value::Null,
                                };
                                groups.entry(key).or_default().push(val);
                            }
                        }
                    }
                }
                let mut finalized = HashMap::with_capacity(groups.len());
                for (k, vals) in groups {
                    finalized.insert(k, finalize(&agg.func, vals, ctx)?);
                }
                ctx.agg_cache.borrow_mut().insert(agg.id, finalized);
            }
            let key = group_key(&agg.by, ctx, env)?;
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
