//! Pull-based batch cursors: the execution protocol over
//! [`ExecNode`] plans.
//!
//! Every operator is a *batch transformer*: it consumes batches of input
//! rows and produces batches of output rows (the input rows extended
//! with whatever the operator binds). Leaves compose the same way — a
//! scan joins each input row against the collection's members, so
//! `NestedLoop { outer, inner }` is literally `open(inner, open(outer,
//! seed))`: the outer's output batches become the inner's input batches,
//! and the member list is fetched from storage once (in
//! [`ExecCtx::batch_size`]-sized chunks via the storage layer's
//! `next_batch` APIs) and replayed from a cache for every further input
//! row, instead of re-scanned per outer row as the old row-at-a-time
//! `for_each` protocol did.
//!
//! Filters evaluate their predicate across the whole batch into a
//! selection vector, then [`RowBatch::gather`] the surviving rows (a
//! batch that passes intact is forwarded without copying). Sort
//! materializes, sorts a row-index permutation, and re-batches.

use std::collections::VecDeque;
use std::vec::IntoIter;

use exodus_storage::btree::BTree;
use exodus_storage::RecordId;
use extra_model::{ModelError, ModelResult, Value};

use crate::batch::{Bindings, RowBatch};
use crate::cexpr::CExpr;
use crate::env::MemberId;
use crate::eval::{eval, truthy, ExecCtx};
use crate::plan::{walk_path, ExecNode, USource};
use crate::profile::PlanIndex;

impl ExecNode {
    /// Open a batch cursor over this plan, seeded with one batch of
    /// pre-bound rows (typically a single row of parameters).
    pub fn cursor(&self, seed: RowBatch) -> Cursor<'_> {
        open(self, Cursor::Seed(Some(seed)), None)
    }

    /// Like [`ExecNode::cursor`], but resolves each cursor's metric slot
    /// against `index` so pulls are profiled (see [`crate::profile`]).
    /// The index must have been built over this same plan tree.
    pub fn cursor_profiled<'p>(&'p self, seed: RowBatch, index: Option<&PlanIndex>) -> Cursor<'p> {
        open(self, Cursor::Seed(Some(seed)), index)
    }
}

/// A batch iterator over a plan subtree.
pub enum Cursor<'p> {
    /// Emits the seed batch once.
    Seed(Option<RowBatch>),
    /// Collection / index scan joined against its input rows.
    Scan(ScanCursor<'p>),
    /// Nested set/array unnest.
    Unnest(UnnestCursor<'p>),
    /// Selection-vector filter.
    Filter {
        /// Input cursor.
        input: Box<Cursor<'p>>,
        /// Compiled predicate.
        pred: &'p CExpr,
        /// Metric slot when profiling.
        slot: Option<u32>,
    },
    /// Universal-quantification filter.
    Universal {
        /// Input cursor.
        input: Box<Cursor<'p>>,
        /// Sub-plan enumerating the universal bindings.
        universe: &'p ExecNode,
        /// Predicate that must hold for every universal binding.
        pred: &'p CExpr,
        /// Metric slot when profiling.
        slot: Option<u32>,
    },
    /// Materializing sort.
    Sort {
        /// Input cursor.
        input: Box<Cursor<'p>>,
        /// Compiled key.
        key: &'p CExpr,
        /// Ascending?
        asc: bool,
        /// Sorted output, re-batched (filled on first pull).
        out: Option<IntoIter<RowBatch>>,
        /// Metric slot when profiling.
        slot: Option<u32>,
    },
    /// Emits pre-built batches (parallel workers replay morsel output
    /// through the rest of a pipeline with this as the substituted leaf).
    Queue(VecDeque<RowBatch>),
    /// Hash join probing a build-once member table.
    HashJoin(HashJoinCursor<'p>),
    /// Index nested-loop join probing a secondary index per row.
    IndexJoin(IndexJoinCursor<'p>),
    /// Parallel exchange over a pipeline (see the `parallel` module).
    Parallel(ParallelCursor<'p>),
}

fn open<'p>(node: &'p ExecNode, input: Cursor<'p>, index: Option<&PlanIndex>) -> Cursor<'p> {
    open_sub(node, None, input, index)
}

/// Open a cursor over `node`, except that the node identical to `leaf`
/// (by address) is replaced by `input` instead of opening normally —
/// parallel workers use this to splice morsel batches in for the
/// partitioned leftmost scan. When `index` is given, each cursor
/// resolves its profiling slot (nodes absent from the index — aggregate
/// sub-plans, universe plans — simply stay unprofiled).
pub(crate) fn open_sub<'p>(
    node: &'p ExecNode,
    leaf: Option<&'p ExecNode>,
    input: Cursor<'p>,
    index: Option<&PlanIndex>,
) -> Cursor<'p> {
    if leaf.is_some_and(|l| std::ptr::eq(node, l)) {
        return input;
    }
    let slot = index.and_then(|ix| ix.slot_of(node));
    match node {
        ExecNode::Unit => input,
        ExecNode::SeqScan { var, anchor } => Cursor::Scan(ScanCursor {
            input: Box::new(input),
            var,
            kind: ScanKind::Heap { anchor: *anchor },
            members: None,
            in_batch: None,
            in_row: 0,
            pos: 0,
            slot,
        }),
        ExecNode::SystemScan { var, view } => Cursor::Scan(ScanCursor {
            input: Box::new(input),
            var,
            kind: ScanKind::System { view },
            members: None,
            in_batch: None,
            in_row: 0,
            pos: 0,
            slot,
        }),
        ExecNode::IndexScan {
            var,
            anchor,
            root,
            lower,
            upper,
        } => Cursor::Scan(ScanCursor {
            input: Box::new(input),
            var,
            kind: ScanKind::Index {
                anchor: *anchor,
                root: *root,
                lower,
                upper,
            },
            members: None,
            in_batch: None,
            in_row: 0,
            pos: 0,
            slot,
        }),
        ExecNode::Unnest {
            input: child,
            var,
            source,
        } => Cursor::Unnest(UnnestCursor {
            input: Box::new(open_sub(child, leaf, input, index)),
            var,
            source,
            in_batch: None,
            in_row: 0,
            items: None,
            slot,
        }),
        // Batch streams compose: the outer's output is the inner's input.
        ExecNode::NestedLoop { outer, inner } => {
            open_sub(inner, leaf, open_sub(outer, leaf, input, index), index)
        }
        ExecNode::Filter { input: child, pred } => Cursor::Filter {
            input: Box::new(open_sub(child, leaf, input, index)),
            pred,
            slot,
        },
        ExecNode::UniversalFilter {
            input: child,
            universe,
            pred,
        } => Cursor::Universal {
            input: Box::new(open_sub(child, leaf, input, index)),
            universe,
            pred,
            slot,
        },
        // A mid-tree projection only narrows the output list, which is
        // applied by the plan runner; rows pass through.
        ExecNode::Project { input: child, .. } => open_sub(child, leaf, input, index),
        ExecNode::Sort {
            input: child,
            key,
            asc,
        } => Cursor::Sort {
            input: Box::new(open_sub(child, leaf, input, index)),
            key,
            asc: *asc,
            out: None,
            slot,
        },
        ExecNode::HashJoin {
            input: child,
            var,
            anchor,
            key,
            on,
        } => Cursor::HashJoin(HashJoinCursor {
            input: Box::new(open_sub(child, leaf, input, index)),
            var,
            anchor: *anchor,
            key,
            on: *on,
            table: None,
            slot,
        }),
        ExecNode::IndexJoin {
            input: child,
            var,
            anchor,
            root,
            key,
            key_ty,
        } => Cursor::IndexJoin(IndexJoinCursor {
            input: Box::new(open_sub(child, leaf, input, index)),
            var,
            anchor: *anchor,
            root: *root,
            key,
            key_ty,
            slot,
        }),
        ExecNode::Parallel { input: child, .. } => Cursor::Parallel(ParallelCursor {
            plan: child,
            input: Box::new(input),
            state: None,
            slot,
        }),
    }
}

impl Cursor<'_> {
    /// This cursor's profiling slot, if one was resolved at open time.
    fn slot(&self) -> Option<u32> {
        match self {
            Cursor::Seed(_) | Cursor::Queue(_) => None,
            Cursor::Scan(s) => s.slot,
            Cursor::Unnest(u) => u.slot,
            Cursor::Filter { slot, .. }
            | Cursor::Universal { slot, .. }
            | Cursor::Sort { slot, .. } => *slot,
            Cursor::HashJoin(h) => h.slot,
            Cursor::IndexJoin(i) => i.slot,
            Cursor::Parallel(p) => p.slot,
        }
    }

    /// Pull the next non-empty batch, or `None` when exhausted.
    ///
    /// When the context carries a profiler and this cursor has a slot,
    /// the pull is timed (wall clock, inclusive of upstream pulls) and
    /// the produced batch is counted — one timer sample and a few adds
    /// per *batch*, nothing per row.
    pub fn next(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        match (self.slot(), ctx.profiler.as_ref()) {
            (Some(slot), Some(_)) => {
                let t0 = std::time::Instant::now();
                let out = self.next_inner(ctx);
                let prof = ctx.profiler.as_ref().expect("checked above");
                prof.record_ns(slot, t0.elapsed().as_nanos() as u64);
                if let Ok(Some(batch)) = &out {
                    prof.record_out(slot, batch.len());
                }
                out
            }
            _ => self.next_inner(ctx),
        }
    }

    fn next_inner(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        match self {
            Cursor::Seed(seed) => Ok(seed.take()),
            Cursor::Scan(scan) => scan.next(ctx),
            Cursor::Unnest(unnest) => unnest.next(ctx),
            Cursor::Filter { input, pred, slot } => loop {
                let Some(batch) = input.next(ctx)? else {
                    return Ok(None);
                };
                ctx.prof_in(*slot, batch.len());
                let mut sel: Vec<usize> = Vec::new();
                for r in 0..batch.len() {
                    if truthy(&eval(pred, ctx, &batch.row(r))?)? {
                        sel.push(r);
                    }
                }
                if sel.len() == batch.len() {
                    if !batch.is_empty() {
                        return Ok(Some(batch));
                    }
                } else if !sel.is_empty() {
                    return Ok(Some(batch.gather(&sel)));
                }
            },
            Cursor::Universal {
                input,
                universe,
                pred,
                slot,
            } => loop {
                let Some(batch) = input.next(ctx)? else {
                    return Ok(None);
                };
                ctx.prof_in(*slot, batch.len());
                let mut sel: Vec<usize> = Vec::new();
                for r in 0..batch.len() {
                    let seed = RowBatch::single(&batch.row(r));
                    let mut ucur = universe.cursor(seed);
                    let mut holds = true; // vacuously true on empty universes
                    'univ: while let Some(ub) = ucur.next(ctx)? {
                        for u in 0..ub.len() {
                            if !truthy(&eval(pred, ctx, &ub.row(u))?)? {
                                holds = false;
                                break 'univ; // stop pulling on first failure
                            }
                        }
                    }
                    if holds {
                        sel.push(r);
                    }
                }
                if sel.len() == batch.len() {
                    if !batch.is_empty() {
                        return Ok(Some(batch));
                    }
                } else if !sel.is_empty() {
                    return Ok(Some(batch.gather(&sel)));
                }
            },
            Cursor::Sort {
                input,
                key,
                asc,
                out,
                slot,
            } => {
                if out.is_none() {
                    let mut all = RowBatch::new();
                    while let Some(b) = input.next(ctx)? {
                        ctx.prof_in(*slot, b.len());
                        all.append(b);
                    }
                    let mut keys: Vec<Value> = Vec::with_capacity(all.len());
                    for r in 0..all.len() {
                        keys.push(eval(key, ctx, &all.row(r))?);
                    }
                    let mut idx: Vec<usize> = (0..all.len()).collect();
                    // Stable: ties keep input order.
                    idx.sort_by(|&a, &b| {
                        let ord = keys[a]
                            .compare(&keys[b], ctx.adts)
                            .unwrap_or(std::cmp::Ordering::Equal);
                        if *asc {
                            ord
                        } else {
                            ord.reverse()
                        }
                    });
                    let sorted = all.gather(&idx);
                    *out = Some(sorted.chunks(ctx.batch_size).into_iter());
                }
                Ok(out.as_mut().expect("just filled").next())
            }
            Cursor::Queue(batches) => loop {
                match batches.pop_front() {
                    Some(b) if b.is_empty() => continue,
                    other => return Ok(other),
                }
            },
            Cursor::HashJoin(join) => join.next(ctx),
            Cursor::IndexJoin(join) => join.next(ctx),
            Cursor::Parallel(par) => par.next(ctx),
        }
    }
}

/// The build side of a hash join.
enum JoinTable {
    /// Reference mode: member OID → dereferenced member tuple.
    ByRef(std::collections::HashMap<exodus_storage::Oid, Value>),
    /// Equi mode: normalized key bytes → matching members (original
    /// member value plus identity, exactly as a scan would bind them).
    ByKey(std::collections::HashMap<Vec<u8>, Vec<(Value, MemberId)>>),
}

/// Normalized hash key for equi-join matching: integral floats collapse
/// to ints so `Int(2)` and `Float(2.0)` meet, mirroring `=` comparison
/// semantics.
fn join_key(v: &Value) -> Vec<u8> {
    let norm = match v {
        Value::Float(f)
            if f.fract() == 0.0
                && f.is_finite()
                && (i64::MIN as f64..=i64::MAX as f64).contains(f) =>
        {
            Value::Int(*f as i64)
        }
        other => other.clone(),
    };
    extra_model::valueio::to_bytes(&norm)
}

/// Join-key values for every row of a batch. The dominant probe shape —
/// `Attr(base, pos)` where the bases evaluate to references (e.g.
/// `E.dept` over a reference-binding scan) — fetches all fields through
/// the storage layer's batched read, pinning each object-directory and
/// heap page once per batch instead of three pages per row. Non-Attr
/// keys, non-reference bases, and rows the batched read declines
/// (version chains, LOB payloads) evaluate row by row, reproducing the
/// scalar path's exact semantics.
fn eval_keys(key: &CExpr, ctx: &ExecCtx<'_>, batch: &RowBatch) -> ModelResult<Vec<Value>> {
    if let CExpr::Attr(base, pos) = key {
        let mut bases = Vec::with_capacity(batch.len());
        for r in 0..batch.len() {
            bases.push(eval(base, ctx, &batch.row(r))?);
        }
        if bases.iter().any(|v| matches!(v, Value::Ref(_))) {
            let mut idxs = Vec::with_capacity(batch.len());
            let mut oids = Vec::with_capacity(batch.len());
            for (r, v) in bases.iter().enumerate() {
                if let Value::Ref(o) = v {
                    idxs.push(r);
                    oids.push(*o);
                }
            }
            let fetched = ctx.store.fields_of_batch_at(&oids, *pos, ctx.snapshot)?;
            let mut out: Vec<Option<Value>> = vec![None; batch.len()];
            for (k, field) in fetched.into_iter().enumerate() {
                out[idxs[k]] = field;
            }
            return out
                .into_iter()
                .enumerate()
                .map(|(r, v)| match v {
                    Some(v) => Ok(v),
                    None => eval(key, ctx, &batch.row(r)),
                })
                .collect();
        }
    }
    (0..batch.len())
        .map(|r| eval(key, ctx, &batch.row(r)))
        .collect()
}

/// Hash join against a collection's members. The table is built lazily
/// on the first input batch (one snapshot scan of the build collection),
/// then probed once per input row.
pub struct HashJoinCursor<'p> {
    input: Box<Cursor<'p>>,
    var: &'p str,
    anchor: exodus_storage::Oid,
    key: &'p CExpr,
    /// Build attribute position for equi mode; `None` = reference mode.
    on: Option<usize>,
    table: Option<JoinTable>,
    /// Metric slot when profiling.
    slot: Option<u32>,
}

impl HashJoinCursor<'_> {
    fn build(&self, ctx: &ExecCtx<'_>) -> ModelResult<JoinTable> {
        let cap = ctx.batch_size.max(1);
        let mut scan = ctx.store.scan_members_batch_at(self.anchor, ctx.snapshot)?;
        match self.on {
            None => {
                let mut map = std::collections::HashMap::new();
                loop {
                    let chunk = scan.next_batch(cap)?;
                    if chunk.is_empty() {
                        break;
                    }
                    for (_, value) in chunk {
                        if let Value::Ref(o) = &value {
                            let o = *o;
                            let tuple = crate::eval::deref(ctx, value)?;
                            map.insert(o, tuple);
                        }
                    }
                }
                Ok(JoinTable::ByRef(map))
            }
            Some(pos) => {
                let mut map: std::collections::HashMap<Vec<u8>, Vec<(Value, MemberId)>> =
                    std::collections::HashMap::new();
                loop {
                    let chunk = scan.next_batch(cap)?;
                    if chunk.is_empty() {
                        break;
                    }
                    for (rid, value) in chunk {
                        let tuple = crate::eval::deref(ctx, value.clone())?;
                        let keyv = match &tuple {
                            Value::Tuple(fields) => fields.get(pos).cloned().unwrap_or(Value::Null),
                            _ => Value::Null,
                        };
                        // Null keys match nothing, as in the nested loop
                        // this join replaces.
                        if keyv.is_null() {
                            continue;
                        }
                        let (value, id) = member_binding(self.anchor, rid, value);
                        map.entry(join_key(&keyv)).or_default().push((value, id));
                    }
                }
                Ok(JoinTable::ByKey(map))
            }
        }
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        loop {
            let Some(batch) = self.input.next(ctx)? else {
                return Ok(None);
            };
            if batch.is_empty() {
                continue;
            }
            ctx.prof_in(self.slot, batch.len());
            if self.table.is_none() {
                self.table = Some(self.build(ctx)?);
            }
            let mut out = RowBatch::with_vars(RowBatch::extended_vars(&batch, self.var));
            match self.table.as_ref().expect("just built") {
                JoinTable::ByRef(map) => {
                    // 1:1 with the input: every row is extended, with a
                    // plain dereference as the probe-miss fallback (a
                    // reference outside the build collection, an owned
                    // tuple, or null).
                    let keys = eval_keys(self.key, ctx, &batch)?;
                    for (r, kv) in keys.into_iter().enumerate() {
                        let (value, id) = match kv {
                            Value::Ref(o) => match map.get(&o) {
                                Some(t) => (t.clone(), MemberId::Object(o)),
                                None => {
                                    (crate::eval::deref(ctx, Value::Ref(o))?, MemberId::Object(o))
                                }
                            },
                            other => (crate::eval::deref(ctx, other)?, MemberId::None),
                        };
                        out.push_extended(&batch, r, self.var, value, id);
                    }
                    return Ok(Some(out));
                }
                JoinTable::ByKey(map) => {
                    let keys = eval_keys(self.key, ctx, &batch)?;
                    for (r, kv) in keys.into_iter().enumerate() {
                        if kv.is_null() {
                            continue;
                        }
                        if let Some(matches) = map.get(&join_key(&kv)) {
                            for (value, id) in matches {
                                out.push_extended(&batch, r, self.var, value.clone(), id.clone());
                            }
                        }
                    }
                    if !out.is_empty() {
                        return Ok(Some(out));
                    }
                }
            }
        }
    }
}

/// Index nested-loop join: equality-probes a secondary B+-tree per
/// input row and emits one output row per visible match.
pub struct IndexJoinCursor<'p> {
    input: Box<Cursor<'p>>,
    var: &'p str,
    anchor: exodus_storage::Oid,
    root: u64,
    key: &'p CExpr,
    key_ty: &'p extra_model::Type,
    /// Metric slot when profiling.
    slot: Option<u32>,
}

/// Coerce a probe value to the indexed attribute's declared type so its
/// key encoding matches the index entries (mirrors the planner's
/// constant coercion for index scans).
fn coerce_key(v: &Value, ty: &extra_model::Type) -> Value {
    use extra_model::Type;
    match (v, ty) {
        (Value::Int(i), Type::Base(b)) if b.is_float() => Value::Float(*i as f64),
        (Value::Float(f), Type::Base(b)) if b.is_integer() && f.fract() == 0.0 => {
            Value::Int(*f as i64)
        }
        _ => v.clone(),
    }
}

impl IndexJoinCursor<'_> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        loop {
            let Some(batch) = self.input.next(ctx)? else {
                return Ok(None);
            };
            if batch.is_empty() {
                continue;
            }
            ctx.prof_in(self.slot, batch.len());
            let mut out = RowBatch::with_vars(RowBatch::extended_vars(&batch, self.var));
            let keys = eval_keys(self.key, ctx, &batch)?;
            for (r, kv) in keys.into_iter().enumerate() {
                if kv.is_null() {
                    continue;
                }
                let kv = coerce_key(&kv, self.key_ty);
                let Some(kb) = kv.key_encode(ctx.adts) else {
                    continue;
                };
                let key = std::ops::Bound::Included(kb);
                index_members(
                    ctx,
                    self.anchor,
                    self.root,
                    key.clone(),
                    key,
                    |value, id| out.push_extended(&batch, r, self.var, value, id),
                )?;
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

/// The exchange operator: materializes its (single-row) upstream seed,
/// hands the pipeline to the morsel driver on first pull, and replays
/// the merged output batches. When the driver declines (small scan, one
/// worker, multi-row seed) the pipeline runs serially in place.
pub struct ParallelCursor<'p> {
    /// The pipeline below the exchange.
    plan: &'p ExecNode,
    /// Upstream cursor producing the seed rows.
    input: Box<Cursor<'p>>,
    /// Filled on first pull.
    state: Option<ParState<'p>>,
    /// Metric slot of the exchange node when profiling.
    slot: Option<u32>,
}

enum ParState<'p> {
    /// Worker output, merged in deterministic scan order.
    Batches(IntoIter<RowBatch>),
    /// Serial fallback.
    Serial(Box<Cursor<'p>>),
}

impl<'p> ParallelCursor<'p> {
    fn next(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        if self.state.is_none() {
            // The exchange is a pipeline breaker for its seed: scoped
            // worker threads cannot outlive a pull, so the whole parallel
            // phase runs eagerly on the first one.
            let mut seed = RowBatch::new();
            while let Some(b) = self.input.next(ctx)? {
                ctx.prof_in(self.slot, b.len());
                seed.append(b);
            }
            let fanned = if seed.len() == 1 {
                crate::parallel::try_parallel_slotted(
                    self.plan,
                    ctx,
                    &seed,
                    self.slot,
                    &|_, batch| Ok(batch),
                )?
            } else {
                None
            };
            self.state = Some(match fanned {
                Some(batches) => ParState::Batches(batches.into_iter()),
                None => ParState::Serial(Box::new(open_sub(
                    self.plan,
                    None,
                    Cursor::Seed(Some(seed)),
                    ctx.profiler.as_ref().map(|p| p.index()),
                ))),
            });
        }
        match self.state.as_mut().expect("just filled") {
            ParState::Batches(it) => loop {
                match it.next() {
                    Some(b) if b.is_empty() => continue,
                    other => return Ok(other),
                }
            },
            ParState::Serial(cur) => cur.next(ctx),
        }
    }
}

/// How a scan fetches its members.
enum ScanKind<'p> {
    Heap {
        anchor: exodus_storage::Oid,
    },
    Index {
        anchor: exodus_storage::Oid,
        root: u64,
        lower: &'p std::ops::Bound<Vec<u8>>,
        upper: &'p std::ops::Bound<Vec<u8>>,
    },
    /// A `sys.<view>` virtual collection, materialized by the catalog's
    /// system-view provider. Members load once per cursor open — that
    /// single `load_members` call *is* the consistent snapshot a sys
    /// scan guarantees (replayed unchanged for every input row).
    System {
        view: &'p str,
    },
}

/// A collection scan joined against its input rows. Members are fetched
/// once — batch-at-a-time from storage — and cached for replay when the
/// scan sits on the inner side of a nested loop.
pub struct ScanCursor<'p> {
    input: Box<Cursor<'p>>,
    var: &'p str,
    kind: ScanKind<'p>,
    members: Option<Vec<(Value, MemberId)>>,
    in_batch: Option<RowBatch>,
    in_row: usize,
    /// Position within `members` for the current input row.
    pos: usize,
    /// Metric slot when profiling.
    slot: Option<u32>,
}

impl ScanCursor<'_> {
    fn load_members(&self, ctx: &ExecCtx<'_>) -> ModelResult<Vec<(Value, MemberId)>> {
        let cap = ctx.batch_size.max(1);
        let mut out: Vec<(Value, MemberId)> = Vec::new();
        match &self.kind {
            ScanKind::Heap { anchor } => {
                let mut scan = ctx.store.scan_members_batch_at(*anchor, ctx.snapshot)?;
                loop {
                    let chunk = scan.next_batch(cap)?;
                    if chunk.is_empty() {
                        break;
                    }
                    for (rid, value) in chunk {
                        out.push(member_binding(*anchor, rid, value));
                    }
                }
            }
            ScanKind::Index {
                anchor,
                root,
                lower,
                upper,
            } => {
                let (lower, upper) = ((*lower).clone(), (*upper).clone());
                index_members(ctx, *anchor, *root, lower, upper, |value, id| {
                    out.push((value, id))
                })?;
            }
            ScanKind::System { view } => {
                let rows = ctx
                    .catalog
                    .system_view_rows(view)
                    .ok_or_else(|| ModelError::Semantic(format!("no system view 'sys.{view}'")))?;
                out.extend(rows.into_iter().map(|v| (v, MemberId::None)));
            }
        }
        Ok(out)
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        let cap = ctx.batch_size.max(1);
        let mut out: Option<RowBatch> = None;
        loop {
            if self.in_batch.is_none() {
                match self.input.next(ctx)? {
                    Some(b) if b.is_empty() => continue,
                    Some(b) => {
                        ctx.prof_in(self.slot, b.len());
                        self.in_batch = Some(b);
                        self.in_row = 0;
                        self.pos = 0;
                    }
                    None => return Ok(out.filter(|b| !b.is_empty())),
                }
            }
            if self.in_row >= self.in_batch.as_ref().expect("checked").len() {
                self.in_batch = None;
                continue;
            }
            if self.members.is_none() {
                self.members = Some(self.load_members(ctx)?);
            }
            let src = self.in_batch.as_ref().expect("checked");
            let ms = self.members.as_ref().expect("just loaded");
            let out_batch = out
                .get_or_insert_with(|| RowBatch::with_vars(RowBatch::extended_vars(src, self.var)));
            while self.pos < ms.len() && out_batch.len() < cap {
                let (value, id) = &ms[self.pos];
                out_batch.push_extended(src, self.in_row, self.var, value.clone(), id.clone());
                self.pos += 1;
            }
            if self.pos >= ms.len() {
                self.pos = 0;
                self.in_row += 1;
            }
            if out_batch.len() == cap {
                return Ok(out);
            }
        }
    }
}

/// Walk a B+-tree key range and hand `emit` the binding of every entry's
/// member this snapshot can see. Index entries are maintained
/// synchronously by the writer, so they can point at versions outside
/// the snapshot (uncommitted inserts, deleted members); the visibility
/// check skips those.
fn index_members(
    ctx: &ExecCtx<'_>,
    anchor: exodus_storage::Oid,
    root: u64,
    lower: std::ops::Bound<Vec<u8>>,
    upper: std::ops::Bound<Vec<u8>>,
    mut emit: impl FnMut(Value, MemberId),
) -> ModelResult<()> {
    let pool = ctx.store.storage().pool();
    let mut scan = BTree::open(root).scan(pool.clone(), lower, upper);
    loop {
        let chunk = scan.next_batch(ctx.batch_size.max(1))?;
        if chunk.is_empty() {
            return Ok(());
        }
        for (_, packed) in chunk {
            let rid = RecordId::unpack(packed);
            let Some(bytes) = exodus_storage::heap::read_record_visible(pool, rid, ctx.snapshot)?
            else {
                continue;
            };
            let value = extra_model::valueio::from_bytes(&bytes)?;
            let (value, id) = member_binding(anchor, rid, value);
            emit(value, id);
        }
    }
}

pub(crate) fn member_binding(
    anchor: exodus_storage::Oid,
    rid: RecordId,
    value: Value,
) -> (Value, MemberId) {
    let id = match &value {
        Value::Ref(o) => MemberId::Object(*o),
        _ => MemberId::Record { anchor, rid },
    };
    (value, id)
}

/// Unnests a nested set/array per input row.
pub struct UnnestCursor<'p> {
    input: Box<Cursor<'p>>,
    var: &'p str,
    source: &'p USource,
    in_batch: Option<RowBatch>,
    in_row: usize,
    /// Remaining `(original index, item)` pairs of the current row's
    /// collection (nulls — unfilled array slots — already dropped).
    items: Option<IntoIter<(usize, Value)>>,
    /// Metric slot when profiling.
    slot: Option<u32>,
}

impl UnnestCursor<'_> {
    fn items_for(&self, ctx: &ExecCtx<'_>, src: &RowBatch) -> ModelResult<Vec<(usize, Value)>> {
        let collection = match self.source {
            USource::FromVar { parent, path, .. } => {
                let base =
                    src.row(self.in_row).value(parent).cloned().ok_or_else(|| {
                        ModelError::Semantic(format!("unbound parent '{parent}'"))
                    })?;
                walk_path(ctx, base, path)?
            }
            USource::FromObject { oid, path, .. } => walk_path(ctx, Value::Ref(*oid), path)?,
        };
        let items: Vec<Value> = match collection {
            Value::Set(ms) => ms,
            Value::Array(items) => items,
            Value::Null => Vec::new(),
            other => {
                return Err(ModelError::TypeMismatch {
                    expected: "a set or array".into(),
                    got: other.kind().into(),
                })
            }
        };
        Ok(items
            .into_iter()
            .enumerate()
            .filter(|(_, item)| !item.is_null())
            .collect())
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        let cap = ctx.batch_size.max(1);
        let (parent_desc, names) = match self.source {
            USource::FromVar { parent, names, .. } => (parent.as_str(), names),
            USource::FromObject { names, .. } => ("", names),
        };
        let mut out: Option<RowBatch> = None;
        loop {
            if self.in_batch.is_none() {
                match self.input.next(ctx)? {
                    Some(b) if b.is_empty() => continue,
                    Some(b) => {
                        ctx.prof_in(self.slot, b.len());
                        self.in_batch = Some(b);
                        self.in_row = 0;
                        self.items = None;
                    }
                    None => return Ok(out.filter(|b| !b.is_empty())),
                }
            }
            if self.in_row >= self.in_batch.as_ref().expect("checked").len() {
                self.in_batch = None;
                continue;
            }
            if self.items.is_none() {
                let src = self.in_batch.as_ref().expect("checked");
                self.items = Some(self.items_for(ctx, src)?.into_iter());
            }
            let src = self.in_batch.as_ref().expect("checked");
            let out_batch = out
                .get_or_insert_with(|| RowBatch::with_vars(RowBatch::extended_vars(src, self.var)));
            let it = self.items.as_mut().expect("just filled");
            let mut row_done = false;
            while out_batch.len() < cap {
                match it.next() {
                    Some((i, item)) => {
                        let id = match &item {
                            Value::Ref(o) => MemberId::Object(*o),
                            _ if !parent_desc.is_empty() => MemberId::Nested {
                                parent: parent_desc.to_string(),
                                steps: names.clone(),
                                index: i,
                            },
                            _ => MemberId::None,
                        };
                        out_batch.push_extended(src, self.in_row, self.var, item, id);
                    }
                    None => {
                        row_done = true;
                        break;
                    }
                }
            }
            if row_done {
                self.items = None;
                self.in_row += 1;
            }
            if out_batch.len() == cap {
                return Ok(out);
            }
        }
    }
}
