//! Pull-based batch cursors: the execution protocol over prepared
//! [`Plan`]s.
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
use std::sync::Arc;
use std::vec::IntoIter;

use excess_algebra::plan::{KeyRange, Probe};
use excess_algebra::Physical;
use excess_sema::{IndexInfo, ResolvedRange, RootSource, SemaCtx};
use exodus_storage::btree::{BTree, BTreeScan};
use exodus_storage::{Oid, RecordId};
use extra_model::{MemberFields, MemberScan, ModelError, ModelResult, Type, Value};

use crate::batch::RowBatch;
use crate::cexpr::{CExpr, Compiled};
use crate::env::MemberId;
use crate::eval::{deref, eval, invariant, peek, truthy, ExecCtx};
use crate::paths::Resolved;
use crate::plan::{anchor, Plan};
use crate::profile::PlanIndex;

/// Open a batch cursor over `plan`, seeded with one batch of pre-bound
/// rows (typically a single row of parameters). With `index` — built
/// over this same plan — each cursor resolves its metric slot, so pulls
/// are profiled (see [`crate::profile`]).
pub fn open<'p>(plan: &'p Plan, seed: RowBatch, index: Option<&PlanIndex>) -> Cursor<'p> {
    open_sub(plan, None, Cursor::Seed(Some(seed)), index)
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
        pred: &'p Compiled,
        /// Metric slot when profiling.
        slot: Option<u32>,
    },
    /// Universal-quantification filter.
    Universal {
        /// Input cursor.
        input: Box<Cursor<'p>>,
        /// Sub-plan enumerating the universal bindings.
        universe: &'p Plan,
        /// Predicate that must hold for every universal binding.
        pred: &'p Compiled,
        /// Metric slot when profiling.
        slot: Option<u32>,
    },
    /// Materializing sort.
    Sort {
        /// Input cursor.
        input: Box<Cursor<'p>>,
        /// Compiled key.
        key: &'p Compiled,
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

/// Open a cursor over `node`, except that the node identical to `leaf`
/// (by address) is replaced by `input` instead of opening normally —
/// parallel workers use this to splice morsel batches in for the
/// partitioned leftmost scan. When `index` is given, each cursor
/// resolves its profiling slot (nodes absent from the index — aggregate
/// sub-plans, universe plans — simply stay unprofiled).
pub(crate) fn open_sub<'p>(
    node: &'p Plan,
    leaf: Option<&'p Plan>,
    input: Cursor<'p>,
    index: Option<&PlanIndex>,
) -> Cursor<'p> {
    if leaf.is_some_and(|l| std::ptr::eq(node, l)) {
        return input;
    }
    let slot = index.and_then(|ix| ix.slot_of(node));
    match node {
        Physical::Unit => input,
        Physical::SeqScan { binding } => {
            ScanCursor::open(input, &binding.var, ScanKind::Heap { binding }, slot)
        }
        Physical::SystemScan { binding, view } => {
            ScanCursor::open(input, &binding.var, ScanKind::System { view }, slot)
        }
        Physical::IndexScan {
            binding,
            index: ix,
            probe,
            key_ty,
        } => {
            let kind = ScanKind::Index {
                binding,
                index: ix,
                probe,
                key_ty,
            };
            ScanCursor::open(input, &binding.var, kind, slot)
        }
        Physical::Unnest {
            input: child,
            binding,
            source,
            reads,
        } => Cursor::Unnest(UnnestCursor {
            input: Box::new(open_sub(child, leaf, input, index)),
            var: &binding.var,
            source,
            reads: reads.as_deref(),
            container: container(binding),
            in_batch: None,
            in_row: 0,
            items: None,
            slot,
        }),
        // Batch streams compose: the outer's output is the inner's input.
        Physical::NestedLoop { outer, inner } => {
            open_sub(inner, leaf, open_sub(outer, leaf, input, index), index)
        }
        Physical::Filter { input: child, pred } => Cursor::Filter {
            input: Box::new(open_sub(child, leaf, input, index)),
            pred,
            slot,
        },
        Physical::UniversalFilter {
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
        Physical::Project { input: child, .. } => open_sub(child, leaf, input, index),
        Physical::Sort {
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
        Physical::HashJoin {
            input: child,
            binding,
            key,
            on,
        } => Cursor::HashJoin(HashJoinCursor {
            input: Box::new(open_sub(child, leaf, input, index)),
            binding,
            key,
            on,
            table: None,
            slot,
        }),
        Physical::IndexJoin {
            input: child,
            binding,
            index: ix,
            key,
            key_ty,
        } => Cursor::IndexJoin(IndexJoinCursor {
            input: Box::new(open_sub(child, leaf, input, index)),
            binding,
            index: ix,
            key,
            key_ty,
            slot,
        }),
        Physical::Parallel { input: child, .. } => Cursor::Parallel(ParallelCursor {
            plan: child,
            input: Box::new(input),
            state: None,
            slot,
        }),
    }
}

/// The update identity of the items an unnest of `b` binds: the
/// variable its source starts from and the attribute steps from it to
/// the collection; `None` when the source starts from a named object.
fn container(b: &ResolvedRange) -> Option<Arc<(String, Vec<String>)>> {
    match &b.root {
        RootSource::Var(parent) => Some(Arc::new((parent.clone(), b.steps.clone()))),
        _ => None,
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
                let resolved = pred.paths.resolve(ctx, &batch)?;
                let mut sel: Vec<usize> = Vec::new();
                for r in 0..batch.len() {
                    if truthy(&eval(&pred.expr, ctx, &resolved.row(&batch, r))?)? {
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
                    let mut ucur = open(universe, seed, None);
                    let mut holds = true; // vacuously true on empty universes
                    'univ: while let Some(ub) = ucur.next(ctx)? {
                        let resolved = pred.paths.resolve(ctx, &ub)?;
                        for u in 0..ub.len() {
                            if !truthy(&eval(&pred.expr, ctx, &resolved.row(&ub, u))?)? {
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
                    let keys = eval_column(key, ctx, &all)?;
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

/// `e` for every row of `batch`, its paths resolved for the whole batch
/// first.
fn eval_column(e: &Compiled, ctx: &ExecCtx<'_>, batch: &RowBatch) -> ModelResult<Vec<Value>> {
    let resolved = e.paths.resolve(ctx, batch)?;
    (0..batch.len())
        .map(|r| eval(&e.expr, ctx, &resolved.row(batch, r)))
        .collect()
}

/// A hash join's build side: key hash → (key, matching member: original
/// value plus identity, exactly as a scan would bind them). A probe
/// confirms a key with `Value::member_eq`, the equality of `=`, so
/// `Int(2)` and `Float(2.0)` match.
type JoinTable = std::collections::HashMap<u64, Vec<(Value, Value, MemberId)>>;

/// Hash join against a collection's members. The table is built lazily
/// on the first input batch (one snapshot scan of the build collection),
/// then probed once per input row.
pub struct HashJoinCursor<'p> {
    input: Box<Cursor<'p>>,
    /// The build side.
    binding: &'p ResolvedRange,
    key: &'p Compiled,
    /// The build key, over the build side's variable.
    on: &'p Compiled,
    table: Option<JoinTable>,
    /// Metric slot when profiling.
    slot: Option<u32>,
}

impl HashJoinCursor<'_> {
    fn build(&self, ctx: &ExecCtx<'_>) -> ModelResult<JoinTable> {
        let mut map = JoinTable::new();
        let anchor = anchor(self.binding)?;
        let mut members = MemberSource::heap(ctx, anchor)?;
        let unit = RowBatch::single(&crate::env::Env::new());
        loop {
            let chunk = members.next_chunk(ctx, anchor)?;
            if chunk.0.is_empty() {
                return Ok(map);
            }
            // Build keys come off a batch binding only the build variable.
            let batch = RowBatch::broadcast(&unit, 0, &self.binding.var, chunk.clone());
            let keys = eval_column(self.on, ctx, &batch)?;
            for ((value, id), keyv) in chunk.0.into_iter().zip(chunk.1).zip(keys) {
                // Null keys match nothing, as in the nested loop this
                // join replaces.
                if !keyv.is_null() {
                    let hash = keyv.member_hash();
                    map.entry(hash).or_default().push((keyv, value, id));
                }
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
            let map = self.table.as_ref().expect("just built");
            let (mut out, vc) = RowBatch::extending(&batch, &self.binding.var, None);
            let keys = eval_column(self.key, ctx, &batch)?;
            for (r, kv) in keys.into_iter().enumerate() {
                if kv.is_null() {
                    continue;
                }
                let matches = map.get(&kv.member_hash()).into_iter().flatten();
                for (_, value, id) in matches.filter(|(k, ..)| k.member_eq(&kv)) {
                    out.push_extended(&batch, r, vc, [value.clone()], id.clone());
                }
            }
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
    }
}

/// Index nested-loop join: equality-probes a secondary B+-tree per
/// input row and emits one output row per visible match.
pub struct IndexJoinCursor<'p> {
    input: Box<Cursor<'p>>,
    /// The matched side.
    binding: &'p ResolvedRange,
    /// The probed index.
    index: &'p IndexInfo,
    key: &'p Compiled,
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
            let anchor = anchor(self.binding)?;
            let attr = indexed_attr(ctx, self.binding, self.index)?;
            let (mut out, vc) = RowBatch::extending(&batch, &self.binding.var, None);
            let keys = eval_column(self.key, ctx, &batch)?;
            for (r, kv) in keys.into_iter().enumerate() {
                if kv.is_null() {
                    continue;
                }
                let kv = coerce_key(&kv, self.key_ty);
                let Some(kb) = kv.key_encode(ctx.adts) else {
                    continue;
                };
                let key = std::ops::Bound::Included(kb);
                let mut matches = MemberSource::index(ctx, self.index, attr, key.clone(), key);
                loop {
                    let (values, ids) = matches.next_chunk(ctx, anchor)?;
                    if values.is_empty() {
                        break;
                    }
                    for (value, id) in values.into_iter().zip(ids) {
                        out.push_extended(&batch, r, vc, [value], id);
                    }
                }
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
    plan: &'p Plan,
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
        binding: &'p ResolvedRange,
    },
    Index {
        binding: &'p ResolvedRange,
        index: &'p IndexInfo,
        probe: &'p Probe,
        key_ty: &'p Type,
    },
    /// A `sys.<view>` virtual collection, materialized by the catalog's
    /// system-view provider. Members load once per cursor open — that
    /// single load *is* the consistent snapshot a sys scan guarantees
    /// (replayed unchanged for every input row).
    System {
        view: &'p str,
    },
}

/// A stream of a collection's visible members in storage order: the heap
/// file itself, or a key range of one of its B+-tree indexes. The one
/// member reader of serial scans, parallel morsels and index-join
/// probes.
pub(crate) enum MemberSource {
    Heap(MemberScan),
    /// A key range of an index over the element attribute at `attr`.
    Index {
        scan: BTreeScan,
        attr: usize,
    },
}

/// The position of `index`'s attribute in the members `binding` scans,
/// resolved as the writer resolves it when it maintains the index.
pub(crate) fn indexed_attr(
    ctx: &ExecCtx<'_>,
    binding: &ResolvedRange,
    index: &IndexInfo,
) -> ModelResult<usize> {
    SemaCtx::new(ctx.types, ctx.adts, ctx.catalog)
        .attr(&binding.elem, &index.attr)
        .map(|(pos, _)| pos)
        .map_err(|e| ModelError::Semantic(e.to_string()))
}

/// The key range an index scan's probe admits in this execution.
pub(crate) fn index_bounds(
    ctx: &ExecCtx<'_>,
    probe: &Probe,
    key_ty: &Type,
) -> ModelResult<KeyRange> {
    probe
        .bounds(ctx.holes, key_ty, ctx.adts)
        .ok_or_else(|| ModelError::Semantic(format!("no index key encodes {:?}", probe.value)))
}

/// The key each member shows for the indexed attribute at `attr` at the
/// snapshot: a tuple member's own field, a reference member's object's
/// field. `None` for a null attribute, which no index entry carries.
fn indexed_keys(
    ctx: &ExecCtx<'_>,
    members: &[(RecordId, Value)],
    attr: usize,
) -> ModelResult<Vec<Option<Vec<u8>>>> {
    let oids: Vec<Oid> = members
        .iter()
        .filter_map(|(_, v)| match v {
            Value::Ref(o) => Some(*o),
            _ => None,
        })
        .collect();
    let mut fields = ctx
        .store
        .fields_of_many_at(&oids, &[attr], ctx.snapshot)?
        .into_iter()
        .zip(&oids);
    let key = |f: Option<&Value>| {
        f.filter(|f| !f.is_null())
            .and_then(|f| f.key_encode(ctx.adts))
    };
    members
        .iter()
        .map(|(_, member)| match member {
            Value::Tuple(fields) => Ok(key(fields.get(attr))),
            Value::Ref(_) => {
                let (field, &oid) = fields.next().expect("one field per reference");
                let field = match field {
                    Some(f) => Some(f),
                    None => ctx.store.field_of_at(oid, attr, ctx.snapshot)?,
                };
                Ok(key(field.as_ref()))
            }
            _ => Ok(None),
        })
        .collect()
}

impl MemberSource {
    pub(crate) fn heap(ctx: &ExecCtx<'_>, anchor: Oid) -> ModelResult<MemberSource> {
        let scan = ctx.store.scan_members_batch_at(anchor, ctx.snapshot)?;
        Ok(MemberSource::Heap(scan))
    }

    /// A scan of `index`, whose attribute sits at `attr`, within the
    /// bounds.
    pub(crate) fn index(
        ctx: &ExecCtx<'_>,
        index: &IndexInfo,
        attr: usize,
        lower: std::ops::Bound<Vec<u8>>,
        upper: std::ops::Bound<Vec<u8>>,
    ) -> MemberSource {
        let pool = ctx.store.storage().pool().clone();
        let scan = BTree::open(index.root).scan(pool, lower, upper);
        MemberSource::Index { scan, attr }
    }

    /// The next members — up to a batch of them — as a column of values
    /// and a column of the identities a scan of `anchor` binds them
    /// under; empty once exhausted.
    pub(crate) fn next_chunk(
        &mut self,
        ctx: &ExecCtx<'_>,
        anchor: Oid,
    ) -> ModelResult<(Vec<Value>, Vec<MemberId>)> {
        let cap = ctx.batch_size.max(1);
        let bind = |(rid, value): (RecordId, Value)| {
            let id = match &value {
                Value::Ref(o) => MemberId::Object(*o),
                _ => MemberId::Record { anchor, rid },
            };
            (value, id)
        };
        match self {
            MemberSource::Heap(scan) => Ok(scan.next_batch(cap)?.into_iter().map(bind).unzip()),
            MemberSource::Index { scan, attr } => loop {
                let entries = scan.next_batch(cap)?;
                if entries.is_empty() {
                    return Ok(Default::default());
                }
                // Index entries are maintained synchronously by the
                // writer, so they can point at versions outside the
                // snapshot (uncommitted inserts, deleted members) ...
                let pool = ctx.store.storage().pool();
                let (mut keys, mut members) = (Vec::new(), Vec::new());
                for (key, packed) in entries {
                    let rid = RecordId::unpack(packed);
                    if let Some(bytes) =
                        exodus_storage::heap::read_record_visible(pool, rid, ctx.snapshot)?
                    {
                        keys.push(key);
                        members.push((rid, extra_model::valueio::from_bytes(&bytes)?));
                    }
                }
                // ... or carry a key the visible version does not have
                // (an uncommitted replace moves the entry at once).
                let shown = indexed_keys(ctx, &members, *attr)?;
                let out: (Vec<Value>, Vec<MemberId>) = members
                    .into_iter()
                    .zip(shown.into_iter().zip(keys))
                    .filter(|(_, (shown, key))| shown.as_ref() == Some(key))
                    .map(|(member, _)| bind(member))
                    .unzip();
                if !out.0.is_empty() {
                    return Ok(out);
                }
            },
        }
    }
}

/// Where a scan's members come from once it has seen its first input.
enum Members {
    /// Streamed straight into output batches: the scan is outermost (one
    /// input row in all), so nothing is ever replayed.
    Stream(MemberSource, Oid),
    /// Fetched once and replayed for every input row: the scan sits on
    /// the inner side of a nested loop.
    Loaded(Vec<(Value, MemberId)>),
}

/// A collection scan joined against its input rows.
pub struct ScanCursor<'p> {
    input: Box<Cursor<'p>>,
    var: &'p str,
    kind: ScanKind<'p>,
    members: Option<Members>,
    in_batch: Option<RowBatch>,
    in_row: usize,
    /// Position within the loaded members for the current input row.
    pos: usize,
    /// Metric slot when profiling.
    slot: Option<u32>,
}

impl<'p> ScanCursor<'p> {
    fn open(input: Cursor<'p>, var: &'p str, kind: ScanKind<'p>, slot: Option<u32>) -> Cursor<'p> {
        Cursor::Scan(ScanCursor {
            input: Box::new(input),
            var,
            kind,
            members: None,
            in_batch: None,
            in_row: 0,
            pos: 0,
            slot,
        })
    }

    /// Open the member source; `stream` when one row is all the input
    /// this scan will ever see.
    fn members(&self, ctx: &ExecCtx<'_>, stream: bool) -> ModelResult<Members> {
        let (mut source, anchor) = match &self.kind {
            ScanKind::Heap { binding } => {
                let anchor = anchor(binding)?;
                (MemberSource::heap(ctx, anchor)?, anchor)
            }
            ScanKind::Index {
                binding,
                index,
                probe,
                key_ty,
            } => {
                let (lower, upper) = index_bounds(ctx, probe, key_ty)?;
                let attr = indexed_attr(ctx, binding, index)?;
                (
                    MemberSource::index(ctx, index, attr, lower, upper),
                    anchor(binding)?,
                )
            }
            ScanKind::System { view } => {
                let rows = ctx
                    .catalog
                    .system_view_rows(view)
                    .ok_or_else(|| ModelError::Semantic(format!("no system view 'sys.{view}'")))?;
                return Ok(Members::Loaded(
                    rows.into_iter().map(|v| (v, MemberId::None)).collect(),
                ));
            }
        };
        if stream {
            return Ok(Members::Stream(source, anchor));
        }
        let mut all = Vec::new();
        loop {
            let (values, ids) = source.next_chunk(ctx, anchor)?;
            if values.is_empty() {
                return Ok(Members::Loaded(all));
            }
            all.extend(values.into_iter().zip(ids));
        }
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        let cap = ctx.batch_size.max(1);
        let mut out: Option<(RowBatch, usize)> = None;
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
                    None => return Ok(out.map(|(b, _)| b).filter(|b| !b.is_empty())),
                }
            }
            let src = self.in_batch.as_ref().expect("checked");
            if self.in_row >= src.len() {
                self.in_batch = None;
                continue;
            }
            if self.members.is_none() {
                // A seed cursor emits one batch; if that has one row,
                // this scan is the outermost one.
                let stream = src.len() == 1 && matches!(*self.input, Cursor::Seed(_));
                self.members = Some(self.members(ctx, stream)?);
            }
            match self.members.as_mut().expect("just opened") {
                Members::Stream(source, anchor) => {
                    let chunk = source.next_chunk(ctx, *anchor)?;
                    if chunk.0.is_empty() {
                        self.in_batch = None;
                        continue;
                    }
                    return Ok(Some(RowBatch::broadcast(src, 0, self.var, chunk)));
                }
                Members::Loaded(ms) => {
                    let (out_batch, vc) =
                        out.get_or_insert_with(|| RowBatch::extending(src, self.var, None));
                    while self.pos < ms.len() && out_batch.len() < cap {
                        let (value, id) = &ms[self.pos];
                        out_batch.push_extended(src, self.in_row, *vc, [value.clone()], id.clone());
                        self.pos += 1;
                    }
                    if self.pos >= ms.len() {
                        self.pos = 0;
                        self.in_row += 1;
                    }
                    if out_batch.len() == cap {
                        return Ok(out.map(|(b, _)| b));
                    }
                }
            }
        }
    }
}

/// Unnests a nested set/array per input row, binding each non-null item
/// whole, with its identity, or — given a read set
/// ([`excess_algebra::reads`]) — as just the attributes its plan reads.
pub struct UnnestCursor<'p> {
    input: Box<Cursor<'p>>,
    var: &'p str,
    source: &'p Compiled,
    reads: Option<&'p [usize]>,
    /// The items' update identity (see [`container`]).
    container: Option<Arc<(String, Vec<String>)>>,
    /// The current input batch, with the source's paths resolved and
    /// the members read off their owners' records for it.
    in_batch: Option<(RowBatch, Resolved, Vec<Option<MemberFields>>)>,
    in_row: usize,
    /// The rest of the current row's items: the values bound for each,
    /// and whole items' identities.
    items: Option<(IntoIter<Value>, IntoIter<MemberId>, usize)>,
    /// Metric slot when profiling.
    slot: Option<u32>,
}

impl UnnestCursor<'_> {
    /// For each row of `batch` whose source steps into an attribute of a
    /// reference, its members' attributes read, in one page-grouped visit
    /// of their owners ([`extra_model::ObjectStore::member_fields_of_many_at`]).
    fn fetch(
        &self,
        ctx: &ExecCtx<'_>,
        batch: &RowBatch,
        paths: &Resolved,
    ) -> ModelResult<Vec<Option<MemberFields>>> {
        let (Some(reads), CExpr::Path(_, step)) = (self.reads, &self.source.expr) else {
            return Ok(Vec::new());
        };
        let CExpr::Attr(base, pos) = &**step else {
            return Err(invariant("a path steps into an attribute"));
        };
        let (rows, oids): (Vec<usize>, Vec<Oid>) = (0..batch.len())
            .filter_map(|r| match (&**base, peek(base, &paths.row(batch, r))) {
                (CExpr::NamedRef(oid), _) | (_, Some(Value::Ref(oid))) => Some((r, *oid)),
                _ => None,
            })
            .unzip();
        let members = ctx
            .store
            .member_fields_of_many_at(&oids, *pos, reads, ctx.snapshot)?;
        let mut out = vec![None; batch.len()];
        for (r, m) in rows.into_iter().zip(members) {
            out[r] = m;
        }
        Ok(out)
    }

    /// The items of input row `row`: moved out of the members read for
    /// it or out of its resolved source, else read off its source's
    /// value.
    fn items_for(
        &self,
        ctx: &ExecCtx<'_>,
        (src, paths, members): &mut (RowBatch, Resolved, Vec<Option<MemberFields>>),
        row: usize,
    ) -> ModelResult<(IntoIter<Value>, IntoIter<MemberId>, usize)> {
        let (n, vals, ids) = match self.reads {
            Some(reads) => {
                let fetched = members.get_mut(row).and_then(Option::take);
                let (n, vals) = match (fetched, peek(&self.source.expr, &paths.row(src, row))) {
                    (Some(fetched), _) => fetched,
                    (None, Some(v)) if !matches!(v, Value::Ref(_)) => attrs_of(v, reads)?,
                    (None, _) => attrs_of(
                        &deref(ctx, eval(&self.source.expr, ctx, &paths.row(src, row))?)?,
                        reads,
                    )?,
                };
                (n, vals, Vec::new())
            }
            None => {
                let taken = match &self.source.expr {
                    CExpr::Path(slot, _) => paths.take(*slot, row),
                    _ => None,
                };
                let v = match taken {
                    Some(v) => v,
                    None => eval(&self.source.expr, ctx, &paths.row(src, row))?,
                };
                let items = match deref(ctx, v)? {
                    Value::Set(items) | Value::Array(items) => items,
                    Value::Null => Vec::new(),
                    _ => return Err(invariant("a range iterates a set or array")),
                };
                let (vals, ids): (Vec<Value>, Vec<MemberId>) = items
                    .into_iter()
                    .enumerate()
                    .filter(|(_, item)| !item.is_null())
                    .map(|(i, item)| {
                        let id = match (&item, &self.container) {
                            (Value::Ref(o), _) => MemberId::Object(*o),
                            (_, Some(container)) => MemberId::Nested {
                                container: container.clone(),
                                index: i,
                            },
                            _ => MemberId::None,
                        };
                        (item, id)
                    })
                    .unzip();
                (vals.len(), vals, ids)
            }
        };
        Ok((vals.into_iter(), ids.into_iter(), n))
    }

    fn next(&mut self, ctx: &ExecCtx<'_>) -> ModelResult<Option<RowBatch>> {
        let cap = ctx.batch_size.max(1);
        let width = self.reads.map_or(1, <[usize]>::len);
        let mut out: Option<(RowBatch, usize)> = None;
        loop {
            if self.in_batch.is_none() {
                match self.input.next(ctx)? {
                    Some(b) if b.is_empty() => continue,
                    Some(b) => {
                        ctx.prof_in(self.slot, b.len());
                        let paths = self.source.paths.resolve(ctx, &b)?;
                        let members = self.fetch(ctx, &b, &paths)?;
                        self.in_batch = Some((b, paths, members));
                        self.in_row = 0;
                        self.items = None;
                    }
                    None => return Ok(out.map(|(b, _)| b).filter(|b| !b.is_empty())),
                }
            }
            let mut batch = self.in_batch.take().expect("checked");
            if self.in_row >= batch.0.len() {
                continue;
            }
            if self.items.is_none() {
                self.items = Some(self.items_for(ctx, &mut batch, self.in_row)?);
            }
            let src = &batch.0;
            let (out_batch, vc) =
                out.get_or_insert_with(|| RowBatch::extending(src, self.var, self.reads));
            let (vals, ids, left) = self.items.as_mut().expect("just filled");
            while out_batch.len() < cap && *left > 0 {
                *left -= 1;
                let id = ids.next().unwrap_or(MemberId::None);
                out_batch.push_extended(src, self.in_row, *vc, vals.by_ref().take(width), id);
            }
            if *left == 0 {
                self.items = None;
                self.in_row += 1;
            }
            self.in_batch = Some(batch);
            if out_batch.len() == cap {
                return Ok(out.map(|(b, _)| b));
            }
        }
    }
}

/// Attributes `reads` of each non-null item of the set or array `v`,
/// item after item, with the number of items.
fn attrs_of(v: &Value, reads: &[usize]) -> ModelResult<MemberFields> {
    let items = match v {
        Value::Set(items) | Value::Array(items) => items.as_slice(),
        Value::Null => &[],
        _ => return Err(invariant("a range iterates a set or array")),
    };
    let (mut n, mut vals) = (0, Vec::new());
    for item in items.iter().filter(|i| !i.is_null()) {
        n += 1;
        for &pos in reads {
            match item {
                Value::Tuple(fields) if pos < fields.len() => vals.push(fields[pos].clone()),
                _ => return Err(invariant("an attribute step reads a tuple of its type")),
            }
        }
    }
    Ok((n, vals))
}
