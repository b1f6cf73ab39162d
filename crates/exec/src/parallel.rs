//! Morsel-driven intra-query parallelism.
//!
//! [`try_parallel_slotted`] fans a scan→unnest→filter pipeline prefix out to a
//! pool of `std::thread::scope` workers. The leftmost storage scan is
//! split into *morsels* — contiguous page runs from
//! `HeapFile::partitions` / `BTree::partitions` — which sit in a shared
//! work queue that workers claim from with an atomic counter (fast
//! workers steal the slack of slow ones, so page-occupancy skew does not
//! serialize the query). Each worker binds the morsel's members against
//! the single seed row, replays them through the remainder of the
//! pipeline (the partitioned leaf is spliced out via
//! [`crate::cursor::open_sub`]), folds every output batch with the
//! caller's function, and pushes the results through a bounded channel
//! into the single-threaded tail.
//!
//! Results are tagged `(morsel index, batch sequence)` and sorted before
//! they are returned, so the merged output order — and therefore every
//! downstream computation, including float summation order — is
//! bit-identical to a serial scan. Workers run with `workers = 1` and
//! their own aggregate tables, so parallelism never nests and the `Cell`/`RefCell`
//! interior mutability of [`ExecCtx`] never crosses a thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

use excess_algebra::cost::PARALLEL_MIN_ROWS;
use excess_algebra::Physical;
use exodus_storage::btree::BTree;
use exodus_storage::Oid;
use extra_model::{ModelError, ModelResult};

use crate::batch::RowBatch;
use crate::cursor::{indexed_attr, open_sub, Cursor, MemberSource};
use crate::eval::ExecCtx;
use crate::plan::{anchor, Plan};
use crate::profile::{PlanProfiler, WorkerStats};

/// Morsels handed out per worker: enough slack for work stealing to
/// even out skew, few enough that claim overhead stays negligible.
const MORSELS_PER_WORKER: usize = 4;
/// Bounded result-channel capacity per worker (backpressure for the
/// serial tail).
const CHANNEL_SLACK: usize = 2;

/// Build the morsel queue for the pipeline's leaf — a scan of the
/// collection at `anchor` — or `None` when the collection is below
/// [`PARALLEL_MIN_ROWS`]. The planner gated on its estimate; this gate
/// counts, since aggregate `over` plans are not cost-planned.
fn morsels_for(
    ctx: &ExecCtx<'_>,
    leaf: &Plan,
    anchor: Oid,
    k: usize,
) -> ModelResult<Option<Vec<MemberSource>>> {
    if (ctx.store.member_count(anchor)? as f64) < PARALLEL_MIN_ROWS {
        return Ok(None);
    }
    match leaf {
        Physical::SeqScan { .. } => Ok(Some(
            ctx.store
                .scan_members_partitions_at(anchor, k, ctx.snapshot)?
                .into_iter()
                .map(MemberSource::Heap)
                .collect(),
        )),
        Physical::IndexScan {
            binding,
            index,
            lower,
            upper,
            ..
        } => {
            let attr = indexed_attr(ctx, binding, index)?;
            let scans = BTree::open(index.root).partitions(
                ctx.store.storage().pool(),
                k,
                lower.clone(),
                upper.clone(),
            )?;
            Ok(Some(
                scans
                    .into_iter()
                    .map(|scan| MemberSource::Index { scan, attr })
                    .collect(),
            ))
        }
        _ => Ok(None),
    }
}

/// Shared work queue: workers claim morsels with an atomic ticket.
struct MorselQueue {
    next: AtomicUsize,
    slots: Vec<Mutex<Option<MemberSource>>>,
}

impl MorselQueue {
    fn claim(&self) -> Option<(usize, MemberSource)> {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let slot = self.slots.get(i)?;
            if let Some(m) = slot.lock().expect("morsel slot lock").take() {
                return Some((i, m));
            }
        }
    }
}

/// Drain a morsel into input batches for the pipeline remainder: each
/// member extends the single seed row with the scan variable's binding.
fn morsel_batches(
    wctx: &ExecCtx<'_>,
    morsel: &mut MemberSource,
    seed: &RowBatch,
    var: &str,
    anchor: Oid,
    leaf_slot: Option<u32>,
) -> ModelResult<VecDeque<RowBatch>> {
    let mut out = VecDeque::new();
    // When profiling, the morsel drain stands in for the spliced-out scan
    // cursor: its rows/batches/time are attributed to the scan's slot so
    // parallel counts agree with a serial run.
    let timer = leaf_slot
        .filter(|_| wctx.profiler.is_some())
        .map(|_| std::time::Instant::now());
    loop {
        let chunk = morsel.next_chunk(wctx, anchor)?;
        if chunk.0.is_empty() {
            if let (Some(t0), Some(slot), Some(p)) = (timer, leaf_slot, wctx.profiler.as_ref()) {
                p.record_ns(slot, t0.elapsed().as_nanos() as u64);
            }
            return Ok(out);
        }
        let batch = RowBatch::broadcast(seed, 0, var, chunk);
        if let (Some(slot), Some(p)) = (leaf_slot, wctx.profiler.as_ref()) {
            p.record_out(slot, batch.len());
        }
        out.push_back(batch);
    }
}

/// Run `plan` under morsel-driven parallelism, folding every output
/// batch with `fold` on the worker that produced it. Returns
/// `Ok(None)` when the pipeline is not worth (or not safe to)
/// parallelize — the caller must then run it serially — and
/// `Ok(Some(results))` with the folded items in exact serial scan order
/// otherwise.
///
/// Requirements checked here: at least two workers on `ctx`, a
/// single-row `seed` (the correlation environment), a partitionable
/// leftmost scan, and a collection clearing [`PARALLEL_MIN_ROWS`].
///
/// The caller supplies `exch_slot`, the profiling slot worker morsel
/// counts and merge-wait time attach to (see [`crate::profile`]): the
/// exchange operator's slot when one exists, or the aggregate `over`
/// plan's own root — such plans have no exchange node.
pub(crate) fn try_parallel_slotted<T, F>(
    plan: &Plan,
    ctx: &ExecCtx<'_>,
    seed: &RowBatch,
    exch_slot: Option<u32>,
    fold: &F,
) -> ModelResult<Option<Vec<T>>>
where
    T: Send,
    F: Fn(&ExecCtx<'_>, RowBatch) -> ModelResult<T> + Sync,
{
    if ctx.workers < 2 || seed.len() != 1 {
        return Ok(None);
    }
    let Some(leaf) = plan.leftmost_scan() else {
        return Ok(None);
    };
    let (Physical::SeqScan { binding } | Physical::IndexScan { binding, .. }) = leaf else {
        unreachable!("leftmost_scan returns scans only")
    };
    let (var, anchor) = (binding.var.as_str(), anchor(binding)?);
    let Some(morsels) = morsels_for(ctx, leaf, anchor, ctx.workers * MORSELS_PER_WORKER)? else {
        return Ok(None);
    };
    if morsels.is_empty() {
        return Ok(Some(Vec::new()));
    }
    let workers = ctx.workers.min(morsels.len());
    let queue = MorselQueue {
        next: AtomicUsize::new(0),
        slots: morsels.into_iter().map(|m| Mutex::new(Some(m))).collect(),
    };
    let abort = AtomicBool::new(false);
    // Workers get plain `Sync` pieces of the context, never the context
    // itself (its caches are single-threaded by design). Profiling
    // applies only when the session profiler's index covers this
    // pipeline (it indexes aggregate `over` plans too, as expression
    // children of their operator); each worker then gets a zero-counter
    // fork whose sums are absorbed after the scope joins, so merged
    // operator counts are deterministic and identical to a serial run.
    let prof = ctx
        .profiler
        .as_ref()
        .filter(|p| p.index().slot_of(leaf).is_some());
    let mut worker_profs: Vec<Option<PlanProfiler>> =
        (0..workers).map(|_| prof.map(|p| p.fork())).collect();
    let finished: Mutex<Vec<(usize, PlanProfiler, WorkerStats)>> = Mutex::new(Vec::new());
    let (store, types, adts, catalog) = (ctx.store, ctx.types, ctx.adts, ctx.catalog);
    let batch_size = ctx.batch_size;
    let snapshot = ctx.snapshot;
    let metrics = ctx.metrics.clone();
    let (tx, rx) = sync_channel::<(usize, usize, ModelResult<T>)>(workers * CHANNEL_SLACK);

    let merged = std::thread::scope(|s| {
        for (wid, slot) in worker_profs.iter_mut().enumerate() {
            let tx = tx.clone();
            let (queue, abort, finished) = (&queue, &abort, &finished);
            let wprof = slot.take();
            let wmetrics = metrics.clone();
            s.spawn(move || {
                let mut wctx = ExecCtx::new(store, types, adts, catalog, snapshot)
                    .with_batch_size(batch_size)
                    .with_metrics(wmetrics);
                if let Some(p) = wprof {
                    wctx = wctx.with_profiler(p);
                }
                let leaf_slot = wctx.profiler.as_ref().and_then(|p| p.index().slot_of(leaf));
                let mut stats = WorkerStats {
                    morsels: 0,
                    rows: 0,
                };
                'morsels: while let Some((midx, mut morsel)) = queue.claim() {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    stats.morsels += 1;
                    if let Some(m) = wctx.metrics.as_ref() {
                        m.morsels.inc();
                    }
                    let mut seq = 0usize;
                    let batches =
                        match morsel_batches(&wctx, &mut morsel, seed, var, anchor, leaf_slot) {
                            Ok(b) => b,
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                let _ = tx.send((midx, seq, Err(e)));
                                break;
                            }
                        };
                    stats.rows += batches.iter().map(|b| b.len() as u64).sum::<u64>();
                    let index = wctx.profiler.as_ref().map(|p| p.index());
                    let mut cur = open_sub(plan, Some(leaf), Cursor::Queue(batches), index);
                    loop {
                        match cur.next(&wctx) {
                            Ok(Some(batch)) => {
                                let item = fold(&wctx, batch);
                                let failed = item.is_err();
                                if failed {
                                    abort.store(true, Ordering::Relaxed);
                                }
                                if tx.send((midx, seq, item)).is_err() || failed {
                                    break 'morsels;
                                }
                                seq += 1;
                            }
                            Ok(None) => break,
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                let _ = tx.send((midx, seq, Err(e)));
                                break 'morsels;
                            }
                        }
                    }
                }
                if let Some(p) = wctx.profiler.take() {
                    finished.lock().expect("profiler bin").push((wid, p, stats));
                }
            });
        }
        drop(tx);
        // The single-threaded tail: drain the bounded channel while the
        // workers run, then restore deterministic (morsel, sequence)
        // order. `rx` closes once every worker has dropped its sender.
        let drain_t0 = (prof.is_some() || metrics.is_some()).then(std::time::Instant::now);
        let mut items: Vec<(usize, usize, T)> = Vec::new();
        let mut first_err: Option<ModelError> = None;
        for (midx, seq, item) in rx {
            match item {
                Ok(t) => items.push((midx, seq, t)),
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        let merge_wait_ns = drain_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        match first_err {
            Some(e) => Err(e),
            None => {
                items.sort_by_key(|&(midx, seq, _)| (midx, seq));
                Ok((
                    items.into_iter().map(|(_, _, t)| t).collect::<Vec<T>>(),
                    merge_wait_ns,
                ))
            }
        }
    });
    let (merged, merge_wait_ns) = merged?;
    if let Some(m) = ctx.metrics.as_ref() {
        m.merge_wait_ns.observe(merge_wait_ns);
    }
    if let Some(p) = prof {
        // Deterministic absorption order: by worker id, not completion.
        let mut done = finished.into_inner().expect("profiler bin");
        done.sort_by_key(|(wid, _, _)| *wid);
        let mut stats = Vec::with_capacity(done.len());
        for (_, wp, ws) in done {
            p.absorb(wp);
            stats.push(ws);
        }
        // The seed row "entered" the spliced-out scan, exactly as it
        // would have entered the serial scan cursor.
        if let Some(slot) = p.index().slot_of(leaf) {
            p.record_in(slot, seed.len());
        }
        if let Some(slot) = exch_slot {
            p.record_parallel(slot, stats, merge_wait_ns);
        }
    }
    Ok(Some(merged))
}

#[cfg(test)]
mod tests {
    /// The types shipped between workers and the tail must be `Send`;
    /// the shared plan/context pieces must be `Sync`.
    #[test]
    fn read_path_is_send_sync_clean() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<crate::batch::RowBatch>();
        assert_send::<extra_model::Value>();
        assert_send::<crate::cursor::MemberSource>();
        assert_sync::<crate::plan::Plan>();
        assert_sync::<crate::cexpr::CExpr>();
        assert_sync::<extra_model::ObjectStore>();
    }
}
