//! Physical planning: access-path selection, join ordering, predicate
//! pushdown.

use std::collections::HashMap;

use excess_sema::resolve::free_names;
use excess_sema::{Checked, CheckedRetrieve, ResolvedRange, RootSource, SemaCtx, SemaResult};

use crate::cost::cardinality;
use crate::plan::{coerce, Physical, Probe};
use crate::rules::indexable_pred;

/// Planner switches — each corresponds to an ablation in experiment E8.
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    /// Consider B+-tree index scans (consulting the ADT applicability
    /// table for ADT-typed keys).
    pub use_indexes: bool,
    /// Push selection conjuncts below joins/unnests.
    pub pushdown: bool,
    /// Reorder independent scans by estimated cardinality.
    pub reorder_joins: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            use_indexes: true,
            pushdown: true,
            reorder_joins: true,
        }
    }
}

impl PlannerConfig {
    /// Everything off: the naive evaluator baseline.
    pub fn naive() -> Self {
        PlannerConfig {
            use_indexes: false,
            pushdown: false,
            reorder_joins: false,
        }
    }
}

/// Plan a checked retrieve into a physical plan (serial: DOP fixed at 1).
pub fn plan_retrieve(
    checked: &CheckedRetrieve,
    ctx: &SemaCtx<'_>,
    config: PlannerConfig,
) -> SemaResult<Physical> {
    plan_retrieve_dop(checked, ctx, config, 1)
}

/// Plan a checked retrieve with up to `dop` worker threads available.
/// At `dop <= 1` this is exactly [`plan_retrieve`], so all serial plan
/// rankings are preserved; above that the planner may wrap the
/// scan→unnest→filter pipeline in a [`Physical::Parallel`] exchange when
/// the [`crate::cost::parallel_cost`] model says fan-out wins.
pub fn plan_retrieve_dop(
    checked: &CheckedRetrieve,
    ctx: &SemaCtx<'_>,
    config: PlannerConfig,
    dop: usize,
) -> SemaResult<Physical> {
    let (universal, existential): (Vec<ResolvedRange>, Vec<ResolvedRange>) =
        checked.bindings.iter().cloned().partition(|b| b.universal);
    let universal_vars: Vec<&str> = universal.iter().map(|b| b.var.as_str()).collect();
    let binding_vars: Vec<String> = checked.bindings.iter().map(|b| b.var.clone()).collect();

    // Partition conjuncts. Each is copied into the plan only where it
    // lands; one an index scan absorbs is not copied at all.
    let (universal_conjuncts, mut existential_conjuncts): (Vec<&Checked>, Vec<&Checked>) =
        checked.conjuncts.iter().partition(|c| {
            free_names(&c.src)
                .iter()
                .any(|v| universal_vars.contains(&v.as_str()))
        });

    // Build chains: each root binding plus its transitive dependents.
    let children: HashMap<&str, Vec<&ResolvedRange>> = {
        let mut m: HashMap<&str, Vec<&ResolvedRange>> = HashMap::new();
        for b in &existential {
            if let Some(p) = b.depends_on() {
                m.entry(p).or_default().push(b);
            }
        }
        m
    };
    let mut chains: Vec<Physical> = Vec::new();
    // A chain root either has no parent or depends on an outer-scope
    // variable (function/procedure parameter) that the plan does not bind.
    let is_root = |b: &ResolvedRange| match b.depends_on() {
        None => true,
        Some(p) => !existential.iter().any(|x| x.var == p),
    };
    for root in existential.iter().filter(|b| is_root(b)) {
        let mut plan = plan_root(root, &mut existential_conjuncts, ctx, config)?;
        // DFS over dependents, preserving declaration order.
        let mut stack: Vec<&ResolvedRange> =
            children.get(root.var.as_str()).cloned().unwrap_or_default();
        stack.reverse();
        while let Some(b) = stack.pop() {
            plan = Physical::unnest(plan, b.clone());
            let mut kids = children.get(b.var.as_str()).cloned().unwrap_or_default();
            kids.reverse();
            stack.extend(kids);
        }
        chains.push(plan);
    }

    // Early pushdown of single-chain conjuncts before ordering, so the
    // cardinality estimates see them.
    if config.pushdown {
        existential_conjuncts.retain(|c| {
            let vars: Vec<String> = free_names(&c.src)
                .into_iter()
                .filter(|v| binding_vars.contains(v))
                .collect();
            for chain in chains.iter_mut() {
                let bound = chain.bound_vars();
                if !vars.is_empty() && vars.iter().all(|v| bound.contains(v)) {
                    *chain = attach_filter(std::mem::replace(chain, Physical::Unit), c, &vars);
                    return false;
                }
            }
            true
        });
    }

    // Join ordering: pick the cheapest nested-loop order by estimated
    // cost (exhaustive for up to four chains; greedy-by-cardinality
    // beyond that). Minimizing estimated *cost*, not outer cardinality —
    // a tiny outer side is a loss when the inner must be fully rescanned.
    if config.reorder_joins && chains.len() > 1 {
        if chains.len() <= 4 {
            chains = best_permutation(chains, ctx);
        } else {
            chains.sort_by(|a, b| {
                cardinality(a, ctx)
                    .partial_cmp(&cardinality(b, ctx))
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
    }
    let mut plan = match chains.len() {
        0 => Physical::Unit,
        _ => {
            let mut it = chains.into_iter();
            let first = it.next().expect("nonempty");
            it.fold(first, |outer, inner| Physical::NestedLoop {
                outer: Box::new(outer),
                inner: Box::new(inner),
            })
        }
    };

    // Remaining conjuncts (cross-chain, or everything when pushdown is
    // off) gate the joined stream.
    if let Some(p) = Checked::conjoin(existential_conjuncts.into_iter().cloned().collect()) {
        plan = Physical::Filter {
            input: Box::new(plan),
            pred: p,
        };
    }
    // The fully filtered pipeline is the widest parallel-safe prefix:
    // everything above (universal quantification, sort, projection) runs
    // in the serial tail.
    plan = maybe_parallelize(plan, ctx, dop);
    if !universal.is_empty() {
        if let Some(p) = Checked::conjoin(universal_conjuncts.into_iter().cloned().collect()) {
            plan = Physical::UniversalFilter {
                input: Box::new(plan),
                universe: Box::new(plan_bindings(&universal)),
                pred: p,
            };
        }
    }
    if let Some((key, asc)) = &checked.order_by {
        plan = Physical::Sort {
            input: Box::new(plan),
            key: key.clone(),
            asc: *asc,
        };
    }
    let named: Vec<(String, Checked)> = checked
        .output
        .iter()
        .zip(&checked.targets)
        .map(|((name, _), t)| (name.clone(), t.clone()))
        .collect();
    let plan = Physical::Project {
        input: Box::new(plan),
        targets: named,
    };
    // Statistics-gated join rewrites run over the assembled plan; with
    // no `analyze` statistics recorded they are no-ops, so plans over
    // unanalyzed collections keep their exact prior shapes.
    Ok(crate::join::rewrite_equi_joins(plan, ctx))
}

/// Wrap `plan` in a parallel exchange when (a) workers are available,
/// (b) its leftmost leaf is a partitionable scan big enough to clear
/// [`crate::cost::PARALLEL_MIN_ROWS`], and (c) the DOP-aware cost model
/// says dividing the pipeline across workers beats running it serially.
fn maybe_parallelize(plan: Physical, ctx: &SemaCtx<'_>, dop: usize) -> Physical {
    if dop < 2 {
        return plan;
    }
    let Some(scan) = plan.leftmost_scan() else {
        return plan;
    };
    if cardinality(scan, ctx) < crate::cost::PARALLEL_MIN_ROWS {
        return plan;
    }
    let serial = crate::cost::cost(&plan, ctx);
    let out = cardinality(&plan, ctx);
    if crate::cost::parallel_cost(serial, out, dop) >= serial {
        return plan;
    }
    Physical::Parallel {
        input: Box::new(plan),
        dop,
    }
}

/// The plan enumerating the joint environments of `bindings`, in their
/// dependency order: a universal filter's universe, and the rows an
/// aggregate's `over` ranges iterate. A scan joins what came before it by
/// a nested loop; every other range unnests from what it depends on.
pub fn plan_bindings(bindings: &[ResolvedRange]) -> Physical {
    bindings.iter().fold(Physical::Unit, |plan, b| {
        let scan = match &b.root {
            RootSource::Collection(_) => Physical::SeqScan { binding: b.clone() },
            RootSource::System(view) => Physical::SystemScan {
                binding: b.clone(),
                view: view.clone(),
            },
            RootSource::Var(_) | RootSource::Object(_) => return Physical::unnest(plan, b.clone()),
        };
        match plan {
            Physical::Unit => scan,
            outer => Physical::NestedLoop {
                outer: Box::new(outer),
                inner: Box::new(scan),
            },
        }
    })
}

/// Exhaustively pick the nested-loop order with the lowest estimated
/// cost.
fn best_permutation(chains: Vec<Physical>, ctx: &SemaCtx<'_>) -> Vec<Physical> {
    let mut best: Option<(f64, Vec<usize>)> = None;
    let mut perm: Vec<usize> = (0..chains.len()).collect();
    // Heap's algorithm, iterative.
    let n = perm.len();
    let mut c = vec![0usize; n];
    let evaluate = |perm: &[usize], best: &mut Option<(f64, Vec<usize>)>| {
        let plan = perm
            .iter()
            .map(|&i| chains[i].clone())
            .reduce(|outer, inner| Physical::NestedLoop {
                outer: Box::new(outer),
                inner: Box::new(inner),
            })
            .expect("nonempty");
        let cost = crate::cost::cost(&plan, ctx);
        if best.as_ref().map(|(b, _)| cost < *b).unwrap_or(true) {
            *best = Some((cost, perm.to_vec()));
        }
    };
    evaluate(&perm, &mut best);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                perm.swap(0, i);
            } else {
                perm.swap(c[i], i);
            }
            evaluate(&perm, &mut best);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
    let order = best.expect("at least one permutation").1;
    // Reassemble chains in the chosen order.
    let mut slots: Vec<Option<Physical>> = chains.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each index once"))
        .collect()
}

/// Plan the access path for a root binding, possibly consuming an
/// index-usable conjunct.
fn plan_root(
    root: &ResolvedRange,
    remaining: &mut Vec<&Checked>,
    ctx: &SemaCtx<'_>,
    config: PlannerConfig,
) -> SemaResult<Physical> {
    if let RootSource::System(view) = &root.root {
        // System views have no indexes or statistics; the scan
        // materializes one provider snapshot and filters apply above.
        return Ok(Physical::SystemScan {
            binding: root.clone(),
            view: view.clone(),
        });
    }
    let RootSource::Collection(obj) = &root.root else {
        // Object-rooted ranges unnest straight off the named object.
        return Ok(Physical::unnest(Physical::Unit, root.clone()));
    };
    if config.use_indexes {
        for (i, c) in remaining.iter().enumerate() {
            let Some(p) = indexable_pred(&c.src, &root.var, ctx) else {
                continue;
            };
            let Some(index) = ctx.catalog.index_on(&obj.name, &p.attr) else {
                continue;
            };
            // The probe constant is coerced to the attribute's declared
            // type so its key encoding matches the index entries. A hole
            // of any value encodes (literal kinds all have keys), so only
            // a constant is tried here.
            let key_ty = ctx.attr(&root.elem, &p.attr)?.1.ty;
            let probe = Probe {
                op: p.op,
                value: coerce(&p.value, &key_ty),
                hole: p.hole,
            };
            if p.hole.is_none() && probe.bounds(&[], &key_ty, ctx.adts).is_none() {
                continue;
            }
            remaining.remove(i);
            return Ok(Physical::IndexScan {
                binding: root.clone(),
                index,
                probe,
                key_ty,
            });
        }
    }
    Ok(Physical::SeqScan {
        binding: root.clone(),
    })
}

/// Attach a filter at the lowest point in `plan` where `vars` are bound.
fn attach_filter(plan: Physical, pred: &Checked, vars: &[String]) -> Physical {
    let covered = |p: &Physical| {
        let bound = p.bound_vars();
        vars.iter().all(|v| bound.contains(v))
    };
    match plan {
        Physical::Unnest {
            input,
            binding,
            source,
            reads,
        } if covered(&input) => Physical::Unnest {
            input: Box::new(attach_filter(*input, pred, vars)),
            binding,
            source,
            reads,
        },
        Physical::NestedLoop { outer, inner } => {
            if covered(&outer) {
                Physical::NestedLoop {
                    outer: Box::new(attach_filter(*outer, pred, vars)),
                    inner,
                }
            } else if covered(&inner) {
                Physical::NestedLoop {
                    outer,
                    inner: Box::new(attach_filter(*inner, pred, vars)),
                }
            } else {
                Physical::Filter {
                    input: Box::new(Physical::NestedLoop { outer, inner }),
                    pred: pred.clone(),
                }
            }
        }
        Physical::Filter {
            input,
            pred: existing,
        } => {
            if covered(&input) {
                Physical::Filter {
                    input: Box::new(attach_filter(*input, pred, vars)),
                    pred: existing,
                }
            } else {
                Physical::Filter {
                    input: Box::new(Physical::Filter {
                        input,
                        pred: existing,
                    }),
                    pred: pred.clone(),
                }
            }
        }
        other => Physical::Filter {
            input: Box::new(other),
            pred: pred.clone(),
        },
    }
}
