//! The statistics-gated join rewrite.
//!
//! **Equi-join selection** runs over every assembled physical plan,
//! strictly gated on `analyze` statistics for the build-side collection
//! — a plan over unanalyzed collections is returned byte-identical, so
//! enabling the rewrite never perturbs existing plan shapes or rankings.
//! A cross-chain equality conjunct `<outer expr> = W.attr` gating a
//! [`Physical::NestedLoop`] whose inner side is a bare collection scan
//! becomes a [`Physical::HashJoin`] (build once, probe with whole
//! batches) or a [`Physical::IndexJoin`] (index nested loop on a
//! secondary index over `attr`) — whichever the cost model ranks
//! cheapest, with the original nested loop kept when it wins.
//!
//! Implicit joins — paths through reference attributes such as
//! `E.dept.floor` — need no rewrite: the executor resolves them a batch
//! at a time whether or not `analyze` ran.

use excess_lang::{BinOp, Expr};
use excess_sema::resolve::free_names;
use excess_sema::{Checked, Node, SemaCtx};

use crate::cost::cost;
use crate::plan::{join_attr, Physical};

/// Rebuild a node around transformed children.
fn map_inputs(plan: Physical, f: &mut dyn FnMut(Physical) -> Physical) -> Physical {
    match plan {
        Physical::Unit
        | Physical::SeqScan { .. }
        | Physical::SystemScan { .. }
        | Physical::IndexScan { .. } => plan,
        Physical::Unnest {
            input,
            binding,
            source,
        } => Physical::Unnest {
            input: Box::new(f(*input)),
            binding,
            source,
        },
        Physical::NestedLoop { outer, inner } => Physical::NestedLoop {
            outer: Box::new(f(*outer)),
            inner: Box::new(f(*inner)),
        },
        Physical::Filter { input, pred } => Physical::Filter {
            input: Box::new(f(*input)),
            pred,
        },
        Physical::UniversalFilter {
            input,
            universe,
            pred,
        } => Physical::UniversalFilter {
            input: Box::new(f(*input)),
            universe,
            pred,
        },
        Physical::Project { input, targets } => Physical::Project {
            input: Box::new(f(*input)),
            targets,
        },
        Physical::Sort { input, key, asc } => Physical::Sort {
            input: Box::new(f(*input)),
            key,
            asc,
        },
        Physical::HashJoin {
            input,
            binding,
            key,
            on,
        } => Physical::HashJoin {
            input: Box::new(f(*input)),
            binding,
            key,
            on,
        },
        Physical::IndexJoin {
            input,
            binding,
            index,
            key,
            key_ty,
        } => Physical::IndexJoin {
            input: Box::new(f(*input)),
            binding,
            index,
            key,
            key_ty,
        },
        Physical::Parallel { input, dop } => Physical::Parallel {
            input: Box::new(f(*input)),
            dop,
        },
    }
}

/// Rewrite qualifying `Filter` + `NestedLoop` shapes into batch joins,
/// recursing through the whole plan.
pub fn rewrite_equi_joins(plan: Physical, ctx: &SemaCtx<'_>) -> Physical {
    let plan = map_inputs(plan, &mut |c| rewrite_equi_joins(c, ctx));
    if let Physical::Filter { input, pred } = plan {
        if let Physical::NestedLoop { outer, inner } = *input {
            return try_equi_join(*outer, *inner, pred, ctx);
        }
        return Physical::Filter { input, pred };
    }
    plan
}

/// Attempt the equi-join rewrite on one filtered nested loop, returning
/// the cheapest of the original shape, a hash join, and an index join.
fn try_equi_join(outer: Physical, inner: Physical, pred: Checked, ctx: &SemaCtx<'_>) -> Physical {
    let original = |outer: Physical, inner: Physical, pred: Checked| Physical::Filter {
        input: Box::new(Physical::NestedLoop {
            outer: Box::new(outer),
            inner: Box::new(inner),
        }),
        pred,
    };
    // The inner side must be a bare collection scan whose collection has
    // been analyzed (the statistics gate).
    let Physical::SeqScan { binding } = &inner else {
        return original(outer, inner, pred);
    };
    let Some(collection) = crate::cost::binding_collection(binding) else {
        return original(outer, inner, pred);
    };
    if ctx.catalog.stats_for(collection).is_none() {
        return original(outer, inner, pred);
    }
    let w = binding.var.clone();
    let outer_bound = outer.bound_vars();
    // Find an equality conjunct `<outer expr> = W.attr` (either operand
    // order); every range variable the outer expression uses must be
    // bound by the outer side.
    let mut cs = pred.clone().conjuncts();
    let mut found: Option<(usize, Box<Checked>, Box<Checked>)> = None;
    'search: for (i, c) in cs.iter().enumerate() {
        let (Expr::Binary(BinOp::Eq, l, r), Node::Binary(_, tl, tr)) = (&c.src, &c.typed.node)
        else {
            continue;
        };
        for ((attr_side, on), (key_side, key)) in [((l, tl), (r, tr)), ((r, tr), (l, tl))] {
            let Expr::Path(base, _) = &**attr_side else {
                continue;
            };
            let Expr::Var(v) = &**base else { continue };
            if *v != w {
                continue;
            }
            let key_vars = free_names(key_side);
            if key_vars.contains(&w) || !key_vars.iter().all(|kv| outer_bound.contains(kv)) {
                continue;
            }
            let side = |src: &Expr, typed: &excess_sema::Typed| {
                Box::new(Checked {
                    src: src.clone(),
                    typed: typed.clone(),
                })
            };
            found = Some((i, side(attr_side, on), side(key_side, key)));
            break 'search;
        }
    }
    let Some((ci, on, key)) = found else {
        return original(outer, inner, pred);
    };
    cs.remove(ci);
    let remaining = Checked::conjoin(cs);
    let wrap = |joined: Physical| match &remaining {
        Some(p) => Physical::Filter {
            input: Box::new(joined),
            pred: p.clone(),
        },
        None => joined,
    };
    let mut candidates = vec![original(outer.clone(), inner.clone(), pred.clone())];
    let index = ctx.catalog.index_on(collection, join_attr(&*on));
    let key_ty = on.typed.qty.ty.clone();
    candidates.push(wrap(Physical::HashJoin {
        input: Box::new(outer.clone()),
        binding: binding.clone(),
        key: key.clone(),
        on,
    }));
    if let Some(index) = index {
        candidates.push(wrap(Physical::IndexJoin {
            input: Box::new(outer),
            binding: binding.clone(),
            index,
            key,
            key_ty,
        }));
    }
    candidates
        .into_iter()
        .map(|p| (cost(&p, ctx), p))
        .min_by(|(a, _), (b, _)| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal))
        .expect("nonempty candidate set")
        .1
}
