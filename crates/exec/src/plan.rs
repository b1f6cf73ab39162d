//! Preparing plans: the planner's [`Physical`] tree with its expressions
//! compiled. Iteration happens batch-at-a-time through [`crate::cursor`].

use excess_algebra::Physical;
use excess_sema::{ResolvedRange, RootSource, SemaCtx};
use exodus_storage::Oid;
use extra_model::{ModelError, ModelResult};

use crate::cexpr::{Compiled, Compiler};

/// A plan ready to run: the planner's tree, its expressions compiled.
pub type Plan = Physical<Compiled>;

/// Compile a physical plan's expressions. `ctx` is the analysis context
/// the plan's statement was checked under: the EXCESS function bodies its
/// expressions call are planned against it.
pub fn prepare(plan: Physical, ctx: &SemaCtx<'_>) -> ModelResult<Plan> {
    prepare_node(plan, &Compiler::new(ctx))
}

/// Compile the expressions of one plan node and of its inputs; the tree
/// itself carries over node for node. Each operator takes the path slots
/// of its own expressions as it is built.
pub(crate) fn prepare_node(plan: Physical, c: &Compiler<'_>) -> ModelResult<Plan> {
    let input = |p: Box<Physical>| prepare_node(*p, c).map(Box::new);
    Ok(match plan {
        Physical::Unit => Physical::Unit,
        Physical::SeqScan { binding } => Physical::SeqScan { binding },
        Physical::SystemScan { binding, view } => Physical::SystemScan { binding, view },
        Physical::IndexScan {
            binding,
            index,
            probe,
            key_ty,
        } => Physical::IndexScan {
            binding,
            index,
            probe,
            key_ty,
        },
        Physical::Unnest {
            input: i,
            binding,
            source,
            reads,
        } => Physical::Unnest {
            input: input(i)?,
            binding,
            source: match reads {
                Some(_) => c.member_source(source)?,
                None => c.plan_expr(source)?,
            },
            reads,
        },
        Physical::NestedLoop { outer, inner } => Physical::NestedLoop {
            outer: input(outer)?,
            inner: input(inner)?,
        },
        Physical::Filter { input: i, pred } => Physical::Filter {
            input: input(i)?,
            pred: c.plan_expr(pred)?,
        },
        Physical::UniversalFilter {
            input: i,
            universe,
            pred,
        } => Physical::UniversalFilter {
            input: input(i)?,
            universe: input(universe)?,
            pred: c.plan_expr(pred)?,
        },
        Physical::Project { input: i, targets } => Physical::Project {
            input: input(i)?,
            targets: c.plan_targets(targets)?,
        },
        Physical::Sort { input: i, key, asc } => Physical::Sort {
            input: input(i)?,
            key: c.plan_expr(key)?,
            asc,
        },
        Physical::HashJoin {
            input: i,
            binding,
            key,
            on,
        } => Physical::HashJoin {
            input: input(i)?,
            binding,
            key: Box::new(c.plan_expr(*key)?),
            on: Box::new(c.plan_expr(*on)?),
        },
        Physical::IndexJoin {
            input: i,
            binding,
            index,
            key,
            key_ty,
        } => Physical::IndexJoin {
            input: input(i)?,
            binding,
            index,
            key: Box::new(c.plan_expr(*key)?),
            key_ty,
        },
        Physical::Parallel { input: i, dop } => Physical::Parallel {
            input: input(i)?,
            dop,
        },
    })
}

/// The anchor of the collection a scan or join binding iterates.
pub(crate) fn anchor(b: &ResolvedRange) -> ModelResult<Oid> {
    match &b.root {
        RootSource::Collection(obj) => Ok(obj.oid),
        other => Err(ModelError::Semantic(format!(
            "binding '{}' does not scan a collection ({other:?})",
            b.var
        ))),
    }
}
