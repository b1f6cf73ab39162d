//! Executable plans: compilation from physical plans. Iteration happens
//! batch-at-a-time through [`crate::cursor`].

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use excess_algebra::Physical;
use excess_sema::{RangeEnv, ResolvedRange, RootSource, SemaCtx};
use exodus_storage::Oid;
use extra_model::{ModelError, ModelResult, QualType};

use crate::cexpr::{CExpr, Compiler};
use crate::paths::Paths;

/// Where an unnest's collection value comes from.
#[derive(Debug)]
pub struct USource {
    /// The collection: a path from a bound variable or a named object.
    pub expr: CExpr,
    /// Path slots of `expr`.
    pub paths: Paths,
    /// The variable `expr` starts from and the attribute names from it
    /// to the collection (kept for nested-member update identities);
    /// `None` when `expr` starts from a named object.
    pub container: Option<Arc<(String, Vec<String>)>>,
}

/// An executable plan node.
#[derive(Debug)]
pub enum ExecNode {
    /// One empty environment.
    Unit,
    /// Scan a collection's members.
    SeqScan {
        /// Variable bound per member.
        var: String,
        /// Collection anchor.
        anchor: Oid,
    },
    /// Scan a `sys.<view>` virtual collection: the catalog's system-view
    /// provider materializes one consistent row snapshot per cursor open.
    SystemScan {
        /// Variable bound per row.
        var: String,
        /// View name without the `sys.` prefix.
        view: String,
    },
    /// B+-tree index scan.
    IndexScan {
        /// Variable bound per member.
        var: String,
        /// Collection anchor.
        anchor: Oid,
        /// Index root page.
        root: u64,
        /// Lower key bound.
        lower: Bound<Vec<u8>>,
        /// Upper key bound.
        upper: Bound<Vec<u8>>,
    },
    /// Unnest a nested set/array.
    Unnest {
        /// Input.
        input: Box<ExecNode>,
        /// Variable bound per element.
        var: String,
        /// Collection source.
        source: USource,
    },
    /// Cross product (inner re-run per outer row).
    NestedLoop {
        /// Outer input.
        outer: Box<ExecNode>,
        /// Inner input.
        inner: Box<ExecNode>,
    },
    /// Predicate filter.
    Filter {
        /// Input.
        input: Box<ExecNode>,
        /// Compiled predicate.
        pred: CExpr,
        /// Path slots of `pred`.
        paths: Paths,
    },
    /// Universal-quantification filter.
    UniversalFilter {
        /// Input.
        input: Box<ExecNode>,
        /// Sub-plan enumerating the universal bindings.
        universe: Box<ExecNode>,
        /// Predicate that must hold for every universal binding.
        pred: CExpr,
        /// Path slots of `pred`.
        paths: Paths,
    },
    /// Projection (consumed by [`crate::run::run_plan`]).
    Project {
        /// Input.
        input: Box<ExecNode>,
        /// Output columns.
        targets: Vec<(String, CExpr)>,
        /// Path slots of `targets`.
        paths: Paths,
    },
    /// Sort (materializes).
    Sort {
        /// Input.
        input: Box<ExecNode>,
        /// Compiled key.
        key: CExpr,
        /// Path slots of `key`.
        paths: Paths,
        /// Ascending?
        asc: bool,
    },
    /// Hash join against a collection's members: build a hash table
    /// over the whole collection lazily on the first input batch, then
    /// probe once per input row (see [`crate::cursor::HashJoinCursor`]).
    HashJoin {
        /// Probe input.
        input: Box<ExecNode>,
        /// Variable bound per probe row.
        var: String,
        /// Build-side collection anchor.
        anchor: Oid,
        /// Compiled probe key.
        key: CExpr,
        /// Path slots of `key`.
        paths: Paths,
        /// The build key: the joined attribute of `var`.
        on: CExpr,
        /// Path slots of `on`.
        on_paths: Paths,
    },
    /// Index nested-loop join: per input row, equality-probe a
    /// secondary index and emit one row per match.
    IndexJoin {
        /// Probe input.
        input: Box<ExecNode>,
        /// Variable bound per match.
        var: String,
        /// Matched collection anchor.
        anchor: Oid,
        /// Index root page.
        root: u64,
        /// Compiled probe key.
        key: CExpr,
        /// Path slots of `key`.
        paths: Paths,
        /// Declared type of the indexed attribute, for probe-value
        /// coercion before key encoding (`Int` vs `Float`).
        key_ty: extra_model::Type,
    },
    /// Parallel exchange: run `input` across `dop` worker threads by
    /// partitioning its leftmost scan into morsels (see
    /// the `parallel` module), merging output batches in deterministic
    /// scan order. Falls back to serial execution when the scan is too
    /// small or the session runs with one worker.
    Parallel {
        /// The pipeline to fan out.
        input: Box<ExecNode>,
        /// Degree of parallelism requested by the planner.
        dop: usize,
    },
}

fn sem(e: excess_sema::SemaError) -> ModelError {
    ModelError::Semantic(e.to_string())
}

/// Compile a physical plan into an executable one.
pub fn prepare(plan: &Physical, ctx: &SemaCtx<'_>, range_env: &RangeEnv) -> ModelResult<ExecNode> {
    let counter = Cell::new(0);
    prepare_with(plan, ctx, range_env, &counter)
}

/// Compile with an externally provided aggregate-id counter (used for
/// nested compilations so ids stay unique per top-level plan).
pub fn prepare_with(
    plan: &Physical,
    ctx: &SemaCtx<'_>,
    range_env: &RangeEnv,
    agg_counter: &Cell<usize>,
) -> ModelResult<ExecNode> {
    // Collect binding element types introduced by the plan so expression
    // compilation sees every variable.
    let mut vars = ctx.vars.clone();
    collect_vars(plan, &mut vars);
    let full_ctx = SemaCtx {
        types: ctx.types,
        adts: ctx.adts,
        catalog: ctx.catalog,
        vars,
    };
    prepare_node(plan, &full_ctx, range_env, agg_counter)
}

fn collect_vars(plan: &Physical, vars: &mut HashMap<String, QualType>) {
    match plan {
        Physical::Unit => {}
        Physical::SeqScan { binding }
        | Physical::SystemScan { binding, .. }
        | Physical::IndexScan { binding, .. } => {
            vars.insert(binding.var.clone(), binding.elem.clone());
        }
        Physical::Unnest { input, binding } => {
            collect_vars(input, vars);
            vars.insert(binding.var.clone(), binding.elem.clone());
        }
        Physical::HashJoin { input, binding, .. } | Physical::IndexJoin { input, binding, .. } => {
            collect_vars(input, vars);
            vars.insert(binding.var.clone(), binding.elem.clone());
        }
        Physical::NestedLoop { outer, inner } => {
            collect_vars(outer, vars);
            collect_vars(inner, vars);
        }
        Physical::Filter { input, .. }
        | Physical::Project { input, .. }
        | Physical::Sort { input, .. }
        | Physical::Parallel { input, .. } => collect_vars(input, vars),
        Physical::UniversalFilter {
            input, bindings, ..
        } => {
            collect_vars(input, vars);
            for b in bindings {
                vars.insert(b.var.clone(), b.elem.clone());
            }
        }
    }
}

fn prepare_node(
    plan: &Physical,
    ctx: &SemaCtx<'_>,
    range_env: &RangeEnv,
    agg_counter: &Cell<usize>,
) -> ModelResult<ExecNode> {
    let compiler = Compiler::new(ctx, range_env, agg_counter);
    Ok(match plan {
        Physical::Unit => ExecNode::Unit,
        Physical::SeqScan { binding } => ExecNode::SeqScan {
            var: binding.var.clone(),
            anchor: collection_oid(binding)?,
        },
        Physical::SystemScan { binding, view } => ExecNode::SystemScan {
            var: binding.var.clone(),
            view: view.clone(),
        },
        Physical::IndexScan {
            binding,
            index,
            lower,
            upper,
            ..
        } => ExecNode::IndexScan {
            var: binding.var.clone(),
            anchor: collection_oid(binding)?,
            root: index.root,
            lower: lower.clone(),
            upper: upper.clone(),
        },
        Physical::Unnest { input, binding } => ExecNode::Unnest {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            var: binding.var.clone(),
            source: unnest_source(binding, ctx, &compiler)?,
        },
        Physical::NestedLoop { outer, inner } => ExecNode::NestedLoop {
            outer: Box::new(prepare_node(outer, ctx, range_env, agg_counter)?),
            inner: Box::new(prepare_node(inner, ctx, range_env, agg_counter)?),
        },
        Physical::Filter { input, pred } => ExecNode::Filter {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            pred: compiler.compile(pred)?,
            paths: compiler.take_paths(),
        },
        Physical::UniversalFilter {
            input,
            bindings,
            pred,
        } => ExecNode::UniversalFilter {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            universe: Box::new(prepare_bindings(bindings, ctx, range_env, agg_counter)?),
            pred: compiler.compile(pred)?,
            paths: compiler.take_paths(),
        },
        Physical::Project { input, targets } => ExecNode::Project {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            targets: targets
                .iter()
                .map(|(n, e)| Ok((n.clone(), compiler.compile(e)?)))
                .collect::<ModelResult<_>>()?,
            paths: compiler.take_paths(),
        },
        Physical::Sort { input, key, asc } => ExecNode::Sort {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            key: compiler.compile(key)?,
            paths: compiler.take_paths(),
            asc: *asc,
        },
        Physical::HashJoin {
            input,
            binding,
            key,
            on,
        } => ExecNode::HashJoin {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            var: binding.var.clone(),
            anchor: collection_oid(binding)?,
            key: compiler.compile(key)?,
            paths: compiler.take_paths(),
            on: compiler.attr(
                CExpr::Var(binding.var.clone()),
                ctx.attr_pos(&binding.elem, on).map_err(sem)?,
            ),
            on_paths: compiler.take_paths(),
        },
        Physical::IndexJoin {
            input,
            binding,
            index,
            key,
        } => ExecNode::IndexJoin {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            var: binding.var.clone(),
            anchor: collection_oid(binding)?,
            root: index.root,
            key: compiler.compile(key)?,
            paths: compiler.take_paths(),
            key_ty: ctx.attr_type(&binding.elem, &index.attr).map_err(sem)?.ty,
        },
        Physical::Parallel { input, dop } => ExecNode::Parallel {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            dop: *dop,
        },
    })
}

/// Compile a chain of bindings (dependency-ordered) into a plan producing
/// their joint environments — used for universal filters and aggregate
/// `over` sources.
pub fn prepare_bindings(
    bindings: &[ResolvedRange],
    ctx: &SemaCtx<'_>,
    range_env: &RangeEnv,
    agg_counter: &Cell<usize>,
) -> ModelResult<ExecNode> {
    let mut vars = ctx.vars.clone();
    for b in bindings {
        vars.insert(b.var.clone(), b.elem.clone());
    }
    let full_ctx = SemaCtx {
        types: ctx.types,
        adts: ctx.adts,
        catalog: ctx.catalog,
        vars,
    };
    let compiler = Compiler::new(&full_ctx, range_env, agg_counter);
    let mut node = ExecNode::Unit;
    for b in bindings {
        node = match (&b.root, b.steps.is_empty()) {
            (RootSource::Collection(_), true) => {
                let scan = ExecNode::SeqScan {
                    var: b.var.clone(),
                    anchor: collection_oid(b)?,
                };
                match node {
                    ExecNode::Unit => scan,
                    prev => ExecNode::NestedLoop {
                        outer: Box::new(prev),
                        inner: Box::new(scan),
                    },
                }
            }
            (RootSource::System(view), _) => {
                let scan = ExecNode::SystemScan {
                    var: b.var.clone(),
                    view: view.clone(),
                };
                match node {
                    ExecNode::Unit => scan,
                    prev => ExecNode::NestedLoop {
                        outer: Box::new(prev),
                        inner: Box::new(scan),
                    },
                }
            }
            _ => ExecNode::Unnest {
                input: Box::new(node),
                var: b.var.clone(),
                source: unnest_source(b, &full_ctx, &compiler)?,
            },
        };
    }
    Ok(node)
}

fn collection_oid(b: &ResolvedRange) -> ModelResult<Oid> {
    match &b.root {
        RootSource::Collection(obj) => Ok(obj.oid),
        other => Err(ModelError::Semantic(format!(
            "binding '{}' does not scan a collection ({other:?})",
            b.var
        ))),
    }
}

/// Compile an unnest's source — its root, then its attribute steps —
/// into a path expression with its own slot table.
fn unnest_source(
    b: &ResolvedRange,
    ctx: &SemaCtx<'_>,
    compiler: &Compiler<'_>,
) -> ModelResult<USource> {
    let (mut expr, mut cur, parent) = match &b.root {
        RootSource::Var(parent) => {
            let qty = ctx
                .vars
                .get(parent)
                .cloned()
                .ok_or_else(|| ModelError::Semantic(format!("unbound parent '{parent}'")))?;
            (CExpr::Var(parent.clone()), qty, Some(parent.clone()))
        }
        RootSource::Object(obj) => (CExpr::NamedRef(obj.oid), obj.qty.clone(), None),
        RootSource::Collection(_) | RootSource::System(_) => {
            return Err(ModelError::Semantic(format!(
                "binding '{}' should be a scan, not an unnest",
                b.var
            )))
        }
    };
    for s in &b.steps {
        expr = compiler.attr(expr, ctx.attr_pos(&cur, s).map_err(sem)?);
        cur = ctx.attr_type(&cur, s).map_err(sem)?;
    }
    Ok(USource {
        expr,
        paths: compiler.take_paths(),
        container: parent.map(|p| Arc::new((p, b.steps.clone()))),
    })
}
