//! Executable plans: compilation from physical plans. Iteration happens
//! batch-at-a-time through [`crate::cursor`].

use std::cell::Cell;
use std::collections::HashMap;
use std::ops::Bound;

use excess_algebra::Physical;
use excess_sema::{RangeEnv, ResolvedRange, RootSource, SemaCtx};
use exodus_storage::Oid;
use extra_model::{ModelError, ModelResult, QualType, Value};

use crate::cexpr::{CExpr, Compiler};
use crate::eval::ExecCtx;

/// Where an unnest's collection value comes from.
#[derive(Debug)]
pub enum USource {
    /// From another variable's current binding.
    FromVar {
        /// The parent variable.
        parent: String,
        /// Attribute positions from the parent to the collection.
        path: Vec<usize>,
        /// Attribute names (kept for nested-member update identities).
        names: Vec<String>,
    },
    /// From a named object.
    FromObject {
        /// The object's OID.
        oid: Oid,
        /// Attribute positions.
        path: Vec<usize>,
        /// Attribute names.
        names: Vec<String>,
    },
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
    },
    /// Universal-quantification filter.
    UniversalFilter {
        /// Input.
        input: Box<ExecNode>,
        /// Sub-plan enumerating the universal bindings.
        universe: Box<ExecNode>,
        /// Predicate that must hold for every universal binding.
        pred: CExpr,
    },
    /// Projection (consumed by [`crate::run::run_plan`]).
    Project {
        /// Input.
        input: Box<ExecNode>,
        /// Output columns.
        targets: Vec<(String, CExpr)>,
    },
    /// Sort (materializes).
    Sort {
        /// Input.
        input: Box<ExecNode>,
        /// Compiled key.
        key: CExpr,
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
        /// Build-side attribute position for an equi join; `None` keys
        /// the table on member identity (reference/deref-hoist mode).
        on: Option<usize>,
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
        Physical::HashJoin {
            input, binding, on, ..
        } => {
            collect_vars(input, vars);
            // Reference mode binds the *dereferenced* target tuple;
            // equi mode binds the original member value. Either way the
            // element type types downstream attribute accesses.
            let elem = match on {
                None => QualType::own(binding.elem.ty.clone()),
                Some(_) => binding.elem.clone(),
            };
            vars.insert(binding.var.clone(), elem);
        }
        Physical::IndexJoin { input, binding, .. } => {
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
            source: unnest_source(binding, ctx)?,
        },
        Physical::NestedLoop { outer, inner } => ExecNode::NestedLoop {
            outer: Box::new(prepare_node(outer, ctx, range_env, agg_counter)?),
            inner: Box::new(prepare_node(inner, ctx, range_env, agg_counter)?),
        },
        Physical::Filter { input, pred } => ExecNode::Filter {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            pred: compiler.compile(pred)?,
        },
        Physical::UniversalFilter {
            input,
            bindings,
            pred,
        } => ExecNode::UniversalFilter {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            universe: Box::new(prepare_bindings(bindings, ctx, range_env, agg_counter)?),
            pred: compiler.compile(pred)?,
        },
        Physical::Project { input, targets } => ExecNode::Project {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            targets: targets
                .iter()
                .map(|(n, e)| Ok((n.clone(), compiler.compile(e)?)))
                .collect::<ModelResult<_>>()?,
        },
        Physical::Sort { input, key, asc } => ExecNode::Sort {
            input: Box::new(prepare_node(input, ctx, range_env, agg_counter)?),
            key: compiler.compile(key)?,
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
            on: on
                .as_ref()
                .map(|attr| ctx.attr_pos(&binding.elem, attr).map_err(sem))
                .transpose()?,
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
    _range_env: &RangeEnv,
    _agg_counter: &Cell<usize>,
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
                source: unnest_source(b, &full_ctx)?,
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

/// Resolve an unnest's attribute steps into positions.
type MkSource = Box<dyn Fn(Vec<usize>, Vec<String>) -> USource>;

fn unnest_source(b: &ResolvedRange, ctx: &SemaCtx<'_>) -> ModelResult<USource> {
    let (start_qty, mk): (QualType, MkSource) = match &b.root {
        RootSource::Var(parent) => {
            let qty = ctx
                .vars
                .get(parent)
                .cloned()
                .ok_or_else(|| ModelError::Semantic(format!("unbound parent '{parent}'")))?;
            let parent = parent.clone();
            (
                qty,
                Box::new(move |path, names| USource::FromVar {
                    parent: parent.clone(),
                    path,
                    names,
                }),
            )
        }
        RootSource::Object(obj) => {
            let oid = obj.oid;
            (
                obj.qty.clone(),
                Box::new(move |path, names| USource::FromObject { oid, path, names }),
            )
        }
        RootSource::Collection(_) | RootSource::System(_) => {
            return Err(ModelError::Semantic(format!(
                "binding '{}' should be a scan, not an unnest",
                b.var
            )))
        }
    };
    let mut cur = start_qty;
    let mut path = Vec::with_capacity(b.steps.len());
    for s in &b.steps {
        let pos = ctx.attr_pos(&cur, s).map_err(sem)?;
        path.push(pos);
        cur = ctx.attr_type(&cur, s).map_err(sem)?;
    }
    Ok(mk(path, b.steps.clone()))
}

/// Walk attribute positions, dereferencing refs along the way.
pub fn walk_path(ctx: &ExecCtx<'_>, mut v: Value, path: &[usize]) -> ModelResult<Value> {
    for &pos in path {
        v = crate::eval::deref(ctx, v)?;
        match v {
            Value::Tuple(mut fields) => {
                if pos >= fields.len() {
                    return Err(ModelError::Semantic(format!(
                        "tuple has {} fields, wanted position {pos}",
                        fields.len()
                    )));
                }
                v = fields.swap_remove(pos);
            }
            Value::Null => return Ok(Value::Null),
            other => {
                return Err(ModelError::TypeMismatch {
                    expected: "a tuple".into(),
                    got: other.kind().into(),
                })
            }
        }
    }
    crate::eval::deref(ctx, v)
}
