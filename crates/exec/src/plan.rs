//! Executable plans: compilation from physical plans. Iteration happens
//! batch-at-a-time through [`crate::cursor`].

use std::ops::Bound;
use std::sync::Arc;

use excess_algebra::Physical;
use excess_sema::{ResolvedRange, RootSource, SemaCtx};
use exodus_storage::Oid;
use extra_model::{ModelError, ModelResult};

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

/// Compile a physical plan into an executable one. `ctx` is the
/// analysis context the plan's statement was checked under: the EXCESS
/// function bodies its expressions call are planned against it.
pub fn prepare(plan: &Physical, ctx: &SemaCtx<'_>) -> ModelResult<ExecNode> {
    prepare_node(plan, &Compiler::new(ctx))
}

/// Compile one plan node and its inputs. Each operator takes the path
/// slots of its own expressions as it is built.
pub(crate) fn prepare_node(plan: &Physical, c: &Compiler<'_>) -> ModelResult<ExecNode> {
    let input = |p: &Physical| prepare_node(p, c).map(Box::new);
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
        Physical::Unnest { input: i, binding } => ExecNode::Unnest {
            input: input(i)?,
            var: binding.var.clone(),
            source: unnest_source(binding, c)?,
        },
        Physical::NestedLoop { outer, inner } => ExecNode::NestedLoop {
            outer: input(outer)?,
            inner: input(inner)?,
        },
        Physical::Filter { input: i, pred } => ExecNode::Filter {
            input: input(i)?,
            pred: c.compile(&pred.typed)?,
            paths: c.take_paths(),
        },
        Physical::UniversalFilter {
            input: i,
            bindings,
            pred,
        } => ExecNode::UniversalFilter {
            input: input(i)?,
            universe: Box::new(prepare_bindings(bindings, c)?),
            pred: c.compile(&pred.typed)?,
            paths: c.take_paths(),
        },
        Physical::Project { input: i, targets } => ExecNode::Project {
            input: input(i)?,
            targets: targets
                .iter()
                .map(|(n, e)| Ok((n.clone(), c.compile(&e.typed)?)))
                .collect::<ModelResult<_>>()?,
            paths: c.take_paths(),
        },
        Physical::Sort { input: i, key, asc } => ExecNode::Sort {
            input: input(i)?,
            key: c.compile(&key.typed)?,
            paths: c.take_paths(),
            asc: *asc,
        },
        Physical::HashJoin {
            input: i,
            binding,
            key,
            on,
        } => ExecNode::HashJoin {
            input: input(i)?,
            var: binding.var.clone(),
            anchor: collection_oid(binding)?,
            key: c.compile(&key.typed)?,
            paths: c.take_paths(),
            on: c.compile(&on.typed)?,
            on_paths: c.take_paths(),
        },
        Physical::IndexJoin {
            input: i,
            binding,
            index,
            key,
            key_ty,
        } => ExecNode::IndexJoin {
            input: input(i)?,
            var: binding.var.clone(),
            anchor: collection_oid(binding)?,
            root: index.root,
            key: c.compile(&key.typed)?,
            paths: c.take_paths(),
            key_ty: key_ty.clone(),
        },
        Physical::Parallel { input: i, dop } => ExecNode::Parallel {
            input: input(i)?,
            dop: *dop,
        },
    })
}

/// Compile a chain of bindings (dependency-ordered) into a plan producing
/// their joint environments — used for universal filters and aggregate
/// `over` sources.
pub(crate) fn prepare_bindings(
    bindings: &[ResolvedRange],
    c: &Compiler<'_>,
) -> ModelResult<ExecNode> {
    let mut node = ExecNode::Unit;
    for b in bindings {
        let scan = match &b.root {
            RootSource::Collection(_) if b.steps.is_empty() => Some(ExecNode::SeqScan {
                var: b.var.clone(),
                anchor: collection_oid(b)?,
            }),
            RootSource::System(view) => Some(ExecNode::SystemScan {
                var: b.var.clone(),
                view: view.clone(),
            }),
            _ => None,
        };
        node = match (scan, node) {
            (Some(scan), ExecNode::Unit) => scan,
            (Some(scan), prev) => ExecNode::NestedLoop {
                outer: Box::new(prev),
                inner: Box::new(scan),
            },
            (None, prev) => ExecNode::Unnest {
                input: Box::new(prev),
                var: b.var.clone(),
                source: unnest_source(b, c)?,
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
fn unnest_source(b: &ResolvedRange, c: &Compiler<'_>) -> ModelResult<USource> {
    let (root, parent) = match &b.root {
        RootSource::Var(parent) => (CExpr::Var(parent.clone()), Some(parent.clone())),
        RootSource::Object(obj) => (CExpr::NamedRef(obj.oid), None),
        RootSource::Collection(_) | RootSource::System(_) => {
            return Err(ModelError::Semantic(format!(
                "binding '{}' should be a scan, not an unnest",
                b.var
            )))
        }
    };
    let expr = b.positions.iter().fold(root, |e, &pos| c.attr(e, pos));
    Ok(USource {
        expr,
        paths: c.take_paths(),
        container: parent.map(|p| Arc::new((p, b.steps.clone()))),
    })
}
