//! The physical operator tree: the one plan a statement has. The planner
//! builds and costs it with checked expressions; the executor prepares
//! the same tree with its expressions compiled and runs that.

use std::fmt;
use std::ops::Bound;

use excess_lang::{BinOp, Expr, Lit};
use excess_sema::{lit_value, Checked, IndexInfo, ResolvedRange};
use extra_model::{AdtRegistry, Type, Value};

/// What a plan node's expressions are: [`Checked`] while the planner
/// builds and costs the plan, the executor's compiled form once it is
/// prepared. Labels and estimates read only the source.
pub trait PlanExpr {
    /// The expression as written.
    fn src(&self) -> &Expr;
}

impl PlanExpr for Checked {
    fn src(&self) -> &Expr {
        &self.src
    }
}

/// A physical plan node; `E` is the form of its expressions.
#[derive(Debug, Clone)]
pub enum Physical<E = Checked> {
    /// One empty environment.
    Unit,
    /// Sequential scan of a collection, binding `binding.var`.
    SeqScan {
        /// The binding (root must be a collection).
        binding: ResolvedRange,
    },
    /// Scan of a `sys.<view>` virtual collection: rows are materialized
    /// from live engine state by the catalog's system-view provider, as
    /// one consistent snapshot per cursor open.
    SystemScan {
        /// The binding (root must be [`excess_sema::RootSource::System`]).
        binding: ResolvedRange,
        /// View name without the `sys.` prefix.
        view: String,
    },
    /// B+-tree index scan over the keys `probe` admits.
    IndexScan {
        /// The binding (root must be a collection).
        binding: ResolvedRange,
        /// The index used.
        index: IndexInfo,
        /// The conjunct the scan absorbed, `index.attr <op> value`.
        probe: Probe,
        /// The type of `index.attr`, which the probe's value is coerced
        /// to before it is key-encoded.
        key_ty: Type,
    },
    /// Unnest a set/array reached from a parent binding or named object,
    /// extending each input environment.
    Unnest {
        /// Input.
        input: Box<Physical<E>>,
        /// The dependent binding.
        binding: ResolvedRange,
        /// The set or array iterated, evaluated per input row.
        source: E,
        /// The member attributes the plan reads ([`crate::reads`]):
        /// `Some` binds each member as just those attribute columns,
        /// `None` binds it whole, with its identity.
        reads: Option<Vec<usize>>,
    },
    /// Cross product: re-run `inner` for every outer environment
    /// (predicates have been pushed into the inputs).
    NestedLoop {
        /// Outer side.
        outer: Box<Physical<E>>,
        /// Inner side (independent of the outer).
        inner: Box<Physical<E>>,
    },
    /// Filter.
    Filter {
        /// Input.
        input: Box<Physical<E>>,
        /// Predicate.
        pred: E,
    },
    /// Universal-quantification filter: keep input environments for which
    /// `pred` holds under *every* environment `universe` extends them to.
    UniversalFilter {
        /// Input.
        input: Box<Physical<E>>,
        /// Enumerates the universal bindings
        /// ([`crate::physical::plan_bindings`]). It re-opens per input
        /// row, so it is neither printed nor profiled.
        universe: Box<Physical<E>>,
        /// Predicate.
        pred: E,
    },
    /// Projection.
    Project {
        /// Input.
        input: Box<Physical<E>>,
        /// `(column name, expression)` pairs.
        targets: Vec<(String, E)>,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Box<Physical<E>>,
        /// Sort key.
        key: E,
        /// Ascending?
        asc: bool,
    },
    /// Hash equi join: build a hash table over `binding`'s collection
    /// once, keyed on the member attribute `on` names, then probe it with
    /// whole input batches, extending each input row with one binding per
    /// matching member. `binding.var` is bound to the **original**
    /// member value (a reference for `{ own ref T }` collections, so
    /// `is`-identity semantics are preserved). Null keys match nothing,
    /// exactly like the `NestedLoop` + `Filter` it replaces.
    HashJoin {
        /// Probe side (the existing pipeline).
        input: Box<Physical<E>>,
        /// The build-side binding (root must be a collection).
        binding: ResolvedRange,
        /// Probe key, evaluated against each input row.
        key: Box<E>,
        /// The build side's `W.attr`, which the table is keyed on.
        on: Box<E>,
    },
    /// Index nested-loop join: for each input row, probe a secondary
    /// index on `index.attr` with the value of `key` (equality only) and
    /// emit one output row per match, binding `binding.var` to the
    /// matching member.
    IndexJoin {
        /// Probe side (the existing pipeline).
        input: Box<Physical<E>>,
        /// The matched binding (root must be a collection).
        binding: ResolvedRange,
        /// The index probed.
        index: IndexInfo,
        /// Probe key, evaluated against each input row.
        key: Box<E>,
        /// The type of `index.attr`, which probe keys take.
        key_ty: Type,
    },
    /// Parallel exchange: partition the leftmost scan of `input` into
    /// morsels and fan the pipeline out to `dop` worker threads, merging
    /// the output batches back in deterministic scan order. Everything
    /// above the exchange stays single-threaded.
    Parallel {
        /// The pipeline to parallelize (scan → unnest/filter prefix).
        input: Box<Physical<E>>,
        /// Degree of parallelism (worker thread count).
        dop: usize,
    },
}

/// The encoded key range an index scan reads.
pub type KeyRange = (Bound<Vec<u8>>, Bound<Vec<u8>>);

/// An index scan's probe, `attr <op> value`. When `hole` is set, each
/// execution probes with that literal of its own statement instead of
/// `value`, the one the plan was made with.
#[derive(Debug, Clone)]
pub struct Probe {
    /// The comparison, with the attribute on its left.
    pub op: BinOp,
    /// The constant, coerced to the key type.
    pub value: Value,
    /// The statement literal the constant is bound from, if any.
    pub hole: Option<usize>,
}

impl Probe {
    /// The constant this execution probes with, coerced to `key_ty`:
    /// the planned one when its hole is not bound.
    pub fn value(&self, holes: &[Value], key_ty: &Type) -> Value {
        match self.hole.and_then(|slot| holes.get(slot)) {
            Some(v) => coerce(v, key_ty),
            None => self.value.clone(),
        }
    }

    /// The encoded key bounds this execution scans; `None` when the
    /// constant has no key encoding. A fractional constant against
    /// integer keys rounds toward the keys it admits: `k < 2.5` scans
    /// `k <= 2`, `k > 2.5` scans `k >= 3`, and `k = 2.5` scans nothing.
    pub fn bounds(&self, holes: &[Value], key_ty: &Type, adts: &AdtRegistry) -> Option<KeyRange> {
        let (op, value) = match (self.value(holes, key_ty), key_ty) {
            (Value::Float(f), Type::Base(b)) if b.is_integer() => match self.op {
                BinOp::Lt | BinOp::Le => (BinOp::Le, Value::Int(f.floor() as i64)),
                BinOp::Gt | BinOp::Ge => (BinOp::Ge, Value::Int(f.ceil() as i64)),
                // No integer key equals a fraction: the empty range.
                _ => {
                    let key = Value::Int(0).key_encode(adts)?;
                    return Some((Bound::Excluded(key.clone()), Bound::Excluded(key)));
                }
            },
            (value, _) => (self.op, value),
        };
        let key = value.key_encode(adts)?;
        Some(match op {
            BinOp::Eq => (Bound::Included(key.clone()), Bound::Included(key)),
            BinOp::Lt => (Bound::Unbounded, Bound::Excluded(key)),
            BinOp::Le => (Bound::Unbounded, Bound::Included(key)),
            BinOp::Gt => (Bound::Excluded(key), Bound::Unbounded),
            BinOp::Ge => (Bound::Included(key), Bound::Unbounded),
            _ => unreachable!("indexable_pred filters operators"),
        })
    }
}

/// A probe constant as the index stores keys of type `ty`.
pub(crate) fn coerce(v: &Value, ty: &Type) -> Value {
    match (v, ty) {
        (Value::Int(i), Type::Base(b)) if b.is_float() => Value::Float(*i as f64),
        (Value::Float(f), Type::Base(b)) if b.is_integer() && f.fract() == 0.0 => {
            Value::Int(*f as i64)
        }
        _ => v.clone(),
    }
}

fn indent(f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
    for _ in 0..depth {
        write!(f, "  ")?;
    }
    Ok(())
}

/// Human-readable description of where a binding iterates.
pub fn range_source(b: &ResolvedRange) -> String {
    let root = match &b.root {
        excess_sema::RootSource::Collection(o) => o.name.clone(),
        excess_sema::RootSource::Object(o) => o.name.clone(),
        excess_sema::RootSource::Var(v) => v.clone(),
        excess_sema::RootSource::System(v) => format!("sys.{v}"),
    };
    if b.steps.is_empty() {
        root
    } else {
        format!("{root}.{}", b.steps.join("."))
    }
}

/// The member attribute a join's build side (`W.attr`) names.
pub(crate) fn join_attr<E: PlanExpr>(on: &E) -> &str {
    match on.src() {
        Expr::Path(_, attr) => attr,
        _ => unreachable!("join rules build `on` from a member attribute"),
    }
}

impl Physical {
    /// Unnest `binding` — a range that starts from a variable or a named
    /// object — over `input`.
    pub fn unnest(input: Physical, binding: ResolvedRange) -> Physical {
        let source = binding
            .source
            .clone()
            .expect("a range that is not a scan has a source");
        Physical::Unnest {
            input: Box::new(input),
            binding,
            source,
            reads: None,
        }
    }
}

impl<E: PlanExpr> Physical<E> {
    /// One-line operator label, as [`fmt::Display`] prints it.
    pub fn label(&self) -> String {
        self.label_with(&[])
    }

    /// [`Physical::label`] with each hole showing its value in `holes`,
    /// the literals of the statement that runs the plan (the profiler's
    /// annotated plan tree).
    pub fn label_with(&self, holes: &[Lit]) -> String {
        let show = |e: &Expr| {
            if holes.is_empty() {
                return e.to_string();
            }
            let mut e = e.clone();
            e.bind_holes(holes);
            e.to_string()
        };
        match self {
            Physical::Unit => "Unit".into(),
            Physical::SeqScan { binding } => {
                format!("SeqScan {} over {}", binding.var, range_source(binding))
            }
            Physical::SystemScan { binding, .. } => {
                format!("SystemScan {} over {}", binding.var, range_source(binding))
            }
            Physical::IndexScan {
                binding,
                index,
                probe,
                key_ty,
            } => {
                let holes: Vec<Value> = holes.iter().map(lit_value).collect();
                format!(
                    "IndexScan {} over {} using {} ({} {} {})",
                    binding.var,
                    range_source(binding),
                    index.name,
                    index.attr,
                    probe.op,
                    probe.value(&holes, key_ty)
                )
            }
            Physical::Unnest { binding, .. } => {
                format!("Unnest {} over {}", binding.var, range_source(binding))
            }
            Physical::NestedLoop { .. } => "NestedLoop".into(),
            Physical::Filter { pred, .. } => format!("Filter {}", show(pred.src())),
            Physical::UniversalFilter { universe, pred, .. } => format!(
                "UniversalFilter forall {} : {}",
                universe.bound_vars().join(", "),
                show(pred.src())
            ),
            Physical::Project { targets, .. } => {
                let cols: Vec<String> = targets
                    .iter()
                    .map(|(n, e)| format!("{n} = {}", show(e.src())))
                    .collect();
                format!("Project [{}]", cols.join(", "))
            }
            Physical::Sort { key, asc, .. } => {
                let order = if *asc { "asc" } else { "desc" };
                format!("Sort by {} {order}", show(key.src()))
            }
            Physical::HashJoin {
                binding, key, on, ..
            } => format!(
                "HashJoin {} over {} on {} = {}",
                binding.var,
                range_source(binding),
                join_attr(&**on),
                show(key.src())
            ),
            Physical::IndexJoin {
                binding,
                index,
                key,
                ..
            } => format!(
                "IndexJoin {} over {} using {} on {} = {}",
                binding.var,
                range_source(binding),
                index.name,
                index.attr,
                show(key.src())
            ),
            Physical::Parallel { dop, .. } => format!("Parallel dop={dop}"),
        }
    }

    fn fmt_at(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        indent(f, depth)?;
        writeln!(f, "{}", self.label())?;
        match self {
            Physical::Unit
            | Physical::SeqScan { .. }
            | Physical::SystemScan { .. }
            | Physical::IndexScan { .. } => Ok(()),
            Physical::NestedLoop { outer, inner } => {
                outer.fmt_at(f, depth + 1)?;
                inner.fmt_at(f, depth + 1)
            }
            Physical::Unnest { input, .. }
            | Physical::Filter { input, .. }
            | Physical::UniversalFilter { input, .. }
            | Physical::Project { input, .. }
            | Physical::Sort { input, .. }
            | Physical::HashJoin { input, .. }
            | Physical::IndexJoin { input, .. }
            | Physical::Parallel { input, .. } => input.fmt_at(f, depth + 1),
        }
    }

    /// Variables bound by this subtree.
    pub fn bound_vars(&self) -> Vec<String> {
        match self {
            Physical::Unit => Vec::new(),
            Physical::SeqScan { binding }
            | Physical::SystemScan { binding, .. }
            | Physical::IndexScan { binding, .. } => {
                vec![binding.var.clone()]
            }
            Physical::Unnest { input, binding, .. }
            | Physical::HashJoin { input, binding, .. }
            | Physical::IndexJoin { input, binding, .. } => {
                let mut v = input.bound_vars();
                v.push(binding.var.clone());
                v
            }
            Physical::NestedLoop { outer, inner } => {
                let mut v = outer.bound_vars();
                v.extend(inner.bound_vars());
                v
            }
            Physical::Filter { input, .. }
            | Physical::UniversalFilter { input, .. }
            | Physical::Project { input, .. }
            | Physical::Sort { input, .. }
            | Physical::Parallel { input, .. } => input.bound_vars(),
        }
    }

    /// The leftmost storage scan of a parallel-safe pipeline — the leaf
    /// a parallel exchange partitions into morsels — or `None` when the
    /// pipeline bottoms out in something unpartitionable. Only row-local
    /// operators may sit above the leaf: filter, unnest, projection
    /// pass-through, a join's probe side (each worker builds its own hash
    /// table or probes the shared index), the outer side of a nested
    /// loop. Sort and universal quantification stay in the serial tail;
    /// system scans are snapshots of in-memory state, never partitioned,
    /// so `sys.*` plans are identical at every degree of parallelism.
    pub fn leftmost_scan(&self) -> Option<&Physical<E>> {
        match self {
            Physical::SeqScan { .. } | Physical::IndexScan { .. } => Some(self),
            Physical::Unnest { input, .. }
            | Physical::Filter { input, .. }
            | Physical::Project { input, .. }
            | Physical::HashJoin { input, .. }
            | Physical::IndexJoin { input, .. }
            | Physical::Parallel { input, .. } => input.leftmost_scan(),
            Physical::NestedLoop { outer, .. } => outer.leftmost_scan(),
            Physical::Unit
            | Physical::SystemScan { .. }
            | Physical::UniversalFilter { .. }
            | Physical::Sort { .. } => None,
        }
    }
}

impl<E: PlanExpr> fmt::Display for Physical<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_at(f, 0)
    }
}
