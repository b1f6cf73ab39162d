//! Compiled expressions: the executable form of EXCESS expressions.
//!
//! Compilation translates the checker's resolved tree node for node —
//! positions, parsed ADT literals, bound ADT functions and aggregate
//! ranges all come resolved. What it adds: path slots, aggregate
//! sub-plans over the ranges an aggregate iterates, and pre-planned
//! EXCESS functions (their `retrieve` bodies become executable plans —
//! the uniform function/operator optimization the paper calls for).

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use excess_algebra::PlanExpr;
use excess_lang::{BinOp, Expr, UnOp};
use excess_sema::{AggFn, Checked, FunctionDef, Node, SemaCtx, Typed, TypedAgg};
use exodus_storage::Oid;
use extra_model::{AdtId, ModelError, ModelResult, Type, TypeId, Value};

use crate::paths::{PathBase, Paths};
use crate::plan::{prepare_node, Plan};

/// Maximum EXCESS-function call depth at runtime.
pub const MAX_CALL_DEPTH: u32 = 64;

/// A pre-planned EXCESS function.
pub struct CompiledFunction {
    /// Function name (diagnostics).
    pub name: String,
    /// Parameter names, bound positionally at call time.
    pub params: Vec<String>,
    /// The body plan (a `Project` at the top).
    pub plan: Plan,
    /// Whether the declared return type is a set (collect all rows) or a
    /// scalar (first row).
    pub returns_set: bool,
}

impl std::fmt::Debug for CompiledFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompiledFunction({}/{})", self.name, self.params.len())
    }
}

/// Aggregate implementations.
#[derive(Debug, Clone)]
pub enum AggFunc {
    /// `count`.
    Count,
    /// `sum`.
    Sum,
    /// `avg`.
    Avg,
    /// `min`.
    Min,
    /// `max`.
    Max,
    /// `unique` — the distinct set of argument values.
    Unique,
    /// A user-defined set function (applied to the collected set).
    UserSet(Arc<CompiledFunction>),
}

/// Where an aggregate's values come from.
#[derive(Debug)]
pub enum AggSource {
    /// Fresh iteration of resolved `over` ranges.
    Ranges(Box<Plan>),
    /// The members of the (set-valued) argument itself, e.g.
    /// `count(E.kids)`.
    SetArg,
}

/// A compiled aggregate.
#[derive(Debug)]
pub struct CAgg {
    /// Unique id within the plan (group-cache key).
    pub id: usize,
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument, evaluated per source binding (for `SetArg`, evaluated
    /// once; members aggregated).
    pub arg: Option<CExpr>,
    /// Value source.
    pub source: AggSource,
    /// Partitioning expressions (`by`).
    pub by: Vec<CExpr>,
    /// Inner qualification.
    pub qual: Option<CExpr>,
    /// Whether the group table may be cached across outer rows
    /// (uncorrelated aggregates).
    pub cacheable: bool,
    /// Path slots of `arg`, `by` and `qual`, resolved per batch of the
    /// source plan's rows.
    pub paths: Paths,
}

/// A compiled expression.
#[derive(Debug)]
pub enum CExpr {
    /// A constant (literals, parsed ADT literals).
    Const(Value),
    /// A statement template's hole: the execution's literal in slot `.0`.
    Hole(usize),
    /// A bound variable.
    Var(String),
    /// A named collection used as a whole-set value.
    NamedSet(Oid),
    /// A named schema-type object: denotes a reference to it.
    NamedRef(Oid),
    /// A named non-schema object: denotes its stored value.
    NamedValue(Oid),
    /// Attribute access by position (dereferencing through refs).
    Attr(Box<CExpr>, usize),
    /// An attribute access — the boxed [`CExpr::Attr`] — that is a path
    /// rooted at a variable or named object: slot `.0` of its
    /// operator's [`Paths`] holds its value when the operator resolved
    /// the path for the whole batch (see [`crate::paths`]).
    Path(usize, Box<CExpr>),
    /// 1-based array indexing.
    Idx(Box<CExpr>, Box<CExpr>),
    /// Logical not.
    Not(Box<CExpr>),
    /// Numeric negation.
    Neg(Box<CExpr>),
    /// Built-in binary operation.
    Bin(BinOp, Box<CExpr>, Box<CExpr>),
    /// ADT function call (covers both call syntaxes and ADT operators).
    AdtCall {
        /// The receiver ADT.
        id: AdtId,
        /// Function name.
        func: String,
        /// Arguments (receiver first).
        args: Vec<CExpr>,
    },
    /// EXCESS function call.
    FunCall {
        /// The pre-planned function.
        func: Arc<CompiledFunction>,
        /// Arguments.
        args: Vec<CExpr>,
    },
    /// Aggregate.
    Agg(Box<CAgg>),
    /// Set literal.
    SetLit(Vec<CExpr>),
    /// Tuple literal (fields positional after compilation).
    TupleLit(Vec<CExpr>),
}

/// An expression of a prepared plan node: the executable tree, beside
/// the source the plan's labels and estimates read.
#[derive(Debug)]
pub struct Compiled {
    /// The executable tree.
    pub expr: CExpr,
    /// The path slots the node resolves per batch for `expr` (one table
    /// serves all of a projection's targets, which resolve together).
    pub paths: Arc<Paths>,
    /// The expression as written.
    pub src: Expr,
}

impl PlanExpr for Compiled {
    fn src(&self) -> &Expr {
        &self.src
    }
}

/// Compilation driver for one statement: every expression of its plan,
/// and of the EXCESS function bodies those call, compiles through one
/// compiler, so aggregate ids are unique per statement and a function
/// that reaches itself is caught.
pub struct Compiler<'a> {
    /// The statement's analysis context, which function bodies are
    /// planned against (each body is a statement of its own).
    ctx: &'a SemaCtx<'a>,
    next_agg: Cell<usize>,
    /// The EXCESS functions whose bodies are being compiled, by name and
    /// receiver type (same-named functions on other types are others).
    fn_stack: RefCell<Vec<(String, Option<TypeId>)>>,
    /// Path slots of the expressions compiled since the current plan
    /// node's table was last taken.
    paths: RefCell<Paths>,
}

fn sem(e: excess_sema::SemaError) -> ModelError {
    ModelError::Semantic(e.to_string())
}

impl<'a> Compiler<'a> {
    /// New compiler for a statement checked under `ctx`.
    pub fn new(ctx: &'a SemaCtx<'a>) -> Self {
        Compiler {
            ctx,
            next_agg: Cell::new(0),
            fn_stack: RefCell::default(),
            paths: RefCell::default(),
        }
    }

    /// Compile one expression a plan node evaluates, with a table of the
    /// path slots it takes for itself.
    pub(crate) fn plan_expr(&self, e: Checked) -> ModelResult<Compiled> {
        let expr = self.compile(&e.typed)?;
        Ok(Compiled {
            expr,
            paths: Arc::new(self.paths.take()),
            src: e.src,
        })
    }

    /// Compile a projection's targets over one shared table of path
    /// slots.
    pub(crate) fn plan_targets(
        &self,
        targets: Vec<(String, Checked)>,
    ) -> ModelResult<Vec<(String, Compiled)>> {
        let compiled = targets
            .into_iter()
            .map(|(n, e)| Ok((n, self.compile(&e.typed)?, e.src)))
            .collect::<ModelResult<Vec<_>>>()?;
        let paths = Arc::new(self.paths.take());
        Ok(compiled
            .into_iter()
            .map(|(n, expr, src)| {
                let paths = paths.clone();
                (n, Compiled { expr, paths, src })
            })
            .collect())
    }

    /// Field `pos` of `base`. A step from a variable, a named object or
    /// another such path gets a slot.
    fn attr(&self, base: CExpr, pos: usize) -> CExpr {
        let from = match &base {
            CExpr::Var(n) => Some(PathBase::Var(n.clone())),
            CExpr::NamedRef(oid) => Some(PathBase::Object(Value::Ref(*oid))),
            CExpr::Path(slot, _) => Some(PathBase::Slot(*slot)),
            _ => None,
        };
        let attr = CExpr::Attr(Box::new(base), pos);
        match from {
            Some(from) => CExpr::Path(self.paths.borrow_mut().slot(from, pos), Box::new(attr)),
            None => attr,
        }
    }

    /// Compile a checked expression.
    pub fn compile(&self, t: &Typed) -> ModelResult<CExpr> {
        let all = |ts: &[Typed]| {
            ts.iter()
                .map(|t| self.compile(t))
                .collect::<ModelResult<_>>()
        };
        let boxed = |t: &Typed| self.compile(t).map(Box::new);
        Ok(match &t.node {
            Node::Const(v) => CExpr::Const(v.clone()),
            Node::Hole(slot) => CExpr::Hole(*slot),
            Node::Var(n) => CExpr::Var(n.clone()),
            Node::NamedSet(obj) => CExpr::NamedSet(obj.oid),
            Node::NamedRef(obj) => CExpr::NamedRef(obj.oid),
            Node::NamedValue(obj) => CExpr::NamedValue(obj.oid),
            Node::Attr(base, pos) => self.attr(self.compile(base)?, *pos),
            Node::Index(base, idx) => CExpr::Idx(boxed(base)?, boxed(idx)?),
            Node::Unary(UnOp::Not, a) => CExpr::Not(boxed(a)?),
            Node::Unary(UnOp::Neg, a) => CExpr::Neg(boxed(a)?),
            Node::Binary(op, a, b) => CExpr::Bin(*op, boxed(a)?, boxed(b)?),
            Node::AdtCall { adt, func, args } => CExpr::AdtCall {
                id: *adt,
                func: func.clone(),
                args: all(args)?,
            },
            Node::Call { def, args } => CExpr::FunCall {
                func: self.compile_function(def)?,
                args: all(args)?,
            },
            Node::Agg(agg) => self.compile_agg(agg)?,
            Node::SetLit(items) => CExpr::SetLit(all(items)?),
            Node::TupleLit(fields) => CExpr::TupleLit(all(fields)?),
        })
    }

    /// Pre-plan an EXCESS function body.
    fn compile_function(&self, def: &FunctionDef) -> ModelResult<Arc<CompiledFunction>> {
        let key = (def.name.clone(), def.attached_to);
        if self.fn_stack.borrow().contains(&key) {
            return Err(ModelError::Semantic(format!(
                "recursive EXCESS function '{}' is not supported",
                def.name
            )));
        }
        self.fn_stack.borrow_mut().push(key);
        // The body's operators take their own path slots; the caller's
        // expression resumes with its own afterwards.
        let outer = self.paths.take();
        let result = self.plan_body(def);
        self.paths.replace(outer);
        self.fn_stack.borrow_mut().pop();
        result
    }

    fn plan_body(&self, def: &FunctionDef) -> ModelResult<Arc<CompiledFunction>> {
        // The body sees its parameters and the statement's ranges.
        let mut fctx = SemaCtx::new(self.ctx.types, self.ctx.adts, self.ctx.catalog);
        fctx.vars.extend(def.params.iter().cloned());
        fctx.ranges = self.ctx.ranges;
        let checked = fctx.check_retrieve(&def.body).map_err(sem)?;
        let config = excess_algebra::PlannerConfig::default();
        let plan = excess_algebra::plan_retrieve(&checked, &fctx, config).map_err(sem)?;
        Ok(Arc::new(CompiledFunction {
            name: def.name.clone(),
            params: def.params.iter().map(|(p, _)| p.clone()).collect(),
            plan: prepare_node(plan, self)?,
            returns_set: matches!(def.returns.ty, Type::Set(_)),
        }))
    }

    fn compile_agg(&self, agg: &TypedAgg) -> ModelResult<CExpr> {
        let id = self.next_agg.get();
        self.next_agg.set(id + 1);
        let func = match &agg.func {
            AggFn::Count => AggFunc::Count,
            AggFn::Sum => AggFunc::Sum,
            AggFn::Avg => AggFunc::Avg,
            AggFn::Min => AggFunc::Min,
            AggFn::Max => AggFunc::Max,
            AggFn::Unique => AggFunc::Unique,
            AggFn::Set(def) => AggFunc::UserSet(self.compile_function(def)?),
        };
        let compile_opt = |t: &Option<Typed>| t.as_ref().map(|t| self.compile(t)).transpose();
        if agg.over.is_empty() {
            // Aggregate directly over the set-valued argument, whose
            // path slots are the enclosing operator's.
            return Ok(CExpr::Agg(Box::new(CAgg {
                id,
                func,
                arg: compile_opt(&agg.arg)?,
                source: AggSource::SetArg,
                by: Vec::new(),
                qual: None,
                cacheable: false,
                paths: Paths::default(),
            })));
        }
        // The `over` ranges become a sub-plan; the inner expressions
        // resolve their paths per batch of its rows.
        let outer = self.paths.take();
        let source = Box::new(prepare_node(
            excess_algebra::plan_bindings(&agg.over),
            self,
        )?);
        let arg = compile_opt(&agg.arg)?;
        let by = agg
            .by
            .iter()
            .map(|b| self.compile(b))
            .collect::<ModelResult<_>>()?;
        let qual = compile_opt(&agg.qual)?;
        Ok(CExpr::Agg(Box::new(CAgg {
            id,
            func,
            arg,
            source: AggSource::Ranges(source),
            by,
            qual,
            cacheable: !agg.correlated,
            paths: self.paths.replace(outer),
        })))
    }
}
