//! Compiled expressions: the executable form of EXCESS expressions.
//!
//! Compilation resolves what the analyzer inferred: attribute names become
//! tuple positions, ADT calls bind to registry functions, EXCESS functions
//! are pre-planned (their `retrieve` bodies become executable plans — the
//! uniform function/operator optimization the paper calls for), ADT
//! literals are parsed at compile time, and aggregate `over` clauses are
//! resolved into binding sub-plans.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::sync::Arc;

use excess_lang::{Aggregate, BinOp, Expr, Lit, UnOp};
use excess_sema::resolve::Resolver;
use excess_sema::{RangeEnv, SemaCtx};
use exodus_storage::Oid;
use extra_model::{AdtId, ModelError, ModelResult, QualType, Type, Value};

use crate::paths::{PathBase, Paths};
use crate::plan::{prepare_bindings, prepare_with, ExecNode};

/// Maximum EXCESS-function call depth at runtime.
pub const MAX_CALL_DEPTH: u32 = 64;

/// A pre-planned EXCESS function.
pub struct CompiledFunction {
    /// Function name (diagnostics).
    pub name: String,
    /// Parameter names, bound positionally at call time.
    pub params: Vec<String>,
    /// The body plan (a `Project` at the top).
    pub plan: ExecNode,
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
    Ranges(ExecNode),
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

/// Compilation driver. Holds the analysis context (whose `vars` are the
/// variables bound by the enclosing plan) and the session ranges (for
/// aggregate `over` resolution).
pub struct Compiler<'a> {
    /// Analysis context.
    pub ctx: &'a SemaCtx<'a>,
    /// Session ranges.
    pub range_env: &'a RangeEnv,
    agg_counter: &'a Cell<usize>,
    fn_stack: RefCell<Vec<String>>,
    /// Path slots of the expressions compiled so far.
    paths: RefCell<Paths>,
}

fn sem(e: excess_sema::SemaError) -> ModelError {
    ModelError::Semantic(e.to_string())
}

impl<'a> Compiler<'a> {
    /// New compiler.
    pub fn new(
        ctx: &'a SemaCtx<'a>,
        range_env: &'a RangeEnv,
        agg_counter: &'a Cell<usize>,
    ) -> Self {
        Compiler {
            ctx,
            range_env,
            agg_counter,
            fn_stack: RefCell::new(Vec::new()),
            paths: RefCell::default(),
        }
    }

    /// The path slots of everything compiled since the last call: the
    /// table the operator evaluating those expressions resolves per
    /// batch.
    pub fn take_paths(&self) -> Paths {
        self.paths.take()
    }

    /// Field `pos` of `base`. A step from a variable, a named object or
    /// another such path gets a slot.
    pub(crate) fn attr(&self, base: CExpr, pos: usize) -> CExpr {
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

    /// Compile an expression.
    pub fn compile(&self, e: &Expr) -> ModelResult<CExpr> {
        match e {
            Expr::Lit(l) => Ok(CExpr::Const(match l {
                Lit::Int(i) => Value::Int(*i),
                Lit::Float(f) => Value::Float(*f),
                Lit::Str(s) => Value::Str(s.clone()),
                Lit::Bool(b) => Value::Bool(*b),
                Lit::Null => Value::Null,
            })),
            Expr::Var(n) => {
                if self.ctx.vars.contains_key(n) {
                    return Ok(CExpr::Var(n.clone()));
                }
                if let Some(obj) = self.ctx.catalog.named(n) {
                    if obj.is_collection {
                        return Ok(CExpr::NamedSet(obj.oid));
                    }
                    if matches!(obj.qty.ty, Type::Schema(_)) {
                        return Ok(CExpr::NamedRef(obj.oid));
                    }
                    return Ok(CExpr::NamedValue(obj.oid));
                }
                Err(ModelError::Semantic(format!("unbound variable '{n}'")))
            }
            Expr::Path(base, attr) => {
                let bq = self.ctx.infer(base).map_err(sem)?;
                let pos = self.ctx.attr_pos(&bq, attr).map_err(sem)?;
                Ok(self.attr(self.compile(base)?, pos))
            }
            Expr::Index(base, idx) => Ok(CExpr::Idx(
                Box::new(self.compile(base)?),
                Box::new(self.compile(idx)?),
            )),
            Expr::Unary(UnOp::Not, a) => Ok(CExpr::Not(Box::new(self.compile(a)?))),
            Expr::Unary(UnOp::Neg, a) => Ok(CExpr::Neg(Box::new(self.compile(a)?))),
            Expr::Binary(op, a, b) => self.compile_binary(*op, a, b),
            Expr::UserOp(sym, args) => {
                let mut recv = None;
                for a in args {
                    if let Type::Adt(id) = self.ctx.infer(a).map_err(sem)?.ty {
                        recv = Some(id);
                        break;
                    }
                }
                let id = recv.ok_or_else(|| {
                    ModelError::Semantic(format!("operator '{sym}' needs an ADT operand"))
                })?;
                let cand = self
                    .ctx
                    .adts
                    .operator_candidates(sym)
                    .iter()
                    .find(|(cid, o)| *cid == id && o.arity == args.len())
                    .ok_or_else(|| ModelError::UnknownAdt(format!("operator {sym}")))?
                    .1
                    .clone();
                let cargs = args
                    .iter()
                    .map(|a| self.compile(a))
                    .collect::<ModelResult<_>>()?;
                Ok(CExpr::AdtCall {
                    id,
                    func: cand.function,
                    args: cargs,
                })
            }
            Expr::Call { recv, name, args } => self.compile_call(recv.as_deref(), name, args),
            Expr::Agg(agg) => self.compile_agg(agg),
            Expr::SetLit(items) => Ok(CExpr::SetLit(
                items
                    .iter()
                    .map(|i| self.compile(i))
                    .collect::<ModelResult<_>>()?,
            )),
            Expr::TupleLit(fields) => Ok(CExpr::TupleLit(
                fields
                    .iter()
                    .map(|(_, v)| self.compile(v))
                    .collect::<ModelResult<_>>()?,
            )),
        }
    }

    fn compile_binary(&self, op: BinOp, a: &Expr, b: &Expr) -> ModelResult<CExpr> {
        // Arithmetic on an ADT operand routes through the registered
        // operator (the Complex `+` overload).
        if matches!(
            op,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        ) {
            for side in [a, b] {
                if let Ok(QualType {
                    ty: Type::Adt(id), ..
                }) = self.ctx.infer(side)
                {
                    let sym = op.to_string();
                    let adt = self.ctx.adts.get(id)?.name();
                    let cand = self
                        .ctx
                        .adts
                        .operator_candidates(&sym)
                        .iter()
                        .find(|(cid, o)| *cid == id && o.arity == 2)
                        .ok_or_else(|| ModelError::UnknownAdt(format!("operator {sym} on {adt}")))?
                        .1
                        .clone();
                    return Ok(CExpr::AdtCall {
                        id,
                        func: cand.function,
                        args: vec![self.compile(a)?, self.compile(b)?],
                    });
                }
            }
        }
        Ok(CExpr::Bin(
            op,
            Box::new(self.compile(a)?),
            Box::new(self.compile(b)?),
        ))
    }

    fn compile_call(&self, recv: Option<&Expr>, name: &str, args: &[Expr]) -> ModelResult<CExpr> {
        // ADT literal constructor.
        if recv.is_none() && self.ctx.adts.contains(name) && args.len() == 1 {
            if let Expr::Lit(Lit::Str(s)) = &args[0] {
                let id = self.ctx.adts.lookup(name)?;
                return Ok(CExpr::Const(self.ctx.adts.parse(id, s)?));
            }
        }
        let mut all: Vec<&Expr> = Vec::with_capacity(args.len() + 1);
        if let Some(r) = recv {
            all.push(r);
        }
        all.extend(args.iter());
        let first_ty = all
            .first()
            .map(|e| self.ctx.infer(e))
            .transpose()
            .map_err(sem)?;
        if let Some(QualType {
            ty: Type::Adt(id), ..
        }) = &first_ty
        {
            let cargs = all
                .iter()
                .map(|a| self.compile(a))
                .collect::<ModelResult<_>>()?;
            // Existence/arity were checked by sema; bind by name.
            self.ctx.adts.function(*id, name)?;
            return Ok(CExpr::AdtCall {
                id: *id,
                func: name.to_string(),
                args: cargs,
            });
        }
        let def = self
            .ctx
            .resolve_excess_function(name, first_ty.as_ref(), all.len())
            .map_err(sem)?;
        let func = self.compile_function(&def)?;
        let cargs = all
            .iter()
            .map(|a| self.compile(a))
            .collect::<ModelResult<_>>()?;
        Ok(CExpr::FunCall { func, args: cargs })
    }

    /// Pre-plan an EXCESS function body.
    pub fn compile_function(
        &self,
        def: &excess_sema::FunctionDef,
    ) -> ModelResult<Arc<CompiledFunction>> {
        if self.fn_stack.borrow().iter().any(|n| n == &def.name) {
            return Err(ModelError::Semantic(format!(
                "recursive EXCESS function '{}' is not supported",
                def.name
            )));
        }
        self.fn_stack.borrow_mut().push(def.name.clone());
        let result = self.compile_function_inner(def);
        self.fn_stack.borrow_mut().pop();
        result
    }

    fn compile_function_inner(
        &self,
        def: &excess_sema::FunctionDef,
    ) -> ModelResult<Arc<CompiledFunction>> {
        let mut fctx = SemaCtx::new(self.ctx.types, self.ctx.adts, self.ctx.catalog);
        for (p, qty) in &def.params {
            fctx.vars.insert(p.clone(), qty.clone());
        }
        // The body's own from clauses join the range scope (aggregate
        // `over` resolution inside the body must see them).
        let mut local = self.range_env.clone();
        if let excess_lang::Stmt::Retrieve { from, .. } = &def.body {
            for fb in from {
                local.declare(&fb.var, false, fb.path.clone());
            }
        }
        let resolver = Resolver::new(&fctx, &local);
        let checked = resolver.check_retrieve(&def.body).map_err(sem)?;
        let plan = excess_algebra::plan_retrieve(
            &def.body,
            &checked,
            &fctx,
            excess_algebra::PlannerConfig::default(),
        )
        .map_err(sem)?;
        let node = prepare_with(&plan, &fctx, &local, self.agg_counter)?;
        Ok(Arc::new(CompiledFunction {
            name: def.name.clone(),
            params: def.params.iter().map(|(p, _)| p.clone()).collect(),
            plan: node,
            returns_set: matches!(def.returns.ty, Type::Set(_)),
        }))
    }

    fn compile_agg(&self, agg: &Aggregate) -> ModelResult<CExpr> {
        let id = self.agg_counter.get();
        self.agg_counter.set(id + 1);

        let func = match agg.func.as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            "unique" => AggFunc::Unique,
            other => {
                // The argument may reference over-variables not yet in
                // scope here; resolve the set function against Unknown in
                // that case (the analyzer already type-checked the call).
                let arg_ty = agg
                    .arg
                    .as_ref()
                    .and_then(|a| self.ctx.infer(a).ok())
                    .unwrap_or(QualType::own(Type::Unknown));
                let set_of = QualType::own(Type::Set(Box::new(arg_ty)));
                let def = self
                    .ctx
                    .resolve_excess_function(other, Some(&set_of), 1)
                    .map_err(sem)?;
                AggFunc::UserSet(self.compile_function(&def)?)
            }
        };

        if agg.over.is_empty() {
            // Aggregate directly over a set-valued argument.
            let arg = agg.arg.as_ref().ok_or_else(|| {
                ModelError::Semantic(format!("{}(...) needs an argument", agg.func))
            })?;
            let aq = self.ctx.infer(arg).map_err(sem)?;
            if !matches!(aq.ty, Type::Set(_) | Type::Array(_, _) | Type::Unknown) {
                return Err(ModelError::Semantic(format!(
                    "aggregate '{}' without an 'over' clause needs a set-valued \
                     argument (e.g. count(E.kids))",
                    agg.func
                )));
            }
            if !agg.by.is_empty() || agg.qual.is_some() {
                return Err(ModelError::Semantic(
                    "'by'/'where' inside an aggregate require an 'over' clause".into(),
                ));
            }
            return Ok(CExpr::Agg(Box::new(CAgg {
                id,
                func,
                arg: Some(self.compile(arg)?),
                source: AggSource::SetArg,
                by: Vec::new(),
                qual: None,
                cacheable: false,
                paths: Paths::default(),
            })));
        }

        // Resolve the over ranges (plus dependencies not bound outside).
        let mut inner_exprs: Vec<&Expr> = Vec::new();
        if let Some(a) = &agg.arg {
            inner_exprs.push(a);
        }
        for b in &agg.by {
            inner_exprs.push(b);
        }
        if let Some(q) = &agg.qual {
            inner_exprs.push(q);
        }
        // Over-variable paths need to be in scope for resolution: add the
        // vars themselves as pseudo-expressions.
        let over_paths: Vec<Expr> = agg.over.iter().map(|v| Expr::Var(v.clone())).collect();
        let mut all_exprs = inner_exprs.clone();
        for p in &over_paths {
            all_exprs.push(p);
        }
        let resolver = Resolver::new(self.ctx, self.range_env);
        let bindings = resolver.bindings_for(&all_exprs, &[]).map_err(sem)?;
        // Keep over vars and their parents not bound in the outer scope;
        // parents bound outside correlate instead.
        let over_set: HashSet<&str> = agg.over.iter().map(String::as_str).collect();
        let mut keep: HashSet<String> = agg.over.iter().cloned().collect();
        loop {
            let mut grew = false;
            for b in &bindings {
                if keep.contains(&b.var) {
                    if let Some(p) = b.depends_on() {
                        if !keep.contains(p)
                            && (!self.ctx.vars.contains_key(p) || over_set.contains(p))
                        {
                            keep.insert(p.to_string());
                            grew = true;
                        }
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let kept: Vec<excess_sema::ResolvedRange> = bindings
            .into_iter()
            .filter(|b| keep.contains(&b.var))
            .collect();
        for v in &agg.over {
            if !kept.iter().any(|b| &b.var == v) {
                return Err(ModelError::Semantic(format!(
                    "'over {v}': no such range variable"
                )));
            }
        }

        // Inner expressions compile with the over vars in scope.
        let mut inner_ctx = SemaCtx::new(self.ctx.types, self.ctx.adts, self.ctx.catalog);
        inner_ctx.vars = self.ctx.vars.clone();
        for b in &kept {
            inner_ctx.vars.insert(b.var.clone(), b.elem.clone());
        }

        // Cacheable iff nothing inside references an outer-only variable.
        let kept_vars: HashSet<&str> = kept.iter().map(|b| b.var.as_str()).collect();
        let mut outer_refs = false;
        for e in &inner_exprs {
            for v in excess_algebra::rules::free_vars(e) {
                if !kept_vars.contains(v.as_str()) && self.ctx.vars.contains_key(&v) {
                    outer_refs = true;
                }
            }
        }

        let inner = Compiler::new(&inner_ctx, self.range_env, self.agg_counter);
        let source_plan = prepare_bindings(&kept, &inner_ctx, self.range_env, self.agg_counter)?;
        let arg = agg.arg.as_ref().map(|a| inner.compile(a)).transpose()?;
        let by = agg
            .by
            .iter()
            .map(|b| inner.compile(b))
            .collect::<ModelResult<_>>()?;
        let qual = agg.qual.as_ref().map(|q| inner.compile(q)).transpose()?;
        Ok(CExpr::Agg(Box::new(CAgg {
            id,
            func,
            arg,
            source: AggSource::Ranges(source_plan),
            by,
            qual,
            cacheable: !outer_refs,
            paths: inner.take_paths(),
        })))
    }
}
