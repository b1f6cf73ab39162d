//! The checker: type-checks an expression once and returns it resolved.
//!
//! [`SemaCtx::check`] is the front end's one typing judgement. Its
//! output, a [`Typed`] tree, carries what later stages would otherwise
//! work out again: every node's type, each name classified (a range
//! variable, or a named set, reference or value), each attribute step's
//! position, ADT literals parsed, every call bound to its ADT function or
//! EXCESS definition, and each aggregate's function, iterated ranges and
//! correlation.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use excess_lang::{Aggregate, BinOp, Expr, Lit, UnOp};
use extra_model::adt::AdtReturn;
use extra_model::{AdtId, AdtRegistry, BaseType, QualType, Type, TypeRegistry, Value};

use crate::catalog::{CatalogLookup, FunctionDef, NamedObject};
use crate::error::{SemaError, SemaResult};
use crate::resolve::{agg_exprs, free_names, RangeEnv, ResolvedRange, NO_RANGES};

/// The analysis context: registries, catalog, and the names in scope.
pub struct SemaCtx<'a> {
    /// Schema types.
    pub types: &'a TypeRegistry,
    /// ADTs.
    pub adts: &'a AdtRegistry,
    /// Named objects, functions, procedures, indexes.
    pub catalog: &'a dyn CatalogLookup,
    /// Range variables and parameters in scope.
    pub vars: HashMap<String, QualType>,
    /// Declared ranges (`range of`, a statement's `from` clauses): what
    /// free names and aggregate `over` clauses resolve against.
    pub ranges: &'a RangeEnv,
    /// What checking and planning read that a plan cached for a
    /// statement template depends on; shared with scoped contexts.
    pub reads: Rc<RefCell<Reads>>,
}

/// What checking and planning a statement read beyond its shape: a plan
/// made for a statement template answers for another statement of that
/// shape only while these read the same.
#[derive(Debug, Default)]
pub struct Reads {
    /// The holes whose values decided something: a check, an index
    /// probe's constant, a statistics estimate.
    pub holes: Vec<usize>,
    /// The member counts the cost model estimated with.
    pub sizes: Vec<(String, u64)>,
}

/// A checked expression, resolved: every node carries its type.
#[derive(Debug, Clone)]
pub struct Typed {
    /// The node's type.
    pub qty: QualType,
    /// What the node is.
    pub node: Node,
}

/// One node of a [`Typed`] tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// A constant: a literal, or a parsed ADT literal.
    Const(Value),
    /// A statement template's hole: the value of literal slot `.0`,
    /// bound at each execution.
    Hole(usize),
    /// A range variable or parameter.
    Var(String),
    /// A named collection used as a whole-set value.
    NamedSet(NamedObject),
    /// A named schema-type object: denotes a reference to it.
    NamedRef(NamedObject),
    /// A named non-schema object: denotes its stored value.
    NamedValue(NamedObject),
    /// Attribute access by position, stepping through references.
    Attr(Box<Typed>, usize),
    /// 1-based array indexing.
    Index(Box<Typed>, Box<Typed>),
    /// Built-in unary operation.
    Unary(UnOp, Box<Typed>),
    /// Built-in binary operation.
    Binary(BinOp, Box<Typed>, Box<Typed>),
    /// An ADT function applied to its arguments (receiver first) — call
    /// syntax, a registered operator and ADT arithmetic all land here.
    AdtCall {
        /// The receiver's ADT.
        adt: AdtId,
        /// The function, by its registered name.
        func: String,
        /// Arguments, receiver first.
        args: Vec<Typed>,
    },
    /// An EXCESS function call, bound to its most specific definition.
    Call {
        /// The definition called.
        def: Box<FunctionDef>,
        /// Arguments, receiver first.
        args: Vec<Typed>,
    },
    /// An aggregate.
    Agg(Box<TypedAgg>),
    /// Set literal.
    SetLit(Vec<Typed>),
    /// Tuple literal (fields positional).
    TupleLit(Vec<Typed>),
}

/// An aggregate's function.
#[derive(Debug, Clone)]
pub enum AggFn {
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
    /// `unique`: the distinct argument values.
    Unique,
    /// A user-defined set function, applied to the collected set.
    Set(Box<FunctionDef>),
}

/// A checked aggregate.
#[derive(Debug, Clone)]
pub struct TypedAgg {
    /// The aggregate function.
    pub func: AggFn,
    /// The aggregated expression.
    pub arg: Option<Typed>,
    /// The ranges the aggregate iterates, dependency-ordered: its `over`
    /// variables and the parents they need that are not bound outside
    /// it. Empty when it aggregates a set-valued argument instead.
    pub over: Vec<ResolvedRange>,
    /// Partitioning expressions.
    pub by: Vec<Typed>,
    /// Inner qualification.
    pub qual: Option<Typed>,
    /// Whether it refers to a variable bound outside it, so its value
    /// may differ from one outer row to the next.
    pub correlated: bool,
}

impl Typed {
    /// Visit this node and every node under it, aggregates' argument,
    /// `by` and `where` included.
    pub fn walk<'t>(&'t self, f: &mut impl FnMut(&'t Typed)) {
        f(self);
        match &self.node {
            Node::Const(_)
            | Node::Hole(_)
            | Node::Var(_)
            | Node::NamedSet(_)
            | Node::NamedRef(_)
            | Node::NamedValue(_) => {}
            Node::Attr(a, _) | Node::Unary(_, a) => a.walk(f),
            Node::Index(a, b) | Node::Binary(_, a, b) => {
                a.walk(f);
                b.walk(f);
            }
            Node::AdtCall { args, .. }
            | Node::Call { args, .. }
            | Node::SetLit(args)
            | Node::TupleLit(args) => args.iter().for_each(|a| a.walk(f)),
            Node::Agg(a) => a
                .arg
                .iter()
                .chain(&a.by)
                .chain(&a.qual)
                .for_each(|e| e.walk(f)),
        }
    }
}

/// A checked expression: its source, which everything that reads syntax
/// uses (plan labels, predicate placement, index and join detection),
/// beside its resolved tree, which everything that evaluates uses.
#[derive(Debug, Clone)]
pub struct Checked {
    /// The expression as written.
    pub src: Expr,
    /// The expression as resolved.
    pub typed: Typed,
}

impl Checked {
    /// The top-level conjuncts of a predicate.
    pub fn conjuncts(self) -> Vec<Checked> {
        match (self.src, self.typed.node) {
            (Expr::Binary(BinOp::And, a, b), Node::Binary(BinOp::And, ta, tb)) => {
                let mut out = Checked {
                    src: *a,
                    typed: *ta,
                }
                .conjuncts();
                out.extend(
                    Checked {
                        src: *b,
                        typed: *tb,
                    }
                    .conjuncts(),
                );
                out
            }
            (src, node) => vec![Checked {
                src,
                typed: Typed {
                    qty: self.typed.qty,
                    node,
                },
            }],
        }
    }

    /// Conjoin predicates left to right (`None` for none).
    pub fn conjoin(preds: Vec<Checked>) -> Option<Checked> {
        preds.into_iter().reduce(|a, b| Checked {
            src: Expr::Binary(BinOp::And, Box::new(a.src), Box::new(b.src)),
            typed: Typed {
                qty: boolean(),
                node: Node::Binary(BinOp::And, Box::new(a.typed), Box::new(b.typed)),
            },
        })
    }
}

/// How a call site names an ADT function.
enum Callee<'s> {
    /// By name, in either call syntax: `x.Year()` or `Year(x)`.
    Function(&'s str),
    /// By a registered operator symbol, overloaded arithmetic included.
    Operator(&'s str),
}

/// The value a literal denotes.
pub fn lit_value(l: &Lit) -> Value {
    match l {
        Lit::Int(i) => Value::Int(*i),
        Lit::Float(f) => Value::Float(*f),
        Lit::Str(s) => Value::Str(s.clone()),
        Lit::Bool(b) => Value::Bool(*b),
        Lit::Null => Value::Null,
    }
}

fn int8() -> QualType {
    QualType::own(Type::Base(BaseType::Int8))
}

fn float8() -> QualType {
    QualType::own(Type::float8())
}

fn boolean() -> QualType {
    QualType::own(Type::boolean())
}

fn unknown() -> QualType {
    QualType::own(Type::Unknown)
}

fn is_numeric(t: &Type) -> bool {
    matches!(t, Type::Base(b) if b.is_integer() || b.is_float()) || matches!(t, Type::Unknown)
}

fn is_integer(t: &Type) -> bool {
    matches!(t, Type::Base(b) if b.is_integer()) || matches!(t, Type::Unknown)
}

pub(crate) fn is_boolean(t: &Type) -> bool {
    matches!(t, Type::Base(BaseType::Boolean) | Type::Unknown)
}

impl<'a> SemaCtx<'a> {
    /// Build a context with no variables in scope and no declared ranges.
    pub fn new(
        types: &'a TypeRegistry,
        adts: &'a AdtRegistry,
        catalog: &'a dyn CatalogLookup,
    ) -> Self {
        SemaCtx {
            types,
            adts,
            catalog,
            vars: HashMap::new(),
            ranges: NO_RANGES,
            reads: Rc::default(),
        }
    }

    /// The value of a literal or hole (`None` for any other expression);
    /// a hole's slot is recorded as read.
    pub fn literal<'e>(&self, e: &'e Expr) -> Option<&'e Lit> {
        match e {
            Expr::Lit(l) => Some(l),
            Expr::Hole(slot, l) => {
                self.read_hole(*slot);
                Some(l)
            }
            _ => None,
        }
    }

    /// Record that hole `slot`'s value decided something.
    pub fn read_hole(&self, slot: usize) {
        let holes = &mut self.reads.borrow_mut().holes;
        if !holes.contains(&slot) {
            holes.push(slot);
        }
    }

    /// The member count of a named collection, recorded as read.
    pub fn collection_size(&self, name: &str) -> Option<u64> {
        let n = self.catalog.collection_size(name)?;
        let sizes = &mut self.reads.borrow_mut().sizes;
        if !sizes.iter().any(|(read, _)| read == name) {
            sizes.push((name.to_string(), n));
        }
        Some(n)
    }

    /// This context with `vars` bound on top of its own.
    pub(crate) fn scoped(&self, vars: impl IntoIterator<Item = (String, QualType)>) -> SemaCtx<'a> {
        let mut out = SemaCtx {
            types: self.types,
            adts: self.adts,
            catalog: self.catalog,
            vars: self.vars.clone(),
            ranges: self.ranges,
            reads: self.reads.clone(),
        };
        out.vars.extend(vars);
        out
    }

    fn display(&self, qty: &QualType) -> String {
        self.types.display_qual(qty)
    }

    /// Attribute `attr` of a tuple-structured type, stepping through
    /// references transparently (the uniform treatment of §2.2): its
    /// position and its type.
    pub fn attr(&self, base: &QualType, attr: &str) -> SemaResult<(usize, QualType)> {
        let unknown_attr = |ty: String| SemaError::UnknownAttribute {
            ty,
            attr: attr.into(),
        };
        match &base.ty {
            Type::Schema(tid) => {
                let st = self.types.get(*tid);
                st.attribute(attr)
                    .map(|(i, a)| (i, a.qty.clone()))
                    .ok_or_else(|| unknown_attr(st.name.clone()))
            }
            Type::Tuple(attrs) => attrs
                .iter()
                .enumerate()
                .find(|(_, a)| a.name == attr)
                .map(|(i, a)| (i, a.qty.clone()))
                .ok_or_else(|| unknown_attr(self.display(base))),
            Type::Set(_) | Type::Array(_, _) => Err(SemaError::Other(format!(
                "cannot take attribute '{attr}' of a collection; \
                 bind a range variable over it first"
            ))),
            _ => Err(unknown_attr(self.display(base))),
        }
    }

    /// Unify two types (for set literals, unions, branch results).
    pub fn unify(&self, a: &QualType, b: &QualType) -> SemaResult<QualType> {
        if matches!(a.ty, Type::Unknown) {
            return Ok(b.clone());
        }
        if matches!(b.ty, Type::Unknown) {
            return Ok(a.clone());
        }
        if a == b {
            return Ok(a.clone());
        }
        // Numeric widening.
        if is_numeric(&a.ty) && is_numeric(&b.ty) {
            return Ok(if is_integer(&a.ty) && is_integer(&b.ty) {
                int8()
            } else {
                float8()
            });
        }
        if self.types.assignable(&a.ty, &b.ty) && a.mode == b.mode {
            return Ok(b.clone());
        }
        if self.types.assignable(&b.ty, &a.ty) && a.mode == b.mode {
            return Ok(a.clone());
        }
        Err(SemaError::TypeMismatch {
            expected: self.display(a),
            got: self.display(b),
        })
    }

    /// Whether two types are value-comparable with `=`/`!=`.
    fn eq_comparable(&self, a: &QualType, b: &QualType) -> bool {
        self.unify(a, b).is_ok()
    }

    /// Whether a type has a total order (for `<` and min/max).
    fn is_ordered(&self, t: &Type) -> bool {
        match t {
            // All base types are ordered (booleans order false < true,
            // enums by ordinal, strings lexicographically).
            Type::Base(_) => true,
            Type::Adt(id) => self.adts.indexable(*id),
            Type::Unknown => true,
            _ => false,
        }
    }

    /// The one ADT dispatch, however the call was written: bind `callee`
    /// on ADT `adt` and type its application to `args` (receiver first).
    fn adt_call(&self, adt: AdtId, callee: Callee<'_>, args: Vec<Typed>) -> SemaResult<Typed> {
        let name = self.adts.get(adt)?.name();
        let func = match callee {
            Callee::Function(f) => f.to_string(),
            Callee::Operator(sym) => self
                .adts
                .operator_candidates(sym)
                .iter()
                .find(|(id, op)| *id == adt && op.arity == args.len())
                .map(|(_, op)| op.function.clone())
                .ok_or_else(|| {
                    SemaError::Function(format!("operator '{sym}' is not defined for {name}"))
                })?,
        };
        let f = self
            .adts
            .function(adt, &func)
            .map_err(|_| SemaError::Function(format!("ADT '{name}' has no function '{func}'")))?;
        if f.arity != args.len() {
            return Err(SemaError::Function(format!(
                "'{func}' takes {} arguments, got {}",
                f.arity,
                args.len()
            )));
        }
        let qty = match f.returns {
            AdtReturn::SameAdt => QualType::own(Type::Adt(adt)),
            AdtReturn::Int => int8(),
            AdtReturn::Float => float8(),
            AdtReturn::Bool => boolean(),
            AdtReturn::Varchar => QualType::own(Type::varchar()),
        };
        Ok(Typed {
            qty,
            node: Node::AdtCall { adt, func, args },
        })
    }

    /// The most specific EXCESS function named `name` applicable to a
    /// first argument of type `first`.
    fn resolve_function(
        &self,
        name: &str,
        first: Option<&QualType>,
        argc: usize,
    ) -> SemaResult<FunctionDef> {
        let candidates = self.catalog.functions_named(name);
        if candidates.is_empty() {
            return Err(SemaError::Function(format!("unknown function '{name}'")));
        }
        let mut best: Option<FunctionDef> = None;
        for c in candidates {
            if c.params.len() != argc {
                continue;
            }
            let applicable = match (&c.attached_to, first) {
                (Some(tid), Some(f)) => match &f.ty {
                    Type::Schema(sub) => self.types.is_subtype(*sub, *tid),
                    Type::Unknown => true,
                    _ => false,
                },
                (None, _) => true,
                (Some(_), None) => false,
            };
            if !applicable {
                continue;
            }
            // Most specific receiver wins.
            best = match best {
                None => Some(c),
                Some(b) => match (b.attached_to, c.attached_to) {
                    (Some(bt), Some(ct)) if self.types.is_subtype(ct, bt) => Some(c),
                    _ => Some(b),
                },
            };
        }
        best.ok_or_else(|| {
            SemaError::Function(format!(
                "no definition of '{name}' applies to these arguments"
            ))
        })
    }

    /// Check an expression: its type and its resolved tree, or the first
    /// semantic error in it.
    pub fn check(&self, expr: &Expr) -> SemaResult<Typed> {
        let (qty, node) = match expr {
            Expr::Lit(l) | Expr::Hole(_, l) => {
                let qty = match l {
                    Lit::Int(_) => int8(),
                    Lit::Float(_) => float8(),
                    Lit::Str(_) => QualType::own(Type::varchar()),
                    Lit::Bool(_) => boolean(),
                    Lit::Null => unknown(),
                };
                match expr {
                    Expr::Hole(slot, _) => (qty, Node::Hole(*slot)),
                    _ => (qty, Node::Const(lit_value(l))),
                }
            }
            Expr::Var(name) => self.check_name(name)?,
            Expr::Path(base, attr) => {
                let base = self.check(base)?;
                let (pos, qty) = self.attr(&base.qty, attr)?;
                (qty, Node::Attr(Box::new(base), pos))
            }
            Expr::Index(base, idx) => {
                let base = self.check(base)?;
                let idx = self.check(idx)?;
                if !is_integer(&idx.qty.ty) {
                    return Err(SemaError::TypeMismatch {
                        expected: "integer index".into(),
                        got: self.display(&idx.qty),
                    });
                }
                let qty = match &base.qty.ty {
                    Type::Array(_, elem) => (**elem).clone(),
                    Type::Unknown => unknown(),
                    _ => {
                        return Err(SemaError::TypeMismatch {
                            expected: "an array".into(),
                            got: self.display(&base.qty),
                        })
                    }
                };
                (qty, Node::Index(Box::new(base), Box::new(idx)))
            }
            Expr::Call { recv, name, args } => return self.check_call(recv.as_deref(), name, args),
            Expr::Unary(op, e) => {
                let a = self.check(e)?;
                let t = &a.qty.ty;
                let (fits, expected, qty) = match op {
                    UnOp::Not => (is_boolean(t), "boolean", boolean()),
                    UnOp::Neg if is_integer(t) => (true, "a number", int8()),
                    UnOp::Neg => (is_numeric(t), "a number", float8()),
                };
                if !fits {
                    return Err(SemaError::TypeMismatch {
                        expected: expected.into(),
                        got: self.display(&a.qty),
                    });
                }
                (qty, Node::Unary(*op, Box::new(a)))
            }
            Expr::Binary(op, a, b) => return self.check_binary(*op, a, b),
            Expr::UserOp(sym, args) => {
                let args = args
                    .iter()
                    .map(|a| self.check(a))
                    .collect::<SemaResult<Vec<_>>>()?;
                let recv = args
                    .iter()
                    .find_map(|a| match a.qty.ty {
                        Type::Adt(id) => Some(id),
                        _ => None,
                    })
                    .ok_or_else(|| {
                        SemaError::Function(format!(
                            "operator '{sym}' requires an ADT-typed operand"
                        ))
                    })?;
                return self.adt_call(recv, Callee::Operator(sym), args);
            }
            Expr::Agg(agg) => return self.check_agg(agg),
            Expr::SetLit(items) => {
                let mut elem = unknown();
                let mut out = Vec::with_capacity(items.len());
                for i in items {
                    let t = self.check(i)?;
                    elem = self.unify(&elem, &t.qty)?;
                    out.push(t);
                }
                (QualType::own(Type::Set(Box::new(elem))), Node::SetLit(out))
            }
            Expr::TupleLit(fields) => {
                let mut attrs = Vec::with_capacity(fields.len());
                let mut out = Vec::with_capacity(fields.len());
                for (n, e) in fields {
                    let t = self.check(e)?;
                    attrs.push(extra_model::Attribute {
                        name: n.clone(),
                        qty: t.qty.clone(),
                    });
                    out.push(t);
                }
                (QualType::own(Type::Tuple(attrs)), Node::TupleLit(out))
            }
        };
        Ok(Typed { qty, node })
    }

    /// A bare name: a variable in scope, else a named object.
    fn check_name(&self, name: &str) -> SemaResult<(QualType, Node)> {
        if let Some(qty) = self.vars.get(name) {
            return Ok((qty.clone(), Node::Var(name.into())));
        }
        let obj = self
            .catalog
            .named(name)
            .ok_or_else(|| SemaError::UnknownName(name.into()))?;
        Ok(match obj.qty.ty {
            _ if obj.is_collection => (obj.qty.clone(), Node::NamedSet(obj)),
            // A named schema-type object denotes a reference to it.
            Type::Schema(_) => {
                let qty = if obj.qty.is_object_valued() {
                    obj.qty.clone()
                } else {
                    QualType::reference(obj.qty.ty.clone())
                };
                (qty, Node::NamedRef(obj))
            }
            _ => (obj.qty.clone(), Node::NamedValue(obj)),
        })
    }

    fn check_call(&self, recv: Option<&Expr>, name: &str, args: &[Expr]) -> SemaResult<Typed> {
        // ADT literal constructor: Date("8/29/1988").
        if let (None, Ok(id), [arg]) = (recv, self.adts.lookup(name), args) {
            if let Some(Lit::Str(s)) = self.literal(arg) {
                return Ok(Typed {
                    qty: QualType::own(Type::Adt(id)),
                    node: Node::Const(self.adts.parse(id, s)?),
                });
            }
        }
        // Effective argument list: receiver first (the paper's symmetric
        // syntax makes x.f(y) and f(x, y) identical).
        let all: Vec<&Expr> = recv.into_iter().chain(args).collect();
        let mut first = all.first().map(|e| self.check(e)).transpose()?;
        // ADT function dispatch on the first argument's ADT.
        if let Some(Type::Adt(id)) = first.as_ref().map(|f| &f.qty.ty) {
            let id = *id;
            let mut typed = Vec::from_iter(first);
            for a in &all[1..] {
                typed.push(self.check(a)?);
            }
            return self.adt_call(id, Callee::Function(name), typed);
        }
        // EXCESS function (inherited through the lattice).
        let def = self.resolve_function(name, first.as_ref().map(|f| &f.qty), all.len())?;
        let mut typed = Vec::with_capacity(all.len());
        for (arg, (pname, pty)) in all.iter().zip(&def.params) {
            let got = match first.take() {
                Some(f) => f,
                None => self.check(arg)?,
            };
            // Numeric literals/expressions coerce across widths (the
            // runtime conformance check enforces ranges).
            let numeric_ok = is_numeric(&got.qty.ty)
                && is_numeric(&pty.ty)
                && !(matches!(&pty.ty, Type::Base(b) if b.is_integer())
                    && matches!(&got.qty.ty, Type::Base(b) if b.is_float()));
            if !self.types.assignable(&got.qty.ty, &pty.ty) && !numeric_ok {
                return Err(SemaError::TypeMismatch {
                    expected: format!("{} (parameter '{pname}' of '{name}')", self.display(pty)),
                    got: self.display(&got.qty),
                });
            }
            typed.push(got);
        }
        Ok(Typed {
            qty: def.returns.clone(),
            node: Node::Call {
                def: Box::new(def),
                args: typed,
            },
        })
    }

    fn check_binary(&self, op: BinOp, a: &Expr, b: &Expr) -> SemaResult<Typed> {
        let ta = self.check(a)?;
        let tb = self.check(b)?;
        let (qa, qb) = (&ta.qty, &tb.qty);
        let opname = op.to_string();
        let refs = qa.is_object_valued() || qb.is_object_valued();
        let qty = match op {
            BinOp::Or | BinOp::And => {
                for q in [qa, qb] {
                    if !is_boolean(&q.ty) {
                        return Err(SemaError::TypeMismatch {
                            expected: "boolean".into(),
                            got: self.display(q),
                        });
                    }
                }
                boolean()
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                // ADT operator overload (e.g. Complex +).
                let adt = [qa, qb].into_iter().find_map(|q| match q.ty {
                    Type::Adt(id) => Some(id),
                    _ => None,
                });
                if let Some(id) = adt {
                    return self.adt_call(id, Callee::Operator(&opname), vec![ta, tb]);
                }
                for q in [qa, qb] {
                    if !is_numeric(&q.ty) {
                        return Err(SemaError::TypeMismatch {
                            expected: "a number".into(),
                            got: self.display(q),
                        });
                    }
                }
                if op == BinOp::Mod && (!is_integer(&qa.ty) || !is_integer(&qb.ty)) {
                    return Err(SemaError::TypeMismatch {
                        expected: "integers for %".into(),
                        got: format!("{} % {}", self.display(qa), self.display(qb)),
                    });
                }
                if is_integer(&qa.ty) && is_integer(&qb.ty) {
                    int8()
                } else {
                    float8()
                }
            }
            // "the only comparison operators applicable to references are
            // is/isnot".
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge if refs => {
                return Err(SemaError::RefComparison(opname));
            }
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if !self.eq_comparable(qa, qb) {
                    return Err(SemaError::TypeMismatch {
                        expected: self.display(qa),
                        got: self.display(qb),
                    });
                }
                let ordering = !matches!(op, BinOp::Eq | BinOp::Ne);
                if ordering && (!self.is_ordered(&qa.ty) || !self.is_ordered(&qb.ty)) {
                    return Err(SemaError::TypeMismatch {
                        expected: "an ordered type".into(),
                        got: self.display(qa),
                    });
                }
                boolean()
            }
            BinOp::Is | BinOp::IsNot => {
                for q in [qa, qb] {
                    if !q.is_object_valued() && !matches!(q.ty, Type::Unknown) {
                        return Err(SemaError::IsOnValue(self.display(q)));
                    }
                }
                boolean()
            }
            BinOp::In | BinOp::Contains => {
                let (member, set) = if op == BinOp::In { (qa, qb) } else { (qb, qa) };
                match &set.ty {
                    Type::Set(elem) => {
                        // Identity membership for ref-sets, value for own.
                        if elem.is_object_valued()
                            && !member.is_object_valued()
                            && !matches!(member.ty, Type::Unknown)
                        {
                            return Err(SemaError::TypeMismatch {
                                expected: "a reference (the set holds objects)".into(),
                                got: self.display(member),
                            });
                        }
                        if !elem.is_object_valued() && !self.eq_comparable(member, elem) {
                            return Err(SemaError::TypeMismatch {
                                expected: self.display(elem),
                                got: self.display(member),
                            });
                        }
                        boolean()
                    }
                    Type::Unknown => boolean(),
                    _ => {
                        return Err(SemaError::TypeMismatch {
                            expected: "a set".into(),
                            got: self.display(set),
                        })
                    }
                }
            }
            BinOp::Union | BinOp::Intersect | BinOp::SetMinus => match (&qa.ty, &qb.ty) {
                (Type::Set(ea), Type::Set(eb)) => {
                    QualType::own(Type::Set(Box::new(self.unify(ea, eb)?)))
                }
                (Type::Unknown, _) => qb.clone(),
                (_, Type::Unknown) => qa.clone(),
                _ => {
                    return Err(SemaError::TypeMismatch {
                        expected: "sets".into(),
                        got: format!("{} {opname} {}", self.display(qa), self.display(qb)),
                    })
                }
            },
        };
        Ok(Typed {
            qty,
            node: Node::Binary(op, Box::new(ta), Box::new(tb)),
        })
    }

    /// The ranges an aggregate iterates: its `over` variables plus the
    /// parents they depend on that are not bound outside it (a parent
    /// bound outside correlates the aggregate instead).
    fn over_ranges(&self, agg: &Aggregate) -> SemaResult<Vec<ResolvedRange>> {
        let over: Vec<Expr> = agg.over.iter().map(|v| Expr::Var(v.clone())).collect();
        let exprs: Vec<&Expr> = agg_exprs(agg).chain(&over).collect();
        let bindings = self.bindings_for(&exprs, &[])?;
        let mut keep: HashSet<String> = agg.over.iter().cloned().collect();
        loop {
            let parents: Vec<String> = bindings
                .iter()
                .filter(|b| keep.contains(&b.var))
                .filter_map(|b| b.depends_on())
                .filter(|p| {
                    !keep.contains(*p)
                        && (!self.vars.contains_key(*p) || agg.over.iter().any(|v| v == p))
                })
                .map(String::from)
                .collect();
            if parents.is_empty() {
                break;
            }
            keep.extend(parents);
        }
        let kept: Vec<ResolvedRange> = bindings
            .into_iter()
            .filter(|b| keep.contains(&b.var))
            .collect();
        match agg.over.iter().find(|v| !kept.iter().any(|b| &b.var == *v)) {
            Some(v) => Err(SemaError::Aggregate(format!(
                "'over {v}': no such range variable in scope"
            ))),
            None => Ok(kept),
        }
    }

    fn check_agg(&self, agg: &Aggregate) -> SemaResult<Typed> {
        let over = if agg.over.is_empty() {
            Vec::new()
        } else {
            self.over_ranges(agg)?
        };
        let inner = self.scoped(over.iter().map(|b| (b.var.clone(), b.elem.clone())));
        let by = agg
            .by
            .iter()
            .map(|e| inner.check(e))
            .collect::<SemaResult<Vec<_>>>()?;
        let qual = agg.qual.as_deref().map(|q| inner.check(q)).transpose()?;
        if qual.as_ref().is_some_and(|q| !is_boolean(&q.qty.ty)) {
            return Err(SemaError::Aggregate(
                "aggregate 'where' must be boolean".into(),
            ));
        }
        let arg = agg.arg.as_deref().map(|a| inner.check(a)).transpose()?;
        // Without `over`, the aggregate folds the elements of its
        // set-valued argument, so they are what its function types.
        let arg_ty = arg.as_ref().map(|a| match &a.qty.ty {
            Type::Set(elem) | Type::Array(_, elem) if agg.over.is_empty() => (**elem).clone(),
            _ => a.qty.clone(),
        });
        let needs_arg = || SemaError::Aggregate(format!("{} needs an argument", agg.func));
        let (func, qty) = match agg.func.as_str() {
            "count" => (AggFn::Count, int8()),
            "sum" | "avg" => {
                let at = arg_ty.ok_or_else(needs_arg)?;
                if !is_numeric(&at.ty) {
                    return Err(SemaError::Aggregate(format!(
                        "{} requires a numeric argument, got {}",
                        agg.func,
                        self.display(&at)
                    )));
                }
                match agg.func.as_str() {
                    "avg" => (AggFn::Avg, float8()),
                    _ if is_integer(&at.ty) => (AggFn::Sum, int8()),
                    _ => (AggFn::Sum, float8()),
                }
            }
            "min" | "max" => {
                let at = arg_ty.ok_or_else(needs_arg)?;
                if !self.is_ordered(&at.ty) {
                    return Err(SemaError::Aggregate(format!(
                        "{} requires an ordered argument, got {}",
                        agg.func,
                        self.display(&at)
                    )));
                }
                let func = if agg.func == "min" {
                    AggFn::Min
                } else {
                    AggFn::Max
                };
                (func, at)
            }
            "unique" => {
                let at = arg_ty.ok_or_else(needs_arg)?;
                (AggFn::Unique, QualType::own(Type::Set(Box::new(at))))
            }
            // User-defined set function: a function over a set of the
            // argument type (the E-generic mechanism of §4.3).
            other => {
                let set_of = QualType::own(Type::Set(Box::new(arg_ty.unwrap_or_else(unknown))));
                let def = self.resolve_function(other, Some(&set_of), 1)?;
                let (pname, pty) = &def.params[0];
                if !self.types.assignable(&set_of.ty, &pty.ty) {
                    return Err(SemaError::Aggregate(format!(
                        "set function '{other}' parameter '{pname}' expects {}, got {}",
                        self.display(pty),
                        self.display(&set_of)
                    )));
                }
                let returns = def.returns.clone();
                (AggFn::Set(Box::new(def)), returns)
            }
        };
        if agg.over.is_empty() {
            // Without `over`, the aggregate folds its set-valued argument.
            let set_valued = arg.as_ref().is_some_and(|a| {
                matches!(a.qty.ty, Type::Set(_) | Type::Array(_, _) | Type::Unknown)
            });
            if !set_valued {
                return Err(SemaError::Aggregate(format!(
                    "aggregate '{}' without an 'over' clause needs a set-valued \
                     argument (e.g. count(E.kids))",
                    agg.func
                )));
            }
            if !by.is_empty() || qual.is_some() {
                return Err(SemaError::Aggregate(
                    "'by'/'where' inside an aggregate require an 'over' clause".into(),
                ));
            }
        }
        // Correlated through what it reads, or through a range it iterates
        // that starts from a variable bound outside (`over x` of `x in xs`,
        // `xs` a parameter).
        let correlated = agg_exprs(agg)
            .flat_map(free_names)
            .chain(over.iter().filter_map(|b| b.depends_on().map(String::from)))
            .any(|v| !over.iter().any(|b| b.var == v) && self.vars.contains_key(&v));
        Ok(Typed {
            qty,
            node: Node::Agg(Box::new(TypedAgg {
                func,
                arg,
                over,
                by,
                qual,
                correlated,
            })),
        })
    }
}
