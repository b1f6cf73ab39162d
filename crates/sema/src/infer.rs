//! Expression type inference and checking.

use std::collections::HashMap;

use excess_lang::{Aggregate, BinOp, Expr, Lit, UnOp};
use extra_model::adt::AdtReturn;
use extra_model::{AdtRegistry, BaseType, Ownership, QualType, Type, TypeRegistry};

use crate::catalog::{CatalogLookup, FunctionDef};
use crate::error::{SemaError, SemaResult};

/// The analysis context: registries, catalog, and the variables in scope.
pub struct SemaCtx<'a> {
    /// Schema types.
    pub types: &'a TypeRegistry,
    /// ADTs.
    pub adts: &'a AdtRegistry,
    /// Named objects, functions, procedures, indexes.
    pub catalog: &'a dyn CatalogLookup,
    /// Range variables and parameters in scope.
    pub vars: HashMap<String, QualType>,
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

impl<'a> SemaCtx<'a> {
    /// Build a context with no variables in scope.
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
        }
    }

    /// Whether values of this type are references at runtime.
    pub fn is_ref_valued(&self, qty: &QualType) -> bool {
        qty.mode != Ownership::Own
    }

    fn display(&self, qty: &QualType) -> String {
        self.types.display_qual(qty)
    }

    /// Attribute access through a tuple-structured type, stepping through
    /// references transparently (the uniform treatment of §2.2).
    pub fn attr_type(&self, base: &QualType, attr: &str) -> SemaResult<QualType> {
        match &base.ty {
            Type::Schema(tid) => {
                let st = self.types.get(*tid);
                st.attribute(attr)
                    .map(|(_, a)| a.qty.clone())
                    .ok_or_else(|| SemaError::UnknownAttribute {
                        ty: st.name.clone(),
                        attr: attr.into(),
                    })
            }
            Type::Tuple(attrs) => attrs
                .iter()
                .find(|a| a.name == attr)
                .map(|a| a.qty.clone())
                .ok_or_else(|| SemaError::UnknownAttribute {
                    ty: self.display(base),
                    attr: attr.into(),
                }),
            Type::Unknown => Ok(unknown()),
            Type::Set(_) | Type::Array(_, _) => Err(SemaError::Other(format!(
                "cannot take attribute '{attr}' of a collection; \
                 bind a range variable over it first"
            ))),
            _ => Err(SemaError::UnknownAttribute {
                ty: self.display(base),
                attr: attr.into(),
            }),
        }
    }

    /// Position of an attribute in its tuple (for the evaluator).
    pub fn attr_pos(&self, base: &QualType, attr: &str) -> SemaResult<usize> {
        match &base.ty {
            Type::Schema(tid) => {
                let st = self.types.get(*tid);
                st.attribute(attr)
                    .map(|(i, _)| i)
                    .ok_or_else(|| SemaError::UnknownAttribute {
                        ty: st.name.clone(),
                        attr: attr.into(),
                    })
            }
            Type::Tuple(attrs) => attrs.iter().position(|a| a.name == attr).ok_or_else(|| {
                SemaError::UnknownAttribute {
                    ty: self.display(base),
                    attr: attr.into(),
                }
            }),
            other => Err(SemaError::UnknownAttribute {
                ty: self.types.display_type(other),
                attr: attr.into(),
            }),
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

    fn adt_result(&self, ret: AdtReturn, recv: extra_model::AdtId) -> QualType {
        match ret {
            AdtReturn::SameAdt => QualType::own(Type::Adt(recv)),
            AdtReturn::Int => int8(),
            AdtReturn::Float => float8(),
            AdtReturn::Bool => boolean(),
            AdtReturn::Varchar => QualType::own(Type::varchar()),
        }
    }

    /// Resolve the most specific EXCESS function named `name` applicable to
    /// a first argument of type `first`.
    pub fn resolve_excess_function(
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

    /// Infer an expression's type, raising semantic errors.
    pub fn infer(&self, expr: &Expr) -> SemaResult<QualType> {
        match expr {
            Expr::Lit(l) => Ok(match l {
                Lit::Int(_) => int8(),
                Lit::Float(_) => float8(),
                Lit::Str(_) => QualType::own(Type::varchar()),
                Lit::Bool(_) => boolean(),
                Lit::Null => unknown(),
            }),
            Expr::Var(name) => {
                if let Some(qty) = self.vars.get(name) {
                    return Ok(qty.clone());
                }
                if let Some(obj) = self.catalog.named(name) {
                    // A named schema-type object denotes a reference to it.
                    if matches!(obj.qty.ty, Type::Schema(_)) && obj.qty.mode == Ownership::Own {
                        return Ok(QualType::reference(obj.qty.ty));
                    }
                    return Ok(obj.qty);
                }
                Err(SemaError::UnknownName(name.clone()))
            }
            Expr::Path(base, attr) => {
                let bq = self.infer(base)?;
                self.attr_type(&bq, attr)
            }
            Expr::Index(base, idx) => {
                let bq = self.infer(base)?;
                let iq = self.infer(idx)?;
                if !is_integer(&iq.ty) {
                    return Err(SemaError::TypeMismatch {
                        expected: "integer index".into(),
                        got: self.display(&iq),
                    });
                }
                match &bq.ty {
                    Type::Array(_, elem) => Ok((**elem).clone()),
                    Type::Unknown => Ok(unknown()),
                    _ => Err(SemaError::TypeMismatch {
                        expected: "an array".into(),
                        got: self.display(&bq),
                    }),
                }
            }
            Expr::Call { recv, name, args } => self.infer_call(recv.as_deref(), name, args),
            Expr::Unary(UnOp::Not, e) => {
                let q = self.infer(e)?;
                if !matches!(q.ty, Type::Base(BaseType::Boolean) | Type::Unknown) {
                    return Err(SemaError::TypeMismatch {
                        expected: "boolean".into(),
                        got: self.display(&q),
                    });
                }
                Ok(boolean())
            }
            Expr::Unary(UnOp::Neg, e) => {
                let q = self.infer(e)?;
                if !is_numeric(&q.ty) {
                    return Err(SemaError::TypeMismatch {
                        expected: "a number".into(),
                        got: self.display(&q),
                    });
                }
                Ok(if is_integer(&q.ty) { int8() } else { float8() })
            }
            Expr::Binary(op, a, b) => self.infer_binary(*op, a, b),
            Expr::UserOp(sym, args) => {
                let mut recv = None;
                for a in args {
                    if let Type::Adt(id) = self.infer(a)?.ty {
                        recv = Some(id);
                        break;
                    }
                }
                let recv = recv.ok_or_else(|| {
                    SemaError::Function(format!("operator '{sym}' requires an ADT-typed operand"))
                })?;
                let adt = self.adts.get(recv)?.name();
                let cand = self
                    .adts
                    .operator_candidates(sym)
                    .iter()
                    .find(|(id, op)| *id == recv && op.arity == args.len())
                    .ok_or_else(|| {
                        SemaError::Function(format!("operator '{sym}' is not defined for {adt}"))
                    })?;
                let f = self.adts.function(recv, &cand.1.function)?;
                Ok(self.adt_result(f.returns, recv))
            }
            Expr::Agg(agg) => self.infer_aggregate(agg),
            Expr::SetLit(items) => {
                let mut elem = unknown();
                for i in items {
                    let q = self.infer(i)?;
                    elem = self.unify(&elem, &q)?;
                }
                Ok(QualType::own(Type::Set(Box::new(elem))))
            }
            Expr::TupleLit(fields) => {
                let mut attrs = Vec::with_capacity(fields.len());
                for (n, e) in fields {
                    attrs.push(extra_model::Attribute {
                        name: n.clone(),
                        qty: self.infer(e)?,
                    });
                }
                Ok(QualType::own(Type::Tuple(attrs)))
            }
        }
    }

    fn infer_call(&self, recv: Option<&Expr>, name: &str, args: &[Expr]) -> SemaResult<QualType> {
        // ADT literal constructor: Date("8/29/1988").
        if recv.is_none() && self.adts.contains(name) && args.len() == 1 {
            if let Expr::Lit(Lit::Str(_)) = &args[0] {
                return Ok(QualType::own(Type::Adt(self.adts.lookup(name)?)));
            }
        }
        // Effective argument list: receiver first (the paper's symmetric
        // syntax makes x.f(y) and f(x, y) identical).
        let mut all: Vec<&Expr> = Vec::with_capacity(args.len() + 1);
        if let Some(r) = recv {
            all.push(r);
        }
        all.extend(args.iter());
        let first_ty = all.first().map(|e| self.infer(e)).transpose()?;
        // ADT function dispatch on the first argument's ADT.
        if let Some(QualType {
            ty: Type::Adt(id), ..
        }) = &first_ty
        {
            let adt = self.adts.get(*id)?.name();
            let f = self.adts.function(*id, name).map_err(|_| {
                SemaError::Function(format!("ADT '{adt}' has no function '{name}'"))
            })?;
            if f.arity != all.len() {
                return Err(SemaError::Function(format!(
                    "'{name}' takes {} arguments, got {}",
                    f.arity,
                    all.len()
                )));
            }
            // Remaining args only need to be inferable.
            for a in &all[1..] {
                self.infer(a)?;
            }
            return Ok(self.adt_result(f.returns, *id));
        }
        // EXCESS function (inherited through the lattice).
        let def = self.resolve_excess_function(name, first_ty.as_ref(), all.len())?;
        for (arg, (pname, pty)) in all.iter().zip(def.params.iter()) {
            let got = self.infer(arg)?;
            // Numeric literals/expressions coerce across widths (the
            // runtime conformance check enforces ranges).
            let numeric_ok = is_numeric(&got.ty)
                && is_numeric(&pty.ty)
                && !(matches!(&pty.ty, Type::Base(b) if b.is_integer())
                    && matches!(&got.ty, Type::Base(b) if b.is_float()));
            if !self.types.assignable(&got.ty, &pty.ty) && !numeric_ok {
                return Err(SemaError::TypeMismatch {
                    expected: format!("{} (parameter '{pname}' of '{name}')", self.display(pty)),
                    got: self.display(&got),
                });
            }
        }
        Ok(def.returns)
    }

    fn infer_binary(&self, op: BinOp, a: &Expr, b: &Expr) -> SemaResult<QualType> {
        let qa = self.infer(a)?;
        let qb = self.infer(b)?;
        let opname = op.to_string();
        match op {
            BinOp::Or | BinOp::And => {
                for q in [&qa, &qb] {
                    if !matches!(q.ty, Type::Base(BaseType::Boolean) | Type::Unknown) {
                        return Err(SemaError::TypeMismatch {
                            expected: "boolean".into(),
                            got: self.display(q),
                        });
                    }
                }
                Ok(boolean())
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                // ADT operator overload (e.g. Complex +).
                for q in [&qa, &qb] {
                    if let Type::Adt(id) = q.ty {
                        let adt = self.adts.get(id)?.name();
                        let cand = self
                            .adts
                            .operator_candidates(&opname)
                            .iter()
                            .find(|(cid, o)| *cid == id && o.arity == 2);
                        return match cand {
                            Some((_, o)) => {
                                let f = self.adts.function(id, &o.function)?;
                                Ok(self.adt_result(f.returns, id))
                            }
                            None => Err(SemaError::Function(format!(
                                "operator '{opname}' is not defined for {adt}"
                            ))),
                        };
                    }
                }
                for q in [&qa, &qb] {
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
                        got: format!("{} % {}", self.display(&qa), self.display(&qb)),
                    });
                }
                Ok(if is_integer(&qa.ty) && is_integer(&qb.ty) {
                    int8()
                } else {
                    float8()
                })
            }
            BinOp::Eq | BinOp::Ne => {
                // "the only comparison operators applicable to references
                // are is/isnot".
                if self.is_ref_valued(&qa) || self.is_ref_valued(&qb) {
                    return Err(SemaError::RefComparison(opname));
                }
                if !self.eq_comparable(&qa, &qb) {
                    return Err(SemaError::TypeMismatch {
                        expected: self.display(&qa),
                        got: self.display(&qb),
                    });
                }
                Ok(boolean())
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                if self.is_ref_valued(&qa) || self.is_ref_valued(&qb) {
                    return Err(SemaError::RefComparison(opname));
                }
                if !self.eq_comparable(&qa, &qb) {
                    return Err(SemaError::TypeMismatch {
                        expected: self.display(&qa),
                        got: self.display(&qb),
                    });
                }
                if !self.is_ordered(&qa.ty) || !self.is_ordered(&qb.ty) {
                    return Err(SemaError::TypeMismatch {
                        expected: "an ordered type".into(),
                        got: self.display(&qa),
                    });
                }
                Ok(boolean())
            }
            BinOp::Is | BinOp::IsNot => {
                for q in [&qa, &qb] {
                    if !self.is_ref_valued(q) && !matches!(q.ty, Type::Unknown) {
                        return Err(SemaError::IsOnValue(self.display(q)));
                    }
                }
                Ok(boolean())
            }
            BinOp::In | BinOp::Contains => {
                let (member, set) = if op == BinOp::In {
                    (&qa, &qb)
                } else {
                    (&qb, &qa)
                };
                match &set.ty {
                    Type::Set(elem) => {
                        // Identity membership for ref-sets, value for own.
                        if elem.mode != Ownership::Own
                            && !self.is_ref_valued(member)
                            && !matches!(member.ty, Type::Unknown)
                        {
                            return Err(SemaError::TypeMismatch {
                                expected: "a reference (the set holds objects)".into(),
                                got: self.display(member),
                            });
                        }
                        if elem.mode == Ownership::Own && !self.eq_comparable(member, elem) {
                            return Err(SemaError::TypeMismatch {
                                expected: self.display(elem),
                                got: self.display(member),
                            });
                        }
                        Ok(boolean())
                    }
                    Type::Unknown => Ok(boolean()),
                    _ => Err(SemaError::TypeMismatch {
                        expected: "a set".into(),
                        got: self.display(set),
                    }),
                }
            }
            BinOp::Union | BinOp::Intersect | BinOp::SetMinus => match (&qa.ty, &qb.ty) {
                (Type::Set(ea), Type::Set(eb)) => {
                    let elem = self.unify(ea, eb)?;
                    Ok(QualType::own(Type::Set(Box::new(elem))))
                }
                (Type::Unknown, _) => Ok(qb),
                (_, Type::Unknown) => Ok(qa),
                _ => Err(SemaError::TypeMismatch {
                    expected: "sets".into(),
                    got: format!("{} {opname} {}", self.display(&qa), self.display(&qb)),
                }),
            },
        }
    }

    fn infer_aggregate(&self, agg: &Aggregate) -> SemaResult<QualType> {
        // `over` names must be visible range variables.
        for v in &agg.over {
            if !self.vars.contains_key(v) {
                return Err(SemaError::Aggregate(format!(
                    "'over {v}': no such range variable in scope"
                )));
            }
        }
        for e in &agg.by {
            self.infer(e)?;
        }
        if let Some(q) = &agg.qual {
            let qt = self.infer(q)?;
            if !matches!(qt.ty, Type::Base(BaseType::Boolean) | Type::Unknown) {
                return Err(SemaError::Aggregate(
                    "aggregate 'where' must be boolean".into(),
                ));
            }
        }
        let arg_ty = agg.arg.as_ref().map(|a| self.infer(a)).transpose()?;
        match agg.func.as_str() {
            "count" => Ok(int8()),
            "sum" | "avg" => {
                let at = arg_ty.ok_or_else(|| {
                    SemaError::Aggregate(format!("{} needs an argument", agg.func))
                })?;
                if !is_numeric(&at.ty) {
                    return Err(SemaError::Aggregate(format!(
                        "{} requires a numeric argument, got {}",
                        agg.func,
                        self.display(&at)
                    )));
                }
                if agg.func == "avg" {
                    Ok(float8())
                } else {
                    Ok(if is_integer(&at.ty) { int8() } else { float8() })
                }
            }
            "min" | "max" => {
                let at = arg_ty.ok_or_else(|| {
                    SemaError::Aggregate(format!("{} needs an argument", agg.func))
                })?;
                if !self.is_ordered(&at.ty) {
                    return Err(SemaError::Aggregate(format!(
                        "{} requires an ordered argument, got {}",
                        agg.func,
                        self.display(&at)
                    )));
                }
                Ok(at)
            }
            "unique" => {
                let at = arg_ty
                    .ok_or_else(|| SemaError::Aggregate("unique needs an argument".into()))?;
                Ok(QualType::own(Type::Set(Box::new(at))))
            }
            // User-defined set function: a function over a set of the
            // argument type (the E-generic mechanism of §4.3).
            other => {
                let at = arg_ty.unwrap_or_else(unknown);
                let set_of = QualType::own(Type::Set(Box::new(at)));
                let def = self.resolve_excess_function(other, Some(&set_of), 1)?;
                let (pname, pty) = &def.params[0];
                if !self.types.assignable(&set_of.ty, &pty.ty) {
                    return Err(SemaError::Aggregate(format!(
                        "set function '{other}' parameter '{pname}' expects {}, got {}",
                        self.display(pty),
                        self.display(&set_of)
                    )));
                }
                Ok(def.returns)
            }
        }
    }
}
