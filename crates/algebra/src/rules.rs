//! Rewrite rules: literal constant evaluation and index-predicate
//! extraction — the building blocks the physical planner applies.
//!
//! The rule set follows the EXODUS optimizer-generator philosophy: each
//! rule is a small syntactic transformation justified by algebraic
//! equivalence; the planner composes them.

use excess_lang::{BinOp, Expr, Lit};
use excess_sema::{lit_value, SemaCtx};
use extra_model::Value;

/// Evaluate a literal-constant expression at plan time (literals and ADT
/// literal constructors); `None` if not constant. A hole it reads is
/// recorded as read.
pub fn const_eval(e: &Expr, ctx: &SemaCtx<'_>) -> Option<Value> {
    match e {
        Expr::Lit(_) | Expr::Hole(..) => ctx.literal(e).map(lit_value),
        Expr::Unary(excess_lang::UnOp::Neg, inner) => match const_eval(inner, ctx)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Float(f) => Some(Value::Float(-f)),
            _ => None,
        },
        Expr::Call {
            recv: None,
            name,
            args,
        } if args.len() == 1 => {
            let id = ctx.adts.lookup(name).ok()?;
            match ctx.literal(&args[0])? {
                Lit::Str(s) => ctx.adts.parse(id, s).ok(),
                _ => None,
            }
        }
        _ => None,
    }
}

/// An index-usable comparison extracted from a conjunct:
/// `var.attr op constant`.
#[derive(Debug, Clone)]
pub struct IndexablePred {
    /// The scan variable.
    pub var: String,
    /// The (single-step) attribute compared.
    pub attr: String,
    /// The comparison, normalized so the attribute is on the left.
    pub op: BinOp,
    /// The constant side, as planned.
    pub value: Value,
    /// The hole the constant side is, bound per execution: a bare hole's
    /// value decides nothing at plan time, so it is not read.
    pub hole: Option<usize>,
}

/// Try to view a conjunct as an index-usable predicate for `var`.
pub fn indexable_pred(c: &Expr, var: &str, ctx: &SemaCtx<'_>) -> Option<IndexablePred> {
    let Expr::Binary(op, lhs, rhs) = c else {
        return None;
    };
    let flip = |op: BinOp| match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    };
    let as_attr = |e: &Expr| -> Option<String> {
        match e {
            Expr::Path(base, attr) => match &**base {
                Expr::Var(v) if v == var => Some(attr.clone()),
                _ => None,
            },
            _ => None,
        }
    };
    if !matches!(
        op,
        BinOp::Eq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
    ) {
        return None;
    }
    let constant = |e: &Expr| match e {
        Expr::Hole(slot, l) => Some((lit_value(l), Some(*slot))),
        _ => Some((const_eval(e, ctx)?, None)),
    };
    for (attr_side, const_side, op) in [(lhs, rhs, *op), (rhs, lhs, flip(*op))] {
        let Some(attr) = as_attr(attr_side) else {
            continue;
        };
        if let Some((value, hole)) = constant(const_side) {
            return Some(IndexablePred {
                var: var.into(),
                attr,
                op,
                value,
                hole,
            });
        }
    }
    None
}
