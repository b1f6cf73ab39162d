//! Rewrite rules: literal constant evaluation and index-predicate
//! extraction — the building blocks the physical planner applies.
//!
//! The rule set follows the EXODUS optimizer-generator philosophy: each
//! rule is a small syntactic transformation justified by algebraic
//! equivalence; the planner composes them.

use excess_lang::{BinOp, Expr, Lit};
use extra_model::{AdtRegistry, Value};

/// Evaluate a literal-constant expression at plan time (literals and ADT
/// literal constructors); `None` if not constant.
pub fn const_eval(e: &Expr, adts: &AdtRegistry) -> Option<Value> {
    match e {
        Expr::Lit(Lit::Int(i)) => Some(Value::Int(*i)),
        Expr::Lit(Lit::Float(f)) => Some(Value::Float(*f)),
        Expr::Lit(Lit::Str(s)) => Some(Value::Str(s.clone())),
        Expr::Lit(Lit::Bool(b)) => Some(Value::Bool(*b)),
        Expr::Lit(Lit::Null) => Some(Value::Null),
        Expr::Unary(excess_lang::UnOp::Neg, inner) => match const_eval(inner, adts)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Float(f) => Some(Value::Float(-f)),
            _ => None,
        },
        Expr::Call {
            recv: None,
            name,
            args,
        } if args.len() == 1 => {
            let id = adts.lookup(name).ok()?;
            match &args[0] {
                Expr::Lit(Lit::Str(s)) => adts.parse(id, s).ok(),
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
    /// The constant side.
    pub value: Value,
}

/// Try to view a conjunct as an index-usable predicate for `var`.
pub fn indexable_pred(c: &Expr, var: &str, adts: &AdtRegistry) -> Option<IndexablePred> {
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
    if let (Some(attr), Some(value)) = (as_attr(lhs), const_eval(rhs, adts)) {
        return Some(IndexablePred {
            var: var.into(),
            attr,
            op: *op,
            value,
        });
    }
    if let (Some(attr), Some(value)) = (as_attr(rhs), const_eval(lhs, adts)) {
        return Some(IndexablePred {
            var: var.into(),
            attr,
            op: flip(*op),
            value,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use excess_lang::{parse_statement, OperatorTable, Stmt};

    fn qual(src: &str) -> Expr {
        match parse_statement(&format!("retrieve (x) where {src}"), &OperatorTable::new()).unwrap()
        {
            Stmt::Retrieve { qual: Some(q), .. } => q,
            _ => unreachable!(),
        }
    }

    #[test]
    fn const_eval_literals_and_adts() {
        let adts = AdtRegistry::with_builtins();
        assert_eq!(const_eval(&qual("x = 3").clone(), &adts), None);
        let three = Expr::Lit(Lit::Int(3));
        assert_eq!(const_eval(&three, &adts), Some(Value::Int(3)));
        let neg = Expr::Unary(excess_lang::UnOp::Neg, Box::new(three));
        assert_eq!(const_eval(&neg, &adts), Some(Value::Int(-3)));
        let date = Expr::Call {
            recv: None,
            name: "Date".into(),
            args: vec![Expr::Lit(Lit::Str("1/2/1987".into()))],
        };
        assert!(matches!(const_eval(&date, &adts), Some(Value::Adt(_, _))));
    }

    #[test]
    fn indexable_pred_extraction() {
        let adts = AdtRegistry::with_builtins();
        let p = indexable_pred(&qual("E.age >= 30"), "E", &adts).unwrap();
        assert_eq!(p.attr, "age");
        assert_eq!(p.op, BinOp::Ge);
        assert_eq!(p.value, Value::Int(30));
        // Flipped side normalizes.
        let p = indexable_pred(&qual("30 > E.age"), "E", &adts).unwrap();
        assert_eq!(p.op, BinOp::Lt);
        // Wrong variable.
        assert!(indexable_pred(&qual("D.age = 30"), "E", &adts).is_none());
        // Non-constant side.
        assert!(indexable_pred(&qual("E.age = D.age"), "E", &adts).is_none());
        // Deep path is not single-attribute indexable.
        assert!(indexable_pred(&qual("E.dept.floor = 2"), "E", &adts).is_none());
        // ADT constant.
        let p = indexable_pred(&qual("E.birthday < Date(\"1/1/1960\")"), "E", &adts).unwrap();
        assert!(matches!(p.value, Value::Adt(_, _)));
    }
}
