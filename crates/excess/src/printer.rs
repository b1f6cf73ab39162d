//! Pretty-printer: renders the AST back to EXCESS source.
//!
//! Expressions print fully parenthesized, so re-parsing a printed tree
//! yields the same AST regardless of operator table contents (round-trip
//! property tested in the parser tests).

use std::fmt;

use crate::ast::*;

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Own => Ok(()),
            Mode::Ref => write!(f, "ref "),
            Mode::OwnRef => write!(f, "own ref "),
        }
    }
}

impl fmt::Display for TypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeExpr::Named(n) => write!(f, "{n}"),
            TypeExpr::Char(n) => write!(f, "char({n})"),
            TypeExpr::Enum(syms) => write!(f, "enum({})", syms.join(", ")),
            TypeExpr::Set(e) => write!(f, "{{ {e} }}"),
            TypeExpr::Array(Some(n), e) => write!(f, "[{n}] {e}"),
            TypeExpr::Array(None, e) => write!(f, "[] {e}"),
            TypeExpr::Tuple(attrs) => {
                write!(f, "(")?;
                for (i, a) in attrs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for QualTypeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.mode, self.ty)
    }
}

impl fmt::Display for AttrDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.qty)
    }
}

impl fmt::Display for Privilege {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Privilege::Read => "read",
            Privilege::Append => "append",
            Privilege::Delete => "delete",
            Privilege::Replace => "replace",
            Privilege::Execute => "execute",
            Privilege::All => "all",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Eq => "=",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Is => "is",
            BinOp::IsNot => "isnot",
            BinOp::In => "in",
            BinOp::Contains => "contains",
            BinOp::Union => "union",
            BinOp::Intersect => "intersect",
            BinOp::SetMinus => "minus",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lit::Int(i) => write!(f, "{i}"),
            Lit::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Lit::Str(s) => write!(f, "\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            Lit::Bool(b) => write!(f, "{b}"),
            Lit::Null => write!(f, "null"),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(l) | Expr::Hole(_, l) => write!(f, "{l}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Path(base, attr) => write!(f, "{base}.{attr}"),
            Expr::Index(base, idx) => write!(f, "{base}[{idx}]"),
            Expr::Call {
                recv: Some(r),
                name,
                args,
            } => {
                write!(f, "{r}.{name}({})", comma(args))
            }
            Expr::Call {
                recv: None,
                name,
                args,
            } => write!(f, "{name}({})", comma(args)),
            Expr::Unary(UnOp::Not, e) => write!(f, "(not {e})"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "(-{e})"),
            Expr::Binary(op, a, b) => write!(f, "({a} {op} {b})"),
            Expr::UserOp(sym, args) => match args.len() {
                1 => write!(f, "({sym}{})", args[0]),
                2 => write!(f, "({} {sym} {})", args[0], args[1]),
                _ => write!(f, "{sym}({})", comma(args)),
            },
            Expr::Agg(a) => write!(f, "{a}"),
            Expr::SetLit(items) => write!(f, "{{{}}}", comma(items)),
            Expr::TupleLit(fields) => {
                write!(f, "(")?;
                for (i, (n, e)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n} = {e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Aggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func)?;
        if let Some(a) = &self.arg {
            write!(f, "{a}")?;
        }
        if !self.over.is_empty() {
            write!(f, " over {}", self.over.join(", "))?;
        }
        if !self.by.is_empty() {
            write!(f, " by {}", comma(&self.by))?;
        }
        if let Some(q) = &self.qual {
            write!(f, " where {q}")?;
        }
        write!(f, ")")
    }
}

fn comma<T: fmt::Display>(items: &[T]) -> String {
    items
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::DefineType {
                name,
                inherits,
                attrs,
            } => {
                write!(f, "define type {name}")?;
                if !inherits.is_empty() {
                    write!(f, " inherits ")?;
                    for (i, c) in inherits.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{}", c.base)?;
                        for (old, new) in &c.renames {
                            write!(f, " rename {old} to {new}")?;
                        }
                    }
                }
                write!(f, " ({})", comma(attrs))
            }
            Stmt::Create { qty, name, key } => {
                write!(f, "create {qty} {name}")?;
                if let Some(k) = key {
                    write!(f, " key ({k})")?;
                }
                Ok(())
            }
            Stmt::Destroy { name } => write!(f, "destroy {name}"),
            Stmt::DropType { name } => write!(f, "drop type {name}"),
            Stmt::DefineFunction {
                name,
                params,
                returns,
                body,
            } => {
                write!(
                    f,
                    "define function {name} ({}) returns {returns} as {body}",
                    comma_params(params)
                )
            }
            Stmt::DefineProcedure { name, params, body } => {
                write!(f, "define procedure {name} ({}) as ", comma_params(params))?;
                for (i, s) in body.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, " end")
            }
            Stmt::DropFunction { name } => write!(f, "drop function {name}"),
            Stmt::DropProcedure { name } => write!(f, "drop procedure {name}"),
            Stmt::DefineIndex {
                name,
                collection,
                attr,
                unique,
            } => {
                write!(
                    f,
                    "define {}index {name} on {collection} ({attr})",
                    if *unique { "unique " } else { "" }
                )
            }
            Stmt::RangeOf {
                var,
                universal,
                path,
            } => {
                write!(
                    f,
                    "range of {var} is {}{path}",
                    if *universal { "all " } else { "" }
                )
            }
            Stmt::Retrieve {
                into,
                targets,
                from,
                qual,
                order_by,
            } => {
                write!(f, "retrieve")?;
                if let Some(n) = into {
                    write!(f, " into {n}")?;
                }
                write!(f, " (")?;
                for (i, t) in targets.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    if let Some(n) = &t.name {
                        write!(f, "{n} = ")?;
                    }
                    write!(f, "{}", t.expr)?;
                }
                write!(f, ")")?;
                if !from.is_empty() {
                    write!(f, " from ")?;
                    for (i, b) in from.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{} in {}", b.var, b.path)?;
                    }
                }
                if let Some(q) = qual {
                    write!(f, " where {q}")?;
                }
                if let Some((e, asc)) = order_by {
                    write!(f, " order by {e} {}", if *asc { "asc" } else { "desc" })?;
                }
                Ok(())
            }
            Stmt::Append {
                target,
                value,
                qual,
            } => {
                write!(f, "append to {target} ")?;
                match value {
                    AppendValue::Assignments(assigns) => {
                        write!(f, "(")?;
                        for (i, (n, e)) in assigns.iter().enumerate() {
                            if i > 0 {
                                write!(f, ", ")?;
                            }
                            write!(f, "{n} = {e}")?;
                        }
                        write!(f, ")")?;
                    }
                    AppendValue::Expr(e) => write!(f, "{e}")?,
                }
                if let Some(q) = qual {
                    write!(f, " where {q}")?;
                }
                Ok(())
            }
            Stmt::Delete { target, qual } => {
                write!(f, "delete {target}")?;
                if let Some(q) = qual {
                    write!(f, " where {q}")?;
                }
                Ok(())
            }
            Stmt::Replace {
                target,
                assignments,
                qual,
            } => {
                write!(f, "replace {target} (")?;
                for (i, (n, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n} = {e}")?;
                }
                write!(f, ")")?;
                if let Some(q) = qual {
                    write!(f, " where {q}")?;
                }
                Ok(())
            }
            Stmt::Execute { proc, args, qual } => {
                write!(f, "execute {proc}({})", comma(args))?;
                if let Some(q) = qual {
                    write!(f, " where {q}")?;
                }
                Ok(())
            }
            Stmt::Grant {
                privileges,
                object,
                grantees,
            } => {
                write!(
                    f,
                    "grant {} on {object} to {}",
                    comma(privileges),
                    grantees.join(", ")
                )
            }
            Stmt::Revoke {
                privileges,
                object,
                grantees,
            } => {
                write!(
                    f,
                    "revoke {} on {object} from {}",
                    comma(privileges),
                    grantees.join(", ")
                )
            }
            Stmt::CreateUser { name } => write!(f, "create user {name}"),
            Stmt::CreateGroup { name } => write!(f, "create group {name}"),
            Stmt::AddToGroup { user, group } => write!(f, "add user {user} to group {group}"),
            Stmt::Explain { analyze, stmt } => {
                write!(
                    f,
                    "explain {}{stmt}",
                    if *analyze { "analyze " } else { "" }
                )
            }
            Stmt::Observe { stmt } => write!(f, "observe {stmt}"),
            Stmt::Analyze { collection } => write!(f, "analyze {collection}"),
            Stmt::Begin => write!(f, "begin"),
            Stmt::Commit => write!(f, "commit"),
            Stmt::Abort => write!(f, "abort"),
        }
    }
}

fn comma_params(params: &[Param]) -> String {
    params
        .iter()
        .map(|p| format!("{}: {}", p.name, p.qty))
        .collect::<Vec<_>>()
        .join(", ")
}
