//! Abstract syntax of EXCESS statements and expressions.

/// Ownership qualifier as written in the source (mirrors
/// `extra_model::types::Ownership`; duplicated to keep this crate purely
/// syntactic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// `own` (the default when unwritten).
    #[default]
    Own,
    /// `ref`.
    Ref,
    /// `own ref`.
    OwnRef,
}

/// A syntactic type expression.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeExpr {
    /// A name: base type (`int4`), ADT (`Date`), or schema type
    /// (`Person`). Resolved in sema.
    Named(String),
    /// `char(n)`.
    Char(usize),
    /// `enum(a, b, c)`.
    Enum(Vec<String>),
    /// `{ T }`.
    Set(Box<QualTypeExpr>),
    /// `[n] T` (fixed) or `[] T` (variable).
    Array(Option<usize>, Box<QualTypeExpr>),
    /// Anonymous tuple `( a: T, ... )`.
    Tuple(Vec<AttrDecl>),
}

/// A type expression with an ownership qualifier.
#[derive(Debug, Clone, PartialEq)]
pub struct QualTypeExpr {
    /// Ownership mode.
    pub mode: Mode,
    /// The type.
    pub ty: TypeExpr,
}

/// One attribute declaration: `name : [own|ref|own ref] type`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrDecl {
    /// Attribute name.
    pub name: String,
    /// Qualified type.
    pub qty: QualTypeExpr,
}

/// One `inherits` clause with optional renames.
#[derive(Debug, Clone, PartialEq)]
pub struct InheritClause {
    /// Base type name.
    pub base: String,
    /// `rename old to new` pairs.
    pub renames: Vec<(String, String)>,
}

/// A function/procedure parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// Declared type.
    pub qty: QualTypeExpr,
}

/// A retrieve target: `[name =] expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Target {
    /// Output column name (defaults to a derived name in sema).
    pub name: Option<String>,
    /// The expression.
    pub expr: Expr,
}

/// A `from V in path` binding.
#[derive(Debug, Clone, PartialEq)]
pub struct FromBinding {
    /// The variable.
    pub var: String,
    /// The path it ranges over.
    pub path: Expr,
}

/// Privileges for `grant` / `revoke` (System R / IDM style).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// Read (retrieve).
    Read,
    /// Append members / objects.
    Append,
    /// Delete members / objects.
    Delete,
    /// Replace attribute values.
    Replace,
    /// Execute a function or procedure.
    Execute,
    /// Everything.
    All,
}

/// Built-in binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Object identity (the only comparisons applicable to references).
    Is,
    IsNot,
    /// Set membership / containment.
    In,
    Contains,
    /// Set operators.
    Union,
    Intersect,
    SetMinus,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

/// Built-in unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Not,
    Neg,
}

/// Literal constants.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Lit {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
}

/// An aggregate call: `agg(expr [over V, ...] [by e, ...] [where q])`.
///
/// `over` names the range variables the aggregate consumes (controlling
/// which nesting level it aggregates); `by` partitions; the inner `where`
/// filters the aggregated bindings — the QUEL aggregate forms extended as
/// in the paper (§3.4, rendering SQL-style `unique` clauses unnecessary).
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Function name: count, sum, avg, min, max, unique, or a registered
    /// set function.
    pub func: String,
    /// The aggregated expression (`None` for bare `count(V)`... the
    /// expression still exists — a bare variable — so this is always
    /// `Some` after parsing; kept optional for user-defined 0-ary
    /// set functions).
    pub arg: Option<Box<Expr>>,
    /// Range variables consumed by this aggregate.
    pub over: Vec<String>,
    /// Partitioning expressions.
    pub by: Vec<Expr>,
    /// Inner qualification.
    pub qual: Option<Box<Expr>>,
}

/// An EXCESS expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal constant.
    Lit(Lit),
    /// A literal parsed as a hole of a statement template: slot `.0` of
    /// the statement's literals in source order, holding this
    /// statement's value (see [`crate::parser::parse_template`]).
    Hole(usize, Lit),
    /// Bare identifier: range variable or named database object (resolved
    /// in sema).
    Var(String),
    /// Attribute path step: `e.attr` (implicit joins ride on these).
    Path(Box<Expr>, String),
    /// Array indexing: `e[i]` (1-based).
    Index(Box<Expr>, Box<Expr>),
    /// Function call `f(args)`; with `recv`, method syntax `x.f(args)`.
    /// Covers EXCESS functions, ADT functions (both call syntaxes of
    /// §4.1) and ADT literal constructors (`Date("8/29/1988")`).
    Call {
        /// Receiver for method syntax.
        recv: Option<Box<Expr>>,
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Built-in unary operation.
    Unary(UnOp, Box<Expr>),
    /// Built-in binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Registered (ADT) operator application.
    UserOp(String, Vec<Expr>),
    /// Aggregate.
    Agg(Aggregate),
    /// Set literal `{ e1, e2, ... }`.
    SetLit(Vec<Expr>),
    /// Tuple literal `( a = e1, b = e2 )`.
    TupleLit(Vec<(String, Expr)>),
}

impl Expr {
    /// Helper: `Var(name)`.
    pub fn var(name: &str) -> Expr {
        Expr::Var(name.into())
    }

    /// Give every hole the value of its slot in `lits`.
    pub fn bind_holes(&mut self, lits: &[Lit]) {
        let all = |es: &mut [Expr]| es.iter_mut().for_each(|e| e.bind_holes(lits));
        match self {
            Expr::Hole(slot, lit) => *lit = lits[*slot].clone(),
            Expr::Lit(_) | Expr::Var(_) => {}
            Expr::Path(e, _) | Expr::Unary(_, e) => e.bind_holes(lits),
            Expr::Index(a, b) | Expr::Binary(_, a, b) => {
                a.bind_holes(lits);
                b.bind_holes(lits);
            }
            Expr::Call { recv, args, .. } => {
                recv.iter_mut().for_each(|r| r.bind_holes(lits));
                all(args);
            }
            Expr::UserOp(_, args) | Expr::SetLit(args) => all(args),
            Expr::Agg(a) => {
                a.arg
                    .iter_mut()
                    .chain(&mut a.qual)
                    .for_each(|e| e.bind_holes(lits));
                all(&mut a.by);
            }
            Expr::TupleLit(fields) => fields.iter_mut().for_each(|(_, e)| e.bind_holes(lits)),
        }
    }

    /// Helper: path chain `base.a.b...`.
    pub fn path(base: Expr, steps: &[&str]) -> Expr {
        steps
            .iter()
            .fold(base, |e, s| Expr::Path(Box::new(e), (*s).to_string()))
    }
}

/// The value side of an `append`.
#[derive(Debug, Clone, PartialEq)]
pub enum AppendValue {
    /// `append Employees (name = "x", age = 3)` — attribute assignments.
    Assignments(Vec<(String, Expr)>),
    /// `append Employees E2` / `append TopTen[3] expr` — a whole value.
    Expr(Expr),
}

/// An EXCESS statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `define type Name [inherits ...] ( attrs )`.
    DefineType {
        /// New type name.
        name: String,
        /// Inherits clauses.
        inherits: Vec<InheritClause>,
        /// Attribute declarations.
        attrs: Vec<AttrDecl>,
    },
    /// `create <qual type> <Name> [key (attr)]` — a named persistent
    /// instance. The paper associates key specifications with *set
    /// instances* ("the specification of which will be associated with
    /// set instances"); a key builds a unique index over the member
    /// attribute.
    Create {
        /// The instance's type.
        qty: QualTypeExpr,
        /// Its name.
        name: String,
        /// Key attribute of a set instance, if declared.
        key: Option<String>,
    },
    /// `destroy Name`.
    Destroy {
        /// Named instance to destroy.
        name: String,
    },
    /// `drop type Name`.
    DropType {
        /// The type to drop.
        name: String,
    },
    /// `define function name (params) returns T as retrieve ...`.
    DefineFunction {
        /// Function name.
        name: String,
        /// Parameters (first parameter of a schema type makes the
        /// function invocable with method syntax and inheritable).
        params: Vec<Param>,
        /// Return type.
        returns: QualTypeExpr,
        /// Body (a retrieve).
        body: Box<Stmt>,
    },
    /// `define procedure name (params) as stmt; stmt; ...`.
    DefineProcedure {
        /// Procedure name.
        name: String,
        /// Parameters.
        params: Vec<Param>,
        /// Body statements.
        body: Vec<Stmt>,
    },
    /// `drop function name` / `drop procedure name`.
    DropFunction {
        /// The function's name.
        name: String,
    },
    /// `drop procedure name`.
    DropProcedure {
        /// The procedure's name.
        name: String,
    },
    /// `define [unique] index name on Collection (attr)`.
    DefineIndex {
        /// Index name.
        name: String,
        /// Collection the index covers.
        collection: String,
        /// Attribute path within a member (single attribute).
        attr: String,
        /// Whether the index enforces uniqueness.
        unique: bool,
    },
    /// `range of V is [all] path`.
    RangeOf {
        /// The variable.
        var: String,
        /// Universal quantification (`all`).
        universal: bool,
        /// The path ranged over.
        path: Expr,
    },
    /// `retrieve [into N] (targets) [from ...] [where ...] [order by ...]`.
    Retrieve {
        /// Materialize results into a new named set.
        into: Option<String>,
        /// Target list.
        targets: Vec<Target>,
        /// `from` bindings (query-local ranges).
        from: Vec<FromBinding>,
        /// Qualification.
        qual: Option<Expr>,
        /// Ordering: expression and ascending flag.
        order_by: Option<(Expr, bool)>,
    },
    /// `append [to] path ( assignments | expr ) [where q]`.
    Append {
        /// The set/array being appended to.
        target: Expr,
        /// What to append.
        value: AppendValue,
        /// Qualification (binds range variables used in the target or
        /// value).
        qual: Option<Expr>,
    },
    /// `delete V [where q]`.
    Delete {
        /// Range variable or path naming what to delete.
        target: Expr,
        /// Qualification.
        qual: Option<Expr>,
    },
    /// `replace V (attr = e, ...) [where q]`.
    Replace {
        /// Range variable or path naming what to update.
        target: Expr,
        /// Attribute assignments.
        assignments: Vec<(String, Expr)>,
        /// Qualification.
        qual: Option<Expr>,
    },
    /// `execute proc(args) [where q]` — invoked for *all* satisfying
    /// bindings (the paper's generalization of IDM stored commands).
    Execute {
        /// Procedure name.
        proc: String,
        /// Arguments (may mention range variables bound by the `where`).
        args: Vec<Expr>,
        /// Binding qualification.
        qual: Option<Expr>,
    },
    /// `grant privs on Name to grantee, ...`.
    Grant {
        /// Privileges granted.
        privileges: Vec<Privilege>,
        /// Protected object (named instance, type, function...).
        object: String,
        /// Users/groups receiving the privileges.
        grantees: Vec<String>,
    },
    /// `revoke privs on Name from grantee, ...`.
    Revoke {
        /// Privileges revoked.
        privileges: Vec<Privilege>,
        /// Protected object.
        object: String,
        /// Users/groups losing the privileges.
        grantees: Vec<String>,
    },
    /// `create user name`.
    CreateUser {
        /// The user name.
        name: String,
    },
    /// `create group name`.
    CreateGroup {
        /// The group name.
        name: String,
    },
    /// `add user U to group G`.
    AddToGroup {
        /// The user.
        user: String,
        /// The group.
        group: String,
    },
    /// `explain [analyze] <statement>` — show the plan for the wrapped
    /// statement; with `analyze`, execute it and report per-operator
    /// metrics.
    Explain {
        /// `explain analyze` (execute and profile) vs plain `explain`.
        analyze: bool,
        /// The statement being explained.
        stmt: Box<Stmt>,
    },
    /// `observe <statement>` — execute the wrapped statement and report
    /// the metric activity it caused (wall-clock time plus counter
    /// deltas).
    Observe {
        /// The statement being observed.
        stmt: Box<Stmt>,
    },
    /// `analyze <Collection>` — scan the collection and record optimizer
    /// statistics (row count, distinct counts, equi-depth histograms,
    /// null fractions) in the catalog.
    Analyze {
        /// The collection to analyze.
        collection: String,
    },
    /// `begin` — open an explicit multi-statement transaction. Reads
    /// inside it see a single snapshot plus the transaction's own
    /// writes; writes become visible to others only at `commit`.
    Begin,
    /// `commit` — durably publish the open transaction's writes.
    Commit,
    /// `abort` — discard the open transaction's writes.
    Abort,
}
