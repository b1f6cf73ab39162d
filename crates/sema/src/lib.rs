//! # excess-sema
//!
//! Semantic analysis for EXCESS: name resolution, type checking, range
//! resolution, and function/procedure signature checking.
//!
//! A statement is typed once: [`SemaCtx::check_retrieve`] returns each
//! expression as a [`Checked`] pair — the source beside its resolved
//! [`Typed`] tree — which the planner and the executor's compiler take
//! as given. The analyzer enforces the paper's semantic rules:
//!
//! * **Uniform own/ref/own-ref treatment**: attribute paths step through
//!   references transparently (`E.dept.floor` works whether `dept` is
//!   `own`, `ref`, or `own ref`) — "casual users can ignore the
//!   distinction".
//! * **References compare only with `is`/`isnot`** ("these are the only
//!   comparison operators applicable to references"); value comparisons
//!   on references are rejected.
//! * **Range resolution**: a range variable may range over a named set, a
//!   nested-set path (`Employees.kids` — iterating employees implicitly),
//!   or another variable's set-valued attribute (`E.kids`), yielding
//!   dependent bindings; `all` marks universal quantification.
//! * **Aggregate scoping**: `over` must name range variables; the
//!   aggregate consumes them (they do not escape), iterates them with the
//!   parents not bound outside it, and correlates through the rest; `by`
//!   partitions.
//! * **Function resolution through the type lattice**: an EXCESS function
//!   defined for `Person` applies to `Employee` receivers; the most
//!   specific applicable definition wins. ADT functions resolve by the
//!   receiver's ADT in both call syntaxes (`x.Add(y)` / `Add(x, y)`) and
//!   through registered operators, all by one dispatch.

#![deny(rustdoc::broken_intra_doc_links)]
pub mod catalog;
pub mod check;
pub mod error;
pub mod lower;
pub mod resolve;

pub use catalog::{
    AttrStats, CatalogLookup, CollectionStats, FunctionDef, IndexInfo, NamedObject, ProcedureDef,
    StatOp, SystemViewDef, HISTOGRAM_BUCKETS,
};
pub use check::{lit_value, AggFn, Checked, Node, Reads, SemaCtx, Typed, TypedAgg};
pub use error::{SemaError, SemaResult};
pub use resolve::{CheckedRetrieve, RangeEnv, ResolvedRange, RootSource};

/// Validate a procedure body at definition time: transaction control
/// (`begin` / `commit` / `abort`) is session-level and may not be
/// captured inside a procedure — a stored `commit` would publish a
/// transaction the calling session still believes is open. Recurses
/// into `explain` / `observe` wrappers.
pub fn validate_procedure_body(body: &[excess_lang::Stmt]) -> SemaResult<()> {
    use excess_lang::Stmt;
    fn check(stmt: &Stmt) -> SemaResult<()> {
        match stmt {
            Stmt::Begin | Stmt::Commit | Stmt::Abort => Err(SemaError::Other(format!(
                "'{stmt}' cannot appear in a procedure body; transaction control \
                 belongs to the session"
            ))),
            Stmt::Explain { stmt, .. } | Stmt::Observe { stmt } => check(stmt),
            _ => Ok(()),
        }
    }
    body.iter().try_for_each(check)
}
