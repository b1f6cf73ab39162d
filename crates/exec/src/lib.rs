//! # excess-exec
//!
//! Query execution for EXCESS: compiled expressions, a bindings-based
//! evaluator, and a batched (vectorized) plan runner — operators exchange
//! [`batch::RowBatch`]es of column vectors instead of one row at a time.
//!
//! The physical plans produced by `excess-algebra` carry the checker's
//! resolved expressions (attribute positions, bound ADT functions and
//! operators, aggregate ranges); [`plan::prepare`] compiles them in place
//! — the same tree, node for node — into an executable form
//! ([`cexpr::CExpr`]) with path slots, EXCESS functions pre-planned (the
//! paper's "functions and operators treated uniformly"), and aggregate
//! `over` ranges planned into sub-plans by the planner's own
//! `plan_bindings`. The cursors, the morsel driver and the profiler all
//! run that one tree.
//!
//! Evaluation semantics follow the paper:
//!
//! * attribute paths dereference `ref`/`own ref` values transparently;
//! * `is`/`isnot` compare OIDs; `=` is value equality (deep only through
//!   `own` structure);
//! * membership in ref-sets is by identity, in own-sets by value;
//! * nulls: comparisons involving null are false, arithmetic propagates
//!   null, a null qualification rejects (QUEL lineage);
//! * aggregates iterate their `over` ranges freshly, correlate through
//!   free outer variables, partition with `by`, and cache group tables
//!   when uncorrelated;
//! * universal ranges (`all`) make the qualification hold for *every*
//!   binding (vacuously true on empty sets).

#![deny(rustdoc::broken_intra_doc_links)]
pub mod batch;
pub mod cexpr;
pub mod cursor;
pub mod env;
pub mod eval;
pub mod metrics;
mod parallel;
pub mod paths;
pub mod plan;
pub mod profile;
pub mod run;

pub use batch::{BatchRow, Bindings, RowBatch, DEFAULT_BATCH_SIZE};
pub use cexpr::{CAgg, CExpr, Compiled, CompiledFunction, Compiler};
pub use cursor::Cursor;
pub use env::{Env, MemberId};
pub use eval::ExecCtx;
pub use metrics::ExecMetrics;
pub use paths::Paths;
pub use plan::{prepare, Plan};
pub use profile::{BufferDelta, OpProfile, PlanIndex, PlanProfiler, QueryProfile, WorkerStats};
pub use run::{run_plan, FromValue, QueryResult, Row};
