//! # excess-algebra
//!
//! The EXCESS query algebra, rule-based rewriter, and cost-based physical
//! planner.
//!
//! The paper defers the algebra design to future work but fixes its
//! requirements (§4.1, §6): a rule-based optimizer in the style of the
//! EXODUS optimizer generator \[Grae87\], with *table-driven* lookup of
//! access-method applicability for ADTs (so ADTs can be added
//! dynamically), and functions/operators treated uniformly. This crate
//! implements to those requirements:
//!
//! * [`plan`] — the physical operator tree, with `EXPLAIN` rendering;
//!   a checked `retrieve` is planned straight into it (range bindings
//!   become scans/unnests; universal bindings become a universal
//!   selection). It is the one plan a statement has: built with the
//!   checker's `Checked` pairs — rules read their source, labels print
//!   it — and run by the executor once it has compiled their typed half;
//! * [`rules`] — rewrite rules: constant folding and index predicates;
//! * [`cost`] — cardinality/cost estimation from catalog statistics and
//!   `analyze` histograms;
//! * [`join`] — statistics-gated batch-join rewrites (hash / index
//!   joins for explicit equi joins and implicit path dereferences);
//! * [`reads`] — member read sets: the attributes of unnested members a
//!   plan reads, which are all an unnest then binds of them;
//! * [`physical`] — access-path selection (sequential vs B+-tree index
//!   scan, consulting the ADT applicability table for ADT-typed keys),
//!   greedy join ordering by estimated cardinality, and final plan
//!   assembly.

#![deny(rustdoc::broken_intra_doc_links)]
pub mod cost;
pub mod join;
pub mod physical;
pub mod plan;
pub mod reads;
pub mod rules;

pub use physical::{plan_bindings, plan_retrieve, plan_retrieve_dop, PlannerConfig};
pub use plan::{Physical, PlanExpr};
pub use reads::{read_sets, retrieve_read_sets};
