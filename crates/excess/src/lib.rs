//! # excess-lang
//!
//! Front end for the **EXCESS query language** of "A Data Model and Query
//! Language for EXODUS" (Carey, DeWitt & Vandenberg, SIGMOD 1988).
//!
//! EXCESS is QUEL-derived, extended with the GEM/POSTGRES/NF² ideas the
//! paper synthesizes:
//!
//! * `range of V is <path>` range statements, including paths over nested
//!   sets (`range of C is Employees.kids`) and universal quantification
//!   (`range of E is all Employees`);
//! * `retrieve [into N] (targets) [from V in path, ...] [where qual]`
//!   with implicit joins through path expressions (`E.dept.floor = 2`);
//! * updates: `append`, `delete`, `replace`; procedure invocation with
//!   `where`-bound parameters (`execute P(...) where ...`);
//! * `is` / `isnot` object-identity comparisons; set operators `union`,
//!   `intersect`, `minus`, `in`, `contains`;
//! * aggregates with `over` (nesting-level control) and `by`
//!   (partitioning) clauses;
//! * DDL: `define type` (multiple inheritance with renaming), `create` /
//!   `destroy` named instances, `define function` / `define procedure`,
//!   `grant` / `revoke`, `define index`;
//! * **runtime-extensible operators**: the lexer and parser consult an
//!   operator table that ADT registration extends (new punctuation
//!   operators with definer-chosen precedence and associativity).
//!
//! The crate is purely syntactic: names are resolved and types checked in
//! `excess-sema`.

#![deny(rustdoc::broken_intra_doc_links)]
pub mod ast;
pub mod error;
pub mod lexer;
pub mod ops;
pub mod parser;
pub mod printer;
pub mod token;

pub use ast::*;
pub use error::{ParseError, ParseResult};
pub use ops::OperatorTable;
pub use parser::{parse_program, parse_statement, parse_template, parse_tokens, Parser};
