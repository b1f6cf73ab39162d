//! # exodus-db
//!
//! The EXTRA/EXCESS database: the end-to-end system of "A Data Model and
//! Query Language for EXODUS" (Carey, DeWitt & Vandenberg, SIGMOD 1988).
//!
//! This crate ties the layers together:
//!
//! * the EXODUS-style storage manager (`exodus-storage`),
//! * the EXTRA data model (`extra-model`),
//! * the EXCESS front end, analyzer, optimizer and executor
//!   (`excess-lang` / `excess-sema` / `excess-algebra` / `excess-exec`),
//!
//! and adds what the paper's §4 describes around them: the catalog of
//! named persistent objects, EXCESS **functions** and **procedures**
//! (derived data and generalized IDM-style stored commands), secondary
//! indexes with table-driven applicability, dynamic **ADT registration**
//! (extending the parser's operator table at runtime), and **System R /
//! IDM-style authorization** (users, groups, grants, and data abstraction
//! by granting access only through functions and procedures).
//!
//! # Quickstart
//!
//! ```
//! use exodus_db::Database;
//!
//! let db = Database::in_memory();
//! let mut session = db.session();
//! session.run(r#"
//!     define type Person (name: varchar, age: int4);
//!     create { own ref Person } People;
//!     append to People (name = "ann", age = 30);
//!     append to People (name = "bob", age = 40);
//! "#).unwrap();
//! let result = session.query(
//!     "retrieve (P.name) from P in People where P.age > 35").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]
pub mod catalog;
pub mod client;
pub mod database;
mod dml;
pub mod error;
mod observe;
pub mod replication;
pub mod sysview;

pub use catalog::{Auth, Catalog, CatalogView};
pub use client::Client;
pub use database::{Database, DatabaseBuilder, Explanation, Observation, Response, Session};
pub use error::{DbError, DbResult, CODE_TABLE};
pub use replication::{Batch, ReplStream, Replica, ReplicaOptions};
pub use sysview::SessionInfo;

// Re-exports so downstream users need only this crate.
pub use excess_exec as exec;
pub use excess_exec::{BufferDelta, OpProfile, QueryProfile, QueryResult, Row, WorkerStats};
pub use exodus_obs as obs;
pub use exodus_obs::{
    validate_exposition, MetricSample, MetricsSnapshot, SampleValue, SlowQuery, Span, TraceConfig,
};
pub use exodus_storage::{BufferStats, Durability, RecoveryReport};
pub use extra_model::{AdtRegistry, AdtType, Value};
