//! # extra-model
//!
//! The **EXTRA data model** from "A Data Model and Query Language for
//! EXODUS" (Carey, DeWitt & Vandenberg, SIGMOD 1988).
//!
//! EXTRA is a structurally object-oriented data model synthesizing GEM,
//! POSTGRES, NF², DAPLEX, ORION and GemStone ideas:
//!
//! * **Base types** (`int1..int8`, `float4/float8`, `boolean`, `char(n)`,
//!   `varchar`, enumerations) plus an **ADT facility** for new base types
//!   ([`adt`], with `Date`, `Complex` and `Polygon` built in as the
//!   paper's examples).
//! * **Type constructors**: tuple, set, fixed- and variable-length array,
//!   and references ([`types`]).
//! * **Three attribute-value semantics** ([`types::Ownership`]):
//!   - `own` — a value, no object identity;
//!   - `ref` — a GEM-style reference to an independently existing object;
//!   - `own ref` — an exclusively-owned component object *with* identity
//!     (ORION composite objects / E-R weak entities).
//! * **Separation of type and instance**: types are defined in a
//!   [`schema::TypeRegistry`]; collections of instances are created
//!   explicitly, so one type may populate many sets/arrays.
//! * **Multiple inheritance** with *no automatic conflict resolution*:
//!   name clashes must be resolved by renaming ([`schema`]).
//! * **Object identity & integrity** ([`store`]): objects live in the
//!   storage manager keyed by OID; deleting an object cascades to its
//!   `own ref` components and nulls out dangling `ref`s (GEM-style), and
//!   `own ref` exclusivity is enforced through owner tracking.

#![deny(rustdoc::broken_intra_doc_links)]
pub mod adt;
pub mod adts;
pub mod error;
pub mod schema;
pub mod store;
pub mod typeio;
pub mod types;
pub mod value;
pub mod valueio;

pub use adt::{AdtFunction, AdtId, AdtOperator, AdtRegistry, AdtType};
pub use error::{ModelError, ModelResult};
pub use schema::{SchemaType, TypeId, TypeRegistry};
pub use store::{MemberFields, MemberScan, ObjectStore, StoreRoots};
pub use types::{Attribute, BaseType, Ownership, QualType, Type};
pub use value::{SetBuilder, Value};
