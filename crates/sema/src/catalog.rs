//! The catalog interface the analyzer resolves names against.
//!
//! The concrete catalog lives in `exodus-db`; sema (and the optimizer)
//! see it through [`CatalogLookup`], keeping the layering acyclic.

use excess_lang::Stmt;
use exodus_storage::Oid;
use extra_model::{QualType, TypeId, Value};

/// A named persistent database object (`create <type> <Name>`).
#[derive(Debug, Clone)]
pub struct NamedObject {
    /// Its name.
    pub name: String,
    /// Its OID (collections: the anchor OID).
    pub oid: Oid,
    /// Its declared type.
    pub qty: QualType,
    /// Whether it is a top-level set (stored as a collection).
    pub is_collection: bool,
}

/// An EXCESS function definition (`define function`).
///
/// A function whose first parameter is a schema type is *attached* to that
/// type: invocable with method syntax and inherited through the lattice.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    /// Function name.
    pub name: String,
    /// Parameter names and types.
    pub params: Vec<(String, QualType)>,
    /// Return type.
    pub returns: QualType,
    /// Body — a `retrieve` statement.
    pub body: Stmt,
    /// The schema type the function is attached to (the first parameter's
    /// type, when it is a schema type).
    pub attached_to: Option<TypeId>,
}

/// An EXCESS procedure definition (`define procedure`).
#[derive(Debug, Clone)]
pub struct ProcedureDef {
    /// Procedure name.
    pub name: String,
    /// Parameter names and types.
    pub params: Vec<(String, QualType)>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A secondary index over one attribute of a collection's members.
#[derive(Debug, Clone)]
pub struct IndexInfo {
    /// Index name.
    pub name: String,
    /// Indexed collection.
    pub collection: String,
    /// Indexed member attribute.
    pub attr: String,
    /// B+-tree root page.
    pub root: u64,
    /// Whether the index enforces key uniqueness (paper: keys are
    /// associated with set instances).
    pub unique: bool,
}

/// Number of equi-depth histogram buckets `analyze` collects per
/// attribute.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Per-attribute optimizer statistics collected by `analyze <collection>`.
///
/// Histograms are kept in a normalized `f64` key space (ints and floats
/// cast; other types carry only distinct/null counts), which is all the
/// cost model needs for comparison selectivities.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrStats {
    /// Attribute name.
    pub attr: String,
    /// Estimated number of distinct non-null values.
    pub distinct: u64,
    /// Fraction of members with a null value for this attribute.
    pub null_frac: f64,
    /// Equi-depth histogram boundaries: `bounds[0]` is the minimum and
    /// `bounds[i]` the upper bound of bucket `i`, each bucket holding an
    /// equal share of the non-null rows. Empty when the attribute's type
    /// has no numeric key space (or the collection had no non-null rows).
    pub bounds: Vec<f64>,
}

impl AttrStats {
    /// Selectivity of `attr = <const>`: uniform share of one distinct
    /// value among the non-null rows.
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct == 0 {
            return 0.0;
        }
        ((1.0 - self.null_frac) / self.distinct as f64).clamp(0.0, 1.0)
    }

    /// Fraction of non-null rows with value `<= v`, interpolated linearly
    /// inside the containing equi-depth bucket. `None` when no histogram
    /// was collected for this attribute.
    pub fn fraction_le(&self, v: f64) -> Option<f64> {
        let b = &self.bounds;
        if b.len() < 2 {
            return None;
        }
        if v < b[0] {
            return Some(0.0);
        }
        let last = b.len() - 1;
        if v >= b[last] {
            return Some(1.0);
        }
        let buckets = last as f64;
        for i in 0..last {
            let (lo, hi) = (b[i], b[i + 1]);
            if v < hi {
                let within = if hi > lo { (v - lo) / (hi - lo) } else { 1.0 };
                return Some((i as f64 + within) / buckets);
            }
        }
        Some(1.0)
    }

    /// Selectivity of a comparison `attr <op> v` using the histogram,
    /// scaled by the non-null fraction. `None` when no histogram exists.
    pub fn cmp_selectivity(&self, op: StatOp, v: f64) -> Option<f64> {
        let le = self.fraction_le(v)?;
        let eq = self.eq_selectivity();
        let notnull = 1.0 - self.null_frac;
        let sel = match op {
            StatOp::Eq => return Some(eq),
            StatOp::Ne => notnull - eq,
            StatOp::Le => le * notnull,
            StatOp::Lt => (le * notnull - eq).max(0.0),
            StatOp::Gt => (1.0 - le) * notnull,
            StatOp::Ge => ((1.0 - le) * notnull + eq).min(notnull),
        };
        Some(sel.clamp(0.0, 1.0))
    }
}

/// Comparison shape the cost model asks statistics about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Statistics for one analyzed collection.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollectionStats {
    /// Member count at analyze time.
    pub row_count: u64,
    /// Per-attribute statistics (tuple-valued members only).
    pub attrs: Vec<AttrStats>,
}

impl CollectionStats {
    /// Statistics for `attr`, if collected.
    pub fn attr(&self, name: &str) -> Option<&AttrStats> {
        self.attrs.iter().find(|a| a.attr == name)
    }
}

/// A read-only virtual collection in the reserved `sys` schema,
/// materialized on demand from live engine state rather than storage.
#[derive(Debug, Clone)]
pub struct SystemViewDef {
    /// View name without the `sys.` prefix (e.g. `metrics`).
    pub name: String,
    /// Element type each row binds — always an owned tuple, so attribute
    /// inference and projection work exactly as for stored collections.
    pub elem: QualType,
}

/// Name-resolution services provided by the database catalog.
pub trait CatalogLookup {
    /// Look up a named persistent object.
    fn named(&self, name: &str) -> Option<NamedObject>;

    /// All function definitions sharing `name` (receiver-type overloads).
    fn functions_named(&self, name: &str) -> Vec<FunctionDef>;

    /// Look up a procedure.
    fn procedure(&self, name: &str) -> Option<ProcedureDef>;

    /// An index on `collection(attr)`, if one exists.
    fn index_on(&self, collection: &str, attr: &str) -> Option<IndexInfo>;

    /// Member count of a named collection (optimizer statistics).
    fn collection_size(&self, name: &str) -> Option<u64>;

    /// Statistics recorded by `analyze <collection>`, when present.
    /// The default (no statistics) keeps the cost model on its fixed
    /// selectivity constants.
    fn stats_for(&self, _collection: &str) -> Option<CollectionStats> {
        None
    }

    /// Every named collection, for planner rules that must discover the
    /// target collection of a reference-valued attribute. The default
    /// (none) disables such rewrites.
    fn collections(&self) -> Vec<NamedObject> {
        Vec::new()
    }

    /// Definition of the `sys.<name>` virtual collection, when this
    /// catalog exposes one. The default (no system views) leaves `sys`
    /// an ordinary unknown name.
    fn system_view(&self, _name: &str) -> Option<SystemViewDef> {
        None
    }

    /// Materialize the rows of `sys.<name>` as a consistent snapshot of
    /// the provider's state at call time. `None` when no such view
    /// exists.
    fn system_view_rows(&self, _name: &str) -> Option<Vec<Value>> {
        None
    }

    /// Every system view this catalog exposes (for diagnostics).
    fn system_views(&self) -> Vec<SystemViewDef> {
        Vec::new()
    }
}

/// An empty catalog, for tests that only need range variables.
#[derive(Debug, Default)]
pub struct EmptyCatalog;

impl CatalogLookup for EmptyCatalog {
    fn named(&self, _name: &str) -> Option<NamedObject> {
        None
    }
    fn functions_named(&self, _name: &str) -> Vec<FunctionDef> {
        Vec::new()
    }
    fn procedure(&self, _name: &str) -> Option<ProcedureDef> {
        None
    }
    fn index_on(&self, _collection: &str, _attr: &str) -> Option<IndexInfo> {
        None
    }
    fn collection_size(&self, _name: &str) -> Option<u64> {
        None
    }
}
