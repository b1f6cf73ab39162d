//! The EXTRA type system: base types, constructors and value semantics.
//!
//! Predefined base types (paper §2.1): integers of various sizes, single
//! and double precision floats, booleans, character strings, and
//! enumerations. New base types arrive through the ADT facility
//! ([`crate::adt`]).
//!
//! Type constructors: tuple, set (`{T}`), fixed-length array (`[n] T`),
//! variable-length array (`[] T`), and references. An attribute's value
//! carries one of three ownership semantics ([`Ownership`]) — own, ref,
//! own ref — treated uniformly by the EXCESS query language.

use std::fmt;

use crate::adt::AdtId;
use crate::schema::TypeId;

/// Value semantics of an attribute or collection element (paper §2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ownership {
    /// A value: part of its parent, no object identity ("it lacks identity
    /// in the sense of \[Khos86\]"). The default.
    #[default]
    Own,
    /// A reference to an independently existing object (GEM reference
    /// attributes). May be null; the referenced object must exist
    /// elsewhere in the database.
    Ref,
    /// An exclusively owned component object *with* identity: deleted with
    /// its parent, referenceable from elsewhere, but never shared between
    /// two owners (ORION composite objects).
    OwnRef,
}

impl fmt::Display for Ownership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ownership::Own => write!(f, "own"),
            Ownership::Ref => write!(f, "ref"),
            Ownership::OwnRef => write!(f, "own ref"),
        }
    }
}

/// Predefined base types (paper §2.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BaseType {
    /// 8-bit signed integer.
    Int1,
    /// 16-bit signed integer.
    Int2,
    /// 32-bit signed integer.
    Int4,
    /// 64-bit signed integer.
    Int8,
    /// Single-precision float.
    Float4,
    /// Double-precision float.
    Float8,
    /// Boolean.
    Boolean,
    /// Fixed-length character string.
    Char(usize),
    /// Variable-length character string.
    Varchar,
    /// Enumeration over the given symbols (ordered as listed).
    Enum(Vec<String>),
}

impl BaseType {
    /// Inclusive integer range, if this is an integer type.
    pub fn int_range(&self) -> Option<(i64, i64)> {
        match self {
            BaseType::Int1 => Some((i8::MIN as i64, i8::MAX as i64)),
            BaseType::Int2 => Some((i16::MIN as i64, i16::MAX as i64)),
            BaseType::Int4 => Some((i32::MIN as i64, i32::MAX as i64)),
            BaseType::Int8 => Some((i64::MIN, i64::MAX)),
            _ => None,
        }
    }

    /// Whether this is any integer type.
    pub fn is_integer(&self) -> bool {
        self.int_range().is_some()
    }

    /// Whether this is any floating-point type.
    pub fn is_float(&self) -> bool {
        matches!(self, BaseType::Float4 | BaseType::Float8)
    }
}

impl fmt::Display for BaseType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseType::Int1 => write!(f, "int1"),
            BaseType::Int2 => write!(f, "int2"),
            BaseType::Int4 => write!(f, "int4"),
            BaseType::Int8 => write!(f, "int8"),
            BaseType::Float4 => write!(f, "float4"),
            BaseType::Float8 => write!(f, "float8"),
            BaseType::Boolean => write!(f, "boolean"),
            BaseType::Char(n) => write!(f, "char({n})"),
            BaseType::Varchar => write!(f, "varchar"),
            BaseType::Enum(syms) => write!(f, "enum({})", syms.join(", ")),
        }
    }
}

/// An EXTRA type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// A predefined base type.
    Base(BaseType),
    /// An abstract data type registered with the ADT facility.
    Adt(AdtId),
    /// A named schema (tuple) type from the type registry.
    Schema(TypeId),
    /// An anonymous tuple type.
    Tuple(Vec<Attribute>),
    /// A set: `{ T }`.
    Set(Box<QualType>),
    /// An array: fixed-length `[n] T` (`Some(n)`) or variable-length
    /// `[] T` (`None`).
    Array(Option<usize>, Box<QualType>),
    /// The type of the `null` literal and of empty set literals: conforms
    /// to and unifies with every type (used during type inference only;
    /// never stored in a schema).
    Unknown,
}

impl Type {
    /// Shorthand for a base type.
    pub fn base(b: BaseType) -> Type {
        Type::Base(b)
    }

    /// Shorthand: `int4`.
    pub fn int4() -> Type {
        Type::Base(BaseType::Int4)
    }

    /// Shorthand: `varchar`.
    pub fn varchar() -> Type {
        Type::Base(BaseType::Varchar)
    }

    /// Shorthand: `float8`.
    pub fn float8() -> Type {
        Type::Base(BaseType::Float8)
    }

    /// Shorthand: `boolean`.
    pub fn boolean() -> Type {
        Type::Base(BaseType::Boolean)
    }

    /// Whether this type's instances are collections (sets/arrays).
    pub fn is_collection(&self) -> bool {
        matches!(self, Type::Set(_) | Type::Array(_, _))
    }

    /// The element type, if this is a collection.
    pub fn element(&self) -> Option<&QualType> {
        match self {
            Type::Set(e) | Type::Array(_, e) => Some(e),
            _ => None,
        }
    }
}

/// A type together with its ownership qualifier, e.g. `own ref Person`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QualType {
    /// Value semantics.
    pub mode: Ownership,
    /// The underlying type.
    pub ty: Type,
}

impl QualType {
    /// An `own` (plain value) qualified type.
    pub fn own(ty: Type) -> QualType {
        QualType {
            mode: Ownership::Own,
            ty,
        }
    }

    /// A `ref` qualified type.
    pub fn reference(ty: Type) -> QualType {
        QualType {
            mode: Ownership::Ref,
            ty,
        }
    }

    /// An `own ref` qualified type.
    pub fn own_ref(ty: Type) -> QualType {
        QualType {
            mode: Ownership::OwnRef,
            ty,
        }
    }

    /// Whether values of this qualified type are stored as OIDs.
    pub fn is_object_valued(&self) -> bool {
        !matches!(self.mode, Ownership::Own)
    }
}

/// A named attribute of a tuple/schema type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Attribute {
    /// Attribute name.
    pub name: String,
    /// Qualified type.
    pub qty: QualType,
}

impl Attribute {
    /// Construct an `own` attribute.
    pub fn own(name: &str, ty: Type) -> Attribute {
        Attribute {
            name: name.into(),
            qty: QualType::own(ty),
        }
    }

    /// Construct a `ref` attribute.
    pub fn reference(name: &str, ty: Type) -> Attribute {
        Attribute {
            name: name.into(),
            qty: QualType::reference(ty),
        }
    }

    /// Construct an `own ref` attribute.
    pub fn own_ref(name: &str, ty: Type) -> Attribute {
        Attribute {
            name: name.into(),
            qty: QualType::own_ref(ty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_ranges() {
        assert_eq!(BaseType::Int1.int_range(), Some((-128, 127)));
        assert_eq!(BaseType::Int2.int_range(), Some((-32768, 32767)));
        assert!(BaseType::Int4.is_integer());
        assert!(!BaseType::Float4.is_integer());
        assert!(BaseType::Float8.is_float());
    }

    #[test]
    fn ownership_default_is_own() {
        // "By default, all attributes are taken to be own attributes."
        assert_eq!(Ownership::default(), Ownership::Own);
    }

    #[test]
    fn display_forms() {
        assert_eq!(BaseType::Char(20).to_string(), "char(20)");
        assert_eq!(
            BaseType::Enum(vec!["red".into(), "blue".into()]).to_string(),
            "enum(red, blue)"
        );
        assert_eq!(Ownership::OwnRef.to_string(), "own ref");
    }

    #[test]
    fn collection_helpers() {
        let set = Type::Set(Box::new(QualType::own(Type::int4())));
        assert!(set.is_collection());
        assert_eq!(set.element().unwrap().ty, Type::int4());
        assert!(!Type::varchar().is_collection());
        let arr = Type::Array(Some(10), Box::new(QualType::own(Type::float8())));
        assert!(arr.is_collection());
    }

    #[test]
    fn object_valued_modes() {
        assert!(!QualType::own(Type::int4()).is_object_valued());
        assert!(QualType::reference(Type::Schema(TypeId(1))).is_object_valued());
        assert!(QualType::own_ref(Type::Schema(TypeId(1))).is_object_valued());
    }
}
