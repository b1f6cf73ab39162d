//! Unit tests of `extra_model::types`, against its public surface.

use extra_model::{BaseType, Ownership, QualType, Type, TypeId};

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
