//! Unit tests of `extra_model::value`, against its public surface.

use std::cmp::Ordering;

use exodus_storage::Oid;
use extra_model::value::*;
use extra_model::{AdtRegistry, Attribute, BaseType, QualType, Type, TypeRegistry};

fn regs() -> (TypeRegistry, AdtRegistry) {
    (TypeRegistry::new(), AdtRegistry::new())
}

#[test]
fn numeric_comparisons_cross_type() {
    let adts = AdtRegistry::new();
    assert_eq!(
        Value::Int(2).compare(&Value::Float(2.5), &adts),
        Some(Ordering::Less)
    );
    assert_eq!(
        Value::Float(3.0).compare(&Value::Int(3), &adts),
        Some(Ordering::Equal)
    );
    assert_eq!(
        Value::str("abc").compare(&Value::str("abd"), &adts),
        Some(Ordering::Less)
    );
    assert_eq!(
        Value::Enum(0, "red".into()).compare(&Value::Enum(2, "blue".into()), &adts),
        Some(Ordering::Less)
    );
    // Refs are not comparable: only is/isnot.
    assert_eq!(Value::Ref(Oid(1)).compare(&Value::Ref(Oid(1)), &adts), None);
    assert_eq!(Value::Null.compare(&Value::Int(0), &adts), None);
}

#[test]
fn ref_equality_is_identity() {
    // `is` compares OIDs, not contents.
    assert_eq!(Value::Ref(Oid(5)), Value::Ref(Oid(5)));
    assert_ne!(Value::Ref(Oid(5)), Value::Ref(Oid(6)));
}

#[test]
fn set_semantics_dedupe() {
    let mut s = Value::empty_set();
    assert!(s.set_insert(Value::Int(1)));
    assert!(s.set_insert(Value::Int(2)));
    assert!(!s.set_insert(Value::Int(1)), "duplicate rejected");
    assert!(!s.set_insert(Value::Float(1.0)), "1 = 1.0");
    assert!(!Value::Int(1).set_insert(Value::Int(1)), "not a set");
}

/// One member equality: numbers across int and float, sets unordered
/// (and blind to a repeated member), and a hash that agrees with it;
/// `==` stays structural.
#[test]
fn member_equality_and_its_hash() {
    let set = |xs: &[Value]| Value::Set(xs.to_vec());
    let equal = [
        (Value::Int(3), Value::Float(3.0)),
        (Value::Int(0), Value::Float(-0.0)),
        (
            set(&[Value::Int(1), Value::Int(2)]),
            set(&[Value::Int(2), Value::Float(1.0)]),
        ),
        (
            Value::Tuple(vec![
                Value::Int(1),
                set(&[Value::str("a"), Value::str("b")]),
            ]),
            Value::Tuple(vec![
                Value::Float(1.0),
                set(&[Value::str("b"), Value::str("a")]),
            ]),
        ),
        // An own collection stores one member per append, so a set value
        // may repeat one; as a set it is still {7}.
        (set(&[Value::Int(7), Value::Int(7)]), set(&[Value::Int(7)])),
    ];
    for (a, b) in &equal {
        assert!(a.member_eq(b) && b.member_eq(a), "{a:?} = {b:?}");
        assert_eq!(
            a.member_hash(),
            b.member_hash(),
            "{a:?} and {b:?} hash alike"
        );
    }
    let unequal = [
        (Value::Int(3), Value::Float(3.5)),
        // Exact, not rounded.
        (Value::Int(i64::MAX), Value::Float(i64::MAX as f64)),
        // Arrays keep their order.
        (
            Value::Array(vec![Value::Int(1), Value::Int(2)]),
            Value::Array(vec![Value::Int(2), Value::Int(1)]),
        ),
        // Equal lengths, unequal sets.
        (
            set(&[Value::Int(7), Value::Int(7)]),
            set(&[Value::Int(7), Value::Int(8)]),
        ),
        (Value::Float(f64::NAN), Value::Float(f64::NAN)),
    ];
    for (a, b) in &unequal {
        assert!(!a.member_eq(b) && !b.member_eq(a), "{a:?} != {b:?}");
    }
    assert_ne!(Value::Int(3), Value::Float(3.0), "`==` is structural");
    assert_ne!(
        set(&[Value::Int(1), Value::Int(2)]),
        set(&[Value::Int(2), Value::Int(1)]),
        "`==` sees member order"
    );
    let adts = AdtRegistry::new();
    assert_eq!(
        Value::Int(i64::MAX).compare(&Value::Float(i64::MAX as f64), &adts),
        Some(Ordering::Less),
        "ordering agrees with equality past 2^53"
    );
    assert_eq!(Value::Float(f64::NAN).compare(&Value::Int(1), &adts), None);
}

#[test]
fn conforms_base_types() {
    let (reg, adts) = regs();
    let q = |t: Type| QualType::own(t);
    Value::Int(100)
        .conforms(&q(Type::Base(BaseType::Int1)), &reg, &adts)
        .unwrap();
    assert!(Value::Int(200)
        .conforms(&q(Type::Base(BaseType::Int1)), &reg, &adts)
        .is_err());
    Value::str("hi")
        .conforms(&q(Type::Base(BaseType::Char(2))), &reg, &adts)
        .unwrap();
    assert!(Value::str("hello")
        .conforms(&q(Type::Base(BaseType::Char(2))), &reg, &adts)
        .is_err());
    // Int is acceptable where a float is expected.
    Value::Int(3)
        .conforms(&q(Type::float8()), &reg, &adts)
        .unwrap();
    // Null conforms to everything.
    Value::Null.conforms(&q(Type::int4()), &reg, &adts).unwrap();
    // Enum must match ordinal and symbol.
    let e = Type::Base(BaseType::Enum(vec!["a".into(), "b".into()]));
    Value::Enum(1, "b".into())
        .conforms(&q(e.clone()), &reg, &adts)
        .unwrap();
    assert!(Value::Enum(0, "b".into())
        .conforms(&q(e), &reg, &adts)
        .is_err());
}

#[test]
fn conforms_constructors() {
    let (mut reg, adts) = regs();
    let person = reg
        .define(
            "Person",
            vec![],
            vec![
                Attribute::own("name", Type::varchar()),
                Attribute::own("age", Type::int4()),
            ],
        )
        .unwrap();
    let v = Value::Tuple(vec![Value::str("ann"), Value::Int(30)]);
    v.conforms(&QualType::own(Type::Schema(person)), &reg, &adts)
        .unwrap();
    let bad = Value::Tuple(vec![Value::str("ann")]);
    assert!(bad
        .conforms(&QualType::own(Type::Schema(person)), &reg, &adts)
        .is_err());

    let set_t = QualType::own(Type::Set(Box::new(QualType::own(Type::int4()))));
    Value::Set(vec![Value::Int(1), Value::Int(2)])
        .conforms(&set_t, &reg, &adts)
        .unwrap();
    assert!(Value::Set(vec![Value::str("x")])
        .conforms(&set_t, &reg, &adts)
        .is_err());

    let arr_t = QualType::own(Type::Array(Some(2), Box::new(QualType::own(Type::int4()))));
    Value::Array(vec![Value::Int(1), Value::Null])
        .conforms(&arr_t, &reg, &adts)
        .unwrap();
    assert!(Value::Array(vec![Value::Int(1)])
        .conforms(&arr_t, &reg, &adts)
        .is_err());

    // A ref-qualified slot takes only references or null.
    let rq = QualType::reference(Type::Schema(person));
    Value::Ref(Oid(9)).conforms(&rq, &reg, &adts).unwrap();
    Value::Null.conforms(&rq, &reg, &adts).unwrap();
    assert!(Value::Tuple(vec![]).conforms(&rq, &reg, &adts).is_err());
}

#[test]
fn render_forms() {
    let adts = AdtRegistry::new();
    let v = Value::Tuple(vec![
        Value::str("ann"),
        Value::Int(3),
        Value::Set(vec![Value::Int(1)]),
        Value::Array(vec![Value::Float(1.0)]),
        Value::Null,
        Value::Ref(Oid(7)),
    ]);
    assert_eq!(v.render(&adts), "(\"ann\", 3, {1}, [1.0], null, @7)");
}
