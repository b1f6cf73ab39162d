//! Unit tests of `extra_model::valueio`, against its public surface.

use exodus_storage::Oid;
use extra_model::valueio::*;
use extra_model::{AdtId, Value};

fn round_trip(v: Value) {
    assert_eq!(from_bytes(&to_bytes(&v)).unwrap(), v);
}

#[test]
fn scalars_round_trip() {
    round_trip(Value::Null);
    round_trip(Value::Int(-12345));
    round_trip(Value::Float(2.75));
    round_trip(Value::Bool(true));
    round_trip(Value::str("EXODUS"));
    round_trip(Value::Enum(3, "blue".into()));
    round_trip(Value::Adt(AdtId(2), vec![1, 2, 3]));
    round_trip(Value::Ref(Oid(99)));
}

#[test]
fn nested_round_trip() {
    round_trip(Value::Tuple(vec![
        Value::str("ann"),
        Value::Int(30),
        Value::Set(vec![Value::Ref(Oid(1)), Value::Ref(Oid(2))]),
        Value::Array(vec![Value::Null, Value::Float(1.5)]),
        Value::Tuple(vec![Value::Bool(false)]),
    ]));
}

#[test]
fn tuple_field_projection() {
    let v = Value::Tuple(vec![
        Value::str("ann"),
        Value::Set(vec![Value::Int(1), Value::Int(2)]),
        Value::Ref(Oid(7)),
        Value::Float(1.5),
    ]);
    let bytes = to_bytes(&v);
    assert_eq!(
        tuple_field_from_bytes(&bytes, 0).unwrap(),
        Some(Value::str("ann"))
    );
    assert_eq!(
        tuple_field_from_bytes(&bytes, 2).unwrap(),
        Some(Value::Ref(Oid(7)))
    );
    assert_eq!(
        tuple_field_from_bytes(&bytes, 3).unwrap(),
        Some(Value::Float(1.5))
    );
    // Out of range and non-tuple both defer to the caller.
    assert_eq!(tuple_field_from_bytes(&bytes, 4).unwrap(), None);
    assert_eq!(
        tuple_field_from_bytes(&to_bytes(&Value::Int(3)), 0).unwrap(),
        None
    );
}

#[test]
fn projection_steps_over_every_kind_of_sibling() {
    let fields = vec![
        Value::Null,
        Value::Bool(true),
        Value::Int(-7),
        Value::Float(2.5),
        Value::str(
            "a longer string, well past one varint byte of length"
                .repeat(4)
                .as_str(),
        ),
        Value::Enum(3, "blue".into()),
        Value::Adt(AdtId(2), vec![1, 2, 3]),
        Value::Tuple(vec![Value::str("in"), Value::Set(vec![Value::Int(1)])]),
        Value::Set(vec![Value::Tuple(vec![Value::str("kid"), Value::Int(4)])]),
        Value::Array(vec![Value::Null, Value::Ref(Oid(9))]),
        Value::Ref(Oid(7)),
    ];
    let bytes = to_bytes(&Value::Tuple(fields.clone()));
    for (pos, f) in fields.iter().enumerate() {
        assert_eq!(
            tuple_field_from_bytes(&bytes, pos).unwrap().as_ref(),
            Some(f)
        );
    }
    // Cut short anywhere, the last field is an error, never a panic
    // or a wrong value.
    for cut in 1..bytes.len() {
        assert!(tuple_field_from_bytes(&bytes[..cut], fields.len() - 1).is_err());
    }
}

#[test]
fn trailing_garbage_rejected() {
    let mut bytes = to_bytes(&Value::Int(1));
    bytes.push(0xAA);
    assert!(from_bytes(&bytes).is_err());
}

#[test]
fn unknown_tag_rejected() {
    assert!(from_bytes(&[200]).is_err());
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
    #[test]
    fn prop_scalar_round_trip(i: i64, f: f64, s: String, b: bool) {
        proptest::prop_assume!(!f.is_nan());
        round_trip(Value::Tuple(vec![
            Value::Int(i), Value::Float(f), Value::Str(s), Value::Bool(b),
        ]));
    }
}
