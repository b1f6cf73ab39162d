//! Runtime values of the EXTRA data model.
//!
//! A [`Value`] is the in-memory form of any EXTRA datum: base-type values,
//! ADT values (kept in their ADT's byte format), tuples, sets, arrays, and
//! references. `ref` and `own ref` attributes hold [`Value::Ref`] — an OID
//! into the object store — while `own` attributes hold the component value
//! inline, exactly mirroring the paper's storage semantics ("an own
//! attribute is simply a value, not a first-class object; it lacks
//! identity").
//!
//! Equality (`==`) on values is *structural*; two `Ref`s are equal iff
//! they hold the same OID — which is precisely the `is` operator of
//! EXCESS. Recursive value-equality in the sense of \[Banc86\] requires
//! the store and lives in [`crate::store::ObjectStore::deep_eq`].

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use exodus_storage::Oid;

use crate::adt::{AdtId, AdtRegistry};
use crate::error::{ModelError, ModelResult};
use crate::schema::TypeRegistry;
use crate::types::{BaseType, Ownership, QualType, Type};

/// A runtime EXTRA value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The null value (GEM-style nulls permeate the model).
    Null,
    /// Any integer (width checked against the declared type on store).
    Int(i64),
    /// Any float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String (char(n) and varchar).
    Str(String),
    /// Enumeration value: ordinal (for ordering) and symbol (for display).
    Enum(u16, String),
    /// An ADT value in its ADT's storage format.
    Adt(AdtId, Vec<u8>),
    /// A tuple, attributes in declaration order.
    Tuple(Vec<Value>),
    /// A set. Invariant: no two members compare equal (maintained by
    /// [`Value::set_insert`]).
    Set(Vec<Value>),
    /// An array (fixed arrays are padded with nulls to their length).
    Array(Vec<Value>),
    /// A reference to an object with identity.
    Ref(Oid),
}

impl Value {
    /// Shorthand string constructor.
    pub fn str(s: &str) -> Value {
        Value::Str(s.into())
    }

    /// A short description of the value's runtime shape, for errors.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
            Value::Str(_) => "string",
            Value::Enum(_, _) => "enum",
            Value::Adt(_, _) => "adt",
            Value::Tuple(_) => "tuple",
            Value::Set(_) => "set",
            Value::Array(_) => "array",
            Value::Ref(_) => "reference",
        }
    }

    /// Whether this is null.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Truth value for qualification clauses; non-boolean is an error.
    /// Null is false (two-valued logic with null rejection, per QUEL
    /// lineage).
    pub fn truthy(&self) -> ModelResult<bool> {
        match self {
            Value::Bool(b) => Ok(*b),
            Value::Null => Ok(false),
            other => Err(ModelError::TypeMismatch {
                expected: "boolean".into(),
                got: other.kind().into(),
            }),
        }
    }

    /// Numeric coercion for arithmetic.
    pub fn as_f64(&self) -> ModelResult<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(ModelError::TypeMismatch {
                expected: "number".into(),
                got: other.kind().into(),
            }),
        }
    }

    /// Integer extraction.
    pub fn as_i64(&self) -> ModelResult<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(ModelError::TypeMismatch {
                expected: "integer".into(),
                got: other.kind().into(),
            }),
        }
    }

    /// Ordering between two values, if they are comparable. Numeric types
    /// cross-compare; strings, booleans, and enums compare naturally; ADT
    /// values compare through their key encoding. References are *not*
    /// comparable (the paper restricts them to `is`/`isnot`). Null
    /// compares to nothing.
    pub fn compare(&self, other: &Value, adts: &AdtRegistry) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Enum(a, _), Value::Enum(b, _)) => Some(a.cmp(b)),
            (Value::Adt(ia, ba), Value::Adt(ib, bb)) if ia == ib => {
                let adt = adts.get(*ia).ok()?;
                match (adt.key_encode(ba), adt.key_encode(bb)) {
                    (Some(ka), Some(kb)) => Some(ka.cmp(&kb)),
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Insert into a set, skipping values already present (sets have no
    /// duplicates; `Ref` members dedupe by OID — object semantics).
    pub fn set_insert(&mut self, v: Value) -> ModelResult<bool> {
        match self {
            Value::Set(members) => {
                if members.contains(&v) {
                    Ok(false)
                } else {
                    members.push(v);
                    Ok(true)
                }
            }
            other => Err(ModelError::TypeMismatch {
                expected: "set".into(),
                got: other.kind().into(),
            }),
        }
    }

    /// Set union (dedup preserved).
    pub fn set_union(&self, other: &Value) -> ModelResult<Value> {
        match (self, other) {
            (Value::Set(a), Value::Set(b)) => {
                let mut out = a.clone();
                for v in b {
                    if !out.contains(v) {
                        out.push(v.clone());
                    }
                }
                Ok(Value::Set(out))
            }
            _ => Err(ModelError::TypeMismatch {
                expected: "set".into(),
                got: format!("{} / {}", self.kind(), other.kind()),
            }),
        }
    }

    /// Set intersection.
    pub fn set_intersect(&self, other: &Value) -> ModelResult<Value> {
        match (self, other) {
            (Value::Set(a), Value::Set(b)) => Ok(Value::Set(
                a.iter().filter(|v| b.contains(v)).cloned().collect(),
            )),
            _ => Err(ModelError::TypeMismatch {
                expected: "set".into(),
                got: format!("{} / {}", self.kind(), other.kind()),
            }),
        }
    }

    /// Set difference (`minus`).
    pub fn set_minus(&self, other: &Value) -> ModelResult<Value> {
        match (self, other) {
            (Value::Set(a), Value::Set(b)) => Ok(Value::Set(
                a.iter().filter(|v| !b.contains(v)).cloned().collect(),
            )),
            _ => Err(ModelError::TypeMismatch {
                expected: "set".into(),
                got: format!("{} / {}", self.kind(), other.kind()),
            }),
        }
    }

    /// 1-based array indexing (the paper writes `TopTen[1]`).
    pub fn array_index(&self, index: i64) -> ModelResult<&Value> {
        match self {
            Value::Array(items) => {
                if index < 1 || index as usize > items.len() {
                    Err(ModelError::IndexOutOfRange {
                        index,
                        len: items.len(),
                    })
                } else {
                    Ok(&items[index as usize - 1])
                }
            }
            other => Err(ModelError::TypeMismatch {
                expected: "array".into(),
                got: other.kind().into(),
            }),
        }
    }

    /// Check conformance of this value to a qualified type. Shape-level:
    /// `Ref` target types are validated by the object store on write.
    /// Null conforms to every type.
    // The ADT registry is threaded through for future ADT value checks.
    #[allow(clippy::only_used_in_recursion)]
    pub fn conforms(
        &self,
        qty: &QualType,
        reg: &TypeRegistry,
        adts: &AdtRegistry,
    ) -> ModelResult<()> {
        if self.is_null() {
            return Ok(());
        }
        if qty.mode != Ownership::Own {
            return match self {
                Value::Ref(_) => Ok(()),
                other => Err(ModelError::TypeMismatch {
                    expected: format!("{} (a reference)", reg.display_qual(qty)),
                    got: other.kind().into(),
                }),
            };
        }
        let mismatch = |expected: String, got: &Value| ModelError::TypeMismatch {
            expected,
            got: got.kind().into(),
        };
        match (&qty.ty, self) {
            (Type::Base(b), v) => match (b, v) {
                (bt, Value::Int(i)) if bt.is_integer() => {
                    let (lo, hi) = bt.int_range().expect("integer type has a range");
                    if *i < lo || *i > hi {
                        Err(ModelError::TypeMismatch {
                            expected: bt.to_string(),
                            got: format!("integer {i} (out of range)"),
                        })
                    } else {
                        Ok(())
                    }
                }
                (bt, Value::Float(_)) if bt.is_float() => Ok(()),
                (bt, Value::Int(_)) if bt.is_float() => Ok(()),
                (BaseType::Boolean, Value::Bool(_)) => Ok(()),
                (BaseType::Varchar, Value::Str(_)) => Ok(()),
                (BaseType::Char(n), Value::Str(s)) => {
                    if s.chars().count() <= *n {
                        Ok(())
                    } else {
                        Err(ModelError::TypeMismatch {
                            expected: format!("char({n})"),
                            got: format!("string of {} characters", s.chars().count()),
                        })
                    }
                }
                (BaseType::Enum(syms), Value::Enum(ord, sym)) => {
                    if syms.get(*ord as usize).map(String::as_str) == Some(sym.as_str()) {
                        Ok(())
                    } else {
                        Err(ModelError::TypeMismatch {
                            expected: b.to_string(),
                            got: format!("enum value '{sym}'"),
                        })
                    }
                }
                (bt, v) => Err(mismatch(bt.to_string(), v)),
            },
            (Type::Adt(id), Value::Adt(got, _)) if id == got => Ok(()),
            (Type::Schema(tid), Value::Tuple(fields)) => {
                let st = reg.get(*tid);
                if fields.len() != st.arity() {
                    return Err(ModelError::TypeMismatch {
                        expected: format!("{} ({} attributes)", st.name, st.arity()),
                        got: format!("tuple of {}", fields.len()),
                    });
                }
                for (f, a) in fields.iter().zip(st.attributes()) {
                    f.conforms(&a.qty, reg, adts)?;
                }
                Ok(())
            }
            (Type::Tuple(attrs), Value::Tuple(fields)) => {
                if fields.len() != attrs.len() {
                    return Err(ModelError::TypeMismatch {
                        expected: format!("tuple of {}", attrs.len()),
                        got: format!("tuple of {}", fields.len()),
                    });
                }
                for (f, a) in fields.iter().zip(attrs.iter()) {
                    f.conforms(&a.qty, reg, adts)?;
                }
                Ok(())
            }
            (Type::Set(elem), Value::Set(members)) => {
                for m in members {
                    m.conforms(elem, reg, adts)?;
                }
                Ok(())
            }
            (Type::Array(len, elem), Value::Array(items)) => {
                if let Some(n) = len {
                    if items.len() != *n {
                        return Err(ModelError::TypeMismatch {
                            expected: format!("array of exactly {n}"),
                            got: format!("array of {}", items.len()),
                        });
                    }
                }
                for i in items {
                    i.conforms(elem, reg, adts)?;
                }
                Ok(())
            }
            (ty, v) => Err(mismatch(reg.display_type(ty), v)),
        }
    }

    /// Render for output; ADT values use their ADT's display form.
    pub fn render(&self, adts: &AdtRegistry) -> String {
        match self {
            Value::Null => "null".into(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    f.to_string()
                }
            }
            Value::Bool(b) => b.to_string(),
            Value::Str(s) => format!("\"{s}\""),
            Value::Enum(_, sym) => sym.clone(),
            Value::Adt(id, bytes) => adts.display(*id, bytes),
            Value::Tuple(fs) => {
                let inner: Vec<String> = fs.iter().map(|f| f.render(adts)).collect();
                format!("({})", inner.join(", "))
            }
            Value::Set(ms) => {
                let inner: Vec<String> = ms.iter().map(|m| m.render(adts)).collect();
                format!("{{{}}}", inner.join(", "))
            }
            Value::Array(items) => {
                let inner: Vec<String> = items.iter().map(|i| i.render(adts)).collect();
                format!("[{}]", inner.join(", "))
            }
            Value::Ref(oid) => oid.to_string(),
        }
    }

    /// Order-preserving key encoding of a scalar value, for B+-tree
    /// indexes and index-scan bounds. `None` for unordered or composite
    /// values. Integers and floats share the numeric key space via the
    /// float encoding when `numeric_as_float` is set by the caller through
    /// coercion; here ints encode as ints — index build and probe must use
    /// the same declared attribute type, which the planner guarantees.
    pub fn key_encode(&self, adts: &AdtRegistry) -> Option<Vec<u8>> {
        use exodus_storage::encoding::KeyWriter;
        let mut k = KeyWriter::new();
        match self {
            Value::Int(i) => k.put_i64(*i),
            Value::Float(f) => k.put_f64(*f),
            Value::Bool(b) => k.put_bool(*b),
            Value::Str(s) => k.put_str(s),
            Value::Enum(ord, _) => k.put_i64(*ord as i64),
            Value::Adt(id, bytes) => k.put_raw(&adts.get(*id).ok()?.key_encode(bytes)?),
            _ => return None,
        }
        Some(k.into_bytes())
    }

    /// A fixed-length array of `n` nulls.
    pub fn null_array(n: usize) -> Value {
        Value::Array(vec![Value::Null; n])
    }

    /// An empty set.
    pub fn empty_set() -> Value {
        Value::Set(Vec::new())
    }
}

impl Value {
    /// Feed `h` a hash consistent with `==`: values that compare equal
    /// hash alike. Floats are the one case where bits and equality
    /// disagree — `-0.0 == 0.0`, so both hash as `0.0` (NaN equals
    /// nothing, so its hash is free).
    fn hash_into(&self, h: &mut DefaultHasher) {
        std::mem::discriminant(self).hash(h);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(h),
            Value::Float(f) => (if *f == 0.0 { 0.0 } else { *f }).to_bits().hash(h),
            Value::Bool(b) => b.hash(h),
            Value::Str(s) => s.hash(h),
            Value::Enum(ord, sym) => (ord, sym).hash(h),
            Value::Adt(id, bytes) => (id, bytes).hash(h),
            Value::Tuple(items) | Value::Set(items) | Value::Array(items) => {
                items.len().hash(h);
                items.iter().for_each(|i| i.hash_into(h));
            }
            Value::Ref(oid) => oid.0.hash(h),
        }
    }
}

/// Builds a [`Value::Set`] from a stream of values, keeping the first of
/// every run of equal values in arrival order — what repeated
/// [`Value::set_insert`] yields, without its scan of the members per
/// insert: candidates are found through a hash consistent with `==` and
/// confirmed with `==`, so the two agree by construction.
#[derive(Debug, Default)]
pub struct SetBuilder {
    members: Vec<Value>,
    /// Hash → index of the latest member with that hash.
    heads: HashMap<u64, u32>,
    /// Per member: the previous member with the same hash.
    prev: Vec<Option<u32>>,
}

impl SetBuilder {
    /// Insert `v` unless an equal member is present; whether it was new.
    pub fn insert(&mut self, v: Value) -> bool {
        let mut h = DefaultHasher::new();
        v.hash_into(&mut h);
        let hash = h.finish();
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            if self.members[i as usize] == v {
                return false;
            }
            at = self.prev[i as usize];
        }
        self.prev
            .push(self.heads.insert(hash, self.members.len() as u32));
        self.members.push(v);
        true
    }

    /// The set built so far.
    pub fn finish(self) -> Value {
        Value::Set(self.members)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Display without an ADT registry renders ADTs opaquely.
        match self {
            Value::Adt(id, bytes) => write!(f, "{id}({} bytes)", bytes.len()),
            other => {
                let reg = AdtRegistry::new();
                write!(f, "{}", other.render(&reg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Attribute;

    fn regs() -> (TypeRegistry, AdtRegistry) {
        (TypeRegistry::new(), AdtRegistry::new())
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).truthy().unwrap());
        assert!(!Value::Bool(false).truthy().unwrap());
        assert!(!Value::Null.truthy().unwrap(), "null qualifies as false");
        assert!(Value::Int(1).truthy().is_err());
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
        assert!(s.set_insert(Value::Int(1)).unwrap());
        assert!(s.set_insert(Value::Int(2)).unwrap());
        assert!(!s.set_insert(Value::Int(1)).unwrap(), "duplicate rejected");
        let t = Value::Set(vec![Value::Int(2), Value::Int(3)]);
        assert_eq!(
            s.set_union(&t).unwrap(),
            Value::Set(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
        assert_eq!(
            s.set_intersect(&t).unwrap(),
            Value::Set(vec![Value::Int(2)])
        );
        assert_eq!(s.set_minus(&t).unwrap(), Value::Set(vec![Value::Int(1)]));
        assert!(Value::Int(1).set_insert(Value::Int(1)).is_err());
    }

    #[test]
    fn one_based_array_indexing() {
        let a = Value::Array(vec![Value::Int(10), Value::Int(20)]);
        assert_eq!(a.array_index(1).unwrap(), &Value::Int(10));
        assert_eq!(a.array_index(2).unwrap(), &Value::Int(20));
        assert!(matches!(
            a.array_index(0),
            Err(ModelError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            a.array_index(3),
            Err(ModelError::IndexOutOfRange { .. })
        ));
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
}
