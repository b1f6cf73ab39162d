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
//! EXCESS. The equality of EXCESS itself — `=`, `in`/`contains` and set
//! deduplication — is [`Value::member_eq`]: structural too, except that
//! numbers compare across int and float (`1 = 1.0`) and sets compare
//! without regard to member order. Recursive value-equality in the sense
//! of \[Banc86\] requires the store and lives in
//! [`crate::store::ObjectStore::deep_eq`].

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

    /// A number as a float (`None` for anything else).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// An integer (`None` for anything else).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Ordering between two values, if they are comparable. Numeric types
    /// cross-compare exactly; strings, booleans, and enums compare
    /// naturally; ADT values compare through their key encoding.
    /// References are *not* comparable (the paper restricts them to
    /// `is`/`isnot`). Null compares to nothing, nor does NaN.
    pub fn compare(&self, other: &Value, adts: &AdtRegistry) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Float(b)) => int_cmp_float(*a, *b),
            (Value::Float(a), Value::Int(b)) => int_cmp_float(*b, *a).map(Ordering::reverse),
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
    /// Whether it was new; a value that is not a set takes nothing.
    pub fn set_insert(&mut self, v: Value) -> bool {
        match self {
            Value::Set(members) if !members.iter().any(|m| m.member_eq(&v)) => {
                members.push(v);
                true
            }
            _ => false,
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

/// `f` as the integer it equals exactly, if any.
fn exact_int(f: f64) -> Option<i64> {
    // -2^63 is i64::MIN; 2^63 is the first float past i64::MAX.
    const LIMIT: f64 = -(i64::MIN as f64);
    (f.fract() == 0.0 && (-LIMIT..LIMIT).contains(&f)).then_some(f as i64)
}

/// `i` against `f`, exactly: no rounding of `i` to a float.
fn int_cmp_float(i: i64, f: f64) -> Option<Ordering> {
    if f.is_nan() {
        return None;
    }
    let t = f.trunc();
    Some(match exact_int(t) {
        Some(t) => i.cmp(&t).then(0.0.partial_cmp(&f.fract())?),
        None if t > 0.0 => Ordering::Less,
        None => Ordering::Greater,
    })
}

impl Value {
    /// The equality of EXCESS: what `=`, `in`/`contains`, set
    /// deduplication and the hash join's key match all use. Structural,
    /// except that numbers compare across int and float exactly (`1 =
    /// 1.0`, no rounding past 2^53) and sets compare as sets: each member
    /// of either is in the other, in any order. NaN equals nothing.
    pub fn member_eq(&self, other: &Value) -> bool {
        let pairwise = |a: &[Value], b: &[Value]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.member_eq(y))
        };
        let within = |a: &[Value], b: &[Value]| a.iter().all(|x| b.iter().any(|y| x.member_eq(y)));
        match (self, other) {
            (Value::Int(i), Value::Float(f)) | (Value::Float(f), Value::Int(i)) => {
                exact_int(*f) == Some(*i)
            }
            (Value::Tuple(a), Value::Tuple(b)) | (Value::Array(a), Value::Array(b)) => {
                pairwise(a, b)
            }
            (Value::Set(a), Value::Set(b)) => within(a, b) && within(b, a),
            _ => self == other,
        }
    }

    /// A hash consistent with [`Value::member_eq`]: values it calls equal
    /// hash alike.
    pub fn member_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.member_hash_into(&mut h);
        h.finish()
    }

    fn member_hash_into(&self, h: &mut DefaultHasher) {
        // A float equal to an integer (`-0.0` too) hashes as that integer.
        if let Value::Float(f) = self {
            if let Some(i) = exact_int(*f) {
                return Value::Int(i).member_hash_into(h);
            }
        }
        std::mem::discriminant(self).hash(h);
        match self {
            Value::Null => {}
            Value::Int(i) => i.hash(h),
            Value::Float(f) => f.to_bits().hash(h),
            Value::Bool(b) => b.hash(h),
            Value::Str(s) => s.hash(h),
            Value::Enum(ord, sym) => (ord, sym).hash(h),
            Value::Adt(id, bytes) => (id, bytes).hash(h),
            Value::Tuple(items) | Value::Array(items) => {
                items.len().hash(h);
                items.iter().for_each(|i| i.member_hash_into(h));
            }
            // Blind to order and to repeats, as `member_eq` is: the least
            // and greatest member hash.
            Value::Set(items) => items
                .iter()
                .map(Value::member_hash)
                .fold((u64::MAX, 0), |(lo, hi), m| (lo.min(m), hi.max(m)))
                .hash(h),
            Value::Ref(oid) => oid.0.hash(h),
        }
    }
}

/// Builds a [`Value::Set`] from a stream of values, keeping the first of
/// every run of equal values in arrival order — what repeated
/// [`Value::set_insert`] yields, without its scan of the members per
/// insert: candidates are found through [`Value::member_hash`] and
/// confirmed with [`Value::member_eq`], so the two agree by construction.
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
        let hash = v.member_hash();
        let mut at = self.heads.get(&hash).copied();
        while let Some(i) = at {
            if self.members[i as usize].member_eq(&v) {
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
