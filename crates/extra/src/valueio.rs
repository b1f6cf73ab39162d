//! Self-describing binary encoding of [`Value`]s.
//!
//! Object records store their value in this format. The encoding is
//! self-describing (a tag byte per value) so the store can walk and
//! rewrite values (e.g. nulling out dangling references) without schema
//! access; conformance to the declared type is checked before writes, not
//! on reads.

use exodus_storage::encoding::{ByteReader, ByteWriter};
use exodus_storage::{Oid, StorageError};

use crate::adt::AdtId;
use crate::error::{ModelError, ModelResult};
use crate::value::Value;

const T_NULL: u8 = 0;
const T_INT: u8 = 1;
const T_FLOAT: u8 = 2;
const T_BOOL: u8 = 3;
const T_STR: u8 = 4;
const T_ENUM: u8 = 5;
const T_ADT: u8 = 6;
const T_TUPLE: u8 = 7;
const T_SET: u8 = 8;
const T_ARRAY: u8 = 9;
const T_REF: u8 = 10;

/// Encode a value into `w`.
pub fn encode_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(T_NULL),
        Value::Int(i) => {
            w.put_u8(T_INT);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(T_FLOAT);
            w.put_f64(*f);
        }
        Value::Bool(b) => {
            w.put_u8(T_BOOL);
            w.put_u8(*b as u8);
        }
        Value::Str(s) => {
            w.put_u8(T_STR);
            w.put_str(s);
        }
        Value::Enum(ord, sym) => {
            w.put_u8(T_ENUM);
            w.put_u16(*ord);
            w.put_str(sym);
        }
        Value::Adt(id, bytes) => {
            w.put_u8(T_ADT);
            w.put_u32(id.0);
            w.put_bytes(bytes);
        }
        Value::Tuple(fs) => {
            w.put_u8(T_TUPLE);
            w.put_varint(fs.len() as u64);
            for f in fs {
                encode_value(w, f);
            }
        }
        Value::Set(ms) => {
            w.put_u8(T_SET);
            w.put_varint(ms.len() as u64);
            for m in ms {
                encode_value(w, m);
            }
        }
        Value::Array(items) => {
            w.put_u8(T_ARRAY);
            w.put_varint(items.len() as u64);
            for i in items {
                encode_value(w, i);
            }
        }
        Value::Ref(oid) => {
            w.put_u8(T_REF);
            w.put_u64(oid.0);
        }
    }
}

/// Serialize a value to bytes.
pub fn to_bytes(v: &Value) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode_value(&mut w, v);
    w.into_bytes()
}

/// Decode one value from `r`.
pub fn decode_value(r: &mut ByteReader<'_>) -> ModelResult<Value> {
    let corrupt = |m: &str| ModelError::Storage(StorageError::Corrupt(m.into()));
    match r.get_u8()? {
        T_NULL => Ok(Value::Null),
        T_INT => Ok(Value::Int(r.get_i64()?)),
        T_FLOAT => Ok(Value::Float(r.get_f64()?)),
        T_BOOL => Ok(Value::Bool(r.get_u8()? != 0)),
        T_STR => Ok(Value::Str(r.get_str()?.to_string())),
        T_ENUM => {
            let ord = r.get_u16()?;
            Ok(Value::Enum(ord, r.get_str()?.to_string()))
        }
        T_ADT => {
            let id = AdtId(r.get_u32()?);
            Ok(Value::Adt(id, r.get_bytes()?.to_vec()))
        }
        T_TUPLE => {
            let n = r.get_varint()? as usize;
            let mut fs = Vec::with_capacity(n);
            for _ in 0..n {
                fs.push(decode_value(r)?);
            }
            Ok(Value::Tuple(fs))
        }
        T_SET => {
            let n = r.get_varint()? as usize;
            let mut ms = Vec::with_capacity(n);
            for _ in 0..n {
                ms.push(decode_value(r)?);
            }
            Ok(Value::Set(ms))
        }
        T_ARRAY => {
            let n = r.get_varint()? as usize;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(decode_value(r)?);
            }
            Ok(Value::Array(items))
        }
        T_REF => Ok(Value::Ref(Oid(r.get_u64()?))),
        other => Err(corrupt(&format!("unknown value tag {other}"))),
    }
}

/// A varint at the head of `b`: its value and its width in bytes.
fn varint_at(b: &[u8]) -> Option<(usize, usize)> {
    let mut v = 0u64;
    for (i, &byte) in b.iter().enumerate().take(10) {
        v |= ((byte & 0x7F) as u64) << (7 * i);
        if byte & 0x80 == 0 {
            return Some((v as usize, i + 1));
        }
    }
    None
}

/// Width in bytes of the encoded value at the head of `b`, found without
/// materializing (or validating) anything in it. `None` when the bytes
/// end early or the tag is unknown.
fn encoded_len(b: &[u8]) -> Option<usize> {
    let (&tag, rest) = b.split_first()?;
    let body = match tag {
        T_NULL => 0,
        T_BOOL => 1,
        T_INT | T_FLOAT | T_REF => 8,
        T_STR => {
            let (n, w) = varint_at(rest)?;
            w.checked_add(n)?
        }
        T_ENUM => {
            let (n, w) = varint_at(rest.get(2..)?)?;
            (2 + w).checked_add(n)?
        }
        T_ADT => {
            let (n, w) = varint_at(rest.get(4..)?)?;
            (4 + w).checked_add(n)?
        }
        T_TUPLE | T_SET | T_ARRAY => {
            let (n, mut at) = varint_at(rest)?;
            for _ in 0..n {
                at += encoded_len(rest.get(at..)?)?;
            }
            at
        }
        _ => return None,
    };
    (body < b.len()).then_some(1 + body)
}

fn truncated() -> ModelError {
    ModelError::Storage(StorageError::Corrupt("record truncated".into()))
}

/// The encoding of field `pos` of the tuple at the head of `bytes` (and
/// whatever follows it), the fields before it stepped over tag by tag
/// instead of decoded. `None` when the bytes are not a tuple or `pos` is
/// out of range.
fn tuple_field_bytes(bytes: &[u8], pos: usize) -> ModelResult<Option<&[u8]>> {
    let Some((&T_TUPLE, rest)) = bytes.split_first() else {
        return Ok(None);
    };
    let (n, mut at) = varint_at(rest).ok_or_else(truncated)?;
    if pos >= n {
        return Ok(None);
    }
    for _ in 0..pos {
        at += rest.get(at..).and_then(encoded_len).ok_or_else(truncated)?;
    }
    rest.get(at..).map(Some).ok_or_else(truncated)
}

/// Decode only field `pos` of a top-level tuple, skipping its siblings.
///
/// The projected-attribute fast path (`E.dept.budget` derefs `E` for one
/// field): fields before `pos` are stepped over tag-by-tag instead of
/// decoded, so nothing is allocated or validated for them. Returns `None`
/// when the bytes are not a tuple or `pos` is out of range — callers fall
/// back to a full decode, which reproduces the ordinary error (or
/// ref-chasing) behavior.
pub fn tuple_field_from_bytes(bytes: &[u8], pos: usize) -> ModelResult<Option<Value>> {
    tuple_field_bytes(bytes, pos)?
        .map(|field| decode_value(&mut ByteReader::new(field)))
        .transpose()
}

/// Decode only fields `attrs` of each member of the set or array in field
/// `pos` of a top-level tuple, appending them to `out` member by member;
/// the number of members read. Null members (unfilled array slots) are
/// skipped and nothing else is decoded: what an unnest binds of members
/// whose plan reads only those attributes. Returns `None` where
/// [`tuple_field_from_bytes`] does, and when the field is not a set,
/// array or null or a member lacks one of `attrs` — callers fall back to
/// the whole field.
pub fn member_fields_from_bytes(
    bytes: &[u8],
    pos: usize,
    attrs: &[usize],
    out: &mut Vec<Value>,
) -> ModelResult<Option<usize>> {
    let Some(field) = tuple_field_bytes(bytes, pos)? else {
        return Ok(None);
    };
    let (n, mut at) = match field.split_first() {
        None => return Err(truncated()),
        Some((&T_NULL, _)) => return Ok(Some(0)),
        Some((&(T_SET | T_ARRAY), rest)) => varint_at(rest).ok_or_else(truncated)?,
        Some(_) => return Ok(None),
    };
    let (start, mut members) = (out.len(), 0);
    for _ in 0..n {
        let member = field.get(1 + at..).ok_or_else(truncated)?;
        at += encoded_len(member).ok_or_else(truncated)?;
        if member[0] == T_NULL {
            continue;
        }
        for &a in attrs {
            let Some(f) = tuple_field_bytes(member, a)? else {
                out.truncate(start);
                return Ok(None);
            };
            out.push(decode_value(&mut ByteReader::new(f))?);
        }
        members += 1;
    }
    Ok(Some(members))
}

/// Deserialize a value from bytes.
pub fn from_bytes(bytes: &[u8]) -> ModelResult<Value> {
    let mut r = ByteReader::new(bytes);
    let v = decode_value(&mut r)?;
    if r.remaining() != 0 {
        return Err(ModelError::Storage(StorageError::Corrupt(format!(
            "{} trailing bytes after value",
            r.remaining()
        ))));
    }
    Ok(v)
}
