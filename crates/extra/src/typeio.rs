//! Byte serialization of EXTRA types, for the catalog image.
//!
//! The database persists its catalog as one versioned image (see
//! DESIGN.md §14); this module gives that image a stable binary form
//! for [`crate::types`] values. The registry and store halves live next
//! to their (private) state in [`crate::schema`] and [`crate::store`].
//!
//! Everything goes through the storage layer's
//! [`ByteWriter`]/[`ByteReader`] cursor, the same one
//! [`crate::valueio`] uses: tag bytes, varint counts and lengths,
//! little-endian fixed-width ids.

use exodus_storage::encoding::{ByteReader, ByteWriter};

use crate::adt::AdtId;
use crate::error::{ModelError, ModelResult};
use crate::schema::TypeId;
use crate::types::{Attribute, BaseType, Ownership, QualType, Type};

fn write_ownership(m: Ownership, w: &mut ByteWriter) {
    w.put_u8(match m {
        Ownership::Own => 0,
        Ownership::Ref => 1,
        Ownership::OwnRef => 2,
    });
}

fn read_ownership(r: &mut ByteReader<'_>) -> ModelResult<Ownership> {
    Ok(match r.get_u8()? {
        0 => Ownership::Own,
        1 => Ownership::Ref,
        2 => Ownership::OwnRef,
        t => return Err(ModelError::Integrity(format!("bad ownership tag {t}"))),
    })
}

fn write_base(b: &BaseType, w: &mut ByteWriter) {
    match b {
        BaseType::Int1 => w.put_u8(0),
        BaseType::Int2 => w.put_u8(1),
        BaseType::Int4 => w.put_u8(2),
        BaseType::Int8 => w.put_u8(3),
        BaseType::Float4 => w.put_u8(4),
        BaseType::Float8 => w.put_u8(5),
        BaseType::Boolean => w.put_u8(6),
        BaseType::Char(n) => {
            w.put_u8(7);
            w.put_varint(*n as u64);
        }
        BaseType::Varchar => w.put_u8(8),
        BaseType::Enum(syms) => {
            w.put_u8(9);
            w.put_varint(syms.len() as u64);
            for s in syms {
                w.put_str(s);
            }
        }
    }
}

fn read_base(r: &mut ByteReader<'_>) -> ModelResult<BaseType> {
    Ok(match r.get_u8()? {
        0 => BaseType::Int1,
        1 => BaseType::Int2,
        2 => BaseType::Int4,
        3 => BaseType::Int8,
        4 => BaseType::Float4,
        5 => BaseType::Float8,
        6 => BaseType::Boolean,
        7 => BaseType::Char(r.get_varint()? as usize),
        8 => BaseType::Varchar,
        9 => BaseType::Enum(
            (0..r.get_count()?)
                .map(|_| Ok(r.get_str()?.to_string()))
                .collect::<ModelResult<_>>()?,
        ),
        t => return Err(ModelError::Integrity(format!("bad base-type tag {t}"))),
    })
}

fn write_type(ty: &Type, w: &mut ByteWriter) {
    match ty {
        Type::Base(b) => {
            w.put_u8(0);
            write_base(b, w);
        }
        Type::Adt(id) => {
            w.put_u8(1);
            w.put_u32(id.0);
        }
        Type::Schema(id) => {
            w.put_u8(2);
            w.put_u32(id.0);
        }
        Type::Tuple(attrs) => {
            w.put_u8(3);
            w.put_varint(attrs.len() as u64);
            for a in attrs {
                write_attribute(a, w);
            }
        }
        Type::Set(e) => {
            w.put_u8(4);
            write_qty(e, w);
        }
        Type::Array(n, e) => {
            w.put_u8(5);
            match n {
                Some(n) => {
                    w.put_u8(1);
                    w.put_varint(*n as u64);
                }
                None => w.put_u8(0),
            }
            write_qty(e, w);
        }
        Type::Unknown => w.put_u8(6),
    }
}

/// Types nest (sets of tuples of arrays...); a hostile image must not
/// turn that recursion into a stack overflow.
const MAX_TYPE_DEPTH: usize = 64;

fn read_type(r: &mut ByteReader<'_>, depth: usize) -> ModelResult<Type> {
    if depth > MAX_TYPE_DEPTH {
        return Err(ModelError::Integrity(format!(
            "type nested deeper than {MAX_TYPE_DEPTH} levels"
        )));
    }
    Ok(match r.get_u8()? {
        0 => Type::Base(read_base(r)?),
        1 => Type::Adt(AdtId(r.get_u32()?)),
        2 => Type::Schema(TypeId(r.get_u32()?)),
        3 => Type::Tuple(
            (0..r.get_count()?)
                .map(|_| read_attribute_at(r, depth + 1))
                .collect::<ModelResult<_>>()?,
        ),
        4 => Type::Set(Box::new(read_qty_at(r, depth + 1)?)),
        5 => {
            let n = match r.get_u8()? {
                0 => None,
                1 => Some(r.get_varint()? as usize),
                t => return Err(ModelError::Integrity(format!("bad array-len tag {t}"))),
            };
            Type::Array(n, Box::new(read_qty_at(r, depth + 1)?))
        }
        6 => Type::Unknown,
        t => return Err(ModelError::Integrity(format!("bad type tag {t}"))),
    })
}

/// Append the encoding of a qualified type.
pub fn write_qty(q: &QualType, w: &mut ByteWriter) {
    write_ownership(q.mode, w);
    write_type(&q.ty, w);
}

/// Decode a qualified type.
pub fn read_qty(r: &mut ByteReader<'_>) -> ModelResult<QualType> {
    read_qty_at(r, 0)
}

fn read_qty_at(r: &mut ByteReader<'_>, depth: usize) -> ModelResult<QualType> {
    Ok(QualType {
        mode: read_ownership(r)?,
        ty: read_type(r, depth)?,
    })
}

/// Append the encoding of a named attribute.
pub fn write_attribute(a: &Attribute, w: &mut ByteWriter) {
    w.put_str(&a.name);
    write_qty(&a.qty, w);
}

/// Decode a named attribute.
pub fn read_attribute(r: &mut ByteReader<'_>) -> ModelResult<Attribute> {
    read_attribute_at(r, 0)
}

fn read_attribute_at(r: &mut ByteReader<'_>, depth: usize) -> ModelResult<Attribute> {
    let name = r.get_str()?.to_string();
    let qty = read_qty_at(r, depth)?;
    Ok(Attribute { name, qty })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_shape() {
        let samples = vec![
            QualType::own(Type::int4()),
            QualType::own(Type::Base(BaseType::Char(12))),
            QualType::own(Type::Base(BaseType::Enum(vec![
                "red".into(),
                "blue".into(),
            ]))),
            QualType::reference(Type::Schema(TypeId(7))),
            QualType::own_ref(Type::Schema(TypeId(0))),
            QualType::own(Type::Adt(AdtId(3))),
            QualType::own(Type::Set(Box::new(QualType::reference(Type::Schema(
                TypeId(2),
            ))))),
            QualType::own(Type::Array(
                Some(10),
                Box::new(QualType::own(Type::float8())),
            )),
            QualType::own(Type::Array(None, Box::new(QualType::own(Type::varchar())))),
            QualType::own(Type::Tuple(vec![
                Attribute::own("x", Type::int4()),
                Attribute::own_ref("y", Type::Schema(TypeId(1))),
            ])),
            QualType::own(Type::Unknown),
        ];
        for q in &samples {
            let mut w = ByteWriter::new();
            write_qty(q, &mut w);
            let buf = w.into_bytes();
            let mut r = ByteReader::new(&buf);
            assert_eq!(&read_qty(&mut r).unwrap(), q);
            assert_eq!(r.remaining(), 0, "trailing bytes for {q:?}");
        }
    }

    #[test]
    fn truncation_and_deep_nesting_are_errors_not_panics() {
        let mut w = ByteWriter::new();
        write_qty(
            &QualType::own(Type::Base(BaseType::Enum(vec!["a".into(), "b".into()]))),
            &mut w,
        );
        let buf = w.into_bytes();
        for cut in 0..buf.len() {
            assert!(read_qty(&mut ByteReader::new(&buf[..cut])).is_err());
        }
        // `own {own {own ...}}`, far past the depth bound.
        let nested: Vec<u8> = [0u8, 4].repeat(10_000);
        assert!(read_qty(&mut ByteReader::new(&nested)).is_err());
    }
}
