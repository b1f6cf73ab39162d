//! The `Date` ADT (paper Figure 1 uses a `Date`-typed attribute).
//!
//! Storage format: a single little-endian `u32` packing
//! `year << 9 | month << 5 | day`, which is order-preserving when compared
//! field-major. Literals accept `M/D/YYYY` (the paper's American style)
//! and ISO `YYYY-MM-DD`.

use std::sync::Arc;

use crate::adt::{AdtFunction, AdtReturn, AdtType};
use crate::error::{ModelError, ModelResult};
use crate::value::Value;

/// The `Date` abstract data type.
pub struct DateAdt;

fn pack(y: u32, m: u32, d: u32) -> ModelResult<Vec<u8>> {
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) || y > 8000 {
        return Err(ModelError::AdtError(format!("invalid date {m}/{d}/{y}")));
    }
    Ok(((y << 9) | (m << 5) | d).to_le_bytes().to_vec())
}

fn unpack(bytes: &[u8]) -> ModelResult<(u32, u32, u32)> {
    if bytes.len() != 4 {
        return Err(ModelError::AdtError("corrupt Date value".into()));
    }
    let mut a = [0u8; 4];
    a.copy_from_slice(bytes);
    let v = u32::from_le_bytes(a);
    Ok((v >> 9, (v >> 5) & 0xF, v & 0x1F))
}

fn date_arg(v: &Value) -> ModelResult<(u32, u32, u32)> {
    match v {
        Value::Adt(_, bytes) => unpack(bytes),
        other => Err(ModelError::AdtError(format!(
            "expected a Date, got {}",
            other.kind()
        ))),
    }
}

/// Days from a civil date (proleptic Gregorian), for date arithmetic.
fn days_from_civil(y: i64, m: i64, d: i64) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = (m + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146097 + doe - 719468
}

fn civil_from_days(z: i64) -> (i64, i64, i64) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = (mp + 2) % 12 + 1;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

impl AdtType for DateAdt {
    fn name(&self) -> &str {
        "Date"
    }

    fn parse(&self, literal: &str) -> ModelResult<Vec<u8>> {
        let s = literal.trim().trim_matches('"');
        let bad = || ModelError::AdtError(format!("bad Date literal '{s}'"));
        if let Some((y, rest)) = s.split_once('-') {
            // ISO: YYYY-MM-DD
            let (m, d) = rest.split_once('-').ok_or_else(bad)?;
            return pack(
                y.parse().map_err(|_| bad())?,
                m.parse().map_err(|_| bad())?,
                d.parse().map_err(|_| bad())?,
            );
        }
        // American: M/D/YYYY
        let mut it = s.split('/');
        let (m, d, y) = (
            it.next().ok_or_else(bad)?,
            it.next().ok_or_else(bad)?,
            it.next().ok_or_else(bad)?,
        );
        if it.next().is_some() {
            return Err(bad());
        }
        pack(
            y.parse().map_err(|_| bad())?,
            m.parse().map_err(|_| bad())?,
            d.parse().map_err(|_| bad())?,
        )
    }

    fn display(&self, bytes: &[u8]) -> String {
        match unpack(bytes) {
            Ok((y, m, d)) => format!("{m}/{d}/{y}"),
            Err(_) => "<corrupt Date>".into(),
        }
    }

    fn ordered(&self) -> bool {
        true
    }

    fn key_encode(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let (y, m, d) = unpack(bytes).ok()?;
        Some(((y << 9) | (m << 5) | d).to_be_bytes().to_vec())
    }

    fn functions(&self) -> Vec<AdtFunction> {
        vec![
            AdtFunction {
                name: "Year".into(),
                arity: 1,
                returns: AdtReturn::Int,
                body: Arc::new(|args| Ok(Value::Int(date_arg(&args[0])?.0 as i64))),
            },
            AdtFunction {
                name: "Month".into(),
                arity: 1,
                returns: AdtReturn::Int,
                body: Arc::new(|args| Ok(Value::Int(date_arg(&args[0])?.1 as i64))),
            },
            AdtFunction {
                name: "Day".into(),
                arity: 1,
                returns: AdtReturn::Int,
                body: Arc::new(|args| Ok(Value::Int(date_arg(&args[0])?.2 as i64))),
            },
            AdtFunction {
                name: "AddDays".into(),
                arity: 2,
                returns: AdtReturn::SameAdt,
                body: Arc::new(|args| {
                    let (y, m, d) = date_arg(&args[0])?;
                    let n = args[1]
                        .as_i64()
                        .ok_or_else(|| ModelError::AdtError("AddDays takes an integer".into()))?;
                    let serial = days_from_civil(y as i64, m as i64, d as i64) + n;
                    let (y2, m2, d2) = civil_from_days(serial);
                    let id = match &args[0] {
                        Value::Adt(id, _) => *id,
                        _ => unreachable!("date_arg checked"),
                    };
                    Ok(Value::Adt(id, pack(y2 as u32, m2 as u32, d2 as u32)?))
                }),
            },
            AdtFunction {
                name: "DaysBetween".into(),
                arity: 2,
                returns: AdtReturn::Int,
                body: Arc::new(|args| {
                    let (y1, m1, d1) = date_arg(&args[0])?;
                    let (y2, m2, d2) = date_arg(&args[1])?;
                    Ok(Value::Int(
                        days_from_civil(y2 as i64, m2 as i64, d2 as i64)
                            - days_from_civil(y1 as i64, m1 as i64, d1 as i64),
                    ))
                }),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::AdtRegistry;

    fn reg() -> AdtRegistry {
        AdtRegistry::with_builtins()
    }

    #[test]
    fn parse_both_formats() {
        let r = reg();
        let id = r.lookup("Date").unwrap();
        let a = r.parse(id, "8/29/1988").unwrap();
        let b = r.parse(id, "1988-08-29").unwrap();
        assert_eq!(a, b);
        match a {
            Value::Adt(_, bytes) => assert_eq!(r.display(id, &bytes), "8/29/1988"),
            _ => panic!("not adt"),
        }
        assert!(r.parse(id, "13/1/1990").is_err());
        assert!(r.parse(id, "not a date").is_err());
    }

    #[test]
    fn ordering_matches_chronology() {
        let r = reg();
        let id = r.lookup("Date").unwrap();
        assert!(r.indexable(id));
        let parse = |s: &str| match r.parse(id, s).unwrap() {
            Value::Adt(_, b) => b,
            _ => unreachable!(),
        };
        let dates = ["1953-08-29", "1987-01-02", "1987-12-31", "1988-06-01"];
        let keys: Vec<Vec<u8>> = dates
            .iter()
            .map(|d| r.key_encode(id, &parse(d)).unwrap())
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn date_functions() {
        let r = reg();
        let id = r.lookup("Date").unwrap();
        let d = r.parse(id, "2/28/1988").unwrap();
        let call = |name: &str, args: &[Value]| (r.function(id, name).unwrap().body)(args).unwrap();
        assert_eq!(call("Year", std::slice::from_ref(&d)), Value::Int(1988));
        assert_eq!(call("Month", std::slice::from_ref(&d)), Value::Int(2));
        assert_eq!(call("Day", std::slice::from_ref(&d)), Value::Int(28));
        // 1988 is a leap year: +2 days crosses Feb 29.
        let later = call("AddDays", &[d.clone(), Value::Int(2)]);
        match &later {
            Value::Adt(_, bytes) => assert_eq!(r.display(id, bytes), "3/1/1988"),
            _ => panic!("not adt"),
        }
        assert_eq!(call("DaysBetween", &[d, later]), Value::Int(2));
    }
}
