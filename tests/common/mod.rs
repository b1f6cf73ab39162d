//! Fixtures shared between the top-level suites.

use extra_excess::model::adt::{AdtFunction, AdtOperator, AdtReturn, AdtType, Assoc};
use extra_excess::model::{ModelError, ModelResult};
use extra_excess::Value;

/// A rational-number ADT with a `**` operator and an ordered key
/// encoding: what an application registers at runtime.
pub struct Fraction;

fn frac(v: &Value) -> ModelResult<(i64, i64)> {
    match v {
        Value::Adt(_, b) if b.len() == 16 => {
            let mut n = [0u8; 8];
            let mut d = [0u8; 8];
            n.copy_from_slice(&b[..8]);
            d.copy_from_slice(&b[8..]);
            Ok((i64::from_le_bytes(n), i64::from_le_bytes(d)))
        }
        other => Err(ModelError::AdtError(format!(
            "not a Fraction: {}",
            other.kind()
        ))),
    }
}

impl AdtType for Fraction {
    fn name(&self) -> &str {
        "Fraction"
    }
    fn parse(&self, literal: &str) -> ModelResult<Vec<u8>> {
        let (n, d) = literal
            .split_once('/')
            .ok_or_else(|| ModelError::AdtError("want n/d".into()))?;
        let n: i64 = n
            .trim()
            .parse()
            .map_err(|_| ModelError::AdtError("bad n".into()))?;
        let d: i64 = d
            .trim()
            .parse()
            .map_err(|_| ModelError::AdtError("bad d".into()))?;
        if d == 0 {
            return Err(ModelError::AdtError("zero denominator".into()));
        }
        let mut out = n.to_le_bytes().to_vec();
        out.extend_from_slice(&d.to_le_bytes());
        Ok(out)
    }
    fn display(&self, bytes: &[u8]) -> String {
        match frac(&Value::Adt(extra_excess::model::AdtId(0), bytes.to_vec())) {
            Ok((n, d)) => format!("{n}/{d}"),
            Err(_) => "<bad>".into(),
        }
    }
    fn ordered(&self) -> bool {
        true
    }
    fn key_encode(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let (n, d) = frac(&Value::Adt(extra_excess::model::AdtId(0), bytes.to_vec())).ok()?;
        let mut k = extra_excess::storage::encoding::KeyWriter::new();
        k.put_f64(n as f64 / d as f64);
        Some(k.into_bytes())
    }
    fn functions(&self) -> Vec<AdtFunction> {
        vec![AdtFunction {
            name: "FracMul".into(),
            arity: 2,
            returns: AdtReturn::SameAdt,
            body: std::sync::Arc::new(|args| {
                let (an, ad) = frac(&args[0])?;
                let (bn, bd) = frac(&args[1])?;
                let id = match &args[0] {
                    Value::Adt(id, _) => *id,
                    _ => unreachable!(),
                };
                let mut out = (an * bn).to_le_bytes().to_vec();
                out.extend_from_slice(&(ad * bd).to_le_bytes());
                Ok(Value::Adt(id, out))
            }),
        }]
    }
    fn operators(&self) -> Vec<AdtOperator> {
        vec![AdtOperator {
            symbol: "**".into(),
            precedence: 5,
            assoc: Assoc::Left,
            function: "FracMul".into(),
            arity: 2,
        }]
    }
}
