//! The `Polygon` ADT — standing in for the geometric/engineering data
//! types motivating EXTRA's ADT facility (\[Lohm83, Kemp87\]).
//!
//! Storage format: `n: u32` then `n` × (`x: f64`, `y: f64`), vertices in
//! ring order. Literals: `((x1 y1) (x2 y2) ...)`. Supplies area,
//! perimeter, point containment and bounding-box overlap — the kinds of
//! predicates a spatial access method would be registered for.

use std::sync::Arc;

use crate::adt::{AdtFunction, AdtOperator, AdtReturn, AdtType, Assoc};
use crate::error::{ModelError, ModelResult};
use crate::value::Value;

/// The `Polygon` abstract data type.
pub struct PolygonAdt;

fn pack(points: &[(f64, f64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + points.len() * 16);
    out.extend_from_slice(&(points.len() as u32).to_le_bytes());
    for (x, y) in points {
        out.extend_from_slice(&x.to_le_bytes());
        out.extend_from_slice(&y.to_le_bytes());
    }
    out
}

fn unpack(bytes: &[u8]) -> ModelResult<Vec<(f64, f64)>> {
    if bytes.len() < 4 {
        return Err(ModelError::AdtError("corrupt Polygon value".into()));
    }
    let mut n = [0u8; 4];
    n.copy_from_slice(&bytes[..4]);
    let n = u32::from_le_bytes(n) as usize;
    if bytes.len() != 4 + n * 16 {
        return Err(ModelError::AdtError("corrupt Polygon value".into()));
    }
    let mut points = Vec::with_capacity(n);
    for i in 0..n {
        let off = 4 + i * 16;
        let mut x = [0u8; 8];
        let mut y = [0u8; 8];
        x.copy_from_slice(&bytes[off..off + 8]);
        y.copy_from_slice(&bytes[off + 8..off + 16]);
        points.push((f64::from_le_bytes(x), f64::from_le_bytes(y)));
    }
    Ok(points)
}

fn poly_arg(v: &Value) -> ModelResult<Vec<(f64, f64)>> {
    match v {
        Value::Adt(_, bytes) => unpack(bytes),
        other => Err(ModelError::AdtError(format!(
            "expected a Polygon, got {}",
            other.kind()
        ))),
    }
}

fn signed_area(pts: &[(f64, f64)]) -> f64 {
    let n = pts.len();
    let mut s = 0.0;
    for i in 0..n {
        let (x1, y1) = pts[i];
        let (x2, y2) = pts[(i + 1) % n];
        s += x1 * y2 - x2 * y1;
    }
    s / 2.0
}

fn bbox(pts: &[(f64, f64)]) -> (f64, f64, f64, f64) {
    let mut b = (
        f64::INFINITY,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NEG_INFINITY,
    );
    for &(x, y) in pts {
        b.0 = b.0.min(x);
        b.1 = b.1.min(y);
        b.2 = b.2.max(x);
        b.3 = b.3.max(y);
    }
    b
}

impl AdtType for PolygonAdt {
    fn name(&self) -> &str {
        "Polygon"
    }

    fn parse(&self, literal: &str) -> ModelResult<Vec<u8>> {
        let s = literal.trim();
        let bad = || ModelError::AdtError(format!("bad Polygon literal '{s}'"));
        let inner = s
            .strip_prefix('(')
            .and_then(|x| x.strip_suffix(')'))
            .ok_or_else(bad)?;
        let mut points = Vec::new();
        let mut rest = inner.trim();
        while !rest.is_empty() {
            let open = rest.find('(').ok_or_else(bad)?;
            let close = rest[open..].find(')').ok_or_else(bad)? + open;
            let pair = &rest[open + 1..close];
            let mut it = pair.split_whitespace();
            let x: f64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            let y: f64 = it.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
            if it.next().is_some() {
                return Err(bad());
            }
            points.push((x, y));
            rest = rest[close + 1..].trim();
        }
        if points.len() < 3 {
            return Err(ModelError::AdtError(
                "a Polygon needs at least 3 vertices".into(),
            ));
        }
        Ok(pack(&points))
    }

    fn display(&self, bytes: &[u8]) -> String {
        match unpack(bytes) {
            Ok(points) => {
                let inner: Vec<String> = points.iter().map(|(x, y)| format!("({x} {y})")).collect();
                format!("({})", inner.join(" "))
            }
            Err(_) => "<corrupt Polygon>".into(),
        }
    }

    fn functions(&self) -> Vec<AdtFunction> {
        vec![
            AdtFunction {
                name: "Area".into(),
                arity: 1,
                returns: AdtReturn::Float,
                body: Arc::new(|args| Ok(Value::Float(signed_area(&poly_arg(&args[0])?).abs()))),
            },
            AdtFunction {
                name: "Perimeter".into(),
                arity: 1,
                returns: AdtReturn::Float,
                body: Arc::new(|args| {
                    let pts = poly_arg(&args[0])?;
                    let n = pts.len();
                    let mut p = 0.0;
                    for i in 0..n {
                        let (x1, y1) = pts[i];
                        let (x2, y2) = pts[(i + 1) % n];
                        p += ((x2 - x1).powi(2) + (y2 - y1).powi(2)).sqrt();
                    }
                    Ok(Value::Float(p))
                }),
            },
            AdtFunction {
                name: "NumVertices".into(),
                arity: 1,
                returns: AdtReturn::Int,
                body: Arc::new(|args| Ok(Value::Int(poly_arg(&args[0])?.len() as i64))),
            },
            AdtFunction {
                name: "Contains".into(),
                arity: 3,
                returns: AdtReturn::Bool,
                body: Arc::new(|args| {
                    // Ray casting: Contains(poly, x, y).
                    let pts = poly_arg(&args[0])?;
                    let (Some(px), Some(py)) = (args[1].as_f64(), args[2].as_f64()) else {
                        return Err(ModelError::AdtError("Contains takes two numbers".into()));
                    };
                    let n = pts.len();
                    let mut inside = false;
                    let mut j = n - 1;
                    for i in 0..n {
                        let (xi, yi) = pts[i];
                        let (xj, yj) = pts[j];
                        if ((yi > py) != (yj > py)) && (px < (xj - xi) * (py - yi) / (yj - yi) + xi)
                        {
                            inside = !inside;
                        }
                        j = i;
                    }
                    Ok(Value::Bool(inside))
                }),
            },
            AdtFunction {
                name: "Overlaps".into(),
                arity: 2,
                returns: AdtReturn::Bool,
                body: Arc::new(|args| {
                    // Bounding-box overlap — the filter step a spatial
                    // index would implement.
                    let a = bbox(&poly_arg(&args[0])?);
                    let b = bbox(&poly_arg(&args[1])?);
                    Ok(Value::Bool(
                        a.0 <= b.2 && b.0 <= a.2 && a.1 <= b.3 && b.1 <= a.3,
                    ))
                }),
            },
        ]
    }

    fn operators(&self) -> Vec<AdtOperator> {
        // A brand-new punctuation operator with definer-chosen precedence:
        // `&&&` = Overlaps, binding like a comparison.
        vec![AdtOperator {
            symbol: "&&&".into(),
            precedence: 3,
            assoc: Assoc::Left,
            function: "Overlaps".into(),
            arity: 2,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adt::AdtRegistry;

    fn setup() -> (AdtRegistry, crate::adt::AdtId) {
        let r = AdtRegistry::with_builtins();
        let id = r.lookup("Polygon").unwrap();
        (r, id)
    }

    #[test]
    fn parse_display_round_trip() {
        let (r, id) = setup();
        let v = r.parse(id, "((0 0) (4 0) (4 3) (0 3))").unwrap();
        match &v {
            Value::Adt(_, b) => assert_eq!(r.display(id, b), "((0 0) (4 0) (4 3) (0 3))"),
            _ => panic!("not adt"),
        }
        assert!(r.parse(id, "((0 0) (1 1))").is_err(), "too few vertices");
        assert!(r.parse(id, "nonsense").is_err());
    }

    #[test]
    fn geometry_functions() {
        let (r, id) = setup();
        let rect = r.parse(id, "((0 0) (4 0) (4 3) (0 3))").unwrap();
        let call = |name: &str, args: &[Value]| (r.function(id, name).unwrap().body)(args).unwrap();
        assert_eq!(
            call("Area", std::slice::from_ref(&rect)),
            Value::Float(12.0)
        );
        assert_eq!(
            call("Perimeter", std::slice::from_ref(&rect)),
            Value::Float(14.0)
        );
        assert_eq!(
            call("NumVertices", std::slice::from_ref(&rect)),
            Value::Int(4)
        );
        assert_eq!(
            call(
                "Contains",
                &[rect.clone(), Value::Float(2.0), Value::Float(1.0)]
            ),
            Value::Bool(true)
        );
        assert_eq!(
            call(
                "Contains",
                &[rect.clone(), Value::Float(9.0), Value::Float(1.0)]
            ),
            Value::Bool(false)
        );
    }

    #[test]
    fn overlap_operator() {
        let (r, id) = setup();
        let a = r.parse(id, "((0 0) (2 0) (2 2) (0 2))").unwrap();
        let b = r.parse(id, "((1 1) (3 1) (3 3) (1 3))").unwrap();
        let c = r.parse(id, "((10 10) (11 10) (11 11) (10 11))").unwrap();
        assert_eq!(
            r.apply_operator("&&&", &[a.clone(), b]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            r.apply_operator("&&&", &[a, c]).unwrap(),
            Value::Bool(false)
        );
    }
}
