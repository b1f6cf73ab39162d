//! The ADT facility: user-defined base types.
//!
//! The paper adds new base types through abstract data types written in the
//! E language and registered with the system, each supplying its storage
//! format, functions, and operators — with operator precedence and
//! associativity chosen by the type definer, and with table-driven
//! information telling the optimizer which access methods apply (§4.1).
//!
//! Here an ADT is a Rust value implementing [`AdtType`] (the substitution
//! for an E dbclass; see DESIGN.md). The contract is the same:
//!
//! * a byte-level storage format, produced by [`AdtType::parse`] and
//!   rendered by [`AdtType::display`];
//! * named [`AdtFunction`]s over [`Value`]s (invocable as
//!   `x.Add(y)` or symmetrically `Add(x, y)` in EXCESS);
//! * registered [`AdtOperator`]s mapping symbols to functions with a
//!   user-specified precedence and associativity;
//! * an optional order-preserving key encoding, which is exactly the
//!   "access method applicability" table entry: an ADT with a key encoding
//!   supports comparisons and B+-tree indexes.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::{ModelError, ModelResult};
use crate::value::Value;

/// Implementation signature of an ADT function body.
pub type AdtFnBody = Arc<dyn Fn(&[Value]) -> ModelResult<Value> + Send + Sync>;

/// Declared result type of an ADT function (for static type checking in
/// the EXCESS semantic analyzer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdtReturn {
    /// Returns a value of the same ADT.
    SameAdt,
    /// Returns an integer.
    Int,
    /// Returns a float.
    Float,
    /// Returns a boolean.
    Bool,
    /// Returns a string.
    Varchar,
}

/// Identifies a registered ADT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AdtId(pub u32);

impl fmt::Display for AdtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "adt#{}", self.0)
    }
}

/// Operator associativity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Assoc {
    /// Groups left-to-right.
    Left,
    /// Groups right-to-left.
    Right,
}

/// A function exported by an ADT.
#[derive(Clone)]
pub struct AdtFunction {
    /// Function name as written in EXCESS.
    pub name: String,
    /// Number of arguments (including the receiver).
    pub arity: usize,
    /// Declared result type.
    pub returns: AdtReturn,
    /// The implementation.
    pub body: AdtFnBody,
}

impl fmt::Debug for AdtFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AdtFunction({}/{})", self.name, self.arity)
    }
}

/// An operator registration: symbol → function, with parser guidance.
///
/// The paper: "it is possible to introduce new operators (any legal EXCESS
/// identifier or sequence of punctuation characters may be used). For new
/// operators, we require the precedence and associativity of the operator
/// to be specified."
#[derive(Debug, Clone)]
pub struct AdtOperator {
    /// Operator symbol (punctuation sequence or identifier).
    pub symbol: String,
    /// Binding strength; higher binds tighter. Built-in EXCESS levels:
    /// `or`=1, `and`=2, comparisons=3, `+ -`=4, `* /`=5.
    pub precedence: u8,
    /// Associativity.
    pub assoc: Assoc,
    /// Name of the [`AdtFunction`] implementing the operator.
    pub function: String,
    /// 1 = prefix, 2 = infix.
    pub arity: usize,
}

/// A user-defined base type. The trait is object-safe; implementations are
/// registered with [`AdtRegistry::register`].
pub trait AdtType: Send + Sync {
    /// The type's name as written in schemas (e.g. `Date`).
    fn name(&self) -> &str;

    /// Parse a literal into the storage format.
    fn parse(&self, literal: &str) -> ModelResult<Vec<u8>>;

    /// Render a stored value for output.
    fn display(&self, bytes: &[u8]) -> String;

    /// Whether the type has a total order. An ordered type must implement
    /// [`AdtType::key_encode`]; ordering makes it comparable
    /// (`< <= > >=`) and B+-tree indexable — this is the access-method
    /// applicability entry the optimizer consults.
    fn ordered(&self) -> bool {
        false
    }

    /// Order-preserving key encoding for ordered types.
    fn key_encode(&self, bytes: &[u8]) -> Option<Vec<u8>> {
        let _ = bytes;
        None
    }

    /// Functions exported by the type.
    fn functions(&self) -> Vec<AdtFunction> {
        Vec::new()
    }

    /// Operators registered by the type.
    fn operators(&self) -> Vec<AdtOperator> {
        Vec::new()
    }
}

/// The ADT registry: dynamic, as the paper requires ("so that ADTs can be
/// easily added dynamically").
#[derive(Default, Clone)]
pub struct AdtRegistry {
    adts: Vec<Arc<dyn AdtType>>,
    by_name: HashMap<String, AdtId>,
    /// Function table: `(adt, function name)` → function.
    functions: HashMap<(AdtId, String), AdtFunction>,
    /// Operator table: symbol → candidate `(adt, operator)` entries.
    operators: HashMap<String, Vec<(AdtId, AdtOperator)>>,
}

impl fmt::Debug for AdtRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AdtRegistry({} adts)", self.adts.len())
    }
}

impl AdtRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the paper's example ADTs
    /// (`Date`, `Complex`, `Polygon`).
    pub fn with_builtins() -> Self {
        let mut r = Self::new();
        r.register(Arc::new(crate::adts::date::DateAdt))
            .expect("fresh registry");
        r.register(Arc::new(crate::adts::complex::ComplexAdt))
            .expect("fresh registry");
        r.register(Arc::new(crate::adts::polygon::PolygonAdt))
            .expect("fresh registry");
        r
    }

    /// Register a new ADT, indexing its functions and operators.
    pub fn register(&mut self, adt: Arc<dyn AdtType>) -> ModelResult<AdtId> {
        let name = adt.name().to_string();
        if self.by_name.contains_key(&name) {
            return Err(ModelError::DuplicateType(name));
        }
        let id = AdtId(self.adts.len() as u32);
        for f in adt.functions() {
            self.functions.insert((id, f.name.clone()), f);
        }
        for op in adt.operators() {
            if !self.functions.contains_key(&(id, op.function.clone())) {
                return Err(ModelError::AdtError(format!(
                    "ADT '{}' registers operator '{}' for missing function '{}'",
                    name, op.symbol, op.function
                )));
            }
            self.operators
                .entry(op.symbol.clone())
                .or_default()
                .push((id, op));
        }
        self.by_name.insert(name, id);
        self.adts.push(adt);
        Ok(id)
    }

    /// Look up an ADT by name.
    pub fn lookup(&self, name: &str) -> ModelResult<AdtId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ModelError::UnknownAdt(name.into()))
    }

    /// Whether a name is a registered ADT.
    pub fn contains(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    /// Get an ADT by id; an error, not a panic, for an id this registry
    /// never issued (ids also arrive from stored records, the wire and
    /// catalog images).
    pub fn get(&self, id: AdtId) -> ModelResult<&Arc<dyn AdtType>> {
        self.adts
            .get(id.0 as usize)
            .ok_or_else(|| ModelError::UnknownAdt(id.to_string()))
    }

    /// Parse a literal of the named ADT.
    pub fn parse(&self, id: AdtId, literal: &str) -> ModelResult<Value> {
        Ok(Value::Adt(id, self.get(id)?.parse(literal)?))
    }

    /// Render an ADT value (the bare id and length when the ADT is not
    /// registered here).
    pub fn display(&self, id: AdtId, bytes: &[u8]) -> String {
        match self.get(id) {
            Ok(adt) => adt.display(bytes),
            Err(_) => format!("<{id}: {} bytes>", bytes.len()),
        }
    }

    /// Whether the ADT supports ordering (and thus indexes) — the
    /// access-method applicability lookup.
    pub fn indexable(&self, id: AdtId) -> bool {
        self.get(id).is_ok_and(|a| a.ordered())
    }

    /// Look up a function on a specific ADT.
    pub fn function(&self, id: AdtId, name: &str) -> ModelResult<&AdtFunction> {
        let adt = self.get(id)?;
        self.functions
            .get(&(id, name.to_string()))
            .ok_or_else(|| ModelError::UnknownAdt(format!("{}.{}", adt.name(), name)))
    }

    /// All registrations for an operator symbol.
    pub fn operator_candidates(&self, symbol: &str) -> &[(AdtId, AdtOperator)] {
        self.operators
            .get(symbol)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Every registered operator symbol with its parse properties
    /// (the EXCESS parser folds these into its operator table).
    pub fn operator_symbols(&self) -> impl Iterator<Item = (&str, u8, Assoc, usize)> {
        self.operators.iter().flat_map(|(sym, regs)| {
            regs.iter()
                .map(move |(_, op)| (sym.as_str(), op.precedence, op.assoc, op.arity))
        })
    }

    /// Apply an operator to evaluated arguments: dispatch on the first
    /// ADT-typed argument.
    pub fn apply_operator(&self, symbol: &str, args: &[Value]) -> ModelResult<Value> {
        let recv = args
            .iter()
            .find_map(|v| match v {
                Value::Adt(id, _) => Some(*id),
                _ => None,
            })
            .ok_or_else(|| ModelError::UnknownAdt(format!("operator {symbol}")))?;
        let adt = self.get(recv)?;
        let cands = self.operator_candidates(symbol);
        let (id, op) = cands
            .iter()
            .find(|(id, op)| *id == recv && op.arity == args.len())
            .ok_or_else(|| {
                ModelError::UnknownAdt(format!(
                    "operator {symbol}/{} on {}",
                    args.len(),
                    adt.name()
                ))
            })?;
        let f = self.function(*id, &op.function)?;
        (f.body)(args)
    }

    /// Key-encode an ADT value for indexing/comparison.
    pub fn key_encode(&self, id: AdtId, bytes: &[u8]) -> ModelResult<Vec<u8>> {
        let adt = self.get(id)?;
        adt.key_encode(bytes)
            .ok_or_else(|| ModelError::AdtError(format!("ADT '{}' is not ordered", adt.name())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Celsius;

    impl AdtType for Celsius {
        fn name(&self) -> &str {
            "Celsius"
        }
        fn parse(&self, literal: &str) -> ModelResult<Vec<u8>> {
            let v: f64 = literal
                .trim()
                .parse()
                .map_err(|e| ModelError::AdtError(format!("bad Celsius literal: {e}")))?;
            Ok(v.to_le_bytes().to_vec())
        }
        fn display(&self, bytes: &[u8]) -> String {
            let mut a = [0u8; 8];
            a.copy_from_slice(bytes);
            format!("{}°C", f64::from_le_bytes(a))
        }
        fn functions(&self) -> Vec<AdtFunction> {
            vec![AdtFunction {
                name: "Warmer".into(),
                arity: 2,
                returns: AdtReturn::Bool,
                body: Arc::new(|args| {
                    let get = |v: &Value| -> ModelResult<f64> {
                        match v {
                            Value::Adt(_, b) => {
                                let mut a = [0u8; 8];
                                a.copy_from_slice(b);
                                Ok(f64::from_le_bytes(a))
                            }
                            other => Err(ModelError::AdtError(format!("not Celsius: {other:?}"))),
                        }
                    };
                    Ok(Value::Bool(get(&args[0])? > get(&args[1])?))
                }),
            }]
        }
        fn operators(&self) -> Vec<AdtOperator> {
            vec![AdtOperator {
                symbol: ">>".into(),
                precedence: 3,
                assoc: Assoc::Left,
                function: "Warmer".into(),
                arity: 2,
            }]
        }
    }

    #[test]
    fn register_parse_display() {
        let mut reg = AdtRegistry::new();
        let id = reg.register(Arc::new(Celsius)).unwrap();
        let v = reg.parse(id, "21.5").unwrap();
        match &v {
            Value::Adt(got, bytes) => {
                assert_eq!(*got, id);
                assert_eq!(reg.display(id, bytes), "21.5°C");
            }
            other => panic!("expected adt value, got {other:?}"),
        }
        assert!(reg.parse(id, "hot").is_err());
    }

    #[test]
    fn duplicate_registration_rejected() {
        let mut reg = AdtRegistry::new();
        reg.register(Arc::new(Celsius)).unwrap();
        assert!(matches!(
            reg.register(Arc::new(Celsius)),
            Err(ModelError::DuplicateType(_))
        ));
    }

    #[test]
    fn function_and_operator_dispatch() {
        let mut reg = AdtRegistry::new();
        let id = reg.register(Arc::new(Celsius)).unwrap();
        let a = reg.parse(id, "30").unwrap();
        let b = reg.parse(id, "20").unwrap();
        let f = reg.function(id, "Warmer").unwrap();
        assert_eq!(
            (f.body)(&[a.clone(), b.clone()]).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            reg.apply_operator(">>", &[b, a]).unwrap(),
            Value::Bool(false)
        );
        assert!(reg.function(id, "Cooler").is_err());
        assert!(reg
            .apply_operator("@@", &[reg.parse(id, "1").unwrap()])
            .is_err());
    }

    #[test]
    fn operator_for_missing_function_rejected() {
        struct Broken;
        impl AdtType for Broken {
            fn name(&self) -> &str {
                "Broken"
            }
            fn parse(&self, _: &str) -> ModelResult<Vec<u8>> {
                Ok(vec![])
            }
            fn display(&self, _: &[u8]) -> String {
                String::new()
            }
            fn operators(&self) -> Vec<AdtOperator> {
                vec![AdtOperator {
                    symbol: "!!".into(),
                    precedence: 4,
                    assoc: Assoc::Left,
                    function: "Nothing".into(),
                    arity: 2,
                }]
            }
        }
        let mut reg = AdtRegistry::new();
        assert!(matches!(
            reg.register(Arc::new(Broken)),
            Err(ModelError::AdtError(_))
        ));
    }

    #[test]
    fn an_id_the_registry_never_issued_errs_instead_of_panicking() {
        // Ids arrive from stored records, the wire and catalog images.
        let reg = AdtRegistry::with_builtins();
        let stray = Value::Adt(AdtId(99), vec![1, 2, 3]);
        assert!(reg.get(AdtId(99)).is_err());
        assert!(matches!(
            reg.parse(AdtId(99), "x"),
            Err(ModelError::UnknownAdt(_))
        ));
        assert!(reg.function(AdtId(99), "F").is_err());
        assert!(reg.key_encode(AdtId(99), &[]).is_err());
        assert!(reg
            .apply_operator("+", std::slice::from_ref(&stray))
            .is_err());
        assert!(!reg.indexable(AdtId(99)));
        assert_eq!(stray.render(&reg), "<adt#99: 3 bytes>");
        assert_eq!(stray.key_encode(&reg), None);
        assert_eq!(stray.compare(&stray, &reg), None);
    }

    #[test]
    fn builtins_present() {
        let reg = AdtRegistry::with_builtins();
        assert!(reg.contains("Date"));
        assert!(reg.contains("Complex"));
        assert!(reg.contains("Polygon"));
    }
}
