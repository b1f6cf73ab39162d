//! Evaluator unit tests: compile tiny expressions against an empty
//! catalog and check value semantics directly.

use excess_exec::eval::{eval, ExecCtx};
use excess_exec::{CExpr, Compiler, Env, MemberId};
use excess_lang::{parse_statement, OperatorTable, Stmt};
use excess_sema::catalog::EmptyCatalog;
use excess_sema::SemaCtx;
use exodus_storage::StorageManager;
use extra_model::{AdtRegistry, ObjectStore, QualType, Type, TypeRegistry, Value};

struct Harness {
    types: TypeRegistry,
    adts: AdtRegistry,
    catalog: EmptyCatalog,
    store: ObjectStore,
    /// Open for the whole test, as a statement's is in production;
    /// reads at `TS_LATEST` see its writes.
    _txn: exodus_storage::WriteTxn,
}

impl Harness {
    fn new() -> Harness {
        let store = ObjectStore::new(StorageManager::in_memory(64)).unwrap();
        let _txn = store.storage().begin_txn().unwrap();
        Harness {
            types: TypeRegistry::new(),
            adts: AdtRegistry::with_builtins(),
            catalog: EmptyCatalog,
            store,
            _txn,
        }
    }

    fn compile(&self, src: &str, vars: &[(&str, QualType)]) -> CExpr {
        let stmt = parse_statement(&format!("retrieve ({src})"), &OperatorTable::new()).unwrap();
        let expr = match stmt {
            Stmt::Retrieve { mut targets, .. } => targets.remove(0).expr,
            _ => unreachable!(),
        };
        let mut ctx = SemaCtx::new(&self.types, &self.adts, &self.catalog);
        for (n, q) in vars {
            ctx.vars.insert((*n).to_string(), q.clone());
        }
        let typed = ctx.check(&expr).unwrap();
        Compiler::new(&ctx).compile(&typed).unwrap()
    }

    fn ctx(&self) -> ExecCtx<'_> {
        ExecCtx::new(
            &self.store,
            &self.types,
            &self.adts,
            &self.catalog,
            exodus_storage::TS_LATEST,
        )
    }

    fn eval(&self, e: &CExpr, env: &Env) -> Value {
        let ctx = self.ctx();
        eval(e, &ctx, env).unwrap()
    }

    fn eval_err(&self, e: &CExpr, env: &Env) -> String {
        let ctx = self.ctx();
        eval(e, &ctx, env).unwrap_err().to_string()
    }

    fn run(&self, src: &str) -> Value {
        let e = self.compile(src, &[]);
        self.eval(&e, &Env::new())
    }
}

#[test]
fn arithmetic_semantics() {
    let h = Harness::new();
    assert_eq!(h.run("2 + 3 * 4"), Value::Int(14));
    assert_eq!(h.run("7 / 2"), Value::Int(3));
    assert_eq!(h.run("7.0 / 2"), Value::Float(3.5));
    assert_eq!(h.run("7 % 4"), Value::Int(3));
    assert_eq!(h.run("-(2 + 3)"), Value::Int(-5));
    assert_eq!(h.run("2 + null"), Value::Null, "null propagates");
    assert!(h
        .eval_err(&h.compile("1 / 0", &[]), &Env::new())
        .contains("zero"));
}

#[test]
fn comparison_semantics() {
    let h = Harness::new();
    assert_eq!(h.run("1 < 2"), Value::Bool(true));
    assert_eq!(
        h.run("2 = 2.0"),
        Value::Bool(true),
        "cross-type numeric equality"
    );
    assert_eq!(h.run("\"abc\" < \"abd\""), Value::Bool(true));
    assert_eq!(
        h.run("null = null"),
        Value::Bool(false),
        "null never equals"
    );
    assert_eq!(h.run("null is null"), Value::Bool(true));
    assert_eq!(h.run("1 != 2"), Value::Bool(true));
}

#[test]
fn boolean_short_circuit() {
    let h = Harness::new();
    // The right side would divide by zero; short-circuit avoids it.
    assert_eq!(h.run("false and 1 / 0 = 1"), Value::Bool(false));
    assert_eq!(h.run("true or 1 / 0 = 1"), Value::Bool(true));
    assert_eq!(h.run("not false"), Value::Bool(true));
    // A null truth value does not qualify, and `not` keeps it null.
    assert_eq!(h.run("null and true"), Value::Bool(false));
    assert_eq!(h.run("null or true"), Value::Bool(true));
    assert_eq!(h.run("null or false"), Value::Bool(false));
    assert_eq!(h.run("not null"), Value::Null);
}

#[test]
fn set_semantics() {
    let h = Harness::new();
    assert_eq!(h.run("2 in {1, 2, 3}"), Value::Bool(true));
    assert_eq!(h.run("{1, 2} contains 3"), Value::Bool(false));
    match h.run("{1, 2} union {2, 3}") {
        Value::Set(m) => assert_eq!(m.len(), 3),
        other => panic!("{other:?}"),
    }
    assert_eq!(h.run("null in {1}"), Value::Bool(false));
    // Set literals dedupe.
    match h.run("{1, 1, 1}") {
        Value::Set(m) => assert_eq!(m.len(), 1),
        other => panic!("{other:?}"),
    }
}

#[test]
fn adt_dispatch() {
    let h = Harness::new();
    assert_eq!(h.run("Year(Date(\"8/29/1953\"))"), Value::Int(1953));
    match h.run("Date(\"1/1/1980\")") {
        Value::Adt(_, _) => {}
        other => panic!("{other:?}"),
    }
    assert_eq!(
        h.run("Date(\"1/1/1980\") < Date(\"2/1/1980\")"),
        Value::Bool(true)
    );
    // Complex arithmetic through the overloaded operator.
    match h.run("Complex(\"(1, 2)\") + Complex(\"(3, 4)\")") {
        Value::Adt(id, bytes) => {
            assert_eq!(h.adts.display(id, &bytes), "(4, 6)");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn variables_and_paths_deref_through_refs() {
    let mut h2 = Harness::new();
    let p2 = h2
        .types
        .define(
            "P",
            vec![],
            vec![
                extra_model::Attribute::own("name", Type::varchar()),
                extra_model::Attribute::own("age", Type::int4()),
            ],
        )
        .unwrap();
    let oid = h2
        .store
        .create_object(
            &h2.types,
            &QualType::own(Type::Schema(p2)),
            Value::Tuple(vec![Value::str("ann"), Value::Int(30)]),
        )
        .unwrap();
    let e = h2.compile("x.age + 1", &[("x", QualType::reference(Type::Schema(p2)))]);
    let mut env = Env::new();
    env.bind("x", Value::Ref(oid), MemberId::Object(oid));
    assert_eq!(h2.eval(&e, &env), Value::Int(31));
}

#[test]
fn array_indexing_is_one_based() {
    let h = Harness::new();
    let arr_q = QualType::own(Type::Array(None, Box::new(QualType::own(Type::int4()))));
    let e = h.compile("a[2]", &[("a", arr_q.clone())]);
    let mut env = Env::new();
    env.bind(
        "a",
        Value::Array(vec![Value::Int(10), Value::Int(20)]),
        MemberId::None,
    );
    assert_eq!(h.eval(&e, &env), Value::Int(20));
    let e0 = h.compile("a[0]", &[("a", arr_q)]);
    assert!(h.eval_err(&e0, &env).contains("1-based"));
}

/// Values whose `==` and whose bytes disagree, or that merely look
/// alike — the cases a hash dedupe gets wrong if it hashes what it
/// should not — nested up to `depth` levels of sets, tuples and arrays.
fn tricky_value(depth: u32) -> proptest::strategy::BoxedStrategy<Value> {
    use proptest::prelude::*;
    let leaf = prop_oneof![
        Just(Value::Null),
        Just(Value::Float(0.0)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(2.0)),
        Just(Value::Int(2)),
        Just(Value::Int(0)),
        (0u64..4).prop_map(|o| Value::Ref(exodus_storage::Oid(o))),
        "[ab]{0,2}".prop_map(Value::Str),
        (0u16..2, "[ab]").prop_map(|(o, s)| Value::Enum(o, s)),
        any::<bool>().prop_map(Value::Bool),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let items = || prop::collection::vec(tricky_value(depth - 1), 0..3);
    prop_oneof![
        leaf,
        items().prop_map(Value::Set),
        items().prop_map(Value::Tuple),
        items().prop_map(Value::Array),
    ]
    .boxed()
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

    /// `SetBuilder` — the hash dedupe behind `unique`, user set
    /// functions and set-returning functions — keeps exactly the members
    /// `Value::set_insert`'s scan with `==` keeps, in the same order.
    #[test]
    fn set_builder_agrees_with_set_insert(
        values in proptest::collection::vec(tricky_value(2), 0..24),
    ) {
        let mut scanned = Value::empty_set();
        let mut hashed = extra_model::SetBuilder::default();
        for v in values {
            let new = scanned.set_insert(v.clone());
            proptest::prop_assert_eq!(hashed.insert(v), new);
        }
        let (Value::Set(a), Value::Set(b)) = (scanned, hashed.finish()) else {
            unreachable!()
        };
        // NaN members are unequal to themselves: compare renderings.
        proptest::prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn set_builder_edge_cases() {
    let mut set = extra_model::SetBuilder::default();
    assert!(set.insert(Value::Float(0.0)));
    assert!(!set.insert(Value::Float(-0.0)), "-0.0 == 0.0");
    assert!(set.insert(Value::Int(2)));
    assert!(!set.insert(Value::Float(2.0)), "2 = 2.0");
    assert!(set.insert(Value::Float(f64::NAN)));
    assert!(set.insert(Value::Float(f64::NAN)), "NaN equals nothing");
    assert!(set.insert(Value::Ref(exodus_storage::Oid(7))));
    assert!(
        !set.insert(Value::Ref(exodus_storage::Oid(7))),
        "refs dedupe by oid"
    );
    let nested = |z: f64| Value::Set(vec![Value::Tuple(vec![Value::Float(z)])]);
    assert!(set.insert(nested(0.0)));
    assert!(
        !set.insert(nested(-0.0)),
        "equality reaches into nested sets"
    );
    assert!(set.insert(Value::Set(vec![Value::Int(1), Value::Int(2)])));
    assert!(
        !set.insert(Value::Set(vec![Value::Float(2.0), Value::Int(1)])),
        "sets are equal whatever their members' order"
    );
}
