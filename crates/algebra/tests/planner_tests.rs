//! Physical-planner tests: access-path selection, predicate pushdown, and
//! join ordering over a mock catalog.

use std::collections::HashMap;

use excess_algebra::{plan_retrieve, retrieve_read_sets, Physical, PlannerConfig};
use excess_lang::{parse_statement, OperatorTable, Stmt};
use excess_sema::{
    CatalogLookup, FunctionDef, IndexInfo, NamedObject, ProcedureDef, RangeEnv, SemaCtx,
};
use exodus_storage::Oid;
use extra_model::{AdtRegistry, Attribute, QualType, Type, TypeRegistry};

struct MockCatalog {
    named: HashMap<String, NamedObject>,
    sizes: HashMap<String, u64>,
    indexes: Vec<IndexInfo>,
}

impl CatalogLookup for MockCatalog {
    fn named(&self, name: &str) -> Option<NamedObject> {
        self.named.get(name).cloned()
    }
    fn functions_named(&self, _name: &str) -> Vec<FunctionDef> {
        Vec::new()
    }
    fn procedure(&self, _name: &str) -> Option<ProcedureDef> {
        None
    }
    fn index_on(&self, collection: &str, attr: &str) -> Option<IndexInfo> {
        self.indexes
            .iter()
            .find(|i| i.collection == collection && i.attr == attr)
            .cloned()
    }
    fn collection_size(&self, name: &str) -> Option<u64> {
        self.sizes.get(name).copied()
    }
}

struct Fixture {
    types: TypeRegistry,
    adts: AdtRegistry,
    catalog: MockCatalog,
}

fn fixture() -> Fixture {
    let mut types = TypeRegistry::new();
    let adts = AdtRegistry::with_builtins();
    let dept = types
        .define(
            "Department",
            vec![],
            vec![
                Attribute::own("dname", Type::varchar()),
                Attribute::own("floor", Type::int4()),
            ],
        )
        .unwrap();
    let person = types
        .define(
            "Person",
            vec![],
            vec![
                Attribute::own("name", Type::varchar()),
                Attribute::own("age", Type::int4()),
            ],
        )
        .unwrap();
    let emp = types
        .define(
            "Employee",
            vec![],
            vec![
                Attribute::own("name", Type::varchar()),
                Attribute::own("salary", Type::float8()),
                Attribute::reference("dept", Type::Schema(dept)),
                Attribute::own(
                    "kids",
                    Type::Set(Box::new(QualType::own(Type::Schema(person)))),
                ),
            ],
        )
        .unwrap();
    let coll = |name: &str, oid, tid| NamedObject {
        name: name.into(),
        oid: Oid(oid),
        qty: QualType::own(Type::Set(Box::new(QualType::own_ref(Type::Schema(tid))))),
        is_collection: true,
    };
    let mut named = HashMap::new();
    named.insert("Employees".into(), coll("Employees", 1, emp));
    named.insert("Departments".into(), coll("Departments", 2, dept));
    let mut sizes = HashMap::new();
    sizes.insert("Employees".into(), 100_000);
    sizes.insert("Departments".into(), 50);
    let indexes = vec![IndexInfo {
        name: "emp_salary".into(),
        collection: "Employees".into(),
        attr: "salary".into(),
        root: 99,
        unique: false,
    }];
    Fixture {
        types,
        adts,
        catalog: MockCatalog {
            named,
            sizes,
            indexes,
        },
    }
}

fn plan_with(f: &Fixture, src: &str, cfg: PlannerConfig) -> Physical {
    let ctx = SemaCtx::new(&f.types, &f.adts, &f.catalog);
    let stmt = parse_statement(src, &OperatorTable::new()).unwrap();
    let checked = ctx.check_retrieve(&stmt).unwrap();
    plan_retrieve(&checked, &ctx, cfg).unwrap()
}

fn plan(f: &Fixture, src: &str) -> Physical {
    plan_with(f, src, PlannerConfig::default())
}

fn render(p: &Physical) -> String {
    p.to_string()
}

#[test]
fn index_selected_for_equality_on_indexed_attr() {
    let f = fixture();
    let p = plan(
        &f,
        "retrieve (E.name) from E in Employees where E.salary = 50000.0",
    );
    let s = render(&p);
    assert!(s.contains("IndexScan"), "{s}");
    assert!(
        !s.contains("Filter"),
        "equality fully covered by the index:\n{s}"
    );
}

#[test]
fn index_selected_for_range_predicates() {
    let f = fixture();
    for op in ["<", "<=", ">", ">="] {
        let p = plan(
            &f,
            &format!("retrieve (E.name) from E in Employees where E.salary {op} 50000.0"),
        );
        assert!(render(&p).contains("IndexScan"), "op {op}: {}", render(&p));
    }
}

#[test]
fn no_index_without_matching_attr_or_flag() {
    let f = fixture();
    let p = plan(
        &f,
        "retrieve (E.name) from E in Employees where E.name = \"x\"",
    );
    assert!(render(&p).contains("SeqScan"), "{}", render(&p));
    let p = plan_with(
        &f,
        "retrieve (E.name) from E in Employees where E.salary = 1.0",
        PlannerConfig {
            use_indexes: false,
            ..Default::default()
        },
    );
    assert!(render(&p).contains("SeqScan"), "{}", render(&p));
}

#[test]
fn non_constant_predicates_do_not_use_index() {
    let f = fixture();
    let p = plan(
        &f,
        "retrieve (E.name) from E in Employees, E2 in Employees \
         where E.salary = E2.salary",
    );
    assert!(!render(&p).contains("IndexScan"), "{}", render(&p));
}

#[test]
fn pushdown_places_single_var_filters_below_join() {
    let f = fixture();
    let p = plan(
        &f,
        "retrieve (E.name, D.dname) from E in Employees, D in Departments \
         where E.name = \"x\" and D.floor = 2 and E.dept is D",
    );
    let s = render(&p);
    // Each single-variable conjunct sits directly on its scan; only the
    // join conjunct gates the nested loop.
    let nl = s.find("NestedLoop").expect("a join");
    let e_filter = s.find("Filter (E.name").expect("E filter");
    let d_filter = s.find("Filter (D.floor").expect("D filter");
    let join_filter = s.find("Filter (E.dept is D)").expect("join filter");
    assert!(join_filter < nl, "join predicate above the loop:\n{s}");
    assert!(
        e_filter > nl && d_filter > nl,
        "single-var filters pushed below:\n{s}"
    );
}

#[test]
fn pushdown_disabled_leaves_one_filter_on_top() {
    let f = fixture();
    let p = plan_with(
        &f,
        "retrieve (E.name, D.dname) from E in Employees, D in Departments \
         where E.name = \"x\" and D.floor = 2",
        PlannerConfig::naive(),
    );
    let s = render(&p);
    assert_eq!(s.matches("Filter").count(), 1, "one combined filter:\n{s}");
    let nl = s.find("NestedLoop").unwrap();
    assert!(
        s.find("Filter").unwrap() < nl,
        "filter above the join:\n{s}"
    );
}

#[test]
fn join_order_puts_small_collection_outer() {
    let f = fixture();
    let p = plan(
        &f,
        "retrieve (E.name, D.dname) from E in Employees, D in Departments \
         where E.dept is D",
    );
    let s = render(&p);
    // Departments (50) must be scanned on the outer side, Employees
    // (100k) inner.
    let d_pos = s.find("over Departments").unwrap();
    let e_pos = s.find("over Employees").unwrap();
    assert!(d_pos < e_pos, "small outer first:\n{s}");
    // Without reordering, declaration order (E first) wins.
    let p = plan_with(
        &f,
        "retrieve (E.name, D.dname) from E in Employees, D in Departments \
         where E.dept is D",
        PlannerConfig {
            reorder_joins: false,
            ..Default::default()
        },
    );
    let s = render(&p);
    let d_pos = s.find("over Departments").unwrap();
    let e_pos = s.find("over Employees").unwrap();
    assert!(e_pos < d_pos, "declaration order preserved:\n{s}");
}

/// A join's search reads each member count many times; a cached plan
/// checks each collection's once.
#[test]
fn join_search_records_each_collection_size_once() {
    let f = fixture();
    let ctx = SemaCtx::new(&f.types, &f.adts, &f.catalog);
    let src = "retrieve (E.name, D.dname) from E in Employees, D in Departments \
               where E.dept is D";
    let stmt = parse_statement(src, &OperatorTable::new()).unwrap();
    let checked = ctx.check_retrieve(&stmt).unwrap();
    plan_retrieve(&checked, &ctx, PlannerConfig::default()).unwrap();
    let mut read: Vec<_> = ctx.reads.borrow().sizes.clone();
    read.sort();
    assert_eq!(
        read,
        vec![("Departments".into(), 50), ("Employees".into(), 100_000)]
    );
}

#[test]
fn selective_filter_shrinks_estimated_outer() {
    let f = fixture();
    // With an equality filter on Employees, its estimated cardinality
    // (100k × 0.05 = 5k... still > 50) keeps Departments outer; with an
    // indexed equality the index scan estimate (5k) also stays inner.
    // Sanity: the plan still contains both scans and one loop.
    let p = plan(
        &f,
        "retrieve (E.name, D.dname) from E in Employees, D in Departments \
         where E.salary = 1.0 and E.dept is D",
    );
    let s = render(&p);
    assert_eq!(s.matches("NestedLoop").count(), 1, "{s}");
    assert!(s.contains("IndexScan"), "{s}");
}

#[test]
fn universal_bindings_become_universal_filter() {
    let f = fixture();
    let mut env = RangeEnv::default();
    let range = parse_statement("range of X is all Employees", &OperatorTable::new()).unwrap();
    match range {
        Stmt::RangeOf {
            var,
            universal,
            path,
        } => env.declare(&var, universal, path),
        _ => unreachable!(),
    }
    let stmt = parse_statement(
        "retrieve (D.dname) from D in Departments where X.salary < D.floor",
        &OperatorTable::new(),
    )
    .unwrap();
    let mut ctx = SemaCtx::new(&f.types, &f.adts, &f.catalog);
    ctx.ranges = &env;
    let checked = ctx.check_retrieve(&stmt).unwrap();
    let p = plan_retrieve(&checked, &ctx, PlannerConfig::default()).unwrap();
    let s = render(&p);
    assert!(s.contains("UniversalFilter forall X"), "{s}");
}

#[test]
fn adt_literal_bounds_compile_into_index_scan() {
    let mut f = fixture();
    // Add a Date attribute + index.
    let date = Type::Adt(f.adts.lookup("Date").unwrap());
    let hired = f
        .types
        .define(
            "Hire",
            vec![],
            vec![
                Attribute::own("who", Type::varchar()),
                Attribute::own("day", date),
            ],
        )
        .unwrap();
    f.catalog.named.insert(
        "Hires".into(),
        NamedObject {
            name: "Hires".into(),
            oid: Oid(7),
            qty: QualType::own(Type::Set(Box::new(QualType::own(Type::Schema(hired))))),
            is_collection: true,
        },
    );
    f.catalog.indexes.push(IndexInfo {
        name: "hire_day".into(),
        collection: "Hires".into(),
        attr: "day".into(),
        root: 123,
        unique: false,
    });
    let p = plan(
        &f,
        "retrieve (H.who) from H in Hires where H.day < Date(\"1/1/1980\")",
    );
    assert!(render(&p).contains("IndexScan"), "{}", render(&p));
    // Complex is unordered → key_encode fails → no index even if present.
    // (applicability table consulted.)
}

#[test]
fn constant_query_plans_to_unit() {
    let f = fixture();
    let p = plan(&f, "retrieve (1 + 2)");
    let s = render(&p);
    assert!(s.contains("Unit"), "{s}");
    assert!(!s.contains("Scan"), "{s}");
}

fn qual(src: &str) -> excess_lang::Expr {
    match parse_statement(&format!("retrieve (x) where {src}"), &OperatorTable::new()).unwrap() {
        Stmt::Retrieve { qual: Some(q), .. } => q,
        _ => unreachable!(),
    }
}

#[test]
fn const_eval_literals_and_adts() {
    use excess_algebra::rules::const_eval;
    use excess_lang::{Expr, Lit};
    use extra_model::Value;
    let (types, adts) = (TypeRegistry::new(), AdtRegistry::with_builtins());
    let ctx = SemaCtx::new(&types, &adts, &excess_sema::catalog::EmptyCatalog);
    assert_eq!(const_eval(&qual("x = 3").clone(), &ctx), None);
    let three = Expr::Lit(Lit::Int(3));
    assert_eq!(const_eval(&three, &ctx), Some(Value::Int(3)));
    let neg = Expr::Unary(excess_lang::UnOp::Neg, Box::new(three));
    assert_eq!(const_eval(&neg, &ctx), Some(Value::Int(-3)));
    let date = Expr::Call {
        recv: None,
        name: "Date".into(),
        args: vec![Expr::Lit(Lit::Str("1/2/1987".into()))],
    };
    assert!(matches!(const_eval(&date, &ctx), Some(Value::Adt(_, _))));
    // A negated hole's value decides the constant, so it is read.
    let neg_hole = Expr::Unary(excess_lang::UnOp::Neg, Box::new(Expr::Hole(4, Lit::Int(7))));
    assert_eq!(const_eval(&neg_hole, &ctx), Some(Value::Int(-7)));
    assert_eq!(ctx.reads.borrow().holes, vec![4]);
}

#[test]
fn indexable_pred_extraction() {
    use excess_algebra::rules::indexable_pred;
    use excess_lang::BinOp;
    use extra_model::Value;
    let (types, adts) = (TypeRegistry::new(), AdtRegistry::with_builtins());
    let ctx = SemaCtx::new(&types, &adts, &excess_sema::catalog::EmptyCatalog);
    let p = indexable_pred(&qual("E.age >= 30"), "E", &ctx).unwrap();
    assert_eq!(p.attr, "age");
    assert_eq!(p.op, BinOp::Ge);
    assert_eq!(p.value, Value::Int(30));
    // Flipped side normalizes.
    let p = indexable_pred(&qual("30 > E.age"), "E", &ctx).unwrap();
    assert_eq!(p.op, BinOp::Lt);
    // Wrong variable.
    assert!(indexable_pred(&qual("D.age = 30"), "E", &ctx).is_none());
    // Non-constant side.
    assert!(indexable_pred(&qual("E.age = D.age"), "E", &ctx).is_none());
    // Deep path is not single-attribute indexable.
    assert!(indexable_pred(&qual("E.dept.floor = 2"), "E", &ctx).is_none());
    // ADT constant.
    let p = indexable_pred(&qual("E.birthday < Date(\"1/1/1960\")"), "E", &ctx).unwrap();
    assert!(matches!(p.value, Value::Adt(_, _)));
    // A bare hole stays a hole: its value is bound per execution.
    let toks =
        excess_lang::lexer::lex("retrieve (x) where E.age < 30", &OperatorTable::new()).unwrap();
    let Stmt::Retrieve { qual: Some(q), .. } =
        excess_lang::parse_template("retrieve (x) where E.age < 30", toks, &OperatorTable::new())
            .unwrap()
    else {
        unreachable!()
    };
    let p = indexable_pred(&q, "E", &ctx).unwrap();
    assert_eq!((p.hole, p.value), (Some(0), Value::Int(30)));
    assert!(ctx.reads.borrow().holes.is_empty());
}

/// The read set of the unnest binding `var` in `p`, when one binds it.
fn read_set_of(p: &Physical, var: &str) -> Option<Option<Vec<usize>>> {
    match p {
        Physical::Unnest { input, binding, .. } if binding.var != var => read_set_of(input, var),
        Physical::Unnest { reads, .. } => Some(reads.clone()),
        Physical::NestedLoop { outer, inner } => {
            read_set_of(outer, var).or_else(|| read_set_of(inner, var))
        }
        Physical::Filter { input, .. }
        | Physical::Project { input, .. }
        | Physical::Sort { input, .. } => read_set_of(input, var),
        _ => None,
    }
}

#[test]
fn unnests_bind_the_member_attributes_their_plan_reads() {
    let f = fixture();
    let reads = |src: &str| {
        let ctx = SemaCtx::new(&f.types, &f.adts, &f.catalog);
        let stmt = parse_statement(src, &OperatorTable::new()).unwrap();
        let checked = ctx.check_retrieve(&stmt).unwrap();
        let p = plan_retrieve(&checked, &ctx, PlannerConfig::default()).unwrap();
        read_set_of(&retrieve_read_sets(p, &checked), "C").expect("an unnest binds C")
    };
    // Person (name 0, age 1): attribute steps in targets, quals and sort.
    assert_eq!(
        reads("retrieve (C.age) from C in Employees.kids where C.name = \"x\" order by C.age"),
        Some(vec![0, 1])
    );
    // The member used whole, looked up by a `by` list under the outer
    // row, or read by a correlated aggregate.
    for whole in [
        "retrieve (C) from C in Employees.kids",
        "retrieve (C.age, count(C over C by C.age)) from C in Employees.kids",
        "retrieve (C.name) from C in Employees.kids, E in Employees \
         where C.age < count(E over E where E.salary > C.age)",
    ] {
        assert_eq!(reads(whole), None, "{whole}");
    }
}
