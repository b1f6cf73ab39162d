//! Semantic-analysis tests over the paper's university/employee schema.

use std::collections::HashMap;

use excess_lang::{parse_statement, OperatorTable, Stmt};
use excess_sema::{
    CatalogLookup, FunctionDef, IndexInfo, NamedObject, RangeEnv, RootSource, SemaCtx, SemaError,
};
use exodus_storage::Oid;
use extra_model::schema::InheritSpec;
use extra_model::{AdtRegistry, Attribute, QualType, Type, TypeRegistry};

/// In-memory catalog with the paper's schema.
struct MockCatalog {
    named: HashMap<String, NamedObject>,
    functions: Vec<FunctionDef>,
}

impl CatalogLookup for MockCatalog {
    fn named(&self, name: &str) -> Option<NamedObject> {
        self.named.get(name).cloned()
    }
    fn functions_named(&self, name: &str) -> Vec<FunctionDef> {
        self.functions
            .iter()
            .filter(|f| f.name == name)
            .cloned()
            .collect()
    }
    fn procedure(&self, _name: &str) -> Option<excess_sema::ProcedureDef> {
        None
    }
    fn index_on(&self, _collection: &str, _attr: &str) -> Option<IndexInfo> {
        None
    }
    fn collection_size(&self, _name: &str) -> Option<u64> {
        Some(100)
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
    let date = Type::Adt(adts.lookup("Date").unwrap());
    let person = types
        .define(
            "Person",
            vec![],
            vec![
                Attribute::own("name", Type::varchar()),
                Attribute::own("age", Type::int4()),
                Attribute::own("birthday", date),
            ],
        )
        .unwrap();
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
    let employee = types
        .define(
            "Employee",
            vec![InheritSpec::plain("Person")],
            vec![
                Attribute::own("salary", Type::float8()),
                Attribute::reference("dept", Type::Schema(dept)),
                Attribute::own(
                    "kids",
                    Type::Set(Box::new(QualType::own_ref(Type::Schema(person)))),
                ),
                Attribute::own(
                    "ratings",
                    Type::Array(Some(4), Box::new(QualType::own(Type::float8()))),
                ),
            ],
        )
        .unwrap();

    let mut named = HashMap::new();
    named.insert(
        "Employees".to_string(),
        NamedObject {
            name: "Employees".into(),
            oid: Oid(1),
            qty: QualType::own(Type::Set(Box::new(QualType::own_ref(Type::Schema(
                employee,
            ))))),
            is_collection: true,
        },
    );
    named.insert(
        "Departments".to_string(),
        NamedObject {
            name: "Departments".into(),
            oid: Oid(2),
            qty: QualType::own(Type::Set(Box::new(QualType::own_ref(Type::Schema(dept))))),
            is_collection: true,
        },
    );
    named.insert(
        "StarEmployee".to_string(),
        NamedObject {
            name: "StarEmployee".into(),
            oid: Oid(3),
            qty: QualType::own(Type::Schema(employee)),
            is_collection: false,
        },
    );
    named.insert(
        "TopTen".to_string(),
        NamedObject {
            name: "TopTen".into(),
            oid: Oid(4),
            qty: QualType::own(Type::Array(
                Some(10),
                Box::new(QualType::reference(Type::Schema(employee))),
            )),
            is_collection: false,
        },
    );

    let functions = vec![FunctionDef {
        name: "earns".into(),
        params: vec![("e".into(), QualType::reference(Type::Schema(employee)))],
        returns: QualType::own(Type::float8()),
        body: parse_statement("retrieve (e.salary)", &OperatorTable::new()).unwrap(),
        attached_to: Some(employee),
    }];

    Fixture {
        types,
        adts,
        catalog: MockCatalog { named, functions },
    }
}

fn check(src: &str) -> Result<excess_sema::CheckedRetrieve, SemaError> {
    check_with_ranges(src, &[])
}

fn check_with_ranges(
    src: &str,
    ranges: &[(&str, bool, &str)],
) -> Result<excess_sema::CheckedRetrieve, SemaError> {
    let f = fixture();
    let mut env = RangeEnv::default();
    for (v, u, p) in ranges {
        let stmt = parse_statement(
            &format!("range of {v} is {}{p}", if *u { "all " } else { "" }),
            &OperatorTable::new(),
        )
        .unwrap();
        match stmt {
            Stmt::RangeOf {
                var,
                universal,
                path,
            } => env.declare(&var, universal, path),
            _ => unreachable!(),
        }
    }
    let stmt = parse_statement(src, &OperatorTable::new()).unwrap();
    let mut ctx = SemaCtx::new(&f.types, &f.adts, &f.catalog);
    ctx.ranges = &env;
    ctx.check_retrieve(&stmt)
}

#[test]
fn simple_range_query() {
    let checked = check_with_ranges(
        "retrieve (E.name, E.salary) where E.age > 30",
        &[("E", false, "Employees")],
    )
    .unwrap();
    assert_eq!(checked.bindings.len(), 1);
    assert_eq!(checked.bindings[0].var, "E");
    assert!(matches!(
        checked.bindings[0].root,
        RootSource::Collection(_)
    ));
    assert_eq!(checked.output.len(), 2);
    assert_eq!(checked.output[0].0, "name");
    assert_eq!(checked.output[0].1, QualType::own(Type::varchar()));
    assert_eq!(checked.output[1].1, QualType::own(Type::float8()));
}

#[test]
fn unused_session_ranges_do_not_join() {
    let checked = check_with_ranges(
        "retrieve (E.name)",
        &[("E", false, "Employees"), ("D", false, "Departments")],
    )
    .unwrap();
    assert_eq!(checked.bindings.len(), 1, "D is unused and must not join");
}

#[test]
fn figure4_nested_set_query() {
    // retrieve (C.name) from C in Employees.kids
    // where Employees.dept.floor = 2
    let checked =
        check("retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2").unwrap();
    // Two bindings: the implicit Employees member and C over its kids.
    assert_eq!(checked.bindings.len(), 2);
    assert_eq!(checked.bindings[0].var, "Employees");
    assert!(matches!(
        checked.bindings[0].root,
        RootSource::Collection(_)
    ));
    assert_eq!(checked.bindings[1].var, "C");
    assert_eq!(checked.bindings[1].depends_on(), Some("Employees"));
    assert_eq!(checked.bindings[1].steps, vec!["kids".to_string()]);
}

#[test]
fn implicit_join_through_path() {
    // E.dept.floor steps through a ref attribute transparently.
    let checked = check_with_ranges(
        "retrieve (E.dept.dname) where E.dept.floor = 2",
        &[("E", false, "Employees")],
    )
    .unwrap();
    assert_eq!(checked.output[0].0, "dname");
}

#[test]
fn dependent_range_on_variable() {
    let checked = check_with_ranges(
        "retrieve (C.name) where C.age < 10",
        &[("E", false, "Employees"), ("C", false, "E.kids")],
    )
    .unwrap();
    assert_eq!(checked.bindings.len(), 2);
    assert_eq!(checked.bindings[0].var, "E");
    assert_eq!(checked.bindings[1].var, "C");
    assert_eq!(checked.bindings[1].depends_on(), Some("E"));
}

#[test]
fn direct_retrieval_of_named_objects() {
    let checked = check("retrieve (StarEmployee.name, StarEmployee.salary)").unwrap();
    assert!(checked.bindings.is_empty(), "no iteration needed");
    assert_eq!(checked.output[0].1, QualType::own(Type::varchar()));
    // Array-of-refs indexing: TopTen[1].name.
    let checked = check("retrieve (TopTen[1].name, TopTen[1].salary)").unwrap();
    assert_eq!(checked.output[0].0, "name");
}

#[test]
fn refs_compare_only_with_is() {
    let err = check_with_ranges(
        "retrieve (E.name) where E.dept = E.dept",
        &[("E", false, "Employees")],
    )
    .unwrap_err();
    assert!(matches!(err, SemaError::RefComparison(_)), "{err}");
    // is works on refs.
    check_with_ranges(
        "retrieve (E.name) where E.dept is D",
        &[("E", false, "Employees"), ("D", false, "Departments")],
    )
    .unwrap();
    // is on values is rejected.
    let err = check_with_ranges(
        "retrieve (E.name) where E.age is E.age",
        &[("E", false, "Employees")],
    )
    .unwrap_err();
    assert!(matches!(err, SemaError::IsOnValue(_)), "{err}");
}

#[test]
fn unknown_names_and_attributes() {
    let err = check("retrieve (Nobody.name)").unwrap_err();
    assert!(matches!(err, SemaError::UnknownName(_)), "{err}");
    let err = check_with_ranges("retrieve (E.wages)", &[("E", false, "Employees")]).unwrap_err();
    assert!(matches!(err, SemaError::UnknownAttribute { .. }), "{err}");
}

#[test]
fn aggregates_type_and_scope() {
    let checked = check_with_ranges(
        "retrieve (avg(E.salary over E))",
        &[("E", false, "Employees")],
    )
    .unwrap();
    assert_eq!(checked.output[0].1, QualType::own(Type::float8()));
    let checked = check_with_ranges(
        "retrieve (count(E over E by E.dept.dname))",
        &[("E", false, "Employees")],
    )
    .unwrap();
    assert_eq!(
        checked.output[0].1,
        QualType::own(Type::Base(extra_model::BaseType::Int8))
    );
    // over an unknown variable.
    let err = check_with_ranges(
        "retrieve (avg(E.salary over Z))",
        &[("E", false, "Employees")],
    )
    .unwrap_err();
    assert!(matches!(err, SemaError::Aggregate(_)), "{err}");
    // sum of a string.
    let err = check_with_ranges(
        "retrieve (sum(E.name over E))",
        &[("E", false, "Employees")],
    )
    .unwrap_err();
    assert!(matches!(err, SemaError::Aggregate(_)), "{err}");
    // unique returns a set.
    let checked = check_with_ranges(
        "retrieve (unique(E.dept.dname over E))",
        &[("E", false, "Employees")],
    )
    .unwrap();
    assert!(matches!(checked.output[0].1.ty, Type::Set(_)));
}

#[test]
fn adt_functions_and_literals() {
    // Date constructor literal + comparison.
    check_with_ranges(
        "retrieve (E.name) where E.birthday < Date(\"1/1/1960\")",
        &[("E", false, "Employees")],
    )
    .unwrap();
    // Both call syntaxes type-check (Figure 7).
    let a =
        check_with_ranges("retrieve (E.birthday.Year())", &[("E", false, "Employees")]).unwrap();
    let b = check_with_ranges("retrieve (Year(E.birthday))", &[("E", false, "Employees")]).unwrap();
    assert_eq!(a.output[0].1, b.output[0].1);
    // Unknown ADT function.
    let err = check_with_ranges(
        "retrieve (E.birthday.Wobble())",
        &[("E", false, "Employees")],
    )
    .unwrap_err();
    assert!(matches!(err, SemaError::Function(_)), "{err}");
}

#[test]
fn excess_function_inherited_through_lattice() {
    // earns is defined for Employee; E ranges over Employees — fine.
    let checked = check_with_ranges("retrieve (earns(E))", &[("E", false, "Employees")]).unwrap();
    assert_eq!(checked.output[0].1, QualType::own(Type::float8()));
    // Method syntax too.
    check_with_ranges("retrieve (E.earns())", &[("E", false, "Employees")]).unwrap();
    // Not applicable to a Department.
    let err =
        check_with_ranges("retrieve (D.earns())", &[("D", false, "Departments")]).unwrap_err();
    assert!(matches!(err, SemaError::Function(_)), "{err}");
}

#[test]
fn arithmetic_and_set_ops() {
    let checked = check_with_ranges(
        "retrieve (E.salary * 1.1 + 500.0)",
        &[("E", false, "Employees")],
    )
    .unwrap();
    assert_eq!(checked.output[0].1, QualType::own(Type::float8()));
    let checked = check_with_ranges("retrieve ({1, 2} union {3})", &[]).unwrap();
    assert!(matches!(checked.output[0].1.ty, Type::Set(_)));
    let err = check_with_ranges("retrieve (1 union 2)", &[]).unwrap_err();
    assert!(matches!(err, SemaError::TypeMismatch { .. }), "{err}");
    // Membership against a ref-set uses identity.
    check_with_ranges(
        "retrieve (E.name) where C in E.kids",
        &[("E", false, "Employees"), ("C", false, "Employees.kids")],
    )
    .unwrap();
}

#[test]
fn qualification_must_be_boolean() {
    let err = check_with_ranges(
        "retrieve (E.name) where E.age + 1",
        &[("E", false, "Employees")],
    )
    .unwrap_err();
    assert!(matches!(err, SemaError::TypeMismatch { .. }), "{err}");
}

#[test]
fn universal_quantification_flag() {
    let checked = check_with_ranges(
        "retrieve (E.name) where E.salary > C.age",
        &[("E", false, "Employees"), ("C", true, "Employees.kids")],
    )
    .unwrap();
    let c = checked.bindings.iter().find(|b| b.var == "C").unwrap();
    assert!(c.universal);
}

#[test]
fn range_over_non_set_rejected() {
    let err = check_with_ranges("retrieve (X.name)", &[("X", false, "StarEmployee")]).unwrap_err();
    assert!(matches!(err, SemaError::NotIterable(_)), "{err}");
}

#[test]
fn conjuncts_split_and_conjoin_both_halves() {
    let checked = check_with_ranges(
        "retrieve (E.name) where E.age = 1 and E.salary = 2.0 and (E.age = 3 or E.age = 4)",
        &[("E", false, "Employees")],
    )
    .unwrap();
    let cs = checked.conjuncts;
    assert_eq!(cs.len(), 3);
    // `or` is not split, in either half.
    assert!(matches!(
        cs[2].src,
        excess_lang::Expr::Binary(excess_lang::BinOp::Or, _, _)
    ));
    assert!(matches!(
        cs[2].typed.node,
        excess_sema::Node::Binary(excess_lang::BinOp::Or, _, _)
    ));
    let back = excess_sema::Checked::conjoin(cs).unwrap();
    assert_eq!(back.typed.qty, QualType::own(Type::boolean()));
    assert_eq!(back.conjuncts().len(), 3);
}

#[test]
fn free_names_see_through_paths_not_over() {
    let stmt = parse_statement(
        "retrieve (x) where E.dept.floor = 2 and count(C over C where C.age > K.age) > 0",
        &OperatorTable::new(),
    )
    .unwrap();
    let Stmt::Retrieve { qual: Some(q), .. } = stmt else {
        unreachable!()
    };
    let names = excess_sema::resolve::free_names(&q);
    assert!(names.contains("E"));
    assert!(names.contains("K"), "free inside the aggregate");
    assert!(!names.contains("C"), "consumed by over");
}
