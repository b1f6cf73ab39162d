//! Unit tests of `extra_model::schema`, against its public surface.

use extra_model::schema::*;
use extra_model::{Attribute, BaseType, ModelError, QualType, Type};

fn person_attrs() -> Vec<Attribute> {
    vec![
        Attribute::own("name", Type::varchar()),
        Attribute::own("age", Type::int4()),
    ]
}

#[test]
fn define_and_lookup() {
    let mut reg = TypeRegistry::new();
    let id = reg.define("Person", vec![], person_attrs()).unwrap();
    assert_eq!(reg.lookup("Person").unwrap(), id);
    let t = reg.get(id);
    assert_eq!(t.arity(), 2);
    assert_eq!(t.attribute("name").unwrap().0, 0);
    assert!(t.attribute("salary").is_none());
    assert!(matches!(
        reg.lookup("Nobody"),
        Err(ModelError::UnknownType(_))
    ));
}

#[test]
fn duplicate_type_rejected() {
    let mut reg = TypeRegistry::new();
    reg.define("Person", vec![], person_attrs()).unwrap();
    assert!(matches!(
        reg.define("Person", vec![], vec![]),
        Err(ModelError::DuplicateType(_))
    ));
}

#[test]
fn single_inheritance_flattens() {
    let mut reg = TypeRegistry::new();
    let person = reg.define("Person", vec![], person_attrs()).unwrap();
    let emp = reg
        .define(
            "Employee",
            vec![InheritSpec::plain("Person")],
            vec![Attribute::own("salary", Type::float8())],
        )
        .unwrap();
    let t = reg.get(emp);
    assert_eq!(t.arity(), 3);
    assert_eq!(
        t.attributes().map(|a| a.name.as_str()).collect::<Vec<_>>(),
        vec!["name", "age", "salary"]
    );
    assert!(reg.is_subtype(emp, person));
    assert!(!reg.is_subtype(person, emp));
    assert!(reg.is_subtype(person, person), "is-a is reflexive");
}

#[test]
fn conflict_requires_rename() {
    // Paper Figure 3: Student and Employee both have a dept attribute;
    // TA inherits from both — conflict unless renamed.
    let mut reg = TypeRegistry::new();
    reg.define(
        "Department",
        vec![],
        vec![Attribute::own("dname", Type::varchar())],
    )
    .unwrap();
    let dept = reg.lookup("Department").unwrap();
    reg.define(
        "Student",
        vec![],
        vec![
            Attribute::own("name", Type::varchar()),
            Attribute::reference("dept", Type::Schema(dept)),
        ],
    )
    .unwrap();
    reg.define(
        "Employee",
        vec![],
        vec![Attribute::reference("dept", Type::Schema(dept))],
    )
    .unwrap();
    let err = reg
        .define(
            "TA",
            vec![
                InheritSpec::plain("Student"),
                InheritSpec::plain("Employee"),
            ],
            vec![],
        )
        .unwrap_err();
    assert!(matches!(err, ModelError::InheritanceConflict { ref attr, .. } if attr == "dept"));

    // Renaming resolves it.
    let ta = reg
        .define(
            "TA2",
            vec![
                InheritSpec::renamed("Student", &[("dept", "enrolled_dept")]),
                InheritSpec::renamed("Employee", &[("dept", "works_in_dept")]),
            ],
            vec![],
        )
        .unwrap();
    let t = reg.get(ta);
    assert!(t.attribute("enrolled_dept").is_some());
    assert!(t.attribute("works_in_dept").is_some());
    assert!(t.attribute("dept").is_none());
}

#[test]
fn diamond_is_not_a_conflict() {
    let mut reg = TypeRegistry::new();
    reg.define("Thing", vec![], vec![Attribute::own("id", Type::int4())])
        .unwrap();
    reg.define("A", vec![InheritSpec::plain("Thing")], vec![])
        .unwrap();
    reg.define("B", vec![InheritSpec::plain("Thing")], vec![])
        .unwrap();
    let d = reg
        .define(
            "D",
            vec![InheritSpec::plain("A"), InheritSpec::plain("B")],
            vec![],
        )
        .unwrap();
    let t = reg.get(d);
    assert_eq!(t.arity(), 1, "diamond attribute appears once");
}

#[test]
fn bad_rename_rejected() {
    let mut reg = TypeRegistry::new();
    reg.define("Person", vec![], person_attrs()).unwrap();
    let err = reg
        .define(
            "X",
            vec![InheritSpec::renamed("Person", &[("salary", "pay")])],
            vec![],
        )
        .unwrap_err();
    assert!(matches!(err, ModelError::BadRename { .. }));
}

#[test]
fn specialization_narrows_inherited_attribute() {
    let mut reg = TypeRegistry::new();
    let person = reg.define("Person", vec![], person_attrs()).unwrap();
    let emp = reg
        .define(
            "Employee",
            vec![InheritSpec::plain("Person")],
            vec![Attribute::own("salary", Type::float8())],
        )
        .unwrap();
    // Team has a leader: Person; ExecTeam narrows leader to Employee.
    reg.define(
        "Team",
        vec![],
        vec![Attribute::reference("leader", Type::Schema(person))],
    )
    .unwrap();
    let exec = reg
        .define(
            "ExecTeam",
            vec![InheritSpec::plain("Team")],
            vec![Attribute::reference("leader", Type::Schema(emp))],
        )
        .unwrap();
    let (pos, attr) = reg.get(exec).attribute("leader").unwrap();
    assert_eq!(pos, 0);
    assert_eq!(attr.qty.ty, Type::Schema(emp));
    // Widening is rejected.
    let err = reg
        .define(
            "BadTeam",
            vec![InheritSpec::plain("ExecTeam")],
            vec![Attribute::reference("leader", Type::Schema(person))],
        )
        .unwrap_err();
    assert!(matches!(err, ModelError::InheritanceConflict { .. }));
}

#[test]
fn ref_requires_schema_type() {
    let mut reg = TypeRegistry::new();
    let err = reg
        .define("Bad", vec![], vec![Attribute::reference("x", Type::int4())])
        .unwrap_err();
    assert!(matches!(err, ModelError::RefToValueType(_)));
    // Nested inside a set, too.
    let err = reg
        .define(
            "Bad2",
            vec![],
            vec![Attribute::own(
                "xs",
                Type::Set(Box::new(QualType::reference(Type::varchar()))),
            )],
        )
        .unwrap_err();
    assert!(matches!(err, ModelError::RefToValueType(_)));
}

#[test]
fn assignability_through_lattice() {
    let mut reg = TypeRegistry::new();
    let person = reg.define("Person", vec![], person_attrs()).unwrap();
    let emp = reg
        .define("Employee", vec![InheritSpec::plain("Person")], vec![])
        .unwrap();
    assert!(reg.assignable(&Type::Schema(emp), &Type::Schema(person)));
    assert!(!reg.assignable(&Type::Schema(person), &Type::Schema(emp)));
    // Sets are covariant in element type, invariant in mode.
    let set_emp = Type::Set(Box::new(QualType::reference(Type::Schema(emp))));
    let set_person = Type::Set(Box::new(QualType::reference(Type::Schema(person))));
    assert!(reg.assignable(&set_emp, &set_person));
    let set_own = Type::Set(Box::new(QualType::own(Type::Schema(emp))));
    assert!(!reg.assignable(&set_own, &set_person));
    assert!(reg.assignable(&Type::int4(), &Type::int4()));
    assert!(!reg.assignable(&Type::int4(), &Type::Base(BaseType::Int8)));
}

#[test]
fn display_renders_nested_types() {
    let mut reg = TypeRegistry::new();
    let person = reg.define("Person", vec![], person_attrs()).unwrap();
    let qty = QualType::own_ref(Type::Schema(person));
    assert_eq!(reg.display_qual(&qty), "own ref Person");
    let set = Type::Set(Box::new(qty));
    assert_eq!(reg.display_type(&set), "{ own ref Person }");
    let arr = Type::Array(
        Some(10),
        Box::new(QualType::reference(Type::Schema(person))),
    );
    assert_eq!(reg.display_type(&arr), "[10] ref Person");
}
