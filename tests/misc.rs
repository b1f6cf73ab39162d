//! Remaining surface coverage: enumerations, whole-value appends, var
//! arrays, session API, EXPLAIN of nested paths, multi-statement scripts.

use extra_excess::{Database, Response, Value};

#[test]
fn enumerations_end_to_end() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Bug (title: varchar, sev: enum(low, medium, high));
        create { own Bug } Bugs;
    "#,
    )
    .unwrap();
    // Enum values enter through the Rust API (the DDL carries the symbol
    // list; literals-by-symbol are a front-end nicety not in the paper).
    db.bulk_append(
        "Bugs",
        vec![
            Value::Tuple(vec![Value::str("leak"), Value::Enum(2, "high".into())]),
            Value::Tuple(vec![Value::str("typo"), Value::Enum(0, "low".into())]),
            Value::Tuple(vec![Value::str("slow"), Value::Enum(1, "medium".into())]),
        ],
    )
    .unwrap();
    // Enums order by declaration ordinal.
    let r = s
        .query("retrieve (B.title) from B in Bugs order by B.sev desc")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("leak")],
            vec![Value::str("slow")],
            vec![Value::str("typo")],
        ]
    );
    let r = s
        .query("retrieve (B.sev) from B in Bugs where B.title = \"leak\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Enum(2, "high".into())]]);
}

#[test]
fn whole_value_append_copies_between_own_collections() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Row (k: int4, v: varchar);
        create { own Row } Source;
        create { own Row } Sink;
        append to Source (k = 1, v = "one");
        append to Source (k = 2, v = "two");
        range of S is Source;
        append to Sink S where S.k = 2;
    "#,
    )
    .unwrap();
    let r = s.query("retrieve (T.v) from T in Sink").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("two")]]);
    // It is a copy: mutating Source leaves Sink alone (value semantics).
    s.run("range of S is Source; replace S (v = \"TWO\") where S.k = 2")
        .unwrap();
    let r = s.query("retrieve (T.v) from T in Sink").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("two")]]);
}

#[test]
fn variable_length_array_grows() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        create [] varchar Log;
        append to Log "first";
        append to Log "second";
    "#,
    )
    .unwrap();
    let r = s.query("retrieve (Log[1], Log[2])").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::str("first"), Value::str("second")]]
    );
    // Iterate a named array object.
    let r = s
        .query("range of L is Log; retrieve (count(L over L))")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
}

#[test]
fn session_run_returns_per_statement_responses() {
    let db = Database::in_memory();
    let mut s = db.session();
    let responses = s
        .run(
            r#"
            define type T (x: int4);
            create { own T } Ts;
            append to Ts (x = 1);
            retrieve (V.x) from V in Ts
        "#,
        )
        .unwrap();
    assert_eq!(responses.len(), 4);
    assert!(matches!(responses[0], Response::Done(_)));
    assert!(matches!(responses[3], Response::Rows(_)));
}

#[test]
fn explain_renders_nested_plans() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Kid (name: varchar);
        define type Emp (name: varchar, kids: { own Kid });
        create { own ref Emp } Emps;
    "#,
    )
    .unwrap();
    let plan = s
        .explain("retrieve (C.name) from C in Emps.kids where Emps.name = \"x\"")
        .unwrap()
        .plan;
    assert!(plan.contains("Unnest C"), "{plan}");
    assert!(plan.contains("SeqScan Emps"), "{plan}");
    assert!(plan.contains("Filter"), "{plan}");
}

#[test]
fn scripts_mix_ddl_dml_and_queries() {
    let db = Database::in_memory();
    let mut s = db.session();
    let r = s
        .query(
            r#"
            define type City (name: varchar, pop: int4);
            create { own ref City } Cities key (name);
            append to Cities (name = "madison", pop = 170000);
            append to Cities (name = "kenosha", pop = 77000);
            range of C is Cities;
            replace C (pop = C.pop + 1000) where C.name = "madison";
            retrieve (C.name, C.pop) where C.pop > 100000
        "#,
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::str("madison"), Value::Int(171000)]]
    );
}

#[test]
fn set_valued_targets_render() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Emp (name: varchar, tags: { varchar });
        create { own ref Emp } Emps;
        append to Emps (name = "a");
        range of E is Emps;
        append to E.tags "x" where E.name = "a";
        append to E.tags "y" where E.name = "a";
    "#,
    )
    .unwrap();
    let r = s.query("retrieve (E.tags) from E in Emps").unwrap();
    match &r.rows[0][0] {
        Value::Set(items) => assert_eq!(items.len(), 2),
        other => panic!("{other:?}"),
    }
    // Rendered output for humans.
    let adts = extra_excess::model::AdtRegistry::with_builtins();
    let text = r.render(&adts);
    assert!(text.contains("tags ="), "{text}");
}

#[test]
fn negative_numbers_and_precedence_in_queries() {
    let db = Database::in_memory();
    let mut s = db.session();
    let r = s.query("retrieve (-3 + 2 * 4, -(1 + 1))").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(5), Value::Int(-2)]]);
    let r = s.query("retrieve (10 % 3, 10 / 3, 10.0 / 4)").unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(1), Value::Int(3), Value::Float(2.5)]]
    );
}

#[test]
fn polygon_operator_through_sql() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Zone (label: varchar, shape: Polygon);
        create { own Zone } Zones;
        append to Zones (label = "a", shape = Polygon("((0 0) (2 0) (2 2) (0 2))"));
        append to Zones (label = "b", shape = Polygon("((1 1) (3 1) (3 3) (1 3))"));
        append to Zones (label = "c", shape = Polygon("((9 9) (10 9) (10 10) (9 10))"));
    "#,
    )
    .unwrap();
    let r = s
        .query(
            "retrieve (x = Z.label, y = Z2.label) from Z in Zones, Z2 in Zones \
             where Z.shape &&& Z2.shape and Z.label < Z2.label",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("a"), Value::str("b")]]);
}

#[test]
fn named_object_identity_against_members() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Emp (name: varchar);
        create { own ref Emp } Emps;
        create Emp Boss;
        append to Emps (name = "w1");
        replace Boss (name = "boss");
    "#,
    )
    .unwrap();
    // The named object is not a member of the set, so no member is it.
    let r = s
        .query("retrieve (E.name) from E in Emps where E is Boss")
        .unwrap();
    assert!(r.is_empty());
    // But a ref-mode collection can hold it, and then identity matches.
    s.run("create { ref Emp } Wall; append to Wall Boss")
        .unwrap();
    let r = s
        .query("retrieve (W.name) from W in Wall where W is Boss")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("boss")]]);
}

#[test]
fn unknown_user_has_no_rights() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type T (x: int4);
        create { own T } Ts;
    "#,
    )
    .unwrap();
    let mut ghost = db.session_as("ghost");
    let err = ghost.query("retrieve (V.x) from V in Ts").unwrap_err();
    assert!(matches!(err, extra_excess::DbError::Auth(_)), "{err}");
}

/// Path expressions read the same through an embedded (`own`) copy and
/// through a chain of references three hops deep.
#[test]
fn paths_cross_embedded_copies_and_reference_chains() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Department (dname: varchar, budget: float8);
        define type Employee (name: varchar, dept: Department);
        create { own ref Employee } Employees;

        define type L3 (tag: int4);
        define type L2 (tag: int4, next: ref L3);
        define type L1 (tag: int4, next: ref L2);
        define type L0 (tag: int4, next: ref L1);
        create { own ref L3 } C3;
        create { own ref L2 } C2;
        create { own ref L1 } C1;
        create { own ref L0 } C0;
    "#,
    )
    .unwrap();
    let employee = |name: &str, dname: &str, budget: f64| {
        let dept = Value::Tuple(vec![Value::str(dname), Value::Float(budget)]);
        Value::Tuple(vec![Value::str(name), dept])
    };
    db.bulk_append(
        "Employees",
        vec![
            employee("ann", "toys", 100.0),
            employee("bob", "shoes", 300.0),
        ],
    )
    .unwrap();
    let r = s
        .query("retrieve (avg(E.dept.budget over E)) from E in Employees")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Float(200.0)]]);

    // Load the chain bottom-up, wiring level i's object k to level
    // i+1's object k.
    let mut next: Vec<Value> = Vec::new();
    for level in (0..=3).rev() {
        let rows = (0..50)
            .map(|k| {
                let mut fields = vec![Value::Int(k)];
                fields.extend(next.get(k as usize).cloned());
                Value::Tuple(fields)
            })
            .collect();
        let oids = db.bulk_append(&format!("C{level}"), rows).unwrap();
        next = oids.into_iter().map(Value::Ref).collect();
    }
    let r = s
        .query("retrieve (X.next.next.next.tag) from X in C0 where X.tag = 7")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(7)]]);
}
