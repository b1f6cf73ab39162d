//! Keys on set instances — the paper's stated intention ("We also intend
//! to support keys, the specification of which will be associated with
//! set instances") — implemented as unique indexes.

use extra_excess::{Database, DbError, Value};

#[test]
fn key_on_create_enforces_uniqueness() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, ssnum: int4);
        create { own ref Person } People key (ssnum);
        append to People (name = "ann", ssnum = 100);
        append to People (name = "bob", ssnum = 200);
    "#,
    )
    .unwrap();
    // Duplicate key rejected, set unchanged.
    let err = s
        .run(r#"append to People (name = "eve", ssnum = 100)"#)
        .unwrap_err();
    assert!(err.to_string().contains("key violation"), "{err}");
    let r = s
        .query("retrieve (count(P over P)) from P in People")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
    // Replacing into a conflicting key is rejected too.
    let err = s
        .run("range of P is People; replace P (ssnum = 200) where P.name = \"ann\"")
        .unwrap_err();
    assert!(err.to_string().contains("key violation"), "{err}");
    // Replacing to a fresh value works; the vacated key is reusable.
    s.run("range of P is People; replace P (ssnum = 300) where P.name = \"ann\"")
        .unwrap();
    s.run(r#"append to People (name = "eve", ssnum = 100)"#)
        .unwrap();
    let r = s
        .query("retrieve (count(P over P)) from P in People")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
}

#[test]
fn key_index_also_serves_queries() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, ssnum: int4);
        create { own ref Person } People key (ssnum);
        append to People (name = "ann", ssnum = 100);
    "#,
    )
    .unwrap();
    let plan = s
        .explain("retrieve (P.name) from P in People where P.ssnum = 100")
        .unwrap()
        .plan;
    assert!(plan.contains("IndexScan"), "{plan}");
}

#[test]
fn key_only_on_sets() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run("define type Person (name: varchar, ssnum: int4)")
        .unwrap();
    let err = s.run("create Person Star key (ssnum)").unwrap_err();
    assert!(err.to_string().contains("set instances"), "{err}");
}

#[test]
fn deleted_member_frees_its_key() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, ssnum: int4);
        create { own ref Person } People key (ssnum);
        append to People (name = "ann", ssnum = 1);
        range of P is People;
        delete P where P.ssnum = 1;
        append to People (name = "ann2", ssnum = 1)
    "#,
    )
    .unwrap();
    let r = s.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("ann2")]]);
}

#[test]
fn unique_index_statement_and_build_time_violations() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, ssnum: int4);
        create { own ref Person } People;
        append to People (name = "a", ssnum = 1);
        append to People (name = "b", ssnum = 1);
    "#,
    )
    .unwrap();
    // Building a unique index over existing duplicates fails.
    let err = s
        .run("define unique index pk on People (ssnum)")
        .unwrap_err();
    assert!(matches!(err, DbError::Catalog(_)), "{err}");
    // After repair it builds and enforces.
    s.run("range of P is People; replace P (ssnum = 2) where P.name = \"b\"")
        .unwrap();
    s.run("define unique index pk on People (ssnum)").unwrap();
    let err = s
        .run(r#"append to People (name = "c", ssnum = 2)"#)
        .unwrap_err();
    assert!(err.to_string().contains("key violation"), "{err}");
    // Non-unique indexes still allow duplicates.
    s.run("define index byname on People (name)").unwrap();
    s.run(r#"append to People (name = "a", ssnum = 9)"#)
        .unwrap();
}

#[test]
fn key_violation_leaves_no_partial_state() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, ssnum: int4);
        create { own ref Person } People key (ssnum);
        append to People (name = "ann", ssnum = 100);
        append to People (name = "bob", ssnum = 200);
    "#,
    )
    .unwrap();
    let err = s
        .run("range of P is People; replace P (ssnum = 200) where P.name = \"ann\"")
        .unwrap_err();
    assert!(err.to_string().contains("key violation"), "{err}");
    // ann's value is unchanged and the index still finds both members.
    let r = s
        .query("retrieve (P.ssnum) from P in People where P.name = \"ann\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(100)]]);
    let r = s
        .query("retrieve (P.name) from P in People where P.ssnum = 100")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("ann")]]);
    let r = s
        .query("retrieve (P.name) from P in People where P.ssnum = 200")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("bob")]]);

    // A set-oriented replace applies binding by binding: ann moves to
    // 150, then bob's 300 collides with cy. The rejected member's removed
    // index entries are restored, so every member stays findable by key.
    s.run(r#"append to People (name = "cy", ssnum = 300)"#)
        .unwrap();
    let err = s
        .run("range of P is People; replace P (ssnum = P.ssnum * 3 / 2) where P.ssnum < 300")
        .unwrap_err();
    assert!(err.to_string().contains("key violation"), "{err}");
    for (key, name) in [
        (150, Some("ann")),
        (100, None),
        (200, Some("bob")),
        (300, Some("cy")),
    ] {
        let query = format!("retrieve (P.name) from P in People where P.ssnum = {key}");
        let plan = s.explain(&query).unwrap().plan;
        assert!(plan.contains("IndexScan"), "{plan}");
        let expected: Vec<Vec<Value>> = name.iter().map(|n| vec![Value::str(n)]).collect();
        assert_eq!(s.query(&query).unwrap().rows, expected, "key {key}");
    }
}

#[test]
fn bulk_append_maintains_existing_indexes() {
    // Loading into a collection that already has a key goes through the
    // same member write as `append`: the index finds the loaded members
    // and a duplicate key is rejected.
    for mode in ["own", "own ref"] {
        let db = Database::in_memory();
        let mut s = db.session();
        s.run(&format!(
            "define type Account (id: int4, owner: varchar); \
             create {{ {mode} Account }} Accounts key (id)"
        ))
        .unwrap();
        let account = |id: i64| Value::Tuple(vec![Value::Int(id), Value::str("x")]);
        db.bulk_append("Accounts", vec![account(1), account(2)])
            .unwrap();
        let by_key = "retrieve (A.owner) from A in Accounts where A.id = 2";
        let plan = s.explain(by_key).unwrap().plan;
        assert!(plan.contains("IndexScan"), "{plan}");
        assert_eq!(s.query(by_key).unwrap().rows, vec![vec![Value::str("x")]]);
        let err = db.bulk_append("Accounts", vec![account(2)]).unwrap_err();
        assert!(err.to_string().contains("key violation"), "{mode}: {err}");
        let r = s
            .query("retrieve (count(A over A)) from A in Accounts")
            .unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(2)]], "{mode}");
    }
}

#[test]
fn null_keys_are_not_constrained() {
    // Nulls are outside the index (the paper's GEM-style nulls), so two
    // members may both have a null key.
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, ssnum: int4);
        create { own ref Person } People key (ssnum);
        append to People (name = "x");
        append to People (name = "y");
    "#,
    )
    .unwrap();
    let r = s
        .query("retrieve (count(P over P)) from P in People")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
}
