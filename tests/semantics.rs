//! Language-semantics integration tests beyond the figure set: nulls,
//! sets, arrays, enums, `retrieve into`, runtime ADT registration,
//! DDL lifecycle, and error behaviour.

use std::sync::Arc;

use extra_excess::model::ModelError;
use extra_excess::{Database, DbError, Value};

mod common;
use common::Fraction;

fn small_db() -> (Arc<extra_excess::db::Database>, extra_excess::Session) {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Item (label: varchar, qty: int4, price: float8, tags: { varchar });
        create { own ref Item } Items;
        append to Items (label = "apple", qty = 10, price = 0.5);
        append to Items (label = "pear", qty = 3, price = 0.75);
        append to Items (label = "fig", qty = 0, price = 2.0);
    "#,
    )
    .unwrap();
    (db, s)
}

// ---------------------------------------------------------------------------
// Nulls
// ---------------------------------------------------------------------------

#[test]
fn null_comparisons_reject() {
    let (_db, mut s) = small_db();
    s.run(r#"append to Items (label = "ghost")"#).unwrap(); // qty, price null
                                                            // A null in a comparison never qualifies.
    let r = s
        .query("retrieve (I.label) from I in Items where I.qty >= 0")
        .unwrap();
    assert_eq!(r.rows.len(), 3, "ghost's null qty does not qualify");
    let r = s
        .query("retrieve (I.label) from I in Items where I.qty = null")
        .unwrap();
    assert!(r.is_empty(), "= null is never true; use `is null`");
    // Arithmetic propagates null, which then fails to qualify.
    let r = s
        .query("retrieve (I.label) from I in Items where I.qty + 1 > 0")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn is_null_on_references() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type A (name: varchar);
        define type B (tag: varchar, link: ref A);
        create { own ref A } As;
        create { own ref B } Bs;
        append to As (name = "target");
        append to Bs (tag = "wired");
        append to Bs (tag = "unwired");
        range of A1 is As;
        range of B1 is Bs;
        replace B1 (link = A1) where B1.tag = "wired";
    "#,
    )
    .unwrap();
    let r = s
        .query("retrieve (B1.tag) from B1 in Bs where B1.link is null")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("unwired")]]);
    let r = s
        .query("retrieve (B1.tag) from B1 in Bs where B1.link isnot null")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("wired")]]);
}

// ---------------------------------------------------------------------------
// Sets
// ---------------------------------------------------------------------------

#[test]
fn set_literals_and_operators() {
    let (_db, mut s) = small_db();
    let r = s
        .query(r#"retrieve (I.label) from I in Items where I.label in {"apple", "fig"}"#)
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = s.query(r#"retrieve ({1, 2} union {2, 3})"#).unwrap();
    match &r.rows[0][0] {
        Value::Set(m) => assert_eq!(m.len(), 3, "sets dedupe"),
        other => panic!("{other:?}"),
    }
    let r = s
        .query(r#"retrieve ({1, 2, 3} intersect {2, 3, 4})"#)
        .unwrap();
    match &r.rows[0][0] {
        Value::Set(m) => assert_eq!(m.len(), 2),
        other => panic!("{other:?}"),
    }
    let r = s.query(r#"retrieve ({1, 2, 3} minus {2})"#).unwrap();
    match &r.rows[0][0] {
        Value::Set(m) => assert_eq!(m.len(), 2),
        other => panic!("{other:?}"),
    }
    let r = s.query(r#"retrieve ({1, 2} contains 2)"#).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Bool(true)]]);
}

#[test]
fn nested_value_sets() {
    let (_db, mut s) = small_db();
    s.run(
        r#"
        range of I is Items;
        append to I.tags "fruit" where I.qty > 0;
        append to I.tags "cheap" where I.price < 0.6;
    "#,
    )
    .unwrap();
    let r = s
        .query(r#"retrieve (I.label) from I in Items where I.tags contains "cheap""#)
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("apple")]]);
    // Duplicate appends are absorbed by set semantics.
    s.run(r#"range of I is Items; append to I.tags "fruit" where I.qty > 0"#)
        .unwrap();
    let r = s
        .query("retrieve (count(I.tags)) from I in Items where I.label = \"apple\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);
}

// ---------------------------------------------------------------------------
// Arrays & enums & char(n)
// ---------------------------------------------------------------------------

#[test]
fn fixed_arrays_are_one_based_and_bounded() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Probe (name: varchar);
        create [3] float8 Readings;
        append to Readings[1] 1.5;
        append to Readings[3] 3.5;
    "#,
    )
    .unwrap();
    let r = s
        .query("retrieve (Readings[1], Readings[2], Readings[3])")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Float(1.5), Value::Null, Value::Float(3.5)]]
    );
    let err = s.run("append to Readings[4] 9.0").unwrap_err();
    assert!(
        matches!(err, DbError::Model(ModelError::IndexOutOfRange { .. })),
        "{err}"
    );
    let err = s.run("append to Readings[0] 9.0").unwrap_err();
    assert!(
        matches!(err, DbError::Model(ModelError::IndexOutOfRange { .. })),
        "{err}"
    );
}

#[test]
fn char_length_enforced() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Code (code: char(3));
        create { own Code } Codes;
        append to Codes (code = "abc");
    "#,
    )
    .unwrap();
    let err = s.run(r#"append to Codes (code = "abcd")"#).unwrap_err();
    assert!(
        matches!(err, DbError::Model(ModelError::TypeMismatch { .. })),
        "{err}"
    );
}

#[test]
fn int_width_enforced() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Tiny (v: int1);
        create { own Tiny } Tinies;
        append to Tinies (v = 127);
    "#,
    )
    .unwrap();
    let err = s.run("append to Tinies (v = 128)").unwrap_err();
    assert!(
        matches!(err, DbError::Model(ModelError::TypeMismatch { .. })),
        "{err}"
    );
}

// ---------------------------------------------------------------------------
// retrieve into
// ---------------------------------------------------------------------------

#[test]
fn retrieve_into_materializes_a_named_set() {
    let (_db, mut s) = small_db();
    s.run(
        r#"
        range of I is Items;
        retrieve into Stocked (I.label, I.qty) where I.qty > 0
    "#,
    )
    .unwrap();
    let r = s
        .query("retrieve (S.label, S.qty) from S in Stocked order by S.qty desc")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("apple"), Value::Int(10)],
            vec![Value::str("pear"), Value::Int(3)],
        ]
    );
    // The snapshot does not track later changes.
    s.run("range of I is Items; replace I (qty = 99) where I.label = \"apple\"")
        .unwrap();
    let r = s
        .query("retrieve (S.qty) from S in Stocked where S.label = \"apple\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(10)]]);
    // Name collision.
    let err = s.run("retrieve into Stocked (1)").unwrap_err();
    assert!(matches!(err, DbError::Catalog(_)), "{err}");
}

// ---------------------------------------------------------------------------
// Runtime ADT registration — the dynamic-extensibility story
// ---------------------------------------------------------------------------

#[test]
fn runtime_adt_registration_extends_parser_and_planner() {
    let db = Database::in_memory();
    // Before registration, Fraction is unknown and ** does not lex.
    let mut s = db.session();
    assert!(s.run("define type R (r: Fraction)").is_err());
    db.register_adt(Arc::new(Fraction)).unwrap();
    s.run(
        r#"
        define type Recipe (title: varchar, scale: Fraction);
        create { own ref Recipe } Recipes;
        append to Recipes (title = "bread", scale = Fraction("3/4"));
        append to Recipes (title = "cake", scale = Fraction("1/2"));
    "#,
    )
    .unwrap();
    // The new ** operator parses and evaluates.
    let r = s
        .query(r#"retrieve (x = R.scale ** Fraction("2/1")) from R in Recipes where R.title = "bread""#)
        .unwrap();
    match &r.rows[0][0] {
        Value::Adt(_, _) => {}
        other => panic!("{other:?}"),
    }
    // Ordered ADT: comparisons and indexes apply.
    let r = s
        .query(r#"retrieve (R.title) from R in Recipes where R.scale > Fraction("2/3")"#)
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("bread")]]);
    s.run("define index recipe_scale on Recipes (scale)")
        .unwrap();
    let plan = s
        .explain(r#"retrieve (R.title) from R in Recipes where R.scale = Fraction("1/2")"#)
        .unwrap()
        .plan;
    assert!(
        plan.contains("IndexScan"),
        "ADT key should use the index:\n{plan}"
    );
}

// ---------------------------------------------------------------------------
// DDL lifecycle
// ---------------------------------------------------------------------------

#[test]
fn drop_type_guards_dependents() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Base (x: int4);
        define type Derived inherits Base (y: int4);
    "#,
    )
    .unwrap();
    let err = s.run("drop type Base").unwrap_err();
    assert!(matches!(err, DbError::Catalog(_)), "{err}");
    s.run("drop type Derived").unwrap();
    s.run("drop type Base").unwrap();
    // Redefinable after drop.
    s.run("define type Base (z: varchar)").unwrap();
}

#[test]
fn destroy_collection_removes_members_and_name() {
    let (_db, mut s) = small_db();
    s.run("destroy Items").unwrap();
    let err = s.query("retrieve (I.label) from I in Items").unwrap_err();
    assert!(matches!(err, DbError::Sema(_)), "{err}");
    // The name is reusable.
    s.run("create { own ref Item } Items").unwrap();
    assert!(s
        .query("retrieve (I.label) from I in Items")
        .unwrap()
        .is_empty());
}

#[test]
fn functions_and_procedures_droppable() {
    let (_db, mut s) = small_db();
    s.run("define function Doubled (i: Item) returns int4 as retrieve (i.qty * 2)")
        .unwrap();
    s.run(
        "define procedure Zero (l: varchar) as \
           range of I is Items; replace I (qty = 0) where I.label = l end",
    )
    .unwrap();
    assert_eq!(
        s.query("retrieve (I.Doubled()) from I in Items where I.label = \"pear\"")
            .unwrap()
            .rows,
        vec![vec![Value::Int(6)]]
    );
    s.run("drop function Doubled").unwrap();
    assert!(s.query("retrieve (I.Doubled()) from I in Items").is_err());
    s.run("execute Zero(\"apple\")").unwrap();
    s.run("drop procedure Zero").unwrap();
    assert!(s.run("execute Zero(\"pear\")").is_err());
}

// ---------------------------------------------------------------------------
// Ordering, indexing, planner visibility
// ---------------------------------------------------------------------------

#[test]
fn order_by_and_explain() {
    let (_db, mut s) = small_db();
    let r = s
        .query("retrieve (I.label) from I in Items order by I.price asc")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("apple")],
            vec![Value::str("pear")],
            vec![Value::str("fig")],
        ]
    );
    s.run("define index item_qty on Items (qty)").unwrap();
    let plan = s
        .explain("retrieve (I.label) from I in Items where I.qty = 10")
        .unwrap()
        .plan;
    assert!(plan.contains("IndexScan"), "{plan}");
    let plan = s
        .explain("retrieve (I.label) from I in Items where I.label = \"apple\"")
        .unwrap()
        .plan;
    assert!(plan.contains("SeqScan"), "no index on label:\n{plan}");
}

#[test]
fn index_maintained_across_updates() {
    let (_db, mut s) = small_db();
    s.run("define index item_qty on Items (qty)").unwrap();
    s.run("range of I is Items; replace I (qty = 42) where I.label = \"fig\"")
        .unwrap();
    let r = s
        .query("retrieve (I.label) from I in Items where I.qty = 42")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("fig")]]);
    let r = s
        .query("retrieve (I.label) from I in Items where I.qty = 0")
        .unwrap();
    assert!(r.is_empty(), "stale index entry would resurrect qty = 0");
    s.run("range of I is Items; delete I where I.qty = 42")
        .unwrap();
    let r = s
        .query("retrieve (I.label) from I in Items where I.qty = 42")
        .unwrap();
    assert!(r.is_empty());
    s.run(r#"append to Items (label = "new", qty = 42, price = 1.0)"#)
        .unwrap();
    let r = s
        .query("retrieve (I.label) from I in Items where I.qty = 42")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("new")]]);
}

// ---------------------------------------------------------------------------
// Error reporting
// ---------------------------------------------------------------------------

#[test]
fn useful_error_messages() {
    let (_db, mut s) = small_db();
    let err = s.query("retrieve (I.nope) from I in Items").unwrap_err();
    assert!(err.to_string().contains("nope"), "{err}");
    let err = s
        .query("retrieve (I.label + 1) from I in Items")
        .unwrap_err();
    assert!(err.to_string().contains("number"), "{err}");
    let err = s.run("append to Items (nosuch = 1)").unwrap_err();
    assert!(err.to_string().contains("nosuch"), "{err}");
    let err = s.run("retrieve (").unwrap_err();
    assert!(matches!(err, DbError::Parse(_)), "{err}");
    let err = s.query("retrieve (X.label)").unwrap_err();
    assert!(err.to_string().contains('X'), "{err}");
}

// ---------------------------------------------------------------------------
// Division by zero and other runtime faults surface cleanly
// ---------------------------------------------------------------------------

#[test]
fn runtime_faults() {
    let (_db, mut s) = small_db();
    let err = s
        .query("retrieve (1 / I.qty) from I in Items where I.label = \"fig\"")
        .unwrap_err();
    assert!(err.to_string().contains("zero"), "{err}");
}

#[test]
fn each_aggregate_of_an_update_keeps_its_own_value() {
    // Every expression of an update statement is compiled once, under
    // one aggregate-id counter: two uncorrelated `over` aggregates in
    // one assignment list must not share a cached group table.
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Dept (budget: int4);
        define type Summary (n: int4, total: int4);
        create { own ref Dept } Depts;
        create { own ref Summary } Summaries;
        append to Depts (budget = 10);
        append to Depts (budget = 20);
        append to Depts (budget = 30);
        range of D is Depts;
        range of S is Summaries;
        define procedure Record (cnt: int4, amount: int4) as
            append to Summaries (n = cnt, total = amount)
        end
    "#,
    )
    .unwrap();
    let summaries = |s: &mut extra_excess::Session| {
        s.query("retrieve (S.n, S.total) from S in Summaries")
            .unwrap()
            .rows
    };
    let three_sixty = vec![Value::Int(3), Value::Int(60)];

    s.run("append to Summaries (n = count(D over D), total = sum(D.budget over D))")
        .unwrap();
    assert_eq!(summaries(&mut s), vec![three_sixty.clone()]);

    s.run("replace S (n = 0, total = 0)").unwrap();
    s.run("replace S (n = count(D over D), total = sum(D.budget over D))")
        .unwrap();
    assert_eq!(summaries(&mut s), vec![three_sixty.clone()]);

    s.run("execute Record(count(D over D), sum(D.budget over D))")
        .unwrap();
    assert_eq!(summaries(&mut s), vec![three_sixty.clone(), three_sixty]);
}
