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
fn appending_to_a_fixed_length_array_is_refused() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Box (k: int4, arr: [3] int4, more: [] int4);
        create { own Box } Boxes;
        append to Boxes (k = 1);
        range of X is Boxes;
        append to X.more 4 where X.k = 1;
        append to X.more 5 where X.k = 1;
    "#,
    )
    .unwrap();
    let err = s.run("append to X.arr 4 where X.k = 1").unwrap_err();
    assert!(
        matches!(err, DbError::Model(ModelError::TypeMismatch { .. })),
        "{err}"
    );
    let r = s.query("retrieve (X.arr, X.more)").unwrap();
    let more = Value::Array(vec![Value::Int(4), Value::Int(5)]);
    assert_eq!(r.rows, vec![vec![Value::Array(vec![Value::Null; 3]), more]]);
}

#[test]
fn a_nested_range_variable_roots_an_append() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Grandkid (name: varchar, age: int4);
        define type Kid (name: varchar, age: int4, kids: { own Grandkid });
        define type Employee (name: varchar, kids: { own Kid });
        create { own Employee } Employees;
        append to Employees (name = "ann");
        range of E is Employees;
        append to E.kids (name = "k1", age = 5) where E.name = "ann";
        append to E.kids (name = "k2", age = 7) where E.name = "ann";
        range of C is E.kids;
        append to C.kids (name = "g1", age = 1) where C.name = "k1";
    "#,
    )
    .unwrap();
    let r = s
        .query("retrieve (C.name, G.name, G.age) from C in Employees.kids, G in C.kids")
        .unwrap();
    let row = vec![
        Value::Str("k1".into()),
        Value::Str("g1".into()),
        Value::Int(1),
    ];
    assert_eq!(r.rows, vec![row]);
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
fn aggregate_over_a_collection_name() {
    let (_db, mut s) = small_db();
    // Inside an aggregate, as in a path, a collection's name ranges over
    // its members.
    let r = s.query("retrieve (sum(Items.qty over Items))").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(13)]]);
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

// ---------------------------------------------------------------------------
// Front-end golden corpus
// ---------------------------------------------------------------------------

/// The figures schema, widened so that one session reaches every front-end
/// path: `Date`, `Complex` and `Polygon` attributes, own, ref, own-ref and
/// anonymous-tuple attributes, named objects, an attached function called
/// on a subtype, a user set function, an `all` range, a `Date` index, and
/// an analyzed collection with an index for equi joins.
fn corpus_session() -> extra_excess::Session {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, ssnum: int4, birthday: Date, kids: { own ref Person });
        define type Office (room: int4, phase: Complex, zone: Polygon);
        define type Department (dname: varchar, floor: int4, budget: float8, office: own ref Office);
        define type Employee inherits Person (
            salary: float8, dept: ref Department, home: (city: varchar, zip: int4)
        );
        create { own ref Department } Departments;
        create { own ref Employee } Employees;
        create { own ref Person } People;
        create { own ref Office } Offices;
        create Employee Star;
        create [3] float8 Readings;
        append to Departments (dname = "toy", floor = 2, budget = 100000.0);
        append to Departments (dname = "shoe", floor = 1, budget = 50000.0);
        append to Employees (name = "ann", ssnum = 1, birthday = Date("8/29/1953"), salary = 45000.0);
        append to Employees (name = "bob", ssnum = 2, birthday = Date("1/2/1961"), salary = 52000.0);
        range of E is Employees;
        define index emp_birthday on Employees (birthday);
        define function Label (p: Person) returns varchar as retrieve (p.name);
        define function Spread (xs: { int4 }) returns int8
            as retrieve (max(x over x) - min(x over x)) from x in xs;
        create Person Pat;
        define procedure Tally (p: Person) as retrieve (count(p over p)) end;
        create { own ref Person } Temps;
        define function Census (p: Person) returns int8 as retrieve (count(T over T)) from T in Temps;
        destroy Temps;
        range of X is all Employees
    "#,
    )
    .unwrap();
    for i in 0..40 {
        s.run(&format!(
            "append to Departments (dname = \"d{i}\", floor = {i}, budget = 1.0)"
        ))
        .unwrap();
    }
    s.run("analyze Departments; define index dept_floor on Departments (floor)")
        .unwrap();
    s
}

/// The `explain` text of each statement: paths of depth 1 to 3, ADT `+`,
/// a user operator, both call syntaxes, inherited dispatch, `over` and
/// `by` aggregates (correlated or not), `unique`, a set function, an
/// `all` range, an index scan on a `Date` key, equi joins after
/// `analyze`, and an update.
const CORPUS_PLANS: &[(&str, &str)] = &[
    (
        "retrieve (E.name) from E in Employees",
        "Project [name = E.name]\n  SeqScan E over Employees\n",
    ),
    (
        "retrieve (E.dept.dname) from E in Employees where E.dept.floor = 2",
        "Project [dname = E.dept.dname]\n  Filter (E.dept.floor = 2)\n    SeqScan E over Employees\n",
    ),
    (
        "retrieve (E.dept.office.room) from E in Employees",
        "Project [room = E.dept.office.room]\n  SeqScan E over Employees\n",
    ),
    (
        "retrieve (E.home.city, Star.dept.office.zone) from E in Employees",
        "Project [city = E.home.city, zone = Star.dept.office.zone]\n  SeqScan E over Employees\n",
    ),
    (
        "retrieve (O.phase + Complex(\"(1, 1)\")) from O in Offices",
        "Project [expr1 = (O.phase + Complex(\"(1, 1)\"))]\n  SeqScan O over Offices\n",
    ),
    (
        "retrieve (O.room) from O in Offices where O.zone &&& Polygon(\"((0 0) (2 0) (2 2))\")",
        "Project [room = O.room]\n  Filter (O.zone &&& Polygon(\"((0 0) (2 0) (2 2))\"))\n    SeqScan O over Offices\n",
    ),
    (
        "retrieve (E.birthday.Year(), Year(E.birthday)) from E in Employees",
        "Project [Year = E.birthday.Year(), Year = Year(E.birthday)]\n  SeqScan E over Employees\n",
    ),
    (
        "retrieve (E.Label(), Label(E)) from E in Employees",
        "Project [Label = E.Label(), Label = Label(E)]\n  SeqScan E over Employees\n",
    ),
    (
        "retrieve (D.dname, avg(E.salary over E)) from D in Departments, E in Employees",
        "Project [dname = D.dname, avg = avg(E.salary over E)]\n  SeqScan D over Departments\n",
    ),
    (
        "retrieve (D.dname, count(E over E where E.dept is D)) from D in Departments, E in Employees",
        "Project [dname = D.dname, count = count(E over E where (E.dept is D))]\n  SeqScan D over Departments\n",
    ),
    (
        "retrieve (E.dept.dname, avg(E.salary over E by E.dept.dname)) from E in Employees",
        "Project [dname = E.dept.dname, avg = avg(E.salary over E by E.dept.dname)]\n  SeqScan E over Employees\n",
    ),
    (
        "retrieve (unique(E.dept.floor over E)) from E in Employees",
        "Project [unique = unique(E.dept.floor over E)]\n  Unit\n",
    ),
    (
        "retrieve (Spread(E.ssnum over E)) from E in Employees",
        "Project [Spread = Spread(E.ssnum over E)]\n  Unit\n",
    ),
    (
        "retrieve (E.name, count(E.kids)) from E in Employees",
        "Project [name = E.name, count = count(E.kids)]\n  SeqScan E over Employees\n",
    ),
    (
        "retrieve (D.dname) from D in Departments where X.salary < D.budget",
        "Project [dname = D.dname]\n  UniversalFilter forall X : (X.salary < D.budget)\n    SeqScan D over Departments\n",
    ),
    (
        "retrieve (E.name) from E in Employees where E.birthday < Date(\"1/1/1960\")",
        "Project [name = E.name]\n  IndexScan E over Employees using emp_birthday (birthday < adt#0(4 bytes))\n",
    ),
    (
        "retrieve (D.dname, F.dname) from D in Departments, F in Departments where D.floor = F.floor and F.budget > D.budget",
        "Project [dname = D.dname, dname = F.dname]\n  Filter (F.budget > D.budget)\n    HashJoin F over Departments on floor = D.floor\n      SeqScan D over Departments\n",
    ),
    (
        "retrieve (E.name, F.dname) from E in Employees, F in Departments where E.ssnum = F.floor",
        "Project [name = E.name, dname = F.dname]\n  IndexJoin F over Departments using dept_floor on floor = E.ssnum\n    SeqScan E over Employees\n",
    ),
    (
        "retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2",
        "Project [name = C.name]\n  Unnest C over Employees.kids\n    Filter (Employees.dept.floor = 2)\n      SeqScan Employees over Employees\n",
    ),
    (
        "retrieve (Star.name, Readings[1], Readings)",
        "Project [name = Star.name, Readings = Readings[1], Readings = Readings]\n  Unit\n",
    ),
    (
        "retrieve (E.name) from E in Employees where E.salary > 1.0 order by E.salary desc",
        "Project [name = E.name]\n  Sort by E.salary desc\n    Filter (E.salary > 1.0)\n      SeqScan E over Employees\n",
    ),
    (
        "replace E (salary = E.salary * 1.1) where E.dept.floor = 2 and E.name != \"x\"",
        "Project [E = E, expr2 = (E.salary * 1.1)]\n  Filter (E.dept.floor = 2)\n    Filter (E.name != \"x\")\n      SeqScan E over Employees\n",
    ),
    (
        "retrieve (E.name, D.dname) from E in Employees, D in Departments where E.name = \"a\" and (D.floor = 2 and E.dept is D)",
        "Project [name = E.name, dname = D.dname]\n  Filter (E.dept is D)\n    NestedLoop\n      Filter (E.name = \"a\")\n        SeqScan E over Employees\n      IndexScan D over Departments using dept_floor (floor = 2)\n",
    ),
];

/// `(code, Display)` of each failing statement: every error the checker
/// and the expression compiler raise that a statement can reach.
const CORPUS_ERRORS: &[(&str, u16, &str)] = &[
    (
        "retrieve (E.nope) from E in Employees",
        1002,
        "semantic error: type 'Employee' has no attribute 'nope'",
    ),
    (
        "retrieve (E.home.nope) from E in Employees",
        1002,
        "semantic error: type '(city: varchar, zip: int4)' has no attribute 'nope'",
    ),
    (
        "retrieve (E.kids.name) from E in Employees",
        1002,
        "semantic error: cannot take attribute 'name' of a collection; bind a range variable over it first",
    ),
    (
        "retrieve (E.name.first) from E in Employees",
        1002,
        "semantic error: type 'varchar' has no attribute 'first'",
    ),
    (
        "retrieve (null.x)",
        1002,
        "semantic error: type 'unknown' has no attribute 'x'",
    ),
    (
        "retrieve ({1, \"a\"})",
        1002,
        "semantic error: type mismatch: expected int8, got varchar",
    ),
    (
        "retrieve (Readings[\"a\"])",
        1002,
        "semantic error: type mismatch: expected integer index, got varchar",
    ),
    (
        "retrieve (E.name[1]) from E in Employees",
        1002,
        "semantic error: type mismatch: expected an array, got varchar",
    ),
    (
        "retrieve (not 1)",
        1002,
        "semantic error: type mismatch: expected boolean, got int8",
    ),
    (
        "retrieve (-\"a\")",
        1002,
        "semantic error: type mismatch: expected a number, got varchar",
    ),
    (
        "retrieve (1 &&& 2)",
        1002,
        "semantic error: function error: operator '&&&' requires an ADT-typed operand",
    ),
    (
        "retrieve (Date(\"1/1/1990\") &&& Date(\"1/1/1990\"))",
        1002,
        "semantic error: function error: operator '&&&' is not defined for Date",
    ),
    (
        "retrieve (O.zone &&& O.nope) from O in Offices",
        1002,
        "semantic error: type 'Office' has no attribute 'nope'",
    ),
    (
        "retrieve (E.birthday.Wobble()) from E in Employees",
        1002,
        "semantic error: function error: ADT 'Date' has no function 'Wobble'",
    ),
    (
        "retrieve (E.birthday.Year(1)) from E in Employees",
        1002,
        "semantic error: function error: 'Year' takes 1 arguments, got 2",
    ),
    (
        "retrieve (Nope(1))",
        1002,
        "semantic error: function error: unknown function 'Nope'",
    ),
    (
        "retrieve (D.Label()) from D in Departments",
        1002,
        "semantic error: function error: no definition of 'Label' applies to these arguments",
    ),
    (
        "retrieve (Label(1))",
        1002,
        "semantic error: function error: no definition of 'Label' applies to these arguments",
    ),
    (
        "retrieve (1 and true)",
        1002,
        "semantic error: type mismatch: expected boolean, got int8",
    ),
    (
        "retrieve (Date(\"1/1/1990\") + 1)",
        1002,
        "semantic error: function error: operator '+' is not defined for Date",
    ),
    (
        "retrieve (\"a\" + 1)",
        1002,
        "semantic error: type mismatch: expected a number, got varchar",
    ),
    (
        "retrieve (1.5 % 2)",
        1002,
        "semantic error: type mismatch: expected integers for %, got float8 % int8",
    ),
    (
        "retrieve (E.name) from E in Employees where E.dept = E.dept",
        1002,
        "semantic error: '=' cannot be applied to references; use 'is' or 'isnot' (the only comparisons applicable to references)",
    ),
    (
        "retrieve (E.name) from E in Employees where E.name = 1",
        1002,
        "semantic error: type mismatch: expected varchar, got int8",
    ),
    (
        "retrieve (E.name) from E in Employees where E.dept < E.dept",
        1002,
        "semantic error: '<' cannot be applied to references; use 'is' or 'isnot' (the only comparisons applicable to references)",
    ),
    (
        "retrieve (E.name) from E in Employees where E.name < 1",
        1002,
        "semantic error: type mismatch: expected varchar, got int8",
    ),
    (
        "retrieve (O.room) from O in Offices where O.phase < O.phase",
        1002,
        "semantic error: type mismatch: expected an ordered type, got adt#1",
    ),
    (
        "retrieve (E.name) from E in Employees where E.ssnum is 1",
        1002,
        "semantic error: 'is'/'isnot' compare object identity; operands are int4, not references",
    ),
    (
        "retrieve (E.name) from E in Employees where 1 in E.kids",
        1002,
        "semantic error: type mismatch: expected a reference (the set holds objects), got int8",
    ),
    (
        "retrieve (E.name) from E in Employees where \"a\" in {1, 2}",
        1002,
        "semantic error: type mismatch: expected int8, got varchar",
    ),
    (
        "retrieve (1 in 2)",
        1002,
        "semantic error: type mismatch: expected a set, got int8",
    ),
    (
        "retrieve (1 union 2)",
        1002,
        "semantic error: type mismatch: expected sets, got int8 union int8",
    ),
    (
        "retrieve ({1} union {\"a\"})",
        1002,
        "semantic error: type mismatch: expected int8, got varchar",
    ),
    (
        "retrieve (sum(P.ssnum over Q)) from P in People",
        1002,
        "semantic error: aggregate error: 'over Q': no such range variable in scope",
    ),
    (
        "retrieve (count(P over P where P.ssnum)) from P in People",
        1002,
        "semantic error: aggregate error: aggregate 'where' must be boolean",
    ),
    (
        "retrieve (sum(P.name over P)) from P in People",
        1002,
        "semantic error: aggregate error: sum requires a numeric argument, got varchar",
    ),
    (
        "retrieve (min(P.kids over P)) from P in People",
        1002,
        "semantic error: aggregate error: min requires an ordered argument, got { own ref Person }",
    ),
    (
        "retrieve (Nope(P.ssnum over P)) from P in People",
        1002,
        "semantic error: function error: unknown function 'Nope'",
    ),
    (
        "retrieve (Spread(P.name over P)) from P in People",
        1002,
        "semantic error: aggregate error: set function 'Spread' parameter 'xs' expects { int4 }, got { varchar }",
    ),
    (
        "retrieve (count(P.ssnum)) from P in People",
        1002,
        "semantic error: aggregate error: aggregate 'count' without an 'over' clause needs a set-valued argument (e.g. count(E.kids))",
    ),
    (
        "retrieve (count(P.kids by P.name)) from P in People",
        1002,
        "semantic error: aggregate error: 'by'/'where' inside an aggregate require an 'over' clause",
    ),
    (
        "retrieve (count(P.kids where P.ssnum > 1)) from P in People",
        1002,
        "semantic error: aggregate error: 'by'/'where' inside an aggregate require an 'over' clause",
    ),
    (
        "execute Tally(Pat)",
        1002,
        "semantic error: aggregate error: 'over p': no such range variable in scope",
    ),
    (
        "retrieve (P.Census()) from P in People",
        1006,
        "'Temps' is not a range variable, parameter or named object",
    ),
    (
        "retrieve (Date(\"garbage\"))",
        1006,
        "ADT error: bad Date literal 'garbage'",
    ),
    (
        "retrieve (P.name) from P in People where P.birthday > Date(\"13/45/1950\")",
        1006,
        "ADT error: invalid date 13/45/1950",
    ),
    (
        "retrieve (P.name) from P in People where P.ssnum + 1",
        1002,
        "semantic error: type mismatch: expected boolean qualification, got int8",
    ),
    (
        "retrieve (Nobody.name)",
        1002,
        "semantic error: 'Nobody' is not a range variable, parameter or named object",
    ),
    (
        "retrieve (S.name) from S in Star",
        1002,
        "semantic error: 'Star' is not a set or array; range variables need a collection",
    ),
    // Accepted, and run clean now: each used to fail at run time (1006)
    // or be refused although it is well typed (1002).
    ("retrieve (null union {1, 2}, {1} minus null)", 0, "ok"),
    (
        "retrieve (sum(Readings), min(Readings), 2.0 in unique(Readings))",
        0,
        "ok",
    ),
    ("retrieve (0.0 / 0.0 < 1.0)", 0, "ok"),
    ("retrieve (count(E over E by E.dept))", 0, "ok"),
    (
        "append to Readings[\"a\"] 1.0",
        1002,
        "semantic error: type mismatch: expected integer index, got varchar",
    ),
];

#[test]
fn front_end_golden_corpus() {
    let mut s = corpus_session();
    let mut diffs = Vec::new();
    for (stmt, want) in CORPUS_PLANS {
        let got = match s.explain(stmt) {
            Ok(e) => e.plan,
            Err(e) => format!("error: {e}"),
        };
        if got != *want {
            diffs.push(format!("{stmt}\n  want {want:?}\n  got  {got:?}"));
        }
    }
    for (stmt, code, want) in CORPUS_ERRORS {
        let got = match s.run(stmt) {
            Ok(_) => (0, "ok".to_string()),
            Err(e) => (e.code(), e.to_string()),
        };
        if got != (*code, want.to_string()) {
            diffs.push(format!("{stmt}\n  want {:?}\n  got  {got:?}", (code, want)));
        }
    }
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}
