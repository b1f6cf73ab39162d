//! EXCESS function and procedure edge cases: recursion guards, set
//! functions as aggregates, where-bound procedure invocation, parameter
//! conformance.

use extra_excess::{Database, Value};

fn base() -> (
    std::sync::Arc<extra_excess::db::Database>,
    extra_excess::Session,
) {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, age: int4);
        create { own ref Person } People;
        append to People (name = "a", age = 10);
        append to People (name = "b", age = 20);
        append to People (name = "c", age = 30);
    "#,
    )
    .unwrap();
    (db, s)
}

#[test]
fn recursive_function_rejected() {
    let (_db, mut s) = base();
    // The body is validated at definition time; a self-reference cannot
    // resolve (the function is not yet in the catalog), so recursion is
    // impossible to set up.
    let err = s
        .run("define function Loop (p: Person) returns int4 as retrieve (p.Loop())")
        .unwrap_err();
    assert!(err.to_string().contains("Loop"), "{err}");
}

#[test]
fn mutual_recursion_through_redefinition_rejected() {
    let (_db, mut s) = base();
    // Dropping and redefining can close a cycle the definition-time
    // check never sees; compiling a call must refuse it, not recurse.
    s.run(
        "define function Ping (p: Person) returns int4 as retrieve (p.age); \
         define function Pong (p: Person) returns int4 as retrieve (p.Ping()); \
         drop function Ping; \
         define function Ping (p: Person) returns int4 as retrieve (p.Pong())",
    )
    .unwrap();
    let err = s.query("retrieve (P.Ping()) from P in People").unwrap_err();
    assert_eq!(err.code(), 1006, "{err}");
    assert!(
        err.to_string().contains("recursive EXCESS function 'Ping'"),
        "{err}"
    );
}

#[test]
fn same_named_functions_on_different_receivers_call_each_other() {
    let (_db, mut s) = base();
    // `Name` on `Emp` calls `Name` on `Dept`: two definitions sharing a
    // name, so no recursion.
    s.run(
        r#"
        define type Dept (dname: varchar);
        define type Emp (ename: varchar, dept: ref Dept);
        create { own ref Dept } Depts;
        create { own ref Emp } Emps;
        append to Depts (dname = "toys");
        append to Emps (ename = "e");
        range of E is Emps; range of D is Depts;
        replace E (dept = D) where D.dname = "toys";
        define function Name (d: Dept) returns varchar as retrieve (d.dname);
        define function Name (e: Emp) returns varchar as retrieve (e.dept.Name())
    "#,
    )
    .unwrap();
    let r = s.query("retrieve (E.Name()) from E in Emps").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("toys")]]);
}

#[test]
fn override_calls_supertype_version_on_another_object() {
    let (_db, mut s) = base();
    s.run(
        r#"
        define type Guide (name: varchar, mentor: ref Guide);
        define type Senior inherits Guide (rank: int4);
        create { own ref Guide } Guides;
        create { own ref Senior } Seniors;
        append to Guides (name = "g");
        append to Seniors (name = "s", rank = 1);
        range of S is Seniors; range of G is Guides;
        replace S (mentor = G) where G.name = "g";
        define function Describe (g: Guide) returns varchar as retrieve (g.name);
        define function Describe (s: Senior) returns varchar as retrieve (s.mentor.Describe())
    "#,
    )
    .unwrap();
    let r = s
        .query("retrieve (S.Describe()) from S in Seniors")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("g")]]);
}

#[test]
fn procedure_recursion_depth_guard() {
    let (_db, mut s) = base();
    s.run("define procedure Spin (x: int4) as execute Spin(x) end")
        .unwrap();
    let err = s.run("execute Spin(1)").unwrap_err();
    assert!(err.to_string().contains("nesting"), "{err}");
}

#[test]
fn user_set_function_as_aggregate() {
    let (_db, mut s) = base();
    // A set function over { int4 }: usable with aggregate syntax.
    s.run(
        "define function Spread (xs: { int4 }) returns int8 \
         as retrieve (max(x over x) - min(x over x)) from x in xs",
    )
    .unwrap();
    let r = s
        .query("retrieve (Spread(P.age over P)) from P in People")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(20)]]);
}

#[test]
fn function_with_multiple_params() {
    let (_db, mut s) = base();
    s.run(
        "define function Between (p: Person, lo: int4, hi: int4) returns boolean \
         as retrieve (p.age >= lo and p.age <= hi)",
    )
    .unwrap();
    let r = s
        .query("retrieve (P.name) from P in People where P.Between(15, 25)")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("b")]]);
    // Symmetric syntax with extra arguments.
    let r = s
        .query("retrieve (P.name) from P in People where Between(P, 5, 100)")
        .unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn procedure_param_conformance_checked() {
    let (_db, mut s) = base();
    s.run(
        "define procedure SetAge (nm: varchar, a: int4) as \
         range of P is People; replace P (age = a) where P.name = nm end",
    )
    .unwrap();
    s.run("execute SetAge(\"a\", 99)").unwrap();
    let r = s
        .query("retrieve (P.age) from P in People where P.name = \"a\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(99)]]);
    // Wrong argument type fails cleanly.
    let err = s.run("execute SetAge(1, 2)").unwrap_err();
    assert!(err.to_string().contains("mismatch"), "{err}");
    // Wrong arity.
    let err = s.run("execute SetAge(\"a\")").unwrap_err();
    assert!(err.to_string().contains("argument"), "{err}");
}

#[test]
fn procedure_invoked_per_binding_with_argument_expressions() {
    let (_db, mut s) = base();
    s.run(
        r#"
        define type Rule (pattern: varchar, bump: int4);
        create { own Rule } Rules;
        append to Rules (pattern = "a", bump = 1);
        append to Rules (pattern = "b", bump = 2);
        define procedure Bump (nm: varchar, amount: int4) as
            range of P is People;
            replace P (age = P.age + amount) where P.name = nm
        end
    "#,
    )
    .unwrap();
    // One invocation per rule, arguments drawn from the binding.
    s.run("range of R is Rules; execute Bump(R.pattern, R.bump) where R.bump > 0")
        .unwrap();
    let r = s
        .query("retrieve (P.name, P.age) from P in People order by P.name asc")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("a"), Value::Int(11)],
            vec![Value::str("b"), Value::Int(22)],
            vec![Value::str("c"), Value::Int(30)],
        ]
    );
}

#[test]
fn functions_compose() {
    let (_db, mut s) = base();
    s.run(
        "define function Doubled (p: Person) returns int4 as retrieve (p.age * 2); \
         define function Quadrupled (p: Person) returns int4 as retrieve (p.Doubled() * 2)",
    )
    .unwrap();
    let r = s
        .query("retrieve (P.Quadrupled()) from P in People where P.name = \"b\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(80)]]);
}

#[test]
fn function_results_usable_in_qualifications_and_order() {
    let (_db, mut s) = base();
    s.run("define function Doubled (p: Person) returns int4 as retrieve (p.age * 2)")
        .unwrap();
    let r = s
        .query(
            "retrieve (P.name) from P in People \
             where P.Doubled() >= 40 order by P.Doubled() desc",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("c")], vec![Value::str("b")]]);
}
