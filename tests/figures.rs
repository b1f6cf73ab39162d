//! Figure-fidelity tests: every concrete EXTRA/EXCESS fragment attested in
//! the paper, reproduced as executable behaviour. IDs `F1`–`F12` map to
//! the figure reproduction index in DESIGN.md.

use extra_excess::{Database, DbError, Value};

/// The paper's running schema: Person / Department / Employee with a Date
/// ADT attribute, a `ref` department, and an `own ref` kids set.
fn university_db() -> (
    std::sync::Arc<extra_excess::db::Database>,
    extra_excess::Session,
) {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (
            name: varchar,
            ssnum: int4,
            birthday: Date,
            kids: { own ref Person }
        );
        define type Department (dname: varchar, floor: int4, budget: float8);
        define type Employee inherits Person (
            salary: float8,
            dept: ref Department
        );
        create { own ref Department } Departments;
        create { own ref Employee } Employees;
    "#,
    )
    .unwrap();
    (db, s)
}

fn seed(s: &mut extra_excess::Session) {
    s.run(r#"
        append to Departments (dname = "toy", floor = 2, budget = 100000.0);
        append to Departments (dname = "shoe", floor = 1, budget = 50000.0);
        append to Employees (name = "ann", ssnum = 1, birthday = Date("8/29/1953"), salary = 45000.0);
        append to Employees (name = "bob", ssnum = 2, birthday = Date("1/2/1961"), salary = 52000.0);
        append to Employees (name = "cal", ssnum = 3, birthday = Date("7/4/1949"), salary = 38000.0);
        range of E is Employees;
        range of D is Departments;
        replace E (dept = D) where E.name = "ann" and D.dname = "toy";
        replace E (dept = D) where E.name = "bob" and D.dname = "toy";
        replace E (dept = D) where E.name = "cal" and D.dname = "shoe";
        append to E.kids (name = "annjr", ssnum = 11, birthday = Date("3/3/1980")) where E.name = "ann";
        append to E.kids (name = "bobjr", ssnum = 21, birthday = Date("4/4/1982")) where E.name = "bob";
        append to E.kids (name = "bobsis", ssnum = 22, birthday = Date("5/5/1984")) where E.name = "bob";
    "#)
    .unwrap();
}

// ---------------------------------------------------------------------------
// F1 — Figure 1: define type Person (tuple type with a Date ADT attribute)
// ---------------------------------------------------------------------------

#[test]
fn f1_define_person() {
    let (_db, mut s) = university_db();
    // The types exist and inheritance flattened Person into Employee.
    let r = s
        .query(r#"retrieve (1) from E in Employees where E.name = "nobody""#)
        .unwrap();
    assert!(r.is_empty());
    // Defining the same type twice is an error.
    let err = s.run("define type Person (x: int4)").unwrap_err();
    assert!(matches!(err, DbError::Model(_)), "{err}");
}

// ---------------------------------------------------------------------------
// F2 — separation of type and instance: create sets, single objects, arrays
// ---------------------------------------------------------------------------

#[test]
fn f2_create_instances() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    // Multiple collections of one type.
    s.run("create { own ref Employee } Interns").unwrap();
    s.run(r#"append to Interns (name = "ivy", ssnum = 99, birthday = Date("6/6/2000"), salary = 1000.0)"#)
        .unwrap();
    assert_eq!(
        s.query("retrieve (I.name) from I in Interns")
            .unwrap()
            .len(),
        1
    );
    assert_eq!(
        s.query("retrieve (E.name) from E in Employees")
            .unwrap()
            .len(),
        3
    );
    // A named single object and a named array (paper: StarEmployee, TopTen).
    s.run("create Employee StarEmployee").unwrap();
    s.run("create [10] ref Employee TopTen").unwrap();
    s.run("create Date Today").unwrap();
    // Name collisions rejected.
    let err = s.run("create { own ref Employee } Employees").unwrap_err();
    assert!(matches!(err, DbError::Catalog(_)), "{err}");
}

// ---------------------------------------------------------------------------
// F3 — Figure 3: multiple-inheritance conflict resolved via renaming
// ---------------------------------------------------------------------------

#[test]
fn f3_inheritance_rename() {
    let (_db, mut s) = university_db();
    s.run(
        r#"
        define type Student (name: varchar, dept: ref Department, gpa: float8)
    "#,
    )
    .unwrap();
    // Student and Employee both carry a `dept`: inheriting both without
    // renaming is a conflict — "we provide no automatic resolution".
    let err = s
        .run("define type TA inherits Student, Employee (hours: int4)")
        .unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("rename"),
        "conflict message should suggest renaming: {msg}"
    );
    // Figure 3's resolution: rename on both sides. (`name` also collides
    // between Student and Person-via-Employee.)
    s.run(
        "define type TA inherits \
         Student rename dept to enrolled_dept rename name to student_name, \
         Employee rename dept to works_in_dept \
         (hours: int4)",
    )
    .unwrap();
    s.run("create { own ref TA } TAs").unwrap();
    s.run(r#"append to TAs (student_name = "sam", name = "sam", hours = 20, salary = 9000.0, gpa = 3.5)"#)
        .unwrap();
    let r = s
        .query("retrieve (T.student_name, T.hours, T.salary) from T in TAs")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][1], Value::Int(20));
}

// ---------------------------------------------------------------------------
// F4 — nested-set query with implicit employee iteration
// ---------------------------------------------------------------------------

#[test]
fn f4_nested_set_query() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    // Verbatim paper query: "retrieve (C.name) from C in Employees.kids
    // where Employees.dept.floor = 2".
    let r = s
        .query("retrieve (C.name) from C in Employees.kids where Employees.dept.floor = 2")
        .unwrap();
    let mut names: Vec<String> = r
        .rows
        .iter()
        .map(|row| match &row[0] {
            Value::Str(s) => s.clone(),
            other => panic!("{other:?}"),
        })
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["annjr", "bobjr", "bobsis"],
        "kids of 2nd-floor employees"
    );
    // The `range of C is Employees.kids` form is equivalent.
    let r2 = s
        .query(
            "range of C is Employees.kids; \
             retrieve (C.name) where Employees.dept.floor = 2",
        )
        .unwrap();
    assert_eq!(r2.rows.len(), 3);
}

// ---------------------------------------------------------------------------
// F5 — direct retrieval from named objects and arrays
// ---------------------------------------------------------------------------

#[test]
fn f5_direct_retrieval() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    s.run("create Date Today").unwrap();
    // retrieve (Today) — a named single ADT object (initially null).
    let r = s.query("retrieve (Today)").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Null]]);
    // Named single schema object.
    s.run("create Employee StarEmployee").unwrap();
    s.run(r#"replace StarEmployee (name = "star", salary = 99000.0)"#)
        .unwrap();
    let r = s
        .query("retrieve (StarEmployee.name, StarEmployee.salary)")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::str("star"), Value::Float(99000.0)]]
    );
    // Array slots: retrieve (TopTen[1].name, TopTen[1].salary).
    s.run("create [10] ref Employee TopTen").unwrap();
    s.run(r#"append to TopTen[1] E where E.name = "bob""#)
        .unwrap();
    let r = s
        .query("retrieve (TopTen[1].name, TopTen[1].salary)")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("bob"), Value::Float(52000.0)]]);
    // Unfilled slots are null.
    let r = s.query("retrieve (TopTen[2])").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Null]]);
}

// ---------------------------------------------------------------------------
// F6 — is/isnot identity; own-ref exclusivity; integrity on delete
// ---------------------------------------------------------------------------

#[test]
fn f6_identity_and_integrity() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    // `is` compares object identity: ann and bob share a department.
    let r = s
        .query(
            "retrieve (E.name, E2.name) from E in Employees, E2 in Employees \
             where E.dept is E2.dept and E.name = \"ann\" and E2.name = \"bob\"",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1, "same department object");
    // isnot.
    let r = s
        .query(
            "retrieve (E.name) from E in Employees \
             where E.dept isnot D and D.dname = \"toy\" \
             from D in Departments",
        )
        .unwrap_or_else(|_| {
            // from clauses must precede where; use the canonical order.
            s.query(
                "retrieve (E.name) from E in Employees, D in Departments \
                 where E.dept isnot D and D.dname = \"toy\"",
            )
            .unwrap()
        });
    assert_eq!(r.rows, vec![vec![Value::str("cal")]]);
    // Value comparison on refs is rejected.
    let err = s
        .query("retrieve (E.name) from E in Employees, D in Departments where E.dept = D")
        .unwrap_err();
    assert!(err.to_string().contains("is"), "{err}");

    // Own-ref exclusivity: a kid cannot join another employee's kids.
    let err = s
        .run(
            "range of E is Employees; range of C is Employees.kids; \
             append to E.kids C where E.name = \"cal\" and C.name = \"annjr\"",
        )
        .unwrap_err();
    assert!(
        err.to_string().contains("own-ref") || err.to_string().contains("member"),
        "{err}"
    );

    // GEM-style null-out: deleting a department nulls employee refs.
    s.run("range of D is Departments; delete D where D.dname = \"toy\"")
        .unwrap();
    let r = s
        .query("retrieve (E.name) from E in Employees where E.dept is null")
        .unwrap();
    assert_eq!(r.rows.len(), 2, "ann and bob lost their department");

    // Cascade: deleting an employee deletes the kids.
    let before = s
        .query("retrieve (C.name) from C in Employees.kids")
        .unwrap();
    assert_eq!(before.rows.len(), 3);
    s.run("range of E is Employees; delete E where E.name = \"bob\"")
        .unwrap();
    let after = s
        .query("retrieve (C.name) from C in Employees.kids")
        .unwrap();
    assert_eq!(after.rows.len(), 1, "bob's kids died with him");
}

// ---------------------------------------------------------------------------
// F7 — the Complex ADT: both call syntaxes and the overloaded + operator
// ---------------------------------------------------------------------------

#[test]
fn f7_complex_adt() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type CnumPair (val1: Complex, val2: Complex);
        create { own CnumPair } Pairs;
        append to Pairs (val1 = Complex("(1, 2)"), val2 = Complex("(3, 4)"));
    "#,
    )
    .unwrap();
    // Method syntax: CnumPair.val1.Add(CnumPair.val2).
    let a = s
        .query("retrieve (P.val1.Add(P.val2)) from P in Pairs")
        .unwrap();
    // Symmetric syntax: Add(CnumPair.val1, CnumPair.val2).
    let b = s
        .query("retrieve (Add(P.val1, P.val2)) from P in Pairs")
        .unwrap();
    assert_eq!(a.rows, b.rows, "both call syntaxes are identical (§4.1)");
    // The overloaded + operator reaches the same function.
    let c = s
        .query("retrieve (P.val1 + P.val2) from P in Pairs")
        .unwrap();
    assert_eq!(a.rows, c.rows);
    match &a.rows[0][0] {
        Value::Adt(_, _) => {}
        other => panic!("expected a Complex, got {other:?}"),
    }
    let mag = s
        .query("retrieve (Magnitude(P.val1 + P.val2)) from P in Pairs")
        .unwrap();
    // (1+3, 2+4) = (4, 6); |(4,6)| = sqrt(52).
    match mag.rows[0][0] {
        Value::Float(f) => assert!((f - 52f64.sqrt()).abs() < 1e-9),
        ref other => panic!("{other:?}"),
    }
}

// ---------------------------------------------------------------------------
// F8 — aggregates with over/by; unique
// ---------------------------------------------------------------------------

#[test]
fn f8_aggregates_over_by() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    // Plain aggregate over a fresh range.
    let r = s
        .query("retrieve (avg(E.salary over E)) from E in Employees")
        .unwrap();
    match r.rows[0][0] {
        Value::Float(f) => assert!((f - 45000.0).abs() < 1e-6),
        ref other => panic!("{other:?}"),
    }
    // Correlated aggregate: department payroll.
    let r = s
        .query(
            "retrieve (D.dname, total = sum(E.salary over E where E.dept is D)) \
             from D in Departments order by D.dname asc",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("shoe"), Value::Float(38000.0)],
            vec![Value::str("toy"), Value::Float(97000.0)],
        ]
    );
    // Grouped (by) aggregate, correlated on the outer variable's value:
    // each employee sees their own department's average.
    let r = s
        .query(
            "retrieve (E.name, davg = avg(E2.salary over E2 by E2.dept where E2.dept isnot null)) \
             from E in Employees, E2 in Employees \
             where E.name = \"ann\" and E2.name = E.name",
        )
        .unwrap_or_else(|e| panic!("{e}"));
    let _ = r;
    // count over nested sets at different levels (paper §3.4: partitioning
    // across levels of a complex object).
    let r = s
        .query("retrieve (count(C over C)) from C in Employees.kids")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(3)]]);
    // count of a set-valued attribute — no over needed.
    let r = s
        .query("retrieve (E.name, n = count(E.kids)) from E in Employees order by E.name asc")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("ann"), Value::Int(1)],
            vec![Value::str("bob"), Value::Int(2)],
            vec![Value::str("cal"), Value::Int(0)],
        ]
    );
    // unique renders SQL-style unique clauses unnecessary [Klau85].
    let r = s
        .query("retrieve (unique(E.dept.dname over E)) from E in Employees")
        .unwrap();
    match &r.rows[0][0] {
        Value::Set(items) => assert_eq!(items.len(), 2),
        other => panic!("{other:?}"),
    }
    // min/max on an ADT (Date is ordered).
    let r = s
        .query("retrieve (min(E.birthday over E)) from E in Employees")
        .unwrap();
    match &r.rows[0][0] {
        Value::Adt(_, _) => {}
        other => panic!("{other:?}"),
    }
}

// ---------------------------------------------------------------------------
// F9 — EXCESS functions (inherited) and procedures (where-bound)
// ---------------------------------------------------------------------------

#[test]
fn f9_functions_procedures() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    // A derived attribute on Person, inherited by Employee.
    s.run(
        "define function FirstInitial (p: Person) returns varchar \
         as retrieve (p.name)",
    )
    .unwrap();
    let r = s
        .query("retrieve (E.FirstInitial()) from E in Employees where E.name = \"ann\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("ann")]]);
    // Function defined for Employee, both syntaxes.
    s.run(
        "define function Monthly (e: Employee) returns float8 \
         as retrieve (e.salary / 12.0)",
    )
    .unwrap();
    let a = s
        .query("retrieve (Monthly(E)) from E in Employees where E.name = \"bob\"")
        .unwrap();
    let b = s
        .query("retrieve (E.Monthly()) from E in Employees where E.name = \"bob\"")
        .unwrap();
    assert_eq!(a.rows, b.rows);
    // A set-returning function.
    s.run(
        "define function KidsOf (e: Employee) returns { ref Person } \
         as retrieve (C) from C in e.kids",
    )
    .unwrap();
    let r = s
        .query("retrieve (count(E.KidsOf())) from E in Employees where E.name = \"bob\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2)]]);

    // Procedures: where-bound parameters, "invoked for all possible
    // bindings (instead of just once, with constant parameters)".
    s.run(
        "define procedure GiveRaise (amount: float8, dn: varchar) as \
         replace E (salary = E.salary + amount) where E.dept.dname = dn end",
    )
    .unwrap();
    s.run("range of E is Employees").unwrap();
    // One binding per department: everyone gets a floor-proportional raise.
    s.run("execute GiveRaise(D.floor * 1000.0, D.dname) where D.budget > 0.0")
        .unwrap_or_else(|e| panic!("{e}"));
    let r = s
        .query("retrieve (E.name, E.salary) order by E.name asc")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("ann"), Value::Float(47000.0)],
            vec![Value::str("bob"), Value::Float(54000.0)],
            vec![Value::str("cal"), Value::Float(39000.0)],
        ]
    );
}

// ---------------------------------------------------------------------------
// F10 — authorization: grants, groups, data abstraction via functions
// ---------------------------------------------------------------------------

#[test]
fn f10_authorization() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    s.run(
        r#"
        create user alice;
        create user bob;
        create group staff;
        add user alice to group staff;
        grant read on Employees to staff;
        grant read on Departments to all_users
    "#,
    )
    .unwrap();
    let db = _db;
    // alice reads through her group.
    let mut alice = db.session_as("alice");
    assert_eq!(
        alice
            .query("retrieve (E.name) from E in Employees")
            .unwrap()
            .len(),
        3
    );
    // bob cannot read Employees, but all_users covers Departments.
    let mut bobs = db.session_as("bob");
    let err = bobs
        .query("retrieve (E.name) from E in Employees")
        .unwrap_err();
    assert!(matches!(err, DbError::Auth(_)), "{err}");
    assert_eq!(
        bobs.query("retrieve (D.dname) from D in Departments")
            .unwrap()
            .len(),
        2
    );
    // Updates need their own privilege.
    let err = alice
        .run("range of E is Employees; delete E where E.name = \"cal\"")
        .unwrap_err();
    assert!(matches!(err, DbError::Auth(_)), "{err}");
    // Revoke works.
    s.run("revoke read on Employees from staff").unwrap();
    let err = alice
        .query("retrieve (E.name) from E in Employees")
        .unwrap_err();
    assert!(matches!(err, DbError::Auth(_)), "{err}");
    // Non-admins cannot grant.
    let err = alice.run("grant read on Employees to alice").unwrap_err();
    assert!(matches!(err, DbError::Auth(_)), "{err}");

    // Function execution is itself a privilege: alice (read on
    // Employees) cannot call a function she was not granted.
    s.run("define function Salary2 (e: Employee) returns float8 as retrieve (e.salary)")
        .unwrap();
    s.run("grant read on Employees to alice").unwrap();
    let err = alice
        .query("retrieve (E.Salary2()) from E in Employees")
        .unwrap_err();
    assert!(matches!(err, DbError::Auth(_)), "{err}");
    s.run("grant execute on Salary2 to alice").unwrap();
    alice
        .query("retrieve (E.Salary2()) from E in Employees")
        .unwrap();

    // Data abstraction (§4.2.3): grant access only through a procedure —
    // the body runs with definer rights.
    s.run(
        "define procedure Anonymize (nm: varchar) as \
         range of X is Employees; \
         replace X (name = \"redacted\") where X.name = nm end; \
         grant execute on Anonymize to bob",
    )
    .unwrap();
    bobs.run("execute Anonymize(\"cal\")").unwrap();
    let r = s
        .query("retrieve (E.name) from E in Employees where E.name = \"redacted\"")
        .unwrap();
    assert_eq!(
        r.rows.len(),
        1,
        "procedure mutated what bob could not touch directly"
    );

    // Privileges follow what a name resolves to, not how it is spelled.
    // An EXCESS function named `Year` does not gate the Date ADT's `Year`.
    s.run("define function Year (e: Employee) returns int4 as retrieve (e.ssnum)")
        .unwrap();
    let ann_year = "retrieve (E.birthday.Year()) from E in Employees where E.name = \"ann\"";
    assert_eq!(
        alice.query(ann_year).unwrap().rows,
        vec![vec![Value::Int(1953)]]
    );
    // A range variable shadows a named object of the same name: ranging
    // over Employees as `Today` reads Employees, not the object `Today`.
    s.run("create Date Today").unwrap();
    let shadowed = "retrieve (Today.name) from Today in Employees";
    assert_eq!(
        alice.query(shadowed).unwrap().rows,
        s.query(shadowed).unwrap().rows
    );
    // An aggregate reads the ranges it iterates: bob, who cannot read
    // Employees, cannot count them either.
    let err = bobs
        .query("retrieve (count(E over E)) from E in Employees")
        .unwrap_err();
    assert!(matches!(err, DbError::Auth(_)), "{err}");
}

// ---------------------------------------------------------------------------
// F11 — universal quantification in range statements
// ---------------------------------------------------------------------------

#[test]
fn f11_universal_quantification() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    // Departments where ALL employees of the database earn less than the
    // budget (holds for both) vs a tighter bound (holds for neither).
    // toy budget 100000 clears every salary; shoe (50000) does not clear
    // bob's 52000.
    let r = s
        .query(
            "range of E is all Employees; \
             retrieve (D.dname) from D in Departments where E.salary < D.budget",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::str("toy")]],
        "only toy's budget dominates all salaries"
    );
    // Tighter bound: toy/2 = 50000 still fails on bob.
    let r = s
        .query(
            "range of E is all Employees; \
             retrieve (D.dname) from D in Departments \
             where E.salary < D.budget / 2.0",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 0);
    // Universal over an empty set is vacuously true.
    s.run("create { own ref Employee } Nobody").unwrap();
    let r = s
        .query(
            "range of N is all Nobody; \
             retrieve (D.dname) from D in Departments where N.salary > 0.0",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2, "vacuous truth");
}

// ---------------------------------------------------------------------------
// F12 — updates: append/delete/replace over nested targets
// ---------------------------------------------------------------------------

#[test]
fn f12_updates() {
    let (_db, mut s) = university_db();
    seed(&mut s);
    // Nested append (tested in seed) and nested delete:
    s.run(
        "range of E is Employees; range of C is E.kids; \
         delete C where C.name = \"bobsis\"",
    )
    .unwrap();
    let r = s
        .query("retrieve (C.name) from C in Employees.kids")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // The deleted own-ref kid no longer exists anywhere.
    let r = s
        .query("retrieve (C.name) from C in Employees.kids where C.name = \"bobsis\"")
        .unwrap();
    assert!(r.is_empty());
    // Replace through a nested binding.
    s.run(
        "range of E is Employees; range of C is E.kids; \
         replace C (ssnum = 999) where C.name = \"annjr\"",
    )
    .unwrap();
    let r = s
        .query("retrieve (C.ssnum) from C in Employees.kids where C.name = \"annjr\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(999)]]);
    // Set-oriented replace: everyone on floor 2 gets a raise (the paper's
    // canonical update).
    s.run(
        "range of E is Employees; \
         replace E (salary = E.salary * 1.1) where E.dept.floor = 2",
    )
    .unwrap();
    let r = s
        .query("retrieve (E.salary) from E in Employees where E.name = \"ann\"")
        .unwrap();
    match r.rows[0][0] {
        Value::Float(f) => assert!((f - 49500.0).abs() < 1e-6),
        ref other => panic!("{other:?}"),
    }
    // Whole-value append between collections.
    s.run("create { own ref Employee } Alumni").unwrap();
    let err = s
        .run("range of E is Employees; append to Alumni E where E.name = \"cal\"")
        .err();
    // An employee cannot be own-ref member of two sets (exclusivity) —
    // Employees already owns cal.
    assert!(err.is_some(), "own-ref exclusivity across collections");
    // But a ref-mode collection can share.
    s.run("create { ref Employee } Wall").unwrap();
    s.run("range of E is Employees; append to Wall E where E.name = \"cal\"")
        .unwrap();
    assert_eq!(
        s.query("retrieve (W.name) from W in Wall").unwrap().len(),
        1
    );
}
