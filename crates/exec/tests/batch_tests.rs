//! Batch-boundary tests for the vectorized executor.
//!
//! The interesting sizes are the edges: empty inputs, collections that
//! fill a batch exactly, one past a batch, and predicates whose survivors
//! sit at a batch's very end. Every query is run at several batch sizes
//! (including 1, which degenerates to row-at-a-time) and must produce an
//! identical `QueryResult`.

use std::sync::Arc;

use exodus_db::{Database, Value};

/// Batch sizes exercised against every scenario: degenerate row-at-a-time,
/// a size smaller than the data, and the default.
const SIZES: &[usize] = &[1, 7, excess_exec::DEFAULT_BATCH_SIZE];

/// Build the `n`-row fixture with the batch size fixed at construction
/// time via [`Database::builder`]. The data is deterministic, so two
/// fixtures at different batch sizes hold identical contents.
fn db_with_rows_at(n: i64, batch_size: usize) -> Arc<Database> {
    let db = Database::builder().batch_size(batch_size).build().unwrap();
    let mut s = db.session();
    s.run(
        r#"
        define type Row (k: int4, v: float8);
        create { own Row } Rows;
    "#,
    )
    .unwrap();
    db.bulk_append(
        "Rows",
        (0..n)
            .map(|i| Value::Tuple(vec![Value::Int(i), Value::Float(i as f64)]))
            .collect(),
    )
    .unwrap();
    db
}

/// Run `q` against an `n_rows` fixture at every batch size and assert
/// all results are identical, returning the common result.
fn same_at_all_sizes(n_rows: i64, q: &str) -> exodus_db::QueryResult {
    let first = {
        let db = db_with_rows_at(n_rows, SIZES[0]);
        db.session().query(q).unwrap()
    };
    for &n in &SIZES[1..] {
        let db = db_with_rows_at(n_rows, n);
        let r = db.session().query(q).unwrap();
        assert_eq!(first, r, "batch size {n} diverged on {q}");
    }
    first
}

#[test]
fn empty_collection() {
    let r = same_at_all_sizes(0, "retrieve (R.k) from R in Rows");
    assert!(r.is_empty());
    let r = same_at_all_sizes(0, "retrieve (count(R over R)) from R in Rows");
    assert_eq!(r.rows[0][0], Value::Int(0));
}

#[test]
fn exactly_batch_size() {
    // 7 rows at batch size 7: one full batch, then exhaustion.
    let r = same_at_all_sizes(7, "retrieve (R.k) from R in Rows");
    assert_eq!(r.len(), 7);
    assert_eq!(r.rows[6][0], Value::Int(6));
}

#[test]
fn batch_size_plus_one() {
    // 8 rows at batch size 7: a full batch plus a one-row straggler.
    let r = same_at_all_sizes(8, "retrieve (R.k) from R in Rows order by R.k");
    assert_eq!(r.len(), 8);
    assert_eq!(r.rows[7][0], Value::Int(7));
}

#[test]
fn default_batch_size_boundaries() {
    let n = excess_exec::DEFAULT_BATCH_SIZE as i64;
    for count in [n, n + 1] {
        let r = same_at_all_sizes(count, "retrieve (count(R over R)) from R in Rows");
        assert_eq!(r.rows[0][0], Value::Int(count));
    }
}

#[test]
fn predicate_selects_only_last_row_of_batch() {
    // With batch size 7 the row k = 6 is the last row of the first batch
    // and k = 13 the last of the second; the filter's selection vector
    // must keep exactly those.
    let r = same_at_all_sizes(
        14,
        "retrieve (R.k) from R in Rows where R.k = 6 or R.k = 13",
    );
    assert_eq!(r.len(), 2);
    let mut got: Vec<&Value> = r.rows.iter().map(|row| &row[0]).collect();
    got.sort_by_key(|v| match v {
        Value::Int(i) => *i,
        _ => unreachable!(),
    });
    assert_eq!(got, vec![&Value::Int(6), &Value::Int(13)]);
}

#[test]
fn joins_and_sorts_survive_rebatching() {
    // Cross product spans batch boundaries in both inputs; sort
    // materializes everything and re-chunks its output.
    let r = same_at_all_sizes(
        9,
        "retrieve (A.k, B.k) from A in Rows, B in Rows where A.k = B.k order by A.k",
    );
    assert_eq!(r.len(), 9);
    assert_eq!(r.rows[8], vec![Value::Int(8), Value::Int(8)]);
}

#[test]
fn updates_identical_across_batch_sizes() {
    // Set-oriented replace must touch the same members no matter how the
    // satisfying bindings were batched.
    for &n in SIZES {
        let db = db_with_rows_at(10, n);
        let mut s = db.session();
        s.run("range of R is Rows; replace R (v = 99.0) where R.k >= 6")
            .unwrap();
        let r = s
            .query("retrieve (R.k) from R in Rows where R.v = 99.0 order by R.k")
            .unwrap();
        assert_eq!(r.len(), 4, "batch size {n}");
        assert_eq!(r.rows[0][0], Value::Int(6));
        s.run("range of R is Rows; delete R where R.v = 99.0")
            .unwrap();
        let r = s
            .query("retrieve (count(R over R)) from R in Rows")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(6), "batch size {n}");
    }
}

// ---------------------------------------------------------------------------
// Differential test: paths resolved per batch vs a naive evaluator
// ---------------------------------------------------------------------------

/// A company whose references exercise every case the batched
/// dereference declines or dedupes, loaded identically into every
/// configuration:
///
/// * `Emp` inherits `Person` with `name` renamed to `ename` (inherited
///   attributes come first, so `dept` sits at position 4);
/// * employees 0‥1099 all reference department 0 — more than a whole
///   default batch shares one object;
/// * every 11th employee has a null `dept`; department 5 is deleted
///   after the load, which nulls the references to it;
/// * department 3's `blurb` is past the inline limit, so its record is
///   a LOB payload;
/// * `dept.site` and `mentor.dept` make two- and three-hop paths;
/// * every 50th employee has two kids (the unnest source), appended; ten
///   employees later comes one loaded with two kids, one with a null
///   name and one with two grandkids, one of them of null age; 25 later
///   one whose `kids` is null; every other set is empty;
/// * `slots`, a fixed array of own tuples, is full, partly or wholly
///   unfilled (the unnest drops null items) or null, with null
///   attributes here and there.
const N_EMPS: usize = 4_200;
const N_DEPTS: usize = 8;

fn company(batch_size: usize, workers: usize) -> Arc<Database> {
    let db = Database::builder()
        .batch_size(batch_size)
        .worker_threads(workers)
        .build()
        .unwrap();
    let mut s = db.session();
    s.run(
        r#"
        define type Site (city: varchar, rank: int4);
        define type Dept (dname: varchar, floor: int4, budget: float8, site: ref Site, blurb: varchar);
        define type Person (name: varchar, age: int4, kids: { own Person });
        define type Emp inherits Person rename name to ename
            (id: int4, dept: ref Dept, salary: float8, mentor: ref Emp, slots: [3] Person);
        create { own ref Site } Sites;
        create { own ref Dept } Depts;
        create { own ref Emp } Emps;
    "#,
    )
    .unwrap();
    let sites = db
        .bulk_append(
            "Sites",
            (0..3)
                .map(|i| Value::Tuple(vec![Value::Str(format!("city{i}")), Value::Int(i)]))
                .collect(),
        )
        .unwrap();
    let depts = db
        .bulk_append(
            "Depts",
            (0..N_DEPTS)
                .map(|i| {
                    let blurb = if i == 3 {
                        "x".repeat(9_000)
                    } else {
                        format!("b{i}")
                    };
                    Value::Tuple(vec![
                        Value::Str(format!("dept{i}")),
                        Value::Int(i as i64 % 3 + 1),
                        Value::Float(1_000.5 + i as f64 * 0.1),
                        if i == 6 {
                            Value::Null
                        } else {
                            Value::Ref(sites[i % 3])
                        },
                        Value::Str(blurb),
                    ])
                })
                .collect(),
        )
        .unwrap();
    let person =
        |name: Value, age: Value, kids: Vec<Value>| Value::Tuple(vec![name, age, Value::Set(kids)]);
    let slot = |i: usize, k: usize| {
        let name = match k {
            1 if i.is_multiple_of(3) => Value::Null,
            _ => Value::Str(format!("s{i}_{k}")),
        };
        let age = if i.is_multiple_of(7) {
            Value::Null
        } else {
            Value::Int(k as i64)
        };
        person(name, age, Vec::new())
    };
    let emp = |i: usize, mentor: Value| {
        let dept = match i {
            _ if i % 11 == 10 => Value::Null,
            0..=1099 => Value::Ref(depts[0]),
            _ => Value::Ref(depts[(i * 7) % N_DEPTS]),
        };
        let kids = match i % 50 {
            10 => Value::Set(vec![
                person(Value::Null, Value::Int(4), Vec::new()),
                person(
                    Value::Str(format!("bulk{i}")),
                    Value::Int(3),
                    vec![
                        person(Value::Str(format!("g{i}_0")), Value::Int(2), Vec::new()),
                        person(Value::Str(format!("g{i}_1")), Value::Null, Vec::new()),
                    ],
                ),
            ]),
            25 => Value::Null,
            _ => Value::Set(Vec::new()),
        };
        let slots = match i % 5 {
            0 => Value::Array(vec![slot(i, 0), Value::Null, slot(i, 2)]),
            1 => Value::Array(vec![Value::Null; 3]),
            2 => Value::Null,
            _ => Value::Array((0..3).map(|k| slot(i, k)).collect()),
        };
        Value::Tuple(vec![
            Value::Str(format!("emp{i:05}")),
            Value::Int(20 + (i % 40) as i64),
            kids,
            Value::Int(i as i64),
            dept,
            Value::Float(100.25 + (i % 97) as f64 * 1.1),
            mentor,
            slots,
        ])
    };
    // Mentors are earlier employees: load the first hundred, then the
    // rest pointing at them.
    let seniors = db
        .bulk_append("Emps", (0..100).map(|i| emp(i, Value::Null)).collect())
        .unwrap();
    db.bulk_append(
        "Emps",
        (100..N_EMPS)
            .map(|i| emp(i, Value::Ref(seniors[(i * 13) % 100])))
            .collect(),
    )
    .unwrap();
    s.run("range of E is Emps; range of D is Depts").unwrap();
    for i in (0..N_EMPS).step_by(50) {
        for k in 0..2 {
            s.run(&format!(
                r#"append to E.kids (name = "kid{i}_{k}", age = {k}) where E.id = {i}"#
            ))
            .unwrap();
        }
    }
    s.run(r#"delete D where D.dname = "dept5""#).unwrap();
    db
}

/// The naive evaluator: one `value_of_at` and a full decode per hop, no
/// batching, no caching.
struct Naive<'a> {
    store: &'a extra_model::ObjectStore,
    snap: u64,
}

// Attribute positions (declaration order, inherited attributes first).
const ENAME: usize = 0;
const KIDS: usize = 2;
const DEPT: usize = 4;
const SALARY: usize = 5;
const MENTOR: usize = 6;
const SLOTS: usize = 7;
const NAME: usize = 0;
const AGE: usize = 1;
const DNAME: usize = 0;
const FLOOR: usize = 1;
const BUDGET: usize = 2;
const SITE: usize = 3;
const CITY: usize = 0;

impl Naive<'_> {
    fn deref(&self, mut v: Value) -> Value {
        while let Value::Ref(oid) = v {
            v = self.store.value_of_at(oid, self.snap).unwrap();
        }
        v
    }

    /// `v.p1.p2…`, dereferencing before every step.
    fn path(&self, v: &Value, steps: &[usize]) -> Value {
        let mut v = v.clone();
        for &pos in steps {
            v = match self.deref(v) {
                Value::Tuple(mut fields) => fields.swap_remove(pos),
                Value::Null => return Value::Null,
                other => panic!("path through {other:?}"),
            };
        }
        v
    }

    /// The non-null items of the set or array `v.p1.p2…`.
    fn items(&self, v: &Value, steps: &[usize]) -> Vec<Value> {
        match self.path(v, steps) {
            Value::Set(items) | Value::Array(items) => {
                items.into_iter().filter(|i| !i.is_null()).collect()
            }
            Value::Null => Vec::new(),
            other => panic!("items of {other:?}"),
        }
    }

    /// The members of a collection, in scan order.
    fn members(&self, db: &Database, name: &str) -> Vec<Value> {
        let anchor = db.read_catalog().named[name].oid;
        let mut scan = self.store.scan_members_batch_at(anchor, self.snap).unwrap();
        let mut all = Vec::new();
        loop {
            let chunk = scan.next_batch(64).unwrap();
            if chunk.is_empty() {
                return all;
            }
            all.extend(chunk.into_iter().map(|(_, v)| v));
        }
    }
}

/// Rows as a multiset: sorted by their debug rendering (floats render
/// exactly, so equal renderings are equal bits).
fn multiset(mut rows: Vec<Vec<Value>>) -> Vec<String> {
    let mut out: Vec<String> = rows.drain(..).map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// Every path shape, against the naive evaluator, at the engine's
/// current snapshot, over a company with `n_kids` kids.
fn check_against_naive(db: &Arc<Database>, what: &str, n_kids: usize) {
    let guard = db.store().storage().begin_snapshot();
    let naive = Naive {
        store: db.store(),
        snap: guard.ts(),
    };
    let emps = naive.members(db, "Emps");
    assert_eq!(emps.len(), N_EMPS);
    let mut s = db.session();
    s.run("range of E is Emps").unwrap();
    let mut check = |q: &str, expect: Vec<Vec<Value>>| {
        let got = s.query(q).unwrap_or_else(|e| panic!("{what}: {q}: {e}"));
        assert_eq!(multiset(got.rows), multiset(expect), "{what}: {q}");
    };
    let per_emp = |f: &dyn Fn(&Value) -> Option<Vec<Value>>| -> Vec<Vec<Value>> {
        emps.iter().filter_map(f).collect()
    };

    // E.a (inherited + renamed), E.r.a, E.r.r.a in targets.
    check(
        "retrieve (E.ename, E.dept.budget, E.dept.site.city, E.mentor.dept.floor)",
        per_emp(&|e| {
            Some(vec![
                naive.path(e, &[ENAME]),
                naive.path(e, &[DEPT, BUDGET]),
                naive.path(e, &[DEPT, SITE, CITY]),
                naive.path(e, &[MENTOR, DEPT, FLOOR]),
            ])
        }),
    );
    // Path in `where` (a null reference fails the comparison).
    check(
        "retrieve (E.ename) where E.dept.floor = 2 and E.salary > 120.0",
        per_emp(&|e| {
            let floor = naive.path(e, &[DEPT, FLOOR]);
            let Value::Float(salary) = naive.path(e, &[SALARY]) else {
                panic!()
            };
            (floor == Value::Int(2) && salary > 120.0).then(|| vec![naive.path(e, &[ENAME])])
        }),
    );
    // Path as the sort key.
    check(
        "retrieve (E.ename, E.dept.dname) where E.mentor.dept.floor = 1 \
         order by E.dept.budget asc",
        per_emp(&|e| {
            (naive.path(e, &[MENTOR, DEPT, FLOOR]) == Value::Int(1))
                .then(|| vec![naive.path(e, &[ENAME]), naive.path(e, &[DEPT, DNAME])])
        }),
    );
    // Paths in `over` / `by`: float folds in scan order, bit for bit.
    let mut total = 0f64;
    let mut any = false;
    let mut by_floor: Vec<(Value, f64, usize)> = Vec::new();
    let mut dnames: Vec<Value> = Vec::new();
    for e in &emps {
        if let Value::Float(b) = naive.path(e, &[DEPT, BUDGET]) {
            total += b;
            any = true;
        }
        let floor = naive.path(e, &[DEPT, FLOOR]);
        let Value::Float(salary) = naive.path(e, &[SALARY]) else {
            panic!()
        };
        match by_floor.iter_mut().find(|(f, _, _)| *f == floor) {
            Some((_, sum, n)) => {
                *sum += salary;
                *n += 1;
            }
            None => by_floor.push((floor, salary, 1)),
        }
        let dname = naive.path(e, &[DEPT, DNAME]);
        if !dname.is_null() && !dnames.contains(&dname) {
            dnames.push(dname);
        }
    }
    assert!(any);
    check(
        "retrieve (sum(E.dept.budget over E), unique(E.dept.dname over E))",
        vec![vec![Value::Float(total), Value::Set(dnames)]],
    );
    check(
        "retrieve (E.dept.floor, avg(E.salary over E by E.dept.floor))",
        per_emp(&|e| {
            let floor = naive.path(e, &[DEPT, FLOOR]);
            let (_, sum, n) = by_floor.iter().find(|(f, _, _)| *f == floor).unwrap();
            Some(vec![floor, Value::Float(sum / *n as f64)])
        }),
    );
    // A path as the unnest source, and a path from the unnested row's
    // parent beside it.
    let mut kid_rows = Vec::new();
    for e in &emps {
        if let Value::Set(kids) = naive.path(e, &[KIDS]) {
            for kid in kids {
                kid_rows.push(vec![naive.path(&kid, &[0]), naive.path(e, &[DEPT, FLOOR])]);
            }
        }
    }
    assert_eq!(kid_rows.len(), n_kids);
    check(
        "retrieve (C.name, Emps.dept.floor) from C in Emps.kids",
        kid_rows,
    );
    check_nested(&mut check, &naive, &emps);
}

/// Unnests of own tuples against the naive full decode: shapes whose
/// members are bound as the attributes read, and shapes that need them
/// whole.
fn check_nested(check: &mut dyn FnMut(&str, Vec<Vec<Value>>), naive: &Naive, emps: &[Value]) {
    let kids: Vec<Value> = emps.iter().flat_map(|e| naive.items(e, &[KIDS])).collect();
    let attrs = |v: &Value, pos: &[usize]| -> Vec<Value> {
        pos.iter().map(|&p| naive.path(v, &[p])).collect()
    };
    let ages = |pred: &dyn Fn(&Value) -> bool| -> Vec<i64> {
        let age = |k: &Value| match naive.path(k, &[AGE]) {
            Value::Int(a) => Some(a),
            _ => None,
        };
        kids.iter().filter(|k| pred(k)).filter_map(age).collect()
    };
    check(
        "retrieve (C.name, C.age) from C in Emps.kids",
        kids.iter().map(|k| attrs(k, &[NAME, AGE])).collect(),
    );
    let older = ages(&|k| matches!(naive.path(k, &[AGE]), Value::Int(a) if a > 2));
    check(
        "retrieve (count(C over C where C.age > 2), sum(C.age over C)) from C in Emps.kids",
        vec![vec![
            Value::Int(older.len() as i64),
            Value::Int(ages(&|_| true).iter().sum()),
        ]],
    );
    check(
        "retrieve (C.name, G.name, G.age) from C in E.kids, G in C.kids",
        (kids.iter())
            .flat_map(|k| naive.items(k, &[KIDS]).into_iter().map(move |g| (k, g)))
            .map(|(k, g)| {
                vec![
                    naive.path(k, &[NAME]),
                    naive.path(&g, &[NAME]),
                    naive.path(&g, &[AGE]),
                ]
            })
            .collect(),
    );
    check(
        "retrieve (E.ename, S.name, S.age) from S in E.slots",
        (emps.iter())
            .flat_map(|e| naive.items(e, &[SLOTS]).into_iter().map(move |s| (e, s)))
            .map(|(e, s)| {
                vec![
                    naive.path(e, &[ENAME]),
                    naive.path(&s, &[NAME]),
                    naive.path(&s, &[AGE]),
                ]
            })
            .collect(),
    );
    // The same attribute bound by the outer unnest and again inside an
    // aggregate seeded with the outer row: each reads its own.
    let mut siblings = Vec::new();
    for e in emps {
        let names: Vec<Value> = naive
            .items(e, &[KIDS])
            .iter()
            .map(|k| naive.path(k, &[NAME]))
            .collect();
        let mut distinct: Vec<Value> = Vec::new();
        for n in names.iter().filter(|n| !n.is_null()) {
            if !distinct.contains(n) {
                distinct.push(n.clone());
            }
        }
        siblings.extend(
            names
                .into_iter()
                .map(|n| vec![n, Value::Set(distinct.clone())]),
        );
    }
    check(
        "retrieve (C.name, unique(C.name over C)) from C in Emps.kids",
        siblings,
    );
    // The whole-member route: the variable projected, read by a
    // correlated aggregate, and looked up by a `by` list.
    check(
        "retrieve (C) from C in Emps.kids",
        kids.iter().map(|k| vec![k.clone()]).collect(),
    );
    let below = |k: &Value| -> Value {
        let n = naive.items(k, &[KIDS]).iter().filter(|g| {
            matches!((naive.path(g, &[AGE]), naive.path(k, &[AGE])), (Value::Int(g), Value::Int(c)) if g < c)
        }).count();
        Value::Int(n as i64)
    };
    check(
        "retrieve (C.name, count(G over G where G.age < C.age)) from C in Emps.kids, G in C.kids",
        kids.iter()
            .map(|k| vec![naive.path(k, &[NAME]), below(k)])
            .collect(),
    );
    // The aggregate iterates the kids of the outer row's employee, whose
    // `Emps` is bound outside it.
    let mut by_age = Vec::new();
    for e in emps {
        let siblings = naive.items(e, &[KIDS]);
        for k in &siblings {
            let age = naive.path(k, &[AGE]);
            let n = siblings
                .iter()
                .filter(|s| naive.path(s, &[AGE]) == age)
                .count();
            by_age.push(vec![age, Value::Int(n as i64)]);
        }
    }
    check(
        "retrieve (C.age, count(C over C by C.age)) from C in Emps.kids",
        by_age,
    );
}

#[test]
fn paths_match_a_naive_evaluator_at_every_batch_size_and_dop() {
    for &batch_size in SIZES {
        for workers in [1, 4] {
            let what = format!("batch size {batch_size}, DOP {workers}");
            let db = company(batch_size, workers);
            let kids = 4 * N_EMPS.div_ceil(50);
            check_against_naive(&db, &what, kids);

            // Replace two departments inside a transaction left open:
            // every other reader — the engine's sessions and the naive
            // evaluator alike — still sees the old versions, now one
            // step down the version chain.
            let mut writer = db.session();
            writer
                .run("begin; range of D is Depts; replace D (budget = D.budget * 2.0, floor = 9) where D.floor = 2")
                .unwrap();
            let before = db
                .query("retrieve (sum(E.dept.budget over E)) from E in Emps")
                .unwrap();
            check_against_naive(&db, &format!("{what}, writer open"), kids);
            writer.run("commit").unwrap();
            let after = db
                .query("retrieve (sum(E.dept.budget over E)) from E in Emps")
                .unwrap();
            assert_ne!(before.rows, after.rows, "{what}: the commit must show");
            check_against_naive(&db, &format!("{what}, writer committed"), kids);

            // Writes through an unnested member bind it whole.
            let mut s = db.session();
            s.run("range of C is Emps.kids; replace C (age = C.age + 100) where C.age = 1")
                .unwrap();
            check_against_naive(&db, &format!("{what}, kids replaced"), kids);
            s.run("delete C where C.age > 100").unwrap();
            let left = kids - N_EMPS.div_ceil(50);
            check_against_naive(&db, &format!("{what}, kids deleted"), left);
        }
    }
}
