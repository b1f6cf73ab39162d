//! Scale, concurrency and deep-structure tests.

use std::sync::Arc;

use extra_excess::{Database, Response, Value};

#[test]
fn ten_thousand_members_scan_filter_aggregate() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Row (k: int4, v: float8);
        create { own Row } Rows;
    "#,
    )
    .unwrap();
    let rows: Vec<Value> = (0..10_000)
        .map(|i| Value::Tuple(vec![Value::Int(i), Value::Float(i as f64 * 0.5)]))
        .collect();
    db.bulk_append("Rows", rows).unwrap();
    let r = s
        .query("retrieve (count(R over R), sum(R.k over R)) from R in Rows")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(10_000));
    assert_eq!(r.rows[0][1], Value::Int((0..10_000i64).sum()));
    let r = s
        .query("retrieve (R.k) from R in Rows where R.k >= 9995")
        .unwrap();
    assert_eq!(r.rows.len(), 5);

    // Batched execution must not depend on how the 10k rows fall across
    // batch boundaries: a row-at-a-time run (batch size 1) and an odd
    // size that leaves a partial final batch agree with the default.
    // Each size gets its own builder-configured database over the same
    // deterministic data.
    let baseline = s
        .query("retrieve (R.k) from R in Rows where R.k >= 9995")
        .unwrap();
    for batch_size in [1, 1000, 1023] {
        let db2 = Database::builder().batch_size(batch_size).build().unwrap();
        let mut s2 = db2.session();
        s2.run(
            r#"
            define type Row (k: int4, v: float8);
            create { own Row } Rows;
        "#,
        )
        .unwrap();
        let rows: Vec<Value> = (0..10_000)
            .map(|i| Value::Tuple(vec![Value::Int(i), Value::Float(i as f64 * 0.5)]))
            .collect();
        db2.bulk_append("Rows", rows).unwrap();
        let r = s2
            .query("retrieve (R.k) from R in Rows where R.k >= 9995")
            .unwrap();
        assert_eq!(baseline, r, "batch size {batch_size} diverged at scale");
    }
}

/// `unique` over a path: 20,000 employees across 5,000 departments.
/// Deduping by a scan of the members per insert compares 20,000 × up to
/// 5,000 strings — this test then visibly dominates the suite; the hash
/// dedupe is linear, and the answer keeps first-seen order.
#[test]
fn unique_over_a_path_at_scale() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Department (dname: varchar, floor: int4);
        define type Employee (name: varchar, dept: ref Department);
        create { own ref Department } Departments;
        create { own ref Employee } Employees;
    "#,
    )
    .unwrap();
    let n_depts = 5_000usize;
    let depts = db
        .bulk_append(
            "Departments",
            (0..n_depts)
                .map(|i| Value::Tuple(vec![Value::Str(format!("dept{i:05}")), Value::Int(1)]))
                .collect(),
        )
        .unwrap();
    // A multiplier coprime to 5,000 visits every department once per
    // 5,000 employees.
    let dept_of = |i: usize| (i * 7) % n_depts;
    db.bulk_append(
        "Employees",
        (0..20_000)
            .map(|i| {
                Value::Tuple(vec![
                    Value::Str(format!("emp{i:05}")),
                    Value::Ref(depts[dept_of(i)]),
                ])
            })
            .collect(),
    )
    .unwrap();
    let r = s
        .query("retrieve (unique(E.dept.dname over E)) from E in Employees")
        .unwrap();
    let Value::Set(names) = &r.rows[0][0] else {
        panic!("{:?}", r.rows[0][0])
    };
    let expect: Vec<Value> = (0..n_depts)
        .map(|i| Value::Str(format!("dept{:05}", dept_of(i))))
        .collect();
    assert_eq!(names, &expect, "distinct names in first-seen order");
}

#[test]
fn whole_collection_updates_over_thousands_of_references() {
    // Set-oriented updates over every member of a keyed reference-mode
    // collection: each binding resolves to a distinct object, and each
    // write moves that object's index entries.
    const N: i64 = 4_000;
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Row (k: int4, v: float8);
        create { own ref Row } Rows key (k);
        range of R is Rows;
    "#,
    )
    .unwrap();
    let rows: Vec<Value> = (0..N)
        .map(|i| Value::Tuple(vec![Value::Int(i), Value::Float(0.5)]))
        .collect();
    db.bulk_append("Rows", rows).unwrap();

    let done = s.run("replace R (k = R.k + 10000, v = 2.0)").unwrap();
    assert!(matches!(&done[0], Response::Done(m) if *m == format!("replaced {N}")));
    let r = s
        .query("retrieve (count(R over R), sum(R.v over R), min(R.k over R))")
        .unwrap();
    let moved = vec![
        Value::Int(N),
        Value::Float(2.0 * N as f64),
        Value::Int(10_000),
    ];
    assert_eq!(r.rows, vec![moved]);
    let by_key = "retrieve (R.v) where R.k = 13999";
    assert!(s.explain(by_key).unwrap().plan.contains("IndexScan"));
    assert_eq!(s.query(by_key).unwrap().rows, vec![vec![Value::Float(2.0)]]);
    assert!(s
        .query("retrieve (R.v) where R.k = 3999")
        .unwrap()
        .is_empty());

    let done = s.run("delete R").unwrap();
    assert!(matches!(&done[0], Response::Done(m) if *m == format!("deleted {N}")));
    assert!(s.query("retrieve (R.k)").unwrap().is_empty());
    assert!(s.query(by_key).unwrap().is_empty());
    // Every key is free again.
    s.run("append to Rows (k = 13999, v = 1.0)").unwrap();
}

#[test]
fn large_member_values_spill_to_large_objects() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Doc (title: varchar, body: varchar);
        create { own ref Doc } Docs;
    "#,
    )
    .unwrap();
    let big = "lorem ipsum ".repeat(2_000); // ~24 KB, far past a page
    s.run(&format!(
        r#"append to Docs (title = "big", body = "{big}")"#
    ))
    .unwrap();
    s.run(r#"append to Docs (title = "small", body = "x")"#)
        .unwrap();
    let r = s
        .query(r#"retrieve (D.body) from D in Docs where D.title = "big""#)
        .unwrap();
    match &r.rows[0][0] {
        Value::Str(s) => assert_eq!(s.len(), big.len()),
        other => panic!("{other:?}"),
    }
    // Update the large value back down and up again.
    s.run(r#"range of D is Docs; replace D (body = "tiny") where D.title = "big""#)
        .unwrap();
    let r = s
        .query(r#"retrieve (D.body) from D in Docs where D.title = "big""#)
        .unwrap();
    assert_eq!(r.rows[0][0], Value::str("tiny"));
}

#[test]
fn parallel_readers() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Row (k: int4);
        create { own Row } Rows;
    "#,
    )
    .unwrap();
    db.bulk_append(
        "Rows",
        (0..2_000)
            .map(|i| Value::Tuple(vec![Value::Int(i)]))
            .collect(),
    )
    .unwrap();
    let mut handles = Vec::new();
    for t in 0..8 {
        let db: Arc<_> = db.clone();
        handles.push(std::thread::spawn(move || {
            let mut s = db.session();
            for round in 0..20 {
                let cut = (t * 100 + round) % 2000;
                let r = s
                    .query(&format!(
                        "retrieve (count(R over R where R.k >= {cut})) from R in Rows"
                    ))
                    .unwrap();
                assert_eq!(r.rows[0][0], Value::Int(2000 - cut));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn readers_interleaved_with_writers() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Row (k: int4);
        create { own Row } Rows;
    "#,
    )
    .unwrap();
    db.bulk_append(
        "Rows",
        (0..500)
            .map(|i| Value::Tuple(vec![Value::Int(i)]))
            .collect(),
    )
    .unwrap();
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session();
            for i in 500..700 {
                s.run(&format!("append to Rows (k = {i})")).unwrap();
            }
        })
    };
    let reader = {
        let db = db.clone();
        std::thread::spawn(move || {
            let mut s = db.session();
            for _ in 0..50 {
                let r = s
                    .query("retrieve (count(R over R)) from R in Rows")
                    .unwrap();
                match r.rows[0][0] {
                    Value::Int(n) => assert!((500..=700).contains(&n), "monotonic count, got {n}"),
                    ref other => panic!("{other:?}"),
                }
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    let r = db
        .query("retrieve (count(R over R)) from R in Rows")
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(700));
}

#[test]
fn four_level_inheritance_with_most_specific_dispatch() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type A (name: varchar);
        define type B inherits A (b: int4);
        define type C inherits B (c: int4);
        define type D inherits C (d: int4);
        create { own ref D } Ds;
        append to Ds (name = "deep", b = 1, c = 2, d = 3);
        define function Tag (x: A) returns varchar as retrieve ("A");
        define function Tag (x: C) returns varchar as retrieve ("C");
    "#,
    )
    .unwrap();
    // Attribute flattening across four levels.
    let r = s
        .query("retrieve (X.name, X.b, X.c, X.d) from X in Ds")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![
            Value::str("deep"),
            Value::Int(1),
            Value::Int(2),
            Value::Int(3)
        ]]
    );
    // Most specific overload: D is-a C is-a B is-a A; Tag-for-C wins.
    let r = s.query("retrieve (X.Tag()) from X in Ds").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("C")]]);
}

#[test]
fn deeply_nested_own_structures() {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Leaf (v: int4);
        define type Mid (label: varchar, leaves: { Leaf });
        define type Root (name: varchar, mids: { Mid });
        create { own Root } Roots;
    "#,
    )
    .unwrap();
    let leaf = |v: i64| Value::Tuple(vec![Value::Int(v)]);
    let mid = |l: &str, vs: &[i64]| {
        Value::Tuple(vec![
            Value::str(l),
            Value::Set(vs.iter().map(|&v| leaf(v)).collect()),
        ])
    };
    db.bulk_append(
        "Roots",
        vec![
            Value::Tuple(vec![
                Value::str("r1"),
                Value::Set(vec![mid("m1", &[1, 2]), mid("m2", &[3])]),
            ]),
            Value::Tuple(vec![
                Value::str("r2"),
                Value::Set(vec![mid("m3", &[4, 5, 6])]),
            ]),
        ],
    )
    .unwrap();
    // Two-level unnest through dependent ranges.
    let r = s
        .query(
            "retrieve (R.name, M.label, L.v) \
             from R in Roots, M in R.mids, L in M.leaves \
             where L.v >= 3 order by L.v asc",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 4);
    assert_eq!(
        r.rows[0],
        vec![Value::str("r1"), Value::str("m2"), Value::Int(3)]
    );
    assert_eq!(
        r.rows[3],
        vec![Value::str("r2"), Value::str("m3"), Value::Int(6)]
    );
    // Aggregate over the doubly nested level.
    let r = s
        .query("retrieve (sum(L.v over L)) from L in Roots.mids.leaves")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(21)]]);
}
