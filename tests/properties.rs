//! Property tests: the engine must agree with a plain-Rust model of the
//! data under randomized workloads.

use proptest::prelude::*;

use extra_excess::{Database, Value};

#[derive(Debug, Clone)]
struct Emp {
    name: String,
    age: i64,
    salary: f64,
}

fn emp_strategy() -> impl Strategy<Value = Emp> {
    ("[a-z]{1,8}", 18i64..70, 1000u32..100_000).prop_map(|(name, age, sal)| Emp {
        name,
        age,
        salary: sal as f64,
    })
}

fn load(
    emps: &[Emp],
) -> (
    std::sync::Arc<extra_excess::db::Database>,
    extra_excess::Session,
) {
    let db = Database::in_memory();
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, age: int4, salary: float8);
        create { own ref Person } People;
        range of P is People
    "#,
    )
    .unwrap();
    let rows: Vec<Value> = emps
        .iter()
        .map(|e| {
            Value::Tuple(vec![
                Value::Str(e.name.clone()),
                Value::Int(e.age),
                Value::Float(e.salary),
            ])
        })
        .collect();
    db.bulk_append("People", rows).unwrap();
    (db, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A filtered retrieve returns exactly the model's rows.
    #[test]
    fn filter_matches_model(emps in prop::collection::vec(emp_strategy(), 0..40), cut in 18i64..70) {
        let (_db, mut s) = load(&emps);
        let r = s.query(&format!("retrieve (P.name) where P.age >= {cut}")).unwrap();
        let mut got: Vec<String> = r.rows.into_iter().map(|mut row| match row.remove(0) {
            Value::Str(n) => n,
            other => panic!("{other:?}"),
        }).collect();
        let mut expect: Vec<String> = emps.iter().filter(|e| e.age >= cut).map(|e| e.name.clone()).collect();
        got.sort();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    /// Aggregates agree with fold-based computation.
    #[test]
    fn aggregates_match_model(emps in prop::collection::vec(emp_strategy(), 1..40)) {
        let (_db, mut s) = load(&emps);
        let r = s.query("retrieve (count(P over P), sum(P.age over P), min(P.salary over P), max(P.salary over P))").unwrap();
        prop_assert_eq!(&r.rows[0][0], &Value::Int(emps.len() as i64));
        prop_assert_eq!(&r.rows[0][1], &Value::Int(emps.iter().map(|e| e.age).sum::<i64>()));
        let min = emps.iter().map(|e| e.salary).fold(f64::INFINITY, f64::min);
        let max = emps.iter().map(|e| e.salary).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(&r.rows[0][2], &Value::Float(min));
        prop_assert_eq!(&r.rows[0][3], &Value::Float(max));
    }

    /// order by produces a sorted permutation.
    #[test]
    fn order_by_sorts(emps in prop::collection::vec(emp_strategy(), 0..40)) {
        let (_db, mut s) = load(&emps);
        let r = s.query("retrieve (P.age) order by P.age asc").unwrap();
        let got: Vec<i64> = r.rows.iter().map(|row| match row[0] {
            Value::Int(a) => a,
            ref other => panic!("{other:?}"),
        }).collect();
        let mut expect: Vec<i64> = emps.iter().map(|e| e.age).collect();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// delete-where removes exactly the qualifying rows; the rest survive
    /// untouched.
    #[test]
    fn delete_matches_model(emps in prop::collection::vec(emp_strategy(), 0..40), cut in 18i64..70) {
        let (_db, mut s) = load(&emps);
        s.run(&format!("delete P where P.age < {cut}")).unwrap();
        let r = s.query("retrieve (P.name, P.age)").unwrap();
        prop_assert_eq!(r.rows.len(), emps.iter().filter(|e| e.age >= cut).count());
        for row in &r.rows {
            match row[1] {
                Value::Int(a) => prop_assert!(a >= cut),
                ref other => panic!("{other:?}"),
            }
        }
    }

    /// replace-where updates exactly the qualifying rows.
    #[test]
    fn replace_matches_model(emps in prop::collection::vec(emp_strategy(), 0..40), cut in 18i64..70) {
        let (_db, mut s) = load(&emps);
        s.run(&format!("replace P (salary = 0.0) where P.age >= {cut}")).unwrap();
        let r = s.query("retrieve (P.age, P.salary)").unwrap();
        prop_assert_eq!(r.rows.len(), emps.len());
        for row in &r.rows {
            let (age, sal) = match (&row[0], &row[1]) {
                (Value::Int(a), Value::Float(s)) => (*a, *s),
                other => panic!("{other:?}"),
            };
            if age >= cut {
                prop_assert_eq!(sal, 0.0);
            } else {
                prop_assert!(sal > 0.0);
            }
        }
    }

    /// An indexed equality probe returns the same rows as a full scan.
    #[test]
    fn index_probe_matches_scan(emps in prop::collection::vec(emp_strategy(), 0..60), probe in 18i64..70) {
        let (db, mut s) = load(&emps);
        let q = format!("retrieve (P.name) where P.age = {probe}");
        let scan = s.query(&q).unwrap();
        s.run("define index people_age on People (age)").unwrap();
        let plan = s.explain(&q).unwrap().plan;
        prop_assert!(plan.contains("IndexScan"), "{}", plan);
        let probed = s.query(&q).unwrap();
        let sorted = |r: &extra_excess::QueryResult| {
            let mut v: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
            v.sort();
            v
        };
        prop_assert_eq!(sorted(&scan), sorted(&probed));
        let _ = db;
    }

    /// Universal quantification agrees with the model's `all`.
    #[test]
    fn universal_matches_model(emps in prop::collection::vec(emp_strategy(), 0..30), cut in 1000u32..100_000) {
        let cut = cut as f64;
        let (_db, mut s) = load(&emps);
        s.run("create { own ref Person } Probe").unwrap();
        s.run(r#"append to Probe (name = "probe", age = 1, salary = 1.0)"#).unwrap();
        let r = s.query(&format!(
            "range of Q is all People; \
             retrieve (X.name) from X in Probe where Q.salary < {cut}"
        )).unwrap();
        let expect = emps.iter().all(|e| e.salary < cut); // vacuous true on empty
        prop_assert_eq!(!r.rows.is_empty(), expect);
    }
}

/// One committed write to `Rows(k, tag)`, plus the constant the probes
/// after it compare `k` with.
#[derive(Debug, Clone)]
enum Step {
    Append(i64, u8),
    Replace(i64, i64),
    Delete(i64),
}

fn step_strategy() -> impl Strategy<Value = (Step, i64)> {
    let step = prop_oneof![
        (0i64..12, 0u8..3).prop_map(|(k, t)| Step::Append(k, t)),
        (0i64..12, 0u8..3).prop_map(|(k, t)| Step::Append(k, t)),
        (0i64..12, 0i64..12).prop_map(|(from, to)| Step::Replace(from, to)),
        (0i64..12).prop_map(Step::Delete),
    ];
    (step, -1i64..13)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential index-versus-heap check: after every committed
    /// append, replace or delete, `=`, `<`, `<=`, `>` and `>=` probes on
    /// `k` give the same multiset of rows with and without an index on
    /// `k`, at batch sizes 1, 7 and 1024 — and the multiset the model
    /// holds.
    #[test]
    fn index_scans_match_heap_scans(steps in prop::collection::vec(step_strategy(), 1..30)) {
        let mut sessions = Vec::new();
        for batch in [1, 7, 1024] {
            for indexed in [false, true] {
                let db = Database::builder().batch_size(batch).build().unwrap();
                let mut s = db.session();
                s.run("define type Row (k: int4, tag: varchar); create { own ref Row } Rows; range of R is Rows").unwrap();
                if indexed {
                    s.run("define index rows_k on Rows (k)").unwrap();
                    let plan = s.explain("retrieve (R.tag) from R in Rows where R.k = 1").unwrap().plan;
                    prop_assert!(plan.contains("IndexScan"), "{}", plan);
                }
                sessions.push((format!("batch {batch}, index {indexed}"), db, s));
            }
        }
        let mut model: Vec<(i64, String)> = Vec::new();
        for (step, c) in steps {
            let src = match step {
                Step::Append(k, t) => format!(r#"append to Rows (k = {k}, tag = "t{t}")"#),
                Step::Replace(from, to) => format!("replace R (k = {to}) where R.k = {from}"),
                Step::Delete(k) => format!("delete R where R.k = {k}"),
            };
            match step {
                Step::Append(k, t) => model.push((k, format!("t{t}"))),
                Step::Replace(from, to) => model.iter_mut().filter(|r| r.0 == from).for_each(|r| r.0 = to),
                Step::Delete(k) => model.retain(|r| r.0 != k),
            }
            for (_, _, s) in &mut sessions {
                s.run(&src).unwrap();
            }
            for (op, keep) in [
                ("=", i64::eq as fn(&i64, &i64) -> bool),
                ("<", i64::lt),
                ("<=", i64::le),
                (">", i64::gt),
                (">=", i64::ge),
            ] {
                let q = format!("retrieve (R.k, R.tag) from R in Rows where R.k {op} {c}");
                let mut want: Vec<String> = model
                    .iter()
                    .filter(|(k, _)| keep(k, &c))
                    .map(|(k, tag)| format!("{k} {tag}"))
                    .collect();
                want.sort();
                for (name, _, s) in &mut sessions {
                    let mut got: Vec<String> = s
                        .query(&q)
                        .unwrap()
                        .rows
                        .iter()
                        .map(|row| format!("{} {}", row[0], row[1].to_string().trim_matches('"')))
                        .collect();
                    got.sort();
                    prop_assert_eq!(&got, &want, "{} after `{}`: {}", name, src, q);
                }
            }
        }
    }
}
