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

/// One answer, comparable across sessions: columns and the rows as a
/// sorted multiset (floats bit for bit, through their round-trip
/// `Debug` form), or the error's stable code.
fn answer(r: Result<extra_excess::QueryResult, extra_excess::DbError>) -> Result<String, u16> {
    let r = r.map_err(|e| e.code())?;
    let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    Ok(format!("{:?} {rows:?}", r.columns))
}

/// Retrieve shapes, each with `{}` where the generated literal goes.
const CACHED_SHAPES: &[&str] = &[
    "retrieve (R.k, R.s) from R in Rows where R.k = {}",
    "retrieve (R.k) from R in Rows where R.k < {}",
    "retrieve (R.k, R.f) from R in Rows where {} <= R.k",
    "retrieve (R.k) from R in Rows where R.f > {}",
    "retrieve (R.k, R.b) from R in Rows where R.f = {}",
    "retrieve (R.s) from R in Rows where R.s = {}",
    "retrieve (R.k) from R in Rows where R.b = {}",
    "retrieve (x = R.k + {}) from R in Rows where R.k >= 2147483640",
    "retrieve (count(R.k over R where R.k > {}))",
    "retrieve (Nums[{}])",
];

fn cached_literal() -> impl Strategy<Value = String> {
    prop_oneof![
        prop::sample::select(vec![
            -2147483649i64,
            -2147483648,
            -2147483647,
            -1,
            0,
            1,
            3,
            4,
            2147483646,
            2147483647,
            2147483648,
        ])
        .prop_map(|v| v.to_string()),
        (-40i64..40).prop_map(|v| v.to_string()),
        prop::sample::select(vec![
            "2.0",
            "2.5",
            "-0.5",
            "7.0",
            "1e3",
            "-3.25",
            "2147483647.0"
        ])
        .prop_map(String::from),
        prop::sample::select(vec![r#""a""#, r#""b7""#, r#""""#, r#""zz""#]).prop_map(String::from),
        prop::sample::select(vec!["true", "false", "null"]).prop_map(String::from),
    ]
}

/// One database per batch size (1, 7, 1024) and DOP (1, 4), each with a
/// warm session, built once and shared by every case: 4,200 rows, enough
/// that DOP 4 fans its scans out, keyed up to the ±2³¹ edges, in `Rows`
/// (indexed on `k` and `f`) and again in `Plain` (no index).
type Warm = Vec<(
    String,
    std::sync::Arc<extra_excess::db::Database>,
    extra_excess::Session,
)>;

fn warm_sessions() -> std::sync::MutexGuard<'static, Warm> {
    static WARM: std::sync::OnceLock<std::sync::Mutex<Warm>> = std::sync::OnceLock::new();
    let warm = WARM.get_or_init(|| {
        let mut dbs = Vec::new();
        for batch in [1, 7, 1024] {
            for dop in [1, 4] {
                let db = Database::builder()
                    .batch_size(batch)
                    .worker_threads(dop)
                    .build()
                    .unwrap();
                let mut s = db.session();
                s.run(
                    "define type Row (k: int4, f: float8, s: varchar, b: boolean); \
                     create { own ref Row } Rows; create { own ref Row } Plain; \
                     create [3] int4 Nums; \
                     define index rows_k on Rows (k); define index rows_f on Rows (f)",
                )
                .unwrap();
                let rows: Vec<Value> = (0..4200i64)
                    .map(|i| {
                        let k = match i % 7 {
                            0 => i32::MIN as i64 + i / 7,
                            1 => i32::MAX as i64 - i / 7,
                            _ => i % 50 - 25,
                        };
                        Value::Tuple(vec![
                            Value::Int(k),
                            Value::Float(k as f64 / 2.0),
                            Value::Str(["a", "b7", "", "zz"][i as usize % 4].into()),
                            Value::Bool(i % 3 == 0),
                        ])
                    })
                    .collect();
                db.bulk_append("Rows", rows.clone()).unwrap();
                db.bulk_append("Plain", rows).unwrap();
                dbs.push((format!("batch {batch}, dop {dop}"), db, s));
            }
        }
        std::sync::Mutex::new(dbs)
    });
    warm.lock().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A statement run through a warm session's statement cache answers
    /// like the same statement in a fresh session and like the statement
    /// executed as parsed (no template, no cache): the same columns, the
    /// same rows as a multiset with floats bit for bit, or the same
    /// error code — for every retrieve shape and literal kind, at batch
    /// sizes 1, 7 and 1024 and at DOP 1 and 4. Over the unindexed copy
    /// of the rows the same statement answers alike too, so an index
    /// probe bound from a literal scans exactly the keys it admits.
    #[test]
    fn cached_statements_answer_like_fresh_sessions(
        lits in prop::collection::vec(cached_literal(), 1..4)
    ) {
        for text in lits.iter().flat_map(|lit| CACHED_SHAPES.iter().map(move |s| s.replace("{}", lit))) {
            for (name, db, warm) in warm_sessions().iter_mut() {
                let cached = answer(warm.query(&text));
                let fresh = answer(db.session().query(&text));
                let parsed = match extra_excess::lang::parse_statement(&text, &extra_excess::lang::OperatorTable::new()) {
                    Ok(stmt) => answer(db.session().execute(&stmt).map(|r| r.rows().unwrap())),
                    Err(_) => fresh.clone(),
                };
                let scanned = answer(warm.query(&text.replace("Rows", "Plain")));
                prop_assert_eq!(&cached, &fresh, "{}: `{}`", name, text);
                prop_assert_eq!(&cached, &parsed, "{}: `{}`", name, text);
                prop_assert_eq!(&cached, &scanned, "{}: `{}` over Plain", name, text);
            }
        }
    }
}
