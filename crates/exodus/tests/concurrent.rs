//! Concurrency tests: parallel query execution must be deterministic,
//! and mixed query/DML sessions on a shared database must behave as if
//! serialized.

use std::sync::Arc;

use exodus_db::{Database, Value};

/// Enough members to clear the executor's parallelism threshold (4096).
const SCALE: usize = 6000;

/// Build the fixture with the worker-thread count fixed at construction
/// time. The load is deterministic, so fixtures built at different DOPs
/// hold identical data.
fn people_db_with(scale: usize, workers: usize) -> Arc<Database> {
    let db = Database::builder().worker_threads(workers).build().unwrap();
    db.run(
        r#"
        define type Person (name: varchar, age: int4, salary: float8);
        create { own ref Person } People;
        create { own ref Person } Log;
    "#,
    )
    .unwrap();
    let members = (0..scale)
        .map(|i| {
            Value::Tuple(vec![
                Value::str(&format!("p{i}")),
                Value::Int((i % 97) as i64),
                // Irregular float values so summation order matters.
                Value::Float(1.0 + (i as f64) * 0.001 + ((i % 13) as f64) * 0.07),
            ])
        })
        .collect();
    db.bulk_append("People", members).unwrap();
    db
}

const QUERIES: &[&str] = &[
    "range of P is People; retrieve (total = sum(P.salary over P))",
    "range of P is People; retrieve (n = count(P.name over P where P.age > 48))",
    "retrieve (P.name, P.salary) from P in People where P.age = 13 and P.salary > 3.0",
];

/// Satellite: morsel-parallel execution returns results identical to
/// DOP=1 — same rows, same order, bit-identical floats (the exchange
/// merges worker output in serial scan order).
#[test]
fn parallel_results_match_serial() {
    let serial_db = people_db_with(SCALE, 1);
    let parallel_db = people_db_with(SCALE, 4);
    for q in QUERIES {
        let serial = serial_db.query(q).unwrap();
        let parallel = parallel_db.query(q).unwrap();
        assert_eq!(serial.columns, parallel.columns, "{q}");
        assert_eq!(serial.rows, parallel.rows, "{q}");
        // Belt and braces for any future order-relaxing exchange: the
        // multisets must agree too.
        let mut a: Vec<String> = serial.rows.iter().map(|r| format!("{r:?}")).collect();
        let mut b: Vec<String> = parallel.rows.iter().map(|r| format!("{r:?}")).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{q}");
    }
}

/// Satellite: N sessions hammering one `Arc<Database>` with a mix of
/// queries and DML produce exactly the results a serial run would.
#[test]
fn concurrent_sessions_mixed_queries_and_dml() {
    let db = people_db_with(SCALE, 4);
    // Serial baseline before any concurrency.
    let baseline: Vec<_> = QUERIES.iter().map(|q| db.query(q).unwrap()).collect();

    const WRITERS: usize = 2;
    const READERS: usize = 3;
    const APPENDS_PER_WRITER: usize = 25;
    const READS_PER_READER: usize = 8;

    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let db = db.clone();
            s.spawn(move || {
                let mut session = db.session();
                for i in 0..APPENDS_PER_WRITER {
                    session
                        .run(&format!(
                            r#"append to Log (name = "w{w}-{i}", age = {i}, salary = 1.5)"#
                        ))
                        .unwrap();
                }
            });
        }
        for _ in 0..READERS {
            let db = db.clone();
            let baseline = &baseline;
            s.spawn(move || {
                let mut session = db.session();
                for i in 0..READS_PER_READER {
                    let q = QUERIES[i % QUERIES.len()];
                    let got = session.query(q).unwrap();
                    // `People` is never mutated, so every interleaving
                    // must see the baseline result exactly.
                    let want = &baseline[i % QUERIES.len()];
                    assert_eq!(want.rows, got.rows, "{q}");
                }
            });
        }
    });

    let n = db
        .query("range of L is Log; retrieve (n = count(L.name over L))")
        .unwrap();
    assert_eq!(
        n.rows,
        vec![vec![Value::Int((WRITERS * APPENDS_PER_WRITER) as i64)]]
    );
}

/// An index-range morsel must outlive a chunk of index entries that are
/// all invisible to the reader (another session's uncommitted appends,
/// indexed the moment they were written): "nothing visible in this
/// chunk" is not "morsel exhausted". At batch size 1 every invisible
/// entry is such a chunk.
#[test]
fn parallel_index_scan_steps_over_invisible_entries() {
    let db = Database::builder()
        .worker_threads(4)
        .batch_size(1)
        .build()
        .unwrap();
    db.run(
        r#"
        define type Row (k: int4, tag: varchar);
        create { own ref Row } Rows;
    "#,
    )
    .unwrap();
    // Enough members that a third of them (the range estimate) still
    // clears the parallelism threshold.
    let scale = 20_000;
    let rows = (0..scale)
        .map(|i| Value::Tuple(vec![Value::Int(2 * i as i64), Value::str("old")]))
        .collect();
    db.bulk_append("Rows", rows).unwrap();
    db.run("define index rows_k on Rows (k)").unwrap();

    let mut reader = db.session();
    let q = "retrieve (R.k) from R in Rows where R.k >= 0";
    let plan = reader.explain(q).unwrap().plan;
    assert!(
        plan.contains("Parallel") && plan.contains("IndexScan"),
        "the query must run as a parallel index scan:\n{plan}"
    );

    // Odd keys land between the committed ones all along the index, and
    // stay uncommitted while the reader runs.
    let mut writer = db.session();
    writer.run("begin").unwrap();
    for i in (0..scale).step_by(1_000) {
        writer
            .run(&format!(
                r#"append to Rows (k = {}, tag = "new")"#,
                2 * i + 1
            ))
            .unwrap();
    }
    assert_eq!(reader.query(q).unwrap().rows.len(), scale);
    writer.run("abort").unwrap();
}

/// An index scan checks each entry against the member version its
/// snapshot sees. A writer's open `replace` moves the index entry to the
/// new key at once, while the reader still sees the old version, which
/// must not match the new key — with or without the index, the answer
/// is the one the heap gives.
#[test]
fn index_scan_drops_entries_whose_visible_version_has_another_key() {
    for elem in ["own ref Row", "own Row"] {
        let db = Database::builder().build().unwrap();
        db.run(&format!(
            "define type Row (k: int4, tag: varchar); create {{ {elem} }} Rows;"
        ))
        .unwrap();
        let rows = (0..50)
            .map(|i| Value::Tuple(vec![Value::Int(i), Value::str("old")]))
            .collect();
        db.bulk_append("Rows", rows).unwrap();
        db.run("define index rows_k on Rows (k)").unwrap();

        let queries = [
            "retrieve (R.k, R.tag) from R in Rows where R.k = 500",
            "retrieve (R.k, R.tag) from R in Rows where R.k >= 400",
        ];
        let mut reader = db.session();
        for q in queries {
            let plan = reader.explain(q).unwrap().plan;
            assert!(plan.contains("IndexScan"), "{elem}: {q}\n{plan}");
        }
        let mut writer = db.session();
        writer.run("begin").unwrap();
        writer
            .run("range of R is Rows; replace R (k = 500) where R.k = 4")
            .unwrap();
        for q in queries {
            let rows = reader.query(q).unwrap().rows;
            assert_eq!(rows, Vec::<Vec<Value>>::new(), "{elem}: {q}");
        }
        writer.run("commit").unwrap();
        let q = "retrieve (R.k, R.tag) from R in Rows where R.k = 500";
        assert_eq!(
            reader.query(q).unwrap().rows,
            vec![vec![Value::Int(500), Value::str("old")]],
            "{elem}"
        );
    }
}
