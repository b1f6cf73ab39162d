//! Multi-statement transactions: snapshot isolation, atomic visibility,
//! and abort-leaves-no-trace, exercised at DOP 1 and DOP 4.
//!
//! The MVCC contract under test:
//!
//! * a statement's snapshot is fixed when the statement starts, so a
//!   reader opened before a writer's commit never sees the writer's
//!   rows — and never blocks on the writer either;
//! * a transaction's own statements read at its write timestamp and so
//!   see its uncommitted writes;
//! * `commit` makes all of a transaction's writes visible atomically to
//!   snapshots taken afterwards;
//! * `abort` leaves no trace.

use std::sync::Arc;

use exodus_db::{Database, DbError, Session, Value};

/// Enough members to clear the executor's parallelism threshold (4096),
/// so DOP-4 fixtures genuinely scan in parallel.
const SCALE: usize = 6000;

const COUNT_Q: &str = "range of B is Box; retrieve (n = count(B.n over B))";

fn box_db(scale: usize, workers: usize) -> Arc<Database> {
    let db = Database::builder().worker_threads(workers).build().unwrap();
    db.run("define type Item (tag: varchar, n: int4); create { own ref Item } Box")
        .unwrap();
    if scale > 0 {
        let members = (0..scale)
            .map(|i| Value::Tuple(vec![Value::str("base"), Value::Int(i as i64)]))
            .collect();
        db.bulk_append("Box", members).unwrap();
    }
    db
}

fn count(session: &mut Session) -> i64 {
    let result = session.query(COUNT_Q).unwrap();
    match result.rows[0][0] {
        Value::Int(n) => n,
        ref v => panic!("count returned {v:?}"),
    }
}

/// Uncommitted writes are visible to their own transaction, invisible
/// to everyone else, and reading them never blocks: a concurrent
/// autocommit reader completes — seeing the old state — while the
/// writer's transaction is still open.
#[test]
fn open_txn_invisible_to_others_visible_to_itself() {
    for workers in [1, 4] {
        let db = box_db(SCALE, workers);
        let base = SCALE as i64;
        let mut writer = db.session();
        writer.run("begin").unwrap();
        for i in 0..3 {
            writer
                .run(&format!(r#"append to Box (tag = "open", n = {i})"#))
                .unwrap();
        }
        // Read-your-writes inside the transaction.
        assert_eq!(count(&mut writer), base + 3, "DOP {workers}");
        // Another session on this thread snapshots the committed state.
        assert_eq!(count(&mut db.session()), base, "DOP {workers}");
        // A reader on another thread finishes while the writer holds
        // its transaction open: join() proves it never blocked.
        let observed = std::thread::scope(|s| {
            let db = db.clone();
            s.spawn(move || count(&mut db.session())).join().unwrap()
        });
        assert_eq!(observed, base, "DOP {workers}");

        writer.run("commit").unwrap();
        // Visible to snapshots taken after the commit — atomically.
        assert_eq!(count(&mut db.session()), base + 3, "DOP {workers}");
        let tags = db
            .query(r#"retrieve (B.n) from B in Box where B.tag = "open""#)
            .unwrap();
        assert_eq!(tags.rows.len(), 3, "DOP {workers}");
    }
}

/// `begin; ...writes...; abort` leaves no trace: appended rows vanish,
/// deleted rows come back, replaced fields revert.
#[test]
fn abort_leaves_no_trace() {
    for workers in [1, 4] {
        let db = box_db(SCALE, workers);
        let base = SCALE as i64;
        let mut session = db.session();
        session.run("range of B is Box").unwrap();
        session.run("begin").unwrap();
        session
            .run(r#"append to Box (tag = "doomed", n = -1)"#)
            .unwrap();
        session.run("delete B where B.n = 0").unwrap();
        session
            .run(r#"replace B (tag = "mangled") where B.n = 1"#)
            .unwrap();
        assert_eq!(
            count(&mut session),
            base,
            "DOP {workers}: +1 append -1 delete"
        );
        session.run("abort").unwrap();

        assert_eq!(count(&mut session), base, "DOP {workers}");
        for (q, rows) in [
            (r#"retrieve (B.n) from B in Box where B.tag = "doomed""#, 0),
            (r#"retrieve (B.n) from B in Box where B.tag = "mangled""#, 0),
            (r#"retrieve (B.tag) from B in Box where B.n = 0"#, 1),
        ] {
            assert_eq!(db.query(q).unwrap().rows.len(), rows, "DOP {workers}: {q}");
        }
        // The session is reusable after abort.
        session
            .run(r#"begin; append to Box (tag = "kept", n = 7000); commit"#)
            .unwrap();
        assert_eq!(count(&mut session), base + 1, "DOP {workers}");
    }
}

/// Concurrent stress: one writer commits batches of 5 rows (and aborts
/// batches of 3 in between) while readers continuously count. Every
/// count a reader ever sees is the baseline plus a whole number of
/// committed batches — never a partial batch, never an aborted row.
#[test]
fn readers_see_only_whole_committed_batches() {
    const COMMITS: usize = 8;
    const BATCH: i64 = 5;
    for workers in [1, 4] {
        let db = box_db(SCALE, workers);
        let base = SCALE as i64;
        std::thread::scope(|s| {
            let writer_db = db.clone();
            s.spawn(move || {
                let mut session = writer_db.session();
                for round in 0..COMMITS {
                    session.run("begin").unwrap();
                    for i in 0..BATCH {
                        session
                            .run(&format!(r#"append to Box (tag = "c{round}", n = {i})"#))
                            .unwrap();
                    }
                    session.run("commit").unwrap();
                    session
                        .run(r#"begin; append to Box (tag = "x", n = 0); append to Box (tag = "x", n = 1); append to Box (tag = "x", n = 2); abort"#)
                        .unwrap();
                }
            });
            for _ in 0..2 {
                let reader_db = db.clone();
                s.spawn(move || {
                    let mut session = reader_db.session();
                    let mut last = base;
                    for _ in 0..30 {
                        let n = count(&mut session);
                        assert!(
                            (n - base) % BATCH == 0,
                            "DOP {workers}: reader saw a torn commit or aborted rows: {n}"
                        );
                        assert!(n >= last, "DOP {workers}: count went backwards");
                        last = n;
                    }
                });
            }
        });
        let mut session = db.session();
        assert_eq!(
            count(&mut session),
            base + COMMITS as i64 * BATCH,
            "DOP {workers}"
        );
        assert_eq!(
            db.query(r#"retrieve (B.n) from B in Box where B.tag = "x""#)
                .unwrap()
                .rows
                .len(),
            0,
            "DOP {workers}: aborted rows survived"
        );
    }
}

/// Transaction-control misuse is a clear `DbError::Txn`, and DDL is
/// refused inside an explicit transaction.
#[test]
fn transaction_misuse_is_refused() {
    let db = box_db(0, 1);
    let mut session = db.session();
    for (src, needle) in [
        ("commit", "no transaction is open"),
        ("abort", "no transaction is open"),
    ] {
        let err = session.run(src).expect_err(src);
        let DbError::Txn(m) = err else {
            panic!("'{src}' raised {err}, expected a transaction error");
        };
        assert!(m.contains(needle), "'{src}': {m}");
    }
    session.run("begin").unwrap();
    let err = session.run("begin").expect_err("nested begin");
    assert!(
        matches!(&err, DbError::Txn(m) if m.contains("already open")),
        "nested begin raised {err}"
    );
    let err = session
        .run("define type Sneaky (n: int4)")
        .expect_err("DDL inside txn");
    assert!(
        matches!(err, DbError::Txn(_)),
        "DDL inside txn raised {err}"
    );
    // The transaction survives the refusals and can still commit work.
    session
        .run(r#"append to Box (tag = "ok", n = 1); commit"#)
        .unwrap();
    assert_eq!(count(&mut session), 1);
}

/// `retrieve … into` names a new set in the in-memory catalog, which a
/// page-level rollback cannot take back — so, like DDL, it is refused
/// inside an explicit transaction (also under `explain` / `observe`)
/// rather than left to survive an `abort` as a name over rolled-back
/// pages.
#[test]
fn retrieve_into_is_refused_inside_a_transaction() {
    let db = box_db(0, 1);
    let mut session = db.session();
    session
        .run(r#"append to Box (tag = "t", n = 7); range of B is Box; begin"#)
        .unwrap();
    for src in [
        "retrieve into Snap (B.n)",
        "explain analyze retrieve into Snap (B.n)",
        "observe retrieve into Snap (B.n)",
    ] {
        let err = session.run(src).expect_err(src);
        assert!(
            matches!(&err, DbError::Txn(m) if m.contains("retrieve into")),
            "'{src}' raised {err}"
        );
    }
    // A plain retrieve still runs, and the transaction is unharmed.
    assert_eq!(count(&mut session), 1);
    session.run("abort").unwrap();
    // No trace of the name: it is free for the autocommit form.
    session.run("retrieve into Snap (B.n)").unwrap();
    let snap = session.query("range of S is Snap; retrieve (S.n)").unwrap();
    assert_eq!(snap.rows, vec![vec![Value::Int(7)]]);
}

/// `explain`, `explain analyze` and `observe` of a plain retrieve read a
/// snapshot like the bare retrieve does: none of them waits for another
/// session's open write transaction, and `explain analyze` counts only
/// committed rows. Every open append, replace or delete, with and
/// without an index, against a reader opened before and after the
/// writer.
#[test]
fn explain_and_observe_of_a_retrieve_never_wait_for_a_writer() {
    const ROWS: i64 = 300;
    let q = "retrieve (B.n) from B in Box where B.n >= 100";
    let writes = [
        r#"append to Box (tag = "open", n = 5000)"#,
        "range of B is Box; replace B (n = 7000) where B.n = 3",
        "range of B is Box; delete B where B.n = 50",
    ];
    for indexed in [false, true] {
        for write in writes {
            for reader_first in [true, false] {
                let db = box_db(ROWS as usize, 1);
                if indexed {
                    db.run("define index box_n on Box (n)").unwrap();
                }
                let reader = reader_first.then(|| db.session());
                let mut writer = db.session();
                writer.run("begin").unwrap();
                writer.run(write).unwrap();
                let mut reader = reader.unwrap_or_else(|| db.session());
                let (tx, rx) = std::sync::mpsc::channel();
                let worker = std::thread::spawn(move || {
                    let plan = reader.explain(q).unwrap().plan;
                    let profile = reader.explain_analyze(q).unwrap().profile.unwrap();
                    let observed = reader.observe(q).unwrap().response.rows().unwrap();
                    tx.send((plan, profile.result_rows, observed.rows.len()))
                        .unwrap();
                });
                let case = format!("index {indexed}, reader first {reader_first}: {write}");
                let (plan, analyzed, observed) = rx
                    .recv_timeout(std::time::Duration::from_secs(10))
                    .unwrap_or_else(|_| panic!("blocked behind the open writer ({case})"));
                worker.join().unwrap();
                assert_eq!(plan.contains("IndexScan"), indexed, "{case}\n{plan}");
                assert_eq!(analyzed, (ROWS - 100) as u64, "{case}");
                assert_eq!(observed as i64, ROWS - 100, "{case}");
                writer.run("abort").unwrap();
            }
        }
    }
}
