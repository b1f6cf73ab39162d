//! The session statement cache's validity: each case runs one statement
//! shape, changes something a plan depends on, runs the shape again,
//! and must answer like a fresh session — with the cache's own counters
//! showing the second run planned afresh where it had to.

use std::path::PathBuf;
use std::sync::Arc;

use extra_excess::db::replication::{Replica, ReplicaOptions};
use extra_excess::{Database, DbError, Durability, QueryResult, Session, TraceConfig, Value};

const SETUP: &str = r#"
    define type Row (k: int4, tag: varchar);
    create { own ref Row } Rows;
"#;

fn rows_db(builder: extra_excess::DatabaseBuilder, n: i64) -> Arc<Database> {
    let db = builder.build().unwrap();
    db.session().run(SETUP).unwrap();
    load(&db, 0..n);
    db
}

fn load(db: &Arc<Database>, keys: std::ops::Range<i64>) {
    let rows = keys
        .map(|k| Value::Tuple(vec![Value::Int(k % 100), Value::Str(format!("t{k}"))]))
        .collect();
    db.bulk_append("Rows", rows).unwrap();
}

/// Columns and the sorted rows, or the error code.
fn answer(r: Result<QueryResult, DbError>) -> Result<(Vec<String>, Vec<String>), u16> {
    let r = r.map_err(|e| e.code())?;
    let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    Ok((r.columns, rows))
}

/// (hits, misses) of the database's statement caches.
fn cache_counts(db: &Database) -> (u64, u64) {
    let snap = db.metrics_snapshot().unwrap();
    let get = |n| snap.counter(n).unwrap_or(0);
    (
        get("db_statement_cache_hits_total"),
        get("db_statement_cache_misses_total"),
    )
}

/// Run `text` in the warm session `s` and in a fresh session of `db`:
/// both must answer alike. Returns the answer and whether the warm run
/// hit the cache.
fn run_both(db: &Arc<Database>, s: &mut Session, text: &str) -> (Result<usize, u16>, bool) {
    let before = cache_counts(db);
    let warm = answer(s.query(text));
    let hit = cache_counts(db).0 > before.0;
    let fresh = answer(db.session().query(text));
    assert_eq!(warm, fresh, "`{text}`");
    (warm.map(|(_, rows)| rows.len()), hit)
}

const POINT: &str = "retrieve (R.tag) from R in Rows where R.k = 7";

#[test]
fn a_repeated_shape_hits_and_binds_its_own_literals() {
    let db = rows_db(Database::builder(), 300);
    let mut s = db.session();
    assert_eq!(run_both(&db, &mut s, POINT), (Ok(3), false));
    assert_eq!(run_both(&db, &mut s, POINT), (Ok(3), true));
    let other = POINT.replace("= 7", "= 1000");
    assert_eq!(run_both(&db, &mut s, &other), (Ok(0), true));
    // Explain, explain analyze and observe plan afresh and say so in
    // their plans: the literal as written.
    let plan = s.explain(&other).unwrap().plan;
    assert!(plan.contains("R.k = 1000"), "{plan}");
    let (hits, misses) = cache_counts(&db);
    s.explain_analyze(POINT).unwrap();
    s.observe(POINT).unwrap();
    assert_eq!(cache_counts(&db), (hits, misses));
}

#[test]
fn define_index_and_destroy_replan() {
    let db = rows_db(Database::builder(), 300);
    let mut s = db.session();
    assert_eq!(run_both(&db, &mut s, POINT), (Ok(3), false));
    db.session().run("define index rows_k on Rows (k)").unwrap();
    assert_eq!(run_both(&db, &mut s, POINT), (Ok(3), false));
    assert!(s.explain(POINT).unwrap().plan.contains("IndexScan"));
    assert_eq!(run_both(&db, &mut s, POINT), (Ok(3), true));
    // Destroying the collection drops its index with it.
    db.session()
        .run("destroy Rows; create { own ref Row } Rows")
        .unwrap();
    load(&db, 0..100);
    assert_eq!(run_both(&db, &mut s, POINT), (Ok(1), false));
    assert!(!s.explain(POINT).unwrap().plan.contains("IndexScan"));
}

/// A reader repeating one shape while another session destroys,
/// recreates, reloads and re-indexes the collection it reads only ever
/// sees a whole state: the old rows, the new empty collection, the new
/// rows, or no collection at all — never a plan over a destroyed file.
#[test]
fn ddl_racing_a_reader_never_runs_a_stale_plan() {
    let db = rows_db(Database::builder(), 300);
    db.session().run("define index rows_k on Rows (k)").unwrap();
    let unknown = db
        .session()
        .query("retrieve (X.k) from X in Nope")
        .unwrap_err()
        .code();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reader = {
        let (db, done) = (db.clone(), done.clone());
        std::thread::spawn(move || {
            let mut s = db.session();
            let mut i = 0;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let q = POINT.replace('7', &(i % 100).to_string());
                match s.query(&q) {
                    Ok(r) => assert!(matches!(r.rows.len(), 0 | 3), "run {i}: {r:?}"),
                    Err(e) => assert_eq!(e.code(), unknown, "run {i}: {e}"),
                }
                i += 1;
            }
        })
    };
    let mut ddl = db.session();
    for _ in 0..25 {
        ddl.run("destroy Rows").unwrap();
        ddl.run("create { own ref Row } Rows").unwrap();
        load(&db, 0..300);
        ddl.run("define index rows_k on Rows (k)").unwrap();
    }
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    reader.join().unwrap();
}

#[test]
fn analyze_replans_and_pins_the_literals_statistics_read() {
    // At DOP 2 the planner estimates the scan to decide on fanning out.
    let db = rows_db(Database::builder().worker_threads(2), 300);
    db.session().run("define index rows_k on Rows (k)").unwrap();
    let mut s = db.session();
    let below = |c: i64| format!("retrieve (R.tag) from R in Rows where R.k < {c}");
    assert_eq!(run_both(&db, &mut s, &below(5)), (Ok(15), false));
    assert_eq!(run_both(&db, &mut s, &below(6)), (Ok(18), true));
    db.session().run("analyze Rows").unwrap();
    // The histogram estimate reads the constant: each value is its own
    // plan, and each plan is reused for its value only.
    assert_eq!(run_both(&db, &mut s, &below(5)), (Ok(15), false));
    assert_eq!(run_both(&db, &mut s, &below(6)), (Ok(18), false));
    assert_eq!(run_both(&db, &mut s, &below(5)), (Ok(15), true));
}

#[test]
fn grant_and_revoke_reach_a_cached_plan() {
    let db = rows_db(Database::builder(), 300);
    db.session()
        .run("create user intern; grant read on Rows to intern")
        .unwrap();
    let mut s = db.session_as("intern");
    assert_eq!(run_both(&db, &mut s, POINT).0, Ok(3));
    db.session().run("revoke read on Rows from intern").unwrap();
    let err = s.query(POINT).unwrap_err();
    assert_eq!(
        err.code(),
        db.session_as("intern").query(POINT).unwrap_err().code()
    );
    db.session().run("grant read on Rows to intern").unwrap();
    assert_eq!(s.query(POINT).unwrap().rows.len(), 3);
}

#[test]
fn a_redeclared_range_replans() {
    let db = rows_db(Database::builder(), 300);
    let mut s = db.session();
    s.run("define type Other (k: int4, tag: varchar); create { own ref Other } Others")
        .unwrap();
    s.run(r#"append to Others (k = 7, tag = "other")"#).unwrap();
    s.run("range of R is Rows").unwrap();
    let q = "retrieve (R.tag) where R.k = 7";
    assert_eq!(s.query(q).unwrap().rows.len(), 3);
    assert_eq!(s.query(q).unwrap().rows.len(), 3);
    // Every way a session declares a range reaches its cached plans.
    for how in ["", "observe ", "Session::observe", "begin; observe "] {
        for (c, tag) in [("Others", "other"), ("Rows", "t7")] {
            let decl = format!("range of R is {c}");
            match how {
                "Session::observe" => drop(s.observe(&decl).unwrap()),
                "begin; observe " => drop(s.run(&format!("{how}{decl}; commit")).unwrap()),
                _ => drop(s.run(&format!("{how}{decl}")).unwrap()),
            }
            let r = s.query(q).unwrap();
            assert_eq!(r.rows[0], vec![Value::Str(tag.into())], "{how}{decl}");
        }
    }
}

/// A plan is authorized for the user it was made for: a session whose
/// user changes answers as the new user's fresh session does.
#[test]
fn a_changed_user_rechecks_privileges() {
    let db = rows_db(Database::builder(), 300);
    db.session().run("create user intern").unwrap();
    let mut s = db.session();
    assert_eq!(run_both(&db, &mut s, POINT), (Ok(3), false));
    assert_eq!(run_both(&db, &mut s, POINT), (Ok(3), true));
    s.user = "intern".into();
    let fresh = answer(db.session_as("intern").query(POINT));
    assert!(fresh.is_err(), "intern may not read Rows");
    assert_eq!(answer(s.query(POINT)), fresh);
}

/// Batch size and worker threads are fixed when a database is built,
/// so a session's plans always match them; each configuration's warm
/// session answers like its fresh one, at every plan shape the settings
/// give (a parallel exchange only at DOP 4).
#[test]
fn plans_follow_batch_size_and_worker_threads() {
    let scan = "retrieve (R.tag) from R in Rows where R.k > 90";
    for (batch, dop) in [(1, 1), (7, 4), (1024, 1), (1024, 4)] {
        let db = rows_db(
            Database::builder().batch_size(batch).worker_threads(dop),
            5000,
        );
        let mut s = db.session();
        assert_eq!(run_both(&db, &mut s, scan), (Ok(450), false));
        assert_eq!(run_both(&db, &mut s, scan), (Ok(450), true));
        let plan = s.explain(scan).unwrap().plan;
        assert_eq!(plan.contains("Parallel"), dop > 1, "{plan}");
    }
}

/// A collection growing past 4,096 members (`PARALLEL_MIN_ROWS`, a
/// power-of-two bucket edge) replans: the fresh plan fans out.
#[test]
fn a_collection_growing_past_the_parallel_threshold_replans() {
    let db = rows_db(Database::builder().worker_threads(4), 4000);
    let mut s = db.session();
    let scan = "retrieve (R.tag) from R in Rows where R.k > 90";
    assert_eq!(run_both(&db, &mut s, scan), (Ok(360), false));
    assert!(!s.explain(scan).unwrap().plan.contains("Parallel"));
    // Growth inside the bucket keeps the plan.
    load(&db, 4000..4090);
    assert_eq!(run_both(&db, &mut s, scan), (Ok(360), true));
    load(&db, 4090..4200);
    assert_eq!(run_both(&db, &mut s, scan), (Ok(378), false));
    assert!(s.explain(scan).unwrap().plan.contains("Parallel"));
}

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("exodus-stmt-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A replica session's cached plan does not outlive a catalog change
/// replayed from its primary: the replica installs the new image under
/// its catalog lock, which moves the stamp.
#[test]
fn a_replica_replans_after_a_replayed_catalog_change() {
    let dir = temp_dir("replica");
    let p = Database::builder()
        .path(dir.join("primary.vol"))
        .durability(Durability::Fsync)
        .build()
        .unwrap();
    p.session().run(SETUP).unwrap();
    load(&p, 0..300);
    let mut replica =
        Replica::in_process(&p, dir.join("replica.vol"), ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();
    let rdb = replica.database();
    let mut s = rdb.session();
    assert_eq!(run_both(&rdb, &mut s, POINT), (Ok(3), false));
    assert_eq!(run_both(&rdb, &mut s, POINT), (Ok(3), true));
    p.session()
        .run(r#"destroy Rows; create { own ref Row } Rows; append to Rows (k = 7, tag = "new")"#)
        .unwrap();
    replica.pump_until_caught_up().unwrap();
    assert_eq!(run_both(&rdb, &mut s, POINT), (Ok(1), false));
    drop(replica);
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the instruments record of a statement that ran a cached plan is
/// that statement, with its own literals: the `statement` span, the
/// slow-query entry and its profile.
#[test]
fn a_hit_is_traced_with_its_own_literals() {
    let trace = TraceConfig {
        slow_query_threshold_ns: 0,
        ..TraceConfig::default()
    };
    let db = rows_db(Database::builder().trace(trace), 300);
    db.session().run("define index rows_k on Rows (k)").unwrap();
    let mut s = db.session();
    s.query("retrieve (R.tag) from R in Rows where R.k = 7 and R.tag != \"x\"")
        .unwrap();
    let (hits, _) = cache_counts(&db);
    s.query("retrieve (R.tag) from R in Rows where R.k = 41 and R.tag != \"y\"")
        .unwrap();
    assert_eq!(cache_counts(&db).0, hits + 1);
    let text = "retrieve (R.tag) from R in Rows where ((R.k = 41) and (R.tag != \"y\"))";
    let span = db
        .trace_spans()
        .into_iter()
        .rev()
        .find(|s| s.name == "statement")
        .unwrap();
    assert_eq!(span.detail, text);
    let entry = db
        .slow_queries()
        .into_iter()
        .find(|q| q.statement.contains("41"))
        .expect("the hit is logged with its literals");
    assert_eq!(entry.statement, text);
    let profile = entry.payload.unwrap().to_string();
    assert!(profile.contains("(k = 41)"), "{profile}");
    assert!(
        profile.contains("\"y\"") && !profile.contains("\"x\""),
        "{profile}"
    );
}
