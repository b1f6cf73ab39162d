//! Kill the database at every durable write of a statement script —
//! clean and torn — through `Database::builder().path(..)`, reopen, and
//! compare: the reopened database must answer a fixed set of probes
//! exactly as a model that ran the script's committed prefix does,
//! catalog and rows alike. The catalog image commits in the same
//! transaction as the statement that changed it, so there is no prefix
//! at which the two disagree.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use exodus_db::{Database, DbResult, Durability, Response, Value};
use exodus_storage::failpoint::{self, CrashPlan};

/// DDL, DML, statistics and an index; a checkpoint follows `analyze`.
const SCRIPT: &[&str] = &[
    "define type Person (name: varchar, age: int4)",
    "create { own ref Person } People",
    r#"append to People (name = "ann", age = 30)"#,
    r#"append to People (name = "bob", age = 41)"#,
    "analyze People",
    "define index ByAge on People (age)",
    r#"range of P is People; replace P (age = 31) where P.name = "ann""#,
    r#"range of P is People; delete P where P.name = "bob""#,
    r#"append to People (name = "cey", age = 52)"#,
];
const CHECKPOINT_AFTER: usize = 4;

const PROBES: &[&str] = &[
    "retrieve (P.name, P.age) from P in People",
    "explain retrieve (P.name) from P in People where P.age = 31",
    "retrieve (c.name, c.members, c.analyzed, c.analyzed_rows) from c in sys.collections",
];

fn answers(db: &Arc<Database>) -> Vec<String> {
    PROBES
        .iter()
        .map(|probe| match db.run(probe).map(|mut r| r.pop()) {
            Ok(Some(Response::Rows(r))) => {
                let mut rows: Vec<String> = r.rows.iter().map(|r| format!("{r:?}")).collect();
                rows.sort();
                rows.join("; ")
            }
            Ok(Some(Response::Explained(e))) => e.plan,
            Ok(other) => format!("{other:?}"),
            Err(e) => format!("{}: {e}", e.code()),
        })
        .collect()
}

fn open(path: &Path) -> DbResult<Arc<Database>> {
    Database::builder()
        .path(path)
        .durability(Durability::Fsync)
        .pool_pages(256)
        .metrics(false)
        .build()
}

/// Run the script until the first failure (the injected crash).
/// Returns how many statements returned `Ok` and whether a further one
/// was in flight when the crash hit.
fn run_script(db: &Arc<Database>) -> (usize, bool) {
    for (i, stmt) in SCRIPT.iter().enumerate() {
        if db.run(stmt).is_err() {
            return (i, true);
        }
        if i == CHECKPOINT_AFTER && db.checkpoint().is_err() {
            return (i + 1, false);
        }
    }
    (SCRIPT.len(), false)
}

fn temp_dir() -> PathBuf {
    let d = std::env::temp_dir().join(format!("exodus-crash-loop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn kill_at_every_write_reopens_to_the_committed_prefix() {
    let _x = failpoint::exclusive();
    // What each committed prefix answers, from an in-memory model.
    let models: Vec<Vec<String>> = (0..=SCRIPT.len())
        .map(|k| {
            let db = Database::in_memory();
            for stmt in &SCRIPT[..k] {
                db.run(stmt).unwrap();
            }
            answers(&db)
        })
        .collect();

    let dir = temp_dir();
    let path = dir.join("db.vol");
    let db = open(&path).unwrap();
    failpoint::start_counting();
    assert_eq!(run_script(&db), (SCRIPT.len(), false));
    let total = failpoint::writes_observed();
    failpoint::disarm();
    assert!(total > 100, "script too small to be interesting: {total}");
    assert_eq!(answers(&db), models[SCRIPT.len()]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);

    for after_writes in 0..total {
        for torn in [false, true] {
            let plan = CrashPlan { after_writes, torn };
            let dir = temp_dir();
            let path = dir.join("db.vol");
            let db = open(&path).unwrap();
            failpoint::arm(plan);
            let (committed, in_flight) = run_script(&db);
            let fired = failpoint::crashed();
            failpoint::disarm();
            drop(db);
            assert!(fired || committed == SCRIPT.len(), "{plan:?}");

            let db = open(&path).unwrap_or_else(|e| panic!("{plan:?}: reopen failed: {e}"));
            let got = answers(&db);
            assert!(
                got == models[committed] || (in_flight && got == models[committed + 1]),
                "{plan:?}: reopened to neither {committed} nor {} committed statements:\n{got:#?}",
                committed + 1
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Genesis killed at every durable write, clean and torn, under a log
/// and without one: every reopen opens an empty database, which then
/// takes DDL and DML like any other.
#[test]
fn kill_during_genesis_reopens_an_empty_database() {
    let _x = failpoint::exclusive();
    for durability in [Durability::Fsync, Durability::None] {
        let open = |path: &Path| {
            Database::builder()
                .path(path)
                .durability(durability)
                .pool_pages(256)
                .metrics(false)
                .build()
        };
        let dir = temp_dir();
        failpoint::start_counting();
        let db = open(&dir.join("db.vol")).unwrap();
        let total = failpoint::writes_observed();
        failpoint::disarm();
        drop(db);
        assert!(total > 0, "{durability:?}: genesis wrote nothing");

        for after_writes in 0..total {
            for torn in [false, true] {
                let plan = CrashPlan { after_writes, torn };
                let dir = temp_dir();
                let path = dir.join("db.vol");
                failpoint::arm(plan);
                let first = open(&path);
                let fired = failpoint::crashed();
                failpoint::disarm();
                assert!(fired, "{durability:?} {plan:?}: no write was killed");
                drop(first);

                let db = open(&path)
                    .unwrap_or_else(|e| panic!("{durability:?} {plan:?}: reopen failed: {e}"));
                let what = |db: &Arc<Database>, q: &str| match db.run(q).map(|mut r| r.pop()) {
                    Ok(Some(Response::Rows(r))) => r.rows,
                    other => panic!("{durability:?} {plan:?}: {q}: {other:?}"),
                };
                let names = "retrieve (c.name) from c in sys.collections";
                assert!(what(&db, names).is_empty(), "{durability:?} {plan:?}");
                db.run("define type T (k: int4); create { own T } Ts; append to Ts (k = 7)")
                    .unwrap_or_else(|e| panic!("{durability:?} {plan:?}: {e}"));
                let ks = what(&db, "retrieve (t.k) from t in Ts");
                assert_eq!(ks, vec![vec![Value::Int(7)]], "{durability:?} {plan:?}");
                drop(db);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }
}
