//! Write-ahead logging and crash recovery, end to end.
//!
//! Part 1 opens a file-backed database through the builder, runs logged
//! statements, checkpoints, and reopens it: the catalog is a logged
//! record like any other, so `People` is still there. Part 2 drops to
//! the storage layer and simulates a crash — committed write transactions
//! survive a reopen with *no* flush, rebuilt purely from the log's page
//! records (a full image on each page's first change, byte-run deltas
//! after).
//!
//! ```console
//! cargo run --example durability
//! ```

use extra_excess::storage::{StorageManager, WriteTxn};
use extra_excess::{Database, Durability};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("excess-durability-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;

    // ---- Part 1: the database surface --------------------------------
    let open = || {
        Database::builder()
            .path(dir.join("univ.db"))
            .durability(Durability::Fsync)
            .build()
    };
    let db = open()?;
    let report = db.recovery().expect("file-backed open runs recovery");
    println!("opened univ.db: clean={} ({report:?})", report.was_clean());

    let mut session = db.session();
    session.run(
        r#"
        define type Person (name: varchar, age: int4);
        create { own ref Person } People;
        append to People (name = "ann", age = 40);
        append to People (name = "bob", age = 31);
    "#,
    )?;
    let rows = session.query("retrieve (P.name) from P in People order by P.name asc")?;
    println!("people: {:?}", rows.rows);
    // Each statement above was one crash-atomic write transaction; checkpoint
    // bounds recovery work and prunes the log.
    db.checkpoint()?;
    println!("checkpointed; durability = {:?}", db.durability());
    session.run(r#"append to People (name = "cey", age = 52)"#)?;
    drop(session);
    drop(db);

    // Reopen: recovery replays the append the checkpoint did not cover,
    // and the catalog image names `People` again.
    let db = open()?;
    let rows = db.query("retrieve (P.name) from P in People order by P.name asc")?;
    println!("people after reopen: {:?}", rows.rows);
    assert_eq!(
        rows.rows.len(),
        3,
        "the reopened database keeps its catalog"
    );
    drop(db);

    // ---- Part 2: crash simulation at the storage layer ---------------
    let vol = dir.join("crash.db");
    let (sm, _) = StorageManager::open(&vol, 64, Durability::Fsync)?;
    let txn: WriteTxn = sm.begin_txn()?;
    let file = sm.create_file()?;
    txn.commit()?;
    for i in 0..5 {
        let txn = sm.begin_txn()?;
        sm.insert(file, format!("record-{i}").as_bytes())?;
        txn.commit()?;
    }
    // "Crash": drop the manager without flushing a single page. The
    // dirty pages die with the process; only the log has the data.
    drop(sm);

    let (sm, report) = StorageManager::open(&vol, 64, Durability::Fsync)?;
    println!(
        "recovered crash.db: {} records scanned, {} pages restored, torn tail = {}",
        report.records_scanned, report.pages_restored, report.torn_tail
    );
    let survived: Vec<String> = sm
        .scan(file)
        .map(|r| Ok::<_, Box<dyn std::error::Error>>(String::from_utf8(r?.1)?))
        .collect::<Result<_, _>>()?;
    println!("survived: {survived:?}");
    assert_eq!(survived.len(), 5, "all committed transactions must survive");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
