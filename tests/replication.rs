//! WAL-shipping read replicas, end to end (`docs/REPLICATION.md`):
//! in-process pairs serving reads at the replay horizon, the read-only
//! refusal codes, catalog propagation through the replayed catalog image,
//! lag shedding, replica restart, and the `repl_*` metric families.

use std::path::PathBuf;
use std::sync::Arc;

use exodus_server::{
    AdmissionConfig, RemoteSession, RemoteStream, Server, TcpTransport, WireReplica,
};
use extra_excess::db::replication::{Batch, ReplStream, Replica, ReplicaOptions};
use extra_excess::db::validate_exposition;
use extra_excess::db::Client;
use extra_excess::{Database, DbError, Durability, Value};

mod common;

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("exodus-repl-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn primary(dir: &std::path::Path) -> Arc<Database> {
    Database::builder()
        .path(dir.join("primary.vol"))
        .durability(Durability::Fsync)
        .build()
        .unwrap()
}

fn seed(db: &Arc<Database>) {
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, age: int4);
        create { own ref Person } People;
        append to People (name = "ann", age = 30);
        append to People (name = "bob", age = 41);
        append to People (name = "cey", age = 52);
        define function Doubled (p: Person) returns int4 as retrieve (p.age + p.age);
        define index ByAge on People (age);
    "#,
    )
    .unwrap();
}

/// Sorted row text for order-insensitive result comparison.
fn row_set(r: &extra_excess::QueryResult) -> Vec<String> {
    let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
    rows.sort();
    rows
}

#[test]
fn replica_serves_reads_and_refuses_writes_with_stable_codes() {
    let dir = temp_dir("basic");
    let p = primary(&dir);
    seed(&p);
    let mut replica =
        Replica::in_process(&p, dir.join("replica.vol"), ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();
    let rdb = replica.database();
    let mut rs = rdb.session();

    // Reads work, pinned at the replay horizon — including a shipped
    // function (its body re-parsed from the catalog image) and a
    // shipped secondary index.
    let r = rs
        .query("retrieve (P.name) from P in People where P.age > 35")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = rs
        .query("retrieve (Doubled(P)) from P in People where P.name = \"ann\"")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(60)]]);

    // Writes and explicit transactions are refused with the stable,
    // non-retryable ReadOnly code (1007). Range declarations are pure
    // session state and stay allowed.
    rs.run("range of P is People").unwrap();
    for stmt in [
        "append to People (name = \"dee\", age = 60)",
        "delete P where P.age > 0",
        "begin",
        "define type T2 (x: int4)",
        "create user eve",
        "retrieve into Stash (P.age) from P in People",
        "explain retrieve (P.age) from P in People",
    ] {
        let err = rs.run(stmt).unwrap_err();
        assert_eq!(err.code(), 1007, "{stmt}: {err}");
        assert!(!err.is_retryable(), "{stmt}");
    }
    assert_eq!(rdb.checkpoint().unwrap_err().code(), 1007);
    assert_eq!(rdb.bulk_append("People", vec![]).unwrap_err().code(), 1007);

    // New commits on the primary stay invisible until the pump runs;
    // the horizon only ever moves forward.
    let h0 = replica.horizon();
    p.session()
        .run("append to People (name = \"dee\", age = 63)")
        .unwrap();
    let stale = rs.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(stale.rows.len(), 3);
    replica.pump_until_caught_up().unwrap();
    assert!(replica.horizon() > h0, "horizon must advance on commit");
    let fresh = rs.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(fresh.rows.len(), 4);
}

/// Conformance: at the same horizon, a replica session and a primary
/// snapshot session return identical rows — the replica is a readable
/// copy, not an approximation.
#[test]
fn replica_matches_primary_snapshot_at_same_horizon() {
    let dir = temp_dir("conform");
    let p = primary(&dir);
    seed(&p);
    let mut replica =
        Replica::in_process(&p, dir.join("replica.vol"), ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();

    let queries = [
        "retrieve (P.name, P.age) from P in People",
        "retrieve (P.name) from P in People where P.age > 35",
        "retrieve (max(P.age over P)) from P in People",
        "retrieve (Doubled(P)) from P in People",
    ];
    let mut ps = p.session();
    let mut rs = replica.database().session();
    for q in queries {
        assert_eq!(
            row_set(&ps.query(q).unwrap()),
            row_set(&rs.query(q).unwrap()),
            "{q}"
        );
    }
}

/// Catalog changes — new types, collections, users, grants — propagate
/// through the catalog image replayed (and installed) on the next pump.
#[test]
fn catalog_changes_propagate_through_epoch_images() {
    let dir = temp_dir("epoch");
    let p = primary(&dir);
    seed(&p);
    let mut replica =
        Replica::in_process(&p, dir.join("replica.vol"), ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();

    // Auth shipped with the image: a user unknown to the image cannot
    // read on the replica.
    {
        let mut eve = replica.database().session_as("eve");
        let err = eve.run("retrieve (P.name) from P in People").unwrap_err();
        assert_eq!(err.code(), 1003, "{err}");
    }

    // DDL + grants on the primary...
    p.session()
        .run(
            r#"
            define type City (name: varchar, pop: int4);
            create { own City } Cities;
            append to Cities (name = "madison", pop = 250000);
            create user eve;
            grant read on People to eve;
        "#,
        )
        .unwrap();
    replica.pump_until_caught_up().unwrap();

    // ...are all visible after the pump: the new collection queries,
    // and the grant admits the user.
    let mut rs = replica.database().session();
    let r = rs.query("retrieve (C.pop) from C in Cities").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(250000)]]);
    let mut eve = replica.database().session_as("eve");
    assert_eq!(
        eve.query("retrieve (P.name) from P in People")
            .unwrap()
            .rows
            .len(),
        3
    );
}

/// With a configured lag bound, reads on a trailing replica shed with
/// the retryable Lagging code (2004) and recover once caught up.
#[test]
fn lag_bound_sheds_reads_until_caught_up() {
    let dir = temp_dir("lag");
    let p = primary(&dir);
    seed(&p);
    let mut replica = Replica::in_process(
        &p,
        dir.join("replica.vol"),
        ReplicaOptions {
            max_lag: Some(4),
            batch_records: 4,
            ..ReplicaOptions::default()
        },
    )
    .unwrap();
    replica.pump_until_caught_up().unwrap();

    // Build a backlog far past the bound, then apply only one small
    // batch so the measured lag lands above it.
    let mut ps = p.session();
    for i in 0..30 {
        ps.run(&format!("append to People (name = \"p{i}\", age = {i})"))
            .unwrap();
    }
    replica.pump().unwrap();
    assert!(replica.lag_records() > 4, "lag: {}", replica.lag_records());
    let mut rs = replica.database().session();
    let err = rs.query("retrieve (P.name) from P in People").unwrap_err();
    assert_eq!(err.code(), 2004, "{err}");
    assert!(err.is_retryable());

    replica.pump_until_caught_up().unwrap();
    assert_eq!(replica.lag_records(), 0);
    let r = rs.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(r.rows.len(), 33);
}

/// Introspection works on replicas: every `sys.*` view answers a
/// retrieve (never the ReadOnly refusal), `sys.replication` reports the
/// replica role with live horizon/lag — and the lag bound still sheds
/// sys reads exactly like data reads, because they ride the same
/// replica read path.
#[test]
fn sys_views_read_on_replicas_and_respect_lag_shedding() {
    let dir = temp_dir("sysviews");
    let p = primary(&dir);
    seed(&p);
    let mut replica = Replica::in_process(
        &p,
        dir.join("replica.vol"),
        ReplicaOptions {
            max_lag: Some(4),
            batch_records: 4,
            ..ReplicaOptions::default()
        },
    )
    .unwrap();
    replica.pump_until_caught_up().unwrap();
    let rdb = replica.database();
    let mut rs = rdb.session();

    // Every shipped view is readable — introspection is never refused
    // with the replica's ReadOnly code.
    for (name, _, _) in rdb.system_view_schemas() {
        rs.query(&format!("retrieve (v) from v in sys.{name}"))
            .unwrap_or_else(|e| panic!("sys.{name} refused on a replica: {e}"));
    }

    // The replication view reports this side's role and progress.
    let r = rs
        .query("retrieve (t.role, t.lag, t.max_lag) from t in sys.replication")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::str("replica"), Value::Int(0), Value::Int(4)]]
    );
    // ... and the primary's reports the shipping side.
    let r = p
        .session()
        .query("retrieve (t.role) from t in sys.replication")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("primary")]]);

    // Past the lag bound, sys reads shed with the same retryable
    // Lagging code as data reads — a trailing replica's introspection
    // must not pretend to be current.
    let mut ps = p.session();
    for i in 0..30 {
        ps.run(&format!("append to People (name = \"q{i}\", age = {i})"))
            .unwrap();
    }
    replica.pump().unwrap();
    assert!(replica.lag_records() > 4, "lag: {}", replica.lag_records());
    let err = rs
        .query("retrieve (m.name) from m in sys.metrics")
        .unwrap_err();
    assert_eq!(err.code(), 2004, "{err}");
    assert!(err.is_retryable());

    // Caught up again, introspection resumes and sees the replay work
    // in the replica's own counters.
    replica.pump_until_caught_up().unwrap();
    let r = rs
        .query(r#"retrieve (m.count) from m in sys.metrics where m.name = "repl_replayed_records_total""#)
        .unwrap();
    let Value::Int(replayed) = r.rows[0][0] else {
        panic!("counter is not an int");
    };
    assert!(replayed >= 30, "replayed only {replayed} records");
}

/// A replica restarted over its own volume recovers, reconnects, and
/// resumes replay from its local cursor to the primary's frontier.
#[test]
fn replica_restart_resumes_from_local_log() {
    let dir = temp_dir("restart");
    let p = primary(&dir);
    seed(&p);
    let rpath = dir.join("replica.vol");
    let h1 = {
        let mut replica = Replica::in_process(&p, &rpath, ReplicaOptions::default()).unwrap();
        replica.pump_until_caught_up().unwrap();
        replica.horizon()
    };

    // Progress on the primary while the replica is down.
    p.session()
        .run("append to People (name = \"late\", age = 77)")
        .unwrap();

    let mut replica = Replica::in_process(&p, &rpath, ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();
    assert!(replica.horizon() > h1, "horizon monotonic across restart");
    let mut rs = replica.database().session();
    let r = rs.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(r.rows.len(), 4);
}

/// A replica's catalog is on its own pages: restarted while its primary
/// is unreachable, it serves what it last replayed.
#[test]
fn a_replica_restarted_without_its_primary_serves_its_last_catalog() {
    struct Unreachable;
    impl ReplStream for Unreachable {
        fn poll(&mut self, _: u64, _: usize) -> extra_excess::DbResult<Batch> {
            Err(DbError::Net("connection refused".into()))
        }
    }
    let dir = temp_dir("orphan");
    let p = primary(&dir);
    seed(&p);
    let rpath = dir.join("replica.vol");
    {
        let mut replica = Replica::in_process(&p, &rpath, ReplicaOptions::default()).unwrap();
        replica.pump_until_caught_up().unwrap();
    }
    let mut replica =
        Replica::connect(&rpath, Box::new(Unreachable), ReplicaOptions::default()).unwrap();
    let mut rs = replica.database().session();
    let r = rs
        .query("retrieve (Doubled(P)) from P in People where P.age > 35")
        .unwrap();
    assert_eq!(row_set(&r), ["[Int(104)]", "[Int(82)]"]);
    assert_eq!(replica.pump().unwrap_err().code(), 3001);
}

/// The `repl_*` families are present in both expositions: shipped
/// counters on the primary, replayed counters plus the horizon and lag
/// instruments on the replica.
#[test]
fn repl_metrics_appear_in_prometheus_exposition() {
    let dir = temp_dir("metrics");
    let p = primary(&dir);
    seed(&p);
    let mut replica =
        Replica::in_process(&p, dir.join("replica.vol"), ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();

    let pexpo = p.metrics_snapshot().unwrap().to_prometheus();
    validate_exposition(&pexpo).unwrap();
    for family in [
        "repl_shipped_records_total",
        "repl_shipped_bytes_total",
        "repl_shipped_segments",
    ] {
        assert!(
            pexpo.contains(family),
            "primary exposition missing {family}"
        );
    }
    let shipped = p
        .metrics_snapshot()
        .unwrap()
        .counter("repl_shipped_records_total")
        .unwrap();
    assert!(shipped > 0, "source shipped nothing");

    let rexpo = replica
        .database()
        .metrics_snapshot()
        .unwrap()
        .to_prometheus();
    validate_exposition(&rexpo).unwrap();
    for family in [
        "repl_replayed_records_total",
        "repl_replayed_units_total",
        "repl_replayed_checkpoints_total",
        "repl_replayed_segments",
        "repl_horizon",
        "repl_lag_records",
        "repl_lag",
    ] {
        assert!(
            rexpo.contains(family),
            "replica exposition missing {family}"
        );
    }
    let snap = replica.database().metrics_snapshot().unwrap();
    assert_eq!(
        snap.counter("repl_replayed_records_total").unwrap(),
        shipped,
        "replayed must equal shipped after catch-up"
    );
    assert_eq!(
        snap.gauge("repl_horizon").unwrap() as u64,
        replica.horizon()
    );
}

/// A shipped checkpoint becomes a real checkpoint on the replica: the
/// local log is pruned and the store survives restart from it.
#[test]
fn shipped_checkpoints_prune_the_replica_log() {
    let dir = temp_dir("ckpt");
    let p = primary(&dir);
    seed(&p);
    let rpath = dir.join("replica.vol");
    let mut replica = Replica::in_process(&p, &rpath, ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();

    p.session()
        .run("append to People (name = \"post\", age = 9)")
        .unwrap();
    p.checkpoint().unwrap();
    replica.pump_until_caught_up().unwrap();
    let snap = replica.database().metrics_snapshot().unwrap();
    assert_eq!(snap.counter("repl_replayed_checkpoints_total").unwrap(), 1);

    // Restart the replica from its checkpointed volume: the rows are
    // all there without replaying pre-checkpoint history.
    drop(replica);
    let mut replica = Replica::in_process(&p, &rpath, ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();
    let r = replica
        .database()
        .session()
        .query("retrieve (P.name) from P in People")
        .unwrap();
    assert_eq!(r.rows.len(), 4);
}

/// Every page of `db`'s volume with its checksum field zeroed (the one
/// field each node stamps for itself at write-back), read through its pool.
fn volume_pages(db: &Database) -> Vec<Vec<u8>> {
    let pool = db.store().storage().pool();
    (0..pool.volume_pages())
        .map(|page_no| {
            let mut bytes = pool.pin(page_no).unwrap().with_read(<[u8]>::to_vec);
            bytes[32..36].fill(0);
            bytes
        })
        .collect()
}

/// Page deltas replay byte for byte: after a seeded mix on the primary —
/// appends, replaces, deletes, an aborted transaction, vacuum, a bulk
/// append, an index and a type definition (which rewrites the catalog's
/// large object) — every page below the primary's page count is equal on
/// the replica outside the checksum field, after catch-up and again after
/// the replica restarts from its own log. Pages the replica never heard
/// of (the aborted transaction's allocations) must be zeros on both.
#[test]
fn replica_pages_are_byte_equal_to_the_primary() {
    let dir = temp_dir("bytes");
    let p = primary(&dir);
    seed(&p);
    let rpath = dir.join("replica.vol");
    let mut replica = Replica::in_process(&p, &rpath, ReplicaOptions::default()).unwrap();
    let mut rng = 1988u64;
    let mut next = move |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let mut s = p.session();
    s.run("range of P is People").unwrap();
    for round in 0..120 {
        let age = next(90);
        let stmt = match next(10) {
            0..=5 => format!("append to People (name = \"p{round}\", age = {age})"),
            6..=8 => format!("replace P (age = {age}) where P.age = {}", next(90)),
            _ => format!("delete P where P.age = {age}"),
        };
        s.run(&stmt).unwrap();
        if round % 25 == 0 {
            replica.pump_until_caught_up().unwrap();
        }
    }
    s.run("begin").unwrap();
    for k in 0..40 {
        s.run(&format!("append to People (name = \"gone{k}\", age = 1)"))
            .unwrap();
    }
    s.run("replace P (age = 2) where P.age > 50").unwrap();
    s.run("abort").unwrap();
    p.store().vacuum().unwrap();
    let bulk = (0..50)
        .map(|k| Value::Tuple(vec![Value::str(&format!("bulk{k}")), Value::Int(k)]))
        .collect();
    p.bulk_append("People", bulk).unwrap();
    s.run("define index ByName on People (name)").unwrap();
    s.run("define type Pet (name: varchar, owner: ref Person)")
        .unwrap();
    s.run("append to People (name = \"last\", age = 3)")
        .unwrap();

    replica.pump_until_caught_up().unwrap();
    let want = volume_pages(&p);
    let same = |got: Vec<Vec<u8>>, when: &str| {
        assert!(got.len() <= want.len(), "{when}: replica has extra pages");
        let zero = vec![0u8; want[0].len()];
        for (page_no, page) in want.iter().enumerate() {
            let mirror = got.get(page_no).unwrap_or(&zero);
            assert!(
                mirror == page,
                "{when}: page {page_no} differs at byte {:?}",
                page.iter().zip(mirror).position(|(a, b)| a != b)
            );
        }
    };
    same(volume_pages(&replica.database()), "after catch-up");
    drop(replica);
    let mut replica = Replica::in_process(&p, &rpath, ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();
    same(volume_pages(&replica.database()), "after restart");
}

/// The wire pair: a replica bootstrapped over EXOD/1 poll/batch frames
/// from a served primary behaves exactly like the in-process pair.
#[test]
fn wire_replica_replays_over_the_protocol() {
    let dir = temp_dir("wire");
    let p = primary(&dir);
    seed(&p);
    let server = Server::spawn(
        Arc::clone(&p),
        TcpTransport::bind("127.0.0.1:0").unwrap(),
        AdmissionConfig::default(),
    )
    .unwrap();

    let stream = RemoteStream::connect(server.addr()).unwrap();
    let mut replica = Replica::connect(
        dir.join("replica.vol"),
        Box::new(stream),
        ReplicaOptions::default(),
    )
    .unwrap();
    replica.pump_until_caught_up().unwrap();

    let mut rs = replica.database().session();
    let r = rs.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(r.rows.len(), 3);
    let err = rs
        .run("append to People (name = \"x\", age = 1)")
        .unwrap_err();
    assert_eq!(err.code(), 1007);

    // Writes arriving over the wire on the primary ship to the replica
    // on the next pump.
    let mut remote = RemoteSession::connect(server.addr(), "admin").unwrap();
    remote
        .run("append to People (name = \"wired\", age = 11)")
        .unwrap();
    replica.pump_until_caught_up().unwrap();
    let r = rs.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(r.rows.len(), 4);
}

/// The full `--replica-of` shape: a [`WireReplica`] pump keeping a
/// served read-only replica caught up, queried over its own EXOD/1
/// listener — writes refused end to end with the stable code.
#[test]
fn wire_replica_serves_its_own_listener() {
    let dir = temp_dir("wiresrv");
    let p = primary(&dir);
    seed(&p);
    let pserver = Server::spawn(
        Arc::clone(&p),
        TcpTransport::bind("127.0.0.1:0").unwrap(),
        AdmissionConfig::default(),
    )
    .unwrap();

    let wire = WireReplica::spawn(
        pserver.addr(),
        dir.join("replica.vol"),
        ReplicaOptions::default(),
        std::time::Duration::from_millis(10),
    )
    .unwrap();
    let rserver = Server::spawn(
        wire.database(),
        TcpTransport::bind("127.0.0.1:0").unwrap(),
        AdmissionConfig::default(),
    )
    .unwrap();

    let mut rsess = RemoteSession::connect(rserver.addr(), "admin").unwrap();
    let r = rsess.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(r.rows.len(), 3);
    let err = rsess
        .run("append to People (name = \"x\", age = 1)")
        .unwrap_err();
    assert_eq!(err.code(), 1007, "{err}");
    assert!(!err.is_retryable());

    // A commit on the primary becomes visible through the background
    // pump without any explicit pump call.
    p.session()
        .run("append to People (name = \"pumped\", age = 5)")
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let n = rsess
            .query("retrieve (P.name) from P in People")
            .unwrap()
            .rows
            .len();
        if n == 4 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "pump thread never shipped the new row (still {n} rows)"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

/// An error on a replica session must not poison subsequent statements.
#[test]
fn refused_write_leaves_the_session_usable() {
    let dir = temp_dir("usable");
    let p = primary(&dir);
    seed(&p);
    let mut replica =
        Replica::in_process(&p, dir.join("replica.vol"), ReplicaOptions::default()).unwrap();
    replica.pump_until_caught_up().unwrap();
    let rdb = replica.database();
    let mut rs = rdb.session();
    assert!(matches!(
        rs.run("append to People (name = \"x\", age = 1)"),
        Err(DbError::ReadOnly(_))
    ));
    assert_eq!(
        rs.query("retrieve (P.name) from P in People")
            .unwrap()
            .rows
            .len(),
        3
    );
}

/// ADT values are stored under their registry id, and a replica's
/// registry holds the built-ins only: a catalog image from a primary
/// that registered a custom ADT is refused with the stable
/// `AdtMismatch` code — at bootstrap and at a later refresh alike —
/// rather than imported over a registry that cannot decode its data.
#[test]
fn replica_refuses_a_catalog_image_naming_an_adt_it_lacks() {
    let dir = temp_dir("adt");
    let p = primary(&dir);
    seed(&p);
    // A replica that bootstrapped before the ADT existed fails at the
    // refresh the registration triggers, and keeps serving what it has.
    let mut early =
        Replica::in_process(&p, dir.join("early.vol"), ReplicaOptions::default()).unwrap();
    early.pump_until_caught_up().unwrap();
    p.register_adt(Arc::new(common::Fraction)).unwrap();
    p.session()
        .run(
            r#"
            define type Recipe (title: varchar, scale: Fraction);
            create { own ref Recipe } Recipes;
            append to Recipes (title = "bread", scale = Fraction("3/4"));
        "#,
        )
        .unwrap();
    let refusals = [
        early.pump().expect_err("refresh"),
        Replica::in_process(&p, dir.join("late.vol"), ReplicaOptions::default())
            .map(drop)
            .expect_err("bootstrap"),
    ];
    for err in refusals {
        assert!(matches!(err, DbError::AdtMismatch(_)), "{err}");
        assert_eq!(err.code(), 1008);
        assert!(!err.is_retryable());
        assert!(err.to_string().contains("Fraction"), "{err}");
    }
    let r = early
        .database()
        .session()
        .query("retrieve (P.name) from P in People where P.age > 35")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}
