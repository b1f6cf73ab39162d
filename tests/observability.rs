//! The observability surface end to end: metrics snapshots, recovery
//! counters vs. the `RecoveryReport`, tracing spans, the slow-query
//! log, `observe <stmt>`, and the encodings (JSON round-trip and
//! Prometheus exposition).

use std::path::PathBuf;

use extra_excess::db::validate_exposition;
use extra_excess::{Database, DbError, Durability, Response, TraceConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("exodus-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A tiny schema with a handful of rows, run through `session`.
fn seed(db: &std::sync::Arc<Database>) {
    let mut s = db.session();
    s.run(
        r#"
        define type Person (name: varchar, age: int4);
        create { own ref Person } People;
        append to People (name = "ann", age = 30);
        append to People (name = "bob", age = 41);
        append to People (name = "cey", age = 52);
    "#,
    )
    .unwrap();
}

/// After a durable workload and a non-checkpointed shutdown, the reopen
/// replays the log — and the `storage_recovery_*` counters in the
/// metrics snapshot must equal the `RecoveryReport` field for field.
#[test]
fn recovery_counters_match_the_report() {
    let dir = temp_dir("recovery");
    let path = dir.join("db.vol");
    {
        let db = Database::builder()
            .path(&path)
            .durability(Durability::Fsync)
            .build()
            .unwrap();
        seed(&db);
        // Dropped without a checkpoint: the volume may be stale, the
        // log is not, so the next open has real redo work.
    }
    let db = Database::builder()
        .path(&path)
        .durability(Durability::Fsync)
        .build()
        .unwrap();
    let report = db.recovery().expect("file-backed open recovers").clone();
    assert!(report.records_scanned > 0, "workload left no log records");
    assert!(report.units_replayed > 0, "reopen had nothing to replay");

    let snap = db.metrics_snapshot().expect("metrics are on by default");
    let counter = |name: &str| {
        snap.counter(name)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    assert_eq!(
        counter("storage_recovery_records_scanned"),
        report.records_scanned
    );
    assert_eq!(
        counter("storage_recovery_units_replayed"),
        report.units_replayed
    );
    assert_eq!(
        counter("storage_recovery_units_rolled_back"),
        report.units_rolled_back
    );
    assert_eq!(
        counter("storage_recovery_pages_restored"),
        report.pages_restored
    );
    assert_eq!(
        counter("storage_recovery_bytes_truncated"),
        report.bytes_truncated
    );

    // The reopened database keeps its catalog, and its durable append
    // path moves the WAL counters.
    let mut s = db.session();
    let people = s.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(people.rows.len(), 3);
    s.run(r#"append to People (name = "dee", age = 63)"#)
        .unwrap();
    let snap = db.metrics_snapshot().unwrap();
    assert!(snap.counter("storage_wal_appends_total").unwrap() > 0);
    assert!(snap.counter("storage_wal_fsyncs_total").unwrap() > 0);
    assert!(snap.counter("storage_pool_hits_total").unwrap() > 0);
    drop(s);

    // Concurrent durable commits batch, never multiply, fsyncs: each
    // commit flushes once and followers ride the leader's fsync, so the
    // fsync count is at most the commit count (equality = no overlap,
    // legal on an idle host).
    std::thread::scope(|scope| {
        for w in 0..4 {
            let db = &db;
            scope.spawn(move || {
                let mut s = db.session();
                for _ in 0..20 {
                    s.run(&format!(r#"append to People (name = "w{w}", age = 1)"#))
                        .unwrap();
                }
            });
        }
    });
    let after = db.metrics_snapshot().unwrap();
    let delta = |name: &str| after.counter(name).unwrap() - snap.counter(name).unwrap();
    let committed = delta("storage_txn_committed_total");
    let fsyncs = delta("storage_wal_fsyncs_total");
    assert!(committed >= 80, "80 appends committed only {committed}");
    assert!(
        fsyncs <= committed,
        "group commit regressed: {fsyncs} fsyncs for {committed} commits"
    );
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn statement_counters_and_active_sessions() {
    let db = Database::in_memory();
    seed(&db);
    let mut s = db.session();
    s.query("retrieve (P.name) from P in People where P.age > 35")
        .unwrap();
    let snap = db.metrics_snapshot().unwrap();
    // `seed` ran 5 statements, this session one more.
    assert_eq!(snap.counter("db_statements_total"), Some(6));
    assert_eq!(snap.counter("db_statements_retrieve_total"), Some(1));
    assert_eq!(snap.counter("db_statements_append_total"), Some(3));
    assert_eq!(snap.counter("db_errors_total"), Some(0));
    assert_eq!(snap.gauge("db_active_sessions"), Some(1));

    assert!(s.run("retrieve (Nope.x)").is_err());
    let snap = db.metrics_snapshot().unwrap();
    assert_eq!(snap.counter("db_errors_total"), Some(1));

    let s2 = db.session_as("guest");
    assert_eq!(
        db.metrics_snapshot().unwrap().gauge("db_active_sessions"),
        Some(2)
    );
    drop(s2);
    drop(s);
    assert_eq!(
        db.metrics_snapshot().unwrap().gauge("db_active_sessions"),
        Some(0)
    );
}

/// With a zero threshold every statement enters the slow-query log,
/// slowest first, and retrieves carry their execution profile (tracing
/// implies profiling).
#[test]
fn slow_query_log_captures_statements_with_profiles() {
    let db = Database::builder()
        .trace(TraceConfig {
            slow_query_threshold_ns: 0,
            ..TraceConfig::default()
        })
        .build()
        .unwrap();
    seed(&db);
    let mut s = db.session();
    s.query("retrieve (P.name) from P in People where P.age > 35")
        .unwrap();

    let slow = db.slow_queries();
    assert_eq!(slow.len(), 6, "zero threshold must log every statement");
    assert!(
        slow.windows(2).all(|w| w[0].elapsed_ns >= w[1].elapsed_ns),
        "slow queries are not sorted slowest first"
    );
    let retrieve = slow
        .iter()
        .find(|q| q.statement.starts_with("retrieve"))
        .expect("the retrieve was logged");
    let profile = retrieve
        .payload
        .as_ref()
        .expect("tracing implies profiling");
    // The profile renders the annotated physical plan.
    assert!(format!("{profile}").contains("SeqScan"), "{profile}");
    assert_eq!(
        db.metrics_snapshot()
            .unwrap()
            .counter("db_slow_queries_total"),
        Some(6)
    );
}

/// One traced retrieve produces the full span lifecycle, with
/// sema/plan/execute/wal_commit nested under the statement span.
#[test]
fn trace_spans_cover_the_statement_lifecycle() {
    let db = Database::builder()
        .trace(TraceConfig::default())
        .build()
        .unwrap();
    seed(&db);
    let mut s = db.session();
    s.query("retrieve (P.name) from P in People where P.age > 35")
        .unwrap();

    let spans = db.trace_spans();
    let find = |name: &str| {
        spans
            .iter()
            .rfind(|sp| sp.name == name)
            .unwrap_or_else(|| panic!("no {name} span in {spans:?}"))
    };
    let statement = find("statement");
    assert!(
        statement.detail.starts_with("retrieve"),
        "{}",
        statement.detail
    );
    for child in ["sema", "plan", "execute"] {
        assert_eq!(
            find(child).parent,
            Some(statement.id),
            "{child} span is not nested under the statement span"
        );
    }
    // Commit spans come from the seed's DML; each nests under one of
    // the statement spans.
    let statement_ids: Vec<u64> = spans
        .iter()
        .filter(|sp| sp.name == "statement")
        .map(|sp| sp.id)
        .collect();
    let commits: Vec<_> = spans.iter().filter(|sp| sp.name == "wal_commit").collect();
    assert!(!commits.is_empty(), "no wal_commit spans in {spans:?}");
    for c in &commits {
        assert!(
            c.parent.is_some_and(|p| statement_ids.contains(&p)),
            "wal_commit span {c:?} is not nested under a statement span"
        );
    }
    // Parsing happens before the statement span opens, so it is a root.
    assert_eq!(find("parse").parent, None);
}

/// `observe <stmt>` wraps the inner response with its wall-clock time
/// and the counters it moved, and refuses to nest.
#[test]
fn observe_statement_reports_counter_deltas() {
    let db = Database::in_memory();
    seed(&db);
    let mut s = db.session();
    let responses = s.run("observe retrieve (P.name) from P in People").unwrap();
    let obs = responses
        .into_iter()
        .next()
        .unwrap()
        .observation()
        .expect("observe returns Response::Observed");
    assert!(format!("{obs}").contains("elapsed:"));
    assert!(
        obs.counters.iter().any(|(n, _)| n == "exec_rows_total"),
        "expected executor deltas, got {:?}",
        obs.counters
    );
    assert!(
        obs.counters.iter().all(|(_, d)| *d > 0),
        "zero deltas must be dropped"
    );
    assert_eq!(obs.response.rows().expect("inner rows").len(), 3);

    assert!(s
        .run("observe observe retrieve (P.name) from P in People")
        .is_err());
    assert!(s
        .run("explain observe retrieve (P.name) from P in People")
        .is_err());
}

/// The snapshot's Prometheus exposition parses clean.
#[test]
fn snapshot_exposition_validates() {
    let db = Database::in_memory();
    seed(&db);
    db.session()
        .query("retrieve (P.age) from P in People")
        .unwrap();

    let snap = db.metrics_snapshot().unwrap();
    let families = validate_exposition(&snap.to_prometheus()).expect("exposition is well-formed");
    assert!(families >= 20, "only {families} metric families registered");
}

/// `.metrics(false)` strips the whole surface: no snapshots, no spans,
/// no slow queries — and statements still run.
#[test]
fn disabled_metrics_leave_no_surface() {
    let db = Database::builder().metrics(false).build().unwrap();
    seed(&db);
    let mut s = db.session();
    assert_eq!(
        s.query("retrieve (P.name) from P in People").unwrap().len(),
        3
    );
    assert!(db.metrics_snapshot().is_none());
    assert!(db.slow_queries().is_empty());
    assert!(db.trace_spans().is_empty());
    // `observe` still executes its inner statement; the deltas are
    // simply empty.
    let obs = s
        .run("observe retrieve (P.name) from P in People")
        .unwrap()
        .into_iter()
        .next()
        .unwrap()
        .observation()
        .unwrap();
    assert!(obs.counters.is_empty());
    assert_eq!(obs.response.rows().unwrap().len(), 3);
}

/// `observe` meters a statement's execution and `explain` prints its
/// plan; `begin`/`commit`/`abort` have neither an execution pipeline
/// nor a plan, so wrapping them must be refused with a clear parse
/// error — never a panic, never a silent no-op observation.
#[test]
fn observe_and_explain_refuse_transaction_control() {
    let db = Database::builder().build().unwrap();
    seed(&db);
    let mut s = db.session();
    for verb in ["begin", "commit", "abort"] {
        for (wrapper, hint) in [
            ("observe", "is not a metered statement"),
            ("explain", "has no plan"),
            ("explain analyze", "has no plan"),
        ] {
            let err = s
                .run(&format!("{wrapper} {verb}"))
                .expect_err(&format!("'{wrapper} {verb}' must be refused"));
            let DbError::Parse(e) = err else {
                panic!("'{wrapper} {verb}' raised {err}, expected a parse error");
            };
            let msg = e.to_string();
            assert!(
                msg.contains(&format!("'{verb}'")) && msg.contains(hint),
                "'{wrapper} {verb}' error does not explain itself: {msg}"
            );
        }
        // Nested wrappers stay refused in every combination.
        for prefix in [
            "observe observe",
            "explain explain",
            "observe explain",
            "explain observe",
        ] {
            let err = s.run(&format!("{prefix} {verb}")).expect_err(prefix);
            assert!(
                matches!(err, DbError::Parse(_)),
                "'{prefix} {verb}' raised {err}, expected a parse error"
            );
        }
    }
    // The refusals must not have wedged the session: transaction
    // control and observation both still work afterwards.
    s.run("begin").unwrap();
    s.run("commit").unwrap();
    let responses = s
        .run(r#"observe append to People (name = "dot", age = 63)"#)
        .unwrap();
    assert!(
        matches!(responses.last(), Some(Response::Observed(_))),
        "observe of an ordinary statement must still produce an observation"
    );
}

/// The drift gate for DESIGN.md §12's metric catalogue: register every
/// family the system can register (WAL-backed primary with tracing, a
/// wire server, a replica, and a recovered reopen), then require the
/// set of live family names and the doc's fenced `metric-catalogue`
/// block to match exactly — both directions. A new metric family must
/// land in the doc in the same change that registers it, and a removed
/// one must leave it.
#[test]
fn metrics_catalogue_matches_design_doc() {
    use std::collections::BTreeSet;

    let design =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md")).unwrap();
    let block = design
        .split("```metric-catalogue")
        .nth(1)
        .expect("DESIGN.md lost its ```metric-catalogue block")
        .split("```")
        .next()
        .unwrap();
    let documented: BTreeSet<String> = block
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();

    let dir = temp_dir("catalogue");
    let mut live = BTreeSet::new();
    {
        let db = Database::builder()
            .path(dir.join("p.vol"))
            .durability(Durability::Fsync)
            .trace(TraceConfig::default())
            .build()
            .unwrap();
        seed(&db);
        // The server registers its `server_*` families on spawn; the
        // replica registers `repl_replayed_*`/`repl_horizon`/`repl_lag*`
        // on its own registry and `repl_shipped_*` on the primary's.
        let mut server = exodus_server::Server::spawn(
            db.clone(),
            exodus_server::TcpTransport::bind("127.0.0.1:0").unwrap(),
            exodus_server::AdmissionConfig::default(),
        )
        .unwrap();
        let mut replica = extra_excess::db::replication::Replica::in_process(
            &db,
            dir.join("r.vol"),
            extra_excess::db::replication::ReplicaOptions::default(),
        )
        .unwrap();
        replica.pump_until_caught_up().unwrap();
        for m in db.metrics_snapshot().unwrap().metrics {
            live.insert(m.name);
        }
        for m in replica.database().metrics_snapshot().unwrap().metrics {
            live.insert(m.name);
        }
        drop(replica);
        server.shutdown();
    }
    {
        // Reopen: recovery families are only registered when an open
        // actually recovered.
        let db = Database::builder()
            .path(dir.join("p.vol"))
            .durability(Durability::Fsync)
            .build()
            .unwrap();
        for m in db.metrics_snapshot().unwrap().metrics {
            live.insert(m.name);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let undocumented: Vec<&String> = live.difference(&documented).collect();
    let stale: Vec<&String> = documented.difference(&live).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "metric catalogue drift — registered but not in DESIGN.md §12: {undocumented:?}; \
         documented but no longer registered: {stale:?}"
    );
}

/// The transaction lifecycle is observable: the active gauge tracks the
/// open transaction and the committed/aborted counters tally outcomes.
#[test]
fn txn_metrics_track_lifecycle() {
    let db = Database::builder().build().unwrap();
    seed(&db);
    let mut s = db.session();

    let at_rest = db.metrics_snapshot().unwrap();
    assert_eq!(at_rest.gauge("storage_txn_active"), Some(0));

    s.run("begin").unwrap();
    let open = db.metrics_snapshot().unwrap();
    assert_eq!(open.gauge("storage_txn_active"), Some(1));

    s.run(r#"append to People (name = "eve", age = 29); commit"#)
        .unwrap();
    s.run(r#"begin; append to People (name = "fay", age = 35); abort"#)
        .unwrap();

    let done = db.metrics_snapshot().unwrap();
    assert_eq!(done.gauge("storage_txn_active"), Some(0));
    let delta = |name: &str| done.counter(name).unwrap_or(0) - at_rest.counter(name).unwrap_or(0);
    // At least the explicit commit; version-reclaim vacuum piggybacks
    // its own housekeeping transactions on the same counter.
    assert!(delta("storage_txn_committed_total") >= 1);
    assert_eq!(delta("storage_txn_aborted_total"), 1);
}
