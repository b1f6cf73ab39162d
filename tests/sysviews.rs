//! The `sys.*` virtual collections end to end: every shipped view is
//! retrievable with ordinary EXCESS, composes with filters,
//! projections, aggregates and `explain analyze`, requires no object
//! privilege, and — because a `SystemScan` is never parallelized —
//! produces identical rows and plans at every degree of parallelism.

use std::sync::Arc;

use extra_excess::{Database, TraceConfig, Value};

/// Schema and data shared by the scenarios.
fn seed(db: &Arc<Database>) {
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

/// Every shipped view answers a bare retrieve, and rows match the
/// declared schema arity.
#[test]
fn every_view_is_retrievable() {
    let db = Database::in_memory();
    seed(&db);
    let mut s = db.session();
    for (name, _, fields) in db.system_view_schemas() {
        let r = s
            .query(&format!("retrieve (v) from v in sys.{name}"))
            .unwrap_or_else(|e| panic!("retrieve over sys.{name}: {e}"));
        for row in &r.rows {
            let Value::Tuple(attrs) = &row[0] else {
                panic!("sys.{name} row is not a tuple: {row:?}");
            };
            assert_eq!(
                attrs.len(),
                fields.len(),
                "sys.{name} row arity does not match its declared schema"
            );
        }
    }
    db.check_system_views().unwrap();
}

/// Filters, projections and aggregates compose over a system scan
/// exactly as over a stored collection.
#[test]
fn views_compose_with_the_query_surface() {
    let db = Database::in_memory();
    seed(&db);
    let mut s = db.session();

    // Projection + filter on sys.metrics.
    let r = s
        .query(r#"retrieve (m.name, m.count) from m in sys.metrics where m.name = "db_statements_total""#)
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::str("db_statements_total"));
    // seed ran 5 statements. The statement counter is bumped after a
    // statement completes, so the in-flight retrieve sees 5, not 6 —
    // the scan's snapshot is consistent with the counters as of its
    // own start.
    assert_eq!(r.rows[0][1], Value::Int(5));

    // Aggregate over a system scan.
    let r = s
        .query(
            r#"retrieve (count(m.name over m)) from m in sys.metrics where m.kind = "histogram""#,
        )
        .unwrap();
    let Value::Int(histograms) = r.rows[0][0] else {
        panic!("count did not produce an int");
    };
    assert!(histograms >= 2, "expected statement_ns and merge_wait_ns");

    // sys.collections reports the live member count and analyze
    // freshness transitions.
    let r = s
        .query("retrieve (c.name, c.members, c.analyzed, c.fresh) from c in sys.collections")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![
            Value::str("People"),
            Value::Int(3),
            Value::Bool(false),
            Value::Bool(false),
        ]]
    );
    s.run("analyze People").unwrap();
    let r = s
        .query("retrieve (c.analyzed, c.analyzed_rows, c.fresh) from c in sys.collections")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Bool(true), Value::Int(3), Value::Bool(true)]]
    );
    s.run(r#"append to People (name = "dot", age = 63)"#)
        .unwrap();
    let r = s
        .query("retrieve (c.members, c.fresh) from c in sys.collections")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(4), Value::Bool(false)]],
        "a post-analyze append must stale the stats"
    );

    // sys.transactions tallies the seed's autocommit writes.
    let r = s
        .query("retrieve (t.committed, t.active_snapshots) from t in sys.transactions")
        .unwrap();
    assert_eq!(r.rows.len(), 1, "sys.transactions is a single row");
    let Value::Int(committed) = r.rows[0][0] else {
        panic!("committed is not an int")
    };
    assert!(committed >= 4, "the seed committed at least 4 writes");

    // An unattached primary reports its role with null progress.
    let r = s
        .query("retrieve (t.role, t.lag) from t in sys.replication")
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("primary"), Value::Null]]);

    // And `explain analyze` renders the SystemScan operator with
    // observed row counts.
    let e = s
        .explain_analyze(r#"retrieve (m.name) from m in sys.metrics where m.kind = "counter""#)
        .unwrap();
    let text = e.to_string();
    assert!(
        text.contains("SystemScan m over sys.metrics"),
        "plan does not show the system scan: {text}"
    );
    assert!(text.contains("rows="), "analyze carries actuals: {text}");
}

/// `sys.sessions` sees every open session with live statement counts;
/// `sys.slow_queries` attributes entries to the session that ran them.
#[test]
fn sessions_and_slow_queries_are_attributable() {
    let db = Database::builder()
        .trace(TraceConfig {
            slow_query_threshold_ns: 0,
            ..TraceConfig::default()
        })
        .build()
        .unwrap();
    seed(&db);
    let mut admin = db.session();
    let mut guest = db.session_as("guest");
    let guest_id = guest.session_id();
    // Fails on authorization, but still counts as a served statement.
    let _ = guest.query("retrieve (P.name) from P in People");

    let r = admin
        .query("retrieve (s.id, s.user_name, s.kind, s.statements, s.state) from s in sys.sessions")
        .unwrap();
    assert_eq!(r.rows.len(), 2, "both open sessions are visible");
    assert_eq!(r.rows[0][1], Value::str("admin"));
    assert_eq!(r.rows[1][1], Value::str("guest"));
    assert_eq!(r.rows[1][0], Value::Int(guest_id as i64));
    assert_eq!(r.rows[1][3], Value::Int(1), "guest served one statement");
    for row in &r.rows {
        assert_eq!(row[2], Value::str("local"));
        assert_eq!(row[4], Value::str("open"));
    }

    // The admin session's own row counts the sys.sessions retrieve.
    let r = admin
        .query(&format!(
            "retrieve (s.statements) from s in sys.sessions where s.id = {}",
            admin.session_id()
        ))
        .unwrap();
    assert_eq!(r.rows[0][0], Value::Int(2));

    // A dropped session leaves the view.
    drop(guest);
    let r = admin
        .query("retrieve (s.id) from s in sys.sessions")
        .unwrap();
    assert_eq!(r.rows.len(), 1);

    // Zero threshold: every statement entered the slow-query log, each
    // attributed to its originating session and verb.
    let r = admin
        .query(&format!(
            "retrieve (q.verb) from q in sys.slow_queries where q.session = {guest_id}"
        ))
        .unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("retrieve")]]);
    let r = admin
        .query(r#"retrieve (q.statement) from q in sys.slow_queries where q.verb = "append""#)
        .unwrap();
    assert_eq!(r.rows.len(), 3, "the seed's three appends");

    // sys.trace_spans surfaces the ring, filterable by span name.
    let r = admin
        .query(
            r#"retrieve (count(t.id over t)) from t in sys.trace_spans where t.name = "statement""#,
        )
        .unwrap();
    let Value::Int(statements) = r.rows[0][0] else {
        panic!("span count is not an int")
    };
    assert!(statements >= 5, "seed statements traced, got {statements}");
}

/// Introspection needs no object privilege: a user with no grants can
/// read every `sys.*` view (while stored collections stay refused).
#[test]
fn introspection_requires_no_grants() {
    let db = Database::in_memory();
    seed(&db);
    db.session().run("create user intern").unwrap();
    let mut intern = db.session_as("intern");
    assert!(
        intern.query("retrieve (P.name) from P in People").is_err(),
        "the intern has no grant on People"
    );
    for (name, _, _) in db.system_view_schemas() {
        intern
            .query(&format!("retrieve (v) from v in sys.{name}"))
            .unwrap_or_else(|e| panic!("intern refused on sys.{name}: {e}"));
    }
}

/// A user-declared name shadows the reserved namespace: binding `sys`
/// as a range variable or collection keeps working, and the unknown-
/// view error lists what exists.
#[test]
fn sys_namespace_edges() {
    let db = Database::in_memory();
    seed(&db);
    let mut s = db.session();
    let err = s
        .query("retrieve (x.name) from x in sys.nope")
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("no system view 'sys.nope'") && err.contains("metrics"),
        "unhelpful unknown-view error: {err}"
    );
    // Nested paths under a view are rejected, not silently empty.
    let err = s
        .query("retrieve (x) from x in sys.metrics.name")
        .unwrap_err()
        .to_string();
    assert!(err.contains("nested"), "unexpected error: {err}");
    // A real collection named `sys` shadows the virtual namespace.
    s.run("create { own ref Person } sys").unwrap();
    let err = s
        .query("retrieve (x) from x in sys.metrics")
        .unwrap_err()
        .to_string();
    assert!(
        !err.contains("system view"),
        "user collection must shadow the sys namespace: {err}"
    );
}

/// DOP determinism by construction: a `SystemScan` is never wrapped in
/// a parallel operator, so plans and rows are identical at DOP 1 and
/// DOP 4 — for every shipped view, including the metric counters
/// themselves (the sys queries cost no parallel candidates).
#[test]
fn rows_and_plans_are_identical_at_dop_1_and_4() {
    let build = |dop: usize| {
        let db = Database::builder().worker_threads(dop).build().unwrap();
        seed(&db);
        db
    };
    let db1 = build(1);
    let db4 = build(4);
    let queries = [
        r#"retrieve (m.name, m.kind, m.count) from m in sys.metrics where m.kind = "counter""#,
        "retrieve (s.user_name, s.kind, s.statements) from s in sys.sessions",
        "retrieve (t.committed, t.aborted) from t in sys.transactions",
        "retrieve (c.name, c.members, c.fresh) from c in sys.collections",
        "retrieve (q.verb) from q in sys.slow_queries",
        "retrieve (t.name) from t in sys.trace_spans",
        "retrieve (r.role) from r in sys.replication",
    ];
    let mut s1 = db1.session();
    let mut s4 = db4.session();
    for q in queries {
        let p1 = s1.explain(q).unwrap().plan;
        let p4 = s4.explain(q).unwrap().plan;
        assert_eq!(p1, p4, "plans diverge across DOP for: {q}");
        assert!(
            !p1.contains("Parallel"),
            "a system scan must never be parallelized: {p1}"
        );
        let r1 = s1.query(q).unwrap();
        let r4 = s4.query(q).unwrap();
        assert_eq!(r1.columns, r4.columns, "columns diverge for: {q}");
        assert_eq!(r1.rows, r4.rows, "rows diverge across DOP for: {q}");
    }
}
