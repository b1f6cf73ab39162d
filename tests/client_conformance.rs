//! The shared `Client` conformance suite.
//!
//! Every scenario here runs twice — once against the in-process
//! `Session` and once against a `RemoteSession` talking to a real
//! `exodus-server` over a loopback socket — and the two transcripts
//! must match exactly: same rows, same acknowledgment messages, same
//! error codes and retryability, same rendered plans. This is the
//! contract that keeps local and remote behavior from drifting.

use exodus_db::{Client, Database, DbError, Response, Value};
use exodus_server::{AdmissionConfig, RemoteSession, Server, TcpTransport};

/// Schema and data shared by every scenario.
const SETUP: &str = r#"
    define type Person (name: varchar, age: int4);
    create { own ref Person } People;
    append to People (name = "ann", age = 30);
    append to People (name = "bob", age = 40);
    append to People (name = "cyd", age = 25);
"#;

/// A transcript entry: what one client call produced, rendered in a
/// transport-independent way.
#[derive(Debug, PartialEq)]
enum Outcome {
    /// `run` responses: Done messages and row sets, in order.
    Ran(Vec<String>),
    /// `query` rows, rendered row-major.
    Rows(Vec<Vec<String>>),
    /// An explanation's plan text.
    Plan(String),
    /// An error: stable code, retryability.
    Failed(u16, bool),
}

fn render_response(r: &Response) -> String {
    match r {
        Response::Done(m) => format!("done: {m}"),
        Response::Rows(q) => format!(
            "rows[{}]: {:?}",
            q.columns.join(","),
            q.rows
                .iter()
                .map(|row| row.iter().map(|v| v.to_string()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        ),
        Response::Explained(e) => format!("explained: {}", e.plan),
        Response::Observed(o) => format!("observed: {}", render_response(&o.response)),
    }
}

fn run_outcome(client: &mut dyn Client, src: &str) -> Outcome {
    match client.run(src) {
        Ok(responses) => Outcome::Ran(responses.iter().map(render_response).collect()),
        Err(e) => Outcome::Failed(e.code(), e.is_retryable()),
    }
}

fn query_outcome(client: &mut dyn Client, src: &str) -> Outcome {
    match client.query(src) {
        Ok(q) => Outcome::Rows(
            q.rows
                .iter()
                .map(|row| row.iter().map(|v| v.to_string()).collect())
                .collect(),
        ),
        Err(e) => Outcome::Failed(e.code(), e.is_retryable()),
    }
}

fn explain_outcome(client: &mut dyn Client, src: &str) -> Outcome {
    match client.explain(src) {
        Ok(e) => Outcome::Plan(e.plan),
        Err(e) => Outcome::Failed(e.code(), e.is_retryable()),
    }
}

/// Run `scenario` against a fresh local session and a fresh remote
/// session (each over its own in-memory database primed with
/// [`SETUP`]) and compare the transcripts.
fn conforms(scenario: impl Fn(&mut dyn Client) -> Vec<Outcome>) {
    let local_db = Database::in_memory();
    let mut local = local_db.session();
    local.run(SETUP).unwrap();
    let local_transcript = scenario(&mut local);

    let remote_db = Database::in_memory();
    let server = Server::spawn(
        remote_db,
        TcpTransport::bind("127.0.0.1:0").unwrap(),
        AdmissionConfig::default(),
    )
    .unwrap();
    let mut remote = RemoteSession::connect(server.addr(), "admin").unwrap();
    remote.run(SETUP).unwrap();
    let remote_transcript = scenario(&mut remote);

    assert_eq!(
        local_transcript, remote_transcript,
        "local and remote clients disagreed"
    );
}

#[test]
fn retrieve_rows_match() {
    conforms(|c| {
        vec![
            query_outcome(
                c,
                "retrieve (P.name, P.age) from P in People where P.age > 28",
            ),
            query_outcome(c, "retrieve (P.name) from P in People"),
        ]
    });
}

#[test]
fn ddl_and_update_acknowledgments_match() {
    conforms(|c| {
        vec![
            run_outcome(c, r#"append to People (name = "dee", age = 50)"#),
            run_outcome(
                c,
                r#"replace P (age = 31) from P in People where P.name = "ann""#,
            ),
            run_outcome(c, r#"delete P from P in People where P.name = "dee""#),
            query_outcome(c, "retrieve (P.name, P.age) from P in People"),
        ]
    });
}

#[test]
fn multi_statement_run_matches() {
    conforms(|c| {
        vec![run_outcome(
            c,
            r#"
                append to People (name = "eve", age = 61);
                retrieve (P.name) from P in People where P.age > 60;
                delete P from P in People where P.name = "eve"
            "#,
        )]
    });
}

#[test]
fn error_codes_round_trip() {
    conforms(|c| {
        vec![
            // 1001 Parse: not a statement.
            run_outcome(c, "retrieve retrieve retrieve"),
            // 1002 Sema: unknown attribute.
            run_outcome(c, "retrieve (P.salary) from P in People"),
            // 1002 Sema: unknown collection.
            run_outcome(c, "retrieve (X.name) from X in Nowhere"),
            // 1005 Txn: commit without begin.
            run_outcome(c, "commit"),
            // query() on a non-retrieve.
            query_outcome(c, r#"append to People (name = "zed", age = 1)"#),
        ]
    });
}

#[test]
fn first_error_stops_the_batch_but_keeps_earlier_statements() {
    conforms(|c| {
        vec![
            run_outcome(
                c,
                r#"
                    append to People (name = "fay", age = 35);
                    retrieve (P.bogus) from P in People;
                    append to People (name = "gus", age = 36)
                "#,
            ),
            // "fay" was applied (its own autocommit txn); "gus" never ran.
            query_outcome(c, "retrieve (P.name) from P in People where P.age > 34"),
        ]
    });
}

#[test]
fn explain_plans_match() {
    conforms(|c| {
        vec![
            explain_outcome(c, "retrieve (P.name) from P in People where P.age > 28"),
            // Explain must not execute: People is unchanged after.
            explain_outcome(c, r#"delete P from P in People where P.name = "ann""#),
            query_outcome(c, "retrieve (P.name) from P in People"),
        ]
    });
}

#[test]
fn explain_analyze_executes_exactly_once() {
    conforms(|c| {
        let analyzed = c
            .explain_analyze(r#"append to People (name = "hal", age = 70)"#)
            .unwrap();
        // The annotated plan carries per-operator profiling counters
        // either side (exact timings differ, so no transcript compare).
        assert!(
            analyzed.to_string().contains("rows="),
            "analyzed plan should carry profiling counters: {analyzed}"
        );
        vec![query_outcome(
            c,
            "retrieve (P.name) from P in People where P.age > 60",
        )]
    });
}

#[test]
fn observe_reports_the_statement_and_its_effects() {
    conforms(|c| {
        let obs = c
            .observe("retrieve (P.name) from P in People where P.age > 28")
            .unwrap();
        assert!(
            obs.counters
                .iter()
                .any(|(name, _)| name == "exec_rows_total"),
            "observation should count the rows the statement produced: {:?}",
            obs.counters
        );
        assert!(obs.elapsed_ns > 0, "observation lost its timing");
        vec![Outcome::Ran(vec![render_response(&obs.response)])]
    });
}

#[test]
fn explicit_transactions_commit_and_abort() {
    conforms(|c| {
        vec![
            run_outcome(
                c,
                r#"begin; append to People (name = "ida", age = 81); commit"#,
            ),
            query_outcome(c, "retrieve (P.name) from P in People where P.age > 80"),
            run_outcome(
                c,
                r#"begin; append to People (name = "jan", age = 82); abort"#,
            ),
            // The aborted append is invisible.
            query_outcome(c, "retrieve (P.name) from P in People where P.age > 80"),
        ]
    });
}

#[test]
fn authorization_is_enforced_for_both() {
    // Local: a non-admin session; remote: a Hello as the same user.
    let local_db = Database::in_memory();
    local_db.session().run(SETUP).unwrap();
    local_db.session().run(r#"create user intern"#).unwrap();
    let mut local = local_db.session_as("intern");
    let local_err = Client::query(&mut local, "retrieve (P.name) from P in People").unwrap_err();

    let remote_db = Database::in_memory();
    remote_db.session().run(SETUP).unwrap();
    remote_db.session().run(r#"create user intern"#).unwrap();
    let server = Server::spawn(
        remote_db,
        TcpTransport::bind("127.0.0.1:0").unwrap(),
        AdmissionConfig::default(),
    )
    .unwrap();
    let mut remote = RemoteSession::connect(server.addr(), "intern").unwrap();
    let remote_err = remote
        .query("retrieve (P.name) from P in People")
        .unwrap_err();

    assert_eq!(local_err.code(), remote_err.code());
    assert_eq!(local_err.is_retryable(), remote_err.is_retryable());
    assert!(matches!(remote_err, DbError::Remote { .. }));
}

#[test]
fn sys_views_conform_across_transports() {
    // The `sys.*` introspection surface must look the same through a
    // local Session and a RemoteSession: same columns, same plans, and
    // — for state the transport does not itself change — same rows.
    conforms(|c| {
        vec![
            query_outcome(
                c,
                r#"retrieve (m.name, m.kind, m.count) from m in sys.metrics
                   where m.name = "db_statements_total""#,
            ),
            // `kind`/`peer`/`state` are transport-specific by design
            // (covered below); user and statement counts must agree.
            query_outcome(
                c,
                "retrieve (s.user_name, s.statements) from s in sys.sessions",
            ),
            explain_outcome(c, "retrieve (m.name) from m in sys.metrics"),
            explain_outcome(c, "retrieve (s.id) from s in sys.sessions"),
            // Unknown views fail with the same stable code either side.
            query_outcome(c, "retrieve (v) from v in sys.nope"),
        ]
    });
}

#[test]
fn remote_sessions_appear_as_wire_sessions() {
    // What the transports legitimately change: a wire session's
    // `sys.sessions` row carries the peer address the server annotated
    // and reports kind `wire`, while an in-process session is `local`
    // with a null peer.
    let db = Database::in_memory();
    let local_rows = {
        let mut local = db.session();
        local.run(SETUP).unwrap();
        local
            .query("retrieve (s.kind, s.peer, s.state) from s in sys.sessions")
            .unwrap()
            .rows
    };
    assert_eq!(local_rows.len(), 1);
    assert_eq!(local_rows[0][0].to_string(), "\"local\"");
    assert_eq!(local_rows[0][1].to_string(), "null");
    assert_eq!(local_rows[0][2].to_string(), "\"open\"");

    let server = Server::spawn(
        Database::in_memory(),
        TcpTransport::bind("127.0.0.1:0").unwrap(),
        AdmissionConfig::default(),
    )
    .unwrap();
    let mut remote = RemoteSession::connect(server.addr(), "admin").unwrap();
    remote.run(SETUP).unwrap();
    let rows = remote
        .query("retrieve (s.kind, s.peer, s.state, s.user_name) from s in sys.sessions")
        .unwrap()
        .rows;
    assert_eq!(rows.len(), 1, "the serving connection sees itself");
    assert_eq!(rows[0][0].to_string(), "\"wire\"");
    assert!(
        rows[0][1].to_string().contains("127.0.0.1"),
        "peer address missing: {:?}",
        rows[0][1]
    );
    assert_eq!(rows[0][2].to_string(), "\"admitted\"");
    assert_eq!(rows[0][3].to_string(), "\"admin\"");

    // The row is live — it counts the statements this connection was
    // served (SETUP's five and the retrieve above) — and the server's
    // own families reach `sys.metrics` through the shared registry.
    let served = remote
        .query("retrieve (s.statements) from s in sys.sessions")
        .unwrap()
        .rows;
    assert!(
        matches!(served[0][0], Value::Int(n) if n > 5),
        "{:?}",
        served[0]
    );
    let counted = remote
        .query(
            r#"retrieve (m.count) from m in sys.metrics where m.name = "server_statements_total""#,
        )
        .unwrap()
        .rows;
    assert_eq!(counted.len(), 1, "server families reach sys.metrics");
    assert!(
        matches!(counted[0][0], Value::Int(n) if n > 0),
        "{:?}",
        counted[0]
    );
}

#[test]
fn snapshot_isolation_holds_over_the_wire() {
    // A remote reader must not see another connection's uncommitted
    // writes — its retrieves run against a committed snapshot, exactly
    // as in-process sessions do (writers serialize on the single
    // writer gate, so the readable anomaly is dirty reads).
    let db = Database::in_memory();
    db.session().run(SETUP).unwrap();
    let server = Server::spawn(
        db,
        TcpTransport::bind("127.0.0.1:0").unwrap(),
        AdmissionConfig::default(),
    )
    .unwrap();

    let mut reader = RemoteSession::connect(server.addr(), "admin").unwrap();
    let mut writer = RemoteSession::connect(server.addr(), "admin").unwrap();

    let before = reader.query("retrieve (P.name) from P in People").unwrap();
    writer
        .run(r#"begin; append to People (name = "kay", age = 90)"#)
        .unwrap();
    let during = reader.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(
        before.rows, during.rows,
        "reader must not see the uncommitted append"
    );
    writer.run("commit").unwrap();
    let after = reader.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(after.rows.len(), before.rows.len() + 1, "commit publishes");

    // And an aborted transaction's writes never surface.
    writer
        .run(r#"begin; append to People (name = "lou", age = 91); abort"#)
        .unwrap();
    let post_abort = reader.query("retrieve (P.name) from P in People").unwrap();
    assert_eq!(post_abort.rows, after.rows, "abort leaves no trace");
}
