//! Integration tests: many concurrent remote clients, admission
//! shedding, and the `/metrics` scrape — against a real server on a
//! loopback socket.

use std::sync::Arc;
use std::time::{Duration, Instant};

use exodus_db::{validate_exposition, Client, Database, DbError};
use exodus_server::{AdmissionConfig, RemoteSession, Server, TcpTransport};

fn log_db() -> Arc<Database> {
    let db = Database::in_memory();
    db.session()
        .run(
            r#"
            define type Entry (tag: varchar, n: int4);
            create { own ref Entry } Log;
        "#,
        )
        .unwrap();
    db
}

fn serve_db(db: Arc<Database>, config: AdmissionConfig) -> Server {
    Server::spawn(db, TcpTransport::bind("127.0.0.1:0").unwrap(), config).unwrap()
}

fn serve(config: AdmissionConfig) -> Server {
    serve_db(log_db(), config)
}

/// Poll until `probe` is true or the deadline passes (worker threads
/// notice a dropped connection within their read-timeout tick).
fn eventually(what: &str, probe: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn many_clients_pipeline_concurrently() {
    const CLIENTS: usize = 16;
    const STATEMENTS: usize = 8;

    let server = serve(AdmissionConfig::default());
    let addr = Arc::new(server.addr().to_string());

    let workers: Vec<_> = (0..CLIENTS)
        .map(|client_id| {
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || {
                let mut session = RemoteSession::connect(&*addr, "admin").unwrap();
                // Pipeline every append before reading any result.
                for n in 0..STATEMENTS {
                    session
                        .send(&format!(r#"append to Log (tag = "c{client_id}", n = {n})"#))
                        .unwrap();
                }
                let results = session.drain().unwrap();
                assert_eq!(results.len(), STATEMENTS);
                for r in results {
                    r.unwrap();
                }
                // Each client sees its own writes.
                let mine = session
                    .query(&format!(
                        r#"retrieve (L.n) from L in Log where L.tag = "c{client_id}""#
                    ))
                    .unwrap();
                assert_eq!(mine.rows.len(), STATEMENTS);
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut checker = RemoteSession::connect(&*addr, "admin").unwrap();
    let total = checker.query("retrieve (L.n) from L in Log").unwrap();
    assert_eq!(total.rows.len(), CLIENTS * STATEMENTS);

    let metrics = server.admission().metrics();
    assert!(
        metrics.statements_total.get() >= (CLIENTS * (STATEMENTS + 1)) as u64,
        "admitted statements: {}",
        metrics.statements_total.get()
    );
    assert_eq!(metrics.shed_statements_total.get(), 0);
    drop(checker);
    eventually("all connections to close", || {
        metrics.active_connections.get() == 0
    });
    assert_eq!(metrics.connections_total.get(), (CLIENTS + 1) as u64);
}

#[test]
fn connections_past_the_limit_are_shed_with_a_retryable_code() {
    let server = serve(AdmissionConfig {
        max_connections: 3,
        ..AdmissionConfig::default()
    });
    let metrics = server.admission().metrics();

    let held: Vec<_> = (0..3)
        .map(|_| RemoteSession::connect(server.addr(), "admin").unwrap())
        .collect();
    eventually("three active connections", || {
        metrics.active_connections.get() == 3
    });

    // The fourth is refused during the handshake, with the stable
    // retryable code — not a hang, not a socket reset.
    let refused = RemoteSession::connect(server.addr(), "admin").unwrap_err();
    match &refused {
        DbError::Remote { code, .. } => assert_eq!(*code, 2002),
        other => panic!("expected a remote shed error, got {other:?}"),
    }
    assert!(refused.is_retryable());
    eventually("the shed to be counted", || {
        metrics.shed_connections_total.get() == 1
    });
    assert_eq!(metrics.active_connections.get(), 3);

    // Capacity freed by a departing client is reusable.
    drop(held);
    eventually("held connections to close", || {
        metrics.active_connections.get() == 0
    });
    let mut retry = RemoteSession::connect(server.addr(), "admin").unwrap();
    retry.run("retrieve (L.n) from L in Log").unwrap();
}

#[test]
fn statement_queue_depth_sheds_but_keeps_the_connection() {
    let server = serve(AdmissionConfig {
        queue_depth: 0,
        ..AdmissionConfig::default()
    });
    let mut session = RemoteSession::connect(server.addr(), "admin").unwrap();
    // Every statement is refused (depth 0), but on the same live
    // connection — a later retry (here: after a config with capacity
    // would admit) still speaks the protocol.
    let err = session.run("retrieve (L.n) from L in Log").unwrap_err();
    match &err {
        DbError::Remote { code, .. } => assert_eq!(*code, 2002),
        other => panic!("expected a remote shed error, got {other:?}"),
    }
    assert!(err.is_retryable());
    // The connection survived the shed: another request gets the same
    // orderly answer rather than a broken pipe.
    let err = session.run("retrieve (L.n) from L in Log").unwrap_err();
    assert!(matches!(err, DbError::Remote { code: 2002, .. }));
    assert_eq!(server.admission().metrics().shed_statements_total.get(), 2);
}

#[test]
fn http_scrape_returns_valid_exposition_with_server_families() {
    use std::io::{Read, Write};

    let server = serve(AdmissionConfig::default());
    // Generate some traffic so the families carry real values.
    let mut session = RemoteSession::connect(server.addr(), "admin").unwrap();
    session
        .run(r#"append to Log (tag = "scrape", n = 1)"#)
        .unwrap();

    let mut http = std::net::TcpStream::connect(server.addr()).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();

    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("an HTTP head/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");

    let families = validate_exposition(body).expect("a valid Prometheus exposition");
    assert!(families > 0);
    for family in [
        "server_connections_total",
        "server_active_connections",
        "server_shed_connections_total",
        "server_statements_total",
        "server_shed_statements_total",
        "server_statement_ns",
        "server_frames_in_total",
        "server_frames_out_total",
        "server_metrics_scrapes_total",
    ] {
        assert!(
            body.contains(family),
            "exposition should carry {family}:\n{body}"
        );
    }
    // The database's own families share the page (one registry).
    assert!(body.contains("db_statements_total"), "{body}");

    // Unknown paths 404 without killing the listener.
    let mut http = std::net::TcpStream::connect(server.addr()).unwrap();
    http.write_all(b"GET /nope HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
}

/// `GET` the scrape port with `request` as the whole request; the
/// response's head and body.
fn http_get(addr: &str, request: &[u8]) -> (String, String) {
    use std::io::{Read, Write};

    let mut http = std::net::TcpStream::connect(addr).unwrap();
    http.write_all(request).unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("an HTTP head/body split");
    (head.to_string(), body.to_string())
}

/// The port serves one exposition: `/metrics.json` is no route, and
/// `/metrics` answers the Prometheus text whatever `Accept` asks for.
#[test]
fn http_scrape_serves_prometheus_text_only() {
    let server = serve(AdmissionConfig::default());
    let mut session = RemoteSession::connect(server.addr(), "admin").unwrap();
    session
        .run(r#"append to Log (tag = "scrape", n = 1)"#)
        .unwrap();

    let (head, _) = http_get(
        server.addr(),
        b"GET /metrics.json HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
    );
    assert!(head.starts_with("HTTP/1.1 404"), "{head}");

    let (head, body) = http_get(
        server.addr(),
        b"GET /metrics HTTP/1.1\r\nHost: test\r\nAccept: application/json\r\nConnection: close\r\n\r\n",
    );
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    validate_exposition(&body).expect("a valid Prometheus exposition");
    for counter in ["server_statements_total", "db_statements_total"] {
        let value: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix(counter)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("{counter} missing:\n{body}"));
        assert!(value > 0, "{counter} is {value}");
    }
}

/// Scrapes taken while two sessions run statements — so service
/// threads observe `server_statement_ns` and `db_statement_ns` between
/// a scrape's reads — are each a valid exposition.
#[test]
fn scrapes_under_concurrent_statements_validate() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let server = serve(AdmissionConfig::default());
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (addr, stop) = (server.addr(), &stop);
            s.spawn(move || {
                let mut session = RemoteSession::connect(addr, "admin").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    session.query("retrieve (L.n) from L in Log").unwrap();
                }
            });
        }
        let outcome = (0..1_000).try_for_each(|_| {
            let (_, body) = http_get(
                server.addr(),
                b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n",
            );
            validate_exposition(&body).map(|_| ())
        });
        stop.store(true, Ordering::Relaxed);
        outcome.expect("a scrape taken under load validates");
    });
}

/// One database can be served again after its server is gone: the
/// second `spawn` finds the `server_*` families already in the
/// database's registry and counts on into them.
#[test]
fn a_server_can_be_respawned_on_the_same_database() {
    use std::io::{Read, Write};

    let db = log_db();
    let first = serve_db(Arc::clone(&db), AdmissionConfig::default());
    RemoteSession::connect(first.addr(), "admin")
        .unwrap()
        .run(r#"append to Log (tag = "first", n = 1)"#)
        .unwrap();
    drop(first);

    let second = serve_db(db, AdmissionConfig::default());
    RemoteSession::connect(second.addr(), "admin")
        .unwrap()
        .run(r#"append to Log (tag = "second", n = 2)"#)
        .unwrap();

    let mut http = std::net::TcpStream::connect(second.addr()).unwrap();
    http.write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    http.read_to_string(&mut response).unwrap();
    let (head, body) = response.split_once("\r\n\r\n").expect("HTTP head/body");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    validate_exposition(body).expect("a valid Prometheus exposition");
    assert!(
        body.lines().any(|l| l == "server_statements_total 2"),
        "both servers' statements land in one family:\n{body}"
    );
}

#[test]
fn shutdown_interrupts_a_stalled_mid_frame_read() {
    use exodus_server::protocol::{read_frame, write_frame};
    use exodus_server::{Frame, PREAMBLE, VERSION};
    use std::io::Write;
    use std::sync::atomic::{AtomicBool, Ordering};

    let mut server = serve(AdmissionConfig::default());
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    conn.write_all(&PREAMBLE).unwrap();
    write_frame(
        &mut conn,
        &Frame::Hello {
            version: VERSION,
            user: "admin".into(),
        },
    )
    .unwrap();
    let welcome = read_frame(&mut conn).unwrap().unwrap();
    assert!(matches!(welcome, Frame::Welcome { .. }), "{welcome:?}");
    // A partial frame: a length prefix announcing 64 bytes, then
    // silence. The service thread is now blocked mid-frame; shutdown
    // must still interrupt it (it checks the stop flag on every read
    // timeout tick, not only between frames).
    conn.write_all(&64u32.to_le_bytes()).unwrap();

    let done = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&done);
    let closer = std::thread::spawn(move || {
        server.shutdown();
        flag.store(true, Ordering::Release);
    });
    eventually(
        "shutdown to return despite a stalled mid-frame read",
        || done.load(Ordering::Acquire),
    );
    closer.join().unwrap();
    drop(conn);
}

#[test]
fn a_half_handshake_cannot_pin_a_connection_slot() {
    use std::io::Write;

    let server = serve(AdmissionConfig {
        max_connections: 1,
        ..AdmissionConfig::default()
    });
    let metrics = server.admission().metrics();
    // Preamble only — then silence, never sending Hello. Admission
    // runs only after the opening frame arrives, so the dawdler holds
    // no connection slot at any point...
    let mut idle = std::net::TcpStream::connect(server.addr()).unwrap();
    idle.write_all(b"EXO\x01").unwrap();
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        metrics.active_connections.get(),
        0,
        "a half-handshake must not claim a slot"
    );
    // ...and a real client takes the only slot immediately, without
    // waiting out the dawdler's handshake deadline.
    let mut session = RemoteSession::connect(server.addr(), "admin").unwrap();
    session.run("retrieve (L.n) from L in Log").unwrap();
    drop(idle);
}

#[test]
fn a_transport_failure_poisons_the_remote_session() {
    use exodus_server::protocol::{read_frame, write_frame};
    use exodus_server::{Frame, VERSION};
    use std::io::Read;

    // A fake server that completes the handshake, then answers the
    // first request with a frame that is illegal in a response stream
    // and goes quiet — with the socket still open.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().unwrap();
        let mut preamble = [0u8; 4];
        s.read_exact(&mut preamble).unwrap();
        let hello = read_frame(&mut s).unwrap().unwrap();
        assert!(matches!(hello, Frame::Hello { .. }), "{hello:?}");
        write_frame(
            &mut s,
            &Frame::Welcome {
                version: VERSION,
                session_id: 7,
                banner: "fake".into(),
            },
        )
        .unwrap();
        let _request = read_frame(&mut s).unwrap().unwrap();
        write_frame(&mut s, &Frame::Goodbye).unwrap();
        s
    });

    let mut session = RemoteSession::connect(addr, "admin").unwrap();
    session.send("retrieve (L.n) from L in Log").unwrap();
    session.send("retrieve (L.n) from L in Log").unwrap();
    let results = session.drain().unwrap();
    assert_eq!(results.len(), 2);
    // Slot 1: the protocol violation, as a Net error (3001).
    assert_eq!(results[0].as_ref().unwrap_err().code(), 3001);
    // Slot 2 fails fast on the poisoned session — if it still read
    // the socket this test would hang, since the fake server sends
    // nothing more.
    let second = results[1].as_ref().unwrap_err();
    assert_eq!(second.code(), 3001);
    assert!(second.to_string().contains("poisoned"), "{second}");
    // Every later operation fails fast too: after a mid-group
    // failure the stream position is unknown, so the session must
    // not keep consuming leftover frames as fresh responses.
    let later = session.run("retrieve (L.n) from L in Log").unwrap_err();
    assert!(later.to_string().contains("poisoned"), "{later}");
    drop(session);
    drop(fake.join().unwrap());
}

#[test]
fn shutdown_is_orderly_and_idempotent() {
    let mut server = serve(AdmissionConfig::default());
    let mut session = RemoteSession::connect(server.addr(), "admin").unwrap();
    session
        .run(r#"append to Log (tag = "bye", n = 1)"#)
        .unwrap();
    server.shutdown();
    server.shutdown(); // idempotent
                       // The served port is gone: new connections fail outright.
    assert!(RemoteSession::connect(server.addr(), "admin").is_err());
}
