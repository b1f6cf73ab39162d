//! The serving loop: acceptor thread plus one service thread per
//! admitted connection.
//!
//! A single listener port serves two audiences, told apart by the
//! first four bytes of each connection:
//!
//! * `EXO\x01` — an EXOD/1 database client ([`crate::protocol`]);
//! * `GET ` — an HTTP metrics scraper, answered with one
//!   `text/plain; version=0.0.4` Prometheus exposition and closed.
//!
//! Shutdown is cooperative: service threads read with a short timeout
//! and re-check a shared stop flag on every timeout tick — between
//! frames *and* mid-frame, so a peer stalled after a partial frame
//! cannot pin a thread — and [`Server::shutdown`] wakes the blocked
//! acceptor with a throwaway self-connection, then joins every
//! thread — after it returns, nothing in the process still touches
//! the [`Database`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use exodus_db::{Database, DbError, DbResult, ReplStream, Response};

use crate::admission::{Admission, AdmissionConfig};
use crate::protocol::{
    explanation_to_frame, response_to_frame, write_frame, Frame, MAX_FRAME, PREAMBLE, VERSION,
    WIRE_BATCH_ROWS,
};
use crate::transport::TcpTransport;

/// How long a blocked service-thread read waits before re-checking the
/// stop flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// How long a fresh connection may dawdle before its preamble and
/// handshake frames arrive.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// Worker threads allowed beyond `max_connections`. Admission gate 1
/// runs only after the preamble arrives (HTTP scrapers must not be
/// charged against the connection limit), so the acceptor enforces
/// this separate, hard bound on total service threads *before*
/// spawning — without it a connection flood would create one OS
/// thread per connection regardless of the limit. The headroom covers
/// scrapers and clients legitimately mid-handshake.
const PREHANDSHAKE_HEADROOM: usize = 32;

/// A running server. Dropping the handle shuts the server down.
pub struct Server {
    addr: String,
    stop: Arc<AtomicBool>,
    /// `None` once shut down — dropping the last reference closes the
    /// listening socket, so post-shutdown connects are refused by the
    /// kernel instead of queueing in a dead backlog.
    transport: Option<Arc<TcpTransport>>,
    admission: Arc<Admission>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

impl Server {
    /// Start serving `db` over `transport` under `config`. Returns
    /// once the acceptor thread is running.
    pub fn spawn(
        db: Arc<Database>,
        transport: TcpTransport,
        config: AdmissionConfig,
    ) -> DbResult<Server> {
        let addr = transport
            .local_addr()
            .map_err(|e| DbError::Net(format!("resolving listener address: {e}")))?;
        let transport = Arc::new(transport);
        let registry = db
            .metrics_registry()
            .unwrap_or_else(|| Arc::new(exodus_obs::MetricsRegistry::new()));
        let admission = Admission::new(config, registry);
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));

        let acceptor = {
            let transport = Arc::clone(&transport);
            let admission = Arc::clone(&admission);
            let stop = Arc::clone(&stop);
            let workers = Arc::clone(&workers);
            let live_workers = Arc::new(AtomicU64::new(0));
            std::thread::Builder::new()
                .name("exodus-acceptor".into())
                .spawn(move || loop {
                    let conn = match transport.accept() {
                        Ok(c) => c,
                        Err(_) if stop.load(Ordering::Acquire) => return,
                        Err(_) => continue,
                    };
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    // Hard bound on live service threads, enforced
                    // before the spawn (see PREHANDSHAKE_HEADROOM).
                    let thread_bound =
                        (admission.config().max_connections + PREHANDSHAKE_HEADROOM) as u64;
                    if live_workers.load(Ordering::Acquire) >= thread_bound {
                        admission.metrics().connections_total.inc();
                        admission.metrics().shed_connections_total.inc();
                        drop(conn);
                        continue;
                    }
                    let worker_slot = WorkerSlot::claim(&live_workers);
                    let session_id = next_session_id();
                    let db = Arc::clone(&db);
                    let admission = Arc::clone(&admission);
                    let conn_stop = Arc::clone(&stop);
                    let worker = std::thread::Builder::new()
                        .name(format!("exodus-conn-{session_id}"))
                        .spawn(move || {
                            let _worker_slot = worker_slot;
                            serve_connection(conn, db, admission, conn_stop, session_id)
                        });
                    if let Ok(handle) = worker {
                        let mut pool = workers.lock().unwrap();
                        // Opportunistically reap finished threads so a
                        // long-lived server doesn't accumulate handles.
                        let (done, live): (Vec<_>, Vec<_>) =
                            pool.drain(..).partition(|h| h.is_finished());
                        for h in done {
                            let _ = h.join();
                        }
                        *pool = live;
                        pool.push(handle);
                    }
                })
                .map_err(|e| DbError::Net(format!("spawning acceptor: {e}")))?
        };

        Ok(Server {
            addr,
            stop,
            transport: Some(transport),
            admission,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The address clients should connect to (`host:port`).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// The admission state, exposing the server metric families.
    pub fn admission(&self) -> &Arc<Admission> {
        &self.admission
    }

    /// Stop accepting, finish in-flight requests, and join every
    /// thread. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the acceptor; the sacrificial connection sees the
        // stop flag and is dropped immediately.
        if let Some(transport) = &self.transport {
            let _ = transport.wake();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let handles = std::mem::take(&mut *self.workers.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
        // Every thread holding a transport clone has been joined, so
        // this drops the last reference and closes the listener.
        self.transport = None;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn next_session_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// RAII count of live service threads: claimed by the acceptor before
/// it spawns a worker, released when the worker exits (or when a
/// failed spawn drops the unstarted closure).
struct WorkerSlot(Arc<AtomicU64>);

impl WorkerSlot {
    fn claim(count: &Arc<AtomicU64>) -> WorkerSlot {
        count.fetch_add(1, Ordering::AcqRel);
        WorkerSlot(Arc::clone(count))
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Buffers outgoing frames and writes them to the connection in large
/// chunks, flushing at request boundaries.
struct FrameSink<'a> {
    conn: &'a mut TcpStream,
    buf: Vec<u8>,
    frames_out: u64,
}

impl<'a> FrameSink<'a> {
    const FLUSH_AT: usize = 256 << 10;

    fn new(conn: &'a mut TcpStream) -> FrameSink<'a> {
        FrameSink {
            conn,
            buf: Vec::with_capacity(8 << 10),
            frames_out: 0,
        }
    }

    fn send(&mut self, frame: &Frame) -> DbResult<()> {
        write_frame(&mut self.buf, frame)?;
        self.frames_out += 1;
        if self.buf.len() >= Self::FLUSH_AT {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> DbResult<()> {
        if !self.buf.is_empty() {
            self.conn
                .write_all(&self.buf)
                .map_err(|e| DbError::Net(format!("writing response: {e}")))?;
            self.buf.clear();
        }
        Ok(())
    }
}

/// Read exactly `buf.len()` bytes, tolerating read timeouts.
///
/// The stop flag and `deadline` are checked on **every** timeout
/// tick, including mid-frame: a peer that sends half a frame and goes
/// silent must not be able to pin this thread past shutdown (or past
/// the handshake deadline). If nothing has arrived yet and
/// `allow_idle_eof` is set, a clean EOF, a raised stop flag, or an
/// exceeded deadline returns `Ok(false)` (orderly close); the same
/// conditions mid-frame are errors, since the peer is mid-message.
fn read_exact_interruptible(
    conn: &mut TcpStream,
    buf: &mut [u8],
    stop: &AtomicBool,
    allow_idle_eof: bool,
    deadline: Option<Instant>,
) -> DbResult<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match conn.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 && allow_idle_eof {
                    return Ok(false);
                }
                return Err(DbError::Net("connection closed mid-frame".into()));
            }
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Acquire) {
                    if filled == 0 && allow_idle_eof {
                        return Ok(false);
                    }
                    return Err(DbError::Net("server shutting down mid-frame".into()));
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    if filled == 0 && allow_idle_eof {
                        return Ok(false);
                    }
                    return Err(DbError::Net("read deadline exceeded mid-frame".into()));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(DbError::Net(format!("reading frame: {e}"))),
        }
    }
    Ok(true)
}

/// Read one frame, returning `Ok(None)` on orderly close, shutdown, or
/// an exceeded `deadline` between frames. `deadline` bounds the whole
/// frame, prefix and body both — it is how the handshake timeout
/// covers the Hello frame, not just the preamble.
fn read_frame_interruptible(
    conn: &mut TcpStream,
    stop: &AtomicBool,
    deadline: Option<Instant>,
) -> DbResult<Option<Frame>> {
    let mut len = [0u8; 4];
    if !read_exact_interruptible(conn, &mut len, stop, true, deadline)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(DbError::Net(format!("invalid frame length {len}")));
    }
    let mut body = vec![0u8; len as usize];
    read_exact_interruptible(conn, &mut body, stop, false, deadline)?;
    crate::protocol::decode_body(&body).map(Some)
}

fn serve_connection(
    mut conn: TcpStream,
    db: Arc<Database>,
    admission: Arc<Admission>,
    stop: Arc<AtomicBool>,
    session_id: u64,
) {
    let _ = conn.set_read_timeout(Some(POLL_INTERVAL));
    let handshake_deadline = Some(Instant::now() + HANDSHAKE_TIMEOUT);
    let mut preamble = [0u8; 4];
    if !matches!(
        read_exact_interruptible(&mut conn, &mut preamble, &stop, true, handshake_deadline),
        Ok(true)
    ) {
        return;
    }
    if preamble == *b"GET " {
        serve_http_scrape(&mut conn, &admission);
        return;
    }
    if preamble != PREAMBLE {
        // Not a protocol error frame: the peer is not speaking EXOD/1,
        // so frames would be noise to it. Just close.
        return;
    }

    // The handshake deadline covers the opening frame too. Reading it
    // before admission keeps two properties: no connection slot is ever
    // held by a peer still mid-handshake, and replication subscriptions
    // (which announce themselves in this frame) never compete with
    // statement sessions for slots — a primary at its connection limit
    // must still feed its replicas.
    let opening = match read_frame_interruptible(&mut conn, &stop, handshake_deadline) {
        Ok(Some(f)) => f,
        _ => return,
    };
    let (version, user) = match opening {
        Frame::Hello { version, user } => (version, user),
        Frame::ReplSubscribe { version } => {
            if version != VERSION {
                let _ = version_mismatch(&mut conn, version);
                return;
            }
            serve_replication(&mut conn, &db, &stop, session_id);
            return;
        }
        _ => return,
    };
    if version != VERSION {
        let _ = version_mismatch(&mut conn, version);
        return;
    }

    // Gate 1: connection admission. Shed connections learn why.
    let slot = match admission.admit_connection() {
        Ok(slot) => slot,
        Err(e) => {
            let _ = write_frame(
                &mut conn,
                &Frame::Error {
                    code: e.code(),
                    message: e.to_string(),
                },
            );
            return;
        }
    };

    let mut session = db.session_as(&user);
    session.set_lock_timeout(Some(admission.config().lock_timeout));
    // Annotate the session's `sys.sessions` row: the remote peer flips
    // its kind to `wire`, and the state records that this connection
    // passed connection admission.
    let peer = conn
        .peer_addr()
        .map_or_else(|_| "<unknown>".into(), |a| a.to_string());
    session.set_peer(Some(peer));
    session.set_session_state("admitted");
    let _ = conn.set_read_timeout(Some(POLL_INTERVAL));

    let metrics = admission.metrics();
    {
        let mut sink = FrameSink::new(&mut conn);
        let welcome = Frame::Welcome {
            version: VERSION,
            session_id,
            banner: format!("exodus-server EXOD/{VERSION}"),
        };
        if sink.send(&welcome).and_then(|()| sink.flush()).is_err() {
            return;
        }
        metrics.frames_out_total.add(sink.frames_out);
    }

    loop {
        let frame = match read_frame_interruptible(&mut conn, &stop, None) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(_) => break,
        };
        metrics.frames_in_total.inc();
        if matches!(frame, Frame::Goodbye) {
            break;
        }
        let mut sink = FrameSink::new(&mut conn);
        let ok = serve_request(&mut session, &admission, frame, &mut sink);
        let flushed = sink.flush();
        metrics.frames_out_total.add(sink.frames_out);
        if !ok || flushed.is_err() {
            break;
        }
    }
    drop(slot);
}

fn version_mismatch(conn: &mut TcpStream, got: u16) -> DbResult<()> {
    write_frame(
        conn,
        &Frame::Error {
            code: 3001,
            message: format!("server speaks EXOD/{VERSION}, client sent {got}"),
        },
    )
}

/// Serve a replication subscription: answer each [`Frame::ReplPoll`]
/// with one [`Frame::ReplBatch`] from the database's shared replication
/// source ([`Database::replication_source`]). Runs outside statement admission — shipping
/// the log is how replicas *relieve* primary load, so it must not be
/// shed with it — but still honors the server's stop flag.
fn serve_replication(conn: &mut TcpStream, db: &Arc<Database>, stop: &AtomicBool, session_id: u64) {
    let mut source = match db.replication_source() {
        Ok(s) => s,
        Err(e) => {
            let _ = write_frame(
                conn,
                &Frame::Error {
                    code: e.code(),
                    message: e.to_string(),
                },
            );
            return;
        }
    };
    if write_frame(
        conn,
        &Frame::ReplWelcome {
            version: VERSION,
            session_id,
        },
    )
    .is_err()
    {
        return;
    }
    loop {
        let frame = match read_frame_interruptible(conn, stop, None) {
            Ok(Some(f)) => f,
            _ => return,
        };
        let reply = match frame {
            Frame::ReplPoll {
                after_lsn,
                max_records,
            } => match source.poll(after_lsn, max_records as usize) {
                Ok(batch) => Frame::ReplBatch {
                    payload: batch.to_bytes(),
                },
                // A failed poll (e.g. a log read error) is reported and
                // the subscription stays open — the replica retries.
                Err(e) => Frame::Error {
                    code: e.code(),
                    message: e.to_string(),
                },
            },
            Frame::Goodbye => return,
            other => {
                // Protocol violation: answer and hang up.
                let _ = write_frame(
                    conn,
                    &Frame::Error {
                        code: 3001,
                        message: format!(
                            "unexpected frame {other:?} on a replication subscription"
                        ),
                    },
                );
                return;
            }
        };
        if write_frame(conn, &reply).is_err() {
            return;
        }
    }
}

/// Serve one request frame; returns `false` when the connection should
/// close (protocol violation or write failure).
fn serve_request(
    session: &mut exodus_db::Session,
    admission: &Arc<Admission>,
    frame: Frame,
    sink: &mut FrameSink<'_>,
) -> bool {
    // Gates 2 and 3: statement admission.
    let _slot = match admission.admit_statement() {
        Ok(slot) => slot,
        Err(e) => {
            return send_error(sink, &e) && sink.send(&Frame::Complete).is_ok();
        }
    };
    let started = Instant::now();
    let outcome = match frame {
        Frame::Run { src } => match session.run(&src) {
            Ok(responses) => responses.iter().try_for_each(|r| send_response(sink, r)),
            Err(e) => fail(sink, &e),
        },
        Frame::Explain { analyze, src } => {
            let result = if analyze {
                session.explain_analyze(&src)
            } else {
                session.explain(&src)
            };
            match result {
                Ok(e) => sink.send(&explanation_to_frame(&e)),
                Err(e) => fail(sink, &e),
            }
        }
        Frame::Observe { src } => match session.observe(&src) {
            Ok(obs) => sink.send(&response_to_frame(&Response::Observed(obs))),
            Err(e) => fail(sink, &e),
        },
        other => {
            // A server-to-client frame from a client is a protocol
            // violation: answer and hang up.
            let e = DbError::Net(format!("unexpected client frame {other:?}"));
            let _ = send_error(sink, &e);
            let _ = sink.send(&Frame::Complete);
            return false;
        }
    };
    admission
        .metrics()
        .statement_ns
        .observe(started.elapsed().as_nanos() as u64);
    outcome.is_ok() && sink.send(&Frame::Complete).is_ok()
}

/// Stream one [`Response`] as its frame sequence: result sets go out
/// header / batches / end, everything else as a single frame.
fn send_response(sink: &mut FrameSink<'_>, resp: &Response) -> DbResult<()> {
    match resp {
        Response::Rows(result) => {
            sink.send(&Frame::RowsHeader {
                columns: result.columns.clone(),
            })?;
            for batch in result.batches(WIRE_BATCH_ROWS) {
                sink.send(&Frame::RowBatch {
                    rows: batch.into_rows(),
                })?;
            }
            sink.send(&Frame::RowsEnd {
                total_rows: result.rows.len() as u64,
            })
        }
        other => sink.send(&response_to_frame(other)),
    }
}

fn send_error(sink: &mut FrameSink<'_>, e: &DbError) -> bool {
    fail(sink, e).is_ok()
}

fn fail(sink: &mut FrameSink<'_>, e: &DbError) -> DbResult<()> {
    sink.send(&Frame::Error {
        code: e.code(),
        message: e.to_string(),
    })
}

/// Answer an HTTP scraper. The `GET ` preamble has already been
/// consumed; read the rest of the request head, then respond with the
/// Prometheus exposition (for `/metrics`, whatever the request's
/// `Accept` header says) or a 404, and close.
fn serve_http_scrape(conn: &mut TcpStream, admission: &Arc<Admission>) {
    let mut head = Vec::with_capacity(512);
    let mut byte = [0u8; 1];
    while head.len() < 8 << 10 && !head.ends_with(b"\r\n\r\n") {
        match conn.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            _ => break,
        }
    }
    let request_head = String::from_utf8_lossy(&head);
    let path = request_head.split_whitespace().next().unwrap_or("");
    let (status, body) = if path == "/metrics" || path.starts_with("/metrics?") {
        admission.metrics().metrics_scrapes_total.inc();
        (
            "200 OK",
            admission.metrics().registry.snapshot().to_prometheus(),
        )
    } else {
        ("404 Not Found", format!("no route for {path}\n"))
    };
    let response = format!(
        "HTTP/1.1 {status}\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len(),
    );
    let _ = conn.write_all(response.as_bytes());
    let _ = conn.flush();
}
