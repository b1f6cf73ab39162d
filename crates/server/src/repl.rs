//! Wire replication: the [`RemoteStream`] a replica pulls batches
//! through, and the [`WireReplica`] runner behind `exodus-server
//! --replica-of`.
//!
//! A replication connection opens with the usual preamble but a
//! [`Frame::ReplSubscribe`] instead of `Hello`; after the primary's
//! [`Frame::ReplWelcome`] it is a pure poll/batch channel. The batch
//! payload is the `exodus_db::Batch` encoding, opaque to this layer —
//! the wire stream is nothing but an `exodus_db::ReplStream` whose
//! polls happen to cross a socket, so `Replica::connect` drives it
//! exactly like an in-process stream.

use std::io::{BufReader, BufWriter, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use exodus_db::replication::{Batch, ReplStream, Replica, ReplicaOptions};
use exodus_db::{Database, DbError, DbResult};

use crate::protocol::{read_frame, write_frame, Frame, PREAMBLE, VERSION};

/// A replication subscription to a remote primary, implementing
/// [`ReplStream`] over EXOD/1.
///
/// Transport failures mark the stream broken; the next
/// [`ReplStream::poll`] transparently reconnects and re-subscribes
/// (the protocol is a stateless poll loop — the cursor travels in
/// every request, so a fresh connection resumes exactly).
pub struct RemoteStream {
    addr: String,
    conn: Option<Subscription>,
}

struct Subscription {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl RemoteStream {
    /// Subscribe to the primary at `addr` (host:port), verifying the
    /// handshake before returning.
    pub fn connect(addr: impl Into<String>) -> DbResult<RemoteStream> {
        let addr = addr.into();
        let conn = Subscription::open(&addr)?;
        Ok(RemoteStream {
            addr,
            conn: Some(conn),
        })
    }

    /// The primary's address this stream (re)connects to.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl Subscription {
    fn open(addr: &str) -> DbResult<Subscription> {
        let stream =
            TcpStream::connect(addr).map_err(|e| DbError::Net(format!("connect {addr}: {e}")))?;
        stream
            .set_nodelay(true)
            .map_err(|e| DbError::Net(format!("connect {addr}: {e}")))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| DbError::Net(format!("connect {addr}: {e}")))?,
        );
        let mut writer = BufWriter::new(stream);
        writer
            .write_all(&PREAMBLE)
            .map_err(|e| DbError::Net(format!("subscribe handshake: {e}")))?;
        write_frame(&mut writer, &Frame::ReplSubscribe { version: VERSION })?;
        writer
            .flush()
            .map_err(|e| DbError::Net(format!("subscribe handshake: {e}")))?;
        let mut sub = Subscription { reader, writer };
        match sub.read_required()? {
            Frame::ReplWelcome { .. } => Ok(sub),
            Frame::Error { code, message } => Err(DbError::Remote { code, message }),
            other => Err(DbError::Net(format!(
                "expected ReplWelcome, primary sent {other:?}"
            ))),
        }
    }

    fn read_required(&mut self) -> DbResult<Frame> {
        read_frame(&mut self.reader)?
            .ok_or_else(|| DbError::Net("primary closed the subscription".into()))
    }

    fn poll(&mut self, after_lsn: u64, max_records: usize) -> DbResult<Batch> {
        write_frame(
            &mut self.writer,
            &Frame::ReplPoll {
                after_lsn,
                max_records: u32::try_from(max_records).unwrap_or(u32::MAX),
            },
        )?;
        self.writer
            .flush()
            .map_err(|e| DbError::Net(format!("poll: {e}")))?;
        match self.read_required()? {
            Frame::ReplBatch { payload } => Batch::from_bytes(&payload),
            Frame::Error { code, message } => Err(DbError::Remote { code, message }),
            other => Err(DbError::Net(format!(
                "expected ReplBatch, primary sent {other:?}"
            ))),
        }
    }
}

impl ReplStream for RemoteStream {
    fn poll(&mut self, after_lsn: u64, max_records: usize) -> DbResult<Batch> {
        if self.conn.is_none() {
            self.conn = Some(Subscription::open(&self.addr)?);
        }
        let sub = self.conn.as_mut().expect("just reconnected");
        let result = sub.poll(after_lsn, max_records);
        if let Err(e) = &result {
            // A relayed statement-level error leaves the stream in a
            // known state; anything else means the request/response
            // pairing can't be trusted — drop the connection and let
            // the next poll re-subscribe.
            if !matches!(e, DbError::Remote { .. }) {
                self.conn = None;
            }
        }
        result
    }
}

/// A wire replica: the database behind `exodus-server --replica-of` —
/// bootstrapped over a [`RemoteStream`], then kept caught up by a
/// background pump thread until shutdown.
pub struct WireReplica {
    db: Arc<Database>,
    stop: Arc<AtomicBool>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl WireReplica {
    /// Subscribe to the primary at `primary_addr`, replay to its
    /// current frontier (bootstrap blocks until caught up), and start
    /// the pump thread, which re-polls every `interval` once idle.
    pub fn spawn(
        primary_addr: impl Into<String>,
        path: impl Into<PathBuf>,
        opts: ReplicaOptions,
        interval: Duration,
    ) -> DbResult<WireReplica> {
        let stream = RemoteStream::connect(primary_addr)?;
        let mut replica = Replica::connect(path, Box::new(stream), opts)?;
        replica.pump_until_caught_up()?;
        let db = replica.database();
        let stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("exodus-repl-pump".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        match replica.pump() {
                            // Applied a full batch: poll again at once,
                            // there may be more backlog.
                            Ok(n) if n > 0 => continue,
                            Ok(_) => {}
                            Err(e) => {
                                eprintln!(
                                    "exodus-server: replication pump: {e}; retrying in {}ms",
                                    interval.as_millis()
                                );
                            }
                        }
                        std::thread::park_timeout(interval);
                    }
                })
                .map_err(|e| DbError::Net(format!("spawning pump thread: {e}")))?
        };
        Ok(WireReplica {
            db,
            stop,
            pump: Some(pump),
        })
    }

    /// The replica database — serve it, read from it. Sessions on it
    /// refuse writes with the stable ReadOnly code (1007).
    pub fn database(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// Stop the pump thread and join it. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(pump) = self.pump.take() {
            pump.thread().unpark();
            let _ = pump.join();
        }
    }
}

impl Drop for WireReplica {
    fn drop(&mut self) {
        self.shutdown();
    }
}
