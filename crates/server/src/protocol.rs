//! The EXOD/1 framed wire protocol.
//!
//! Everything on the wire is a **frame**: a little-endian `u32` payload
//! length, then the payload — one type byte followed by a type-specific
//! body. Bodies reuse the storage crate's [`ByteWriter`]/[`ByteReader`]
//! primitives (varints, length-prefixed strings) and values travel in
//! the same self-describing encoding heap records use
//! (`extra_model::valueio`), so a value round-trips the wire bit-exact.
//!
//! A connection opens with a 4-byte preamble (`EXO\x01`) that lets the
//! server tell database clients from HTTP scrapers on one port, then a
//! [`Frame::Hello`]. After the server's [`Frame::Welcome`], the client
//! sends request frames (`Run`, `Explain`, `Observe`) and may
//! **pipeline** — send many requests before reading any response. The
//! server answers each request with zero or more response frames
//! terminated by [`Frame::Complete`], in request order. Statement
//! errors arrive as [`Frame::Error`] carrying the stable `DbError`
//! code (see `docs/ERRORS.md`); they end the current request's
//! responses but not the connection. Large results stream: one
//! [`Frame::RowsHeader`], then a [`Frame::RowBatch`] per engine batch,
//! then [`Frame::RowsEnd`].
//!
//! The full grammar is specified in `docs/SERVER.md`.

use std::io::{Read, Write};

use exodus_db::{DbError, DbResult, Explanation, Observation, QueryResult, Response};
use exodus_storage::encoding::{ByteReader, ByteWriter};
use extra_model::{valueio, Value};

/// Protocol preamble: distinguishes EXOD/1 connections from HTTP
/// scrapers sharing the listener. The trailing byte is the protocol
/// major version.
pub const PREAMBLE: [u8; 4] = *b"EXO\x01";

/// Protocol version spoken by this build.
pub const VERSION: u16 = 1;

/// Hard cap on a single frame's payload (guards the length prefix
/// against garbage and a hostile peer against unbounded allocation).
pub const MAX_FRAME: u32 = 64 << 20;

/// Rows per [`Frame::RowBatch`] the server emits.
pub const WIRE_BATCH_ROWS: usize = 1024;

const T_HELLO: u8 = 0x01;
const T_RUN: u8 = 0x02;
const T_EXPLAIN: u8 = 0x03;
const T_OBSERVE: u8 = 0x04;
const T_GOODBYE: u8 = 0x0F;
const T_REPL_SUBSCRIBE: u8 = 0x10;
const T_REPL_POLL: u8 = 0x11;
const T_WELCOME: u8 = 0x81;
const T_DONE: u8 = 0x82;
const T_ROWS_HEADER: u8 = 0x83;
const T_ROW_BATCH: u8 = 0x84;
const T_ROWS_END: u8 = 0x85;
const T_EXPLANATION: u8 = 0x86;
const T_OBSERVATION: u8 = 0x87;
const T_ROWS_INLINE: u8 = 0x88;
const T_COMPLETE: u8 = 0x8D;
const T_ERROR: u8 = 0x8E;
const T_REPL_WELCOME: u8 = 0x8F;
const T_REPL_BATCH: u8 = 0x90;

/// One protocol frame, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: open a session as `user`.
    Hello {
        /// Protocol version the client speaks.
        version: u16,
        /// User to open the session as (name-trust, like early
        /// Postgres `trust` auth; see docs/SERVER.md §Handshake).
        user: String,
    },
    /// Client → server: execute statements (the `Client::run` verb).
    Run {
        /// EXCESS source, possibly multiple statements.
        src: String,
    },
    /// Client → server: explain (optionally analyze) a statement.
    Explain {
        /// Execute with profiling (`explain analyze`) instead of
        /// planning only.
        analyze: bool,
        /// EXCESS source.
        src: String,
    },
    /// Client → server: observe a statement's metric activity.
    Observe {
        /// EXCESS source.
        src: String,
    },
    /// Client → server: orderly shutdown of the connection.
    Goodbye,
    /// Replica → primary, instead of [`Frame::Hello`]: this connection
    /// is a replication subscription, not a statement session. The
    /// server answers [`Frame::ReplWelcome`] (or [`Frame::Error`]) and
    /// the connection speaks only poll/batch afterwards.
    ReplSubscribe {
        /// Protocol version the replica speaks.
        version: u16,
    },
    /// Replica → primary: request the next batch after `after_lsn`.
    ReplPoll {
        /// The replica's local log frontier (its replay cursor).
        after_lsn: u64,
        /// Cap on WAL records in the reply.
        max_records: u32,
    },
    /// Primary → replica: the subscription is open.
    ReplWelcome {
        /// Protocol version the primary speaks.
        version: u16,
        /// Server-assigned session id (diagnostics only).
        session_id: u64,
    },
    /// Primary → replica: one replication batch — the
    /// `exodus_db::Batch` encoding (durable frontier, raw WAL frames)
    /// carried opaquely.
    ReplBatch {
        /// `Batch::to_bytes` payload, decoded with `Batch::from_bytes`.
        payload: Vec<u8>,
    },
    /// Server → client: the session is open.
    Welcome {
        /// Protocol version the server speaks.
        version: u16,
        /// Server-assigned session id (diagnostics only).
        session_id: u64,
        /// Human-readable server banner.
        banner: String,
    },
    /// Server → client: a DDL/update acknowledgment.
    Done {
        /// The acknowledgment message.
        message: String,
    },
    /// Server → client: a result set begins; column names follow.
    RowsHeader {
        /// Output column names.
        columns: Vec<String>,
    },
    /// Server → client: one batch of result rows.
    RowBatch {
        /// Row-major values; each row has one value per header column.
        rows: Vec<Vec<Value>>,
    },
    /// Server → client: the result set is complete.
    RowsEnd {
        /// Total rows sent across all batches.
        total_rows: u64,
    },
    /// Server → client: an `explain [analyze]` report.
    Explanation {
        /// The physical plan, rendered.
        plan: String,
        /// The rendered execution profile (`explain analyze` only).
        /// Profiles cross the wire in display form; the structured
        /// `QueryProfile` stays server-side.
        profile: Option<String>,
    },
    /// Server → client: an `observe <stmt>` report with its inner
    /// response nested in the body.
    Observation {
        /// Wall-clock duration of the observed statement.
        elapsed_ns: u64,
        /// Counter deltas, sorted by name, zeros dropped.
        counters: Vec<(String, u64)>,
        /// The observed statement's own response.
        inner: Box<Frame>,
    },
    /// Server → client (nested inside [`Frame::Observation`] only): a
    /// complete result set in one frame — header and rows together, so
    /// an observed retrieve round-trips with its column names.
    RowsInline {
        /// Output column names.
        columns: Vec<String>,
        /// Row-major values.
        rows: Vec<Vec<Value>>,
    },
    /// Server → client: all responses for one request were sent.
    Complete,
    /// Server → client: the request failed. Ends the request's
    /// responses (a `Complete` still follows) but not the connection.
    Error {
        /// Stable error code (`DbError::code`, docs/ERRORS.md).
        code: u16,
        /// Rendered message.
        message: String,
    },
}

fn net_err(m: impl Into<String>) -> DbError {
    DbError::Net(m.into())
}

fn io_err(context: &str, e: std::io::Error) -> DbError {
    DbError::Net(format!("{context}: {e}"))
}

/// Write `frame` to `w` (unbuffered — callers wrap `w` in a
/// `BufWriter` and flush at request/response boundaries).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> DbResult<()> {
    let mut body = ByteWriter::new();
    encode_frame(&mut body, frame);
    let body = body.into_bytes();
    let len = u32::try_from(body.len()).map_err(|_| net_err("frame over 4 GiB"))?;
    if len > MAX_FRAME {
        return Err(net_err(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    w.write_all(&len.to_le_bytes())
        .and_then(|()| w.write_all(&body))
        .map_err(|e| io_err("writing frame", e))
}

/// Read one frame from `r`. An EOF **before the length prefix** yields
/// `Ok(None)` (orderly close); EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> DbResult<Option<Frame>> {
    let mut len = [0u8; 4];
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(io_err("reading frame length", e)),
    }
    let len = u32::from_le_bytes(len);
    if len == 0 || len > MAX_FRAME {
        return Err(net_err(format!("invalid frame length {len}")));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| io_err("reading frame body", e))?;
    decode_frame(&mut ByteReader::new(&body)).map(Some)
}

/// Decode a frame body whose length prefix has already been consumed
/// (the server's interruptible reader peels the prefix itself so it
/// can poll a stop flag between frames).
pub(crate) fn decode_body(body: &[u8]) -> DbResult<Frame> {
    decode_frame(&mut ByteReader::new(body))
}

fn encode_frame(w: &mut ByteWriter, frame: &Frame) {
    match frame {
        Frame::Hello { version, user } => {
            w.put_u8(T_HELLO);
            w.put_u16(*version);
            w.put_str(user);
        }
        Frame::Run { src } => {
            w.put_u8(T_RUN);
            w.put_str(src);
        }
        Frame::Explain { analyze, src } => {
            w.put_u8(T_EXPLAIN);
            w.put_u8(*analyze as u8);
            w.put_str(src);
        }
        Frame::Observe { src } => {
            w.put_u8(T_OBSERVE);
            w.put_str(src);
        }
        Frame::Goodbye => w.put_u8(T_GOODBYE),
        Frame::ReplSubscribe { version } => {
            w.put_u8(T_REPL_SUBSCRIBE);
            w.put_u16(*version);
        }
        Frame::ReplPoll {
            after_lsn,
            max_records,
        } => {
            w.put_u8(T_REPL_POLL);
            w.put_u64(*after_lsn);
            w.put_u32(*max_records);
        }
        Frame::ReplWelcome {
            version,
            session_id,
        } => {
            w.put_u8(T_REPL_WELCOME);
            w.put_u16(*version);
            w.put_u64(*session_id);
        }
        Frame::ReplBatch { payload } => {
            w.put_u8(T_REPL_BATCH);
            w.put_bytes(payload);
        }
        Frame::Welcome {
            version,
            session_id,
            banner,
        } => {
            w.put_u8(T_WELCOME);
            w.put_u16(*version);
            w.put_u64(*session_id);
            w.put_str(banner);
        }
        Frame::Done { message } => {
            w.put_u8(T_DONE);
            w.put_str(message);
        }
        Frame::RowsHeader { columns } => {
            w.put_u8(T_ROWS_HEADER);
            w.put_varint(columns.len() as u64);
            for c in columns {
                w.put_str(c);
            }
        }
        Frame::RowBatch { rows } => {
            w.put_u8(T_ROW_BATCH);
            w.put_varint(rows.len() as u64);
            for row in rows {
                w.put_varint(row.len() as u64);
                for v in row {
                    w.put_bytes(&valueio::to_bytes(v));
                }
            }
        }
        Frame::RowsEnd { total_rows } => {
            w.put_u8(T_ROWS_END);
            w.put_u64(*total_rows);
        }
        Frame::Explanation { plan, profile } => {
            w.put_u8(T_EXPLANATION);
            w.put_str(plan);
            match profile {
                Some(p) => {
                    w.put_u8(1);
                    w.put_str(p);
                }
                None => w.put_u8(0),
            }
        }
        Frame::Observation {
            elapsed_ns,
            counters,
            inner,
        } => {
            w.put_u8(T_OBSERVATION);
            w.put_u64(*elapsed_ns);
            w.put_varint(counters.len() as u64);
            for (name, delta) in counters {
                w.put_str(name);
                w.put_u64(*delta);
            }
            encode_frame(w, inner);
        }
        Frame::RowsInline { columns, rows } => {
            w.put_u8(T_ROWS_INLINE);
            w.put_varint(columns.len() as u64);
            for c in columns {
                w.put_str(c);
            }
            w.put_varint(rows.len() as u64);
            for row in rows {
                w.put_varint(row.len() as u64);
                for v in row {
                    w.put_bytes(&valueio::to_bytes(v));
                }
            }
        }
        Frame::Complete => w.put_u8(T_COMPLETE),
        Frame::Error { code, message } => {
            w.put_u8(T_ERROR);
            w.put_u16(*code);
            w.put_str(message);
        }
    }
}

fn decode_frame(r: &mut ByteReader<'_>) -> DbResult<Frame> {
    let bad = |e: exodus_storage::StorageError| net_err(format!("malformed frame: {e}"));
    let ty = r.get_u8().map_err(bad)?;
    let frame = match ty {
        T_HELLO => Frame::Hello {
            version: r.get_u16().map_err(bad)?,
            user: r.get_str().map_err(bad)?.to_string(),
        },
        T_RUN => Frame::Run {
            src: r.get_str().map_err(bad)?.to_string(),
        },
        T_EXPLAIN => Frame::Explain {
            analyze: r.get_u8().map_err(bad)? != 0,
            src: r.get_str().map_err(bad)?.to_string(),
        },
        T_OBSERVE => Frame::Observe {
            src: r.get_str().map_err(bad)?.to_string(),
        },
        T_GOODBYE => Frame::Goodbye,
        T_REPL_SUBSCRIBE => Frame::ReplSubscribe {
            version: r.get_u16().map_err(bad)?,
        },
        T_REPL_POLL => Frame::ReplPoll {
            after_lsn: r.get_u64().map_err(bad)?,
            max_records: r.get_u32().map_err(bad)?,
        },
        T_REPL_WELCOME => Frame::ReplWelcome {
            version: r.get_u16().map_err(bad)?,
            session_id: r.get_u64().map_err(bad)?,
        },
        T_REPL_BATCH => Frame::ReplBatch {
            payload: r.get_bytes().map_err(bad)?.to_vec(),
        },
        T_WELCOME => Frame::Welcome {
            version: r.get_u16().map_err(bad)?,
            session_id: r.get_u64().map_err(bad)?,
            banner: r.get_str().map_err(bad)?.to_string(),
        },
        T_DONE => Frame::Done {
            message: r.get_str().map_err(bad)?.to_string(),
        },
        T_ROWS_HEADER => {
            let n = r.get_varint().map_err(bad)? as usize;
            let mut columns = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                columns.push(r.get_str().map_err(bad)?.to_string());
            }
            Frame::RowsHeader { columns }
        }
        T_ROW_BATCH => {
            let n = r.get_varint().map_err(bad)? as usize;
            let mut rows = Vec::with_capacity(n.min(WIRE_BATCH_ROWS));
            for _ in 0..n {
                let cols = r.get_varint().map_err(bad)? as usize;
                let mut row = Vec::with_capacity(cols.min(1024));
                for _ in 0..cols {
                    let bytes = r.get_bytes().map_err(bad)?;
                    row.push(
                        valueio::from_bytes(bytes)
                            .map_err(|e| net_err(format!("malformed wire value: {e}")))?,
                    );
                }
                rows.push(row);
            }
            Frame::RowBatch { rows }
        }
        T_ROWS_END => Frame::RowsEnd {
            total_rows: r.get_u64().map_err(bad)?,
        },
        T_EXPLANATION => {
            let plan = r.get_str().map_err(bad)?.to_string();
            let profile = match r.get_u8().map_err(bad)? {
                0 => None,
                _ => Some(r.get_str().map_err(bad)?.to_string()),
            };
            Frame::Explanation { plan, profile }
        }
        T_OBSERVATION => {
            let elapsed_ns = r.get_u64().map_err(bad)?;
            let n = r.get_varint().map_err(bad)? as usize;
            let mut counters = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                let name = r.get_str().map_err(bad)?.to_string();
                counters.push((name, r.get_u64().map_err(bad)?));
            }
            Frame::Observation {
                elapsed_ns,
                counters,
                inner: Box::new(decode_frame(r)?),
            }
        }
        T_ROWS_INLINE => {
            let ncols = r.get_varint().map_err(bad)? as usize;
            let mut columns = Vec::with_capacity(ncols.min(1024));
            for _ in 0..ncols {
                columns.push(r.get_str().map_err(bad)?.to_string());
            }
            let n = r.get_varint().map_err(bad)? as usize;
            let mut rows = Vec::with_capacity(n.min(WIRE_BATCH_ROWS));
            for _ in 0..n {
                let cols = r.get_varint().map_err(bad)? as usize;
                let mut row = Vec::with_capacity(cols.min(1024));
                for _ in 0..cols {
                    let bytes = r.get_bytes().map_err(bad)?;
                    row.push(
                        valueio::from_bytes(bytes)
                            .map_err(|e| net_err(format!("malformed wire value: {e}")))?,
                    );
                }
                rows.push(row);
            }
            Frame::RowsInline { columns, rows }
        }
        T_COMPLETE => Frame::Complete,
        T_ERROR => Frame::Error {
            code: r.get_u16().map_err(bad)?,
            message: r.get_str().map_err(bad)?.to_string(),
        },
        other => return Err(net_err(format!("unknown frame type 0x{other:02x}"))),
    };
    Ok(frame)
}

/// Encode a [`Response`] as the frame(s) it becomes inside an
/// [`Frame::Observation`] body — a single nested frame, rows inlined.
/// (The streaming encoder in `server.rs` handles top-level responses.)
pub fn response_to_frame(resp: &Response) -> Frame {
    match resp {
        Response::Done(m) => Frame::Done { message: m.clone() },
        Response::Rows(r) => Frame::RowsInline {
            columns: r.columns.clone(),
            rows: r.rows.clone(),
        },
        Response::Explained(e) => explanation_to_frame(e),
        Response::Observed(o) => Frame::Observation {
            elapsed_ns: o.elapsed_ns,
            counters: o.counters.clone(),
            inner: Box::new(response_to_frame(&o.response)),
        },
    }
}

/// Render an [`Explanation`] for the wire: the plan string plus the
/// profile in display form when present.
pub fn explanation_to_frame(e: &Explanation) -> Frame {
    Frame::Explanation {
        plan: e.plan.clone(),
        profile: e.profile.as_ref().map(|p| p.to_string()),
    }
}

/// Rebuild a client-side [`Response`] from an observation's nested
/// frame.
pub fn frame_to_response(frame: Frame) -> DbResult<Response> {
    Ok(match frame {
        Frame::Done { message } => Response::Done(message),
        Frame::RowsInline { columns, rows } => Response::Rows(QueryResult {
            columns,
            rows,
            profile: None,
        }),
        Frame::Explanation { plan, profile } => {
            Response::Explained(wire_explanation(plan, profile))
        }
        Frame::Observation {
            elapsed_ns,
            counters,
            inner,
        } => Response::Observed(Observation {
            response: Box::new(frame_to_response(*inner)?),
            elapsed_ns,
            counters,
        }),
        other => {
            return Err(net_err(format!(
                "frame {other:?} cannot appear inside an observation"
            )))
        }
    })
}

/// A client-side [`Explanation`] from wire parts: the structured
/// profile stays server-side, so an analyze report folds its rendered
/// profile into `plan` (which is what `Explanation::Display` shows).
pub fn wire_explanation(plan: String, profile: Option<String>) -> Explanation {
    Explanation {
        plan: profile.unwrap_or(plan),
        profile: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(f: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let got = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(got, f);
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn frames_round_trip() {
        round_trip(Frame::Hello {
            version: VERSION,
            user: "admin".into(),
        });
        round_trip(Frame::Run {
            src: "retrieve (P.name) from P in People".into(),
        });
        round_trip(Frame::Explain {
            analyze: true,
            src: "retrieve (1)".into(),
        });
        round_trip(Frame::Goodbye);
        round_trip(Frame::Welcome {
            version: VERSION,
            session_id: 42,
            banner: "exodus".into(),
        });
        round_trip(Frame::RowsHeader {
            columns: vec!["a".into(), "b".into()],
        });
        round_trip(Frame::RowBatch {
            rows: vec![
                vec![Value::Int(1), Value::Str("x".into())],
                vec![Value::Float(2.5), Value::Null],
            ],
        });
        round_trip(Frame::RowsEnd { total_rows: 2 });
        round_trip(Frame::Explanation {
            plan: "SeqScan P".into(),
            profile: Some("SeqScan P [rows=2]".into()),
        });
        round_trip(Frame::Observation {
            elapsed_ns: 123,
            counters: vec![("db_statements_total".into(), 1)],
            inner: Box::new(Frame::Done {
                message: "ok".into(),
            }),
        });
        round_trip(Frame::Complete);
        round_trip(Frame::Error {
            code: 2002,
            message: "shed".into(),
        });
        round_trip(Frame::ReplSubscribe { version: VERSION });
        round_trip(Frame::ReplPoll {
            after_lsn: 99,
            max_records: 512,
        });
        round_trip(Frame::ReplWelcome {
            version: VERSION,
            session_id: 7,
        });
        round_trip(Frame::ReplBatch {
            payload: vec![0xDE, 0xAD, 0xBE, 0xEF],
        });
    }

    #[test]
    fn hostile_lengths_are_rejected() {
        // A length prefix past MAX_FRAME must not allocate.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.code(), 3001);
        // Zero-length frames are malformed too.
        let err = read_frame(&mut std::io::Cursor::new(vec![0u8; 4])).unwrap_err();
        assert_eq!(err.code(), 3001);
        // Unknown frame type.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0x7F);
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("unknown frame type"));
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Done {
                message: "hello".into(),
            },
        )
        .unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert_eq!(err.code(), 3001);
    }
}
