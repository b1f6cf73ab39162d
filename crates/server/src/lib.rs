//! # exodus-server
//!
//! The network face of the EXTRA/EXCESS database: a framed wire
//! protocol (EXOD/1), a serving loop with admission control, and the
//! [`RemoteSession`] client that implements the same
//! [`Client`](exodus_db::Client) trait as the in-process session — so
//! code written against the trait runs unchanged locally or over a
//! socket.
//!
//! Layers, bottom up:
//!
//! * [`protocol`] — the EXOD/1 frame codec: length-prefixed frames,
//!   values in the storage engine's own encoding, stable error codes.
//! * [`transport`] — [`TcpTransport`], a blocking TCP listener served
//!   with a thread per connection.
//! * [`admission`] — connection limits, a bounded statement queue, and
//!   a latency governor that sheds load (retryable code 2002) instead
//!   of queueing without bound.
//! * [`server`] — the acceptor and per-connection serving loop, plus
//!   HTTP `/metrics` Prometheus exposition on the same port.
//! * [`client`] — [`RemoteSession`], with pipelining.
//! * [`repl`] — wire replication: [`RemoteStream`] (a replica's
//!   poll/batch subscription) and [`WireReplica`] (the pump behind
//!   `exodus-server --replica-of`).
//!
//! See `docs/SERVER.md` for the wire grammar, `docs/REPLICATION.md`
//! for the replication protocol, and `docs/ERRORS.md` for the
//! error-code table.
//!
//! # Quickstart
//!
//! ```
//! use exodus_db::{Client, Database};
//! use exodus_server::{AdmissionConfig, RemoteSession, Server, TcpTransport};
//!
//! let db = Database::in_memory();
//! let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
//! let server = Server::spawn(db, transport, AdmissionConfig::default()).unwrap();
//!
//! let mut session = RemoteSession::connect(server.addr(), "admin").unwrap();
//! session.run(r#"
//!     define type Person (name: varchar, age: int4);
//!     create { own ref Person } People;
//!     append to People (name = "ann", age = 30);
//! "#).unwrap();
//! let result = session.query(
//!     "retrieve (P.name) from P in People").unwrap();
//! assert_eq!(result.rows.len(), 1);
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod admission;
pub mod client;
pub mod protocol;
pub mod repl;
pub mod server;
pub mod transport;

pub use admission::{Admission, AdmissionConfig, ServerMetrics};
pub use client::RemoteSession;
pub use protocol::{Frame, MAX_FRAME, PREAMBLE, VERSION, WIRE_BATCH_ROWS};
pub use repl::{RemoteStream, WireReplica};
pub use server::Server;
pub use transport::TcpTransport;
