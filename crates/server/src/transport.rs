//! The listening endpoint: a blocking `std::net` listener with one
//! service thread per admitted connection — the classic
//! process-per-connection Postgres shape, minus the fork.

use std::net::{TcpListener, TcpStream, ToSocketAddrs};

/// A blocking TCP listener.
pub struct TcpTransport {
    listener: TcpListener,
}

impl TcpTransport {
    /// Bind to `addr` (use port 0 for an ephemeral test port).
    pub fn bind(addr: impl ToSocketAddrs) -> std::io::Result<TcpTransport> {
        Ok(TcpTransport {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// Block until the next connection arrives.
    pub(crate) fn accept(&self) -> std::io::Result<TcpStream> {
        let (stream, _) = self.listener.accept()?;
        // Frames are small and latency-sensitive; leaving Nagle on
        // costs a round trip per pipelined request.
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// The bound address, rendered `host:port`.
    pub(crate) fn local_addr(&self) -> std::io::Result<String> {
        self.listener.local_addr().map(|a| a.to_string())
    }

    /// Open a throwaway connection to this endpoint from the local
    /// process (used to wake a blocked `accept` during shutdown).
    pub(crate) fn wake(&self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        TcpStream::connect(addr).map(|_| ())
    }
}
