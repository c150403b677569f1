//! A small blocking client for the `mpvar-serve/v1` protocol.
//!
//! One [`Client`] wraps one connection. The low-level [`Client::send`]
//! / [`Client::recv`] pair exposes the raw message stream (needed when
//! juggling several outstanding requests on one socket); the
//! [`Client::request`] convenience drives a single request to its
//! result.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{AnalysisRequest, ClientMessage, RenderedArtifact, ServerMessage};
use crate::telemetry::ServeStats;

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (including the server closing the
    /// connection mid-request).
    Io(std::io::Error),
    /// The server sent something that is not a valid
    /// `mpvar-serve/v1` server message.
    Protocol(String),
    /// The server answered a request with an `error` message.
    Server {
        /// Request id the error answers ("" for line-level errors).
        id: String,
        /// Server-side failure description.
        message: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "serve transport error: {e}"),
            ClientError::Protocol(m) => write!(f, "serve protocol error: {m}"),
            ClientError::Server { id, message } => {
                write!(f, "server error for request `{id}`: {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One blocking connection to an `mpvar-serve` endpoint.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a serve endpoint.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        // Requests are small single writes; do not hold them for ACKs.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Sends one client message.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn send(&mut self, message: &ClientMessage) -> std::io::Result<()> {
        self.writer.write_all(message.to_line().as_bytes())?;
        self.writer.flush()
    }

    /// Receives the next server message (blocking).
    ///
    /// # Errors
    ///
    /// Transport failures ([`std::io::ErrorKind::UnexpectedEof`] when
    /// the server closed the connection) or unparseable lines.
    pub fn recv(&mut self) -> Result<ServerMessage, ClientError> {
        loop {
            let mut line = String::new();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(ClientError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            if line.trim().is_empty() {
                continue;
            }
            return ServerMessage::parse(&line).map_err(ClientError::Protocol);
        }
    }

    /// Submits `request` and blocks until its result, feeding every
    /// intermediate message answering this request (ack, progress) to
    /// `on_event`.
    ///
    /// Messages answering *other* outstanding request ids are passed
    /// to `on_event` too, so a caller interleaving requests can still
    /// observe them — but normally one `request` call runs alone on
    /// the connection.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or the server's `error` answer.
    pub fn request(
        &mut self,
        request: AnalysisRequest,
        mut on_event: impl FnMut(&ServerMessage),
    ) -> Result<Vec<RenderedArtifact>, ClientError> {
        let id = request.id.clone();
        self.send(&ClientMessage::Request(request))?;
        loop {
            let message = self.recv()?;
            match message {
                ServerMessage::Result {
                    id: answer_id,
                    artifacts,
                } if answer_id == id => return Ok(artifacts),
                ServerMessage::Error {
                    id: answer_id,
                    message,
                } if answer_id == id || answer_id.is_empty() => {
                    return Err(ClientError::Server {
                        id: answer_id,
                        message,
                    })
                }
                other => on_event(&other),
            }
        }
    }

    /// Fetches the server's live dispatch counters (the `counters`
    /// slice of [`Client::stats_full`]).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn stats(&mut self) -> Result<BTreeMap<String, u64>, ClientError> {
        self.stats_full().map(|stats| stats.counters)
    }

    /// Fetches the server's full telemetry: counters, gauges,
    /// per-outcome latency quantiles, and recent snapshot windows.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures.
    pub fn stats_full(&mut self) -> Result<ServeStats, ClientError> {
        self.send(&ClientMessage::Stats)?;
        loop {
            // Skip stray progress lines from requests still in flight
            // elsewhere on this connection.
            if let ServerMessage::Stats { stats } = self.recv()? {
                return Ok(stats);
            }
        }
    }

    /// Asks the server to shut down and consumes the connection.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(mut self) -> std::io::Result<()> {
        self.send(&ClientMessage::Shutdown)
    }
}
