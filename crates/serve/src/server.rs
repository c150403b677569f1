//! The TCP front end: newline-delimited `mpvar-serve/v1` over a
//! socket, one reader and one writer thread per connection, one
//! forwarder thread per in-flight request.
//!
//! The server itself is transport only — all scheduling lives in
//! [`Dispatcher`]. Any number of connections share one dispatcher, so
//! dedupe and batching work across clients, not just across requests
//! on one socket.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::dispatch::{Dispatcher, JobHandle};
use crate::progress::JobEvent;
use crate::protocol::{ClientMessage, ServerMessage};

/// Longest client line the reader buffers, newline included. The
/// largest real request (every artifact plus a full size list) is well
/// under 1 KiB, so this leaves a wide margin while keeping a peer that
/// never sends `\n` from growing server memory without limit.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// A running serve endpoint. Dropping the handle does **not** stop the
/// server; call [`Server::stop`] (or send a `shutdown` message) and
/// then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
    dispatcher: Arc<Dispatcher>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts accepting connections against `dispatcher`.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        dispatcher: Arc<Dispatcher>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Nonblocking accept + poll so a `shutdown` message (which
        // only sets a flag) actually terminates the loop.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = Arc::clone(&stop);
        let accept_dispatcher = Arc::clone(&dispatcher);
        let accept_thread = std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || loop {
                if accept_stop.load(Ordering::Relaxed) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let dispatcher = Arc::clone(&accept_dispatcher);
                        let stop = Arc::clone(&accept_stop);
                        let _ = std::thread::Builder::new()
                            .name("serve-conn".to_string())
                            .spawn(move || serve_connection(stream, &dispatcher, &stop));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(_) => return,
                }
            })
            .expect("spawn accept thread");
        Ok(Server {
            addr,
            stop,
            accept_thread,
            dispatcher,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The scheduler behind this endpoint.
    pub fn dispatcher(&self) -> &Arc<Dispatcher> {
        &self.dispatcher
    }

    /// Asks the accept loop to exit (idempotent; in-flight
    /// connections finish their current requests).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    /// Waits for the accept loop to exit, then for running waves to
    /// drain (bounded by `timeout`); returns whether the dispatcher
    /// went idle.
    pub fn join(self, timeout: Duration) -> bool {
        let _ = self.accept_thread.join();
        self.dispatcher.wait_idle(timeout)
    }
}

/// One connection: reader loop on the calling thread, writer thread
/// serializing all outbound lines, a forwarder thread per request.
fn serve_connection(stream: TcpStream, dispatcher: &Arc<Dispatcher>, stop: &Arc<AtomicBool>) {
    // Each answer is an `ack` then a `result` write; without this the
    // second waits on the peer's delayed ACK (~40 ms per answer).
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let (out, outbox) = channel::<String>();
    let mut write_half = stream;
    let writer = std::thread::Builder::new()
        .name("serve-write".to_string())
        .spawn(move || {
            // Exits when every sender (reader + forwarders) is gone or
            // the peer stops reading.
            for line in outbox {
                if write_half.write_all(line.as_bytes()).is_err() || write_half.flush().is_err() {
                    return;
                }
            }
        })
        .expect("spawn writer thread");

    let mut reader = BufReader::new(read_half);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let limit = MAX_LINE_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if buf.len() > MAX_LINE_BYTES {
            send(
                &out,
                &ServerMessage::Error {
                    id: String::new(),
                    message: format!(
                        "request line exceeds the {MAX_LINE_BYTES}-byte limit; closing connection"
                    ),
                },
            );
            break;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break;
        };
        let line = line.strip_suffix('\n').unwrap_or(line);
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        match ClientMessage::parse(line) {
            Err(message) => send(
                &out,
                &ServerMessage::Error {
                    id: String::new(),
                    message,
                },
            ),
            Ok(ClientMessage::Stats) => send(
                &out,
                &ServerMessage::Stats {
                    stats: dispatcher.full_stats(),
                },
            ),
            Ok(ClientMessage::Shutdown) => {
                stop.store(true, Ordering::Relaxed);
                break;
            }
            Ok(ClientMessage::Request(request)) => match dispatcher.submit(&request) {
                Err(message) => send(
                    &out,
                    &ServerMessage::Error {
                        id: request.id,
                        message,
                    },
                ),
                Ok(handle) => {
                    send(
                        &out,
                        &ServerMessage::Ack {
                            id: request.id.clone(),
                            fingerprint: format!("{:016x}", handle.fingerprint),
                        },
                    );
                    spawn_forwarder(request.id, handle, out.clone());
                }
            },
        }
    }
    drop(out);
    let _ = writer.join();
    // End the stream after the last answer: unread input (the rest of
    // an oversized line) would otherwise turn the close into a reset
    // that can beat the answer to the peer.
    let _ = reader.get_ref().shutdown(Shutdown::Write);
}

/// Pumps one job's events into the connection's outbox until `Done`.
fn spawn_forwarder(id: String, handle: JobHandle, out: Sender<String>) {
    let _ = std::thread::Builder::new()
        .name("serve-job".to_string())
        .spawn(move || {
            for event in handle.events {
                match event {
                    JobEvent::Progress(p) => send(
                        &out,
                        &ServerMessage::Progress {
                            id: id.clone(),
                            artifact: p.artifact,
                            outcome: p.outcome,
                            dur_ns: p.dur_ns,
                        },
                    ),
                    JobEvent::Done(Ok(artifacts)) => {
                        send(&out, &ServerMessage::Result { id, artifacts });
                        return;
                    }
                    JobEvent::Done(Err(message)) => {
                        send(&out, &ServerMessage::Error { id, message });
                        return;
                    }
                }
            }
        });
}

fn send(out: &Sender<String>, message: &ServerMessage) {
    // A closed outbox means the connection is gone; nothing to do.
    let _ = out.send(message.to_line());
}
