//! The `serve_mix` workload: an in-process server over a fresh
//! `DiskStore`, driven by closed-loop clients in three phases.
//!
//! * **cold** — one request per key, each key a context no other key
//!   shares, so every request computes its artifact;
//! * **warm** — after every cold answer is in, seeded repeats of those
//!   keys, answered from the store's memory layer;
//! * **disk** — the server is shut down, the store reopened under a new
//!   server, and every key requested once more, answered by reading and
//!   decoding the persisted entries.
//!
//! Warm and disk answers must be byte-identical to the cold answer of
//! their key.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpvar_serve::{
    AnalysisRequest, Client, ClientError, ContextSpec, Dispatcher, Preset, ProgressRouter,
    RenderedArtifact, Server,
};
use mpvar_study::{ArtifactId, DiskStore};
use mpvar_trace::{SpanGuard, SpanId};

use crate::stats::{median, percentile, tail_percentile};
use crate::store::timed_if;
use crate::workload::{fnv1a, Outcome};

/// Span around one client request, with field `phase`.
pub const SPAN_REQUEST: &str = "bench.request";

/// Distinct keys, each requested once cold and once from disk.
pub const KEYS: usize = 100;
/// Seeded repeats of the keys in the warm phase.
pub const WARM_REQUESTS: usize = 500;

/// The artifacts the keys cycle through: every cheap node family, so
/// cold requests exercise SPICE corners, Monte-Carlo and the write
/// path while staying short.
const ARTIFACTS: [ArtifactId; 7] = [
    ArtifactId::Fig4,
    ArtifactId::Table3,
    ArtifactId::Table4,
    ArtifactId::Fig5,
    ArtifactId::WriteTime,
    ArtifactId::ExtensionLe2,
    ArtifactId::AblationBlWidth,
];

/// One cache identity: a quick-preset context with its own seed, and
/// the artifact asked of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Key {
    /// Monte-Carlo seed of the key's context.
    pub seed: u64,
    /// The artifact requested.
    pub artifact: ArtifactId,
}

impl Key {
    /// The request for this key, with one thread per request.
    pub fn request(&self, id: String) -> AnalysisRequest {
        AnalysisRequest {
            id,
            artifacts: vec![self.artifact],
            context: ContextSpec {
                preset: Preset::Quick,
                sizes: Some(vec![8, 16]),
                trials: None,
                seed: Some(self.seed),
                threads: Some(1),
            },
            progress: false,
        }
    }
}

/// The request schedule a seed generates: the keys, and the key index
/// of every request in each phase, in submission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The distinct keys.
    pub keys: Vec<Key>,
    /// Cold phase: every key once.
    pub cold: Vec<usize>,
    /// Warm phase: seeded repeats.
    pub warm: Vec<usize>,
    /// Disk phase: every key once.
    pub disk: Vec<usize>,
}

/// The splitmix64 generator: one step of the stream seeded with `state`.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform index below `n` (`n` is far below 2^32, so the modulo
/// bias is negligible).
fn below(state: &mut u64, n: usize) -> usize {
    (splitmix64(state) % n as u64) as usize
}

fn shuffled(state: &mut u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, below(state, i + 1));
    }
    order
}

/// The schedule of `seed`. Key `k` asks for `ARTIFACTS[k % 7]`, so
/// every seed requests the same mix of artifacts; the seed draws the
/// keys' context seeds and the order of every phase from one
/// splitmix64 stream.
pub fn schedule(seed: u64) -> Schedule {
    let mut state = seed;
    let keys = (0..KEYS)
        .map(|k| Key {
            seed: splitmix64(&mut state),
            artifact: ARTIFACTS[k % ARTIFACTS.len()],
        })
        .collect();
    let cold = shuffled(&mut state, KEYS);
    let warm = (0..WARM_REQUESTS)
        .map(|_| below(&mut state, KEYS))
        .collect();
    let disk = shuffled(&mut state, KEYS);
    Schedule {
        keys,
        cold,
        warm,
        disk,
    }
}

/// One answered (or failed) request.
struct Reply {
    latency_s: f64,
    answer: Result<Vec<RenderedArtifact>, String>,
}

/// A server over the store at `root`, timed when the run is traced.
fn start_server(root: &Path, traced: bool) -> Result<Server, String> {
    let disk = DiskStore::open(root).map_err(|e| format!("open store: {e}"))?;
    let store = timed_if(traced, Arc::new(disk));
    let dispatcher = Arc::new(Dispatcher::new(store, Arc::new(ProgressRouter::new())));
    Server::start("127.0.0.1:0", dispatcher).map_err(|e| format!("start server: {e}"))
}

fn connect_all(addr: SocketAddr, clients: usize) -> Result<Vec<Client>, String> {
    (0..clients)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect to {addr}: {e}")))
        .collect()
}

fn stop(server: Server, clients: Vec<Client>) -> Result<(), String> {
    server.stop();
    drop(clients);
    if server.join(Duration::from_secs(60)) {
        Ok(())
    } else {
        Err("server did not go idle within 60 s".to_string())
    }
}

/// Sends `requests` through `clients`, each client sending its next
/// request as soon as its previous one is answered. Replies come back
/// in request order.
fn run_phase(
    addr: SocketAddr,
    clients: &mut [Client],
    requests: &[AnalysisRequest],
    phase: &'static str,
    parent: Option<SpanId>,
) -> Vec<Reply> {
    let next = AtomicUsize::new(0);
    let replies: Mutex<Vec<Option<Reply>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    let (next, replies_ref) = (&next, &replies);
    std::thread::scope(|scope| {
        for client in clients.iter_mut() {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = requests.get(i) else {
                    return;
                };
                let _span = if mpvar_trace::enabled() {
                    SpanGuard::enter_with_parent(
                        parent,
                        SPAN_REQUEST,
                        vec![("phase", phase.into())],
                    )
                } else {
                    SpanGuard::disabled()
                };
                let start = Instant::now();
                let answer = client.request(request.clone(), |_| {});
                let latency_s = start.elapsed().as_secs_f64();
                if let Err(ClientError::Io(_)) = answer {
                    // The connection is gone; later requests need a new one.
                    if let Ok(fresh) = Client::connect(addr) {
                        *client = fresh;
                    }
                }
                replies_ref.lock().expect("reply table poisoned")[i] = Some(Reply {
                    latency_s,
                    answer: answer.map_err(|e| e.to_string()),
                });
            });
        }
    });
    replies
        .into_inner()
        .expect("reply table poisoned")
        .into_iter()
        .map(|reply| {
            reply.unwrap_or(Reply {
                latency_s: f64::NAN,
                answer: Err("never sent".to_string()),
            })
        })
        .collect()
}

/// Median and tail latency of a phase, in milliseconds.
fn latencies_ms(replies: &[Reply]) -> (f64, f64) {
    let ms: Vec<f64> = replies
        .iter()
        .filter(|r| r.answer.is_ok())
        .map(|r| r.latency_s * 1e3)
        .collect();
    let tail = tail_percentile(replies.len())
        .and_then(|pct| percentile(&ms, pct))
        .unwrap_or(f64::NAN);
    (median(&ms).unwrap_or(f64::NAN), tail)
}

/// Runs `schedule` with `clients` connections against a store under
/// `root`, created fresh and removed afterwards: cold and warm against
/// one server, then disk against a new server on the reopened store. A
/// traced run wraps the store in a [`crate::store::TimedStore`].
/// Returns the schedule's wall time and its outcome.
///
/// # Errors
///
/// When the store cannot be opened, a server cannot start or stop, or
/// a client cannot connect.
pub fn run(
    schedule: &Schedule,
    root: &Path,
    clients: usize,
    traced: bool,
    parent: Option<SpanId>,
) -> Result<(f64, Outcome), String> {
    let _ = std::fs::remove_dir_all(root);
    let result = run_phases(schedule, root, clients, traced, parent);
    let _ = std::fs::remove_dir_all(root);
    result
}

fn run_phases(
    schedule: &Schedule,
    root: &Path,
    clients: usize,
    traced: bool,
    parent: Option<SpanId>,
) -> Result<(f64, Outcome), String> {
    let phase = |clients: &mut [Client], addr, name, order: &[usize]| {
        let requests: Vec<AnalysisRequest> = order
            .iter()
            .enumerate()
            .map(|(i, &k)| schedule.keys[k].request(format!("{name}-{i}")))
            .collect();
        let phase_start = Instant::now();
        let replies = run_phase(addr, clients, &requests, name, parent);
        (replies, phase_start.elapsed().as_secs_f64())
    };
    let start = Instant::now();
    let server = start_server(root, traced)?;
    let mut conns = connect_all(server.addr(), clients)?;
    let (cold, cold_s) = phase(&mut conns, server.addr(), "cold", &schedule.cold);
    let (warm, warm_s) = phase(&mut conns, server.addr(), "warm", &schedule.warm);
    let server_warm_p50_ms = conns[0]
        .stats_full()
        .ok()
        .and_then(|stats| stats.latencies.get("warm_hit").map(|l| l.p50_ns / 1e6));
    stop(server, conns)?;
    let server = start_server(root, traced)?;
    let mut conns = connect_all(server.addr(), clients)?;
    let (disk, disk_s) = phase(&mut conns, server.addr(), "disk", &schedule.disk);
    let wall_s = start.elapsed().as_secs_f64();
    stop(server, conns)?;

    let mut outcome = check(schedule, &cold, &warm, &disk);
    let total = (cold.len() + warm.len() + disk.len()) as f64;
    let (cold_p50, cold_tail) = latencies_ms(&cold);
    let (warm_p50, warm_tail) = latencies_ms(&warm);
    let (disk_p50, disk_tail) = latencies_ms(&disk);
    outcome.metrics.extend([
        ("cold_p50_ms", cold_p50),
        ("cold_p90_ms", cold_tail),
        ("warm_p50_ms", warm_p50),
        ("warm_p98_ms", warm_tail),
        ("disk_p50_ms", disk_p50),
        ("disk_p90_ms", disk_tail),
        ("req_per_s", total / (cold_s + warm_s + disk_s)),
    ]);
    outcome
        .metrics
        .extend(server_warm_p50_ms.map(|p50| ("serve.server_warm_p50_ms", p50)));
    Ok((wall_s, outcome))
}

/// Counts failed requests, and warm or disk answers that differ from
/// the cold answer of their key.
fn check(schedule: &Schedule, cold: &[Reply], warm: &[Reply], disk: &[Reply]) -> Outcome {
    let mut outcome = Outcome {
        attempted: (cold.len() + warm.len() + disk.len()) as u64,
        ..Outcome::default()
    };
    let mut by_key: Vec<Option<&Vec<RenderedArtifact>>> = vec![None; schedule.keys.len()];
    for (reply, &k) in cold.iter().zip(&schedule.cold) {
        match &reply.answer {
            Ok(answer) if answer.len() == 1 && answer[0].id == schedule.keys[k].artifact.name() => {
                by_key[k] = Some(answer)
            }
            Ok(_) => outcome.mismatches.push(format!(
                "cold-{k}: answer is not one `{}`",
                schedule.keys[k].artifact.name()
            )),
            Err(e) => {
                outcome.failed += 1;
                outcome
                    .mismatches
                    .push(format!("cold request for key {k} failed: {e}"));
            }
        }
    }
    for (phase, replies, order) in [
        ("warm", warm, &schedule.warm),
        ("disk", disk, &schedule.disk),
    ] {
        for (reply, &k) in replies.iter().zip(order) {
            match (&reply.answer, by_key[k]) {
                (Err(e), _) => {
                    outcome.failed += 1;
                    outcome
                        .mismatches
                        .push(format!("{phase} request for key {k} failed: {e}"));
                }
                (Ok(answer), Some(cold)) if answer == cold => {}
                (Ok(_), _) => outcome.mismatches.push(format!(
                    "{phase} answer for key {k} differs from its cold answer"
                )),
            }
        }
    }
    let mut digest_input = String::new();
    for answer in by_key.iter().flatten() {
        digest_input.push_str(&answer[0].csv);
        digest_input.push_str(&answer[0].text);
    }
    outcome.digest = fnv1a(digest_input.as_bytes());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        assert_eq!(schedule(2015), schedule(2015));
        assert_ne!(schedule(2015), schedule(2016));
        let s = schedule(7);
        assert_eq!(s.keys.len(), KEYS);
        assert_eq!(s.warm.len(), WARM_REQUESTS);
        for order in [&s.cold, &s.disk] {
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..KEYS).collect::<Vec<_>>(), "every key once");
        }
        assert!(s.warm.iter().all(|&k| k < KEYS));
    }

    #[test]
    fn cold_keys_have_distinct_context_fingerprints() {
        for seed in [2015, 1, 99] {
            let s = schedule(seed);
            let fingerprints: HashSet<u64> = s
                .keys
                .iter()
                .map(|key| {
                    let ctx = key
                        .request(String::new())
                        .context
                        .build()
                        .expect("quick context builds");
                    mpvar_study::context_fingerprint(&ctx)
                })
                .collect();
            assert_eq!(fingerprints.len(), KEYS, "seed {seed}");
        }
    }
}
