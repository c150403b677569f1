//! The connection reader bounds each request line: a peer that streams
//! bytes without ever sending `\n` gets a named error and then EOF
//! instead of growing server memory, and other connections on the same
//! server keep being served.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mpvar_serve::protocol::{AnalysisRequest, ContextSpec, Preset};
use mpvar_serve::{Client, ClientMessage, Dispatcher, ProgressRouter, Server, ServerMessage};
use mpvar_study::{ArtifactId, MemoryStore};

fn request(id: &str, artifacts: Vec<ArtifactId>, sizes: Vec<usize>) -> AnalysisRequest {
    AnalysisRequest {
        id: id.to_string(),
        artifacts,
        context: ContextSpec {
            preset: Preset::Quick,
            sizes: Some(sizes),
            trials: Some(120),
            seed: Some(11),
            threads: Some(1),
        },
        progress: true,
    }
}

#[test]
fn newline_free_flood_gets_an_error_then_eof_and_others_are_still_served() {
    let store = Arc::new(MemoryStore::new());
    let dispatcher = Arc::new(Dispatcher::new(store, Arc::new(ProgressRouter::new())));
    let server = Server::start("127.0.0.1:0", dispatcher).expect("bind server");

    // 1 MiB with no newline, written from its own thread: the server
    // stops reading at the limit, so a blocking writer must not hold up
    // the reads below. Write errors once the server closes are expected.
    let flood = TcpStream::connect(server.addr()).expect("connect flood client");
    flood
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut sink = flood.try_clone().expect("clone flood socket");
    let writer = std::thread::spawn(move || {
        let chunk = vec![b'x'; 64 * 1024];
        for _ in 0..16 {
            if sink.write_all(&chunk).is_err() {
                return;
            }
        }
    });

    let mut reader = BufReader::new(flood);
    let mut line = String::new();
    reader.read_line(&mut line).expect("error line arrives");
    let limit = match ServerMessage::parse(line.trim_end()) {
        Ok(ServerMessage::Error { id, message }) => {
            assert!(id.is_empty(), "no request id to answer: {id}");
            let limit: usize = message
                .split(|c: char| !c.is_ascii_digit())
                .find(|s| !s.is_empty())
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("error names the limit: {message}"));
            assert!(message.contains("byte limit"), "{message}");
            limit
        }
        other => panic!("expected an error line, got {other:?} from {line:?}"),
    };
    line.clear();
    let n = reader.read_line(&mut line).expect("clean EOF, not a reset");
    assert_eq!(n, 0, "connection closes after the error, got {line:?}");
    writer.join().expect("flood writer exits");

    // The limit leaves a wide margin over the largest real request:
    // every artifact and a long size list.
    let largest = ClientMessage::Request(request(
        "largest-request-id",
        ArtifactId::ALL.to_vec(),
        (1..=64).map(|k| 16 * k).collect(),
    ))
    .to_line();
    assert!(
        16 * largest.len() < limit && limit < 1 << 20,
        "limit {limit} vs largest request {} bytes",
        largest.len()
    );

    // A second client on the same server still gets a normal answer.
    let mut client = Client::connect(server.addr()).expect("connect client");
    let answer = client
        .request(request("after", vec![ArtifactId::Table1], vec![8]), |_| {})
        .expect("normal request answered");
    assert!(!answer.is_empty());

    client.shutdown().expect("shutdown");
    assert!(server.join(Duration::from_secs(60)), "waves drain");
}
