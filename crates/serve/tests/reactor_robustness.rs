//! Slow-peer and overload robustness of the reactor front end, exercised
//! through the real protocol: trickled requests frame correctly, a client
//! that never reads stalls only itself, half-open connections are reaped
//! by the idle timeout, and connects over the cap get a structured
//! `server-overloaded` refusal.

use pka_contingency::Schema;
use pka_serve::{LineClient, ServeConfig, Server, ServerHandle};
use pka_stream::{RefreshPolicy, StreamConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start_server(config: ServeConfig) -> ServerHandle {
    let schema = Schema::uniform(&[3, 2]).unwrap().into_shared();
    let config = config.with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual));
    Server::start(schema, config).unwrap()
}

/// Polls `predicate` until it holds or the deadline passes.
fn wait_until(what: &str, mut predicate: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !predicate() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn byte_at_a_time_request_frames_and_answers() {
    let server = start_server(ServeConfig::new());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let request = b"{\"id\":7,\"method\":\"ping\"}\n";
    for &byte in request.iter() {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).unwrap();
    assert!(line.contains("\"pong\""), "unexpected response: {line}");
    drop(stream);
    server.shutdown().unwrap();
}

#[test]
fn never_reading_client_stalls_only_itself() {
    // One loop shard, so the hog and its mate share an event loop — the
    // strongest version of the claim.  Idle reaping off so the hog is
    // only ever stalled, never cleaned up behind the test's back.
    let server = start_server(ServeConfig::new().with_loop_shards(1).with_idle_timeout_ms(0));
    let metrics = server.net_metrics();

    // The hog pipelines far more responses than the write high-water mark
    // (256 KiB) will hold and never reads one.
    let mut hog = TcpStream::connect(server.addr()).unwrap();
    let ping = b"{\"id\":1,\"method\":\"ping\"}\n";
    let mut blob = Vec::with_capacity(ping.len() * 20_000);
    for _ in 0..20_000 {
        blob.extend_from_slice(ping);
    }
    hog.write_all(&blob).unwrap();

    // Its shard-mate stays fully interactive throughout.
    let mut mate = LineClient::connect(server.addr()).unwrap();
    wait_until("both connections adopted", || metrics.shard_open().iter().sum::<u64>() == 2);
    for _ in 0..50 {
        assert!(mate.ping().unwrap(), "shard-mate starved by a never-reading client");
    }

    // The hog's socket receive buffer plus the server's write buffer are
    // finite, so the server must have parked it at the high-water mark
    // rather than buffering all 20k responses; the mate's stats request
    // still answers instantly (also via the engine thread).
    let stats = mate.server_stats().unwrap();
    assert_eq!(stats.open_connections, 2);
    assert_eq!(stats.shard_connections, vec![2]);

    // Close the hog before shutdown so the drain has nothing to force.
    drop(hog);
    wait_until("hog reaped after close", || metrics.open() == 1);
    drop(mate);
    server.shutdown().unwrap();
}

#[test]
fn half_open_connection_is_reaped_by_idle_timeout() {
    let server = start_server(ServeConfig::new().with_idle_timeout_ms(200));
    let metrics = server.net_metrics();

    // A peer that connects and then goes silent (e.g. a crashed client
    // behind a NAT that never sends FIN).
    let half_open = TcpStream::connect(server.addr()).unwrap();
    // A live client doing periodic requests must survive the reaping.
    let mut live = LineClient::connect(server.addr()).unwrap();

    wait_until("idle connection reaped", || {
        assert!(live.ping().unwrap(), "active client reaped alongside the idle one");
        metrics.idle_timeouts() >= 1
    });
    let stats = live.server_stats().unwrap();
    assert_eq!(stats.idle_timeouts, 1);
    assert_eq!(stats.dropped_connections, 1, "idle reap must be the only drop");
    assert_eq!(stats.open_connections, 1);

    drop(half_open);
    drop(live);
    server.shutdown().unwrap();
}

#[test]
fn connects_over_the_cap_get_structured_refusals() {
    let server = start_server(ServeConfig::new().with_max_connections(2));
    let metrics = server.net_metrics();

    let mut a = LineClient::connect(server.addr()).unwrap();
    let b = TcpStream::connect(server.addr()).unwrap();
    wait_until("cap filled", || metrics.open() == 2);

    // The third connect is refused with one structured line, then EOF.
    let refused = TcpStream::connect(server.addr()).unwrap();
    let mut response = String::new();
    let mut reader = BufReader::new(&refused);
    reader.read_line(&mut response).unwrap();
    assert!(
        response.contains("\"server-overloaded\""),
        "refusal line was not structured: {response:?}"
    );
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "refused socket produced more than the refusal line");
    assert_eq!(metrics.overload_refusals(), 1);

    // Refusals never count as accepted connections, and capacity frees as
    // soon as a held connection closes.
    let stats = a.server_stats().unwrap();
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.overload_refusals, 1);
    drop(b);
    wait_until("capacity freed", || metrics.open() < 2);
    let mut c = LineClient::connect(server.addr()).unwrap();
    assert!(c.ping().unwrap());

    drop(a);
    drop(c);
    server.shutdown().unwrap();
}
