//! Overload-robustness integration tests: token-bucket admission on a
//! deep pipeline, engine-queue shedding under concurrent writers,
//! deadline budgets, and the reconciliation of every refusal counter.

use pka_contingency::Schema;
use pka_serve::{
    BucketSpec, ErrorCode, LineClient, RateLimitConfig, ServeConfig, ServeError, Server,
};
use pka_stream::{RefreshPolicy, StreamConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    Schema::uniform(&[2, 2]).unwrap().into_shared()
}

/// A depth-256 pipeline against a per-connection bucket of burst 32:
/// exactly the excess is refused with `server-overloaded` +
/// `retry_after_ms`, the connection survives the storm, and the server's
/// `rate_limited` counter reconciles with what the client observed.
#[test]
fn pipelined_burst_sheds_exactly_the_excess_and_keeps_the_connection() {
    let config = ServeConfig::new().with_rate_limit(RateLimitConfig {
        // Refill so slow (one token per ~17 minutes) that the pipeline
        // sees exactly `burst` admissions, deterministically.
        per_conn: Some(BucketSpec { rate_per_sec: 0.001, burst: 32.0 }),
        ..Default::default()
    });
    let server = Server::start(schema(), config).unwrap();

    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    const DEPTH: usize = 256;
    let mut pipeline = String::new();
    for id in 0..DEPTH {
        pipeline.push_str(&format!("{{\"id\":{id},\"method\":\"ping\",\"params\":{{}}}}\n"));
    }
    writer.write_all(pipeline.as_bytes()).unwrap();

    let mut ok = 0u64;
    let mut refused = 0u64;
    let mut line = String::new();
    for _ in 0..DEPTH {
        line.clear();
        assert!(reader.read_line(&mut line).unwrap() > 0, "connection died mid-pipeline");
        if line.contains("\"ok\":true") {
            ok += 1;
        } else {
            assert!(line.contains("server-overloaded"), "unexpected refusal: {line}");
            assert!(line.contains("retry_after_ms"), "refusal without a hint: {line}");
            refused += 1;
        }
    }
    assert_eq!(ok, 32, "exactly the bucket's burst must pass");
    assert_eq!(refused, (DEPTH - 32) as u64);

    // The connection is still usable: another request gets an answer
    // (a refusal is an answer — the bucket is empty, not the socket).
    writer.write_all(b"{\"id\":999,\"method\":\"ping\",\"params\":{}}\n").unwrap();
    line.clear();
    assert!(reader.read_line(&mut line).unwrap() > 0);
    assert!(line.contains("\"id\":999"));

    // A second connection has its own bucket and reconciles the counter.
    let mut other = LineClient::connect(server.addr()).unwrap();
    assert!(other.ping().unwrap());
    let stats = other.server_stats().unwrap();
    assert_eq!(stats.rate_limited, refused + 1);
    server.shutdown().unwrap();
}

/// A write-class bucket refuses `ingest` while `query`/`stats` keep
/// answering: degradation is ordered, reads last.
#[test]
fn write_limit_spares_the_read_path() {
    let config = ServeConfig::new().with_rate_limit(RateLimitConfig {
        write: Some(BucketSpec { rate_per_sec: 0.001, burst: 2.0 }),
        ..Default::default()
    });
    let server = Server::start(schema(), config).unwrap();
    let mut client = LineClient::connect(server.addr()).unwrap();

    client.ingest(&[vec![0, 0], vec![1, 1]]).unwrap();
    client.ingest(&[vec![0, 1]]).unwrap();
    match client.ingest(&[vec![1, 0]]) {
        Err(ServeError::Remote { code, retry_after_ms, .. }) => {
            assert_eq!(code, ErrorCode::Overloaded.as_str());
            assert!(retry_after_ms.is_some(), "shed refusals must carry a hint");
        }
        other => panic!("third ingest should be limited, got {other:?}"),
    }
    // Reads and control flow on while writes are limited.
    client.refresh().unwrap();
    let answer = client.query(&[("attr1", "v0")], &[]).unwrap();
    assert!(answer.probability > 0.0);
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.rate_limited, 1);
    server.shutdown().unwrap();
}

/// Concurrent writers against a write cap of 1 and a refit-per-tuple
/// engine: some requests are shed with `server-overloaded`, every
/// shed/accepted command reconciles against the server's counters, the
/// queue gauge respects its cap, and reads never degrade to errors.
#[test]
fn engine_queue_sheds_under_concurrent_writers_and_counters_reconcile() {
    let config = ServeConfig::new()
        .with_engine_queue_cap(1)
        // A refit on every tuple makes the engine slow enough that the
        // queue (cap 1) is reliably full while writers race.
        .with_stream(StreamConfig::new().with_policy(RefreshPolicy::EveryNTuples(1)));
    let server = Server::start(schema(), config).unwrap();
    let addr = server.addr();

    const WRITERS: usize = 8;
    const PER_WRITER: usize = 40;
    let workers: Vec<_> = (0..WRITERS)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).unwrap();
                let mut accepted = 0u64;
                let mut shed = 0u64;
                for i in 0..PER_WRITER {
                    match client.ingest(&[vec![(w + i) % 2, i % 2]]) {
                        Ok(_) => accepted += 1,
                        Err(ServeError::Remote { code, retry_after_ms, .. })
                            if code == ErrorCode::Overloaded.as_str() =>
                        {
                            assert!(retry_after_ms.is_some());
                            shed += 1;
                        }
                        Err(e) => panic!("unexpected ingest failure: {e}"),
                    }
                }
                (accepted, shed)
            })
        })
        .collect();
    let (mut accepted, mut shed) = (0u64, 0u64);
    for worker in workers {
        let (a, s) = worker.join().unwrap();
        accepted += a;
        shed += s;
    }
    assert_eq!(accepted + shed, (WRITERS * PER_WRITER) as u64);
    assert!(shed > 0, "8 writers racing a cap-1 queue must shed");
    assert!(accepted > 0, "shedding must not starve the queue entirely");

    let mut client = LineClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.total_ingested, accepted, "every accepted row is in the engine");
    let server_stats = client.server_stats().unwrap();
    assert_eq!(server_stats.shed_writes, shed, "client and server disagree on sheds");
    assert_eq!(server_stats.engine_queue_cap, 1);
    assert_eq!(server_stats.engine_queue_depth, 0, "queue must drain once the storm ends");
    // Reads still answer from the last published snapshot.
    let answer = client.query(&[("attr1", "v0")], &[]).unwrap();
    assert!(answer.probability > 0.0);
    server.shutdown().unwrap();
}

/// `deadline_ms: 0` is refused on arrival; a generous budget passes; the
/// `deadline_exceeded` counter books the refusals.
#[test]
fn zero_deadline_refused_on_arrival_and_generous_budget_passes() {
    let server = Server::start(schema(), ServeConfig::new()).unwrap();
    let mut client = LineClient::connect(server.addr()).unwrap();

    let params = pka_serve::protocol::object([(
        "rows",
        serde::Value::Array(vec![serde::Value::Array(vec![
            serde::Value::U64(0),
            serde::Value::U64(0),
        ])]),
    )]);
    match client.call_with_deadline("ingest", &params, 0) {
        Err(ServeError::Remote { code, .. }) => {
            assert_eq!(code, ErrorCode::DeadlineExceeded.as_str());
        }
        other => panic!("zero budget must be refused, got {other:?}"),
    }
    // A generous budget sails through the queue.
    client.call_with_deadline("ingest", &params, 60_000).unwrap();

    let stats = client.server_stats().unwrap();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(client.stats().unwrap().total_ingested, 1);
    server.shutdown().unwrap();
}

/// Admission judges the parsed envelope, not the raw bytes.  On a
/// `--rate-limit-write 1:1` server an escaped spelling of `ingest` is
/// still `ingest` and draws from the write bucket, a `method` key inside
/// `params` does not make a `query` a write, and an escaped
/// `deadline_ms` key is still the request's deadline.
#[test]
fn admission_reads_the_method_and_deadline_the_parser_reads() {
    let config = ServeConfig::new().with_rate_limit(RateLimitConfig {
        write: Some(BucketSpec::parse("1:1").unwrap()),
        ..Default::default()
    });
    let server = Server::start(schema(), config).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut pipeline = |lines: &[String]| -> Vec<String> {
        let mut batch = String::new();
        for line in lines {
            batch.push_str(line);
            batch.push('\n');
        }
        writer.write_all(batch.as_bytes()).unwrap();
        (0..lines.len())
            .map(|_| {
                let mut line = String::new();
                assert!(reader.read_line(&mut line).unwrap() > 0, "connection died");
                line
            })
            .collect()
    };

    // The plain ingest spends the bucket's one token; the escaped ones
    // behind it are refused exactly like a plain excess ingest, except
    // for what the bucket refilled (one token a second) meanwhile.
    let started = std::time::Instant::now();
    let mut lines = vec![r#"{"id":0,"method":"ingest","params":{"rows":[[0,0],[1,1]]}}"#.into()];
    for id in 1..=5 {
        lines.push(format!(r#"{{"id":{id},"method":"\u0069ngest","params":{{"rows":[[0,1]]}}}}"#));
    }
    let responses = pipeline(&lines);
    let elapsed = started.elapsed();
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    let mut admitted = 0;
    for response in &responses[1..] {
        if response.contains("\"ok\":true") {
            admitted += 1;
        } else {
            assert!(response.contains("server-overloaded"), "unexpected refusal: {response}");
            assert!(response.contains("retry_after_ms"), "refusal without a hint: {response}");
        }
    }
    assert!(
        admitted <= elapsed.as_secs(),
        "{admitted} escaped ingests bypassed the write bucket in {elapsed:?}"
    );

    // Reads flow while the write bucket is empty, whatever keys their
    // params carry; an escaped `deadline_ms` of zero is still expired.
    let responses = pipeline(&[
        r#"{"id":10,"method":"refresh","params":{}}"#.into(),
        r#"{"id":11,"method":"query","params":{"method":"ingest","target":{"attr0":"v0"}}}"#.into(),
        r#"{"id":12,"method":"query","deadline\u005fms":0,"params":{"target":{"attr0":"v0"}}}"#
            .into(),
    ]);
    assert!(responses[0].contains("\"ok\":true"), "{}", responses[0]);
    assert!(responses[1].contains("\"ok\":true"), "{}", responses[1]);
    assert!(responses[2].contains("deadline-exceeded"), "{}", responses[2]);
    assert!(responses[2].contains("\"id\":12"), "{}", responses[2]);

    let mut client = LineClient::connect(server.addr()).unwrap();
    let stats = client.server_stats().unwrap();
    assert_eq!(stats.rate_limited, 5 - admitted);
    assert_eq!(stats.deadline_exceeded, 1);
    server.shutdown().unwrap();
}
