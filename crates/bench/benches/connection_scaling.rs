//! Connection scaling of the reactor front end: active-client query
//! throughput while 0 / 256 / 1024 / 4096 idle connections sit parked on
//! the event loops, plus connect→query→close churn at each fan-in level.
//!
//! The thread-per-connection server this replaces spent one OS thread per
//! parked connection, which put a practical ceiling of ~380 sources on
//! fabric fan-in (BENCH_fabric.json).  The claim measured here is that the
//! reactor holds thousands of idle connections on `loop_shards + 2`
//! threads with active-client throughput independent of the parked count.
//!
//! Set `PKA_NET_BENCH_MAX_IDLE` to clamp the largest parked count on
//! fd-limited machines (each parked connection costs two descriptors in
//! this single-process harness).  Smoke mode (`--test` or
//! `PKA_BENCH_SMOKE=1`) clamps to 256 on its own.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pka_datagen::sampler::{sample_dataset, seeded_rng};
use pka_serve::{protocol, LineClient, ServeConfig, Server, ServerHandle};
use pka_stream::{RefreshPolicy, StreamConfig};
use serde::Value;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Queries per pipelined batch (matches `serve_throughput` so the zero-idle
/// numbers are directly comparable).
const PIPELINE_DEPTH: usize = 256;
/// Active client connections driving load while the rest sit parked.
const ACTIVE_THREADS: usize = 2;
/// Parked-connection counts swept by the fan-in benchmark.
const IDLE_COUNTS: [usize; 4] = [0, 256, 1024, 4096];

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test") || std::env::var_os("PKA_BENCH_SMOKE").is_some()
}

/// Largest parked count this run is allowed to open.
fn max_idle() -> usize {
    match std::env::var("PKA_NET_BENCH_MAX_IDLE") {
        Ok(v) => v.parse().expect("PKA_NET_BENCH_MAX_IDLE must be a count"),
        Err(_) => {
            if smoke_mode() {
                256
            } else {
                usize::MAX
            }
        }
    }
}

fn boot_server() -> ServerHandle {
    let joint = pka_datagen::survey::ground_truth();
    let dataset = sample_dataset(&joint, 20_000, &mut seeded_rng(7));
    let schema = dataset.shared_schema();
    // Idle reaping off so parked connections stay parked for the whole
    // sweep; the cap stays above the largest count plus the active set.
    let config = ServeConfig::new()
        .with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual))
        .with_idle_timeout_ms(0)
        .with_max_connections(8192);
    let server = Server::start(schema, config).expect("server start");
    let mut client = LineClient::connect(server.addr()).expect("loader connect");
    let rows: Vec<Vec<usize>> = dataset.samples().iter().map(|s| s.values().to_vec()).collect();
    for chunk in rows.chunks(5_000) {
        client.ingest(chunk).expect("seed ingest");
    }
    client.refresh().expect("seed refresh");
    server
}

/// One name-based query shape: target pairs and evidence pairs.
type QueryShape =
    (&'static [(&'static str, &'static str)], &'static [(&'static str, &'static str)]);

fn query_params(k: usize) -> Value {
    let shapes: [QueryShape; 3] = [
        (&[("cancer", "yes")], &[("smoking", "smoker")]),
        (&[("condition", "present")], &[]),
        (&[("cancer", "no")], &[("exposure", "exposed"), ("age", "over-60")]),
    ];
    let (target, evidence) = shapes[k % 3];
    let to_obj = |pairs: &[(&str, &str)]| {
        Value::Object(
            pairs.iter().map(|&(a, v)| (a.to_string(), Value::Str(v.to_string()))).collect(),
        )
    };
    protocol::object([("target", to_obj(target)), ("evidence", to_obj(evidence))])
}

/// Runs `batches` pipelined query batches on each of `threads` client
/// connections; returns total wall time.
fn drive_clients(addr: SocketAddr, threads: usize, batches: u64) -> Duration {
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).expect("bench connect");
                let requests: Vec<(&str, Value)> =
                    (0..PIPELINE_DEPTH).map(|k| ("query", query_params(k))).collect();
                for _ in 0..batches {
                    let responses = client.pipeline(&requests).expect("pipeline");
                    for response in responses {
                        response.expect("query failed");
                    }
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("bench client panicked");
    }
    start.elapsed()
}

/// Tops the parked set up to `target` connections and waits until the
/// reactor has adopted every one of them.
fn park_idle(server: &ServerHandle, parked: &mut Vec<TcpStream>, target: usize) {
    let metrics = server.net_metrics();
    let start = Instant::now();
    while parked.len() < target {
        // Loopback connects can transiently fail while the accept queue
        // drains a burst; retry briefly rather than giving up.
        let deadline = Instant::now() + Duration::from_secs(5);
        let stream = loop {
            match TcpStream::connect(server.addr()) {
                Ok(stream) => break stream,
                Err(err) => {
                    assert!(Instant::now() < deadline, "connect kept failing: {err}");
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        parked.push(stream);
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    while (metrics.open() as usize) < target {
        assert!(
            Instant::now() < deadline,
            "reactor adopted only {} of {target} parked connections",
            metrics.open()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    if target > 0 {
        eprintln!(
            "  (parked {target} idle connections in {:?}; shard occupancy {:?})",
            start.elapsed(),
            metrics.shard_open()
        );
    }
}

/// Active pipelined-query throughput and connect churn at each fan-in
/// level: the numbers should be flat across the sweep.
fn idle_fanin(c: &mut Criterion) {
    let server = boot_server();
    let addr = server.addr();
    let clamp = max_idle();
    let mut parked: Vec<TcpStream> = Vec::new();

    let mut group = c.benchmark_group("connection_scaling");
    for &idle in IDLE_COUNTS.iter() {
        if idle > clamp {
            eprintln!("  (skipping idle={idle}: above PKA_NET_BENCH_MAX_IDLE/smoke clamp {clamp})");
            continue;
        }
        park_idle(&server, &mut parked, idle);

        let batches_per_iter = 2u64;
        group.throughput(Throughput::Elements(
            ACTIVE_THREADS as u64 * batches_per_iter * PIPELINE_DEPTH as u64,
        ));
        group.bench_with_input(BenchmarkId::new("pipelined_queries", idle), &idle, |b, _| {
            b.iter_custom(|iters| {
                let mut total = Duration::ZERO;
                for _ in 0..iters {
                    total += drive_clients(addr, ACTIVE_THREADS, batches_per_iter);
                }
                total
            })
        });

        // Accept-path latency under the same fan-in: connect, one query
        // round trip, close — the cost a newly joining fabric source pays.
        group.throughput(Throughput::Elements(32));
        group.bench_with_input(BenchmarkId::new("connect_churn", idle), &idle, |b, _| {
            b.iter(|| {
                for k in 0..32 {
                    let mut client = LineClient::connect(addr).expect("churn connect");
                    let result = client.call("query", query_params(k)).expect("churn query");
                    assert!(result.get("probability").is_some());
                }
            })
        });
    }
    group.finish();

    drop(parked);
    server.shutdown().expect("shutdown");
}

criterion_group!(benches, idle_fanin);
criterion_main!(benches);
