//! Query-server throughput: N client threads hammering a live `pka-serve`
//! instance — idle, and during continuous ingest with policy-triggered
//! warm refits landing mid-measurement (which readers, being wait-free,
//! must not notice) — plus the in-process cost of the protocol layer on
//! one 64-entry `query-batch` line: envelope parse, entry decode, float
//! writer and response print.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pka_contingency::{Assignment, Schema};
use pka_datagen::sampler::{sample_dataset, seeded_rng};
use pka_serve::{protocol, LineClient, ServeConfig, Server, ServerHandle};
use pka_stream::{RefreshPolicy, StreamConfig};
use serde::Value;
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Queries per pipelined batch: one write + one read pass per batch keeps
/// syscall overhead amortised the way a real high-throughput client would.
const PIPELINE_DEPTH: usize = 256;

fn boot_server(policy: RefreshPolicy) -> ServerHandle {
    let joint = pka_datagen::survey::ground_truth();
    let dataset = sample_dataset(&joint, 20_000, &mut seeded_rng(7));
    let schema = dataset.shared_schema();
    let config = ServeConfig::new().with_stream(StreamConfig::new().with_policy(policy));
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
    // Cycle through a few distinct query shapes so the server does real
    // per-request work (parse, resolve names, evaluate, serialise).
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

/// One `query-batch` request carrying `PIPELINE_DEPTH` mixed queries: the
/// same work as a pipelined batch of single `query` lines, amortising the
/// envelope parse and the response line down to one each.
fn batch_params() -> Value {
    let entries: Vec<Value> = (0..PIPELINE_DEPTH).map(query_params).collect();
    protocol::object([("queries", Value::Array(entries))])
}

/// Runs `batches` single-line `query-batch` requests on each of `threads`
/// client connections; returns total wall time.  Each response is checked
/// to carry exactly `PIPELINE_DEPTH` per-entry answers.
fn drive_clients_batched(addr: SocketAddr, threads: usize, batches: u64) -> Duration {
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).expect("bench connect");
                let params = batch_params();
                for _ in 0..batches {
                    let result = client.call_ref("query-batch", &params).expect("query-batch");
                    let count = result.get("count").and_then(Value::as_u64).expect("count");
                    assert_eq!(count, PIPELINE_DEPTH as u64, "short batch answer");
                }
            })
        })
        .collect();
    for worker in workers {
        worker.join().expect("bench client panicked");
    }
    start.elapsed()
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

/// Queries/s against an idle knowledge base (no concurrent writes).
fn query_throughput(c: &mut Criterion) {
    let server = boot_server(RefreshPolicy::Manual);
    let addr = server.addr();

    let mut group = c.benchmark_group("serve_throughput");
    for threads in [1usize, 2, 4] {
        let batches_per_iter = 2u64;
        group.throughput(Throughput::Elements(
            threads as u64 * batches_per_iter * PIPELINE_DEPTH as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("pipelined_queries", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        total += drive_clients(addr, threads, batches_per_iter);
                    }
                    total
                })
            },
        );
    }

    // The same mixed load as one `query-batch` line per round: parse one
    // envelope and write one response line per PIPELINE_DEPTH queries
    // instead of one each — the amortisation the protocol method exists
    // for.
    for threads in [1usize, 2, 4] {
        let batches_per_iter = 2u64;
        group.throughput(Throughput::Elements(
            threads as u64 * batches_per_iter * PIPELINE_DEPTH as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("batched_queries", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        total += drive_clients_batched(addr, threads, batches_per_iter);
                    }
                    total
                })
            },
        );
    }

    // One request per round trip: the latency-bound lower bound a
    // non-pipelining client sees.  This is the baseline `query-batch`
    // exists to beat — the same mixed query shapes, one line each way per
    // *query* here versus one line each way per *batch* above.
    group.throughput(Throughput::Elements(64));
    group.bench_function("sequential_roundtrips", |b| {
        let mut client = LineClient::connect(addr).expect("bench connect");
        b.iter(|| {
            for k in 0..64 {
                let result = client.call("query", query_params(k)).expect("query");
                assert!(result.get("probability").is_some());
            }
        })
    });
    group.finish();
    server.shutdown().expect("shutdown");
}

/// Queries/s while a writer continuously ingests and policy-triggered warm
/// refits publish new snapshots mid-stream.
fn query_throughput_under_ingest(c: &mut Criterion) {
    let server = boot_server(RefreshPolicy::EveryNTuples(4_000));
    let addr = server.addr();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let joint = pka_datagen::survey::ground_truth();
            let mut rng = seeded_rng(99);
            let mut client = LineClient::connect(addr).expect("writer connect");
            let mut refits = 0u64;
            while !stop.load(Ordering::Acquire) {
                let batch = sample_dataset(&joint, 1_000, &mut rng);
                let rows: Vec<Vec<usize>> =
                    batch.samples().iter().map(|s| s.values().to_vec()).collect();
                let summary = client.ingest(&rows).expect("bench ingest");
                if summary.refit.is_some() {
                    refits += 1;
                }
            }
            refits
        })
    };

    let mut group = c.benchmark_group("serve_throughput_under_ingest");
    let batches_per_iter = 2u64;
    for threads in [2usize, 4] {
        group.throughput(Throughput::Elements(
            threads as u64 * batches_per_iter * PIPELINE_DEPTH as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("pipelined_queries", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        total += drive_clients(addr, threads, batches_per_iter);
                    }
                    total
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("batched_queries", threads),
            &threads,
            |b, &threads| {
                b.iter_custom(|iters| {
                    let mut total = Duration::ZERO;
                    for _ in 0..iters {
                        total += drive_clients_batched(addr, threads, batches_per_iter);
                    }
                    total
                })
            },
        );
    }
    group.finish();

    stop.store(true, Ordering::Release);
    let refits = writer.join().expect("writer panicked");
    eprintln!("  (background ingest triggered {refits} warm refits during measurement)");
    server.shutdown().expect("shutdown");
}

/// Entries of the protocol probe's `query-batch` line, as in the repo
/// benchmark's survey read line.
const PROBE_ENTRIES: usize = 64;

/// A `query-batch` line over the survey's names: eight order-3 entries
/// (one target, two evidence attributes), the rest alternating marginals
/// and order-2 conditionals.
fn survey_batch_line() -> String {
    let schema = pka_datagen::survey::schema();
    let attributes = schema.attributes();
    let pair = |i: usize, j: usize| {
        let a = &attributes[(i + j) % attributes.len()];
        (a.name().to_string(), Value::Str(a.values()[(i * 7 + j) % a.values().len()].clone()))
    };
    let entries = (0..PROBE_ENTRIES)
        .map(|i| {
            let order = if i < 8 { 3 } else { 1 + i % 2 };
            protocol::object([
                ("target", Value::Object(vec![pair(i, 0)])),
                ("evidence", Value::Object((1..order).map(|j| pair(i, j)).collect())),
            ])
        })
        .collect();
    protocol::request_line(
        1,
        "query-batch",
        &protocol::object([("queries", Value::Array(entries))]),
    )
}

/// The answer to that line: one positional five-number row per entry.
fn survey_batch_answer() -> Value {
    let row =
        |i: usize| Value::Array((0..5).map(|k| Value::F64(1.0 / (3 + i * 5 + k) as f64)).collect());
    protocol::object([
        ("count", Value::U64(PROBE_ENTRIES as u64)),
        ("results", Value::Array((0..PROBE_ENTRIES).map(row).collect())),
        ("snapshot_version", Value::U64(7)),
        ("observations", Value::U64(20_000)),
    ])
}

/// The tree-based decoding of a `query-batch` line the read path used to
/// do: parse the whole line into a `Value` tree, then turn each entry's
/// `target` and `evidence` objects into assignments.  The probe's gate.
fn tree_questions(line: &str, schema: &Schema) -> Vec<(Assignment, Assignment)> {
    let tree: Value = serde_json::from_str(line).expect("probe line parses");
    let Some(Value::Array(entries)) = tree.get("params").and_then(|p| p.get("queries")) else {
        panic!("probe line has a `queries` array");
    };
    let assignment = |value: Option<&Value>| {
        let pairs: Vec<(&str, &str)> = match value {
            Some(Value::Object(fields)) => fields
                .iter()
                .map(|(k, v)| match v {
                    Value::Str(name) => (k.as_str(), name.as_str()),
                    other => panic!("probe names are strings, found {}", other.kind()),
                })
                .collect(),
            _ => Vec::new(),
        };
        Assignment::from_names(schema, &pairs).expect("probe names are in the schema")
    };
    entries.iter().map(|e| (assignment(e.get("target")), assignment(e.get("evidence")))).collect()
}

/// The protocol layer of a `query-batch` read, in process: `parse_request`
/// on the request line, the decode of its entries into assignments, the
/// float writer, and `ok_line` on the answer.  Prints the median of each;
/// its gates are that `params` equal an independent parse of the same
/// text and that the decoded assignments equal the tree path's.
fn protocol_probe(_c: &mut Criterion) {
    const ROUNDS: usize = 400;
    let schema = pka_datagen::survey::schema();
    let line = survey_batch_line();
    let reference: Value = serde_json::from_str(&line).expect("probe line parses");
    let request = protocol::parse_request(&line).expect("probe line is a request");
    assert_eq!(
        Some(request.params.to_value()).as_ref(),
        reference.get("params"),
        "parse_request changed `params`"
    );
    let decoded: Vec<(Assignment, Assignment)> = protocol::batch_questions(&schema, request.params)
        .expect("probe line is a batch")
        .into_iter()
        .map(|q| q.map(|q| (q.target, q.evidence)).expect("probe entries decode"))
        .collect();
    assert_eq!(decoded, tree_questions(&line, &schema), "the decode changed an assignment");

    let median = |mut xs: Vec<Duration>| {
        xs.sort_unstable();
        xs[xs.len() / 2].as_secs_f64()
    };
    let mut parse = Vec::with_capacity(ROUNDS);
    let mut decode = Vec::with_capacity(ROUNDS);
    let mut floats = Vec::with_capacity(ROUNDS);
    let mut print = Vec::with_capacity(ROUNDS);
    let mut response_bytes = 0;
    let answer_floats: Vec<f64> = (0..PROBE_ENTRIES * 5).map(|k| 1.0 / (3 + k) as f64).collect();
    let mut text = String::with_capacity(answer_floats.len() * 24);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        let request =
            black_box(protocol::parse_request(black_box(&line))).expect("probe line is a request");
        parse.push(started.elapsed());
        let started = Instant::now();
        black_box(protocol::batch_questions(&schema, black_box(request.params)))
            .expect("probe line is a batch");
        decode.push(started.elapsed());
        text.clear();
        let started = Instant::now();
        for &x in &answer_floats {
            serde_json::write_f64(&mut text, black_box(x));
        }
        floats.push(started.elapsed());
        black_box(&text);
        let answer = survey_batch_answer();
        let started = Instant::now();
        let response = black_box(protocol::ok_line(&Value::U64(1), answer));
        print.push(started.elapsed());
        response_bytes = response.len();
    }
    eprintln!(
        "  protocol: parse_request {:.1} µs per {}-byte {PROBE_ENTRIES}-entry query-batch line, \
         ok_line {:.1} µs per {response_bytes}-byte answer (medians of {ROUNDS})",
        median(parse) * 1e6,
        line.len(),
        median(print) * 1e6,
    );
    eprintln!(
        "  protocol: query-batch decode {:.1} µs per line into {PROBE_ENTRIES} target/evidence \
         assignment pairs (equal to the tree path's), float writer {:.1} ns per float \
         (medians of {ROUNDS})",
        median(decode) * 1e6,
        median(floats) * 1e9 / answer_floats.len() as f64,
    );
}

criterion_group!(benches, query_throughput, query_throughput_under_ingest, protocol_probe);
criterion_main!(benches);
