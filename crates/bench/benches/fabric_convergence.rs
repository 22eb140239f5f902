//! Fabric fan-in and propagation: cumulative shard-push throughput into a
//! live coordinator, snapshot propagation latency from a coordinator
//! refresh to the version being visible on a replica, and end-to-end
//! convergence of a full mini-fabric (2 ingest nodes -> coordinator -> 1
//! replica).  Every node runs the `pka-fabric` default intervals (25 ms
//! push and sync): pushes and syncs are sent on change, so the intervals
//! only pace retries.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pka_datagen::sampler::{sample_dataset, seeded_rng};
use pka_serve::{FabricRole, LineClient, ServeConfig, Server, ServerHandle};
use pka_stream::{CountShard, RefreshPolicy, StreamConfig};
use std::time::{Duration, Instant};

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn survey_rows(n: usize, seed: u64) -> Vec<Vec<usize>> {
    let joint = pka_datagen::survey::ground_truth();
    let dataset = sample_dataset(&joint, n as u64, &mut seeded_rng(seed));
    dataset.samples().iter().map(|s| s.values().to_vec()).collect()
}

/// The `pka-fabric` default re-offer and push-retry interval.
const INTERVAL: Duration = Duration::from_millis(25);

/// A push-fed replica.
fn replica() -> ServerHandle {
    let schema = pka_datagen::survey::ground_truth().shared_schema();
    let role = FabricRole::Replica { coordinator: None, pull_interval: Duration::from_millis(50) };
    Server::start(schema, ServeConfig::new().with_role(role)).expect("replica start")
}

/// A manually refreshed coordinator keeping `replicas` in sync.
fn manual_coordinator(replicas: Vec<String>) -> ServerHandle {
    let schema = pka_datagen::survey::ground_truth().shared_schema();
    let config = ServeConfig::new()
        .with_role(FabricRole::Coordinator { replicas, sync_interval: INTERVAL })
        .with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual));
    Server::start(schema, config).expect("coordinator start")
}

/// Pushes/s and tuples/s of the `shard-push` fan-in path: one source
/// shipping its cumulative shard after every local delta of `delta_rows`
/// tuples, exactly as an ingest-node pusher does.
fn shard_push_throughput(c: &mut Criterion) {
    let server = manual_coordinator(Vec::new());
    let addr = server.addr();
    let schema = pka_datagen::survey::ground_truth().shared_schema();

    let mut group = c.benchmark_group("fabric_shard_push");
    for delta_rows in [64usize, 512, 4096] {
        let pushes_per_iter = if smoke_mode() { 2u64 } else { 32 };
        group.throughput(Throughput::Elements(delta_rows as u64 * pushes_per_iter));
        group.bench_with_input(
            BenchmarkId::new("cumulative_delta", delta_rows),
            &delta_rows,
            |b, &delta_rows| {
                let mut client = LineClient::connect(addr).expect("bench connect");
                let rows = survey_rows(delta_rows, 11);
                // Each benchmarked source gets its own name, so cumulative
                // seq restarts at zero and counts never saturate another
                // run's high-water mark.
                let mut run = 0u64;
                b.iter_custom(|iters| {
                    run += 1;
                    let source = format!("bench-node-{delta_rows}-{run}");
                    let mut shard = CountShard::new(schema.clone());
                    let start = Instant::now();
                    for _ in 0..iters {
                        for _ in 0..pushes_per_iter {
                            shard.record_batch(&rows).expect("record delta");
                            let summary = client
                                .shard_push(&source, shard.tuple_count(), &shard)
                                .expect("shard push");
                            assert!(summary.applied, "cumulative push must apply");
                            assert_eq!(summary.delta_tuples, delta_rows as u64);
                        }
                    }
                    start.elapsed()
                });
            },
        );
    }
    group.finish();
    server.shutdown().expect("shutdown");
}

/// Wall time from a coordinator `refresh` returning to the new version
/// being served by a push-fed replica (pump wake-up + snapshot-sync +
/// replica apply).
fn snapshot_propagation(c: &mut Criterion) {
    let replica = replica();
    let coordinator = manual_coordinator(vec![replica.addr().to_string()]);

    let mut writer = LineClient::connect(coordinator.addr()).expect("writer connect");
    let mut reader = LineClient::connect(replica.addr()).expect("reader connect");
    let rows = survey_rows(256, 23);

    c.bench_function("fabric_snapshot_propagation", |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                writer.ingest(&rows).expect("ingest");
                let refit = writer.refresh().expect("refresh");
                let start = Instant::now();
                loop {
                    let seen = reader.snapshot_version().expect("version").unwrap_or(0);
                    if seen >= refit.version {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                total += start.elapsed();
            }
            total
        })
    });

    coordinator.shutdown().expect("coordinator shutdown");
    replica.shutdown().expect("replica shutdown");
}

/// End-to-end convergence of the full fabric: rows land on 2 ingest nodes,
/// their pushers fan the counts into the coordinator, a refresh publishes,
/// and the measurement ends when the replica serves the new version.
/// Throughput is rows/s through the whole fabric.
fn end_to_end_convergence(c: &mut Criterion) {
    let schema = pka_datagen::survey::ground_truth().shared_schema();
    let replica = replica();
    let coordinator = manual_coordinator(vec![replica.addr().to_string()]);
    let nodes: Vec<ServerHandle> = ["bench-a", "bench-b"]
        .iter()
        .map(|name| {
            let role = FabricRole::IngestNode {
                coordinator: coordinator.addr().to_string(),
                push_interval: INTERVAL,
            };
            let config = ServeConfig::new().with_node_name(*name).with_role(role);
            Server::start(schema.clone(), config).expect("ingest node start")
        })
        .collect();

    let mut node_clients: Vec<LineClient> =
        nodes.iter().map(|n| LineClient::connect(n.addr()).expect("node connect")).collect();
    let mut coordinator_client =
        LineClient::connect(coordinator.addr()).expect("coordinator connect");
    let mut reader = LineClient::connect(replica.addr()).expect("reader connect");

    let batch = if smoke_mode() { 128usize } else { 2048 };
    let rows = survey_rows(batch, 41);
    let mut delivered = 0u64;

    let mut group = c.benchmark_group("fabric_end_to_end");
    group.throughput(Throughput::Elements(batch as u64));
    group.bench_function(BenchmarkId::new("rows_to_replica_visibility", batch), |b| {
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                let start = Instant::now();
                let fan_out = node_clients.len();
                for (i, client) in node_clients.iter_mut().enumerate() {
                    let share: Vec<Vec<usize>> =
                        rows.iter().skip(i).step_by(fan_out).cloned().collect();
                    client.ingest(&share).expect("node ingest");
                }
                delivered += batch as u64;
                loop {
                    if coordinator_client.stats().expect("stats").total_ingested >= delivered {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                let refit = coordinator_client.refresh().expect("refresh");
                loop {
                    let seen = reader.snapshot_version().expect("version").unwrap_or(0);
                    if seen >= refit.version {
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                total += start.elapsed();
            }
            total
        })
    });
    group.finish();

    for node in nodes {
        node.shutdown().expect("node shutdown");
    }
    replica.shutdown().expect("replica shutdown");
    coordinator.shutdown().expect("coordinator shutdown");
}

criterion_group!(benches, shard_push_throughput, snapshot_propagation, end_to_end_convergence);
criterion_main!(benches);
