//! Overload chaos test: an ingest storm hammers the coordinator while
//! ingest nodes push shards through the same bounded engine queue.
//!
//! Asserts the ISSUE's graceful-degradation criteria end to end: the
//! storm is partially shed with structured `server-overloaded` refusals
//! (never dropped silently), shed shard-pushes self-heal through the
//! cumulative re-push protocol, and once the storm passes the
//! coordinator's fit equals a one-shot acquisition over exactly the rows
//! that were accepted — overload degrades throughput, never correctness.

use pka_contingency::{Assignment, ContingencyTable, Schema};
use pka_core::{Acquisition, AcquisitionConfig, KnowledgeBase};
use pka_fabric::{ingest_storm, StormConfig};
use pka_maxent::ConvergenceCriteria;
use pka_serve::{FabricRole, LineClient, ServeConfig, Server, ServerHandle};
use pka_stream::{CountShard, RefreshPolicy, StreamConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Arc<Schema> {
    Schema::uniform(&[3, 2, 2]).unwrap().into_shared()
}

fn rows(offset: usize, n: usize) -> Vec<Vec<usize>> {
    (offset..offset + n)
        .map(|k| {
            let a = k % 3;
            let b = if k % 7 == 0 { 1 - (a % 2) } else { a % 2 };
            let c = (k / 5) % 2;
            vec![a, b, c]
        })
        .collect()
}

fn tight_acquisition() -> AcquisitionConfig {
    AcquisitionConfig::new().with_convergence(
        ConvergenceCriteria::new().with_tolerance(1e-13).with_max_iterations(5000),
    )
}

fn wait_for(timeout: Duration, what: &str, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while !check() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn storm_is_shed_gracefully_and_the_fit_stays_exact() {
    let timeout = Duration::from_secs(60);

    // A coordinator with the smallest possible write queue: one command in
    // flight, everything else shed.  Manual refresh keeps publishes under
    // test control.
    let coordinator = Server::start(
        schema(),
        ServeConfig::new()
            .with_engine_queue_cap(1)
            .with_stream(
                StreamConfig::new()
                    .with_policy(RefreshPolicy::Manual)
                    .with_acquisition(tight_acquisition()),
            )
            .with_role(FabricRole::Coordinator {
                replicas: Vec::new(),
                sync_interval: Duration::from_millis(25),
            }),
    )
    .unwrap();

    // Two pushers whose shard-pushes must squeeze through the same cap-1
    // queue the storm is flooding.
    let nodes: Vec<ServerHandle> = ["storm-a", "storm-b"]
        .iter()
        .map(|name| {
            Server::start(
                schema(),
                ServeConfig::new().with_node_name(*name).with_role(FabricRole::IngestNode {
                    coordinator: coordinator.addr().to_string(),
                    push_interval: Duration::from_millis(2),
                }),
            )
            .unwrap()
        })
        .collect();

    // Seed the pushers, then storm the coordinator while they deliver.
    let mut node_rows: Vec<Vec<usize>> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let share = rows(i * 120, 120);
        LineClient::connect(node.addr()).unwrap().ingest(&share).unwrap();
        node_rows.extend(share);
    }

    // Every storm row is [0, 0, 0] (cardinalities of 1 clamp the
    // generator), so the post-storm table is fully determined by the
    // *count* of accepted requests even though which requests were shed is
    // a race.  Sheds may lose storm rows — never corrupt surviving ones.
    let storm = StormConfig {
        connections: 8,
        requests_per_conn: 64,
        rows_per_request: 4,
        cards: vec![1, 1, 1],
        deadline_ms: None,
        window: 32,
        seed: 0x5eed,
    };
    let report = ingest_storm(coordinator.addr(), &storm).unwrap();

    assert_eq!(report.offered, 8 * 64);
    assert_eq!(
        report.offered,
        report.accepted + report.overloaded + report.deadline_exceeded + report.other_errors,
        "every offered request must be answered, one way or the other: {report:?}"
    );
    assert_eq!(report.unanswered, 0, "no connection may die mid-storm: {report:?}");
    assert_eq!(report.other_errors, 0, "only structured sheds are acceptable: {report:?}");
    assert!(report.accepted > 0, "shedding must not starve the storm entirely: {report:?}");
    assert!(
        report.overloaded > 0,
        "8 pipelined connections against a cap-1 queue must shed: {report:?}"
    );
    // Depth gauge stays pinned by the cap: at most 1 queued write plus the
    // handful of control commands (the stats sampler) in flight.
    assert!(
        report.max_queue_depth <= 4,
        "queue depth {} escaped the cap-1 bound",
        report.max_queue_depth
    );

    // The coordinator booked every shed and stayed inspectable throughout.
    let mut client = LineClient::connect(coordinator.addr()).unwrap();
    let server_stats = client.server_stats().unwrap();
    assert!(
        server_stats.shed_writes >= report.overloaded,
        "server sheds {} cannot undercount the storm's {} refusals",
        server_stats.shed_writes,
        report.overloaded
    );
    assert_eq!(server_stats.engine_queue_cap, 1);

    // Cumulative re-push heals every shed shard-push: the pushers only
    // advance their sequence on success, so the coordinator converges on
    // the full node row count plus the storm's accepted tuples.
    let expected = (node_rows.len() + report.accepted as usize * storm.rows_per_request) as u64;
    wait_for(timeout, "shed shard-pushes to be re-pushed and absorbed", || {
        client.stats().unwrap().total_ingested == expected
    });

    // One-shot acquisition over exactly the accepted rows.
    let mut shard = CountShard::new(schema());
    shard.record_batch(&node_rows).unwrap();
    let zeros = vec![vec![0usize, 0, 0]; report.accepted as usize * storm.rows_per_request];
    shard.record_batch(&zeros).unwrap();
    let table: ContingencyTable = shard.into_table();
    assert_eq!(table.total(), expected);
    let one_shot: KnowledgeBase =
        Acquisition::new(tight_acquisition()).run(&table).unwrap().knowledge_base;

    let refit = client.refresh().unwrap();
    assert_eq!(refit.observations, expected, "refit must cover every accepted tuple");
    let names = [("attr0", 3usize), ("attr1", 2), ("attr2", 2)];
    for (attr, (name, card)) in names.iter().enumerate() {
        for v in 0..*card {
            let value = format!("v{v}");
            let answer = client.query(&[(*name, value.as_str())], &[]).unwrap();
            let expected_p = one_shot.probability(&Assignment::single(attr, v));
            assert!(
                (answer.probability - expected_p).abs() < 1e-9,
                "P({name}={value}): coordinator {} vs one-shot {expected_p}",
                answer.probability,
            );
        }
    }

    // Recovery: the queue drained and ordinary traffic flows again.
    assert!(client.ping().unwrap());
    assert_eq!(client.server_stats().unwrap().engine_queue_depth, 0);

    for node in nodes {
        node.shutdown().unwrap();
    }
    coordinator.shutdown().unwrap();
}
