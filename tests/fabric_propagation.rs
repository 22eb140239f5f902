//! Fabric propagation is event-driven: an acknowledged ingest is pushed at
//! once, and a published snapshot is offered to replicas at once.
//!
//! Every fabric here runs its push and sync timers at 30 s, so no timer
//! can explain a delivery inside the 2 s budgets below; only the change
//! watch can.  The coordinator refits on every absorbed tuple (`every=1`),
//! so each applied push publishes exactly one snapshot and the
//! coordinator's refit counter counts the pushes it absorbed.
//!
//! Shutdown delivers too: a wire `shutdown` followed by `wait()` (the path
//! `pka-fabric` runs on `SIGTERM`) makes an ingest node's final push
//! through its still-running engine before the node exits.
//!
//! A dead or hung peer costs only its own pump: the last seven tests run
//! the `pka-fabric` default intervals against a port reserved and then
//! released (dead) or a listener that never accepts and stays open
//! (hung), and bound each delivery and each shutdown at 200 ms.

use pka::contingency::{Assignment, Schema};
use pka::core::{Acquisition, AcquisitionConfig};
use pka::maxent::ConvergenceCriteria;
use pka::serve::protocol::object;
use pka::serve::{FabricRole, LineClient, QueryAnswer, ServeConfig, Server, ServerHandle};
use pka::stream::{CountShard, FsyncPolicy, RefreshPolicy, StreamConfig};
use serde::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Push and sync interval: long enough that only a change can deliver.
const TIMER: Duration = Duration::from_secs(30);
/// How long a batch may take from acknowledgement to a replica answer.
const BUDGET: Duration = Duration::from_secs(2);
/// The `pka-fabric` default push and sync interval.
const DEFAULT_INTERVAL: Duration = Duration::from_millis(25);
/// How long a delivery or a shutdown may take beside a dead or hung peer.
const PROMPT: Duration = Duration::from_millis(200);

fn schema() -> Arc<Schema> {
    Schema::uniform(&[3, 2, 2]).unwrap().into_shared()
}

/// Deterministic correlated rows: attr1 follows attr0's parity, attr2
/// cycles slowly.
fn rows(offset: usize, n: usize) -> Vec<Vec<usize>> {
    (offset..offset + n)
        .map(|k| {
            let a = k % 3;
            let b = if k % 7 == 0 { 1 - (a % 2) } else { a % 2 };
            vec![a, b, (k / 5) % 2]
        })
        .collect()
}

/// Tight enough that warm coordinator refits and a cold one-shot fit
/// agree far below the 1e-9 assertions.
fn tight_acquisition() -> AcquisitionConfig {
    AcquisitionConfig::new().with_convergence(
        ConvergenceCriteria::new().with_tolerance(1e-13).with_max_iterations(5000),
    )
}

fn start_coordinator(replica: &str, sync_interval: Duration) -> ServerHandle {
    let stream = StreamConfig::new()
        .with_policy(RefreshPolicy::EveryNTuples(1))
        .with_acquisition(tight_acquisition());
    let config = ServeConfig::new()
        .with_stream(stream)
        .with_role(FabricRole::Coordinator { replicas: vec![replica.to_string()], sync_interval });
    Server::start(schema(), config).unwrap()
}

fn start_node(coordinator: &ServerHandle) -> ServerHandle {
    start_node_pushing_to(&coordinator.addr().to_string(), "node-a")
}

fn start_node_pushing_to(coordinator: &str, name: &str) -> ServerHandle {
    let config = ServeConfig::new().with_node_name(name).with_role(FabricRole::IngestNode {
        coordinator: coordinator.to_string(),
        push_interval: TIMER,
    });
    Server::start(schema(), config).unwrap()
}

fn start_replica(serve: ServeConfig) -> ServerHandle {
    let role = FabricRole::Replica { coordinator: None, pull_interval: Duration::from_millis(50) };
    Server::start(schema(), serve.with_role(role)).unwrap()
}

/// A port nothing listens on right now, for a replica booted later.
fn unused_port() -> u16 {
    std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port()
}

/// The replica's answer to `P(attr0 = v0)` once it covers `observations`
/// tuples; panics if that takes longer than `budget`.
fn answer_covering(reader: &mut LineClient, observations: u64, budget: Duration) -> QueryAnswer {
    let started = Instant::now();
    loop {
        if let Ok(answer) = reader.query(&[("attr0", "v0")], &[]) {
            if answer.observations >= observations {
                assert_eq!(answer.observations, observations, "replica overshot the ingest");
                return answer;
            }
        }
        assert!(
            started.elapsed() < budget,
            "replica did not cover {observations} tuples within {budget:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Merged totals are exact and the replica answers like a one-shot fit.
fn assert_converged(coordinator: &ServerHandle, reader: &mut LineClient, all_rows: &[Vec<usize>]) {
    let total = all_rows.len() as u64;
    let stats = LineClient::connect(coordinator.addr()).unwrap().stats().unwrap();
    assert_eq!(stats.total_ingested, total);
    assert_eq!(stats.remote_tuples, total);
    assert_eq!(stats.sources.len(), 1);
    assert_eq!((stats.sources[0].seq, stats.sources[0].tuples), (total, total));

    let mut shard = CountShard::new(schema());
    shard.record_batch(all_rows).unwrap();
    let one_shot =
        Acquisition::new(tight_acquisition()).run(&shard.into_table()).unwrap().knowledge_base;
    for (attr, card) in [3usize, 2, 2].into_iter().enumerate() {
        for v in 0..card {
            let (name, value) = (format!("attr{attr}"), format!("v{v}"));
            let answer = reader.query(&[(&name, &value)], &[]).unwrap();
            let expected = one_shot.probability(&Assignment::single(attr, v));
            assert!(
                (answer.probability - expected).abs() < 1e-9,
                "P({name}={value}): replica {} vs one-shot {expected}",
                answer.probability
            );
        }
    }
}

#[test]
fn each_batch_reaches_the_replica_without_waiting_for_a_timer() {
    let replica = start_replica(ServeConfig::new());
    let coordinator = start_coordinator(&replica.addr().to_string(), TIMER);
    let node = start_node(&coordinator);
    let mut writer = LineClient::connect(node.addr()).unwrap();
    let mut reader = LineClient::connect(replica.addr()).unwrap();

    let mut all_rows = Vec::new();
    let mut versions = Vec::new();
    for batch in 0..5 {
        let share = rows(batch * 60, 60);
        writer.ingest(&share).unwrap();
        all_rows.extend(share);
        let answer = answer_covering(&mut reader, all_rows.len() as u64, BUDGET);
        versions.push(answer.snapshot_version);
    }
    assert!(versions.windows(2).all(|w| w[0] < w[1]), "versions not monotone: {versions:?}");
    assert_converged(&coordinator, &mut reader, &all_rows);

    node.shutdown().unwrap();
    replica.shutdown().unwrap();
    coordinator.shutdown().unwrap();
}

#[test]
fn a_pipelined_burst_coalesces_into_at_most_one_push_per_batch() {
    let replica = start_replica(ServeConfig::new());
    let coordinator = start_coordinator(&replica.addr().to_string(), TIMER);
    let node = start_node(&coordinator);
    let mut writer = LineClient::connect(node.addr()).unwrap();
    let mut reader = LineClient::connect(replica.addr()).unwrap();
    let mut control = LineClient::connect(coordinator.addr()).unwrap();
    let refits_before = control.stats().unwrap().refits;

    let batches: Vec<Vec<Vec<usize>>> = (0..50).map(|k| rows(k * 8, 8)).collect();
    let requests: Vec<(&str, Value)> = batches
        .iter()
        .map(|batch| {
            let rows = batch
                .iter()
                .map(|row| Value::Array(row.iter().map(|&v| Value::U64(v as u64)).collect()))
                .collect();
            ("ingest", object([("rows", Value::Array(rows))]))
        })
        .collect();
    let responses = writer.pipeline(&requests).unwrap();
    assert!(responses.iter().all(Result::is_ok), "a pipelined ingest failed: {responses:?}");
    let all_rows: Vec<Vec<usize>> = batches.into_iter().flatten().collect();
    answer_covering(&mut reader, all_rows.len() as u64, BUDGET);

    // `every=1`: one refit per applied push.  Cumulative shards and one
    // push in flight mean a burst never costs more pushes than batches.
    let pushes = control.stats().unwrap().refits - refits_before;
    assert!((1..=50).contains(&pushes), "{pushes} pushes absorbed for 50 batches");
    assert_converged(&coordinator, &mut reader, &all_rows);

    node.shutdown().unwrap();
    replica.shutdown().unwrap();
    coordinator.shutdown().unwrap();
}

#[test]
fn a_replica_booted_after_the_first_publish_converges_on_re_offer() {
    let port = unused_port();
    let coordinator = start_coordinator(&format!("127.0.0.1:{port}"), Duration::from_millis(200));
    let mut writer = LineClient::connect(coordinator.addr()).unwrap();
    let summary = writer.ingest(&rows(0, 120)).unwrap();
    assert!(summary.refit_triggered, "every=1 must publish on ingest");
    let version = coordinator.snapshots().version().unwrap();
    // Let the publish-triggered offer fail against the empty port; only
    // the 200 ms re-offer can deliver from here on.
    std::thread::sleep(Duration::from_millis(300));

    let replica = start_replica(ServeConfig::new().with_port(port));
    let started = Instant::now();
    while replica.snapshots().version().unwrap_or(0) < version {
        assert!(started.elapsed() < BUDGET, "late replica never received a re-offer");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut reader = LineClient::connect(replica.addr()).unwrap();
    let expected = writer.query(&[("attr0", "v0")], &[]).unwrap();
    let answer = reader.query(&[("attr0", "v0")], &[]).unwrap();
    assert_eq!((answer.snapshot_version, answer.observations), (version, 120));
    assert!((answer.probability - expected.probability).abs() < 1e-12);

    replica.shutdown().unwrap();
    coordinator.shutdown().unwrap();
}

#[test]
fn a_wire_shutdown_delivers_the_final_push_and_exits_promptly() {
    // The coordinator is not up yet: the push the ingest triggers fails,
    // and the next retry is 30 s away, so only the final flush can
    // deliver these rows.
    let port = unused_port();
    let node = start_node_pushing_to(&format!("127.0.0.1:{port}"), "early-node");
    let acknowledged = rows(0, 3);
    LineClient::connect(node.addr()).unwrap().ingest(&acknowledged).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    let stream = StreamConfig::new().with_policy(RefreshPolicy::Manual);
    let coordinator = Server::start(
        schema(),
        ServeConfig::new()
            .with_port(port)
            .with_stream(stream)
            .with_role(FabricRole::Coordinator { replicas: Vec::new(), sync_interval: TIMER }),
    )
    .unwrap();
    let mut control = LineClient::connect(coordinator.addr()).unwrap();
    assert_eq!(control.stats().unwrap().total_ingested, 0, "no timer may have pushed");

    // The path `pka-fabric` runs on SIGTERM: a wire shutdown, then wait.
    LineClient::connect(node.addr()).unwrap().shutdown().unwrap();
    node.wait().unwrap();
    assert_eq!(
        control.stats().unwrap().total_ingested,
        acknowledged.len() as u64,
        "the final flush must deliver every acknowledged row"
    );

    // A node that already pushed everything: several on-change pushes,
    // then a prompt exit with nothing left to deliver (no peer call at
    // all).
    let config = ServeConfig::new().with_node_name("node-a").with_role(FabricRole::IngestNode {
        coordinator: coordinator.addr().to_string(),
        push_interval: TIMER,
    });
    let node = Server::start(schema(), config).unwrap();
    let mut writer = LineClient::connect(node.addr()).unwrap();
    let mut delivered = acknowledged.len() as u64;
    for batch in 1..=4 {
        let share = rows(batch * 10, 10);
        writer.ingest(&share).unwrap();
        delivered += share.len() as u64;
        let started = Instant::now();
        while control.stats().unwrap().total_ingested < delivered {
            assert!(started.elapsed() < BUDGET, "batch {batch} was not pushed on change");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    // Pushes reach the engine through its queue, not through the node's
    // own listener: the only connections it accepted are this test's.
    let connections = LineClient::connect(node.addr()).unwrap().server_stats().unwrap().connections;
    assert_eq!(connections, 2, "the writer and the stats client, nothing else");

    writer.shutdown().unwrap();
    let started = Instant::now();
    node.wait().unwrap();
    let exit = started.elapsed();
    assert!(exit < Duration::from_millis(200), "a node with nothing to push took {exit:?} to exit");
    assert_eq!(control.stats().unwrap().total_ingested, delivered);
    coordinator.shutdown().unwrap();
}

/// A manually refreshed coordinator offering to `replicas` in list order.
fn start_manual_coordinator(replicas: Vec<String>) -> ServerHandle {
    let stream = StreamConfig::new().with_policy(RefreshPolicy::Manual);
    let role = FabricRole::Coordinator { replicas, sync_interval: DEFAULT_INTERVAL };
    Server::start(schema(), ServeConfig::new().with_stream(stream).with_role(role)).unwrap()
}

/// Three ingest + `refresh` rounds on `coordinator`; `live` must serve each
/// new version within [`PROMPT`] of its `refresh` returning.
fn assert_each_refresh_reaches(coordinator: &ServerHandle, live: &ServerHandle) {
    let mut writer = LineClient::connect(coordinator.addr()).unwrap();
    for round in 0..3 {
        writer.ingest(&rows(round * 40, 40)).unwrap();
        let version = writer.refresh().unwrap().version;
        let started = Instant::now();
        while live.snapshots().version().unwrap_or(0) < version {
            let waited = started.elapsed();
            assert!(waited < PROMPT, "version {version} not on the live replica after {waited:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

#[test]
fn a_dead_replica_does_not_delay_the_live_one() {
    let live = start_replica(ServeConfig::new());
    let dead = format!("127.0.0.1:{}", unused_port());
    let coordinator = start_manual_coordinator(vec![dead, live.addr().to_string()]);
    assert_each_refresh_reaches(&coordinator, &live);
    coordinator.shutdown().unwrap();
    live.shutdown().unwrap();
}

#[test]
fn a_hung_replica_does_not_delay_the_live_one() {
    // Connects complete in the kernel's backlog, but nothing ever reads
    // or answers: a sync to it blocks until its socket deadline.
    let hung = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let live = start_replica(ServeConfig::new());
    let replicas = vec![hung.local_addr().unwrap().to_string(), live.addr().to_string()];
    let coordinator = start_manual_coordinator(replicas);
    assert_each_refresh_reaches(&coordinator, &live);
    // Closing the listener resets its queued connections, which ends the
    // blocked sync before shutdown joins its pump.
    drop(hung);
    coordinator.shutdown().unwrap();
    live.shutdown().unwrap();
}

#[test]
fn a_coordinator_with_a_dead_replica_shuts_down_promptly_after_a_publish() {
    let coordinator = start_manual_coordinator(vec![format!("127.0.0.1:{}", unused_port())]);
    let mut writer = LineClient::connect(coordinator.addr()).unwrap();
    writer.ingest(&rows(0, 40)).unwrap();
    writer.refresh().unwrap();
    // Long enough for the pump to have offered the snapshot and failed.
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    coordinator.shutdown().unwrap();
    let took = started.elapsed();
    assert!(took < PROMPT, "shutdown beside a dead replica took {took:?}");
}

#[test]
fn an_ingest_node_with_a_dead_coordinator_exits_promptly_and_keeps_its_rows() {
    let dead = format!("127.0.0.1:{}", unused_port());
    assert_ingest_node_exits_promptly_and_keeps_its_rows(dead, "dead-coordinator");
}

/// Ingests into a journalled node pushing to `coordinator`, which never
/// takes the rows; the node must shut down within [`PROMPT`], and a restart
/// must recover every acknowledged row from its journal.
fn assert_ingest_node_exits_promptly_and_keeps_its_rows(coordinator: String, tag: &str) {
    let journal = std::env::temp_dir()
        .join(format!("pka-fabric-propagation-{}-{tag}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let config = ServeConfig::new()
        .with_node_name("orphan")
        .with_journal(&journal)
        .with_journal_fsync(FsyncPolicy::PerRecord)
        .with_role(FabricRole::IngestNode { coordinator, push_interval: DEFAULT_INTERVAL });
    let node = Server::start(schema(), config.clone()).unwrap();
    let acknowledged = rows(0, 30);
    LineClient::connect(node.addr()).unwrap().ingest(&acknowledged).unwrap();
    // The push the ingest triggered has failed (dead) or is blocked in
    // its read (hung) by now.
    std::thread::sleep(Duration::from_millis(20));

    // The final flush is one attempt, then exit.
    let started = Instant::now();
    node.shutdown().unwrap();
    let took = started.elapsed();
    assert!(took < PROMPT, "shutdown beside a {tag} took {took:?}");

    // Undelivered, but durable: a restart recovers every acknowledged row.
    let restarted = Server::start(schema(), config).unwrap();
    let stats = LineClient::connect(restarted.addr()).unwrap().stats().unwrap();
    assert_eq!(stats.recovered_tuples, acknowledged.len() as u64);
    restarted.shutdown().unwrap();
    let _ = std::fs::remove_file(&journal);
}

/// A peer that is hung, not dead: the listener stays open but never
/// accepts, so connects complete in the kernel's backlog and every call
/// blocks in its read until the 5 s socket deadline.  Shutdown cuts such a
/// call after a short grace instead of waiting it out.
fn hung_peer() -> (std::net::TcpListener, String) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    (listener, addr)
}

#[test]
fn a_coordinator_beside_a_hung_replica_shuts_down_promptly() {
    let (_hung, addr) = hung_peer();
    let coordinator = start_manual_coordinator(vec![addr]);
    let mut writer = LineClient::connect(coordinator.addr()).unwrap();
    writer.ingest(&rows(0, 40)).unwrap();
    writer.refresh().unwrap();
    // Long enough for the pump's offer to be blocked in its read.
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    coordinator.shutdown().unwrap();
    let took = started.elapsed();
    assert!(took < PROMPT, "shutdown beside a hung replica took {took:?}");
}

#[test]
fn a_replica_beside_a_hung_coordinator_shuts_down_promptly() {
    let (_hung, addr) = hung_peer();
    let role = FabricRole::Replica { coordinator: Some(addr), pull_interval: DEFAULT_INTERVAL };
    let replica = Server::start(schema(), ServeConfig::new().with_role(role)).unwrap();
    // Long enough for the first poll to be blocked in its read.
    std::thread::sleep(Duration::from_millis(20));
    let started = Instant::now();
    replica.shutdown().unwrap();
    let took = started.elapsed();
    assert!(took < PROMPT, "shutdown beside a hung coordinator took {took:?}");
}

#[test]
fn an_ingest_node_beside_a_hung_coordinator_exits_promptly_and_keeps_its_rows() {
    let (_hung, addr) = hung_peer();
    assert_ingest_node_exits_promptly_and_keeps_its_rows(addr, "hung-coordinator");
}
