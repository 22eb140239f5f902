//! Fault-injection e2e suite: the fabric's durability story under crash,
//! partition, and byte-level mangling.
//!
//! Three scenarios, each asserting the same invariant the fault-free e2e
//! test does — the fabric converges to the *exact* model a one-shot
//! acquisition over the union of all rows produces (≤ 1e-9), with
//! monotone replica versions — except here the path there runs through a
//! [`ChaosProxy`] and simulated `kill -9`:
//!
//! * An ingest node crashes mid-batch with acknowledged tuples the
//!   coordinator never saw; its restart must recover them **from the
//!   journal** (the partition guarantees no other copy exists).
//! * The coordinator is killed mid-fabric; its replacement must restore
//!   the shard-placement map **from a checkpoint** cut before the kill,
//!   and the replicas must step forward (never backward) onto the
//!   replacement's snapshots.
//! * The ingest→coordinator link flaps through partitions, duplicated
//!   deliveries and corrupted bytes; sequence gating and retries must
//!   absorb all of it without double counting a single tuple.
//!
//! "kill -9" is simulated by copying the durable file *mid-run* and
//! restarting from the copy: both journal appends and checkpoint saves
//! are atomic (length-prefix + CRC, temp-file + rename), so any mid-run
//! copy is exactly the disk image an abrupt death would leave behind,
//! while the original process's graceful teardown writes only to the
//! original paths we then ignore.

use pka_contingency::{Assignment, ContingencyTable, Schema};
use pka_core::{Acquisition, AcquisitionConfig, KnowledgeBase};
use pka_fabric::ChaosProxy;
use pka_maxent::ConvergenceCriteria;
use pka_serve::{EngineStats, FabricRole, LineClient, ServeConfig, Server, ServerHandle};
use pka_stream::{CountShard, FsyncPolicy, RefreshPolicy, StreamConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Arc<Schema> {
    Schema::uniform(&[3, 2, 2]).unwrap().into_shared()
}

/// Deterministic correlated rows (same generator as the fault-free e2e
/// test, so the model has real structure to lose).
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

fn temp_path(tag: &str) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("pka-chaos-{tag}-{}-{n}", std::process::id()))
}

fn wait_for(timeout: Duration, what: &str, mut check: impl FnMut() -> bool) {
    let start = Instant::now();
    while !check() {
        assert!(start.elapsed() < timeout, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One-shot acquisition over `all_rows`, the convergence oracle.
fn one_shot(all_rows: &[Vec<usize>]) -> KnowledgeBase {
    let mut shard = CountShard::new(schema());
    shard.record_batch(all_rows).unwrap();
    let table: ContingencyTable = shard.into_table();
    assert_eq!(table.total(), all_rows.len() as u64);
    Acquisition::new(tight_acquisition()).run(&table).unwrap().knowledge_base
}

/// Asserts a live node's marginals match the oracle to 1e-9.
fn assert_converged(addr: std::net::SocketAddr, oracle: &KnowledgeBase) {
    let mut client = LineClient::connect(addr).unwrap();
    for (attr, card) in [(0usize, 3usize), (1, 2), (2, 2)] {
        for v in 0..card {
            let value = format!("v{v}");
            let name = format!("attr{attr}");
            let answer = client.query(&[(name.as_str(), value.as_str())], &[]).unwrap();
            let expected = oracle.probability(&Assignment::single(attr, v));
            assert!(
                (answer.probability - expected).abs() < 1e-9,
                "P({name}={value}): fabric {} vs one-shot {expected}",
                answer.probability,
            );
        }
    }
}

fn stats_of(addr: std::net::SocketAddr) -> EngineStats {
    LineClient::connect(addr).unwrap().stats().unwrap()
}

#[test]
fn ingest_node_crash_recovers_acknowledged_tuples_from_its_journal() {
    let timeout = Duration::from_secs(60);
    let journal = temp_path("ingest-journal");
    let crash_image = temp_path("ingest-crash-image");

    let coordinator = Server::start(
        schema(),
        ServeConfig::new()
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
    // The node reaches the coordinator only through the proxy, so a
    // partition really does isolate it.
    let proxy = ChaosProxy::start(coordinator.addr().to_string()).unwrap();

    let node_config = |journal: &PathBuf| {
        ServeConfig::new()
            .with_node_name("node-a")
            .with_journal(journal)
            .with_journal_fsync(FsyncPolicy::PerRecord)
            .with_role(FabricRole::IngestNode {
                coordinator: proxy.addr().to_string(),
                push_interval: Duration::from_millis(10),
            })
    };
    let node = Server::start(schema(), node_config(&journal)).unwrap();

    // Batch 1 flows normally: ingested, journalled, pushed.
    let batch1 = rows(0, 120);
    LineClient::connect(node.addr()).unwrap().ingest(&batch1).unwrap();
    let mut coordinator_client = LineClient::connect(coordinator.addr()).unwrap();
    wait_for(timeout, "batch 1 to reach the coordinator", || {
        coordinator_client.stats().unwrap().total_ingested >= batch1.len() as u64
    });

    // Partition, then ingest batch 2: the node acknowledges it (and the
    // per-record fsync has it on disk) but the coordinator never sees it.
    proxy.plan().partition(true);
    proxy.sever_all();
    let batch2 = rows(batch1.len(), 90);
    LineClient::connect(node.addr()).unwrap().ingest(&batch2).unwrap();
    assert_eq!(
        stats_of(node.addr()).journal_records as usize,
        2,
        "both acknowledged batches must be journalled"
    );

    // `kill -9`: snapshot the journal as it is right now, then let the
    // process die.  The node's graceful teardown keeps appending to the
    // *original* journal path; the crash image is what an abrupt death
    // would have left, and it is all the restart gets.
    std::fs::copy(&journal, &crash_image).unwrap();
    drop(node);
    let still_missing = coordinator_client.stats().unwrap().total_ingested;
    assert_eq!(
        still_missing,
        batch1.len() as u64,
        "partition must have kept batch 2 off the coordinator"
    );

    // Restart from the crash image and heal the network.
    proxy.plan().partition(false);
    let revived = Server::start(schema(), node_config(&crash_image)).unwrap();
    let revived_stats = stats_of(revived.addr());
    assert_eq!(
        revived_stats.recovered_tuples,
        (batch1.len() + batch2.len()) as u64,
        "journal recovery must restore every acknowledged tuple"
    );
    assert_eq!(revived_stats.recovered_sources, 1);

    // The revived pusher ships the recovered cumulative shard; sequence
    // gating dedupes the already-delivered prefix, so the coordinator
    // ends at exactly the union.
    let expected = (batch1.len() + batch2.len()) as u64;
    wait_for(timeout, "recovered tuples to reach the coordinator", || {
        coordinator_client.stats().unwrap().total_ingested >= expected
    });
    assert_eq!(coordinator_client.stats().unwrap().total_ingested, expected, "no double counts");

    coordinator_client.refresh().unwrap();
    let mut all_rows = batch1;
    all_rows.extend(batch2);
    assert_converged(coordinator.addr(), &one_shot(&all_rows));

    revived.shutdown().unwrap();
    coordinator.shutdown().unwrap();
    for path in [journal, crash_image] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn coordinator_kill_restores_the_placement_map_from_a_checkpoint() {
    let timeout = Duration::from_secs(60);
    let checkpoint = temp_path("coord-checkpoint");
    let crash_image = temp_path("coord-crash-image");

    let push_fed =
        FabricRole::Replica { coordinator: None, pull_interval: Duration::from_millis(50) };
    let replicas: Vec<ServerHandle> = (0..2)
        .map(|_| {
            let config = ServeConfig::new().with_role(push_fed.clone());
            Server::start(schema(), config).unwrap()
        })
        .collect();
    let coordinator_config = |checkpoint: &PathBuf| {
        ServeConfig::new()
            .with_stream(
                StreamConfig::new()
                    .with_policy(RefreshPolicy::Manual)
                    .with_acquisition(tight_acquisition()),
            )
            .with_checkpoint(checkpoint)
            .with_checkpoint_interval(Duration::from_millis(25))
            .with_role(FabricRole::Coordinator {
                replicas: replicas.iter().map(|replica| replica.addr().to_string()).collect(),
                sync_interval: Duration::from_millis(10),
            })
    };
    let coordinator = Server::start(schema(), coordinator_config(&checkpoint)).unwrap();
    // Ingest nodes dial the proxy, so the coordinator can "move" without
    // them noticing — the proxy plays the stable address a load balancer
    // or virtual IP would provide.
    let proxy = ChaosProxy::start(coordinator.addr().to_string()).unwrap();
    let nodes: Vec<ServerHandle> = ["node-a", "node-b"]
        .iter()
        .map(|name| {
            Server::start(
                schema(),
                ServeConfig::new().with_node_name(*name).with_role(FabricRole::IngestNode {
                    coordinator: proxy.addr().to_string(),
                    push_interval: Duration::from_millis(10),
                }),
            )
            .unwrap()
        })
        .collect();

    // Round 1: both nodes ingest, the coordinator publishes version 1 and
    // the replicas converge onto it.
    let batch = 80usize;
    let mut all_rows: Vec<Vec<usize>> = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        let share = rows(i * batch, batch);
        LineClient::connect(node.addr()).unwrap().ingest(&share).unwrap();
        all_rows.extend(share);
    }
    let round1_total = all_rows.len() as u64;
    let mut coordinator_client = LineClient::connect(coordinator.addr()).unwrap();
    wait_for(timeout, "round 1 to reach the coordinator", || {
        coordinator_client.stats().unwrap().total_ingested >= round1_total
    });
    let refit = coordinator_client.refresh().unwrap();
    assert_eq!(refit.version, 1);
    for replica in &replicas {
        let mut client = LineClient::connect(replica.addr()).unwrap();
        wait_for(timeout, "replica to reach version 1", || {
            client.snapshot_version().unwrap().unwrap_or(0) >= 1
        });
    }
    // Cut the crash image once a checkpoint has captured all of round 1
    // *and* the publish; checkpoint saves are atomic (temp + rename), so
    // every copy is a complete, loadable recovery point.  Before the first
    // save there is nothing to copy yet, which is "not covered yet", not a
    // failure.
    wait_for(timeout, "the checkpoint to cover round 1", || {
        match std::fs::copy(&checkpoint, &crash_image) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return false,
            Err(e) => panic!("copying the checkpoint failed: {e}"),
        }
        pka_stream::FabricCheckpoint::load(&crash_image)
            .map(|cp| cp.total_tuples() >= round1_total && cp.version >= 1)
            .unwrap_or(false)
    });

    // `kill -9` the coordinator: sever its connections and drop it.  The
    // graceful teardown writes only to the original checkpoint path; the
    // replacement boots from the crash image alone.
    proxy.plan().partition(true);
    proxy.sever_all();
    drop(coordinator);
    proxy.plan().partition(false);

    let replacement = Server::start(schema(), coordinator_config(&crash_image)).unwrap();
    proxy.retarget(replacement.addr().to_string());
    proxy.sever_all();

    let recovered = stats_of(replacement.addr());
    assert_eq!(recovered.recovered_sources, 2, "both sources must come back");
    assert_eq!(recovered.recovered_tuples, round1_total, "round 1 must come back whole");
    assert_eq!(recovered.total_ingested, round1_total);

    // Round 2 flows into the replacement through the retargeted proxy.
    for (i, node) in nodes.iter().enumerate() {
        let share = rows(all_rows.len() + i * batch, batch);
        LineClient::connect(node.addr()).unwrap().ingest(&share).unwrap();
        all_rows.extend(share);
    }
    let mut replacement_client = LineClient::connect(replacement.addr()).unwrap();
    let expected = all_rows.len() as u64;
    wait_for(timeout, "round 2 to reach the replacement", || {
        replacement_client.stats().unwrap().total_ingested >= expected
    });
    assert_eq!(replacement_client.stats().unwrap().total_ingested, expected, "no double counts");
    let refit = replacement_client.refresh().unwrap();
    assert!(
        refit.version >= 2,
        "restored version counter must move forward, got {}",
        refit.version
    );

    // Replicas step onto the replacement's snapshot — forward, never back.
    let oracle = one_shot(&all_rows);
    for replica in &replicas {
        let mut client = LineClient::connect(replica.addr()).unwrap();
        wait_for(timeout, "replica to reach the replacement's version", || {
            client.snapshot_version().unwrap().unwrap_or(0) >= refit.version
        });
        assert_converged(replica.addr(), &oracle);
    }

    for node in nodes {
        node.shutdown().unwrap();
    }
    for replica in replicas {
        replica.shutdown().unwrap();
    }
    replacement.shutdown().unwrap();
    proxy.stop();
    for path in [checkpoint, crash_image] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn flapping_partitions_duplication_and_corruption_still_converge_exactly() {
    let timeout = Duration::from_secs(60);

    let coordinator = Server::start(
        schema(),
        ServeConfig::new()
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
    let proxy = ChaosProxy::start(coordinator.addr().to_string()).unwrap();
    let node = Server::start(
        schema(),
        ServeConfig::new().with_node_name("node-a").with_role(FabricRole::IngestNode {
            coordinator: proxy.addr().to_string(),
            push_interval: Duration::from_millis(10),
        }),
    )
    .unwrap();

    // Six batches; between them the link flaps, duplicates and corrupts.
    let mut all_rows: Vec<Vec<usize>> = Vec::new();
    let mut node_client = LineClient::connect(node.addr()).unwrap();
    for round in 0..6 {
        match round % 3 {
            // A short partition the pusher must ride out.
            0 => {
                proxy.plan().partition(true);
                proxy.sever_all();
            }
            // Deliver the next push twice: the duplicate must be gated.
            1 => proxy.plan().duplicate_next(1),
            // Garble a byte of the next push: the coordinator must refuse
            // it and the retry (of the uncorrupted original) must land.
            _ => proxy.plan().corrupt_next(1),
        }
        let share = rows(all_rows.len(), 50);
        node_client.ingest(&share).unwrap();
        all_rows.extend(share);
        if round % 3 == 0 {
            std::thread::sleep(Duration::from_millis(50));
            proxy.plan().partition(false);
        }
    }

    let expected = all_rows.len() as u64;
    let mut coordinator_client = LineClient::connect(coordinator.addr()).unwrap();
    wait_for(timeout, "every tuple to survive the chaos", || {
        coordinator_client.stats().unwrap().total_ingested >= expected
    });
    assert_eq!(
        coordinator_client.stats().unwrap().total_ingested,
        expected,
        "duplication or replay double-counted tuples"
    );
    coordinator_client.refresh().unwrap();
    assert_converged(coordinator.addr(), &one_shot(&all_rows));

    node.shutdown().unwrap();
    coordinator.shutdown().unwrap();
    proxy.stop();
}
