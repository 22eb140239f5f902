//! End-to-end fabric test: 2 ingest nodes × 3 batches, one coordinator,
//! two read replicas.
//!
//! Asserts the ISSUE's acceptance criteria: the replicas' answers match a
//! one-shot acquisition over the union of all rows to 1e-9, every reader
//! observes a strictly monotone version sequence, and reads never block
//! (a hammering reader thread makes continuous progress throughout).

use pka_contingency::{Assignment, ContingencyTable, Schema};
use pka_core::{Acquisition, AcquisitionConfig, KnowledgeBase};
use pka_maxent::ConvergenceCriteria;
use pka_serve::{FabricRole, LineClient, ServeConfig, Server, ServerHandle};
use pka_stream::{CountShard, RefreshPolicy, StreamConfig};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn schema() -> Arc<Schema> {
    Schema::uniform(&[3, 2, 2]).unwrap().into_shared()
}

/// Deterministic correlated rows: attr1 follows attr0's parity, attr2
/// cycles slowly — enough structure for acquisition to find constraints.
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

/// A solver setting tight enough that warm-started coordinator refits and
/// the cold one-shot fit agree far below the 1e-9 assertion threshold.
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
fn fabric_converges_to_the_one_shot_acquisition() {
    let timeout = Duration::from_secs(60);

    // Replicas first (push-fed; no coordinator address needed).
    let push_fed =
        FabricRole::Replica { coordinator: None, pull_interval: Duration::from_millis(50) };
    let replicas: Vec<ServerHandle> = (0..2)
        .map(|_| {
            let config = ServeConfig::new().with_role(push_fed.clone());
            Server::start(schema(), config).unwrap()
        })
        .collect();

    // The coordinator knows its replicas and refits only on demand, so the
    // test controls exactly when versions are published.
    let coordinator_config = ServeConfig::new()
        .with_stream(
            StreamConfig::new()
                .with_policy(RefreshPolicy::Manual)
                .with_acquisition(tight_acquisition()),
        )
        .with_role(FabricRole::Coordinator {
            replicas: replicas.iter().map(|replica| replica.addr().to_string()).collect(),
            sync_interval: Duration::from_millis(10),
        });
    let coordinator = Server::start(schema(), coordinator_config).unwrap();

    // Two push-capable ingest nodes.
    let nodes: Vec<ServerHandle> = ["node-a", "node-b"]
        .iter()
        .map(|name| {
            Server::start(
                schema(),
                ServeConfig::new().with_node_name(*name).with_role(FabricRole::IngestNode {
                    coordinator: coordinator.addr().to_string(),
                    push_interval: Duration::from_millis(10),
                }),
            )
            .unwrap()
        })
        .collect();

    // A reader hammering replica 0's snapshot slot for the whole run:
    // versions must be monotone and loads must keep completing (the load
    // path is wait-free, so progress is continuous even mid-publish).
    let reader_handle = replicas[0].snapshots();
    let reader_stop = Arc::new(AtomicBool::new(false));
    let reader_loads = Arc::new(AtomicU64::new(0));
    let reader = {
        let stop = Arc::clone(&reader_stop);
        let loads = Arc::clone(&reader_loads);
        std::thread::spawn(move || {
            let mut last = 0u64;
            let probe = Assignment::from_pairs([(0, 0), (1, 0)]);
            while !stop.load(Ordering::Relaxed) {
                if let Some(snapshot) = reader_handle.load() {
                    let version = snapshot.version();
                    assert!(version >= last, "reader saw version {version} after {last}");
                    last = version;
                    let p = snapshot.knowledge_base().probability(&probe);
                    assert!(p.is_finite() && p >= 0.0);
                }
                loads.fetch_add(1, Ordering::Relaxed);
            }
            last
        })
    };

    // 3 batches per node, refreshing (and therefore publishing) after each
    // round so the replicas step through versions 1, 2, 3.
    let mut coordinator_client = LineClient::connect(coordinator.addr()).unwrap();
    let batch = 80usize;
    let mut all_rows: Vec<Vec<usize>> = Vec::new();
    let mut replica_versions: Vec<Vec<u64>> = vec![Vec::new(); replicas.len()];
    for round in 0..3 {
        for (i, node) in nodes.iter().enumerate() {
            let share = rows((round * nodes.len() + i) * batch, batch);
            let mut client = LineClient::connect(node.addr()).unwrap();
            client.ingest(&share).unwrap();
            all_rows.extend(share);
        }
        let expected = all_rows.len() as u64;
        wait_for(timeout, "pushers to deliver every tuple", || {
            coordinator_client.stats().unwrap().total_ingested >= expected
        });
        let refit = coordinator_client.refresh().unwrap();
        assert_eq!(refit.version, round as u64 + 1);
        assert_eq!(refit.observations, expected, "refit must cover all pushed tuples");
        for (i, replica) in replicas.iter().enumerate() {
            let mut client = LineClient::connect(replica.addr()).unwrap();
            wait_for(timeout, "replica to reach the coordinator's version", || {
                client.snapshot_version().unwrap().unwrap_or(0) >= refit.version
            });
            replica_versions[i].push(client.snapshot_version().unwrap().unwrap());
        }
    }

    // Every replica stepped through strictly increasing versions.
    for versions in &replica_versions {
        assert_eq!(versions.len(), 3);
        assert!(versions.windows(2).all(|w| w[0] < w[1]), "versions not monotone: {versions:?}");
    }

    // One-shot acquisition over the union of every row ever ingested.
    let mut shard = CountShard::new(schema());
    shard.record_batch(&all_rows).unwrap();
    let table: ContingencyTable = shard.into_table();
    assert_eq!(table.total(), all_rows.len() as u64);
    let one_shot: KnowledgeBase =
        Acquisition::new(tight_acquisition()).run(&table).unwrap().knowledge_base;

    // Replica answers must match the one-shot fit to 1e-9 — marginals over
    // every attribute value plus a conditional.
    let names = [("attr0", 3usize), ("attr1", 2), ("attr2", 2)];
    for replica in &replicas {
        let mut client = LineClient::connect(replica.addr()).unwrap();
        for (attr, card) in names.iter().enumerate() {
            for v in 0..card.1 {
                let value = format!("v{v}");
                let answer = client.query(&[(card.0, value.as_str())], &[]).unwrap();
                let expected = one_shot.probability(&Assignment::single(attr, v));
                assert!(
                    (answer.probability - expected).abs() < 1e-9,
                    "P({}={value}): replica {} vs one-shot {expected}",
                    card.0,
                    answer.probability,
                );
            }
        }
        let conditional = client.query(&[("attr1", "v0")], &[("attr0", "v0")]).unwrap();
        let joint = one_shot.probability(&Assignment::from_pairs([(0, 0), (1, 0)]));
        let evidence = one_shot.probability(&Assignment::single(0, 0));
        assert!(
            (conditional.probability - joint / evidence).abs() < 1e-9,
            "conditional drifted: {} vs {}",
            conditional.probability,
            joint / evidence,
        );
    }

    // The reader made continuous progress the whole time.
    reader_stop.store(true, Ordering::Relaxed);
    let final_version = reader.join().unwrap();
    assert!(final_version <= 3);
    assert!(
        reader_loads.load(Ordering::Relaxed) > 1_000,
        "reader should have completed thousands of wait-free loads"
    );

    // Clean teardown, ingest nodes first so their final flush lands on a
    // live coordinator.
    for node in nodes {
        node.shutdown().unwrap();
    }
    for replica in replicas {
        replica.shutdown().unwrap();
    }
    coordinator.shutdown().unwrap();
}
