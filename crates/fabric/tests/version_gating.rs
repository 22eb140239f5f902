//! Replica version gating and fabric role gating, over the real wire.
//!
//! Every test here runs against live `pka-serve` servers in fabric roles
//! and drives them through [`LineClient`], so what is asserted is the
//! behaviour a remote peer actually observes: stale, duplicate and
//! reordered `snapshot-sync` offers are acknowledged no-ops, replica
//! versions are monotone under *any* delivery order (a property test), a
//! role refuses the methods it does not serve with the structured
//! `role-unsupported` error, and forged `format_version` stamps are
//! refused with `format-version-mismatch`.

use pka_contingency::{ContingencyTable, Schema};
use pka_core::Acquisition;
use pka_core::KnowledgeBase;
use pka_serve::{protocol, FabricRole, LineClient, ServeConfig, ServeError, Server};
use pka_stream::{Snapshot, SnapshotMeta, WIRE_FORMAT_VERSION};
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Arc<Schema> {
    Schema::uniform(&[2, 2]).unwrap().into_shared()
}

/// A fitted knowledge base over correlated counts (scaled by `seed` so
/// distinct versions carry distinguishable models).
fn fitted_kb(seed: u64) -> KnowledgeBase {
    let counts = vec![40 + seed, 10, 10, 40 + seed];
    let table = ContingencyTable::from_counts(schema(), counts).unwrap();
    Acquisition::with_defaults().run(&table).unwrap().knowledge_base
}

/// A snapshot offer (meta + knowledge base) stamped with `version`.
fn offer(version: u64) -> (SnapshotMeta, KnowledgeBase) {
    let snapshot = Snapshot::new(fitted_kb(version), version, 100 + version, version > 1);
    (snapshot.meta(), snapshot.knowledge_base().clone())
}

fn start(role: FabricRole) -> pka_serve::ServerHandle {
    Server::start(schema(), ServeConfig::new().with_role(role)).unwrap()
}

/// A push-fed replica (no coordinator to poll).
fn replica() -> FabricRole {
    FabricRole::Replica { coordinator: None, pull_interval: Duration::from_millis(50) }
}

fn remote_code(result: Result<impl std::fmt::Debug, ServeError>) -> String {
    match result {
        Err(ServeError::Remote { code, .. }) => code,
        other => panic!("expected a structured remote error, got {other:?}"),
    }
}

#[test]
fn stale_duplicate_and_reordered_offers_are_acknowledged_noops() {
    let server = start(replica());
    let mut client = LineClient::connect(server.addr()).unwrap();

    let (meta1, kb1) = offer(1);
    let (meta2, kb2) = offer(2);

    let first = client.snapshot_sync(&meta1, &kb1).unwrap();
    assert!(first.applied);
    assert_eq!(first.version, 1);

    // Duplicate delivery: acknowledged, not applied, version unchanged.
    let duplicate = client.snapshot_sync(&meta1, &kb1).unwrap();
    assert!(!duplicate.applied);
    assert_eq!(duplicate.version, 1);

    let second = client.snapshot_sync(&meta2, &kb2).unwrap();
    assert!(second.applied);
    assert_eq!(second.version, 2);

    // A delayed older offer arriving after a newer one: a no-op too.
    let reordered = client.snapshot_sync(&meta1, &kb1).unwrap();
    assert!(!reordered.applied);
    assert_eq!(reordered.version, 2);

    // The replica still serves the newer snapshot.
    assert_eq!(client.snapshot_version().unwrap(), Some(2));
    server.shutdown().unwrap();
}

#[test]
fn roles_refuse_the_methods_they_do_not_serve() {
    let rows = vec![vec![0usize, 0]];
    let (meta, kb) = offer(1);
    let shard = {
        let mut shard = pka_stream::CountShard::new(schema());
        shard.record(&[0, 0]).unwrap();
        shard
    };

    // A replica serves reads only.
    let replica = start(replica());
    let mut client = LineClient::connect(replica.addr()).unwrap();
    assert_eq!(remote_code(client.ingest(&rows)), "role-unsupported");
    assert_eq!(remote_code(client.refresh()), "role-unsupported");
    assert_eq!(remote_code(client.shard_push("node-a", 1, &shard)), "role-unsupported");
    assert!(client.snapshot_sync(&meta, &kb).is_ok());
    let gone = client.call("shard-pull", protocol::object([]));
    assert_eq!(remote_code(gone), "unknown-method", "no role serves shard-pull");
    replica.shutdown().unwrap();

    // An ingest node accepts rows but no shard or snapshot deliveries.
    // Its coordinator is not up: the pushes fail, which is not under test.
    let ingest_node = Server::start(
        schema(),
        ServeConfig::new().with_role(FabricRole::IngestNode {
            coordinator: "127.0.0.1:1".to_string(),
            push_interval: Duration::from_millis(25),
        }),
    )
    .unwrap();
    let mut client = LineClient::connect(ingest_node.addr()).unwrap();
    assert!(client.ingest(&rows).is_ok());
    assert_eq!(remote_code(client.shard_push("node-a", 1, &shard)), "role-unsupported");
    assert_eq!(remote_code(client.snapshot_sync(&meta, &kb)), "role-unsupported");
    ingest_node.shutdown().unwrap();

    // A coordinator accepts shard pushes but never snapshot offers.
    let coordinator = start(FabricRole::Coordinator {
        replicas: Vec::new(),
        sync_interval: Duration::from_millis(25),
    });
    let mut client = LineClient::connect(coordinator.addr()).unwrap();
    assert!(client.shard_push("node-a", 1, &shard).unwrap().applied);
    assert_eq!(remote_code(client.snapshot_sync(&meta, &kb)), "role-unsupported");
    coordinator.shutdown().unwrap();

    // A standalone server predates the fabric: everything but
    // snapshot-sync works.
    let standalone = start(FabricRole::Standalone);
    let mut client = LineClient::connect(standalone.addr()).unwrap();
    assert!(client.ingest(&rows).is_ok());
    assert!(client.shard_push("node-a", 1, &shard).unwrap().applied);
    assert_eq!(remote_code(client.snapshot_sync(&meta, &kb)), "role-unsupported");
    standalone.shutdown().unwrap();
}

#[test]
fn forged_format_versions_are_refused_with_the_structured_code() {
    let replica = start(replica());
    let mut client = LineClient::connect(replica.addr()).unwrap();
    let (meta, kb) = offer(1);

    // Forge the meta's format stamp.
    let mut meta_value = Serialize::serialize(&meta);
    if let Value::Object(fields) = &mut meta_value {
        for (name, value) in fields.iter_mut() {
            if name == "format_version" {
                *value = Value::U64(WIRE_FORMAT_VERSION + 7);
            }
        }
    }
    let params =
        protocol::object([("meta", meta_value), ("knowledge_base", Serialize::serialize(&kb))]);
    let refused = client.call("snapshot-sync", params);
    assert_eq!(remote_code(refused), "format-version-mismatch");
    replica.shutdown().unwrap();

    // Forge a shard's format stamp on the coordinator path too.
    let coordinator = start(FabricRole::Coordinator {
        replicas: Vec::new(),
        sync_interval: Duration::from_millis(25),
    });
    let mut client = LineClient::connect(coordinator.addr()).unwrap();
    let mut shard = pka_stream::CountShard::new(schema());
    shard.record(&[0, 0]).unwrap();
    let mut shard_value = Serialize::serialize(&shard);
    if let Value::Object(fields) = &mut shard_value {
        for (name, value) in fields.iter_mut() {
            if name == "format_version" {
                *value = Value::U64(0);
            }
        }
    }
    let params = protocol::object([
        ("source", Value::Str("node-a".to_string())),
        ("seq", Value::U64(1)),
        ("shard", shard_value),
    ]);
    let refused = client.call("shard-push", params);
    assert_eq!(remote_code(refused), "format-version-mismatch");
    coordinator.shutdown().unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Under ANY delivery order of snapshot versions, a replica's observed
    /// version equals the running maximum, an offer is applied exactly
    /// when its version exceeds everything seen before, and the observed
    /// sequence is monotone.
    #[test]
    fn prop_replica_versions_are_monotone_under_any_delivery_order(
        versions in proptest::collection::vec(1u64..6, 1..8),
    ) {
        let server = start(replica());
        let mut client = LineClient::connect(server.addr()).unwrap();
        let mut highest = 0u64;
        for &version in &versions {
            let (meta, kb) = offer(version);
            let summary = client.snapshot_sync(&meta, &kb).unwrap();
            prop_assert_eq!(summary.applied, version > highest);
            highest = highest.max(version);
            prop_assert_eq!(summary.version, highest);
            prop_assert_eq!(client.snapshot_version().unwrap(), Some(highest));
        }
        server.shutdown().unwrap();
    }
}
