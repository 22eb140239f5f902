//! Hostile-payload properties of the fabric wire format.
//!
//! The `shard-push` / `snapshot-sync` payloads cross machine boundaries,
//! so everything a corrupted or adversarial peer could send must be
//! rejected with a structured error — never absorbed, never a panic.
//! These properties drive [`CountShard::from_json`] and
//! [`SnapshotMeta::from_value`] with forged counts (cardinality
//! mismatches, negative and overflowing cells, inconsistent totals),
//! forged format stamps, and truncated payloads.
//!
//! The knowledge base a coordinator syncs is forged too: a replica must
//! refuse a snapshot whose model has the wrong mass (`a0` or one a-value
//! scaled), a negative a-value, a nested schema of its own, or a
//! probability outside `[0, 1]` — each either when it is decoded
//! (`invalid-params`) or by the engine's mass check (`ingest-error`) —
//! and publish nothing, while a legitimate snapshot crosses every path
//! (`snapshot-pull`, `snapshot-sync`, JSON persistence) bit for bit.

use pka::contingency::{Assignment, Schema};
use pka::core::{serialize, KnowledgeBase};
use pka::datagen::{sample_dataset, sampler::seeded_rng, survey};
use pka::serve::protocol::object;
use pka::serve::{FabricRole, LineClient, ServeConfig, ServeError, Server, ServerHandle};
use pka::stream::{
    CountShard, RefreshPolicy, SnapshotMeta, StreamConfig, StreamError, StreamingEngine,
    WIRE_FORMAT_VERSION,
};
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Arc<Schema> {
    Schema::uniform(&[3, 2, 2]).unwrap().into_shared()
}

fn shard_from_cells(cells: &[usize]) -> CountShard {
    let s = schema();
    let mut shard = CountShard::new(Arc::clone(&s));
    for &cell in cells {
        let values = s.cell_values(cell % s.cell_count());
        shard.record(&values).unwrap();
    }
    shard
}

/// Navigates to the `counts` array inside a serialised shard value.
fn counts_mut(value: &mut Value) -> &mut Vec<Value> {
    let Value::Object(fields) = value else { panic!("shard is not an object") };
    let table = fields
        .iter_mut()
        .find(|(name, _)| name == "table")
        .map(|(_, v)| v)
        .expect("shard without table");
    let Value::Object(table_fields) = table else { panic!("table is not an object") };
    let counts = table_fields
        .iter_mut()
        .find(|(name, _)| name == "counts")
        .map(|(_, v)| v)
        .expect("table without counts");
    match counts {
        Value::Array(entries) => entries,
        _ => panic!("counts is not an array"),
    }
}

fn set_field(value: &mut Value, path: &[&str], new_value: Value) {
    let mut current = value;
    for (i, segment) in path.iter().enumerate() {
        let Value::Object(fields) = current else { panic!("not an object at {segment}") };
        let slot = fields
            .iter_mut()
            .find(|(name, _)| name == segment)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {segment}"));
        if i == path.len() - 1 {
            *slot = new_value;
            return;
        }
        current = slot;
    }
}

fn reject(value: &Value) -> StreamError {
    CountShard::from_value(value).expect_err("hostile payload must be rejected")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Valid shards survive the wire bit-for-bit.
    #[test]
    fn prop_round_trip_is_exact(cells in proptest::collection::vec(0usize..12, 0..60)) {
        let shard = shard_from_cells(&cells);
        let json = shard.to_json().unwrap();
        prop_assert!(json.contains(&format!("\"format_version\":{WIRE_FORMAT_VERSION}")));
        let back = CountShard::from_json(&json).unwrap();
        prop_assert_eq!(back, shard);
    }

    /// Truncating a payload anywhere produces an error, never a panic or a
    /// silently-absorbed shard.
    #[test]
    fn prop_truncated_payloads_are_rejected(
        cells in proptest::collection::vec(0usize..12, 1..30),
        fraction in 0.0f64..1.0,
    ) {
        let json = shard_from_cells(&cells).to_json().unwrap();
        let cut = ((json.len() as f64) * fraction) as usize;
        // Cut on a char boundary strictly inside the payload.
        let cut = (0..=cut.min(json.len() - 1)).rev().find(|&i| json.is_char_boundary(i)).unwrap();
        prop_assert!(CountShard::from_json(&json[..cut]).is_err());
    }

    /// A counts array of the wrong cardinality is rejected.
    #[test]
    fn prop_cardinality_mismatch_is_rejected(
        cells in proptest::collection::vec(0usize..12, 0..30),
        extra in 1usize..4,
        grow in any::<bool>(),
    ) {
        let mut value: Value =
            serde_json::from_str(&shard_from_cells(&cells).to_json().unwrap()).unwrap();
        let counts = counts_mut(&mut value);
        if grow {
            for _ in 0..extra {
                counts.push(Value::U64(0));
            }
        } else {
            for _ in 0..extra.min(counts.len()) {
                counts.pop();
            }
        }
        reject(&value);
    }

    /// Negative cell counts are rejected.
    #[test]
    fn prop_negative_counts_are_rejected(
        cells in proptest::collection::vec(0usize..12, 0..30),
        cell in 0usize..12,
        magnitude in 1i64..1_000_000,
    ) {
        let mut value: Value =
            serde_json::from_str(&shard_from_cells(&cells).to_json().unwrap()).unwrap();
        counts_mut(&mut value)[cell] = Value::I64(-magnitude);
        reject(&value);
    }

    /// Cell counts that overflow the 64-bit total are rejected by the
    /// checked sum, not wrapped into a small "consistent" table.
    #[test]
    fn prop_overflowing_counts_are_rejected(
        cells in proptest::collection::vec(0usize..12, 0..30),
        first in 0usize..12,
        second in 0usize..12,
    ) {
        let mut value: Value =
            serde_json::from_str(&shard_from_cells(&cells).to_json().unwrap()).unwrap();
        {
            let counts = counts_mut(&mut value);
            counts[first] = Value::U64(u64::MAX);
            counts[second.min(11).max((first + 1) % 12)] = Value::U64(u64::MAX);
        }
        reject(&value);
    }

    /// A forged total that disagrees with the counts is rejected.
    #[test]
    fn prop_inconsistent_totals_are_rejected(
        cells in proptest::collection::vec(0usize..12, 1..30),
        forged_delta in 1u64..1_000,
    ) {
        let shard = shard_from_cells(&cells);
        let mut value: Value = serde_json::from_str(&shard.to_json().unwrap()).unwrap();
        set_field(
            &mut value,
            &["table", "total"],
            Value::U64(shard.tuple_count() + forged_delta),
        );
        reject(&value);
    }

    /// Any format stamp but the current one is refused with the structured
    /// error, for shards and snapshot metadata alike.
    #[test]
    fn prop_foreign_format_versions_are_refused(stamp in any::<u64>()) {
        prop_assume!(stamp != WIRE_FORMAT_VERSION);
        let mut value: Value =
            serde_json::from_str(&shard_from_cells(&[1, 2, 3]).to_json().unwrap()).unwrap();
        set_field(&mut value, &["format_version"], Value::U64(stamp));
        prop_assert!(matches!(
            CountShard::from_value(&value),
            Err(StreamError::FormatVersion { found: Some(found) }) if found == stamp
        ));

        let meta = SnapshotMeta {
            format_version: stamp,
            version: 1,
            observations: 10,
            warm_started: false,
            constraints: 4,
            attributes: 3,
        };
        prop_assert!(matches!(
            meta.validate_format(),
            Err(StreamError::FormatVersion { found: Some(found) }) if found == stamp
        ));
        let forged = serde::Serialize::serialize(&meta);
        prop_assert!(SnapshotMeta::from_value(&forged).is_err());
    }
}

/// A standalone-served coordinator over the survey schema, fitted on
/// 20,000 sampled rows.
fn survey_coordinator() -> ServerHandle {
    let dataset = sample_dataset(&survey::ground_truth(), 20_000, &mut seeded_rng(3));
    let stream = StreamConfig::new().with_policy(RefreshPolicy::Manual);
    let role =
        FabricRole::Coordinator { replicas: Vec::new(), sync_interval: Duration::from_secs(30) };
    let config = ServeConfig::new().with_stream(stream).with_role(role);
    let coordinator = Server::start(survey::schema(), config).unwrap();
    let mut client = LineClient::connect(coordinator.addr()).unwrap();
    let rows: Vec<Vec<usize>> = dataset.samples().iter().map(|s| s.values().to_vec()).collect();
    for chunk in rows.chunks(2_000) {
        client.ingest(chunk).unwrap();
    }
    client.refresh().unwrap();
    coordinator
}

fn push_fed_replica() -> ServerHandle {
    let role = FabricRole::Replica { coordinator: None, pull_interval: Duration::from_secs(30) };
    Server::start(survey::schema(), ServeConfig::new().with_role(role)).unwrap()
}

/// The named field of an object value, or the indexed element of an array.
fn at<'a>(value: &'a mut Value, step: &str) -> &'a mut Value {
    match value {
        Value::Object(fields) => {
            fields.iter_mut().find(|(name, _)| name == step).map(|(_, v)| v).unwrap()
        }
        Value::Array(items) => &mut items[step.parse::<usize>().unwrap()],
        other => panic!("cannot step into {} at {step}", other.kind()),
    }
}

fn path_mut<'a>(value: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(value, |current, step| at(current, step))
}

fn scale(value: &mut Value, path: &[&str], by: f64) {
    let slot = path_mut(value, path);
    *slot = Value::F64(slot.as_f64().unwrap() * by);
}

/// The five forgeries of a serialised knowledge base, each with the code
/// a replica must refuse it with.
fn forgeries(knowledge_base: &Value) -> Vec<(&'static str, Value, &'static str)> {
    let forge = |edit: &dyn Fn(&mut Value)| {
        let mut forged = knowledge_base.clone();
        edit(&mut forged);
        forged
    };
    vec![
        ("a0 times six", forge(&|v| scale(v, &["model", "a0"], 6.0)), "ingest-error"),
        (
            "an a-value negated",
            forge(&|v| scale(v, &["model", "factors", "0", "1"], -1.0)),
            "invalid-params",
        ),
        (
            "an a-value times 100",
            forge(&|v| scale(v, &["model", "factors", "0", "1"], 100.0)),
            "ingest-error",
        ),
        (
            "a model schema with an extra value",
            forge(&|v| {
                let values = path_mut(v, &["model", "schema", "attributes", "0", "values"]);
                let Value::Array(names) = values else { panic!("values is not an array") };
                names.push(Value::Str("forged".to_string()));
            }),
            "invalid-params",
        ),
        (
            "a constraint probability of 1.5",
            forge(&|v| {
                *path_mut(v, &["constraints", "constraints", "0", "probability"]) = Value::F64(1.5);
            }),
            "invalid-params",
        ),
    ]
}

#[test]
fn forged_knowledge_bases_are_refused_and_publish_nothing() {
    let coordinator = survey_coordinator();
    let (meta, knowledge_base) =
        LineClient::connect(coordinator.addr()).unwrap().snapshot_pull().unwrap().unwrap();
    let value = Serialize::serialize(&knowledge_base);
    let replica = push_fed_replica();
    let mut client = LineClient::connect(replica.addr()).unwrap();
    let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
    let mut engine = StreamingEngine::new(survey::schema(), manual).unwrap();

    for (what, forged, code) in forgeries(&value) {
        let params =
            object([("meta", Serialize::serialize(&meta)), ("knowledge_base", forged.clone())]);
        match client.call("snapshot-sync", params) {
            Err(ServeError::Remote { code: refused, .. }) => {
                assert_eq!(refused, code, "{what} refused with the wrong code")
            }
            other => panic!("{what} was not refused: {other:?}"),
        }
        // Where decoding accepts the forgery, the engine's mass check
        // must not.
        match KnowledgeBase::deserialize(&forged) {
            Err(_) => assert_eq!(code, "invalid-params", "{what} failed to decode"),
            Ok(decoded) => {
                assert_eq!(code, "ingest-error", "{what} decoded");
                let error = engine.apply_synced_snapshot(&meta, decoded).unwrap_err();
                assert!(error.to_string().contains("probability distribution"), "{what}: {error}");
            }
        }
    }
    assert_eq!(replica.snapshots().version(), None, "a forged snapshot was published");
    assert!(engine.snapshot().is_none(), "a forged snapshot was published");
    replica.shutdown().unwrap();
    coordinator.shutdown().unwrap();
}

#[test]
fn a_legitimate_snapshot_answers_every_cell_bitwise_on_every_path() {
    let coordinator = survey_coordinator();
    let (meta, pulled) =
        LineClient::connect(coordinator.addr()).unwrap().snapshot_pull().unwrap().unwrap();
    let replica = push_fed_replica();
    let summary =
        LineClient::connect(replica.addr()).unwrap().snapshot_sync(&meta, &pulled).unwrap();
    assert!(summary.applied);
    let restored = serialize::from_json(&serialize::to_json(&pulled).unwrap()).unwrap();
    assert_eq!(restored, pulled);

    let source = coordinator.snapshots().load().unwrap();
    let synced = replica.snapshots().load().unwrap();
    assert_eq!(synced.version(), meta.version);
    let schema = survey::schema();
    for values in schema.cells() {
        let cell = Assignment::new(schema.all_vars(), values);
        let expected = source.knowledge_base().probability(&cell).to_bits();
        for (path, kb) in
            [("pulled", &pulled), ("synced", synced.knowledge_base()), ("json", &restored)]
        {
            assert_eq!(kb.probability(&cell).to_bits(), expected, "{path} differs at {cell:?}");
        }
    }
    replica.shutdown().unwrap();
    coordinator.shutdown().unwrap();
}
