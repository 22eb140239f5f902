//! In-process replay for the traced run: the workload's exact input stream
//! goes through each layer's public library function in turn — the path a
//! batch takes from ingest node to replica — with a span around every call.
//!
//! Batch 0 is the preload and is excluded from the reported medians.

use crate::spans::Recorder;
use crate::workload::{assignments, ingest_line, Inputs, Workload};
use pka_contingency::Assignment;
use pka_core::{Acquisition, AcquisitionConfig, KnowledgeBase};
use pka_maxent::{IncidenceCache, DEFAULT_DENSE_CEILING, DEFAULT_LATTICE_ORDER};
use pka_serve::protocol::{self, object};
use pka_stream::{
    CountShard, FsyncPolicy, RefreshPolicy, ShardJournal, Snapshot, SnapshotMeta, StreamConfig,
    StreamingEngine,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Timed batches replayed at most (the wide workload's are costly).
const MAX_BATCHES: usize = 24;
/// `query-batch` lines evaluated per replayed batch.
const READS_PER_BATCH: usize = 8;

/// What the replay measured: per-operation self times by span name, and
/// payload sizes by name.
pub struct Replay {
    pub times: BTreeMap<&'static str, Vec<f64>>,
    pub bytes: BTreeMap<&'static str, Vec<f64>>,
}

pub fn run(
    workload: &Workload,
    inputs: &Inputs,
    acked: &[bool],
    dir: &Path,
    spans_path: &Path,
) -> Result<Replay, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("replay {what}: {e}");
    std::fs::create_dir_all(dir).map_err(|e| fail("dir", &e))?;
    let schema = Arc::clone(&inputs.schema);
    let mut acquisition_config = AcquisitionConfig::new();
    if let Some(order) = workload.max_order {
        acquisition_config = acquisition_config.with_max_order(order);
    }
    let engine_config =
        StreamConfig::new().with_policy(RefreshPolicy::Manual).with_acquisition(acquisition_config);
    let acquisition = Acquisition::new(acquisition_config);
    let mut cache = IncidenceCache::new();
    let mut local = CountShard::new(Arc::clone(&schema));
    let journal_path = dir.join("replay.journal");
    let (mut journal, _) =
        ShardJournal::open(&journal_path, FsyncPolicy::Interval(Duration::from_millis(100)))
            .map_err(|e| fail("journal", &e))?;
    let mut coordinator = StreamingEngine::new(Arc::clone(&schema), engine_config.clone())
        .map_err(|e| fail("engine", &e))?;
    let mut replica =
        StreamingEngine::new(Arc::clone(&schema), engine_config).map_err(|e| fail("engine", &e))?;
    let checkpoint_path = dir.join("replay.checkpoint");

    let mut batches: Vec<(String, &[Vec<usize>])> =
        vec![(ingest_line(0, &inputs.preload), inputs.preload.as_slice())];
    for (i, (batch, &ok)) in inputs.batches.iter().zip(acked).enumerate() {
        if ok && batches.len() <= MAX_BATCHES {
            batches.push((inputs.write_lines[i].clone(), batch.as_slice()));
        }
    }

    let mut rec = Recorder::new();
    let mut bytes: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut previous: Option<Snapshot> = None;
    let mut read_cursor = 0usize;
    for (id, (line, rows)) in batches.iter().enumerate() {
        let timed = id > 0;
        let mut note = |name: &'static str, n: usize| {
            if timed {
                bytes.entry(name).or_default().push(n as f64);
            }
        };
        let step: Result<(), String> = rec.span("batch", id, |rec| {
            rec.span("protocol.parse_ingest", id, |_| {
                let request = protocol::parse_request(line.trim_end())
                    .map_err(|e| fail("parse", &e.message))?;
                protocol::rows_from_value(&request.params)
                    .map(black_box)
                    .map_err(|e| fail("rows", &e.message))
            })?;
            rec.span("shard.record_batch", id, |_| local.record_batch(rows))
                .map_err(|e| fail("record", &e))?;
            let seq = local.tuple_count();
            let before = file_len(&journal_path);
            rec.span("journal.append", id, |_| journal.append(seq, &local))
                .map_err(|e| fail("journal", &e))?;
            note("journal.record_bytes", file_len(&journal_path).saturating_sub(before) as usize);
            let json = rec
                .span("shard.encode", id, |_| local.to_json())
                .map_err(|e| fail("encode", &e))?;
            note("shard.push_bytes", json.len());
            let shard = rec
                .span("shard.decode", id, |_| CountShard::from_json(&json))
                .map_err(|e| fail("decode", &e))?;
            rec.span("remote.absorb", id, |_| {
                coordinator.accept_remote_shard("ingest-1", seq, shard)
            })
            .map_err(|e| fail("absorb", &e))?;
            let snapshot = rec.span("refit", id, |rec| -> Result<Snapshot, String> {
                let table = coordinator.current_table().map_err(|e| fail("table", &e))?;
                let outcome = rec
                    .span("acquisition.refit", id, |_| match &previous {
                        Some(p) => acquisition.run_warm_started_cached(
                            &table,
                            p.knowledge_base(),
                            &mut cache,
                        ),
                        None => acquisition.run_cached(&table, &mut cache),
                    })
                    .map_err(|e| fail("acquisition", &e))?;
                Ok(rec.span("lattice.build", id, |_| {
                    Snapshot::with_lattice_order_and_ceiling(
                        outcome.knowledge_base,
                        id as u64 + 1,
                        table.total(),
                        previous.is_some(),
                        DEFAULT_LATTICE_ORDER,
                        DEFAULT_DENSE_CEILING,
                    )
                }))
            })?;
            let meta = snapshot.meta();
            let payload = rec.span("snapshot.encode", id, |_| {
                let params = object([
                    ("meta", Serialize::serialize(&meta)),
                    ("knowledge_base", Serialize::serialize(snapshot.knowledge_base())),
                ]);
                serde_json::to_string(&params).map_err(|e| fail("snapshot encode", &e))
            })?;
            note("snapshot.sync_bytes", payload.len());
            let (synced_meta, kb) = rec.span("snapshot.decode", id, |_| decode_sync(&payload))?;
            rec.span("snapshot.apply", id, |_| replica.apply_synced_snapshot(&synced_meta, kb))
                .map_err(|e| fail("apply", &e))?;
            let saved = rec
                .span("checkpoint.save", id, |_| {
                    coordinator.capture_checkpoint().and_then(|c| c.save(&checkpoint_path))
                })
                .map_err(|e| fail("checkpoint", &e))?;
            note("checkpoint.bytes", saved as usize);
            for _ in 0..READS_PER_BATCH {
                let line = &inputs.read_lines[read_cursor % inputs.read_lines.len()];
                let mix = &inputs.read_mix[read_cursor % inputs.read_mix.len()];
                read_cursor += 1;
                evaluate(rec, id, line, mix, &snapshot)?;
            }
            previous = Some(snapshot);
            Ok(())
        });
        step?;
    }
    rec.write_jsonl(spans_path).map_err(|e| fail("spans", &e))?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(Replay { times: rec.self_times(|batch| batch > 0), bytes })
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn decode_sync(payload: &str) -> Result<(SnapshotMeta, KnowledgeBase), String> {
    let value: Value =
        serde_json::from_str(payload).map_err(|e| format!("replay sync decode: {e}"))?;
    let meta = SnapshotMeta::from_value(value.get("meta").unwrap_or(&Value::Null))
        .map_err(|e| format!("replay sync meta: {e}"))?;
    let kb = KnowledgeBase::deserialize(value.get("knowledge_base").unwrap_or(&Value::Null))
        .map_err(|e| format!("replay sync knowledge base: {e}"))?;
    Ok((meta, kb))
}

/// One `query-batch` line: parse it, then resolve every marginal the
/// server's Bayes evaluation needs (evidence, target ∪ evidence, target),
/// grouped by the path that answers it.
fn evaluate(
    rec: &mut Recorder,
    id: usize,
    line: &str,
    mix: &[crate::workload::Probe],
    snapshot: &Snapshot,
) -> Result<(), String> {
    rec.span("query.batch", id, |rec| {
        rec.span("protocol.parse_query_batch", id, |_| {
            protocol::parse_request(line.trim_end()).map(black_box).map_err(|e| e.message)
        })?;
        let mut hits: Vec<Assignment> = Vec::new();
        let mut misses: Vec<Assignment> = Vec::new();
        for probe in mix {
            let (target, evidence) = assignments(probe);
            let merged = target.merge(&evidence).expect("probe target and evidence are disjoint");
            for a in [evidence, merged, target] {
                if a.order() == 0 {
                    continue;
                }
                if snapshot.lattice().probability(&a).is_some() {
                    hits.push(a);
                } else {
                    misses.push(a);
                }
            }
        }
        let kb = snapshot.knowledge_base();
        rec.counted("eval.lattice", id, hits.len(), |_| {
            for a in &hits {
                black_box(kb.probability(black_box(a)));
            }
        });
        if let Some(joint) = snapshot.joint() {
            rec.counted("eval.dense", id, misses.len(), |_| {
                for a in &misses {
                    black_box(joint.probability(black_box(a)));
                }
            });
        }
        let graph = snapshot.factor_graph();
        rec.counted("eval.factored", id, misses.len(), |_| {
            for a in &misses {
                black_box(graph.probability(black_box(a)));
            }
        });
        Ok(())
    })
}
