//! Coordinator checkpoints — the shard-placement map made durable.
//!
//! A coordinator's irreplaceable state is its [`RemoteShardMap`]: the
//! highest-seq cumulative [`CountShard`] it has accepted from each source.
//! Live sources will eventually re-push their counts, but a source that
//! died (or was decommissioned) never will — without a checkpoint, its
//! tuples silently vanish from every knowledge base fitted after a
//! coordinator restart.  A [`FabricCheckpoint`] snapshots that map, the
//! coordinator's own locally ingested counts, and the last published
//! snapshot version, all stamped with the wire `format_version`.
//!
//! Restore composes with the existing replication invariants instead of
//! adding new ones: restored per-source shards enter through the same
//! strictly-newer seq gate as live pushes, so a source that kept running
//! while the coordinator was down simply supersedes its checkpointed entry
//! on its next push, and a replayed older push is a no-op.  Restoring the
//! published version lets the restarted coordinator resume the snapshot
//! version sequence above anything replicas have already acknowledged —
//! keeping replica versions monotone across the crash.
//!
//! Writes are atomic (sibling temp file + fsync + rename), so a crash
//! mid-checkpoint leaves the previous checkpoint intact: any file that
//! exists is a complete, valid recovery point.
//!
//! [`RemoteShardMap`]: crate::remote::RemoteShardMap

use crate::error::StreamError;
use crate::shard::CountShard;
use crate::{Result, WIRE_FORMAT_VERSION};
use serde::{Deserialize, Serialize, Value};
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// One source's entry in a checkpointed shard-placement map.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointSource {
    /// The source's self-declared name (`--name` on the ingest node).
    pub name: String,
    /// The seq high-water mark held for this source.
    pub seq: u64,
    /// The source's cumulative counts as last pushed.
    pub shard: CountShard,
}

/// A point-in-time durable image of a coordinator engine's merged state.
/// Its fields decode through their own checked constructors (each shard's
/// table through [`pka_contingency::ContingencyTable::from_counts`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricCheckpoint {
    /// The last snapshot version published before this checkpoint (0 if
    /// none was ever published).
    pub version: u64,
    /// Tuples the engine had ingested locally (its own shards, not remote
    /// sources) when the checkpoint was taken.
    pub local: Option<CountShard>,
    /// The shard-placement map: one cumulative shard per known source.
    pub sources: Vec<CheckpointSource>,
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> StreamError {
    StreamError::Durability { reason: format!("{context} {}: {e}", path.display()) }
}

impl FabricCheckpoint {
    /// Total tuples this checkpoint carries across local and remote counts.
    pub fn total_tuples(&self) -> u64 {
        let local = self.local.as_ref().map_or(0, CountShard::tuple_count);
        let remote: u64 = self.sources.iter().map(|s| s.shard.tuple_count()).sum();
        local + remote
    }

    /// The wire [`Value`] form, `format_version`-stamped like every other
    /// cross-boundary payload.
    pub fn to_value(&self) -> Value {
        let Value::Object(mut fields) = Serialize::serialize(self) else {
            unreachable!("a struct serialises to an object")
        };
        fields.insert(0, ("format_version".to_string(), Value::U64(WIRE_FORMAT_VERSION)));
        Value::Object(fields)
    }

    /// Parses a checkpoint payload; a payload with a foreign
    /// `format_version` is refused outright, and every shard decodes
    /// through its checked constructor.
    pub fn from_value(value: &Value) -> Result<Self> {
        crate::shard::check_format_version(value)?;
        Deserialize::deserialize(value).map_err(|e: serde::Error| StreamError::Durability {
            reason: format!("malformed checkpoint: {e}"),
        })
    }

    /// Atomically writes the checkpoint to `path` and returns the byte
    /// size.  The sequence is write-temp → fsync → rename, so `path` always
    /// holds either the previous complete checkpoint or this one.
    pub fn save(&self, path: &Path) -> Result<u64> {
        let json = serde_json::to_string(&self.to_value()).map_err(|e| {
            StreamError::Durability { reason: format!("cannot encode checkpoint: {e}") }
        })?;
        let tmp_path = path.with_extension("checkpoint.tmp");
        let mut tmp = File::create(&tmp_path)
            .map_err(|e| io_err("cannot create checkpoint", &tmp_path, e))?;
        tmp.write_all(json.as_bytes())
            .and_then(|()| tmp.sync_all())
            .map_err(|e| io_err("cannot write checkpoint", &tmp_path, e))?;
        std::fs::rename(&tmp_path, path)
            .map_err(|e| io_err("cannot swap checkpoint into", path, e))?;
        Ok(json.len() as u64)
    }

    /// Loads and validates a checkpoint written by [`FabricCheckpoint::save`].
    pub fn load(path: &Path) -> Result<Self> {
        let text =
            std::fs::read_to_string(path).map_err(|e| io_err("cannot read checkpoint", path, e))?;
        let value: Value = serde_json::from_str(&text).map_err(|e| StreamError::Durability {
            reason: format!("corrupt checkpoint {}: {e}", path.display()),
        })?;
        Self::from_value(&value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Schema;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::uniform(&[3, 2]).unwrap().into_shared()
    }

    fn shard_with(rows: &[[usize; 2]]) -> CountShard {
        let mut shard = CountShard::new(schema());
        shard.record_batch(rows).expect("rows fit schema");
        shard
    }

    fn sample_checkpoint() -> FabricCheckpoint {
        FabricCheckpoint {
            version: 7,
            local: Some(shard_with(&[[0, 0], [1, 1]])),
            sources: vec![
                CheckpointSource {
                    name: "node-a".to_string(),
                    seq: 5,
                    shard: shard_with(&[[2, 1], [2, 0], [0, 1]]),
                },
                CheckpointSource {
                    name: "node-b".to_string(),
                    seq: 1,
                    shard: shard_with(&[[1, 0]]),
                },
            ],
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("pka-checkpoint-{tag}-{}-{n}.json", std::process::id()))
    }

    #[test]
    fn round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let checkpoint = sample_checkpoint();
        let bytes = checkpoint.save(&path).unwrap();
        assert!(bytes > 0);
        let loaded = FabricCheckpoint::load(&path).unwrap();
        assert_eq!(loaded, checkpoint);
        assert_eq!(loaded.total_tuples(), 6);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_local_round_trips_as_null() {
        let path = temp_path("nolocal");
        let checkpoint = FabricCheckpoint { version: 0, local: None, sources: Vec::new() };
        checkpoint.save(&path).unwrap();
        assert_eq!(FabricCheckpoint::load(&path).unwrap(), checkpoint);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn foreign_format_version_is_refused() {
        let mut value = sample_checkpoint().to_value();
        if let Value::Object(fields) = &mut value {
            for (key, field) in fields.iter_mut() {
                if key == "format_version" {
                    *field = Value::U64(99);
                }
            }
        }
        let err = FabricCheckpoint::from_value(&value).unwrap_err();
        assert!(matches!(err, StreamError::FormatVersion { found: Some(99) }));
    }

    #[test]
    fn truncated_file_is_refused() {
        let path = temp_path("truncated");
        sample_checkpoint().save(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(FabricCheckpoint::load(&path), Err(StreamError::Durability { .. })));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_replaces_previous_checkpoint_atomically() {
        let path = temp_path("replace");
        let first = sample_checkpoint();
        first.save(&path).unwrap();
        let second = FabricCheckpoint { version: 8, ..first };
        second.save(&path).unwrap();
        assert_eq!(FabricCheckpoint::load(&path).unwrap().version, 8);
        let _ = std::fs::remove_file(&path);
    }
}
