//! The coordinator's shard-placement map: one slot per remote ingest node.
//!
//! Each ingest node tabulates locally and ships its **cumulative** counts as
//! a [`CountShard`] tagged with a monotone sequence number (its local tuple
//! count).  The map keeps exactly one entry per source and replaces it only
//! when a strictly newer sequence arrives, so the delivery pathologies of a
//! real network — replays, reorders, overlapping push and pull paths — all
//! collapse to no-ops.  Merging the held shards with the coordinator's own
//! local shards is then the same commutative-monoid fold single-node
//! ingestion uses, which is what keeps the distributed fabric *exact*: the
//! merged table is bit-for-bit the table a single sequential pass over every
//! node's tuples would have produced.

use crate::shard::CountShard;
use crate::{Result, StreamError};
use pka_contingency::{ContingencyTable, Schema};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// What applying one remote delivery did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteApply {
    /// The delivery was newer than the held entry and replaced it.
    Applied {
        /// Tuples the source gained since its previously-held shard.
        delta_tuples: u64,
    },
    /// The delivery was stale (sequence not newer than the held one) and
    /// was discarded — idempotence under replay and reorder.
    Stale {
        /// The sequence number the map already holds for the source.
        held_seq: u64,
    },
}

impl RemoteApply {
    /// True if the delivery replaced the held entry.
    pub fn applied(&self) -> bool {
        matches!(self, RemoteApply::Applied { .. })
    }

    /// Tuples gained by the apply (0 for a stale delivery).
    pub fn delta_tuples(&self) -> u64 {
        match self {
            RemoteApply::Applied { delta_tuples } => *delta_tuples,
            RemoteApply::Stale { .. } => 0,
        }
    }
}

/// One remote source's current standing in the placement map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteSource {
    /// The source's self-declared name.
    pub name: String,
    /// Highest sequence number accepted from the source.
    pub seq: u64,
    /// Tuples in the source's held cumulative shard.
    pub tuples: u64,
    /// Time since the source last delivered *anything* — a stale replay
    /// counts, because it still proves the node is alive and pushing.  A
    /// growing age is the first observable sign of a dead ingest node.
    pub last_push_age: Duration,
}

#[derive(Debug)]
struct RemoteEntry {
    seq: u64,
    shard: CountShard,
    /// When the source last delivered (applied *or* stale) — liveness, not
    /// data freshness.
    last_update: Instant,
}

/// Placement map from source name to the latest cumulative [`CountShard`]
/// accepted from that source.
#[derive(Debug, Default)]
pub struct RemoteShardMap {
    entries: BTreeMap<String, RemoteEntry>,
}

impl RemoteShardMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct sources currently placed.
    pub fn source_count(&self) -> usize {
        self.entries.len()
    }

    /// Total tuples across every held shard.
    pub fn total_tuples(&self) -> u64 {
        self.entries.values().map(|e| e.shard.tuple_count()).sum()
    }

    /// Current standing of every source, in name order.
    pub fn sources(&self) -> Vec<RemoteSource> {
        self.entries
            .iter()
            .map(|(name, e)| RemoteSource {
                name: name.clone(),
                seq: e.seq,
                tuples: e.shard.tuple_count(),
                last_push_age: e.last_update.elapsed(),
            })
            .collect()
    }

    /// Applies one delivery: replaces the source's entry if `seq` is
    /// strictly newer than the held one, otherwise discards it as stale.
    ///
    /// The shard must be over `schema`; a foreign-schema delivery is
    /// rejected before any state changes.
    pub fn apply(
        &mut self,
        schema: &Schema,
        source: &str,
        seq: u64,
        shard: CountShard,
    ) -> Result<RemoteApply> {
        if shard.schema() != schema {
            return Err(StreamError::InvalidConfig {
                reason: format!("shard from `{source}` is over a different schema"),
            });
        }
        match self.entries.get_mut(source) {
            Some(held) if seq <= held.seq => {
                // Stale data is still a liveness signal: the source reached
                // us, its counts just weren't news.
                held.last_update = Instant::now();
                Ok(RemoteApply::Stale { held_seq: held.seq })
            }
            Some(held) => {
                // Cumulative counts: the delta is what the source gained.
                // `saturating_sub` guards against a source that restarted
                // with fewer tuples but a newer sequence — the shard is
                // still replaced (latest wins), the delta is just 0.
                let delta_tuples = shard.tuple_count().saturating_sub(held.shard.tuple_count());
                held.seq = seq;
                held.shard = shard;
                held.last_update = Instant::now();
                Ok(RemoteApply::Applied { delta_tuples })
            }
            None => {
                let delta_tuples = shard.tuple_count();
                self.entries.insert(
                    source.to_string(),
                    RemoteEntry { seq, shard, last_update: Instant::now() },
                );
                Ok(RemoteApply::Applied { delta_tuples })
            }
        }
    }

    /// Every held entry as `(name, seq, shard)`, in name order — the raw
    /// material of a [`FabricCheckpoint`](crate::checkpoint::FabricCheckpoint).
    pub fn entries(&self) -> impl Iterator<Item = (&str, u64, &CountShard)> {
        self.entries.iter().map(|(name, e)| (name.as_str(), e.seq, &e.shard))
    }

    /// The held cumulative tables, for merging into the engine's fold.
    pub fn tables(&self) -> impl Iterator<Item = &ContingencyTable> {
        self.entries.values().map(|e| e.shard.table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::uniform(&[2, 2]).unwrap().into_shared()
    }

    fn shard_with(n: usize) -> CountShard {
        let mut s = CountShard::new(schema());
        for i in 0..n {
            s.record(&[i % 2, i % 2]).unwrap();
        }
        s
    }

    #[test]
    fn newer_sequences_replace_and_report_deltas() {
        let s = schema();
        let mut map = RemoteShardMap::new();
        let first = map.apply(&s, "node-a", 3, shard_with(3)).unwrap();
        assert_eq!(first, RemoteApply::Applied { delta_tuples: 3 });
        let second = map.apply(&s, "node-a", 8, shard_with(8)).unwrap();
        assert_eq!(second, RemoteApply::Applied { delta_tuples: 5 });
        assert_eq!(map.source_count(), 1);
        assert_eq!(map.total_tuples(), 8);
        let standing = map.sources();
        assert_eq!(standing.len(), 1);
        assert_eq!(standing[0].name, "node-a");
        assert_eq!(standing[0].seq, 8);
        assert_eq!(standing[0].tuples, 8);
    }

    #[test]
    fn stale_duplicate_and_reordered_deliveries_are_noops() {
        let s = schema();
        let mut map = RemoteShardMap::new();
        map.apply(&s, "node-a", 8, shard_with(8)).unwrap();
        // Duplicate of the current delivery.
        let dup = map.apply(&s, "node-a", 8, shard_with(8)).unwrap();
        assert_eq!(dup, RemoteApply::Stale { held_seq: 8 });
        // A delayed older delivery arriving after a newer one.
        let reordered = map.apply(&s, "node-a", 3, shard_with(3)).unwrap();
        assert_eq!(reordered, RemoteApply::Stale { held_seq: 8 });
        assert_eq!(map.total_tuples(), 8, "stale deliveries must not change held counts");
        assert_eq!(dup.delta_tuples(), 0);
        assert!(!reordered.applied());
    }

    #[test]
    fn sources_are_independent() {
        let s = schema();
        let mut map = RemoteShardMap::new();
        map.apply(&s, "node-a", 4, shard_with(4)).unwrap();
        map.apply(&s, "node-b", 2, shard_with(2)).unwrap();
        assert_eq!(map.source_count(), 2);
        assert_eq!(map.total_tuples(), 6);
        // node-b's sequence numbering does not interact with node-a's.
        assert!(map.apply(&s, "node-b", 3, shard_with(3)).unwrap().applied());
        assert_eq!(map.total_tuples(), 7);
    }

    #[test]
    fn foreign_schema_deliveries_are_rejected() {
        let mut map = RemoteShardMap::new();
        let other = Schema::uniform(&[5]).unwrap().into_shared();
        let foreign = CountShard::new(Arc::clone(&other));
        assert!(map.apply(&schema(), "node-a", 1, foreign).is_err());
        assert_eq!(map.source_count(), 0, "rejected deliveries leave no trace");
    }

    #[test]
    fn stale_deliveries_still_refresh_liveness_age() {
        let s = schema();
        let mut map = RemoteShardMap::new();
        map.apply(&s, "node-a", 8, shard_with(8)).unwrap();
        std::thread::sleep(Duration::from_millis(30));
        assert!(map.sources()[0].last_push_age >= Duration::from_millis(25));
        // A stale replay carries no new data but proves the node is alive.
        map.apply(&s, "node-a", 8, shard_with(8)).unwrap();
        assert!(map.sources()[0].last_push_age < Duration::from_millis(25));
    }

    #[test]
    fn restarted_source_with_fewer_tuples_still_wins_by_sequence() {
        let s = schema();
        let mut map = RemoteShardMap::new();
        map.apply(&s, "node-a", 5, shard_with(5)).unwrap();
        let restarted = map.apply(&s, "node-a", 6, shard_with(2)).unwrap();
        assert_eq!(restarted, RemoteApply::Applied { delta_tuples: 0 });
        assert_eq!(map.total_tuples(), 2, "latest cumulative shard wins");
    }
}
