//! Mergeable count shards — the unit of distributed ingestion.
//!
//! A [`CountShard`] is a contingency table owned by one node.  Because
//! cell counts form a commutative monoid under addition (identity: the
//! all-zero table), shards can be built independently, in any order, over
//! any partition of the stream, and combined with [`CountShard::merge`]
//! into exactly the table a single sequential pass would have produced.
//! Those algebraic laws are what make sharded ingestion *exact*; they are
//! property-tested in `tests/shard_laws.rs` at the workspace root.

use crate::error::StreamError;
use crate::{Result, WIRE_FORMAT_VERSION};
use pka_contingency::{ContingencyTable, Sample, Schema};
use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// One node's private slice of the stream's contingency counts.
///
/// Shards serialise (schema + dense counts) so they can cross process and
/// node boundaries: because merge is associative and commutative, a
/// coordinator can deserialise shards produced anywhere and combine them in
/// any order — the groundwork for multi-node shard placement.  The wire
/// form is an object `{"format_version": …, "table": …}`; the version
/// stamp is checked on deserialisation (see [`WIRE_FORMAT_VERSION`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountShard {
    table: ContingencyTable,
}

/// Reads the `format_version` stamp of a wire payload, rejecting payloads
/// that declare a different version than [`WIRE_FORMAT_VERSION`] — or none.
pub(crate) fn check_format_version(value: &Value) -> Result<()> {
    let found = value.get("format_version").and_then(Value::as_u64);
    if found == Some(WIRE_FORMAT_VERSION) {
        Ok(())
    } else {
        Err(StreamError::FormatVersion { found })
    }
}

impl Serialize for CountShard {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("format_version".to_string(), Value::U64(WIRE_FORMAT_VERSION)),
            ("table".to_string(), self.table.serialize()),
        ])
    }
}

impl Deserialize for CountShard {
    fn deserialize(value: &Value) -> std::result::Result<Self, serde::Error> {
        check_format_version(value).map_err(|e| serde::Error::custom(e.to_string()))?;
        let table = serde::de_field(value, "table")?;
        Ok(Self { table })
    }
}

impl CountShard {
    /// An empty shard over a schema — the monoid identity.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self { table: ContingencyTable::zeros(schema) }
    }

    /// Wraps an existing table as a shard (e.g. counts recovered from a
    /// checkpoint).
    pub fn from_table(table: ContingencyTable) -> Self {
        Self { table }
    }

    /// The schema the shard counts over.
    pub fn schema(&self) -> &Schema {
        self.table.schema()
    }

    /// Number of tuples recorded in this shard.
    pub fn tuple_count(&self) -> u64 {
        self.table.total()
    }

    /// True if no tuple has been recorded.
    pub fn is_empty(&self) -> bool {
        self.table.total() == 0
    }

    /// Records one tuple given as raw value indices.
    pub fn record(&mut self, values: &[usize]) -> Result<()> {
        self.table.increment(values)?;
        Ok(())
    }

    /// Records one validated sample.
    pub fn record_sample(&mut self, sample: &Sample) -> Result<()> {
        self.table.increment_sample(sample)?;
        Ok(())
    }

    /// Records a batch of raw rows.  Returns the number recorded; on error
    /// nothing before the offending row is rolled back (callers wanting
    /// atomic batches count into a scratch shard and absorb it only on
    /// success, as [`crate::StreamingEngine::ingest_batch`] does).
    pub fn record_batch<R: AsRef<[usize]>>(&mut self, rows: &[R]) -> Result<u64> {
        for row in rows {
            self.record(row.as_ref())?;
        }
        Ok(rows.len() as u64)
    }

    /// Combines two shards by value.  Associative and commutative: for any
    /// shards `a, b, c` over one schema,
    /// `a.merge(b.merge(c)?)? == a.merge(b)?.merge(c)?` and
    /// `a.merge(b)? == b.merge(a)?`.
    pub fn merge(self, other: CountShard) -> Result<CountShard> {
        Ok(Self { table: self.table.combined(other.table)? })
    }

    /// In-place variant of [`CountShard::merge`].
    pub fn absorb(&mut self, other: &CountShard) -> Result<()> {
        self.table.merge(&other.table)?;
        Ok(())
    }

    /// Serialises the shard to compact JSON — the on-the-wire form for
    /// shipping counts between nodes.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self)
            .map_err(|e| StreamError::InvalidConfig { reason: e.to_string() })
    }

    /// Restores a shard from [`CountShard::to_json`] output; the table
    /// decodes through its checked constructor, refusing a hostile payload.
    pub fn from_json(text: &str) -> Result<Self> {
        let value: Value = serde_json::from_str(text)
            .map_err(|e| StreamError::InvalidConfig { reason: e.to_string() })?;
        Self::from_value(&value)
    }

    /// Restores a shard from its wire [`Value`] form — the in-protocol
    /// counterpart of [`CountShard::from_json`], with the same format
    /// version check and validation.
    pub fn from_value(value: &Value) -> Result<Self> {
        // Checked here (not only inside `Deserialize`) so callers get the
        // structured `FormatVersion` error rather than message text.
        check_format_version(value)?;
        Deserialize::deserialize(value)
            .map_err(|e: serde::Error| StreamError::InvalidConfig { reason: e.to_string() })
    }

    /// Read access to the underlying counts.
    pub fn table(&self) -> &ContingencyTable {
        &self.table
    }

    /// Unwraps into the underlying table.
    pub fn into_table(self) -> ContingencyTable {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::uniform(&[2, 3]).unwrap().into_shared()
    }

    #[test]
    fn record_and_merge_counts_add() {
        let mut a = CountShard::new(schema());
        let mut b = CountShard::new(schema());
        a.record(&[0, 1]).unwrap();
        a.record(&[0, 1]).unwrap();
        b.record(&[0, 1]).unwrap();
        b.record(&[1, 2]).unwrap();
        let merged = a.merge(b).unwrap();
        assert_eq!(merged.tuple_count(), 4);
        assert_eq!(merged.table().count_values(&[0, 1]), 3);
        assert_eq!(merged.table().count_values(&[1, 2]), 1);
    }

    #[test]
    fn empty_shard_is_identity() {
        let mut a = CountShard::new(schema());
        a.record_batch(&[vec![0, 0], vec![1, 1]]).unwrap();
        let merged = a.clone().merge(CountShard::new(schema())).unwrap();
        assert_eq!(merged, a);
    }

    #[test]
    fn schema_mismatch_is_rejected() {
        let a = CountShard::new(schema());
        let b = CountShard::new(Schema::uniform(&[4]).unwrap().into_shared());
        assert!(a.merge(b).is_err());
    }

    #[test]
    fn json_round_trip_preserves_counts_and_merge() {
        let mut a = CountShard::new(schema());
        a.record_batch(&[vec![0, 0], vec![1, 2], vec![1, 2]]).unwrap();
        let json = a.to_json().unwrap();
        let back = CountShard::from_json(&json).unwrap();
        assert_eq!(back, a);
        // A deserialised shard merges exactly like the original — the
        // property multi-node placement depends on.
        let mut b = CountShard::new(schema());
        b.record(&[0, 1]).unwrap();
        assert_eq!(back.merge(b.clone()).unwrap(), a.merge(b).unwrap());
    }

    #[test]
    fn tampered_payloads_are_rejected() {
        let mut a = CountShard::new(schema());
        a.record(&[0, 0]).unwrap();
        let json = a.to_json().unwrap();
        // A total that disagrees with the counts must not be trusted.
        let tampered = json.replace("\"total\":1", "\"total\":999");
        assert!(tampered != json, "fixture must actually tamper");
        assert!(CountShard::from_json(&tampered).is_err());
        assert!(CountShard::from_json("{").is_err());
        assert!(CountShard::from_json("{\"not\":\"a shard\"}").is_err());
        // Forged schema strides must not survive either: the schema's
        // derived index layout is recomputed on deserialisation, so a
        // payload claiming strides [100, 1] (which would index out of
        // bounds) round-trips to the correct [3, 1] layout.
        let forged = json.replace("\"strides\":[3,1]", "\"strides\":[100,1]");
        assert!(forged != json, "fixture must actually forge strides");
        let restored = CountShard::from_json(&forged).unwrap();
        assert_eq!(restored, a, "derived schema state is rebuilt, not trusted");
        assert_eq!(restored.schema().strides(), &[3, 1]);
    }

    #[test]
    fn format_version_is_stamped_and_enforced() {
        let mut a = CountShard::new(schema());
        a.record(&[1, 1]).unwrap();
        let json = a.to_json().unwrap();
        assert!(
            json.starts_with(&format!("{{\"format_version\":{WIRE_FORMAT_VERSION}")),
            "wire payload must lead with its version stamp: {json}"
        );
        // A mismatched version is a structured error naming what was found.
        let bumped = json.replace(
            &format!("\"format_version\":{WIRE_FORMAT_VERSION}"),
            "\"format_version\":999",
        );
        assert!(matches!(
            CountShard::from_json(&bumped),
            Err(StreamError::FormatVersion { found: Some(999) })
        ));
        // A payload with no stamp at all (e.g. from a pre-fabric build) is
        // rejected the same way rather than being trusted.
        let stripped = json.replace(&format!("\"format_version\":{WIRE_FORMAT_VERSION},"), "");
        assert!(matches!(
            CountShard::from_json(&stripped),
            Err(StreamError::FormatVersion { found: None })
        ));
    }

    #[test]
    fn invalid_rows_are_rejected() {
        let mut a = CountShard::new(schema());
        assert!(a.record(&[0, 9]).is_err());
        assert!(a.record(&[0]).is_err());
        assert_eq!(a.tuple_count(), 0);
    }
}
