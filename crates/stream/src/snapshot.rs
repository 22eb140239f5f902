//! Snapshot isolation: versioned, immutable knowledge-base handles.
//!
//! Queries must keep being answered while a refit runs.  The engine
//! publishes each refitted [`KnowledgeBase`] as an immutable, versioned
//! [`Snapshot`] behind an `Arc`, and swaps the shared slot atomically.  The
//! slot is an [`arc_swap::ArcSwapOption`] — an atomic pointer guarded by
//! striped borrow counters, whose **readers are wait-free**:
//! [`SnapshotHandle::load`] is a fixed, loop-free instruction sequence
//! that never contends with a publish, so a refit landing mid-query costs
//! readers nothing.  Readers load an `Arc` once per query (or per request
//! batch) and then work against a consistent knowledge base, no matter how
//! many swaps happen meanwhile.
//!
//! Loads are *monotone* per thread: once a reader has observed version
//! `v`, every later load it performs (on any clone of the handle) observes
//! a version `>= v` — and a load always returns the snapshot that is
//! current at the instant the pointer is read.  `tests/snapshot_stress.rs`
//! at the workspace root hammers these guarantees with concurrent readers
//! under 10k publishes.

use arc_swap::ArcSwapOption;
use pka_core::KnowledgeBase;
use pka_maxent::{
    FactorGraph, JointDistribution, MarginalLattice, DEFAULT_DENSE_CEILING, DEFAULT_LATTICE_ORDER,
};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::sync::Arc;

/// One published, immutable state of the streaming knowledge base.
///
/// The carried knowledge base is published **evaluated**
/// ([`KnowledgeBase::with_evaluation`]): its model's evaluator — the dense
/// joint at or below the dense ceiling, the factor graph above it — and
/// the **marginal lattice** (every marginal table up to a cutoff order,
/// default [`DEFAULT_LATTICE_ORDER`]) built from that evaluator are
/// materialised once at publish time.  Every query, in process or over the
/// wire, resolves through `knowledge_base().evaluate`: one table lookup
/// when the lattice covers the assignment's variable set, the evaluator's
/// stride walk or elimination otherwise.  Above the ceiling nothing is
/// ever `O(total cells)`.  A snapshot rebuilt from decayed or re-merged
/// counts simply rebuilds these caches at publish, so staleness policies
/// never have to reason about them.
#[derive(Debug, Clone)]
pub struct Snapshot {
    knowledge_base: KnowledgeBase,
    version: u64,
    observations: u64,
    warm_started: bool,
}

/// The serialisable identity card of a [`Snapshot`] — what a server reports
/// for `stats`/`snapshot-version` requests and what `pka-fabric` followers
/// exchange (inside `snapshot-sync` payloads) to decide whether a replica
/// is current.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotMeta {
    /// Wire-format stamp; always [`crate::WIRE_FORMAT_VERSION`] for
    /// locally-built metadata.  Checked by [`SnapshotMeta::from_value`] so
    /// cross-node payloads from an incompatible build fail loudly.
    pub format_version: u64,
    /// Monotonically increasing publication number (1 for the first fit).
    pub version: u64,
    /// Number of stream tuples the snapshot was fitted on.
    pub observations: u64,
    /// Whether the refit was warm-started from its predecessor.
    pub warm_started: bool,
    /// Total constraints in the fitted knowledge base.
    pub constraints: usize,
    /// Number of schema attributes.
    pub attributes: usize,
}

impl Snapshot {
    /// Assembles a snapshot with the default lattice order and dense
    /// ceiling.  Normally done by the engine's refresh; public so
    /// replication layers (and stress tests) can publish snapshots they
    /// received or rebuilt themselves.
    pub fn new(
        knowledge_base: KnowledgeBase,
        version: u64,
        observations: u64,
        warm_started: bool,
    ) -> Self {
        Self::with_lattice_order_and_ceiling(
            knowledge_base,
            version,
            observations,
            warm_started,
            DEFAULT_LATTICE_ORDER,
            DEFAULT_DENSE_CEILING,
        )
    }

    /// Assembles a snapshot, materialising the model's evaluator for
    /// `dense_ceiling` and the marginal lattice up to `lattice_order` on the
    /// carried knowledge base.  At or below the ceiling the publish-time
    /// cost is one dense-joint build plus the lattice summation; above it
    /// no dense joint is ever allocated — the lattice is built by variable
    /// elimination over the model's factor graph.
    pub fn with_lattice_order_and_ceiling(
        knowledge_base: KnowledgeBase,
        version: u64,
        observations: u64,
        warm_started: bool,
        lattice_order: usize,
        dense_ceiling: usize,
    ) -> Self {
        Self {
            knowledge_base: knowledge_base.with_evaluation(lattice_order, dense_ceiling),
            version,
            observations,
            warm_started,
        }
    }

    /// The acquired knowledge base: query it freely, it never changes.
    pub fn knowledge_base(&self) -> &KnowledgeBase {
        &self.knowledge_base
    }

    /// The dense joint distribution materialised at publish time — `None`
    /// when the schema is above the snapshot's dense ceiling.
    pub fn joint(&self) -> Option<&JointDistribution> {
        self.knowledge_base.evaluator().joint()
    }

    /// The model's factor graph: the one published when the snapshot is
    /// factored, built on the spot otherwise.
    pub fn factor_graph(&self) -> Cow<'_, FactorGraph> {
        self.knowledge_base.factor_graph()
    }

    /// The marginal lattice materialised at publish time — the fast path
    /// for every marginal/conditional query of order at most the lattice's
    /// cutoff.
    pub fn lattice(&self) -> &MarginalLattice {
        self.knowledge_base.lattice().expect("snapshots are published with a lattice")
    }

    /// Monotonically increasing publication number (1 for the first fit).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of stream tuples this snapshot was fitted on.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Whether this snapshot's refit was warm-started from its predecessor.
    pub fn warm_started(&self) -> bool {
        self.warm_started
    }

    /// The serialisable metadata of this snapshot.
    pub fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            format_version: crate::WIRE_FORMAT_VERSION,
            version: self.version,
            observations: self.observations,
            warm_started: self.warm_started,
            constraints: self.knowledge_base.constraints().len(),
            attributes: self.knowledge_base.schema().len(),
        }
    }
}

impl SnapshotMeta {
    /// Restores metadata from its wire [`serde::Value`] form, rejecting
    /// payloads whose `format_version` is missing or not
    /// [`crate::WIRE_FORMAT_VERSION`] with the structured
    /// [`crate::StreamError::FormatVersion`] error.
    pub fn from_value(value: &serde::Value) -> crate::Result<Self> {
        crate::shard::check_format_version(value)?;
        Deserialize::deserialize(value)
            .map_err(|e| crate::StreamError::InvalidConfig { reason: e.to_string() })
    }

    /// Checks an already-deserialised stamp (e.g. a meta rebuilt field by
    /// field) against [`crate::WIRE_FORMAT_VERSION`].
    pub fn validate_format(&self) -> crate::Result<()> {
        if self.format_version == crate::WIRE_FORMAT_VERSION {
            Ok(())
        } else {
            Err(crate::StreamError::FormatVersion { found: Some(self.format_version) })
        }
    }
}

/// A cloneable read handle onto the engine's latest snapshot.
///
/// Handles are cheap to clone and safe to move to reader threads; they see
/// every published snapshot and a refit never blocks them at all: the load
/// path is wait-free (no lock, no retry loop).  A publish only ever waits
/// for loads already in flight — a handful of instructions each — never
/// for readers between loads, which is where reader threads spend
/// virtually all of their time.
#[derive(Debug, Clone, Default)]
pub struct SnapshotHandle {
    slot: Arc<ArcSwapOption<Snapshot>>,
}

impl SnapshotHandle {
    /// A handle with no published snapshot yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// The latest snapshot, if any fit has been published (wait-free).
    pub fn load(&self) -> Option<Arc<Snapshot>> {
        self.slot.load_full()
    }

    /// The latest published version, if any.
    pub fn version(&self) -> Option<u64> {
        self.load().map(|s| s.version())
    }

    /// Publishes a new snapshot, making it visible to every handle clone.
    ///
    /// Public for the same reason [`Snapshot::new`] is: a replication layer
    /// that receives snapshots from a leader publishes them through the
    /// same slot local refits use.  Versions should be monotonically
    /// increasing; readers rely on it to detect staleness.
    pub fn publish(&self, snapshot: Snapshot) {
        self.slot.store(Some(Arc::new(snapshot)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{ContingencyTable, Schema};
    use pka_core::Acquisition;

    fn snapshot(version: u64) -> Snapshot {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let t = ContingencyTable::from_counts(schema, vec![40, 10, 10, 40]).unwrap();
        let kb = Acquisition::with_defaults().run(&t).unwrap().knowledge_base;
        Snapshot::new(kb, version, 100, version > 1)
    }

    #[test]
    fn handles_share_published_snapshots() {
        let handle = SnapshotHandle::new();
        let reader = handle.clone();
        assert!(reader.load().is_none());
        handle.publish(snapshot(1));
        assert_eq!(reader.version(), Some(1));

        // A reader that loaded before a swap keeps its consistent state.
        let held = reader.load().unwrap();
        handle.publish(snapshot(2));
        assert_eq!(held.version(), 1);
        assert_eq!(reader.version(), Some(2));
        assert!(reader.load().unwrap().warm_started());
    }

    #[test]
    fn snapshot_lattice_serves_covered_queries() {
        use pka_contingency::Assignment;
        let s = snapshot(1);
        // The default order-2 lattice over a 2-attribute schema covers
        // everything, including the full joint cells.
        assert_eq!(s.lattice().max_order(), 2);
        let a = Assignment::from_pairs([(0, 0), (1, 0)]);
        let from_lattice = s.lattice().probability(&a).unwrap();
        let joint = s.joint().expect("4 cells is far below the dense ceiling");
        assert!((from_lattice - joint.probability(&a)).abs() < 1e-12);
        // The carried knowledge base answers from the same lattice.
        assert_eq!(s.knowledge_base().evaluate(&a), (from_lattice, pka_maxent::EvalPath::Lattice));
        // A custom order is honoured (order 1: pairs fall back).
        let kb = s.knowledge_base().clone();
        let shallow =
            Snapshot::with_lattice_order_and_ceiling(kb, 2, 100, false, 1, DEFAULT_DENSE_CEILING);
        assert_eq!(shallow.lattice().max_order(), 1);
        assert_eq!(shallow.lattice().probability(&a), None);
        assert!(shallow.lattice().probability(&Assignment::single(0, 0)).is_some());
    }

    #[test]
    fn factored_publish_skips_the_dense_joint_and_answers_identically() {
        use pka_contingency::Assignment;
        let dense = snapshot(1);
        // Rebuild the same knowledge base with a zero ceiling: the joint
        // must not be materialised and every query must still agree.
        let kb = dense.knowledge_base().clone();
        let factored = Snapshot::with_lattice_order_and_ceiling(kb, 1, 100, false, 2, 0);
        assert!(factored.joint().is_none(), "ceiling 0 must skip the dense joint");
        let probes = [
            Assignment::empty(),
            Assignment::single(0, 0),
            Assignment::single(1, 1),
            Assignment::from_pairs([(0, 0), (1, 0)]),
            Assignment::from_pairs([(0, 1), (1, 0)]),
        ];
        for a in &probes {
            let fast = factored.lattice().probability(a).unwrap();
            let truth = dense.joint().unwrap().probability(a);
            assert!((fast - truth).abs() < 1e-9, "probe {a:?}: {fast} vs {truth}");
            // The graph fallback agrees too (what uncovered queries use).
            assert!((factored.factor_graph().probability(a) - truth).abs() < 1e-9);
            // And so does the carried knowledge base.
            assert!((factored.knowledge_base().probability(a) - truth).abs() < 1e-9);
        }
    }

    #[test]
    fn meta_reports_the_snapshot_identity() {
        let s = snapshot(3);
        let meta = s.meta();
        assert_eq!(meta.version, 3);
        assert_eq!(meta.observations, 100);
        assert!(meta.warm_started);
        assert_eq!(meta.attributes, 2);
        assert_eq!(meta.constraints, s.knowledge_base().constraints().len());
        assert_eq!(meta.format_version, crate::WIRE_FORMAT_VERSION);
        meta.validate_format().unwrap();
        // The metadata round-trips through the wire format.
        let json = serde_json::to_string(&meta).unwrap();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        let back = SnapshotMeta::from_value(&value).unwrap();
        assert_eq!(back, meta);
    }

    #[test]
    fn meta_format_version_is_enforced() {
        use crate::StreamError;
        let meta = snapshot(1).meta();
        let json = serde_json::to_string(&meta).unwrap();
        let bumped = json.replace(
            &format!("\"format_version\":{}", crate::WIRE_FORMAT_VERSION),
            "\"format_version\":77",
        );
        let value: serde::Value = serde_json::from_str(&bumped).unwrap();
        assert!(matches!(
            SnapshotMeta::from_value(&value),
            Err(StreamError::FormatVersion { found: Some(77) })
        ));
        let mut forged = meta;
        forged.format_version = 0;
        assert!(matches!(
            forged.validate_format(),
            Err(StreamError::FormatVersion { found: Some(0) })
        ));
    }
}
