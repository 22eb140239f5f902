//! The [`StreamingEngine`]: ingest → maybe-refit → snapshot swap.

use crate::checkpoint::{CheckpointSource, FabricCheckpoint};
use crate::error::StreamError;
use crate::journal::JournalRecovery;
use crate::policy::RefreshPolicy;
use crate::remote::{RemoteShardMap, RemoteSource};
use crate::shard::CountShard;
use crate::snapshot::{Snapshot, SnapshotHandle, SnapshotMeta};
use crate::Result;
use pka_contingency::{ContingencyTable, Dataset, Sample, Schema};
use pka_core::{Acquisition, AcquisitionConfig, KnowledgeBase};
use pka_maxent::{CacheStats, IncidenceCache};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a [`StreamingEngine`].
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// When accumulated data trips an automatic refresh.
    pub policy: RefreshPolicy,
    /// Configuration of the underlying acquisition procedure.
    pub acquisition: AcquisitionConfig,
    /// Cutoff order of the marginal lattice each published snapshot
    /// materialises for the query fast path (see
    /// [`pka_maxent::MarginalLattice`]).
    pub lattice_order: usize,
}

impl StreamConfig {
    /// Defaults: 10 %-growth refresh, the memo's acquisition defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the refresh policy.
    pub fn with_policy(mut self, policy: RefreshPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the acquisition configuration.
    pub fn with_acquisition(mut self, acquisition: AcquisitionConfig) -> Self {
        self.acquisition = acquisition;
        self
    }

    /// Sets the lattice cutoff order for published snapshots (default
    /// [`pka_maxent::DEFAULT_LATTICE_ORDER`]; 0 still materialises the
    /// order-0 grand-total table).
    pub fn with_lattice_order(mut self, lattice_order: usize) -> Self {
        self.lattice_order = lattice_order;
        self
    }

    /// Sets the dense ceiling for both acquisition and snapshot publishing:
    /// joints above this many cells are solved, lattice-built and served
    /// factored, never materialised densely (default
    /// [`pka_maxent::DEFAULT_DENSE_CEILING`]).
    pub fn with_dense_ceiling(mut self, cells: usize) -> Self {
        self.acquisition = self.acquisition.with_dense_ceiling(cells);
        self
    }

    /// Caps the constraint order the acquisition search explores on each
    /// refit (default: up to the attribute count).  On wide schemas the
    /// candidate space explodes combinatorially with order, so servers for
    /// many-attribute deployments should cap this at 2 or 3.
    pub fn with_max_order(mut self, order: usize) -> Self {
        self.acquisition = self.acquisition.with_max_order(order);
        self
    }
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            policy: RefreshPolicy::default(),
            acquisition: AcquisitionConfig::default(),
            lattice_order: pka_maxent::DEFAULT_LATTICE_ORDER,
        }
    }
}

/// What one refit produced — the numbers behind the warm-vs-cold benchmark.
#[derive(Debug, Clone)]
pub struct RefitReport {
    /// Version the produced snapshot was published under.
    pub version: u64,
    /// Whether the refit was warm-started from the previous snapshot.
    pub warm_started: bool,
    /// Tuples the refit was performed over.
    pub observations: u64,
    /// Total constraints in the refitted knowledge base.
    pub constraints: usize,
    /// Solver sweeps spent across the whole run (initial fit + every
    /// per-promotion refit) — the cost warm starts reduce.
    pub solver_iterations: usize,
    /// Wall-clock time of the refit.
    pub wall_time: Duration,
    /// Where the refit's time went, phase by phase.
    pub phases: RefitPhases,
}

/// The phases of one refit, in execution order.  `scoring + fit` is the
/// acquisition run that produced the snapshot, which is most of
/// [`RefitReport::wall_time`] (a warm run that fails and falls back to a
/// cold one is in `wall_time` only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefitPhases {
    /// Merging the local counts and remote sources into one table.
    pub merge: Duration,
    /// Tabulating observed marginals and scoring candidate cells.
    pub scoring: Duration,
    /// Solver fits (the initial one plus one per promoted cell) and the
    /// final renormalisation of the fitted model.
    pub fit: Duration,
    /// Building the published snapshot's marginal lattice.
    pub lattice: Duration,
    /// Swapping the snapshot in for readers.
    pub publish: Duration,
}

/// What one ingest call did.
#[derive(Debug)]
pub struct IngestReport {
    /// Tuples accepted into the local counts.
    pub accepted: u64,
    /// What the refresh policy did after the tuples were absorbed.
    pub refit: RefitOutcome,
}

/// One `shard-push` delivery awaiting absorption — the input element of
/// [`StreamingEngine::accept_remote_shards`].
#[derive(Debug)]
pub struct RemoteDelivery {
    /// The pushing node's self-declared source name.
    pub source: String,
    /// The delivery's monotone sequence number.
    pub seq: u64,
    /// The source's cumulative counts.
    pub shard: CountShard,
}

/// What absorbing one remote shard delivery did — the fabric-facing
/// counterpart of [`IngestReport`].
#[derive(Debug)]
pub struct RemoteShardReport {
    /// Whether the delivery replaced the source's held shard (false means
    /// it was stale and discarded — a no-op).
    pub applied: bool,
    /// Tuples the source gained over its previously-held shard.
    pub delta_tuples: u64,
    /// Tuples now held for the source.
    pub source_tuples: u64,
    /// What the refresh policy did after the delivery was absorbed.
    pub refit: RefitOutcome,
}

/// What applying one `snapshot-sync` delivery to a replica engine did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Whether the delivery was published (false means it was stale — its
    /// version did not exceed the replica's current one — and was
    /// discarded, keeping replica versions monotone under replays and
    /// reorders).
    pub applied: bool,
    /// The replica's current snapshot version after the call.
    pub version: u64,
}

/// What [`StreamingEngine::restore`] brought back from durable state,
/// surfaced through `stats` so operators can see a recovery happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Count-sources restored: every checkpointed remote source, plus one
    /// for non-empty locally-journalled (or checkpointed local) counts.
    pub recovered_sources: u64,
    /// Total tuples the restored counts carry.
    pub recovered_tuples: u64,
    /// Bytes of torn/corrupt journal tail discarded during recovery.
    pub journal_truncated_bytes: u64,
}

/// The refresh-policy outcome attached to an ingest call.
///
/// An `Err` from an ingest method always means the batch was **rejected**
/// (nothing was recorded).  A refit failure after a successfully absorbed
/// batch is therefore reported here instead of as an ingest error —
/// otherwise a caller retrying the "failed" call would double-count every
/// tuple.
#[derive(Debug)]
pub enum RefitOutcome {
    /// The policy did not trip; no refit was attempted.
    NotTriggered,
    /// A refit ran and published a new snapshot.
    Completed(RefitReport),
    /// The policy tripped but the refit failed.  The tuples **are**
    /// ingested, the previous snapshot keeps serving queries, and the dirty
    /// counter is preserved so the next ingest (or a manual
    /// [`StreamingEngine::refresh`]) retries.
    Failed(StreamError),
}

impl RefitOutcome {
    /// The published refit report, if one completed.
    pub fn report(&self) -> Option<&RefitReport> {
        match self {
            RefitOutcome::Completed(report) => Some(report),
            _ => None,
        }
    }

    /// True if a refit completed and published a new snapshot.
    pub fn is_completed(&self) -> bool {
        matches!(self, RefitOutcome::Completed(_))
    }

    /// The refit error, if the policy tripped and the refit failed.
    pub fn error(&self) -> Option<&StreamError> {
        match self {
            RefitOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// A long-lived streaming-acquisition engine.
///
/// The engine owns one local [`CountShard`] fed by
/// [`StreamingEngine::ingest_batch`] and folds it with the shards remote
/// nodes push.  It tracks staleness with a dirty counter consulted against
/// its [`RefreshPolicy`], and on refresh re-runs acquisition
/// **warm-started** from the previous snapshot's constraint set and
/// a-values.  Each refit is published as an immutable versioned
/// [`Snapshot`]; readers hold [`SnapshotHandle`] clones and keep querying
/// the last consistent snapshot while a refit runs.
///
/// ```
/// use pka_contingency::{Assignment, Schema};
/// use pka_stream::{RefreshPolicy, StreamConfig, StreamingEngine};
///
/// let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
/// let config = StreamConfig::new().with_policy(RefreshPolicy::EveryNTuples(4));
/// let mut engine = StreamingEngine::new(schema, config).unwrap();
///
/// // Two correlated attributes, arriving as a stream.
/// let report = engine
///     .ingest_batch(&[[0, 0], [0, 0], [1, 1], [1, 1]])
///     .unwrap();
/// assert!(report.refit.is_completed(), "policy tripped on the 4th tuple");
///
/// let snapshot = engine.snapshot().unwrap();
/// assert_eq!(snapshot.version(), 1);
/// assert_eq!(snapshot.observations(), 4);
/// // Four tuples is far too little evidence for the significance test, so
/// // the snapshot holds the independence model: P(0,0) = 0.5 × 0.5.
/// let p = snapshot
///     .knowledge_base()
///     .probability(&Assignment::from_pairs([(0, 0), (1, 0)]));
/// assert!((p - 0.25).abs() < 1e-9);
/// ```
#[derive(Debug)]
pub struct StreamingEngine {
    schema: Arc<Schema>,
    acquisition: Acquisition,
    policy: RefreshPolicy,
    /// Every locally ingested or recovered tuple.
    local: CountShard,
    /// Tuples ingested since the last published fit.
    pending: u64,
    /// Tuples covered by the last published fit.
    fitted: u64,
    next_version: u64,
    handle: SnapshotHandle,
    refits: u64,
    /// Solver sweeps spent across every refit so far — the cost the warm
    /// starts and the incidence cache exist to reduce, surfaced through
    /// [`StreamingEngine::total_solver_iterations`] and `pka-serve` stats.
    solver_iterations: u64,
    /// Constraint-to-cell incidence lists shared by every refit: the
    /// steady-state warm refit re-solves the same constraint set, so its
    /// structural pass is served from here instead of being recomputed.
    solver_cache: IncidenceCache,
    /// Cutoff order of the marginal lattice built into each published
    /// snapshot.
    lattice_order: usize,
    /// Cumulative shards accepted from remote ingest nodes, one slot per
    /// source (the coordinator role of `pka-fabric`).
    remote: RemoteShardMap,
    /// Snapshots accepted via [`StreamingEngine::apply_synced_snapshot`]
    /// (the replica role of `pka-fabric`).
    synced: u64,
    /// What [`StreamingEngine::restore`] recovered at boot (all zero when
    /// the engine started fresh).
    recovery: RecoveryStats,
    /// Phase times of the last completed refit.
    last_refit: Option<RefitPhases>,
}

impl StreamingEngine {
    /// Creates an engine over a schema.
    pub fn new(schema: Arc<Schema>, config: StreamConfig) -> Result<Self> {
        config.policy.validate()?;
        Ok(Self {
            local: CountShard::new(Arc::clone(&schema)),
            schema,
            acquisition: Acquisition::new(config.acquisition),
            policy: config.policy,
            pending: 0,
            fitted: 0,
            next_version: 1,
            handle: SnapshotHandle::new(),
            refits: 0,
            solver_iterations: 0,
            solver_cache: IncidenceCache::new(),
            lattice_order: config.lattice_order,
            remote: RemoteShardMap::new(),
            synced: 0,
            recovery: RecoveryStats::default(),
            last_refit: None,
        })
    }

    /// Creates an engine with the default configuration.
    pub fn with_defaults(schema: Arc<Schema>) -> Result<Self> {
        Self::new(schema, StreamConfig::default())
    }

    /// The schema the stream is defined over.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Total tuples counted by the engine: locally-ingested tuples plus
    /// everything currently held from remote sources.
    pub fn total_ingested(&self) -> u64 {
        self.local_tuples() + self.remote.total_tuples()
    }

    /// Tuples ingested locally (excluding remote shard deliveries).
    pub fn local_tuples(&self) -> u64 {
        self.local.tuple_count()
    }

    /// Number of remote sources currently holding a slot in the placement
    /// map.
    pub fn remote_source_count(&self) -> usize {
        self.remote.source_count()
    }

    /// Total tuples held from remote sources.
    pub fn remote_tuples(&self) -> u64 {
        self.remote.total_tuples()
    }

    /// Current standing of every remote source, in name order.
    pub fn remote_sources(&self) -> Vec<RemoteSource> {
        self.remote.sources()
    }

    /// Snapshots accepted via [`StreamingEngine::apply_synced_snapshot`].
    pub fn synced_snapshots(&self) -> u64 {
        self.synced
    }

    /// Tuples ingested since the last published fit.
    pub fn pending(&self) -> u64 {
        self.pending
    }

    /// Number of refits performed so far.
    pub fn refit_count(&self) -> u64 {
        self.refits
    }

    /// Reuse counters of the solver's incidence cache — how often refits
    /// skipped the `O(constraints × cells)` structural pass.
    pub fn solver_cache_stats(&self) -> CacheStats {
        self.solver_cache.stats()
    }

    /// Total solver sweeps spent across every refit so far.
    pub fn total_solver_iterations(&self) -> u64 {
        self.solver_iterations
    }

    /// Phase times of the last completed refit (`None` before the first).
    pub fn last_refit_phases(&self) -> Option<RefitPhases> {
        self.last_refit
    }

    /// A cloneable read handle for query threads.
    pub fn handle(&self) -> SnapshotHandle {
        self.handle.clone()
    }

    /// The latest published snapshot, if any.
    pub fn snapshot(&self) -> Option<Arc<Snapshot>> {
        self.handle.load()
    }

    /// Ingests a batch of raw tuples.
    ///
    /// The batch is counted into a scratch shard, each tuple validated
    /// exactly once by the checked increment.  Only if the whole batch
    /// counts cleanly is the scratch shard added to the local counts — so
    /// an `Err` always means nothing was recorded (all-or-nothing) — and,
    /// if the dirty counter trips the policy, a warm-started refit follows.
    pub fn ingest_batch<R: AsRef<[usize]>>(&mut self, rows: &[R]) -> Result<IngestReport> {
        if rows.is_empty() {
            return Ok(IngestReport { accepted: 0, refit: RefitOutcome::NotTriggered });
        }
        let mut batch = CountShard::new(Arc::clone(&self.schema));
        batch.record_batch(rows)?;
        self.local.absorb(&batch)?;
        self.pending += rows.len() as u64;
        let refit = self.maybe_refresh();
        Ok(IngestReport { accepted: rows.len() as u64, refit })
    }

    /// Ingests a batch of samples (e.g. straight from a [`Dataset`]).
    pub fn ingest_samples(&mut self, samples: &[Sample]) -> Result<IngestReport> {
        self.ingest_batch(samples)
    }

    /// Ingests every sample of a dataset.
    pub fn ingest_dataset(&mut self, dataset: &Dataset) -> Result<IngestReport> {
        if dataset.schema() != self.schema.as_ref() {
            return Err(StreamError::InvalidConfig {
                reason: "dataset schema differs from the engine's schema".to_string(),
            });
        }
        self.ingest_samples(dataset.samples())
    }

    /// The combined contingency table over everything counted so far:
    /// the local counts plus every held remote shard.  Count addition is
    /// associative and commutative, so the fold order is irrelevant and
    /// the result equals a single sequential pass over all nodes' tuples.
    pub fn current_table(&self) -> Result<ContingencyTable> {
        ContingencyTable::merged(
            Arc::clone(&self.schema),
            std::iter::once(self.local.table()).chain(self.remote.tables()),
        )
        .map_err(StreamError::from)
    }

    /// A copy of the engine's **local** counts — what an ingest node
    /// ships to its coordinator.  Remote deliveries are deliberately
    /// excluded so a relaying node can never echo another source's counts
    /// back into the fabric.
    pub fn export_local_shard(&self) -> CountShard {
        self.local.clone()
    }

    /// Absorbs one remote shard delivery (the coordinator half of the
    /// fabric's `shard-push`): applies it to the placement map with
    /// replay/reorder-safe sequence gating, counts the gained tuples as
    /// pending, and consults the refresh policy exactly like a local
    /// ingest.
    ///
    /// An `Err` always means the delivery was **rejected** (foreign
    /// schema); a stale delivery is a successful no-op with
    /// `applied: false`, and a refit failure after an applied delivery is
    /// reported in `refit`, mirroring [`StreamingEngine::ingest_batch`].
    pub fn accept_remote_shard(
        &mut self,
        source: &str,
        seq: u64,
        shard: CountShard,
    ) -> Result<RemoteShardReport> {
        let delivery = RemoteDelivery { source: source.to_string(), seq, shard };
        self.accept_remote_shards(vec![delivery]).pop().expect("one delivery in, one outcome out")
    }

    /// Absorbs a whole batch of remote deliveries in one pass: every shard
    /// is applied to the placement map first, then the refresh policy is
    /// consulted **once** for the combined pending mass.  This is the
    /// engine half of the server's queue-drain batching — under a push
    /// storm the coordinator pays one policy check (and at most one refit)
    /// per wakeup instead of one per delivery.
    ///
    /// Outcomes are per-delivery and positional.  A refit triggered by the
    /// batch is reported on the **last applied** delivery (the one that
    /// completed the pending mass); the rest report
    /// [`RefitOutcome::NotTriggered`], exactly as if the deliveries had
    /// arrived back-to-back with the policy tripping on the final one.
    pub fn accept_remote_shards(
        &mut self,
        deliveries: Vec<RemoteDelivery>,
    ) -> Vec<Result<RemoteShardReport>> {
        let mut outcomes: Vec<Result<RemoteShardReport>> = Vec::with_capacity(deliveries.len());
        let mut last_applied = None;
        for delivery in deliveries {
            let RemoteDelivery { source, seq, shard } = delivery;
            match self.remote.apply(&self.schema, &source, seq, shard) {
                Err(e) => outcomes.push(Err(e)),
                Ok(outcome) => {
                    let source_tuples = self
                        .remote
                        .sources()
                        .into_iter()
                        .find(|s| s.name == source)
                        .map_or(0, |s| s.tuples);
                    if outcome.applied() {
                        self.pending += outcome.delta_tuples();
                        last_applied = Some(outcomes.len());
                    }
                    outcomes.push(Ok(RemoteShardReport {
                        applied: outcome.applied(),
                        delta_tuples: outcome.delta_tuples(),
                        source_tuples,
                        refit: RefitOutcome::NotTriggered,
                    }));
                }
            }
        }
        if let Some(i) = last_applied {
            let refit = self.maybe_refresh();
            if let Some(Ok(report)) = outcomes.get_mut(i) {
                report.refit = refit;
            }
        }
        outcomes
    }

    /// Publishes a snapshot received from a coordinator (the replica half
    /// of the fabric's `snapshot-sync`), version-gated so stale, duplicate
    /// and reordered deliveries are no-ops and the replica's served
    /// versions stay monotone.
    ///
    /// The payload is treated as hostile until proven otherwise: decoding
    /// built the knowledge base through its checked constructors, and the
    /// wire format stamp, schema identity, metadata consistency and the
    /// model's probability mass are checked before anything is published.
    /// The evaluator and marginal lattice are built locally — exactly what
    /// a local refit would have materialised — and the mass check reads
    /// the evaluator (nothing renormalises it), so the dense joint is built
    /// once.
    pub fn apply_synced_snapshot(
        &mut self,
        meta: &SnapshotMeta,
        knowledge_base: KnowledgeBase,
    ) -> Result<SyncReport> {
        meta.validate_format()?;
        if knowledge_base.schema() != self.schema.as_ref() {
            return Err(StreamError::InvalidConfig {
                reason: "synced snapshot is over a different schema".to_string(),
            });
        }
        if meta.constraints != knowledge_base.constraints().len()
            || meta.attributes != knowledge_base.schema().len()
        {
            return Err(StreamError::InvalidConfig {
                reason: "snapshot metadata disagrees with its knowledge base".to_string(),
            });
        }
        let current = self.handle.version().unwrap_or(0);
        if meta.version <= current {
            return Ok(SyncReport { applied: false, version: current });
        }
        let snapshot = Snapshot::with_lattice_order_and_ceiling(
            knowledge_base,
            meta.version,
            meta.observations,
            meta.warm_started,
            self.lattice_order,
            self.acquisition.config().dense_ceiling,
        );
        snapshot.knowledge_base().evaluator().check().map_err(|e| StreamError::InvalidConfig {
            reason: format!("synced knowledge base {e}"),
        })?;
        self.handle.publish(snapshot);
        self.fitted = meta.observations;
        // Keep local version numbering ahead of the synced stream so a
        // hypothetical local refit on this engine could never regress the
        // served version.
        self.next_version = meta.version + 1;
        self.synced += 1;
        Ok(SyncReport { applied: true, version: meta.version })
    }

    /// What [`StreamingEngine::restore`] recovered at boot — all zero when
    /// the engine started fresh.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// Captures the engine's durable state as a [`FabricCheckpoint`]: the
    /// local cumulative counts, every remote source's held shard + seq, and
    /// the last published snapshot version.  The fitted model itself is
    /// deliberately *not* captured — it is a pure function of the counts
    /// and is refitted on demand after a restore.
    pub fn capture_checkpoint(&self) -> Result<FabricCheckpoint> {
        Ok(FabricCheckpoint {
            version: self.next_version - 1,
            local: if self.local.is_empty() { None } else { Some(self.local.clone()) },
            sources: self
                .remote
                .entries()
                .map(|(name, seq, shard)| CheckpointSource {
                    name: name.to_string(),
                    seq,
                    shard: shard.clone(),
                })
                .collect(),
        })
    }

    /// Rehydrates a freshly-created engine from durable state: a journal
    /// recovery (the node's own counts), a checkpoint (placement map +
    /// local counts + published version), or both.
    ///
    /// When both carry local counts, the one with **more tuples** wins —
    /// counts are cumulative and monotone, so larger means newer — and the
    /// other is discarded rather than merged, which is what makes restore
    /// double-count-proof.  Checkpointed remote sources re-enter through
    /// the normal strictly-newer seq gate, so a source that outlived the
    /// crash reconciles on its next push.  The snapshot version sequence
    /// resumes above the checkpointed version, keeping replica-observed
    /// versions monotone across the restart.
    ///
    /// Restored tuples count as pending: the refresh policy sees them, and
    /// the first post-recovery refresh rebuilds the model they imply.
    pub fn restore(
        &mut self,
        journal: Option<&JournalRecovery>,
        checkpoint: Option<FabricCheckpoint>,
    ) -> Result<RecoveryStats> {
        if self.total_ingested() != 0 || self.refits != 0 || self.synced != 0 {
            return Err(StreamError::Durability {
                reason: "restore requires a pristine engine (counts already present)".to_string(),
            });
        }
        let mut stats = RecoveryStats {
            journal_truncated_bytes: journal.map_or(0, |r| r.truncated_bytes),
            ..RecoveryStats::default()
        };

        let (mut local, mut checkpoint_sources, mut checkpoint_version) = (None, Vec::new(), 0);
        if let Some(recovery) = journal {
            local = recovery.shard.clone();
        }
        if let Some(checkpoint) = checkpoint {
            // Larger cumulative count = newer local state; on a tie the
            // journal wins (it is the node's primary log).
            let journal_tuples = local.as_ref().map_or(0, CountShard::tuple_count);
            if let Some(shard) = checkpoint.local {
                if shard.tuple_count() > journal_tuples {
                    local = Some(shard);
                }
            }
            checkpoint_sources = checkpoint.sources;
            checkpoint_version = checkpoint.version;
        }

        if let Some(shard) = local {
            if shard.schema() != self.schema.as_ref() {
                return Err(StreamError::Durability {
                    reason: "recovered local counts are over a different schema".to_string(),
                });
            }
            if !shard.is_empty() {
                stats.recovered_sources += 1;
                stats.recovered_tuples += shard.tuple_count();
                self.local.absorb(&shard)?;
            }
        }
        for source in checkpoint_sources {
            let applied = self
                .remote
                .apply(&self.schema, &source.name, source.seq, source.shard)
                .map_err(|e| StreamError::Durability {
                reason: format!("checkpointed source `{}` is unusable: {e}", source.name),
            })?;
            stats.recovered_sources += 1;
            stats.recovered_tuples += applied.delta_tuples();
        }

        self.pending = stats.recovered_tuples;
        self.next_version = self.next_version.max(checkpoint_version + 1);
        self.recovery = stats;
        Ok(stats)
    }

    /// Consults the refresh policy and refits if it trips.  Refit failures
    /// are folded into the outcome, never propagated as ingest errors: by
    /// this point the tuples are already absorbed, and `pending` is only
    /// reset on success, so the next ingest or manual refresh retries.
    fn maybe_refresh(&mut self) -> RefitOutcome {
        if !self.policy.should_refresh(self.pending, self.fitted) {
            return RefitOutcome::NotTriggered;
        }
        match self.refresh() {
            Ok(report) => RefitOutcome::Completed(report),
            Err(e) => RefitOutcome::Failed(e),
        }
    }

    /// Re-runs acquisition over all accumulated counts and publishes the
    /// result as a new snapshot.
    ///
    /// If a previous snapshot exists, the run is warm-started from its
    /// constraint set and a-values ([`Acquisition::run_warm_started`]);
    /// otherwise a cold [`Acquisition::run`] starts from the independence
    /// model.  Readers holding [`SnapshotHandle`]s keep being served from
    /// the previous snapshot for the whole duration of the refit; they see
    /// the new version only at the final pointer swap.
    pub fn refresh(&mut self) -> Result<RefitReport> {
        let merge_started = Instant::now();
        let table = self.current_table()?;
        if table.total() == 0 {
            return Err(StreamError::EmptyStream);
        }
        let started = Instant::now();
        let merge = started - merge_started;
        let previous = self.handle.load();
        // Warm-start from the previous snapshot when there is one.  A warm
        // refit can still fail on adversarial distribution shift (the old
        // constraint cells may have become infeasible together); a serving
        // engine must stay up, so that case falls back to a cold run rather
        // than surfacing an error for data that a fresh fit handles fine.
        let (outcome, warm_started) = match previous.as_deref() {
            Some(snapshot) => {
                match self.acquisition.run_warm_started_cached(
                    &table,
                    snapshot.knowledge_base(),
                    &mut self.solver_cache,
                ) {
                    Ok(outcome) => (outcome, true),
                    Err(_) => (self.acquisition.run_cached(&table, &mut self.solver_cache)?, false),
                }
            }
            None => (self.acquisition.run_cached(&table, &mut self.solver_cache)?, false),
        };
        let wall_time = started.elapsed();

        let version = self.next_version;
        self.next_version += 1;
        self.refits += 1;
        self.solver_iterations += outcome.trace.total_solver_iterations() as u64;
        self.fitted = table.total();
        self.pending = 0;

        let mut report = RefitReport {
            version,
            warm_started,
            observations: table.total(),
            constraints: outcome.knowledge_base.constraints().len(),
            solver_iterations: outcome.trace.total_solver_iterations(),
            wall_time,
            phases: RefitPhases {
                merge,
                scoring: outcome.timings.scoring,
                fit: outcome.timings.fit,
                lattice: Duration::ZERO,
                publish: Duration::ZERO,
            },
        };
        let lattice_started = Instant::now();
        let snapshot = Snapshot::with_lattice_order_and_ceiling(
            outcome.knowledge_base,
            version,
            table.total(),
            warm_started,
            self.lattice_order,
            self.acquisition.config().dense_ceiling,
        );
        let publish_started = Instant::now();
        self.handle.publish(snapshot);
        report.phases.lattice = publish_started - lattice_started;
        report.phases.publish = publish_started.elapsed();
        self.last_refit = Some(report.phases);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::Assignment;

    fn schema() -> Arc<Schema> {
        Schema::uniform(&[2, 2]).unwrap().into_shared()
    }

    /// Two perfectly correlated attributes, as a replayable stream.
    fn correlated_rows(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![i % 2, i % 2]).collect()
    }

    #[test]
    fn config_validation() {
        assert!(StreamingEngine::new(
            schema(),
            StreamConfig::new().with_policy(RefreshPolicy::EveryNTuples(0)),
        )
        .is_err());
    }

    #[test]
    fn refresh_on_empty_stream_is_an_error() {
        let mut engine = StreamingEngine::with_defaults(schema()).unwrap();
        assert!(matches!(engine.refresh(), Err(StreamError::EmptyStream)));
    }

    #[test]
    fn first_refresh_is_cold_then_warm() {
        let config = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut engine = StreamingEngine::new(schema(), config).unwrap();
        engine.ingest_batch(&correlated_rows(100)).unwrap();
        let first = engine.refresh().unwrap();
        assert!(!first.warm_started);
        assert_eq!(first.version, 1);
        engine.ingest_batch(&correlated_rows(100)).unwrap();
        let second = engine.refresh().unwrap();
        assert!(second.warm_started);
        assert_eq!(second.version, 2);
        assert_eq!(second.observations, 200);
        assert_eq!(engine.refit_count(), 2);
        assert_eq!(engine.pending(), 0);
        assert_eq!(
            engine.total_solver_iterations(),
            (first.solver_iterations + second.solver_iterations) as u64,
            "cumulative sweep counter must track every refit"
        );
    }

    #[test]
    fn last_refit_phases_track_the_latest_report() {
        let config = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut engine = StreamingEngine::new(schema(), config).unwrap();
        assert_eq!(engine.last_refit_phases(), None);
        engine.ingest_batch(&correlated_rows(100)).unwrap();
        let report = engine.refresh().unwrap();
        assert_eq!(engine.last_refit_phases(), Some(report.phases));
        // Scoring and fitting are the acquisition run `wall_time` spans.
        assert!(report.phases.scoring + report.phases.fit <= report.wall_time);
    }

    #[test]
    fn policy_triggers_refits_during_ingest() {
        let config = StreamConfig::new().with_policy(RefreshPolicy::EveryNTuples(50));
        let mut engine = StreamingEngine::new(schema(), config).unwrap();
        let mut refits = 0;
        for batch in correlated_rows(200).chunks(25) {
            if engine.ingest_batch(batch).unwrap().refit.is_completed() {
                refits += 1;
            }
        }
        assert_eq!(refits, 4, "one refit per 50 tuples");
        assert_eq!(engine.snapshot().unwrap().observations(), 200);
    }

    #[test]
    fn a_batch_with_a_bad_row_records_nothing() {
        let config = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut engine = StreamingEngine::new(schema(), config).unwrap();
        engine.ingest_batch(&correlated_rows(10)).unwrap();
        let before = engine.current_table().unwrap();

        // Valid rows first, the out-of-range row last: the rows before it
        // must be discarded too.
        let mut batch = correlated_rows(5);
        batch.push(vec![0, 9]);
        assert!(engine.ingest_batch(&batch).is_err());
        assert_eq!(engine.total_ingested(), 10);
        assert_eq!(engine.pending(), 10);
        assert_eq!(engine.current_table().unwrap(), before);

        let empty: &[Vec<usize>] = &[];
        assert_eq!(engine.ingest_batch(empty).unwrap().accepted, 0);
        assert_eq!(engine.current_table().unwrap(), before);
    }

    #[test]
    fn repeated_refits_reuse_the_incidence_cache() {
        let config = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut engine = StreamingEngine::new(schema(), config).unwrap();
        engine.ingest_batch(&correlated_rows(200)).unwrap();
        engine.refresh().unwrap();
        let after_first = engine.solver_cache_stats();
        assert!(after_first.rebuilds >= 1);

        // Same distribution, more data: the warm refit re-solves the same
        // constraint set and must be served from the cache — no new
        // rebuilds, strictly more hits.
        engine.ingest_batch(&correlated_rows(200)).unwrap();
        engine.refresh().unwrap();
        let after_second = engine.solver_cache_stats();
        assert_eq!(after_second.rebuilds, after_first.rebuilds, "unchanged set must not rebuild");
        assert!(
            after_second.full_hits > after_first.full_hits,
            "repeated refit did not reuse the cache: {after_second:?}"
        );
        assert_eq!(engine.local_tuples(), 400);
    }

    #[test]
    fn snapshot_reflects_the_correlation() {
        let config = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut engine = StreamingEngine::new(schema(), config).unwrap();
        engine.ingest_batch(&correlated_rows(400)).unwrap();
        engine.refresh().unwrap();
        let snapshot = engine.snapshot().unwrap();
        let p = snapshot
            .knowledge_base()
            .conditional(&Assignment::single(1, 0), &Assignment::single(0, 0))
            .unwrap();
        assert!(p > 0.95, "P(b=0 | a=0) = {p} under perfect correlation");
    }

    #[test]
    fn readers_keep_serving_across_refits() {
        let config = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut engine = StreamingEngine::new(schema(), config).unwrap();
        engine.ingest_batch(&correlated_rows(100)).unwrap();
        engine.refresh().unwrap();

        let handle = engine.handle();
        // Pin the snapshot before spawning: on a single-core box the
        // spawned thread may not run until after the second refresh, and a
        // reader that pinned version 2 would wait forever for version 3.
        let pinned = engine.snapshot().unwrap();
        let reader = std::thread::spawn(move || {
            let version = pinned.version();
            let p_before = pinned.knowledge_base().probability(&Assignment::single(0, 0));
            // Spin until the engine publishes a newer version, proving the
            // pinned snapshot stayed valid and unchanged throughout.
            loop {
                if handle.version() != Some(version) {
                    let p_after = pinned.knowledge_base().probability(&Assignment::single(0, 0));
                    return (version, p_before, p_after);
                }
                std::thread::yield_now();
            }
        });

        // Skew the distribution and refit; the reader's pinned snapshot must
        // be untouched by the swap.
        let skew: Vec<Vec<usize>> = (0..300).map(|_| vec![0, 1]).collect();
        engine.ingest_batch(&skew).unwrap();
        engine.refresh().unwrap();
        let (version, p_before, p_after) = reader.join().unwrap();
        assert_eq!(version, 1);
        assert_eq!(p_before, p_after, "pinned snapshot changed under the reader");
        assert_eq!(engine.snapshot().unwrap().version(), 2);
    }

    #[test]
    fn failed_automatic_refit_does_not_poison_ingest() {
        use pka_core::AcquisitionConfig;
        use pka_maxent::ConvergenceCriteria;
        // A solver budget that cannot converge, in strict mode: every
        // policy-triggered refit fails.
        let impossible = AcquisitionConfig::new().with_convergence(
            ConvergenceCriteria::new().with_max_iterations(1).with_tolerance(1e-16).strict(),
        );
        let config = StreamConfig::new()
            .with_policy(RefreshPolicy::EveryNTuples(400))
            .with_acquisition(impossible);
        let mut engine = StreamingEngine::new(schema(), config).unwrap();

        // Perfect correlation promotes a boundary constraint whose fit
        // cannot reach 1e-16 in one sweep, so the policy-triggered refit
        // fails.  The ingest itself still succeeds — the tuples are in the
        // local counts — and the failure is reported in the outcome, not as an
        // error a retry loop would re-send the batch for.
        let report = engine.ingest_batch(&correlated_rows(400)).unwrap();
        assert_eq!(report.accepted, 400);
        assert!(report.refit.error().is_some(), "refit must fail: {:?}", report.refit);
        assert!(report.refit.report().is_none());
        assert_eq!(engine.total_ingested(), 400, "tuples counted exactly once");
        assert_eq!(engine.pending(), 400, "dirty counter preserved for retry");
        assert!(engine.snapshot().is_none());
    }

    #[test]
    fn remote_shards_merge_exactly_and_gate_on_sequence() {
        let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        // A remote ingest node tabulates 40 tuples locally…
        let mut node = StreamingEngine::new(schema(), manual.clone()).unwrap();
        node.ingest_batch(&correlated_rows(40)).unwrap();
        let exported = node.export_local_shard();
        assert_eq!(exported.tuple_count(), 40);

        // …and the coordinator absorbs the cumulative shard next to its own
        // local ingestion.
        let mut coord = StreamingEngine::new(schema(), manual).unwrap();
        coord.ingest_batch(&correlated_rows(10)).unwrap();
        let report = coord.accept_remote_shard("node-a", 40, exported.clone()).unwrap();
        assert!(report.applied);
        assert_eq!(report.delta_tuples, 40);
        assert_eq!(report.source_tuples, 40);
        assert_eq!(coord.total_ingested(), 50);
        assert_eq!(coord.local_tuples(), 10);
        assert_eq!(coord.remote_tuples(), 40);
        assert_eq!(coord.remote_source_count(), 1);
        assert_eq!(coord.pending(), 50);

        // The merged table is bit-for-bit the single-pass tabulation.
        let mut single = StreamingEngine::new(schema(), StreamConfig::new()).unwrap();
        single.ingest_batch(&correlated_rows(40)).unwrap();
        single.ingest_batch(&correlated_rows(10)).unwrap();
        assert_eq!(coord.current_table().unwrap(), single.current_table().unwrap());

        // A replayed delivery is a no-op.
        let dup = coord.accept_remote_shard("node-a", 40, exported).unwrap();
        assert!(!dup.applied);
        assert_eq!(coord.total_ingested(), 50);
        assert_eq!(coord.pending(), 50, "stale deliveries must not inflate the dirty counter");
    }

    #[test]
    fn remote_deltas_trip_the_refresh_policy() {
        let mut node =
            StreamingEngine::new(schema(), StreamConfig::new().with_policy(RefreshPolicy::Manual))
                .unwrap();
        node.ingest_batch(&correlated_rows(100)).unwrap();
        let mut coord = StreamingEngine::new(
            schema(),
            StreamConfig::new().with_policy(RefreshPolicy::EveryNTuples(50)),
        )
        .unwrap();
        let report = coord.accept_remote_shard("node-a", 100, node.export_local_shard()).unwrap();
        assert!(report.refit.is_completed(), "100 remote tuples must trip an every-50 policy");
        assert_eq!(coord.snapshot().unwrap().observations(), 100);
        assert_eq!(coord.pending(), 0);
    }

    #[test]
    fn export_excludes_remote_deliveries() {
        let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut node = StreamingEngine::new(schema(), manual.clone()).unwrap();
        node.ingest_batch(&correlated_rows(30)).unwrap();
        let mut relay = StreamingEngine::new(schema(), manual).unwrap();
        relay.ingest_batch(&correlated_rows(5)).unwrap();
        relay.accept_remote_shard("node-a", 30, node.export_local_shard()).unwrap();
        // The relay's export carries only its own 5 tuples — it can never
        // echo node-a's counts back into the fabric.
        assert_eq!(relay.export_local_shard().tuple_count(), 5);
        assert_eq!(relay.current_table().unwrap().total(), 35);
    }

    #[test]
    fn synced_snapshots_are_version_gated() {
        let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut leader = StreamingEngine::new(schema(), manual.clone()).unwrap();
        leader.ingest_batch(&correlated_rows(100)).unwrap();
        leader.refresh().unwrap();
        let v1 = leader.snapshot().unwrap();
        leader.ingest_batch(&correlated_rows(100)).unwrap();
        leader.refresh().unwrap();
        let v2 = leader.snapshot().unwrap();

        let mut replica = StreamingEngine::new(schema(), manual).unwrap();
        let first = replica.apply_synced_snapshot(&v1.meta(), v1.knowledge_base().clone()).unwrap();
        assert_eq!(first, SyncReport { applied: true, version: 1 });
        assert_eq!(replica.snapshot().unwrap().version(), 1);
        // The replica rebuilds the query fast path locally.
        assert!(replica.snapshot().unwrap().lattice().max_order() >= 1);

        let second =
            replica.apply_synced_snapshot(&v2.meta(), v2.knowledge_base().clone()).unwrap();
        assert_eq!(second, SyncReport { applied: true, version: 2 });
        assert_eq!(replica.synced_snapshots(), 2);

        // Replays and reordered deliveries are no-ops; the served version
        // never regresses.
        let replay =
            replica.apply_synced_snapshot(&v2.meta(), v2.knowledge_base().clone()).unwrap();
        assert_eq!(replay, SyncReport { applied: false, version: 2 });
        let reorder =
            replica.apply_synced_snapshot(&v1.meta(), v1.knowledge_base().clone()).unwrap();
        assert_eq!(reorder, SyncReport { applied: false, version: 2 });
        assert_eq!(replica.snapshot().unwrap().version(), 2);
        assert_eq!(replica.synced_snapshots(), 2, "no-ops are not counted as syncs");
    }

    #[test]
    fn synced_snapshots_reject_hostile_payloads() {
        let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut leader = StreamingEngine::new(schema(), manual.clone()).unwrap();
        leader.ingest_batch(&correlated_rows(100)).unwrap();
        leader.refresh().unwrap();
        let snap = leader.snapshot().unwrap();

        let mut replica = StreamingEngine::new(schema(), manual.clone()).unwrap();
        // Wrong wire format.
        let mut bad_format = snap.meta();
        bad_format.format_version = 99;
        assert!(matches!(
            replica.apply_synced_snapshot(&bad_format, snap.knowledge_base().clone()),
            Err(StreamError::FormatVersion { found: Some(99) })
        ));
        // Metadata that disagrees with the carried knowledge base.
        let mut lying = snap.meta();
        lying.constraints += 3;
        assert!(replica.apply_synced_snapshot(&lying, snap.knowledge_base().clone()).is_err());
        // Foreign schema.
        let mut foreign =
            StreamingEngine::new(Schema::uniform(&[3, 3]).unwrap().into_shared(), manual).unwrap();
        foreign.ingest_batch(&[[0, 0], [1, 1], [2, 2], [0, 0]]).unwrap();
        foreign.refresh().unwrap();
        let foreign_snap = foreign.snapshot().unwrap();
        assert!(replica
            .apply_synced_snapshot(&foreign_snap.meta(), foreign_snap.knowledge_base().clone())
            .is_err());
        assert!(replica.snapshot().is_none(), "rejected payloads publish nothing");
    }

    #[test]
    fn journal_recovery_restores_local_counts_and_replays_are_noops() {
        let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        // A node tabulates 40 tuples, "crashes", and its replacement boots
        // from the journal's last cumulative record.
        let mut node = StreamingEngine::new(schema(), manual.clone()).unwrap();
        node.ingest_batch(&correlated_rows(40)).unwrap();
        let recovery = JournalRecovery {
            seq: Some(40),
            shard: Some(node.export_local_shard()),
            valid_records: 3,
            truncated_bytes: 17,
        };

        let mut reborn = StreamingEngine::new(schema(), manual.clone()).unwrap();
        let stats = reborn.restore(Some(&recovery), None).unwrap();
        assert_eq!(stats.recovered_sources, 1);
        assert_eq!(stats.recovered_tuples, 40);
        assert_eq!(stats.journal_truncated_bytes, 17);
        assert_eq!(reborn.recovery_stats(), stats);
        assert_eq!(reborn.local_tuples(), 40);
        assert_eq!(reborn.pending(), 40, "restored tuples must be visible to the policy");
        assert_eq!(
            reborn.export_local_shard(),
            node.export_local_shard(),
            "recovered counts are bit-exact"
        );

        // A coordinator that already saw seq 40 treats the replayed push
        // from the reborn node as stale — recovery cannot double-count.
        let mut coord = StreamingEngine::new(schema(), manual).unwrap();
        coord.accept_remote_shard("node-a", 40, node.export_local_shard()).unwrap();
        let replay = coord.accept_remote_shard("node-a", 40, reborn.export_local_shard()).unwrap();
        assert!(!replay.applied);
        assert_eq!(coord.remote_tuples(), 40);
    }

    #[test]
    fn checkpoint_round_trip_restores_the_placement_map() {
        let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let mut node = StreamingEngine::new(schema(), manual.clone()).unwrap();
        node.ingest_batch(&correlated_rows(30)).unwrap();

        let mut coord = StreamingEngine::new(schema(), manual.clone()).unwrap();
        coord.ingest_batch(&correlated_rows(10)).unwrap();
        coord.accept_remote_shard("node-a", 30, node.export_local_shard()).unwrap();
        coord.refresh().unwrap();
        let checkpoint = coord.capture_checkpoint().unwrap();
        assert_eq!(checkpoint.version, 1);
        assert_eq!(checkpoint.total_tuples(), 40);

        // The restarted coordinator rebuilds the merged table exactly, even
        // though node-a never pushes again (the dead-source case).
        let mut reborn = StreamingEngine::new(schema(), manual).unwrap();
        let stats = reborn.restore(None, Some(checkpoint)).unwrap();
        assert_eq!(stats.recovered_sources, 2, "local counts + one remote source");
        assert_eq!(stats.recovered_tuples, 40);
        assert_eq!(reborn.total_ingested(), 40);
        assert_eq!(reborn.remote_source_count(), 1);
        assert_eq!(reborn.current_table().unwrap(), coord.current_table().unwrap());

        // The version sequence resumes above the checkpoint: replicas that
        // acknowledged version 1 see the next publish as strictly newer.
        let report = reborn.refresh().unwrap();
        assert_eq!(report.version, 2);

        // A live source that outlived the crash reconciles via the seq
        // gate: replaying its checkpointed push is a no-op…
        let stale = reborn.accept_remote_shard("node-a", 30, node.export_local_shard()).unwrap();
        assert!(!stale.applied);
        // …and newer cumulative counts supersede the restored entry.
        node.ingest_batch(&correlated_rows(12)).unwrap();
        let newer = reborn.accept_remote_shard("node-a", 42, node.export_local_shard()).unwrap();
        assert!(newer.applied);
        assert_eq!(newer.delta_tuples, 12);
        assert_eq!(reborn.total_ingested(), 52, "reconciliation never double-counts");
    }

    #[test]
    fn restore_prefers_the_larger_local_record() {
        let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        // The journal saw 25 tuples; an older checkpoint captured only 10.
        let mut newer = StreamingEngine::new(schema(), manual.clone()).unwrap();
        newer.ingest_batch(&correlated_rows(25)).unwrap();
        let mut older = StreamingEngine::new(schema(), manual.clone()).unwrap();
        older.ingest_batch(&correlated_rows(10)).unwrap();

        let recovery = JournalRecovery {
            seq: Some(25),
            shard: Some(newer.export_local_shard()),
            valid_records: 1,
            truncated_bytes: 0,
        };
        let checkpoint = FabricCheckpoint {
            version: 0,
            local: Some(older.export_local_shard()),
            sources: Vec::new(),
        };
        let mut reborn = StreamingEngine::new(schema(), manual).unwrap();
        let stats = reborn.restore(Some(&recovery), Some(checkpoint)).unwrap();
        assert_eq!(stats.recovered_tuples, 25, "larger cumulative record wins, never the sum");
        assert_eq!(reborn.local_tuples(), 25);
    }

    #[test]
    fn restore_requires_a_pristine_engine() {
        let mut engine = StreamingEngine::with_defaults(schema()).unwrap();
        engine.ingest_batch(&correlated_rows(4)).unwrap();
        let err = engine.restore(None, None).unwrap_err();
        assert!(matches!(err, StreamError::Durability { .. }));
    }

    #[test]
    fn rejects_foreign_schema_datasets() {
        let mut engine = StreamingEngine::with_defaults(schema()).unwrap();
        let other = Dataset::new(Schema::uniform(&[3]).unwrap());
        assert!(engine.ingest_dataset(&other).is_err());
        assert!(engine.ingest_batch(&[[0, 5]]).is_err());
        assert_eq!(engine.total_ingested(), 0, "failed batches leave no trace");
    }
}
