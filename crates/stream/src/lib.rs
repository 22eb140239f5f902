//! # pka-stream
//!
//! An incremental **streaming-acquisition engine** on top of the
//! NASA TM-88224 reproduction: the memo's batch procedure (Figures 3–4)
//! operated as a long-lived service whose knowledge base stays fresh while
//! tuples keep arriving — the operating mode of maximum-entropy shells like
//! SPIRIT, and the incremental-scoring setting Cooper & Herskovits motivate
//! for database-resident data.
//!
//! Three ideas make it work:
//!
//! 1. **Mergeable counts** ([`shard`]) — contingency cell counts form a
//!    commutative monoid under addition, so each node keeps one local
//!    [`CountShard`] and the engine combines it with the shards remote
//!    nodes push through an associative `merge`.  Distributed ingestion is
//!    therefore *exact*: any partition of the stream, counted in any order
//!    on any number of nodes, reproduces the single-pass contingency table
//!    bit for bit.
//! 2. **Staleness tracking + warm restarts** ([`policy`], and
//!    [`Acquisition::run_warm_started`] in `pka-core`) — a dirty counter
//!    trips a [`RefreshPolicy`], and the refit re-enters acquisition from
//!    the previous knowledge base's constraint set and a-values (the memo's
//!    own Table-2 warm start, lifted to the whole run) instead of from the
//!    independence model.  The maximum-entropy solution per constraint set
//!    is unique, so warm refits converge to the same knowledge base a cold
//!    run would — just with far fewer solver sweeps.
//! 3. **Snapshot isolation** ([`snapshot`]) — every refit publishes an
//!    immutable, versioned [`Snapshot`] behind an `Arc`; queries load the
//!    current snapshot once and are never blocked (or torn) by a refit
//!    running concurrently.
//!
//! [`StreamingEngine`] ties the three together: `ingest → maybe-refit →
//! snapshot swap`.  See `examples/streaming_survey.rs` for a continuous
//! survey feed with live queries, and `tests/streaming_equivalence.rs` for
//! the end-to-end proof that a streamed, twice-warm-refitted knowledge base
//! answers queries identically to a one-shot acquisition over the same
//! data.
//!
//! [`Acquisition::run_warm_started`]: pka_core::Acquisition::run_warm_started

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod engine;
pub mod error;
pub mod journal;
pub mod policy;
pub mod remote;
pub mod shard;
pub mod snapshot;

pub use checkpoint::{CheckpointSource, FabricCheckpoint};
pub use engine::{
    IngestReport, RecoveryStats, RefitOutcome, RefitPhases, RefitReport, RemoteDelivery,
    RemoteShardReport, StreamConfig, StreamingEngine, SyncReport,
};
pub use error::StreamError;
pub use journal::{FsyncPolicy, JournalRecovery, ShardJournal};
pub use policy::RefreshPolicy;
pub use remote::{RemoteApply, RemoteShardMap, RemoteSource};
pub use shard::CountShard;
pub use snapshot::{Snapshot, SnapshotHandle, SnapshotMeta};

/// Version stamp embedded in every cross-node payload ([`CountShard`] and
/// [`SnapshotMeta`] JSON).  Nodes reject payloads declaring any other
/// version — or none — with [`StreamError::FormatVersion`], so a mixed
/// deployment fails loudly at the wire instead of silently mis-merging
/// counts across incompatible encodings.
pub const WIRE_FORMAT_VERSION: u64 = 1;

/// Convenient result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StreamError>;
