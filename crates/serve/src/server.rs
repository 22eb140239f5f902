//! The TCP server: a readiness-driven reactor (`pka-net`) over a
//! wait-free read path and a single-writer ingest thread.
//!
//! ## Concurrency shape
//!
//! * **Bounded threads, unbounded connections.**  Connection handling
//!   runs on `pka-net`'s event-loop shards: an acceptor thread hands
//!   nonblocking sockets round-robin to `loop_shards` epoll loops, so
//!   the server's thread count is `loop_shards + 2` (loops + acceptor +
//!   engine; a [`FabricRole`] adds one pump per peer)
//!   whether ten or ten thousand connections are open.
//! * **Readers never contend.**  Every loop shard answers `query` /
//!   `explain` / `snapshot-version` requests from
//!   [`SnapshotHandle::load`] — a wait-free atomic-pointer load — so a
//!   million concurrent readers cost a refit publish nothing and vice
//!   versa.
//! * **Writes funnel through one thread, without stalling readers.**
//!   The [`StreamingEngine`] is owned by a dedicated engine thread;
//!   `ingest`/`refresh`/`stats` requests are forwarded over a **bounded
//!   two-class queue** ([`crate::queue::EngineQueue`]) with a responder
//!   closure and answered asynchronously through the connection's
//!   [`pka_net::Completion`].  Control commands (`refresh`, `stats`,
//!   fabric export/sync) dequeue before write commands
//!   (`ingest`/`shard-push`); when the write class is at its cap, the
//!   excess is **shed** with a structured `server-overloaded` refusal
//!   carrying a `retry_after_ms` hint instead of queueing without bound.
//!   The loop shard never blocks on the engine: while one connection
//!   awaits a refit, its shard keeps serving every other connection, and
//!   the paused connection's pipelined requests stay buffered so
//!   response order is preserved.
//! * **Degradation is ordered, reads last.**  Under overload the server
//!   sheds write work (stale-but-live knowledge base) while `query` and
//!   the rest of the read path — answered wait-free from the published
//!   snapshot, never through the queue — keep their latency.  Request
//!   `deadline_ms` budgets and opt-in token-bucket rate limits
//!   ([`crate::admission`]) refuse excess work at the loop shard before
//!   it can occupy the engine.
//! * **Robustness policy lives in the reactor.**  Overlong lines,
//!   slow-reader backpressure, idle-connection reaping, the
//!   `max_connections` cap with structured `server-overloaded` refusals,
//!   and the graceful shutdown drain are `pka-net`'s job (see
//!   `docs/net.md`); this module only supplies the protocol semantics
//!   via [`pka_net::LineService`].
//! * **Shutdown is cooperative and leak-free.**  The reactor and the
//!   engine share one shutdown flag; [`ServerHandle::shutdown`] raises
//!   it, joins the reactor (which drains and closes every connection),
//!   closes the change watch and joins the fabric pumps (whose final
//!   flush still reaches the running engine; a peer call still
//!   unanswered a short grace into shutdown has its socket shut down),
//!   then joins the engine
//!   thread and returns the engine — if a thread leaked, shutdown would
//!   hang, which is exactly what the CI smoke test checks with a timeout.

use crate::admission::{Admission, AdmissionCounters, RateLimitConfig};
use crate::error::ServeError;
use crate::fabric::{self, FabricRole, PeerSockets, PumpContext};
use crate::protocol::{
    self, assignment_to_value, error_line, ok_line, parse_request, rows_from_value, ErrorCode,
    Request, RequestError, DEFAULT_MAX_LINE_BYTES,
};
use crate::queue::{
    engine_channel, CommandClass, EngineQueue, EngineSender, PushRefusal, QueueEntry, RecvOutcome,
};
use crate::watch::ChangeWatch;
use pka_contingency::{Assignment, Schema};
use pka_core::{KnowledgeBase, Query, QueryResult};
use pka_expert::explain_query_with;
use pka_maxent::EvalPath;
use pka_net::{
    Action, Completion, ConnId, LineService, NetConfig, Reactor, ReactorHandle, ReactorMetrics,
};
use pka_stream::{
    CountShard, FabricCheckpoint, FsyncPolicy, RefitOutcome, RefitPhases, RefitReport,
    RefreshPolicy, RemoteDelivery, ShardJournal, Snapshot, SnapshotHandle, SnapshotMeta,
    StreamConfig, StreamError, StreamingEngine, SyncReport, WIRE_FORMAT_VERSION,
};
use serde::{Deserialize, Serialize, Value};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Interface to bind (default `127.0.0.1`).
    pub host: String,
    /// Port to bind; `0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]).
    pub port: u16,
    /// Configuration of the underlying streaming engine.
    pub stream: StreamConfig,
    /// Cap on one request line; longer lines are discarded and answered
    /// with an `overlong-line` error.
    pub max_line_bytes: usize,
    /// The server's fabric role and the peers its pumps talk to (default
    /// [`FabricRole::Standalone`], which runs no pump).
    pub role: FabricRole,
    /// Name an ingest node pushes its shard under (the coordinator's
    /// `source`); defaults to the bound address.
    pub node_name: Option<String>,
    /// Event-loop shards the reactor runs (default 2; clamped to ≥ 1).
    pub loop_shards: usize,
    /// Cap on concurrently open connections; further connects are refused
    /// with a structured `server-overloaded` line (default 8192).
    pub max_connections: usize,
    /// Idle-connection timeout in milliseconds; `0` disables reaping
    /// (default 60 000).
    pub idle_timeout_ms: u64,
    /// Write-class cap of the bounded engine queue: at most this many
    /// `ingest`/`shard-push` commands may wait for the engine thread;
    /// further ones are shed with a `server-overloaded` refusal carrying
    /// a `retry_after_ms` hint (default 1024; clamped to ≥ 1).
    pub engine_queue_cap: usize,
    /// Opt-in token-bucket rate limits enforced on the loop shards
    /// (default: all off).
    pub rate_limit: RateLimitConfig,
    /// Crash durability: shard journal and checkpoint wiring (default:
    /// both off — a process-lifetime engine, PR-7 behavior).
    pub durability: DurabilityConfig,
}

/// Durable-state configuration of a [`Server`] — what survives `kill -9`.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Journal of this node's local cumulative counts; every ingest is
    /// recorded before it is acknowledged, and boot resumes from the last
    /// valid record.  `None` disables journalling.
    pub journal_path: Option<PathBuf>,
    /// When journal appends reach stable storage (default: 100 ms
    /// interval — bounded power-loss window at near-zero cost).
    pub journal_fsync: FsyncPolicy,
    /// Periodic checkpoint of the whole engine state (local counts, the
    /// shard-placement map, the published snapshot version); reloaded on
    /// boot.  `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
    /// How often the engine thread checkpoints when state changed
    /// (default 1 s).  A final checkpoint is always written on graceful
    /// shutdown.
    pub checkpoint_interval: Duration,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        Self {
            journal_path: None,
            journal_fsync: FsyncPolicy::Interval(Duration::from_millis(100)),
            checkpoint_path: None,
            checkpoint_interval: Duration::from_secs(1),
        }
    }
}

impl ServeConfig {
    /// Defaults: loopback, ephemeral port, default engine, 1 MiB lines,
    /// 2 loop shards, 8192 connections, 60 s idle timeout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the port (0 = ephemeral).
    pub fn with_port(mut self, port: u16) -> Self {
        self.port = port;
        self
    }

    /// Sets the bind host.
    pub fn with_host(mut self, host: impl Into<String>) -> Self {
        self.host = host.into();
        self
    }

    /// Sets the streaming-engine configuration.
    pub fn with_stream(mut self, stream: StreamConfig) -> Self {
        self.stream = stream;
        self
    }

    /// Sets the request-line cap.
    pub fn with_max_line_bytes(mut self, max_line_bytes: usize) -> Self {
        self.max_line_bytes = max_line_bytes;
        self
    }

    /// Sets the fabric role.
    pub fn with_role(mut self, role: FabricRole) -> Self {
        self.role = role;
        self
    }

    /// Sets the name an ingest node pushes its shard under.
    pub fn with_node_name(mut self, node_name: impl Into<String>) -> Self {
        self.node_name = Some(node_name.into());
        self
    }

    /// Sets the number of reactor event-loop shards.
    pub fn with_loop_shards(mut self, loop_shards: usize) -> Self {
        self.loop_shards = loop_shards;
        self
    }

    /// Sets the open-connection cap.
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Sets the idle-connection timeout in milliseconds (`0` disables).
    pub fn with_idle_timeout_ms(mut self, idle_timeout_ms: u64) -> Self {
        self.idle_timeout_ms = idle_timeout_ms;
        self
    }

    /// Sets the write-class cap of the bounded engine queue.
    pub fn with_engine_queue_cap(mut self, engine_queue_cap: usize) -> Self {
        self.engine_queue_cap = engine_queue_cap;
        self
    }

    /// Sets the token-bucket rate-limit policy.
    pub fn with_rate_limit(mut self, rate_limit: RateLimitConfig) -> Self {
        self.rate_limit = rate_limit;
        self
    }

    /// Enables the local shard journal at `path`.
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.durability.journal_path = Some(path.into());
        self
    }

    /// Sets the journal fsync policy.
    pub fn with_journal_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.durability.journal_fsync = policy;
        self
    }

    /// Enables periodic engine checkpoints at `path`.
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.durability.checkpoint_path = Some(path.into());
        self
    }

    /// Sets the checkpoint interval.
    pub fn with_checkpoint_interval(mut self, interval: Duration) -> Self {
        self.durability.checkpoint_interval = interval;
        self
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".to_string(),
            port: 0,
            stream: StreamConfig::default(),
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            role: FabricRole::Standalone,
            node_name: None,
            loop_shards: 2,
            max_connections: 8192,
            idle_timeout_ms: 60_000,
            engine_queue_cap: 1024,
            rate_limit: RateLimitConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

/// What one refit produced, in wire form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RefitSummary {
    /// Version the produced snapshot was published under.
    pub version: u64,
    /// Whether the refit was warm-started from the previous snapshot.
    pub warm_started: bool,
    /// Tuples the refit was performed over.
    pub observations: u64,
    /// Total constraints in the refitted knowledge base.
    pub constraints: usize,
    /// Solver sweeps spent across the refit.
    pub solver_iterations: usize,
    /// Wall-clock time of the refit, in microseconds.
    pub wall_micros: u64,
}

impl RefitSummary {
    fn from_report(report: &RefitReport) -> Self {
        Self {
            version: report.version,
            warm_started: report.warm_started,
            observations: report.observations,
            constraints: report.constraints,
            solver_iterations: report.solver_iterations,
            wall_micros: report.wall_time.as_micros() as u64,
        }
    }
}

/// What one `ingest` request did, in wire form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IngestSummary {
    /// Tuples accepted into the shards.
    pub accepted: u64,
    /// Tuples pending (not yet covered by a published fit) afterwards.
    pub pending: u64,
    /// Total tuples ingested over the engine's lifetime.
    pub total_ingested: u64,
    /// Whether the refresh policy tripped on this batch.
    pub refit_triggered: bool,
    /// The completed refit, if one ran and succeeded.
    pub refit: Option<RefitSummary>,
    /// The refit failure, if the policy tripped but the refit failed (the
    /// batch itself **is** absorbed either way).
    pub refit_error: Option<String>,
}

/// What one `shard-push` delivery did, in wire form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardPushSummary {
    /// Whether the delivery replaced the source's held shard (false: it
    /// was stale — older or duplicate sequence — and was discarded).
    pub applied: bool,
    /// Tuples the source gained over its previously-held shard.
    pub delta_tuples: u64,
    /// Tuples now held for the source.
    pub source_tuples: u64,
    /// Tuples pending (not yet covered by a published fit) afterwards.
    pub pending: u64,
    /// Total tuples the receiving engine now counts (local + remote).
    pub total_ingested: u64,
    /// Whether the refresh policy tripped on this delivery.
    pub refit_triggered: bool,
    /// The completed refit, if one ran and succeeded.
    pub refit: Option<RefitSummary>,
    /// The refit failure, if the policy tripped but the refit failed (the
    /// delivery itself **is** absorbed either way).
    pub refit_error: Option<String>,
}

/// What one `snapshot-sync` delivery did, in wire form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyncSummary {
    /// Whether the delivery was published (false: its version did not
    /// exceed the replica's current one and it was discarded as stale).
    pub applied: bool,
    /// The replica's current snapshot version after the call.
    pub version: u64,
}

impl SyncSummary {
    fn from_report(report: SyncReport) -> Self {
        Self { applied: report.applied, version: report.version }
    }
}

/// Engine-side counters, in wire form.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineStats {
    /// Total tuples ingested over the engine's lifetime.
    pub total_ingested: u64,
    /// Tuples ingested since the last published fit.
    pub pending: u64,
    /// Refits performed so far.
    pub refits: u64,
    /// Solver sweeps spent across every refit so far — together with the
    /// cache counters below, the observable cost of the solver hot path.
    pub solver_sweeps: u64,
    /// Solver incidence-cache full hits (see `pka_maxent::IncidenceCache`).
    pub cache_full_hits: u64,
    /// Solver incidence-cache prefix extensions.
    pub cache_extensions: u64,
    /// Solver incidence-cache rebuilds.
    pub cache_rebuilds: u64,
    /// Remote sources currently holding a slot in the shard-placement map.
    pub remote_sources: usize,
    /// Total tuples held from remote sources.
    pub remote_tuples: u64,
    /// Snapshots accepted via `snapshot-sync` (replicas only).
    pub synced_snapshots: u64,
    /// Count-sources restored from durable state at boot (0 = fresh
    /// start).
    pub recovered_sources: u64,
    /// Tuples restored from durable state at boot.
    pub recovered_tuples: u64,
    /// Bytes of torn/corrupt journal tail discarded during boot recovery.
    pub journal_truncated_bytes: u64,
    /// Journal records appended since boot.
    pub journal_records: u64,
    /// Checkpoints written since boot.
    pub checkpoints_written: u64,
    /// Milliseconds since the *least* recently heard-from remote source
    /// delivered anything (`None` without remote sources).  A growing max
    /// age is the first observable sign of a dead ingest node.
    pub max_push_age_ms: Option<u64>,
    /// Per-source standing of the shard-placement map, in name order.
    pub sources: Vec<SourceStat>,
    /// Phase times of the last completed refit (`None` before the first).
    pub last_refit: Option<RefitPhaseMicros>,
}

/// The phases of one refit, in microseconds (the `last_refit` object of a
/// `stats` response; see [`RefitPhases`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RefitPhaseMicros {
    /// Merging the local shards and remote sources into one table.
    pub merge_us: u64,
    /// Tabulating observed marginals and scoring candidate cells.
    pub scoring_us: u64,
    /// Solver fits and the final renormalisation.
    pub fit_us: u64,
    /// Building the snapshot's marginal lattice.
    pub lattice_us: u64,
    /// Swapping the snapshot in for readers.
    pub publish_us: u64,
}

impl RefitPhaseMicros {
    fn from_phases(phases: RefitPhases) -> Self {
        let us = |d: Duration| d.as_micros() as u64;
        Self {
            merge_us: us(phases.merge),
            scoring_us: us(phases.scoring),
            fit_us: us(phases.fit),
            lattice_us: us(phases.lattice),
            publish_us: us(phases.publish),
        }
    }
}

/// One remote source's standing, in wire form (the `sources` array of a
/// coordinator's `stats` response).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SourceStat {
    /// The source's self-declared name.
    pub name: String,
    /// Highest sequence number accepted from the source.
    pub seq: u64,
    /// Tuples in the source's held cumulative shard.
    pub tuples: u64,
    /// Milliseconds since the source last delivered anything (stale
    /// replays count — they still prove the node is alive).
    pub last_push_age_ms: u64,
}

/// Connection-side counters, in wire form (the `server` object of a
/// `stats` response).  The connection-lifecycle counters come straight
/// from the reactor's [`ReactorMetrics`]; see `docs/net.md` for the
/// taxonomy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Connections currently open.
    pub open_connections: u64,
    /// Server-initiated closes that were not clean client EOFs (socket
    /// errors, shutdown-drain force-closes, idle reaps).
    pub dropped_connections: u64,
    /// Connections reaped by the idle timeout (subset of
    /// `dropped_connections`).
    pub idle_timeouts: u64,
    /// Connections refused at accept time because the server was at its
    /// `max_connections` cap (never counted in `connections`).
    pub overload_refusals: u64,
    /// Current open-connection count per event-loop shard.
    pub shard_connections: Vec<u64>,
    /// Request lines answered.
    pub requests: u64,
    /// Malformed lines answered with a structured error.
    pub protocol_errors: u64,
    /// Marginal evaluations answered by a snapshot's lattice table (one
    /// index computation + lookup each).
    pub lattice_hits: u64,
    /// Marginal evaluations not covered by the lattice (varset above the
    /// cutoff order): `dense_evals + factored_evals`.
    pub lattice_misses: u64,
    /// Lattice misses answered by the dense-joint stride walk (snapshot at
    /// or below its dense ceiling).
    pub dense_evals: u64,
    /// Lattice misses answered by factored evaluation — one
    /// variable-elimination `FactorGraph::marginal` call each (snapshot
    /// above its dense ceiling; no dense joint exists).
    pub factored_evals: u64,
    /// Largest intermediate-factor width (variables in a single eliminated
    /// table) any factored evaluation has reached on the served snapshots —
    /// the exponent that governs factored query cost.
    pub elimination_width_max: u64,
    /// Commands currently queued for the engine thread, both classes (a
    /// gauge, bounded by `engine_queue_cap` plus the fixed control cap).
    pub engine_queue_depth: u64,
    /// The write-class admission cap of the engine queue.
    pub engine_queue_cap: u64,
    /// Write-class commands (`ingest`, `shard-push`) shed with
    /// `server-overloaded` refusals because the queue was full.
    pub shed_writes: u64,
    /// Control-class commands shed (normally zero; non-zero means the
    /// engine was wedged long enough for even control traffic to pile up).
    pub shed_control: u64,
    /// Requests refused with `deadline-exceeded` because their
    /// `deadline_ms` budget expired before the engine could serve them.
    pub deadline_exceeded: u64,
    /// Requests refused by a token-bucket rate limit (the connection
    /// stays usable; only the excess is refused).
    pub rate_limited: u64,
}

/// How an [`EngineCommand`]'s outcome travels back: a closure built on the
/// loop shard that formats the response line and delivers it through the
/// requesting connection's [`Completion`].  Runs on the engine thread.
pub(crate) type Responder<T> = Box<dyn FnOnce(T) + Send>;

/// A structured refusal travelling back through a responder: the engine
/// failed the work (`ingest-error`), or the command's `deadline_ms`
/// budget expired while it waited in the queue (`deadline-exceeded`).
pub(crate) struct Refusal {
    code: ErrorCode,
    message: String,
}

impl Refusal {
    fn engine(message: String) -> Self {
        Self { code: ErrorCode::IngestError, message }
    }

    fn deadline() -> Self {
        Self {
            code: ErrorCode::DeadlineExceeded,
            message: "deadline_ms budget expired while the request was queued".to_string(),
        }
    }
}

/// Commands forwarded from loop shards (and the fabric pumps) to the
/// engine thread.
pub(crate) enum EngineCommand {
    Ingest {
        rows: Vec<Vec<usize>>,
        reply: Responder<Result<IngestSummary, Refusal>>,
    },
    Refresh {
        reply: Responder<Result<RefitSummary, Refusal>>,
    },
    Stats {
        reply: Responder<EngineStats>,
    },
    /// A `shard-push` delivery from a remote ingest node.
    AbsorbShard {
        source: String,
        seq: u64,
        shard: CountShard,
        reply: Responder<Result<ShardPushSummary, Refusal>>,
    },
    /// An export of the engine's local counts, for an ingest node's push.
    ExportShard {
        reply: Responder<Result<(CountShard, u64), Refusal>>,
    },
    /// A `snapshot-sync` delivery from a coordinator (or a snapshot a
    /// replica's pump pulled).
    SyncSnapshot {
        meta: SnapshotMeta,
        knowledge_base: Box<KnowledgeBase>,
        reply: Responder<Result<SyncSummary, Refusal>>,
    },
}

/// State shared by the loop shards, the engine responders, and the
/// server handle.
struct Shared {
    schema: Arc<Schema>,
    snapshots: SnapshotHandle,
    role: FabricRole,
    /// Shared with the reactor: raising it drains every reactor thread.
    shutdown: Arc<AtomicBool>,
    max_line_bytes: usize,
    /// The reactor's connection telemetry (accepted/open/dropped/...).
    net: Arc<ReactorMetrics>,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    /// Marginal evaluations answered by a snapshot's lattice table
    /// (one lookup each).
    lattice_hits: AtomicU64,
    /// Lattice misses served by the dense-joint stride walk.
    dense_evals: AtomicU64,
    /// Lattice misses served by factored (variable-elimination) evaluation.
    factored_evals: AtomicU64,
    /// Widest intermediate factor any factored evaluation has built
    /// (monotone high-water mark across snapshots).
    elimination_width_max: AtomicU64,
    /// The engine queue's gauges and shed counters (shared with the
    /// engine thread and the senders).
    queue: Arc<EngineQueue<EngineCommand>>,
    /// Rate-limit / deadline refusal counters (shared with the service's
    /// [`Admission`] checks).
    admission: Arc<AdmissionCounters>,
}

/// The current [`ServerStats`], assembled from the shared counters and
/// the reactor's metrics.
fn server_stats(shared: &Shared) -> ServerStats {
    ServerStats {
        connections: shared.net.accepted(),
        open_connections: shared.net.open(),
        dropped_connections: shared.net.dropped(),
        idle_timeouts: shared.net.idle_timeouts(),
        overload_refusals: shared.net.overload_refusals(),
        shard_connections: shared.net.shard_open(),
        requests: shared.requests.load(Ordering::Relaxed),
        protocol_errors: shared.protocol_errors.load(Ordering::Relaxed),
        lattice_hits: shared.lattice_hits.load(Ordering::Relaxed),
        lattice_misses: shared.dense_evals.load(Ordering::Relaxed)
            + shared.factored_evals.load(Ordering::Relaxed),
        dense_evals: shared.dense_evals.load(Ordering::Relaxed),
        factored_evals: shared.factored_evals.load(Ordering::Relaxed),
        elimination_width_max: shared.elimination_width_max.load(Ordering::Relaxed),
        engine_queue_depth: shared.queue.depth(),
        engine_queue_cap: shared.queue.write_cap() as u64,
        shed_writes: shared.queue.shed_writes(),
        shed_control: shared.queue.shed_control(),
        deadline_exceeded: shared.admission.deadline_exceeded.load(Ordering::Relaxed),
        rate_limited: shared.admission.rate_limited.load(Ordering::Relaxed),
    }
}

/// The server constructor namespace.
pub struct Server;

impl Server {
    /// Binds the listener, spawns the engine thread, the reactor
    /// (acceptor + loop shards) and the fabric role's pumps, and returns a
    /// handle.  The server is serving as soon as this returns.
    pub fn start(schema: Arc<Schema>, config: ServeConfig) -> Result<ServerHandle, ServeError> {
        config.role.validate()?;
        let mut stream = config.stream.clone();
        if matches!(config.role, FabricRole::IngestNode { .. }) {
            // The node only tabulates; fitting happens on the coordinator
            // over the merged counts.
            stream.policy = RefreshPolicy::Manual;
        }
        let mut engine = StreamingEngine::new(Arc::clone(&schema), stream)
            .map_err(|e| ServeError::Config { reason: e.to_string() })?;
        // Recovery runs synchronously, before the listener exists: by the
        // time a client can connect, every durable tuple is back.
        let durability = Durability::build(&mut engine, &config.durability)?;
        let snapshots = engine.handle();
        // SO_REUSEADDR bind: a crash-restarted node must be able to
        // reclaim its port through the dead process's TIME_WAIT sockets.
        let listener = pka_net::bind_reuseaddr(config.host.as_str(), config.port)?;
        let addr = listener.local_addr()?;

        let net_config = NetConfig {
            loop_shards: config.loop_shards,
            max_connections: config.max_connections,
            idle_timeout_ms: config.idle_timeout_ms,
            max_line_bytes: config.max_line_bytes,
            write_high_water: NetConfig::default().write_high_water,
        }
        .normalized();
        let metrics = Arc::new(ReactorMetrics::new(net_config.loop_shards));
        let shutdown = Arc::new(AtomicBool::new(false));

        let (engine_tx, queue) = engine_channel::<EngineCommand>(config.engine_queue_cap);
        let engine_queue = Arc::clone(&queue);
        let changes = Arc::new(ChangeWatch::new());
        let engine_changes = Arc::clone(&changes);
        let engine_thread = std::thread::Builder::new()
            .name("pka-serve-engine".to_string())
            .spawn(move || run_engine(engine, engine_queue, durability, &engine_changes))?;

        let admission = Arc::new(AdmissionCounters::default());
        let shared = Arc::new(Shared {
            schema,
            snapshots,
            role: config.role.clone(),
            shutdown: Arc::clone(&shutdown),
            max_line_bytes: net_config.max_line_bytes,
            net: Arc::clone(&metrics),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            lattice_hits: AtomicU64::new(0),
            dense_evals: AtomicU64::new(0),
            factored_evals: AtomicU64::new(0),
            elimination_width_max: AtomicU64::new(0),
            queue,
            admission: Arc::clone(&admission),
        });
        // The reactor threads hold the only service `Arc`s, and with them
        // the only `EngineCommand` senders besides the pumps' and those in
        // in-flight responders.  A pump's sender lets an ingest node's
        // final flush reach the engine after the reactor has joined; once
        // the pumps exit too, the engine thread finishes.  The handle deliberately
        // keeps no sender.
        let pump_engine = engine_tx.clone();
        let service = Arc::new(ServeService {
            shared: Arc::clone(&shared),
            engine_tx,
            admission: Admission::new(config.rate_limit, admission),
        });
        let reactor = Reactor::start(listener, service, net_config, shutdown, metrics)?;

        let mut server = ServerHandle {
            addr,
            shared,
            changes,
            reactor: Some(reactor),
            pumps: Vec::new(),
            peers: Arc::default(),
            engine: Some(engine_thread),
        };
        // Spawned last: if a spawn fails, dropping `server` shuts the rest
        // down in order.
        let context = PumpContext {
            snapshots: server.snapshots(),
            engine: pump_engine,
            changes: Arc::clone(&server.changes),
            node_name: config.node_name.clone().unwrap_or_else(|| addr.to_string()),
            peers: Arc::clone(&server.peers),
        };
        fabric::spawn_pumps(&config.role, context, &mut server.pumps)?;
        Ok(server)
    }
}

/// A running server.  Dropping the handle shuts the server down (joining
/// every thread); prefer [`ServerHandle::shutdown`] to also recover the
/// engine.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    changes: Arc<ChangeWatch>,
    reactor: Option<ReactorHandle>,
    pumps: Vec<JoinHandle<()>>,
    /// The pumps' peer sockets, for shutdown to cut a stalled call.
    peers: Arc<PeerSockets>,
    engine: Option<JoinHandle<StreamingEngine>>,
}

impl ServerHandle {
    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.addr.port()
    }

    /// A wait-free read handle onto the served snapshots (for in-process
    /// readers and tests).
    pub fn snapshots(&self) -> SnapshotHandle {
        self.shared.snapshots.clone()
    }

    /// The reactor's connection telemetry (also surfaced in `stats`
    /// responses as the `server` object).
    pub fn net_metrics(&self) -> Arc<ReactorMetrics> {
        Arc::clone(&self.shared.net)
    }

    /// True once shutdown has been requested (by this handle or by a
    /// client's `shutdown` request).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the server shuts down (e.g. a client sent `shutdown`),
    /// then joins every thread and returns the engine.
    pub fn wait(mut self) -> Result<StreamingEngine, ServeError> {
        self.join_threads()
    }

    /// Requests shutdown, joins every thread and returns the engine.
    pub fn shutdown(mut self) -> Result<StreamingEngine, ServeError> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.join_threads()
    }

    /// Joins in dependency order: the reactor drains (no new work), the
    /// change watch closes, the pumps exit (an ingest node's after its
    /// final flush through the still-running engine), and the engine —
    /// its last sender gone — finishes and cuts its final checkpoint.  A
    /// peer call left unanswered a short grace into shutdown is cut.
    fn join_threads(&mut self) -> Result<StreamingEngine, ServeError> {
        if let Some(mut reactor) = self.reactor.take() {
            // Blocks until the shutdown flag rises (here, or via a client's
            // `shutdown` request) and the drain completes; on return the
            // reactor threads have dropped their service `Arc`s.
            reactor.join();
        }
        self.changes.close();
        fabric::join_pumps(&mut self.pumps, &self.peers);
        let engine = self
            .engine
            .take()
            .ok_or(ServeError::EngineDown)?
            .join()
            .map_err(|_| ServeError::Config { reason: "engine thread panicked".into() })?;
        Ok(engine)
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let _ = self.join_threads();
    }
}

/// A cloneable, thread-safe request for graceful shutdown, detached from
/// the [`ServerHandle`]'s lifetime.  A signal-watcher thread holds one and
/// raises it on `SIGTERM`, while the main thread blocks in
/// [`ServerHandle::wait`]; the reactor then drains connections and the
/// engine thread writes its final checkpoint.
#[derive(Debug, Clone)]
pub struct ShutdownTrigger {
    flag: Arc<AtomicBool>,
}

impl ShutdownTrigger {
    /// Requests shutdown.  Idempotent; safe from any thread.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }
}

impl ServerHandle {
    /// A trigger that requests this server's graceful shutdown without
    /// consuming (or outliving concerns about) the handle itself.
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger { flag: Arc::clone(&self.shared.shutdown) }
    }
}

/// The engine thread's durability state: the open journal, the checkpoint
/// schedule, and the counters surfaced through `stats`.  Lives on the
/// engine thread, so nothing here needs a lock.
struct Durability {
    journal: Option<ShardJournal>,
    /// Local tuple count covered by the newest journal record (recovered
    /// or appended); appends happen only when the engine's count grows
    /// past it, so replayed batches never re-journal.
    journaled_seq: u64,
    checkpoint_path: Option<PathBuf>,
    checkpoint_interval: Duration,
    last_checkpoint: Instant,
    /// Engine-state fingerprint covered by the last checkpoint; an
    /// unchanged fingerprint skips the write entirely (an idle fabric
    /// costs zero I/O).
    checkpoint_state: (u64, u64, u64),
    journal_records: u64,
    checkpoints_written: u64,
}

impl Durability {
    /// Opens the journal, loads the checkpoint, and restores the engine —
    /// synchronously, before the server binds.  Durable-state damage that
    /// recovery cannot repair (an unreadable checkpoint, a schema
    /// mismatch) refuses to start rather than silently serving a model
    /// that forgot data.
    fn build(
        engine: &mut StreamingEngine,
        config: &DurabilityConfig,
    ) -> Result<Durability, ServeError> {
        let durability_err = |e: StreamError| ServeError::Config { reason: e.to_string() };
        let mut journal = None;
        let mut journal_recovery = None;
        if let Some(path) = &config.journal_path {
            let (j, recovery) =
                ShardJournal::open(path, config.journal_fsync).map_err(durability_err)?;
            journal = Some(j);
            journal_recovery = Some(recovery);
        }
        let mut checkpoint = None;
        if let Some(path) = &config.checkpoint_path {
            // A missing file is a fresh start, not an error: the first
            // checkpoint will create it.
            if path.exists() {
                checkpoint = Some(FabricCheckpoint::load(path).map_err(durability_err)?);
            }
        }
        if journal_recovery.is_some() || checkpoint.is_some() {
            engine.restore(journal_recovery.as_ref(), checkpoint).map_err(durability_err)?;
        }
        Ok(Durability {
            journaled_seq: engine.local_tuples(),
            journal,
            checkpoint_path: config.checkpoint_path.clone(),
            checkpoint_interval: config.checkpoint_interval.max(Duration::from_millis(10)),
            last_checkpoint: Instant::now(),
            checkpoint_state: Self::fingerprint(engine),
            journal_records: 0,
            checkpoints_written: 0,
        })
    }

    /// A cheap digest of everything a checkpoint captures: local counts,
    /// the placement map's cumulative mass, and the snapshot version
    /// (tracked via the refit counter).
    fn fingerprint(engine: &StreamingEngine) -> (u64, u64, u64) {
        let remote: u64 = engine
            .remote_sources()
            .iter()
            .map(|s| s.seq.wrapping_add(s.tuples))
            .fold(0u64, u64::wrapping_add);
        (engine.local_tuples(), remote, engine.refit_count())
    }

    /// How long `run_engine` may block in `recv` before durability work
    /// is due; `None` when nothing ever will be (plain blocking `recv`).
    fn tick_timeout(&self) -> Option<Duration> {
        let journal_due = self.journal.as_ref().and_then(ShardJournal::next_sync_due);
        let checkpoint_due = self
            .checkpoint_path
            .as_ref()
            .map(|_| self.checkpoint_interval.saturating_sub(self.last_checkpoint.elapsed()));
        let due = match (journal_due, checkpoint_due) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return None,
        };
        Some(due.max(Duration::from_millis(5)))
    }

    /// Journals the engine's local cumulative shard if it grew.  Called
    /// after a successful ingest, **before** the acknowledgement is sent:
    /// under `FsyncPolicy::PerRecord` the client's `ok` proves the tuples
    /// reached stable storage.
    fn record_local(&mut self, engine: &StreamingEngine) {
        let Some(journal) = self.journal.as_mut() else { return };
        let seq = engine.local_tuples();
        if seq <= self.journaled_seq {
            return;
        }
        match journal.append(seq, &engine.export_local_shard()) {
            Ok(()) => {
                self.journaled_seq = seq;
                self.journal_records += 1;
            }
            // Non-fatal: the engine already absorbed the batch, and
            // failing the reply would trigger a client resend and a
            // double count.  The next append retries the write.
            Err(e) => eprintln!("pka-serve: journal append failed: {e}"),
        }
    }

    /// Interval housekeeping: flush due journal writes, checkpoint if the
    /// interval elapsed and the engine changed.  Cheap when nothing is
    /// due, so it also runs after every command (a busy engine would
    /// otherwise never hit the `recv` timeout that drives it).
    fn tick(&mut self, engine: &StreamingEngine) {
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.sync_if_due() {
                eprintln!("pka-serve: journal sync failed: {e}");
            }
        }
        if self.checkpoint_path.is_some()
            && self.last_checkpoint.elapsed() >= self.checkpoint_interval
        {
            self.checkpoint_now(engine);
        }
    }

    /// Final flush + checkpoint when the engine thread exits (graceful
    /// shutdown): nothing acknowledged is left only in page cache.
    fn finalize(&mut self, engine: &StreamingEngine) {
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.sync() {
                eprintln!("pka-serve: final journal sync failed: {e}");
            }
        }
        self.checkpoint_now(engine);
    }

    fn checkpoint_now(&mut self, engine: &StreamingEngine) {
        let Some(path) = self.checkpoint_path.clone() else { return };
        self.last_checkpoint = Instant::now();
        let fingerprint = Self::fingerprint(engine);
        if fingerprint == self.checkpoint_state {
            return;
        }
        match engine.capture_checkpoint().and_then(|cp| cp.save(&path)) {
            Ok(_) => {
                self.checkpoint_state = fingerprint;
                self.checkpoints_written += 1;
            }
            Err(e) => eprintln!("pka-serve: checkpoint write failed: {e}"),
        }
    }
}

/// The engine thread: owns the [`StreamingEngine`], drains commands until
/// every sender is gone (the reactor threads exited, dropping the service
/// and with it the channel), then writes a final checkpoint and returns
/// the engine to [`ServerHandle::shutdown`].  Each command carries a
/// [`Responder`] that formats the response and delivers it to the
/// requesting connection.  A command that can change state bumps
/// `changes` after its reply is handed off.  Between commands the thread
/// wakes on a durability timer to flush journal writes and cut
/// checkpoints.
fn run_engine(
    mut engine: StreamingEngine,
    queue: Arc<EngineQueue<EngineCommand>>,
    mut durability: Durability,
    changes: &ChangeWatch,
) -> StreamingEngine {
    loop {
        match queue.recv(durability.tick_timeout()) {
            RecvOutcome::TimedOut => durability.tick(&engine),
            RecvOutcome::Closed => break,
            RecvOutcome::Item(entry) => {
                if process_entry(&mut engine, &mut durability, &queue, entry) {
                    changes.bump();
                }
                durability.tick(&engine);
            }
        }
    }
    durability.finalize(&engine);
    engine
}

/// Serves one dequeued command: refuse it if its deadline budget expired
/// in the queue, batch-absorb when it is a `shard-push` (draining every
/// other queued push so the whole backlog merges in one pass), and feed
/// the observed service time back into the queue's backoff hint.  True
/// when the command could have changed counts or the published snapshot.
fn process_entry(
    engine: &mut StreamingEngine,
    durability: &mut Durability,
    queue: &EngineQueue<EngineCommand>,
    entry: QueueEntry<EngineCommand>,
) -> bool {
    let Some(command) = refuse_if_expired(entry) else { return false };
    let mutates =
        !matches!(command, EngineCommand::Stats { .. } | EngineCommand::ExportShard { .. });
    let started = Instant::now();
    if matches!(command, EngineCommand::AbsorbShard { .. }) {
        let mut batch = vec![command];
        batch.extend(
            queue
                .drain_write_matching(|c| matches!(c, EngineCommand::AbsorbShard { .. }))
                .into_iter()
                .filter_map(refuse_if_expired),
        );
        absorb_shard_batch(engine, batch);
    } else {
        handle_command(engine, durability, command);
    }
    queue.note_service_time(started.elapsed());
    mutates
}

/// Enforces a queued command's `deadline_ms` budget at dequeue time: an
/// expired command is answered `deadline-exceeded` through its responder
/// instead of occupying the engine.
fn refuse_if_expired(entry: QueueEntry<EngineCommand>) -> Option<EngineCommand> {
    if entry.deadline.is_none_or(|d| Instant::now() < d) {
        return Some(entry.item);
    }
    match entry.item {
        EngineCommand::Ingest { reply, .. } => reply(Err(Refusal::deadline())),
        EngineCommand::Refresh { reply } => reply(Err(Refusal::deadline())),
        EngineCommand::AbsorbShard { reply, .. } => reply(Err(Refusal::deadline())),
        EngineCommand::ExportShard { reply } => reply(Err(Refusal::deadline())),
        EngineCommand::SyncSnapshot { reply, .. } => reply(Err(Refusal::deadline())),
        // `stats` never carries a deadline (its responder has no error
        // channel); serve it regardless.
        stats @ EngineCommand::Stats { .. } => return Some(stats),
    }
    None
}

/// Absorbs a batch of `shard-push` deliveries in one engine pass (at most
/// one refit for the whole batch) and answers each through its responder.
fn absorb_shard_batch(engine: &mut StreamingEngine, batch: Vec<EngineCommand>) {
    let mut deliveries = Vec::with_capacity(batch.len());
    let mut replies = Vec::with_capacity(batch.len());
    for command in batch {
        let EngineCommand::AbsorbShard { source, seq, shard, reply } = command else {
            unreachable!("absorb_shard_batch is only fed AbsorbShard commands");
        };
        deliveries.push(RemoteDelivery { source, seq, shard });
        replies.push(reply);
    }
    let outcomes = engine.accept_remote_shards(deliveries);
    for (outcome, reply) in outcomes.into_iter().zip(replies) {
        let outcome = outcome
            .map(|report| {
                let (refit, refit_error, refit_triggered) = match report.refit {
                    RefitOutcome::NotTriggered => (None, None, false),
                    RefitOutcome::Completed(ref r) => {
                        (Some(RefitSummary::from_report(r)), None, true)
                    }
                    RefitOutcome::Failed(ref e) => (None, Some(e.to_string()), true),
                };
                ShardPushSummary {
                    applied: report.applied,
                    delta_tuples: report.delta_tuples,
                    source_tuples: report.source_tuples,
                    pending: engine.pending(),
                    total_ingested: engine.total_ingested(),
                    refit_triggered,
                    refit,
                    refit_error,
                }
            })
            .map_err(|e| Refusal::engine(e.to_string()));
        reply(outcome);
    }
}

fn handle_command(
    engine: &mut StreamingEngine,
    durability: &mut Durability,
    command: EngineCommand,
) {
    match command {
        EngineCommand::Ingest { rows, reply } => {
            let outcome = engine
                .ingest_batch(&rows)
                .map(|report| {
                    let (refit, refit_error, refit_triggered) = match report.refit {
                        RefitOutcome::NotTriggered => (None, None, false),
                        RefitOutcome::Completed(ref r) => {
                            (Some(RefitSummary::from_report(r)), None, true)
                        }
                        RefitOutcome::Failed(ref e) => (None, Some(e.to_string()), true),
                    };
                    IngestSummary {
                        accepted: report.accepted,
                        pending: engine.pending(),
                        total_ingested: engine.total_ingested(),
                        refit_triggered,
                        refit,
                        refit_error,
                    }
                })
                .map_err(|e| Refusal::engine(e.to_string()));
            // Journal before acknowledging: under per-record fsync
            // the `ok` line proves the batch reached stable storage.
            if outcome.is_ok() {
                durability.record_local(engine);
            }
            reply(outcome);
        }
        EngineCommand::Refresh { reply } => {
            let outcome = engine
                .refresh()
                .map(|r| RefitSummary::from_report(&r))
                .map_err(|e| Refusal::engine(e.to_string()));
            reply(outcome);
        }
        EngineCommand::Stats { reply } => {
            let cache = engine.solver_cache_stats();
            let recovery = engine.recovery_stats();
            let sources: Vec<SourceStat> = engine
                .remote_sources()
                .into_iter()
                .map(|s| SourceStat {
                    name: s.name,
                    seq: s.seq,
                    tuples: s.tuples,
                    last_push_age_ms: s.last_push_age.as_millis() as u64,
                })
                .collect();
            let max_push_age_ms = sources.iter().map(|s| s.last_push_age_ms).max();
            reply(EngineStats {
                total_ingested: engine.total_ingested(),
                pending: engine.pending(),
                refits: engine.refit_count(),
                solver_sweeps: engine.total_solver_iterations(),
                cache_full_hits: cache.full_hits,
                cache_extensions: cache.extensions,
                cache_rebuilds: cache.rebuilds,
                remote_sources: engine.remote_source_count(),
                remote_tuples: engine.remote_tuples(),
                synced_snapshots: engine.synced_snapshots(),
                recovered_sources: recovery.recovered_sources,
                recovered_tuples: recovery.recovered_tuples,
                journal_truncated_bytes: recovery.journal_truncated_bytes,
                journal_records: durability.journal_records,
                checkpoints_written: durability.checkpoints_written,
                max_push_age_ms,
                sources,
                last_refit: engine.last_refit_phases().map(RefitPhaseMicros::from_phases),
            });
        }
        command @ EngineCommand::AbsorbShard { .. } => absorb_shard_batch(engine, vec![command]),
        EngineCommand::ExportShard { reply } => {
            let shard = engine.export_local_shard();
            let tuples = shard.tuple_count();
            reply(Ok((shard, tuples)));
        }
        EngineCommand::SyncSnapshot { meta, knowledge_base, reply } => {
            let outcome = engine
                .apply_synced_snapshot(&meta, *knowledge_base)
                .map(SyncSummary::from_report)
                .map_err(|e| Refusal::engine(e.to_string()));
            reply(outcome);
        }
    }
}

/// The protocol implementation behind the reactor's [`LineService`] seam:
/// frames arrive from `pka-net`, responses leave as [`Action`]s (or later
/// through a [`Completion`] for engine-bound methods).
struct ServeService {
    shared: Arc<Shared>,
    engine_tx: EngineSender<EngineCommand>,
    admission: Admission,
}

impl LineService for ServeService {
    fn on_line(&self, line: &[u8], completion: Completion) -> Action {
        respond_to(line, &self.shared, &self.engine_tx, &self.admission, completion)
    }

    fn overlong_response(&self) -> String {
        self.shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
        error_line(
            &Value::Null,
            ErrorCode::OverlongLine,
            &format!(
                "request line exceeded the {}-byte cap and was discarded",
                self.shared.max_line_bytes
            ),
        )
    }

    fn overloaded_response(&self) -> String {
        error_line(
            &Value::Null,
            ErrorCode::Overloaded,
            "server is at its connection cap; retry later or against another node",
        )
    }

    fn on_close(&self, conn: ConnId) {
        self.admission.release(conn);
    }
}

/// Where one dispatched request's response will come from.
enum Dispatched {
    /// Answered on the loop shard: the `result` value, plus whether the
    /// connection should stay open afterwards.
    Ready(Value, bool),
    /// Shipped to the engine thread with a responder that will answer
    /// through the connection's [`Completion`].
    Deferred,
}

/// Produces the [`Action`] for one raw request line: parse it once, admit
/// the parsed envelope, then dispatch.  A line admission refuses is not
/// counted in `requests`.
fn respond_to(
    raw: &[u8],
    shared: &Arc<Shared>,
    engine_tx: &EngineSender<EngineCommand>,
    admission: &Admission,
    completion: Completion,
) -> Action {
    let conn = completion.conn_id();
    let parsed = match std::str::from_utf8(raw) {
        Ok(text) => parse_request(text),
        Err(_) => Err(RequestError::new(ErrorCode::InvalidUtf8, "request line is not valid UTF-8")),
    };
    let request = match parsed {
        Ok(request) => request,
        Err(e) => {
            // A malformed line has no deadline or method to judge, but it
            // still draws from its connection's bucket.
            if let Err(refusal) = admission.charge_connection(conn, &e.id) {
                return Action::Respond(request_error_line(&refusal));
            }
            shared.requests.fetch_add(1, Ordering::Relaxed);
            shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return Action::Respond(request_error_line(&e));
        }
    };
    if let Err(refusal) = admission.admit(conn, &request) {
        return Action::Respond(request_error_line(&refusal));
    }
    shared.requests.fetch_add(1, Ordering::Relaxed);
    if shared.shutdown.load(Ordering::SeqCst) {
        return Action::RespondClose(error_line(
            &request.id,
            ErrorCode::ShuttingDown,
            "server is shutting down",
        ));
    }
    // A request's `deadline_ms` budget starts counting at parse time; the
    // engine re-checks it at dequeue so queued work whose budget expired
    // is refused instead of served late.
    let expiry = request.deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    match dispatch(&request, shared, engine_tx, expiry, completion) {
        Ok(Dispatched::Ready(result, true)) => Action::Respond(ok_line(&request.id, result)),
        Ok(Dispatched::Ready(result, false)) => {
            // `shutdown` acknowledged: raise the flag (starting the
            // reactor's drain) and close this connection once the
            // acknowledgement has flushed.
            shared.shutdown.store(true, Ordering::SeqCst);
            Action::RespondClose(ok_line(&request.id, result))
        }
        Ok(Dispatched::Deferred) => Action::Deferred,
        Err(e) => {
            // Overload sheds and expired budgets are well-formed traffic
            // answered by policy, not protocol misuse; they have their own
            // counters.
            if !matches!(e.code, ErrorCode::Overloaded | ErrorCode::DeadlineExceeded) {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
            }
            // Dispatch errors always belong to this request, whatever id
            // the deeper helper had available.
            Action::Respond(request_error_line(&RequestError { id: request.id, ..e }))
        }
    }
}

/// Renders a request's error line, with its `retry_after_ms` hint when it
/// has one.
fn request_error_line(e: &RequestError) -> String {
    match e.retry_after_ms {
        Some(ms) => protocol::error_line_retry(&e.id, e.code, &e.message, ms),
        None => error_line(&e.id, e.code, &e.message),
    }
}

/// Builds the responder for an engine command whose success is a plain
/// serialisable summary: format the `ok` line (or an `ingest-error`) and
/// deliver it through the connection's [`Completion`].  Runs on the
/// engine thread.
fn summary_responder<T: Serialize + Send + 'static>(
    request: &Request,
    shared: &Arc<Shared>,
    completion: Completion,
) -> Responder<Result<T, Refusal>> {
    let id = request.id.clone();
    let shared = Arc::clone(shared);
    Box::new(move |outcome| {
        let line = match outcome {
            Ok(summary) => ok_line(&id, Serialize::serialize(&summary)),
            Err(refusal) => {
                note_refusal(&shared, &refusal);
                error_line(&id, refusal.code, &refusal.message)
            }
        };
        completion.respond(line);
    })
}

/// Books one responder-path refusal on the right counter: expired budgets
/// are admission policy (`deadline_exceeded`), everything else is an
/// engine failure counted with the protocol errors.
fn note_refusal(shared: &Shared, refusal: &Refusal) {
    if refusal.code == ErrorCode::DeadlineExceeded {
        shared.admission.note_deadline_exceeded();
    } else {
        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// Evaluates one request.  Read-path methods answer on the loop shard
/// ([`Dispatched::Ready`]); engine-bound methods ship an [`EngineCommand`]
/// carrying a responder and pause the connection
/// ([`Dispatched::Deferred`]).  An `Err` is always answered on the shard.
fn dispatch(
    request: &Request,
    shared: &Arc<Shared>,
    engine_tx: &EngineSender<EngineCommand>,
    expiry: Option<Instant>,
    completion: Completion,
) -> Result<Dispatched, protocol::RequestError> {
    let open = |v| Ok(Dispatched::Ready(v, true));
    match request.method.as_str() {
        "ping" => open(protocol::object([("pong", Value::Bool(true))])),
        "schema" => open(schema_value(&shared.schema)),
        "snapshot-version" => {
            let meta = shared
                .snapshots
                .load()
                .map(|s| Serialize::serialize(&s.meta()))
                .unwrap_or(Value::Null);
            open(protocol::object([("snapshot", meta)]))
        }
        "query" => {
            let snapshot = shared.snapshots.load().ok_or_else(no_snapshot)?;
            let question = protocol::question(snapshot.knowledge_base().schema(), request.params)?;
            let answer = answer_query(&snapshot, question, shared)?;
            open(single_query_value(&snapshot, answer))
        }
        "query-batch" => {
            let snapshot = shared.snapshots.load().ok_or_else(no_snapshot)?;
            let questions =
                protocol::batch_questions(snapshot.knowledge_base().schema(), request.params)?;
            // One snapshot load for the whole batch: every entry is
            // answered from the same immutable state, so a refit landing
            // mid-batch can never produce torn answers within one response.
            let results: Vec<Value> = questions
                .into_iter()
                .map(|question| match question.and_then(|q| answer_query(&snapshot, q, shared)) {
                    Ok(answer) => batch_entry_value(answer),
                    Err(e) => batch_error_value(e.code, &e.message),
                })
                .collect();
            open(protocol::object([
                ("count", Value::U64(results.len() as u64)),
                ("results", Value::Array(results)),
                ("snapshot_version", Value::U64(snapshot.version())),
                ("observations", Value::U64(snapshot.observations())),
            ]))
        }
        "explain" => {
            let snapshot = shared.snapshots.load().ok_or_else(no_snapshot)?;
            let kb = snapshot.knowledge_base();
            let schema = kb.schema();
            let Query { target, evidence } = protocol::question(schema, request.params)?;
            let explanation = explain_query_with(kb, &target, &evidence, counted(kb, shared))
                .map_err(|e| protocol::RequestError { id: request.id.clone(), ..query_error(e) })?;
            let steps = explanation
                .steps
                .iter()
                .map(|step| {
                    protocol::object([
                        ("evidence", assignment_to_value(schema, &step.evidence_so_far)),
                        ("probability", Value::F64(step.probability)),
                    ])
                })
                .collect();
            let constraints = explanation
                .supporting_constraints
                .iter()
                .map(|(cell, p)| {
                    protocol::object([
                        ("cell", assignment_to_value(schema, cell)),
                        ("probability", Value::F64(*p)),
                    ])
                })
                .collect();
            open(protocol::object([
                ("target", assignment_to_value(schema, &explanation.target)),
                ("evidence", assignment_to_value(schema, &explanation.evidence)),
                ("prior", Value::F64(explanation.prior)),
                ("posterior", Value::F64(explanation.posterior)),
                ("lift", lift_value(explanation.posterior, explanation.prior)),
                ("steps", Value::Array(steps)),
                ("supporting_constraints", Value::Array(constraints)),
                ("rendered", Value::Str(explanation.render(schema))),
                ("snapshot_version", Value::U64(snapshot.version())),
            ]))
        }
        "ingest" => {
            require_role(request, shared)?;
            let rows = rows_from_value(&request.params)?;
            let reply = summary_responder::<IngestSummary>(request, shared, completion);
            send_engine(
                engine_tx,
                CommandClass::Write,
                expiry,
                EngineCommand::Ingest { rows, reply },
                request,
            )?;
            Ok(Dispatched::Deferred)
        }
        "refresh" => {
            require_role(request, shared)?;
            let reply = summary_responder::<RefitSummary>(request, shared, completion);
            send_engine(
                engine_tx,
                CommandClass::Control,
                expiry,
                EngineCommand::Refresh { reply },
                request,
            )?;
            Ok(Dispatched::Deferred)
        }
        "stats" => {
            let id = request.id.clone();
            let shared = Arc::clone(shared);
            let reply: Responder<EngineStats> = Box::new(move |engine| {
                let snapshot_meta = shared
                    .snapshots
                    .load()
                    .map(|s| Serialize::serialize(&s.meta()))
                    .unwrap_or(Value::Null);
                let result = protocol::object([
                    ("engine", Serialize::serialize(&engine)),
                    ("snapshot", snapshot_meta),
                    ("server", Serialize::serialize(&server_stats(&shared))),
                ]);
                completion.respond(ok_line(&id, result));
            });
            // No deadline: the stats responder has no error channel, and a
            // stats probe is exactly what an operator needs under overload.
            send_engine(
                engine_tx,
                CommandClass::Control,
                None,
                EngineCommand::Stats { reply },
                request,
            )?;
            Ok(Dispatched::Deferred)
        }
        "shard-push" => {
            require_role(request, shared)?;
            let params = request.params.to_value();
            let source = match params.get("source") {
                Some(Value::Str(s)) if !s.is_empty() => s.clone(),
                Some(Value::Str(_)) => {
                    return Err(invalid_params("`source` must be a non-empty string"))
                }
                Some(other) => {
                    return Err(invalid_params(&format!(
                        "`source` must be a string, found {}",
                        other.kind()
                    )))
                }
                None => return Err(invalid_params("missing `source`")),
            };
            let seq = match params.get("seq") {
                Some(v) => {
                    v.as_u64().ok_or_else(|| invalid_params("`seq` must be an unsigned integer"))?
                }
                None => return Err(invalid_params("missing `seq`")),
            };
            let shard_value =
                params.get("shard").ok_or_else(|| invalid_params("missing `shard`"))?;
            let shard = CountShard::from_value(shard_value).map_err(protocol::stream_error)?;
            let reply = summary_responder::<ShardPushSummary>(request, shared, completion);
            send_engine(
                engine_tx,
                CommandClass::Write,
                expiry,
                EngineCommand::AbsorbShard { source, seq, shard, reply },
                request,
            )?;
            Ok(Dispatched::Deferred)
        }
        "snapshot-sync" => {
            require_role(request, shared)?;
            let (meta, knowledge_base) = protocol::snapshot_from_value(&request.params.to_value())?;
            let reply = summary_responder::<SyncSummary>(request, shared, completion);
            send_engine(
                engine_tx,
                CommandClass::Control,
                expiry,
                EngineCommand::SyncSnapshot {
                    meta,
                    knowledge_base: Box::new(knowledge_base),
                    reply,
                },
                request,
            )?;
            Ok(Dispatched::Deferred)
        }
        "snapshot-pull" => {
            // Read-only: served straight off the wait-free snapshot slot,
            // no engine round-trip.
            let snapshot = match shared.snapshots.load() {
                Some(snapshot) => protocol::object([
                    ("meta", Serialize::serialize(&snapshot.meta())),
                    ("knowledge_base", Serialize::serialize(snapshot.knowledge_base())),
                ]),
                None => Value::Null,
            };
            open(protocol::object([
                ("format_version", Value::U64(WIRE_FORMAT_VERSION)),
                ("snapshot", snapshot),
            ]))
        }
        "shutdown" => {
            Ok(Dispatched::Ready(protocol::object([("shutting_down", Value::Bool(true))]), false))
        }
        other => Err(protocol::RequestError {
            code: ErrorCode::UnknownMethod,
            message: format!("unknown method `{other}`"),
            id: request.id.clone(),
            retry_after_ms: None,
        }),
    }
}

/// Answers one `P(target | evidence)` question against a snapshot —
/// shared by `query` and every `query-batch` entry, so the two paths can
/// never drift apart arithmetically.  The answer is [`Query::answer`]
/// (Bayes' identity, written once in `pka-core`) over the snapshot
/// knowledge base's own evaluation path ([`counted`]).
fn answer_query(
    snapshot: &Snapshot,
    question: Query,
    shared: &Shared,
) -> Result<QueryResult, protocol::RequestError> {
    let kb = snapshot.knowledge_base();
    question.answer(kb.schema(), counted(kb, shared)).map_err(query_error)
}

/// A knowledge base's marginal probabilities ([`KnowledgeBase::evaluate`]),
/// each counted by the path that answered it: `lattice_hits` for a table
/// lookup, `dense_evals` for the dense-joint stride walk, `factored_evals`
/// (plus the elimination-width gauge) for variable elimination.  The read
/// stays wait-free: it touches only the immutable snapshot plus relaxed
/// counters.
fn counted<'a>(kb: &'a KnowledgeBase, shared: &'a Shared) -> impl Fn(&Assignment) -> f64 + 'a {
    move |assignment| {
        let (p, path) = kb.evaluate(assignment);
        let counter = match path {
            EvalPath::Lattice => &shared.lattice_hits,
            EvalPath::Dense => &shared.dense_evals,
            EvalPath::Factored => {
                let width = kb.evaluator().elimination_width_max() as u64;
                shared.elimination_width_max.fetch_max(width, Ordering::Relaxed);
                &shared.factored_evals
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
        p
    }
}

/// A failed Bayes evaluation in wire form (`query-error`).
fn query_error(error: pka_core::CoreError) -> protocol::RequestError {
    protocol::RequestError {
        code: ErrorCode::QueryError,
        message: error.to_string(),
        id: Value::Null,
        retry_after_ms: None,
    }
}

/// The Bayes-identity fields every query answer carries.
fn evaluation_fields(answer: &QueryResult) -> [(&'static str, Value); 5] {
    [
        ("probability", finite_value(answer.probability)),
        ("joint_probability", finite_value(answer.joint_probability)),
        ("evidence_probability", finite_value(answer.evidence_probability)),
        ("prior_probability", finite_value(answer.prior_probability)),
        ("lift", lift_value(answer.probability, answer.prior_probability)),
    ]
}

/// The full `query` result: the evaluation plus the rendered description
/// and the snapshot identity.
fn single_query_value(snapshot: &Snapshot, answer: QueryResult) -> Value {
    let [p, jp, ep, pp, lift] = evaluation_fields(&answer);
    let description = answer.query.describe(snapshot.knowledge_base().schema());
    protocol::object([
        p,
        jp,
        ep,
        pp,
        lift,
        ("description", Value::Str(description)),
        ("snapshot_version", Value::U64(snapshot.version())),
        ("observations", Value::U64(snapshot.observations())),
    ])
}

/// One lean `query-batch` entry: the five evaluation numbers in
/// **positional** form, `[probability, joint_probability,
/// evidence_probability, prior_probability, lift]`.
///
/// Three deliberate economies versus the single-`query` result object, all
/// load-bearing for batch throughput: the snapshot identity is hoisted to
/// the batch envelope (identical for every entry by construction — one
/// snapshot load serves the whole batch), the description is omitted (it
/// only re-renders the caller's own question), and the field names are
/// dropped from the wire entirely — positional rows cut the per-entry
/// bytes ~4× and spare both sides hundreds of key parses per line.
fn batch_entry_value(answer: QueryResult) -> Value {
    let [p, jp, ep, pp, lift] = evaluation_fields(&answer);
    Value::Array(vec![p.1, jp.1, ep.1, pp.1, lift.1])
}

/// One failed `query-batch` entry, in wire form: the same `{code, message}`
/// shape as a top-level error, nested so the batch's other entries still
/// answer.
fn batch_error_value(code: ErrorCode, message: &str) -> Value {
    protocol::object([(
        "error",
        protocol::object([
            ("code", Value::Str(code.as_str().to_string())),
            ("message", Value::Str(message.to_string())),
        ]),
    )])
}

/// Lift in wire form: `posterior / prior`, or `null` when the prior is
/// zero — infinity has no JSON representation, and a typed client must be
/// able to round-trip every field the server emits.
fn lift_value(posterior: f64, prior: f64) -> Value {
    if prior > 0.0 {
        finite_value(posterior / prior)
    } else {
        Value::Null
    }
}

/// A probability in wire form, guarded: a non-finite `f64` (impossible for
/// a well-formed snapshot, but the wire contract must not depend on that)
/// serialises as `null` rather than producing invalid JSON.  The vendored
/// serialiser applies the same mapping as a backstop; this makes the
/// contract explicit at the field level.
fn finite_value(x: f64) -> Value {
    if x.is_finite() {
        Value::F64(x)
    } else {
        Value::Null
    }
}

/// The schema in wire form: attribute names and value names, in order.
fn schema_value(schema: &Schema) -> Value {
    let attributes = schema
        .attributes()
        .iter()
        .map(|attribute| {
            protocol::object([
                ("name", Value::Str(attribute.name().to_string())),
                (
                    "values",
                    Value::Array(
                        attribute.values().iter().map(|v| Value::Str(v.clone())).collect(),
                    ),
                ),
            ])
        })
        .collect();
    protocol::object([("attributes", Value::Array(attributes))])
}

fn no_snapshot() -> protocol::RequestError {
    protocol::RequestError {
        code: ErrorCode::NoSnapshot,
        message: "no snapshot published yet; ingest data and refresh first".to_string(),
        id: Value::Null,
        retry_after_ms: None,
    }
}

fn invalid_params(message: &str) -> protocol::RequestError {
    protocol::RequestError {
        code: ErrorCode::InvalidParams,
        message: message.to_string(),
        id: Value::Null,
        retry_after_ms: None,
    }
}

/// Rejects a request whose method the node's fabric role does not serve.
fn require_role(request: &Request, shared: &Shared) -> Result<(), protocol::RequestError> {
    if shared.role.serves(&request.method) {
        Ok(())
    } else {
        Err(protocol::RequestError {
            code: ErrorCode::UnsupportedRole,
            message: format!(
                "method `{}` is not served by a {} node",
                request.method,
                shared.role.as_str()
            ),
            id: request.id.clone(),
            retry_after_ms: None,
        })
    }
}

/// Admits one command to the engine queue.  A shed (`Full`) refusal turns
/// into a `server-overloaded` error carrying the queue's backoff hint;
/// dropping the unanswered responder inside the refused command is safe
/// because the caller answers the request on the loop shard instead (the
/// connection was never paused).
fn send_engine(
    engine_tx: &EngineSender<EngineCommand>,
    class: CommandClass,
    deadline: Option<Instant>,
    command: EngineCommand,
    request: &Request,
) -> Result<(), protocol::RequestError> {
    engine_tx.push(class, command, deadline).map_err(|refusal| match refusal {
        PushRefusal::Full { retry_after } => protocol::RequestError {
            code: ErrorCode::Overloaded,
            message: "engine queue is full; request shed".to_string(),
            id: request.id.clone(),
            retry_after_ms: Some((retry_after.as_millis() as u64).max(1)),
        },
        PushRefusal::Closed => protocol::RequestError {
            code: ErrorCode::ShuttingDown,
            message: "engine thread is gone".to_string(),
            id: request.id.clone(),
            retry_after_ms: None,
        },
    })
}
