//! The fabric coordinator: merge point and snapshot publisher.
//!
//! A coordinator is a [`pka_serve::Server`] in the
//! [`FabricRole::Coordinator`] role — it accepts `shard-push` deliveries
//! from ingest nodes into the engine's placement map and refits over the
//! merged counts — plus one **pump thread** that (a) optionally *pulls*
//! shards from ingest nodes that cannot push, and (b) offers every newly
//! published snapshot to each configured replica via `snapshot-sync`.
//!
//! The pump is event-driven: it blocks on the server's
//! [`ChangeWatch`](pka_serve::ChangeWatch) and offers a snapshot as soon
//! as the engine publishes it.  It is deliberately stateless about replica
//! health: it tracks only the highest version each replica has
//! acknowledged and re-offers the current snapshot, every sync interval,
//! while a replica is behind.  Because replicas gate on the snapshot
//! version, a re-offer after a lost acknowledgement is a no-op on the
//! replica — at-least-once delivery is safe, so nothing here needs to be
//! exactly-once.

use crate::retry::{FabricClient, RetryPolicy};
use crate::{FabricError, Result};
use pka_contingency::Schema;
use pka_serve::{ChangeWatch, FabricRole, ServeConfig, Server, ServerHandle};
use pka_stream::SnapshotHandle;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of a [`Coordinator`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The underlying server configuration (its role is forced to
    /// [`FabricRole::Coordinator`]).
    pub serve: ServeConfig,
    /// Addresses of replicas to keep in sync via `snapshot-sync`.
    pub replicas: Vec<String>,
    /// Addresses of ingest nodes to poll via `shard-pull` (push-capable
    /// nodes need no entry here).
    pub ingest_nodes: Vec<String>,
    /// How often the pump re-offers the current snapshot to a replica
    /// whose last sync failed, and polls the `shard-pull` ingest nodes.
    /// Fresh snapshots are offered on publish, not on this timer.
    pub sync_interval: Duration,
    /// Retry policy for every peer conversation.
    pub retry: RetryPolicy,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::new(),
            replicas: Vec::new(),
            ingest_nodes: Vec::new(),
            sync_interval: Duration::from_millis(25),
            retry: RetryPolicy::default(),
        }
    }
}

impl CoordinatorConfig {
    /// Defaults: no peers, 25 ms re-offer and poll interval.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the underlying server configuration.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Adds a replica address to keep in sync.
    pub fn with_replica(mut self, addr: impl Into<String>) -> Self {
        self.replicas.push(addr.into());
        self
    }

    /// Adds an ingest-node address to poll via `shard-pull`.
    pub fn with_ingest_node(mut self, addr: impl Into<String>) -> Self {
        self.ingest_nodes.push(addr.into());
        self
    }

    /// Sets the re-offer and poll interval.
    pub fn with_sync_interval(mut self, interval: Duration) -> Self {
        self.sync_interval = interval;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A running coordinator node.
pub struct Coordinator {
    server: Option<ServerHandle>,
    changes: Arc<ChangeWatch>,
    pump: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Coordinator {
    /// Starts the coordinator server and its sync pump.
    pub fn start(schema: Arc<Schema>, config: CoordinatorConfig) -> Result<Self> {
        if config.sync_interval.is_zero() {
            return Err(FabricError::Config {
                reason: "sync_interval must be non-zero".to_string(),
            });
        }
        let serve = config.serve.clone().with_role(FabricRole::Coordinator);
        let server = Server::start(schema, serve)?;
        let addr = server.addr();
        let changes = server.changes();
        let pump = spawn_pump(
            server.snapshots(),
            addr,
            config.replicas,
            config.ingest_nodes,
            config.sync_interval,
            config.retry,
            Arc::clone(&changes),
        );
        Ok(Self { server: Some(server), changes, pump: Some(pump), addr })
    }

    /// The coordinator's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A wait-free read handle onto the coordinator's published snapshots.
    pub fn snapshots(&self) -> SnapshotHandle {
        self.server.as_ref().expect("server runs until consumed").snapshots()
    }

    /// A trigger for this node's graceful shutdown, used by the binary's
    /// signal watcher: raising it unblocks [`Coordinator::wait`], which
    /// drains connections and cuts the final checkpoint.
    pub fn shutdown_trigger(&self) -> pka_serve::ShutdownTrigger {
        self.server.as_ref().expect("server runs until consumed").shutdown_trigger()
    }

    /// Blocks until a client asks the server to shut down, then stops the
    /// pump.
    pub fn wait(mut self) -> Result<()> {
        let server = self.server.take().expect("server runs until consumed");
        let result = server.wait().map(drop).map_err(FabricError::from);
        self.halt_pump();
        result
    }

    /// Shuts the node down: stops the pump, then the server.
    pub fn shutdown(mut self) -> Result<()> {
        self.halt_pump();
        let server = self.server.take().expect("server runs until consumed");
        server.shutdown().map(drop).map_err(FabricError::from)
    }

    fn halt_pump(&mut self) {
        self.changes.close();
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl Drop for Coordinator {
    fn drop(&mut self) {
        self.halt_pump();
    }
}

#[allow(clippy::too_many_arguments)]
fn spawn_pump(
    snapshots: SnapshotHandle,
    self_addr: SocketAddr,
    replicas: Vec<String>,
    ingest_nodes: Vec<String>,
    interval: Duration,
    retry: RetryPolicy,
    changes: Arc<ChangeWatch>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // One highest-acknowledged version per replica; `None` until the
        // replica has acknowledged anything.
        let mut replicas: Vec<(FabricClient, Option<u64>)> = replicas
            .into_iter()
            .map(|addr| (FabricClient::new(addr, retry.clone()), None))
            .collect();
        // One highest-absorbed sequence per polled ingest node.
        let mut pulls: Vec<(FabricClient, u64)> = ingest_nodes
            .into_iter()
            .map(|addr| (FabricClient::new(addr, retry.clone()), 0))
            .collect();
        // Pulled shards are delivered to the engine through the node's own
        // public `shard-push` endpoint, so the push and pull paths share
        // one absorption code path (and its sequence gating).
        let mut loopback = FabricClient::new(self_addr.to_string(), retry);
        let mut next_poll = Instant::now();
        // The generation is read before the snapshot is loaded, so a
        // publish that lands mid-pass is caught by the next wait.
        let mut generation = changes.generation();
        while let Some(seen) = generation {
            // Pull-only nodes cannot announce a change: poll them on the
            // interval, whatever else woke the pump.
            if !pulls.is_empty() && Instant::now() >= next_poll {
                for (peer, last_seq) in pulls.iter_mut() {
                    let pulled = peer.call(|c| c.shard_pull());
                    if let Ok(answer) = pulled {
                        if answer.seq > *last_seq {
                            let pushed = loopback
                                .call(|c| c.shard_push(&answer.source, answer.seq, &answer.shard));
                            if pushed.is_ok() {
                                *last_seq = answer.seq;
                            }
                        }
                    }
                }
                next_poll = Instant::now() + interval;
            }
            if let Some(snapshot) = snapshots.load() {
                let meta = snapshot.meta();
                for (peer, acked) in replicas.iter_mut() {
                    if acked.is_none_or(|v| v < meta.version) {
                        let synced =
                            peer.call(|c| c.snapshot_sync(&meta, snapshot.knowledge_base()));
                        if let Ok(summary) = synced {
                            // A stale answer still reports the replica's
                            // current version, which is exactly the ack we
                            // need.
                            *acked = Some(acked.unwrap_or(0).max(summary.version));
                        }
                    }
                }
            }
            // Wake on the next publish; otherwise re-offer to a behind
            // replica (and poll pull-only nodes) once the interval is up.
            let wait = if pulls.is_empty() {
                interval
            } else {
                next_poll.saturating_duration_since(Instant::now())
            };
            generation = changes.wait_past(seen, wait);
        }
    })
}
