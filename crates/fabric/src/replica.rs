//! Fabric read replicas: wait-free reads off synced snapshots.
//!
//! A replica is a [`pka_serve::Server`] in the [`FabricRole::Replica`]
//! role: it serves the full read protocol (`query`, `query-batch`,
//! `explain`, `stats`, …) but rejects `ingest` and `refresh` — its only
//! write path is `snapshot-sync`, through which the coordinator offers
//! published snapshots.  Each offer is version-gated by the engine, so
//! replayed, duplicated or reordered offers are acknowledged no-ops and a
//! replica's observed version sequence is strictly monotone.
//!
//! A replica can also **catch up** by itself: give it the coordinator's
//! address and a puller thread polls `snapshot-version`, fetches any newer
//! snapshot with `snapshot-pull`, and feeds it through the replica's own
//! `snapshot-sync` endpoint — the same validated path coordinator pushes
//! take, so there is exactly one way a snapshot can enter a replica.

use crate::retry::{FabricClient, RetryPolicy};
use crate::{FabricError, Result};
use pka_contingency::Schema;
use pka_serve::{ChangeWatch, FabricRole, ServeConfig, Server, ServerHandle};
use pka_stream::SnapshotHandle;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of a [`Replica`].
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// The underlying server configuration (role forced to
    /// [`FabricRole::Replica`]).
    pub serve: ServeConfig,
    /// Coordinator to poll for catch-up; `None` makes the replica purely
    /// push-fed.
    pub coordinator: Option<String>,
    /// How often the catch-up puller polls the coordinator.
    pub pull_interval: Duration,
    /// Retry policy for coordinator conversations.
    pub retry: RetryPolicy,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        Self {
            serve: ServeConfig::new(),
            coordinator: None,
            pull_interval: Duration::from_millis(50),
            retry: RetryPolicy::default(),
        }
    }
}

impl ReplicaConfig {
    /// Defaults: push-fed only, 50 ms pull interval once a coordinator is
    /// set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the underlying server configuration.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Sets the coordinator to poll for catch-up.
    pub fn with_coordinator(mut self, addr: impl Into<String>) -> Self {
        self.coordinator = Some(addr.into());
        self
    }

    /// Sets the catch-up poll interval.
    pub fn with_pull_interval(mut self, interval: Duration) -> Self {
        self.pull_interval = interval;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A running read replica.
pub struct Replica {
    server: Option<ServerHandle>,
    changes: Arc<ChangeWatch>,
    puller: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Replica {
    /// Starts the replica server (and its catch-up puller, if a
    /// coordinator address is configured).
    pub fn start(schema: Arc<Schema>, config: ReplicaConfig) -> Result<Self> {
        if config.pull_interval.is_zero() {
            return Err(FabricError::Config {
                reason: "pull_interval must be non-zero".to_string(),
            });
        }
        let serve = config.serve.clone().with_role(FabricRole::Replica);
        let server = Server::start(schema, serve)?;
        let addr = server.addr();
        let changes = server.changes();
        let puller = config.coordinator.map(|coordinator| {
            spawn_puller(
                server.snapshots(),
                addr,
                coordinator,
                config.pull_interval,
                config.retry,
                Arc::clone(&changes),
            )
        });
        Ok(Self { server: Some(server), changes, puller, addr })
    }

    /// The replica's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A wait-free read handle onto the replica's current snapshot.
    pub fn snapshots(&self) -> SnapshotHandle {
        self.server.as_ref().expect("server runs until consumed").snapshots()
    }

    /// A trigger for this node's graceful shutdown, used by the binary's
    /// signal watcher: raising it unblocks [`Replica::wait`].
    pub fn shutdown_trigger(&self) -> pka_serve::ShutdownTrigger {
        self.server.as_ref().expect("server runs until consumed").shutdown_trigger()
    }

    /// Blocks until a client asks the server to shut down, then stops the
    /// puller.
    pub fn wait(mut self) -> Result<()> {
        let server = self.server.take().expect("server runs until consumed");
        let result = server.wait().map(drop).map_err(FabricError::from);
        self.halt_puller();
        result
    }

    /// Shuts the replica down: stops the puller, then the server.
    pub fn shutdown(mut self) -> Result<()> {
        self.halt_puller();
        let server = self.server.take().expect("server runs until consumed");
        server.shutdown().map(drop).map_err(FabricError::from)
    }

    fn halt_puller(&mut self) {
        self.changes.close();
        if let Some(puller) = self.puller.take() {
            let _ = puller.join();
        }
    }
}

impl Drop for Replica {
    fn drop(&mut self) {
        self.halt_puller();
    }
}

fn spawn_puller(
    snapshots: SnapshotHandle,
    self_addr: SocketAddr,
    coordinator: String,
    interval: Duration,
    retry: RetryPolicy,
    changes: Arc<ChangeWatch>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut coordinator = FabricClient::new(coordinator, retry.clone());
        // Pulled snapshots enter through the replica's own public
        // `snapshot-sync` endpoint so push and pull share the engine's
        // validation and version gate.
        let mut loopback = FabricClient::new(self_addr.to_string(), retry);
        // The coordinator is another process: poll it on the interval, and
        // wait on the watch only to be stopped (local syncs are not news).
        while changes.generation().is_some() {
            let local = snapshots.version().unwrap_or(0);
            let remote = coordinator.call(|c| c.snapshot_version());
            if let Ok(Some(version)) = remote {
                if version > local {
                    if let Ok(Some((meta, knowledge_base))) =
                        coordinator.call(|c| c.snapshot_pull())
                    {
                        let _ = loopback.call(|c| c.snapshot_sync(&meta, &knowledge_base));
                    }
                }
            }
            changes.wait_closed(interval);
        }
    })
}
