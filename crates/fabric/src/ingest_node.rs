//! Fabric ingest nodes: local tabulation, cumulative push.
//!
//! An ingest node is a [`pka_serve::Server`] in the
//! [`FabricRole::IngestNode`] role: clients `ingest` rows into it exactly
//! as they would into a standalone server, but the node never refits — its
//! refresh policy is forced to manual, so it stays a cheap tabulator.  A
//! **pusher thread** blocks on the server's
//! [`pka_serve::ChangeWatch`] and, as soon as a batch has been
//! journalled and acknowledged, ships the node's *cumulative*
//! [`pka_stream::CountShard`] to the coordinator under the tuple count as
//! the sequence number.  One push is in flight at a time; batches that
//! land meanwhile ride on the next push.
//!
//! Pushing cumulative counts instead of increments is what makes the
//! fabric tolerate every delivery pathology with one rule: the coordinator
//! keeps the highest-sequence shard per source, so a lost push is repaired
//! by the next one, and a duplicated or reordered push is discarded.

use crate::retry::{FabricClient, RetryPolicy};
use crate::{FabricError, Result};
use pka_contingency::Schema;
use pka_serve::{ChangeWatch, FabricRole, ServeConfig, Server, ServerHandle};
use pka_stream::RefreshPolicy;
use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of an [`IngestNode`].
#[derive(Debug, Clone)]
pub struct IngestNodeConfig {
    /// The underlying server configuration (role forced to
    /// [`FabricRole::IngestNode`], refresh policy forced to manual).
    pub serve: ServeConfig,
    /// The coordinator to push shards to.
    pub coordinator: String,
    /// How long the pusher waits before retrying a failed push.  A
    /// successful ingest is pushed at once, not on this timer.
    pub push_interval: Duration,
    /// Retry policy for pushes.
    pub retry: RetryPolicy,
}

impl IngestNodeConfig {
    /// A node pushing to `coordinator`, retrying a failed push after 25 ms.
    pub fn new(coordinator: impl Into<String>) -> Self {
        Self {
            serve: ServeConfig::new(),
            coordinator: coordinator.into(),
            push_interval: Duration::from_millis(25),
            retry: RetryPolicy::default(),
        }
    }

    /// Sets the underlying server configuration.
    pub fn with_serve(mut self, serve: ServeConfig) -> Self {
        self.serve = serve;
        self
    }

    /// Sets the push retry interval.
    pub fn with_push_interval(mut self, interval: Duration) -> Self {
        self.push_interval = interval;
        self
    }

    /// Sets the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// A running ingest node.
pub struct IngestNode {
    server: Option<ServerHandle>,
    changes: Arc<ChangeWatch>,
    pusher: Option<JoinHandle<()>>,
    addr: SocketAddr,
    name: String,
}

impl IngestNode {
    /// Starts the node's server and its shard pusher.
    pub fn start(schema: Arc<Schema>, config: IngestNodeConfig) -> Result<Self> {
        if config.push_interval.is_zero() {
            return Err(FabricError::Config {
                reason: "push_interval must be non-zero".to_string(),
            });
        }
        let mut serve = config.serve.clone().with_role(FabricRole::IngestNode);
        // The node only tabulates; fitting happens on the coordinator over
        // the merged counts.
        serve.stream.policy = RefreshPolicy::Manual;
        let server = Server::start(schema, serve)?;
        let addr = server.addr();
        let name = config.serve.node_name.clone().unwrap_or_else(|| addr.to_string());
        let changes = server.changes();
        let pusher = spawn_pusher(
            addr,
            config.coordinator,
            config.push_interval,
            config.retry,
            Arc::clone(&changes),
        );
        Ok(Self { server: Some(server), changes, pusher: Some(pusher), addr, name })
    }

    /// The node's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The source name the node pushes under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A trigger for this node's graceful shutdown, used by the binary's
    /// signal watcher: raising it unblocks [`IngestNode::wait`], which
    /// makes the pusher's final flush attempt and journals local counts.
    pub fn shutdown_trigger(&self) -> pka_serve::ShutdownTrigger {
        self.server.as_ref().expect("server runs until consumed").shutdown_trigger()
    }

    /// Blocks until a client asks the server to shut down, then stops the
    /// pusher (which makes one final flush attempt).
    pub fn wait(mut self) -> Result<()> {
        let server = self.server.take().expect("server runs until consumed");
        let result = server.wait().map(drop).map_err(FabricError::from);
        self.halt_pusher();
        result
    }

    /// Shuts the node down: final shard flush, then the server.
    pub fn shutdown(mut self) -> Result<()> {
        self.halt_pusher();
        let server = self.server.take().expect("server runs until consumed");
        server.shutdown().map(drop).map_err(FabricError::from)
    }

    fn halt_pusher(&mut self) {
        self.changes.close();
        if let Some(pusher) = self.pusher.take() {
            let _ = pusher.join();
        }
    }
}

impl Drop for IngestNode {
    fn drop(&mut self) {
        self.halt_pusher();
    }
}

fn spawn_pusher(
    self_addr: SocketAddr,
    coordinator: String,
    interval: Duration,
    retry: RetryPolicy,
    changes: Arc<ChangeWatch>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // The pusher reads the node's shard through its own public
        // `shard-pull` endpoint: the engine thread stays the single
        // writer, and the pusher is just another client.
        let mut loopback = FabricClient::new(self_addr.to_string(), retry.clone());
        let mut coordinator = FabricClient::new(coordinator, retry);
        let mut pushed_seq = 0u64;
        // `delivered` is the newest generation whose state reached the
        // coordinator; it starts unset so a journal-recovered shard is
        // pushed at boot.  A generation is read before the pull it
        // covers, so a batch landing mid-push is caught by the next wait.
        let mut delivered = None;
        let mut generation = changes.generation();
        loop {
            // A closed watch (`None`) always gets one last attempt: the
            // final flush, so tuples ingested right before shutdown still
            // reach the coordinator.
            if (generation.is_none() || generation != delivered)
                && push_latest(&mut loopback, &mut coordinator, &mut pushed_seq)
            {
                delivered = generation;
            }
            let Some(seen) = generation else { break };
            // Wake on the next acknowledged batch; after a failed push,
            // the timeout is the retry.
            generation = changes.wait_past(seen, interval);
        }
    })
}

/// Pulls the node's cumulative shard and pushes it unless the coordinator
/// already holds its seq; true once the coordinator holds everything the
/// pull returned.
fn push_latest(
    loopback: &mut FabricClient,
    coordinator: &mut FabricClient,
    pushed_seq: &mut u64,
) -> bool {
    let Ok(answer) = loopback.call(|c| c.shard_pull()) else { return false };
    if answer.seq > *pushed_seq {
        if coordinator.call(|c| c.shard_push(&answer.source, answer.seq, &answer.shard)).is_err() {
            return false;
        }
        *pushed_seq = answer.seq;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Coordinator, CoordinatorConfig};
    use pka_serve::LineClient;
    use std::time::Instant;

    #[test]
    fn shutdown_is_prompt_under_a_long_push_interval_and_still_flushes() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        // The coordinator is not up yet, so the push an ingest triggers
        // fails and the next retry is a minute away: only the final flush
        // can deliver the rows.
        let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
        let config = IngestNodeConfig::new(format!("127.0.0.1:{port}"))
            .with_push_interval(Duration::from_secs(60))
            .with_retry(RetryPolicy { attempts: 1, ..RetryPolicy::fast() });
        let node = IngestNode::start(Arc::clone(&schema), config).unwrap();
        let rows = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        LineClient::connect(node.addr()).unwrap().ingest(&rows).unwrap();
        std::thread::sleep(Duration::from_millis(300));

        let serve = ServeConfig::new()
            .with_port(port)
            .with_stream(pka_stream::StreamConfig::new().with_policy(RefreshPolicy::Manual));
        let coordinator =
            Coordinator::start(schema, CoordinatorConfig::new().with_serve(serve)).unwrap();
        let mut control = LineClient::connect(coordinator.addr()).unwrap();
        assert_eq!(control.stats().unwrap().total_ingested, 0, "no timer may have pushed");

        let started = Instant::now();
        node.shutdown().unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "shutdown took {:?}",
            started.elapsed()
        );
        assert_eq!(control.stats().unwrap().total_ingested, rows.len() as u64);
        coordinator.shutdown().unwrap();
    }
}
