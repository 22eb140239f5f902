//! A server's place in a `pka-fabric` deployment, and the one pump
//! thread each fabric role runs inside its server.
//!
//! A fabric node is an ordinary [`crate::Server`] whose [`FabricRole`]
//! carries its peers.  The role gates which write methods the node serves,
//! and [`crate::Server::start`] spawns the role's pump next to the engine
//! thread:
//!
//! * an **ingest node** pushes its *cumulative* local
//!   [`CountShard`](pka_stream::CountShard) to the coordinator under the
//!   tuple count as the sequence number, as soon as a batch has been
//!   journalled and acknowledged.  Pushing cumulative counts instead of
//!   increments is what makes the fabric tolerate every delivery
//!   pathology with one rule: the coordinator keeps the highest-sequence
//!   shard per source, so a lost push is repaired by the next one, and a
//!   duplicated or reordered push is discarded;
//! * a **coordinator** offers every newly published snapshot to each of
//!   its replicas via `snapshot-sync`, tracking only the highest version
//!   each replica has acknowledged.  Replicas gate on the version, so a
//!   re-offer after a lost acknowledgement is a no-op: at-least-once
//!   delivery is safe;
//! * a **replica** given a coordinator polls its `snapshot-version` and
//!   pulls any newer snapshot with `snapshot-pull`.
//!
//! A pump reaches its own engine the way the loop shards do, through the
//! engine queue: the ingest node reads its shard with an `ExportShard`
//! command and the replica applies a pulled snapshot with a
//! `SyncSnapshot` command, so a pulled snapshot passes the same version
//! gate and validation a pushed one does.  Only peers are dialled, each
//! through a retrying [`FabricClient`].
//!
//! The ingest node and the coordinator block on the engine's change
//! watch and propagate on change; their intervals only pace retries.  On
//! shutdown the server closes the watch after the reactor has drained and
//! before the engine stops, so an ingest node's last push (the final
//! flush) still reads its shard from the live engine.

use crate::queue::{CommandClass, EngineSender};
use crate::retry::{FabricClient, RetryPolicy};
use crate::server::{EngineCommand, Responder};
use crate::watch::ChangeWatch;
use crate::ServeError;
use pka_stream::SnapshotHandle;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A server's place in a `pka-fabric` deployment: which protocol methods
/// it serves, and the peers its pump talks to.  Every role answers the
/// full read protocol (`query`, `query-batch`, `explain`, `schema`,
/// `snapshot-version`, `snapshot-pull`, `shard-pull`, `stats`, `ping`);
/// the differences are on the write side.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum FabricRole {
    /// A single-node server: everything except `snapshot-sync` (it has no
    /// coordinator to follow).  Runs no pump.
    #[default]
    Standalone,
    /// Merges local ingest plus remote `shard-push` deliveries and offers
    /// each published snapshot to its replicas; rejects `snapshot-sync`.
    Coordinator {
        /// Replicas to keep in sync via `snapshot-sync` (none: the
        /// coordinator runs no pump).
        replicas: Vec<String>,
        /// How long the pump waits before re-offering the current
        /// snapshot to a replica whose last sync failed.  Fresh snapshots
        /// are offered on publish, not on this timer.
        sync_interval: Duration,
    },
    /// Tabulates local `ingest` (its refresh policy is forced to manual)
    /// and pushes its cumulative shard to the coordinator; rejects
    /// `shard-push` (it is a leaf, not a merge point) and `snapshot-sync`.
    IngestNode {
        /// The coordinator to push shards to.
        coordinator: String,
        /// How long the pump waits before retrying a failed push.  An
        /// acknowledged ingest is pushed at once, not on this timer.
        push_interval: Duration,
    },
    /// Serves reads from snapshots received via `snapshot-sync` or pulled
    /// from a coordinator; rejects every local write (`ingest`,
    /// `refresh`, `shard-push`).
    Replica {
        /// Coordinator to poll for catch-up; `None` makes the replica
        /// purely push-fed (and runs no pump).
        coordinator: Option<String>,
        /// Poll period of the catch-up pump.
        pull_interval: Duration,
    },
}

impl FabricRole {
    /// Kebab-case spelling used in stats and role-gate error messages.
    pub fn as_str(&self) -> &'static str {
        match self {
            FabricRole::Standalone => "standalone",
            FabricRole::Coordinator { .. } => "coordinator",
            FabricRole::IngestNode { .. } => "ingest-node",
            FabricRole::Replica { .. } => "replica",
        }
    }

    /// Whether this role serves `method`: the role gate every write
    /// method passes (reads are served by every role).
    pub(crate) fn serves(&self, method: &str) -> bool {
        use FabricRole::*;
        match method {
            "ingest" | "refresh" => !matches!(self, Replica { .. }),
            "shard-push" => matches!(self, Standalone | Coordinator { .. }),
            "snapshot-sync" => matches!(self, Replica { .. }),
            _ => true,
        }
    }

    /// Refuses a zero interval: a pump would spin on it.
    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        let interval = match self {
            FabricRole::Standalone => return Ok(()),
            FabricRole::Coordinator { sync_interval, .. } => sync_interval,
            FabricRole::IngestNode { push_interval, .. } => push_interval,
            FabricRole::Replica { pull_interval, .. } => pull_interval,
        };
        if interval.is_zero() {
            return Err(ServeError::Config {
                reason: format!("a {} node's interval must be non-zero", self.as_str()),
            });
        }
        Ok(())
    }
}

/// What a pump needs from the server it runs in.
pub(crate) struct PumpContext {
    /// The node's published snapshots.
    pub snapshots: SnapshotHandle,
    /// The node's engine queue; the pump holds a sender, so the engine
    /// outlives the pump's final flush.
    pub engine: EngineSender<EngineCommand>,
    /// The engine's change watch; closing it stops the pump.
    pub changes: Arc<ChangeWatch>,
    /// The source name an ingest node pushes under.
    pub node_name: String,
    /// Retry policy for every peer conversation.
    pub retry: RetryPolicy,
}

/// Spawns `role`'s pump thread, if the role runs one.
pub(crate) fn spawn_pump(
    role: &FabricRole,
    context: PumpContext,
) -> std::io::Result<Option<JoinHandle<()>>> {
    let pump: Box<dyn FnOnce() + Send> = match role.clone() {
        FabricRole::Standalone | FabricRole::Replica { coordinator: None, .. } => return Ok(None),
        FabricRole::Coordinator { replicas, .. } if replicas.is_empty() => return Ok(None),
        FabricRole::Coordinator { replicas, sync_interval } => {
            Box::new(move || offer_snapshots(&context, replicas, sync_interval))
        }
        FabricRole::IngestNode { coordinator, push_interval } => {
            Box::new(move || push_shards(&context, coordinator, push_interval))
        }
        FabricRole::Replica { coordinator: Some(coordinator), pull_interval } => {
            Box::new(move || pull_snapshots(&context, coordinator, pull_interval))
        }
    };
    let name = format!("pka-{}-pump", role.as_str());
    std::thread::Builder::new().name(name).spawn(pump).map(Some)
}

/// The coordinator's pump: offer each published snapshot to every replica
/// that has not acknowledged it, on publish and then every `interval`
/// while a replica is behind.
fn offer_snapshots(context: &PumpContext, replicas: Vec<String>, interval: Duration) {
    // One highest-acknowledged version per replica; `None` until the
    // replica has acknowledged anything.
    let mut replicas: Vec<(FabricClient, Option<u64>)> = replicas
        .into_iter()
        .map(|addr| (FabricClient::new(addr, context.retry.clone()), None))
        .collect();
    // The generation is read before the snapshot is loaded, so a publish
    // that lands mid-pass is caught by the next wait.
    let mut generation = context.changes.generation();
    while let Some(seen) = generation {
        if let Some(snapshot) = context.snapshots.load() {
            let meta = snapshot.meta();
            for (peer, acked) in replicas.iter_mut() {
                if acked.is_none_or(|v| v < meta.version) {
                    let synced = peer.call(|c| c.snapshot_sync(&meta, snapshot.knowledge_base()));
                    if let Ok(summary) = synced {
                        // A stale answer still reports the replica's
                        // current version, which is exactly the ack we
                        // need.
                        *acked = Some(acked.unwrap_or(0).max(summary.version));
                    }
                }
            }
        }
        // Wake on the next publish; otherwise re-offer to a behind replica
        // once the interval is up.
        generation = context.changes.wait_past(seen, interval);
    }
}

/// The ingest node's pump: push the cumulative shard whenever a batch is
/// acknowledged, retry a failed push every `interval`, and make one last
/// attempt (the final flush) once the watch closes.
fn push_shards(context: &PumpContext, coordinator: String, interval: Duration) {
    let mut coordinator = FabricClient::new(coordinator, context.retry.clone());
    let mut pushed_seq = 0u64;
    // `delivered` is the newest generation whose state reached the
    // coordinator; it starts unset so a journal-recovered shard is pushed
    // at boot.  A generation is read before the export it covers, so a
    // batch landing mid-push is caught by the next wait.
    let mut delivered = None;
    let mut generation = context.changes.generation();
    loop {
        // A closed watch (`None`) always gets one last attempt: the final
        // flush, so tuples acknowledged right before shutdown still reach
        // the coordinator.
        if (generation.is_none() || generation != delivered)
            && push_latest(context, &mut coordinator, &mut pushed_seq)
        {
            delivered = generation;
        }
        let Some(seen) = generation else { break };
        // Wake on the next acknowledged batch; after a failed push, the
        // timeout is the retry.
        generation = context.changes.wait_past(seen, interval);
    }
}

/// Exports the node's cumulative shard and pushes it unless the
/// coordinator already holds its seq; true once the coordinator holds
/// everything the export returned.
fn push_latest(
    context: &PumpContext,
    coordinator: &mut FabricClient,
    pushed_seq: &mut u64,
) -> bool {
    let Some(Ok((shard, seq))) = ask(&context.engine, |reply| EngineCommand::ExportShard { reply })
    else {
        return false;
    };
    if seq > *pushed_seq {
        if coordinator.call(|c| c.shard_push(&context.node_name, seq, &shard)).is_err() {
            return false;
        }
        *pushed_seq = seq;
    }
    true
}

/// The replica's catch-up pump: every `interval`, pull the coordinator's
/// snapshot if it is newer than the local one and apply it through the
/// engine.  The coordinator is another process, so this is a poll; the
/// watch is waited on only to be stopped (local syncs are not news).
fn pull_snapshots(context: &PumpContext, coordinator: String, interval: Duration) {
    let mut coordinator = FabricClient::new(coordinator, context.retry.clone());
    while context.changes.generation().is_some() {
        let local = context.snapshots.version().unwrap_or(0);
        if let Ok(Some(version)) = coordinator.call(|c| c.snapshot_version()) {
            if version > local {
                if let Ok(Some((meta, knowledge_base))) = coordinator.call(|c| c.snapshot_pull()) {
                    let knowledge_base = Box::new(knowledge_base);
                    ask(&context.engine, |reply| EngineCommand::SyncSnapshot {
                        meta,
                        knowledge_base,
                        reply,
                    });
                }
            }
        }
        context.changes.wait_closed(interval);
    }
}

/// Sends the command `build` makes around a reply slot through the engine
/// queue (control class) and waits for the engine's answer; `None` if the
/// queue refused the command or the engine dropped it unanswered.
fn ask<T: Send + 'static>(
    engine: &EngineSender<EngineCommand>,
    build: impl FnOnce(Responder<T>) -> EngineCommand,
) -> Option<T> {
    let (tx, rx) = std::sync::mpsc::sync_channel(1);
    let command = build(Box::new(move |answer| {
        let _ = tx.send(answer);
    }));
    engine.push(CommandClass::Control, command, None).ok()?;
    rx.recv().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LineClient, ServeConfig, Server};
    use pka_contingency::Schema;
    use pka_stream::{RefreshPolicy, StreamConfig};
    use std::time::Instant;

    #[test]
    fn shutdown_is_prompt_under_a_long_push_interval_and_still_flushes() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        // The coordinator is not up yet, so the push an ingest triggers
        // fails and the next retry is a minute away: only the final flush
        // can deliver the rows.
        let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
        let role = FabricRole::IngestNode {
            coordinator: format!("127.0.0.1:{port}"),
            push_interval: Duration::from_secs(60),
        };
        let config = ServeConfig::new()
            .with_role(role)
            .with_retry(RetryPolicy { attempts: 1, ..RetryPolicy::fast() });
        let node = Server::start(Arc::clone(&schema), config).unwrap();
        let rows = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        LineClient::connect(node.addr()).unwrap().ingest(&rows).unwrap();
        std::thread::sleep(Duration::from_millis(300));

        let serve = ServeConfig::new()
            .with_port(port)
            .with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual))
            .with_role(FabricRole::Coordinator {
                replicas: Vec::new(),
                sync_interval: Duration::from_millis(25),
            });
        let coordinator = Server::start(schema, serve).unwrap();
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

    #[test]
    fn a_zero_interval_is_refused() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let role = FabricRole::Replica { coordinator: None, pull_interval: Duration::ZERO };
        assert!(Server::start(schema, ServeConfig::new().with_role(role)).is_err());
    }
}
