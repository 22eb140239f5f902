//! A server's place in a `pka-fabric` deployment, and the pump threads
//! each fabric role runs inside its server, one per peer.
//!
//! A fabric node is an ordinary [`crate::Server`] whose [`FabricRole`]
//! carries its peers.  The role gates which write methods the node serves,
//! and [`crate::Server::start`] spawns the role's pumps next to the engine
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
//! * a **coordinator** runs one pump per replica, which offers every newly
//!   published snapshot via `snapshot-sync`, tracking only the highest
//!   version the replica has acknowledged.  Replicas gate on the version,
//!   so a re-offer after a lost acknowledgement is a no-op: at-least-once
//!   delivery is safe.  A dead or hung replica stalls only its own pump;
//! * a **replica** given a coordinator polls its `snapshot-version` and
//!   pulls any newer snapshot with `snapshot-pull`.
//!
//! A pump reaches its own engine the way the loop shards do, through the
//! engine queue: the ingest node reads its shard with an `ExportShard`
//! command and the replica applies a pulled snapshot with a
//! `SyncSnapshot` command, so a pulled snapshot passes the same version
//! gate and validation a pushed one does.  Only peers are dialled.
//!
//! Each peer call is one attempt over a connection kept across calls.
//! Retrying is the pump's own loop: after a failed round it waits the
//! role's interval, doubled per consecutive failure up to 64× (or a
//! `server-overloaded` refusal's `retry_after_ms` hint, under the same
//! cap), jittered down by up to half.  That wait ignores changes and ends
//! at once on shutdown.
//!
//! The ingest node and the coordinator block on the engine's change
//! watch and propagate on change; their intervals only pace retries.  On
//! shutdown the server closes the watch after the reactor has drained and
//! before the engine stops, so an ingest node's last push (the final
//! flush, one attempt) still reads its shard from the live engine.  A
//! peer call still unanswered a short grace after shutdown began (or
//! after the call itself began, if later) has its socket shut down, so a
//! call blocked on a hung peer ends then, not at its socket deadline; time
//! a pump spends waiting on its own engine does not count.  A connect
//! cannot be cut: a peer that never completes the handshake still holds
//! its pump up to the socket deadline.

use crate::queue::{CommandClass, EngineSender};
use crate::server::{EngineCommand, Responder};
use crate::watch::ChangeWatch;
use crate::{ClientConfig, LineClient, ServeError};
use pka_stream::SnapshotHandle;
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server's place in a `pka-fabric` deployment: which protocol methods
/// it serves, and the peers its pump talks to.  Every role answers the
/// full read protocol (`query`, `query-batch`, `explain`, `schema`,
/// `snapshot-version`, `snapshot-pull`, `stats`, `ping`);
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
        /// First wait before re-offering the current snapshot to a
        /// replica whose last sync failed, doubling to 64× on consecutive
        /// failures.  Fresh snapshots are offered on publish, not on this
        /// timer.
        sync_interval: Duration,
    },
    /// Tabulates local `ingest` (its refresh policy is forced to manual)
    /// and pushes its cumulative shard to the coordinator; rejects
    /// `shard-push` (it is a leaf, not a merge point) and `snapshot-sync`.
    IngestNode {
        /// The coordinator to push shards to.
        coordinator: String,
        /// First wait before retrying a failed push, doubling to 64× on
        /// consecutive failures.  An acknowledged ingest is pushed at
        /// once, not on this timer.
        push_interval: Duration,
    },
    /// Serves reads from snapshots received via `snapshot-sync` or pulled
    /// from a coordinator; rejects every local write (`ingest`,
    /// `refresh`, `shard-push`).
    Replica {
        /// Coordinator to poll for catch-up; `None` makes the replica
        /// purely push-fed (and runs no pump).
        coordinator: Option<String>,
        /// Poll period of the catch-up pump, and its first wait after a
        /// failed poll, doubling to 64× on consecutive failures.
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
#[derive(Clone)]
pub(crate) struct PumpContext {
    /// The node's published snapshots.
    pub snapshots: SnapshotHandle,
    /// The node's engine queue; each pump holds a sender, so the engine
    /// outlives an ingest node's final flush.
    pub engine: EngineSender<EngineCommand>,
    /// The engine's change watch; closing it stops the pumps.
    pub changes: Arc<ChangeWatch>,
    /// The source name an ingest node pushes under.
    pub node_name: String,
    /// Where each pump registers its peer connections' sockets.
    pub peers: Arc<PeerSockets>,
}

/// The sockets of a server's peer connections, one slot per peer, so
/// shutdown can cut a call blocked on a hung peer.
#[derive(Default)]
pub(crate) struct PeerSockets(Mutex<Vec<PeerSocket>>);

#[derive(Default)]
struct PeerSocket {
    /// A handle on the peer connection's socket, while there is one.
    socket: Option<TcpStream>,
    /// When the call in flight began; `None` between calls.
    call_began: Option<Instant>,
    /// Set once shutdown cut a call: the peer is taken to be hung, and a
    /// later connection to it is shut down at once.
    cut: bool,
}

impl PeerSockets {
    fn slot(&self) -> usize {
        let mut slots = lock(&self.0);
        slots.push(PeerSocket::default());
        slots.len() - 1
    }

    /// Sets the slot's socket: a new connection's, or `None` once the
    /// connection is dropped.
    fn register(&self, slot: usize, socket: Option<TcpStream>) {
        let slot = &mut lock(&self.0)[slot];
        if let Some(socket) = socket.as_ref().filter(|_| slot.cut) {
            let _ = socket.shutdown(Shutdown::Both);
        }
        slot.socket = socket;
    }

    /// Marks the slot's call as begun (`true`) or ended (`false`).
    fn in_call(&self, slot: usize, busy: bool) {
        lock(&self.0)[slot].call_began = busy.then(Instant::now);
    }

    /// Shuts down the socket of every call still in flight [`PUMP_GRACE`]
    /// after the later of `closed` and its own start.
    fn cut_stalled(&self, closed: Instant) {
        for slot in lock(&self.0).iter_mut() {
            let Some(began) = slot.call_began else { continue };
            if began.max(closed).elapsed() >= PUMP_GRACE {
                if let Some(socket) = &slot.socket {
                    let _ = socket.shutdown(Shutdown::Both);
                }
                (slot.call_began, slot.cut) = (None, true);
            }
        }
    }
}

/// How long a peer call may stay unanswered once shutdown has begun (an
/// ingest node's final flush is one call) before its socket is shut down.
const PUMP_GRACE: Duration = Duration::from_millis(100);

/// Joins `pumps` once the change watch has closed, cutting every peer
/// call still unanswered [`PUMP_GRACE`] after the later of now and its own
/// start.  A pump waiting on its own engine is never cut.
pub(crate) fn join_pumps(pumps: &mut Vec<JoinHandle<()>>, peers: &PeerSockets) {
    let closed = Instant::now();
    while pumps.iter().any(|pump| !pump.is_finished()) {
        peers.cut_stalled(closed);
        std::thread::sleep(Duration::from_millis(1));
    }
    for pump in pumps.drain(..) {
        let _ = pump.join();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spawns `role`'s pumps, one thread per peer, into `pumps`; a spawn
/// failure leaves the threads already spawned in `pumps` to be joined.
pub(crate) fn spawn_pumps(
    role: &FabricRole,
    context: PumpContext,
    pumps: &mut Vec<JoinHandle<()>>,
) -> std::io::Result<()> {
    type Pump = Box<dyn FnOnce() + Send>;
    let loops: Vec<Pump> = match role.clone() {
        FabricRole::Standalone | FabricRole::Replica { coordinator: None, .. } => Vec::new(),
        FabricRole::Coordinator { replicas, sync_interval } => replicas
            .into_iter()
            .map(|addr| {
                let replica = Peer::new(addr, sync_interval, &context.peers);
                let context = context.clone();
                Box::new(move || offer_snapshots(&context, replica)) as Pump
            })
            .collect(),
        FabricRole::IngestNode { coordinator, push_interval } => {
            let coordinator = Peer::new(coordinator, push_interval, &context.peers);
            vec![Box::new(move || push_shards(&context, coordinator))]
        }
        FabricRole::Replica { coordinator: Some(coordinator), pull_interval } => {
            let coordinator = Peer::new(coordinator, pull_interval, &context.peers);
            vec![Box::new(move || pull_snapshots(&context, coordinator))]
        }
    };
    let name = format!("pka-{}-pump", role.as_str());
    for pump in loops {
        pumps.push(std::thread::Builder::new().name(name.clone()).spawn(pump)?);
    }
    Ok(())
}

/// Socket deadline (connect, read and write) of one peer call.
const PEER_DEADLINE: Duration = Duration::from_secs(5);

/// Cap on a pump's backoff, as a multiple of its role's interval.
const MAX_BACKOFF_FACTOR: u32 = 64;

/// One peer of a pump: a connection opened on first use and kept across
/// calls (its socket registered for shutdown), and the backoff the pump
/// waits out after a failed round.
struct Peer {
    addr: String,
    client: Option<LineClient>,
    sockets: Arc<PeerSockets>,
    slot: usize,
    /// The role's interval: the first backoff step.
    interval: Duration,
    /// Consecutive failed rounds.
    failures: u32,
    /// Per-peer jitter stream (splitmix64), seeded from the OS-keyed std
    /// hasher so pumps that failed at the same instant (every pusher,
    /// after a coordinator outage) still draw different waits.
    jitter_state: u64,
}

impl Peer {
    fn new(addr: String, interval: Duration, sockets: &Arc<PeerSockets>) -> Self {
        let jitter_state = RandomState::new().hash_one(&addr);
        let (sockets, slot) = (Arc::clone(sockets), sockets.slot());
        Self { addr, client: None, sockets, slot, interval, failures: 0, jitter_state }
    }

    /// Makes one attempt of `op`, connecting first if there is no
    /// connection.  A transport error drops the connection, whose state is
    /// then unknown; a structured refusal keeps it, since the peer
    /// answered.
    fn call<T>(
        &mut self,
        op: impl FnOnce(&mut LineClient) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let client = match self.client.as_mut() {
            Some(client) => client,
            None => {
                let config = ClientConfig::with_deadline(PEER_DEADLINE);
                let client = LineClient::connect_with(&self.addr, &config)?;
                self.sockets.register(self.slot, Some(client.try_clone_socket()?));
                self.client.insert(client)
            }
        };
        self.sockets.in_call(self.slot, true);
        let outcome = op(client);
        self.sockets.in_call(self.slot, false);
        if matches!(outcome, Err(ref e) if !matches!(e, ServeError::Remote { .. })) {
            self.client = None;
            self.sockets.register(self.slot, None);
        }
        outcome
    }

    /// Accounts for a round of calls: `None` after a success, else how
    /// long to wait before the next round — the interval doubled per
    /// consecutive failure, or a `server-overloaded` refusal's
    /// `retry_after_ms` hint in its place, capped at 64× the interval and
    /// jittered down by up to half, so pumps that failed together do not
    /// retry in lockstep.
    fn backoff(&mut self, round: &Result<(), ServeError>) -> Option<Duration> {
        let Err(error) = round else {
            self.failures = 0;
            return None;
        };
        let hint = match error {
            ServeError::Remote { code, retry_after_ms: Some(ms), .. }
                if code == "server-overloaded" =>
            {
                Some(Duration::from_millis((*ms).max(1)))
            }
            _ => None,
        };
        let full = full_backoff(self.interval, self.failures, hint);
        self.failures = self.failures.saturating_add(1);
        Some(jitter(full, self.next_draw()))
    }

    /// The next uniform draw in `[0, 1)` of this peer's jitter stream.
    fn next_draw(&mut self) -> f64 {
        self.jitter_state = self.jitter_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.jitter_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The un-jittered wait after `failures` earlier consecutive failures:
/// `interval` doubled per failure, or `hint` in its place, capped at
/// 64× `interval`.
fn full_backoff(interval: Duration, failures: u32, hint: Option<Duration>) -> Duration {
    let doubled = || interval.saturating_mul(1u32.checked_shl(failures).unwrap_or(u32::MAX));
    hint.unwrap_or_else(doubled).min(interval.saturating_mul(MAX_BACKOFF_FACTOR))
}

/// `full` scaled by `1 − draw/2`, in `(full/2, full]` for a uniform
/// `draw` in `[0, 1)`.
fn jitter(full: Duration, draw: f64) -> Duration {
    full.mul_f64(1.0 - draw / 2.0)
}

/// Waits for a pump's next round: past `seen` (or the interval) after a
/// successful round, or out the `backoff` after a failed one, which a
/// change does not cut short and shutdown does.  Returns the generation
/// then current, `None` once the watch is closed.
fn next_round(
    changes: &ChangeWatch,
    seen: u64,
    interval: Duration,
    backoff: Option<Duration>,
) -> Option<u64> {
    match backoff {
        None => changes.wait_past(seen, interval),
        Some(wait) => {
            changes.wait_closed(wait);
            changes.generation()
        }
    }
}

/// A coordinator's pump for one replica: offer each published snapshot
/// the replica has not acknowledged, on publish and then every `interval`
/// while the replica is behind.
fn offer_snapshots(context: &PumpContext, mut replica: Peer) {
    // The highest version the replica has acknowledged; `None` until it
    // has acknowledged anything.
    let mut acked: Option<u64> = None;
    // The generation is read before the snapshot is loaded, so a publish
    // that lands mid-offer is caught by the next wait.
    let mut generation = context.changes.generation();
    while let Some(seen) = generation {
        let mut round = Ok(());
        if let Some(snapshot) = context.snapshots.load() {
            let meta = snapshot.meta();
            if acked.is_none_or(|v| v < meta.version) {
                round = replica.call(|c| c.snapshot_sync(&meta, snapshot.knowledge_base())).map(
                    // A stale answer still reports the replica's current
                    // version, which is exactly the ack we need.
                    |summary| acked = Some(acked.unwrap_or(0).max(summary.version)),
                );
            }
        }
        let backoff = replica.backoff(&round);
        generation = next_round(&context.changes, seen, replica.interval, backoff);
    }
}

/// The ingest node's pump: push the cumulative shard whenever a batch is
/// acknowledged, back off after a failed push, and make one last attempt
/// (the final flush) once the watch closes.
fn push_shards(context: &PumpContext, mut coordinator: Peer) {
    let mut pushed_seq = 0u64;
    // `delivered` is the newest generation whose state reached the
    // coordinator; it starts unset so a journal-recovered shard is pushed
    // at boot.  A generation is read before the export it covers, so a
    // batch landing mid-push is caught by the next wait.
    let mut delivered = None;
    let mut generation = context.changes.generation();
    loop {
        let mut round = Ok(());
        // A closed watch (`None`) always gets one last attempt: the final
        // flush, so tuples acknowledged right before shutdown still reach
        // the coordinator.
        if generation.is_none() || generation != delivered {
            round = push_latest(context, &mut coordinator, &mut pushed_seq);
            if round.is_ok() {
                delivered = generation;
            }
        }
        let Some(seen) = generation else { break };
        let backoff = coordinator.backoff(&round);
        generation = next_round(&context.changes, seen, coordinator.interval, backoff);
    }
}

/// Exports the node's cumulative shard and pushes it unless the
/// coordinator already holds its seq; `Ok` once the coordinator holds
/// everything the export returned.
fn push_latest(
    context: &PumpContext,
    coordinator: &mut Peer,
    pushed_seq: &mut u64,
) -> Result<(), ServeError> {
    let Some(Ok((shard, seq))) = ask(&context.engine, |reply| EngineCommand::ExportShard { reply })
    else {
        return Err(ServeError::EngineDown);
    };
    if seq > *pushed_seq {
        coordinator.call(|c| c.shard_push(&context.node_name, seq, &shard))?;
        *pushed_seq = seq;
    }
    Ok(())
}

/// The replica's catch-up pump: every `interval`, pull the coordinator's
/// snapshot if it is newer than the local one, backing off after a failed
/// round.  The coordinator is another process, so this is a poll; the
/// watch is waited on only to be stopped (local syncs are not news).
fn pull_snapshots(context: &PumpContext, mut coordinator: Peer) {
    while context.changes.generation().is_some() {
        let round = pull_newer(context, &mut coordinator);
        context.changes.wait_closed(coordinator.backoff(&round).unwrap_or(coordinator.interval));
    }
}

/// Pulls the coordinator's snapshot if it is newer than the local one and
/// applies it through the engine, so it passes the same version gate and
/// validation a pushed one does.
fn pull_newer(context: &PumpContext, coordinator: &mut Peer) -> Result<(), ServeError> {
    let local = context.snapshots.version().unwrap_or(0);
    if coordinator.call(|c| c.snapshot_version())?.is_none_or(|version| version <= local) {
        return Ok(());
    }
    if let Some((meta, knowledge_base)) = coordinator.call(|c| c.snapshot_pull())? {
        let knowledge_base = Box::new(knowledge_base);
        ask(&context.engine, |reply| EngineCommand::SyncSnapshot { meta, knowledge_base, reply });
    }
    Ok(())
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
    use crate::queue::{engine_channel, RecvOutcome};
    use crate::{BucketSpec, RateLimitConfig, ServeConfig, Server};
    use pka_contingency::Schema;
    use pka_stream::{CountShard, RefreshPolicy, StreamConfig};
    use rand::{Rng, SeedableRng, StdRng};
    use std::time::Instant;

    const MS: Duration = Duration::from_millis(1);

    fn test_peer(addr: impl ToString, interval: Duration) -> Peer {
        Peer::new(addr.to_string(), interval, &Arc::default())
    }

    fn overloaded(retry_after_ms: u64) -> ServeError {
        ServeError::Remote {
            code: "server-overloaded".to_string(),
            message: "shed".to_string(),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    #[test]
    fn backoff_doubles_and_caps_at_64_intervals() {
        let interval = 25 * MS;
        let steps: Vec<Duration> = (0..9).map(|n| full_backoff(interval, n, None)).collect();
        let expected = [25, 50, 100, 200, 400, 800, 1600, 1600, 1600];
        assert_eq!(steps, expected.map(|ms| ms * MS));
        assert_eq!(full_backoff(interval, 40, None), 1600 * MS, "a long outage stays capped");
        assert_eq!(full_backoff(Duration::MAX, 3, None), Duration::MAX, "saturates, never panics");
    }

    #[test]
    fn jittered_backoff_stays_in_band_and_decorrelates() {
        let full = full_backoff(25 * MS, 2, None);
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<Duration> = (0..64).map(|_| jitter(full, rng.random())).collect();
        for d in &draws {
            assert!(*d <= full, "jitter may only shorten the wait");
            assert!(d.as_secs_f64() >= full.as_secs_f64() * 0.5 - 1e-9);
        }
        assert!(
            draws.iter().collect::<std::collections::BTreeSet<_>>().len() > 1,
            "jitter must actually vary"
        );
        assert_eq!(jitter(full, 0.0), full);
    }

    #[test]
    fn peers_draw_independent_jitter_streams() {
        let mut a = test_peer("127.0.0.1:1", 25 * MS);
        let mut b = test_peer("127.0.0.1:1", 25 * MS);
        let (da, db): (Vec<f64>, Vec<f64>) =
            (0..16).map(|_| (a.next_draw(), b.next_draw())).unzip();
        assert!(da.iter().chain(&db).all(|d| (0.0..1.0).contains(d)));
        assert_ne!(da, db, "two pumps of one peer must not retry in lockstep");
    }

    #[test]
    fn an_overload_hint_replaces_the_step_capped_and_jittered() {
        let interval = 10 * MS;
        assert_eq!(full_backoff(interval, 0, Some(80 * MS)), 80 * MS);
        assert_eq!(full_backoff(interval, 5, Some(80 * MS)), 80 * MS, "not the doubled 320 ms");
        assert_eq!(full_backoff(interval, 0, Some(10_000 * MS)), 640 * MS, "capped at 64×");

        let mut peer = test_peer("127.0.0.1:1", interval);
        for _ in 0..32 {
            let waited = peer.backoff(&Err(overloaded(80))).unwrap();
            assert!(waited <= 80 * MS && waited >= 40 * MS, "hint wait {waited:?}");
        }
        // A success resets the schedule; plain failures then double it.
        assert_eq!(peer.backoff(&Ok(())), None);
        for full in [10, 20, 40] {
            let waited = peer.backoff(&Err(ServeError::EngineDown)).unwrap();
            assert!(waited <= full * MS && waited >= full * MS / 2, "step {waited:?}");
        }
    }

    #[test]
    fn overload_refusals_are_retried_after_the_hint_and_land_every_row() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        // One banked request per connection, refilling every 200 ms: a push
        // right after another is refused with a `server-overloaded` hint.
        let coordinator = Server::start(
            Arc::clone(&schema),
            ServeConfig::new()
                .with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual))
                .with_rate_limit(RateLimitConfig {
                    per_conn: Some(BucketSpec { rate_per_sec: 5.0, burst: 1.0 }),
                    ..Default::default()
                })
                .with_role(FabricRole::Coordinator {
                    replicas: Vec::new(),
                    sync_interval: 25 * MS,
                }),
        )
        .unwrap();
        // A minute-long interval: only the hint can pace the retries.
        let role = FabricRole::IngestNode {
            coordinator: coordinator.addr().to_string(),
            push_interval: Duration::from_secs(60),
        };
        let node = Server::start(schema, ServeConfig::new().with_role(role)).unwrap();
        let mut writer = LineClient::connect(node.addr()).unwrap();
        let mut total = 0;
        for batch in 0..5 {
            let rows = vec![vec![batch % 2, 1], vec![1, batch % 2]];
            writer.ingest(&rows).unwrap();
            total += rows.len() as u64;
        }

        // The limit binds this test's requests too: one per connection.
        let control = || LineClient::connect(coordinator.addr()).unwrap();
        let started = Instant::now();
        while control().stats().unwrap().total_ingested < total {
            assert!(started.elapsed() < Duration::from_secs(10), "rows never landed");
            std::thread::sleep(2 * MS);
        }
        assert_eq!(control().stats().unwrap().total_ingested, total);
        assert!(control().server_stats().unwrap().rate_limited > 0, "no push was ever refused");
        node.shutdown().unwrap();
        coordinator.shutdown().unwrap();
    }

    #[test]
    fn one_call_is_one_attempt_and_only_transport_errors_drop_the_connection() {
        // Nothing listens on port 1: the connect is refused at once.
        let mut dead = test_peer("127.0.0.1:1", 25 * MS);
        match dead.call(|c| c.ping()) {
            Err(ServeError::Io(e)) => assert!(!e.to_string().is_empty()),
            other => panic!("expected the refused connect, got {other:?}"),
        }

        // A listener that never accepts still completes connects (the
        // kernel's backlog does), so the call reaches `op` exactly once and
        // returns its error; the transport error drops the connection.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mut hung = test_peer(listener.local_addr().unwrap(), 25 * MS);
        let mut tries = 0;
        let outcome: Result<(), ServeError> = hung.call(|_| {
            tries += 1;
            Err(ServeError::Io(std::io::Error::other(format!("attempt {tries}"))))
        });
        match outcome {
            Err(ServeError::Io(e)) => assert_eq!(e.to_string(), "attempt 1"),
            other => panic!("expected the one attempt's error, got {other:?}"),
        }
        assert_eq!(tries, 1);
        assert!(hung.client.is_none());

        // A structured refusal is the peer's answer: the connection stays.
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let server = Server::start(schema, ServeConfig::new()).unwrap();
        let mut live = test_peer(server.addr(), 25 * MS);
        match live.call(|c| c.call("no-such-method", crate::protocol::object([]))) {
            Err(ServeError::Remote { code, .. }) => assert_eq!(code, "unknown-method"),
            other => panic!("expected the refusal, got {other:?}"),
        }
        assert!(live.client.is_some());
        assert!(live.call(|c| c.ping()).unwrap());
        server.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_prompt_under_a_long_push_interval_and_still_flushes() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        // The coordinator is not up yet, so the push an ingest triggers
        // fails and the next retry is at least half a minute away: only
        // the final flush can deliver the rows.
        let port = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
        let role = FabricRole::IngestNode {
            coordinator: format!("127.0.0.1:{port}"),
            push_interval: Duration::from_secs(60),
        };
        let node = Server::start(Arc::clone(&schema), ServeConfig::new().with_role(role)).unwrap();
        let rows = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        LineClient::connect(node.addr()).unwrap().ingest(&rows).unwrap();
        std::thread::sleep(Duration::from_millis(300));

        let serve = ServeConfig::new()
            .with_port(port)
            .with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual))
            .with_role(FabricRole::Coordinator { replicas: Vec::new(), sync_interval: 25 * MS });
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
    fn a_final_flush_behind_a_slow_engine_still_reaches_a_live_coordinator() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let manual = StreamConfig::new().with_policy(RefreshPolicy::Manual);
        let role = FabricRole::Coordinator { replicas: Vec::new(), sync_interval: 25 * MS };
        let serve = ServeConfig::new().with_stream(manual).with_role(role);
        let coordinator = Server::start(Arc::clone(&schema), serve).unwrap();
        let rows = vec![vec![0, 1], vec![1, 0], vec![1, 1]];
        let mut shard = CountShard::new(schema);
        shard.record_batch(&rows).unwrap();

        // An engine that answers each export well past the grace, as one
        // busy with a refit or a checkpoint would: the wait is the pump's
        // own, so it must not count against the peer call that follows.
        let (engine, queue) = engine_channel(16);
        let seq = rows.len() as u64;
        let slow_engine = std::thread::spawn(move || {
            while let RecvOutcome::Item(entry) = queue.recv(None) {
                if let EngineCommand::ExportShard { reply } = entry.item {
                    std::thread::sleep(3 * PUMP_GRACE);
                    reply(Ok((shard.clone(), seq)));
                }
            }
        });
        let context = PumpContext {
            snapshots: SnapshotHandle::new(),
            engine,
            changes: Arc::new(ChangeWatch::new()),
            node_name: "slow-engine".to_string(),
            peers: Arc::default(),
        };
        let role = FabricRole::IngestNode {
            coordinator: coordinator.addr().to_string(),
            push_interval: Duration::from_secs(60),
        };
        let mut pumps = Vec::new();
        spawn_pumps(&role, context.clone(), &mut pumps).unwrap();
        context.changes.close();
        join_pumps(&mut pumps, &context.peers);
        drop(context);
        slow_engine.join().unwrap();

        let stats = LineClient::connect(coordinator.addr()).unwrap().stats().unwrap();
        assert_eq!(stats.total_ingested, seq, "the final flush was cut");
        coordinator.shutdown().unwrap();
    }

    #[test]
    fn a_zero_interval_is_refused() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let role = FabricRole::Replica { coordinator: None, pull_interval: Duration::ZERO };
        assert!(Server::start(schema, ServeConfig::new().with_role(role)).is_err());
    }
}
