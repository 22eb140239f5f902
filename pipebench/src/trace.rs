//! Hop timing against the live processes (traced runs only).
//!
//! Two poller threads watch the public wire methods while the load runs:
//! one polls `snapshot-version` on the fitting node and the replica (and
//! pings the read endpoint), the other polls `stats` on the fitting node,
//! whose `sources[].last_push_age_ms` dates each absorbed shard-push.  From
//! those samples every write batch's freshness splits into hops:
//!
//! | hop | from | to |
//! |---|---|---|
//! | `ingest_ack` | batch due | write acknowledged |
//! | `push` | acknowledged | coordinator absorbed the pushed shard |
//! | `refit` | absorbed | fitting node's snapshot covers the batch |
//! | `sync` | that snapshot | replica's snapshot covers the batch |
//! | `unattributed` | replica covers | the reader's first covering answer |
//!
//! On a standalone server a batch that trips the refresh policy is
//! acknowledged only after its refit has published; one that does not is
//! acknowledged at once and waits for the refit a later batch trips.  So
//! `refit` is the refit wall time the acknowledgement reports plus the wait
//! from the acknowledgement until the server's snapshot covers the batch,
//! `ingest_ack` is the rest of the acknowledgement latency, and `push` and
//! `sync` are zero.

use crate::system::{count, System};
use crate::workload::Topology;
use pka_serve::protocol::object;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between poll rounds.
const POLL_PAUSE: Duration = Duration::from_micros(500);

#[derive(Debug, Default)]
pub struct Samples {
    /// `(first seen, observations)` of each snapshot the fitting node published.
    pub fitted: Vec<(Instant, u64)>,
    /// The same for the replica (fabric only).
    pub synced: Vec<(Instant, u64)>,
    /// `(absorbed at, seq)` of each shard-push the coordinator took.
    pub absorbed: Vec<(Instant, u64)>,
    pub ping_rtt_us: Vec<f64>,
    pub queue_depth_max: u64,
}

pub struct Tracer {
    stop: Arc<AtomicBool>,
    versions: JoinHandle<Result<Samples, String>>,
    stats: JoinHandle<Result<Samples, String>>,
}

impl Tracer {
    pub fn start(system: &System) -> Tracer {
        let stop = Arc::new(AtomicBool::new(false));
        let fabric = system.topology == Topology::Fabric;
        let (fit, read) = (system.fit_addr(), system.read_addr());
        let flag = Arc::clone(&stop);
        let versions = std::thread::spawn(move || poll_versions(fit, read, fabric, &flag));
        let flag = Arc::clone(&stop);
        let stats = std::thread::spawn(move || poll_stats(fit, fabric, &flag));
        Tracer { stop, versions, stats }
    }

    pub fn finish(self) -> Result<Samples, String> {
        self.stop.store(true, Ordering::SeqCst);
        let mut samples = self.versions.join().map_err(|_| "version poller panicked")??;
        let stats = self.stats.join().map_err(|_| "stats poller panicked")??;
        samples.absorbed = stats.absorbed;
        samples.queue_depth_max = stats.queue_depth_max;
        Ok(samples)
    }
}

fn poll_versions(
    fit: SocketAddr,
    read: SocketAddr,
    fabric: bool,
    stop: &AtomicBool,
) -> Result<Samples, String> {
    let mut fit_client = System::client(fit)?;
    let mut read_client = System::client(read)?;
    let mut samples = Samples::default();
    let (mut fitted_last, mut synced_last) = (0u64, 0u64);
    while !stop.load(Ordering::SeqCst) {
        let observations = System::published(&mut fit_client)?;
        if observations > fitted_last {
            fitted_last = observations;
            samples.fitted.push((Instant::now(), observations));
        }
        if fabric {
            let observations = System::published(&mut read_client)?;
            if observations > synced_last {
                synced_last = observations;
                samples.synced.push((Instant::now(), observations));
            }
        }
        let sent = Instant::now();
        read_client.ping().map_err(|e| format!("trace ping: {e}"))?;
        samples.ping_rtt_us.push(sent.elapsed().as_secs_f64() * 1e6);
        std::thread::sleep(POLL_PAUSE);
    }
    Ok(samples)
}

fn poll_stats(fit: SocketAddr, fabric: bool, stop: &AtomicBool) -> Result<Samples, String> {
    let mut client = System::client(fit)?;
    let mut samples = Samples::default();
    let mut seq_last = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let raw = client.call("stats", object([])).map_err(|e| format!("trace stats: {e}"))?;
        let answered = Instant::now();
        samples.queue_depth_max =
            samples.queue_depth_max.max(count(&raw, &["server", "engine_queue_depth"]));
        if fabric {
            if let Some(serde::Value::Array(sources)) =
                raw.get("engine").and_then(|e| e.get("sources"))
            {
                for source in sources {
                    let seq = count(source, &["seq"]);
                    let age = count(source, &["last_push_age_ms"]);
                    if seq > seq_last {
                        seq_last = seq;
                        let at =
                            answered.checked_sub(Duration::from_millis(age)).unwrap_or(answered);
                        samples.absorbed.push((at, seq));
                    }
                }
            }
        }
        std::thread::sleep(POLL_PAUSE);
    }
    Ok(samples)
}

/// One batch's hops, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hops {
    pub ingest_ack: f64,
    pub push: f64,
    pub refit: f64,
    pub sync: f64,
    pub unattributed: f64,
    pub freshness: f64,
}

/// First instant at which a series reached `target`.
fn reached(series: &[(Instant, u64)], target: u64) -> Option<Instant> {
    series.iter().find(|(_, v)| *v >= target).map(|(t, _)| *t)
}

fn ms(later: Instant, earlier: Instant) -> f64 {
    if later >= earlier {
        (later - earlier).as_secs_f64() * 1e3
    } else {
        -((earlier - later).as_secs_f64() * 1e3)
    }
}

/// Splits one batch's freshness into hops.  `covered` is the row count
/// that makes the batch visible; `refit_wall_ms` is the refit time a
/// standalone acknowledgement reports.
pub fn hops(
    samples: &Samples,
    topology: Topology,
    due: Instant,
    acked: Instant,
    visible: Instant,
    covered: u64,
    refit_wall_ms: Option<f64>,
) -> Option<Hops> {
    let freshness = ms(visible, due);
    match topology {
        Topology::Fabric => {
            let absorbed = reached(&samples.absorbed, covered)?;
            let fitted = reached(&samples.fitted, covered)?;
            let synced = reached(&samples.synced, covered)?;
            let hops = Hops {
                ingest_ack: ms(acked, due),
                push: ms(absorbed, acked),
                refit: ms(fitted, absorbed),
                sync: ms(synced, fitted),
                unattributed: 0.0,
                freshness,
            };
            Some(Hops {
                unattributed: freshness - (hops.ingest_ack + hops.push + hops.refit + hops.sync),
                ..hops
            })
        }
        Topology::Standalone => {
            let ack = ms(acked, due);
            let refit_in_ack = refit_wall_ms.unwrap_or(0.0).min(ack);
            let wait = reached(&samples.fitted, covered).map_or(0.0, |t| ms(t, acked).max(0.0));
            Some(Hops {
                ingest_ack: ack - refit_in_ack,
                push: 0.0,
                refit: refit_in_ack + wait,
                sync: 0.0,
                unattributed: freshness - ack - wait,
                freshness,
            })
        }
    }
}
