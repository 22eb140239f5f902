//! The `pka-fabric` binary: one executable for every fabric role, plus a
//! `probe` subcommand that drives a running cluster end to end (used by CI
//! as the mini-cluster smoke test).
//!
//! ```text
//! pka-fabric coordinator NODE-FLAGS [--replica ADDR]... [--sync-interval-ms N]
//!                        [--name NAME]
//! pka-fabric ingest-node NODE-FLAGS --coordinator ADDR [--push-interval-ms N]
//!                        [--name NAME]
//! pka-fabric replica     NODE-FLAGS [--coordinator ADDR] [--pull-interval-ms N]
//!                        [--name NAME]
//! pka-fabric probe --coordinator ADDR [--replica ADDR]...
//!                  [--ingest ADDR]... [--rows N] [--idle-hold N]
//!                  [--storm-requests N] [--shutdown]
//! ```
//!
//! Each role is a `pka_serve::Server` whose `FabricRole` carries the
//! peers its flags name; the server runs the role's pump in-process.  A
//! role takes only its own peer flags (`pka_serve::cli::fabric_node`): a
//! flag of another role, such as `replica --push-interval-ms 5`, is
//! refused with "unknown flag" and exit status 1.
//!
//! `NODE-FLAGS` are the node flags `pka-serve` takes, parsed by the same
//! `pka_serve::cli` into the same configuration:
//!
//! * schema: `--schema name=v1|v2;…`, `--cards 3,2,2` or `--survey` (every
//!   node of one fabric must be given the same schema);
//! * listener and engine: `--port N`, `--host H`, `--policy P`,
//!   `--max-line-bytes N`;
//! * evaluation and acquisition: `--lattice-order K`, `--dense-ceiling N`,
//!   `--max-order K`;
//! * reactor: `--loop-shards K`, `--max-connections N`,
//!   `--idle-timeout-ms N`;
//! * durability: `--journal PATH`, `--journal-fsync SPEC`,
//!   `--checkpoint PATH`, `--checkpoint-interval-ms N`;
//! * overload: `--engine-queue N`, `--rate-limit-conn/-read/-write
//!   RATE[:BURST]`.
//!
//! `SIGTERM`/`SIGINT` drain gracefully: connections drain, an ingest
//! node makes its final push, and the engine cuts a final checkpoint.  An
//! ingest node always runs the `manual` policy: the coordinator refits.
//!
//! Pushes and syncs are sent on change: an ingest node pushes as soon as
//! a batch is journalled and acknowledged, and a coordinator offers each
//! snapshot to its `--replica`s as soon as it publishes it, one pump
//! thread per replica.  Each peer call is one attempt; the intervals only
//! pace what cannot be event-driven (all default 25 ms except
//! `--pull-interval-ms`, 50 ms), and each failed-call wait is jittered
//! down by up to half:
//!
//! * `--push-interval-ms` — first retry delay after a failed push,
//!   doubling to 64× on consecutive failures;
//! * `--sync-interval-ms` — first retry delay to a replica whose last sync
//!   failed, doubling to 64× on consecutive failures;
//! * `--pull-interval-ms` — poll period of a replica given `--coordinator`,
//!   and its first retry delay after a failed poll, doubling to 64× on
//!   consecutive failures.
//!
//! `probe --storm-requests N` hammers the coordinator with pipelined
//! ingest before the functional steps, printing the shed/rate-limit
//! counters for CI to grep.  On startup each node prints
//! `listening on <addr>` to stdout so wrapper scripts can scrape
//! ephemeral ports.
//!
//! The probe ingests deterministic rows (into the `--ingest` nodes if
//! given, else straight into the coordinator), forces a refresh, waits for
//! every `--replica` to reach the coordinator's snapshot version, checks
//! the replicas' answers against the coordinator's, with `--idle-hold N`
//! parks `N` extra idle connections on the coordinator and asserts it
//! reports them all open (the CI fan-in check), and with `--shutdown`
//! stops every node (replicas and ingest nodes first, coordinator last).

use pka_serve::cli::{self, Options};
use pka_serve::{LineClient, Server};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(role @ ("coordinator" | "ingest-node" | "replica")) => node(role, &args[1..]),
        Some("probe") => probe(&args[1..]),
        _ => Err("usage: pka-fabric <coordinator|ingest-node|replica|probe> [options]".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pka-fabric: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Starts one fabric role as a server and runs it until shutdown.
fn node(role: &str, args: &[String]) -> Result<(), String> {
    let (schema, config) = cli::fabric_node(role, args)?;
    cli::run_node(Server::start(schema, config).map_err(|e| e.to_string())?)
}

/// Drives a running fabric end to end and fails loudly on any surprise.
fn probe(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args, cli::FABRIC_PROBE_FLAGS, cli::FABRIC_PROBE_SWITCHES)?;
    let coordinator_addr =
        options.value("--coordinator").ok_or("probe needs --coordinator HOST:PORT")?;
    let replica_addrs = options.values("--replica");
    let ingest_addrs = options.values("--ingest");
    let row_count: usize =
        options.value("--rows").unwrap_or("240").parse().map_err(|_| "bad --rows".to_string())?;
    let timeout: u64 =
        options.value("--timeout-s").unwrap_or("30").parse().map_err(|_| "bad --timeout-s")?;
    let timeout = Duration::from_secs(timeout);

    let mut coordinator = LineClient::connect(coordinator_addr).map_err(|e| e.to_string())?;
    if !coordinator.ping().map_err(|e| format!("coordinator ping: {e}"))? {
        return Err("coordinator did not pong".to_string());
    }
    println!("probe: coordinator ping ok");

    // Deterministic correlated rows over the coordinator's schema.
    let schema = coordinator.schema().map_err(|e| format!("schema: {e}"))?;
    if schema.is_empty() {
        return Err("coordinator reported an empty schema".to_string());
    }
    let cards: Vec<usize> = schema.iter().map(|(_, values)| values.len()).collect();

    // Optional overload storm, run *before* the functional steps: drive
    // the coordinator well past capacity, report the admission counters,
    // then let the normal probe prove the node recovered.
    if let Some(total) = options.value("--storm-requests") {
        let total: usize = total.parse().map_err(|_| format!("bad --storm-requests `{total}`"))?;
        let connections = 8usize;
        let storm = pka_fabric::StormConfig {
            connections,
            requests_per_conn: total.div_ceil(connections).max(1),
            rows_per_request: 4,
            cards: cards.clone(),
            deadline_ms: None,
            window: 32,
            seed: 0x5eed,
        };
        let addr = std::net::ToSocketAddrs::to_socket_addrs(coordinator_addr)
            .map_err(|e| format!("bad coordinator address: {e}"))?
            .next()
            .ok_or("coordinator address resolved to nothing")?;
        let report = pka_fabric::ingest_storm(addr, &storm).map_err(|e| format!("storm: {e}"))?;
        let stats = coordinator.server_stats().map_err(|e| format!("server stats: {e}"))?;
        println!(
            "probe: storm offered={} accepted={} shed={} rate_limited={} \
             deadline_exceeded={} unanswered={} queue_depth_max={} engine_queue_cap={} \
             shed_writes={} elapsed_ms={}",
            report.offered,
            report.accepted,
            report.overloaded,
            stats.rate_limited,
            stats.deadline_exceeded,
            report.unanswered,
            report.max_queue_depth,
            stats.engine_queue_cap,
            stats.shed_writes,
            report.elapsed.as_millis(),
        );
        if report.accepted == 0 {
            return Err("storm: no request was accepted at all".to_string());
        }
        // Normal traffic must flow again immediately after the storm.
        if !coordinator.ping().map_err(|e| format!("post-storm ping: {e}"))? {
            return Err("coordinator did not pong after the storm".to_string());
        }
        println!("probe: post-storm ping ok");
    }

    let rows: Vec<Vec<usize>> = (0..row_count)
        .map(|k| cards.iter().enumerate().map(|(a, &card)| (k + a * (k % 3)) % card).collect())
        .collect();

    // Ingest: spread across the ingest nodes if any were given, else feed
    // the coordinator directly.
    if ingest_addrs.is_empty() {
        coordinator.ingest(&rows).map_err(|e| format!("coordinator ingest: {e}"))?;
        println!("probe: ingested {} rows into the coordinator", rows.len());
    } else {
        for (i, addr) in ingest_addrs.iter().enumerate() {
            let share: Vec<Vec<usize>> =
                rows.iter().skip(i).step_by(ingest_addrs.len()).cloned().collect();
            let mut node = LineClient::connect(addr).map_err(|e| format!("ingest {addr}: {e}"))?;
            node.ingest(&share).map_err(|e| format!("ingest {addr}: {e}"))?;
            println!("probe: ingested {} rows into {addr}", share.len());
        }
        // Wait for the pushers to deliver every tuple.
        cli::wait_for(timeout, "coordinator to hold all pushed tuples", || {
            let stats = coordinator.stats().map_err(|e| e.to_string())?;
            Ok(stats.total_ingested >= rows.len() as u64)
        })?;
        println!("probe: coordinator holds all {} tuples", rows.len());
    }

    let refit = coordinator.refresh().map_err(|e| format!("refresh: {e}"))?;
    println!("probe: coordinator snapshot version {}", refit.version);
    // Durability counters, for crash-recovery scripts to grep: how much
    // of the coordinator's state came back from journal/checkpoint at
    // boot, and how stale its sources are now.
    let stats = coordinator.stats().map_err(|e| format!("stats: {e}"))?;
    println!(
        "probe: recovery recovered_sources={} recovered_tuples={} \
         journal_truncated_bytes={} journal_records={} checkpoints_written={} \
         max_push_age_ms={}",
        stats.recovered_sources,
        stats.recovered_tuples,
        stats.journal_truncated_bytes,
        stats.journal_records,
        stats.checkpoints_written,
        stats.max_push_age_ms.map_or_else(|| "none".to_string(), |ms| ms.to_string()),
    );
    let (attr0, values0) = &schema[0];
    let reference = coordinator
        .query(&[(attr0, &values0[0])], &[])
        .map_err(|e| format!("coordinator query: {e}"))?;

    for addr in &replica_addrs {
        let mut replica = LineClient::connect(addr).map_err(|e| format!("replica {addr}: {e}"))?;
        let mut last_seen = 0u64;
        cli::wait_for(timeout, "replica to reach the coordinator's version", || {
            let version = replica.snapshot_version().map_err(|e| e.to_string())?.unwrap_or(0);
            if version < last_seen {
                return Err(format!("replica {addr} went backwards: {last_seen} -> {version}"));
            }
            last_seen = version;
            Ok(version >= refit.version)
        })?;
        let answer = replica
            .query(&[(attr0, &values0[0])], &[])
            .map_err(|e| format!("replica {addr} query: {e}"))?;
        if (answer.probability - reference.probability).abs() > 1e-9 {
            return Err(format!(
                "replica {addr} answered {} where the coordinator answered {}",
                answer.probability, reference.probability
            ));
        }
        // Writes must be rejected on a replica.
        match replica.ingest(&rows[..1]) {
            Err(pka_serve::ServeError::Remote { code, .. }) if code == "role-unsupported" => {}
            other => return Err(format!("replica {addr} did not refuse ingest: {other:?}")),
        }
        println!("probe: replica {addr} converged (version {last_seen})");
    }

    // Optional fan-in check: park N extra idle connections on the
    // coordinator and make it count them, proving the reactor carries the
    // fabric's connection load without a thread per socket.
    if let Some(hold) = options.parsed("--idle-hold")? {
        let stats = cli::hold_idle(coordinator_addr, hold, &mut coordinator, timeout)?;
        println!(
            "probe: idle-hold ok ({} connections open, shard occupancy {:?})",
            stats.open_connections, stats.shard_connections
        );
    }

    if options.present("--shutdown") {
        for addr in replica_addrs.iter().chain(ingest_addrs.iter()) {
            let mut node =
                LineClient::connect(addr).map_err(|e| format!("shutdown {addr}: {e}"))?;
            node.shutdown().map_err(|e| format!("shutdown {addr}: {e}"))?;
            println!("probe: {addr} shutdown acknowledged");
        }
        coordinator.shutdown().map_err(|e| format!("coordinator shutdown: {e}"))?;
        println!("probe: coordinator shutdown acknowledged");
    }
    Ok(())
}
