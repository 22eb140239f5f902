//! The command-line surface every node binary shares.
//!
//! `pka-serve` and each `pka-fabric` role parse the same node flags
//! ([`NODE_FLAGS`], plus the [`NODE_SWITCHES`]) into the same
//! [`ServeConfig`], so a flag means one thing everywhere; a fabric role
//! adds only its own peer flags ([`fabric_node`]).  [`run_node`] then
//! announces the bound address, routes `SIGTERM`/`SIGINT` to a graceful
//! drain and waits for shutdown.  The binaries' `probe` subcommands share
//! [`wait_for`] and [`hold_idle`].  Every flag either binary accepts is
//! listed here, and [`Options::parse`] refuses any other.

use crate::{
    BucketSpec, FabricRole, LineClient, RateLimitConfig, ServeConfig, ServerHandle, ServerStats,
};
use pka_contingency::{Attribute, Schema};
use pka_stream::{FsyncPolicy, RefreshPolicy, StreamConfig};
use std::io::Write;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The node flags that take a value (documented in the `pka-serve` and
/// `pka-fabric` usage).
pub const NODE_FLAGS: &[&str] = &[
    "--port",
    "--host",
    "--policy",
    "--schema",
    "--cards",
    "--max-line-bytes",
    "--lattice-order",
    "--dense-ceiling",
    "--max-order",
    "--loop-shards",
    "--max-connections",
    "--idle-timeout-ms",
    "--journal",
    "--journal-fsync",
    "--checkpoint",
    "--checkpoint-interval-ms",
    "--engine-queue",
    "--rate-limit-conn",
    "--rate-limit-read",
    "--rate-limit-write",
];

/// The node switches (flags without a value).
pub const NODE_SWITCHES: &[&str] = &["--survey"];

/// The flags `pka-fabric coordinator` takes on top of [`NODE_FLAGS`].
pub const COORDINATOR_FLAGS: &[&str] = &["--replica", "--sync-interval-ms", "--name"];

/// The flags `pka-fabric ingest-node` takes on top of [`NODE_FLAGS`].
pub const INGEST_NODE_FLAGS: &[&str] = &["--coordinator", "--push-interval-ms", "--name"];

/// The flags `pka-fabric replica` takes on top of [`NODE_FLAGS`].
pub const REPLICA_FLAGS: &[&str] = &["--coordinator", "--pull-interval-ms", "--name"];

/// The flags `pka-serve probe` takes.
pub const SERVE_PROBE_FLAGS: &[&str] = &["--addr", "--idle-hold"];

/// The switches `pka-serve probe` takes.
pub const SERVE_PROBE_SWITCHES: &[&str] = &["--expect-factored", "--shutdown"];

/// The flags `pka-fabric probe` takes.
pub const FABRIC_PROBE_FLAGS: &[&str] = &[
    "--coordinator",
    "--replica",
    "--ingest",
    "--rows",
    "--timeout-s",
    "--idle-hold",
    "--storm-requests",
];

/// The switches `pka-fabric probe` takes.
pub const FABRIC_PROBE_SWITCHES: &[&str] = &["--shutdown"];

/// `--flag value` style options (repeatable) pulled out of an argument
/// list.
#[derive(Debug, Clone)]
pub struct Options {
    args: Vec<(String, Option<String>)>,
}

impl Options {
    /// Parses `args`; flags listed in `flags_with_value` consume the next
    /// argument, flags listed in `switches` stand alone, and anything else
    /// — an unknown flag included — is an error.
    pub fn parse(
        args: &[String],
        flags_with_value: &[&str],
        switches: &[&str],
    ) -> Result<Self, String> {
        let mut parsed = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let value = if flags_with_value.contains(&arg.as_str()) {
                Some(iter.next().ok_or_else(|| format!("`{arg}` needs a value"))?.clone())
            } else if switches.contains(&arg.as_str()) {
                None
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag `{arg}`"));
            } else {
                return Err(format!("unexpected argument `{arg}`"));
            };
            parsed.push((arg.clone(), value));
        }
        Ok(Self { args: parsed })
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.args.iter().rev().find(|(name, _)| name == flag).and_then(|(_, v)| v.as_deref())
    }

    /// Every value given for a repeatable `flag`, in order.
    pub fn values(&self, flag: &str) -> Vec<&str> {
        self.args
            .iter()
            .filter(|(name, _)| name == flag)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    /// True if the switch `flag` was given.
    pub fn present(&self, flag: &str) -> bool {
        self.args.iter().any(|(name, _)| name == flag)
    }

    /// The value of `flag` parsed as a `T`, if given.
    pub fn parsed<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag).map(|v| v.parse().map_err(|_| format!("bad {flag} `{v}`"))).transpose()
    }
}

/// The schema named by `--survey`, `--schema` or `--cards`.
pub fn build_schema(options: &Options) -> Result<Arc<Schema>, String> {
    if options.present("--survey") {
        return Ok(Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .map_err(|e| e.to_string())?
        .into_shared());
    }
    if let Some(spec) = options.value("--schema") {
        let mut attributes = Vec::new();
        for attr_spec in spec.split(';').filter(|s| !s.is_empty()) {
            let (name, values) = attr_spec
                .split_once('=')
                .ok_or_else(|| format!("bad --schema attribute `{attr_spec}` (want name=v1|v2)"))?;
            let values: Vec<&str> = values.split('|').filter(|v| !v.is_empty()).collect();
            if values.len() < 2 {
                return Err(format!("attribute `{name}` needs at least two values"));
            }
            attributes.push(Attribute::new(name, values));
        }
        return Ok(Schema::new(attributes).map_err(|e| e.to_string())?.into_shared());
    }
    if let Some(cards) = options.value("--cards") {
        let cardinalities: Vec<usize> = cards
            .split(',')
            .map(|c| c.trim().parse().map_err(|_| format!("bad --cards entry `{c}`")))
            .collect::<Result<_, _>>()?;
        return Ok(Schema::uniform(&cardinalities).map_err(|e| e.to_string())?.into_shared());
    }
    Err("no schema given: pass --schema, --cards or --survey".to_string())
}

/// A `--policy` value: `manual`, `every=N` or `fraction=F`.
pub fn parse_policy(policy: &str) -> Result<RefreshPolicy, String> {
    if policy == "manual" {
        return Ok(RefreshPolicy::Manual);
    }
    if let Some(n) = policy.strip_prefix("every=") {
        return Ok(RefreshPolicy::EveryNTuples(
            n.parse().map_err(|_| format!("bad policy `{policy}`"))?,
        ));
    }
    if let Some(f) = policy.strip_prefix("fraction=") {
        return Ok(RefreshPolicy::DirtyFraction(
            f.parse().map_err(|_| format!("bad policy `{policy}`"))?,
        ));
    }
    Err(format!("unknown policy `{policy}` (want manual, every=N or fraction=F)"))
}

/// The [`ServeConfig`] the node flags describe (everything but the
/// schema).
pub fn node_config(options: &Options) -> Result<ServeConfig, String> {
    let mut stream = StreamConfig::new();
    if let Some(policy) = options.value("--policy") {
        stream = stream.with_policy(parse_policy(policy)?);
    }
    if let Some(order) = options.parsed("--lattice-order")? {
        stream = stream.with_lattice_order(order);
    }
    if let Some(cells) = options.parsed("--dense-ceiling")? {
        stream = stream.with_dense_ceiling(cells);
    }
    if let Some(order) = options.parsed("--max-order")? {
        stream = stream.with_max_order(order);
    }
    let mut config = ServeConfig::new().with_stream(stream);
    if let Some(port) = options.parsed("--port")? {
        config = config.with_port(port);
    }
    if let Some(host) = options.value("--host") {
        config = config.with_host(host);
    }
    if let Some(max) = options.parsed("--max-line-bytes")? {
        config = config.with_max_line_bytes(max);
    }
    if let Some(shards) = options.parsed("--loop-shards")? {
        config = config.with_loop_shards(shards);
    }
    if let Some(cap) = options.parsed("--max-connections")? {
        config = config.with_max_connections(cap);
    }
    if let Some(idle) = options.parsed("--idle-timeout-ms")? {
        config = config.with_idle_timeout_ms(idle);
    }
    if let Some(path) = options.value("--journal") {
        config = config.with_journal(path);
    }
    if let Some(spec) = options.value("--journal-fsync") {
        config = config.with_journal_fsync(FsyncPolicy::parse(spec).map_err(|e| e.to_string())?);
    }
    if let Some(path) = options.value("--checkpoint") {
        config = config.with_checkpoint(path);
    }
    if let Some(ms) = options.parsed("--checkpoint-interval-ms")? {
        config = config.with_checkpoint_interval(Duration::from_millis(ms));
    }
    if let Some(cap) = options.parsed("--engine-queue")? {
        config = config.with_engine_queue_cap(cap);
    }
    // Opt-in token buckets, each `RATE` or `RATE:BURST` per second.
    let bucket = |flag: &str| {
        options
            .value(flag)
            .map(|spec| BucketSpec::parse(spec).map_err(|e| format!("bad {flag}: {e}")))
            .transpose()
    };
    let rate_limit = RateLimitConfig {
        per_conn: bucket("--rate-limit-conn")?,
        read: bucket("--rate-limit-read")?,
        write: bucket("--rate-limit-write")?,
    };
    Ok(config.with_rate_limit(rate_limit))
}

/// One `pka-fabric` role's command line — `role` is `coordinator`,
/// `ingest-node` or `replica` — as its schema and its configuration: the
/// node flags plus the role's own flags, which fill the peer-carrying
/// [`FabricRole`].  A flag of another role is refused like any unknown
/// flag.  The retry/poll intervals default to 25 ms (`--sync-interval-ms`,
/// `--push-interval-ms`) and 50 ms (`--pull-interval-ms`).
pub fn fabric_node(role: &str, args: &[String]) -> Result<(Arc<Schema>, ServeConfig), String> {
    let role_flags = match role {
        "coordinator" => COORDINATOR_FLAGS,
        "ingest-node" => INGEST_NODE_FLAGS,
        "replica" => REPLICA_FLAGS,
        other => return Err(format!("unknown fabric role `{other}`")),
    };
    let options = Options::parse(args, &[NODE_FLAGS, role_flags].concat(), NODE_SWITCHES)?;
    let interval = |flag: &str, default_ms: u64| -> Result<Duration, String> {
        Ok(Duration::from_millis(options.parsed(flag)?.unwrap_or(default_ms)))
    };
    let role = match role {
        "coordinator" => FabricRole::Coordinator {
            replicas: options.values("--replica").into_iter().map(String::from).collect(),
            sync_interval: interval("--sync-interval-ms", 25)?,
        },
        "ingest-node" => FabricRole::IngestNode {
            coordinator: options
                .value("--coordinator")
                .ok_or("ingest-node needs --coordinator HOST:PORT")?
                .to_string(),
            push_interval: interval("--push-interval-ms", 25)?,
        },
        _ => FabricRole::Replica {
            coordinator: options.value("--coordinator").map(String::from),
            pull_interval: interval("--pull-interval-ms", 50)?,
        },
    };
    let mut config = node_config(&options)?.with_role(role);
    if let Some(name) = options.value("--name") {
        config = config.with_node_name(name);
    }
    Ok((build_schema(&options)?, config))
}

/// Runs a started node until it shuts down: prints `listening on <addr>`
/// (so wrapper scripts can scrape an ephemeral port), routes
/// `SIGTERM`/`SIGINT` to the same graceful drain a client `shutdown` does
/// — connections drain, a fabric pump makes its final flush and the
/// engine thread cuts a final checkpoint, so an orchestrated restart
/// never loses acknowledged work — then waits and prints `shut down
/// cleanly`.
pub fn run_node(server: ServerHandle) -> Result<(), String> {
    println!("listening on {}", server.addr());
    std::io::stdout().flush().ok();
    if let Ok(watch) = crate::watch_termination() {
        let trigger = server.shutdown_trigger();
        std::thread::Builder::new()
            .name("node-signals".to_string())
            .spawn(move || {
                watch.wait();
                trigger.request();
            })
            .map_err(|e| e.to_string())?;
    }
    server.wait().map_err(|e| e.to_string())?;
    println!("shut down cleanly");
    Ok(())
}

/// Polls `check` every 20 ms until it returns true; fails with `timed out
/// waiting for <what>` once `timeout` has elapsed.
pub fn wait_for(
    timeout: Duration,
    what: &str,
    mut check: impl FnMut() -> Result<bool, String>,
) -> Result<(), String> {
    let start = Instant::now();
    loop {
        if check()? {
            return Ok(());
        }
        if start.elapsed() > timeout {
            return Err(format!("timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Opens `hold` idle connections to `addr` and waits until the server
/// behind `client` reports them all open (plus `client`'s own), proving
/// the reactor carries the fan-in without a thread per socket.  Returns
/// the server's stats while they are held; they close on return.
pub fn hold_idle(
    addr: &str,
    hold: usize,
    client: &mut LineClient,
    timeout: Duration,
) -> Result<ServerStats, String> {
    let held = (0..hold)
        .map(|i| {
            std::net::TcpStream::connect(addr).map_err(|e| format!("idle-hold connect {i}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // The last few sockets may still be in flight from the acceptor to
    // their shard; ask over the live protocol connection until the server
    // counts them all.
    let mut stats = None;
    wait_for(timeout, &format!("the server to report {hold} held idle connections"), || {
        let now =
            client.server_stats().map_err(|e| format!("server stats during idle-hold: {e}"))?;
        let counted = now.open_connections > hold as u64;
        stats = Some(now);
        Ok(counted)
    })?;
    drop(held);
    Ok(stats.expect("wait_for succeeded after a check"))
}
