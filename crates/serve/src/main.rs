//! The `pka-serve` binary: a standalone query server plus a `probe`
//! subcommand that exercises a running server end to end (used by CI as the
//! smoke test).
//!
//! ```text
//! pka-serve [--port N] [--host H] [--shards K] [--policy P] \
//!           [--schema SPEC | --cards 3,2,2 | --survey] [--max-line-bytes N] \
//!           [--lattice-order K] [--dense-ceiling N] [--max-order K] \
//!           [--loop-shards K] \
//!           [--max-connections N] \
//!           [--idle-timeout-ms N] [--journal PATH] [--journal-fsync SPEC] \
//!           [--checkpoint PATH] [--checkpoint-interval-ms N] \
//!           [--engine-queue N] [--rate-limit-conn SPEC] \
//!           [--rate-limit-read SPEC] [--rate-limit-write SPEC]
//! pka-serve probe --addr HOST:PORT [--idle-hold N] [--expect-factored] \
//!                 [--shutdown]
//! ```
//!
//! * `--policy` is `manual`, `every=N` or `fraction=F`.
//! * `--journal PATH` records local counts durably before acknowledging
//!   ingest; `--journal-fsync` is `per-record`, `interval=<ms>` or `off`.
//! * `--checkpoint PATH` periodically snapshots the whole engine state
//!   (including the coordinator's shard-placement map); boot restores
//!   from both. `SIGTERM`/`SIGINT` drain gracefully and cut a final
//!   checkpoint.
//! * `--lattice-order` is the marginal-lattice cutoff each published
//!   snapshot materialises for the query fast path (default 2).
//! * `--dense-ceiling` is the joint cell count above which the solver,
//!   lattice build and query fallback all run factored (variable
//!   elimination) instead of dense — `0` forces factored everywhere
//!   (default ~1e6; see `docs/factored.md`).
//! * `--max-order` caps the constraint order the acquisition search
//!   explores per refit (default: the attribute count) — cap it at 2 or 3
//!   on wide schemas, where the candidate space grows combinatorially.
//! * `--schema` is `name=v1|v2|…;name2=…`; `--cards` builds an anonymous
//!   uniform schema; `--survey` is the memo's smoking/cancer/family-history
//!   survey.
//! * `--engine-queue` caps the write-class engine queue (excess `ingest`
//!   / `shard-push` traffic is shed with `server-overloaded`);
//!   `--rate-limit-conn` / `--rate-limit-read` / `--rate-limit-write`
//!   are token buckets, `RATE` or `RATE:BURST` per second.
//! * `--loop-shards`, `--max-connections` and `--idle-timeout-ms` shape
//!   the reactor front end (event loops, connection cap, idle reaping).
//! * `probe --idle-hold N` opens `N` extra idle connections mid-probe and
//!   asserts the server reports them all open — the CI concurrency check.
//! * `probe --expect-factored` issues an above-lattice-order query and
//!   explanation and asserts both were answered by factored evaluation
//!   with the dense-joint path never taken (`factored_evals` rising,
//!   `dense_evals == 0`) — the CI wide-schema check.
//!
//! On startup the server prints `listening on <addr>` to stdout, so a
//! wrapper script can scrape the ephemeral port.

use pka_serve::cli::{self, Options};
use pka_serve::{protocol, LineClient, Server};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("probe") {
        probe(&args[1..])
    } else {
        serve(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("pka-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn serve(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args, cli::NODE_FLAGS)?;
    let schema = cli::build_schema(&options)?;
    let server = Server::start(schema, cli::node_config(&options)?).map_err(|e| e.to_string())?;
    // Serve until a client sends `shutdown` (or a signal arrives).
    cli::run_node(server.addr(), server.shutdown_trigger(), || {
        server.wait().map(drop).map_err(|e| e.to_string())
    })
}

/// The integration probe: drives every protocol method against a live
/// server, including malformed input, and fails loudly on any surprise.
fn probe(args: &[String]) -> Result<(), String> {
    let options = Options::parse(args, &["--addr", "--idle-hold"])?;
    let addr = options.value("--addr").ok_or("probe needs --addr HOST:PORT")?;
    let mut client = LineClient::connect(addr).map_err(|e| e.to_string())?;

    // 1. Liveness.
    if !client.ping().map_err(|e| format!("ping: {e}"))? {
        return Err("ping did not pong".to_string());
    }
    println!("probe: ping ok");

    // 2. Learn the schema and build a deterministic batch that exercises
    //    every attribute value.
    let schema = client.schema().map_err(|e| format!("schema: {e}"))?;
    if schema.is_empty() {
        return Err("server reported an empty schema".to_string());
    }
    let cards: Vec<usize> = schema.iter().map(|(_, values)| values.len()).collect();
    let rows: Vec<Vec<usize>> =
        (0..256).map(|k| cards.iter().map(|&card| k % card).collect()).collect();

    // 3. Ingest and force a snapshot.
    let ingest = client.ingest(&rows).map_err(|e| format!("ingest: {e}"))?;
    if ingest.accepted != rows.len() as u64 {
        return Err(format!("ingest accepted {} of {} rows", ingest.accepted, rows.len()));
    }
    println!("probe: ingest ok ({} rows)", ingest.accepted);
    if ingest.refit.is_none() {
        let refit = client.refresh().map_err(|e| format!("refresh: {e}"))?;
        println!("probe: refresh ok (version {})", refit.version);
    }
    let version = client
        .snapshot_version()
        .map_err(|e| format!("snapshot-version: {e}"))?
        .ok_or("no snapshot after refresh")?;
    println!("probe: snapshot version {version}");

    // 4. Query and explain against the first attribute.
    let (attr0, values0) = &schema[0];
    let answer = client.query(&[(attr0, &values0[0])], &[]).map_err(|e| format!("query: {e}"))?;
    if !(answer.probability > 0.0 && answer.probability <= 1.0) {
        return Err(format!("marginal probability {} out of range", answer.probability));
    }
    println!("probe: query ok ({} = {:.4})", answer.description, answer.probability);
    if schema.len() > 1 {
        let (attr1, values1) = &schema[1];
        client
            .explain(&[(attr0, &values0[0])], &[(attr1, &values1[0])])
            .map_err(|e| format!("explain: {e}"))?;
        println!("probe: explain ok");
    }

    // 5. A query batch answers every entry from one snapshot, agreeing
    //    with the single-query answer.
    let batch: &[pka_serve::NamedQuery] =
        &[(&[(attr0, &values0[0])], &[]), (&[(attr0, &values0[0])], &[])];
    let batch_answers = client.query_batch(batch).map_err(|e| format!("query-batch: {e}"))?;
    if batch_answers.len() != 2 {
        return Err(format!("query-batch returned {} of 2 answers", batch_answers.len()));
    }
    for entry in &batch_answers {
        let entry = entry.as_ref().map_err(|e| format!("query-batch entry: {e}"))?;
        if (entry.probability - answer.probability).abs() > 1e-12 {
            return Err(format!(
                "query-batch answered {} where query answered {}",
                entry.probability, answer.probability
            ));
        }
    }
    println!("probe: query-batch ok");

    // 6. Malformed input must produce structured errors and leave the
    //    connection usable.
    for (bad, expected) in [
        ("{\"id\":1,\"method\":", "parse-error"),
        ("{\"id\":1,\"method\":\"nope\"}", "unknown-method"),
        ("[]", "invalid-request"),
    ] {
        let response = client.call_raw(bad).map_err(|e| format!("malformed probe: {e}"))?;
        let code = response
            .get("error")
            .and_then(|e| e.get("code"))
            .map(|c| format!("{c:?}"))
            .unwrap_or_default();
        if !code.contains(expected) {
            return Err(format!("malformed line `{bad}` answered {code}, wanted {expected}"));
        }
    }
    if !client.ping().map_err(|e| format!("ping after malformed input: {e}"))? {
        return Err("connection unusable after malformed input".to_string());
    }
    println!("probe: malformed-input handling ok");

    // 7. Stats must reflect the ingest, and the queries above must have
    //    taken the lattice fast path.
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    if stats.total_ingested < rows.len() as u64 {
        return Err(format!(
            "stats report {} ingested, expected >= {}",
            stats.total_ingested,
            rows.len()
        ));
    }
    let server_stats = client.server_stats().map_err(|e| format!("server stats: {e}"))?;
    if server_stats.lattice_hits == 0 {
        return Err("no query was answered from the marginal lattice".to_string());
    }
    println!(
        "probe: stats ok ({} tuples, {} refits, {} lattice hits)",
        stats.total_ingested, stats.refits, server_stats.lattice_hits
    );

    // 8. Optional wide-schema check: an order-3 query misses the default
    //    order-2 lattice, so its fallback evaluation path is observable in
    //    the stats.  On a factored snapshot (schema above the dense
    //    ceiling) that must be variable elimination — and the dense-joint
    //    stride walk must never have run, which is the structural proof
    //    that no dense joint exists to walk.
    if options.present("--expect-factored") {
        if schema.len() < 3 {
            return Err("--expect-factored needs a schema with at least 3 attributes".to_string());
        }
        let (attr1, values1) = &schema[1];
        let (attr2, values2) = &schema[2];
        let deep = client
            .query(&[(attr0, &values0[0]), (attr1, &values1[0])], &[(attr2, &values2[0])])
            .map_err(|e| format!("factored query: {e}"))?;
        if !(deep.probability >= 0.0 && deep.probability <= 1.0) {
            return Err(format!("factored query probability {} out of range", deep.probability));
        }
        let server_stats =
            client.server_stats().map_err(|e| format!("server stats after factored query: {e}"))?;
        if server_stats.factored_evals == 0 {
            return Err("no query was answered by factored evaluation".to_string());
        }
        if server_stats.dense_evals > 0 {
            return Err(format!(
                "{} queries took the dense-joint walk on a snapshot that should not have one",
                server_stats.dense_evals
            ));
        }
        // `explain` resolves its marginals through the same path.
        client
            .explain(&[(attr0, &values0[0]), (attr1, &values1[0])], &[(attr2, &values2[0])])
            .map_err(|e| format!("factored explain: {e}"))?;
        let after_explain =
            client.server_stats().map_err(|e| format!("server stats after explain: {e}"))?;
        if after_explain.factored_evals <= server_stats.factored_evals {
            return Err("explain was not answered by factored evaluation".to_string());
        }
        if after_explain.dense_evals > 0 {
            return Err(format!(
                "explain took the dense-joint walk {} times on a factored snapshot",
                after_explain.dense_evals
            ));
        }
        println!(
            "probe: factored path ok ({} factored evals, elimination width {})",
            after_explain.factored_evals, after_explain.elimination_width_max
        );
    }

    // 9. Optional concurrency check: hold N idle connections open at once
    //    and make the server report them, proving the event-loop front end
    //    carries the fan-in without a thread per socket.
    if let Some(hold) = options.parsed("--idle-hold")? {
        let stats = cli::hold_idle(addr, hold, &mut client, Duration::from_secs(30))?;
        println!("probe: idle-hold ok ({} connections open)", stats.open_connections);
    }

    // 10. Pipelined queries all answer in order.
    let batch: Vec<(&str, serde::Value)> =
        (0..16).map(|_| ("ping", protocol::object([]))).collect();
    let responses = client.pipeline(&batch).map_err(|e| format!("pipeline: {e}"))?;
    if responses.len() != 16 || responses.iter().any(|r| r.is_err()) {
        return Err("pipelined requests failed".to_string());
    }
    println!("probe: pipelining ok");

    if options.present("--shutdown") {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        println!("probe: shutdown acknowledged");
    }
    Ok(())
}
