//! `pipebench`: the repository benchmark.
//!
//! ```text
//! pipebench --bin-dir DIR --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Boots the real `pka-serve` / `pka-fabric` binaries from `DIR` as
//! separate processes, preloads them, drives one workload with an
//! open-loop writer and a reader for `S` seconds, checks the answers
//! against a one-shot acquisition over exactly the acknowledged rows, and
//! prints the end-to-end metrics (`--trace 0`) or the per-layer breakdown
//! (`--trace 1`).  The last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  A run that fails its
//! gate, or whose writes never become visible, prints why and exits
//! non-zero without a result.  See `pipebench/README.md`.

mod gate;
mod load;
mod procs;
mod replay;
mod spans;
mod stats;
mod system;
mod trace;
mod workload;

use load::{Control, Exchange, Lane, Pacing, Status, Until};
use stats::{median, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use system::System;
use workload::{Inputs, Topology, Workload};

/// The whole run, build excluded, must end within this; the watchdog
/// kills every process under test and exits non-zero past it.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// Requests the writer may have in flight before it holds the next back.
const WRITE_PIPELINE: usize = 16;
/// A sent request unanswered this long breaks its connection.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);
/// The generator counts as behind schedule when its 99th-percentile send
/// is later than this after the due instant.
const LATE_FLAG: Duration = Duration::from_millis(1);

struct Args {
    bin_dir: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut values: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            f @ ("--bin-dir" | "--workload" | "--seed" | "--seconds" | "--trace") => f,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("`{key}` needs a value"))?;
        values.insert(key, value);
    }
    let get = |k: &str| values.get(k).copied().ok_or_else(|| format!("missing `{k}`"));
    let name = get("--workload")?;
    let workload = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have {})", names.join(", "))
    })?;
    let seconds: u64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        bin_dir: PathBuf::from(get("--bin-dir")?),
        workload,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pipebench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        procs::kill_all();
        eprintln!(
            "pipebench: FAILED: run exceeded {RUN_DEADLINE:?}; killed every process under test"
        );
        std::process::exit(3);
    });
    match run(&args) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(failure) => {
            println!("FAILED: {failure}");
            eprintln!("pipebench: FAILED: {failure}");
            ExitCode::FAILURE
        }
    }
}

/// Request accounting of one lane.
#[derive(Default)]
struct Accounting {
    attempted: usize,
    answered: usize,
    refused: BTreeMap<String, usize>,
    failed: usize,
}

impl Accounting {
    fn of(exchanges: &[&Exchange]) -> Self {
        let mut acc = Accounting { attempted: exchanges.len(), ..Default::default() };
        for e in exchanges {
            match &e.status {
                Status::Answered => acc.answered += 1,
                Status::Refused(code) => *acc.refused.entry(code.clone()).or_default() += 1,
                Status::Failed(_) => acc.failed += 1,
            }
        }
        acc
    }

    fn refused_total(&self) -> usize {
        self.refused.values().sum()
    }

    fn line(&self, what: &str) -> String {
        let refused: Vec<String> = self.refused.iter().map(|(c, n)| format!("{c}={n}")).collect();
        format!(
            "  {what:<6} attempted {:>7}  answered {:>7}  refused {:>4} [{}]  failed {:>4}",
            self.attempted,
            self.answered,
            self.refused_total(),
            refused.join(" "),
            self.failed
        )
    }
}

/// Latency in `unit_per_second` units; refused and failed requests are
/// infinitely late.
fn latencies(exchanges: &[&Exchange], per_second: f64) -> Vec<f64> {
    exchanges
        .iter()
        .map(|e| match e.status {
            Status::Answered => e.latency().as_secs_f64() * per_second,
            _ => f64::INFINITY,
        })
        .collect()
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn run(args: &Args) -> Result<String, String> {
    let workload = &args.workload;
    let inputs = Inputs::generate(workload, args.seed, args.seconds);
    let run_dir = Path::new(".pipebench").join(format!(
        "{}-seed{}-{}",
        workload.name,
        args.seed,
        std::process::id()
    ));
    let outcome = measure(args, &inputs, &run_dir);
    let _ = std::fs::remove_dir_all(&run_dir);
    let (metrics, accounting, notes) = outcome?;

    let mut out = String::new();
    out.push_str(&format!("stamp: {}\n", stamp(args, &notes.flags)));
    out.push_str(&format!(
        "workload {} (seed {}, {} s timed, {} stand-ups, trace {})\n",
        workload.name, args.seed, args.seconds, workload.stand_ups, args.trace as u8
    ));
    for line in &notes.lines {
        out.push_str(line);
        out.push('\n');
    }
    for m in &metrics {
        out.push_str(&format!(
            "  {:<30} {:>16.6} {:<10} (n={})\n",
            m.name, m.value, m.unit, m.samples
        ));
    }
    let fields: Vec<String> = metrics
        .iter()
        .filter(|m| m.value.is_finite())
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    if fields.len() != metrics.len() {
        let bad: Vec<&str> =
            metrics.iter().filter(|m| !m.value.is_finite()).map(|m| m.name).collect();
        return Err(format!("{out}metrics without a finite value: {}", bad.join(", ")));
    }
    let failed = accounting.refused_total() + accounting.failed;
    out.push_str(&format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        accounting.attempted,
        fields.join(", ")
    ));
    Ok(out)
}

/// Human-readable context printed with the result.
#[derive(Default)]
struct Notes {
    lines: Vec<String>,
    flags: Vec<String>,
}

fn measure(
    args: &Args,
    inputs: &Inputs,
    run_dir: &Path,
) -> Result<(Vec<Metric>, Accounting, Notes), String> {
    let workload = &args.workload;
    let mut notes = Notes::default();

    // Stand the system up several times; the last stand-up is measured.
    let mut setup_s = Vec::with_capacity(workload.stand_ups);
    let mut live = None;
    for i in 0..workload.stand_ups {
        let started = Instant::now();
        let system =
            System::boot(workload, inputs, &args.bin_dir, &run_dir.join(format!("setup{i}")))?;
        system.preload(inputs, workload.visibility_timeout)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if i + 1 < workload.stand_ups {
            system.shutdown()?;
        } else {
            live = Some(system);
        }
    }
    let system = live.expect("at least one stand-up");
    notes.flags =
        system.procs.iter().map(|p| format!("{}: {}", p.label, p.args.join(" "))).collect();
    let read_before = counters(system.read_addr())?;
    let fit_before = counters(system.fit_addr())?;
    let cpu_before = system.cpu_seconds()?;
    let tracer = args.trace.then(|| trace::Tracer::start(&system));

    // Timed phase: open-loop writes for `seconds`, reads until every
    // acknowledged write is visible.
    let control = Arc::new(Control::new(RESPONSE_TIMEOUT));
    let start = Instant::now() + Duration::from_millis(50);
    let end = start + Duration::from_secs(args.seconds);
    let lanes = vec![
        Lane {
            addr: system.write_addr(),
            lines: Arc::new(inputs.write_lines.clone()),
            cycle: false,
            pacing: Pacing::Open {
                interval: workload.write_interval,
                max_in_flight: WRITE_PIPELINE,
            },
            until: Until::Instant(end),
            keep_bodies: true,
        },
        Lane {
            addr: system.read_addr(),
            lines: Arc::new(inputs.read_lines.clone()),
            cycle: true,
            pacing: workload.read_pacing,
            until: Until::Stopped,
            keep_bodies: false,
        },
    ];
    let handle = load::start(lanes, start, Arc::clone(&control))?;
    std::thread::sleep(end.saturating_duration_since(Instant::now()));
    let writes_settle = Instant::now() + RESPONSE_TIMEOUT + Duration::from_secs(5);
    while !handle.lane_done(0) && Instant::now() < writes_settle {
        std::thread::sleep(Duration::from_millis(1));
    }
    let acked_now = handle.answered(0);
    let target = (inputs.preload.len()
        + acked_now.iter().map(|&i| inputs.batches[i].len()).sum::<usize>())
        as u64;
    let visible_by = Instant::now() + workload.visibility_timeout;
    while control.max_observations.load(Ordering::SeqCst) < target && Instant::now() < visible_by {
        std::thread::sleep(Duration::from_millis(1));
    }
    let visible = control.max_observations.load(Ordering::SeqCst) >= target;
    control.stop.store(true, Ordering::SeqCst);
    let cpu_after = system.cpu_seconds()?;
    let mut exchanges = handle.join()?;
    let samples = match tracer {
        Some(t) => Some(t.finish()?),
        None => None,
    };
    if !visible {
        let diagnosis = system.diagnose(target);
        let _ = system.shutdown();
        return Err(format!(
            "written rows not visible at the read endpoint within {:?} of the last write: {diagnosis}",
            workload.visibility_timeout
        ));
    }
    let reads_all = exchanges.pop().expect("reader lane");
    let writes = exchanges.pop().expect("writer lane");
    let peak_rss_mb = system.peak_rss_mb()?;
    let read_after = counters(system.read_addr())?;
    let fit_after = counters(system.fit_addr())?;

    // Accounting over the timed window.
    let reads: Vec<&Exchange> = reads_all.iter().filter(|e| e.due < end).collect();
    let write_refs: Vec<&Exchange> = writes.iter().collect();
    let write_acc = Accounting::of(&write_refs);
    let read_acc = Accounting::of(&reads);
    let mut acked = vec![false; inputs.batches.len()];
    for e in &writes {
        acked[e.index] = e.status == Status::Answered;
    }

    // Correctness gate, then a checked shutdown.
    let gate = gate::check(&system, workload, inputs, &acked);
    let shutdown = system.shutdown();
    let gate = gate?;
    shutdown?;

    let all = Accounting {
        attempted: write_acc.attempted + read_acc.attempted,
        answered: write_acc.answered + read_acc.answered,
        refused: write_acc.refused.iter().chain(&read_acc.refused).fold(
            BTreeMap::new(),
            |mut m, (c, n)| {
                *m.entry(c.clone()).or_default() += n;
                m
            },
        ),
        failed: write_acc.failed + read_acc.failed,
    };
    notes.lines.push("  requests (timed window):".into());
    notes.lines.push(write_acc.line("write"));
    notes.lines.push(read_acc.line("read"));
    notes.lines.push(format!(
        "  gate: ok ({} rows counted at every hop; {} probes within {:.0e} of one-shot acquisition, \
         max gap {:.2e}; served structure vs cold one-shot: +{} / -{} cells)",
        gate.rows,
        gate.probes,
        gate::TOLERANCE,
        gate.max_gap,
        gate.structure_diff.0,
        gate.structure_diff.1
    ));

    // Generator lateness.
    let open_loop: Vec<&Exchange> = match workload.read_pacing {
        Pacing::Open { .. } => write_refs.iter().chain(&reads).copied().collect(),
        Pacing::Closed { .. } => write_refs.clone(),
    };
    let late: Vec<f64> = open_loop.iter().map(|e| e.lateness().as_secs_f64() * 1e6).collect();
    let late_p99 = percentile(&late, 0.99).unwrap_or(0.0);
    let late_max = late.iter().copied().fold(0.0, f64::max);
    let behind = late_p99 > LATE_FLAG.as_secs_f64() * 1e6;
    notes.lines.push(format!(
        "  generator lateness: p99 {late_p99:.0} us, max {late_max:.0} us over {} open-loop requests{}",
        late.len(),
        if behind { "  ** BEHIND SCHEDULE **" } else { "" }
    ));

    // Lattice-miss share of the query mix, from the read endpoint's stats.
    let hits = read_after.lattice_hits - read_before.lattice_hits;
    let misses = read_after.lattice_misses - read_before.lattice_misses;
    let hit_ratio = hits as f64 / (hits + misses).max(1) as f64;
    notes.lines.push(format!(
        "  lattice-miss share: {:.4} of {} marginal evaluations ({} factored)",
        1.0 - hit_ratio,
        hits + misses,
        read_after.factored_evals - read_before.factored_evals
    ));

    // Freshness: scheduled send of each acknowledged batch → first read
    // answer whose observations cover it.
    let mut answers: Vec<&Exchange> =
        reads_all.iter().filter(|e| e.observations.is_some()).collect();
    answers.sort_by_key(|e| e.done);
    let mut covered = inputs.preload.len() as u64;
    let mut freshness = Vec::new();
    let mut hop_rows = Vec::new();
    for e in &writes {
        if e.status != Status::Answered {
            continue;
        }
        covered += inputs.batches[e.index].len() as u64;
        let seen = answers
            .iter()
            .find(|a| a.observations.unwrap_or(0) >= covered)
            .ok_or_else(|| format!("batch {} never became visible to the reader", e.index))?;
        freshness.push(seen.done.saturating_duration_since(e.due).as_secs_f64() * 1e3);
        if let Some(samples) = &samples {
            let refit_wall_ms = e
                .body
                .as_deref()
                .and_then(|b| load::top_level_u64(b, "wall_micros"))
                .map(|us| us as f64 / 1e3);
            if let Some(h) = trace::hops(
                samples,
                workload.topology,
                e.due,
                e.done,
                seen.done,
                covered,
                refit_wall_ms,
            ) {
                hop_rows.push(h);
            }
        }
    }

    let mut metrics = Vec::new();
    if !args.trace {
        let write_us = latencies(&write_refs, 1e6);
        let read_us = latencies(&reads, 1e6);
        let answered_entries = read_acc.answered * workload.batch_queries;
        let qps = read_qps(&reads, workload.batch_queries, args.seconds);
        let pct = |v: &[f64], q: f64| percentile(v, q).unwrap_or(f64::NAN);
        let fresh = &freshness;
        let mut push =
            |name, value, unit, samples| metrics.push(Metric { name, value, unit, samples });
        push("setup_s", median(&setup_s).unwrap_or(f64::NAN), "s", setup_s.len());
        push("freshness_p50_ms", pct(fresh, 0.5), "ms", fresh.len());
        push("read_p50_us", pct(&read_us, 0.5), "us", read_us.len());
        push("read_qps", median(&qps).unwrap_or(f64::NAN), "queries/s", answered_entries);
        push("write_p50_us", pct(&write_us, 0.5), "us", write_us.len());
        push("sut_cpu_s", cpu_after - cpu_before, "s", system_len(workload));
        push("peak_rss_mb", peak_rss_mb, "MB", system_len(workload));
        // Printed, not bounded: see the README's "Unbounded figures".
        let error_rate = (all.refused_total() + all.failed) as f64 / all.attempted.max(1) as f64;
        notes.lines.push(format!(
            "  unbounded: freshness_p90_ms {:.3}, freshness_p99_ms {:.3} ms (n={}); \
             read_p90_us {:.1}, read_p99_us {:.1} us (n={}); \
             write_p90_us {:.1}, write_p99_us {:.1} us (n={}); error_rate {error_rate:.6} ratio",
            pct(fresh, 0.9),
            pct(fresh, 0.99),
            fresh.len(),
            pct(&read_us, 0.9),
            pct(&read_us, 0.99),
            read_us.len(),
            pct(&write_us, 0.9),
            pct(&write_us, 0.99),
            write_us.len()
        ));
    } else {
        let samples = samples.expect("traced runs carry samples");
        let replay = replay::run(
            workload,
            inputs,
            &acked,
            &run_dir.join("replay"),
            &Path::new(".pipebench")
                .join(format!("spans-{}-seed{}.jsonl", workload.name, args.seed)),
        )?;
        notes.lines.push(format!(
            "  spans: .pipebench/spans-{}-seed{}.jsonl ({} hop rows)",
            workload.name,
            args.seed,
            hop_rows.len()
        ));
        metrics = per_layer(
            workload,
            &reads,
            &samples,
            &hop_rows,
            &replay,
            (&read_before, &read_after),
            (&fit_before, &fit_after),
            &mut notes,
        );
    }
    Ok((metrics, all, notes))
}

/// Read throughput over consecutive runs of answers, each about a second
/// long: the entries answered after a run's first answer over the time the
/// run spans.  Their median, not the whole phase's mean, is the reported
/// rate: a host stall of a few hundred milliseconds moves the mean of a
/// saturating reader but leaves most runs untouched.
fn read_qps(reads: &[&Exchange], per_request: usize, seconds: u64) -> Vec<f64> {
    let mut done: Vec<Instant> =
        reads.iter().filter(|e| e.status == Status::Answered).map(|e| e.done).collect();
    done.sort();
    let run = (done.len() / seconds.max(1) as usize).max(2);
    done.chunks_exact(run)
        .filter_map(|r| {
            let span = r[r.len() - 1].saturating_duration_since(r[0]).as_secs_f64();
            (span > 0.0).then(|| ((r.len() - 1) * per_request) as f64 / span)
        })
        .collect()
}

fn system_len(workload: &Workload) -> usize {
    match workload.topology {
        Topology::Fabric => 3,
        Topology::Standalone => 1,
    }
}

/// The `stats` counters the metrics difference across the timed phase.
#[derive(Debug, Default, Clone)]
struct Counters {
    lattice_hits: u64,
    lattice_misses: u64,
    factored_evals: u64,
    elimination_width_max: u64,
    shed_writes: u64,
    deadline_exceeded: u64,
    refits: u64,
    sweeps: u64,
    full_hits: u64,
    fits: u64,
    constraints: u64,
}

fn counters(addr: std::net::SocketAddr) -> Result<Counters, String> {
    let raw = System::stats(addr)?;
    let server = |k: &str| system::count(&raw, &["server", k]);
    let engine = |k: &str| system::count(&raw, &["engine", k]);
    Ok(Counters {
        lattice_hits: server("lattice_hits"),
        lattice_misses: server("lattice_misses"),
        factored_evals: server("factored_evals"),
        elimination_width_max: server("elimination_width_max"),
        shed_writes: server("shed_writes"),
        deadline_exceeded: server("deadline_exceeded"),
        refits: engine("refits"),
        sweeps: engine("solver_sweeps"),
        full_hits: engine("cache_full_hits"),
        fits: engine("cache_full_hits") + engine("cache_extensions") + engine("cache_rebuilds"),
        constraints: system::count(&raw, &["snapshot", "constraints"]),
    })
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    workload: &Workload,
    reads: &[&Exchange],
    samples: &trace::Samples,
    hop_rows: &[trace::Hops],
    replay: &replay::Replay,
    read: (&Counters, &Counters),
    fit: (&Counters, &Counters),
    notes: &mut Notes,
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let mut not_applicable = Vec::new();
    let time = |name: &str, scale: f64| -> (f64, usize) {
        replay.times.get(name).map_or((0.0, 0), |v| {
            let secs: Vec<f64> = v.iter().map(|s| s * scale).collect();
            (median(&secs).unwrap_or(0.0), secs.len())
        })
    };
    let size = |name: &str| -> (f64, usize) {
        replay.bytes.get(name).map_or((0.0, 0), |v| (median(v).unwrap_or(0.0), v.len()))
    };
    let hop = |f: fn(&trace::Hops) -> f64| -> (f64, usize) {
        let v: Vec<f64> = hop_rows.iter().map(f).collect();
        (median(&v).unwrap_or(0.0), v.len())
    };
    let mut push = |name: &'static str, (value, samples): (f64, usize), unit: &'static str| {
        if samples == 0 {
            not_applicable.push(name);
        }
        metrics.push(Metric { name, value, unit, samples });
    };
    let request_bytes: Vec<f64> = reads.iter().map(|e| e.request_bytes as f64).collect();
    let response_bytes: Vec<f64> =
        reads.iter().filter(|e| e.response_bytes > 0).map(|e| e.response_bytes as f64).collect();
    let (rb, ra) = read;
    let (fb, fa) = fit;
    let hits = ra.lattice_hits - rb.lattice_hits;
    let misses = ra.lattice_misses - rb.lattice_misses;
    let refits = fa.refits - fb.refits;
    let fits = fa.fits - fb.fits;

    push(
        "net.ping_rtt_us",
        (median(&samples.ping_rtt_us).unwrap_or(0.0), samples.ping_rtt_us.len()),
        "us",
    );
    push("protocol.parse_query_batch_us", time("protocol.parse_query_batch", 1e6), "us");
    push("protocol.parse_ingest_us", time("protocol.parse_ingest", 1e6), "us");
    push(
        "protocol.request_bytes",
        (median(&request_bytes).unwrap_or(0.0), request_bytes.len()),
        "bytes",
    );
    push(
        "protocol.response_bytes",
        (median(&response_bytes).unwrap_or(0.0), response_bytes.len()),
        "bytes",
    );
    push("eval.lattice_ns", time("eval.lattice", 1e9), "ns");
    push("eval.dense_ns", time("eval.dense", 1e9), "ns");
    push("eval.factored_us", time("eval.factored", 1e6), "us");
    push(
        "serve.lattice_hit_ratio",
        (hits as f64 / (hits + misses).max(1) as f64, (hits + misses) as usize),
        "ratio",
    );
    push("serve.factored_evals", ((ra.factored_evals - rb.factored_evals) as f64, 1), "count");
    push("serve.elimination_width_max", (ra.elimination_width_max as f64, 1), "count");
    push("shard.record_batch_us", time("shard.record_batch", 1e6), "us");
    push("journal.append_us", time("journal.append", 1e6), "us");
    push("journal.record_bytes", size("journal.record_bytes"), "bytes");
    push("shard.encode_us", time("shard.encode", 1e6), "us");
    push("shard.decode_us", time("shard.decode", 1e6), "us");
    push("shard.push_bytes", size("shard.push_bytes"), "bytes");
    push("remote.absorb_us", time("remote.absorb", 1e6), "us");
    push("acquisition.refit_ms", time("acquisition.refit", 1e3), "ms");
    push(
        "acquisition.sweeps",
        ((fa.sweeps - fb.sweeps) as f64 / refits.max(1) as f64, refits as usize),
        "count",
    );
    push("acquisition.constraints", (fa.constraints as f64, 1), "count");
    push(
        "solver.cache_full_hit_ratio",
        ((fa.full_hits - fb.full_hits) as f64 / fits.max(1) as f64, fits as usize),
        "ratio",
    );
    push("lattice.build_ms", time("lattice.build", 1e3), "ms");
    push("snapshot.encode_us", time("snapshot.encode", 1e6), "us");
    push("snapshot.sync_bytes", size("snapshot.sync_bytes"), "bytes");
    push("snapshot.apply_ms", time("snapshot.apply", 1e3), "ms");
    push("checkpoint.save_ms", time("checkpoint.save", 1e3), "ms");
    push("checkpoint.bytes", size("checkpoint.bytes"), "bytes");
    push("serve.engine_queue_depth_max", (samples.queue_depth_max as f64, 1), "count");
    push("serve.shed_writes", ((fa.shed_writes - fb.shed_writes) as f64, 1), "count");
    push(
        "serve.deadline_exceeded",
        ((fa.deadline_exceeded - fb.deadline_exceeded) as f64, 1),
        "count",
    );
    push("hop.ingest_ack_ms", hop(|h| h.ingest_ack), "ms");
    push("hop.push_ms", hop(|h| h.push), "ms");
    push("hop.refit_ms", hop(|h| h.refit), "ms");
    push("hop.sync_ms", hop(|h| h.sync), "ms");
    push("hop.unattributed_ms", hop(|h| h.unattributed), "ms");
    push("hop.freshness_ms", hop(|h| h.freshness), "ms");
    if workload.topology == Topology::Standalone {
        notes.lines.push(
            "  hop.push_ms and hop.sync_ms are 0: a standalone server has no push or sync hop"
                .into(),
        );
    }
    if !not_applicable.is_empty() {
        notes.lines.push(format!(
            "  not measured on this workload (reported as 0): {}",
            not_applicable.join(", ")
        ));
    }
    // The hops sum to each batch's freshness by construction; what they
    // fail to explain shows as the unattributed share.
    let unexplained: Vec<f64> =
        hop_rows.iter().map(|h| h.unattributed.abs() / h.freshness.max(f64::EPSILON)).collect();
    notes.lines.push(format!(
        "  hops: median unattributed share of freshness {:.1}% over {} batches",
        median(&unexplained).unwrap_or(0.0) * 100.0,
        unexplained.len()
    ));
    metrics
}

/// The run's stamp: machine, toolchain, source, seed and process flags.
fn stamp(args: &Args, flags: &[String]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |program: &str, argv: &[&str]| -> String {
        std::process::Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let quote = |s: &str| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""));
    let flags: Vec<String> = flags.iter().map(|f| quote(f)).collect();
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"commit\": {}, \"source_digest\": {}, \"rustc\": {}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"flags\": [{}]}}",
        quote(&cpu),
        quote(&command("git", &["rev-parse", "HEAD"])),
        quote(&source_digest()),
        quote(&command("rustc", &["--version"])),
        quote(args.workload.name),
        args.seed,
        args.seconds,
        flags.join(", ")
    )
}

/// FNV-1a over the workspace sources (`crates/`, the root manifests),
/// identifying the code under test when the checkout is not a git tree.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        for byte in file.to_string_lossy().bytes().chain(std::fs::read(&file).unwrap_or_default()) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("fnv1a:{hash:016x}")
}
