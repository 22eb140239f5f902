//! The benchmark's workloads and the seeded inputs they send.
//!
//! Every input is a function of the workload and `--seed`: the rows (drawn
//! from a fixed ground truth, so the fitted structure — and with it refit
//! cost — does not depend on the seed), the query mix, and the request
//! lines rendered from both.  The processes under test receive only these
//! lines.

use crate::load::Pacing;
use pka_contingency::{Assignment, Schema};
use pka_datagen::sampler::{sample_dataset, seeded_rng};
use pka_datagen::{survey, WideExperiment};
use pka_serve::protocol::{self, object};
use rand::prelude::*;
use serde::Value;
use std::sync::Arc;
use std::time::Duration;

/// Where the rows go and where the answers come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// `pka-fabric`: one ingest node (journalled), a coordinator
    /// (checkpointed, refitting on every absorbed delta) and one replica.
    /// Writes go to the ingest node, reads to the replica.
    Fabric,
    /// One `pka-serve` process takes both writes and reads.
    Standalone,
}

/// Which data the workload streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    /// The 144-cell health survey (`pka_datagen::survey`).
    Survey,
    /// 20 binary attributes (2^20 cells) with planted pairwise structure.
    Wide,
}

/// One workload of the benchmark.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub topology: Topology,
    pub data: Data,
    /// Rows loaded before timing, so the constraint set has settled.
    pub preload_rows: usize,
    /// Stand-ups of the system per run; `setup_s` is their median.
    pub stand_ups: usize,
    /// Rows per timed `ingest` batch.
    pub batch_rows: usize,
    /// Open-loop write schedule: one batch per interval.
    pub write_interval: Duration,
    /// Rows between refits of the fitting process (`--policy every=N`).
    pub refit_rows: usize,
    /// Read schedule.
    pub read_pacing: Pacing,
    /// Entries per `query-batch` request.
    pub batch_queries: usize,
    /// Order-3 entries among them; they miss the order-2 lattice.
    pub order3_entries: usize,
    /// `--max-order` for the acquisition search, when capped.
    pub max_order: Option<usize>,
    /// How long written rows may take to become visible before the run
    /// fails and names the stuck hop.
    pub visibility_timeout: Duration,
}

pub const WIDE_ATTRIBUTES: usize = 20;
/// Seed of the wide ground truth: fixed, so only the sampled rows vary
/// with `--seed`.
const WIDE_TRUTH_SEED: u64 = 0x5eed_0020;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "survey_fabric",
            topology: Topology::Fabric,
            data: Data::Survey,
            preload_rows: 20_000,
            stand_ups: 7,
            batch_rows: 64,
            write_interval: Duration::from_millis(100),
            refit_rows: 1,
            read_pacing: Pacing::Open { interval: Duration::from_millis(2), max_in_flight: 64 },
            batch_queries: 64,
            order3_entries: 8,
            max_order: None,
            visibility_timeout: Duration::from_secs(20),
        },
        Workload {
            name: "survey_reads",
            topology: Topology::Standalone,
            data: Data::Survey,
            preload_rows: 20_000,
            stand_ups: 7,
            batch_rows: 64,
            write_interval: Duration::from_millis(100),
            refit_rows: 640,
            read_pacing: Pacing::Closed { in_flight: 1 },
            batch_queries: 64,
            order3_entries: 8,
            max_order: None,
            visibility_timeout: Duration::from_secs(20),
        },
        Workload {
            name: "wide_serve",
            topology: Topology::Standalone,
            data: Data::Wide,
            preload_rows: 16_384,
            stand_ups: 3,
            batch_rows: 256,
            write_interval: Duration::from_millis(2000),
            refit_rows: 256,
            read_pacing: Pacing::Open { interval: Duration::from_millis(2), max_in_flight: 64 },
            batch_queries: 8,
            order3_entries: 2,
            max_order: Some(2),
            visibility_timeout: Duration::from_secs(60),
        },
    ]
}

pub fn find(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

/// One `query-batch` entry as indices: `(target, evidence)`.
pub type Probe = (Vec<(usize, usize)>, Vec<(usize, usize)>);

/// Everything a run sends, generated up front from the seed.
pub struct Inputs {
    pub schema: Arc<Schema>,
    /// `--schema` / `--cards` flags describing `schema` to the binaries.
    pub schema_flags: Vec<String>,
    pub preload: Vec<Vec<usize>>,
    /// Timed write batches, in schedule order.
    pub batches: Vec<Vec<Vec<usize>>>,
    /// Rendered `ingest` lines, one per batch.
    pub write_lines: Vec<String>,
    /// The query mix of each rendered read line.
    pub read_mix: Vec<Vec<Probe>>,
    /// Rendered `query-batch` lines, reused round-robin.
    pub read_lines: Vec<String>,
}

/// Distinct read lines per run (reused round-robin).
const READ_LINES: usize = 256;

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64, seconds: u64) -> Self {
        let batch_count = (Duration::from_secs(seconds).as_nanos()
            / workload.write_interval.as_nanos()) as usize
            + 1;
        let total_rows = workload.preload_rows + batch_count * workload.batch_rows;
        let mut rng = seeded_rng(seed);
        let (schema, rows, schema_flags) = match workload.data {
            Data::Survey => {
                let truth = survey::ground_truth();
                let rows = sample_dataset(&truth, total_rows as u64, &mut rng);
                let schema = survey::schema();
                let flags = vec!["--schema".to_string(), schema_spec(&schema)];
                (schema, rows, flags)
            }
            Data::Wide => {
                let truth = WideExperiment::generate(
                    WIDE_ATTRIBUTES,
                    2,
                    5,
                    6.0,
                    &mut seeded_rng(WIDE_TRUTH_SEED),
                );
                let rows = truth.sample_dataset(total_rows as u64, &mut rng);
                let cards = vec!["2"; WIDE_ATTRIBUTES].join(",");
                (Arc::clone(truth.schema()), rows, vec!["--cards".to_string(), cards])
            }
        };
        let mut rows: Vec<Vec<usize>> = rows.iter().map(|s| s.values().to_vec()).collect();
        let timed = rows.split_off(workload.preload_rows);
        let batches: Vec<Vec<Vec<usize>>> =
            timed.chunks(workload.batch_rows).map(<[Vec<usize>]>::to_vec).collect();
        let write_lines =
            batches.iter().enumerate().map(|(i, b)| ingest_line(i as u64 + 1, b)).collect();
        let read_mix: Vec<Vec<Probe>> = (0..READ_LINES)
            .map(|_| query_mix(&schema, workload.batch_queries, workload.order3_entries, &mut rng))
            .collect();
        let read_lines = read_mix
            .iter()
            .enumerate()
            .map(|(i, mix)| query_batch_line(i as u64 + 1, &schema, mix))
            .collect();
        Self { schema, schema_flags, preload: rows, batches, write_lines, read_mix, read_lines }
    }

    /// The preload plus every timed batch flagged in `acked`.
    pub fn rows_through(&self, acked: &[bool]) -> Vec<&[usize]> {
        let mut rows: Vec<&[usize]> = self.preload.iter().map(Vec::as_slice).collect();
        for (batch, &ok) in self.batches.iter().zip(acked) {
            if ok {
                rows.extend(batch.iter().map(Vec::as_slice));
            }
        }
        rows
    }
}

/// `name=v1|v2;…` for `--schema`.
fn schema_spec(schema: &Schema) -> String {
    schema
        .attributes()
        .iter()
        .map(|a| format!("{}={}", a.name(), a.values().join("|")))
        .collect::<Vec<_>>()
        .join(";")
}

/// `batch_queries` entries: `order3_entries` of them order 3 (one target,
/// two evidence attributes), the rest split between marginals and order-2
/// conditionals — both answered by the default order-2 lattice.
fn query_mix(
    schema: &Schema,
    batch_queries: usize,
    order3_entries: usize,
    rng: &mut StdRng,
) -> Vec<Probe> {
    let attrs = schema.len();
    let pick = |count: usize, rng: &mut StdRng| -> Vec<(usize, usize)> {
        let mut chosen: Vec<usize> = Vec::with_capacity(count);
        while chosen.len() < count {
            let a = rng.random_range(0..attrs);
            if !chosen.contains(&a) {
                chosen.push(a);
            }
        }
        chosen.into_iter().map(|a| (a, rng.random_range(0..schema.cardinalities()[a]))).collect()
    };
    (0..batch_queries)
        .map(|i| {
            let order = if i < order3_entries {
                3
            } else if i % 2 == 0 {
                1
            } else {
                2
            };
            let mut vars = pick(order, rng);
            let target = vec![vars.remove(0)];
            (target, vars)
        })
        .collect()
}

fn pairs_value(schema: &Schema, pairs: &[(usize, usize)]) -> Value {
    Value::Object(
        pairs
            .iter()
            .map(|&(a, v)| {
                let attribute = schema.attribute(a).expect("probe attribute in schema");
                let value = attribute.value_name(v).expect("probe value in schema");
                (attribute.name().to_string(), Value::Str(value.to_string()))
            })
            .collect(),
    )
}

/// A rendered `query-batch` request line (with its newline).
pub fn query_batch_line(id: u64, schema: &Schema, probes: &[Probe]) -> String {
    let entries = probes
        .iter()
        .map(|(t, e)| {
            object([("target", pairs_value(schema, t)), ("evidence", pairs_value(schema, e))])
        })
        .collect();
    let mut line =
        protocol::request_line(id, "query-batch", &object([("queries", Value::Array(entries))]));
    line.push('\n');
    line
}

/// A rendered `ingest` request line (with its newline).
pub fn ingest_line(id: u64, rows: &[Vec<usize>]) -> String {
    let rows = Value::Array(
        rows.iter()
            .map(|row| Value::Array(row.iter().map(|&v| Value::U64(v as u64)).collect()))
            .collect(),
    );
    let mut line = protocol::request_line(id, "ingest", &object([("rows", rows)]));
    line.push('\n');
    line
}

/// The assignment pair of a probe: `(target, evidence)`.
pub fn assignments(probe: &Probe) -> (Assignment, Assignment) {
    (
        Assignment::from_pairs(probe.0.iter().copied()),
        Assignment::from_pairs(probe.1.iter().copied()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Refits are triggered by row counts alone, so the rows a run writes
    /// in any whole number of seconds must end on a refit, or its last
    /// batches never become visible and the run fails.
    #[test]
    fn writes_of_every_whole_second_end_on_a_refit() {
        for w in all() {
            for seconds in 1..=60u64 {
                let span = Duration::from_secs(seconds).as_nanos();
                let batches = span.div_ceil(w.write_interval.as_nanos()) as usize;
                assert_eq!((batches * w.batch_rows) % w.refit_rows, 0, "{} at {seconds} s", w.name);
            }
        }
    }
}
