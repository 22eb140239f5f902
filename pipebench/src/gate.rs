//! The correctness gate every run passes before it reports a number.
//!
//! After the timed phase:
//!
//! 1. **Counts.**  Every hop — ingest endpoint, coordinator, the snapshot
//!    the read endpoint answers from — must count exactly the
//!    acknowledged rows: none lost, none double-counted.
//! 2. **First-order answers.**  Every `P(attribute = value)` the read
//!    endpoint serves must equal a one-shot [`Acquisition`] over exactly
//!    the acknowledged rows, to within [`TOLERANCE`].  One lost or
//!    duplicated row moves some marginal by about `1/rows`, far above it.
//! 3. **Every answer.**  The full probe set — marginals, order-2
//!    conditionals and an order-3 conditional — must equal a one-shot
//!    acquisition over the same rows that is given the served snapshot's
//!    constraint cells as prior knowledge, to within [`TOLERANCE`].
//!
//! Step 3 takes the structure from the served snapshot because a
//! streaming engine warm-starts each refit from its previous constraint
//! set: on some seeds the stream keeps a cell that a cold acquisition over
//! the final table does not select (or the reverse), so the two structures
//! can differ while both fits are right for their own structure.  The run
//! reports when that happens.

use crate::system::System;
use crate::workload::{assignments, query_batch_line, Data, Inputs, Probe, Topology, Workload};
use pka_contingency::{Assignment, ContingencyTable, Schema};
use pka_core::{Acquisition, AcquisitionConfig, KnowledgeBase};
use pka_maxent::FactorGraph;
use serde::Value;
use std::sync::Arc;

/// Largest tolerated gap between a served answer and the one-shot answer.
pub const TOLERANCE: f64 = 1e-9;

pub struct GateReport {
    pub rows: u64,
    pub probes: usize,
    pub max_gap: f64,
    /// Higher-order cells the served snapshot and a cold one-shot
    /// acquisition disagree on (served only, one-shot only).
    pub structure_diff: (usize, usize),
}

/// The fixed probe set of a schema: every first-order marginal, a chain
/// of order-2 conditionals over neighbouring attributes, and one order-3
/// conditional.
pub fn probes(schema: &Schema) -> Vec<Probe> {
    let cards = schema.cardinalities();
    let mut probes: Vec<Probe> = Vec::new();
    for (a, &card) in cards.iter().enumerate() {
        for v in 0..card {
            probes.push((vec![(a, v)], vec![]));
        }
    }
    for a in 0..cards.len() - 1 {
        probes.push((vec![(a, 0)], vec![(a + 1, 0)]));
    }
    if cards.len() >= 3 {
        probes.push((vec![(0, 0)], vec![(1, 0), (2, 0)]));
    }
    probes
}

/// The acquisition configuration the servers run with.
fn config(workload: &Workload) -> AcquisitionConfig {
    let config = AcquisitionConfig::new();
    match workload.max_order {
        Some(order) => config.with_max_order(order),
        None => config,
    }
}

/// A one-shot acquisition over `table`, seeded with `priors`.
fn one_shot(
    workload: &Workload,
    table: &ContingencyTable,
    priors: &[Assignment],
) -> Result<KnowledgeBase, String> {
    let mut kb = Acquisition::new(config(workload))
        .run_with_prior(table, priors)
        .map_err(|e| format!("one-shot acquisition: {e}"))?
        .knowledge_base;
    if workload.data == Data::Wide {
        // Above the dense ceiling: evaluate by elimination, as the server does.
        let graph = Arc::new(FactorGraph::from_model(kb.model()));
        kb.attach_factor_graph(graph).map_err(|e| e.to_string())?;
    }
    Ok(kb)
}

/// Runs the gate against a settled system.
pub fn check(
    system: &System,
    workload: &Workload,
    inputs: &Inputs,
    acked: &[bool],
) -> Result<GateReport, String> {
    let rows = inputs.rows_through(acked);
    let expected_rows = rows.len() as u64;

    // 1. Counts, hop by hop: exact.
    let mut counts = vec![(system.procs[0].label.clone(), engine_total(system.write_addr())?)];
    if system.topology == Topology::Fabric {
        counts.push(("coordinator".into(), engine_total(system.fit_addr())?));
    }
    let mut reader = System::client(system.read_addr())?;
    let (meta, served) = reader
        .snapshot_pull()
        .map_err(|e| format!("gate snapshot-pull: {e}"))?
        .ok_or("gate: the read endpoint has no snapshot")?;
    counts.push(("read endpoint snapshot".into(), meta.observations));
    for (label, count) in &counts {
        if *count != expected_rows {
            return Err(format!(
                "gate: {label} counts {count} rows, {expected_rows} were acknowledged"
            ));
        }
    }

    // 2 and 3. Answers against one-shot acquisitions over the same rows.
    let mut table = ContingencyTable::zeros(Arc::clone(&inputs.schema));
    for row in &rows {
        table.increment(row).map_err(|e| format!("one-shot table: {e}"))?;
    }
    let cold = one_shot(workload, &table, &[])?;
    let served_cells = served.constraints().higher_order_assignments();
    let seeded = one_shot(workload, &table, &served_cells)?;
    let cold_cells = cold.constraints().higher_order_assignments();
    let structure_diff = (
        served_cells.iter().filter(|c| !cold_cells.contains(c)).count(),
        cold_cells.iter().filter(|c| !served_cells.contains(c)).count(),
    );

    let probe_set = probes(&inputs.schema);
    let line = query_batch_line(1, &inputs.schema, &probe_set);
    let answer = reader.call_raw(line.trim_end()).map_err(|e| format!("gate probe: {e}"))?;
    let result = answer.get("result").ok_or_else(|| format!("gate probe refused: {answer:?}"))?;
    let served_rows = result.get("observations").and_then(Value::as_u64).unwrap_or(0);
    if served_rows != expected_rows {
        return Err(format!(
            "gate: read endpoint answers from {served_rows} rows, {expected_rows} were acknowledged"
        ));
    }
    let Some(Value::Array(entries)) = result.get("results") else {
        return Err("gate: probe answer has no results".into());
    };
    let mut max_gap = 0.0f64;
    for (probe, entry) in probe_set.iter().zip(entries) {
        let served = match entry {
            Value::Array(fields) => fields.first().and_then(Value::as_f64),
            _ => None,
        }
        .ok_or_else(|| format!("gate: probe {probe:?} was not answered: {entry:?}"))?;
        let (target, evidence) = assignments(probe);
        let mut references = vec![("seeded one-shot", &seeded)];
        if evidence.order() == 0 && target.order() == 1 {
            references.push(("one-shot", &cold));
        }
        for (what, kb) in references {
            let expected =
                kb.conditional(&target, &evidence).map_err(|e| format!("gate {what}: {e}"))?;
            let gap = (served - expected).abs();
            if gap.is_nan() || gap > TOLERANCE {
                return Err(format!(
                    "gate: P({}) served {served:.12}, {what} {expected:.12} (gap {gap:.2e} > {TOLERANCE:.0e})",
                    describe(&inputs.schema, probe)
                ));
            }
            max_gap = max_gap.max(gap);
        }
    }
    Ok(GateReport { rows: expected_rows, probes: probe_set.len(), max_gap, structure_diff })
}

fn engine_total(addr: std::net::SocketAddr) -> Result<u64, String> {
    Ok(crate::system::count(&System::stats(addr)?, &["engine", "total_ingested"]))
}

fn describe(schema: &Schema, probe: &Probe) -> String {
    let (target, evidence) = assignments(probe);
    if evidence.order() == 0 {
        target.describe(schema)
    } else {
        format!("{} | {}", target.describe(schema), evidence.describe(schema))
    }
}
