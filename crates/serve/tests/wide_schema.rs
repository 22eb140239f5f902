//! Wide-schema acceptance: a 20-binary-attribute schema — a 2^20-cell
//! joint, three orders of magnitude past anything the dense path ever
//! served — is acquired, published and served end-to-end without ever
//! allocating the dense joint:
//!
//! * the snapshot publishes with no `JointDistribution` (the server's
//!   `dense_evals` counter stays at zero while `factored_evals` grows —
//!   the structural proof that there is no dense joint to walk),
//! * every served answer matches factored ground truth (a one-shot
//!   acquisition over the same data, evaluated by variable elimination)
//!   to within 1e-9,
//! * lattice hits still serve covered marginals, so the wait-free read
//!   path is intact.

use pka_contingency::Assignment;
use pka_core::{Acquisition, AcquisitionConfig};
use pka_datagen::{sampler::seeded_rng, WideExperiment};
use pka_maxent::ConvergenceCriteria;
use pka_serve::{LineClient, ServeConfig, Server};
use pka_stream::{RefreshPolicy, StreamConfig};
use std::sync::Arc;

const ATTRIBUTES: usize = 20;
const SAMPLES: u64 = 300;

/// Acquisition settings for a wide schema: pairwise search only (order-2
/// candidates are already 190 varsets), a small promotion budget so the
/// test stays fast, and a solver tight enough that "same fixed point" is
/// observable at the 1e-9 level.
fn wide_config() -> AcquisitionConfig {
    AcquisitionConfig::new().with_max_order(2).with_max_constraints_per_order(2).with_convergence(
        ConvergenceCriteria::new().with_tolerance(1e-13).with_max_iterations(5000),
    )
}

#[test]
fn twenty_attribute_schema_is_served_without_a_dense_joint() {
    let experiment = WideExperiment::generate(ATTRIBUTES, 2, 5, 6.0, &mut seeded_rng(42));
    let dataset = experiment.sample_dataset(SAMPLES, &mut seeded_rng(43));
    let schema = dataset.shared_schema();
    assert_eq!(schema.cell_count(), 1 << 20, "this test is about the dense ceiling");

    let config = ServeConfig::new().with_stream(
        StreamConfig::new().with_policy(RefreshPolicy::Manual).with_acquisition(wide_config()),
    );
    let server = Server::start(Arc::clone(&schema), config).unwrap();
    let mut client = LineClient::connect(server.addr()).unwrap();

    let rows: Vec<Vec<usize>> = dataset.iter().map(|s| s.values().to_vec()).collect();
    let summary = client.ingest(&rows).unwrap();
    assert_eq!(summary.accepted, SAMPLES);
    let refit = client.refresh().unwrap();
    assert_eq!(refit.observations, SAMPLES);

    // Factored ground truth: the same deterministic acquisition run
    // locally, with no lattice, evaluated by variable elimination (2^20
    // cells is past the default dense ceiling, so the ground truth itself
    // never goes dense either).
    let truth = Acquisition::new(wide_config()).run(&dataset.to_table()).unwrap().knowledge_base;
    assert!(truth.lattice().is_none() && truth.evaluator().graph().is_some());

    // Covered questions (order ≤ 2, lattice hits) and uncovered ones
    // (order 3, lattice misses that must route through the factored
    // fallback) across the whole attribute range.
    let name = |attr: usize| format!("attr{attr}");
    for (target_attrs, evidence_attrs) in [
        (vec![0usize], vec![]),
        (vec![7], vec![19]),
        (vec![3, 11], vec![]),
        (vec![0, 1], vec![2]),
        (vec![4, 9], vec![18]),
        (vec![5, 10, 15], vec![]),
        (vec![17, 18, 19], vec![0]),
    ] {
        let target_names: Vec<(String, &str)> =
            target_attrs.iter().map(|&a| (name(a), "v1")).collect();
        let evidence_names: Vec<(String, &str)> =
            evidence_attrs.iter().map(|&a| (name(a), "v0")).collect();
        let target_refs: Vec<(&str, &str)> =
            target_names.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let evidence_refs: Vec<(&str, &str)> =
            evidence_names.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let served = client.query(&target_refs, &evidence_refs).unwrap();

        let target = Assignment::from_pairs(target_attrs.iter().map(|&a| (a, 1)));
        let evidence = Assignment::from_pairs(evidence_attrs.iter().map(|&a| (a, 0)));
        let expected = truth.conditional(&target, &evidence).unwrap();
        assert!(
            (served.probability - expected).abs() < 1e-9,
            "P({target_attrs:?} | {evidence_attrs:?}): served {} vs factored ground truth \
             {expected}",
            served.probability
        );
        assert_eq!(served.observations, SAMPLES);
    }

    // The structural proof: misses happened, every one of them was
    // answered by elimination, and not a single dense-joint walk occurred
    // — because the snapshot never built one.
    let stats = client.server_stats().unwrap();
    assert!(stats.lattice_hits > 0, "order ≤ 2 queries should hit the lattice: {stats:?}");
    assert!(stats.lattice_misses > 0, "order-3 queries should miss the lattice: {stats:?}");
    assert!(stats.factored_evals > 0, "misses must route through elimination: {stats:?}");
    assert_eq!(stats.dense_evals, 0, "no dense joint may exist on a wide snapshot: {stats:?}");
    assert!(
        (1..ATTRIBUTES as u64).contains(&stats.elimination_width_max),
        "induced width should be visible and small on a pairwise model: {stats:?}"
    );

    drop(client);
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.total_ingested(), SAMPLES);
}
