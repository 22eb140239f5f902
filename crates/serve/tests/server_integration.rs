//! End-to-end acceptance test: boot a server, ingest the memo's survey in
//! 3 rounds from 4 concurrent writer clients while 8 reader clients query
//! continuously, and check that
//!
//! * the final served probabilities match a one-shot acquisition over the
//!   same data to within 1e-9,
//! * no reader ever observes a torn snapshot (every answer is internally
//!   consistent) or a version regression,
//! * the server shuts down without leaking threads (the test would hang
//!   otherwise).

use pka_core::{Acquisition, AcquisitionConfig};
use pka_maxent::ConvergenceCriteria;
use pka_serve::{LineClient, ServeConfig, ServeError, Server};
use pka_stream::{RefreshPolicy, StreamConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

const WRITERS: usize = 4;
const ROUNDS: usize = 3;
const READERS: usize = 8;

/// Solver settings tight enough that "same fixed point" is observable at
/// the 1e-9 level (mirrors `tests/streaming_equivalence.rs`).
fn tight_config() -> AcquisitionConfig {
    AcquisitionConfig::new().with_convergence(
        ConvergenceCriteria::new().with_tolerance(1e-13).with_max_iterations(5000),
    )
}

#[test]
fn concurrent_ingest_and_queries_match_one_shot_acquisition() {
    let full = pka_datagen::smoking::dataset();
    let full_table = pka_datagen::smoking::table();
    let schema = full.shared_schema();

    // Deal the survey round-robin into WRITERS × ROUNDS representative
    // slices, exactly one slice per (writer, round).
    let mut slices: Vec<Vec<Vec<usize>>> = vec![Vec::new(); WRITERS * ROUNDS];
    for (i, sample) in full.iter().enumerate() {
        slices[i % (WRITERS * ROUNDS)].push(sample.values().to_vec());
    }

    let config = ServeConfig::new().with_stream(
        StreamConfig::new().with_policy(RefreshPolicy::Manual).with_acquisition(tight_config()),
    );
    let server = Server::start(Arc::clone(&schema), config).unwrap();
    let addr = server.addr();

    let done = Arc::new(AtomicBool::new(false));

    // 8 reader clients query continuously from the start (tolerating
    // `no-snapshot` until the first refresh lands).
    let readers: Vec<_> = (0..READERS)
        .map(|reader| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).expect("reader connect");
                let mut last_version = 0u64;
                let mut answered = 0u64;
                while !done.load(Ordering::Acquire) {
                    let target = [("cancer", "yes")];
                    let evidence =
                        if reader % 2 == 0 { vec![("smoking", "smoker")] } else { Vec::new() };
                    match client.query(&target, &evidence) {
                        Ok(answer) => {
                            // Never torn: the answer is one snapshot's
                            // arithmetic, so Bayes' identity holds exactly.
                            let reconstructed = answer.probability * answer.evidence_probability;
                            assert!(
                                (reconstructed - answer.joint_probability).abs() < 1e-12,
                                "torn answer: {answer:?}"
                            );
                            assert!(answer.probability.is_finite());
                            // Never stale beyond monotonicity: versions only
                            // move forward for any single reader.
                            assert!(
                                answer.snapshot_version >= last_version,
                                "version regressed {last_version} -> {}",
                                answer.snapshot_version
                            );
                            last_version = answer.snapshot_version;
                            answered += 1;
                        }
                        Err(ServeError::Remote { code, .. }) if code == "no-snapshot" => {}
                        Err(e) => panic!("reader query failed: {e}"),
                    }
                }
                (answered, last_version)
            })
        })
        .collect();

    // 4 writer clients ingest their slice each round; a barrier aligns the
    // rounds and writer 0 triggers the refit, so the stream goes through
    // one cold fit and ≥ 2 warm refits while the readers hammer away.
    let barrier = Arc::new(Barrier::new(WRITERS));
    let writers: Vec<_> = (0..WRITERS)
        .map(|writer| {
            let barrier = Arc::clone(&barrier);
            let slices: Vec<Vec<Vec<usize>>> =
                (0..ROUNDS).map(|round| slices[round * WRITERS + writer].clone()).collect();
            std::thread::spawn(move || {
                let mut client = LineClient::connect(addr).expect("writer connect");
                let mut warm_refits = 0u32;
                for slice in slices {
                    let summary = client.ingest(&slice).expect("ingest");
                    assert_eq!(summary.accepted, slice.len() as u64);
                    barrier.wait();
                    if writer == 0 {
                        let refit = client.refresh().expect("refresh");
                        if refit.warm_started {
                            warm_refits += 1;
                        }
                    }
                    barrier.wait();
                }
                warm_refits
            })
        })
        .collect();

    let warm_refits: u32 = writers.into_iter().map(|w| w.join().expect("writer panicked")).sum();
    assert!(warm_refits >= 2, "expected ≥ 2 warm refits, got {warm_refits}");
    done.store(true, Ordering::Release);
    let mut total_answered = 0;
    for reader in readers {
        let (answered, version) = reader.join().expect("reader panicked");
        total_answered += answered;
        assert!(version <= ROUNDS as u64);
    }
    assert!(total_answered > 0, "no reader ever got an answer");

    // One-shot acquisition over the same data, same configuration.
    let one_shot = Acquisition::new(tight_config()).run(&full_table).unwrap();
    let one_shot_kb = &one_shot.knowledge_base;

    let mut client = LineClient::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.total_ingested, full_table.total(), "server missed tuples");
    assert_eq!(stats.refits, ROUNDS as u64);
    assert!(
        stats.cache_full_hits > 0,
        "warm refits should have reused the incidence cache: {stats:?}"
    );
    assert!(stats.solver_sweeps > 0, "refits must surface their sweep counts: {stats:?}");

    // Every joint cell, queried over the wire, matches one-shot within
    // 1e-9 (floats survive the wire bit-for-bit, so the tolerance is the
    // modelling one, not a serialisation one).
    for cell in 0..schema.cell_count() {
        let values = schema.cell_values(cell);
        let target: Vec<(&str, &str)> = values
            .iter()
            .enumerate()
            .map(|(attr, &v)| {
                let a = schema.attribute(attr).unwrap();
                (a.name(), a.value_name(v).unwrap())
            })
            .collect();
        let served = client.query(&target, &[]).unwrap();
        let expected = one_shot_kb.joint().probabilities()[cell];
        assert!(
            (served.probability - expected).abs() < 1e-9,
            "cell {values:?}: served {} vs one-shot {expected}",
            served.probability
        );
        assert_eq!(served.snapshot_version, ROUNDS as u64);
        assert_eq!(served.observations, full_table.total());
    }

    // The memo's flagship conditionals agree too.
    for (target, evidence) in [
        (("cancer", "yes"), ("smoking", "smoker")),
        (("cancer", "yes"), ("smoking", "non-smoker")),
        (("family-history", "yes"), ("smoking", "smoker")),
    ] {
        let served = client.query(&[target], &[evidence]).unwrap();
        let expected = one_shot_kb.conditional_by_names(&[target], &[evidence]).unwrap();
        assert!(
            (served.probability - expected).abs() < 1e-9,
            "P({target:?} | {evidence:?}): served {} vs one-shot {expected}",
            served.probability
        );
    }

    // The same questions asked through one `query-batch` line agree with
    // their single-query answers bit-for-bit: both paths evaluate the same
    // snapshot through the same lattice lookups.
    let batch_queries: &[pka_serve::NamedQuery] = &[
        (&[("cancer", "yes")], &[("smoking", "smoker")]),
        (&[("cancer", "yes")], &[("smoking", "non-smoker")]),
        (&[("family-history", "yes")], &[("smoking", "smoker")]),
        (&[("cancer", "yes")], &[]),
    ];
    let answers = client.query_batch(batch_queries).unwrap();
    assert_eq!(answers.len(), batch_queries.len());
    for (&(target, evidence), answer) in batch_queries.iter().zip(&answers) {
        let batched = answer.as_ref().expect("batch entry answered");
        let single = client.query(target, evidence).unwrap();
        assert_eq!(batched.probability, single.probability, "batch and single paths diverged");
        assert_eq!(batched.snapshot_version, single.snapshot_version);
        assert_eq!(batched.observations, single.observations);
    }

    // The read path really is the lattice: every order-≤2 question above
    // was a table lookup, while the full-joint-cell sweep (order 3, above
    // the default cutoff) exercised the stride-walk fallback.
    let server_stats = client.server_stats().unwrap();
    assert!(server_stats.lattice_hits > 0, "no query hit the lattice: {server_stats:?}");
    assert!(
        server_stats.lattice_misses > 0,
        "full-cell queries should have fallen back to the stride walk: {server_stats:?}"
    );

    // An explanation over the served knowledge base is coherent.
    let explanation = client
        .explain(&[("cancer", "yes")], &[("smoking", "smoker"), ("family-history", "yes")])
        .unwrap();
    let posterior = explanation.get("posterior").and_then(|v| v.as_f64()).unwrap();
    let prior = explanation.get("prior").and_then(|v| v.as_f64()).unwrap();
    assert!(posterior > prior, "smoking evidence must raise the cancer belief");

    // Clean shutdown: joins every connection, accept and engine thread —
    // if any leaked, this would hang (the driver's timeout catches it) —
    // and hands back the engine with all the data.
    drop(client);
    let engine = server.shutdown().unwrap();
    assert_eq!(engine.total_ingested(), full_table.total());
}

/// `explain` resolves its marginals through the same counted path as
/// `query`: on a dense survey snapshot an order-3 marginal misses the
/// default order-2 lattice, takes the dense walk, shows up in
/// `lattice_misses`/`dense_evals`, and the explained posterior is the
/// queried probability bit for bit.
#[test]
fn explain_takes_the_query_path_and_is_counted() {
    let full = pka_datagen::smoking::dataset();
    let config =
        ServeConfig::new().with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual));
    let server = Server::start(full.shared_schema(), config).unwrap();
    let mut client = LineClient::connect(server.addr()).unwrap();
    let rows: Vec<Vec<usize>> = full.iter().map(|s| s.values().to_vec()).collect();
    client.ingest(&rows).unwrap();
    client.refresh().unwrap();

    let smoker = ("smoking", "smoker");
    let cases: [pka_serve::NamedQuery; 2] = [
        (&[smoker, ("cancer", "yes"), ("family-history", "yes")], &[]),
        (&[smoker, ("cancer", "yes")], &[("family-history", "no")]),
    ];
    for (target, evidence) in cases {
        let before = client.server_stats().unwrap();
        let explained = client.explain(target, evidence).unwrap();
        let after = client.server_stats().unwrap();
        assert!(after.lattice_misses > before.lattice_misses, "{before:?} -> {after:?}");
        assert!(after.dense_evals > before.dense_evals, "{before:?} -> {after:?}");
        assert_eq!(after.factored_evals, 0);
        assert_eq!(after.lattice_misses, after.dense_evals + after.factored_evals);

        let queried = client.query(target, evidence).unwrap();
        let posterior = explained.get("posterior").and_then(|v| v.as_f64()).unwrap();
        assert_eq!(posterior.to_bits(), queried.probability.to_bits(), "{target:?} | {evidence:?}");
    }
    drop(client);
    server.shutdown().unwrap();
}
