//! Every evaluation path agrees with every other.
//!
//! For random tables over 3 and 4 attributes the acquired knowledge base
//! is evaluated three ways — published on a default-ceiling (dense)
//! snapshot, on a ceiling-0 (factored) snapshot, and bare, with no lattice
//! — and checked against the dense joint of its model:
//!
//! * every assignment of order 0–3 agrees to 1e-9 on every path;
//! * random `(target, evidence)` questions agree to 1e-9, and an
//!   incompatible pair or zero-probability evidence fails with the same
//!   error kind on every path;
//! * a live query server answering from each snapshot returns exactly the
//!   snapshot knowledge base's own numbers, bit for bit.

use pka::contingency::{Assignment, ContingencyTable, Schema, VarSet};
use pka::core::{bayes, Acquisition, AcquisitionConfig, CoreError, KnowledgeBase};
use pka::maxent::{JointDistribution, MaxEntError, DEFAULT_LATTICE_ORDER};
use pka::serve::{LineClient, ServeConfig, ServeError, Server};
use pka::stream::{RefreshPolicy, Snapshot, StreamConfig};
use proptest::prelude::*;
use std::sync::Arc;

const TOL: f64 = 1e-9;
const SHAPES: [&[usize]; 4] = [&[3, 2, 2], &[2, 2, 3], &[3, 2, 2, 2], &[2, 3, 2, 2]];

/// The outcome of one conditional question, reduced to what must agree
/// across paths: the value, or the kind of refusal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Answer(f64),
    Incompatible,
    ZeroEvidence,
}

fn outcome(result: Result<f64, CoreError>) -> Outcome {
    match result {
        Ok(p) => Outcome::Answer(p),
        Err(CoreError::InvalidInput { .. }) => Outcome::Incompatible,
        Err(CoreError::MaxEnt(MaxEntError::ZeroProbabilityEvidence { .. })) => {
            Outcome::ZeroEvidence
        }
        Err(other) => panic!("unexpected error kind: {other}"),
    }
}

fn agree(a: Outcome, b: Outcome) -> bool {
    match (a, b) {
        (Outcome::Answer(x), Outcome::Answer(y)) => (x - y).abs() <= TOL,
        _ => a == b,
    }
}

/// Attribute/value names of an assignment on a uniform schema.
fn names(a: &Assignment) -> Vec<(String, String)> {
    a.pairs().map(|(attr, v)| (format!("attr{attr}"), format!("v{v}"))).collect()
}

fn refs(names: &[(String, String)]) -> Vec<(&str, &str)> {
    names.iter().map(|(a, v)| (a.as_str(), v.as_str())).collect()
}

/// Asks `server` every question and checks each answer is the snapshot
/// knowledge base's own arithmetic, bit for bit.
fn server_matches(
    client: &mut LineClient,
    kb: &KnowledgeBase,
    questions: &[(Assignment, Assignment)],
) {
    let named: Vec<_> = questions.iter().map(|(t, e)| (names(t), names(e))).collect();
    let borrowed: Vec<_> = named.iter().map(|(t, e)| (refs(t), refs(e))).collect();
    let batch: Vec<_> = borrowed.iter().map(|(t, e)| (t.as_slice(), e.as_slice())).collect();
    let answers = client.query_batch(&batch).unwrap();
    for ((target, evidence), served) in questions.iter().zip(answers) {
        match (kb.conditional(target, evidence), served) {
            (Ok(p), Ok(served)) => {
                let merged = target.merge(evidence).unwrap();
                prop_assert_eq!(served.probability.to_bits(), p.to_bits());
                prop_assert_eq!(
                    served.joint_probability.to_bits(),
                    kb.probability(&merged).to_bits()
                );
                prop_assert_eq!(
                    served.prior_probability.to_bits(),
                    kb.probability(target).to_bits()
                );
            }
            (Err(_), Err(ServeError::Remote { code, .. })) => {
                prop_assert_eq!(code.as_str(), "query-error")
            }
            (local, served) => {
                panic!("{target:?} | {evidence:?}: {local:?} vs {served:?}")
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_evaluation_path_agrees(
        shape in 0usize..SHAPES.len(),
        counts in proptest::collection::vec(1u64..40, 24),
        empty_value in any::<bool>(),
        questions in proptest::collection::vec(
            (any::<u32>(), 0usize..24, any::<u32>(), 0usize..24),
            16,
        ),
    ) {
        let schema = Schema::uniform(SHAPES[shape]).unwrap().into_shared();
        let n = schema.cell_count();
        // Optionally empty the last value of attribute 0, so evidence on
        // it has probability exactly zero under the fitted model.
        let zero_value = schema.cardinality(0).unwrap() - 1;
        let emptied = |i: usize| empty_value && schema.cell_values(i)[0] == zero_value;
        let counts: Vec<u64> = (0..n).map(|i| if emptied(i) { 0 } else { counts[i] }).collect();
        let table = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
        let kb = Acquisition::new(AcquisitionConfig::new().with_max_order(2))
            .run(&table)
            .unwrap()
            .knowledge_base;
        let truth: JointDistribution = kb.model().to_joint();

        let dense = Snapshot::new(kb.clone(), 1, table.total(), false);
        let factored = Snapshot::with_lattice_order_and_ceiling(
            kb.clone(), 2, table.total(), false, DEFAULT_LATTICE_ORDER, 0,
        );
        prop_assert!(dense.joint().is_some() && factored.joint().is_none());
        prop_assert!(kb.lattice().is_none());
        let paths = [dense.knowledge_base(), factored.knowledge_base(), &kb];

        // Every marginal of order 0–3.
        for order in 0..=3 {
            for vars in schema.all_vars().subsets_of_size(order) {
                for values in schema.configurations(vars) {
                    let a = Assignment::new(vars, values);
                    let expected = truth.probability(&a);
                    for (i, path) in paths.iter().enumerate() {
                        let p = path.probability(&a);
                        prop_assert!(
                            (p - expected).abs() <= TOL,
                            "path {i}, {a:?}: {p} vs {expected}"
                        );
                    }
                }
            }
        }

        // Random questions, plus a guaranteed incompatible pair and (when
        // attribute 0 lost a value) zero-probability evidence.
        let mut asked: Vec<(Assignment, Assignment)> = questions
            .iter()
            .map(|&(t_mask, t_cell, e_mask, e_cell)| {
                let pick = |mask: u32, cell: usize| {
                    let vars = VarSet::from_bits(mask).intersection(schema.all_vars());
                    Assignment::project(vars, &schema.cell_values(cell % n))
                };
                let target = pick(t_mask | 1 << (t_cell % schema.len()), t_cell);
                (target, pick(e_mask, e_cell))
            })
            .collect();
        asked.push((Assignment::single(0, 0), Assignment::single(0, 1)));
        asked.push((Assignment::single(1, 0), Assignment::single(0, zero_value)));
        for (target, evidence) in &asked {
            let reference = bayes(&schema, target, evidence, |a| truth.probability(a));
            let expected = outcome(reference.map(|b| b.probability));
            for (i, path) in paths.iter().enumerate() {
                let got = outcome(path.conditional(target, evidence));
                prop_assert!(
                    agree(got, expected),
                    "path {i}, {target:?} | {evidence:?}: {got:?} vs {expected:?}"
                );
            }
        }
        let (target, evidence) = &asked[asked.len() - 1];
        if empty_value {
            prop_assert_eq!(outcome(kb.conditional(target, evidence)), Outcome::ZeroEvidence);
        }

        // The server path is the snapshot knowledge base's path.
        let config = ServeConfig::new()
            .with_loop_shards(1)
            .with_stream(StreamConfig::new().with_policy(RefreshPolicy::Manual));
        let server = Server::start(Arc::clone(&schema), config).unwrap();
        let mut client = LineClient::connect(server.addr()).unwrap();
        for snapshot in [dense, factored] {
            server.snapshots().publish(snapshot);
            let published = server.snapshots().load().unwrap();
            server_matches(&mut client, published.knowledge_base(), &asked);
        }
        drop(client);
        server.shutdown().unwrap();
    }
}
