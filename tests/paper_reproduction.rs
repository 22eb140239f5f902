//! Cross-crate integration tests that pin the reproduction of the memo's
//! printed artefacts (Figures 1–2, Tables 1–2, the Eq. 57–62 fit).
//!
//! Tolerances follow the memo's own rounding: it prints probabilities to
//! 2–3 digits and message lengths to 2 decimals.

use pka::contingency::{Assignment, VarSet};
use pka::core::{Acquisition, AcquisitionConfig};
use pka::datagen::smoking;

/// Figure 1 / Figure 2: the embedded survey and all its marginals.
#[test]
fn figures_1_and_2_reproduce_exactly() {
    let table = smoking::table();
    assert_eq!(table.total(), 3428);

    // Figure 2a/2b margins (per family-history slice) via full-cell sums.
    let cell = |s: usize, c: usize, f: usize| table.count_values(&[s, c, f]);
    assert_eq!(cell(0, 0, 0), 130);
    assert_eq!(cell(0, 1, 0), 410);
    assert_eq!(cell(1, 0, 1), 31);
    assert_eq!(cell(2, 1, 1), 385);

    // Figure 2c: smoking × cancer marginal.
    let ab = table.marginal(VarSet::from_indices([0, 1]));
    let expected =
        [(0, 0, 240u64), (0, 1, 1050), (1, 0, 93), (1, 1, 1040), (2, 0, 100), (2, 1, 905)];
    for (i, j, n) in expected {
        assert_eq!(ab.get(&[i, j]), n, "N^AB_{}{}", i + 1, j + 1);
    }

    // First-order marginals and N.
    let a = table.marginal(VarSet::singleton(0));
    assert_eq!((a.get(&[0]), a.get(&[1]), a.get(&[2])), (1290, 1133, 1005));
    let b = table.marginal(VarSet::singleton(1));
    assert_eq!((b.get(&[0]), b.get(&[1])), (433, 2995));
    let c = table.marginal(VarSet::singleton(2));
    assert_eq!((c.get(&[0]), c.get(&[1])), (1780, 1648));
}

/// Eqs. 48–62: the first-order fit is the independence model and its
/// a-values equal the first-order probabilities (in the solver's gauge the
/// predictions, not the raw multipliers, are what the memo's Eq. 61 checks).
#[test]
fn eq_57_to_62_first_order_fit() {
    let table = smoking::table();
    let (model, report) = pka_bench::eq57_initial_model(&table);
    assert!(report.converged);

    let p = |pairs: &[(usize, usize)]| model.probability(&Assignment::from_pairs(pairs.to_vec()));
    let pa = [1290.0 / 3428.0, 1133.0 / 3428.0, 1005.0 / 3428.0];
    let pb = [433.0 / 3428.0, 2995.0 / 3428.0];
    let pc = [1780.0 / 3428.0, 1648.0 / 3428.0];

    // Eq. 61: third-order predictions are triple products.
    for (i, &pai) in pa.iter().enumerate() {
        for (j, &pbj) in pb.iter().enumerate() {
            for (k, &pck) in pc.iter().enumerate() {
                let predicted = model.cell_probability(&[i, j, k]);
                assert!((predicted - pai * pbj * pck).abs() < 1e-9);
            }
        }
    }
    // Eq. 62: second-order predictions are pair products (Table 1 column 1).
    assert!((p(&[(0, 0), (1, 0)]) - pa[0] * pb[0]).abs() < 1e-9);
    assert!((p(&[(0, 0), (2, 1)]) - pa[0] * pc[1]).abs() < 1e-9);
    assert!((p(&[(1, 0), (2, 0)]) - pb[0] * pc[0]).abs() < 1e-9);
}

/// Table 1: the m2 − m1 column, row by row, within ±0.5 of the memo's
/// printed values (the memo rounds its first-order probabilities before
/// computing the column, so exact agreement is not expected).
#[test]
fn table_1_message_lengths_match_the_memo() {
    let table = smoking::table();
    let round = pka_bench::table1_significance(&table);
    assert_eq!(round.evaluations.len(), 16);

    // (attribute pair, value pair, paper m2-m1)
    type PaperRow = ((usize, usize), (usize, usize), f64);
    let paper: &[PaperRow] = &[
        ((0, 1), (0, 0), -11.57),
        ((0, 1), (0, 1), 1.75),
        ((0, 1), (1, 0), -4.74),
        ((0, 1), (1, 1), 3.83),
        ((0, 1), (2, 0), 2.44),
        ((0, 1), (2, 1), 4.97),
        ((1, 2), (0, 0), 0.59),
        ((1, 2), (0, 1), -0.21),
        ((1, 2), (1, 0), 4.77),
        ((1, 2), (1, 1), 4.62),
        ((0, 2), (0, 0), -10.54),
        ((0, 2), (0, 1), -9.95),
        ((0, 2), (1, 0), 2.87),
        ((0, 2), (1, 1), 2.63),
        ((0, 2), (2, 0), -0.64),
        ((0, 2), (2, 1), -1.49),
    ];
    for &((a1, a2), (v1, v2), expected) in paper {
        let assignment = Assignment::from_pairs([(a1, v1), (a2, v2)]);
        let row = round
            .evaluations
            .iter()
            .find(|e| e.assignment == assignment)
            .unwrap_or_else(|| panic!("cell {assignment:?} missing from Table 1"));
        assert!(
            (row.delta - expected).abs() < 0.5,
            "cell {:?}: measured {:.2}, paper {:.2}",
            assignment,
            row.delta,
            expected
        );
        // The sign (and hence the significance verdict) must agree.
        assert_eq!(row.delta < 0.0, expected < 0.0, "verdict flipped for {assignment:?}");
    }
}

/// Table 2: adding the N^AC_12 constraint and iterating converges in a
/// handful of sweeps to the target 0.219, as the memo's hand iteration does.
#[test]
fn table_2_iteration_converges_like_the_memo() {
    let table = smoking::table();
    let report = pka_bench::table2_iteration(&table, 1e-3);
    assert!(report.converged);
    assert!(
        report.iterations <= 20,
        "memo converges in ~7 passes at 2-digit precision; we took {}",
        report.iterations
    );
    let last = report.last_record().expect("trace recorded");
    let fitted = *last.fitted.last().expect("constraint fitted value");
    assert!((fitted - 750.0 / 3428.0).abs() < 2e-3, "fitted {fitted}");
    // The violation decreases monotonically over the trace.
    for w in report.trace.windows(2) {
        assert!(w[1].max_violation <= w[0].max_violation * 1.5 + 1e-12);
    }
}

/// The overall procedure (Figure 3) discovers the smoking-related structure
/// and leaves the model consistent with every marginal it constrained.
#[test]
fn figure_3_procedure_on_the_paper_data() {
    let table = smoking::table();
    let outcome = Acquisition::new(AcquisitionConfig::new().with_evaluation_trace())
        .run(&table)
        .expect("acquisition succeeds");
    let kb = &outcome.knowledge_base;

    // Something was learned, and the first discovery is one of the memo's
    // strongly significant cells (AB_11, AC_11 or AC_12).
    let first = outcome.trace.selected_constraints()[0].clone();
    let strong = [
        Assignment::from_pairs([(0, 0), (1, 0)]),
        Assignment::from_pairs([(0, 0), (2, 0)]),
        Assignment::from_pairs([(0, 0), (2, 1)]),
    ];
    assert!(strong.contains(&first), "first discovery was {first:?}");

    // Every constraint is honoured and the joint sums to one.
    for c in kb.constraints().constraints() {
        assert!((kb.probability(&c.assignment) - c.probability).abs() < 1e-5);
    }
    let joint = kb.joint();
    assert!((joint.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-9);

    // The memo's headline conditional: smokers have an elevated cancer
    // probability (about .186 vs the base rate .126).
    let p = kb
        .conditional_by_names(&[("cancer", "yes")], &[("smoking", "smoker")])
        .expect("query evaluates");
    assert!((p - 240.0 / 1290.0).abs() < 0.01);
}
