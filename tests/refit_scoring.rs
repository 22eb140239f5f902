//! Refit scoring reads its counts from marginal tables built once per run;
//! these tests hold it to the definition it replaced.
//!
//! The reference is Eq. 41 written straight from the memo: every count is
//! a [`ContingencyTable::count_matching`] walk, every known marginal a
//! linear search of the known cells.  For every candidate cell an
//! acquisition run scores — on the paper's table, a survey sample (cold
//! and warm-started) and a 20-attribute wide table — the observed count
//! equals `count_matching` and the message lengths equal
//! [`MessageLengthTest::evaluate`] fed the reference range, bit for bit.
//! A property test compares [`RangeContext::range_of`] with the reference
//! on random small tables and random known/found sets.

use pka::contingency::{Assignment, ContingencyTable, MarginalTables, Schema};
use pka::core::{Acquisition, AcquisitionConfig, AcquisitionOutcome, KnowledgeBase};
use pka::datagen::{sample_table, sampler::seeded_rng, smoking, survey, WideExperiment};
use pka::significance::{CellRange, KnownCells, MessageLengthTest, RangeContext};
use proptest::prelude::*;
use std::sync::Arc;

/// Eq. 41 by definition: the candidate's range is bounded by each known
/// proper marginal (every first-order one, a higher-order one only if it
/// is a known cell), less the counts of the other cells of the
/// candidate's table already found under the same marginal slice.
fn reference_range(
    table: &ContingencyTable,
    known: &[Assignment],
    found: &[Assignment],
    candidate: &Assignment,
) -> CellRange {
    let vars = candidate.vars();
    let mut max_value = table.total();
    let mut min_free_cells = usize::MAX;
    for size in 1..vars.len() {
        for subset in vars.subsets_of_size(size) {
            let projected = candidate.restrict(subset);
            if size > 1 && !known.contains(&projected) {
                continue;
            }
            let (mut committed, mut committed_cells) = (0u64, 0usize);
            for f in found {
                if f.vars() == vars && f != candidate && f.restrict(subset) == projected {
                    committed += table.count_matching(f);
                    committed_cells += 1;
                }
            }
            max_value = max_value.min(table.count_matching(&projected).saturating_sub(committed));
            let slice_cells: usize = vars
                .difference(subset)
                .iter()
                .map(|a| table.schema().cardinality(a).unwrap())
                .product();
            min_free_cells = min_free_cells.min(slice_cells.saturating_sub(committed_cells));
        }
    }
    CellRange { max_value, min_free_cells, determined: min_free_cells <= 1 }
}

/// Replays an acquisition run's trace against the reference: each round's
/// known cells are the priors plus every earlier selection, and its found
/// cells are those of the round's order.  Returns the candidates checked.
fn check_run(
    table: &ContingencyTable,
    priors: &[Assignment],
    config: AcquisitionConfig,
    outcome: &AcquisitionOutcome,
) -> usize {
    let schema = table.schema();
    let test = MessageLengthTest::new(config.priors);
    let mut known: Vec<Assignment> = priors.to_vec();
    let mut checked = 0;
    for round in &outcome.trace.rounds {
        assert!(!round.evaluations.is_empty() || round.candidates == 0);
        let found: Vec<Assignment> =
            known.iter().filter(|a| a.order() == round.order).cloned().collect();
        let cells_at_order: usize = schema
            .all_vars()
            .subsets_of_size(round.order)
            .into_iter()
            .map(|vars| schema.cell_count_of(vars))
            .sum();
        for e in &round.evaluations {
            let observed = table.count_matching(&e.assignment);
            assert_eq!(e.observed, observed, "observed count of {:?}", e.assignment);
            let range = reference_range(table, &known, &found, &e.assignment);
            let lengths = test
                .evaluate(
                    observed,
                    e.predicted_p,
                    table.total(),
                    cells_at_order,
                    found.len(),
                    &range,
                )
                .unwrap();
            let bits = |x: f64| x.to_bits();
            assert_eq!(bits(e.m1), bits(lengths.m1), "m1 of {:?}", e.assignment);
            assert_eq!(bits(e.m2), bits(lengths.m2), "m2 of {:?}", e.assignment);
            assert_eq!(bits(e.mean), bits(lengths.mean));
            assert_eq!(bits(e.std_dev), bits(lengths.std_dev));
            assert_eq!(bits(e.delta), bits(lengths.delta()));
            assert_eq!(e.significant, lengths.is_significant());
            checked += 1;
        }
        known.extend(round.selected.clone());
    }
    checked
}

#[test]
fn paper_table_scores_match_the_reference() {
    let table = smoking::table();
    let config = AcquisitionConfig::new().with_evaluation_trace();
    let outcome = Acquisition::new(config).run(&table).unwrap();
    // Table 1's sixteen cells plus every later round.
    assert!(check_run(&table, &[], config, &outcome) > 16);
}

#[test]
fn survey_scores_match_the_reference_cold_and_warm() {
    let mut rng = seeded_rng(11);
    let truth = survey::ground_truth();
    let mut table = sample_table(&truth, 4000, &mut rng);
    let config = AcquisitionConfig::new().with_evaluation_trace();
    let acquisition = Acquisition::new(config);
    let cold = acquisition.run(&table).unwrap();
    assert!(check_run(&table, &[], config, &cold) > 0);

    // A warm start carries the previous cells in as known and found.
    table.merge(&sample_table(&truth, 500, &mut rng)).unwrap();
    let warm = acquisition.run_warm_started(&table, &cold.knowledge_base).unwrap();
    let priors = higher_order_cells(&cold.knowledge_base);
    assert!(!priors.is_empty(), "the survey has structure to carry over");
    assert!(check_run(&table, &priors, config, &warm) > 0);
}

#[test]
fn wide_table_scores_match_the_reference() {
    let mut rng = seeded_rng(5);
    let experiment = WideExperiment::generate(20, 2, 4, 3.0, &mut rng);
    let table = experiment.sample_table(1500, &mut rng);
    let config = AcquisitionConfig::new().with_max_order(2).with_evaluation_trace();
    let outcome = Acquisition::new(config).run(&table).unwrap();
    assert!(!outcome.knowledge_base.significant_constraints().is_empty());
    assert!(check_run(&table, &[], config, &outcome) > 0);
}

fn higher_order_cells(kb: &KnowledgeBase) -> Vec<Assignment> {
    kb.constraints().higher_order().map(|c| c.assignment.clone()).collect()
}

/// The range `RangeContext` computes for `candidate` from tables over
/// every order.
fn indexed_range(
    table: &ContingencyTable,
    known: &[Assignment],
    found: &[Assignment],
    candidate: &Assignment,
) -> CellRange {
    let tables = MarginalTables::up_to_order(table, table.schema().len());
    let known = KnownCells::from_cells(table.schema(), known);
    let found = KnownCells::from_cells(table.schema(), found);
    RangeContext::new(&tables, &known, &found).range_of(candidate)
}

/// Every cell of order `1..=len` over a schema.
fn all_cells(schema: &Schema) -> Vec<Assignment> {
    (1..=schema.len())
        .flat_map(|k| schema.all_vars().subsets_of_size(k))
        .flat_map(|vars| schema.configurations(vars).map(move |v| Assignment::new(vars, v)))
        .collect()
}

#[test]
fn boundary_candidates_match_the_reference() {
    let table = smoking::table();
    let cells = all_cells(table.schema());
    let full = Assignment::from_pairs([(0, 1), (1, 0), (2, 1)]);
    // Empty known and found sets: only the first-order marginals bound.
    for candidate in &cells {
        assert_eq!(
            indexed_range(&table, &[], &[], candidate),
            reference_range(&table, &[], &[], candidate)
        );
    }
    // A full-order candidate under every second-order cell as known and
    // its own table's other cells as found: each slice is determined.
    let known: Vec<Assignment> = cells.iter().filter(|a| a.order() == 2).cloned().collect();
    let found: Vec<Assignment> = cells.iter().filter(|a| a.order() == 3).cloned().collect();
    let range = indexed_range(&table, &known, &found, &full);
    assert_eq!(range, reference_range(&table, &known, &found, &full));
    assert!(range.determined);
    assert_eq!(range.max_value, table.count_matching(&full));
}

const SHAPES: [&[usize]; 4] = [&[2, 2], &[3, 2, 2], &[2, 3, 2, 2], &[2, 2, 2, 2, 2]];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn prop_indexed_range_matches_the_reference(
        shape in 0usize..SHAPES.len(),
        counts in proptest::collection::vec(0u64..6, 32),
        picks in proptest::collection::vec(any::<u32>(), 0..24),
        candidates in proptest::collection::vec(any::<u32>(), 1..16),
    ) {
        let schema = Schema::uniform(SHAPES[shape]).unwrap().into_shared();
        let cells = schema.cell_count();
        // Sparse tables: zero counts are common, so some cells are never
        // observed.
        let counts: Vec<u64> = counts.iter().cycle().take(cells).map(|&c| c.saturating_sub(2)).collect();
        prop_assume!(counts.iter().sum::<u64>() > 0);
        let table = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
        let all = all_cells(&schema);
        // Even picks land in the known set, odd ones in the found set; both
        // are sets, as a constraint set is.
        let (mut known, mut found) = (Vec::new(), Vec::new());
        for (i, &p) in picks.iter().enumerate() {
            let cell = all[p as usize % all.len()].clone();
            let set = if i % 2 == 0 { &mut known } else { &mut found };
            if !set.contains(&cell) {
                set.push(cell);
            }
        }
        for &c in &candidates {
            let candidate = &all[c as usize % all.len()];
            prop_assert_eq!(
                indexed_range(&table, &known, &found, candidate),
                reference_range(&table, &known, &found, candidate)
            );
        }
    }
}
