//! The acquisition loop of Figure 3: order-by-order discovery of significant
//! joint probabilities.

use crate::config::AcquisitionConfig;
use crate::error::CoreError;
use crate::knowledge_base::KnowledgeBase;
use crate::trace::{AcquisitionTrace, CellEvaluation, RoundTrace};
use crate::Result;
use pka_contingency::{Assignment, ContingencyTable, VarSet};
use pka_maxent::{ConstraintSet, Evaluator, IncidenceCache, LogLinearModel, Solver};
use pka_significance::{KnownCells, MessageLengthTest, RangeContext};
use std::time::{Duration, Instant};

/// Factors of a warm-start seed model are raised to at least this value so
/// cells a previous boundary fit drove to zero stay recoverable (see
/// [`Acquisition::run_warm_started`]).
const WARM_START_FACTOR_FLOOR: f64 = 1e-12;

/// The acquisition procedure.
///
/// One `Acquisition` value is a reusable, configured pipeline; call
/// [`Acquisition::run`] on any contingency table over any schema.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acquisition {
    config: AcquisitionConfig,
}

/// What a run produces: the knowledge base plus the audit trace.
#[derive(Debug, Clone)]
pub struct AcquisitionOutcome {
    /// The acquired knowledge base.
    pub knowledge_base: KnowledgeBase,
    /// The per-round history (Table 1 / Table 2 style records).
    pub trace: AcquisitionTrace,
    /// Where the run's wall time went.
    pub timings: AcquisitionTimings,
}

/// The wall time of one run, split between the solver and everything else.
#[derive(Debug, Clone, Copy)]
pub struct AcquisitionTimings {
    /// Everything but the solver: tabulating the observed marginals,
    /// evaluating the model's marginals and scoring every candidate.
    pub scoring: Duration,
    /// The solver fits (the initial one plus one per promoted cell).
    pub fit: Duration,
}

impl Acquisition {
    /// Creates a pipeline with the given configuration.
    pub fn new(config: AcquisitionConfig) -> Self {
        Self { config }
    }

    /// Creates a pipeline with the memo's default configuration.
    pub fn with_defaults() -> Self {
        Self::default()
    }

    /// The configuration in use.
    pub fn config(&self) -> &AcquisitionConfig {
        &self.config
    }

    /// Runs the procedure of Figure 3 on a contingency table.
    pub fn run(&self, table: &ContingencyTable) -> Result<AcquisitionOutcome> {
        self.run_with_prior(table, &[])
    }

    /// [`Acquisition::run`] with a caller-owned solver [`IncidenceCache`].
    ///
    /// Every solver fit inside the run (the initial fit plus one per
    /// promoted constraint) shares the cache, and the cache outlives the
    /// run — a streaming engine passes the same cache to every refit so
    /// repeated refits over an unchanged constraint set skip the
    /// `O(constraints × cells)` incidence pass entirely.
    pub fn run_cached(
        &self,
        table: &ContingencyTable,
        cache: &mut IncidenceCache,
    ) -> Result<AcquisitionOutcome> {
        self.run_seeded(table, &[], None, cache)
    }

    /// Runs the procedure with prior knowledge: marginal cells that are
    /// **already known to be significant** before looking at this data (the
    /// memo's "higher-order marginals … originally given as significant",
    /// Eq. 41's note).  Their probabilities are taken from the table, they
    /// constrain the model from the start, and they count towards `M` and
    /// towards the Eq. 41 range bounds at their order.
    ///
    /// Every prior cell must mention at least two attributes (first-order
    /// marginals are always constrained anyway).
    pub fn run_with_prior(
        &self,
        table: &ContingencyTable,
        prior_constraints: &[Assignment],
    ) -> Result<AcquisitionOutcome> {
        self.run_seeded(table, prior_constraints, None, &mut IncidenceCache::new())
    }

    /// Runs the procedure **warm-started** from a previously acquired
    /// knowledge base — the streaming-refresh entry point.
    ///
    /// The memo's Figure 4 instructs the solver to start "with the last
    /// previously calculated a values" whenever a constraint is added; this
    /// method lifts the same idea to the whole acquisition run.  The
    /// previous knowledge base contributes two things:
    ///
    /// 1. its higher-order constraint *cells* re-enter as prior knowledge
    ///    (their probabilities are re-read from the **new** table, so the
    ///    constraint set tracks the data as it grows), and
    /// 2. its fitted a-values seed the solver, so the initial fit starts
    ///    next to the solution instead of at the uniform model.
    ///
    /// The search then continues normally and may promote further cells.
    /// The result is not in general the knowledge base a cold
    /// [`Acquisition::run`] over the same table would reach: the carried
    /// cells count as found, which changes the model-indexing term of m2
    /// and the Eq. 41 ranges, so the search can stop before cells a cold
    /// run selects (ROADMAP item 2 measured this on 5 of 8 survey seeds).
    /// What does hold is that every carried and promoted constraint is
    /// re-read from the new table and honoured by the fit, and that for a
    /// fixed constraint set the maximum-entropy solution is unique, so the
    /// warm seed changes only the solver work, not the fitted model beyond
    /// solver tolerance.
    pub fn run_warm_started(
        &self,
        table: &ContingencyTable,
        previous: &KnowledgeBase,
    ) -> Result<AcquisitionOutcome> {
        self.run_warm_started_cached(table, previous, &mut IncidenceCache::new())
    }

    /// [`Acquisition::run_warm_started`] with a caller-owned solver
    /// [`IncidenceCache`] (see [`Acquisition::run_cached`]).  The
    /// steady-state streaming refit — same constraint set, new counts — is
    /// a pure cache hit.
    pub fn run_warm_started_cached(
        &self,
        table: &ContingencyTable,
        previous: &KnowledgeBase,
        cache: &mut IncidenceCache,
    ) -> Result<AcquisitionOutcome> {
        if previous.schema() != table.schema() {
            return Err(CoreError::InvalidInput {
                reason: "warm start requires the previous knowledge base and the new table \
                         to share a schema"
                    .to_string(),
            });
        }
        let priors: Vec<Assignment> =
            previous.constraints().higher_order().map(|c| c.assignment.clone()).collect();
        // Boundary solutions leave factors at (numerically) zero; on shifted
        // data those cells may need mass again, and the multiplicative
        // update cannot lift an exact zero.  Resurrect them to a tiny floor
        // so the warm start is robust to distribution shift.
        let mut model = previous.model().clone();
        model.floor_factors(WARM_START_FACTOR_FLOOR);
        self.run_seeded(table, &priors, Some(model), cache)
    }

    fn run_seeded(
        &self,
        table: &ContingencyTable,
        prior_constraints: &[Assignment],
        initial_model: Option<LogLinearModel>,
        cache: &mut IncidenceCache,
    ) -> Result<AcquisitionOutcome> {
        let schema = table.shared_schema();
        self.config.validate(schema.len())?;
        if table.total() == 0 {
            return Err(CoreError::InvalidInput {
                reason: "cannot acquire knowledge from an empty table".to_string(),
            });
        }
        for prior in prior_constraints {
            if prior.order() < 2 {
                return Err(CoreError::InvalidConfig {
                    reason: format!(
                        "prior constraint {} is first order; first-order marginals are always constrained",
                        prior.describe(&schema)
                    ),
                });
            }
        }

        let started = Instant::now();
        let mut fit_time = Duration::ZERO;
        let solver =
            Solver::new(self.config.convergence).with_dense_ceiling(self.config.dense_ceiling);
        let mut fit = |model: LogLinearModel, constraints: &ConstraintSet| {
            let fit_started = Instant::now();
            let fitted = solver.fit_from_cached(model, constraints, cache);
            fit_time += fit_started.elapsed();
            fitted
        };
        let test = MessageLengthTest::new(self.config.priors);

        // Step 1: first-order marginals are always constraints (Eq. 48) and
        // any prior knowledge is added on top; the resulting maximum-entropy
        // model is the independence model when there is no prior knowledge.
        let mut constraints = ConstraintSet::first_order_from_table(table)?;
        for prior in prior_constraints {
            constraints.add_from_table(table, prior.clone())?;
        }
        let seed =
            initial_model.unwrap_or_else(|| LogLinearModel::uniform(constraints.shared_schema()));
        let (mut model, initial_fit) = fit(seed, &constraints)?;

        let mut trace = AcquisitionTrace { rounds: Vec::new(), initial_fit: Some(initial_fit) };

        let max_order = self.config.effective_max_order(schema.len());

        // Every count the search reads — a candidate's own and the known
        // marginals that bound it (Eq. 41) — comes from the observed count
        // lattice.  Candidates at order k and their proper marginals span
        // orders 1..=max_order.
        let observed = table.lattice(max_order);
        // The higher-order constraint cells, indexed for Eq. 41: at order k
        // the ones below k are the known marginals and those at k are the
        // cells already found at this order.
        let mut known = KnownCells::from_cells(
            &schema,
            constraints.higher_order().map(|constraint| &constraint.assignment),
        );

        // Step 2: search each order in turn.
        for order in 2..=max_order {
            let candidate_sets: Vec<VarSet> = schema.all_vars().subsets_of_size(order);
            let cells_at_order: usize =
                candidate_sets.iter().map(|&s| schema.cell_count_of(s)).sum();
            if cells_at_order == 0 {
                continue;
            }

            // Constraints of this order already present (prior knowledge or
            // carried over from a previous run) count as "found": they bound
            // the remaining cells (Eq. 41) and reduce the model-indexing term
            // of m2.
            let mut found_at_order = constraints.of_order(order).count();

            for round in 1..=cells_at_order {
                if found_at_order >= self.config.max_constraints_per_order {
                    break;
                }
                if found_at_order >= cells_at_order {
                    break;
                }

                let range_ctx = RangeContext::new(&observed, &known, &known);

                // One evaluator per round; every candidate varset then gets
                // one marginal table — a pass over the model's dense image
                // below the ceiling, an elimination above it.
                let evaluator = Evaluator::new(&model, self.config.dense_ceiling);

                // Score every unconstrained cell at this order.  Only the
                // running best (first in enumeration order on a tie) and
                // the tallies are kept; a `CellEvaluation` is built only
                // when the trace records them.
                let record = self.config.record_evaluations;
                let mut evaluations: Vec<CellEvaluation> = Vec::new();
                let mut candidates = 0;
                let mut significant_count = 0;
                let mut best: Option<(VarSet, usize, f64)> = None;
                for &vars in &candidate_sets {
                    // Predicted and observed marginals share the row-major
                    // layout of `configurations`, so the configuration
                    // index addresses both.
                    let marginal = evaluator.marginal(vars);
                    let counts = observed.table(vars).expect("tabulated up to max_order").cells();
                    let ranges = range_ctx.ranges_over(vars);
                    for config_index in 0..schema.cell_count_of(vars) {
                        if known.contains(vars, config_index) {
                            continue;
                        }
                        let observed = counts[config_index];
                        let predicted_p = marginal[config_index].clamp(0.0, 1.0);
                        let range = ranges.range_of(config_index);
                        let lengths = test.evaluate(
                            observed,
                            predicted_p,
                            table.total(),
                            cells_at_order,
                            found_at_order,
                            &range,
                        )?;
                        let delta = lengths.delta();
                        let significant = lengths.is_significant();
                        candidates += 1;
                        if significant {
                            significant_count += 1;
                            if best.is_none_or(|(_, _, d)| delta < d) {
                                best = Some((vars, config_index, delta));
                            }
                        }
                        if record {
                            evaluations.push(CellEvaluation {
                                assignment: Assignment::new(
                                    vars,
                                    schema.config_values(vars, config_index),
                                ),
                                observed,
                                predicted_p,
                                mean: lengths.mean,
                                std_dev: lengths.std_dev,
                                z_score: lengths.z_score,
                                m1: lengths.m1,
                                m2: lengths.m2,
                                delta,
                                likelihood_ratio: lengths.likelihood_ratio(),
                                significant,
                            });
                        }
                    }
                }

                let Some((best_vars, best_index, best_delta)) = best else {
                    // No significant cell remains at this order: record the
                    // final (empty-handed) round and move on (Figure 3's
                    // "done" branch for the order).
                    trace.rounds.push(RoundTrace {
                        order,
                        round,
                        evaluations,
                        selected: None,
                        selected_delta: None,
                        candidates,
                        significant_count,
                        fit_report: None,
                    });
                    break;
                };

                // Promote the most significant cell and refit, warm-starting
                // from the current a-values (Figure 4).
                let selected =
                    Assignment::new(best_vars, schema.config_values(best_vars, best_index));
                constraints.add_from_table(table, selected.clone())?;
                known.insert(&schema, &selected);
                found_at_order += 1;
                let (new_model, fit_report) = fit(model.clone(), &constraints)?;
                model = new_model;

                trace.rounds.push(RoundTrace {
                    order,
                    round,
                    evaluations,
                    selected: Some(selected),
                    selected_delta: Some(best_delta),
                    candidates,
                    significant_count,
                    fit_report: Some(fit_report),
                });
            }
        }

        let knowledge_base = KnowledgeBase::new(schema, constraints, model, table.total())?;
        let timings = AcquisitionTimings {
            scoring: started.elapsed().saturating_sub(fit_time),
            fit: fit_time,
        };
        Ok(AcquisitionOutcome { knowledge_base, trace, timings })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pka_contingency::{Attribute, Schema};
    use pka_significance::HypothesisPriors;
    use std::sync::Arc;

    fn paper_table() -> ContingencyTable {
        let schema = Schema::new(vec![
            Attribute::new("smoking", ["smoker", "non-smoker", "married-to-smoker"]),
            Attribute::yes_no("cancer"),
            Attribute::yes_no("family-history"),
        ])
        .unwrap()
        .into_shared();
        ContingencyTable::from_counts(
            schema,
            vec![130, 110, 410, 640, 62, 31, 580, 460, 78, 22, 520, 385],
        )
        .unwrap()
    }

    #[test]
    fn rejects_empty_tables_and_bad_configs() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let empty = ContingencyTable::zeros(Arc::clone(&schema));
        assert!(Acquisition::with_defaults().run(&empty).is_err());
        let t = paper_table();
        let bad = Acquisition::new(AcquisitionConfig::new().with_max_order(9));
        assert!(bad.run(&t).is_err());
    }

    #[test]
    fn paper_example_discovers_smoking_family_history_structure() {
        // Running the full procedure on the memo's survey must, at minimum,
        // discover the smoking × family-history association the memo's
        // Table 1 identifies as the most significant block (cells AB_11 /
        // AC_11 / AC_12 are the strongly significant ones).
        let t = paper_table();
        let acquisition = Acquisition::new(AcquisitionConfig::new().with_evaluation_trace());
        let outcome = acquisition.run(&t).unwrap();
        let kb = &outcome.knowledge_base;
        let discovered = kb.significant_constraints();
        assert!(!discovered.is_empty(), "no constraints discovered");
        // Every discovered constraint is honoured exactly by the model.
        for c in &discovered {
            assert!(
                (kb.probability(&c.assignment) - c.probability).abs() < 1e-6,
                "constraint {:?} not honoured",
                c.assignment
            );
        }
        // The A-C (smoking × family-history) interaction must be represented
        // among the second-order discoveries.
        let ac = VarSet::from_indices([0, 2]);
        assert!(
            discovered.iter().any(|c| c.assignment.vars() == ac),
            "no smoking × family-history constraint found: {:?}",
            discovered.iter().map(|c| c.assignment.clone()).collect::<Vec<_>>()
        );
        // First-order marginals remain exact.
        for attr in 0..3 {
            for v in 0..t.schema().cardinality(attr).unwrap() {
                let a = Assignment::single(attr, v);
                assert!((kb.probability(&a) - t.frequency(&a)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn first_round_trace_reproduces_table_1_shape() {
        let t = paper_table();
        let acquisition = Acquisition::new(AcquisitionConfig::new().with_evaluation_trace());
        let outcome = acquisition.run(&t).unwrap();
        let round = outcome.trace.first_round_at_order(2).expect("order 2 searched");
        // 16 second-order candidate cells, exactly as in Table 1.
        assert_eq!(round.candidates, 16);
        assert_eq!(round.evaluations.len(), 16);
        // Find the AB_11 row and check it is flagged significant with a
        // strongly negative delta, as in Table 1 (-11.57).
        let ab11 = round
            .evaluations
            .iter()
            .find(|e| e.assignment == Assignment::from_pairs([(0, 0), (1, 0)]))
            .unwrap();
        assert!(ab11.significant);
        assert!(ab11.delta < -8.0);
        assert_eq!(ab11.observed, 240);
        // And the BC_11 row is NOT significant despite its 3.3 sd deviation.
        let bc11 = round
            .evaluations
            .iter()
            .find(|e| e.assignment == Assignment::from_pairs([(1, 0), (2, 0)]))
            .unwrap();
        assert!(!bc11.significant);
        assert!(bc11.z_score > 3.0);
        // The selected cell is one of the strongly significant AB/AC cells.
        let selected = round.selected.clone().unwrap();
        let strong = [
            Assignment::from_pairs([(0, 0), (1, 0)]),
            Assignment::from_pairs([(0, 0), (2, 0)]),
            Assignment::from_pairs([(0, 0), (2, 1)]),
        ];
        assert!(strong.contains(&selected), "selected {selected:?}");
    }

    #[test]
    fn max_order_limits_the_search() {
        let t = paper_table();
        let acquisition = Acquisition::new(AcquisitionConfig::new().with_max_order(2));
        let outcome = acquisition.run(&t).unwrap();
        assert!(outcome.knowledge_base.significant_constraints().iter().all(|c| c.order() <= 2));
        assert!(outcome.trace.rounds_at_order(3).next().is_none());
    }

    #[test]
    fn constraint_cap_is_respected() {
        let t = paper_table();
        let acquisition = Acquisition::new(
            AcquisitionConfig::new().with_max_order(2).with_max_constraints_per_order(1),
        );
        let outcome = acquisition.run(&t).unwrap();
        assert_eq!(outcome.knowledge_base.significant_constraints().len(), 1);
    }

    #[test]
    fn stronger_h2_prior_finds_at_least_as_many_constraints() {
        let t = paper_table();
        let even = Acquisition::new(AcquisitionConfig::new()).run(&t).unwrap();
        let eager = Acquisition::new(
            AcquisitionConfig::new().with_priors(HypothesisPriors::new(0.8).unwrap()),
        )
        .run(&t)
        .unwrap();
        assert!(
            eager.knowledge_base.significant_constraints().len()
                >= even.knowledge_base.significant_constraints().len()
        );
    }

    #[test]
    fn independent_data_yields_no_higher_order_constraints() {
        // A perfectly independent table (counts are exact products) should
        // produce no significant higher-order constraints.
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        // P(a=0)=.5, P(b=0)=.5, N=400 -> each cell exactly 100.
        let t =
            ContingencyTable::from_counts(Arc::clone(&schema), vec![100, 100, 100, 100]).unwrap();
        let outcome = Acquisition::with_defaults().run(&t).unwrap();
        assert!(outcome.knowledge_base.significant_constraints().is_empty());
        assert_eq!(outcome.knowledge_base.order_histogram(), vec![(1, 4)]);
    }

    #[test]
    fn strongly_dependent_data_yields_constraints() {
        // Two perfectly correlated binary attributes.
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let t = ContingencyTable::from_counts(Arc::clone(&schema), vec![200, 0, 0, 200]).unwrap();
        let outcome = Acquisition::with_defaults().run(&t).unwrap();
        assert!(!outcome.knowledge_base.significant_constraints().is_empty());
        // The model must reproduce the perfect correlation.
        let kb = &outcome.knowledge_base;
        let p = kb.conditional(&Assignment::single(1, 0), &Assignment::single(0, 0)).unwrap();
        assert!(p > 0.95, "P(b=0 | a=0) = {p}");
    }

    #[test]
    fn prior_constraints_are_honoured_and_counted() {
        let t = paper_table();
        // Give the memo's N^AC_12 cell as prior knowledge (the constraint the
        // memo itself chooses to walk through in Table 2).
        let prior = Assignment::from_pairs([(0, 0), (2, 1)]);
        let outcome = Acquisition::new(AcquisitionConfig::new().with_evaluation_trace())
            .run_with_prior(&t, std::slice::from_ref(&prior))
            .unwrap();
        let kb = &outcome.knowledge_base;
        // The prior cell is a constraint and is honoured exactly.
        assert!(kb.constraints().contains(&prior));
        assert!((kb.probability(&prior) - 750.0 / 3428.0).abs() < 1e-6);
        // It is never re-evaluated as a candidate.
        for round in &outcome.trace.rounds {
            assert!(round.evaluations.iter().all(|e| e.assignment != prior));
            assert!(round.selected.as_ref() != Some(&prior));
        }
        // The first order-2 round therefore screens only 15 candidates.
        let first = outcome.trace.first_round_at_order(2).unwrap();
        assert_eq!(first.candidates, 15);
    }

    #[test]
    fn warm_started_run_reaches_the_cold_fixed_point_cheaper() {
        let t = paper_table();
        let acquisition = Acquisition::with_defaults();
        let cold = acquisition.run(&t).unwrap();
        // Refitting the same data warm-started from the cold result must
        // reproduce the knowledge base while spending (much) less solver
        // work: the seed model already satisfies every constraint.
        let warm = acquisition.run_warm_started(&t, &cold.knowledge_base).unwrap();
        assert_eq!(warm.knowledge_base.order_histogram(), cold.knowledge_base.order_histogram());
        for c in cold.knowledge_base.constraints().constraints() {
            assert!(
                (warm.knowledge_base.probability(&c.assignment) - c.probability).abs() < 1e-8,
                "warm run lost constraint {:?}",
                c.assignment
            );
        }
        assert!(
            warm.trace.total_solver_iterations() < cold.trace.total_solver_iterations(),
            "warm {} vs cold {} iterations",
            warm.trace.total_solver_iterations(),
            cold.trace.total_solver_iterations()
        );
    }

    #[test]
    fn shared_incidence_cache_is_reused_across_warm_refits() {
        let t = paper_table();
        let acquisition = Acquisition::with_defaults();
        let mut cache = IncidenceCache::new();
        let cold = acquisition.run_cached(&t, &mut cache).unwrap();
        let after_cold = cache.stats();
        assert_eq!(after_cold.rebuilds, 1, "one structural build for the whole cold run");
        assert_eq!(
            after_cold.extensions as usize,
            cold.knowledge_base.significant_constraints().len(),
            "each promotion extends the cached prefix instead of rebuilding"
        );

        // A warm refit over the same constraint set is pure cache hits: its
        // initial constraint list equals the cold run's final list.
        let warm =
            acquisition.run_warm_started_cached(&t, &cold.knowledge_base, &mut cache).unwrap();
        let after_warm = cache.stats();
        assert_eq!(after_warm.rebuilds, after_cold.rebuilds, "warm refit never rebuilds");
        assert_eq!(after_warm.extensions, after_cold.extensions);
        assert!(after_warm.full_hits > after_cold.full_hits, "warm refit reuses the cache");
        assert_eq!(warm.knowledge_base.order_histogram(), cold.knowledge_base.order_histogram());
    }

    #[test]
    fn warm_start_requires_matching_schemas() {
        let t = paper_table();
        let cold = Acquisition::with_defaults().run(&t).unwrap();
        let other = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let foreign = ContingencyTable::from_counts(other, vec![10, 20, 30, 40]).unwrap();
        assert!(matches!(
            Acquisition::with_defaults().run_warm_started(&foreign, &cold.knowledge_base),
            Err(CoreError::InvalidInput { .. })
        ));
    }

    #[test]
    fn warm_start_survives_distribution_shift_from_boundary_models() {
        // Perfectly correlated data drives the off-diagonal cells to zero
        // mass; a later shift gives those cells real probability.  The
        // factor floor must let the warm refit recover instead of failing
        // with infeasible constraints.
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let correlated =
            ContingencyTable::from_counts(Arc::clone(&schema), vec![200, 0, 0, 200]).unwrap();
        let first = Acquisition::with_defaults().run(&correlated).unwrap();
        // Shifted data: the formerly-zero cell (0,1) now dominates.
        let shifted =
            ContingencyTable::from_counts(Arc::clone(&schema), vec![50, 300, 25, 25]).unwrap();
        let warm = Acquisition::with_defaults()
            .run_warm_started(&shifted, &first.knowledge_base)
            .expect("warm start must survive the shift");
        let p01 = warm.knowledge_base.probability(&Assignment::from_pairs([(0, 0), (1, 1)]));
        assert!(p01 > 0.5, "shifted mass recovered: {p01}");
    }

    #[test]
    fn first_order_prior_constraints_are_rejected() {
        let t = paper_table();
        let err = Acquisition::with_defaults().run_with_prior(&t, &[Assignment::single(0, 0)]);
        assert!(matches!(err, Err(CoreError::InvalidConfig { .. })));
    }

    #[test]
    fn prior_knowledge_changes_what_else_is_discovered() {
        // With the whole AC structure given up front, acquisition should not
        // need to rediscover it (no AC cells among the newly selected ones).
        let t = paper_table();
        let ac = VarSet::from_indices([0, 2]);
        let priors: Vec<Assignment> =
            t.schema().configurations(ac).map(|values| Assignment::new(ac, values)).collect();
        let outcome = Acquisition::new(AcquisitionConfig::new().with_max_order(2))
            .run_with_prior(&t, &priors)
            .unwrap();
        let selected = outcome.trace.selected_constraints();
        assert!(selected.iter().all(|a| a.vars() != ac));
        // But the AC structure is in the knowledge base (as prior knowledge).
        assert!(outcome
            .knowledge_base
            .significant_constraints()
            .iter()
            .any(|c| c.assignment.vars() == ac));
    }

    #[test]
    fn factored_scoring_reproduces_the_dense_discoveries() {
        // dense_ceiling = 0 forces both the solver and candidate scoring
        // onto the factored path; the acquired knowledge base must match the
        // dense run constraint-for-constraint.
        let t = paper_table();
        let dense = Acquisition::with_defaults().run(&t).unwrap();
        let factored =
            Acquisition::new(AcquisitionConfig::new().with_dense_ceiling(0)).run(&t).unwrap();
        assert_eq!(
            factored.knowledge_base.order_histogram(),
            dense.knowledge_base.order_histogram()
        );
        let mut dense_cells: Vec<Assignment> = dense
            .knowledge_base
            .significant_constraints()
            .iter()
            .map(|c| c.assignment.clone())
            .collect();
        let mut factored_cells: Vec<Assignment> = factored
            .knowledge_base
            .significant_constraints()
            .iter()
            .map(|c| c.assignment.clone())
            .collect();
        dense_cells.sort_by_key(|a| (a.vars().bits(), a.values().to_vec()));
        factored_cells.sort_by_key(|a| (a.vars().bits(), a.values().to_vec()));
        assert_eq!(dense_cells, factored_cells, "the two paths promoted different cells");
        for c in dense.knowledge_base.constraints().constraints() {
            assert!(
                (factored.knowledge_base.probability(&c.assignment) - c.probability).abs() < 1e-6,
                "constraint {:?} drifted on the factored path",
                c.assignment
            );
        }
    }

    #[test]
    fn trace_is_empty_of_evaluations_unless_requested() {
        let t = paper_table();
        let outcome = Acquisition::with_defaults().run(&t).unwrap();
        assert!(outcome.trace.rounds.iter().all(|r| r.evaluations.is_empty()));
        assert!(outcome.trace.total_evaluations() > 0);
    }
}
