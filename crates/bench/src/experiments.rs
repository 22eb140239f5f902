//! One entry point per experiment.
//!
//! Every function here is deterministic (seeds are explicit parameters) and
//! returns plain data, so the same code path serves three callers: the
//! Criterion benchmarks (timing), the `reproduce` binary (printing
//! paper-vs-measured) and the integration tests (asserting the shape of the
//! results).

use pka_baselines::{Chi2Miner, EmpiricalModel, IndependenceModel, NaiveBayes, SelectionRule};
use pka_contingency::{Assignment, ContingencyTable, Marginal, Schema, VarSet};
use pka_core::{Acquisition, AcquisitionConfig, AcquisitionOutcome, KnowledgeBase, RoundTrace};
use pka_datagen::{
    sample_dataset, sample_table, sampler::seeded_rng, smoking, survey, PlantedExperiment,
    WideExperiment,
};
use pka_maxent::{
    is_factored, metrics, solver::Solver, ConstraintSet, ConvergenceCriteria, Evaluator,
    FactorGraph, IncidenceCache, JointDistribution, LogLinearModel, MarginalLattice, SolveReport,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// F1 / F2 — the survey data and its marginals
// ---------------------------------------------------------------------------

/// Experiment F1: rebuild the contingency table of Figure 1 from the raw
/// per-respondent samples (Appendix A path: samples → tuples → table).
pub fn fig1_contingency() -> ContingencyTable {
    smoking::dataset().to_table()
}

/// Experiment F2: all first- and second-order marginals of Figure 2.
pub fn fig2_marginals(table: &ContingencyTable) -> Vec<Marginal> {
    let schema = table.schema();
    let mut out = Vec::new();
    for attr in 0..schema.len() {
        out.push(table.marginal(VarSet::singleton(attr)));
    }
    for pair in schema.all_vars().subsets_of_size(2) {
        out.push(table.marginal(pair));
    }
    out.push(table.marginal(VarSet::empty()));
    out
}

// ---------------------------------------------------------------------------
// E1 — first-order fit (Eqs. 48-62)
// ---------------------------------------------------------------------------

/// Experiment E1: fit the maximum-entropy model to the first-order marginals
/// only; the result is the independence model of Eqs. 57–62.
pub fn eq57_initial_model(table: &ContingencyTable) -> (LogLinearModel, SolveReport) {
    let constraints = ConstraintSet::first_order_from_table(table).expect("valid table");
    Solver::default().fit(&constraints).expect("first-order fit always converges")
}

// ---------------------------------------------------------------------------
// T1 — Table 1 (second-order significance screen)
// ---------------------------------------------------------------------------

/// Experiment T1: score every second-order cell of the smoking survey
/// against the independence model — the memo's Table 1.  Returns the first
/// round of the order-2 search with all 16 evaluations recorded.
pub fn table1_significance(table: &ContingencyTable) -> RoundTrace {
    let outcome =
        Acquisition::new(AcquisitionConfig::new().with_evaluation_trace().with_max_order(2))
            .run(table)
            .expect("acquisition on the paper data succeeds");
    outcome.trace.first_round_at_order(2).expect("order 2 is always searched").clone()
}

// ---------------------------------------------------------------------------
// T2 — Table 2 (iterative a-value computation for the N^AC_12 constraint)
// ---------------------------------------------------------------------------

/// Experiment T2: add the memo's first discovered constraint
/// (`p^AC_12 = 750/3428 ≈ 0.219`) to the first-order constraints and record
/// the solver trace — the modern equivalent of Table 2's hand iteration.
///
/// `tolerance` controls how closely the constraint must be honoured; the
/// memo's printed table corresponds to roughly `1e-3`.
pub fn table2_iteration(table: &ContingencyTable, tolerance: f64) -> SolveReport {
    let mut constraints = ConstraintSet::first_order_from_table(table).expect("valid table");
    constraints
        .add_from_table(
            table,
            Assignment::from_pairs([(smoking::SMOKING, 0), (smoking::FAMILY_HISTORY, 1)]),
        )
        .expect("constraint is consistent");
    let solver = Solver::new(ConvergenceCriteria::new().with_trace().with_tolerance(tolerance));
    solver.fit(&constraints).expect("the paper constraint set is feasible").1
}

// ---------------------------------------------------------------------------
// F5/F6 — Appendix A conversion
// ---------------------------------------------------------------------------

/// Experiment F5/F6: the Appendix-A conversion path measured end to end —
/// expand the paper table to raw samples, then tabulate them again.
pub fn fig6_roundtrip() -> ContingencyTable {
    let dataset = smoking::dataset();
    dataset.to_table()
}

// ---------------------------------------------------------------------------
// X1 — full acquisition on the paper data
// ---------------------------------------------------------------------------

/// Experiment X1: the full acquisition run (all orders) on the smoking
/// survey.
pub fn full_acquisition(table: &ContingencyTable) -> AcquisitionOutcome {
    Acquisition::new(AcquisitionConfig::new().with_evaluation_trace())
        .run(table)
        .expect("acquisition on the paper data succeeds")
}

// ---------------------------------------------------------------------------
// X2 — planted-correlation recovery vs sample size
// ---------------------------------------------------------------------------

/// One point of the recovery curve.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPoint {
    /// Sample size used.
    pub n: u64,
    /// Fraction of planted cells recovered exactly.
    pub cell_recovery: f64,
    /// Fraction of planted variable sets recovered.
    pub varset_recovery: f64,
    /// Constraints discovered that match no planted variable set.
    pub false_positives: usize,
    /// Number of constraints discovered in total.
    pub discovered: usize,
}

/// Experiment X2: plant `planted_count` second-order interactions of the
/// given strength in a 4-attribute schema, sample `n` observations, run
/// acquisition, and measure recovery.
pub fn recovery_experiment(
    n: u64,
    strength: f64,
    planted_count: usize,
    seed: u64,
) -> RecoveryPoint {
    let schema = Schema::uniform(&[3, 2, 2, 3]).expect("schema valid").into_shared();
    let mut rng = seeded_rng(seed);
    let experiment =
        PlantedExperiment::generate(Arc::clone(&schema), 2, planted_count, strength, &mut rng);
    let table = sample_table(&experiment.joint, n, &mut rng);
    let outcome = Acquisition::new(AcquisitionConfig::new().with_max_order(2))
        .run(&table)
        .expect("acquisition succeeds");
    let discovered: Vec<Assignment> = outcome
        .knowledge_base
        .significant_constraints()
        .iter()
        .map(|c| c.assignment.clone())
        .collect();
    RecoveryPoint {
        n,
        cell_recovery: experiment.cell_recovery(&discovered),
        varset_recovery: experiment.varset_recovery(&discovered),
        false_positives: experiment.false_positives(&discovered),
        discovered: discovered.len(),
    }
}

// ---------------------------------------------------------------------------
// X3 — model quality vs baselines
// ---------------------------------------------------------------------------

/// One row of the baseline-comparison table.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Estimator name.
    pub method: &'static str,
    /// Average negative log-likelihood (nats) on held-out data.
    pub held_out_log_loss: f64,
    /// KL divergence (nats) from the ground-truth distribution to the
    /// estimate.
    pub kl_from_truth: f64,
    /// Number of parameters beyond the first-order marginals (0 for the
    /// independence baseline; number of cells for the empirical model).
    pub extra_parameters: usize,
}

/// Experiment X3: draw a training and a held-out test set from the survey
/// simulator, fit the acquired model and the baselines on the training data
/// and compare held-out log-loss and divergence from the ground truth.
pub fn baseline_comparison(n_train: u64, n_test: u64, seed: u64) -> Vec<ComparisonRow> {
    let truth = survey::ground_truth();
    let mut rng = seeded_rng(seed);
    let train = sample_table(&truth, n_train, &mut rng);
    let test = sample_dataset(&truth, n_test, &mut rng);

    let kl = |joint: &JointDistribution| {
        pka_maxent::entropy::kl_divergence(truth.probabilities(), joint.probabilities())
    };

    // Acquired maximum-entropy model (orders limited to 3 to keep the sweep
    // bounded; the ground truth has no structure above order 3).
    let outcome = Acquisition::new(AcquisitionConfig::new().with_max_order(3))
        .run(&train)
        .expect("acquisition succeeds");
    let acquired_joint = outcome.knowledge_base.joint();
    let acquired_extra = outcome.knowledge_base.significant_constraints().len();

    let independence = IndependenceModel::fit(&train);
    let empirical = EmpiricalModel::fit_smoothed(&train, 0.5);

    vec![
        ComparisonRow {
            method: "maxent-acquisition",
            held_out_log_loss: metrics::log_loss(&acquired_joint, &test).expect("same schema"),
            kl_from_truth: kl(&acquired_joint),
            extra_parameters: acquired_extra,
        },
        ComparisonRow {
            method: "independence",
            held_out_log_loss: metrics::log_loss(independence.joint(), &test).expect("same schema"),
            kl_from_truth: kl(independence.joint()),
            extra_parameters: 0,
        },
        ComparisonRow {
            method: "empirical+0.5",
            held_out_log_loss: metrics::log_loss(empirical.joint(), &test).expect("same schema"),
            kl_from_truth: kl(empirical.joint()),
            extra_parameters: train.cell_count(),
        },
    ]
}

/// Classification accuracy comparison on the survey simulator: the acquired
/// model used as a classifier vs naive Bayes, both predicting `cancer`.
pub fn classification_comparison(n_train: u64, n_test: u64, seed: u64) -> Vec<(String, f64)> {
    let truth = survey::ground_truth();
    let mut rng = seeded_rng(seed);
    let train = sample_table(&truth, n_train, &mut rng);
    let test = sample_table(&truth, n_test, &mut rng);
    let target = survey::attrs::CANCER;

    let nb = NaiveBayes::fit(&train, target, 1.0);
    let nb_accuracy = nb.accuracy(&test);

    let outcome = Acquisition::new(AcquisitionConfig::new().with_max_order(2))
        .run(&train)
        .expect("acquisition succeeds");
    let kb = outcome.knowledge_base;
    let maxent_accuracy = classify_with_kb(&kb, &test, target);

    vec![
        ("maxent-acquisition".to_string(), maxent_accuracy),
        ("naive-bayes".to_string(), nb_accuracy),
    ]
}

fn classify_with_kb(kb: &KnowledgeBase, test: &ContingencyTable, target: usize) -> f64 {
    if test.total() == 0 {
        return 0.0;
    }
    let schema = kb.schema();
    let card = schema.cardinality(target).expect("target in schema");
    let mut correct = 0u64;
    for (values, count) in test.nonzero_cells() {
        let evidence = Assignment::from_pairs(
            values.iter().enumerate().filter(|&(a, _)| a != target).map(|(a, &v)| (a, v)),
        );
        let prediction = (0..card)
            .map(|v| kb.conditional(&Assignment::single(target, v), &evidence).unwrap_or(0.0))
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(v, _)| v)
            .expect("at least one value");
        if prediction == values[target] {
            correct += count;
        }
    }
    correct as f64 / test.total() as f64
}

// ---------------------------------------------------------------------------
// X4 — scaling
// ---------------------------------------------------------------------------

/// A scaling workload: a sampled table over a schema with `attributes`
/// attributes of `cardinality` values each.
pub fn scaling_workload(
    attributes: usize,
    cardinality: usize,
    n: u64,
    seed: u64,
) -> ContingencyTable {
    let cards = vec![cardinality; attributes];
    let schema = Schema::uniform(&cards).expect("schema valid").into_shared();
    let mut rng = seeded_rng(seed);
    let joint = pka_datagen::synthetic::random_joint(Arc::clone(&schema), 1.0, &mut rng);
    sample_table(&joint, n, &mut rng)
}

/// Runs acquisition (up to order 2) on a scaling workload and returns the
/// number of constraints found — the quantity the scaling bench times.
pub fn scaling_acquisition(table: &ContingencyTable) -> usize {
    Acquisition::new(AcquisitionConfig::new().with_max_order(2))
        .run(table)
        .expect("acquisition succeeds")
        .knowledge_base
        .significant_constraints()
        .len()
}

// ---------------------------------------------------------------------------
// X6 — solver kernel workloads (the `solver_sweep` bench)
// ---------------------------------------------------------------------------

/// A reusable iterative-scaling workload at one schema size, pitting the
/// fast kernel (deferred normalization, CSR incidence, scatter init)
/// against the retained eagerly-normalised reference solver on three
/// scenarios: a cold fit, a steady-state warm refit (same constraint
/// cells, targets shifted by a new batch of data) and a promotion refit
/// (one constraint appended to a cached prefix).
#[derive(Debug)]
pub struct SweepWorkload {
    label: &'static str,
    schema: Arc<Schema>,
    /// First fit: first-order marginals + two planted second-order cells.
    cold: ConstraintSet,
    /// Same cells re-read from the perturbed table (the steady-state warm
    /// refit of a streaming engine).
    warm: ConstraintSet,
    /// `warm` plus one extra promoted cell (the acquisition-loop refit).
    promoted: ConstraintSet,
    /// The cold fit's model — the warm starts' seed.
    seed_model: LogLinearModel,
}

impl SweepWorkload {
    /// The memo's survey schema (12 cells) with the Table 2 constraint —
    /// the "Table 2 workload".
    pub fn paper() -> Self {
        Self::build("paper_3x2x2", &[3, 2, 2])
    }

    /// A mid-sized schema (144 cells).
    pub fn medium() -> Self {
        Self::build("medium_4x4x3x3", &[4, 4, 3, 3])
    }

    /// A large schema (480 cells).
    pub fn large() -> Self {
        Self::build("large_6x5x4x4", &[6, 5, 4, 4])
    }

    fn build(label: &'static str, cards: &[usize]) -> Self {
        let schema = Schema::uniform(cards).expect("schema valid").into_shared();
        let base = synthetic_counts(&schema, 0);
        // The steady-state drift: one more batch from (nearly) the same
        // distribution, shifting every target by a percent or so — the
        // magnitude a streaming refresh actually sees, so the warm refit
        // does real sweeps without degenerating into a cold re-solve.
        let shifted: Vec<u64> = base
            .iter()
            .enumerate()
            .map(|(i, &c)| c + c / 50 + (i as u64).wrapping_mul(2654435761) % 3)
            .collect();
        let t1 = ContingencyTable::from_counts(Arc::clone(&schema), base).expect("valid counts");
        let t2 = ContingencyTable::from_counts(Arc::clone(&schema), shifted).expect("valid counts");
        let planted =
            [Assignment::from_pairs([(0, 0), (1, 0)]), Assignment::from_pairs([(0, 1), (2, 1)])];
        let extra = Assignment::from_pairs([(1, 1), (2, 0)]);

        let mut cold = ConstraintSet::first_order_from_table(&t1).expect("valid table");
        for cell in &planted {
            cold.add_from_table(&t1, cell.clone()).expect("consistent cell");
        }
        let mut warm = ConstraintSet::first_order_from_table(&t2).expect("valid table");
        for cell in &planted {
            warm.add_from_table(&t2, cell.clone()).expect("consistent cell");
        }
        let mut promoted = warm.clone();
        promoted.add_from_table(&t2, extra).expect("consistent cell");

        let (seed_model, _) = Solver::default().fit(&cold).expect("cold fit converges");
        Self { label, schema, cold, warm, promoted, seed_model }
    }

    /// The workload's display label (`paper_3x2x2`, …).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Cold fit with the fast kernel (fresh cache: one rebuild included).
    pub fn cold_fit_fast(&self) -> SolveReport {
        Solver::default().fit(&self.cold).expect("cold fit converges").1
    }

    /// Cold fit with the reference solver.
    pub fn cold_fit_reference(&self) -> SolveReport {
        pka_maxent::solver::reference::fit_from(
            ConvergenceCriteria::default(),
            LogLinearModel::uniform(Arc::clone(&self.schema)),
            &self.cold,
        )
        .expect("cold fit converges")
        .1
    }

    /// Steady-state warm refit with the fast kernel: seeded from the cold
    /// model, served from `cache` (a full hit once the cache is primed).
    pub fn warm_refit_fast(&self, cache: &mut IncidenceCache) -> SolveReport {
        Solver::default()
            .fit_from_cached(self.seed_model.clone(), &self.warm, cache)
            .expect("warm refit converges")
            .1
    }

    /// Steady-state warm refit with the reference solver.
    pub fn warm_refit_reference(&self) -> SolveReport {
        pka_maxent::solver::reference::fit_from(
            ConvergenceCriteria::default(),
            self.seed_model.clone(),
            &self.warm,
        )
        .expect("warm refit converges")
        .1
    }

    /// Zero-sweep refit (already-satisfied constraint set) with the fast
    /// kernel — isolates per-fit fixed costs.
    pub fn rezero_refit_fast(&self, cache: &mut IncidenceCache) -> SolveReport {
        Solver::default()
            .fit_from_cached(self.seed_model.clone(), &self.cold, cache)
            .expect("refit of a satisfied set succeeds")
            .1
    }

    /// Zero-sweep refit with the reference solver.
    pub fn rezero_refit_reference(&self) -> SolveReport {
        pka_maxent::solver::reference::fit_from(
            ConvergenceCriteria::default(),
            self.seed_model.clone(),
            &self.cold,
        )
        .expect("refit of a satisfied set succeeds")
        .1
    }

    /// Promotion refit with the fast kernel: one constraint appended to the
    /// cached prefix (the extension path).
    pub fn promotion_refit_fast(&self, cache: &mut IncidenceCache) -> SolveReport {
        Solver::default()
            .fit_from_cached(self.seed_model.clone(), &self.promoted, cache)
            .expect("promotion refit converges")
            .1
    }

    /// Promotion refit with the reference solver.
    pub fn promotion_refit_reference(&self) -> SolveReport {
        pka_maxent::solver::reference::fit_from(
            ConvergenceCriteria::default(),
            self.seed_model.clone(),
            &self.promoted,
        )
        .expect("promotion refit converges")
        .1
    }

    /// Correctness gate for the bench: the two kernels must agree per cell
    /// to 1e-12 on every timed scenario of this workload — cold fit, warm
    /// refit, zero-sweep hit and promotion refit (the CSR extension path).
    pub fn assert_kernels_agree(&self) {
        let mut fast_cache = IncidenceCache::new();
        let _ = self.warm_refit_fast(&mut fast_cache);
        let mut hit_cache = IncidenceCache::new();
        let pairs = [
            (
                Solver::default().fit(&self.cold).expect("fast cold").0,
                pka_maxent::solver::reference::fit_from(
                    ConvergenceCriteria::default(),
                    LogLinearModel::uniform(Arc::clone(&self.schema)),
                    &self.cold,
                )
                .expect("reference cold")
                .0,
            ),
            (
                Solver::default()
                    .fit_from(self.seed_model.clone(), &self.warm)
                    .expect("fast warm")
                    .0,
                pka_maxent::solver::reference::fit_from(
                    ConvergenceCriteria::default(),
                    self.seed_model.clone(),
                    &self.warm,
                )
                .expect("reference warm")
                .0,
            ),
            (
                // Promotion against a cache primed with the warm prefix, so
                // the fast side exercises the CSR extension path it times.
                Solver::default()
                    .fit_from_cached(self.seed_model.clone(), &self.promoted, &mut fast_cache)
                    .expect("fast promotion")
                    .0,
                pka_maxent::solver::reference::fit_from(
                    ConvergenceCriteria::default(),
                    self.seed_model.clone(),
                    &self.promoted,
                )
                .expect("reference promotion")
                .0,
            ),
            (
                Solver::default()
                    .fit_from_cached(self.seed_model.clone(), &self.cold, &mut hit_cache)
                    .expect("fast zero-sweep hit")
                    .0,
                pka_maxent::solver::reference::fit_from(
                    ConvergenceCriteria::default(),
                    self.seed_model.clone(),
                    &self.cold,
                )
                .expect("reference zero-sweep hit")
                .0,
            ),
        ];
        for (fast, slow) in &pairs {
            for (i, (a, b)) in
                fast.dense_probabilities().iter().zip(slow.dense_probabilities()).enumerate()
            {
                assert!(
                    (a - b).abs() <= 1e-12,
                    "{}: kernels diverged at cell {i}: {a} vs {b}",
                    self.label
                );
            }
        }
    }
}

/// Deterministic synthetic counts with a planted correlation between the
/// first two attributes (cells where they agree mod 2 are heavier), plus a
/// pseudo-random ripple so no marginal is degenerate.
fn synthetic_counts(schema: &Schema, salt: u64) -> Vec<u64> {
    (0..schema.cell_count())
        .map(|i| {
            let values = schema.cell_values(i);
            let ripple = (i as u64).wrapping_add(salt).wrapping_mul(2654435761) % 97;
            let bonus = if values[0] % 2 == values[1] % 2 { 150 } else { 0 };
            40 + ripple + bonus
        })
        .collect()
}

// ---------------------------------------------------------------------------
// X7 — query-evaluation workloads (the `query_eval` bench)
// ---------------------------------------------------------------------------

/// A reusable query-evaluation workload at one schema size, pitting the
/// snapshot-resident [`MarginalLattice`] (one index computation + lookup
/// per marginal) against the dense-joint stride walk (a sum over all
/// matching cells) on the mixes the serve read path actually sees:
/// first-/second-order marginals, conditionals via Bayes' identity, and a
/// mixed batch that includes above-cutoff probes exercising the fallback.
#[derive(Debug)]
pub struct QueryEvalWorkload {
    label: &'static str,
    joint: JointDistribution,
    lattice: MarginalLattice,
    /// Order-1 and order-2 marginal probes (all of them — the query
    /// population a SPIRIT-style shell mostly answers).
    marginals: Vec<Assignment>,
    /// `(target, evidence)` conditional probes, order ≤ 2 after merging.
    conditionals: Vec<(Assignment, Assignment)>,
    /// Probes strictly above the lattice cutoff (the stride-walk fallback).
    above_cutoff: Vec<Assignment>,
}

impl QueryEvalWorkload {
    /// The memo's 12-cell survey schema.
    pub fn paper() -> Self {
        Self::build("paper_3x2x2", &[3, 2, 2])
    }

    /// A mid-sized schema (144 cells).
    pub fn medium() -> Self {
        Self::build("medium_4x4x3x3", &[4, 4, 3, 3])
    }

    /// A large schema (480 cells).
    pub fn large() -> Self {
        Self::build("large_6x5x4x4", &[6, 5, 4, 4])
    }

    fn build(label: &'static str, cards: &[usize]) -> Self {
        let schema = Schema::uniform(cards).expect("schema valid").into_shared();
        let counts = synthetic_counts(&schema, 7);
        let table = ContingencyTable::from_counts(Arc::clone(&schema), counts).expect("valid");
        let joint = JointDistribution::empirical(&table);
        let lattice = MarginalLattice::build(
            &Evaluator::Dense(joint.clone()),
            pka_maxent::DEFAULT_LATTICE_ORDER,
        );

        // Every first- and second-order marginal cell.
        let mut marginals = Vec::new();
        for vars in (1..=2).flat_map(|m| schema.all_vars().subsets_of_size(m)) {
            for values in schema.configurations(vars) {
                marginals.push(Assignment::new(vars, values));
            }
        }
        // Conditionals P(a=v | b=w) over every ordered attribute pair,
        // values cycled deterministically.
        let mut conditionals = Vec::new();
        for a in 0..schema.len() {
            for b in 0..schema.len() {
                if a == b {
                    continue;
                }
                let va = (a + b) % schema.cardinality(a).expect("in schema");
                let vb = b % schema.cardinality(b).expect("in schema");
                conditionals.push((Assignment::single(a, va), Assignment::single(b, vb)));
            }
        }
        // Order-3 probes (above the default cutoff of 2): cycled cells of
        // every attribute triple.
        let mut above_cutoff = Vec::new();
        for (i, vars) in schema.all_vars().subsets_of_size(3).into_iter().enumerate() {
            let cell = (i * 17) % schema.cell_count();
            above_cutoff.push(Assignment::project(vars, &schema.cell_values(cell)));
        }
        Self { label, joint, lattice, marginals, conditionals, above_cutoff }
    }

    /// The workload's display label (`paper_3x2x2`, …).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Number of probes per category: `(marginals, conditionals, fallback)`.
    pub fn probe_counts(&self) -> (usize, usize, usize) {
        (self.marginals.len(), self.conditionals.len(), self.above_cutoff.len())
    }

    /// One marginal probability through the lattice-first path the serve
    /// layer uses: lookup when covered, stride walk otherwise.
    #[inline]
    fn lattice_first(&self, a: &Assignment) -> f64 {
        match self.lattice.probability(a) {
            Some(p) => p,
            None => self.joint.probability(a),
        }
    }

    /// All marginal probes through the lattice (the fast path).
    pub fn marginals_lattice(&self) -> f64 {
        self.marginals.iter().map(|a| self.lattice.probability(a).expect("covered")).sum()
    }

    /// All marginal probes through the dense-joint stride walk.
    pub fn marginals_stride(&self) -> f64 {
        self.marginals.iter().map(|a| self.joint.probability(a)).sum()
    }

    /// All conditional probes through the lattice: evidence, merged and
    /// prior each one lookup (the serve read path's Bayes' identity).
    pub fn conditionals_lattice(&self) -> f64 {
        self.conditionals
            .iter()
            .map(|(target, evidence)| {
                let denominator = self.lattice.probability(evidence).expect("covered");
                let merged = target.merge(evidence).expect("disjoint probes");
                let joint = self.lattice.probability(&merged).expect("covered");
                let prior = self.lattice.probability(target).expect("covered");
                if denominator > 0.0 {
                    joint / denominator + prior
                } else {
                    prior
                }
            })
            .sum()
    }

    /// All conditional probes through the stride walk.
    pub fn conditionals_stride(&self) -> f64 {
        self.conditionals
            .iter()
            .map(|(target, evidence)| {
                let denominator = self.joint.probability(evidence);
                let merged = target.merge(evidence).expect("disjoint probes");
                let joint = self.joint.probability(&merged);
                let prior = self.joint.probability(target);
                if denominator > 0.0 {
                    joint / denominator + prior
                } else {
                    prior
                }
            })
            .sum()
    }

    /// The mixed batch — marginals, conditionals and above-cutoff probes —
    /// through the lattice-first path (fallback included, as served).
    pub fn batch_mix_lattice(&self) -> f64 {
        let mut total = self.marginals.iter().map(|a| self.lattice_first(a)).sum::<f64>()
            + self.conditionals_lattice();
        total += self.above_cutoff.iter().map(|a| self.lattice_first(a)).sum::<f64>();
        total
    }

    /// The mixed batch entirely through the stride walk.
    pub fn batch_mix_stride(&self) -> f64 {
        let mut total = self.marginals_stride() + self.conditionals_stride();
        total += self.above_cutoff.iter().map(|a| self.joint.probability(a)).sum::<f64>();
        total
    }

    /// Correctness gate for the bench (runs in CI smoke mode too): the two
    /// paths agree per probe to 1e-12, and above-cutoff probes really do
    /// miss the lattice.
    pub fn assert_paths_agree(&self) {
        for a in &self.marginals {
            let fast = self.lattice.probability(a).expect("covered marginal probe");
            let slow = self.joint.probability(a);
            assert!(
                (fast - slow).abs() <= 1e-12,
                "{}: lattice diverged on {a:?}: {fast} vs {slow}",
                self.label
            );
        }
        for (target, evidence) in &self.conditionals {
            let merged = target.merge(evidence).expect("disjoint probes");
            for probe in [target, evidence, &merged] {
                let fast = self.lattice.probability(probe).expect("covered conditional probe");
                let slow = self.joint.probability(probe);
                assert!(
                    (fast - slow).abs() <= 1e-12,
                    "{}: lattice diverged on {probe:?}: {fast} vs {slow}",
                    self.label
                );
            }
        }
        for a in &self.above_cutoff {
            assert_eq!(
                self.lattice.probability(a),
                None,
                "{}: order-3 probe unexpectedly covered",
                self.label
            );
        }
        let mix_fast = self.batch_mix_lattice();
        let mix_slow = self.batch_mix_stride();
        assert!(
            (mix_fast - mix_slow).abs() <= 1e-9,
            "{}: batch mixes diverged: {mix_fast} vs {mix_slow}",
            self.label
        );
    }
}

// ---------------------------------------------------------------------------
// X8 — wide-schema workloads (the `wide_schema` bench)
// ---------------------------------------------------------------------------

/// The dense side of a [`WideWorkload`]: only built where the joint is
/// small enough to materialise (the pre-factored serve path).
#[derive(Debug)]
struct DenseSide {
    model: LogLinearModel,
    joint: JointDistribution,
    lattice: MarginalLattice,
}

/// A factored-vs-dense workload at one schema width.
///
/// Fits the same maxent problem (first-order constraints plus a handful of
/// pairwise ones) with the factored kernel and — where the joint is small
/// enough — the dense CSR kernel, then evaluates the serve read mix two
/// ways:
///
/// * **factored**: lattice hit when covered, [`FactorGraph`] elimination on
///   a miss — the wide-snapshot read path;
/// * **dense**: lattice hit when covered, dense-joint stride walk on a miss
///   — the read path before factored evaluation existed, and the one that
///   simply cannot exist above the dense ceiling.
///
/// The 20-attribute constructor has no dense side at all: its joint
/// (2^20 cells) is past the default ceiling, which is the point.
#[derive(Debug)]
pub struct WideWorkload {
    label: &'static str,
    criteria: ConvergenceCriteria,
    constraints: ConstraintSet,
    model: LogLinearModel,
    graph: FactorGraph,
    lattice: MarginalLattice,
    dense: Option<DenseSide>,
    /// Order ≤ 2 probes, all covered by the lattice.
    covered: Vec<Assignment>,
    /// Order-3 probes, all of which miss the lattice (the fallback).
    fallback: Vec<Assignment>,
}

impl WideWorkload {
    /// The memo's 3-attribute survey schema (12 cells).
    pub fn paper() -> Self {
        Self::from_counts("paper_3x2x2", &[3, 2, 2])
    }

    /// 4 attributes, 144 cells — the mid-size acceptance point.
    pub fn medium() -> Self {
        Self::from_counts("medium_4x4x3x3", &[4, 4, 3, 3])
    }

    /// 4 attributes, 480 cells — the large acceptance point.
    pub fn large() -> Self {
        Self::from_counts("large_6x5x4x4", &[6, 5, 4, 4])
    }

    /// 8 binary attributes (256 cells): both kernels still run.
    pub fn wide8() -> Self {
        Self::from_wide("wide_2pow8", 8, 2000)
    }

    /// 12 binary attributes (4096 cells): both kernels still run.
    pub fn wide12() -> Self {
        Self::from_wide("wide_2pow12", 12, 2000)
    }

    /// 20 binary attributes (2^20 cells): past the dense ceiling, so the
    /// workload is factored-only — the dense side would be a megacell
    /// allocation per snapshot.
    pub fn wide20() -> Self {
        Self::from_wide("wide_2pow20", 20, 500)
    }

    fn from_counts(label: &'static str, cards: &[usize]) -> Self {
        let schema = Schema::uniform(cards).expect("schema valid").into_shared();
        let counts = synthetic_counts(&schema, 11);
        let table = ContingencyTable::from_counts(Arc::clone(&schema), counts).expect("valid");
        Self::build(label, &table)
    }

    fn from_wide(label: &'static str, attributes: usize, samples: u64) -> Self {
        let experiment = WideExperiment::generate(attributes, 2, 4, 5.0, &mut seeded_rng(31));
        let table = experiment.sample_table(samples, &mut seeded_rng(32));
        Self::build(label, &table)
    }

    fn build(label: &'static str, table: &ContingencyTable) -> Self {
        let schema = table.shared_schema();
        let criteria = ConvergenceCriteria::new().with_tolerance(1e-13).with_max_iterations(5000);

        // First-order constraints plus a ring of pairwise ones, so the
        // factored problem has real (but bounded-width) structure.
        let mut constraints = ConstraintSet::first_order_from_table(table).expect("valid table");
        for attr in 0..schema.len().min(4) {
            let next = (attr + 1) % schema.len();
            let assignment = Assignment::from_pairs([(attr.min(next), 0), (attr.max(next), 0)]);
            constraints.add_from_table(table, assignment).expect("pair in schema");
        }

        let (model, report) = Solver::new(criteria)
            .with_dense_ceiling(0)
            .fit(&constraints)
            .expect("factored fit succeeds");
        assert!(report.converged, "{label}: factored kernel must converge");
        let graph = FactorGraph::from_model(&model);
        let lattice = MarginalLattice::build(
            &Evaluator::Factored(graph.clone()),
            pka_maxent::DEFAULT_LATTICE_ORDER,
        );

        // The dense side only exists below the default ceiling (all sizes
        // here except 2^20), fitted by the CSR kernel as before this PR.
        let dense = (!is_factored(&schema, pka_maxent::DEFAULT_DENSE_CEILING)).then(|| {
            let (dense_model, dense_report) =
                Solver::new(criteria).fit(&constraints).expect("dense fit succeeds");
            assert!(dense_report.converged, "{label}: dense kernel must converge");
            let joint = dense_model.to_joint();
            let lattice = MarginalLattice::build(
                &Evaluator::Dense(joint.clone()),
                pka_maxent::DEFAULT_LATTICE_ORDER,
            );
            DenseSide { model: dense_model, joint, lattice }
        });

        // Probes: every order-1 cell, order-2 cells over a bounded varset
        // sample, and order-3 fallback probes that miss the lattice.
        let mut covered = Vec::new();
        for vars in schema.all_vars().subsets_of_size(1) {
            for values in schema.configurations(vars) {
                covered.push(Assignment::new(vars, values));
            }
        }
        for vars in schema.all_vars().subsets_of_size(2).into_iter().take(64) {
            for values in schema.configurations(vars) {
                covered.push(Assignment::new(vars, values));
            }
        }
        let mut fallback = Vec::new();
        for (i, vars) in schema.all_vars().subsets_of_size(3).into_iter().take(24).enumerate() {
            let values: Vec<usize> = vars
                .iter()
                .enumerate()
                .map(|(pos, attr)| (i + pos) % schema.cardinality(attr).expect("in schema"))
                .collect();
            fallback.push(Assignment::new(vars, values));
        }

        Self { label, criteria, constraints, model, graph, lattice, dense, covered, fallback }
    }

    /// The workload's display label (`wide_2pow20`, …).
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// Whether a dense side exists (false only past the dense ceiling).
    pub fn has_dense(&self) -> bool {
        self.dense.is_some()
    }

    /// Probe counts: `(covered, fallback)`.
    pub fn probe_counts(&self) -> (usize, usize) {
        (self.covered.len(), self.fallback.len())
    }

    /// Every covered (order ≤ 2) probe through the factored snapshot's
    /// lattice.  The tables were built by elimination instead of dense
    /// summation, but a lookup is a lookup — this is the head-to-head for
    /// the "factored path within 2× of the lattice" acceptance point.
    pub fn covered_factored(&self) -> f64 {
        self.covered.iter().map(|a| self.lattice.probability(a).expect("covered probe")).sum()
    }

    /// Every covered probe through the dense snapshot's lattice; `None`
    /// past the ceiling.
    pub fn covered_dense(&self) -> Option<f64> {
        let side = self.dense.as_ref()?;
        Some(self.covered.iter().map(|a| side.lattice.probability(a).expect("covered")).sum())
    }

    /// Every fallback (order-3, uncovered) probe by variable elimination —
    /// what a lattice miss costs on a factored snapshot.
    pub fn fallback_factored(&self) -> f64 {
        self.fallback.iter().map(|a| self.graph.probability(a)).sum()
    }

    /// Every fallback probe by the dense-joint stride walk — what a miss
    /// cost before this PR; `None` past the ceiling, where no dense joint
    /// exists to walk.
    pub fn fallback_dense(&self) -> Option<f64> {
        let side = self.dense.as_ref()?;
        Some(self.fallback.iter().map(|a| side.joint.probability(a)).sum())
    }

    /// One factored fit from scratch (what a wide refit pays).
    pub fn fit_factored(&self) -> SolveReport {
        let (_, report) = Solver::new(self.criteria)
            .with_dense_ceiling(0)
            .fit(&self.constraints)
            .expect("factored fit succeeds");
        report
    }

    /// One dense CSR fit from scratch; `None` past the ceiling.
    pub fn fit_dense(&self) -> Option<SolveReport> {
        self.dense.as_ref()?;
        let (_, report) = Solver::new(self.criteria).fit(&self.constraints).expect("dense fit");
        Some(report)
    }

    /// Largest per-cell gap between the factored and dense fixed points;
    /// `None` past the ceiling (nothing to compare against).
    pub fn max_fixed_point_delta(&self) -> Option<f64> {
        let side = self.dense.as_ref()?;
        let factored = self.model.dense_probabilities();
        let dense = side.model.dense_probabilities();
        Some(factored.iter().zip(&dense).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max))
    }

    /// Correctness gate (runs in CI smoke mode too): wherever both paths
    /// run they agree ≤ 1e-9 per probe and at the fixed point, and the
    /// fallback probes really do miss the lattice.
    pub fn assert_paths_agree(&self) {
        for a in &self.fallback {
            assert_eq!(
                self.lattice.probability(a),
                None,
                "{}: order-3 probe unexpectedly covered",
                self.label
            );
        }
        let Some(side) = self.dense.as_ref() else {
            // Factored-only: the mix must still be well-formed probability
            // mass.
            let total = self.covered_factored() + self.fallback_factored();
            assert!(total.is_finite() && total >= 0.0, "{}: broken factored mix", self.label);
            return;
        };
        for a in self.covered.iter().chain(&self.fallback) {
            let factored = match self.lattice.probability(a) {
                Some(p) => p,
                None => self.graph.probability(a),
            };
            let dense = match side.lattice.probability(a) {
                Some(p) => p,
                None => side.joint.probability(a),
            };
            assert!(
                (factored - dense).abs() <= 1e-9,
                "{}: paths diverged on {a:?}: {factored} vs {dense}",
                self.label
            );
        }
        let delta = self.max_fixed_point_delta().expect("dense side exists");
        assert!(delta <= 1e-9, "{}: fixed points diverged by {delta}", self.label);
    }
}

// ---------------------------------------------------------------------------
// X5 — constraint-selection ablation (MML vs chi-square vs G-test)
// ---------------------------------------------------------------------------

/// One row of the ablation: which cells each selection rule promotes on the
/// same data.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Selection rule name.
    pub rule: &'static str,
    /// Constraints promoted (order ≥ 2), in promotion order.
    pub selected: Vec<Assignment>,
}

/// Experiment X5: run the memo's message-length selection and the classical
/// χ²/G-test selections (at `alpha`) on the same table, restricted to second
/// order, and report what each promoted.
pub fn ablation_selection(table: &ContingencyTable, alpha: f64) -> Vec<AblationRow> {
    let mml = Acquisition::new(AcquisitionConfig::new().with_max_order(2))
        .run(table)
        .expect("acquisition succeeds");
    let mml_selected: Vec<Assignment> =
        mml.knowledge_base.significant_constraints().iter().map(|c| c.assignment.clone()).collect();

    let chi = Chi2Miner::new(alpha, SelectionRule::ChiSquare, 2)
        .run(table)
        .expect("miner succeeds")
        .1
        .into_iter()
        .map(|m| m.assignment)
        .collect();
    let g = Chi2Miner::new(alpha, SelectionRule::GTest, 2)
        .run(table)
        .expect("miner succeeds")
        .1
        .into_iter()
        .map(|m| m.assignment)
        .collect();

    vec![
        AblationRow { rule: "minimum-message-length", selected: mml_selected },
        AblationRow { rule: "chi-square", selected: chi },
        AblationRow { rule: "g-test", selected: g },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_matches_the_embedded_counts() {
        let t = fig1_contingency();
        assert_eq!(t.total(), smoking::TOTAL);
        assert_eq!(t.counts(), smoking::table().counts());
    }

    #[test]
    fn fig2_produces_all_marginals() {
        let t = smoking::table();
        let marginals = fig2_marginals(&t);
        // 3 first-order + 3 second-order + the grand total.
        assert_eq!(marginals.len(), 7);
        assert!(marginals.iter().all(|m| m.sum() == smoking::TOTAL));
    }

    #[test]
    fn eq57_fit_is_the_independence_model() {
        let t = smoking::table();
        let (model, report) = eq57_initial_model(&t);
        assert!(report.converged);
        let p = model.probability(&Assignment::from_pairs([(0, 0), (1, 0)]));
        assert!((p - (1290.0 / 3428.0) * (433.0 / 3428.0)).abs() < 1e-9);
    }

    #[test]
    fn table1_has_sixteen_rows_and_the_memo_verdicts() {
        let t = smoking::table();
        let round = table1_significance(&t);
        assert_eq!(round.evaluations.len(), 16);
        // The memo's strongly significant cells (m2 − m1 around −10 or
        // below) all live in the AB and AC tables; the BC table contributes
        // at most the marginal BC_12 row (m2 − m1 = −0.21 in the memo).
        let mut by_delta: Vec<_> = round.evaluations.iter().collect();
        by_delta.sort_by(|a, b| a.delta.partial_cmp(&b.delta).unwrap());
        let bc = VarSet::from_indices([1, 2]);
        for strong in by_delta.iter().take(3) {
            assert!(strong.significant);
            assert_ne!(strong.assignment.vars(), bc, "a BC cell ranked in the top three");
        }
        // BC_11 is more than 3 sd out yet not significant (the memo's point).
        let bc11 = round
            .evaluations
            .iter()
            .find(|e| e.assignment == Assignment::from_pairs([(1, 0), (2, 0)]))
            .unwrap();
        assert!(!bc11.significant);
    }

    #[test]
    fn table2_trace_converges_to_the_constraint() {
        let t = smoking::table();
        let report = table2_iteration(&t, 1e-3);
        assert!(report.converged);
        assert!(report.iterations <= 20);
        assert!(!report.trace.is_empty());
    }

    #[test]
    fn recovery_improves_with_sample_size() {
        let small = recovery_experiment(300, 6.0, 2, 42);
        let large = recovery_experiment(20_000, 6.0, 2, 42);
        assert!(large.varset_recovery >= small.varset_recovery);
        assert!(large.varset_recovery > 0.0);
    }

    #[test]
    fn baseline_comparison_has_expected_shape() {
        let rows = baseline_comparison(4000, 1000, 7);
        assert_eq!(rows.len(), 3);
        let get = |name: &str| rows.iter().find(|r| r.method == name).unwrap();
        let maxent = get("maxent-acquisition");
        let independence = get("independence");
        // The acquired model must beat the independence baseline on both
        // divergence from the truth and held-out likelihood.
        assert!(maxent.kl_from_truth < independence.kl_from_truth);
        assert!(maxent.held_out_log_loss <= independence.held_out_log_loss + 1e-9);
        assert!(maxent.extra_parameters > 0);
        assert_eq!(independence.extra_parameters, 0);
    }

    #[test]
    fn ablation_rules_agree_on_the_strong_structure() {
        let t = smoking::table();
        let rows = ablation_selection(&t, 0.001);
        assert_eq!(rows.len(), 3);
        let mml = &rows[0];
        assert!(!mml.selected.is_empty());
        // Every rule finds at least one constraint involving smoking (A).
        for row in &rows {
            assert!(
                row.selected.iter().any(|a| a.vars().contains(0)),
                "rule {} found nothing involving smoking",
                row.rule
            );
        }
    }

    #[test]
    fn scaling_workload_shapes() {
        let t = scaling_workload(4, 3, 2000, 3);
        assert_eq!(t.schema().len(), 4);
        assert_eq!(t.total(), 2000);
        let _found = scaling_acquisition(&t);
    }

    #[test]
    fn query_eval_workload_paths_agree() {
        let w = QueryEvalWorkload::paper();
        w.assert_paths_agree();
        let (marginals, conditionals, fallback) = w.probe_counts();
        // 3 first-order tables (3+2+2 cells) + 3 second-order (6+6+4).
        assert_eq!(marginals, 23);
        assert_eq!(conditionals, 6);
        assert_eq!(fallback, 1);
        // The summed answers are finite and positive.
        assert!(w.marginals_lattice() > 0.0);
        assert!(w.batch_mix_lattice().is_finite());
    }

    #[test]
    fn sweep_workload_scenarios_run_and_agree() {
        let w = SweepWorkload::paper();
        w.assert_kernels_agree();
        let mut cache = IncidenceCache::new();
        let primed = w.warm_refit_fast(&mut cache);
        assert!(primed.converged);
        let before = cache.stats();
        let steady = w.warm_refit_fast(&mut cache);
        assert!(steady.converged);
        assert_eq!(cache.stats().rebuilds, before.rebuilds, "steady refit must not rebuild");
        assert!(cache.stats().full_hits > before.full_hits, "steady refit must hit the cache");
        let promotion = w.promotion_refit_fast(&mut cache);
        assert!(promotion.converged);
        assert_eq!(cache.stats().extensions, before.extensions + 1, "promotion extends the CSR");
        // The warm refit really does work (the perturbed batch shifted the
        // targets) — the steady-state scenario the bench times is never a
        // trivial zero-sweep early return.
        assert!(steady.iterations >= 1);
    }
}
