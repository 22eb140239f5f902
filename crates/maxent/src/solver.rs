//! The iterative a-value computation of Figure 4 / Table 2, as a flat,
//! cache-friendly kernel.
//!
//! The memo derives, by hand, a specific iteration order for its worked
//! example (Eqs. 75–87).  The general form implemented here is the classic
//! *cyclic multiplicative update* (iterative proportional fitting applied to
//! individual constraint cells): for every constraint `c` in turn, compute
//! the probability `q_c` the current model assigns the constrained cell and
//! multiply the constraint's a-value by `target_c / q_c`, then renormalise
//! through `a0`.  For a consistent constraint set this converges to the
//! unique maximum-entropy distribution satisfying all constraints — the same
//! fixed point the memo's hand-derived iteration reaches — and the
//! per-sweep trace reproduces the behaviour shown in Table 2 (convergence of
//! the fitted `p^{AC}_{12}` to 0.219 in a handful of sweeps).
//!
//! ## The deferred-normalization invariant
//!
//! The textbook update renormalises the whole dense vector after **every**
//! constraint — an `O(cells)` scan per constraint, `O(constraints × cells)`
//! per sweep.  This kernel instead keeps the dense vector `p` *unnormalised*
//! for the duration of a sweep and tracks its total mass `z` as a scalar:
//!
//! * the normalised probability of constraint `c` is `q = (Σ_{i∈c} p_i) / z`,
//!   so the update ratio `target / q` is **identical** (in exact arithmetic)
//!   to the one the eagerly-normalised iteration would compute — the global
//!   normaliser cancels out of every ratio;
//! * scaling `c`'s cells by `ratio` changes the mass by exactly
//!   `q_raw · (ratio − 1)`, so `z` is maintained in `O(1)` per update;
//! * one `O(cells)` renormalisation at the end of the sweep (dividing `p` by
//!   `z` and folding `1/z` into `a0`) restores `Σ p = 1`, so traces, the
//!   convergence check and the returned model are exactly the quantities the
//!   eager iteration produces.  The returned model takes one more exact
//!   re-sum of `p`, so its mass is one to rounding on both kernels (the
//!   factored kernel divides by the exact partition sum every sweep).
//!
//! Because every update ratio matches the eager iteration's ratio up to
//! floating-point rounding, the two iterations follow the same trajectory
//! and reach the same fixed point; the per-cell difference after a fit is
//! bounded by accumulated rounding (≤ 1e-12 in practice, property-tested in
//! `tests/solver_equivalence.rs` against [`mod@reference`]).  To keep the
//! incrementally-tracked `z` from drifting over very long fits, the kernel
//! re-sums the vector exactly every `EXACT_RENORM_EVERY` sweeps.
//!
//! Incidence structure (which dense cells each constraint covers) lives in a
//! flat CSR layout ([`IncidenceCache`]) so the gather/scale loops of the
//! sweep run over contiguous `u32` index slices, and the dense working
//! vector is initialised by *scatter* — fill with `a0`, then scale each
//! factor's incidence slice — instead of evaluating the `O(factors)` product
//! per cell.
//!
//! The solver supports warm starts ("starting with the last previously
//! calculated a values", as the memo instructs when a new constraint is
//! added) via [`fit_with_initial`].

use crate::constraint::{Constraint, ConstraintSet};
use crate::convergence::{ConvergenceCriteria, IterationRecord, SolveReport};
use crate::elimination::FactorGraph;
use crate::error::MaxEntError;
use crate::evaluator::{is_factored, DEFAULT_DENSE_CEILING};
use crate::model::LogLinearModel;
use crate::Result;
use pka_contingency::{Assignment, Schema, VarSet};
use std::sync::Arc;

/// Constraint targets smaller than this are treated as exactly zero when the
/// model has already driven the cell's probability to zero.
const ZERO_TARGET: f64 = 1e-300;

/// Every this many sweeps the incrementally-tracked total mass is replaced
/// by an exact re-sum of the dense vector, bounding floating-point drift of
/// the deferred normalisation (see the module docs).
const EXACT_RENORM_EVERY: usize = 16;

/// Cumulative reuse counters of an [`IncidenceCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Fits served entirely from cached incidence lists (identical
    /// constraint set, or a prefix of a previously cached one).
    pub full_hits: u64,
    /// Fits where the cached lists covered a leading prefix and only the
    /// appended constraints' incidence had to be computed.
    pub extensions: u64,
    /// Fits that had to rebuild every incidence list (different schema or a
    /// divergent constraint set).
    pub rebuilds: u64,
}

/// A reusable cache of constraint-to-cell incidence lists in CSR form.
///
/// For every constraint the solver needs the dense indices of the cells its
/// assignment covers.  The lists are pure structure — independent of the
/// constraint *probabilities* and of the model being fitted — and warm
/// refits over a stream re-solve the same (or a one-longer) constraint set
/// over and over, so a long-lived engine keeps one `IncidenceCache` and
/// hands it to every fit:
///
/// * identical assignments (the steady-state warm refit) → full hit, zero
///   structural work;
/// * the acquisition loop promoting one cell → the cached lists are a
///   prefix; only the new constraint's cells are enumerated;
/// * a shorter set that is a prefix of the cached one (e.g. a cold restart
///   after promotions) → the cache is truncated, still no rescan;
/// * anything else (new schema, divergent set) → full rebuild.
///
/// Storage is a flat `offsets`/`indices` pair (compressed sparse rows):
/// constraint `ci` covers `indices[offsets[ci]..offsets[ci+1]]`.  The flat
/// layout keeps the solver's gather/scale loops on contiguous memory, and
/// each list is built by stride arithmetic
/// ([`Schema::matching_cells`]) in `O(covered cells)` — adding one
/// constraint never rescans the whole table.
#[derive(Debug, Clone)]
pub struct IncidenceCache {
    schema: Option<Arc<Schema>>,
    assignments: Vec<Assignment>,
    /// CSR row boundaries: `offsets.len() == assignments.len() + 1`,
    /// `offsets[0] == 0`.
    offsets: Vec<u32>,
    /// Concatenated dense cell indices, ascending within each constraint.
    indices: Vec<u32>,
    stats: CacheStats,
}

impl Default for IncidenceCache {
    fn default() -> Self {
        Self {
            schema: None,
            assignments: Vec::new(),
            offsets: vec![0],
            indices: Vec::new(),
            stats: CacheStats::default(),
        }
    }
}

/// A borrowed view of an [`IncidenceCache`]'s CSR storage for one
/// constraint set: `list(ci)` is the ascending dense cell indices covered
/// by constraint `ci`.
#[derive(Debug, Clone, Copy)]
pub struct CsrIncidence<'a> {
    offsets: &'a [u32],
    indices: &'a [u32],
}

impl<'a> CsrIncidence<'a> {
    /// Number of constraints covered by the view.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the view covers no constraints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense cell indices covered by constraint `ci`, ascending.
    pub fn list(&self, ci: usize) -> &'a [u32] {
        &self.indices[self.offsets[ci] as usize..self.offsets[ci + 1] as usize]
    }
}

impl IncidenceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cumulative hit/extension/rebuild counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Ensures the cache covers exactly `constraints` over `schema` and
    /// returns the CSR view, reusing cached structure where the schema and
    /// the leading assignments match (see the type docs for the hit /
    /// extension / truncation / rebuild cases).
    pub fn ensure(&mut self, schema: &Arc<Schema>, constraints: &[Constraint]) -> CsrIncidence<'_> {
        let schema_matches = self
            .schema
            .as_ref()
            .is_some_and(|s| Arc::ptr_eq(s, schema) || s.as_ref() == schema.as_ref());
        let shared_prefix = if schema_matches {
            self.assignments
                .iter()
                .zip(constraints)
                .take_while(|(cached, c)| **cached == c.assignment)
                .count()
        } else {
            0
        };

        if schema_matches && shared_prefix == self.assignments.len() {
            // Cached lists are a (possibly complete) prefix of the request.
            if constraints.len() == shared_prefix {
                self.stats.full_hits += 1;
            } else {
                self.stats.extensions += 1;
                self.extend_with(schema, &constraints[shared_prefix..]);
            }
        } else if schema_matches && shared_prefix == constraints.len() {
            // The request is a strict prefix of the cache: truncate.
            self.assignments.truncate(shared_prefix);
            self.offsets.truncate(shared_prefix + 1);
            self.indices.truncate(self.offsets[shared_prefix] as usize);
            self.stats.full_hits += 1;
        } else {
            self.stats.rebuilds += 1;
            self.schema = Some(Arc::clone(schema));
            self.assignments.clear();
            self.offsets.clear();
            self.offsets.push(0);
            self.indices.clear();
            self.extend_with(schema, constraints);
        }
        CsrIncidence { offsets: &self.offsets, indices: &self.indices }
    }

    /// Appends one CSR row per added constraint, each enumerated directly by
    /// stride arithmetic.  The added constraints form the **outer** loop, so
    /// a single promotion costs `O(its covered cells)` — there is no
    /// per-cell inner scan over all appended constraints.
    fn extend_with(&mut self, schema: &Arc<Schema>, added: &[Constraint]) {
        for c in added {
            self.indices.extend(schema.matching_cells(&c.assignment).map(|i| i as u32));
            // A loud capacity limit: a wrapped cast would silently corrupt
            // every row boundary after it.
            let end = u32::try_from(self.indices.len())
                .expect("incidence cache exceeded u32::MAX total covered cells");
            self.offsets.push(end);
            self.assignments.push(c.assignment.clone());
        }
    }
}

/// The iterative-scaling solver.
///
/// Two kernels share one contract: the dense CSR kernel (this module's
/// namesake) sweeps a dense `p` vector, and the **factored** kernel updates
/// a-values from [`FactorGraph`] marginals computed by variable elimination,
/// never materialising the joint.  [`Solver::fit_from_cached`] picks the
/// kernel automatically: dense at or below [`Solver::dense_ceiling`] cells
/// (where one O(cells) sweep is cheaper), factored above it (where the dense
/// vector would not even fit).  Both converge to the same unique
/// maximum-entropy fixed point; `tests/solver_equivalence.rs` property-tests
/// them against each other to ≤ 1e-9 wherever both run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Solver {
    criteria: ConvergenceCriteria,
    dense_ceiling: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Self { criteria: ConvergenceCriteria::default(), dense_ceiling: DEFAULT_DENSE_CEILING }
    }
}

impl Solver {
    /// Creates a solver with the given convergence criteria and the default
    /// dense ceiling.
    pub fn new(criteria: ConvergenceCriteria) -> Self {
        Self { criteria, dense_ceiling: DEFAULT_DENSE_CEILING }
    }

    /// The criteria in use.
    pub fn criteria(&self) -> ConvergenceCriteria {
        self.criteria
    }

    /// Sets the cell count above which fits run the factored kernel
    /// instead of the dense CSR kernel.  `0` forces factored everywhere;
    /// `usize::MAX` forces dense everywhere.
    pub fn with_dense_ceiling(mut self, cells: usize) -> Self {
        self.dense_ceiling = cells;
        self
    }

    /// The cell count above which the factored kernel is selected.
    pub fn dense_ceiling(&self) -> usize {
        self.dense_ceiling
    }

    /// Fits a model from scratch: all a-values start at 1 and `a0` at
    /// `1 / (number of cells)`, i.e. the uniform distribution (the maximum
    /// entropy distribution with no constraints at all).
    pub fn fit(&self, constraints: &ConstraintSet) -> Result<(LogLinearModel, SolveReport)> {
        let model = LogLinearModel::uniform(constraints.shared_schema());
        self.fit_from(model, constraints)
    }

    /// Fits a model starting from the a-values of a previously fitted model
    /// (Figure 4's warm start).  Factors for constraints the initial model
    /// does not know yet are created with the neutral value 1.
    pub fn fit_from(
        &self,
        model: LogLinearModel,
        constraints: &ConstraintSet,
    ) -> Result<(LogLinearModel, SolveReport)> {
        self.fit_from_cached(model, constraints, &mut IncidenceCache::new())
    }

    /// [`Solver::fit_from`] with a caller-owned [`IncidenceCache`], so the
    /// constraint-to-cell incidence lists survive across fits.  A streaming
    /// engine refitting an unchanged (or incrementally grown) constraint
    /// set skips the structural pass entirely.
    ///
    /// Joints above [`Solver::dense_ceiling`] cells are routed to the
    /// factored kernel ([`Solver::fit_factored`]); the cache is untouched in
    /// that case — the factored kernel needs no incidence lists.
    pub fn fit_from_cached(
        &self,
        mut model: LogLinearModel,
        constraints: &ConstraintSet,
        cache: &mut IncidenceCache,
    ) -> Result<(LogLinearModel, SolveReport)> {
        if is_factored(constraints.schema(), self.dense_ceiling) {
            return self.fit_factored(model, constraints);
        }
        if model.schema() != constraints.schema() {
            return Err(MaxEntError::InfeasibleConstraints {
                reason: "initial model and constraints use different schemas".to_string(),
            });
        }
        constraints.check_feasibility(1e-6)?;

        let schema = constraints.shared_schema();
        let cells = schema.cell_count();

        // Ensure every constraint has a factor slot, remembering its index.
        let factor_positions: Vec<usize> =
            constraints.constraints().iter().map(|c| model.ensure_factor(&c.assignment)).collect();

        // The CSR incidence lists — served from the cache when the
        // constraint set's shape is unchanged.
        let csr = cache.ensure(&schema, constraints.constraints());

        // Dense working copy of the model's cell probabilities, built by
        // scatter: fill with a0, then scale each factor's covered slice.
        // O(cells + Σ covered) instead of an O(factors) product per cell.
        let mut p: Vec<f64> = vec![model.a0(); cells];
        let mut covered = vec![false; model.factor_count()];
        for (ci, &position) in factor_positions.iter().enumerate() {
            covered[position] = true;
            let value = model.factors()[position].1;
            if value != 1.0 {
                for &i in csr.list(ci) {
                    p[i as usize] *= value;
                }
            }
        }
        // Factors the constraint set does not mention (possible when warm
        // starting from a richer model) are scattered by direct enumeration.
        for (position, (assignment, value)) in model.factors().iter().enumerate() {
            if !covered[position] && *value != 1.0 {
                for i in schema.matching_cells(assignment) {
                    p[i] *= value;
                }
            }
        }
        let z: f64 = p.iter().sum();
        renormalize(&mut model, &mut p, z)?;

        // One post-normalisation gather gives every constraint's fitted
        // probability; the convergence check and the trace both read it, so
        // nothing is ever re-summed.
        let mut fitted = vec![0.0f64; csr.len()];
        gather_fitted(csr, &p, &mut fitted);
        let mut max_violation = max_violation_of(constraints, &fitted);

        let mut trace = Vec::new();
        let mut iterations = 0usize;

        // Already satisfied (e.g. refitting an unchanged constraint set).
        if max_violation <= self.criteria.tolerance {
            if self.criteria.record_trace {
                trace.push(record_of(0, &model, &fitted, max_violation));
            }
            return Ok((
                model,
                SolveReport { iterations: 0, max_violation, converged: true, trace },
            ));
        }

        for iteration in 1..=self.criteria.max_iterations {
            iterations = iteration;
            // `p` is normalised at sweep entry; `z` tracks its total mass as
            // updates scale constraint slices (deferred normalisation).
            let mut z = 1.0f64;
            for (ci, c) in constraints.constraints().iter().enumerate() {
                let slice = csr.list(ci);
                let q_raw: f64 = slice.iter().map(|&i| p[i as usize]).sum();
                let q = q_raw / z;
                let target = c.probability;
                if (q - target).abs() <= f64::EPSILON {
                    continue;
                }
                if q <= 0.0 {
                    if target > ZERO_TARGET {
                        return Err(MaxEntError::InfeasibleConstraints {
                            reason: format!(
                                "constraint {} requires probability {target} but the model assigns its cell zero mass",
                                c.assignment.describe(constraints.schema())
                            ),
                        });
                    }
                    continue;
                }
                let ratio = target / q;
                model.scale_factor(factor_positions[ci], ratio);
                for &i in slice {
                    p[i as usize] *= ratio;
                }
                // Scaling the slice changes the mass by exactly
                // q_raw · (ratio − 1); the O(cells) re-sum is deferred.
                z += q_raw * (ratio - 1.0);
                if !(z > 0.0) || !z.is_finite() {
                    return Err(MaxEntError::InfeasibleConstraints {
                        reason: format!("model mass became {z} during fitting"),
                    });
                }
            }

            // The one O(cells) pass of the sweep: renormalise using the
            // tracked mass, with a periodic exact re-sum to bound drift.
            let divisor =
                if iteration % EXACT_RENORM_EVERY == 0 { p.iter().sum::<f64>() } else { z };
            renormalize(&mut model, &mut p, divisor)?;

            gather_fitted(csr, &p, &mut fitted);
            max_violation = max_violation_of(constraints, &fitted);
            if self.criteria.record_trace {
                trace.push(record_of(iteration, &model, &fitted, max_violation));
            }
            if max_violation <= self.criteria.tolerance {
                settle(&mut model, &p);
                return Ok((
                    model,
                    SolveReport { iterations, max_violation, converged: true, trace },
                ));
            }
        }

        if self.criteria.fail_on_max_iterations {
            return Err(MaxEntError::NotConverged {
                iterations,
                max_violation,
                tolerance: self.criteria.tolerance,
            });
        }
        // Best-effort result: constraint sets with boundary (zero-probability)
        // solutions converge only in the limit; the near-boundary model is
        // still the correct answer to working precision.
        if self.criteria.record_trace && trace.is_empty() {
            trace.push(record_of(iterations, &model, &fitted, max_violation));
        }
        settle(&mut model, &p);
        Ok((model, SolveReport { iterations, max_violation, converged: false, trace }))
    }

    /// The **factored** iterative-scaling kernel: the same cyclic
    /// multiplicative update, but every fitted probability comes from a
    /// [`FactorGraph`] marginal (variable elimination over a min-fill
    /// order) instead of a dense vector gather — no O(cells) allocation
    /// anywhere.
    ///
    /// Constraints sharing a variable set are served from **one** eliminated
    /// marginal table per sweep, so a sweep costs
    /// `O(distinct varsets × elimination)` — exponential only in the induced
    /// width of the constraint graph, independent of the total cell count.
    /// The fixed point is the unique maximum-entropy distribution for the
    /// constraint set, i.e. the same model the dense kernel converges to
    /// (property-tested ≤ 1e-9 in `tests/solver_equivalence.rs`); the sweep
    /// *count* may differ because violations are re-measured from exact
    /// marginals each sweep.
    pub fn fit_factored(
        &self,
        mut model: LogLinearModel,
        constraints: &ConstraintSet,
    ) -> Result<(LogLinearModel, SolveReport)> {
        if model.schema() != constraints.schema() {
            return Err(MaxEntError::InfeasibleConstraints {
                reason: "initial model and constraints use different schemas".to_string(),
            });
        }
        constraints.check_feasibility(1e-6)?;

        let schema = constraints.shared_schema();
        let factor_positions: Vec<usize> =
            constraints.constraints().iter().map(|c| model.ensure_factor(&c.assignment)).collect();

        // Group constraints by variable set (first-seen order) and
        // precompute each constraint's row-major index into its group's
        // marginal table, so one elimination per varset serves every
        // constraint in the group.
        let mut groups: Vec<(VarSet, Vec<usize>)> = Vec::new();
        for (ci, c) in constraints.constraints().iter().enumerate() {
            let vars = c.assignment.vars();
            match groups.iter_mut().find(|(v, _)| *v == vars) {
                Some((_, list)) => list.push(ci),
                None => groups.push((vars, vec![ci])),
            }
        }
        let table_indices: Vec<usize> = constraints
            .constraints()
            .iter()
            .map(|c| schema.config_index(c.assignment.vars(), c.assignment.values()))
            .collect();

        let mut graph = FactorGraph::from_model(&model);
        renormalize_factored(&mut model, &mut graph)?;

        // One marginal pass gives every constraint's fitted probability; the
        // convergence check and the trace both read it.
        let mut fitted = vec![0.0f64; constraints.len()];
        let gather = |graph: &FactorGraph, fitted: &mut [f64]| {
            for (vars, group) in &groups {
                let table = graph.marginal(*vars);
                for &ci in group {
                    fitted[ci] = table[table_indices[ci]];
                }
            }
        };
        gather(&graph, &mut fitted);
        let mut max_violation = max_violation_of(constraints, &fitted);

        let mut trace = Vec::new();
        let mut iterations = 0usize;

        if max_violation <= self.criteria.tolerance {
            if self.criteria.record_trace {
                trace.push(record_of(0, &model, &fitted, max_violation));
            }
            return Ok((
                model,
                SolveReport { iterations: 0, max_violation, converged: true, trace },
            ));
        }

        for iteration in 1..=self.criteria.max_iterations {
            iterations = iteration;
            for (vars, group) in &groups {
                let table = graph.marginal(*vars);
                for &ci in group {
                    let c = &constraints.constraints()[ci];
                    let q = table[table_indices[ci]];
                    let target = c.probability;
                    if (q - target).abs() <= f64::EPSILON {
                        continue;
                    }
                    if q <= 0.0 {
                        if target > ZERO_TARGET {
                            return Err(MaxEntError::InfeasibleConstraints {
                                reason: format!(
                                    "constraint {} requires probability {target} but the model assigns its cell zero mass",
                                    c.assignment.describe(constraints.schema())
                                ),
                            });
                        }
                        continue;
                    }
                    let ratio = target / q;
                    let position = factor_positions[ci];
                    model.scale_factor(position, ratio);
                    graph.set_factor_value(position, model.factors()[position].1);
                }
            }
            renormalize_factored(&mut model, &mut graph)?;

            gather(&graph, &mut fitted);
            max_violation = max_violation_of(constraints, &fitted);
            if self.criteria.record_trace {
                trace.push(record_of(iteration, &model, &fitted, max_violation));
            }
            if max_violation <= self.criteria.tolerance {
                return Ok((
                    model,
                    SolveReport { iterations, max_violation, converged: true, trace },
                ));
            }
        }

        if self.criteria.fail_on_max_iterations {
            return Err(MaxEntError::NotConverged {
                iterations,
                max_violation,
                tolerance: self.criteria.tolerance,
            });
        }
        if self.criteria.record_trace && trace.is_empty() {
            trace.push(record_of(iterations, &model, &fitted, max_violation));
        }
        Ok((model, SolveReport { iterations, max_violation, converged: false, trace }))
    }
}

/// Folds the current partition sum into `a0`, keeping model and graph in
/// lock-step — the factored kernel's per-sweep renormalisation.
fn renormalize_factored(model: &mut LogLinearModel, graph: &mut FactorGraph) -> Result<()> {
    let z = graph.partition();
    if !(z > 0.0) || !z.is_finite() {
        return Err(MaxEntError::InfeasibleConstraints {
            reason: format!("model mass became {z} during fitting"),
        });
    }
    model.scale_a0(1.0 / z);
    graph.set_a0(model.a0());
    Ok(())
}

/// One gather pass: `fitted[ci] = Σ p[i]` over constraint `ci`'s CSR slice.
fn gather_fitted(csr: CsrIncidence<'_>, p: &[f64], fitted: &mut [f64]) {
    for (ci, slot) in fitted.iter_mut().enumerate() {
        *slot = csr.list(ci).iter().map(|&i| p[i as usize]).sum();
    }
}

/// Largest absolute difference between a constraint's target and its fitted
/// probability.
fn max_violation_of(constraints: &ConstraintSet, fitted: &[f64]) -> f64 {
    constraints
        .constraints()
        .iter()
        .zip(fitted)
        .map(|(c, &q)| (q - c.probability).abs())
        .fold(0.0, f64::max)
}

/// Builds one trace record from the sweep's gathered sums — no re-summing.
fn record_of(
    iteration: usize,
    model: &LogLinearModel,
    fitted: &[f64],
    max_violation: f64,
) -> IterationRecord {
    IterationRecord {
        iteration,
        max_violation,
        factors: model.factors().to_vec(),
        a0: model.a0(),
        fitted: fitted.to_vec(),
    }
}

/// Folds an exact re-sum of the working vector into `a0` before a model is
/// returned (the sweeps divide by the tracked mass): the model's only
/// normalisation after fitting, so its mass is one to rounding.
fn settle(model: &mut LogLinearModel, p: &[f64]) {
    let z: f64 = p.iter().sum();
    model.scale_a0(1.0 / z);
}

/// Divides the dense vector by `z` and folds `1/z` into `a0`, keeping the
/// model and its dense image in lock-step.
fn renormalize(model: &mut LogLinearModel, p: &mut [f64], z: f64) -> Result<()> {
    if !(z > 0.0) || !z.is_finite() {
        return Err(MaxEntError::InfeasibleConstraints {
            reason: format!("model mass became {z} during fitting"),
        });
    }
    model.scale_a0(1.0 / z);
    for x in p.iter_mut() {
        *x /= z;
    }
    Ok(())
}

/// Fits a model with the default convergence criteria.
pub fn fit(constraints: &ConstraintSet) -> Result<(LogLinearModel, SolveReport)> {
    Solver::default().fit(constraints)
}

/// Fits a model with the default criteria, warm-starting from `initial`.
pub fn fit_with_initial(
    initial: LogLinearModel,
    constraints: &ConstraintSet,
) -> Result<(LogLinearModel, SolveReport)> {
    Solver::default().fit_from(initial, constraints)
}

pub mod reference {
    //! The eagerly-normalised solver, retained as the executable
    //! specification of the kernel.
    //!
    //! This is the straightforward transcription of Figure 4: the dense
    //! vector is built by evaluating the `O(factors)` product per cell,
    //! incidence lists are built by scanning every cell against every
    //! constraint, and the vector is renormalised after **every** constraint
    //! update.  It is `O(constraints × cells)` per sweep and allocates per
    //! cell — deliberately naive.  The fast kernel in the parent module must
    //! match it to ≤ 1e-12 per cell (property-tested in
    //! `tests/solver_equivalence.rs`) and is benchmarked against it in
    //! `solver_sweep`.

    use super::ZERO_TARGET;
    use crate::constraint::{Constraint, ConstraintSet};
    use crate::convergence::{ConvergenceCriteria, IterationRecord, SolveReport};
    use crate::error::MaxEntError;
    use crate::model::LogLinearModel;
    use crate::Result;
    use pka_contingency::Schema;

    /// One incidence list per constraint, built the naive way: a full scan
    /// of every cell's value tuple against every constraint.
    pub fn incidence_lists(schema: &Schema, constraints: &[Constraint]) -> Vec<Vec<u32>> {
        let mut matching: Vec<Vec<u32>> = constraints.iter().map(|_| Vec::new()).collect();
        for (idx, values) in schema.cells().enumerate() {
            for (list, c) in matching.iter_mut().zip(constraints) {
                if c.assignment.matches(&values) {
                    list.push(idx as u32);
                }
            }
        }
        matching
    }

    /// The eagerly-normalised fit: identical contract to
    /// [`Solver::fit_from`](super::Solver::fit_from), kept as the
    /// specification the fast kernel is verified against.
    pub fn fit_from(
        criteria: ConvergenceCriteria,
        mut model: LogLinearModel,
        constraints: &ConstraintSet,
    ) -> Result<(LogLinearModel, SolveReport)> {
        if model.schema() != constraints.schema() {
            return Err(MaxEntError::InfeasibleConstraints {
                reason: "initial model and constraints use different schemas".to_string(),
            });
        }
        constraints.check_feasibility(1e-6)?;

        let schema = constraints.shared_schema();
        let cells = schema.cell_count();
        let factor_positions: Vec<usize> =
            constraints.constraints().iter().map(|c| model.ensure_factor(&c.assignment)).collect();
        let matching = incidence_lists(&schema, constraints.constraints());

        let mut p: Vec<f64> = schema.cells().map(|v| model.cell_probability(&v)).collect();
        normalize_in_place(&mut model, &mut p, cells)?;

        let mut trace = Vec::new();
        let mut iterations = 0usize;
        let mut max_violation = violation(constraints, &matching, &p);

        if max_violation <= criteria.tolerance {
            if criteria.record_trace {
                trace.push(record(0, constraints, &model, &matching, &p));
            }
            return Ok((
                model,
                SolveReport { iterations: 0, max_violation, converged: true, trace },
            ));
        }

        for iteration in 1..=criteria.max_iterations {
            iterations = iteration;
            for (ci, c) in constraints.constraints().iter().enumerate() {
                let q: f64 = matching[ci].iter().map(|&i| p[i as usize]).sum();
                let target = c.probability;
                if (q - target).abs() <= f64::EPSILON {
                    continue;
                }
                if q <= 0.0 {
                    if target > ZERO_TARGET {
                        return Err(MaxEntError::InfeasibleConstraints {
                            reason: format!(
                                "constraint {} requires probability {target} but the model assigns its cell zero mass",
                                c.assignment.describe(constraints.schema())
                            ),
                        });
                    }
                    continue;
                }
                let ratio = target / q;
                model.scale_factor(factor_positions[ci], ratio);
                for &i in &matching[ci] {
                    p[i as usize] *= ratio;
                }
                normalize_in_place(&mut model, &mut p, cells)?;
            }

            max_violation = violation(constraints, &matching, &p);
            if criteria.record_trace {
                trace.push(record(iteration, constraints, &model, &matching, &p));
            }
            if max_violation <= criteria.tolerance {
                return Ok((
                    model,
                    SolveReport { iterations, max_violation, converged: true, trace },
                ));
            }
        }

        if criteria.fail_on_max_iterations {
            return Err(MaxEntError::NotConverged {
                iterations,
                max_violation,
                tolerance: criteria.tolerance,
            });
        }
        if criteria.record_trace && trace.is_empty() {
            trace.push(record(iterations, constraints, &model, &matching, &p));
        }
        Ok((model, SolveReport { iterations, max_violation, converged: false, trace }))
    }

    fn record(
        iteration: usize,
        constraints: &ConstraintSet,
        model: &LogLinearModel,
        matching: &[Vec<u32>],
        p: &[f64],
    ) -> IterationRecord {
        let fitted: Vec<f64> =
            matching.iter().map(|cells| cells.iter().map(|&i| p[i as usize]).sum()).collect();
        IterationRecord {
            iteration,
            max_violation: violation(constraints, matching, p),
            factors: model.factors().to_vec(),
            a0: model.a0(),
            fitted,
        }
    }

    fn violation(constraints: &ConstraintSet, matching: &[Vec<u32>], p: &[f64]) -> f64 {
        constraints
            .constraints()
            .iter()
            .zip(matching)
            .map(|(c, cells)| {
                let q: f64 = cells.iter().map(|&i| p[i as usize]).sum();
                (q - c.probability).abs()
            })
            .fold(0.0, f64::max)
    }

    fn normalize_in_place(model: &mut LogLinearModel, p: &mut [f64], cells: usize) -> Result<()> {
        debug_assert_eq!(p.len(), cells);
        let z: f64 = p.iter().sum();
        if !(z > 0.0) || !z.is_finite() {
            return Err(MaxEntError::InfeasibleConstraints {
                reason: format!("model mass became {z} during fitting"),
            });
        }
        model.scale_a0(1.0 / z);
        for x in p.iter_mut() {
            *x /= z;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Constraint;
    use pka_contingency::{Assignment, Attribute, ContingencyTable, Schema};
    use proptest::prelude::*;
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
    fn first_order_fit_reproduces_independence_model() {
        // With only first-order constraints, maximum entropy = independence
        // (the memo's Eqs. 57-62).
        let t = paper_table();
        let constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        let (model, report) = fit(&constraints).unwrap();
        assert!(report.converged);
        assert!(report.max_violation < 1e-10);
        let pa = 1290.0 / 3428.0;
        let pb = 433.0 / 3428.0;
        let pc = 1780.0 / 3428.0;
        let p = model.cell_probability(&[0, 0, 0]);
        assert!((p - pa * pb * pc).abs() < 1e-9, "p = {p}, expected {}", pa * pb * pc);
        // Eq. 62: second-order predictions are products of first-order ones.
        let p_ab = model.probability(&Assignment::from_pairs([(0, 0), (1, 0)]));
        assert!((p_ab - pa * pb).abs() < 1e-9);
        assert!((model.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn second_order_constraint_is_honoured_exactly() {
        // The memo's first discovered constraint: p^AC_12 = 750/3428 = .219.
        let t = paper_table();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        let ac12 = Assignment::from_pairs([(0, 0), (2, 1)]);
        constraints.add_from_table(&t, ac12.clone()).unwrap();
        let (model, report) = fit(&constraints).unwrap();
        assert!(report.converged);
        let fitted = model.probability(&ac12);
        assert!((fitted - 750.0 / 3428.0).abs() < 1e-9, "fitted = {fitted}");
        // First-order marginals are still honoured.
        for attr in 0..3 {
            for v in 0..t.schema().cardinality(attr).unwrap() {
                let a = Assignment::single(attr, v);
                assert!(
                    (model.probability(&a) - t.frequency(&a)).abs() < 1e-9,
                    "marginal {attr}={v} drifted"
                );
            }
        }
        // The model still treats attribute B as independent of the AC block:
        // P(B=1 | A=1, C=2) should equal p^B_1.
        let merged = Assignment::single(1, 0).merge(&ac12).unwrap();
        let cond = model.probability(&merged) / model.probability(&ac12);
        assert!((cond - 433.0 / 3428.0).abs() < 1e-6);
    }

    #[test]
    fn incidence_cache_is_reused_across_refits() {
        let t = paper_table();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        let solver = Solver::default();
        let mut cache = IncidenceCache::new();

        // First fit builds the lists.
        let (model, _) = solver
            .fit_from_cached(LogLinearModel::uniform(t.shared_schema()), &constraints, &mut cache)
            .unwrap();
        assert_eq!(cache.stats(), CacheStats { full_hits: 0, extensions: 0, rebuilds: 1 });

        // A repeated refit with an unchanged constraint set reuses the
        // cache: no rebuild, no extension.
        let (model, _) = solver.fit_from_cached(model, &constraints, &mut cache).unwrap();
        assert_eq!(cache.stats(), CacheStats { full_hits: 1, extensions: 0, rebuilds: 1 });

        // Promoting one constraint extends the cached prefix instead of
        // rebuilding everything.
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        let (model, _) = solver.fit_from_cached(model, &constraints, &mut cache).unwrap();
        assert_eq!(cache.stats(), CacheStats { full_hits: 1, extensions: 1, rebuilds: 1 });

        // Shrinking back to the original set truncates (still a hit) …
        let shorter = ConstraintSet::first_order_from_table(&t).unwrap();
        solver
            .fit_from_cached(LogLinearModel::uniform(t.shared_schema()), &shorter, &mut cache)
            .unwrap();
        assert_eq!(cache.stats(), CacheStats { full_hits: 2, extensions: 1, rebuilds: 1 });
        drop(model);

        // … and a different schema forces a rebuild.
        let other_schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let other =
            ContingencyTable::from_counts(Arc::clone(&other_schema), vec![10, 20, 30, 40]).unwrap();
        let foreign = ConstraintSet::first_order_from_table(&other).unwrap();
        solver
            .fit_from_cached(LogLinearModel::uniform(other_schema), &foreign, &mut cache)
            .unwrap();
        assert_eq!(cache.stats(), CacheStats { full_hits: 2, extensions: 1, rebuilds: 2 });
    }

    #[test]
    fn csr_lists_match_reference_incidence() {
        // Full-hit, extension and truncation must all leave the CSR storage
        // equal to the naive per-cell scan's lists.
        let t = paper_table();
        let schema = t.shared_schema();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        let mut cache = IncidenceCache::new();

        let check = |cache: &mut IncidenceCache, constraints: &ConstraintSet| {
            let expected = reference::incidence_lists(&schema, constraints.constraints());
            let csr = cache.ensure(&constraints.shared_schema(), constraints.constraints());
            assert_eq!(csr.len(), expected.len());
            for (ci, list) in expected.iter().enumerate() {
                assert_eq!(csr.list(ci), &list[..], "constraint {ci} diverged");
            }
        };

        check(&mut cache, &constraints); // rebuild
        check(&mut cache, &constraints); // full hit
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 1), (1, 0)])).unwrap();
        check(&mut cache, &constraints); // extension by two
        let shorter = ConstraintSet::first_order_from_table(&t).unwrap();
        check(&mut cache, &shorter); // truncation
        check(&mut cache, &constraints); // re-extension after truncation
    }

    #[test]
    fn cached_fits_match_uncached_fits_exactly() {
        let t = paper_table();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (1, 0)])).unwrap();
        let solver = Solver::default();
        let mut cache = IncidenceCache::new();
        // Warm the cache on a prefix so the cached fit exercises the
        // extension path, then compare against a cache-free fit.
        let prefix = ConstraintSet::first_order_from_table(&t).unwrap();
        let (seed, _) = solver
            .fit_from_cached(LogLinearModel::uniform(t.shared_schema()), &prefix, &mut cache)
            .unwrap();
        let (cached, r1) = solver.fit_from_cached(seed.clone(), &constraints, &mut cache).unwrap();
        let (fresh, r2) = solver.fit_from(seed, &constraints).unwrap();
        assert_eq!(r1.iterations, r2.iterations);
        for cell in 0..t.schema().cell_count() {
            let values = t.schema().cell_values(cell);
            assert_eq!(
                cached.cell_probability(&values).to_bits(),
                fresh.cell_probability(&values).to_bits(),
                "cached and fresh fits diverged at cell {values:?}"
            );
        }
    }

    #[test]
    fn warm_start_converges_faster_than_cold_start() {
        let t = paper_table();
        let first_order = ConstraintSet::first_order_from_table(&t).unwrap();
        let (base_model, _) = fit(&first_order).unwrap();

        let mut augmented = ConstraintSet::first_order_from_table(&t).unwrap();
        augmented.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();

        let solver = Solver::new(ConvergenceCriteria::new().with_tolerance(1e-12));
        let (_, warm) = solver.fit_from(base_model, &augmented).unwrap();
        let (_, cold) = solver.fit(&augmented).unwrap();
        assert!(warm.converged && cold.converged);
        assert!(
            warm.iterations <= cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn trace_records_convergence_like_table_2() {
        // Table 2 of the memo shows the iteration converging in ~5-7 passes;
        // the general solver's trace must show the fitted p^AC_12 approaching
        // 0.219 monotonically in error and converging in a handful of sweeps.
        let t = paper_table();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        let ac12 = Assignment::from_pairs([(0, 0), (2, 1)]);
        constraints.add_from_table(&t, ac12.clone()).unwrap();
        // Table 2 is printed to 2-3 decimal places; the equivalent tolerance
        // is reached in a handful of sweeps, just as the memo's hand
        // iteration needed ~7 passes.
        let solver = Solver::new(ConvergenceCriteria::new().with_trace().with_tolerance(1e-4));
        let (_, report) = solver.fit(&constraints).unwrap();
        assert!(!report.trace.is_empty());
        assert!(report.iterations <= 25, "took {} iterations", report.iterations);
        let target = 750.0 / 3428.0;
        let last = report.last_record().unwrap();
        let ac12_index =
            constraints.constraints().iter().position(|c| c.assignment == ac12).unwrap();
        assert!((last.fitted[ac12_index] - target).abs() < 1e-3);
        // Violations shrink (not necessarily strictly, but start > end).
        assert!(report.trace[0].max_violation >= last.max_violation);
        // Every record carries one factor per constraint.
        assert_eq!(last.factors.len(), constraints.len());
    }

    #[test]
    fn third_order_constraint_fit() {
        let t = paper_table();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (1, 0)])).unwrap();
        let abc = Assignment::from_pairs([(0, 0), (1, 0), (2, 0)]);
        constraints.add_from_table(&t, abc.clone()).unwrap();
        let (model, report) = fit(&constraints).unwrap();
        assert!(report.converged);
        assert!((model.probability(&abc) - 130.0 / 3428.0).abs() < 1e-9);
        assert!((model.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_probability_constraints_are_supported() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let mut constraints = ConstraintSet::new(Arc::clone(&schema));
        constraints.add(Constraint::new(Assignment::single(0, 0), 0.5).unwrap()).unwrap();
        constraints.add(Constraint::new(Assignment::single(0, 1), 0.5).unwrap()).unwrap();
        constraints
            .add(Constraint::new(Assignment::from_pairs([(0, 0), (1, 0)]), 0.0).unwrap())
            .unwrap();
        let (model, report) = fit(&constraints).unwrap();
        assert!(report.converged);
        assert!(model.probability(&Assignment::from_pairs([(0, 0), (1, 0)])).abs() < 1e-12);
        assert!((model.probability(&Assignment::single(0, 0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn infeasible_constraints_are_rejected() {
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let mut constraints = ConstraintSet::new(Arc::clone(&schema));
        constraints.add(Constraint::new(Assignment::single(0, 0), 0.9).unwrap()).unwrap();
        constraints.add(Constraint::new(Assignment::single(0, 1), 0.9).unwrap()).unwrap();
        assert!(matches!(fit(&constraints), Err(MaxEntError::InfeasibleConstraints { .. })));
    }

    #[test]
    fn mismatched_schema_is_rejected() {
        let t = paper_table();
        let constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        let other = LogLinearModel::uniform(Schema::uniform(&[2, 2]).unwrap().into_shared());
        assert!(Solver::default().fit_from(other, &constraints).is_err());
    }

    #[test]
    fn iteration_budget_is_enforced() {
        let t = paper_table();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (2, 1)])).unwrap();
        // Strict mode: exhausting the budget is an error.
        let strict = Solver::new(
            ConvergenceCriteria::new().with_max_iterations(1).with_tolerance(1e-15).strict(),
        );
        assert!(matches!(
            strict.fit(&constraints),
            Err(MaxEntError::NotConverged { iterations: 1, .. })
        ));
        // Default mode: a best-effort model with converged = false.
        let lenient =
            Solver::new(ConvergenceCriteria::new().with_max_iterations(1).with_tolerance(1e-15));
        let (model, report) = lenient.fit(&constraints).unwrap();
        assert!(!report.converged);
        assert_eq!(report.iterations, 1);
        assert!((model.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_constraint_sets_return_best_effort_fits() {
        // Two perfectly correlated attributes: the constraint p^AB_11 = .5
        // together with the first-order marginals forces two cells to zero,
        // a boundary solution the multiplicative update approaches only in
        // the limit.  The solver must return a usable near-boundary model.
        let schema = Schema::uniform(&[2, 2]).unwrap().into_shared();
        let t = ContingencyTable::from_counts(Arc::clone(&schema), vec![200, 0, 0, 200]).unwrap();
        let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
        constraints.add_from_table(&t, Assignment::from_pairs([(0, 0), (1, 0)])).unwrap();
        let (model, report) = fit(&constraints).unwrap();
        assert!(report.max_violation < 5e-3);
        let p = model.probability(&Assignment::from_pairs([(0, 0), (1, 0)]));
        assert!((p - 0.5).abs() < 5e-3);
        assert!((model.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_constraint_set_gives_uniform() {
        let schema = Schema::uniform(&[3, 2]).unwrap().into_shared();
        let constraints = ConstraintSet::new(schema);
        let (model, report) = fit(&constraints).unwrap();
        assert!(report.converged);
        assert_eq!(report.iterations, 0);
        assert!((model.cell_probability(&[0, 0]) - 1.0 / 6.0).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_fit_matches_every_empirical_constraint(
            counts in proptest::collection::vec(1u64..40, 12),
            extra_cell in 0usize..12,
        ) {
            // For any strictly positive table, fitting the first-order
            // marginals plus one arbitrary second-order cell reproduces all
            // of those probabilities exactly.
            let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
            let t = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
            let mut constraints = ConstraintSet::first_order_from_table(&t).unwrap();
            let cell_values = schema.cell_values(extra_cell);
            let pair = Assignment::project(pka_contingency::VarSet::from_indices([0, 1]), &cell_values);
            constraints.add_from_table(&t, pair.clone()).unwrap();
            // Skewed random tables can converge slowly (small counts push the
            // solution towards the simplex boundary); give the solver room.
            let solver = Solver::new(
                ConvergenceCriteria::new().with_max_iterations(5000).with_tolerance(1e-9),
            );
            let (model, report) = solver.fit(&constraints).unwrap();
            prop_assert!(report.converged || report.max_violation < 1e-7);
            for c in constraints.constraints() {
                prop_assert!((model.probability(&c.assignment) - c.probability).abs() < 1e-7);
            }
            prop_assert!((model.total_mass() - 1.0).abs() < 1e-7);
        }

        #[test]
        fn prop_maxent_has_higher_entropy_than_empirical(
            counts in proptest::collection::vec(1u64..30, 12),
        ) {
            // The maximum-entropy distribution consistent with the
            // first-order marginals has entropy >= the empirical
            // distribution's entropy (which satisfies the same marginals).
            let schema = Schema::uniform(&[3, 2, 2]).unwrap().into_shared();
            let t = ContingencyTable::from_counts(Arc::clone(&schema), counts).unwrap();
            let constraints = ConstraintSet::first_order_from_table(&t).unwrap();
            let (model, _) = fit(&constraints).unwrap();
            let maxent_entropy = model.to_joint().entropy();
            let empirical_entropy = crate::joint::JointDistribution::empirical(&t).entropy();
            prop_assert!(maxent_entropy + 1e-9 >= empirical_entropy);
        }
    }
}
