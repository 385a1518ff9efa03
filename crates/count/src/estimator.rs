//! The ApproxMC-style hash-count loop over one incremental solver.
//!
//! To estimate the number of projected solutions of a formula, each round
//! draws a full stack of random XOR parity rows ([`crate::xor`]), encodes
//! them once with fresh selector variables, and binary-searches the
//! smallest activated prefix `m` whose residual cell holds at most
//! `pivot` solutions — activation is pure assumption literals, so **one**
//! solver instance carries every search step and every round. The round
//! estimate is `cells × 2^m`; the median of `t` rounds is within a factor
//! `1+ε` of the true count with probability at least `1−δ`
//! (Chakraborty, Meel, Vardi).
//!
//! Cells are enumerated by projected blocking clauses under a per-round
//! guard variable, retired with one unit clause after the round, so
//! blocked cells never leak between rounds.
//!
//! When the whole projected space already fits under the pivot the count
//! is **exact** and reported as such — the `m = 0` shortcut that also
//! serves the boundary cases (0 solutions, single solution).

use crate::xor::{draw_rows, encode_row_into};
use glitchlock_obs::{self as obs, names};
use glitchlock_sat::{Lit, SatResult, Solver, Var};
use rand::rngs::StdRng;

/// The `(ε, δ)` knobs of one approximate count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CountParams {
    /// Multiplicative tolerance: the estimate lands in
    /// `[C/(1+ε), C·(1+ε)]`.
    pub epsilon: f64,
    /// Failure probability: the envelope holds with probability `≥ 1−δ`.
    pub delta: f64,
}

impl CountParams {
    /// Validates and builds the parameter pair.
    ///
    /// # Errors
    ///
    /// `epsilon` must be positive and `delta` in `(0, 1)`.
    pub fn new(epsilon: f64, delta: f64) -> Result<CountParams, String> {
        if epsilon.is_nan() || epsilon <= 0.0 {
            return Err(format!("epsilon must be positive, got {epsilon}"));
        }
        if delta.is_nan() || delta <= 0.0 || delta >= 1.0 {
            return Err(format!("delta must be in (0, 1), got {delta}"));
        }
        Ok(CountParams { epsilon, delta })
    }

    /// Per-round cell-size threshold `⌈4.94 · (1 + 1/ε)²⌉`.
    pub fn pivot(&self) -> u64 {
        (4.94 * (1.0 + 1.0 / self.epsilon).powi(2)).ceil() as u64
    }

    /// Round count for median amplification: each round lands inside the
    /// ε-envelope with probability ≥ 0.78 at this pivot, so a Chernoff
    /// bound on the median gives `t = ⌈ln(1/δ) / (2 · 0.28²)⌉`, bumped to
    /// odd so the median is a single round's value.
    pub fn iterations(&self) -> usize {
        let t = ((1.0 / self.delta).ln() / (2.0 * 0.28 * 0.28)).ceil() as usize;
        let t = t.max(1);
        t + t.is_multiple_of(2) as usize
    }
}

impl Default for CountParams {
    fn default() -> Self {
        CountParams {
            epsilon: 0.8,
            delta: 0.2,
        }
    }
}

/// One approximate (or exact, when small enough) projected count.
#[derive(Clone, Debug, PartialEq)]
pub struct ApproxCount {
    /// The count estimate (equal to `exact` when that is set).
    pub estimate: f64,
    /// Exact value when enumeration finished below the pivot.
    pub exact: Option<u64>,
    /// Solver invocations spent.
    pub solver_calls: u64,
    /// XOR parity rows drawn and encoded.
    pub xor_rows: u64,
}

/// Enumerates projected solutions under `assumptions`, stopping once the
/// count exceeds `limit` (returns `limit + 1` to mean "more"). Blocking
/// clauses ride a fresh guard variable retired on exit.
fn enumerate_cells(
    solver: &mut Solver,
    assumptions: &[Lit],
    projection: &[Var],
    limit: u64,
    solver_calls: &mut u64,
) -> u64 {
    let guard = solver.new_var();
    let mut assum = assumptions.to_vec();
    assum.push(Lit::pos(guard));
    let mut count = 0u64;
    loop {
        *solver_calls += 1;
        match solver.solve_with(&assum) {
            SatResult::Unsat => break,
            SatResult::Sat => {
                count += 1;
                if count > limit {
                    break;
                }
                // Block this projected cell: a solver may leave a variable
                // unassigned when no clause touches it; read it as 0, and
                // the blocking clause then constrains it for later cells.
                let mut clause = vec![Lit::neg(guard)];
                clause.extend(
                    projection
                        .iter()
                        .map(|&v| Lit::with_sign(v, solver.value(v).unwrap_or(false))),
                );
                solver.add_clause(&clause);
            }
        }
    }
    solver.add_clause(&[Lit::neg(guard)]);
    count
}

/// Estimates the number of assignments to `projection` extendable to a
/// model of the solver's formula under `base` assumptions.
///
/// All randomness comes from `rng`; identical seeds give identical
/// estimates, because rows are drawn over projection positions and cell
/// counts are exact enumerations.
pub fn approx_count(
    solver: &mut Solver,
    base: &[Lit],
    projection: &[Var],
    params: &CountParams,
    rng: &mut StdRng,
) -> ApproxCount {
    let pivot = params.pivot();
    let mut solver_calls = 0u64;
    let mut xor_rows = 0u64;

    // m = 0 shortcut: if the whole projected space fits under the pivot
    // the enumeration *is* the count.
    let whole = enumerate_cells(solver, base, projection, pivot, &mut solver_calls);
    if whole <= pivot {
        obs::add(names::COUNT_SOLVER_CALLS, solver_calls);
        return ApproxCount {
            estimate: whole as f64,
            exact: Some(whole),
            solver_calls,
            xor_rows,
        };
    }

    let n = projection.len();
    let t = params.iterations();
    let mut estimates: Vec<f64> = Vec::with_capacity(t);
    for _ in 0..t {
        // One full row stack per round; prefixes share rows so the cell
        // count is monotone non-increasing in m and binary search applies.
        let rows = draw_rows(n, n, rng);
        let sels: Vec<Var> = rows
            .iter()
            .map(|row| {
                let s = solver.new_var();
                encode_row_into(solver, projection, row, Some(s));
                s
            })
            .collect();
        xor_rows += n as u64;

        let mut lo = 1usize;
        let mut hi = n;
        let mut found: Option<(usize, u64)> = None;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            let mut assum = base.to_vec();
            assum.extend(sels[..mid].iter().map(|&s| Lit::pos(s)));
            let cells = enumerate_cells(solver, &assum, projection, pivot, &mut solver_calls);
            if cells <= pivot {
                found = Some((mid, cells));
                if mid == 1 {
                    break;
                }
                hi = mid - 1;
            } else {
                lo = mid + 1;
            }
        }
        match found {
            // An empty cell at the crossover is a failed round (ApproxMC
            // reports no estimate); skip it rather than log a zero.
            Some((_, 0)) | None => {}
            Some((m, cells)) => estimates.push(cells as f64 * (2f64).powi(m as i32)),
        }
    }

    obs::add(names::COUNT_SOLVER_CALLS, solver_calls);
    obs::add(names::COUNT_XOR_ROWS, xor_rows);

    // Median of the successful rounds; if every round failed (vanishingly
    // unlikely), fall back to the only bound we hold: more than pivot.
    let estimate = if estimates.is_empty() {
        (pivot + 1) as f64
    } else {
        estimates.sort_by(|a, b| a.partial_cmp(b).expect("finite estimates"));
        estimates[estimates.len() / 2]
    };
    ApproxCount {
        estimate,
        exact: None,
        solver_calls,
        xor_rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn free_vars(solver: &mut Solver, n: usize) -> Vec<Var> {
        // Touch each variable with a tautological pair so the solver
        // assigns them (a var in no clause may stay unassigned).
        (0..n)
            .map(|_| {
                let v = solver.new_var();
                solver.add_clause(&[Lit::pos(v), Lit::neg(v)]);
                v
            })
            .collect()
    }

    #[test]
    fn small_spaces_come_back_exact() {
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let got = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(got.exact, Some(16));
        assert_eq!(got.estimate, 16.0);
        assert_eq!(got.xor_rows, 0, "the m = 0 shortcut draws no rows");
    }

    #[test]
    fn unsatisfiable_formulas_count_zero() {
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 3);
        solver.add_clause(&[Lit::pos(vars[0])]);
        solver.add_clause(&[Lit::neg(vars[0])]);
        let mut rng = StdRng::seed_from_u64(1);
        let got = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(got.exact, Some(0));
    }

    #[test]
    fn single_solution_counts_one() {
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 5);
        for &v in &vars {
            solver.add_clause(&[Lit::pos(v)]);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let got = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(got.exact, Some(1));
    }

    #[test]
    fn projection_hides_auxiliary_variables() {
        // y = x0 AND x1 with clause [y]: projected over {x0, x1} exactly
        // one cell survives.
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 2);
        let y = solver.new_var();
        solver.add_clause(&[Lit::neg(y), Lit::pos(vars[0])]);
        solver.add_clause(&[Lit::neg(y), Lit::pos(vars[1])]);
        solver.add_clause(&[Lit::pos(y), Lit::neg(vars[0]), Lit::neg(vars[1])]);
        solver.add_clause(&[Lit::pos(y)]);
        let mut rng = StdRng::seed_from_u64(1);
        let got = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(got.exact, Some(1));
    }

    #[test]
    fn base_assumptions_scope_the_count() {
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 4);
        let gate = solver.new_var();
        // Under the gate, x0 must be 1: half the space.
        solver.add_clause(&[Lit::neg(gate), Lit::pos(vars[0])]);
        let mut rng = StdRng::seed_from_u64(1);
        let gated = approx_count(
            &mut solver,
            &[Lit::pos(gate)],
            &vars,
            &CountParams::default(),
            &mut rng,
        );
        assert_eq!(gated.exact, Some(8));
        // Without the assumption the constraint is inert.
        let free = approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng);
        assert_eq!(free.exact, Some(16));
    }

    /// The hash path (space larger than the pivot) against the known
    /// count, over pinned seeds with the (ε, δ) envelope.
    #[test]
    fn hash_path_lands_in_the_envelope() {
        let params = CountParams::default();
        let pivot = params.pivot();
        let true_count = 512f64; // 10 free vars, one pinned
        assert!(true_count > pivot as f64, "must exercise the hash path");
        let lo = true_count / (1.0 + params.epsilon);
        let hi = true_count * (1.0 + params.epsilon);
        let seeds: Vec<u64> = (0..20).collect();
        let budget = (params.delta * seeds.len() as f64).ceil() as usize + 2;
        let mut misses = 0;
        for &seed in &seeds {
            let mut solver = Solver::new();
            let vars = free_vars(&mut solver, 10);
            solver.add_clause(&[Lit::pos(vars[0])]);
            let mut rng = StdRng::seed_from_u64(seed);
            let got = approx_count(&mut solver, &[], &vars, &params, &mut rng);
            assert!(got.exact.is_none(), "hash path must not be exact");
            assert!(got.xor_rows > 0);
            if got.estimate < lo || got.estimate > hi {
                misses += 1;
            }
        }
        assert!(
            misses <= budget,
            "{misses} envelope misses over {} seeds (budget {budget})",
            seeds.len()
        );
    }

    #[test]
    fn estimates_are_deterministic() {
        let build = || {
            let mut solver = Solver::new();
            let vars = free_vars(&mut solver, 9);
            solver.add_clause(&[Lit::pos(vars[0]), Lit::pos(vars[1])]);
            let mut rng = StdRng::seed_from_u64(5);
            approx_count(&mut solver, &[], &vars, &CountParams::default(), &mut rng).estimate
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn params_validate_and_derive() {
        assert!(CountParams::new(0.0, 0.2).is_err());
        assert!(CountParams::new(0.8, 0.0).is_err());
        assert!(CountParams::new(0.8, 1.0).is_err());
        let p = CountParams::new(0.8, 0.2).unwrap();
        assert_eq!(p.pivot(), 26);
        assert_eq!(p.iterations() % 2, 1);
        assert!(p.iterations() >= 9);
        // Tighter δ needs more rounds.
        let tight = CountParams::new(0.8, 0.01).unwrap();
        assert!(tight.iterations() > p.iterations());
    }
}
