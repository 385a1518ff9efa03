//! The ApproxMC-style hash-count loop over one incremental solver.
//!
//! To estimate the number of projected solutions of a formula, each round
//! draws a full stack of random XOR parity rows ([`crate::xor`]) and
//! searches for the smallest activated prefix `m` whose residual cell
//! holds at most `pivot` solutions. Rows are encoded with fresh selector
//! variables the first time a probe activates them, and activation is
//! pure assumption literals, so **one** solver instance carries every
//! probe and every round. The round estimate is `cells × 2^m`; the median
//! of `t` rounds is within a factor `1+ε` of the true count with
//! probability at least `1−δ` (Chakraborty, Meel, Vardi).
//!
//! Because a round's rows are nested prefixes, `cells(m)` is monotone
//! non-increasing in `m` and the smallest fitting `m` is unique, so the
//! search may start anywhere: the first round bisects, later rounds start
//! at the previous round's `m` (ApproxMC3, Soos & Meel) — the same answer
//! in fewer probes.
//!
//! Cells are enumerated by projected blocking clauses under a per-cell
//! guard variable, retired with one unit clause afterwards, so blocked
//! cells never leak between probes. Every solution a solve returns is a
//! model under the call's base assumptions and stays one in every later
//! cell, so the call keeps them: a probe first counts (and blocks) the
//! listed solutions its rows admit, and asks the solver only for the
//! rest. A probe whose listed solutions already exceed the pivot costs no
//! solver call at all. Every cell count is still exact up to `pivot + 1`,
//! so the estimates equal those of a fresh enumeration per probe.
//!
//! When the whole projected space already fits under the pivot the count
//! is **exact** and reported as such — the `m = 0` shortcut that also
//! serves the boundary cases (0 solutions, single solution).

use crate::xor::{draw_rows, encode_row_into, ParityRow};
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
    /// XOR parity rows encoded onto the solver.
    pub xor_rows: u64,
}

/// One drawn row as a bit mask over projection positions, for reading the
/// parity of a packed solution without the solver.
struct RowMask {
    bits: Vec<u64>,
    parity: bool,
}

impl RowMask {
    fn new(row: &ParityRow, words: usize) -> RowMask {
        let mut bits = vec![0u64; words];
        for &p in &row.positions {
            bits[p / 64] |= 1 << (p % 64);
        }
        RowMask {
            bits,
            parity: row.parity,
        }
    }

    fn holds(&self, solution: &[u64]) -> bool {
        let ones: u32 = self
            .bits
            .iter()
            .zip(solution)
            .map(|(m, s)| (m & s).count_ones())
            .sum();
        (ones % 2 == 1) == self.parity
    }
}

/// One round's row stack. Every row is drawn up front, so the RNG stream
/// never depends on the search; a row is encoded (selector and XOR chain)
/// only when a probe first activates it.
struct Round {
    rows: Vec<ParityRow>,
    masks: Vec<RowMask>,
    sels: Vec<Var>,
}

/// The solver state of one [`approx_count`] call.
struct Session<'a> {
    solver: &'a mut Solver,
    base: &'a [Lit],
    projection: &'a [Var],
    pivot: u64,
    /// Packed words per projected solution.
    words: usize,
    /// Every projected solution found so far, `words` each, no two equal.
    /// Each is a model of the formula under `base` (rows only ever narrow
    /// a cell), so it stays valid for every later cell of the call. Never
    /// shared across calls: their bases and projections differ.
    found: Vec<u64>,
    solver_calls: u64,
    xor_rows: u64,
}

impl Session<'_> {
    fn solution(&self, i: usize) -> &[u64] {
        &self.found[i * self.words..(i + 1) * self.words]
    }

    /// Size of the cell cut by the first `m` rows of `round`, exact up to
    /// `pivot + 1` (which means "more").
    fn cells(&mut self, round: &mut Round, m: usize) -> u64 {
        while round.sels.len() < m {
            let s = self.solver.new_var();
            encode_row_into(
                self.solver,
                self.projection,
                &round.rows[round.sels.len()],
                Some(s),
            );
            round.sels.push(s);
            self.xor_rows += 1;
        }
        self.enumerate(&round.sels[..m], &round.masks[..m])
    }

    /// Counts the projected solutions under `base` and the rows `masks`
    /// (activated by `sels`), stopping past the pivot. The found solutions
    /// inside the cell are blocked up front at no solver call; the solver
    /// enumerates only the rest, and each new one joins the list. Blocking
    /// clauses ride a fresh guard variable retired on exit.
    fn enumerate(&mut self, sels: &[Var], masks: &[RowMask]) -> u64 {
        let listed = self.found.len() / self.words;
        let known: Vec<usize> = (0..listed)
            .filter(|&i| masks.iter().all(|r| r.holds(self.solution(i))))
            .take(self.pivot as usize + 1)
            .collect();
        let mut count = known.len() as u64;
        if count > self.pivot {
            return count;
        }
        let guard = self.solver.new_var();
        for &i in &known {
            self.block(guard, i);
        }
        let mut assum = self.base.to_vec();
        assum.extend(sels.iter().map(|&s| Lit::pos(s)));
        assum.push(Lit::pos(guard));
        loop {
            self.solver_calls += 1;
            if self.solver.solve_with(&assum) == SatResult::Unsat {
                break;
            }
            let i = self.record();
            count += 1;
            if count > self.pivot {
                break;
            }
            self.block(guard, i);
        }
        self.solver.add_clause(&[Lit::neg(guard)]);
        count
    }

    /// Packs the projection of the solver's model onto the list and
    /// returns its index. A solver may leave a variable unassigned when no
    /// clause touches it; read it as 0, and the blocking clause then
    /// constrains it for later cells.
    fn record(&mut self) -> usize {
        let mut packed = vec![0u64; self.words];
        for (p, &v) in self.projection.iter().enumerate() {
            if self.solver.value(v).unwrap_or(false) {
                packed[p / 64] |= 1 << (p % 64);
            }
        }
        self.found.extend_from_slice(&packed);
        self.found.len() / self.words - 1
    }

    /// Excludes listed solution `i` from the cell under `guard`.
    fn block(&mut self, guard: Var, i: usize) {
        let solution = self.solution(i);
        let mut clause = Vec::with_capacity(self.projection.len() + 1);
        clause.push(Lit::neg(guard));
        clause.extend(
            self.projection
                .iter()
                .enumerate()
                .map(|(p, &v)| Lit::with_sign(v, solution[p / 64] >> (p % 64) & 1 == 1)),
        );
        self.solver.add_clause(&clause);
    }
}

/// The smallest `m` in `1..=n` with `cells(m) ≤ pivot`, with that cell
/// count, or `None` when even `cells(n)` exceeds the pivot.
///
/// `cells` must be monotone non-increasing in `m` — a round's rows are
/// nested prefixes, so each cell contains the next — which makes the
/// answer unique: every correct search returns the same `(m, cells(m))`.
/// Without a `start` this is plain bisection over `1..=n`. With one (the
/// previous round's `m`, as in ApproxMC3) it probes `start`, gallops away
/// from it in steps 1, 2, 4, … until the answer is bracketed, then
/// bisects the bracket, so a round that lands near the last one costs two
/// probes instead of `log₂ n`.
fn smallest_fitting(
    n: usize,
    pivot: u64,
    start: Option<usize>,
    mut cells: impl FnMut(usize) -> u64,
) -> Option<(usize, u64)> {
    // Invariant: every m < lo overflows the pivot, every m > hi fits, and
    // `found` holds the smallest fitting m probed so far.
    let (mut lo, mut hi) = (1usize, n);
    let mut found = None;
    if let Some(s) = start.filter(|_| n > 0).map(|s| s.clamp(1, n)) {
        let c = cells(s);
        let mut step = 1;
        if c <= pivot {
            found = Some((s, c));
            hi = s - 1;
            while lo <= hi {
                let m = s.saturating_sub(step).max(lo);
                let c = cells(m);
                if c > pivot {
                    lo = m + 1;
                    break;
                }
                found = Some((m, c));
                hi = m - 1;
                step *= 2;
            }
        } else {
            lo = s + 1;
            while lo <= hi {
                let m = (s + step).min(hi);
                let c = cells(m);
                if c <= pivot {
                    found = Some((m, c));
                    hi = m - 1;
                    break;
                }
                lo = m + 1;
                step *= 2;
            }
        }
    }
    while lo <= hi {
        let mid = lo + (hi - lo) / 2;
        let c = cells(mid);
        if c <= pivot {
            found = Some((mid, c));
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    found
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
    let n = projection.len();
    let words = n.div_ceil(64).max(1);
    let mut session = Session {
        solver,
        base,
        projection,
        pivot,
        words,
        found: Vec::new(),
        solver_calls: 0,
        xor_rows: 0,
    };

    // m = 0 shortcut: if the whole projected space fits under the pivot
    // the enumeration *is* the count.
    let whole = session.enumerate(&[], &[]);
    if whole <= pivot {
        obs::add(names::COUNT_SOLVER_CALLS, session.solver_calls);
        return ApproxCount {
            estimate: whole as f64,
            exact: Some(whole),
            solver_calls: session.solver_calls,
            xor_rows: 0,
        };
    }

    let t = params.iterations();
    let mut estimates: Vec<f64> = Vec::with_capacity(t);
    let mut last_m = None;
    for _ in 0..t {
        let rows = draw_rows(n, n, rng);
        let mut round = Round {
            masks: rows.iter().map(|row| RowMask::new(row, words)).collect(),
            rows,
            sels: Vec::with_capacity(n),
        };
        let found = smallest_fitting(n, pivot, last_m, |m| session.cells(&mut round, m));
        last_m = found.map(|(m, _)| m).or(last_m);
        match found {
            // An empty cell at the crossover is a failed round (ApproxMC
            // reports no estimate); skip it rather than log a zero.
            Some((_, 0)) | None => {}
            Some((m, cells)) => estimates.push(cells as f64 * (2f64).powi(m as i32)),
        }
    }

    let (solver_calls, xor_rows) = (session.solver_calls, session.xor_rows);
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
    use rand::{Rng, SeedableRng};

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

    /// The search before solutions were carried across cells: every row
    /// encoded up front, a fresh enumeration per probe, bisection every
    /// round. The referee for [`approx_count`].
    fn reference_count(
        solver: &mut Solver,
        base: &[Lit],
        projection: &[Var],
        params: &CountParams,
        rng: &mut StdRng,
    ) -> ApproxCount {
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
                if solver.solve_with(&assum) == SatResult::Unsat {
                    break;
                }
                count += 1;
                if count > limit {
                    break;
                }
                let mut clause = vec![Lit::neg(guard)];
                clause.extend(
                    projection
                        .iter()
                        .map(|&v| Lit::with_sign(v, solver.value(v).unwrap_or(false))),
                );
                solver.add_clause(&clause);
            }
            solver.add_clause(&[Lit::neg(guard)]);
            count
        }

        let pivot = params.pivot();
        let mut solver_calls = 0u64;
        let whole = enumerate_cells(solver, base, projection, pivot, &mut solver_calls);
        if whole <= pivot {
            return ApproxCount {
                estimate: whole as f64,
                exact: Some(whole),
                solver_calls,
                xor_rows: 0,
            };
        }
        let n = projection.len();
        let mut estimates = Vec::new();
        for _ in 0..params.iterations() {
            let rows = draw_rows(n, n, rng);
            let sels: Vec<Var> = rows
                .iter()
                .map(|row| {
                    let s = solver.new_var();
                    encode_row_into(solver, projection, row, Some(s));
                    s
                })
                .collect();
            let (mut lo, mut hi) = (1usize, n);
            let mut found = None;
            while lo <= hi {
                let mid = lo + (hi - lo) / 2;
                let mut assum = base.to_vec();
                assum.extend(sels[..mid].iter().map(|&s| Lit::pos(s)));
                let cells = enumerate_cells(solver, &assum, projection, pivot, &mut solver_calls);
                if cells <= pivot {
                    found = Some((mid, cells));
                    hi = mid - 1;
                } else {
                    lo = mid + 1;
                }
            }
            if let Some((m, cells)) = found.filter(|&(_, c)| c > 0) {
                estimates.push(cells as f64 * (2f64).powi(m as i32));
            }
        }
        let estimate = if estimates.is_empty() {
            (pivot + 1) as f64
        } else {
            estimates.sort_by(|a, b| a.partial_cmp(b).unwrap());
            estimates[estimates.len() / 2]
        };
        ApproxCount {
            estimate,
            exact: None,
            solver_calls,
            xor_rows: (n * params.iterations()) as u64,
        }
    }

    /// One random referee case: a CNF over projection and auxiliary
    /// variables, optionally scoped by a gate assumption.
    fn random_case(seed: u64) -> (Solver, Vec<Var>, Vec<Lit>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut solver = Solver::new();
        let width = rng.gen_range(1..10);
        let vars = free_vars(&mut solver, width);
        let aux = free_vars(&mut solver, rng.gen_range(0..5));
        let all: Vec<Var> = vars.iter().chain(&aux).copied().collect();
        let lit = |rng: &mut StdRng| Lit::with_sign(all[rng.gen_range(0..all.len())], rng.gen());
        let mut base = Vec::new();
        match seed % 4 {
            // Random clauses: anything from the full space to UNSAT.
            0 => {
                for _ in 0..rng.gen_range(0..width + 1) {
                    let clause: Vec<Lit> =
                        (0..rng.gen_range(2..4)).map(|_| lit(&mut rng)).collect();
                    solver.add_clause(&clause);
                }
            }
            // All-free projection; auxiliaries tied to it only under a
            // gate, so the gated count is a subset.
            1 => {
                let gate = solver.new_var();
                for _ in 0..rng.gen_range(0..3) {
                    let clause = [Lit::neg(gate), lit(&mut rng), lit(&mut rng)];
                    solver.add_clause(&clause);
                }
                if rng.gen() {
                    base.push(Lit::pos(gate));
                }
            }
            // UNSAT under the base: the gate forces x and ¬x.
            2 => {
                let gate = solver.new_var();
                solver.add_clause(&[Lit::neg(gate), Lit::pos(vars[0])]);
                solver.add_clause(&[Lit::neg(gate), Lit::neg(vars[0])]);
                base.push(Lit::pos(gate));
            }
            // A single solution.
            _ => {
                for &v in &vars {
                    solver.add_clause(&[Lit::with_sign(v, rng.gen())]);
                }
            }
        }
        (solver, vars, base)
    }

    #[test]
    fn carried_search_matches_the_reference_with_no_more_calls() {
        let mut hashed = 0;
        for seed in 0..240u64 {
            let params = [
                CountParams::new(0.8, 0.3).unwrap(),
                CountParams::new(3.0, 0.3).unwrap(),
                CountParams::new(1.5, 0.2).unwrap(),
            ][seed as usize % 3];
            let (mut solver, vars, base) = random_case(seed);
            let got = approx_count(
                &mut solver,
                &base,
                &vars,
                &params,
                &mut StdRng::seed_from_u64(seed),
            );
            let (mut solver, vars, base) = random_case(seed);
            let want = reference_count(
                &mut solver,
                &base,
                &vars,
                &params,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_eq!(got.estimate, want.estimate, "case {seed}: estimate");
            assert_eq!(got.exact, want.exact, "case {seed}: exact");
            assert!(
                got.solver_calls <= want.solver_calls,
                "case {seed}: {} solver calls, the reference needs {}",
                got.solver_calls,
                want.solver_calls
            );
            assert!(got.xor_rows <= want.xor_rows, "case {seed}: rows");
            match seed % 4 {
                2 => assert_eq!(got.exact, Some(0), "case {seed}: UNSAT"),
                3 => assert_eq!(got.exact, Some(1), "case {seed}: one solution"),
                _ => {}
            }
            hashed += usize::from(got.exact.is_none());
        }
        assert!(hashed >= 40, "only {hashed} cases exceeded the pivot");
    }

    #[test]
    fn warm_search_finds_the_bisection_answer() {
        // Every monotone non-increasing cell profile over 1..=n, from every
        // start: the same (m, cells) as plain bisection, probes never
        // repeated.
        let pivot = 3;
        for n in 0..=7usize {
            // Profiles: cells(m) = profile[m - 1], non-increasing, values
            // 0..=5 straddling the pivot.
            let mut profile = vec![5u64; n];
            loop {
                let cold = smallest_fitting(n, pivot, None, |m| profile[m - 1]);
                let want = profile
                    .iter()
                    .position(|&c| c <= pivot)
                    .map(|i| (i + 1, profile[i]));
                assert_eq!(cold, want, "bisection on {profile:?}");
                for start in 1..=n + 1 {
                    let mut probed = Vec::new();
                    let warm = smallest_fitting(n, pivot, Some(start), |m| {
                        assert!(!probed.contains(&m), "m = {m} probed twice");
                        probed.push(m);
                        profile[m - 1]
                    });
                    assert_eq!(warm, want, "start {start} on {profile:?}");
                }
                // Next non-increasing profile: decrement the last entry
                // that can go lower, reset the tail to it.
                let Some(i) = (0..n).rev().find(|&i| profile[i] > 0) else {
                    break;
                };
                profile[i] -= 1;
                let v = profile[i];
                profile[i + 1..].iter_mut().for_each(|c| *c = v);
            }
        }
    }

    #[test]
    fn carried_solutions_save_calls_on_a_large_space() {
        // 2^10 free vars: after the base enumeration the list already holds
        // pivot + 1 solutions, so low-m probes cost no solver call.
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 10);
        let params = CountParams::default();
        let got = approx_count(
            &mut solver,
            &[],
            &vars,
            &params,
            &mut StdRng::seed_from_u64(3),
        );
        let mut solver = Solver::new();
        let vars = free_vars(&mut solver, 10);
        let want = reference_count(
            &mut solver,
            &[],
            &vars,
            &params,
            &mut StdRng::seed_from_u64(3),
        );
        assert_eq!(got.estimate, want.estimate);
        assert!(got.solver_calls < want.solver_calls, "{got:?} vs {want:?}");
        assert!(got.xor_rows < want.xor_rows, "rows are encoded on demand");
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
