//! The oracle-guided SAT attack (Subramanyan, Ray, Malik — HOST'15).
//!
//! Builds a miter of two copies of the locked netlist sharing data inputs
//! with independent keys, then iteratively: find a distinguishing input
//! pattern (DIP), query the oracle, and constrain both copies to agree with
//! the oracle on that pattern. When the miter becomes unsatisfiable every
//! surviving key is correct.
//!
//! Against a GK-locked design (attacker's view: KEYGEN stripped, GK key as
//! a primary input) the very first miter query is **unsatisfiable** — the
//! GK's static function is key-independent, so no DIP exists and the attack
//! is invalid from the start (paper Secs. V-A, VI).

use crate::cancel::CancelToken;
use crate::oracle::ComboOracle;
use glitchlock_netlist::{
    Aig, AigLit, CombView, EvalProgram, Logic, NetId, Netlist, PackedLogic, LANES,
};
use glitchlock_obs::{self as obs, names};
use glitchlock_sat::{
    encode_aig_into, EncoderKind, Lit, SatResult, Solver, SolverBackend, SolverStats, Var,
};
use std::time::Instant;

/// Renders a pattern as a `0`/`1` string for trace events (index 0 first).
pub(crate) fn bits(pattern: &[bool]) -> String {
    pattern.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

/// How the attack ended.
#[derive(Clone, Debug, PartialEq)]
pub enum SatOutcome {
    /// The DIP loop converged: every remaining key agrees with the oracle
    /// on all queried patterns.
    KeyRecovered {
        /// The recovered key, in `key_inputs` order.
        key: Vec<bool>,
    },
    /// The miter was unsatisfiable before any DIP was found — the paper's
    /// GK result: the attack cannot even start. `arbitrary_key` is a key
    /// satisfying the (empty) constraints, demonstrating that all keys are
    /// equivalent in the attacker's static view.
    NoDipAtFirstIteration {
        /// Any key (they are all equivalent to the attacker).
        arbitrary_key: Vec<bool>,
    },
    /// Gave up after the iteration budget.
    IterationLimit,
    /// Stopped early because the attached [`CancelToken`] fired (campaign
    /// timeout or external shutdown). No key claim is made.
    Cancelled,
}

/// The attack transcript.
#[derive(Clone, Debug)]
pub struct SatAttackResult {
    /// Final outcome.
    pub outcome: SatOutcome,
    /// Number of DIP iterations executed (0 when no DIP ever existed).
    pub iterations: usize,
    /// The distinguishing input patterns found, in order.
    pub dips: Vec<Vec<bool>>,
    /// Solver statistics at termination.
    pub stats: SolverStats,
}

impl SatAttackResult {
    /// Convenience: the recovered key, if the attack succeeded.
    pub fn key(&self) -> Option<&[bool]> {
        match &self.outcome {
            SatOutcome::KeyRecovered { key } => Some(key),
            _ => None,
        }
    }
}

/// The attack configuration and inputs.
#[derive(Debug)]
pub struct SatAttack<'a> {
    /// The locked netlist, as the attacker sees it.
    pub locked: &'a Netlist,
    /// Which of the locked netlist's primary inputs are key inputs.
    pub key_inputs: Vec<NetId>,
    /// Primary inputs to hold at 0 and exclude from DIPs (e.g. stale key
    /// pins left behind by a structural replacement).
    pub ignored_inputs: Vec<NetId>,
    /// The activated chip.
    pub oracle: &'a Netlist,
    /// DIP iteration budget.
    pub max_iterations: usize,
    /// Optional cooperative cancellation: polled before every DIP
    /// iteration (a single solver call is never interrupted).
    pub cancel: Option<CancelToken>,
}

impl<'a> SatAttack<'a> {
    /// A default-budget attack.
    pub fn new(locked: &'a Netlist, key_inputs: Vec<NetId>, oracle: &'a Netlist) -> Self {
        SatAttack {
            locked,
            key_inputs,
            ignored_inputs: Vec::new(),
            oracle,
            max_iterations: 4096,
            cancel: None,
        }
    }

    /// Runs the attack.
    ///
    /// # Panics
    ///
    /// Panics if the locked view's non-key inputs do not align with the
    /// oracle's inputs, or the netlists are cyclic.
    pub fn run(&self) -> SatAttackResult {
        let _span = obs::span("attack.sat");
        let iter_counter = obs::counter(names::SAT_ITERATIONS);
        let dip_counter = obs::counter(names::SAT_DIPS);
        let mut session = MiterSession::new(
            self.locked,
            &self.key_inputs,
            &self.ignored_inputs,
            self.oracle,
        );
        let mut dips = Vec::new();
        let mut iterations = 0;
        loop {
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                obs::event("result", "sat_attack")
                    .str("outcome", "cancelled")
                    .u64("iterations", iterations as u64)
                    .u64("dips", dips.len() as u64)
                    .emit();
                return SatAttackResult {
                    outcome: SatOutcome::Cancelled,
                    iterations,
                    dips,
                    stats: session.stats(),
                };
            }
            let Some(dip) = session.find_dip() else { break };
            iterations += 1;
            if iterations > self.max_iterations {
                obs::event("result", "sat_attack")
                    .str("outcome", "iteration-limit")
                    .u64("iterations", self.max_iterations as u64)
                    .u64("dips", dips.len() as u64)
                    .emit();
                return SatAttackResult {
                    outcome: SatOutcome::IterationLimit,
                    iterations: self.max_iterations,
                    dips,
                    stats: session.stats(),
                };
            }
            iter_counter.incr();
            dip_counter.incr();
            obs::event("dip", "sat")
                .u64("iter", iterations as u64)
                .str_with("pattern", || bits(&dip))
                .emit();
            let response = session.query_oracle(&dip);
            session.add_io_constraint(&dip, &response);
            dips.push(dip);
        }

        // Extract a surviving key from the accumulated constraints. When
        // the last miter call was UNSAT at the root — the formula itself,
        // not the miter-gate assumption, is contradictory — the
        // accumulated IO constraints admit no key at all and the
        // extraction solve is pointless; skip it. An assumption-UNSAT
        // miter (empty-core case excluded by `failed_assumptions`) is the
        // normal convergence: no more DIPs, surviving keys are correct.
        let extracted = if session.miter_root_unsat() {
            None
        } else {
            session.extract_key()
        };
        let (outcome, outcome_name) = match extracted {
            None => {
                // The constraints themselves became unsatisfiable: the
                // attack view cannot reproduce the oracle under any key
                // (GK's static inverter does exactly this), so the attack
                // is exhausted without a key.
                (SatOutcome::IterationLimit, "constraints-exhausted")
            }
            Some(key) => {
                if iterations == 0 {
                    (
                        SatOutcome::NoDipAtFirstIteration { arbitrary_key: key },
                        "no-dip-at-first-iteration",
                    )
                } else {
                    (SatOutcome::KeyRecovered { key }, "key-recovered")
                }
            }
        };
        obs::event("result", "sat_attack")
            .str("outcome", outcome_name)
            .u64("iterations", iterations as u64)
            .u64("dips", dips.len() as u64)
            .str_with("key", || match &outcome {
                SatOutcome::KeyRecovered { key }
                | SatOutcome::NoDipAtFirstIteration { arbitrary_key: key } => bits(key),
                SatOutcome::IterationLimit | SatOutcome::Cancelled => String::new(),
            })
            .emit();
        SatAttackResult {
            outcome,
            iterations,
            dips,
            stats: session.stats(),
        }
    }
}

/// The incremental miter machinery shared by the exact SAT attack and the
/// approximate (AppSAT-style) variant: two keyed circuit copies over shared
/// data inputs, a gated output miter, and IO-constraint injection.
pub struct MiterSession<'a> {
    locked: &'a Netlist,
    view: CombView,
    locked_program: EvalProgram,
    oracle: ComboOracle<'a>,
    solver: Solver,
    role: Vec<Role>,
    data_ix: Vec<usize>,
    key_ix: Vec<usize>,
    /// Per view-input solver variables of the first and second miter copy.
    /// Non-key positions share variables between the copies.
    in1: Vec<Var>,
    in2: Vec<Var>,
    miter_gate: Var,
    /// The locked view lowered to a strashed AIG once; replayed per IO
    /// constraint with data pins as constants so the rewrite rules fold
    /// each constraint copy down to its key cone.
    single: Aig,
    /// Stats snapshot at the previous solver call, for per-call deltas.
    last_stats: SolverStats,
    /// True when the last `find_dip` came back UNSAT at the root (the
    /// formula, not the miter-gate assumption, is contradictory).
    root_unsat: bool,
}

impl<'a> MiterSession<'a> {
    /// Builds the two-copy miter. The locked view is lowered to a
    /// strashed AIG once and replayed for both copies into one graph —
    /// structural hashing merges every key-independent cone between the
    /// copies, and output pairs whose AIG literals coincide are provably
    /// key-independent and skipped by the miter entirely.
    ///
    /// # Panics
    ///
    /// Panics when the locked view's non-key inputs do not align with the
    /// oracle.
    pub fn new(
        locked: &'a Netlist,
        key_inputs: &[NetId],
        ignored_inputs: &[NetId],
        oracle: &'a Netlist,
    ) -> Self {
        let view = CombView::new(locked);
        let locked_program = EvalProgram::compile(locked).expect("locked netlist must be acyclic");
        let oracle = ComboOracle::new(oracle);
        let mut role = vec![Role::Data; view.num_inputs()];
        for (i, net) in view.input_nets().iter().enumerate() {
            if key_inputs.contains(net) {
                role[i] = Role::Key;
            } else if ignored_inputs.contains(net) {
                role[i] = Role::Ignored;
            }
        }
        let data_ix: Vec<usize> = (0..role.len()).filter(|&i| role[i] == Role::Data).collect();
        let key_ix: Vec<usize> = (0..role.len()).filter(|&i| role[i] == Role::Key).collect();
        assert_eq!(
            data_ix.len(),
            oracle.num_inputs(),
            "locked view data inputs must align with the oracle"
        );
        assert_eq!(
            view.num_outputs(),
            oracle.num_outputs(),
            "output widths must align"
        );

        let mut solver = Solver::new();
        let single = Aig::from_comb(locked, &view);
        let mut miter = Aig::new();
        // Shared input per non-key position; two inputs per key position.
        // `ord*` remember each position's miter-input ordinal so solver
        // variables can be mapped back.
        let mut map1 = Vec::with_capacity(role.len());
        let mut map2 = Vec::with_capacity(role.len());
        let mut ord1 = Vec::with_capacity(role.len());
        let mut ord2 = Vec::with_capacity(role.len());
        for &r in &role {
            let o1 = miter.num_inputs();
            let l1 = miter.add_input();
            let (o2, l2) = if r == Role::Key {
                (miter.num_inputs(), miter.add_input())
            } else {
                (o1, l1)
            };
            map1.push(l1);
            map2.push(l2);
            ord1.push(o1);
            ord2.push(o2);
        }
        let out1 = single.rebuild_into(&mut miter, &map1);
        let out2 = single.rebuild_into(&mut miter, &map2);
        for (&a, &b) in out1.iter().zip(&out2) {
            // Equal literals mean strash proved the output key-independent:
            // no clause needed.
            let d = miter.xor(a, b);
            if d != AigLit::FALSE {
                miter.mark_output(d);
            }
        }
        // Only the cone feeding the surviving diff outputs goes to the
        // solver — logic that no key-dependent output observes never
        // becomes a clause. Every miter input still gets a solver variable
        // up front: `find_dip`/`extract_key` read them, and off-cone data
        // bits are legitimately free.
        let input_vars: Vec<Var> = (0..miter.num_inputs()).map(|_| solver.new_var()).collect();
        let keep: Vec<usize> = (0..miter.outputs().len()).collect();
        let cone = miter.extract_cone(&keep);
        let pinned: Vec<Option<Var>> = cone.support.iter().map(|&k| Some(input_vars[k])).collect();
        let diff_lits = encode_aig_into(&mut solver, &cone.aig, &pinned).output_lits;
        let in1: Vec<Var> = ord1.iter().map(|&o| input_vars[o]).collect();
        let in2: Vec<Var> = ord2.iter().map(|&o| input_vars[o]).collect();
        for i in (0..role.len()).filter(|&i| role[i] == Role::Ignored) {
            solver.add_clause(&[Lit::neg(in1[i])]);
        }
        let miter_gate = solver.new_var();
        let mut miter_clause = vec![Lit::neg(miter_gate)];
        miter_clause.extend(diff_lits);
        solver.add_clause(&miter_clause);
        MiterSession {
            locked,
            view,
            locked_program,
            oracle,
            solver,
            role,
            data_ix,
            key_ix,
            in1,
            in2,
            miter_gate,
            single,
            last_stats: SolverStats::default(),
            root_unsat: false,
        }
    }

    /// [`MiterSession::new`] with the solver profile and CNF encoder
    /// spelled out. Each type has exactly one value, so this builds the
    /// same miter as `new`.
    ///
    /// # Panics
    ///
    /// Panics when the locked view's non-key inputs do not align with the
    /// oracle.
    pub fn with_config(
        locked: &'a Netlist,
        key_inputs: &[NetId],
        ignored_inputs: &[NetId],
        oracle: &'a Netlist,
        _backend: SolverBackend,
        _encoder: EncoderKind,
    ) -> Self {
        MiterSession::new(locked, key_inputs, ignored_inputs, oracle)
    }

    /// Searches for a distinguishing input pattern; `None` means the miter
    /// is unsatisfiable under the accumulated constraints. Check
    /// [`MiterSession::miter_root_unsat`] to learn whether the UNSAT came
    /// from the miter-gate assumption (normal convergence) or the formula
    /// itself (contradictory IO constraints: no key exists).
    pub fn find_dip(&mut self) -> Option<Vec<bool>> {
        let gate = Lit::pos(self.miter_gate);
        match self.timed_solve(Some(gate), "find_dip") {
            SatResult::Unsat => None,
            SatResult::Sat => Some(
                self.data_ix
                    .iter()
                    .map(|&i| self.solver.value(self.in1[i]).unwrap_or(false))
                    .collect(),
            ),
        }
    }

    /// Queries the activated chip.
    pub fn query_oracle(&self, data: &[bool]) -> Vec<bool> {
        self.oracle.query(data)
    }

    /// Queries the activated chip with a batch of patterns, 64 per packed
    /// evaluation pass.
    pub fn query_oracle_many(&self, data: &[impl AsRef<[bool]>]) -> Vec<Vec<bool>> {
        self.oracle.query_many(data)
    }

    /// Constrains both key copies to agree with `response` on `data`.
    ///
    /// The constraint copy is built by replaying the lowered view with the
    /// data pins as constant literals, so the rewrite rules fold the copy
    /// down to its key cone before any clause is emitted; a constraint
    /// contradicting a constant output lands on the always-false constant
    /// variable and makes the formula UNSAT, as it should.
    pub fn add_io_constraint(&mut self, data: &[bool], response: &[bool]) {
        for copy_ix in 0..2 {
            let key_vars = if copy_ix == 0 { &self.in1 } else { &self.in2 };
            let mut cone = Aig::new();
            let mut map = Vec::with_capacity(self.role.len());
            let mut pinned: Vec<Option<Var>> = Vec::new();
            let mut di = 0;
            for (&role, &kv) in self.role.iter().zip(key_vars) {
                map.push(match role {
                    Role::Key => {
                        pinned.push(Some(kv));
                        cone.add_input()
                    }
                    Role::Ignored => AigLit::FALSE,
                    Role::Data => {
                        let b = data[di];
                        di += 1;
                        if b {
                            AigLit::TRUE
                        } else {
                            AigLit::FALSE
                        }
                    }
                });
            }
            for (j, lit) in self.single.rebuild_into(&mut cone, &map).iter().enumerate() {
                cone.mark_output(lit.complement_if(!response[j]));
            }
            let ports = encode_aig_into(&mut self.solver, &cone, &pinned);
            for &out in &ports.output_lits {
                self.solver.add_clause(&[out]);
            }
        }
    }

    /// A key satisfying every recorded IO constraint, or `None` when the
    /// constraints are contradictory.
    pub fn extract_key(&mut self) -> Option<Vec<bool>> {
        match self.timed_solve(None, "extract_key") {
            SatResult::Unsat => None,
            SatResult::Sat => Some(
                self.key_ix
                    .iter()
                    .map(|&i| self.solver.value(self.in1[i]).unwrap_or(false))
                    .collect(),
            ),
        }
    }

    /// Evaluates the locked view under (data, key) without the solver —
    /// used by the approximate attack's error probes.
    pub fn eval_locked(&self, data: &[bool], key: &[bool]) -> Vec<bool> {
        let mut inputs = vec![Logic::Zero; self.view.num_inputs()];
        for (di, &i) in self.data_ix.iter().enumerate() {
            inputs[i] = Logic::from_bool(data[di]);
        }
        for (ki, &i) in self.key_ix.iter().enumerate() {
            inputs[i] = Logic::from_bool(key[ki]);
        }
        self.view
            .eval(self.locked, &inputs)
            .into_iter()
            .map(|v| v == Logic::One)
            .collect()
    }

    /// Batched [`MiterSession::eval_locked`]: evaluates the locked view
    /// under one key for many data patterns, 64 per packed pass through the
    /// compiled program. Key lanes are splatted constants; result rows are
    /// in pattern order.
    pub fn eval_locked_many(&self, data: &[impl AsRef<[bool]>], key: &[bool]) -> Vec<Vec<bool>> {
        let mut buf = self.locked_program.scratch();
        let mut results = Vec::with_capacity(data.len());
        for chunk in data.chunks(LANES) {
            let mut words = vec![PackedLogic::splat(Logic::Zero); self.view.num_inputs()];
            for (ki, &i) in self.key_ix.iter().enumerate() {
                words[i] = PackedLogic::splat(Logic::from_bool(key[ki]));
            }
            for (lane, row) in chunk.iter().enumerate() {
                let row = row.as_ref();
                assert_eq!(row.len(), self.data_ix.len(), "data width");
                for (di, &i) in self.data_ix.iter().enumerate() {
                    words[i].set(lane, Logic::from_bool(row[di]));
                }
            }
            let outs = self
                .view
                .eval_packed_words(&self.locked_program, &words, &mut buf);
            for lane in 0..chunk.len() {
                results.push(outs.iter().map(|w| w.get(lane) == Logic::One).collect());
            }
        }
        results
    }

    /// Number of data inputs (DIP width).
    pub fn data_width(&self) -> usize {
        self.data_ix.len()
    }

    /// True when the last miter solve proved the formula itself (not the
    /// miter-gate assumption) unsatisfiable: the accumulated IO
    /// constraints admit no key. Distinguished via the solver's
    /// assumption unsat core.
    pub fn miter_root_unsat(&self) -> bool {
        self.root_unsat
    }

    /// Current CNF size of the live miter solver as `(variables,
    /// clauses)`.
    pub fn cnf_size(&self) -> (u64, u64) {
        (
            u64::from(self.solver.num_vars()),
            self.solver.num_clauses() as u64,
        )
    }

    /// Runs the solver with telemetry: per-call wall time, cumulative
    /// call/variable/clause/search counters, and (when tracing) a
    /// `solver-call` event recording CNF growth.
    fn timed_solve(&mut self, assumption: Option<Lit>, site: &str) -> SatResult {
        let started = Instant::now();
        let result = match assumption {
            Some(lit) => self.solver.solve_with(&[lit]),
            None => self.solver.solve(),
        };
        let dur = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut unsat_kind = None;
        if assumption.is_some() && result == SatResult::Unsat {
            let root = self.solver.failed_assumptions().is_empty();
            self.root_unsat = root;
            unsat_kind = Some(if root { "root" } else { "assumptions" });
        }
        let collector = obs::current();
        collector.counter(names::SAT_SOLVER_CALLS).incr();
        collector.hist(names::SAT_SOLVER_NS).observe(dur);
        let vars = u64::from(self.solver.num_vars());
        let clauses = self.solver.num_clauses() as u64;
        collector.gauge(names::SAT_VARS).set(vars as f64);
        collector.gauge(names::SAT_CLAUSES).set(clauses as f64);
        // Per-solve search-effort deltas under the sat.* namespace.
        let stats = self.solver.stats();
        let prev = self.last_stats;
        self.last_stats = stats;
        collector
            .counter(names::SAT_CONFLICTS)
            .add(stats.conflicts - prev.conflicts);
        collector
            .counter(names::SAT_PROPAGATIONS)
            .add(stats.propagations - prev.propagations);
        collector
            .counter(names::SAT_RESTARTS)
            .add(stats.restarts - prev.restarts);
        collector
            .counter(names::SAT_REDUCTIONS)
            .add(stats.reductions - prev.reductions);
        collector.gauge(names::SAT_LEARNT).set(stats.learnt as f64);
        collector
            .gauge(names::SAT_MEAN_LBD_MILLI)
            .set(stats.mean_lbd_milli() as f64);
        let mut event = obs::event("solver-call", site)
            .str(
                "result",
                if result == SatResult::Sat {
                    "sat"
                } else {
                    "unsat"
                },
            )
            .u64("vars", vars)
            .u64("clauses", clauses)
            .u64("conflicts", stats.conflicts - prev.conflicts)
            .u64("dur_ns", dur);
        if let Some(kind) = unsat_kind {
            event = event.str("unsat_kind", kind);
        }
        event.emit();
        result
    }

    /// Solver statistics.
    pub fn stats(&self) -> SolverStats {
        self.solver.stats()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Role {
    Data,
    Key,
    Ignored,
}

/// Checks a recovered key by exhaustive or sampled comparison of the locked
/// view against the oracle. Returns the match rate over the tried patterns.
///
/// Both netlists are compiled once and evaluated bit-parallel, 64 random
/// patterns per pass, with the key lanes splatted to constants.
pub fn key_match_rate(
    locked: &Netlist,
    key_inputs: &[NetId],
    key: &[bool],
    oracle: &Netlist,
    samples: usize,
    rng: &mut impl rand::Rng,
) -> f64 {
    let view = CombView::new(locked);
    let oracle_view = CombView::new(oracle);
    let locked_program = EvalProgram::compile(locked).expect("locked netlist is acyclic");
    let oracle_program = EvalProgram::compile(oracle).expect("oracle netlist is acyclic");
    let data_positions: Vec<usize> = view
        .input_nets()
        .iter()
        .enumerate()
        .filter(|(_, n)| !key_inputs.contains(n))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(data_positions.len(), oracle_view.num_inputs());
    // One splatted constant word per locked view input that is a key pin.
    let key_words: Vec<Option<PackedLogic>> = view
        .input_nets()
        .iter()
        .map(|n| {
            key_inputs
                .iter()
                .position(|k| k == n)
                .map(|pos| PackedLogic::splat(Logic::from_bool(key[pos])))
        })
        .collect();
    let mut locked_buf = locked_program.scratch();
    let mut oracle_buf = oracle_program.scratch();
    let mut matches = 0usize;
    let mut done = 0usize;
    while done < samples {
        let lanes = LANES.min(samples - done);
        // Draw sample-major so the consumed RNG stream matches the scalar
        // one-pattern-at-a-time loop this replaces.
        let mut data_words = vec![PackedLogic::splat(Logic::Zero); data_positions.len()];
        for lane in 0..lanes {
            for w in data_words.iter_mut() {
                w.set(lane, Logic::from_bool(rng.gen()));
            }
        }
        let mut di = 0;
        let locked_words: Vec<PackedLogic> = key_words
            .iter()
            .map(|kw| {
                kw.unwrap_or_else(|| {
                    let w = data_words[di];
                    di += 1;
                    w
                })
            })
            .collect();
        let got = view.eval_packed_words(&locked_program, &locked_words, &mut locked_buf);
        let expect = oracle_view.eval_packed_words(&oracle_program, &data_words, &mut oracle_buf);
        for lane in 0..lanes {
            if got
                .iter()
                .zip(&expect)
                .all(|(g, e)| g.get(lane) == e.get(lane))
            {
                matches += 1;
            }
        }
        done += lanes;
    }
    matches as f64 / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_core::locking::{LockScheme, MuxLock, SarLock, XorLock};
    use glitchlock_netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_circuit() -> Netlist {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let w1 = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let w2 = nl.add_gate(GateKind::Nor, &[c, d]).unwrap();
        let w3 = nl.add_gate(GateKind::Xor, &[w1, w2]).unwrap();
        let w4 = nl.add_gate(GateKind::And, &[w1, c]).unwrap();
        let q = nl.add_dff(w3).unwrap();
        let y = nl.add_gate(GateKind::Or, &[q, w4]).unwrap();
        nl.mark_output(y, "y");
        nl.mark_output(w3, "z");
        nl
    }

    #[test]
    fn cracks_xor_locking() {
        let nl = test_circuit();
        let mut rng = StdRng::seed_from_u64(21);
        let locked = XorLock::new(5).lock(&nl, &mut rng).unwrap();
        let attack = SatAttack::new(&locked.netlist, locked.key_inputs.clone(), &nl);
        let result = attack.run();
        let key = result.key().expect("XOR locking must fall").to_vec();
        // The recovered key need not equal the inserted one bit-for-bit,
        // but it must make the circuit functionally correct.
        let rate = key_match_rate(
            &locked.netlist,
            &locked.key_inputs,
            &key,
            &nl,
            200,
            &mut rng,
        );
        assert_eq!(rate, 1.0, "recovered key must be functionally correct");
        assert!(result.iterations >= 1);
    }

    #[test]
    fn cracks_mux_locking() {
        let nl = test_circuit();
        let mut rng = StdRng::seed_from_u64(22);
        let locked = MuxLock::new(3).lock(&nl, &mut rng).unwrap();
        let attack = SatAttack::new(&locked.netlist, locked.key_inputs.clone(), &nl);
        let result = attack.run();
        let key = result.key().expect("MUX locking must fall").to_vec();
        let rate = key_match_rate(
            &locked.netlist,
            &locked.key_inputs,
            &key,
            &nl,
            200,
            &mut rng,
        );
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn sarlock_needs_many_dips() {
        // SARLock's whole point: each DIP kills one key. With n key bits
        // the attack needs ~2^n iterations (here n = 4 -> >= 8).
        let nl = test_circuit();
        let mut rng = StdRng::seed_from_u64(23);
        let locked = SarLock::new(4).lock(&nl, &mut rng).unwrap();
        let attack = SatAttack::new(&locked.netlist, locked.key_inputs.clone(), &nl);
        let result = attack.run();
        let key = result.key().expect("SARLock falls eventually").to_vec();
        assert!(
            result.iterations >= 8,
            "point function must drag out the attack: {} iterations",
            result.iterations
        );
        let rate = key_match_rate(
            &locked.netlist,
            &locked.key_inputs,
            &key,
            &nl,
            200,
            &mut rng,
        );
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn unlockable_key_free_circuit_is_no_dip() {
        // A "locked" design with a key input that does not affect anything:
        // the miter is UNSAT at iteration 1, like a GK in the static view.
        let nl = test_circuit();
        let mut locked = nl.clone();
        let k = locked.add_input("key0");
        // Key feeds a gate whose output goes nowhere.
        let _dead = locked.add_gate(GateKind::Inv, &[k]).unwrap();
        let attack = SatAttack::new(&locked, vec![k], &nl);
        let result = attack.run();
        assert!(matches!(
            result.outcome,
            SatOutcome::NoDipAtFirstIteration { .. }
        ));
        assert_eq!(result.iterations, 0);
        assert!(result.dips.is_empty());
    }

    #[test]
    fn pre_cancelled_attack_returns_cancelled_without_solving() {
        let nl = test_circuit();
        let mut rng = StdRng::seed_from_u64(25);
        let locked = XorLock::new(4).lock(&nl, &mut rng).unwrap();
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let mut attack = SatAttack::new(&locked.netlist, locked.key_inputs.clone(), &nl);
        attack.cancel = Some(token);
        let result = attack.run();
        assert_eq!(result.outcome, SatOutcome::Cancelled);
        assert_eq!(result.iterations, 0);
        assert!(result.dips.is_empty());
    }

    #[test]
    fn iteration_limit_respected() {
        let nl = test_circuit();
        let mut rng = StdRng::seed_from_u64(24);
        let locked = SarLock::new(4).lock(&nl, &mut rng).unwrap();
        let mut attack = SatAttack::new(&locked.netlist, locked.key_inputs.clone(), &nl);
        attack.max_iterations = 2;
        let result = attack.run();
        assert_eq!(result.outcome, SatOutcome::IterationLimit);
        assert_eq!(result.iterations, 2);
    }
}
