//! The CDCL solver.
//!
//! One engine with glucose-style LBD clause management, EMA-driven
//! restarts with trail-depth blocking, and best-phase rephasing on top of
//! phase saving. The split modules hold the moving parts: `clause`
//! (storage), `restart` (schedule), `reduce` (DB reduction), `heap`
//! (VSIDS order).

use crate::clause::{ClauseArena, ClauseRef, Watcher, GLUE_LBD};
use crate::heap::ActivityHeap;
use crate::restart::RestartState;
use crate::{Cnf, Lit, Var};

/// The CDCL strategy profile a [`Solver`] runs. There is one; the type
/// keeps callers that spell out a full miter configuration (see
/// `MiterSession::with_config` in `glitchlock-attacks`) compiling, and
/// nothing branches on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SolverBackend {
    /// Glucose-style engine: LBD reduction, EMA restarts, rephasing.
    #[default]
    Modern,
}

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A model was found; read it with [`Solver::value`].
    Sat,
    /// The formula (under the given assumptions, if any) is unsatisfiable.
    Unsat,
}

/// Search statistics, useful in benchmarks and reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of branching decisions.
    pub decisions: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of clause-database reductions performed.
    pub reductions: u64,
    /// Sum of learnt-clause LBDs over all conflicts; divide by
    /// `conflicts` for the mean LBD (see [`SolverStats::mean_lbd_milli`]).
    pub lbd_sum: u64,
    /// Learned clauses currently kept.
    pub learnt: usize,
}

impl SolverStats {
    /// Mean learnt-clause LBD in thousandths (integer, so reports stay
    /// deterministic); 0 before the first conflict.
    pub fn mean_lbd_milli(&self) -> u64 {
        (self.lbd_sum * 1000)
            .checked_div(self.conflicts)
            .unwrap_or(0)
    }
}

/// Value bytes, one per literal code: a literal's value is one load.
const FALSE: u8 = 0;
const TRUE: u8 = 1;
pub(crate) const UNDEF: u8 = 2;

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f64 = 0.999;
const RESCALE_LIMIT: f64 = 1e100;
/// First clause-DB reduction after this many conflicts…
const REDUCE_BASE: u64 = 2000;
/// …and each later one after `REDUCE_STEP × reductions` more.
const REDUCE_STEP: u64 = 300;
/// Copy the best phase over saved phases this often.
const REPHASE_INTERVAL: u64 = 10_000;

/// A conflict-driven clause-learning SAT solver.
///
/// Supports incremental use: clauses may be added between `solve` calls and
/// [`Solver::solve_with`] solves under temporary assumptions. See the crate
/// docs for an example.
#[derive(Clone, Debug)]
pub struct Solver {
    pub(crate) arena: ClauseArena,
    pub(crate) watches: Vec<Vec<Watcher>>,
    /// The value of each literal, indexed by [`Lit::code`].
    vals: Vec<u8>,
    polarity: Vec<bool>,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order: ActivityHeap,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    pub(crate) reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    seen: Vec<bool>,
    /// False once an empty clause has been derived at level 0.
    ok: bool,
    /// Literal values copied before backtracking out of a SAT answer.
    saved_model: Vec<u8>,
    pub(crate) stats: SolverStats,
    pub(crate) num_learnt: usize,
    restart: RestartState,
    /// Assumption unsat core from the last Unsat answer (empty when the
    /// formula alone is unsatisfiable).
    failed: Vec<Lit>,
    /// Phases of the deepest trail seen since the last rephase.
    best_phase: Vec<bool>,
    best_trail: usize,
    /// Conflict counts that trigger the next reduction / rephase.
    reduce_limit: u64,
    rephase_limit: u64,
    /// Live (non-deleted) clause count, kept O(1) for telemetry.
    pub(crate) live_clauses: usize,
    /// Stamp array indexed by decision level, for O(len) LBD computation.
    lbd_stamp: Vec<u64>,
    lbd_gen: u64,
    /// Scratch buffers reused across calls: `add_clause`'s normalized
    /// literals and `analyze`'s learnt clause.
    add_buf: Vec<Lit>,
    learnt_buf: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// An empty solver.
    pub fn new() -> Self {
        Solver {
            arena: ClauseArena::default(),
            watches: Vec::new(),
            vals: Vec::new(),
            polarity: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order: ActivityHeap::default(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            reason: Vec::new(),
            level: Vec::new(),
            seen: Vec::new(),
            ok: true,
            saved_model: Vec::new(),
            stats: SolverStats::default(),
            num_learnt: 0,
            restart: RestartState::new(),
            failed: Vec::new(),
            best_phase: Vec::new(),
            best_trail: 0,
            reduce_limit: REDUCE_BASE,
            rephase_limit: REPHASE_INTERVAL,
            live_clauses: 0,
            lbd_stamp: vec![0],
            lbd_gen: 0,
            add_buf: Vec::new(),
            learnt_buf: Vec::new(),
        }
    }

    /// Builds a solver pre-loaded with a formula.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        while s.num_vars() < cnf.num_vars() {
            s.new_var();
        }
        for c in cnf.clauses() {
            s.add_clause(c);
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.level.len() as u32);
        self.vals.extend([UNDEF, UNDEF]);
        self.polarity.push(false);
        self.best_phase.push(false);
        self.activity.push(0.0);
        self.reason.push(None);
        self.level.push(0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        // Decision levels never exceed the variable count.
        self.lbd_stamp.push(0);
        self.order.grow_to(self.level.len());
        self.order.insert(v, &self.activity);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> u32 {
        self.level.len() as u32
    }

    /// Number of live (non-deleted) clauses, learnt ones included. Attack
    /// telemetry reads this to report CNF growth per iteration.
    pub fn num_clauses(&self) -> usize {
        self.live_clauses
    }

    /// Search statistics so far.
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            learnt: self.num_learnt,
            ..self.stats
        }
    }

    /// After an [`SatResult::Unsat`] answer from [`Solver::solve_with`]:
    /// the subset of the assumptions proven jointly inconsistent with the
    /// formula. Empty when the formula alone is unsatisfiable (and after
    /// any Sat answer), so emptiness distinguishes formula-UNSAT from
    /// assumption-UNSAT.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.failed
    }

    /// [`TRUE`], [`FALSE`] or [`UNDEF`].
    pub(crate) fn lit_value(&self, l: Lit) -> u8 {
        self.vals[l.code()]
    }

    /// Adds a clause. Returns `false` if the solver is now known
    /// unsatisfiable at level 0 (it stays usable and will keep reporting
    /// [`SatResult::Unsat`]).
    ///
    /// # Panics
    ///
    /// Panics if a literal references an unallocated variable or if called
    /// mid-search (clauses may only be added between `solve` calls).
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "clauses may only be added at decision level 0"
        );
        if !self.ok {
            return false;
        }
        for l in lits {
            assert!(l.var().0 < self.num_vars(), "literal {l} out of range");
        }
        // Normalize in the reused buffer: drop duplicate and false
        // literals, detect tautologies and satisfied clauses.
        let mut c = std::mem::take(&mut self.add_buf);
        c.clear();
        c.extend_from_slice(lits);
        c.sort_unstable();
        c.dedup();
        let mut kept = 0;
        let mut satisfied = false;
        let mut prev = None;
        for i in 0..c.len() {
            let l = c[i];
            // A tautology has p and !p adjacent after the sort; a true
            // literal satisfies the clause at level 0.
            if prev == Some(!l) || self.lit_value(l) == TRUE {
                satisfied = true;
                break;
            }
            prev = Some(l);
            if self.lit_value(l) == UNDEF {
                c[kept] = l;
                kept += 1;
            }
        }
        c.truncate(kept);
        let ok = match c.len() {
            _ if satisfied => true,
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(&c, false, 0);
                true
            }
        };
        self.add_buf = c;
        ok
    }

    /// Stores a clause of two or more literals and watches its first two.
    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt, lbd);
        let binary = lits.len() == 2;
        self.watches[(!lits[0]).code()].push(Watcher::new(cref, lits[1], binary));
        self.watches[(!lits[1]).code()].push(Watcher::new(cref, lits[0], binary));
        if learnt {
            self.num_learnt += 1;
        }
        self.live_clauses += 1;
        cref
    }

    pub(crate) fn enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.lit_value(l), UNDEF);
        let v = l.var();
        self.vals[l.code()] = TRUE;
        self.vals[(!l).code()] = FALSE;
        self.polarity[v.index()] = !l.is_neg();
        self.reason[v.index()] = reason;
        self.level[v.index()] = self.decision_level();
        self.trail.push(l);
    }

    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Unit propagation; returns the conflicting clause, if any.
    ///
    /// A binary clause is decided from its watcher: the blocker is the
    /// other literal, enqueued or reported as the conflict without reading
    /// the arena. A conflicting binary clause is rewritten `[other, ¬p]`,
    /// the order every clause the loop visits is left in, so conflict
    /// analysis walks it the same way.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = (!p).code() as u32;
            // take the watcher list to appease the borrow checker; put it
            // back (with moved-out entries removed) afterwards.
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let (mut i, mut j) = (0, 0);
            let mut conflict = None;
            while i < ws.len() {
                let w = ws[i];
                i += 1;
                let blocker_value = self.vals[w.blocker.code()];
                if blocker_value == TRUE {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref();
                let first = if w.is_binary() {
                    if blocker_value == FALSE {
                        let codes = self.arena.codes_mut(cref);
                        codes[0] = w.blocker.code() as u32;
                        codes[1] = false_lit;
                    }
                    w.blocker
                } else {
                    let codes = self.arena.codes_mut(cref);
                    // Ensure the false literal (!p) is in slot 1.
                    if codes[0] == false_lit {
                        codes.swap(0, 1);
                    }
                    debug_assert_eq!(codes[1], false_lit);
                    let first = Lit::from_code(codes[0] as usize);
                    if first != w.blocker && self.vals[first.code()] == TRUE {
                        ws[j] = Watcher::new(cref, first, false);
                        j += 1;
                        continue;
                    }
                    // Look for a new literal to watch.
                    if let Some(k) =
                        (2..codes.len()).find(|&k| self.vals[codes[k] as usize] != FALSE)
                    {
                        codes.swap(1, k);
                        let new_watch = Lit::from_code(codes[1] as usize);
                        self.watches[(!new_watch).code()].push(Watcher::new(cref, first, false));
                        continue;
                    }
                    first
                };
                // Clause is unit or conflicting.
                ws[j] = Watcher::new(cref, first, w.is_binary());
                j += 1;
                if self.vals[first.code()] == FALSE {
                    // Conflict: keep remaining watchers and bail out.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order
            .decrease_key_of_increased_activity(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let activity = self.arena.activity(cref) + self.cla_inc as f32;
        self.arena.set_activity(cref, activity);
        if activity > 1e20 {
            self.arena.scale_activities(1e-20);
            self.cla_inc *= 1e-20;
        }
    }

    /// Literal-block distance of a set of assigned literals: the number
    /// of distinct non-zero decision levels among them. O(len) via a
    /// per-level stamp array.
    pub(crate) fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        Self::lbd_in(
            &self.level,
            &mut self.lbd_stamp,
            &mut self.lbd_gen,
            lits.iter().copied(),
        )
    }

    fn lbd_in(
        level: &[u32],
        stamp: &mut [u64],
        gen: &mut u64,
        lits: impl Iterator<Item = Lit>,
    ) -> u32 {
        *gen += 1;
        let mut distinct = 0u32;
        for l in lits {
            let lvl = level[l.var().index()] as usize;
            if lvl == 0 {
                continue;
            }
            if stamp[lvl] != *gen {
                stamp[lvl] = *gen;
                distinct += 1;
            }
        }
        distinct
    }

    /// First-UIP conflict analysis. Leaves the learnt clause (asserting
    /// literal first, max-level literal second) in `learnt_buf` and
    /// returns the backtrack level and the learnt clause's LBD.
    ///
    /// A reason clause is read by skipping its implied literal: a long
    /// reason keeps it in slot 0, a binary one anywhere.
    fn analyze(&mut self, mut confl: ClauseRef) -> (u32, u32) {
        let mut learnt = std::mem::take(&mut self.learnt_buf);
        learnt.clear();
        learnt.push(Lit::pos(Var(0))); // placeholder
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            if self.arena.is_learnt(confl) {
                self.bump_clause(confl);
                // Dynamic LBD: a clause re-used in conflict analysis whose
                // LBD improved is doing well — refresh the score and shield
                // it from the next reduction.
                let fresh = Self::lbd_in(
                    &self.level,
                    &mut self.lbd_stamp,
                    &mut self.lbd_gen,
                    self.arena.lits(confl),
                );
                let lbd = self.arena.lbd(confl);
                if lbd != 0 && fresh < lbd {
                    let lbd = fresh.max(1);
                    self.arena.set_lbd(confl, lbd);
                    if lbd > GLUE_LBD {
                        self.arena.protect(confl);
                    }
                }
            }
            for k in 0..self.arena.len(confl) {
                let q = self.arena.lit(confl, k);
                if Some(q) == p {
                    continue;
                }
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Select the next literal to expand.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !pl;
                break;
            }
            p = Some(pl);
            confl = self.reason[pl.var().index()]
                .expect("non-decision literal on conflict side must have a reason");
            // Invariant: a long reason clause always has its implied
            // literal in slot 0 (propagate enqueues lits[0], and the watch
            // code never moves the slot-0 literal of a clause that is
            // acting as a reason), so skipping `p` visits lits[1..].
            debug_assert!(self.arena.len(confl) == 2 || self.arena.lit(confl, 0) == pl);
        }
        // Clear seen flags for the learnt clause.
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        let lbd = self.lbd_of(&learnt);
        // Backtrack level: the highest level among learnt[1..].
        let bt = if learnt.len() == 1 {
            0
        } else {
            // Move the max-level literal to slot 1 (second watch).
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        self.learnt_buf = learnt;
        (bt, lbd)
    }

    /// Final-conflict analysis (MiniSat's `analyzeFinal`): the assumption
    /// `p` came up false during assumption extension; walk the
    /// implication trail backwards to collect the subset of assumption
    /// decisions that forced it. Leaves the core, `p` included, in
    /// `failed`.
    fn analyze_final(&mut self, p: Lit) {
        self.failed.clear();
        self.failed.push(p);
        if self.level[p.var().index()] == 0 || self.trail_lim.is_empty() {
            // `!p` holds at level 0: the formula alone refutes `p`.
            return;
        }
        self.seen[p.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let v = self.trail[i].var();
            if !self.seen[v.index()] {
                continue;
            }
            self.seen[v.index()] = false;
            match self.reason[v.index()] {
                // During assumption extension every decision on the trail
                // is itself an assumption: it belongs in the core.
                None => self.failed.push(self.trail[i]),
                Some(cref) => {
                    // Every literal but the implied one (`trail[i]`).
                    for q in self.arena.lits(cref) {
                        if q.var() != v && self.level[q.var().index()] > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
        }
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let l = self.trail[i];
            self.vals[l.code()] = UNDEF;
            self.vals[(!l).code()] = UNDEF;
            let v = l.var();
            self.reason[v.index()] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order.pop_max(&self.activity) {
            if self.lit_value(Lit::pos(v)) == UNDEF {
                return Some(v);
            }
        }
        None
    }

    /// Records the phases of the deepest trail seen since the last
    /// rephase; periodic rephasing restores them wholesale.
    fn snapshot_best_phase(&mut self) {
        if self.trail.len() > self.best_trail {
            self.best_trail = self.trail.len();
            for &l in &self.trail {
                self.best_phase[l.var().index()] = !l.is_neg();
            }
        }
    }

    /// Solves the current formula.
    pub fn solve(&mut self) -> SatResult {
        self.solve_with(&[])
    }

    /// Solves under temporary assumptions: the formula plus the unit
    /// assumptions. The assumptions do not persist after the call. On an
    /// Unsat answer, [`Solver::failed_assumptions`] holds the assumption
    /// core.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SatResult {
        self.failed.clear();
        if !self.ok {
            return SatResult::Unsat;
        }
        let result = self.search(assumptions);
        self.saved_model.clear();
        if result == SatResult::Sat {
            self.saved_model.extend_from_slice(&self.vals);
        }
        self.cancel_until(0);
        result
    }

    fn search(&mut self, assumptions: &[Lit]) -> SatResult {
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                self.snapshot_best_phase();
                let (bt, lbd) = self.analyze(confl);
                self.stats.lbd_sum += u64::from(lbd);
                self.restart.on_conflict(lbd, self.trail.len());
                self.cancel_until(bt);
                let learnt = std::mem::take(&mut self.learnt_buf);
                let first = learnt[0];
                if learnt.len() == 1 {
                    if self.lit_value(first) == FALSE {
                        self.ok = false;
                        return SatResult::Unsat;
                    }
                    if self.lit_value(first) == UNDEF {
                        self.enqueue(first, None);
                    }
                } else {
                    let cref = self.attach_clause(&learnt, true, lbd.max(1));
                    self.bump_clause(cref);
                    self.enqueue(first, Some(cref));
                }
                self.learnt_buf = learnt;
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                if self.stats.conflicts >= self.reduce_limit {
                    self.reduce_db();
                    self.reduce_limit =
                        self.stats.conflicts + REDUCE_BASE + REDUCE_STEP * self.stats.reductions;
                }
            } else {
                if self.restart.should_restart() {
                    self.stats.restarts += 1;
                    self.restart.on_restart();
                    self.cancel_until(0);
                    if self.stats.conflicts >= self.rephase_limit {
                        self.polarity.copy_from_slice(&self.best_phase);
                        self.best_trail = 0;
                        self.rephase_limit = self.stats.conflicts + REPHASE_INTERVAL;
                    }
                    continue;
                }
                // Extend with assumptions first.
                if (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.lit_value(p) {
                        TRUE => {
                            // Already satisfied: open an empty level so the
                            // index keeps advancing.
                            self.trail_lim.push(self.trail.len());
                            continue;
                        }
                        FALSE => {
                            self.analyze_final(p);
                            return SatResult::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(p, None);
                            continue;
                        }
                    }
                }
                // Branch.
                match self.pick_branch_var() {
                    None => return SatResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.enqueue(Lit::with_sign(v, !phase), None);
                    }
                }
            }
        }
    }

    /// The model value of a variable after a [`SatResult::Sat`] answer;
    /// `None` when unassigned (a don't-care in the found model) or after an
    /// Unsat answer.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.saved_model.get(Lit::pos(v).code()) {
            Some(&TRUE) => Some(true),
            Some(&FALSE) => Some(false),
            _ => None,
        }
    }

    /// Snapshot of the full model (unassigned variables default to false).
    pub fn model(&self) -> Vec<bool> {
        (0..self.num_vars())
            .map(|i| self.value(Var(i)) == Some(true))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, pos: bool) -> Lit {
        Lit::with_sign(v, !pos)
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a)]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(a), Some(true));
        assert!(!s.add_clause(&[Lit::neg(a)]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        // v0, v0->v1, v1->v2, v2->v3, v3->v4
        s.add_clause(&[Lit::pos(vs[0])]);
        for w in vs.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for &v in &vs {
            assert_eq!(s.value(v), Some(true));
        }
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // 3 pigeons, 2 holes: p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn solve_with_assumptions_is_temporary() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        assert_eq!(s.solve_with(&[Lit::neg(a), Lit::neg(b)]), SatResult::Unsat);
        // The core names the assumptions, proving the formula itself is
        // still satisfiable.
        assert!(!s.failed_assumptions().is_empty());
        assert_eq!(s.solve(), SatResult::Sat);
        assert!(s.failed_assumptions().is_empty());
        assert_eq!(s.solve_with(&[Lit::neg(a)]), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn contradictory_assumptions() {
        let mut s = Solver::new();
        let a = s.new_var();
        let _ = s.new_var();
        assert_eq!(s.solve_with(&[Lit::pos(a), Lit::neg(a)]), SatResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&Lit::pos(a)) && core.contains(&Lit::neg(a)));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn failed_assumptions_distinguish_root_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        // Formula: a, !a — unsatisfiable on its own.
        s.add_clause(&[Lit::pos(a)]);
        s.add_clause(&[Lit::neg(a)]);
        assert_eq!(s.solve_with(&[Lit::pos(b)]), SatResult::Unsat);
        assert!(
            s.failed_assumptions().is_empty(),
            "root UNSAT must yield an empty core"
        );
    }

    #[test]
    fn failed_assumptions_core_is_minimal_enough_to_refute() {
        // Chain a -> b -> c plus clause (!c | !d): assuming a and d fails,
        // assuming the unrelated e must stay out of the core.
        let mut s = Solver::new();
        let v: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        let (a, b, c, d, e) = (v[0], v[1], v[2], v[3], v[4]);
        s.add_clause(&[Lit::neg(a), Lit::pos(b)]);
        s.add_clause(&[Lit::neg(b), Lit::pos(c)]);
        s.add_clause(&[Lit::neg(c), Lit::neg(d)]);
        let assumptions = [Lit::pos(e), Lit::pos(a), Lit::pos(d)];
        assert_eq!(s.solve_with(&assumptions), SatResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(!core.is_empty());
        for l in &core {
            assert!(assumptions.contains(l), "{l} not an assumption");
        }
        assert!(
            !core.contains(&Lit::pos(e)),
            "irrelevant assumption in core {core:?}"
        );
        // The core alone refutes the formula.
        let core_units = core.clone();
        assert_eq!(s.solve_with(&core_units), SatResult::Unsat);
        // And solving without assumptions still works.
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn xor_chain_parity() {
        // x1 ^ x2 ^ x3 = 1 encoded directly; satisfiable.
        let mut s = Solver::new();
        let x: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let clauses: [(bool, bool, bool); 4] = [
            (true, true, true),
            (true, false, false),
            (false, true, false),
            (false, false, true),
        ];
        for (a, b, c) in clauses {
            s.add_clause(&[lit(x[0], a), lit(x[1], b), lit(x[2], c)]);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        let parity = s.value(x[0]).unwrap() as u8
            ^ s.value(x[1]).unwrap() as u8
            ^ s.value(x[2]).unwrap() as u8;
        assert_eq!(parity, 1);
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        assert!(s.add_clause(&[Lit::pos(a), Lit::neg(a)])); // tautology
        assert!(s.add_clause(&[Lit::pos(b), Lit::pos(b), Lit::pos(b)]));
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.value(b), Some(true));
    }

    #[test]
    fn from_cnf_matches_brute_force_on_random_formulas() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0FFEE);
        for round in 0..200 {
            let n_vars = rng.gen_range(3..10u32);
            let n_clauses = rng.gen_range(2..40usize);
            let mut f = Cnf::new();
            for _ in 0..n_vars {
                f.new_var();
            }
            for _ in 0..n_clauses {
                let width = rng.gen_range(1..4usize);
                let lits: Vec<Lit> = (0..width)
                    .map(|_| Lit::with_sign(Var(rng.gen_range(0..n_vars)), rng.gen()))
                    .collect();
                f.add_clause(&lits);
            }
            let expect_sat = f.brute_force().is_some();
            let mut s = Solver::from_cnf(&f);
            let got = s.solve();
            assert_eq!(
                got == SatResult::Sat,
                expect_sat,
                "diverges from brute force in round {round}"
            );
            if got == SatResult::Sat {
                let model = s.model();
                assert!(
                    f.eval(&model),
                    "model must satisfy the formula (round {round})"
                );
            }
        }
    }

    #[test]
    fn lbd_counts_distinct_decision_levels() {
        let mut s = Solver::new();
        let v: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        // Fake an assignment landscape: levels 0, 1, 1, 2, 3.
        for (i, lvl) in [0u32, 1, 1, 2, 3].iter().enumerate() {
            s.level[i] = *lvl;
        }
        let all: Vec<Lit> = v.iter().map(|&x| Lit::pos(x)).collect();
        // Level 0 does not count; levels {1, 2, 3} are distinct.
        assert_eq!(s.lbd_of(&all), 3);
        assert_eq!(s.lbd_of(&all[..3]), 1, "two lits on one level");
        assert_eq!(s.lbd_of(&[all[0]]), 0, "level-0 only");
        // Stamps do not leak between calls.
        assert_eq!(s.lbd_of(&all), 3);
    }

    #[test]
    fn phase_saving_repeats_the_last_model() {
        // After a Sat answer the saved polarities equal the model, so a
        // re-solve re-decides the same phases (across restarts too).
        let mut s = Solver::new();
        let v: Vec<Var> = (0..8).map(|_| s.new_var()).collect();
        for w in v.windows(2) {
            s.add_clause(&[Lit::neg(w[0]), Lit::pos(w[1])]);
        }
        s.add_clause(&[Lit::pos(v[0])]);
        assert_eq!(s.solve(), SatResult::Sat);
        for &x in &v {
            assert_eq!(
                s.polarity[x.index()],
                s.value(x).unwrap(),
                "phase not saved for {x:?}"
            );
        }
        let first = s.model();
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(first, s.model(), "phases drifted");
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
        s.solve();
        let st = s.stats();
        assert!(st.decisions >= 1);
    }

    #[test]
    fn mean_lbd_is_reported_in_milli_units() {
        let stats = SolverStats {
            conflicts: 4,
            lbd_sum: 10,
            ..SolverStats::default()
        };
        assert_eq!(stats.mean_lbd_milli(), 2500);
        assert_eq!(SolverStats::default().mean_lbd_milli(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Draws a random small CNF: `(n_vars, clauses)` with 2–7 variables and
    /// up to 23 clauses of 1–3 literals each.
    fn random_cnf(rng: &mut StdRng) -> (u32, Vec<Vec<(u32, bool)>>) {
        let n_vars = rng.gen_range(2u32..8);
        let n_clauses = rng.gen_range(1usize..24);
        let clauses = (0..n_clauses)
            .map(|_| {
                let len = rng.gen_range(1usize..4);
                (0..len)
                    .map(|_| (rng.gen_range(0..n_vars), rng.gen::<bool>()))
                    .collect()
            })
            .collect();
        (n_vars, clauses)
    }

    fn build_cnf(n_vars: u32, clauses: &[Vec<(u32, bool)>]) -> Cnf {
        let mut f = Cnf::new();
        for _ in 0..n_vars {
            f.new_var();
        }
        for c in clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&(v, neg)| Lit::with_sign(Var(v), neg))
                .collect();
            f.add_clause(&lits);
        }
        f
    }

    /// Solving under assumptions agrees with brute force over the
    /// formula plus the assumption units, and the
    /// failed-assumption core is itself refuting.
    #[test]
    fn assumptions_agree_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(0x5a7_a55);
        for case in 0..96 {
            let (n_vars, clauses) = random_cnf(&mut rng);
            let assume_bits: u8 = rng.gen::<u8>();
            let assume_mask: u8 = rng.gen::<u8>();
            let f = build_cnf(n_vars, &clauses);
            let assumptions: Vec<Lit> = (0..n_vars.min(8))
                .filter(|&i| assume_mask >> i & 1 == 1)
                .map(|i| Lit::with_sign(Var(i), assume_bits >> i & 1 == 0))
                .collect();
            // Brute force with assumption units appended.
            let mut g = f.clone();
            for &l in &assumptions {
                g.add_clause(&[l]);
            }
            let expect_sat = g.brute_force().is_some();
            let mut s = Solver::from_cnf(&f);
            let got = s.solve_with(&assumptions);
            assert_eq!(got == SatResult::Sat, expect_sat, "case {case}");
            if got == SatResult::Sat {
                let model = s.model();
                assert!(
                    g.eval(&model),
                    "case {case}: model must satisfy formula + assumptions"
                );
            } else {
                // The core is a subset of the assumptions and refutes
                // the formula on its own; an empty core means the
                // formula alone is unsatisfiable.
                let core = s.failed_assumptions().to_vec();
                for l in &core {
                    assert!(assumptions.contains(l), "case {case}: {l}");
                }
                if core.is_empty() {
                    assert!(f.brute_force().is_none(), "case {case}");
                } else {
                    assert_eq!(
                        s.solve_with(&core),
                        SatResult::Unsat,
                        "case {case}: core does not refute"
                    );
                }
            }
            // Assumptions must not persist: plain solve matches plain
            // brute force.
            let plain_sat = f.brute_force().is_some();
            assert_eq!(s.solve() == SatResult::Sat, plain_sat, "case {case}");
        }
    }

    /// DIMACS round trip preserves models exactly.
    #[test]
    fn dimacs_round_trip_preserves_models() {
        let mut rng = StdRng::seed_from_u64(0xd1_ac5);
        for case in 0..96 {
            let (n_vars, clauses) = random_cnf(&mut rng);
            let f = build_cnf(n_vars, &clauses);
            let text = crate::dimacs::emit(&f);
            let g = crate::dimacs::parse(&text).unwrap();
            assert_eq!(f.num_clauses(), g.num_clauses(), "case {case}");
            for bits in 0u32..(1 << n_vars) {
                let m: Vec<bool> = (0..n_vars).map(|i| bits >> i & 1 == 1).collect();
                assert_eq!(f.eval(&m), g.eval(&m), "case {case} bits {bits:b}");
            }
        }
    }

    /// Clause-database reduction must not change answers: a formula hard
    /// enough to trigger reductions still solves correctly.
    #[test]
    fn clause_reduction_preserves_soundness() {
        // Pigeonhole 7 generates thousands of conflicts, well past the
        // first reduction threshold.
        let mut s = Solver::new();
        let holes = 7u32;
        let pigeons = 8u32;
        let var = |p: u32, h: u32| Var(p * holes + h);
        for _ in 0..pigeons * holes {
            s.new_var();
        }
        for p in 0..pigeons {
            let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
            s.add_clause(&clause);
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in (p1 + 1)..pigeons {
                    s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(
            s.stats().reductions >= 1,
            "reduction path not exercised ({} conflicts)",
            s.stats().conflicts
        );
    }
}
