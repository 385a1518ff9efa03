//! The three corruption scores of a locked design, exact and estimated.
//!
//! Each score is a projected model count over a miter CNF built through
//! the same encoder ([`encode_comb_with`]) as the SAT attack:
//!
//! * **err** — one view copy against the oracle, data inputs shared, key
//!   inputs pinned (by assumption) to a sampled key; projected onto the
//!   data variables. Counts the inputs that key corrupts.
//! * **wrong-keys** — the *same* miter with the key assumptions dropped,
//!   projected onto the key variables. Counts the keys that differ from
//!   the oracle anywhere; `2^κ − W` is the correct key's equivalence
//!   class size. One solver instance serves both scores.
//! * **dip** — two view copies sharing data inputs with independent keys,
//!   projected onto the data variables: the distinguishing-input space
//!   the SAT attack mines.
//!
//! Both sessions span every view output and every key bit: whether a
//! key bit matters is the solver's question alone. The GK attack view's
//! key-independence — each key-gate computes `MUX(k, XNOR(x, k),
//! XOR(x, k)) = ¬x` — resolves cheaply all the same: the DIP miter is
//! UNSAT, so its base enumeration returns an exact zero before any
//! hashing. That `dip = 0, one key class, yet every key statically
//! wrong` signature is the paper's headline quantified.
//!
//! Below the exact cutoff the packed exhaustive sweep *also* runs, so
//! every estimate ships with its ground truth attached.

use crate::estimator::{approx_count, CountParams};
use crate::exhaustive::{exact_scores, MAX_EXACT_BITS};
use crate::view::KeyedView;
use glitchlock_netlist::{CombView, NetId, Netlist};
use glitchlock_obs::{self as obs, names};
use glitchlock_sat::{encode_comb_with, Lit, Solver, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning for one [`corruption_scores`] computation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoreConfig {
    /// Estimator multiplicative tolerance.
    pub epsilon: f64,
    /// Estimator failure probability.
    pub delta: f64,
    /// Run the exhaustive ground-truth sweep at or below this many
    /// data+key bits (additionally capped by
    /// [`crate::exhaustive::MAX_EXACT_BITS`]).
    pub exact_bits: usize,
    /// Run the estimator at or below this many data+key bits; beyond it
    /// the design is skipped.
    pub max_bits: usize,
    /// Root seed for the sampled key and all hash draws. Campaigns derive
    /// it from the bench, the locker cell and the `count` directive, so
    /// estimates survive re-sharding and edits to the rest of the spec.
    pub seed: u64,
}

impl Default for ScoreConfig {
    fn default() -> Self {
        ScoreConfig {
            epsilon: 0.8,
            delta: 0.2,
            exact_bits: 20,
            max_bits: 24,
            seed: 1,
        }
    }
}

/// Which engines produced a [`CorruptionScores`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreMethod {
    /// Exhaustive sweep and estimator both ran (estimates cross-checked).
    Both,
    /// Only the exhaustive sweep ran.
    Exact,
    /// Only the estimator ran.
    Estimate,
    /// The design exceeds `max_bits`; no counting was attempted.
    Skipped,
}

impl ScoreMethod {
    /// Canonical report tag.
    pub fn tag(self) -> &'static str {
        match self {
            ScoreMethod::Both => "both",
            ScoreMethod::Exact => "exact",
            ScoreMethod::Estimate => "estimate",
            ScoreMethod::Skipped => "skipped",
        }
    }
}

/// One projected count with its space width.
#[derive(Clone, Debug, PartialEq)]
pub struct Score {
    /// The count lives in a space of `2^space_bits`.
    pub space_bits: usize,
    /// Exact value: from the exhaustive sweep when it ran, else from an
    /// estimator round whose base enumeration finished below the pivot.
    pub exact: Option<u64>,
    /// Hash-count estimate (set whenever the estimator ran).
    pub estimate: Option<f64>,
}

impl Score {
    fn empty(space_bits: usize) -> Score {
        Score {
            space_bits,
            exact: None,
            estimate: None,
        }
    }

    /// The most trustworthy value available: exact first, else estimate.
    pub fn best(&self) -> Option<f64> {
        self.exact.map(|c| c as f64).or(self.estimate)
    }

    /// [`Score::best`] normalized by the space size.
    pub fn fraction(&self) -> Option<f64> {
        self.best().map(|c| c / (2f64).powi(self.space_bits as i32))
    }
}

/// The three scores of one locked design.
#[derive(Clone, Debug, PartialEq)]
pub struct CorruptionScores {
    /// Data-space width `n`.
    pub data_bits: usize,
    /// Key-space width `κ`.
    pub key_bits: usize,
    /// Engines that ran.
    pub method: ScoreMethod,
    /// The sampled key the err score is measured under (drawn from the
    /// seed; it may coincide with the correct key, in which case an err
    /// count of 0 is the honest answer).
    pub sampled_key: Vec<bool>,
    /// Inputs corrupted by the sampled key, over `2^n`.
    pub err: Score,
    /// Distinguishing input patterns, over `2^n`.
    pub dip: Score,
    /// Keys differing from the oracle somewhere, over `2^κ`.
    pub wrong_keys: Score,
    /// Distinct key-induced functions (exhaustive sweep only).
    pub key_classes: Option<u64>,
}

/// Deterministic per-purpose seed derivation (FNV-1a over the salt and
/// seed bytes) so each score's hash draws are independent of whether the
/// other engines ran.
fn mix(seed: u64, salt: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in salt.bytes().chain(seed.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// XOR-differences the output pairs `(a[i], b[i])` and returns a gate
/// variable whose assumption demands at least one difference.
fn miter_gate(solver: &mut Solver, a: &[Var], b: &[Var]) -> Var {
    let mut clause = Vec::with_capacity(a.len() + 1);
    let gate = solver.new_var();
    clause.push(Lit::neg(gate));
    for (&a, &b) in a.iter().zip(b) {
        let d = solver.new_var();
        solver.add_clause(&[Lit::neg(d), Lit::pos(a), Lit::pos(b)]);
        solver.add_clause(&[Lit::neg(d), Lit::neg(a), Lit::neg(b)]);
        solver.add_clause(&[Lit::pos(d), Lit::neg(a), Lit::pos(b)]);
        solver.add_clause(&[Lit::pos(d), Lit::pos(a), Lit::neg(b)]);
        clause.push(Lit::pos(d));
    }
    solver.add_clause(&clause);
    gate
}

/// Computes the three corruption scores of `locked` against `oracle`.
///
/// # Errors
///
/// Invalid `(ε, δ)`, interface mismatches between the locked view and the
/// oracle, and netlist compilation failures.
pub fn corruption_scores(
    locked: &Netlist,
    key_inputs: &[NetId],
    oracle: &Netlist,
    cfg: &ScoreConfig,
) -> Result<CorruptionScores, String> {
    let params = CountParams::new(cfg.epsilon, cfg.delta)?;
    let kv = KeyedView::new(locked, key_inputs);
    let n = kv.data_bits();
    let kappa = kv.key_bits();
    let oview = CombView::new(oracle);
    if oview.num_inputs() != n {
        return Err(format!(
            "oracle has {} view inputs, locked design carries {n} data bits",
            oview.num_inputs()
        ));
    }
    if oview.num_outputs() != kv.view.num_outputs() {
        return Err(format!(
            "output counts differ: locked view {}, oracle {}",
            kv.view.num_outputs(),
            oview.num_outputs()
        ));
    }
    obs::incr(names::COUNT_RUNS);

    let mut key_rng = StdRng::seed_from_u64(mix(cfg.seed, "sampled-key"));
    let sampled_key: Vec<bool> = (0..kappa).map(|_| key_rng.gen()).collect();

    let bits = n + kappa;
    let run_exact = bits <= cfg.exact_bits.min(MAX_EXACT_BITS);
    let run_est = bits <= cfg.max_bits;
    let mut scores = CorruptionScores {
        data_bits: n,
        key_bits: kappa,
        method: match (run_exact, run_est) {
            (true, true) => ScoreMethod::Both,
            (true, false) => ScoreMethod::Exact,
            (false, true) => ScoreMethod::Estimate,
            (false, false) => ScoreMethod::Skipped,
        },
        sampled_key: sampled_key.clone(),
        err: Score::empty(n),
        dip: Score::empty(n),
        wrong_keys: Score::empty(kappa),
        key_classes: None,
    };
    if scores.method == ScoreMethod::Skipped {
        return Ok(scores);
    }

    if run_exact {
        let ex = exact_scores(&kv, oracle, &sampled_key)?;
        scores.err.exact = Some(ex.err_count);
        scores.dip.exact = Some(ex.dip_count);
        scores.wrong_keys.exact = Some(ex.wrong_keys);
        scores.key_classes = Some(ex.key_classes);
    }
    if run_est {
        estimate_scores(&kv, &oview, oracle, &sampled_key, cfg, &params, &mut scores);
    }
    obs::add(names::COUNT_SCORES, 3);
    Ok(scores)
}

/// Runs the hash-count sessions and fills the estimate fields (and the
/// exact fields the exhaustive sweep did not already own, when a base
/// enumeration finished below the pivot).
fn estimate_scores(
    kv: &KeyedView<'_>,
    oview: &CombView,
    oracle: &Netlist,
    sampled_key: &[bool],
    cfg: &ScoreConfig,
    params: &CountParams,
    scores: &mut CorruptionScores,
) {
    let locked = kv.netlist;

    // Session A: view vs oracle, data shared, keys free. Serves err (key
    // pinned by assumptions) and wrong-keys (keys free) on one solver.
    let mut solver = Solver::new();
    let vio = encode_comb_with(&mut solver, locked, &kv.view, &[]);
    let pinned: Vec<Option<Var>> = kv
        .data_ix
        .iter()
        .map(|&p| Some(vio.input_vars[p]))
        .collect();
    let oio = encode_comb_with(&mut solver, oracle, oview, &pinned);
    let gate = miter_gate(&mut solver, &vio.output_vars, &oio.output_vars);
    let data_vars: Vec<Var> = kv.data_ix.iter().map(|&p| vio.input_vars[p]).collect();
    let key_vars: Vec<Var> = kv.key_ix.iter().map(|&p| vio.input_vars[p]).collect();

    let mut assum = vec![Lit::pos(gate)];
    assum.extend(
        key_vars
            .iter()
            .zip(sampled_key)
            .map(|(&v, &b)| Lit::with_sign(v, !b)),
    );
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, "err"));
    let err = approx_count(&mut solver, &assum, &data_vars, params, &mut rng);
    scores.err.estimate = Some(err.estimate);
    if scores.err.exact.is_none() {
        scores.err.exact = err.exact;
    }

    // Wrong keys: the same miter with the key assumptions dropped.
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, "wrong-keys"));
    let wk = approx_count(&mut solver, &[Lit::pos(gate)], &key_vars, params, &mut rng);
    scores.wrong_keys.estimate = Some(wk.estimate);
    if scores.wrong_keys.exact.is_none() {
        scores.wrong_keys.exact = wk.exact;
    }

    // Session B: the DIP miter — two view copies sharing data, free keys.
    let mut solver = Solver::new();
    let one = encode_comb_with(&mut solver, locked, &kv.view, &[]);
    let mut pinned: Vec<Option<Var>> = vec![None; kv.view.num_inputs()];
    for &p in &kv.data_ix {
        pinned[p] = Some(one.input_vars[p]);
    }
    let two = encode_comb_with(&mut solver, locked, &kv.view, &pinned);
    let gate = miter_gate(&mut solver, &one.output_vars, &two.output_vars);
    let data_vars: Vec<Var> = kv.data_ix.iter().map(|&p| one.input_vars[p]).collect();
    let mut rng = StdRng::seed_from_u64(mix(cfg.seed, "dip"));
    let dip = approx_count(&mut solver, &[Lit::pos(gate)], &data_vars, params, &mut rng);
    scores.dip.estimate = Some(dip.estimate);
    if scores.dip.exact.is_none() {
        scores.dip.exact = dip.exact;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::GateKind;

    fn oracle_and() -> Netlist {
        let mut nl = Netlist::new("o");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    fn xor_locked() -> (Netlist, Vec<NetId>) {
        let mut nl = Netlist::new("l");
        let a = nl.add_input("a");
        let k = nl.add_input("key0");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[g, k]).unwrap();
        nl.mark_output(y, "y");
        (nl, vec![k])
    }

    #[test]
    fn both_engines_agree_on_an_xor_lock() {
        let oracle = oracle_and();
        let (locked, keys) = xor_locked();
        let s = corruption_scores(&locked, &keys, &oracle, &ScoreConfig::default()).unwrap();
        assert_eq!(s.method, ScoreMethod::Both);
        assert_eq!(s.dip.exact, Some(4));
        assert_eq!(s.wrong_keys.exact, Some(1));
        assert_eq!(s.key_classes, Some(2));
        // Counts under the pivot: base enumeration is exact, so the
        // estimates must equal the exhaustive ground truth bit for bit.
        assert_eq!(s.dip.estimate, Some(4.0));
        assert_eq!(s.wrong_keys.estimate, Some(1.0));
        assert_eq!(
            s.err.estimate,
            Some(s.err.exact.unwrap() as f64),
            "estimator err must match the sweep"
        );
        // err is 0 or 4 depending on the sampled key; both are exact.
        assert!(matches!(s.err.exact, Some(0) | Some(4)));
        assert_eq!(s.dip.fraction(), Some(1.0));
    }

    #[test]
    fn a_masked_key_counts_zero_through_the_solver() {
        let oracle = oracle_and();
        let mut nl = Netlist::new("l");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let k = nl.add_input("key0");
        let zero = nl.add_const(false);
        let g = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let dead = nl.add_gate(GateKind::And, &[k, zero]).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[g, dead]).unwrap();
        nl.mark_output(y, "y");
        let s = corruption_scores(&nl, &[k], &oracle, &ScoreConfig::default()).unwrap();
        assert_eq!(s.err.exact, Some(0));
        assert_eq!(s.dip.exact, Some(0));
        assert_eq!(s.wrong_keys.exact, Some(0));
        assert_eq!(s.key_classes, Some(1));
        assert_eq!(s.err.estimate, Some(0.0));
        assert_eq!(s.dip.estimate, Some(0.0));
        assert_eq!(s.wrong_keys.estimate, Some(0.0));
    }

    #[test]
    fn oversized_designs_are_skipped_not_counted() {
        let oracle = oracle_and();
        let (locked, keys) = xor_locked();
        let cfg = ScoreConfig {
            exact_bits: 0,
            max_bits: 0,
            ..ScoreConfig::default()
        };
        let s = corruption_scores(&locked, &keys, &oracle, &cfg).unwrap();
        assert_eq!(s.method, ScoreMethod::Skipped);
        assert_eq!(s.err, Score::empty(2));
        assert_eq!(s.key_classes, None);
        assert_eq!(s.err.best(), None);
    }

    #[test]
    fn estimate_only_mode_still_lands_exact_small_counts() {
        let oracle = oracle_and();
        let (locked, keys) = xor_locked();
        let cfg = ScoreConfig {
            exact_bits: 0,
            ..ScoreConfig::default()
        };
        let s = corruption_scores(&locked, &keys, &oracle, &cfg).unwrap();
        assert_eq!(s.method, ScoreMethod::Estimate);
        assert_eq!(s.key_classes, None, "classes need the sweep");
        // Base enumeration finishes under the pivot: exact anyway.
        assert_eq!(s.dip.exact, Some(4));
        assert_eq!(s.wrong_keys.exact, Some(1));
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let (locked, keys) = xor_locked();
        let mut tiny = Netlist::new("tiny");
        let a = tiny.add_input("a");
        tiny.mark_output(a, "y");
        assert!(corruption_scores(&locked, &keys, &tiny, &ScoreConfig::default()).is_err());
    }

    #[test]
    fn scores_are_deterministic_in_the_seed() {
        let oracle = oracle_and();
        let (locked, keys) = xor_locked();
        let cfg = ScoreConfig {
            seed: 99,
            ..ScoreConfig::default()
        };
        let a = corruption_scores(&locked, &keys, &oracle, &cfg).unwrap();
        let b = corruption_scores(&locked, &keys, &oracle, &cfg).unwrap();
        assert_eq!(a, b);
    }
}
