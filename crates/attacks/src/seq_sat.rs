//! Sequential SAT attack (no scan access).
//!
//! The paper's experiment (and the classic attack \[11\]) assumes full scan:
//! flip-flops become pseudo-ports. Without scan, an attacker can still run
//! an *unrolled* variant: both keyed copies are expanded over `k` time
//! frames from the reset state, the miter compares only the primary
//! outputs, and a DIP becomes a distinguishing **input sequence**. The
//! oracle is queried by resetting the chip and clocking the sequence in.
//!
//! Result relevant to the paper: GK-locked designs are UNSAT at the first
//! iteration *here too* — the static key-independence of the GK holds in
//! every time frame, so removing the scan assumption does not revive the
//! attack.

use crate::cancel::CancelToken;
use crate::oracle::ComboOracle;
use glitchlock_netlist::{CombView, NetId, Netlist};
use glitchlock_obs::{self as obs, names};
use glitchlock_sat::{encode_comb_with, Lit, SatResult, Solver, Var};

/// Outcome of the sequential attack.
#[derive(Clone, Debug, PartialEq)]
pub enum SeqSatOutcome {
    /// A key consistent with every queried sequence.
    KeyRecovered {
        /// The recovered key bits in `key_inputs` order.
        key: Vec<bool>,
    },
    /// No distinguishing input sequence exists within the unroll depth.
    NoDistinguishingSequence {
        /// Any surviving key (all equivalent to this attacker).
        arbitrary_key: Vec<bool>,
    },
    /// Iteration budget exhausted.
    IterationLimit,
    /// Stopped early by a [`CancelToken`] (campaign timeout or external
    /// shutdown).
    Cancelled,
}

/// Result of [`seq_sat_attack`].
#[derive(Clone, Debug)]
pub struct SeqSatResult {
    /// The outcome.
    pub outcome: SeqSatOutcome,
    /// Distinguishing sequences found (each `k` cycles of PI vectors).
    pub sequences: Vec<Vec<Vec<bool>>>,
    /// DIP-sequence iterations executed.
    pub iterations: usize,
}

/// Runs the unrolled sequential SAT attack with `depth` time frames.
///
/// `locked`'s primary inputs must be the oracle's primary inputs plus the
/// key inputs; both machines start from the all-zero state (the reset the
/// attacker can force on the chip).
///
/// # Panics
///
/// Panics on interface mismatches or cyclic netlists.
pub fn seq_sat_attack(
    locked: &Netlist,
    key_inputs: &[NetId],
    oracle: &Netlist,
    depth: usize,
    max_iterations: usize,
) -> SeqSatResult {
    seq_sat_attack_with_cancel(locked, key_inputs, oracle, depth, max_iterations, None)
}

/// [`seq_sat_attack`] with a cooperative [`CancelToken`], polled before
/// every distinguishing-sequence iteration.
///
/// # Panics
///
/// Same contract as [`seq_sat_attack`].
pub fn seq_sat_attack_with_cancel(
    locked: &Netlist,
    key_inputs: &[NetId],
    oracle: &Netlist,
    depth: usize,
    max_iterations: usize,
    cancel: Option<&CancelToken>,
) -> SeqSatResult {
    let view = CombView::new(locked);
    let n_po = locked.output_ports().len();
    assert_eq!(
        n_po,
        oracle.output_ports().len(),
        "output widths must align"
    );
    // Partition locked PIs into data and key (pseudo inputs excluded: this
    // attacker has no scan access).
    let n_pi = locked.input_nets().len();
    let key_pos: Vec<usize> = (0..n_pi)
        .filter(|&i| key_inputs.contains(&locked.input_nets()[i]))
        .collect();
    let data_pos: Vec<usize> = (0..n_pi)
        .filter(|&i| !key_inputs.contains(&locked.input_nets()[i]))
        .collect();
    assert_eq!(
        data_pos.len(),
        oracle.input_nets().len(),
        "data inputs must align with the oracle"
    );

    let mut solver = Solver::new();
    // Key variables for the two copies (constant across time frames).
    let key1: Vec<Var> = key_pos.iter().map(|_| solver.new_var()).collect();
    let key2: Vec<Var> = key_pos.iter().map(|_| solver.new_var()).collect();
    // Shared data inputs per frame.
    let data: Vec<Vec<Var>> = (0..depth)
        .map(|_| data_pos.iter().map(|_| solver.new_var()).collect())
        .collect();

    let zero_state = |solver: &mut Solver, n: usize| -> Vec<Var> {
        (0..n)
            .map(|_| {
                let v = solver.new_var();
                solver.add_clause(&[Lit::neg(v)]);
                v
            })
            .collect()
    };
    let n_state = locked.dff_cells().len();
    let mut state1 = zero_state(&mut solver, n_state);
    let mut state2 = zero_state(&mut solver, n_state);

    // Unroll the two keyed copies and a diff var per PO per frame.
    let mut frame_pos: Vec<(Vec<Var>, Vec<Var>)> = Vec::with_capacity(depth);
    for frame_data in data.iter().take(depth) {
        let unroll = |solver: &mut Solver, key: &[Var], state: &[Var]| {
            let mut pinned: Vec<Option<Var>> = vec![None; view.num_inputs()];
            for (di, &p) in data_pos.iter().enumerate() {
                pinned[p] = Some(frame_data[di]);
            }
            for (ki, &p) in key_pos.iter().enumerate() {
                pinned[p] = Some(key[ki]);
            }
            for (si, sv) in state.iter().enumerate() {
                pinned[n_pi + si] = Some(*sv);
            }
            let ports = encode_comb_with(solver, locked, &view, &pinned);
            let pos = ports.output_vars[..n_po].to_vec();
            let next = ports.output_vars[n_po..].to_vec();
            (pos, next)
        };
        let (po1, next1) = unroll(&mut solver, &key1, &state1);
        let (po2, next2) = unroll(&mut solver, &key2, &state2);
        state1 = next1;
        state2 = next2;
        frame_pos.push((po1, po2));
    }
    let gate = solver.new_var();
    let mut diff_lits = vec![Lit::neg(gate)];
    for (po1, po2) in &frame_pos {
        for (o1, o2) in po1.iter().zip(po2) {
            let d = solver.new_var();
            solver.add_clause(&[Lit::neg(d), Lit::pos(*o1), Lit::pos(*o2)]);
            solver.add_clause(&[Lit::neg(d), Lit::neg(*o1), Lit::neg(*o2)]);
            solver.add_clause(&[Lit::pos(d), Lit::neg(*o1), Lit::pos(*o2)]);
            solver.add_clause(&[Lit::pos(d), Lit::pos(*o1), Lit::neg(*o2)]);
            diff_lits.push(Lit::pos(d));
        }
    }
    solver.add_clause(&diff_lits);

    // The oracle, queried by replaying sequences from reset.
    let oracle_comb = ComboOracle::new(oracle);
    let n_oracle_state = oracle.dff_cells().len();
    let query_sequence = |seq: &[Vec<bool>]| -> Vec<Vec<bool>> {
        let mut state = vec![false; n_oracle_state];
        let mut outs = Vec::with_capacity(seq.len());
        for frame in seq {
            let mut full = frame.clone();
            full.extend(state.iter().copied());
            let response = oracle_comb.query(&full);
            outs.push(response[..n_po].to_vec());
            state = response[n_po..].to_vec();
        }
        outs
    };

    let _span = obs::span("attack.seqsat");
    let iter_counter = obs::counter(names::SEQSAT_ITERATIONS);
    let call_counter = obs::counter(names::SEQSAT_SOLVER_CALLS);
    let mut sequences = Vec::new();
    let mut iterations = 0;
    loop {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            obs::event("result", "seq_sat")
                .str("outcome", "cancelled")
                .u64("iterations", iterations as u64)
                .emit();
            return SeqSatResult {
                outcome: SeqSatOutcome::Cancelled,
                sequences,
                iterations,
            };
        }
        call_counter.incr();
        match solver.solve_with(&[Lit::pos(gate)]) {
            SatResult::Unsat => break,
            SatResult::Sat => {
                iterations += 1;
                if iterations > max_iterations {
                    obs::event("result", "seq_sat")
                        .str("outcome", "iteration-limit")
                        .u64("iterations", max_iterations as u64)
                        .emit();
                    return SeqSatResult {
                        outcome: SeqSatOutcome::IterationLimit,
                        sequences,
                        iterations: max_iterations,
                    };
                }
                iter_counter.incr();
                obs::event("dip", "seq_sat")
                    .u64("iter", iterations as u64)
                    .u64("frames", data.len() as u64)
                    .emit();
                let seq: Vec<Vec<bool>> = data
                    .iter()
                    .map(|frame| {
                        frame
                            .iter()
                            .map(|&v| solver.value(v).unwrap_or(false))
                            .collect()
                    })
                    .collect();
                let responses = query_sequence(&seq);
                // Constrain both keys: fresh unrollings pinned to the
                // sequence with outputs forced to the oracle responses.
                for key in [&key1, &key2] {
                    let mut state = zero_state(&mut solver, n_state);
                    for (t, frame) in seq.iter().enumerate() {
                        let mut pinned: Vec<Option<Var>> = vec![None; view.num_inputs()];
                        for (di, &p) in data_pos.iter().enumerate() {
                            let v = solver.new_var();
                            solver.add_clause(&[Lit::with_sign(v, !frame[di])]);
                            pinned[p] = Some(v);
                        }
                        for (ki, &p) in key_pos.iter().enumerate() {
                            pinned[p] = Some(key[ki]);
                        }
                        for (si, sv) in state.iter().enumerate() {
                            pinned[n_pi + si] = Some(*sv);
                        }
                        let ports = encode_comb_with(&mut solver, locked, &view, &pinned);
                        for (j, &ov) in ports.output_vars[..n_po].iter().enumerate() {
                            solver.add_clause(&[Lit::with_sign(ov, !responses[t][j])]);
                        }
                        state = ports.output_vars[n_po..].to_vec();
                    }
                }
                sequences.push(seq);
            }
        }
    }
    call_counter.incr();
    let outcome = match solver.solve() {
        SatResult::Unsat => SeqSatOutcome::IterationLimit,
        SatResult::Sat => {
            let key: Vec<bool> = key1
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect();
            if iterations == 0 {
                SeqSatOutcome::NoDistinguishingSequence { arbitrary_key: key }
            } else {
                SeqSatOutcome::KeyRecovered { key }
            }
        }
    };
    obs::event("result", "seq_sat")
        .str(
            "outcome",
            match &outcome {
                SeqSatOutcome::KeyRecovered { .. } => "key-recovered",
                SeqSatOutcome::NoDistinguishingSequence { .. } => "no-distinguishing-sequence",
                SeqSatOutcome::IterationLimit => "iteration-limit",
                SeqSatOutcome::Cancelled => "cancelled",
            },
        )
        .u64("iterations", iterations as u64)
        .emit();
    SeqSatResult {
        outcome,
        sequences,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_core::locking::{LockScheme, XorLock};
    use glitchlock_core::GkEncryptor;
    use glitchlock_netlist::{GateKind, Logic, SeqState};
    use glitchlock_sta::ClockModel;
    use glitchlock_stdcell::{Library, Ps};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn seq_circuit() -> Netlist {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let q = nl.add_dff(w).unwrap();
        let x = nl.add_gate(GateKind::Xor, &[q, a]).unwrap();
        let q2 = nl.add_dff(x).unwrap();
        let y = nl.add_gate(GateKind::Or, &[q2, b]).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn cracks_xor_locking_without_scan() {
        let nl = seq_circuit();
        let mut rng = StdRng::seed_from_u64(81);
        let locked = XorLock::new(4).lock(&nl, &mut rng).unwrap();
        let result = seq_sat_attack(&locked.netlist, &locked.key_inputs, &nl, 4, 128);
        let SeqSatOutcome::KeyRecovered { key } = &result.outcome else {
            panic!("XOR locking must fall to the sequential attack: {result:?}");
        };
        // Verify: the recovered key makes the locked machine track the
        // oracle over random sequences.
        let mut lrng = StdRng::seed_from_u64(82);
        use rand::Rng;
        let mut s_orig = SeqState::reset(&nl);
        let mut s_lock = SeqState::reset(&locked.netlist);
        for _ in 0..32 {
            let data: Vec<Logic> = (0..2).map(|_| Logic::from_bool(lrng.gen())).collect();
            let mut full = Vec::new();
            let mut di = 0;
            for &net in locked.netlist.input_nets() {
                if let Some(ki) = locked.key_inputs.iter().position(|&k| k == net) {
                    full.push(Logic::from_bool(key[ki]));
                } else {
                    full.push(data[di]);
                    di += 1;
                }
            }
            assert_eq!(s_lock.step(&locked.netlist, &full), s_orig.step(&nl, &data));
        }
    }

    #[test]
    fn gk_resists_even_without_the_scan_assumption() {
        let nl = glitchlock_circuits::generate(&glitchlock_circuits::tiny(83));
        let lib = Library::cl013g_like();
        let clock = ClockModel::new(Ps::from_ns(3));
        let mut rng = StdRng::seed_from_u64(83);
        let locked = GkEncryptor::new(2)
            .encrypt(&nl, &lib, &clock, &mut rng)
            .unwrap();
        let result = seq_sat_attack(&locked.attack_view, &locked.attack_key_inputs, &nl, 3, 64);
        assert_eq!(result.iterations, 0);
        assert!(matches!(
            result.outcome,
            SeqSatOutcome::NoDistinguishingSequence { .. }
        ));
    }

    #[test]
    fn depth_matters_for_state_buried_keys() {
        // A key-gate *behind* a flip-flop needs >= 2 frames for its effect
        // to reach the output.
        let mut nl = Netlist::new("deep");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        let y = nl.add_gate(GateKind::Buf, &[q]).unwrap();
        nl.mark_output(y, "y");
        // Lock the D pin (pre-state).
        let mut locked = nl.clone();
        let k = locked.add_input("key0");
        let ff = locked.dff_cells()[0];
        let gate = locked.add_gate(GateKind::Xor, &[a, k]).unwrap();
        locked.rewire_input(ff, 0, gate).unwrap();
        // Depth 1: the PO only shows the reset state — no sequence can
        // distinguish keys.
        let r1 = seq_sat_attack(&locked, &[k], &nl, 1, 16);
        assert!(matches!(
            r1.outcome,
            SeqSatOutcome::NoDistinguishingSequence { .. }
        ));
        // Depth 2: cracked.
        let r2 = seq_sat_attack(&locked, &[k], &nl, 2, 16);
        let SeqSatOutcome::KeyRecovered { key } = r2.outcome else {
            panic!("depth-2 unrolling must crack the buried XOR");
        };
        assert_eq!(key, vec![false], "XOR is transparent at key 0");
    }
}
