//! Uses the SAT-based bounded equivalence checker as an *independent
//! referee* for the removal attacks and synthesis passes: sampled
//! comparisons can miss rare patterns, the BMC cannot (within its bound).

use glitchlock::core::locking::{LockScheme, SarLock, Tdk};
use glitchlock::netlist::{GateKind, Netlist};
use glitchlock::sat::equiv::{bounded_equiv, EquivResult};
use glitchlock::stdcell::Library;
use glitchlock_circuits::{generate, tiny};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn seq_circuit() -> Netlist {
    let mut nl = Netlist::new("s");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let c = nl.add_input("c");
    let w = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
    let v = nl.add_gate(GateKind::Xor, &[w, c]).unwrap();
    let q = nl.add_dff(v).unwrap();
    let y = nl.add_gate(GateKind::Or, &[q, a]).unwrap();
    nl.mark_output(y, "y");
    nl
}

#[test]
fn optimize_is_equivalent_on_generated_benchmarks() {
    for seed in [1u64, 2] {
        let nl = generate(&tiny(seed));
        let opt = glitchlock::synth::optimize(&nl).unwrap();
        // optimize() may sweep dead state, changing the FF count; compare
        // primary outputs only — which bounded_equiv does by construction.
        assert_eq!(
            bounded_equiv(&nl, &opt, 4).unwrap(),
            EquivResult::Equivalent,
            "seed {seed}"
        );
    }
}

#[test]
fn sarlock_bypass_is_exactly_equivalent() {
    use glitchlock::attacks::removal::{bypass_net, locate_point_function, signal_skew};
    let nl = seq_circuit();
    let mut rng = StdRng::seed_from_u64(71);
    let locked = SarLock::new(3).lock(&nl, &mut rng).unwrap();
    let candidates = locate_point_function(&locked.netlist, 2000, 0.2, &mut rng);
    assert!(!candidates.is_empty());
    let flip = candidates[0];
    let skew = signal_skew(&locked.netlist, 500, &mut rng);
    let tie = skew.prob_one(flip) >= 0.5;
    let fixed = bypass_net(&locked.netlist, flip, tie);
    // The bypassed design still carries the (now-dangling) key inputs:
    // tie them to 0 in a copy, and compare over every input sequence.
    let mut tied = fixed.clone();
    let zero = tied.add_const(false);
    for &pi in fixed.input_nets() {
        if fixed.net(pi).name().starts_with("key") {
            tied.replace_uses(pi, zero).unwrap();
        }
    }
    let tied = glitchlock::synth::sweep_sequential(&tied).unwrap();
    // After sweeping, the dangling key PIs remain but feed nothing; wrap
    // the oracle with matching dummy inputs for interface parity.
    let mut oracle = nl.clone();
    for &pi in tied.input_nets() {
        let name = tied.net(pi).name();
        if oracle.net_by_name(name).is_none() {
            oracle.add_input(name);
        }
    }
    assert_eq!(
        bounded_equiv(&oracle, &tied, 5).unwrap(),
        EquivResult::Equivalent,
        "bypass must restore the function exactly, for every input sequence"
    );
}

#[test]
fn tdk_strip_preserves_function_exactly() {
    use glitchlock::attacks::removal::strip_tdk_delay_buffers;
    let nl = seq_circuit();
    let lib = Library::cl013g_like();
    let mut rng = StdRng::seed_from_u64(72);
    let tdk = Tdk::new(1).lock_with_library(&nl, &lib, &mut rng).unwrap();
    let (stripped, keys, stale) = strip_tdk_delay_buffers(&tdk);
    // Tie the functional key to its correct value and the stale delay key
    // to 0, then check exact equivalence against the original.
    let mut tied = stripped.clone();
    for (i, &k) in keys.iter().enumerate() {
        let v = tdk.locked.correct_key[2 * i]; // k1 positions
        let c = tied.add_const(v);
        tied.replace_uses(k, c).unwrap();
    }
    for &k in &stale {
        if !tied.net(k).fanout().is_empty() {
            let c = tied.add_const(false);
            tied.replace_uses(k, c).unwrap();
        }
    }
    let tied = glitchlock::synth::sweep_sequential(&tied).unwrap();
    let mut oracle = nl.clone();
    for &pi in tied.input_nets() {
        let name = tied.net(pi).name();
        if oracle.net_by_name(name).is_none() {
            oracle.add_input(name);
        }
    }
    assert_eq!(
        bounded_equiv(&oracle, &tied, 5).unwrap(),
        EquivResult::Equivalent
    );
}
