//! Acceptance check for the dataflow engine: the per-key-bit reachability
//! that `AnalysisFacts` reports (the structure behind `glk analyze` and
//! lint's analysis pass) must agree with a brute-force packed-evaluator
//! taint check — flip one key bit across thousands of random patterns and
//! see which nets actually change.
//!
//! Two directions are exercised:
//!
//! * **Soundness** on GK-locked s298: every net the brute-force flip
//!   perturbs must sit inside the bit's reported raw taint cone, primary
//!   outputs included. The dataflow answer may over-approximate but can
//!   never miss real influence.
//! * **Positive agreement** on XOR-locked s298: conventional key-gates
//!   leak functionally, so bits that empirically flip a primary output
//!   must also be reported observable by the refined taint — and at least
//!   one bit must exhibit both, proving the check is not vacuous.

use glitchlock::core::locking::{LockScheme, XorLock};
use glitchlock::core::GkEncryptor;
use glitchlock::dataflow::AnalysisFacts;
use glitchlock::netlist::{EvalProgram, Logic, NetId, Netlist, PackedLogic, LANES};
use glitchlock::sta::ClockModel;
use glitchlock::stdcell::{Library, Ps};
use glitchlock_circuits::{generate, profile_by_name};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn s298() -> Netlist {
    generate(&profile_by_name("s298").expect("s298 profile exists"))
}

fn random_word(rng: &mut StdRng) -> PackedLogic {
    let lanes: Vec<Logic> = (0..LANES).map(|_| Logic::from_bool(rng.gen())).collect();
    PackedLogic::from_lanes(&lanes)
}

/// Brute-force taint probe: draws `words` × 64 random boolean patterns
/// over every primary input and flip-flop Q, evaluates each batch twice —
/// `key` forced to all-0, then all-1 — and marks every net whose packed
/// value differs in any lane. The marked set is the empirically
/// key-sensitive cone of that bit.
fn empirical_flip_cone(nl: &Netlist, key: NetId, words: usize, rng: &mut StdRng) -> Vec<bool> {
    let program = EvalProgram::compile(nl).expect("locked netlists compile");
    let n_in = nl.input_nets().len();
    let n_ff = nl.dff_cells().len();
    let key_pos = nl
        .input_nets()
        .iter()
        .position(|&n| n == key)
        .expect("key is a primary input");
    let mut buf0 = program.scratch();
    let mut buf1 = program.scratch();
    let mut differs = vec![false; nl.net_count()];
    for _ in 0..words {
        let mut ins: Vec<PackedLogic> = (0..n_in).map(|_| random_word(rng)).collect();
        let qs: Vec<PackedLogic> = (0..n_ff).map(|_| random_word(rng)).collect();
        ins[key_pos] = PackedLogic::splat(Logic::Zero);
        program.eval(&ins, Some(&qs), &mut buf0);
        ins[key_pos] = PackedLogic::splat(Logic::One);
        program.eval(&ins, Some(&qs), &mut buf1);
        for (idx, hit) in differs.iter_mut().enumerate() {
            let id = NetId::from_index(idx);
            if buf0.net(id) != buf1.net(id) {
                *hit = true;
            }
        }
    }
    differs
}

#[test]
fn gk_s298_reachability_is_sound_against_brute_force() {
    let base = s298();
    let lib = Library::cl013g_like();
    let mut rng = StdRng::seed_from_u64(0x5298);
    let gk = GkEncryptor::new(2)
        .encrypt(&base, &lib, &ClockModel::new(Ps::from_ns(3)), &mut rng)
        .expect("s298 locks at 3ns");
    let nl = &gk.netlist;
    let facts = AnalysisFacts::compute(nl, "gk");
    assert_eq!(facts.key_width(), 4, "2 GKs carry k1+k2 each");

    for (bit, &key) in facts.keys.iter().enumerate() {
        let differs = empirical_flip_cone(nl, key, 16, &mut rng);
        for (idx, &hit) in differs.iter().enumerate() {
            if !hit {
                continue;
            }
            let id = NetId::from_index(idx);
            assert!(
                facts.raw.net(id).contains(bit),
                "bit {bit} ({:?}) empirically flips net {:?} but the raw \
                 taint cone misses it",
                nl.net(key).name(),
                nl.net(id).name()
            );
        }
        // The analysis must report the bit as reaching real logic: the
        // keygen cone alone is several nets deep.
        assert!(
            facts.raw_reach(bit) > 1,
            "bit {bit} ({:?}) reaches nothing",
            nl.net(key).name()
        );
    }
}

#[test]
fn xor_s298_po_observability_agrees_with_brute_force() {
    let base = s298();
    let mut rng = StdRng::seed_from_u64(0xa298);
    let locked = XorLock::new(4).lock(&base, &mut rng).expect("s298 locks");
    let nl = &locked.netlist;
    let facts = AnalysisFacts::compute(nl, "key");
    assert_eq!(facts.key_width(), 4);

    let mut positive_agreements = 0usize;
    for (bit, &key) in facts.keys.iter().enumerate() {
        let differs = empirical_flip_cone(nl, key, 16, &mut rng);
        let flipped_pos: Vec<&str> = nl
            .output_ports()
            .filter(|(po, _)| differs[po.index()])
            .map(|(_, name)| name)
            .collect();
        let observable = facts.observable_pos(nl, bit);
        // Soundness: an empirically flipped PO must be reported.
        for (po, name) in nl.output_ports() {
            if differs[po.index()] {
                assert!(
                    observable.contains(&po),
                    "bit {bit} flips PO {name:?} but is not reported observable there"
                );
            }
        }
        if !flipped_pos.is_empty() && !observable.is_empty() {
            positive_agreements += 1;
        }
        // An XOR key-gate always flips its own output net.
        assert!(
            differs.iter().any(|&d| d),
            "bit {bit}: an XOR key-gate cannot be empirically inert"
        );
    }
    assert!(
        positive_agreements > 0,
        "no key bit both flips a PO and is reported observable — the \
         agreement check is vacuous"
    );
}
