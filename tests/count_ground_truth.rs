//! Ground truth for the model counter: the ApproxMC-style estimator vs
//! the exhaustive packed sweep, for every locker the campaigns know.
//!
//! [`corruption_scores`] runs both engines below the exact cutoff, so a
//! single call yields the estimate *and* its ground truth. The hash-count
//! guarantee is probabilistic — `count/(1+ε) ≤ estimate ≤ count·(1+ε)`
//! with probability `≥ 1−δ` — so the envelope is checked over ≥20 pinned
//! seeds with a miss budget derived from δ, not per-run.
//!
//! Boundary cases get their own exact checks: an empty count (the GK
//! DIP space), a full space (the GK error rate — the static view inverts
//! every locked D pin), and a single solution (a point-function lock
//! that corrupts exactly one input pattern).

use glitchlock::circuits::s27;
use glitchlock::core::locking::{AntiSat, LockScheme, MuxLock, SarLock, Tdk, XorLock};
use glitchlock::core::GkEncryptor;
use glitchlock::count::{corruption_scores, CorruptionScores, ScoreConfig, ScoreMethod};
use glitchlock::netlist::{GateKind, NetId, Netlist};
use glitchlock::sta::ClockModel;
use glitchlock::stdcell::{Library, Ps};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The campaign locker vocabulary at widths that keep s27 (7 data bits)
/// inside the exhaustive cutoff.
const LOCKERS: &[(&str, usize)] = &[
    ("xor", 3),
    ("mux", 3),
    ("sarlock", 3),
    ("antisat", 3),
    ("tdk", 2),
    ("gk", 2),
];

fn lock_s27(tag: &str, width: usize, seed: u64) -> (Netlist, Vec<NetId>, Netlist) {
    let oracle = s27();
    let mut rng = StdRng::seed_from_u64(seed);
    let (locked, keys) = match tag {
        "xor" => {
            let l = XorLock::new(width).lock(&oracle, &mut rng).unwrap();
            (l.netlist, l.key_inputs)
        }
        "mux" => {
            let l = MuxLock::new(width).lock(&oracle, &mut rng).unwrap();
            (l.netlist, l.key_inputs)
        }
        "sarlock" => {
            let l = SarLock::new(width).lock(&oracle, &mut rng).unwrap();
            (l.netlist, l.key_inputs)
        }
        "antisat" => {
            let l = AntiSat::new(width).lock(&oracle, &mut rng).unwrap();
            (l.netlist, l.key_inputs)
        }
        "tdk" => {
            let l = Tdk::new(width).lock(&oracle, &mut rng).unwrap();
            (l.netlist, l.key_inputs)
        }
        "gk" => {
            let l = GkEncryptor::new(width)
                .encrypt(
                    &oracle,
                    &Library::cl013g_like(),
                    &ClockModel::new(Ps::from_ns(3)),
                    &mut rng,
                )
                .unwrap();
            (l.attack_view, l.attack_key_inputs)
        }
        other => panic!("unknown locker {other}"),
    };
    (locked, keys, oracle)
}

fn scores_for(tag: &str, width: usize, seed: u64) -> CorruptionScores {
    let (locked, keys, oracle) = lock_s27(tag, width, seed);
    let cfg = ScoreConfig {
        exact_bits: 26,
        max_bits: 26,
        seed,
        ..ScoreConfig::default()
    };
    let scores = corruption_scores(&locked, &keys, &oracle, &cfg).unwrap();
    assert_eq!(scores.method, ScoreMethod::Both, "{tag}{width} s{seed}");
    scores
}

/// `true` when `estimate` sits in the multiplicative (1+ε) envelope of
/// `exact`. A zero count must be detected exactly (UNSAT is UNSAT).
fn in_envelope(exact: u64, estimate: f64, epsilon: f64) -> bool {
    if exact == 0 {
        return estimate == 0.0;
    }
    let exact = exact as f64;
    exact / (1.0 + epsilon) <= estimate && estimate <= exact * (1.0 + epsilon)
}

#[test]
fn estimator_lands_in_the_envelope_for_every_locker() {
    let cfg = ScoreConfig::default();
    let mut checks = 0usize;
    let mut misses = Vec::new();
    for &(tag, width) in LOCKERS {
        for seed in 1..=20u64 {
            let s = scores_for(tag, width, seed);
            for (label, score) in [
                ("err", &s.err),
                ("dip", &s.dip),
                ("wrong-keys", &s.wrong_keys),
            ] {
                let exact = score.exact.expect("both engines ran");
                let estimate = score.estimate.expect("both engines ran");
                checks += 1;
                if !in_envelope(exact, estimate, cfg.epsilon) {
                    misses.push(format!(
                        "{tag}{width} s{seed} {label}: exact {exact} estimate {estimate}"
                    ));
                }
            }
        }
    }
    // δ bounds the per-count failure probability; give the binomial tail
    // a little slack on top so the test doesn't flake on the boundary.
    let budget = (cfg.delta * checks as f64).ceil() as usize + 2;
    assert!(
        misses.len() <= budget,
        "{} of {checks} counts out of envelope (budget {budget}):\n{}",
        misses.len(),
        misses.join("\n")
    );
}

#[test]
fn gk_scores_quantify_the_paper_headline() {
    // The GK attack view is key-independent (zero DIP space, one key
    // class) yet statically wrong on every input for every key: the SAT
    // attack's "any key works" answer fails on the chip.
    for seed in [1u64, 7, 13] {
        let s = scores_for("gk", 2, seed);
        let full_inputs = 1u64 << s.data_bits;
        let full_keys = 1u64 << s.key_bits;
        assert_eq!(s.dip.exact, Some(0), "s{seed}: count = 0 boundary");
        assert_eq!(s.dip.estimate, Some(0.0), "s{seed}: UNSAT is exact");
        assert_eq!(s.key_classes, Some(1), "s{seed}");
        assert_eq!(s.err.exact, Some(full_inputs), "s{seed}: count = 2^n");
        assert_eq!(s.wrong_keys.exact, Some(full_keys), "s{seed}");
        assert!(
            in_envelope(full_inputs, s.err.estimate.unwrap(), 0.8),
            "s{seed}: full-space estimate {:?}",
            s.err.estimate
        );
    }
}

#[test]
fn point_function_lock_counts_a_single_solution() {
    // y = AND(a, b, c) corrupted on exactly the all-ones pattern when the
    // key bit is wrong: err is a single-solution count, and under the
    // pivot the estimator's base enumeration returns it exactly.
    let mut oracle = Netlist::new("o");
    let a = oracle.add_input("a");
    let b = oracle.add_input("b");
    let c = oracle.add_input("c");
    let ab = oracle.add_gate(GateKind::And, &[a, b]).unwrap();
    let y = oracle.add_gate(GateKind::And, &[ab, c]).unwrap();
    oracle.mark_output(y, "y");

    let mut locked = Netlist::new("l");
    let a = locked.add_input("a");
    let b = locked.add_input("b");
    let c = locked.add_input("c");
    let k = locked.add_input("key0");
    let ab = locked.add_gate(GateKind::And, &[a, b]).unwrap();
    let abc = locked.add_gate(GateKind::And, &[ab, c]).unwrap();
    let flip = locked.add_gate(GateKind::And, &[abc, k]).unwrap();
    let y = locked.add_gate(GateKind::Xor, &[abc, flip]).unwrap();
    locked.mark_output(y, "y");

    // Find a seed whose sampled key is the wrong (k = 1) one.
    let mut hit = None;
    for seed in 1..64u64 {
        let cfg = ScoreConfig {
            seed,
            ..ScoreConfig::default()
        };
        let s = corruption_scores(&locked, &[k], &oracle, &cfg).unwrap();
        assert_eq!(s.method, ScoreMethod::Both);
        assert_eq!(s.dip.exact, Some(1), "one distinguishing input");
        assert_eq!(s.dip.estimate, Some(1.0));
        assert_eq!(s.wrong_keys.exact, Some(1));
        assert_eq!(s.key_classes, Some(2));
        if s.sampled_key == [true] {
            assert_eq!(s.err.exact, Some(1), "single corrupted pattern");
            assert_eq!(s.err.estimate, Some(1.0));
            hit = Some(seed);
            break;
        }
        assert_eq!(s.err.exact, Some(0), "correct key corrupts nothing");
        assert_eq!(s.err.estimate, Some(0.0));
    }
    assert!(hit.is_some(), "no seed sampled the wrong key");
}
