//! Print→parse round-trip property tests for the `.bench` format.
//!
//! Three properties:
//!
//! 1. **Fixpoint**: emit→parse→emit converges after one iteration (the
//!    first round trip may rewrite primary-output aliases into explicit
//!    BUFF form; after that, the text must be stable).
//! 2. **Semantic preservation**: the parsed netlist steps identically to
//!    the original under random stimulus (zero-delay sequential semantics).
//! 3. **Name preservation**: awkward identifiers — digits, underscores,
//!    one-letter names — survive the trip, as do output port names.

use glitchlock::fuzz::{materialize, random_recipe};
use glitchlock::netlist::{bench_format, GateKind, Logic, Netlist, SeqState};
use glitchlock::stdcell::Library;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn step_equal(a: &Netlist, b: &Netlist, seed: u64, cycles: usize) {
    assert_eq!(a.input_nets().len(), b.input_nets().len());
    assert_eq!(a.output_ports().len(), b.output_ports().len());
    let mut sa = SeqState::reset(a);
    let mut sb = SeqState::reset(b);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..cycles {
        let pat: Vec<Logic> = (0..a.input_nets().len())
            .map(|_| Logic::from_bool(rng.gen()))
            .collect();
        assert_eq!(sa.step(a, &pat), sb.step(b, &pat));
    }
}

fn check_bench(nl: &Netlist, seed: u64) {
    let t1 = bench_format::emit(nl);
    let p1 = bench_format::parse(&t1).expect("bench parses its own emission");
    let t2 = bench_format::emit(&p1);
    let p2 = bench_format::parse(&t2).expect("bench parses fixpoint text");
    assert_eq!(
        t2,
        bench_format::emit(&p2),
        "bench emission is not a fixpoint"
    );
    step_equal(nl, &p1, seed, 16);
}

#[test]
fn random_netlists_round_trip() {
    let library = Library::cl013g_like().with_gk_delay_macros();
    for seed in 0..40u64 {
        let case = materialize(&random_recipe(seed), &library);
        check_bench(&case.netlist, seed ^ 0xb);
    }
}

#[test]
fn awkward_identifiers_survive() {
    // Digits, underscores, single letters, digit-leading tails: all legal
    // net names, and all must come back verbatim.
    let mut nl = Netlist::new("ids_0_1");
    let a = nl.add_input("a");
    let b = nl.add_input("in_2");
    let c = nl.add_input("n0_1_2");
    let y = nl.add_gate(GateKind::And, &[a, b]).unwrap();
    nl.rename_net(y, "and_00");
    let z = nl.add_gate(GateKind::Xnor, &[y, c]).unwrap();
    nl.rename_net(z, "G17_q_3");
    nl.mark_output(z, "po_0");
    nl.mark_output(y, "and_00");
    nl.validate().unwrap();

    let back = bench_format::parse(&bench_format::emit(&nl)).expect("parses");
    for name in ["a", "in_2", "n0_1_2", "and_00", "G17_q_3"] {
        assert!(
            back.net_by_name(name).is_some(),
            "identifier {name} lost in round trip"
        );
    }
    let ports: Vec<&str> = back.output_ports().map(|(_, n)| n).collect();
    assert!(ports.contains(&"po_0"), "output port name lost: {ports:?}");
    step_equal(&nl, &back, 5, 8);
}

#[test]
fn single_gate_netlist_round_trips() {
    let mut nl = Netlist::new("one");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let y = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
    nl.mark_output(y, "y");
    nl.validate().unwrap();
    check_bench(&nl, 1);
}

#[test]
fn empty_output_netlist_round_trips() {
    // Inputs and a gate but no primary outputs: the format must emit and
    // re-parse it without inventing or dropping structure.
    let mut nl = Netlist::new("noout");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    nl.add_gate(GateKind::Or, &[a, b]).unwrap();
    nl.validate().unwrap();

    let p1 = bench_format::parse(&bench_format::emit(&nl)).expect("bench parses");
    assert_eq!(p1.input_nets().len(), 2);
    assert_eq!(p1.output_ports().len(), 0);
}

#[test]
fn input_only_netlist_round_trips() {
    let mut nl = Netlist::new("wires");
    let a = nl.add_input("a0");
    nl.mark_output(a, "a0");
    nl.validate().unwrap();
    check_bench(&nl, 2);
}
