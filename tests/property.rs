//! Seeded-random property tests over the core data structures and
//! invariants. Each test replays a fixed number of cases drawn from a
//! deterministic PRNG, so failures reproduce exactly.

use glitchlock::circuits::{generate, iwls2005_profiles, tiny};
use glitchlock::core::encrypt_ff::{group_by_output_cone, FfGroup};
use glitchlock::netlist::{
    bench_format, fanout_cone, output_reach, CellId, GateKind, Logic, NetId, Netlist, SeqState,
};
use glitchlock::sat::{encode_comb_with, Cnf, Lit, SatResult, Solver};
use glitchlock::stdcell::Ps;
use glitchlock::synth::{optimize, plan_chain};
use glitchlock::{core::windows::GkTiming, stdcell::Library};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Builds a random combinational netlist from a compact recipe.
fn random_comb_netlist(n_inputs: usize, gates: &[(u8, Vec<usize>)]) -> Option<Netlist> {
    let mut nl = Netlist::new("rand");
    let mut nets = Vec::new();
    for i in 0..n_inputs {
        nets.push(nl.add_input(format!("i{i}")));
    }
    for (kind_ix, srcs) in gates {
        let kind = match kind_ix % 8 {
            0 => GateKind::And,
            1 => GateKind::Or,
            2 => GateKind::Nand,
            3 => GateKind::Nor,
            4 => GateKind::Xor,
            5 => GateKind::Xnor,
            6 => GateKind::Inv,
            _ => GateKind::Buf,
        };
        let arity = kind.fixed_arity().unwrap_or(2);
        if srcs.len() < arity || nets.is_empty() {
            return None;
        }
        let ins: Vec<_> = srcs[..arity]
            .iter()
            .map(|&s| nets[s % nets.len()])
            .collect();
        let y = nl.add_gate(kind, &ins).ok()?;
        nets.push(y);
    }
    // Mark the last few nets as outputs.
    let n_out = nets.len().min(3);
    for (i, &n) in nets.iter().rev().take(n_out).enumerate() {
        nl.mark_output(n, format!("o{i}"));
    }
    Some(nl)
}

/// Draws a gate recipe matching the shapes the old proptest strategy
/// produced: 1–23 gates, each `(kind byte, 2–3 source indices)`.
fn gate_recipe(rng: &mut StdRng, max_gates: usize) -> Vec<(u8, Vec<usize>)> {
    let n_gates = rng.gen_range(1..max_gates);
    (0..n_gates)
        .map(|_| {
            let kind: u8 = rng.gen::<u8>();
            let n_srcs = rng.gen_range(2usize..4);
            let srcs = (0..n_srcs).map(|_| rng.gen::<usize>()).collect();
            (kind, srcs)
        })
        .collect()
}

/// Draws a valid random netlist, retrying until the recipe builds.
fn draw_netlist(rng: &mut StdRng, max_inputs: usize, max_gates: usize) -> (usize, Netlist) {
    loop {
        let n_inputs = rng.gen_range(1..max_inputs);
        let gates = gate_recipe(rng, max_gates);
        if let Some(nl) = random_comb_netlist(n_inputs, &gates) {
            if nl.validate().is_ok() {
                return (n_inputs, nl);
            }
        }
    }
}

/// Draws a valid random *sequential* netlist: flip-flops whose D pins are
/// rewired across the whole pool once it exists, so state can feed logic
/// that feeds state (feedback loops through the registers).
fn draw_seq_netlist(rng: &mut StdRng) -> (usize, Netlist) {
    loop {
        let n_inputs = rng.gen_range(1usize..5);
        let n_ffs = rng.gen_range(1usize..4);
        let mut nl = Netlist::new("randseq");
        let mut nets: Vec<_> = (0..n_inputs)
            .map(|i| nl.add_input(format!("i{i}")))
            .collect();
        let mut ffs = Vec::new();
        for i in 0..n_ffs {
            let q = nl.add_dff_named(nets[0], format!("f{i}")).unwrap();
            ffs.push(nl.net(q).driver().unwrap());
            nets.push(q);
        }
        for (kind_ix, srcs) in gate_recipe(rng, 20) {
            let kind = match kind_ix % 8 {
                0 => GateKind::And,
                1 => GateKind::Or,
                2 => GateKind::Nand,
                3 => GateKind::Nor,
                4 => GateKind::Xor,
                5 => GateKind::Xnor,
                6 => GateKind::Inv,
                _ => GateKind::Buf,
            };
            let arity = kind.fixed_arity().unwrap_or(2);
            let ins: Vec<_> = srcs
                .iter()
                .cycle()
                .take(arity)
                .map(|&s| nets[s % nets.len()])
                .collect();
            let y = nl.add_gate(kind, &ins).unwrap();
            nets.push(y);
        }
        for &ff in &ffs {
            let d = nets[rng.gen_range(0..nets.len())];
            nl.rewire_input(ff, 0, d).unwrap();
        }
        for (i, &n) in nets.iter().rev().take(2).enumerate() {
            nl.mark_output(n, format!("o{i}"));
        }
        if nl.validate().is_ok() {
            return (n_inputs, nl);
        }
    }
}

/// Steps two netlists from reset under the same random stimulus and
/// demands identical primary-output sequences.
fn assert_same_stepping(a: &Netlist, b: &Netlist, rng: &mut StdRng, cycles: usize) {
    let n_inputs = a.input_nets().len();
    let mut sa = SeqState::reset(a);
    let mut sb = SeqState::reset(b);
    for c in 0..cycles {
        let inputs: Vec<Logic> = (0..n_inputs).map(|_| Logic::from_bool(rng.gen())).collect();
        assert_eq!(sa.step(a, &inputs), sb.step(b, &inputs), "cycle {c}");
    }
}

/// `optimize` preserves combinational behaviour on random circuits.
#[test]
fn optimize_preserves_combinational_behaviour() {
    let mut rng = StdRng::seed_from_u64(0x0b71);
    for case in 0..64 {
        let (n_inputs, nl) = draw_netlist(&mut rng, 5, 24);
        let opt = optimize(&nl).unwrap();
        assert!(opt.stats().cells <= nl.stats().cells, "case {case}");
        for _ in 0..4 {
            let p: u16 = rng.gen::<u16>();
            let inputs: Vec<Logic> = (0..n_inputs)
                .map(|i| Logic::from_bool(p >> i & 1 == 1))
                .collect();
            assert_eq!(nl.eval_comb(&inputs), opt.eval_comb(&inputs), "case {case}");
        }
    }
}

/// The CNF encoding agrees with direct evaluation for a random input
/// pattern on a random circuit.
#[test]
fn tseitin_agrees_with_evaluation() {
    let mut rng = StdRng::seed_from_u64(0x7517);
    for case in 0..64 {
        let (n_inputs, nl) = draw_netlist(&mut rng, 5, 24);
        let pattern: u16 = rng.gen::<u16>();
        let view = glitchlock::netlist::CombView::new(&nl);
        let mut cnf = Cnf::new();
        let enc = encode_comb_with(&mut cnf, &nl, &view, &[]);
        let input_bools: Vec<bool> = (0..n_inputs).map(|i| pattern >> i & 1 == 1).collect();
        let logic: Vec<Logic> = input_bools.iter().map(|&b| Logic::from_bool(b)).collect();
        let expect = view.eval(&nl, &logic);
        let mut solver = Solver::from_cnf(&cnf);
        let assumptions: Vec<Lit> = enc
            .input_vars
            .iter()
            .zip(&input_bools)
            .map(|(&v, &b)| Lit::with_sign(v, !b))
            .collect();
        assert_eq!(
            solver.solve_with(&assumptions),
            SatResult::Sat,
            "case {case}"
        );
        for (i, &ov) in enc.output_vars.iter().enumerate() {
            assert_eq!(
                solver.value(ov),
                expect[i].to_bool(),
                "case {case} output {i}"
            );
        }
    }
}

/// `.bench` round trip preserves behaviour.
#[test]
fn bench_format_round_trip() {
    let mut rng = StdRng::seed_from_u64(0xbe7c);
    for case in 0..64 {
        let (n_inputs, nl) = draw_netlist(&mut rng, 5, 24);
        let text = bench_format::emit(&nl);
        let re = bench_format::parse(&text).unwrap();
        for _ in 0..3 {
            let p: u16 = rng.gen::<u16>();
            let inputs: Vec<Logic> = (0..n_inputs)
                .map(|i| Logic::from_bool(p >> i & 1 == 1))
                .collect();
            assert_eq!(nl.eval_comb(&inputs), re.eval_comb(&inputs), "case {case}");
        }
    }
}

/// Delay-chain plans land within tolerance whenever they succeed, and
/// their cell lists really sum to the achieved delay.
#[test]
fn chain_plans_are_self_consistent() {
    let mut rng = StdRng::seed_from_u64(0xc4a1);
    let lib = Library::cl013g_like();
    for _ in 0..64 {
        let target = rng.gen_range(0u64..20_000);
        let tol = rng.gen_range(0u64..200);
        if let Ok(plan) = plan_chain(&lib, Ps(target), Ps(tol)) {
            let sum: Ps = plan.cells.iter().map(|&c| lib.cell(c).delay()).sum();
            assert_eq!(sum, plan.achieved);
            assert!(plan.achieved.as_ps().abs_diff(target) <= tol);
        }
    }
}

/// Eq. (5) windows only admit triggers whose glitches cover the capture
/// window cleanly (cross-check of the two formulations).
#[test]
fn on_glitch_window_members_cover_capture() {
    let mut rng = StdRng::seed_from_u64(0x816c);
    for _ in 0..256 {
        let t_clk = rng.gen_range(2_000u64..12_000);
        let l = rng.gen_range(200u64..4_000);
        let arrival = rng.gen_range(0u64..6_000);
        let probe = rng.gen_range(0u64..12_000);
        let timing = GkTiming {
            t_arrival: Ps(arrival),
            t_j: Ps::ZERO,
            t_clk: Ps(t_clk),
            t_setup: Ps(90),
            t_hold: Ps(35),
            l_glitch: Ps(l),
            d_ready: Ps(l),
            d_react: Ps(80),
        };
        if let Some(w) = timing.on_glitch_window() {
            assert!(w.lo < w.hi);
            if w.contains(Ps(probe)) {
                assert!(
                    timing.glitch_covers_window(Ps(probe)),
                    "trigger {probe} inside ({}, {}) must latch cleanly",
                    w.lo,
                    w.hi
                );
            }
            // The midpoint is always a legal trigger.
            assert!(timing.glitch_covers_window(w.midpoint()));
        }
    }
}

/// Random sequential circuits: `SeqState` stepping is deterministic
/// and output width stable.
#[test]
fn sequential_stepping_is_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x5e90);
    for case in 0..64 {
        let (n_inputs, mut nl) = draw_netlist(&mut rng, 4, 24);
        let pattern: u16 = rng.gen::<u16>();
        // Register the first output.
        let po = nl.output_nets()[0];
        let q = nl.add_dff(po).unwrap();
        nl.mark_output(q, "q");
        let inputs: Vec<Logic> = (0..n_inputs)
            .map(|i| Logic::from_bool(pattern >> i & 1 == 1))
            .collect();
        let mut a = SeqState::reset(&nl);
        let mut b = SeqState::reset(&nl);
        for _ in 0..4 {
            assert_eq!(a.step(&nl, &inputs), b.step(&nl, &inputs), "case {case}");
        }
    }
}

/// Random sequential netlists with register feedback survive a `.bench`
/// round trip with their stepping behaviour intact.
#[test]
fn sequential_bench_round_trip_preserves_stepping() {
    let mut rng = StdRng::seed_from_u64(0x5eb1);
    for case in 0..48 {
        let (_, nl) = draw_seq_netlist(&mut rng);
        let re = bench_format::parse(&bench_format::emit(&nl)).unwrap();
        assert_eq!(nl.dff_cells().len(), re.dff_cells().len(), "case {case}");
        assert_same_stepping(&nl, &re, &mut rng, 10);
    }
}

/// `sweep_sequential` may restructure and drop dead state, but the
/// observable output sequence from reset must not change.
#[test]
fn sweep_preserves_sequential_behaviour() {
    use glitchlock::synth::sweep_sequential;
    let mut rng = StdRng::seed_from_u64(0x53e9);
    for case in 0..48 {
        let (_, nl) = draw_seq_netlist(&mut rng);
        let swept = sweep_sequential(&nl).unwrap();
        assert!(swept.stats().cells <= nl.stats().cells, "case {case}");
        assert_same_stepping(&nl, &swept, &mut rng, 10);
    }
}

/// The per-net BFS that one-pass `output_reach` replaced, as its referee:
/// the fanout cone without crossing flip-flops, then the outputs sitting on
/// `net` itself or on a combinational cone cell's output (a flip-flop sink
/// ends the walk, so its Q does not count).
fn referee_outputs(nl: &Netlist, net: NetId) -> BTreeSet<usize> {
    let cone_nets: HashSet<NetId> = fanout_cone(nl, net, false)
        .into_iter()
        .filter(|&c| nl.cell(c).kind().is_combinational())
        .map(|c| nl.cell(c).output())
        .chain([net])
        .collect();
    nl.output_ports()
        .enumerate()
        .filter(|(_, (n, _))| cone_nets.contains(n))
        .map(|(i, _)| i)
        .collect()
}

/// Groups every flip-flop the way Encrypt-FF did with one referee BFS per
/// flip-flop: keyed by output set, largest group first, ties by set order.
fn referee_groups(nl: &Netlist) -> Vec<FfGroup> {
    let mut groups: BTreeMap<BTreeSet<usize>, Vec<CellId>> = BTreeMap::new();
    for &ff in nl.dff_cells() {
        let outs = referee_outputs(nl, nl.cell(ff).output());
        groups.entry(outs).or_default().push(ff);
    }
    let mut v: Vec<FfGroup> = groups
        .into_iter()
        .map(|(outputs, ffs)| FfGroup { outputs, ffs })
        .collect();
    v.sort_by(|a, b| {
        b.ffs
            .len()
            .cmp(&a.ffs.len())
            .then(a.outputs.cmp(&b.outputs))
    });
    v
}

/// The one-pass reach must equal the referee on every net, and Encrypt-FF
/// grouping must equal the referee grouping, groups and order alike.
fn assert_reach_matches_referee(label: &str, nl: &Netlist) {
    let reach = output_reach(nl).unwrap();
    for (net, _) in nl.nets() {
        assert_eq!(
            reach.outputs(net),
            referee_outputs(nl, net),
            "{label}: net {net:?}"
        );
    }
    assert_eq!(
        group_by_output_cone(nl, nl.dff_cells()).unwrap(),
        referee_groups(nl),
        "{label}: groups"
    );
}

#[test]
fn output_reach_matches_bfs_referee_on_paper_profiles() {
    // One thread per profile: the referee is a BFS per net, slow on the
    // s38 profiles in an unoptimized build.
    std::thread::scope(|s| {
        for profile in iwls2005_profiles() {
            s.spawn(move || assert_reach_matches_referee(profile.name, &generate(&profile)));
        }
    });
    for seed in 0..8 {
        assert_reach_matches_referee(&format!("tiny({seed})"), &generate(&tiny(seed)));
    }
}

#[test]
fn output_reach_matches_bfs_referee_on_random_sequential_netlists() {
    let mut rng = StdRng::seed_from_u64(0x0c0e);
    for case in 0..200 {
        let (_, nl) = draw_seq_netlist(&mut rng);
        assert_reach_matches_referee(&format!("case {case}"), &nl);
    }
}

/// Sweeps every data-input pattern with the key pinned at its correct
/// value and demands the dataflow constant lattice land on exactly the
/// value the packed engine computes, on every net (flip-flop state free,
/// i.e. `X`, in both engines).
fn assert_const_prop_matches_packed(label: &str, nl: &Netlist, key_inputs: &[NetId], key: &[bool]) {
    use glitchlock::netlist::{EvalProgram, PackedLogic, LANES};
    let n_in = nl.input_nets().len();
    let data_width = n_in - key_inputs.len();
    assert!(data_width <= 8, "{label}: sweep must stay exhaustive");
    let program = EvalProgram::compile(nl).expect("locked netlists are compilable");
    let mut buf = program.scratch();
    let patterns: Vec<Vec<Logic>> = (0..1u32 << data_width)
        .map(|bits| {
            let mut di = 0;
            nl.input_nets()
                .iter()
                .map(|net| {
                    if let Some(ki) = key_inputs.iter().position(|k| k == net) {
                        Logic::from_bool(key[ki])
                    } else {
                        let b = bits >> di & 1 == 1;
                        di += 1;
                        Logic::from_bool(b)
                    }
                })
                .collect()
        })
        .collect();
    for pats in patterns.chunks(LANES) {
        let in_words: Vec<PackedLogic> = (0..n_in)
            .map(|i| PackedLogic::from_lanes(&pats.iter().map(|p| p[i]).collect::<Vec<_>>()))
            .collect();
        program.eval(&in_words, None, &mut buf);
        for (lane, pat) in pats.iter().enumerate() {
            let facts = glitchlock::dataflow::const_facts_for_inputs(nl, pat);
            for idx in 0..nl.net_count() {
                let id = NetId::from_index(idx);
                assert_eq!(
                    facts.net(id).to_logic(),
                    buf.net(id).get(lane),
                    "{label}: net {:?} under inputs {pat:?}",
                    nl.net(id).name()
                );
            }
        }
    }
}

/// Every locker at key width <= 8: constant propagation under the
/// correct full key agrees with the packed evaluator on all `2^n`
/// data-input patterns.
#[test]
fn const_prop_matches_packed_for_every_locker_under_correct_key() {
    use glitchlock::core::locking::{AntiSat, LockScheme, MuxLock, SarLock, Tdk, XorLock};
    use glitchlock::core::GkEncryptor;
    use glitchlock::sta::ClockModel;
    use glitchlock_circuits::s27;

    let lib = Library::cl013g_like();
    let mut rng = StdRng::seed_from_u64(0xd47a);
    let base = s27();

    let schemes: Vec<(&str, Box<dyn LockScheme>)> = vec![
        ("xor4", Box::new(XorLock::new(4))),
        ("mux4", Box::new(MuxLock::new(4))),
        ("sarlock3", Box::new(SarLock::new(3))),
        ("antisat3", Box::new(AntiSat::new(3))),
    ];
    for (name, scheme) in schemes {
        let locked = scheme.lock(&base, &mut rng).unwrap();
        assert!(
            locked.key_width() <= 8,
            "{name}: key too wide for the sweep"
        );
        let key = locked.correct_key.clone();
        assert_const_prop_matches_packed(name, &locked.netlist, &locked.key_inputs, &key);
    }

    let tdk = Tdk::new(2)
        .lock_with_library(&base, &lib, &mut rng)
        .expect("s27 has enough flip-flops");
    assert_const_prop_matches_packed(
        "tdk2",
        &tdk.locked.netlist,
        &tdk.locked.key_inputs,
        &tdk.locked.correct_key,
    );

    let gk = GkEncryptor::new(2)
        .encrypt(&base, &lib, &ClockModel::new(Ps::from_ns(3)), &mut rng)
        .expect("s27 locks at 3ns");
    let gk_key = gk
        .correct_key
        .as_bools()
        .expect("k1/k2 key bits are constants");
    assert_const_prop_matches_packed("gk2", &gk.netlist, &gk.key_inputs, &gk_key);
}

/// Non-proptest sanity companion: the window midpoint law holds on the
/// paper's own Fig. 9 numbers.
#[test]
fn fig9_midpoint_is_legal() {
    let timing = GkTiming {
        t_arrival: Ps::from_ns(1),
        t_j: Ps::ZERO,
        t_clk: Ps::from_ns(8),
        t_setup: Ps::from_ns(1),
        t_hold: Ps::from_ns(1),
        l_glitch: Ps::from_ns(3),
        d_ready: Ps::ZERO,
        d_react: Ps::ZERO,
    };
    let w = timing.on_glitch_window().unwrap();
    assert!(timing.glitch_covers_window(w.midpoint()));
}
