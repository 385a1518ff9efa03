//! The referee registry: independent oracles that must agree on every case.
//!
//! Each referee cross-checks two implementations that should be
//! observationally identical — e.g. the hand-rolled scalar evaluator
//! against the packed bit-parallel engine, or the event-driven simulator
//! against zero-delay stepping. A [`Verdict::Fail`] means two engines
//! disagreed (or an invariant like wrong-key corruption was violated);
//! the runner then shrinks the recipe to a minimal reproducer.

use crate::materialize::{LockOutcome, TestCase};
use crate::reference::{Inject, RefMachine};
use glitchlock_core::insertion::timed_trace;
use glitchlock_core::{KeyVector, Locked};
use glitchlock_count::Score;
use glitchlock_lint::{Level, LintContext, LintRunner};
use glitchlock_netlist::{
    bench_format, Aig, CombView, EvalProgram, Logic, NetId, Netlist, PackedLogic, SeqState, LANES,
};
use glitchlock_sat::equiv::{bounded_equiv, EquivResult};
use glitchlock_sim::{ClockSpec, SimConfig, Simulator, Stimulus};
use glitchlock_sta::{analyze, ClockModel};
use glitchlock_stdcell::{Library, Ps};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything a referee may consult about one case.
pub struct RefereeCtx<'a> {
    /// The materialized case.
    pub case: &'a TestCase,
    /// The standard-cell library (with GK delay macros).
    pub library: &'a Library,
    /// Deliberate reference-evaluator fault, for negative testing.
    pub inject: Inject,
}

/// A referee's judgement of one case.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// All compared engines agree.
    Pass,
    /// The referee does not apply to this case (with the reason).
    Skip(String),
    /// Two engines disagree; the message pinpoints the divergence.
    Fail(String),
}

/// A named differential oracle.
pub struct Referee {
    /// Stable name used by `--referee` filters and reports.
    pub name: &'static str,
    /// One-line description for `--list-referees`.
    pub about: &'static str,
    run: fn(&RefereeCtx<'_>) -> Verdict,
}

impl Referee {
    /// Judges one case.
    pub fn run(&self, ctx: &RefereeCtx<'_>) -> Verdict {
        (self.run)(ctx)
    }
}

/// The full registry, in the order referees run.
pub fn registry() -> Vec<Referee> {
    vec![
        Referee {
            name: "scalar-vs-packed",
            about: "independent scalar evaluator vs packed engine, every net, every lane",
            run: scalar_vs_packed,
        },
        Referee {
            name: "sim-vs-packed",
            about: "event-driven zero-delay simulation vs packed sequential stepping",
            run: sim_vs_packed,
        },
        Referee {
            name: "sat-equiv",
            about: "correct-key locked design is SAT-equivalent to the oracle",
            run: sat_equiv,
        },
        Referee {
            name: "wrong-key",
            about: "every single-bit key flip corrupts some output or transition",
            run: wrong_key,
        },
        Referee {
            name: "round-trip",
            about: "bench print-parse fixpoint and semantic preservation",
            run: round_trip,
        },
        Referee {
            name: "const-prop-vs-packed",
            about: "dataflow constant lattice vs packed engine, exhaustive at <=8 inputs",
            run: const_prop_vs_packed,
        },
        Referee {
            name: "aig-equiv",
            about:
                "netlist -> AIG -> netlist round trip vs packed engine, exhaustive at <=8 inputs",
            run: aig_equiv,
        },
        Referee {
            name: "count-vs-exhaustive",
            about: "ApproxMC-style hash-count estimator vs exhaustive sweep on small lockings",
            run: count_vs_exhaustive,
        },
        Referee {
            name: "lint-clean",
            about: "structural lint cleanliness; timing battery on GK-locked designs",
            run: lint_clean,
        },
    ]
}

/// The netlists a case exposes for engine-vs-engine comparison.
fn case_views(case: &TestCase) -> Vec<(&'static str, &Netlist)> {
    let mut v = vec![("original", &case.netlist)];
    match &case.lock {
        LockOutcome::Static(l) => v.push(("locked", &l.netlist)),
        LockOutcome::Gk(g) => v.push(("attack-view", &g.attack_view)),
        LockOutcome::Unlocked | LockOutcome::Skipped { .. } => {}
    }
    v
}

fn random_logic(rng: &mut StdRng) -> Logic {
    match rng.gen_range(0u32..5) {
        0 | 1 => Logic::Zero,
        2 | 3 => Logic::One,
        _ => Logic::X,
    }
}

/// Transposes per-lane patterns into per-signal packed words.
fn transpose(patterns: &[Vec<Logic>], width: usize) -> Vec<PackedLogic> {
    (0..width)
        .map(|i| {
            let lane_vals: Vec<Logic> = patterns.iter().map(|p| p[i]).collect();
            PackedLogic::from_lanes(&lane_vals)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// scalar-vs-packed
// ---------------------------------------------------------------------------

fn scalar_vs_packed(ctx: &RefereeCtx<'_>) -> Verdict {
    let mut rng = StdRng::seed_from_u64(ctx.case.recipe.seed ^ 0x5ca1a);
    for (view, nl) in case_views(ctx.case) {
        let program = match EvalProgram::compile(nl) {
            Ok(p) => p,
            Err(e) => return Verdict::Fail(format!("{view}: packed compile failed: {e}")),
        };
        let machine = RefMachine::new(nl, ctx.inject);
        let n_in = nl.input_nets().len();
        let n_ff = nl.dff_cells().len();
        let mut buf = program.scratch();

        // Combinational: 2 × 64 lanes of three-valued patterns over PIs and
        // free flip-flop Q values, compared on EVERY net.
        for word in 0..2 {
            let pats: Vec<Vec<Logic>> = (0..LANES)
                .map(|_| (0..n_in + n_ff).map(|_| random_logic(&mut rng)).collect())
                .collect();
            let in_words = transpose(&pats, n_in);
            let q_lanes: Vec<Vec<Logic>> = pats.iter().map(|p| p[n_in..].to_vec()).collect();
            let q_words = transpose(&q_lanes, n_ff);
            program.eval(&in_words, Some(&q_words), &mut buf);
            for (lane, pat) in pats.iter().enumerate() {
                let nets = machine.eval_nets(nl, &pat[..n_in], &pat[n_in..]);
                for (idx, &reference) in nets.iter().enumerate() {
                    let id = NetId::from_index(idx);
                    let packed = buf.net(id).get(lane);
                    if reference != packed {
                        return Verdict::Fail(format!(
                            "{view}: net {:?} disagrees on combinational word {word} \
                             lane {lane}: reference {reference} vs packed {packed}",
                            nl.net(id).name()
                        ));
                    }
                }
            }
        }

        // Sequential: 8 cycles × 64 lanes from reset, comparing outputs and
        // the latched next state each cycle.
        let mut packed_q = vec![PackedLogic::splat(Logic::Zero); n_ff];
        let mut ref_q: Vec<Vec<Logic>> = vec![vec![Logic::Zero; n_ff]; LANES];
        for cycle in 0..8 {
            let pats: Vec<Vec<Logic>> = (0..LANES)
                .map(|_| (0..n_in).map(|_| random_logic(&mut rng)).collect())
                .collect();
            let in_words = transpose(&pats, n_in);
            program.eval(&in_words, Some(&packed_q), &mut buf);
            let po_words = program.outputs(&buf);
            let next_q = program.dff_d(&buf);
            for (lane, pat) in pats.iter().enumerate() {
                let nets = machine.eval_nets(nl, pat, &ref_q[lane]);
                let po_ref = machine.outputs_of(nl, &nets);
                for (o, (r, w)) in po_ref.iter().zip(&po_words).enumerate() {
                    if *r != w.get(lane) {
                        return Verdict::Fail(format!(
                            "{view}: output {o} disagrees at cycle {cycle} lane {lane}: \
                             reference {r} vs packed {}",
                            w.get(lane)
                        ));
                    }
                }
                let d_ref = machine.dff_d_of(nl, &nets);
                for (i, (r, w)) in d_ref.iter().zip(&next_q).enumerate() {
                    if *r != w.get(lane) {
                        return Verdict::Fail(format!(
                            "{view}: flip-flop {i} next state disagrees at cycle {cycle} \
                             lane {lane}: reference {r} vs packed {}",
                            w.get(lane)
                        ));
                    }
                }
                ref_q[lane] = d_ref;
            }
            packed_q = next_q;
        }
    }
    Verdict::Pass
}

// ---------------------------------------------------------------------------
// sim-vs-packed
// ---------------------------------------------------------------------------

fn sim_vs_packed(ctx: &RefereeCtx<'_>) -> Verdict {
    let nl = &ctx.case.netlist;
    let period = ctx.case.period;
    let cycles = 6usize;
    let mut rng = StdRng::seed_from_u64(ctx.case.recipe.seed ^ 0x51b);
    let n_in = nl.input_nets().len();
    let inputs: Vec<Vec<Logic>> = (0..cycles)
        .map(|_| (0..n_in).map(|_| Logic::from_bool(rng.gen())).collect())
        .collect();

    // Drive the event-driven simulator exactly like `timed_trace`: FFs
    // reset to 0, inputs launched shortly after each opening edge, outputs
    // sampled just before the closing edge — but with idealized gates, so
    // the timing domain must agree with zero-delay semantics bit-for-bit.
    let mut stim = Stimulus::new();
    for &ff in nl.dff_cells() {
        stim.set_ff(ff, Logic::Zero);
    }
    for (c, pat) in inputs.iter().enumerate() {
        let t = period * (c as u64 + 1) + Ps(200);
        for (i, &net) in nl.input_nets().iter().enumerate() {
            if c == 0 {
                stim.set(net, pat[i]);
            }
            stim.at(t, net, pat[i]);
        }
    }
    let cfg = SimConfig::ideal().with_clock(ClockSpec::new(period));
    let res = Simulator::new(nl, ctx.library, cfg).run(&stim, period * (cycles as u64 + 2));
    let pos = nl.output_nets();
    let states: Vec<Vec<Logic>> = (0..=cycles)
        .map(|c| {
            nl.dff_cells()
                .iter()
                .map(|&ff| {
                    res.samples_of(ff)
                        .get(c)
                        .map(|&(_, v)| v)
                        .unwrap_or(Logic::X)
                })
                .collect()
        })
        .collect();

    let program = match EvalProgram::compile(nl) {
        Ok(p) => p,
        Err(e) => return Verdict::Fail(format!("packed compile failed: {e}")),
    };
    let mut buf = program.scratch();
    for c in 0..cycles {
        let sample_at = period * (c as u64 + 2) - Ps(1);
        let po_sim: Vec<Logic> = pos
            .iter()
            .map(|&n| res.waveform(n).value_at(sample_at))
            .collect();
        let q_words: Vec<PackedLogic> = states[c].iter().map(|&v| PackedLogic::splat(v)).collect();
        let in_words: Vec<PackedLogic> = inputs[c].iter().map(|&v| PackedLogic::splat(v)).collect();
        program.eval(&in_words, Some(&q_words), &mut buf);
        let po_packed: Vec<Logic> = program.outputs(&buf).iter().map(|w| w.get(0)).collect();
        if po_sim != po_packed {
            return Verdict::Fail(format!(
                "cycle {c}: simulated outputs {po_sim:?} vs packed {po_packed:?}"
            ));
        }
        let next_packed: Vec<Logic> = program.dff_d(&buf).iter().map(|w| w.get(0)).collect();
        if states[c + 1] != next_packed {
            return Verdict::Fail(format!(
                "cycle {c}: simulated next state {:?} vs packed {next_packed:?}",
                states[c + 1]
            ));
        }
    }
    Verdict::Pass
}

// ---------------------------------------------------------------------------
// sat-equiv
// ---------------------------------------------------------------------------

/// Moves every reader of each key input onto a constant, leaving the key
/// PIs dangling (interface preserved for the BMC).
fn tie_keys(locked: &Netlist, keys: &[NetId], values: &[bool]) -> Netlist {
    let mut tied = locked.clone();
    for (&k, &v) in keys.iter().zip(values) {
        let c = tied.add_const(v);
        tied.replace_uses(k, c).expect("nets exist");
    }
    tied
}

/// Pads the oracle with dummy primary inputs matching the locked design's
/// dangling key PIs, so the BMC sees aligned interfaces.
fn pad_oracle(original: &Netlist, tied: &Netlist) -> Option<Netlist> {
    let mut oracle = original.clone();
    for &pi in tied.input_nets() {
        let name = tied.net(pi).name().to_string();
        if oracle.net_by_name(&name).is_none() {
            oracle.add_input(name);
        }
    }
    (oracle.input_nets().len() == tied.input_nets().len()).then_some(oracle)
}

fn sat_equiv(ctx: &RefereeCtx<'_>) -> Verdict {
    let original = &ctx.case.netlist;
    match &ctx.case.lock {
        LockOutcome::Unlocked | LockOutcome::Skipped { .. } => {
            // Still differential: the BMC referees the bench printer/parser.
            let reparsed = match bench_format::parse(&bench_format::emit(original)) {
                Ok(n) => n,
                Err(e) => return Verdict::Fail(format!("bench round trip failed: {e}")),
            };
            match bounded_equiv(original, &reparsed, 3) {
                Ok(EquivResult::Equivalent) => Verdict::Pass,
                Ok(EquivResult::Counterexample { inputs }) => Verdict::Fail(format!(
                    "reparsed netlist differs from original on input sequence {inputs:?}"
                )),
                Err(e) => Verdict::Fail(format!("reparsed netlist is not comparable: {e}")),
            }
        }
        LockOutcome::Static(locked) => {
            let tied = tie_keys(&locked.netlist, &locked.key_inputs, &locked.correct_key);
            let tied = match glitchlock_synth::sweep_sequential(&tied) {
                Ok(n) => n,
                Err(e) => return Verdict::Fail(format!("sweep after tying keys failed: {e}")),
            };
            let Some(oracle) = pad_oracle(original, &tied) else {
                return Verdict::Skip("key input name collides with an oracle net".into());
            };
            match bounded_equiv(&oracle, &tied, 3) {
                Ok(EquivResult::Equivalent) => Verdict::Pass,
                Ok(EquivResult::Counterexample { inputs }) => Verdict::Fail(format!(
                    "correct key is not equivalent to the oracle; distinguishing \
                     sequence {inputs:?}"
                )),
                Err(e) => Verdict::Fail(format!("keyed design is not comparable: {e}")),
            }
        }
        LockOutcome::Gk(_) => Verdict::Skip(
            "GK correct key lives in the timing domain; zero-delay BMC does not apply".into(),
        ),
    }
}

// ---------------------------------------------------------------------------
// wrong-key
// ---------------------------------------------------------------------------

/// Assembles per-PI packed words for the locked netlist: key inputs are
/// splatted constants, data inputs come from `data` in order.
fn locked_input_words(locked: &Locked, data: &[PackedLogic], key: &[bool]) -> Vec<PackedLogic> {
    let mut out = Vec::with_capacity(locked.netlist.input_nets().len());
    let mut di = 0;
    for &net in locked.netlist.input_nets() {
        if let Some(ki) = locked.key_inputs.iter().position(|&k| k == net) {
            out.push(PackedLogic::splat(Logic::from_bool(key[ki])));
        } else {
            out.push(data[di]);
            di += 1;
        }
    }
    out
}

/// Outputs + next-state words for one 64-lane chunk of bool patterns.
fn eval_chunk(
    program: &EvalProgram,
    inputs: &[PackedLogic],
    q: &[PackedLogic],
) -> (Vec<PackedLogic>, Vec<PackedLogic>) {
    let mut buf = program.scratch();
    program.eval(inputs, Some(q), &mut buf);
    (program.outputs(&buf), program.dff_d(&buf))
}

/// The combinational sweep space for the wrong-key referee: bool patterns
/// over data inputs and (free) flip-flop state.
struct Sweep {
    /// Patterns, each `n_data + n_ff` bools.
    patterns: Vec<Vec<bool>>,
    /// True when `patterns` covers the whole space.
    exhaustive: bool,
}

fn build_sweep(n_data: usize, n_ff: usize, locked: &Locked, rng: &mut StdRng) -> Sweep {
    let width = n_data + n_ff;
    if width <= 11 {
        let patterns = (0..1usize << width)
            .map(|p| (0..width).map(|b| p >> b & 1 == 1).collect())
            .collect();
        return Sweep {
            patterns,
            exhaustive: true,
        };
    }
    let mut patterns: Vec<Vec<bool>> = (0..512)
        .map(|_| (0..width).map(|_| rng.gen()).collect())
        .collect();
    patterns.push(vec![false; width]);
    patterns.push(vec![true; width]);
    // Point-function lockers (SARLock, Anti-SAT) only corrupt on patterns
    // tied to key values; seed those deliberately, for the correct key and
    // every single-bit flip of it.
    let mut keyed = vec![locked.correct_key.clone()];
    for i in 0..locked.correct_key.len() {
        let mut k = locked.correct_key.clone();
        k[i] = !k[i];
        keyed.push(k);
    }
    for k in keyed {
        for fill in [false, true] {
            let mut p = vec![fill; width];
            for (b, &v) in k.iter().enumerate().take(n_data) {
                p[b] = v;
            }
            patterns.push(p);
        }
    }
    Sweep {
        patterns,
        exhaustive: false,
    }
}

/// Evaluates the original or locked design over the sweep, returning
/// per-pattern (outputs, next state).
#[allow(clippy::type_complexity)]
fn sweep_design(
    program: &EvalProgram,
    sweep: &Sweep,
    n_data: usize,
    key: Option<(&Locked, &[bool])>,
) -> Vec<(Vec<Logic>, Vec<Logic>)> {
    let mut results = Vec::with_capacity(sweep.patterns.len());
    for chunk in sweep.patterns.chunks(LANES) {
        let data_words: Vec<PackedLogic> = (0..n_data)
            .map(|i| {
                let lane_vals: Vec<Logic> = chunk.iter().map(|p| Logic::from_bool(p[i])).collect();
                PackedLogic::from_lanes(&lane_vals)
            })
            .collect();
        let n_ff = chunk[0].len() - n_data;
        let q_words: Vec<PackedLogic> = (0..n_ff)
            .map(|i| {
                let lane_vals: Vec<Logic> = chunk
                    .iter()
                    .map(|p| Logic::from_bool(p[n_data + i]))
                    .collect();
                PackedLogic::from_lanes(&lane_vals)
            })
            .collect();
        let inputs = match key {
            Some((locked, bits)) => locked_input_words(locked, &data_words, bits),
            None => data_words,
        };
        let (po, dd) = eval_chunk(program, &inputs, &q_words);
        for lane in 0..chunk.len() {
            results.push((
                po.iter().map(|w| w.get(lane)).collect(),
                dd.iter().map(|w| w.get(lane)).collect(),
            ));
        }
    }
    results
}

fn wrong_key(ctx: &RefereeCtx<'_>) -> Verdict {
    match &ctx.case.lock {
        LockOutcome::Unlocked | LockOutcome::Skipped { .. } => {
            Verdict::Skip("no lock to judge".into())
        }
        LockOutcome::Static(locked) => wrong_key_static(ctx, locked),
        LockOutcome::Gk(gk) => wrong_key_gk(ctx, gk),
    }
}

fn wrong_key_static(ctx: &RefereeCtx<'_>, locked: &Locked) -> Verdict {
    let original = &ctx.case.netlist;
    let n_data = original.input_nets().len();
    let n_ff = original.dff_cells().len();
    if locked.netlist.dff_cells().len() != n_ff {
        return Verdict::Skip("locker changed the flip-flop count".into());
    }
    let mut rng = StdRng::seed_from_u64(ctx.case.recipe.seed ^ 0xbadc0de);
    let sweep = build_sweep(n_data, n_ff, locked, &mut rng);
    let orig_program = match EvalProgram::compile(original) {
        Ok(p) => p,
        Err(e) => return Verdict::Fail(format!("original compile failed: {e}")),
    };
    let lock_program = match EvalProgram::compile(&locked.netlist) {
        Ok(p) => p,
        Err(e) => return Verdict::Fail(format!("locked compile failed: {e}")),
    };
    let baseline = sweep_design(&orig_program, &sweep, n_data, None);

    // (a) The correct key must reproduce the oracle on every pattern —
    // outputs AND next-state, with flip-flop state left free.
    let with_correct = sweep_design(
        &lock_program,
        &sweep,
        n_data,
        Some((locked, &locked.correct_key)),
    );
    if let Some(i) = (0..baseline.len()).find(|&i| baseline[i] != with_correct[i]) {
        return Verdict::Fail(format!(
            "correct key diverges from the oracle on pattern {:?}: oracle {:?} vs locked {:?}",
            sweep.patterns[i], baseline[i], with_correct[i]
        ));
    }

    // (b) Every single-bit flip must corrupt somewhere. A flip the sweep
    // cannot distinguish is cross-examined by the BMC: `Equivalent` means a
    // genuinely vacuous bit (legal on random netlists — e.g. a MUX decoy
    // that equals the target function); a counterexample against an
    // exhaustive sweep means the two engines disagree.
    for bit in 0..locked.correct_key.len() {
        let mut flipped = locked.correct_key.clone();
        flipped[bit] = !flipped[bit];
        let with_flip = sweep_design(&lock_program, &sweep, n_data, Some((locked, &flipped)));
        if with_flip != with_correct {
            continue; // corrupts: the flip is observable
        }
        let tied_ok = tie_keys(&locked.netlist, &locked.key_inputs, &locked.correct_key);
        let tied_bad = tie_keys(&locked.netlist, &locked.key_inputs, &flipped);
        match bounded_equiv(&tied_ok, &tied_bad, 3) {
            Err(e) => return Verdict::Fail(format!("key bit {bit}: BMC not applicable: {e}")),
            Ok(EquivResult::Equivalent) => {} // vacuous key bit
            Ok(EquivResult::Counterexample { inputs }) => {
                if sweep.exhaustive {
                    return Verdict::Fail(format!(
                        "key bit {bit}: exhaustive packed sweep saw no corruption but the \
                         BMC found distinguishing sequence {inputs:?}"
                    ));
                }
                // Sampled sweep simply missed it; the bit does corrupt.
            }
        }
    }
    Verdict::Pass
}

fn wrong_key_gk(ctx: &RefereeCtx<'_>, gk: &glitchlock_core::GkLocked) -> Verdict {
    let period = gk.clock_period;
    // Gate on the ORIGINAL design meeting timing: the locked netlist never
    // does by construction (the glitch paths intentionally toggle inside
    // the capture window, which STA reports as violations), but the timed
    // trace is only meaningful when the data paths themselves are clean.
    let oracle = &ctx.case.netlist;
    if !analyze(oracle, ctx.library, &ClockModel::new(period)).all_met() {
        return Verdict::Skip("base design misses timing; timed referee not applicable".into());
    }
    let Some(correct_bits) = gk.correct_key.as_bools() else {
        return Verdict::Skip("non-constant static key".into());
    };
    let locked = &gk.netlist;
    let key_nets = &gk.key_inputs;
    let data_inputs: Vec<NetId> = locked
        .input_nets()
        .iter()
        .copied()
        .filter(|n| !key_nets.contains(n))
        .collect();
    let n_oracle_ffs = oracle.dff_cells().len();
    let tracked: Vec<_> = locked.dff_cells()[..n_oracle_ffs].to_vec();
    let mut rng = StdRng::seed_from_u64(ctx.case.recipe.seed ^ 0x6b6b);
    let cycles = 6usize;
    let inputs: Vec<Vec<Logic>> = (0..cycles)
        .map(|_| {
            (0..data_inputs.len())
                .map(|_| Logic::from_bool(rng.gen()))
                .collect()
        })
        .collect();

    let bad_cycles = |key: &KeyVector| -> usize {
        let keyed: Vec<_> = key_nets
            .iter()
            .copied()
            .zip(key.bits().iter().copied())
            .collect();
        let trace = timed_trace(
            locked,
            ctx.library,
            period,
            &keyed,
            &inputs,
            &data_inputs,
            &tracked,
        );
        (0..cycles)
            .filter(|&c| {
                let mut o = SeqState::from_values(oracle, trace.states[c].clone());
                let po = o.step(oracle, &inputs[c]);
                trace.po[c] != po || trace.states[c + 1] != o.values()
            })
            .count()
    };

    // Correct key: the chip must match the oracle cycle-for-cycle in the
    // timing domain (the paper's KEY ACCEPTED criterion).
    let bad = bad_cycles(&gk.correct_key);
    if bad != 0 {
        return Verdict::Fail(format!(
            "correct key corrupted {bad}/{cycles} cycles in the timing domain"
        ));
    }
    // Every single-bit flip of the static selection moves at least one GK
    // to a wrong KEYGEN output (constants and delays pair across the 2-bit
    // encoding), so each flip must corrupt at least one cycle.
    for bit in 0..correct_bits.len() {
        let mut k = gk.correct_key.clone();
        k.flip_const(bit);
        if bad_cycles(&k) == 0 {
            return Verdict::Fail(format!(
                "flipping key bit {bit} left all {cycles} cycles clean; wrong keys \
                 must corrupt"
            ));
        }
    }
    Verdict::Pass
}

// ---------------------------------------------------------------------------
// round-trip
// ---------------------------------------------------------------------------

/// Steps both netlists from reset over random definite inputs, comparing
/// primary outputs every cycle.
fn semantically_equal(a: &Netlist, b: &Netlist, seed: u64) -> Result<(), String> {
    if a.input_nets().len() != b.input_nets().len() {
        return Err(format!(
            "input count changed: {} vs {}",
            a.input_nets().len(),
            b.input_nets().len()
        ));
    }
    if a.output_ports().len() != b.output_ports().len() {
        return Err(format!(
            "output count changed: {} vs {}",
            a.output_ports().len(),
            b.output_ports().len()
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sa = SeqState::reset(a);
    let mut sb = SeqState::reset(b);
    for cycle in 0..16 {
        let pat: Vec<Logic> = (0..a.input_nets().len())
            .map(|_| Logic::from_bool(rng.gen()))
            .collect();
        let pa = sa.step(a, &pat);
        let pb = sb.step(b, &pat);
        if pa != pb {
            return Err(format!(
                "outputs diverge at cycle {cycle}: {pa:?} vs {pb:?}"
            ));
        }
    }
    Ok(())
}

/// Lowers every case view to an AIG, re-emits it as a netlist, and demands
/// that the original (via the packed engine), the AIG evaluator, and the
/// re-emitted netlist agree on every combinational output — exhaustively
/// when the view has at most 8 inputs, on `2 * LANES` random boolean
/// patterns otherwise.
fn aig_equiv(ctx: &RefereeCtx<'_>) -> Verdict {
    let mut rng = StdRng::seed_from_u64(ctx.case.recipe.seed ^ 0x000a_16e9);
    for (view_name, nl) in case_views(ctx.case) {
        if nl.topo_order().is_err() {
            return Verdict::Skip(format!("{view_name}: cyclic netlist"));
        }
        let view = CombView::new(nl);
        let aig = Aig::from_comb(nl, &view);
        let back = aig.to_netlist("aig_round_trip");
        let back_view = CombView::new(&back);
        if back_view.num_inputs() != view.num_inputs()
            || back_view.num_outputs() != view.num_outputs()
        {
            return Verdict::Fail(format!(
                "{view_name}: round trip changed the interface: {}x{} vs {}x{}",
                view.num_inputs(),
                view.num_outputs(),
                back_view.num_inputs(),
                back_view.num_outputs()
            ));
        }
        let n_in = view.num_inputs();
        let patterns: Vec<Vec<Logic>> = if n_in <= 8 {
            (0u32..1 << n_in)
                .map(|bits| {
                    (0..n_in)
                        .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                        .collect()
                })
                .collect()
        } else {
            (0..2 * LANES)
                .map(|_| (0..n_in).map(|_| Logic::from_bool(rng.gen())).collect())
                .collect()
        };
        let program = match EvalProgram::compile(nl) {
            Ok(p) => p,
            Err(e) => return Verdict::Fail(format!("{view_name}: packed compile failed: {e}")),
        };
        let back_program = match EvalProgram::compile(&back) {
            Ok(p) => p,
            Err(e) => return Verdict::Fail(format!("{view_name}: round-trip compile failed: {e}")),
        };
        let want = view.eval_packed(&program, &patterns);
        let got = back_view.eval_packed(&back_program, &patterns);
        for (pat, (w, g)) in patterns.iter().zip(want.iter().zip(&got)) {
            let bools: Vec<bool> = pat.iter().map(|l| *l == Logic::One).collect();
            let direct: Vec<Logic> = aig.eval(&bools).into_iter().map(Logic::from_bool).collect();
            if w != g || *w != direct {
                return Verdict::Fail(format!(
                    "{view_name}: outputs disagree under inputs {pat:?}: \
                     packed {w:?} vs AIG {direct:?} vs round trip {g:?}"
                ));
            }
        }
    }
    Verdict::Pass
}

fn round_trip(ctx: &RefereeCtx<'_>) -> Verdict {
    for (view, nl) in case_views(ctx.case) {
        // .bench: one emit→parse may canonicalize (PO aliases become BUFF
        // gates); the second iteration must be a textual fixpoint, and the
        // parsed design must behave identically.
        let t1 = bench_format::emit(nl);
        let p1 = match bench_format::parse(&t1) {
            Ok(n) => n,
            Err(e) => return Verdict::Fail(format!("{view}: bench parse failed: {e}")),
        };
        let t2 = bench_format::emit(&p1);
        let p2 = match bench_format::parse(&t2) {
            Ok(n) => n,
            Err(e) => return Verdict::Fail(format!("{view}: bench re-parse failed: {e}")),
        };
        if t2 != bench_format::emit(&p2) {
            return Verdict::Fail(format!(
                "{view}: bench emit/parse is not a fixpoint after one round trip"
            ));
        }
        if let Err(e) = semantically_equal(nl, &p1, ctx.case.recipe.seed ^ 0xb3) {
            return Verdict::Fail(format!("{view}: bench round trip changed behaviour: {e}"));
        }
    }
    Verdict::Pass
}

// ---------------------------------------------------------------------------
// count-vs-exhaustive
// ---------------------------------------------------------------------------

/// The hash-count estimator against the exhaustive packed sweep on small
/// locked cases. Zero counts and counts that fit under the pivot must
/// match *exactly* (UNSAT detection and base enumeration are
/// deterministic); hashed counts get a doubled (1+ε) envelope so the
/// referee only fires on genuine divergence, not the δ-probability tail
/// the estimator is allowed to hit.
fn count_vs_exhaustive(ctx: &RefereeCtx<'_>) -> Verdict {
    use glitchlock_count::{corruption_scores, ScoreConfig, ScoreMethod};

    let (view, keys): (&Netlist, &[NetId]) = match &ctx.case.lock {
        LockOutcome::Static(l) => (&l.netlist, &l.key_inputs),
        LockOutcome::Gk(g) => (&g.attack_view, &g.attack_key_inputs),
        LockOutcome::Unlocked | LockOutcome::Skipped { .. } => {
            return Verdict::Skip("no locked view to count".into())
        }
    };
    let oracle = &ctx.case.netlist;
    let data_bits = oracle.input_nets().len() + oracle.dff_cells().len();
    if data_bits > 8 {
        return Verdict::Skip(format!("{data_bits} data bits exceed the referee cap of 8"));
    }
    let cfg = ScoreConfig {
        exact_bits: 16,
        max_bits: 16,
        seed: ctx.case.recipe.seed,
        ..ScoreConfig::default()
    };
    let scores = match corruption_scores(view, keys, oracle, &cfg) {
        Ok(s) => s,
        Err(e) => return Verdict::Skip(format!("counting not applicable: {e}")),
    };
    if scores.method != ScoreMethod::Both {
        return Verdict::Skip(format!(
            "{} total bits exceed the exhaustive cutoff",
            scores.data_bits + scores.key_bits
        ));
    }
    let mismatches = score_mismatches(
        [
            ("err", &scores.err),
            ("dip", &scores.dip),
            ("wrong-keys", &scores.wrong_keys),
        ],
        cfg.epsilon,
    );
    if mismatches.is_empty() {
        Verdict::Pass
    } else {
        Verdict::Fail(mismatches.join("; "))
    }
}

/// Every labelled score whose estimate disagrees with its exhaustive
/// count, one message each, so a failure names all the scores that are
/// wrong rather than the first.
fn score_mismatches(scores: [(&str, &Score); 3], epsilon: f64) -> Vec<String> {
    let pivot = 26u64;
    let mut out = Vec::new();
    for (label, score) in scores {
        let (Some(exact), Some(estimate)) = (score.exact, score.estimate) else {
            out.push(format!("{label}: both engines ran but a value is missing"));
            continue;
        };
        if exact <= pivot {
            if estimate != exact as f64 {
                out.push(format!(
                    "{label}: exhaustive {exact} but estimator {estimate} (under the pivot both are exact)"
                ));
            }
        } else {
            let slack = 2.0 * (1.0 + epsilon);
            let exact = exact as f64;
            if estimate < exact / slack || estimate > exact * slack {
                out.push(format!(
                    "{label}: exhaustive {exact} vs estimate {estimate} outside the {slack}x envelope"
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// lint-clean
// ---------------------------------------------------------------------------

const STRUCTURAL_DENY: [&str; 4] = [
    "undriven-net",
    "multiple-drivers",
    "dangling-output",
    "combinational-loop",
];

const GK_TIMING_DENY: [&str; 5] = [
    "setup-violated",
    "hold-violated",
    "gk-window-violated",
    "gk-glitch-too-short",
    "keygen-trigger-floor",
];

fn denied_codes(runner: &LintRunner, ctx: &LintContext<'_>) -> Vec<&'static str> {
    let report = runner.run(ctx);
    let mut codes: Vec<&'static str> = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == glitchlock_lint::Severity::Error)
        .map(|d| d.code)
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

// ---------------------------------------------------------------------------
// const-prop-vs-packed
// ---------------------------------------------------------------------------

/// Checks the dataflow constant/X lattice against the packed engine: with
/// every primary input pinned, the fixpoint must land on exactly the value
/// the bit-parallel evaluator computes, on every net, with flip-flop Q
/// values free (`X`) in both engines. Views with at most 8 inputs get the
/// full `2^n` boolean sweep; larger ones get two 64-lane words of random
/// three-valued patterns, which also exercises the X absorption rules.
fn const_prop_vs_packed(ctx: &RefereeCtx<'_>) -> Verdict {
    let mut rng = StdRng::seed_from_u64(ctx.case.recipe.seed ^ 0xc0457);
    for (view, nl) in case_views(ctx.case) {
        let program = match EvalProgram::compile(nl) {
            Ok(p) => p,
            Err(e) => return Verdict::Fail(format!("{view}: packed compile failed: {e}")),
        };
        let n_in = nl.input_nets().len();
        let mut buf = program.scratch();
        let patterns: Vec<Vec<Logic>> = if n_in <= 8 {
            (0u32..1 << n_in)
                .map(|bits| {
                    (0..n_in)
                        .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                        .collect()
                })
                .collect()
        } else {
            (0..2 * LANES)
                .map(|_| (0..n_in).map(|_| random_logic(&mut rng)).collect())
                .collect()
        };
        for pats in patterns.chunks(LANES) {
            let in_words = transpose(pats, n_in);
            program.eval(&in_words, None, &mut buf);
            for (lane, pat) in pats.iter().enumerate() {
                let facts = glitchlock_dataflow::const_facts_for_inputs(nl, pat);
                for idx in 0..nl.net_count() {
                    let id = NetId::from_index(idx);
                    let packed = buf.net(id).get(lane);
                    let lattice = facts.net(id).to_logic();
                    if lattice != packed {
                        return Verdict::Fail(format!(
                            "{view}: net {:?} disagrees under inputs {pat:?}: \
                             constant lattice {lattice} vs packed {packed}",
                            nl.net(id).name()
                        ));
                    }
                }
            }
        }
    }
    Verdict::Pass
}

fn lint_clean(ctx: &RefereeCtx<'_>) -> Verdict {
    let mut structural = LintRunner::new();
    structural.set_level("all", Level::Allow);
    for code in STRUCTURAL_DENY {
        structural.set_level(code, Level::Deny);
    }
    for (view, nl) in case_views(ctx.case) {
        let lctx = LintContext::new(nl, ctx.library);
        let codes = denied_codes(&structural, &lctx);
        if !codes.is_empty() {
            return Verdict::Fail(format!(
                "{view}: structural lint violations: {}",
                codes.join(", ")
            ));
        }
    }
    // GK designs additionally face the timing battery: if the base design
    // meets timing at the insertion period, the locked design must keep
    // every GK window and every setup/hold check clean.
    if let LockOutcome::Gk(gk) = &ctx.case.lock {
        let mut timing = LintRunner::new();
        timing.set_level("all", Level::Allow);
        for code in GK_TIMING_DENY {
            timing.set_level(code, Level::Deny);
        }
        let clock = ClockModel::new(gk.clock_period);
        let base_ctx = LintContext::new(&ctx.case.netlist, ctx.library).with_clock(clock.clone());
        if !denied_codes(&timing, &base_ctx).is_empty() {
            return Verdict::Skip("base design misses timing at the insertion period".into());
        }
        let lock_ctx = LintContext::new(&gk.netlist, ctx.library)
            .with_clock(clock)
            .with_key_prefix("gk");
        let codes = denied_codes(&timing, &lock_ctx);
        if !codes.is_empty() {
            return Verdict::Fail(format!(
                "GK-locked design fails the timing battery: {}",
                codes.join(", ")
            ));
        }
    }
    Verdict::Pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::materialize;
    use crate::recipe::random_recipe;

    fn lib() -> Library {
        Library::cl013g_like().with_gk_delay_macros()
    }

    #[test]
    fn count_mismatches_are_all_reported() {
        let score = |exact, estimate| Score {
            space_bits: 8,
            exact: Some(exact),
            estimate: Some(estimate),
        };
        let (err, dip, wrong) = (score(3, 3.0), score(2, 0.0), score(14, 16.0));
        let found = score_mismatches([("err", &err), ("dip", &dip), ("wrong-keys", &wrong)], 0.8);
        assert_eq!(
            found,
            [
                "dip: exhaustive 2 but estimator 0 (under the pivot both are exact)",
                "wrong-keys: exhaustive 14 but estimator 16 (under the pivot both are exact)",
            ]
        );
        // Above the pivot an estimate inside the envelope passes and one
        // outside it fails; a missing value is a mismatch of its own.
        let (near, far) = (score(100, 150.0), score(100, 400.0));
        let missing = Score {
            space_bits: 8,
            exact: Some(1),
            estimate: None,
        };
        let found = score_mismatches(
            [("err", &near), ("dip", &far), ("wrong-keys", &missing)],
            0.8,
        );
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("dip: exhaustive 100 vs estimate 400"));
        assert!(found[1].starts_with("wrong-keys: both engines ran"));
    }

    fn judge_all(seed: u64, inject: Inject) -> Vec<(&'static str, Verdict)> {
        let library = lib();
        let case = materialize(&random_recipe(seed), &library);
        let ctx = RefereeCtx {
            case: &case,
            library: &library,
            inject,
        };
        registry().iter().map(|r| (r.name, r.run(&ctx))).collect()
    }

    #[test]
    fn clean_reference_passes_every_referee() {
        for seed in 0..25 {
            for (name, verdict) in judge_all(seed, Inject::None) {
                assert!(
                    !matches!(verdict, Verdict::Fail(_)),
                    "seed {seed}, referee {name}: {verdict:?}"
                );
            }
        }
    }

    #[test]
    fn injected_xnor_fault_is_caught() {
        let caught = (0..40).any(|seed| {
            judge_all(seed, Inject::XnorFlip)
                .iter()
                .any(|(name, v)| *name == "scalar-vs-packed" && matches!(v, Verdict::Fail(_)))
        });
        assert!(caught, "40 seeds never exercised an XNOR disagreement");
    }

    #[test]
    fn referee_names_are_unique() {
        let mut names: Vec<_> = registry().iter().map(|r| r.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
