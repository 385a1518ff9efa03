//! The GK insertion design flow (paper Sec. IV-B).
//!
//! Mirrors the paper's tool flow with the in-repo substitutes: STA
//! (PrimeTime) finds feasible flip-flop locations under the original clock
//! period; each selected flip-flop gets a GK spliced in front of its D pin
//! plus a KEYGEN whose delay elements are composed from library cells
//! (Design Compiler's "design constraints" mapping); a final STA pass
//! re-examines the GK-fed flip-flops and classifies the deliberately
//! created setup violations as **false violations** (the glitch windows
//! were verified) versus true ones.

use crate::feasibility::{analyze_feasibility_with, FeasibilityReport};
use crate::gk::{build_gk, GkDesign, GkInstance};
use crate::key::{KeyBit, KeyVector};
use crate::keygen::{build_keygen, KeygenInstance, KeygenSelect};
use crate::util::promote_to_inputs_dropping;
use crate::windows::TriggerWindow;
use crate::CoreError;
use glitchlock_netlist::{CellId, Logic, NetId, Netlist};
use glitchlock_obs::{self as obs, names};
use glitchlock_sim::{ClockSpec, SimConfig, Simulator, Stimulus};
use glitchlock_sta::{analyze, ClockModel};
use glitchlock_stdcell::{Library, Ps};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::HashSet;

/// One inserted GK with its KEYGEN and chosen behaviour.
#[derive(Clone, Debug)]
pub struct GkInfo {
    /// The capture flip-flop whose D pin is encrypted.
    pub target_ff: CellId,
    /// The GK subcircuit.
    pub gk: GkInstance,
    /// The KEYGEN subcircuit.
    pub keygen: KeygenInstance,
    /// The correct `(k1,k2)` selection (always one of the two transitional
    /// selections).
    pub correct: KeygenSelect,
    /// The verified on-glitch trigger window this GK's correct trigger sits
    /// in.
    pub window: TriggerWindow,
}

/// A GK-locked design: the manufactured netlist (with KEYGENs) plus the
/// attacker's combinational view.
#[derive(Clone, Debug)]
pub struct GkLocked {
    /// The full locked netlist: GKs, KEYGENs, delay elements. Encryption
    /// only appends cells and nets, so the original's ids (inputs,
    /// flip-flops, every net) stay valid here.
    pub netlist: Netlist,
    /// Attacker's view per the paper's Sec. VI: KEYGENs removed, each GK
    /// key pin promoted to a primary input.
    pub attack_view: Netlist,
    /// The promoted key inputs of [`GkLocked::attack_view`], one per GK.
    pub attack_key_inputs: Vec<NetId>,
    /// Static key inputs `(k1, k2)` per GK in [`GkLocked::netlist`].
    pub key_inputs: Vec<NetId>,
    /// The correct static key (2 bits per GK) for [`GkLocked::netlist`].
    pub correct_key: KeyVector,
    /// Per-GK records.
    pub gks: Vec<GkInfo>,
    /// Clock model the insertion was verified against.
    pub clock_period: Ps,
}

impl GkLocked {
    /// Number of key inputs: 2 per GK with the default configuration
    /// (the paper's accounting), 2 per KEYGEN *group* when
    /// [`GkEncryptor::share_keygens`] merged generators.
    pub fn key_width(&self) -> usize {
        self.key_inputs.len()
    }

    /// A uniformly random *wrong* key: flips at least one GK's selection to
    /// a constant or to the mistimed transition.
    pub fn random_wrong_key<R: Rng>(&self, rng: &mut R) -> KeyVector {
        loop {
            let bits: Vec<bool> = (0..self.key_width()).map(|_| rng.gen()).collect();
            let key = KeyVector::from_bools(bits.iter().copied());
            if key != self.correct_key {
                return key;
            }
        }
    }
}

/// Configuration of the insertion flow.
#[derive(Clone, Debug)]
pub struct GkEncryptor {
    /// Number of GKs to insert (each contributes two key inputs).
    pub n_gks: usize,
    /// GK delay design.
    pub design: GkDesign,
    /// Prefer flip-flops from the largest same-output-cone group
    /// (Encrypt-FF \[4\]) before falling back to other feasible flip-flops.
    pub prefer_encrypt_ff_group: bool,
    /// Mix both GK schemes (Fig. 3(a) *and* 3(b)) randomly per gate.
    ///
    /// An inverter-steady GK's correct key is a precisely-timed
    /// *transition*; a buffer-steady GK's correct key is a *constant*
    /// (either one — its two constants are equivalent) while transitions
    /// corrupt it. An attacker who locates the gates therefore cannot even
    /// tell which key *species* each one needs, the "comprehensive logic
    /// locking" the paper's abstract promises. Off by default to match the
    /// paper's experiments (all Fig. 3(a)).
    pub mix_schemes: bool,
    /// Share one KEYGEN among GKs with identical trigger plans (extension
    /// beyond the paper): up to [`Self::MAX_KEYGEN_FANOUT`] GKs per KEYGEN.
    /// Cuts the dominant KEYGEN+delay-chain area at the cost of fewer key
    /// inputs (2 per *KEYGEN* instead of 2 per GK) and correlated keys.
    /// Mutually exclusive with `mix_schemes` (sharing pins the correct
    /// selection to `DelayA` so identical windows group).
    pub share_keygens: bool,
}

impl GkEncryptor {
    /// Cap on GKs driven by one shared KEYGEN, bounding the extra MUX load
    /// (≈12ps per added sink) against the 120ps window margin.
    pub const MAX_KEYGEN_FANOUT: usize = 4;
}

impl GkEncryptor {
    /// An encryptor with the paper's default GK design.
    pub fn new(n_gks: usize) -> Self {
        GkEncryptor {
            n_gks,
            design: GkDesign::paper_default(),
            prefer_encrypt_ff_group: true,
            mix_schemes: false,
            share_keygens: false,
        }
    }

    /// Runs the full flow on `original`.
    ///
    /// # Errors
    ///
    /// * [`CoreError::NotEnoughSites`] if fewer than `n_gks` flip-flops are
    ///   feasible.
    /// * [`CoreError::Delay`] if a delay chain cannot be composed.
    /// * [`CoreError::Netlist`] if `original` has a combinational cycle.
    pub fn encrypt<R: Rng>(
        &self,
        original: &Netlist,
        library: &Library,
        clock: &ClockModel,
        rng: &mut R,
    ) -> Result<GkLocked, CoreError> {
        let _span = obs::span("lock.gk");
        // STA assumes an acyclic netlist; reject a cyclic one up front.
        original.topo_order_cached()?;
        let mut work = original.clone();
        let sta = analyze(&work, library, clock);
        let feas = analyze_feasibility_with(&work, library, clock, &self.design, &sta);
        let targets = self.pick_targets(&work, &feas, rng)?;

        let mut gks = Vec::with_capacity(self.n_gks);
        let mut key_inputs = Vec::with_capacity(2 * self.n_gks);
        let mut correct_key = KeyVector::new();
        let mut keygen_cells: HashSet<CellId> = HashSet::new();
        let mut promote: Vec<(NetId, String)> = Vec::new();

        // Plan every insertion before building anything, so KEYGEN sharing
        // can group targets with identical trigger needs.
        struct Plan {
            ff: CellId,
            design: GkDesign,
            trig_a: Ps,
            trig_b: Ps,
            correct: KeygenSelect,
            window: TriggerWindow,
        }
        let mut plans = Vec::with_capacity(self.n_gks);
        for ff in targets {
            let entry = feas.entry_of(ff).expect("target came from the report");
            let window = entry.window.expect("feasible targets have windows");

            let scheme = if self.mix_schemes && !self.share_keygens && rng.gen() {
                crate::gk::GkScheme::BufferSteady
            } else {
                self.design.scheme
            };
            let design = GkDesign {
                scheme,
                ..self.design
            };

            // Trigger choices depend on the scheme:
            // * InverterSteady (Fig. 3(a)): the glitch carries the correct
            //   value, so the *correct* key is the transition whose trigger
            //   sits mid-window; the wrong transition lands in the
            //   off-glitch region (silent corruption: the flip-flop latches
            //   the steady inverted level) or past the window (violation).
            // * BufferSteady (Fig. 3(b)): the steady level is already
            //   correct, so the correct key is a *constant*; both
            //   transitions are placed inside the on-glitch window where
            //   their inverter-glitch corrupts the capture.
            let (trig_a, trig_b, correct) = match scheme {
                crate::gk::GkScheme::InverterSteady => {
                    // When sharing, snap triggers to a coarse grid (still
                    // inside their windows) so overlapping windows produce
                    // identical KEYGEN plans and group.
                    let snap = |mid: Ps, lo: Ps, hi: Ps| -> Ps {
                        if !self.share_keygens {
                            return mid;
                        }
                        const GRID: u64 = 200;
                        let g = Ps((mid.as_ps() + GRID / 2) / GRID * GRID);
                        if lo < g && g < hi {
                            g
                        } else {
                            mid
                        }
                    };
                    let correct_trigger = snap(window.midpoint(), window.lo, window.hi);
                    let wrong_trigger = entry
                        .timing
                        .off_glitch_window()
                        .map(|w| snap(w.midpoint(), w.lo, w.hi))
                        .unwrap_or(window.hi + Ps(300));
                    // Randomize which ADB input carries the correct shift
                    // (fixed to DelayA when sharing, so identical windows
                    // produce identical KEYGEN plans).
                    if self.share_keygens || rng.gen() {
                        (correct_trigger, wrong_trigger, KeygenSelect::DelayA)
                    } else {
                        (wrong_trigger, correct_trigger, KeygenSelect::DelayB)
                    }
                }
                crate::gk::GkScheme::BufferSteady => {
                    let w = window.width();
                    let t_a = window.lo + Ps(w.as_ps() / 3);
                    let t_b = window.lo + Ps(2 * w.as_ps() / 3);
                    let correct = if rng.gen() {
                        KeygenSelect::Const0
                    } else {
                        KeygenSelect::Const1
                    };
                    (t_a.max(window.lo + Ps(1)), t_b, correct)
                }
            };
            plans.push(Plan {
                ff,
                design,
                trig_a,
                trig_b,
                correct,
                window,
            });
        }

        // Group plans onto KEYGENs: singletons normally; shared (up to
        // [`Self::MAX_KEYGEN_FANOUT`] GKs per KEYGEN, to bound the extra
        // MUX load on the trigger timing) when `share_keygens`.
        let mut groups: Vec<Vec<Plan>> = Vec::new();
        if self.share_keygens {
            let mut by_trigger: Vec<((Ps, Ps), Vec<Plan>)> = Vec::new();
            for plan in plans {
                let key = (plan.trig_a, plan.trig_b);
                match by_trigger
                    .iter_mut()
                    .find(|(k, g)| *k == key && g.len() < Self::MAX_KEYGEN_FANOUT)
                {
                    Some((_, g)) => g.push(plan),
                    None => by_trigger.push((key, vec![plan])),
                }
            }
            groups.extend(by_trigger.into_iter().map(|(_, g)| g));
        } else {
            groups.extend(plans.into_iter().map(|p| vec![p]));
        }

        for (g, group) in groups.into_iter().enumerate() {
            let first = &group[0];
            let k1 = work.add_input(format!("gk{g}_k1"));
            let k2 = work.add_input(format!("gk{g}_k2"));
            let keygen = build_keygen(
                &mut work,
                library,
                k1,
                k2,
                first.trig_a,
                first.trig_b,
                Ps(40),
            )?;
            let (k1v, k2v) = first.correct.bits();
            correct_key.push(KeyBit::Const(k1v));
            correct_key.push(KeyBit::Const(k2v));
            key_inputs.push(k1);
            key_inputs.push(k2);
            keygen_cells.extend(keygen.cells.iter().copied());
            promote.push((keygen.key_out, format!("gk{g}_key")));
            for plan in &group {
                let d_net = work.cell(plan.ff).inputs()[0];
                let gk = build_gk(&mut work, library, d_net, keygen.key_out, &plan.design)?;
                work.rewire_input(plan.ff, 0, gk.y)?;
                gks.push(GkInfo {
                    target_ff: plan.ff,
                    gk,
                    keygen: keygen.clone(),
                    correct: plan.correct,
                    window: plan.window,
                });
            }
        }

        work.validate()?;
        // The attacker's view drops the KEYGENs *and* their (k1,k2) pins;
        // each GK's key pin becomes the design key input (paper Sec. VI).
        let attack_view = promote_to_inputs_dropping(&work, &promote, &keygen_cells, &key_inputs)?;
        let attack_key_inputs = promote
            .iter()
            .map(|(_, name)| {
                *attack_view
                    .input_nets()
                    .iter()
                    .rev()
                    .find(|&&n| attack_view.net(n).name() == name)
                    .expect("promoted input exists in the view")
            })
            .collect();

        let collector = obs::current();
        collector.counter(names::LOCK_DESIGNS).incr();
        collector
            .counter(names::LOCK_GK_INSERTED)
            .add(gks.len() as u64);
        let n_keygens = key_inputs.len() as u64 / 2;
        collector.counter(names::LOCK_GK_KEYGENS).add(n_keygens);
        collector
            .counter(names::LOCK_KEYBITS)
            .add(key_inputs.len() as u64);
        obs::event("result", "lock_gk")
            .u64("gks", gks.len() as u64)
            .u64("keygens", n_keygens)
            .u64("key_width", key_inputs.len() as u64)
            .emit();
        Ok(GkLocked {
            netlist: work,
            attack_view,
            attack_key_inputs,
            key_inputs,
            correct_key,
            gks,
            clock_period: clock.period,
        })
    }

    fn pick_targets<R: Rng>(
        &self,
        netlist: &Netlist,
        feas: &FeasibilityReport,
        rng: &mut R,
    ) -> Result<Vec<CellId>, CoreError> {
        let available = feas.available();
        if available.len() < self.n_gks {
            return Err(CoreError::NotEnoughSites {
                requested: self.n_gks,
                available: available.len(),
            });
        }
        let mut ordered: Vec<CellId> = if self.prefer_encrypt_ff_group {
            // Largest same-output-cone groups first (Encrypt-FF), shuffled
            // within each group.
            let (mut v, lens) = crate::encrypt_ff::output_cone_order(netlist, &available)?;
            let mut start = 0;
            for len in lens {
                v[start..start + len].shuffle(rng);
                start += len;
            }
            v
        } else {
            let mut v = available;
            v.shuffle(rng);
            v
        };
        ordered.truncate(self.n_gks);
        Ok(ordered)
    }
}

/// Classification of post-insertion STA violations (paper Sec. IV-B):
/// the deliberate delay elements make the EDA view report setup violations
/// at GK-fed flip-flops; those whose glitch windows were verified are
/// **false**. Any other violation is **true** and would send the flow back
/// to location selection.
#[derive(Clone, Debug, Default)]
pub struct ViolationClassification {
    /// Violating flip-flops explained by a verified GK insertion.
    pub false_violations: Vec<CellId>,
    /// Violations not explained by any GK — real problems.
    pub true_violations: Vec<CellId>,
}

/// Runs STA on the locked netlist and classifies the reported violations.
pub fn classify_violations(
    locked: &GkLocked,
    library: &Library,
    clock: &ClockModel,
) -> ViolationClassification {
    let report = analyze(&locked.netlist, library, clock);
    let gk_ffs: HashSet<CellId> = locked.gks.iter().map(|g| g.target_ff).collect();
    let keygen_ffs: HashSet<CellId> = locked.gks.iter().map(|g| g.keygen.toggle_ff).collect();
    let mut out = ViolationClassification::default();
    for check in report.checks() {
        if check.met() {
            continue;
        }
        if gk_ffs.contains(&check.ff) || keygen_ffs.contains(&check.ff) {
            out.false_violations.push(check.ff);
        } else {
            out.true_violations.push(check.ff);
        }
    }
    out
}

/// The result of a timing-domain run: per-cycle primary-output samples and
/// per-cycle flip-flop state snapshots.
#[derive(Clone, Debug)]
pub struct TimedTrace {
    /// `po[c]` — primary outputs sampled just before the edge that closes
    /// cycle `c`.
    pub po: Vec<Vec<Logic>>,
    /// `states[c]` — the tracked flip-flops' values at the edge that opens
    /// cycle `c` (so `states.len() == cycles + 1`; the last entry is the
    /// state after the final tracked cycle).
    pub states: Vec<Vec<Logic>>,
}

/// Simulates `netlist` in the timing domain and samples both outputs and
/// state, enabling transition-function cross-validation against the
/// zero-delay oracle (the KEYGEN cannot fire before the first clock edge,
/// so absolute startup states are not comparable — but the cycle-to-cycle
/// transition must match once keys are correct).
///
/// * `key_nets` assigns each key-input net a [`KeyBit`] (transitions
///   re-trigger every cycle with alternating direction, like a KEYGEN).
/// * All flip-flops reset to 0 (KEYGEN toggle flip-flops included).
/// * `inputs_per_cycle[c]` drives `data_inputs` shortly after cycle `c`'s
///   opening edge; cycle `c` opens at `period·(c+1)`.
/// * `tracked_ffs` selects which flip-flops appear in
///   [`TimedTrace::states`] (pass the original design's flip-flops).
pub fn timed_trace(
    netlist: &Netlist,
    library: &Library,
    period: Ps,
    key_nets: &[(NetId, KeyBit)],
    inputs_per_cycle: &[Vec<Logic>],
    data_inputs: &[NetId],
    tracked_ffs: &[CellId],
) -> TimedTrace {
    let cycles = inputs_per_cycle.len();
    let mut stim = Stimulus::new();
    for &ff in netlist.dff_cells() {
        stim.set_ff(ff, Logic::Zero);
    }
    for &(net, bit) in key_nets {
        match bit {
            KeyBit::Const(v) => {
                stim.set(net, Logic::from_bool(v));
            }
            KeyBit::Transition { kind, trigger } => {
                stim.set(net, Logic::from_bool(kind.level_before()));
                for c in 0..=cycles {
                    let t = period * (c as u64 + 1) + trigger;
                    let level = if c % 2 == 0 {
                        kind.level_after()
                    } else {
                        kind.level_before()
                    };
                    stim.at(t, net, Logic::from_bool(level));
                }
            }
        }
    }
    // Inputs launch shortly after each cycle's opening edge (the STA
    // input-arrival assumption). Cycle 0's values also seed t = 0 so the
    // pre-first-edge state is definite rather than X.
    for (c, inputs) in inputs_per_cycle.iter().enumerate() {
        let t = period * (c as u64 + 1) + Ps(200);
        for (i, &net) in data_inputs.iter().enumerate() {
            if c == 0 {
                stim.set(net, inputs[i]);
            }
            stim.at(t, net, inputs[i]);
        }
    }
    let cfg = SimConfig::new().with_clock(ClockSpec::new(period));
    let horizon = period * (cycles as u64 + 2);
    let res = Simulator::new(netlist, library, cfg).run(&stim, horizon);
    let pos = netlist.output_nets();
    let po = (0..cycles)
        .map(|c| {
            let sample_at = period * (c as u64 + 2) - Ps(1);
            pos.iter()
                .map(|&n| res.waveform(n).value_at(sample_at))
                .collect()
        })
        .collect();
    // states[c]: tracked FFs at the edge opening cycle c = period·(c+1),
    // which is sample index c of each flip-flop.
    let states = (0..=cycles)
        .map(|c| {
            tracked_ffs
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
    TimedTrace { po, states }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_circuits::{generate, tiny};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lib() -> Library {
        Library::cl013g_like()
    }

    /// The tiny profile for `seed` and its GK-locked version.
    fn locked_tiny(n_gks: usize, seed: u64) -> (Netlist, GkLocked) {
        let nl = generate(&tiny(seed));
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(3));
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = GkEncryptor::new(n_gks)
            .encrypt(&nl, &lib, &clock, &mut rng)
            .expect("tiny profile has feasible FFs");
        (nl, locked)
    }

    #[test]
    fn cyclic_netlist_is_an_error_not_a_panic() {
        use glitchlock_netlist::GateKind;
        // a AND fb -> INV -> DFF, then fb rewired to the inverter's output.
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        let fb = nl.add_net("fb");
        let x = nl.add_gate(GateKind::And, &[a, fb]).unwrap();
        let y = nl.add_gate(GateKind::Inv, &[x]).unwrap();
        let q = nl.add_dff(y).unwrap();
        nl.mark_output(q, "q");
        let and = nl.net(x).driver().unwrap();
        nl.rewire_input(and, 1, y).unwrap();
        let clock = ClockModel::new(Ps::from_ns(3));
        let mut rng = StdRng::seed_from_u64(1);
        match GkEncryptor::new(1).encrypt(&nl, &lib(), &clock, &mut rng) {
            Err(CoreError::Netlist(msg)) => assert!(msg.contains("cycle"), "{msg}"),
            other => panic!("expected a netlist error, got {other:?}"),
        }
    }

    #[test]
    fn encrypt_produces_consistent_structures() {
        let (original, locked) = locked_tiny(2, 7);
        assert_eq!(locked.gks.len(), 2);
        assert_eq!(locked.key_width(), 4);
        assert_eq!(locked.correct_key.len(), 4);
        locked.netlist.validate().unwrap();
        locked.attack_view.validate().unwrap();
        // The attack view has one key input per GK.
        assert_eq!(locked.attack_key_inputs.len(), 2);
        // KEYGEN flip-flops exist in the full netlist but not the view.
        assert_eq!(locked.netlist.stats().dffs, original.stats().dffs + 2);
        assert_eq!(locked.attack_view.stats().dffs, original.stats().dffs);
    }

    #[test]
    fn wrong_key_generator_never_returns_correct() {
        let (_, locked) = locked_tiny(2, 8);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            assert_ne!(locked.random_wrong_key(&mut rng), locked.correct_key);
        }
    }

    #[test]
    fn violations_classified_as_false_for_verified_gks() {
        let (_, locked) = locked_tiny(2, 9);
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(3));
        let cls = classify_violations(&locked, &lib, &clock);
        assert!(
            cls.true_violations.is_empty(),
            "no real violations expected: {:?}",
            cls.true_violations
        );
        // The deliberate KEYGEN delay paths typically trip the EDA view.
        // (Not asserted non-empty: whether STA flags them depends on the
        // drawn trigger times.)
    }

    /// Runs the locked netlist in the timing domain under `key_nets` and
    /// cross-validates each cycle's transition against the zero-delay
    /// oracle seeded from the simulation's own sampled state. Returns
    /// `(po_mismatches, state_mismatches)` over the compared cycles.
    fn transition_mismatches(
        original: &Netlist,
        locked: &GkLocked,
        key_nets: &[(NetId, KeyBit)],
        seed: u64,
        cycles: usize,
    ) -> (usize, usize) {
        let lib = lib();
        let period = locked.clock_period;
        let mut rng = StdRng::seed_from_u64(seed);
        let n_in = original.input_nets().len();
        let inputs: Vec<Vec<Logic>> = (0..cycles)
            .map(|_| (0..n_in).map(|_| Logic::from_bool(rng.gen())).collect())
            .collect();
        // Encryption only appends cells, so the original's input nets and
        // flip-flop cells keep their ids in the locked netlist.
        let data_inputs: Vec<NetId> = original.input_nets().to_vec();
        let tracked: Vec<CellId> = original.dff_cells().to_vec();
        let trace = timed_trace(
            &locked.netlist,
            &lib,
            period,
            key_nets,
            &inputs,
            &data_inputs,
            &tracked,
        );
        let mut po_bad = 0;
        let mut state_bad = 0;
        #[allow(clippy::needless_range_loop)] // c also indexes states[c+1]
        for c in 0..cycles {
            let mut oracle =
                glitchlock_netlist::SeqState::from_values(original, trace.states[c].clone());
            let po_expect = oracle.step(original, &inputs[c]);
            if trace.po[c] != po_expect {
                po_bad += 1;
            }
            if trace.states[c + 1] != oracle.values() {
                state_bad += 1;
            }
        }
        (po_bad, state_bad)
    }

    #[test]
    fn correct_key_preserves_transition_function() {
        let (original, locked) = locked_tiny(2, 10);
        let key_nets: Vec<(NetId, KeyBit)> = locked
            .key_inputs
            .iter()
            .copied()
            .zip(locked.correct_key.bits().iter().copied())
            .collect();
        let (po_bad, state_bad) = transition_mismatches(&original, &locked, &key_nets, 5, 12);
        assert_eq!(po_bad, 0, "POs must match the oracle every cycle");
        assert_eq!(state_bad, 0, "state transitions must match the oracle");
    }

    #[test]
    fn wrong_constant_key_corrupts_every_transition() {
        let (original, locked) = locked_tiny(2, 11);
        // All-zero key: every GK sees constant 0 and acts as an inverter,
        // so each GK-fed flip-flop latches the complement — the state
        // transition is provably wrong every cycle.
        let key_nets: Vec<(NetId, KeyBit)> = locked
            .key_inputs
            .iter()
            .map(|&n| (n, KeyBit::Const(false)))
            .collect();
        let (_, state_bad) = transition_mismatches(&original, &locked, &key_nets, 6, 12);
        assert_eq!(state_bad, 12, "inverted D corrupts the state each cycle");
    }

    #[test]
    fn mistimed_transition_key_also_corrupts() {
        let (original, locked) = locked_tiny(1, 13);
        // Swap the two transitional selections: the glitch fires in the
        // wrong place (off-glitch window or violation zone).
        let mut wrong = KeyVector::new();
        for gk in &locked.gks {
            let flipped = match gk.correct {
                KeygenSelect::DelayA => KeygenSelect::DelayB,
                _ => KeygenSelect::DelayA,
            };
            let (k1, k2) = flipped.bits();
            wrong.push(KeyBit::Const(k1));
            wrong.push(KeyBit::Const(k2));
        }
        let key_nets: Vec<(NetId, KeyBit)> = locked
            .key_inputs
            .iter()
            .copied()
            .zip(wrong.bits().iter().copied())
            .collect();
        let (_, state_bad) = transition_mismatches(&original, &locked, &key_nets, 7, 12);
        assert!(state_bad > 0, "mistimed glitch must corrupt the state");
    }

    fn locked_tiny_mixed(n_gks: usize, seed: u64) -> (Netlist, GkLocked) {
        let nl = generate(&tiny(seed));
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(3));
        let mut rng = StdRng::seed_from_u64(seed);
        let locked = GkEncryptor {
            mix_schemes: true,
            ..GkEncryptor::new(n_gks)
        }
        .encrypt(&nl, &lib, &clock, &mut rng)
        .expect("tiny profile has feasible FFs");
        (nl, locked)
    }

    #[test]
    fn mixed_schemes_draw_both_species() {
        // Over a few seeds, both constant-keyed (buffer-steady) and
        // transition-keyed (inverter-steady) GKs must appear.
        let mut saw_const = false;
        let mut saw_transition = false;
        for seed in 20..26 {
            let (_, locked) = locked_tiny_mixed(3, seed);
            for gk in &locked.gks {
                match gk.correct {
                    KeygenSelect::Const0 | KeygenSelect::Const1 => saw_const = true,
                    KeygenSelect::DelayA | KeygenSelect::DelayB => saw_transition = true,
                }
            }
        }
        assert!(saw_const, "some GK should be buffer-steady (constant key)");
        assert!(saw_transition, "some GK should be inverter-steady");
    }

    #[test]
    fn mixed_schemes_correct_key_preserves_transitions() {
        let (original, locked) = locked_tiny_mixed(3, 21);
        let key_nets: Vec<(NetId, KeyBit)> = locked
            .key_inputs
            .iter()
            .copied()
            .zip(locked.correct_key.bits().iter().copied())
            .collect();
        let (po_bad, state_bad) = transition_mismatches(&original, &locked, &key_nets, 8, 12);
        assert_eq!(po_bad, 0);
        assert_eq!(state_bad, 0);
    }

    #[test]
    fn mixed_schemes_species_swapped_key_corrupts() {
        // Give every GK the wrong *species*: transitions where constants
        // are expected and vice versa.
        let (original, locked) = locked_tiny_mixed(3, 22);
        let mut wrong = KeyVector::new();
        for gk in &locked.gks {
            let flipped = match gk.correct {
                KeygenSelect::Const0 | KeygenSelect::Const1 => KeygenSelect::DelayA,
                _ => KeygenSelect::Const0,
            };
            let (k1, k2) = flipped.bits();
            wrong.push(KeyBit::Const(k1));
            wrong.push(KeyBit::Const(k2));
        }
        let key_nets: Vec<(NetId, KeyBit)> = locked
            .key_inputs
            .iter()
            .copied()
            .zip(wrong.bits().iter().copied())
            .collect();
        let (_, state_bad) = transition_mismatches(&original, &locked, &key_nets, 9, 12);
        assert!(state_bad > 0, "species-swapped key must corrupt");
    }

    #[test]
    fn shared_keygens_reduce_cells_and_keys_but_still_verify() {
        let nl = generate(&tiny(30));
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(3));
        let mut rng = StdRng::seed_from_u64(30);
        let solo = GkEncryptor::new(4)
            .encrypt(&nl, &lib, &clock, &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(30);
        let shared = GkEncryptor {
            share_keygens: true,
            ..GkEncryptor::new(4)
        }
        .encrypt(&nl, &lib, &clock, &mut rng)
        .unwrap();
        assert_eq!(shared.gks.len(), 4);
        assert!(
            shared.key_width() < solo.key_width(),
            "sharing must merge key inputs: {} vs {}",
            shared.key_width(),
            solo.key_width()
        );
        assert!(
            shared.netlist.cell_count() < solo.netlist.cell_count(),
            "sharing must drop whole KEYGENs"
        );
        // Function still preserved under the (smaller) correct key.
        let key_nets: Vec<(NetId, KeyBit)> = shared
            .key_inputs
            .iter()
            .copied()
            .zip(shared.correct_key.bits().iter().copied())
            .collect();
        let (po_bad, state_bad) = transition_mismatches(&nl, &shared, &key_nets, 31, 10);
        assert_eq!(po_bad, 0);
        assert_eq!(state_bad, 0);
        // And wrong keys still corrupt.
        let wrong: Vec<(NetId, KeyBit)> = shared
            .key_inputs
            .iter()
            .map(|&n| (n, KeyBit::Const(false)))
            .collect();
        let (_, state_bad) = transition_mismatches(&nl, &shared, &wrong, 32, 10);
        assert!(state_bad > 0);
    }

    #[test]
    fn not_enough_sites_is_reported() {
        let nl = generate(&tiny(12));
        let lib = lib();
        let clock = ClockModel::new(Ps::from_ns(3));
        let mut rng = StdRng::seed_from_u64(1);
        let err = GkEncryptor::new(1000)
            .encrypt(&nl, &lib, &clock, &mut rng)
            .unwrap_err();
        assert!(matches!(err, CoreError::NotEnoughSites { .. }));
    }
}
