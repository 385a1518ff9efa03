//! Removal attacks (Yasin et al. \[15\]\[16\]; paper Secs. I, V-C).
//!
//! Point-function defenses (SARLock, Anti-SAT) leave a tell-tale trace:
//! the flip signal their comparator produces is almost always 0. Signal
//! probability analysis locates such nets; bypassing them (tying the flip
//! to its skewed value) restores the original function without any key.
//!
//! For TDK delay locking the attack is structural: strip the tunable delay
//! buffer, re-synthesize, and hand the remaining functional key-gates to
//! the SAT attack (paper Sec. I).
//!
//! Against conventional key-gates and GKs, locating the gate is not enough:
//! the attacker must still guess buffer-vs-inverter per gate — `2^n`
//! possibilities (Sec. V-C). [`locate_gk_candidates`] provides the
//! structural locator the enhanced attack builds on.

use glitchlock_core::locking::TdkLocked;
use glitchlock_netlist::{
    fanout_cone, Aig, CellId, CombView, EvalProgram, GateKind, Logic, NetId, Netlist, PackedLogic,
    LANES,
};
use glitchlock_obs::{self as obs, names};
use rand::Rng;
use std::collections::HashSet;

/// Estimated signal probabilities from random simulation of the
/// combinational view (random data *and* key inputs, the removal-attack
/// setting).
#[derive(Clone, Debug)]
pub struct SkewReport {
    probs: Vec<f64>,
    samples: usize,
}

impl SkewReport {
    /// Probability that `net` is 1.
    pub fn prob_one(&self, net: NetId) -> f64 {
        self.probs[net.index()]
    }

    /// Number of random patterns simulated.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Nets with `P(1) <= threshold` or `P(1) >= 1 - threshold`.
    pub fn skewed_nets(&self, threshold: f64) -> Vec<NetId> {
        self.probs
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p <= threshold || p >= 1.0 - threshold)
            .map(|(i, _)| NetId::from_index(i))
            .collect()
    }
}

/// Estimates per-net signal probabilities over `samples` random patterns,
/// evaluated bit-parallel (64 patterns per pass through the compiled
/// program). Per-net `1` counts fall out of a single popcount per word.
pub fn signal_skew<R: Rng>(netlist: &Netlist, samples: usize, rng: &mut R) -> SkewReport {
    let view = CombView::new(netlist);
    let program = EvalProgram::compile(netlist).expect("netlist is acyclic");
    let mut buf = program.scratch();
    let mut ones = vec![0usize; netlist.net_count()];
    let mut done = 0usize;
    while done < samples {
        let lanes = LANES.min(samples - done);
        let mask: u64 = if lanes == LANES { !0 } else { (1 << lanes) - 1 };
        // Sample-major draws keep the RNG stream identical to the scalar
        // one-pattern-at-a-time loop this replaces.
        let mut words = vec![PackedLogic::splat(Logic::Zero); view.num_inputs()];
        for lane in 0..lanes {
            for w in words.iter_mut() {
                w.set(lane, Logic::from_bool(rng.gen()));
            }
        }
        let (pi, qs) = words.split_at(netlist.input_nets().len());
        program.eval(pi, Some(qs), &mut buf);
        for (i, count) in ones.iter_mut().enumerate() {
            *count += (buf.net(NetId::from_index(i)).val & mask).count_ones() as usize;
        }
        done += lanes;
    }
    obs::add(names::REMOVAL_SKEW_SAMPLES, samples as u64);
    SkewReport {
        probs: ones.iter().map(|&o| o as f64 / samples as f64).collect(),
        samples,
    }
}

/// The skew-plus-structure scan shared by the two point-function
/// locators: heavily skewed nets that feed an XOR/XNOR sitting directly
/// on a primary output.
fn skewed_output_xor_feeds(netlist: &Netlist, skew: &SkewReport, threshold: f64) -> Vec<NetId> {
    let po_nets: HashSet<NetId> = netlist.output_nets().into_iter().collect();
    let mut found = Vec::new();
    for (net_id, net) in netlist.nets() {
        let p = skew.prob_one(net_id);
        if p > threshold && p < 1.0 - threshold {
            continue;
        }
        // Must feed an XOR/XNOR that drives a primary output.
        let feeds_output_xor = net.fanout().iter().any(|&(sink, _)| {
            let cell = netlist.cell(sink);
            matches!(cell.kind(), GateKind::Xor | GateKind::Xnor)
                && po_nets.contains(&cell.output())
        });
        // Exclude trivial constants and the PO itself.
        let driver_is_const = net
            .driver()
            .map(|d| {
                matches!(
                    netlist.cell(d).kind(),
                    GateKind::Const0 | GateKind::Const1 | GateKind::Input
                )
            })
            .unwrap_or(true);
        if feeds_output_xor && !driver_is_const {
            found.push(net_id);
        }
    }
    found
}

/// Locates point-function flip signals: heavily skewed nets that feed an
/// XOR/XNOR sitting directly on a primary output — the SARLock/Anti-SAT
/// signature (the SPS heuristic).
pub fn locate_point_function<R: Rng>(
    netlist: &Netlist,
    samples: usize,
    threshold: f64,
    rng: &mut R,
) -> Vec<NetId> {
    let skew = signal_skew(netlist, samples, rng);
    let found = skewed_output_xor_feeds(netlist, &skew, threshold);
    obs::add(names::REMOVAL_CANDIDATES, found.len() as u64);
    obs::event("result", "locate_point_function")
        .u64("candidates", found.len() as u64)
        .u64("samples", samples as u64)
        .emit();
    found
}

/// [`locate_point_function`] sharpened with the key-taint dataflow
/// domain: a flip signal is by construction a function of the key
/// comparator, so any skewed net whose raw key-taint set is empty is a
/// sampling artifact and is pruned before the expensive bypass-and-verify
/// loop. Raw sequential taint is a sound over-approximation — pruning
/// only discards nets that provably carry no key influence at all.
pub fn locate_point_function_tainted<R: Rng>(
    netlist: &Netlist,
    key_inputs: &[NetId],
    samples: usize,
    threshold: f64,
    rng: &mut R,
) -> Vec<NetId> {
    let skew = signal_skew(netlist, samples, rng);
    let all = skewed_output_xor_feeds(netlist, &skew, threshold);
    let taint = glitchlock_dataflow::taint_facts(
        netlist,
        key_inputs,
        glitchlock_dataflow::TaintMode::Raw,
        true,
    );
    let before = all.len();
    let found: Vec<NetId> = all
        .into_iter()
        .filter(|&n| !taint.net(n).is_empty())
        .collect();
    let pruned = (before - found.len()) as u64;
    obs::add(names::REMOVAL_TAINT_PRUNED, pruned);
    obs::add(names::REMOVAL_CANDIDATES, found.len() as u64);
    obs::event("result", "locate_point_function_tainted")
        .u64("candidates", found.len() as u64)
        .u64("pruned", pruned)
        .u64("samples", samples as u64)
        .emit();
    found
}

/// Bypasses a located security signal: rebuilds the netlist with `net`
/// replaced by the constant `value` everywhere it is read, then sweeps the
/// dead security logic.
///
/// # Panics
///
/// Panics if the netlist is invalid.
pub fn bypass_net(netlist: &Netlist, net: NetId, value: bool) -> Netlist {
    let mut out = Netlist::new(netlist.name());
    let mut map: Vec<Option<NetId>> = vec![None; netlist.net_count()];
    for &pi in netlist.input_nets() {
        map[pi.index()] = Some(out.add_input(netlist.net(pi).name()));
    }
    let tied = out.add_const(value);
    map[net.index()] = Some(tied);
    let mut ff_map = Vec::new();
    for &ff in netlist.dff_cells() {
        let cell = netlist.cell(ff);
        if map[cell.output().index()].is_some() {
            continue;
        }
        let placeholder = out.add_net(format!("{}_d", cell.name()));
        let q = out
            .add_dff_named(placeholder, cell.name())
            .expect("placeholder is valid");
        map[cell.output().index()] = Some(q);
        ff_map.push((ff, out.net(q).driver().expect("dff drives q")));
    }
    for cell_id in netlist.topo_order().expect("acyclic") {
        let cell = netlist.cell(cell_id);
        if map[cell.output().index()].is_some() {
            continue;
        }
        let ins: Vec<NetId> = cell
            .inputs()
            .iter()
            .map(|n| map[n.index()].expect("topo order"))
            .collect();
        let y = out
            .add_gate_named(cell.kind(), &ins, cell.name())
            .expect("copied gate is valid");
        if let Some(lib) = cell.lib() {
            let c = out.net(y).driver().expect("gate drives net");
            out.bind_lib(c, lib).expect("cell exists");
        }
        map[cell.output().index()] = Some(y);
    }
    for (old_ff, new_ff) in ff_map {
        let d = map[netlist.cell(old_ff).inputs()[0].index()].expect("live");
        out.rewire_input(new_ff, 0, d).expect("pin 0 exists");
    }
    for (po, name) in netlist.output_ports() {
        out.mark_output(map[po.index()].expect("live"), name);
    }
    glitchlock_synth::sweep_sequential(&out).expect("swept netlist is valid")
}

/// The combinational-view output indices (primary outputs first, then
/// flip-flop D pseudo-outputs) reachable from `net` without crossing a
/// flip-flop — the outputs a bypass of `net` can possibly change.
pub fn reachable_view_outputs(netlist: &Netlist, net: NetId) -> Vec<usize> {
    let cone = fanout_cone(netlist, net, false);
    let mut cone_nets: HashSet<NetId> = cone.iter().map(|&c| netlist.cell(c).output()).collect();
    cone_nets.insert(net);
    let n_po = netlist.output_ports().len();
    let mut keep: Vec<usize> = netlist
        .output_ports()
        .enumerate()
        .filter(|(_, (n, _))| cone_nets.contains(n))
        .map(|(j, _)| j)
        .collect();
    for (si, &ff) in netlist.dff_cells().iter().enumerate() {
        if cone_nets.contains(&netlist.cell(ff).inputs()[0]) {
            keep.push(n_po + si);
        }
    }
    keep
}

/// Verifies a bypass on the extracted cone: compares only the view
/// outputs in `keep_outputs` (as from [`reachable_view_outputs`]) between
/// the bypassed netlist under `key` and the oracle, over random patterns.
///
/// A bypass can only change the outputs its net reaches, yet full-design
/// verification also demands every *other* output match — which fails
/// whenever key-gates elsewhere corrupt them under the all-zero key. The
/// cone restriction answers the question the removal attack actually
/// asks: did the bypass restore the logic it touched? Both sides are
/// evaluated through AIG cone extraction, which is also far cheaper than
/// a full-netlist comparison on benchmark-scale designs.
///
/// # Panics
///
/// Panics when the bypassed view's non-key inputs do not align with the
/// oracle's view inputs, or an index in `keep_outputs` is out of range.
pub fn cone_bypass_match_rate<R: Rng>(
    bypassed: &Netlist,
    key_inputs: &[NetId],
    key: &[bool],
    oracle: &Netlist,
    keep_outputs: &[usize],
    samples: usize,
    rng: &mut R,
) -> f64 {
    let lv = CombView::new(bypassed);
    let ov = CombView::new(oracle);
    let data_positions: Vec<usize> = lv
        .input_nets()
        .iter()
        .enumerate()
        .filter(|(_, n)| !key_inputs.contains(n))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        data_positions.len(),
        ov.num_inputs(),
        "bypassed data inputs must align with the oracle view"
    );
    let key_values: Vec<(usize, bool)> = lv
        .input_nets()
        .iter()
        .enumerate()
        .filter_map(|(i, n)| {
            key_inputs
                .iter()
                .position(|k| k == n)
                .map(|pos| (i, key[pos]))
        })
        .collect();
    let lcone = Aig::from_comb(bypassed, &lv).extract_cone(keep_outputs);
    let ocone = Aig::from_comb(oracle, &ov).extract_cone(keep_outputs);
    let mut matches = 0usize;
    for _ in 0..samples {
        let data: Vec<bool> = (0..ov.num_inputs()).map(|_| rng.gen()).collect();
        let mut lin = vec![false; lv.num_inputs()];
        for (di, &p) in data_positions.iter().enumerate() {
            lin[p] = data[di];
        }
        for &(p, v) in &key_values {
            lin[p] = v;
        }
        let got_in: Vec<bool> = lcone.support.iter().map(|&k| lin[k]).collect();
        let expect_in: Vec<bool> = ocone.support.iter().map(|&k| data[k]).collect();
        if lcone.aig.eval(&got_in) == ocone.aig.eval(&expect_in) {
            matches += 1;
        }
    }
    matches as f64 / samples as f64
}

/// A located GK-shaped structure: a 2:1 MUX whose select is a primary
/// input and whose two data branches are an XNOR/XOR pair sharing a data
/// net — the pattern the enhanced removal attack replaces (Sec. V-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GkSite {
    /// The MUX cell.
    pub mux: CellId,
    /// The key net (MUX select, a primary input).
    pub key: NetId,
    /// The shared data input `x`.
    pub x: NetId,
    /// The GK output net.
    pub y: NetId,
}

/// Structurally locates GK candidates in an attacker's netlist view.
pub fn locate_gk_candidates(netlist: &Netlist) -> Vec<GkSite> {
    let input_set: HashSet<NetId> = netlist.input_nets().iter().copied().collect();
    let mut sites = Vec::new();
    for (cell_id, cell) in netlist.cells() {
        if cell.kind() != GateKind::Mux2 {
            continue;
        }
        let ins = cell.inputs();
        let (in0, in1, sel) = (ins[0], ins[1], ins[2]);
        if !input_set.contains(&sel) {
            continue;
        }
        let branch = |n: NetId| -> Option<(GateKind, Vec<NetId>)> {
            let d = netlist.net(n).driver()?;
            let c = netlist.cell(d);
            matches!(c.kind(), GateKind::Xor | GateKind::Xnor)
                .then(|| (c.kind(), c.inputs().to_vec()))
        };
        let (Some((k0, i0)), Some((k1, i1))) = (branch(in0), branch(in1)) else {
            continue;
        };
        // One XNOR + one XOR, sharing a data net.
        if k0 == k1 {
            continue;
        }
        let shared: Vec<NetId> = i0.iter().copied().filter(|n| i1.contains(n)).collect();
        let Some(&x) = shared.first() else { continue };
        sites.push(GkSite {
            mux: cell_id,
            key: sel,
            x,
            y: cell.output(),
        });
    }
    obs::add(names::REMOVAL_GK_SITES, sites.len() as u64);
    obs::event("result", "locate_gk_candidates")
        .u64("sites", sites.len() as u64)
        .emit();
    sites
}

/// The buffer-vs-inverter guessing space after locating `n` conventional
/// key-gates or GKs (Sec. V-C): `2^n`.
pub fn guessing_space(n: usize) -> f64 {
    2f64.powi(n as i32)
}

/// TDK removal: strips every tunable delay buffer (keeps the fast branch
/// *function*: both TDB branches compute the same Boolean value, so routing
/// through either preserves logic), drops the delay keys, re-synthesizes,
/// and returns `(netlist, functional keys, stale delay-key inputs)` — ready
/// for the SAT attack (paper Sec. I's critique of \[12\]). The stale delay
/// keys remain as dangling primary inputs; pass them as the attack's
/// ignored inputs.
pub fn strip_tdk_delay_buffers(tdk: &TdkLocked) -> (Netlist, Vec<NetId>, Vec<NetId>) {
    let netlist = &tdk.locked.netlist;
    let mut out = netlist.clone();
    for info in &tdk.tdks {
        // Re-route the TDB mux's readers straight to its in0 branch data
        // source: both branches carry the same value, in0 is as good as
        // either. The attacker needs no key knowledge for this.
        let mux_cell = info.tdb_mux;
        let branch = out.cell(mux_cell).inputs()[0];
        let readers: Vec<(CellId, usize)> = out.net(out.cell(mux_cell).output()).fanout().to_vec();
        for (cell, pin) in readers {
            out.rewire_input(cell, pin, branch).expect("valid pin");
        }
        let y = out.cell(mux_cell).output();
        out.rewire_output_po(y, branch);
    }
    obs::add(names::REMOVAL_TDK_STRIPPED, tdk.tdks.len() as u64);
    // Re-synthesize: dead muxes and slow chains disappear; the delay-key
    // inputs survive as dangling primary inputs.
    let resynth = glitchlock_synth::optimize_sequential(&out).expect("optimize succeeds");
    // Key order is [k1, k2] per TDK: k1 functional, k2 delay.
    let map_key = |n: &NetId| resynth.net_by_name(netlist.net(*n).name());
    let keys: Vec<NetId> = tdk
        .locked
        .key_inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .filter_map(|(_, n)| map_key(n))
        .collect();
    let stale: Vec<NetId> = tdk
        .locked
        .key_inputs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .filter_map(|(_, n)| map_key(n))
        .collect();
    (resynth, keys, stale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_core::locking::{LockScheme, SarLock, Tdk};
    use glitchlock_netlist::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let w = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let v = nl.add_gate(GateKind::Or, &[c, d]).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[w, v]).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn sarlock_flip_signal_is_located_and_bypassed() {
        let nl = toy();
        let mut rng = StdRng::seed_from_u64(31);
        let locked = SarLock::new(4).lock(&nl, &mut rng).unwrap();
        let candidates = locate_point_function(&locked.netlist, 2000, 0.1, &mut rng);
        assert!(
            !candidates.is_empty(),
            "the flip signal's skew must betray it"
        );
        // Bypass each candidate at its skewed value and check function
        // restoration against the original.
        let restored = candidates.iter().any(|&flip| {
            let skew = signal_skew(&locked.netlist, 500, &mut rng);
            let tie = skew.prob_one(flip) >= 0.5;
            let fixed = bypass_net(&locked.netlist, flip, tie);
            // The rebuild renumbers nets: re-find the key inputs by name.
            let keys_fixed: Vec<NetId> = locked
                .key_inputs
                .iter()
                .map(|&n| {
                    fixed
                        .net_by_name(locked.netlist.net(n).name())
                        .expect("key input survives the rebuild")
                })
                .collect();
            // Compare over random data patterns with keys at arbitrary
            // values: a successful bypass makes the keys irrelevant.
            let rate = crate::sat_attack::key_match_rate(
                &fixed,
                &keys_fixed,
                &vec![false; keys_fixed.len()],
                &nl,
                100,
                &mut rng,
            );
            rate == 1.0
        });
        assert!(restored, "bypassing the flip net must restore the function");
    }

    #[test]
    fn taint_prune_keeps_real_flip_signals_and_drops_untainted_skew() {
        let nl = toy();
        let mut rng = StdRng::seed_from_u64(31);
        let locked = SarLock::new(4).lock(&nl, &mut rng).unwrap();
        let plain =
            locate_point_function(&locked.netlist, 2000, 0.1, &mut StdRng::seed_from_u64(8));
        let tainted = locate_point_function_tainted(
            &locked.netlist,
            &locked.key_inputs,
            2000,
            0.1,
            &mut StdRng::seed_from_u64(8),
        );
        assert!(!tainted.is_empty(), "the flip signal is key-tainted");
        assert!(
            tainted.iter().all(|n| plain.contains(n)),
            "pruning only ever removes candidates"
        );
        // With an empty key set every candidate is provably untainted and
        // the prune removes the lot.
        let none = locate_point_function_tainted(
            &locked.netlist,
            &[],
            2000,
            0.1,
            &mut StdRng::seed_from_u64(8),
        );
        assert!(none.is_empty(), "no keys, no key-tainted candidates");
    }

    #[test]
    fn cone_verification_passes_where_full_verification_cannot() {
        // Two independent output cones: a point-function flip on y1, and
        // an XNOR key-gate on y2 that inverts it under the all-zero key.
        // Bypassing the flip restores y1 exactly, but full-design
        // verification still fails on y2 — the case the cone retry exists
        // for.
        let mut original = Netlist::new("o");
        let a = original.add_input("a");
        let b = original.add_input("b");
        let c = original.add_input("c");
        let d = original.add_input("d");
        let y1 = original.add_gate(GateKind::And, &[a, b]).unwrap();
        let y2 = original.add_gate(GateKind::Or, &[c, d]).unwrap();
        original.mark_output(y1, "y1");
        original.mark_output(y2, "y2");

        let mut locked = Netlist::new("o");
        let a = locked.add_input("a");
        let b = locked.add_input("b");
        let c = locked.add_input("c");
        let d = locked.add_input("d");
        let k = locked.add_input("k0");
        let y1 = locked.add_gate(GateKind::And, &[a, b]).unwrap();
        let flip = locked.add_gate(GateKind::And, &[c, d, k]).unwrap();
        let y1f = locked.add_gate(GateKind::Xor, &[y1, flip]).unwrap();
        let y2 = locked.add_gate(GateKind::Or, &[c, d]).unwrap();
        let y2k = locked.add_gate(GateKind::Xnor, &[y2, k]).unwrap();
        locked.mark_output(y1f, "y1");
        locked.mark_output(y2k, "y2");

        let mut rng = StdRng::seed_from_u64(35);
        let bypassed = bypass_net(&locked, flip, false);
        let keys: Vec<NetId> = bypassed.net_by_name("k0").into_iter().collect();
        let full_rate = crate::sat_attack::key_match_rate(
            &bypassed,
            &keys,
            &vec![false; keys.len()],
            &original,
            256,
            &mut rng,
        );
        assert!(full_rate < 0.999, "the y2 key-gate must fail full verify");
        let keep = reachable_view_outputs(&locked, flip);
        assert_eq!(keep, vec![0], "the flip reaches only y1");
        let cone_rate = cone_bypass_match_rate(
            &bypassed,
            &keys,
            &vec![false; keys.len()],
            &original,
            &keep,
            256,
            &mut rng,
        );
        assert_eq!(cone_rate, 1.0, "the bypass restores its own cone exactly");
    }

    #[test]
    fn gk_shaped_structure_is_locatable_but_ambiguous() {
        use glitchlock_core::gk::{build_gk, GkDesign};
        use glitchlock_stdcell::Library;
        let lib = Library::cl013g_like();
        let mut nl = Netlist::new("g");
        let x_in = nl.add_input("x");
        let key = nl.add_input("gk_key");
        let gk = build_gk(&mut nl, &lib, x_in, key, &GkDesign::paper_default()).unwrap();
        nl.mark_output(gk.y, "y");
        let sites = locate_gk_candidates(&nl);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].key, key);
        assert_eq!(sites[0].x, x_in);
        assert_eq!(sites[0].y, gk.y);
        // Locating is not decrypting: 16 GKs leave 2^16 guesses.
        assert_eq!(guessing_space(16), 65536.0);
    }

    #[test]
    fn gk_netlist_shows_no_pointfunction_skew() {
        use glitchlock_core::gk::{build_gk, GkDesign};
        use glitchlock_stdcell::Library;
        let lib = Library::cl013g_like();
        let mut nl = toy();
        let y = nl.output_nets()[0];
        let key = nl.add_input("gk_key");
        let gk = build_gk(&mut nl, &lib, y, key, &GkDesign::paper_default()).unwrap();
        nl.rewire_output_po(y, gk.y);
        let mut rng = StdRng::seed_from_u64(33);
        let candidates = locate_point_function(&nl, 2000, 0.05, &mut rng);
        assert!(
            candidates.is_empty(),
            "GK signals are not probability-skewed: {candidates:?}"
        );
    }

    #[test]
    fn tdk_strip_then_sat_attack_succeeds() {
        use crate::sat_attack::SatAttack;
        use glitchlock_stdcell::Library;
        // Sequential circuit for TDK.
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let q = nl.add_dff(w).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[q, a]).unwrap();
        let q2 = nl.add_dff(y).unwrap();
        nl.mark_output(q2, "y");

        let lib = Library::cl013g_like();
        let mut rng = StdRng::seed_from_u64(34);
        let tdk = Tdk::new(2).lock_with_library(&nl, &lib, &mut rng).unwrap();
        let (stripped, keys, stale) = strip_tdk_delay_buffers(&tdk);
        assert_eq!(keys.len(), 2, "functional keys survive the strip");
        assert_eq!(stale.len(), 2, "delay keys dangle");
        // The delay chains are gone after re-synthesis.
        assert!(
            stripped.stats().cells < tdk.locked.netlist.stats().cells,
            "resynthesis removes TDB logic"
        );
        let mut attack = SatAttack::new(&stripped, keys.clone(), &nl);
        attack.ignored_inputs = stale;
        let result = attack.run();
        let key = result.key().expect("stripped TDK falls to SAT").to_vec();
        // Verify with the stale delay keys treated as extra key inputs held
        // at 0 (they are functionally dangling).
        let mut all_keys = keys.clone();
        all_keys.extend(attack.ignored_inputs.iter().copied());
        let mut all_vals = key.clone();
        all_vals.extend(std::iter::repeat_n(false, attack.ignored_inputs.len()));
        let rate =
            crate::sat_attack::key_match_rate(&stripped, &all_keys, &all_vals, &nl, 200, &mut rng);
        assert_eq!(rate, 1.0);
    }
}
