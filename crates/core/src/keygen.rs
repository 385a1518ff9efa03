//! The key generator (KEYGEN) of Fig. 5: a toggle flip-flop plus an
//! Adjustable Delay Buffer.
//!
//! A GK whose intended behaviour needs a transition must receive one **every
//! clock cycle** (Sec. II-B). The KEYGEN provides it: a toggle flip-flop
//! produces alternating rising/falling transitions at each clock edge, and
//! a simplified ADB — a 4:1 MUX over `{constant 0, Q delayed by DA,
//! Q delayed by DB, constant 1}` selected by the key bits `(k1, k2)` —
//! either transmits a constant (glitchless GK) or shifts the transition so
//! it triggers the GK at a precise time.

use crate::CoreError;
use glitchlock_netlist::{CellId, GateKind, NetId, Netlist};
use glitchlock_stdcell::{Library, Ps};
use glitchlock_synth::compose_delay;

/// The four `(k1, k2)` selections of a KEYGEN, in Fig. 6's top-to-bottom
/// order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeygenSelect {
    /// `(0,0)`: constant 0 — the GK is glitchless.
    Const0,
    /// `(1,0)`: transition shifted by delay A.
    DelayA,
    /// `(0,1)`: transition shifted by delay B.
    DelayB,
    /// `(1,1)`: constant 1 — glitchless.
    Const1,
}

impl KeygenSelect {
    /// The `(k1, k2)` bit pair for this selection.
    pub fn bits(self) -> (bool, bool) {
        match self {
            KeygenSelect::Const0 => (false, false),
            KeygenSelect::DelayA => (true, false),
            KeygenSelect::DelayB => (false, true),
            KeygenSelect::Const1 => (true, true),
        }
    }

    /// Inverse of [`KeygenSelect::bits`].
    pub fn from_bits(k1: bool, k2: bool) -> Self {
        match (k1, k2) {
            (false, false) => KeygenSelect::Const0,
            (true, false) => KeygenSelect::DelayA,
            (false, true) => KeygenSelect::DelayB,
            (true, true) => KeygenSelect::Const1,
        }
    }
}

/// A KEYGEN instantiated in a netlist.
#[derive(Clone, Debug)]
pub struct KeygenInstance {
    /// The toggle flip-flop (needs a defined reset value in testbenches).
    pub toggle_ff: CellId,
    /// The `k1` key-input net (MUX4 `s0`).
    pub k1: NetId,
    /// The `k2` key-input net (MUX4 `s1`).
    pub k2: NetId,
    /// The ADB output, wired to the GK key pin.
    pub key_out: NetId,
    /// Every cell added for this KEYGEN.
    pub cells: Vec<CellId>,
    /// Achieved trigger time (within the clock cycle) when `DelayA` is
    /// selected.
    pub trigger_a: Ps,
    /// Achieved trigger time when `DelayB` is selected.
    pub trigger_b: Ps,
}

/// Builds a KEYGEN whose `DelayA`/`DelayB` selections trigger the GK at
/// `trigger_a`/`trigger_b` (times within the clock cycle, measured from the
/// launching edge).
///
/// `k1`/`k2` are the key-input nets (typically fresh primary inputs). The
/// trigger chain targets are derived by subtracting the toggle flip-flop's
/// clk→q and the ADB MUX's data latency.
///
/// # Errors
///
/// * [`CoreError::Delay`] if a trigger is earlier than clk→q + MUX latency
///   or no chain composition lands within tolerance.
pub fn build_keygen(
    netlist: &mut Netlist,
    library: &Library,
    k1: NetId,
    k2: NetId,
    trigger_a: Ps,
    trigger_b: Ps,
    tolerance: Ps,
) -> Result<KeygenInstance, CoreError> {
    let clk_to_q = library
        .cell(library.default_cell(GateKind::Dff))
        .seq()
        .expect("library DFF has sequential timing")
        .clk_to_q;
    // The ADB MUX output drives the GK key pin, which fans out to the GK's
    // two delay chains plus the MUX select: 3 sinks.
    let mux4_delay = library
        .cell(library.default_cell(GateKind::Mux4))
        .delay_with_fanout(3);

    let base = clk_to_q + mux4_delay;
    let chain_target = |trigger: Ps| -> Result<Ps, CoreError> {
        trigger.checked_sub(base).ok_or(CoreError::Delay(format!(
            "trigger {trigger} is earlier than clk->q + ADB latency {base}"
        )))
    };

    let mut cells = Vec::new();
    // Toggle flip-flop: D = !Q.
    let d_placeholder = netlist.add_net(format!("kg_d_{}", netlist.net_count()));
    let q = netlist.add_dff(d_placeholder)?;
    let toggle_ff = netlist.net(q).driver().expect("dff drives q");
    cells.push(toggle_ff);
    let nq = netlist.add_gate(GateKind::Inv, &[q])?;
    cells.push(netlist.net(nq).driver().expect("gate drives net"));
    netlist.rewire_input(toggle_ff, 0, nq)?;

    let (a_net, a_cells, a_plan) =
        compose_delay(netlist, library, q, chain_target(trigger_a)?, tolerance)?;
    cells.extend(a_cells);
    let (b_net, b_cells, b_plan) =
        compose_delay(netlist, library, q, chain_target(trigger_b)?, tolerance)?;
    cells.extend(b_cells);

    let zero = netlist.add_const(false);
    cells.push(netlist.net(zero).driver().expect("const drives net"));
    let one = netlist.add_const(true);
    cells.push(netlist.net(one).driver().expect("const drives net"));
    let key_out = netlist.add_gate(GateKind::Mux4, &[zero, a_net, b_net, one, k1, k2])?;
    cells.push(netlist.net(key_out).driver().expect("gate drives net"));

    Ok(KeygenInstance {
        toggle_ff,
        k1,
        k2,
        key_out,
        cells,
        trigger_a: base + a_plan.achieved,
        trigger_b: base + b_plan.achieved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::Logic;
    use glitchlock_sim::{ClockSpec, SimConfig, Simulator, Stimulus};

    fn lib() -> Library {
        Library::cl013g_like()
    }

    /// Builds a bare KEYGEN with key bits as primary inputs and its output
    /// fanned out to three dummy sinks (mimicking the GK key pin load).
    fn harness(trigger_a: Ps, trigger_b: Ps) -> (Netlist, KeygenInstance) {
        let lib = lib();
        let mut nl = Netlist::new("kg");
        let k1 = nl.add_input("k1");
        let k2 = nl.add_input("k2");
        let kg = build_keygen(&mut nl, &lib, k1, k2, trigger_a, trigger_b, Ps(30)).unwrap();
        // Three sinks to match the assumed fanout.
        for i in 0..3 {
            let s = nl.add_gate(GateKind::Buf, &[kg.key_out]).unwrap();
            nl.mark_output(s, format!("s{i}"));
        }
        (nl, kg)
    }

    #[test]
    fn select_bit_encoding_round_trips() {
        for sel in [
            KeygenSelect::Const0,
            KeygenSelect::DelayA,
            KeygenSelect::DelayB,
            KeygenSelect::Const1,
        ] {
            let (k1, k2) = sel.bits();
            assert_eq!(KeygenSelect::from_bits(k1, k2), sel);
        }
    }

    #[test]
    fn constant_selections_are_glitchless() {
        let (nl, kg) = harness(Ps::from_ns(2), Ps::from_ns(4));
        let lib = lib();
        for (sel, expect) in [
            (KeygenSelect::Const0, Logic::Zero),
            (KeygenSelect::Const1, Logic::One),
        ] {
            let (k1v, k2v) = sel.bits();
            let mut stim = Stimulus::new();
            stim.set(kg.k1, Logic::from_bool(k1v))
                .set(kg.k2, Logic::from_bool(k2v))
                .set_ff(kg.toggle_ff, Logic::Zero);
            let cfg = SimConfig::new().with_clock(ClockSpec::new(Ps::from_ns(8)));
            let res = Simulator::new(&nl, &lib, cfg).run(&stim, Ps::from_ns(40));
            let w = res.waveform(kg.key_out);
            assert_eq!(w.transition_count(), 0, "{sel:?} must hold steady");
            assert_eq!(w.initial(), expect);
        }
    }

    #[test]
    fn delayed_selections_fire_once_per_cycle_at_the_designed_time() {
        let (nl, kg) = harness(Ps::from_ns(2), Ps::from_ns(4));
        let lib = lib();
        assert!(kg.trigger_a.as_ps().abs_diff(2000) <= 30);
        assert!(kg.trigger_b.as_ps().abs_diff(4000) <= 30);
        for (sel, designed) in [
            (KeygenSelect::DelayA, kg.trigger_a),
            (KeygenSelect::DelayB, kg.trigger_b),
        ] {
            let (k1v, k2v) = sel.bits();
            let mut stim = Stimulus::new();
            stim.set(kg.k1, Logic::from_bool(k1v))
                .set(kg.k2, Logic::from_bool(k2v))
                .set_ff(kg.toggle_ff, Logic::Zero);
            let period = Ps::from_ns(8);
            let cfg = SimConfig::new().with_clock(ClockSpec::new(period));
            let res = Simulator::new(&nl, &lib, cfg).run(&stim, Ps::from_ns(33));
            let w = res.waveform(kg.key_out);
            // Edges at 8, 16, 24, 32ns -> transitions in the following
            // cycles, alternating direction.
            let changes = w.changes();
            assert!(
                changes.len() >= 3,
                "{sel:?}: expected a transition per cycle, got {changes:?}"
            );
            for (i, &(t, v)) in changes.iter().enumerate() {
                let cycle_start = period * (i as u64 + 1);
                let offset = t - cycle_start;
                assert!(
                    offset.as_ps().abs_diff(designed.as_ps()) <= 30,
                    "{sel:?}: transition {i} at offset {offset}, designed {designed}"
                );
                // Toggle FF from 0: first transition rising, then falling, …
                let expect = if i % 2 == 0 { Logic::One } else { Logic::Zero };
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn too_early_trigger_is_rejected() {
        let lib = lib();
        let mut nl = Netlist::new("kg");
        let k1 = nl.add_input("k1");
        let k2 = nl.add_input("k2");
        let err = build_keygen(&mut nl, &lib, k1, k2, Ps(100), Ps::from_ns(4), Ps(30)).unwrap_err();
        assert!(matches!(err, CoreError::Delay(_)));
    }
}
