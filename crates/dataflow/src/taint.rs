//! Key-dependence taint: which key bits can influence which nets.
//!
//! Two precision levels share one domain:
//!
//! * **Raw** taint is purely structural — a net is tainted by every key
//!   bit in its transitive fan-in. It over-approximates influence and is
//!   what attack-side pruning wants (nothing semantically dependent is
//!   ever missed).
//! * **Refined** taint additionally applies semantic laundering rules:
//!   a net that constant-collapses under all-`X` inputs carries no taint;
//!   a mux whose data arms are in the same value class drops its select's
//!   taint; and a glitch-key-gate identity `MUX(XNOR(x,k), XOR(x,k), k)`
//!   reduces to `INV(x)`, so only `x`'s taint flows through. Refined
//!   taint is what the lint reachability codes report: a key bit whose
//!   refined taint reaches no primary output is statically inert.

use crate::bitset::KeyBitSet;
use crate::consts::Ternary;
use crate::engine::{solve, Config, Direction, Domain, Solution, Values};
use crate::vn::{gk_identity_x, ValueNumbering};
use glitchlock_netlist::{CellId, GateKind, NetId, Netlist};
use std::collections::HashMap;

/// Precision level of the taint transfer function.
pub enum TaintMode<'a> {
    /// Structural union over all cell inputs.
    Raw,
    /// Semantic rules on top of raw, consulting value numbering and
    /// all-`X` constant facts.
    Refined {
        /// Value classes for mux-arm and glitch-key-gate reasoning.
        vn: &'a ValueNumbering,
        /// Constant facts under no pins (all inputs `X`).
        consts: &'a Solution<Ternary>,
    },
}

/// The key-taint domain over [`KeyBitSet`]s.
pub struct TaintDomain<'a> {
    bit_of: HashMap<NetId, usize>,
    width: usize,
    mode: TaintMode<'a>,
    through_ffs: bool,
}

impl<'a> TaintDomain<'a> {
    /// A domain tracking `keys` (bit `i` is `keys[i]`). With
    /// `through_ffs`, taint crosses flip-flops (sequential influence);
    /// without, Q pins are clean (single-frame combinational influence).
    pub fn new(keys: &[NetId], mode: TaintMode<'a>, through_ffs: bool) -> Self {
        TaintDomain {
            bit_of: keys.iter().enumerate().map(|(i, &n)| (n, i)).collect(),
            width: keys.len(),
            mode,
            through_ffs,
        }
    }
}

impl Domain for TaintDomain<'_> {
    type Value = KeyBitSet;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self, _nl: &Netlist) -> KeyBitSet {
        KeyBitSet::empty(self.width)
    }

    fn boundary(&self, _nl: &Netlist, net: NetId) -> Option<KeyBitSet> {
        self.bit_of
            .get(&net)
            .map(|&bit| KeyBitSet::singleton(self.width, bit))
    }

    fn transfer(
        &self,
        nl: &Netlist,
        cell: CellId,
        values: &Values<KeyBitSet>,
        out: &mut Vec<(NetId, KeyBitSet)>,
    ) {
        let c = nl.cell(cell);
        let output = c.output();
        match c.kind() {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => return,
            GateKind::Dff => {
                if self.through_ffs {
                    out.push((output, values.net(c.inputs()[0]).clone()));
                }
                return;
            }
            _ => {}
        }
        if let TaintMode::Refined { vn, consts } = &self.mode {
            // A constant net carries no influence at all.
            if consts.net(output).is_const() {
                return;
            }
            if c.kind() == GateKind::Mux2 {
                let (in0, in1, sel) = (c.inputs()[0], c.inputs()[1], c.inputs()[2]);
                if let Some(x_class) = gk_identity_x(vn, in0, in1, sel) {
                    // Output is INV(x) (or x) for every key value: only
                    // x's taint survives the key-gate.
                    out.push((output, values.net(vn.repr(x_class)).clone()));
                    return;
                }
                if vn.class(in0) == vn.class(in1) {
                    // Equal arms: the select cannot change the output.
                    let mut t = values.net(in0).clone();
                    t.union_with(values.net(in1));
                    out.push((output, t));
                    return;
                }
            }
        }
        let mut t = KeyBitSet::empty(self.width);
        for &i in c.inputs() {
            t.union_with(values.net(i));
        }
        out.push((output, t));
    }

    fn join(&self, into: &mut KeyBitSet, from: &KeyBitSet) -> bool {
        into.union_with(from)
    }

    fn widen(&self, _value: &mut KeyBitSet) {
        // The bitset lattice has height `width`: chains are finite, so
        // widening never needs to over-approximate.
    }

    fn extra_deps(&self, nl: &Netlist, cell: CellId) -> Vec<NetId> {
        if let TaintMode::Refined { vn, .. } = &self.mode {
            let c = nl.cell(cell);
            if c.kind() == GateKind::Mux2 {
                let (in0, in1, sel) = (c.inputs()[0], c.inputs()[1], c.inputs()[2]);
                if let Some(x_class) = gk_identity_x(vn, in0, in1, sel) {
                    return vec![vn.repr(x_class)];
                }
            }
        }
        Vec::new()
    }
}

/// Taint facts for `keys` over `nl` at the given precision.
pub fn taint_facts(
    nl: &Netlist,
    keys: &[NetId],
    mode: TaintMode<'_>,
    through_ffs: bool,
) -> Solution<KeyBitSet> {
    solve(
        nl,
        &TaintDomain::new(keys, mode, through_ffs),
        Config::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consts::const_facts;
    use glitchlock_netlist::Logic;

    #[test]
    fn raw_taint_unions_and_crosses_ffs() {
        let mut nl = Netlist::new("raw");
        let a = nl.add_input("a");
        let k = nl.add_input("k");
        let x = nl.add_gate(GateKind::Xor, &[a, k]).unwrap();
        let q = nl.add_dff(x).unwrap();
        let y = nl.add_gate(GateKind::And, &[q, a]).unwrap();
        nl.mark_output(y, "y");
        let seq = taint_facts(&nl, &[k], TaintMode::Raw, true);
        assert!(seq.net(y).contains(0));
        let comb = taint_facts(&nl, &[k], TaintMode::Raw, false);
        assert!(comb.net(y).is_empty(), "FF blocks single-frame taint");
    }

    #[test]
    fn refined_taint_drops_constant_collapsed_and_equal_arm_muxes() {
        let mut nl = Netlist::new("refined");
        let a = nl.add_input("a");
        let k = nl.add_input("k");
        let zero = nl.add_const(false);
        let masked = nl.add_gate(GateKind::And, &[k, zero]).unwrap();
        let fast = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let slow1 = nl.add_gate(GateKind::Buf, &[a]).unwrap();
        let slow = nl.add_gate(GateKind::Buf, &[slow1]).unwrap();
        let tdb = nl.add_gate(GateKind::Mux2, &[fast, slow, k]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[masked, tdb]).unwrap();
        nl.mark_output(y, "y");

        let raw = taint_facts(&nl, &[k], TaintMode::Raw, true);
        assert!(raw.net(y).contains(0));

        let vn = ValueNumbering::build(&nl);
        let consts = const_facts(&nl, &[]);
        let refined = taint_facts(
            &nl,
            &[k],
            TaintMode::Refined {
                vn: &vn,
                consts: &consts,
            },
            true,
        );
        assert!(refined.net(masked).is_empty(), "AND with 0 collapses");
        assert!(refined.net(tdb).is_empty(), "equal-arm mux drops sel");
        assert!(refined.net(y).is_empty());
    }

    #[test]
    fn a_flip_flop_q_is_its_own_value_class() {
        // MUX(pi0, ff_q, key): the arms differ whenever the state does,
        // so the key selects between them and must reach the output.
        let mut nl = Netlist::new("ffmux");
        let pi0 = nl.add_input("pi0");
        let k = nl.add_input("key0");
        let q = nl.add_dff(pi0).unwrap();
        let y = nl.add_gate(GateKind::Mux2, &[pi0, q, k]).unwrap();
        nl.mark_output(y, "y");

        let vn = ValueNumbering::build(&nl);
        assert_ne!(vn.class(q), vn.class(pi0));
        let consts = const_facts(&nl, &[]);
        let refined = taint_facts(
            &nl,
            &[k],
            TaintMode::Refined {
                vn: &vn,
                consts: &consts,
            },
            true,
        );
        assert!(refined.net(y).contains(0), "the select is live");
    }

    #[test]
    fn refined_taint_kills_key_through_gk_identity() {
        let mut nl = Netlist::new("gk");
        let x = nl.add_input("x");
        let k = nl.add_input("k");
        let kd = nl.add_gate(GateKind::Buf, &[k]).unwrap();
        let xnor = nl.add_gate(GateKind::Xnor, &[x, kd]).unwrap();
        let xor = nl.add_gate(GateKind::Xor, &[x, kd]).unwrap();
        let y = nl.add_gate(GateKind::Mux2, &[xnor, xor, k]).unwrap();
        nl.mark_output(y, "y");

        let vn = ValueNumbering::build(&nl);
        let consts = const_facts(&nl, &[]);
        let refined = taint_facts(
            &nl,
            &[k],
            TaintMode::Refined {
                vn: &vn,
                consts: &consts,
            },
            true,
        );
        assert!(refined.net(xnor).contains(0), "branches see the key");
        assert!(refined.net(y).is_empty(), "the mux output is INV(x)");
        // Semantics check: y really is INV(x) for both key values.
        for kv in [Logic::Zero, Logic::One] {
            for xv in [Logic::Zero, Logic::One] {
                let dense = nl.eval_nets(&[xv, kv], None);
                assert_eq!(dense[y.index()], !xv);
            }
        }
    }
}
