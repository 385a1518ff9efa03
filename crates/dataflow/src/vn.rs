//! Structural value numbering over a netlist.
//!
//! Nets that provably carry the same waveform get the same class:
//! buffers (including bound delay cells, which are `GateKind::Buf` with a
//! library binding) are transparent, commutative gates sort their operand
//! classes, and identical `(kind, operands)` definitions hash-cons to one
//! class. The refined taint domain uses classes to recognize
//! mux-arms-equal and glitch-key-gate identities without walking delay
//! chains by hand.

use glitchlock_netlist::{GateKind, NetId, Netlist};
use std::collections::HashMap;

/// A value class index.
pub type Class = u32;

/// The hash-consed definition of a class: gate kind plus operand classes
/// (sorted for commutative kinds). Opaque sources — primary inputs and
/// flip-flop Q pins — have no definition.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Def {
    /// The defining gate kind.
    pub kind: GateKind,
    /// Operand classes, sorted when `kind` is commutative.
    pub operands: Vec<Class>,
}

/// Per-net value classes for one netlist.
pub struct ValueNumbering {
    class_of_net: Vec<Class>,
    defs: Vec<Option<Def>>,
    repr: Vec<NetId>,
}

fn commutative(kind: GateKind) -> bool {
    matches!(
        kind,
        GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor
    )
}

impl ValueNumbering {
    /// Numbers every net of `nl`.
    ///
    /// On a netlist with combinational cycles every net falls back to its
    /// own class (no definitions), which degrades refined-taint rules to
    /// the raw ones rather than failing.
    pub fn build(nl: &Netlist) -> Self {
        let n_nets = nl.nets().len();
        let mut vn = ValueNumbering {
            class_of_net: vec![0; n_nets],
            defs: Vec::new(),
            repr: Vec::new(),
        };
        let Ok(order) = nl.topo_order_cached() else {
            for (id, _) in nl.nets() {
                let class = vn.fresh(None, id);
                vn.class_of_net[id.index()] = class;
            }
            return vn;
        };

        let mut cons: HashMap<Def, Class> = HashMap::new();
        // Primary inputs and flip-flop Qs first: they are opaque sources,
        // and the topological order lists combinational cells only.
        let ff_qs = nl.dff_cells().iter().map(|&c| nl.cell(c).output());
        for source in nl.input_nets().iter().copied().chain(ff_qs) {
            let class = vn.fresh(None, source);
            vn.class_of_net[source.index()] = class;
        }
        for &cid in order {
            let cell = nl.cell(cid);
            let out = cell.output();
            let class = match cell.kind() {
                GateKind::Buf => vn.class_of_net[cell.inputs()[0].index()],
                kind => {
                    let mut operands: Vec<Class> = cell
                        .inputs()
                        .iter()
                        .map(|&i| vn.class_of_net[i.index()])
                        .collect();
                    if commutative(kind) {
                        operands.sort_unstable();
                    }
                    let def = Def { kind, operands };
                    match cons.get(&def) {
                        Some(&class) => class,
                        None => {
                            let class = vn.fresh(Some(def.clone()), out);
                            cons.insert(def, class);
                            class
                        }
                    }
                }
            };
            vn.class_of_net[out.index()] = class;
        }
        vn
    }

    fn fresh(&mut self, def: Option<Def>, repr: NetId) -> Class {
        let class = self.defs.len() as Class;
        self.defs.push(def);
        self.repr.push(repr);
        class
    }

    /// The class of `net`.
    pub fn class(&self, net: NetId) -> Class {
        self.class_of_net[net.index()]
    }

    /// The definition of `class`, if it is a visible gate.
    pub fn def(&self, class: Class) -> Option<&Def> {
        self.defs[class as usize].as_ref()
    }

    /// The topologically earliest net carrying `class`.
    pub fn repr(&self, class: Class) -> NetId {
        self.repr[class as usize]
    }
}

/// If the Mux2 `(in0, in1, sel)` is a glitch-key-gate identity —
/// `MUX(XNOR(x, k), XOR(x, k), sel)` with `k` in the same value class as
/// `sel` — the output is semantically `INV(x)` (or `x` with the arms
/// swapped) for *every* key value. Returns the class of `x`.
pub fn gk_identity_x(vn: &ValueNumbering, in0: NetId, in1: NetId, sel: NetId) -> Option<Class> {
    let d0 = vn.def(vn.class(in0))?;
    let d1 = vn.def(vn.class(in1))?;
    let (xnor, xor) = match (d0.kind, d1.kind) {
        (GateKind::Xnor, GateKind::Xor) => (d0, d1),
        (GateKind::Xor, GateKind::Xnor) => (d1, d0),
        _ => return None,
    };
    if xnor.operands.len() != 2 || xor.operands.len() != 2 {
        return None;
    }
    let k = vn.class(sel);
    let other = |def: &Def| -> Option<Class> {
        if def.operands[0] == k {
            Some(def.operands[1])
        } else if def.operands[1] == k {
            Some(def.operands[0])
        } else {
            None
        }
    };
    let x0 = other(xnor)?;
    let x1 = other(xor)?;
    (x0 == x1).then_some(x0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_transparent_and_commutative_gates_hash_cons() {
        let mut nl = Netlist::new("vn");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let ab = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let ba = nl.add_gate(GateKind::And, &[b, a]).unwrap();
        let buf = nl.add_gate(GateKind::Buf, &[ab]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[buf, ba]).unwrap();
        nl.mark_output(y, "y");
        let vn = ValueNumbering::build(&nl);
        assert_eq!(vn.class(ab), vn.class(ba));
        assert_eq!(vn.class(buf), vn.class(ab));
        assert_eq!(vn.repr(vn.class(buf)), ab);
        assert_ne!(vn.class(y), vn.class(ab));
    }

    #[test]
    fn gk_identity_recognized_through_delay_buffers() {
        // MUX(XNOR(x, k), XOR(x, buf(buf(k))), k) == INV(x).
        let mut nl = Netlist::new("gk");
        let x = nl.add_input("x");
        let k = nl.add_input("k");
        let kd1 = nl.add_gate(GateKind::Buf, &[k]).unwrap();
        let kd2 = nl.add_gate(GateKind::Buf, &[kd1]).unwrap();
        let xnor = nl.add_gate(GateKind::Xnor, &[x, k]).unwrap();
        let xor = nl.add_gate(GateKind::Xor, &[x, kd2]).unwrap();
        let y = nl.add_gate(GateKind::Mux2, &[xnor, xor, k]).unwrap();
        nl.mark_output(y, "y");
        let vn = ValueNumbering::build(&nl);
        let xc = gk_identity_x(&vn, xnor, xor, k).expect("identity");
        assert_eq!(xc, vn.class(x));
        // x and k are symmetric in the motif: selecting on x makes the
        // output a function of k alone.
        assert_eq!(gk_identity_x(&vn, xnor, xor, x), Some(vn.class(k)));
        // A sel unrelated to either operand is no identity.
        let z = nl.add_input("z");
        let vn = ValueNumbering::build(&nl);
        assert_eq!(gk_identity_x(&vn, xnor, xor, z), None);
    }
}
