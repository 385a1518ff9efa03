//! Netlist → CNF: the combinational view is lowered into a strashed
//! And-Inverter Graph ([`Aig`]) and then encoded with exactly one
//! 3-clause Tseitin gate per AND node. Inverters are free (complemented
//! edges), structurally identical logic is emitted once, and cones that a
//! miter does not need can be dropped before any clause exists.
//!
//! This is the view a netlist-level SAT attack works on — and the reason
//! the glitch key-gate defeats it: primary inputs and flip-flop Q pins
//! become free variables, so the GK's output is key-independent in this
//! static view and the attack's miter can never differ (paper Sec. V-A).

use crate::{Cnf, Lit, Solver, Var};
use glitchlock_netlist::{Aig, AigNode, CombView, Netlist};

/// The CNF encoding the SAT-based attacks and checks use, as a type.
///
/// There is one: the strashed AIG encoding of this module. The type keeps
/// callers that spell out a full miter configuration (see
/// `MiterSession::with_config` in `glitchlock-attacks`) compiling; nothing
/// branches on it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EncoderKind {
    /// Strash-deduplicated And-Inverter Graph, 3 clauses per AND node.
    #[default]
    Aig,
}

/// A clause consumer: both [`Cnf`] (standalone formulas) and [`Solver`]
/// (incremental encoding, as the SAT attack's DIP loop needs) accept
/// encoder output.
pub trait CnfSink {
    /// Allocates a fresh variable.
    fn fresh_var(&mut self) -> Var;
    /// Adds a clause.
    fn clause(&mut self, lits: &[Lit]);
}

impl CnfSink for Cnf {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }
    fn clause(&mut self, lits: &[Lit]) {
        self.add_clause(lits);
    }
}

impl CnfSink for Solver {
    fn fresh_var(&mut self) -> Var {
        self.new_var()
    }
    fn clause(&mut self, lits: &[Lit]) {
        self.add_clause(lits);
    }
}

/// Variable bindings of one AIG encoding: one variable per AIG input (in
/// input-ordinal order) plus the output *literals* — an output may be a
/// complemented edge or a constant, so it is a [`Lit`] over an internal
/// variable rather than always a fresh [`Var`].
#[derive(Clone, Debug)]
pub struct AigPorts {
    /// Variable of each AIG input, by input ordinal.
    pub input_vars: Vec<Var>,
    /// Literal of each marked output, in output order.
    pub output_lits: Vec<Lit>,
}

impl AigPorts {
    /// Materializes every output as a plain variable, buffering
    /// complemented or constant outputs with a fresh equality-constrained
    /// variable (2 clauses each). Uncomplemented node outputs reuse their
    /// node variable directly.
    pub fn output_vars<S: CnfSink>(&self, sink: &mut S) -> Vec<Var> {
        self.output_lits
            .iter()
            .map(|&l| {
                if !l.is_neg() {
                    l.var()
                } else {
                    let y = sink.fresh_var();
                    sink.clause(&[Lit::neg(y), l]);
                    sink.clause(&[Lit::pos(y), !l]);
                    y
                }
            })
            .collect()
    }
}

/// Encodes a strashed AIG into any [`CnfSink`]: one variable per input
/// (or the pinned variable, the miter's data-sharing mechanism), one
/// variable and three clauses per AND node, one always-false variable for
/// the constant node. Returns the port bindings.
pub fn encode_aig_into<S: CnfSink>(sink: &mut S, aig: &Aig, pinned: &[Option<Var>]) -> AigPorts {
    let mut node_var: Vec<Var> = Vec::with_capacity(aig.len());
    for (i, node) in aig.nodes().iter().enumerate() {
        let v = match *node {
            AigNode::False => {
                let v = sink.fresh_var();
                sink.clause(&[Lit::neg(v)]);
                v
            }
            AigNode::Input(k) => pinned
                .get(k)
                .copied()
                .flatten()
                .unwrap_or_else(|| sink.fresh_var()),
            AigNode::And(a, b) => {
                let la = Lit::with_sign(node_var[a.node()], a.is_complemented());
                let lb = Lit::with_sign(node_var[b.node()], b.is_complemented());
                let y = sink.fresh_var();
                sink.clause(&[Lit::neg(y), la]);
                sink.clause(&[Lit::neg(y), lb]);
                sink.clause(&[Lit::pos(y), !la, !lb]);
                y
            }
        };
        debug_assert_eq!(i, node_var.len());
        node_var.push(v);
    }
    let mut input_vars = vec![node_var[0]; aig.num_inputs()];
    for (i, node) in aig.nodes().iter().enumerate() {
        if let AigNode::Input(k) = *node {
            input_vars[k] = node_var[i];
        }
    }
    let output_lits = aig
        .outputs()
        .iter()
        .map(|&o| Lit::with_sign(node_var[o.node()], o.is_complemented()))
        .collect();
    AigPorts {
        input_vars,
        output_lits,
    }
}

/// Port variables of one combinational-view encoding.
#[derive(Clone, Debug)]
pub struct EncodedIo {
    /// Variables of the view's inputs, in view order.
    pub input_vars: Vec<Var>,
    /// Variables of the view's outputs, in view order.
    pub output_vars: Vec<Var>,
}

/// Encodes a fresh copy of the combinational view into any [`CnfSink`]
/// (e.g. directly into a [`Solver`] mid-attack). `pinned` may pre-assign
/// variables for a prefix of the view inputs — the mechanism the SAT
/// attack uses to share the data-input variables between its two circuit
/// copies while keeping the key variables independent.
///
/// # Panics
///
/// Panics on a cyclic netlist.
pub fn encode_comb_with<S: CnfSink>(
    sink: &mut S,
    netlist: &Netlist,
    view: &CombView,
    pinned: &[Option<Var>],
) -> EncodedIo {
    let aig = Aig::from_comb(netlist, view);
    let ports = encode_aig_into(sink, &aig, pinned);
    let output_vars = ports.output_vars(sink);
    EncodedIo {
        input_vars: ports.input_vars,
        output_vars,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SatResult;
    use glitchlock_netlist::{GateKind, Logic};

    fn sample() -> Netlist {
        let mut nl = Netlist::new("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let w1 = nl.add_gate(GateKind::Xnor, &[a, b]).unwrap();
        let w2 = nl.add_gate(GateKind::Mux2, &[w1, c, a]).unwrap();
        let w3 = nl.add_gate(GateKind::Nor, &[w1, w2, c]).unwrap();
        nl.mark_output(w2, "y0");
        nl.mark_output(w3, "y1");
        nl
    }

    fn full_adder() -> Netlist {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let axb = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let s = nl.add_gate(GateKind::Xor, &[axb, cin]).unwrap();
        let t1 = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let t2 = nl.add_gate(GateKind::Nand, &[axb, cin]).unwrap();
        let cout = nl.add_gate(GateKind::Nand, &[t1, t2]).unwrap();
        nl.mark_output(s, "sum");
        nl.mark_output(cout, "cout");
        nl
    }

    /// Every gate kind at fan-in 2 and 3 where it has one, plus the
    /// unary and constant kinds.
    fn every_gate_kind() -> Netlist {
        let mut nl = Netlist::new("kinds");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        for kind in [
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
        ] {
            let y2 = nl.add_gate(kind, &[a, b]).unwrap();
            let y3 = nl.add_gate(kind, &[a, b, c]).unwrap();
            nl.mark_output(y2, format!("{kind}2"));
            nl.mark_output(y3, format!("{kind}3"));
        }
        let inv = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let buf = nl.add_gate(GateKind::Buf, &[b]).unwrap();
        let mux = nl.add_gate(GateKind::Mux2, &[a, b, c]).unwrap();
        let c0 = nl.add_gate(GateKind::Const0, &[]).unwrap();
        let c1 = nl.add_gate(GateKind::Const1, &[]).unwrap();
        nl.mark_output(inv, "inv");
        nl.mark_output(buf, "buf");
        nl.mark_output(mux, "mux");
        nl.mark_output(c0, "c0");
        nl.mark_output(c1, "c1");
        nl
    }

    fn mux4() -> Netlist {
        let mut nl = Netlist::new("m4");
        let ins: Vec<_> = (0..6).map(|i| nl.add_input(format!("i{i}"))).collect();
        let y = nl.add_gate(GateKind::Mux4, &ins).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    /// One PI and one flip-flop: the view has a pseudo-PI (the Q pin) and
    /// a pseudo-PO (the D pin) next to the real ports, and the encoding
    /// must expose variables for both.
    fn sequential() -> Netlist {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let d = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let q = nl.add_dff(d).unwrap();
        let y = nl.add_gate(GateKind::And, &[q, a]).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn encoding_agrees_with_evaluation_exhaustively() {
        for nl in [
            sample(),
            full_adder(),
            every_gate_kind(),
            mux4(),
            sequential(),
        ] {
            let view = CombView::new(&nl);
            let n = view.num_inputs();
            let mut solver = Solver::new();
            let io = encode_comb_with(&mut solver, &nl, &view, &[]);
            assert_eq!(io.input_vars.len(), n, "{}", nl.name());
            assert_eq!(io.output_vars.len(), view.num_outputs(), "{}", nl.name());
            for bits in 0u32..(1 << n) {
                let bools: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let logic: Vec<Logic> = bools.iter().map(|&b| Logic::from_bool(b)).collect();
                let expect = view.eval(&nl, &logic);
                let assumptions: Vec<Lit> = io
                    .input_vars
                    .iter()
                    .zip(&bools)
                    .map(|(&v, &b)| Lit::with_sign(v, !b))
                    .collect();
                assert_eq!(solver.solve_with(&assumptions), SatResult::Sat);
                for (i, &ov) in io.output_vars.iter().enumerate() {
                    let want = expect[i].to_bool();
                    assert!(want.is_some(), "X in a fully-driven circuit");
                    assert_eq!(
                        solver.value(ov),
                        want,
                        "{} output {i} bits {bits:b}",
                        nl.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pinned_inputs_are_respected() {
        let nl = sample();
        let view = CombView::new(&nl);
        let mut solver = Solver::new();
        let shared = solver.new_var();
        let io1 = encode_comb_with(&mut solver, &nl, &view, &[Some(shared)]);
        let io2 = encode_comb_with(&mut solver, &nl, &view, &[Some(shared)]);
        assert_eq!(io1.input_vars[0], shared);
        assert_eq!(io2.input_vars[0], shared);
        assert_ne!(io1.input_vars[1], io2.input_vars[1]);
    }

    #[test]
    fn constant_outputs_materialize_legally() {
        let mut aig = Aig::new();
        let a = aig.add_input();
        aig.mark_output(glitchlock_netlist::AigLit::TRUE);
        aig.mark_output(glitchlock_netlist::AigLit::FALSE);
        aig.mark_output(a.complement());
        let mut solver = Solver::new();
        let ports = encode_aig_into(&mut solver, &aig, &[]);
        let outs = ports.output_vars(&mut solver);
        assert_eq!(solver.solve(), SatResult::Sat);
        assert_eq!(solver.value(outs[0]), Some(true));
        assert_eq!(solver.value(outs[1]), Some(false));
    }
}
