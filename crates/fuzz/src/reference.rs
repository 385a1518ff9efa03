//! Independent reference evaluator.
//!
//! A second, deliberately separate implementation of zero-delay
//! three-valued netlist semantics: its own Kahn scheduling and its own
//! gate equations, sharing no code with [`glitchlock_netlist::CombView`]
//! or the packed [`glitchlock_netlist::EvalProgram`]. Differential
//! referees compare this machine against the production engines; a bug in
//! either side shows up as a disagreement instead of cancelling out.
//!
//! [`Inject`] deliberately mis-wires one gate equation so CI can prove
//! the fuzzer *detects* and *shrinks* a real semantic divergence.

use glitchlock_netlist::{CellId, GateKind, Logic, Netlist};
use std::collections::VecDeque;

/// A deliberate semantic fault for negative testing of the fuzz loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Inject {
    /// No fault: faithful reference semantics.
    #[default]
    None,
    /// Evaluate `XNOR` as `XOR` (dropped output inversion).
    XnorFlip,
}

impl Inject {
    /// Parses the CLI spelling of an injection.
    pub fn from_name(name: &str) -> Option<Inject> {
        match name {
            "none" => Some(Inject::None),
            "xnor-flip" => Some(Inject::XnorFlip),
            _ => None,
        }
    }
}

/// The reference machine: a pre-scheduled evaluation order for one netlist.
#[derive(Clone, Debug)]
pub struct RefMachine {
    /// Combinational cells in a self-derived dependency order.
    order: Vec<CellId>,
    inject: Inject,
}

impl RefMachine {
    /// Schedules `netlist` with an independent worklist Kahn sort.
    ///
    /// # Panics
    ///
    /// Panics if the combinational logic is cyclic (materialized fuzz
    /// cases are validated acyclic before they reach any referee).
    pub fn new(netlist: &Netlist, inject: Inject) -> Self {
        let n = netlist.cells().len();
        let is_comb = |c: CellId| {
            let k = netlist.cell(c).kind();
            k.is_combinational() && k != GateKind::Input
        };
        let mut indeg = vec![0usize; n];
        let mut queue = VecDeque::new();
        for (id, cell) in netlist.cells() {
            if !is_comb(id) {
                continue;
            }
            let d = cell
                .inputs()
                .iter()
                .filter(|&&net| netlist.net(net).driver().is_some_and(is_comb))
                .count();
            indeg[id.index()] = d;
            if d == 0 {
                queue.push_back(id);
            }
        }
        let mut order = Vec::with_capacity(n);
        while let Some(c) = queue.pop_front() {
            order.push(c);
            for &(reader, _) in netlist.net(netlist.cell(c).output()).fanout() {
                if is_comb(reader) {
                    indeg[reader.index()] -= 1;
                    if indeg[reader.index()] == 0 {
                        queue.push_back(reader);
                    }
                }
            }
        }
        let n_comb = netlist.cells().filter(|&(id, _)| is_comb(id)).count();
        assert_eq!(order.len(), n_comb, "combinational cycle in fuzz case");
        RefMachine { order, inject }
    }

    /// Evaluates every net from primary-input and flip-flop-Q values
    /// (both in netlist declaration order). Unset nets stay `X`.
    pub fn eval_nets(&self, netlist: &Netlist, inputs: &[Logic], q: &[Logic]) -> Vec<Logic> {
        let mut nets = vec![Logic::X; netlist.net_count()];
        for (i, &pi) in netlist.input_nets().iter().enumerate() {
            nets[pi.index()] = inputs.get(i).copied().unwrap_or(Logic::X);
        }
        for (i, &ff) in netlist.dff_cells().iter().enumerate() {
            nets[netlist.cell(ff).output().index()] = q.get(i).copied().unwrap_or(Logic::X);
        }
        for &c in &self.order {
            let cell = netlist.cell(c);
            let ins: Vec<Logic> = cell.inputs().iter().map(|n| nets[n.index()]).collect();
            nets[cell.output().index()] = ref_gate(cell.kind(), &ins, self.inject);
        }
        nets
    }

    /// Primary-output values from a completed [`Self::eval_nets`] vector.
    pub fn outputs_of(&self, netlist: &Netlist, nets: &[Logic]) -> Vec<Logic> {
        netlist
            .output_ports()
            .map(|(n, _)| nets[n.index()])
            .collect()
    }

    /// Flip-flop D-pin values from a completed [`Self::eval_nets`] vector,
    /// in [`Netlist::dff_cells`] order.
    pub fn dff_d_of(&self, netlist: &Netlist, nets: &[Logic]) -> Vec<Logic> {
        netlist
            .dff_cells()
            .iter()
            .map(|&ff| nets[netlist.cell(ff).inputs()[0].index()])
            .collect()
    }

    /// One synchronous cycle: returns the outputs and advances `q` to the
    /// sampled D values.
    pub fn step(&self, netlist: &Netlist, q: &mut Vec<Logic>, inputs: &[Logic]) -> Vec<Logic> {
        let nets = self.eval_nets(netlist, inputs, q);
        let po = self.outputs_of(netlist, &nets);
        *q = self.dff_d_of(netlist, &nets);
        po
    }
}

/// Reference gate equations, written from the gate definitions rather
/// than the production code: fold-free, explicit counting semantics.
fn ref_gate(kind: GateKind, ins: &[Logic], inject: Inject) -> Logic {
    let any_x = ins.iter().any(|v| !v.is_known());
    let zeros = ins.iter().filter(|&&v| v == Logic::Zero).count();
    let ones = ins.iter().filter(|&&v| v == Logic::One).count();
    let parity = if any_x {
        Logic::X
    } else {
        Logic::from_bool(ones % 2 == 1)
    };
    match kind {
        GateKind::Input => ins.first().copied().unwrap_or(Logic::X),
        GateKind::Const0 => Logic::Zero,
        GateKind::Const1 => Logic::One,
        GateKind::Buf => ins[0],
        GateKind::Inv => match ins[0] {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        },
        GateKind::And | GateKind::Nand => {
            let and = if zeros > 0 {
                Logic::Zero
            } else if any_x {
                Logic::X
            } else {
                Logic::One
            };
            if kind == GateKind::And {
                and
            } else {
                !and
            }
        }
        GateKind::Or | GateKind::Nor => {
            let or = if ones > 0 {
                Logic::One
            } else if any_x {
                Logic::X
            } else {
                Logic::Zero
            };
            if kind == GateKind::Or {
                or
            } else {
                !or
            }
        }
        GateKind::Xor => parity,
        GateKind::Xnor => match inject {
            Inject::XnorFlip => parity,
            Inject::None => !parity,
        },
        GateKind::Mux2 => ref_mux(ins[2], ins[0], ins[1]),
        GateKind::Mux4 => ref_mux(
            ins[5],
            ref_mux(ins[4], ins[0], ins[1]),
            ref_mux(ins[4], ins[2], ins[3]),
        ),
        GateKind::Dff => unreachable!("flip-flops are not scheduled combinationally"),
    }
}

/// Reference 2:1 mux with the X-agreement rule.
fn ref_mux(sel: Logic, a: Logic, b: Logic) -> Logic {
    match sel.to_bool() {
        Some(false) => a,
        Some(true) => b,
        None => {
            if a == b && a.is_known() {
                a
            } else {
                Logic::X
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::CombView;

    fn all_patterns(n: usize) -> Vec<Vec<Logic>> {
        let mut out = Vec::new();
        let mut pat = vec![Logic::Zero; n];
        fn rec(i: usize, pat: &mut Vec<Logic>, out: &mut Vec<Vec<Logic>>) {
            if i == pat.len() {
                out.push(pat.clone());
                return;
            }
            for v in Logic::ALL {
                pat[i] = v;
                rec(i + 1, pat, out);
            }
        }
        rec(0, &mut pat, &mut out);
        out
    }

    #[test]
    fn matches_comb_view_on_every_gate_kind() {
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
            let y = nl.add_gate(kind, &[a, b, c]).unwrap();
            nl.mark_output(y, format!("{kind}_y"));
        }
        let m2 = nl.add_gate(GateKind::Mux2, &[a, b, c]).unwrap();
        nl.mark_output(m2, "m2");
        let inv = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        nl.mark_output(inv, "inv");
        let m4 = nl.add_gate(GateKind::Mux4, &[a, b, c, inv, m2, a]).unwrap();
        nl.mark_output(m4, "m4");
        let machine = RefMachine::new(&nl, Inject::None);
        let view = CombView::new(&nl);
        for pat in all_patterns(3) {
            let nets = machine.eval_nets(&nl, &pat, &[]);
            assert_eq!(
                machine.outputs_of(&nl, &nets),
                view.eval(&nl, &pat),
                "pattern {pat:?}"
            );
        }
    }

    #[test]
    fn xnor_flip_diverges_only_on_xnor() {
        let mut nl = Netlist::new("x");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::Xnor, &[a, b]).unwrap();
        nl.mark_output(y, "y");
        let faulty = RefMachine::new(&nl, Inject::XnorFlip);
        let nets = faulty.eval_nets(&nl, &[Logic::One, Logic::One], &[]);
        assert_eq!(faulty.outputs_of(&nl, &nets), vec![Logic::Zero]);
    }
}
