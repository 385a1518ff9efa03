//! Backward liveness: which nets can influence a primary output.
//!
//! A net is *needed* when it is a primary output or feeds any pin —
//! including flip-flop D pins — of a cell whose own output is needed.
//! This is the dataflow formulation of the lint dead-cone sweep: a cell
//! whose output net is not needed (and is not itself a primary output)
//! heads a cone resynthesis would strip.

use crate::engine::{solve, Config, Direction, Domain, Solution, Values};
use glitchlock_netlist::{CellId, GateKind, NetId, Netlist};

/// The boolean liveness domain (`false` = dead, `true` = needed).
pub struct LiveDomain;

impl Domain for LiveDomain {
    type Value = bool;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self, _nl: &Netlist) -> bool {
        false
    }

    fn boundary(&self, nl: &Netlist, net: NetId) -> Option<bool> {
        nl.output_ports().any(|(po, _)| po == net).then_some(true)
    }

    fn transfer(
        &self,
        nl: &Netlist,
        cell: CellId,
        values: &Values<bool>,
        out: &mut Vec<(NetId, bool)>,
    ) {
        let c = nl.cell(cell);
        if c.kind() == GateKind::Input || !*values.net(c.output()) {
            return;
        }
        for &i in c.inputs() {
            out.push((i, true));
        }
    }

    fn join(&self, into: &mut bool, from: &bool) -> bool {
        if *from && !*into {
            *into = true;
            true
        } else {
            false
        }
    }

    fn widen(&self, value: &mut bool) {
        *value = true;
    }
}

/// Per-net liveness for `nl`.
pub fn live_facts(nl: &Netlist) -> Solution<bool> {
    solve(nl, &LiveDomain, Config::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dead_cone_is_not_needed_but_its_shared_fanin_is() {
        let mut nl = Netlist::new("dead");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let shared = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let live = nl.add_gate(GateKind::Inv, &[shared]).unwrap();
        nl.mark_output(live, "y");
        let dead_mid = nl.add_gate(GateKind::Or, &[shared, a]).unwrap();
        let dead_root = nl.add_gate(GateKind::Inv, &[dead_mid]).unwrap();
        let facts = live_facts(&nl);
        assert!(*facts.net(live) && *facts.net(shared) && *facts.net(a));
        assert!(!*facts.net(dead_mid) && !*facts.net(dead_root));
    }

    #[test]
    fn liveness_crosses_flip_flops() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let q = nl.add_dff(g).unwrap();
        nl.mark_output(q, "q");
        let facts = live_facts(&nl);
        assert!(*facts.net(g) && *facts.net(a));
    }
}
