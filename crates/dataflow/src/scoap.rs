//! SCOAP-style testability scores: combinational 0/1-controllability
//! (CC0/CC1, forward) and observability (CO, backward).
//!
//! Costs are saturating gate counts in the classic Goldstein formulation:
//! a primary input costs 1 to set either way, every gate level adds 1,
//! AND needs all inputs at 1 (sum) but any input at 0 (min), and so on.
//! [`INF`] marks "uncontrollable/unobservable as far as the fixpoint can
//! tell" — constants are uncontrollable to the opposite value, and nets
//! cut off from every primary output are unobservable. Flip-flops add one
//! time frame (+1) in both directions. Costs descend monotonically from
//! [`INF`] under a min-join and are bounded below, so sequential feedback
//! converges without over-approximating (the widening hook is a no-op for
//! these domains; the scores feed the timing pass's glitch-sensitivity
//! suggestions, they are not a soundness boundary).

use crate::engine::{solve, Config, Direction, Domain, Solution, Values};
use glitchlock_netlist::{CellId, GateKind, NetId, Netlist};

/// Saturated cost: unreachable / uncontrollable.
pub const INF: u32 = u32::MAX;

fn sat_add(a: u32, b: u32) -> u32 {
    a.saturating_add(b)
}

/// Controllability pair for one net.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CcPair {
    /// Cost to drive the net to 0.
    pub cc0: u32,
    /// Cost to drive the net to 1.
    pub cc1: u32,
}

impl CcPair {
    /// Both directions unknown/unreachable.
    pub const UNKNOWN: CcPair = CcPair { cc0: INF, cc1: INF };

    fn add1(self) -> CcPair {
        CcPair {
            cc0: sat_add(self.cc0, 1),
            cc1: sat_add(self.cc1, 1),
        }
    }

    /// The cheaper of the two directions.
    pub fn easiest(self) -> u32 {
        self.cc0.min(self.cc1)
    }
}

fn xor2(a: CcPair, b: CcPair) -> CcPair {
    CcPair {
        cc0: sat_add(a.cc0, b.cc0).min(sat_add(a.cc1, b.cc1)),
        cc1: sat_add(a.cc0, b.cc1).min(sat_add(a.cc1, b.cc0)),
    }
}

fn mux4_sel_costs(s0: CcPair, s1: CcPair) -> [u32; 4] {
    [
        sat_add(s0.cc0, s1.cc0),
        sat_add(s0.cc1, s1.cc0),
        sat_add(s0.cc0, s1.cc1),
        sat_add(s0.cc1, s1.cc1),
    ]
}

/// Forward controllability domain.
pub struct CcDomain;

impl Domain for CcDomain {
    type Value = CcPair;

    fn direction(&self) -> Direction {
        Direction::Forward
    }

    fn bottom(&self, _nl: &Netlist) -> CcPair {
        CcPair::UNKNOWN
    }

    fn boundary(&self, nl: &Netlist, net: NetId) -> Option<CcPair> {
        nl.input_nets()
            .contains(&net)
            .then_some(CcPair { cc0: 1, cc1: 1 })
    }

    fn transfer(
        &self,
        nl: &Netlist,
        cell: CellId,
        values: &Values<CcPair>,
        out: &mut Vec<(NetId, CcPair)>,
    ) {
        let c = nl.cell(cell);
        let v = |net: NetId| *values.net(net);
        let ins: Vec<CcPair> = c.inputs().iter().map(|&i| v(i)).collect();
        let pair = match c.kind() {
            GateKind::Input => return,
            GateKind::Const0 => CcPair { cc0: 1, cc1: INF },
            GateKind::Const1 => CcPair { cc0: INF, cc1: 1 },
            GateKind::Buf => ins[0].add1(),
            GateKind::Inv => CcPair {
                cc0: ins[0].cc1,
                cc1: ins[0].cc0,
            }
            .add1(),
            GateKind::And | GateKind::Nand => {
                let all1 = ins.iter().fold(0u32, |acc, p| sat_add(acc, p.cc1));
                let any0 = ins.iter().map(|p| p.cc0).min().unwrap_or(INF);
                let and = CcPair {
                    cc0: any0,
                    cc1: all1,
                };
                if c.kind() == GateKind::Nand {
                    CcPair {
                        cc0: and.cc1,
                        cc1: and.cc0,
                    }
                    .add1()
                } else {
                    and.add1()
                }
            }
            GateKind::Or | GateKind::Nor => {
                let all0 = ins.iter().fold(0u32, |acc, p| sat_add(acc, p.cc0));
                let any1 = ins.iter().map(|p| p.cc1).min().unwrap_or(INF);
                let or = CcPair {
                    cc0: all0,
                    cc1: any1,
                };
                if c.kind() == GateKind::Nor {
                    CcPair {
                        cc0: or.cc1,
                        cc1: or.cc0,
                    }
                    .add1()
                } else {
                    or.add1()
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let parity = ins.iter().copied().reduce(xor2).unwrap_or(CcPair::UNKNOWN);
                if c.kind() == GateKind::Xnor {
                    CcPair {
                        cc0: parity.cc1,
                        cc1: parity.cc0,
                    }
                    .add1()
                } else {
                    parity.add1()
                }
            }
            GateKind::Mux2 => {
                let (a, b, s) = (ins[0], ins[1], ins[2]);
                CcPair {
                    cc0: sat_add(s.cc0, a.cc0).min(sat_add(s.cc1, b.cc0)),
                    cc1: sat_add(s.cc0, a.cc1).min(sat_add(s.cc1, b.cc1)),
                }
                .add1()
            }
            GateKind::Mux4 => {
                let sel = mux4_sel_costs(ins[4], ins[5]);
                let mut cc0 = INF;
                let mut cc1 = INF;
                for (arm, &sc) in ins[..4].iter().zip(&sel) {
                    cc0 = cc0.min(sat_add(sc, arm.cc0));
                    cc1 = cc1.min(sat_add(sc, arm.cc1));
                }
                CcPair { cc0, cc1 }.add1()
            }
            GateKind::Dff => ins[0].add1(),
        };
        out.push((c.output(), pair));
    }

    fn join(&self, into: &mut CcPair, from: &CcPair) -> bool {
        let next = CcPair {
            cc0: into.cc0.min(from.cc0),
            cc1: into.cc1.min(from.cc1),
        };
        let changed = next != *into;
        *into = next;
        changed
    }

    fn widen(&self, _value: &mut CcPair) {
        // Saturating u32 costs only descend and are bounded below, so
        // every chain is finite; no over-approximation is needed.
    }
}

/// Backward observability domain; needs the controllability fixpoint for
/// the "hold the side inputs non-controlling" terms.
pub struct CoDomain<'a> {
    cc: &'a Solution<CcPair>,
}

impl<'a> CoDomain<'a> {
    /// An observability domain over the given controllability facts.
    pub fn new(cc: &'a Solution<CcPair>) -> Self {
        CoDomain { cc }
    }
}

impl Domain for CoDomain<'_> {
    type Value = u32;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn bottom(&self, _nl: &Netlist) -> u32 {
        INF
    }

    fn boundary(&self, nl: &Netlist, net: NetId) -> Option<u32> {
        nl.output_ports().any(|(po, _)| po == net).then_some(0)
    }

    fn transfer(
        &self,
        nl: &Netlist,
        cell: CellId,
        values: &Values<u32>,
        out: &mut Vec<(NetId, u32)>,
    ) {
        let c = nl.cell(cell);
        let out_co = *values.net(c.output());
        if out_co == INF {
            return;
        }
        let cc = |net: NetId| *self.cc.net(net);
        let ins = c.inputs();
        match c.kind() {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => {}
            GateKind::Buf | GateKind::Inv => out.push((ins[0], sat_add(out_co, 1))),
            GateKind::Dff => out.push((ins[0], sat_add(out_co, 1))),
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                // Side inputs must hold the non-controlling value.
                for (i, &net) in ins.iter().enumerate() {
                    let mut cost = sat_add(out_co, 1);
                    for (j, &other) in ins.iter().enumerate() {
                        if i == j {
                            continue;
                        }
                        let hold = match c.kind() {
                            GateKind::And | GateKind::Nand => cc(other).cc1,
                            _ => cc(other).cc0,
                        };
                        cost = sat_add(cost, hold);
                    }
                    out.push((net, cost));
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                for (i, &net) in ins.iter().enumerate() {
                    let mut cost = sat_add(out_co, 1);
                    for (j, &other) in ins.iter().enumerate() {
                        if i != j {
                            cost = sat_add(cost, cc(other).easiest());
                        }
                    }
                    out.push((net, cost));
                }
            }
            GateKind::Mux2 => {
                let (a, b, s) = (ins[0], ins[1], ins[2]);
                out.push((a, sat_add(out_co, sat_add(cc(s).cc0, 1))));
                out.push((b, sat_add(out_co, sat_add(cc(s).cc1, 1))));
                // Observing the select needs the arms to differ; use the
                // cheaper arm as an optimistic bound.
                let arm = cc(a).easiest().min(cc(b).easiest());
                out.push((s, sat_add(out_co, sat_add(arm, 1))));
            }
            GateKind::Mux4 => {
                let sel = mux4_sel_costs(cc(ins[4]), cc(ins[5]));
                let mut best_arm = INF;
                for (arm, &sc) in ins[..4].iter().zip(&sel) {
                    out.push((*arm, sat_add(out_co, sat_add(sc, 1))));
                    best_arm = best_arm.min(cc(*arm).easiest());
                }
                out.push((ins[4], sat_add(out_co, sat_add(best_arm, 1))));
                out.push((ins[5], sat_add(out_co, sat_add(best_arm, 1))));
            }
        }
    }

    fn join(&self, into: &mut u32, from: &u32) -> bool {
        if *from < *into {
            *into = *from;
            true
        } else {
            false
        }
    }

    fn widen(&self, _value: &mut u32) {
        // Same finite-descent argument as controllability.
    }
}

/// Controllability + observability scores for a netlist.
pub struct ScoapFacts {
    /// CC0/CC1 per net.
    pub cc: Solution<CcPair>,
    /// CO per net (`INF` when no primary output can see the net).
    pub co: Solution<u32>,
}

/// Compute SCOAP facts for `nl`.
pub fn scoap_facts(nl: &Netlist) -> ScoapFacts {
    let cc = solve(nl, &CcDomain, Config::default());
    let co = solve(nl, &CoDomain::new(&cc), Config::default());
    ScoapFacts { cc, co }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn textbook_scores_on_an_and_gate() {
        let mut nl = Netlist::new("and");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        nl.mark_output(y, "y");
        let f = scoap_facts(&nl);
        assert_eq!(*f.cc.net(a), CcPair { cc0: 1, cc1: 1 });
        // AND: cc1 = 1+1+1 = 3, cc0 = min(1,1)+1 = 2.
        assert_eq!(*f.cc.net(y), CcPair { cc0: 2, cc1: 3 });
        assert_eq!(*f.co.net(y), 0);
        // Observing `a` needs b=1: 0 + 1 + 1 = 2.
        assert_eq!(*f.co.net(a), 2);
    }

    #[test]
    fn constants_and_dead_nets_saturate() {
        let mut nl = Netlist::new("sat");
        let a = nl.add_input("a");
        let one = nl.add_const(true);
        let y = nl.add_gate(GateKind::Or, &[a, one]).unwrap();
        nl.mark_output(y, "y");
        let dead = nl.add_gate(GateKind::Inv, &[a]).unwrap();
        let f = scoap_facts(&nl);
        assert_eq!(f.cc.net(one).cc0, INF, "const 1 never reads 0");
        assert_eq!(*f.co.net(dead), INF, "no PO sees the dangling inverter");
    }

    #[test]
    fn dffs_add_a_frame_in_both_directions() {
        let mut nl = Netlist::new("seq");
        let a = nl.add_input("a");
        let q = nl.add_dff(a).unwrap();
        nl.mark_output(q, "q");
        let f = scoap_facts(&nl);
        assert_eq!(*f.cc.net(q), CcPair { cc0: 2, cc1: 2 });
        assert_eq!(*f.co.net(a), 1);
    }
}
