//! One-call bundle of every day-one domain over a keyed netlist.
//!
//! [`AnalysisFacts::compute`] runs constant/X propagation, raw and
//! refined key taint (sequential, i.e. through flip-flops), and SCOAP
//! scores, and emits the `analysis.*` observability counters. Lint's
//! analysis pass, `glk analyze`, and the acceptance tests all consume
//! this one structure so their numbers can never drift apart.

use crate::bitset::KeyBitSet;
use crate::consts::{const_facts, Ternary};
use crate::engine::Solution;
use crate::scoap::{scoap_facts, CcPair, ScoapFacts};
use crate::taint::{taint_facts, TaintMode};
use crate::vn::ValueNumbering;
use glitchlock_netlist::{NetId, Netlist};
use glitchlock_obs::{self as obs, names};

/// Everything the day-one domains know about one netlist.
pub struct AnalysisFacts {
    /// The tracked key-input nets; taint bit `i` is `keys[i]`.
    pub keys: Vec<NetId>,
    /// Constant/X facts under no pins (every input `X`).
    pub consts: Solution<Ternary>,
    /// Structural (raw) key taint, through flip-flops.
    pub raw: Solution<KeyBitSet>,
    /// Semantically refined key taint, through flip-flops.
    pub refined: Solution<KeyBitSet>,
    /// SCOAP controllability/observability scores.
    pub scoap: ScoapFacts,
    /// Value classes used by the refined rules.
    pub vn: ValueNumbering,
    /// Total transfer applications across all five fixpoints.
    pub iterations: u64,
    /// Nets that hit the widening threshold in any fixpoint.
    pub widened: u64,
}

impl AnalysisFacts {
    /// Runs every domain over `nl`, tracking the primary inputs whose
    /// name starts with `key_prefix` as key bits.
    pub fn compute(nl: &Netlist, key_prefix: &str) -> AnalysisFacts {
        let keys: Vec<NetId> = nl
            .input_nets()
            .iter()
            .copied()
            .filter(|&n| nl.net(n).name().starts_with(key_prefix))
            .collect();
        let consts = const_facts(nl, &[]);
        let vn = ValueNumbering::build(nl);
        let raw = taint_facts(nl, &keys, TaintMode::Raw, true);
        let refined = taint_facts(
            nl,
            &keys,
            TaintMode::Refined {
                vn: &vn,
                consts: &consts,
            },
            true,
        );
        let scoap = scoap_facts(nl);

        let iterations = consts.iterations
            + raw.iterations
            + refined.iterations
            + scoap.cc.iterations
            + scoap.co.iterations;
        let widened =
            consts.widened + raw.widened + refined.widened + scoap.cc.widened + scoap.co.widened;

        obs::incr(names::ANALYSIS_RUNS);
        obs::add(names::ANALYSIS_ITERATIONS, iterations);
        obs::add(names::ANALYSIS_NETS, nl.nets().len() as u64);
        obs::add(names::ANALYSIS_KEY_BITS, keys.len() as u64);
        if widened > 0 {
            obs::add(names::ANALYSIS_WIDENED, widened);
        }

        AnalysisFacts {
            keys,
            consts,
            raw,
            refined,
            scoap,
            vn,
            iterations,
            widened,
        }
    }

    /// Number of tracked key bits.
    pub fn key_width(&self) -> usize {
        self.keys.len()
    }

    /// Primary outputs whose refined taint contains `bit`, in port order.
    pub fn observable_pos(&self, nl: &Netlist, bit: usize) -> Vec<NetId> {
        nl.output_ports()
            .filter(|&(po, _)| self.refined.net(po).contains(bit))
            .map(|(po, _)| po)
            .collect()
    }

    /// Number of nets whose raw taint contains `bit`.
    pub fn raw_reach(&self, bit: usize) -> usize {
        self.raw.values().iter().filter(|t| t.contains(bit)).count()
    }

    /// Nets in `bit`'s raw cone that constant-collapse under all-`X`
    /// inputs — evidence that the bit's influence dies in provably
    /// constant logic.
    pub fn collapsed_nets(&self, nl: &Netlist, bit: usize) -> Vec<NetId> {
        nl.nets()
            .filter(|&(id, _)| self.raw.net(id).contains(bit) && self.consts.net(id).is_const())
            .map(|(id, _)| id)
            .collect()
    }

    /// SCOAP scores of `net` as `(cc0, cc1, co)`.
    pub fn scoap_of(&self, net: NetId) -> (u32, u32, u32) {
        let CcPair { cc0, cc1 } = *self.scoap.cc.net(net);
        (cc0, cc1, *self.scoap.co.net(net))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::GateKind;

    #[test]
    fn facts_bundle_reports_reachability_and_collapse() {
        let mut nl = Netlist::new("bundle");
        let a = nl.add_input("a");
        let k0 = nl.add_input("key0");
        let k1 = nl.add_input("key1");
        let zero = nl.add_const(false);
        let good = nl.add_gate(GateKind::Xor, &[a, k0]).unwrap();
        let masked = nl.add_gate(GateKind::And, &[k1, zero]).unwrap();
        let y = nl.add_gate(GateKind::Or, &[good, masked]).unwrap();
        nl.mark_output(y, "y");

        let facts = AnalysisFacts::compute(&nl, "key");
        assert_eq!(facts.key_width(), 2);
        assert_eq!(facts.observable_pos(&nl, 0), vec![y]);
        assert!(facts.observable_pos(&nl, 1).is_empty());
        assert!(facts.raw_reach(0) >= 2);
        assert!(facts.collapsed_nets(&nl, 0).is_empty());
        assert_eq!(facts.collapsed_nets(&nl, 1), vec![masked]);
        assert!(facts.iterations > 0);
    }
}
