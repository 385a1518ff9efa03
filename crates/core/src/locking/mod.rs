//! Baseline logic-locking schemes the paper positions GK against.
//!
//! * [`XorLock`] — classic XOR/XNOR key-gates (Roy et al. \[9\], Fig. 1):
//!   broken by the SAT attack.
//! * [`MuxLock`] — MUX key-gates selecting between the true signal and a
//!   decoy.
//! * [`Tdk`] — Tunable Delay Key-gate delay locking (Xie et al. \[12\],
//!   Fig. 2): defeated by removal + re-synthesis + SAT.
//! * [`SarLock`] — SARLock point-function locking \[14\]: SAT-resistant but
//!   located by probability-skew removal attacks.
//! * [`AntiSat`] — Anti-SAT \[13\]: same fate.

mod antisat;
mod mux;
mod sarlock;
mod tdk;
mod xor;

pub use antisat::AntiSat;
pub use mux::MuxLock;
pub use sarlock::SarLock;
pub use tdk::{Tdk, TdkLocked};
pub use xor::XorLock;

use crate::CoreError;
use glitchlock_netlist::{NetId, Netlist};
use glitchlock_obs::{self as obs, names};
use rand::RngCore;

/// A combinationally-keyed locked design (static key bits).
#[derive(Clone, Debug)]
pub struct Locked {
    /// The locked netlist (key inputs are extra primary inputs).
    pub netlist: Netlist,
    /// The original design (the attack oracle).
    pub original: Netlist,
    /// The key-input nets in key order.
    pub key_inputs: Vec<NetId>,
    /// The correct key.
    pub correct_key: Vec<bool>,
}

impl Locked {
    /// Key width.
    pub fn key_width(&self) -> usize {
        self.key_inputs.len()
    }

    /// Full input vector for [`Netlist::eval_comb`] on the locked netlist:
    /// the data inputs followed-or-interleaved per the netlist's input
    /// order, with key inputs taken from `key`.
    ///
    /// # Panics
    ///
    /// Panics if widths disagree.
    pub fn assemble_inputs(
        &self,
        data: &[glitchlock_netlist::Logic],
        key: &[bool],
    ) -> Vec<glitchlock_netlist::Logic> {
        assert_eq!(key.len(), self.key_inputs.len());
        let mut out = Vec::with_capacity(self.netlist.input_nets().len());
        let mut di = 0;
        for &net in self.netlist.input_nets() {
            if let Some(ki) = self.key_inputs.iter().position(|&k| k == net) {
                out.push(glitchlock_netlist::Logic::from_bool(key[ki]));
            } else {
                out.push(data[di]);
                di += 1;
            }
        }
        assert_eq!(di, data.len(), "data width mismatch");
        out
    }
}

/// A logic-locking scheme producing statically-keyed designs.
pub trait LockScheme {
    /// Locks `original`, adding key inputs and returning the correct key.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotEnoughSites`] when the design is too small
    /// for the requested key width.
    fn lock(&self, original: &Netlist, rng: &mut dyn RngCore) -> Result<Locked, CoreError>;
}

/// Splices a key-gate in series on `net`: every existing reader of `net`
/// (including primary-output bindings) is rewired to the new gate's output.
/// Returns the new gate's output net.
pub(crate) fn splice_on_net(
    netlist: &mut Netlist,
    net: NetId,
    kind: glitchlock_netlist::GateKind,
    extra_inputs: &[NetId],
) -> Result<NetId, CoreError> {
    let old_fanout: Vec<_> = netlist.net(net).fanout().to_vec();
    let mut ins = vec![net];
    ins.extend_from_slice(extra_inputs);
    let y = netlist.add_gate(kind, &ins)?;
    for (cell, pin) in old_fanout {
        netlist.rewire_input(cell, pin, y)?;
    }
    netlist.rewire_output_po(net, y);
    Ok(y)
}

/// Candidate nets for in-series key-gate insertion: nets driven by logic or
/// inputs (not constants), excluding nets already created for keys.
pub(crate) fn lockable_nets(netlist: &Netlist) -> Vec<NetId> {
    use glitchlock_netlist::GateKind;
    netlist
        .nets()
        .filter(|(_, n)| {
            n.driver()
                .map(|d| {
                    let k = netlist.cell(d).kind();
                    !matches!(k, GateKind::Const0 | GateKind::Const1)
                })
                .unwrap_or(false)
        })
        .filter(|(id, n)| !n.fanout().is_empty() || netlist.output_ports().any(|(po, _)| po == *id))
        .map(|(id, _)| id)
        .collect()
}

/// Records one completed lock in the obs registry: bumps the shared
/// scheme counters and (when tracing) emits a `result` event naming the
/// scheme and its key width.
pub(crate) fn record_lock(scheme: &str, key_bits: usize) {
    let collector = obs::current();
    collector.counter(names::LOCK_DESIGNS).incr();
    collector.counter(names::LOCK_KEYBITS).add(key_bits as u64);
    obs::event("result", scheme)
        .u64("key_width", key_bits as u64)
        .emit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::{GateKind, Logic};

    #[test]
    fn splice_rewires_all_readers_and_pos() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let y1 = nl.add_gate(GateKind::Inv, &[w]).unwrap();
        nl.mark_output(w, "w");
        nl.mark_output(y1, "y1");
        let k = nl.add_input("k");
        let new = splice_on_net(&mut nl, w, GateKind::Xor, &[k]).unwrap();
        // Old readers now read the key-gate.
        assert_eq!(nl.output_port(0).0, new);
        let inv = nl.net(y1).driver().unwrap();
        assert_eq!(nl.cell(inv).inputs()[0], new);
        // The key-gate reads the original net.
        assert_eq!(nl.net(w).fanout().len(), 1);
        // Behaviour: k = 0 transparent, k = 1 inverts.
        assert_eq!(
            nl.eval_comb(&[Logic::One, Logic::One, Logic::Zero]),
            vec![Logic::One, Logic::Zero]
        );
        assert_eq!(
            nl.eval_comb(&[Logic::One, Logic::One, Logic::One]),
            vec![Logic::Zero, Logic::One]
        );
    }

    #[test]
    fn lockable_nets_exclude_constants_and_dead() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let c = nl.add_const(true);
        let y = nl.add_gate(GateKind::And, &[a, c]).unwrap();
        nl.mark_output(y, "y");
        let sites = lockable_nets(&nl);
        assert!(sites.contains(&a));
        assert!(sites.contains(&y));
        assert!(!sites.contains(&c));
    }
}
