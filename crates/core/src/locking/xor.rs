//! Classic XOR/XNOR logic locking (Roy et al. \[9\]; paper Fig. 1).

use crate::locking::{lockable_nets, splice_on_net, LockScheme, Locked};
use crate::CoreError;
use glitchlock_netlist::{GateKind, Netlist};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Inserts `n_bits` XOR/XNOR key-gates in series on random nets. An XOR
/// gate is transparent under key 0 (its correct key bit), an XNOR gate
/// under key 1 — so an attacker cannot tell buffers from inverters without
/// the key (Fig. 1's argument).
#[derive(Clone, Copy, Debug)]
pub struct XorLock {
    /// Number of key bits / key-gates.
    pub n_bits: usize,
}

impl XorLock {
    /// A lock with `n_bits` key-gates.
    pub fn new(n_bits: usize) -> Self {
        XorLock { n_bits }
    }
}

impl LockScheme for XorLock {
    fn lock(&self, original: &Netlist, rng: &mut dyn RngCore) -> Result<Locked, CoreError> {
        let mut netlist = original.clone();
        let mut sites = lockable_nets(&netlist);
        if sites.len() < self.n_bits {
            return Err(CoreError::NotEnoughSites {
                requested: self.n_bits,
                available: sites.len(),
            });
        }
        sites.shuffle(rng);
        let mut key_inputs = Vec::with_capacity(self.n_bits);
        let mut correct_key = Vec::with_capacity(self.n_bits);
        for (i, &site) in sites.iter().take(self.n_bits).enumerate() {
            let key = netlist.add_input(format!("key{i}"));
            let use_xnor: bool = rng.gen();
            let kind = if use_xnor {
                GateKind::Xnor
            } else {
                GateKind::Xor
            };
            splice_on_net(&mut netlist, site, kind, &[key])?;
            key_inputs.push(key);
            correct_key.push(use_xnor);
        }
        netlist.validate()?;
        netlist.shrink_to_fit();
        crate::locking::record_lock("lock_xor", key_inputs.len());
        Ok(Locked {
            netlist,
            original: original.clone(),
            key_inputs,
            correct_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::Logic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adder() -> Netlist {
        let mut nl = Netlist::new("add");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let s1 = nl.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let s = nl.add_gate(GateKind::Xor, &[s1, c]).unwrap();
        let g1 = nl.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = nl.add_gate(GateKind::And, &[s1, c]).unwrap();
        let co = nl.add_gate(GateKind::Or, &[g1, g2]).unwrap();
        nl.mark_output(s, "s");
        nl.mark_output(co, "co");
        nl
    }

    #[test]
    fn correct_key_recovers_function_exhaustively() {
        let nl = adder();
        let mut rng = StdRng::seed_from_u64(3);
        let locked = XorLock::new(4).lock(&nl, &mut rng).unwrap();
        assert_eq!(locked.key_width(), 4);
        for bits in 0u8..8 {
            let data: Vec<Logic> = (0..3)
                .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                .collect();
            let expect = nl.eval_comb(&data);
            let inputs = locked.assemble_inputs(&data, &locked.correct_key);
            assert_eq!(locked.netlist.eval_comb(&inputs), expect, "bits {bits:03b}");
        }
    }

    #[test]
    fn some_wrong_key_corrupts_some_input() {
        let nl = adder();
        let mut rng = StdRng::seed_from_u64(4);
        let locked = XorLock::new(3).lock(&nl, &mut rng).unwrap();
        let mut wrong = locked.correct_key.clone();
        wrong[0] = !wrong[0];
        let corrupted = (0u8..8).any(|bits| {
            let data: Vec<Logic> = (0..3)
                .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                .collect();
            let expect = nl.eval_comb(&data);
            let inputs = locked.assemble_inputs(&data, &wrong);
            locked.netlist.eval_comb(&inputs) != expect
        });
        assert!(
            corrupted,
            "flipping a key bit must corrupt at least one pattern"
        );
    }

    #[test]
    fn too_many_bits_rejected() {
        let nl = adder();
        let mut rng = StdRng::seed_from_u64(5);
        let err = XorLock::new(1000).lock(&nl, &mut rng).unwrap_err();
        assert!(matches!(err, CoreError::NotEnoughSites { .. }));
    }

    #[test]
    fn key_gate_count_matches_bits() {
        let nl = adder();
        let mut rng = StdRng::seed_from_u64(6);
        let locked = XorLock::new(4).lock(&nl, &mut rng).unwrap();
        let before = nl.stats().gates;
        assert_eq!(locked.netlist.stats().gates, before + 4);
    }
}
