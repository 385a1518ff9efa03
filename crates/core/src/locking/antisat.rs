//! Anti-SAT locking (Xie & Srivastava \[13\]).
//!
//! The Anti-SAT block computes `Y = g(X ⊕ K_a) ∧ ḡ(X ⊕ K_b)` with `g` an
//! AND tree. When `K_a = K_b` (the correct relation) `Y ≡ 0`; any other
//! key makes `Y = 1` on exactly one input pattern, so the SAT attack
//! eliminates one key pair per DIP. Like SARLock, the block's output is
//! skewed almost-always-0 — removal-attack bait.

use crate::locking::{LockScheme, Locked};
use crate::CoreError;
use glitchlock_netlist::{GateKind, NetId, Netlist};
use rand::{Rng, RngCore};

/// An Anti-SAT block over the first `n` primary inputs (2·`n` key bits).
#[derive(Clone, Copy, Debug)]
pub struct AntiSat {
    /// Width of the AND trees (`n`); key width is `2n`.
    pub n: usize,
}

impl AntiSat {
    /// An Anti-SAT block of width `n`.
    pub fn new(n: usize) -> Self {
        AntiSat { n }
    }
}

impl LockScheme for AntiSat {
    fn lock(&self, original: &Netlist, rng: &mut dyn RngCore) -> Result<Locked, CoreError> {
        if original.input_nets().len() < self.n || original.output_ports().len() == 0 {
            return Err(CoreError::NotEnoughSites {
                requested: self.n,
                available: original.input_nets().len(),
            });
        }
        let mut netlist = original.clone();
        let xs: Vec<NetId> = netlist.input_nets()[..self.n].to_vec();
        // Correct keys: K_a = K_b (bitwise); the shared value is random.
        let shared: Vec<bool> = (0..self.n).map(|_| rng.gen()).collect();
        let mut key_inputs = Vec::with_capacity(2 * self.n);
        let mut a_terms = Vec::with_capacity(self.n);
        let mut b_terms = Vec::with_capacity(self.n);
        for (i, &x) in xs.iter().enumerate() {
            let ka = netlist.add_input(format!("ka{i}"));
            a_terms.push(netlist.add_gate(GateKind::Xor, &[x, ka])?);
            key_inputs.push(ka);
        }
        for (i, &x) in xs.iter().enumerate() {
            let kb = netlist.add_input(format!("kb{i}"));
            b_terms.push(netlist.add_gate(GateKind::Xor, &[x, kb])?);
            key_inputs.push(kb);
        }
        let g = netlist.add_gate(GateKind::And, &a_terms)?;
        let gbar = netlist.add_gate(GateKind::Nand, &b_terms)?;
        let y = netlist.add_gate(GateKind::And, &[g, gbar])?;
        let (po_net, _) = netlist.output_port(0);
        let flipped = netlist.add_gate(GateKind::Xor, &[po_net, y])?;
        netlist.rewire_output_po(po_net, flipped);
        netlist.validate()?;
        netlist.shrink_to_fit();
        let mut correct_key = shared.clone();
        correct_key.extend(shared);
        crate::locking::record_lock("lock_antisat", key_inputs.len());
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

    fn toy() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let y = nl.add_gate(GateKind::Or, &[a, b, c]).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    fn eval(locked: &Locked, data: &[Logic], key: &[bool]) -> Vec<Logic> {
        let inputs = locked.assemble_inputs(data, key);
        locked.netlist.eval_comb(&inputs)
    }

    #[test]
    fn equal_key_halves_never_flip() {
        let nl = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let locked = AntiSat::new(3).lock(&nl, &mut rng).unwrap();
        assert_eq!(locked.key_width(), 6);
        // Any K_a = K_b is functionally correct, not just the drawn one.
        for kbits in 0u8..8 {
            let half: Vec<bool> = (0..3).map(|i| kbits >> i & 1 == 1).collect();
            let mut key = half.clone();
            key.extend(half);
            for bits in 0u8..8 {
                let data: Vec<Logic> = (0..3)
                    .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                    .collect();
                assert_eq!(eval(&locked, &data, &key), nl.eval_comb(&data));
            }
        }
    }

    #[test]
    fn unequal_halves_flip_exactly_one_pattern() {
        let nl = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let locked = AntiSat::new(3).lock(&nl, &mut rng).unwrap();
        let mut key = locked.correct_key.clone();
        key[4] = !key[4]; // perturb K_b only
        let mismatches = (0u8..8)
            .filter(|&bits| {
                let data: Vec<Logic> = (0..3)
                    .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                    .collect();
                eval(&locked, &data, &key) != nl.eval_comb(&data)
            })
            .count();
        assert_eq!(mismatches, 1);
    }

    #[test]
    fn needs_enough_inputs() {
        let mut nl = Netlist::new("small");
        let a = nl.add_input("a");
        nl.mark_output(a, "y");
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            AntiSat::new(2).lock(&nl, &mut rng),
            Err(CoreError::NotEnoughSites { .. })
        ));
    }
}
