//! SARLock point-function locking (Yasin et al. \[14\]).
//!
//! Adds a comparator block that flips one primary output exactly when the
//! data inputs equal the supplied key *and* the key is wrong: each DIP the
//! SAT attack finds eliminates only a single wrong key, forcing
//! exponentially many iterations. The cost (paper Sec. I): the flip signal
//! is almost always 0, a probability skew that removal attacks use to
//! locate and strip the block.

use crate::locking::{LockScheme, Locked};
use crate::CoreError;
use glitchlock_netlist::{GateKind, NetId, Netlist};
use rand::{Rng, RngCore};

/// SARLock over the first `n_bits` primary inputs.
#[derive(Clone, Copy, Debug)]
pub struct SarLock {
    /// Key width (compared against the same number of data inputs).
    pub n_bits: usize,
}

impl SarLock {
    /// A SARLock block of `n_bits`.
    pub fn new(n_bits: usize) -> Self {
        SarLock { n_bits }
    }
}

impl LockScheme for SarLock {
    fn lock(&self, original: &Netlist, rng: &mut dyn RngCore) -> Result<Locked, CoreError> {
        if original.input_nets().len() < self.n_bits || original.output_ports().len() == 0 {
            return Err(CoreError::NotEnoughSites {
                requested: self.n_bits,
                available: original.input_nets().len(),
            });
        }
        let mut netlist = original.clone();
        let xs: Vec<NetId> = netlist.input_nets()[..self.n_bits].to_vec();
        let correct_key: Vec<bool> = (0..self.n_bits).map(|_| rng.gen()).collect();

        let mut key_inputs = Vec::with_capacity(self.n_bits);
        let mut eq_key_terms = Vec::with_capacity(self.n_bits);
        let mut eq_const_terms = Vec::with_capacity(self.n_bits);
        for (i, &x) in xs.iter().enumerate() {
            let k = netlist.add_input(format!("key{i}"));
            key_inputs.push(k);
            eq_key_terms.push(netlist.add_gate(GateKind::Xnor, &[x, k])?);
            // Hard-wired comparator against the correct key — the masking
            // that keeps the correct key from ever flipping the output.
            let c = netlist.add_const(correct_key[i]);
            eq_const_terms.push(netlist.add_gate(GateKind::Xnor, &[x, c])?);
        }
        let eq_key = netlist.add_gate(GateKind::And, &eq_key_terms)?;
        let eq_const = netlist.add_gate(GateKind::And, &eq_const_terms)?;
        let not_const = netlist.add_gate(GateKind::Inv, &[eq_const])?;
        let flip = netlist.add_gate(GateKind::And, &[eq_key, not_const])?;

        // Flip the first primary output.
        let (po_net, _) = netlist.output_port(0);
        let flipped = netlist.add_gate(GateKind::Xor, &[po_net, flip])?;
        netlist.rewire_output_po(po_net, flipped);
        netlist.validate()?;
        netlist.shrink_to_fit();
        crate::locking::record_lock("lock_sarlock", key_inputs.len());
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
        let y = nl.add_gate(GateKind::And, &[a, b, c]).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    fn eval(locked: &Locked, data: &[Logic], key: &[bool]) -> Vec<Logic> {
        let inputs = locked.assemble_inputs(data, key);
        locked.netlist.eval_comb(&inputs)
    }

    #[test]
    fn correct_key_never_flips() {
        let nl = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let locked = SarLock::new(3).lock(&nl, &mut rng).unwrap();
        for bits in 0u8..8 {
            let data: Vec<Logic> = (0..3)
                .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                .collect();
            assert_eq!(
                eval(&locked, &data, &locked.correct_key),
                nl.eval_comb(&data),
                "bits {bits:03b}"
            );
        }
    }

    #[test]
    fn wrong_key_flips_exactly_one_pattern() {
        let nl = toy();
        let mut rng = StdRng::seed_from_u64(2);
        let locked = SarLock::new(3).lock(&nl, &mut rng).unwrap();
        let mut wrong = locked.correct_key.clone();
        wrong[1] = !wrong[1];
        let mismatches: Vec<u8> = (0u8..8)
            .filter(|&bits| {
                let data: Vec<Logic> = (0..3)
                    .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                    .collect();
                eval(&locked, &data, &wrong) != nl.eval_comb(&data)
            })
            .collect();
        assert_eq!(
            mismatches.len(),
            1,
            "SARLock: a wrong key corrupts exactly the pattern equal to it"
        );
        // The corrupted pattern is x == wrong key.
        let bits = mismatches[0];
        let pattern: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
        assert_eq!(pattern, wrong);
    }

    #[test]
    fn needs_enough_inputs() {
        let mut nl = Netlist::new("small");
        let a = nl.add_input("a");
        nl.mark_output(a, "y");
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            SarLock::new(4).lock(&nl, &mut rng),
            Err(CoreError::NotEnoughSites { .. })
        ));
    }
}
