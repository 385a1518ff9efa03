//! MUX-based logic locking: each key bit selects between the true signal
//! and a decoy signal.

use crate::locking::{lockable_nets, LockScheme, Locked};
use crate::CoreError;
use glitchlock_netlist::{GateKind, NetId, Netlist};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};

/// Inserts `n_bits` 2:1 MUX key-gates. Each selects the true net under the
/// correct key bit and a random decoy net otherwise.
#[derive(Clone, Copy, Debug)]
pub struct MuxLock {
    /// Number of key bits / key-gates.
    pub n_bits: usize,
}

impl MuxLock {
    /// A lock with `n_bits` MUX key-gates.
    pub fn new(n_bits: usize) -> Self {
        MuxLock { n_bits }
    }
}

impl LockScheme for MuxLock {
    fn lock(&self, original: &Netlist, rng: &mut dyn RngCore) -> Result<Locked, CoreError> {
        let mut netlist = original.clone();
        let mut sites = lockable_nets(&netlist);
        if sites.len() < self.n_bits + 1 {
            return Err(CoreError::NotEnoughSites {
                requested: self.n_bits,
                available: sites.len().saturating_sub(1),
            });
        }
        sites.shuffle(rng);
        let decoy_pool = sites.clone();
        let mut key_inputs = Vec::with_capacity(self.n_bits);
        let mut correct_key = Vec::with_capacity(self.n_bits);
        let mut locked_count = 0;
        let mut site_iter = sites.into_iter();
        while locked_count < self.n_bits {
            let Some(site) = site_iter.next() else {
                return Err(CoreError::NotEnoughSites {
                    requested: self.n_bits,
                    available: locked_count,
                });
            };
            // Try decoys until the insertion stays acyclic.
            match self.try_insert(&mut netlist, site, &decoy_pool, locked_count, rng)? {
                Some((key, bit)) => {
                    key_inputs.push(key);
                    correct_key.push(bit);
                    locked_count += 1;
                }
                None => continue,
            }
        }
        netlist.validate()?;
        netlist.shrink_to_fit();
        crate::locking::record_lock("lock_mux", key_inputs.len());
        Ok(Locked {
            netlist,
            original: original.clone(),
            key_inputs,
            correct_key,
        })
    }
}

impl MuxLock {
    fn try_insert(
        &self,
        netlist: &mut Netlist,
        site: NetId,
        decoy_pool: &[NetId],
        index: usize,
        rng: &mut dyn RngCore,
    ) -> Result<Option<(NetId, bool)>, CoreError> {
        for _attempt in 0..8 {
            let decoy = decoy_pool[rng.gen_range(0..decoy_pool.len())];
            if decoy == site {
                continue;
            }
            let snapshot = netlist.clone();
            let key = netlist.add_input(format!("key{index}"));
            // Correct bit random: bit=0 means the true signal is on in0.
            let bit: bool = rng.gen();
            // sel=1 selects in1: the true signal sits there when bit=1.
            let ins = if bit {
                [decoy, site, key]
            } else {
                [site, decoy, key]
            };
            let y = netlist.add_gate(GateKind::Mux2, &ins)?;
            netlist.replace_uses(site, y)?;
            if netlist.topo_order().is_ok() {
                return Ok(Some((key, bit)));
            }
            // Cycle through the decoy: roll back and retry.
            *netlist = snapshot;
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_netlist::Logic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn circuit() -> Netlist {
        let mut nl = Netlist::new("c");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let w1 = nl.add_gate(GateKind::Nand, &[a, b]).unwrap();
        let w2 = nl.add_gate(GateKind::Nor, &[a, b]).unwrap();
        let y = nl.add_gate(GateKind::Xor, &[w1, w2]).unwrap();
        nl.mark_output(y, "y");
        nl
    }

    #[test]
    fn correct_key_preserves_function() {
        let nl = circuit();
        let mut rng = StdRng::seed_from_u64(11);
        let locked = MuxLock::new(2).lock(&nl, &mut rng).unwrap();
        for bits in 0u8..4 {
            let data: Vec<Logic> = (0..2)
                .map(|i| Logic::from_bool(bits >> i & 1 == 1))
                .collect();
            let expect = nl.eval_comb(&data);
            let inputs = locked.assemble_inputs(&data, &locked.correct_key);
            assert_eq!(locked.netlist.eval_comb(&inputs), expect, "bits {bits:02b}");
        }
    }

    #[test]
    fn result_is_acyclic_across_seeds() {
        let nl = circuit();
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let locked = MuxLock::new(2).lock(&nl, &mut rng).unwrap();
            locked.netlist.validate().unwrap();
        }
    }

    #[test]
    fn too_many_bits_rejected() {
        let nl = circuit();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            MuxLock::new(50).lock(&nl, &mut rng),
            Err(CoreError::NotEnoughSites { .. })
        ));
    }
}
