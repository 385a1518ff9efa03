//! Recipe → test-case materialization.
//!
//! Turns a [`Recipe`] into a concrete netlist plus lock outcome. The
//! mapping is *total* and deterministic: every recipe yields a valid,
//! acyclic netlist (gate sources are reduced modulo the nets available at
//! each point), and lockers that cannot be applied (too few sites, no
//! feasible flip-flops) produce [`LockOutcome::Skipped`] rather than an
//! error, so the fuzz loop and the shrinker never have to special-case
//! half-built designs.

use crate::recipe::{GateGene, LockGene, NetlistGene, Recipe};
use glitchlock_circuits::custom_profile;
use glitchlock_core::gk::GkDesign;
use glitchlock_core::locking::{AntiSat, LockScheme, Locked, MuxLock, SarLock, Tdk, XorLock};
use glitchlock_core::{GkEncryptor, GkLocked};
use glitchlock_netlist::{NetId, Netlist};
use glitchlock_sta::ClockModel;
use glitchlock_stdcell::{Library, Ps};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What locking produced for a case.
#[derive(Clone, Debug)]
pub enum LockOutcome {
    /// The recipe asked for no lock.
    Unlocked,
    /// The locker declined (e.g. not enough sites / no feasible flip-flop).
    Skipped {
        /// Scheme that was attempted.
        scheme: &'static str,
        /// Why it could not be applied.
        reason: String,
    },
    /// A statically-keyed lock (XOR, MUX, SARLock, Anti-SAT, TDK).
    Static(Box<Locked>),
    /// A glitch-key-gate lock with KEYGEN (timing-domain key).
    Gk(Box<GkLocked>),
}

/// A materialized fuzz case.
#[derive(Clone, Debug)]
pub struct TestCase {
    /// The genotype this case was built from.
    pub recipe: Recipe,
    /// The original (unlocked) netlist.
    pub netlist: Netlist,
    /// Clock period the case is judged at.
    pub period: Ps,
    /// Lock result.
    pub lock: LockOutcome,
}

/// Salt mixed into the recipe seed for the locking RNG, so netlist-level
/// and lock-level randomness stay independent.
const LOCK_SALT: u64 = 0x6c6f_636b_5f73_616c;

/// Builds the netlist and applies the lock.
pub fn materialize(recipe: &Recipe, library: &Library) -> TestCase {
    let (netlist, period) = match &recipe.netlist {
        NetlistGene::Gates {
            n_inputs,
            n_ffs,
            gates,
            ff_taps,
            po_taps,
        } => (
            build_gates(*n_inputs, *n_ffs, gates, ff_taps, po_taps),
            Ps::from_ns(3),
        ),
        NetlistGene::Profile {
            cells,
            ffs,
            inputs,
            outputs,
            period_ns,
            coverage,
            seed,
        } => {
            let profile = custom_profile(
                *cells,
                *ffs,
                *inputs,
                *outputs,
                Ps::from_ns(*period_ns),
                *coverage,
                *seed,
            );
            (
                glitchlock_circuits::generate(&profile),
                profile.clock_period,
            )
        }
    };
    let lock = apply_lock(recipe, &netlist, period, library);
    TestCase {
        recipe: recipe.clone(),
        netlist,
        period,
        lock,
    }
}

fn apply_lock(recipe: &Recipe, netlist: &Netlist, period: Ps, library: &Library) -> LockOutcome {
    let mut rng = StdRng::seed_from_u64(recipe.seed ^ LOCK_SALT);
    let static_lock =
        |scheme: &'static str, r: Result<Locked, glitchlock_core::CoreError>| -> LockOutcome {
            match r {
                Ok(locked) => LockOutcome::Static(Box::new(locked)),
                Err(e) => LockOutcome::Skipped {
                    scheme,
                    reason: e.to_string(),
                },
            }
        };
    match recipe.lock {
        LockGene::None => LockOutcome::Unlocked,
        LockGene::Xor { bits } => static_lock("xor", XorLock::new(bits).lock(netlist, &mut rng)),
        LockGene::Mux { bits } => static_lock("mux", MuxLock::new(bits).lock(netlist, &mut rng)),
        LockGene::SarLock { bits } => {
            static_lock("sarlock", SarLock::new(bits).lock(netlist, &mut rng))
        }
        LockGene::AntiSat { n } => static_lock("antisat", AntiSat::new(n).lock(netlist, &mut rng)),
        LockGene::Tdk { n } => static_lock(
            "tdk",
            Tdk::new(n)
                .lock_with_library(netlist, library, &mut rng)
                .map(|t| t.locked),
        ),
        LockGene::Gk {
            n_gks,
            mix,
            share,
            glitch_ps,
        } => {
            let encryptor = GkEncryptor {
                mix_schemes: mix,
                share_keygens: share,
                design: GkDesign {
                    l_glitch: Ps(glitch_ps),
                    ..GkDesign::paper_default()
                },
                ..GkEncryptor::new(n_gks)
            };
            match encryptor.encrypt(netlist, library, &ClockModel::new(period), &mut rng) {
                Ok(locked) => LockOutcome::Gk(Box::new(locked)),
                Err(e) => LockOutcome::Skipped {
                    scheme: "gk",
                    reason: e.to_string(),
                },
            }
        }
    }
}

/// Materializes the gate genome. Total: any gene vector yields a valid
/// netlist (sources reduced modulo the pool, arities repaired by cycling).
fn build_gates(
    n_inputs: usize,
    n_ffs: usize,
    gates: &[GateGene],
    ff_taps: &[usize],
    po_taps: &[usize],
) -> Netlist {
    let n_inputs = n_inputs.max(1);
    let mut nl = Netlist::new("fuzzcase");
    let mut pool: Vec<NetId> = (0..n_inputs)
        .map(|i| nl.add_input(format!("in{i}")))
        .collect();
    // Flip-flops initially feed from input 0; D pins are rewired to their
    // taps once the whole pool exists (no dangling placeholder nets).
    let mut ff_cells = Vec::with_capacity(n_ffs);
    for i in 0..n_ffs {
        let q = nl
            .add_dff_named(pool[0], format!("ff{i}"))
            .expect("dff arity");
        ff_cells.push(nl.net(q).driver().expect("dff drives q"));
        pool.push(q);
    }
    for gene in gates {
        let avail = pool.len();
        let arity = match gene.kind.fixed_arity() {
            Some(a) => a,
            // n-ary gates: keep the gene's width, clamped to a sane range.
            None => gene.srcs.len().clamp(2, 6),
        };
        let srcs: Vec<NetId> = (0..arity)
            .map(|j| {
                let raw = gene
                    .srcs
                    .get(j % gene.srcs.len().max(1))
                    .copied()
                    .unwrap_or(j);
                pool[raw % avail]
            })
            .collect();
        let y = nl
            .add_gate(gene.kind, &srcs)
            .expect("repaired arity is legal");
        pool.push(y);
    }
    for (i, &ff) in ff_cells.iter().enumerate() {
        let tap = ff_taps.get(i).copied().unwrap_or(i) % pool.len();
        nl.rewire_input(ff, 0, pool[tap]).expect("ff exists");
    }
    for (i, t) in po_taps.iter().enumerate() {
        nl.mark_output(pool[t % pool.len()], format!("po{i}"));
    }
    nl.validate().expect("materialized netlist is valid");
    nl
}

/// Re-expresses a netlist as an explicit gate genome, so the shrinker can
/// delta-debug cases that were born from a [`NetlistGene::Profile`].
///
/// Returns `None` when the netlist uses a cell the genome cannot express
/// or contains a combinational cycle.
pub fn genes_from_netlist(netlist: &Netlist, lock: LockGene, seed: u64) -> Option<Recipe> {
    let order = netlist.topo_order_cached().ok()?;
    let mut pool_index = std::collections::HashMap::new();
    for (i, &pi) in netlist.input_nets().iter().enumerate() {
        pool_index.insert(pi, i);
    }
    let n_inputs = netlist.input_nets().len();
    let n_ffs = netlist.dff_cells().len();
    for (i, &ff) in netlist.dff_cells().iter().enumerate() {
        pool_index.insert(netlist.cell(ff).output(), n_inputs + i);
    }
    let mut gates = Vec::with_capacity(order.len());
    for &cell in order {
        let c = netlist.cell(cell);
        crate::recipe::kind_name(c.kind())?;
        let srcs: Option<Vec<usize>> = c
            .inputs()
            .iter()
            .map(|n| pool_index.get(n).copied())
            .collect();
        gates.push(GateGene {
            kind: c.kind(),
            srcs: srcs?,
        });
        pool_index.insert(c.output(), n_inputs + n_ffs + gates.len() - 1);
    }
    let ff_taps: Option<Vec<usize>> = netlist
        .dff_cells()
        .iter()
        .map(|&ff| pool_index.get(&netlist.cell(ff).inputs()[0]).copied())
        .collect();
    let po_taps: Option<Vec<usize>> = netlist
        .output_ports()
        .map(|(n, _)| pool_index.get(&n).copied())
        .collect();
    Some(Recipe {
        seed,
        netlist: NetlistGene::Gates {
            n_inputs,
            n_ffs,
            gates,
            ff_taps: ff_taps?,
            po_taps: po_taps?,
        },
        lock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recipe::random_recipe;
    use glitchlock_netlist::{GateKind, Logic, SeqState};

    fn lib() -> Library {
        Library::cl013g_like().with_gk_delay_macros()
    }

    #[test]
    fn materialization_is_deterministic_and_valid() {
        let library = lib();
        for seed in 0..30 {
            let r = random_recipe(seed);
            let a = materialize(&r, &library);
            let b = materialize(&r, &library);
            a.netlist.validate().unwrap();
            assert_eq!(
                glitchlock_netlist::bench_format::emit(&a.netlist),
                glitchlock_netlist::bench_format::emit(&b.netlist),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn degenerate_genes_still_materialize() {
        // Empty gate list, out-of-range taps, zero inputs: all repaired.
        let r = Recipe {
            seed: 1,
            netlist: NetlistGene::Gates {
                n_inputs: 0,
                n_ffs: 2,
                gates: vec![GateGene {
                    kind: GateKind::Mux4,
                    srcs: vec![999],
                }],
                ff_taps: vec![77, 88],
                po_taps: vec![1234],
            },
            lock: LockGene::Xor { bits: 1 },
        };
        let case = materialize(&r, &lib());
        case.netlist.validate().unwrap();
        assert_eq!(case.netlist.stats().inputs, 1);
    }

    #[test]
    fn genes_round_trip_preserves_sequential_behaviour() {
        let library = lib();
        for seed in [3u64, 11, 19] {
            let r = random_recipe(seed);
            let case = materialize(&r, &library);
            let Some(back) = genes_from_netlist(&case.netlist, LockGene::None, r.seed) else {
                panic!("gene netlists are always expressible");
            };
            let rebuilt = materialize(&back, &library).netlist;
            let n_in = case.netlist.input_nets().len();
            assert_eq!(rebuilt.input_nets().len(), n_in);
            let mut sa = SeqState::reset(&case.netlist);
            let mut sb = SeqState::reset(&rebuilt);
            let mut rng = StdRng::seed_from_u64(99);
            use rand::Rng;
            for _ in 0..12 {
                let pat: Vec<Logic> = (0..n_in).map(|_| Logic::from_bool(rng.gen())).collect();
                assert_eq!(
                    sa.step(&case.netlist, &pat),
                    sb.step(&rebuilt, &pat),
                    "seed {seed}"
                );
            }
        }
    }
}
