//! Ablation (beyond the paper): the **dynamic-power** cost of GK locking.
//!
//! Each GK deliberately injects one glitch per clock cycle at a flip-flop
//! D pin, plus KEYGEN toggling — switching activity the original design
//! never had. Table II prices the silicon; this experiment prices the
//! toggles, using the simulator's capacitance-weighted activity proxy.
//!
//! ```text
//! cargo run --release -p glitchlock-bench --bin ablation_power
//! ```

use glitchlock_bench::lock_profile;
use glitchlock_bench::parallel::parallel_map;
use glitchlock_circuits::{iwls2005_profiles, tiny};
use glitchlock_core::KeyBit;
use glitchlock_netlist::{Logic, NetId, Netlist};
use glitchlock_sim::activity::activity;
use glitchlock_sim::{ClockSpec, SimConfig, Simulator, Stimulus};
use glitchlock_stdcell::{Library, Ps};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_activity(
    netlist: &Netlist,
    lib: &Library,
    period: Ps,
    cycles: u64,
    key: &[(NetId, KeyBit)],
    seed: u64,
) -> glitchlock_sim::activity::ActivityReport {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stim = Stimulus::new();
    for &ff in netlist.dff_cells() {
        stim.set_ff(ff, Logic::Zero);
    }
    for &(net, bit) in key {
        if let KeyBit::Const(v) = bit {
            stim.set(net, Logic::from_bool(v));
        }
    }
    let key_nets: Vec<NetId> = key.iter().map(|&(n, _)| n).collect();
    for &pi in netlist.input_nets() {
        if key_nets.contains(&pi) {
            continue;
        }
        stim.set(pi, Logic::from_bool(rng.gen()));
        for c in 0..cycles {
            stim.at(period * (c + 1) + Ps(200), pi, Logic::from_bool(rng.gen()));
        }
    }
    let cfg = SimConfig::new().with_clock(ClockSpec::new(period));
    let res = Simulator::new(netlist, lib, cfg).run(&stim, period * (cycles + 2));
    activity(netlist, &res)
}

fn main() {
    let lib = Library::cl013g_like();
    let cycles = 12;
    println!("Dynamic-power proxy (capacitance-weighted toggles) over {cycles} cycles,");
    println!("correct key applied; 8 GKs per design.\n");
    println!(
        "{:<8} | {:>12} | {:>12} | power overhead",
        "Bench.", "original", "GK-locked"
    );
    // The full-size profiles simulate too; keep to the smaller ones plus
    // tiny for a quick sweep.
    let mut profiles = vec![tiny(9)];
    profiles.extend(iwls2005_profiles().into_iter().filter(|p| p.cells <= 1000));
    // Original + locked timed simulations per benchmark, fanned out.
    let rows = parallel_map(&profiles, |profile| {
        let (original, locked) = lock_profile(profile, 8, 0x9034 + profile.cells as u64).ok()?;
        let period = profile.clock_period;
        let base = run_activity(&original, &lib, period, cycles, &[], 5);
        let key: Vec<(NetId, KeyBit)> = locked
            .key_inputs
            .iter()
            .copied()
            .zip(locked.correct_key.bits().iter().copied())
            .collect();
        let gk = run_activity(&locked.netlist, &lib, period, cycles, &key, 5);
        Some((base, gk))
    });
    for (profile, row) in profiles.iter().zip(rows) {
        let Some((base, gk)) = row else {
            println!("{:<8} | insufficient feasible flip-flops", profile.name);
            continue;
        };
        println!(
            "{:<8} | {:>12} | {:>12} | +{:.1}%",
            profile.name,
            base.weighted_toggles,
            gk.weighted_toggles,
            (gk.relative_to(&base) - 1.0) * 100.0
        );
    }
    println!("\nThe glitch is not free: every locked flip-flop pays one extra");
    println!("transition pair per cycle plus its KEYGEN's toggling — a cost the");
    println!("paper's area-only accounting does not show.");
}
