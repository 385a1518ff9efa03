//! The Sec. VI SAT-attack experiment: transform each GK-encrypted
//! benchmark to combinational (flip-flop D/Q as pseudo-POs/PIs), strip the
//! KEYGENs, treat GK key pins as design key inputs, and run the SAT attack.
//!
//! Expected result (paper): "the attack stopped at the first iteration of
//! searching the DIP and reported unsatisfiable" — on every benchmark and
//! key width. XOR-locked baselines are cracked for contrast.
//!
//! ```text
//! cargo run --release -p glitchlock-bench --bin sat_attack_experiment
//! ```

use glitchlock_attacks::sat_attack::SatOutcome;
use glitchlock_attacks::SatAttack;
use glitchlock_bench::lock_profile;
use glitchlock_bench::parallel::parallel_map;
use glitchlock_circuits::{generate, iwls2005_profiles};
use glitchlock_core::locking::{LockScheme, XorLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    println!("SAT attack on GK-encrypted benchmarks (KEYGEN removed, GK keys as");
    println!("design key inputs, sequential circuits unfolded combinationally)\n");
    println!(
        "{:<8} {:>6} {:>10} | {:>12} {:>10} {:>9}",
        "Bench.", "GKs", "key bits", "outcome", "DIP iters", "time"
    );
    // The 21 runs are independent; fan them out across threads and print
    // in deterministic order.
    let jobs: Vec<_> = iwls2005_profiles()
        .into_iter()
        .flat_map(|p| [4usize, 8, 16].map(|n| (p, n)))
        .collect();
    let run_one = |profile: &glitchlock_circuits::Profile, n_gks: usize| -> String {
        let Ok((original, locked)) = lock_profile(profile, n_gks, 0xA77AC4 + n_gks as u64) else {
            return format!(
                "{:<8} {:>6} {:>10} | {:>12}",
                profile.name,
                n_gks,
                2 * n_gks,
                "- (sites)"
            );
        };
        let start = Instant::now();
        let result = SatAttack::new(
            &locked.attack_view,
            locked.attack_key_inputs.clone(),
            &original,
        )
        .run();
        let elapsed = start.elapsed();
        let outcome = match result.outcome {
            SatOutcome::NoDipAtFirstIteration { .. } => "UNSAT@iter1",
            SatOutcome::KeyRecovered { .. } => "CRACKED(!)",
            SatOutcome::IterationLimit => "limit",
            SatOutcome::Cancelled => "cancelled",
        };
        format!(
            "{:<8} {:>6} {:>10} | {:>12} {:>10} {:>8.2?}",
            profile.name,
            n_gks,
            2 * n_gks,
            outcome,
            result.iterations,
            elapsed
        )
    };
    for line in parallel_map(&jobs, |(profile, n_gks)| run_one(profile, *n_gks)) {
        println!("{line}");
    }

    println!("\nContrast: conventional XOR/XNOR locking on the same benchmarks");
    println!(
        "{:<8} {:>10} | {:>12} {:>10} {:>9}",
        "Bench.", "key bits", "outcome", "DIP iters", "time"
    );
    let xor_profiles: Vec<_> = iwls2005_profiles().into_iter().take(4).collect();
    let xor_rows = parallel_map(&xor_profiles, |profile| {
        let nl = generate(profile);
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let locked = XorLock::new(16).lock(&nl, &mut rng).expect("lockable");
        let start = Instant::now();
        let result = SatAttack::new(&locked.netlist, locked.key_inputs.clone(), &nl).run();
        let elapsed = start.elapsed();
        let outcome = match result.outcome {
            SatOutcome::KeyRecovered { .. } => "CRACKED",
            SatOutcome::NoDipAtFirstIteration { .. } => "no dip?",
            SatOutcome::IterationLimit => "limit",
            SatOutcome::Cancelled => "cancelled",
        };
        format!(
            "{:<8} {:>10} | {:>12} {:>10} {:>8.2?}",
            profile.name, 16, outcome, result.iterations, elapsed
        )
    });
    for line in xor_rows {
        println!("{line}");
    }
    println!("\nWithout DIPs, SAT attack is invalid (paper Sec. VI).");
}
