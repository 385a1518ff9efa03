//! Regenerates paper Table II: cell and area overhead after inserting 4, 8,
//! and 16 GKs, and the hybrid 8 GKs + 16 XOR key-gates (32 key inputs).
//!
//! ```text
//! cargo run --release -p glitchlock-bench --bin table2
//! ```

use glitchlock_bench::parallel::parallel_map;
use glitchlock_bench::{fmt_pair, lock_profile, PAPER_TABLE2};
use glitchlock_circuits::{iwls2005_profiles, Profile};
use glitchlock_core::locking::{LockScheme, XorLock};
use glitchlock_stdcell::Library;
use glitchlock_synth::Overhead;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn overhead_for(profile: &Profile, n_gks: usize, lib: &Library) -> Option<(f64, f64)> {
    let (original, locked) = lock_profile(profile, n_gks, 0xBEEF + n_gks as u64).ok()?;
    let oh = Overhead::measure(lib, &original, &locked.netlist);
    Some((oh.cell_overhead_pct(), oh.area_overhead_pct()))
}

/// Hybrid of Table II column 4: 8 GKs + 16 XOR key-gates = 32 key inputs.
fn hybrid_for(profile: &Profile, lib: &Library) -> Option<(f64, f64)> {
    let (original, locked) = lock_profile(profile, 8, 0xBEEF + 99).ok()?;
    let mut rng = StdRng::seed_from_u64(0xBEEF + 100);
    let hybrid = XorLock::new(16).lock(&locked.netlist, &mut rng).ok()?;
    let oh = Overhead::measure(lib, &original, &hybrid.netlist);
    Some((oh.cell_overhead_pct(), oh.area_overhead_pct()))
}

fn main() {
    let lib = Library::cl013g_like();
    println!("TABLE II — Overhead after inserting different numbers of GKs");
    println!("(cell OH % / area OH %; '-' = not enough feasible FFs, as in the paper)\n");
    println!(
        "{:<8} | {:>11} {:>11} {:>11} {:>11} | paper {:>11} {:>11} {:>11} {:>11}",
        "Bench.", "4 GK", "8 GK", "16 GK", "8GK+16XOR", "4 GK", "8 GK", "16 GK", "8GK+16XOR"
    );
    let mut sums = [(0.0f64, 0.0f64, 0usize); 4];
    // The paper inserts 8/16 GKs "if applicable"; s1238 (18 FFs) only
    // takes 4. Our feasibility analysis enforces the same limit. The 28
    // lock+measure runs are independent: fan out per benchmark.
    let profiles = iwls2005_profiles();
    let all_cols = parallel_map(&profiles, |profile| {
        [
            overhead_for(profile, 4, &lib),
            overhead_for(profile, 8, &lib),
            overhead_for(profile, 16, &lib),
            hybrid_for(profile, &lib),
        ]
    });
    for ((profile, paper), cols) in profiles.iter().zip(PAPER_TABLE2).zip(all_cols) {
        for (i, c) in cols.iter().enumerate() {
            if let Some((cell, area)) = c {
                sums[i].0 += cell;
                sums[i].1 += area;
                sums[i].2 += 1;
            }
        }
        println!(
            "{:<8} | {} {} {} {} | paper {} {} {} {}",
            profile.name,
            fmt_pair(cols[0]),
            fmt_pair(cols[1]),
            fmt_pair(cols[2]),
            fmt_pair(cols[3]),
            fmt_pair(paper.1),
            fmt_pair(paper.2),
            fmt_pair(paper.3),
            fmt_pair(paper.4),
        );
    }
    let avg = |i: usize| -> Option<(f64, f64)> {
        (sums[i].2 > 0).then(|| (sums[i].0 / sums[i].2 as f64, sums[i].1 / sums[i].2 as f64))
    };
    println!(
        "{:<8} | {} {} {} {} | paper { :>11} {:>11} {:>11} {:>11}",
        "Avg.",
        fmt_pair(avg(0)),
        fmt_pair(avg(1)),
        fmt_pair(avg(2)),
        fmt_pair(avg(3)),
        " 9.48/10.68",
        "14.30/12.22",
        "27.63/26.11",
        "15.90/13.65",
    );
    println!("\nKey observation to reproduce: overhead grows with GK count, and the");
    println!("hybrid (same 32 key inputs) costs roughly half of 16 pure GKs.");
}
