//! Regenerates paper Table I: the number of available flip-flops for GK
//! encryption per benchmark, with the Encrypt-FF \[4\] selection column.
//!
//! ```text
//! cargo run --release -p glitchlock-bench --bin table1
//! ```

use glitchlock_bench::parallel::parallel_map;
use glitchlock_bench::PAPER_TABLE1;
use glitchlock_circuits::{generate, iwls2005_profiles};
use glitchlock_core::encrypt_ff::select_encrypt_ff;
use glitchlock_core::feasibility::analyze_feasibility;
use glitchlock_core::gk::GkDesign;
use glitchlock_sta::ClockModel;
use glitchlock_stdcell::Library;

fn main() {
    let lib = Library::cl013g_like();
    let design = GkDesign::paper_default();
    println!("TABLE I — The number of available FFs for encryption");
    println!("(GKs transmit on the level of a 1ns glitch; clock 3ns; measured on");
    println!(" synthetic IWLS2005-calibrated benchmarks — see EXPERIMENTS.md)\n");
    println!(
        "{:<8} {:>6} {:>6} | {:>8} {:>9} {:>12} | paper: {:>8} {:>9} {:>12}",
        "Bench.",
        "Cell",
        "FF",
        "Ava. FF",
        "Cov. (%)",
        "Ava. FF [4]",
        "Ava. FF",
        "Cov. (%)",
        "Ava. FF [4]"
    );
    let mut cov_sum = 0.0;
    let mut paper_cov_sum = 0.0;
    // Per-benchmark feasibility analyses are independent; fan them out and
    // print in deterministic order.
    let profiles = iwls2005_profiles();
    let rows = parallel_map(&profiles, |profile| {
        let nl = generate(profile);
        let stats = nl.stats();
        let clock = ClockModel::new(profile.clock_period);
        let report = analyze_feasibility(&nl, &lib, &clock, &design);
        let available = report.available();
        let group = select_encrypt_ff(&nl, &available).expect("generated profiles are acyclic");
        (stats, available.len(), report.coverage_pct(), group.len())
    });
    for ((profile, paper), (stats, available, cov, group)) in
        profiles.iter().zip(PAPER_TABLE1).zip(rows)
    {
        cov_sum += cov;
        paper_cov_sum += paper.4;
        println!(
            "{:<8} {:>6} {:>6} | {:>8} {:>9.2} {:>12} | paper: {:>8} {:>9.2} {:>12}",
            profile.name, stats.cells, stats.dffs, available, cov, group, paper.3, paper.4, paper.5
        );
    }
    println!(
        "{:<8} {:>6} {:>6} | {:>8} {:>9.2} {:>12} | paper: {:>8} {:>9.2}",
        "Avg.",
        "",
        "",
        "",
        cov_sum / 7.0,
        "",
        "",
        paper_cov_sum / 7.0
    );
}
