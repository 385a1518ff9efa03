//! The full Sec. IV-B design flow on a paper-scale benchmark:
//! STA → feasible-location selection → GK + KEYGEN insertion with composed
//! delay elements → overhead accounting → post-insertion STA with false-
//! violation classification → timing-domain functional verification.
//!
//! ```text
//! cargo run --release --example design_flow [s5378]
//! ```

use glitchlock::core::encrypt_ff::select_encrypt_ff;
use glitchlock::core::feasibility::analyze_feasibility;
use glitchlock::core::gk::GkDesign;
use glitchlock::core::insertion::{classify_violations, timed_trace};
use glitchlock::core::{GkEncryptor, KeyBit};
use glitchlock::netlist::{Logic, NetId, SeqState};
use glitchlock::sta::{analyze, ClockModel};
use glitchlock::stdcell::Library;
use glitchlock::synth::Overhead;
use glitchlock_circuits::{generate, profile_by_name};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "s5378".to_string());
    let profile = profile_by_name(&name)
        .ok_or_else(|| format!("unknown benchmark {name:?} (try s1238, s5378, …)"))?;
    let lib = Library::cl013g_like();
    let clock = ClockModel::new(profile.clock_period);
    let mut rng = StdRng::seed_from_u64(42);

    println!("== 1. synthesize (generate) {name} ==");
    let nl = generate(&profile);
    let st = nl.stats();
    println!(
        "   cells {} | gates {} | FFs {} | PIs {} | POs {}",
        st.cells, st.gates, st.dffs, st.inputs, st.outputs
    );

    println!("\n== 2. sign-off STA at {} ==", profile.clock_period);
    let sta = analyze(&nl, &lib, &clock);
    println!("   WNS {}ps, all met: {}", sta.wns(), sta.all_met());
    println!("   critical path: {} cells", sta.critical_path().len());

    println!("\n== 3. feasible flip-flop analysis (Table I row) ==");
    let design = GkDesign::paper_default();
    let report = analyze_feasibility(&nl, &lib, &clock, &design);
    let available = report.available();
    println!(
        "   FF {} | available {} | coverage {:.2}%",
        st.dffs,
        available.len(),
        report.coverage_pct()
    );
    let group = select_encrypt_ff(&nl, &available)?;
    println!(
        "   Encrypt-FF group (same output cone): {} FFs",
        group.len()
    );

    println!("\n== 4. insert 4 GKs (8 key inputs) ==");
    let locked = GkEncryptor::new(4).encrypt(&nl, &lib, &clock, &mut rng)?;
    for (i, gk) in locked.gks.iter().enumerate() {
        println!(
            "   gk{i}: window ({}, {}) | D_pathA {} | D_pathB {} | correct {:?}",
            gk.window.lo, gk.window.hi, gk.gk.d_path_a, gk.gk.d_path_b, gk.correct
        );
    }

    println!("\n== 5. overhead (Table II accounting) ==");
    let oh = Overhead::measure(&lib, &nl, &locked.netlist);
    println!("   {oh}");

    println!("\n== 6. post-insertion STA: classify violations ==");
    let cls = classify_violations(&locked, &lib, &clock);
    println!(
        "   false violations (deliberate GK delays): {} | true violations: {}",
        cls.false_violations.len(),
        cls.true_violations.len()
    );

    println!("\n== 7. timing-domain verification with the correct key ==");
    let cycles = 8;
    let n_in = nl.input_nets().len();
    let inputs: Vec<Vec<Logic>> = (0..cycles)
        .map(|_| (0..n_in).map(|_| Logic::from_bool(rng.gen())).collect())
        .collect();
    let key_nets: Vec<(NetId, KeyBit)> = locked
        .key_inputs
        .iter()
        .copied()
        .zip(locked.correct_key.bits().iter().copied())
        .collect();
    let data_inputs: Vec<NetId> = nl.input_nets().to_vec();
    let tracked = nl.dff_cells().to_vec();
    let trace = timed_trace(
        &locked.netlist,
        &lib,
        profile.clock_period,
        &key_nets,
        &inputs,
        &data_inputs,
        &tracked,
    );
    let mut clean = 0;
    #[allow(clippy::needless_range_loop)] // c also indexes trace.states[c+1]
    for c in 0..cycles {
        let mut oracle = SeqState::from_values(&nl, trace.states[c].clone());
        let po = oracle.step(&nl, &inputs[c]);
        if trace.po[c] == po && trace.states[c + 1] == oracle.values() {
            clean += 1;
        }
    }
    println!("   {clean}/{cycles} cycles match the zero-delay oracle exactly");
    assert_eq!(clean, cycles, "correct key must preserve the function");
    println!("\nflow complete: design locked, verified, and SAT-attack-proof.");
    Ok(())
}
