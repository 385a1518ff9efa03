//! Experiment harness for `glitchlock`: binaries regenerating every table
//! and figure of the paper, plus microbenchmarks on an in-repo harness.
//!
//! Binaries (run with `cargo run --release -p glitchlock-bench --bin …`):
//!
//! * `table1` — available flip-flops for GK encryption (paper Table I).
//! * `table2` — cell/area overhead for 4/8/16 GKs and the 8 GK + 16 XOR
//!   hybrid (paper Table II).
//! * `sat_attack_experiment` — the Sec. VI SAT-attack runs: UNSAT at the
//!   first DIP iteration on every GK-locked benchmark, with XOR-locked
//!   baselines cracked for contrast.
//! * `figures` — textual reproductions of the timing diagrams and window
//!   analyses of Figs. 4, 6, 7 and 9.
//!
//! Benches (`cargo bench -p glitchlock-bench`): `sat_solver` and
//! `packed_eval`, which write `BENCH_sat.json` and `BENCH_packed_eval.json`.

#![deny(missing_docs)]

pub mod harness;
/// The scoped-thread fan-out the experiment binaries use; it lives in
/// `glitchlock-jobs` now (the campaign pool is built on it) and is
/// re-exported here so `glitchlock_bench::parallel::parallel_map` keeps
/// working.
pub use glitchlock_jobs::pool as parallel;

use glitchlock_core::gk::GkDesign;
use glitchlock_core::GkLocked;
use glitchlock_sta::ClockModel;
use glitchlock_stdcell::Library;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Paper reference values for Table I: (bench, cells, ffs, ava_ff, cov_pct,
/// ava_ff_encrypt_ff).
pub const PAPER_TABLE1: &[(&str, usize, usize, usize, f64, usize)] = &[
    ("s1238", 341, 18, 16, 88.89, 4),
    ("s5378", 775, 163, 104, 63.80, 89),
    ("s9234", 613, 145, 74, 51.03, 59),
    ("s13207", 901, 330, 185, 56.06, 36),
    ("s15850", 447, 134, 58, 43.28, 51),
    ("s38417", 5397, 1564, 1037, 66.30, 920),
    ("s38584", 5304, 1168, 924, 79.11, 105),
];

/// Paper reference values for Table II: per benchmark, `(cell_oh, area_oh)`
/// percents for 4 GKs, 8 GKs, 16 GKs, and the 8 GK + 16 XOR hybrid
/// (`None` where the paper prints a dash).
#[allow(clippy::type_complexity)]
pub const PAPER_TABLE2: &[(
    &str,
    Option<(f64, f64)>,
    Option<(f64, f64)>,
    Option<(f64, f64)>,
    Option<(f64, f64)>,
)] = &[
    ("s1238", Some((22.87, 38.51)), None, None, None),
    (
        "s5378",
        Some((10.06, 9.12)),
        Some((17.29, 16.93)),
        Some((33.03, 37.91)),
        Some((21.68, 19.65)),
    ),
    (
        "s9234",
        Some((8.81, 8.54)),
        Some((19.90, 20.49)),
        Some((38.34, 42.37)),
        Some((21.53, 21.78)),
    ),
    (
        "s13207",
        Some((6.77, 5.79)),
        Some((15.09, 11.10)),
        Some((29.97, 23.10)),
        Some((13.65, 11.08)),
    ),
    (
        "s15850",
        Some((15.44, 9.30)),
        Some((28.41, 21.23)),
        Some((54.59, 42.76)),
        Some((33.11, 25.46)),
    ),
    (
        "s38417",
        Some((0.74, 1.71)),
        Some((2.17, 0.66)),
        Some((4.22, 4.32)),
        Some((2.20, 0.66)),
    ),
    (
        "s38584",
        Some((1.69, 1.80)),
        Some((2.93, 2.92)),
        Some((5.64, 6.20)),
        Some((3.20, 3.26)),
    ),
];

/// Locks a benchmark profile with `n_gks` GKs under the paper's default GK
/// design, deterministic in `seed`.
///
/// # Errors
///
/// Propagates insertion errors (e.g. not enough feasible flip-flops).
pub fn lock_profile(
    profile: &glitchlock_circuits::Profile,
    n_gks: usize,
    seed: u64,
) -> Result<GkLocked, glitchlock_core::CoreError> {
    let nl = glitchlock_circuits::generate(profile);
    let lib = Library::cl013g_like();
    let clock = ClockModel::new(profile.clock_period);
    let mut rng = StdRng::seed_from_u64(seed);
    glitchlock_core::GkEncryptor {
        n_gks,
        design: GkDesign::paper_default(),
        prefer_encrypt_ff_group: true,
        mix_schemes: false,
        share_keygens: false,
    }
    .encrypt(&nl, &lib, &clock, &mut rng)
}

/// Formats an optional percent pair as `"c/a"` or `"-"`.
pub fn fmt_pair(p: Option<(f64, f64)>) -> String {
    match p {
        Some((c, a)) => format!("{c:5.2}/{a:5.2}"),
        None => "     -    ".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_are_complete() {
        assert_eq!(PAPER_TABLE1.len(), 7);
        assert_eq!(PAPER_TABLE2.len(), 7);
        let avg: f64 = PAPER_TABLE1.iter().map(|r| r.4).sum::<f64>() / 7.0;
        assert!((avg - 64.07).abs() < 0.01, "paper's Table I average");
    }

    #[test]
    fn lock_profile_smoke() {
        let p = glitchlock_circuits::profile_by_name("s1238").unwrap();
        let locked = lock_profile(&p, 2, 1).unwrap();
        assert_eq!(locked.key_width(), 4);
    }
}
