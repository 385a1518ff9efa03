//! The fuzz loop: generate → judge → shrink → persist.
//!
//! Case seeds are derived from the master seed with a splitmix64 chain, so
//! `--seed S --cases N` is bit-for-bit reproducible and each case can be
//! replayed in isolation from its own seed. Wall-clock only ever affects
//! *how many* cases run (`--time-budget`); it never changes what any
//! individual case does.

use crate::corpus::save_case;
use crate::materialize::{materialize, TestCase};
use crate::recipe::{random_recipe, Recipe};
use crate::referees::{registry, Referee, RefereeCtx, Verdict};
use crate::reference::Inject;
use crate::shrink::shrink;
use glitchlock_netlist::bench_format;
use glitchlock_obs::{self as obs, names};
use glitchlock_stdcell::Library;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration of one fuzz run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Master seed; every case seed derives from it deterministically.
    pub seed: u64,
    /// Number of cases to attempt.
    pub cases: usize,
    /// Optional wall-clock cutoff (checked between cases).
    pub time_budget: Option<Duration>,
    /// Referee-name filter; empty means the full registry.
    pub referees: Vec<String>,
    /// Deliberate reference fault for negative testing.
    pub inject: Inject,
    /// Where to persist shrunk reproducers (`None`: report only).
    pub corpus_dir: Option<PathBuf>,
    /// Oracle-call budget per shrink.
    pub shrink_budget: usize,
    /// Stop after this many distinct failures.
    pub max_failures: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            cases: 100,
            time_budget: None,
            referees: Vec::new(),
            inject: Inject::None,
            corpus_dir: None,
            shrink_budget: 300,
            max_failures: 3,
        }
    }
}

/// One caught, shrunk divergence.
#[derive(Clone, Debug)]
pub struct FailureRecord {
    /// Case index within the run.
    pub index: usize,
    /// Seed the failing case was generated from.
    pub case_seed: u64,
    /// Referee that failed.
    pub referee: String,
    /// The referee's divergence message (from the original, unshrunk case).
    pub message: String,
    /// The recipe as generated.
    pub recipe: Recipe,
    /// The minimized recipe (still failing the same referee).
    pub shrunk: Recipe,
    /// The referee's message on the minimized recipe: what the saved
    /// reproducer shows, which may differ from `message`.
    pub shrunk_message: String,
    /// Oracle calls the shrinker spent.
    pub shrink_spent: usize,
    /// Where the reproducer was persisted, when a corpus dir was given.
    pub corpus_path: Option<PathBuf>,
}

/// Aggregate result of a fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzReport {
    /// Cases actually executed (≤ `cases` under a time budget).
    pub cases_run: usize,
    /// Pass counts per referee name.
    pub passes: BTreeMap<String, usize>,
    /// Skip counts per referee name.
    pub skips: BTreeMap<String, usize>,
    /// All failures, in discovery order.
    pub failures: Vec<FailureRecord>,
    /// Wall-clock the run took (reporting only; never affects verdicts).
    pub elapsed: Duration,
}

impl FuzzReport {
    /// True when every executed case passed every selected referee.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// splitmix64: the per-case seed chain. Public so replay tooling and
/// tests can reconstruct any case from `master_seed` + index.
pub fn case_seed(master_seed: u64, index: usize) -> u64 {
    let mut z = master_seed.wrapping_add(
        (index as u64)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs one referee, turning a panic in any engine into a [`Verdict::Fail`]
/// (a crash on a valid netlist is as much a bug as a disagreement).
fn judge(referee: &Referee, ctx: &RefereeCtx<'_>) -> Verdict {
    match catch_unwind(AssertUnwindSafe(|| referee.run(ctx))) {
        Ok(v) => v,
        Err(payload) => Verdict::Fail(format!("panicked: {}", panic_text(&payload))),
    }
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Materializes a recipe, absorbing panics (`None` = the builder itself
/// crashed, which the shrink oracle treats as "still failing").
fn try_materialize(recipe: &Recipe, library: &Library) -> Option<TestCase> {
    catch_unwind(AssertUnwindSafe(|| materialize(recipe, library))).ok()
}

/// Selects referees by name; an empty filter selects everything.
///
/// # Errors
///
/// Returns the offending name when the filter names an unknown referee.
pub fn select_referees(filter: &[String]) -> Result<Vec<Referee>, String> {
    let all = registry();
    if filter.is_empty() {
        return Ok(all);
    }
    for want in filter {
        if !all.iter().any(|r| r.name == want) {
            return Err(format!("unknown referee `{want}` (try --list-referees)"));
        }
    }
    Ok(all
        .into_iter()
        .filter(|r| filter.iter().any(|w| w == r.name))
        .collect())
}

/// Runs the fuzz loop.
///
/// # Errors
///
/// Returns an error string for configuration problems (unknown referee
/// names) or corpus I/O failures; referee disagreements are *not* errors —
/// they are reported in [`FuzzReport::failures`].
pub fn run_fuzz(config: &FuzzConfig, library: &Library) -> Result<FuzzReport, String> {
    let _span = obs::span("fuzz.run");
    let collector = obs::current();
    let case_counter = collector.counter(names::FUZZ_CASES);
    let verdict_counter = collector.counter(names::FUZZ_VERDICTS);
    let pass_counter = collector.counter(names::FUZZ_PASSES);
    let skip_counter = collector.counter(names::FUZZ_SKIPS);
    let referees = select_referees(&config.referees)?;
    let started = Instant::now();
    let mut report = FuzzReport::default();
    for r in &referees {
        report.passes.insert(r.name.to_string(), 0);
        report.skips.insert(r.name.to_string(), 0);
    }
    for index in 0..config.cases {
        if let Some(budget) = config.time_budget {
            if started.elapsed() >= budget {
                break;
            }
        }
        if report.failures.len() >= config.max_failures {
            break;
        }
        let seed = case_seed(config.seed, index);
        let recipe = random_recipe(seed);
        report.cases_run += 1;
        case_counter.incr();
        let Some(case) = try_materialize(&recipe, library) else {
            let record =
                shrink_and_record(config, library, index, seed, &recipe, None, "materialize")?;
            report.failures.push(record);
            continue;
        };
        let ctx = RefereeCtx {
            case: &case,
            library,
            inject: config.inject,
        };
        for referee in &referees {
            match judge(referee, &ctx) {
                Verdict::Pass => {
                    *report.passes.get_mut(referee.name).expect("seeded") += 1;
                    verdict_counter.incr();
                    pass_counter.incr();
                }
                Verdict::Skip(_) => {
                    *report.skips.get_mut(referee.name).expect("seeded") += 1;
                    verdict_counter.incr();
                    skip_counter.incr();
                }
                Verdict::Fail(message) => {
                    verdict_counter.incr();
                    let record = shrink_and_record(
                        config,
                        library,
                        index,
                        seed,
                        &recipe,
                        Some(message),
                        referee.name,
                    )?;
                    report.failures.push(record);
                    break;
                }
            }
        }
    }
    report.elapsed = started.elapsed();
    for failure in &report.failures {
        obs::incr(names::FUZZ_FAILURES);
        obs::add(names::FUZZ_SHRINK_STEPS, failure.shrink_spent as u64);
        obs::event("result", "fuzz_failure")
            .str("referee", failure.referee.clone())
            .str_with("case_seed", || format!("{:016x}", failure.case_seed))
            .str("message", failure.message.clone())
            .emit();
    }
    let secs = report.elapsed.as_secs_f64();
    if secs > 0.0 {
        obs::gauge_set(names::FUZZ_CASES_PER_SEC, report.cases_run as f64 / secs);
    }
    Ok(report)
}

/// The failure message of a recipe the case builder panics on.
const MATERIALIZE_PANICKED: &str = "materialize panicked";

/// Shrinks a failing recipe against the referee that flagged it and
/// persists the reproducer, with the shrunk recipe's own failure message,
/// when a corpus directory is configured.
fn shrink_and_record(
    config: &FuzzConfig,
    library: &Library,
    index: usize,
    seed: u64,
    recipe: &Recipe,
    message: Option<String>,
    referee_name: &str,
) -> Result<FailureRecord, String> {
    let inject = config.inject;
    let failure_of = |candidate: &Recipe| -> Option<String> {
        let Some(case) = try_materialize(candidate, library) else {
            // The builder crashed: for a materialize failure that IS the
            // bug; for a referee failure it is a different bug, so reject.
            return (referee_name == "materialize").then(|| MATERIALIZE_PANICKED.to_string());
        };
        if referee_name == "materialize" {
            return None;
        }
        let ctx = RefereeCtx {
            case: &case,
            library,
            inject,
        };
        match registry()
            .iter()
            .find(|r| r.name == referee_name)
            .map(|r| judge(r, &ctx))
        {
            Some(Verdict::Fail(message)) => Some(message),
            _ => None,
        }
    };
    let mut still_fails = |candidate: &Recipe| failure_of(candidate).is_some();
    let (shrunk, shrink_spent) = shrink(recipe, library, &mut still_fails, config.shrink_budget);
    let message = message.unwrap_or_else(|| MATERIALIZE_PANICKED.to_string());
    // The shrinker keeps only failing recipes, so the shrunk one fails
    // too; its message is judged afresh, since it may name another score
    // or another value than the original case's.
    let shrunk_message = failure_of(&shrunk).unwrap_or_else(|| message.clone());
    let corpus_path = match &config.corpus_dir {
        Some(dir) => {
            let stem = format!("fuzz-{referee_name}-{seed:016x}");
            let bench_text = try_materialize(&shrunk, library)
                .map(|c| bench_format::emit(&c.netlist))
                .unwrap_or_else(|| "# materialization panics on this recipe\n".to_string());
            let path = save_case(
                dir,
                &stem,
                &shrunk,
                referee_name,
                &shrunk_message,
                &bench_text,
            )
            .map_err(|e| format!("persisting reproducer: {e}"))?;
            Some(path)
        }
        None => None,
    };
    Ok(FailureRecord {
        index,
        case_seed: seed,
        referee: referee_name.to_string(),
        message,
        recipe: recipe.clone(),
        shrunk,
        shrunk_message,
        shrink_spent,
        corpus_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Library {
        Library::cl013g_like().with_gk_delay_macros()
    }

    #[test]
    fn case_seeds_are_distinct_and_stable() {
        let a: Vec<u64> = (0..50).map(|i| case_seed(7, i)).collect();
        let b: Vec<u64> = (0..50).map(|i| case_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len());
        assert_ne!(case_seed(7, 0), case_seed(8, 0));
    }

    #[test]
    fn clean_run_is_deterministic() {
        let library = lib();
        let cfg = FuzzConfig {
            seed: 7,
            cases: 12,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&cfg, &library).expect("run");
        let b = run_fuzz(&cfg, &library).expect("run");
        assert!(a.clean(), "failures: {:?}", a.failures);
        assert_eq!(a.cases_run, 12);
        assert_eq!(a.passes, b.passes);
        assert_eq!(a.skips, b.skips);
    }

    #[test]
    fn injected_fault_is_caught_shrunk_and_persisted() {
        let library = lib();
        let dir = std::env::temp_dir().join("glitchlock-fuzz-runner-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = FuzzConfig {
            seed: 7,
            cases: 80,
            referees: vec!["scalar-vs-packed".to_string()],
            inject: Inject::XnorFlip,
            corpus_dir: Some(dir.clone()),
            shrink_budget: 300,
            max_failures: 1,
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&cfg, &library).expect("run");
        assert!(!report.clean(), "xnor-flip must be caught");
        let failure = &report.failures[0];
        assert_eq!(failure.referee, "scalar-vs-packed");
        let path = failure.corpus_path.as_ref().expect("persisted");
        assert!(path.exists());
        // The shrunk reproducer must still fail and must be small.
        let case = materialize(&failure.shrunk, &library);
        assert!(
            case.netlist.stats().gates <= 10,
            "{:?}",
            case.netlist.stats()
        );
        let ctx = RefereeCtx {
            case: &case,
            library: &library,
            inject: Inject::XnorFlip,
        };
        let verdict = registry()
            .iter()
            .find(|r| r.name == "scalar-vs-packed")
            .map(|r| r.run(&ctx))
            .expect("referee exists");
        assert!(matches!(verdict, Verdict::Fail(_)));
        // The saved `# message:` lines are the referee's verdict on the
        // saved recipe, not on the case before shrinking.
        let saved = crate::corpus::load_corpus(&dir).expect("load");
        assert_eq!(saved.len(), 1);
        let text = std::fs::read_to_string(path).expect("read");
        let message: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# message: "))
            .collect();
        let case = materialize(&saved[0].recipe, &library);
        let ctx = RefereeCtx {
            case: &case,
            library: &library,
            inject: Inject::XnorFlip,
        };
        let Verdict::Fail(rejudged) = judge(
            registry()
                .iter()
                .find(|r| r.name == "scalar-vs-packed")
                .expect("referee exists"),
            &ctx,
        ) else {
            panic!("the saved recipe passes");
        };
        assert_eq!(message.join("\n"), rejudged);
        assert_eq!(failure.shrunk_message, rejudged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_referee_is_rejected() {
        assert!(select_referees(&["no-such".to_string()]).is_err());
    }
}
