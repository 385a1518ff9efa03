//! One campaign job: lock a benchmark, run an attack, classify the
//! outcome.
//!
//! The verdict vocabulary is the campaign's whole point — it reproduces
//! the outcome classes of the paper's Tables I–II discussion:
//!
//! * `key-recovered` — the attack produced the functionally correct key
//!   (SAT vs XOR/MUX, SAT vs small point functions).
//! * `wrong-key-under-static-abstraction` — the solver saw a
//!   key-independent miter (UNSAT at iteration 1) and its "any key works"
//!   answer is wrong on the chip: the GK headline result.
//! * `point-function-removed` — the skew-removal attack located and
//!   bypassed a SARLock/Anti-SAT flip signal.
//! * `nothing-located` / `located-not-removed` — removal found no target
//!   (GK sits at flip-flop D pins, not outputs) or its bypasses failed
//!   verification.
//!
//! Every job derives its RNG from its own id, so outcomes are independent
//! of scheduling: any worker, any order, any `--jobs` width produces the
//! same record.

use crate::journal::JobRecord;
use crate::spec::fnv1a64;
use glitchlock_attacks::{
    appsat::AppSat,
    removal::{
        bypass_net, cone_bypass_match_rate, locate_point_function_tainted, reachable_view_outputs,
    },
    sat_attack::key_match_rate,
    scan::{scan_hypothesis_attack, GkResolution},
    seq_sat::{seq_sat_attack_with_cancel, SeqSatOutcome},
    CancelToken, SatAttack, SatOutcome,
};
use glitchlock_core::locking::{AntiSat, LockScheme, MuxLock, SarLock, Tdk, XorLock};
use glitchlock_core::GkEncryptor;
use glitchlock_netlist::{NetId, Netlist};
use glitchlock_sta::ClockModel;
use glitchlock_stdcell::{Library, Ps};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// A locking scheme selectable in a campaign spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockerKind {
    /// XOR/XNOR key-gates.
    Xor,
    /// MUX key-gates.
    Mux,
    /// SARLock point function.
    SarLock,
    /// Anti-SAT point function.
    AntiSat,
    /// Tunable-delay key-gates.
    Tdk,
    /// Glitch key-gates (the paper's scheme; width = number of GKs).
    Gk,
}

impl LockerKind {
    /// Parses a spec tag.
    pub fn parse(tag: &str) -> Option<LockerKind> {
        Some(match tag {
            "xor" => LockerKind::Xor,
            "mux" => LockerKind::Mux,
            "sarlock" => LockerKind::SarLock,
            "antisat" => LockerKind::AntiSat,
            "tdk" => LockerKind::Tdk,
            "gk" => LockerKind::Gk,
            _ => return None,
        })
    }

    /// The canonical spec tag.
    pub fn tag(&self) -> &'static str {
        match self {
            LockerKind::Xor => "xor",
            LockerKind::Mux => "mux",
            LockerKind::SarLock => "sarlock",
            LockerKind::AntiSat => "antisat",
            LockerKind::Tdk => "tdk",
            LockerKind::Gk => "gk",
        }
    }
}

/// An attack selectable in a campaign spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AttackKind {
    /// Oracle-guided SAT attack.
    Sat,
    /// Approximate (AppSAT-style) attack.
    AppSat,
    /// Unrolled sequential SAT attack.
    SeqSat,
    /// Signal-probability-skew removal attack.
    Removal,
    /// Enhanced removal (locate GK, model as XOR, SAT).
    Enhanced,
    /// Scan-chain buffer/inverter hypothesis test.
    Scan,
}

impl AttackKind {
    /// Parses a spec tag.
    pub fn parse(tag: &str) -> Option<AttackKind> {
        Some(match tag {
            "sat" => AttackKind::Sat,
            "appsat" => AttackKind::AppSat,
            "seqsat" => AttackKind::SeqSat,
            "removal" => AttackKind::Removal,
            "enhanced" => AttackKind::Enhanced,
            "scan" => AttackKind::Scan,
            _ => return None,
        })
    }

    /// The canonical spec tag.
    pub fn tag(&self) -> &'static str {
        match self {
            AttackKind::Sat => "sat",
            AttackKind::AppSat => "appsat",
            AttackKind::SeqSat => "seqsat",
            AttackKind::Removal => "removal",
            AttackKind::Enhanced => "enhanced",
            AttackKind::Scan => "scan",
        }
    }
}

/// One fully-specified campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Benchmark name.
    pub bench: String,
    /// Locking scheme.
    pub locker: LockerKind,
    /// Key width (GK count for [`LockerKind::Gk`]).
    pub width: usize,
    /// Attack.
    pub attack: AttackKind,
    /// Campaign seed.
    pub seed: u64,
}

impl JobSpec {
    /// The job's stable id, e.g. `s27/xor4/sat/s1` — the journal key and
    /// the string the per-job RNG is derived from.
    pub fn id(&self) -> String {
        format!(
            "{}/{}{}/{}/s{}",
            self.bench,
            self.locker.tag(),
            self.width,
            self.attack.tag(),
            self.seed
        )
    }
}

/// Shared per-job tuning from the spec.
#[derive(Clone, Copy, Debug)]
pub struct Tuning {
    /// Iteration cap for the iterative attacks.
    pub max_iterations: usize,
    /// Sample count for skew scans and key-verification probes.
    pub samples: usize,
}

/// Resolves a benchmark name: the embedded ISCAS circuits by name, then
/// the generator profiles.
///
/// # Errors
///
/// Returns a message naming the unknown benchmark.
pub fn resolve_bench(name: &str) -> Result<Netlist, String> {
    match name {
        "s27" => Ok(glitchlock_circuits::s27()),
        "c17" => Ok(glitchlock_circuits::c17()),
        _ => glitchlock_circuits::profile_by_name(name)
            .map(|p| glitchlock_circuits::generate(&p))
            .ok_or_else(|| format!("unknown benchmark `{name}`")),
    }
}

/// Floats below this mismatch fraction count as a perfect key: one part in
/// a thousand absorbs nothing (rates are sample fractions), it just reads
/// better than `== 1.0` on a float.
const PERFECT: f64 = 0.999_999;

/// Runs one job to a record. Deterministic in the job spec alone: the RNG
/// is seeded from the job id, and the record carries no wall-clock. The
/// caller owns `attempts`/`wall_ms`/`metrics` (they are left zeroed) and
/// should run this under a scoped obs collector to capture the job's
/// instrumentation.
pub fn execute(job: &JobSpec, tuning: &Tuning, cancel: &CancelToken) -> JobRecord {
    let mut record = JobRecord {
        id: job.id(),
        status: "ok".to_string(),
        verdict: String::new(),
        detail: String::new(),
        iterations: 0,
        key_bits: 0,
        attempts: 0,
        wall_ms: 0,
        metrics: BTreeMap::new(),
    };
    let mut rng = StdRng::seed_from_u64(fnv1a64(&record.id));
    let oracle = match resolve_bench(&job.bench) {
        Ok(nl) => nl,
        Err(e) => {
            record.status = "failed".to_string();
            record.verdict = "unknown-bench".to_string();
            record.detail = e;
            return record;
        }
    };

    // Lock. A design too small for the requested width is a *skip*, not a
    // failure: the matrix cell exists but has no experiment behind it.
    let (view, key_inputs) = match lock(job, &oracle, &mut rng) {
        Ok(pair) => pair,
        Err(e) => {
            record.status = "skipped".to_string();
            record.verdict = "lock-failed".to_string();
            record.detail = e;
            return record;
        }
    };
    record.key_bits = key_inputs.len() as u64;

    match job.attack {
        AttackKind::Sat => {
            let mut attack = SatAttack::new(&view, key_inputs.clone(), &oracle);
            attack.max_iterations = tuning.max_iterations;
            attack.cancel = Some(cancel.clone());
            let result = attack.run();
            record.iterations = result.iterations as u64;
            match result.outcome {
                SatOutcome::KeyRecovered { key } => {
                    let rate =
                        key_match_rate(&view, &key_inputs, &key, &oracle, tuning.samples, &mut rng);
                    if rate >= PERFECT {
                        record.verdict = "key-recovered".to_string();
                    } else {
                        record.verdict = "key-recovered-wrong".to_string();
                        record.detail = format!("match rate {rate:.4}");
                    }
                }
                SatOutcome::NoDipAtFirstIteration { arbitrary_key } => {
                    let rate = key_match_rate(
                        &view,
                        &key_inputs,
                        &arbitrary_key,
                        &oracle,
                        tuning.samples,
                        &mut rng,
                    );
                    if rate >= PERFECT {
                        record.verdict = "statically-transparent".to_string();
                    } else {
                        record.verdict = "wrong-key-under-static-abstraction".to_string();
                        record.detail = format!("match rate {rate:.4}");
                    }
                }
                SatOutcome::IterationLimit => {
                    record.verdict = if result.iterations >= tuning.max_iterations {
                        "iteration-limit".to_string()
                    } else {
                        "constraints-exhausted".to_string()
                    };
                }
                SatOutcome::Cancelled => {
                    record.status = "timed-out".to_string();
                    record.verdict = "timed-out".to_string();
                }
            }
        }
        AttackKind::AppSat => {
            let cfg = AppSat {
                max_iterations: tuning.max_iterations,
                ..AppSat::default()
            };
            let result = cfg.run_with_cancel(&view, &key_inputs, &oracle, &mut rng, Some(cancel));
            record.iterations = result.dip_iterations as u64;
            if result.cancelled {
                record.status = "timed-out".to_string();
                record.verdict = "timed-out".to_string();
            } else if result.exact {
                record.verdict = "key-recovered".to_string();
            } else if result.dip_iterations == 0 && result.error_rate > 0.25 {
                record.verdict = "wrong-key-under-static-abstraction".to_string();
                record.detail = format!("probe error rate {:.4}", result.error_rate);
            } else if result.error_rate <= 0.02 {
                record.verdict = "approx-key-settled".to_string();
                record.detail = format!("probe error rate {:.4}", result.error_rate);
            } else {
                record.verdict = "high-error-key".to_string();
                record.detail = format!("probe error rate {:.4}", result.error_rate);
            }
        }
        AttackKind::SeqSat => {
            let result = seq_sat_attack_with_cancel(
                &view,
                &key_inputs,
                &oracle,
                3,
                tuning.max_iterations,
                Some(cancel),
            );
            record.iterations = result.iterations as u64;
            record.verdict = match result.outcome {
                SeqSatOutcome::KeyRecovered { .. } => "key-recovered".to_string(),
                SeqSatOutcome::NoDistinguishingSequence { .. } => {
                    "no-distinguishing-sequence".to_string()
                }
                SeqSatOutcome::IterationLimit => "iteration-limit".to_string(),
                SeqSatOutcome::Cancelled => {
                    record.status = "timed-out".to_string();
                    "timed-out".to_string()
                }
            };
        }
        AttackKind::Removal => {
            // SARLock/Anti-SAT flip signals pass for n=3 on ~11% of
            // patterns, so the skew threshold must sit above that; the
            // key-taint prune discards skew artifacts outside every key
            // cone, and bypass verification culls whatever it lets in.
            let candidates =
                locate_point_function_tainted(&view, &key_inputs, tuning.samples, 0.15, &mut rng);
            record.iterations = candidates.len() as u64;
            if candidates.is_empty() {
                record.verdict = "nothing-located".to_string();
            } else {
                let mut best_rate = 0.0_f64;
                let mut removed: Option<String> = None;
                // Each candidate's two bypasses (tied to 0, then 1) with
                // their relocated key inputs, kept for the cone retry.
                let mut bypasses = Vec::with_capacity(2 * candidates.len());
                for &net in &candidates {
                    for value in [false, true] {
                        let bypassed = bypass_net(&view, net, value);
                        let keys = relocate_inputs(&view, &key_inputs, &bypassed);
                        let rate = key_match_rate(
                            &bypassed,
                            &keys,
                            &vec![false; keys.len()],
                            &oracle,
                            tuning.samples,
                            &mut rng,
                        );
                        if rate > best_rate {
                            best_rate = rate;
                        }
                        if rate >= PERFECT {
                            removed = Some(view.net(net).name().to_string());
                            break;
                        }
                        bypasses.push((bypassed, keys));
                    }
                    if removed.is_some() {
                        break;
                    }
                }
                match removed {
                    Some(net) => {
                        record.verdict = "point-function-removed".to_string();
                        record.detail = format!("bypassed {net}");
                    }
                    None => {
                        // Full-design verification also demands outputs
                        // the candidate never reaches match the oracle —
                        // impossible when other key-gates corrupt them.
                        // Retry on the extracted cone of each candidate's
                        // reachable outputs before giving up, on the
                        // bypasses the full pass built.
                        let mut cone_best = 0.0_f64;
                        let mut cone_removed: Option<String> = None;
                        let retries = candidates.iter().zip(bypasses.chunks_exact(2));
                        'cone: for (&net, both) in retries {
                            let keep = reachable_view_outputs(&view, net);
                            if keep.is_empty() {
                                continue;
                            }
                            for (bypassed, keys) in both {
                                let rate = cone_bypass_match_rate(
                                    bypassed,
                                    keys,
                                    &vec![false; keys.len()],
                                    &oracle,
                                    &keep,
                                    tuning.samples,
                                    &mut rng,
                                );
                                cone_best = cone_best.max(rate);
                                if rate >= PERFECT {
                                    cone_removed = Some(view.net(net).name().to_string());
                                    break 'cone;
                                }
                            }
                        }
                        match cone_removed {
                            Some(net) => {
                                record.verdict = "cone-bypassed".to_string();
                                record.detail =
                                    format!("bypassed {net} on its cone; full rate {best_rate:.4}");
                            }
                            None => {
                                record.verdict = "located-not-removed".to_string();
                                record.detail =
                                    format!("best match rate {best_rate:.4} (cone {cone_best:.4})");
                            }
                        }
                    }
                }
            }
        }
        AttackKind::Enhanced => {
            use glitchlock_attacks::{enhanced_removal_attack, EnhancedOutcome};
            let outcome = enhanced_removal_attack(&view, &oracle, &[], tuning.max_iterations);
            record.verdict = match outcome {
                EnhancedOutcome::NothingLocated => "nothing-located".to_string(),
                EnhancedOutcome::Infeasible { lut_arity, .. } => {
                    record.detail = format!("opaque LUT arity {lut_arity}");
                    "infeasible-withheld".to_string()
                }
                EnhancedOutcome::Modelled { sat, .. } => {
                    record.iterations = sat.iterations as u64;
                    match sat.outcome {
                        SatOutcome::KeyRecovered { .. } => "modelled-key-recovered".to_string(),
                        SatOutcome::NoDipAtFirstIteration { .. } => "modelled-no-dip".to_string(),
                        SatOutcome::IterationLimit => "modelled-iteration-limit".to_string(),
                        SatOutcome::Cancelled => {
                            record.status = "timed-out".to_string();
                            "timed-out".to_string()
                        }
                    }
                }
            };
        }
        AttackKind::Scan => {
            let resolutions =
                scan_hypothesis_attack(&view, &key_inputs, &oracle, tuning.samples, &mut rng);
            record.iterations = resolutions.len() as u64;
            if resolutions.is_empty() {
                record.verdict = "no-gk-sites".to_string();
            } else {
                let resolved = resolutions
                    .iter()
                    .filter(|(_, r)| *r != GkResolution::Inconsistent)
                    .count();
                record.detail = format!("{resolved}/{} sites resolved", resolutions.len());
                record.verdict = if resolved == resolutions.len() {
                    "scan-resolved".to_string()
                } else {
                    "scan-ambiguous".to_string()
                };
            }
        }
    }
    record
}

/// Locks `oracle` per the job's scheme. Returns the attacker's view and
/// its key inputs. Shared with the render-time corruptibility pass.
pub(crate) fn lock(
    job: &JobSpec,
    oracle: &Netlist,
    rng: &mut StdRng,
) -> Result<(Netlist, Vec<NetId>), String> {
    let as_err = |e: glitchlock_core::CoreError| e.to_string();
    match job.locker {
        LockerKind::Xor => XorLock::new(job.width)
            .lock(oracle, rng)
            .map(|l| (l.netlist, l.key_inputs))
            .map_err(as_err),
        LockerKind::Mux => MuxLock::new(job.width)
            .lock(oracle, rng)
            .map(|l| (l.netlist, l.key_inputs))
            .map_err(as_err),
        LockerKind::SarLock => SarLock::new(job.width)
            .lock(oracle, rng)
            .map(|l| (l.netlist, l.key_inputs))
            .map_err(as_err),
        LockerKind::AntiSat => AntiSat::new(job.width)
            .lock(oracle, rng)
            .map(|l| (l.netlist, l.key_inputs))
            .map_err(as_err),
        LockerKind::Tdk => Tdk::new(job.width)
            .lock(oracle, rng)
            .map(|l| (l.netlist, l.key_inputs))
            .map_err(as_err),
        LockerKind::Gk => GkEncryptor::new(job.width)
            .encrypt(
                oracle,
                &Library::cl013g_like(),
                &ClockModel::new(Ps::from_ns(3)),
                rng,
            )
            .map(|l| (l.attack_view, l.attack_key_inputs))
            .map_err(as_err),
    }
}

/// Maps nets from `from` into `to` by input name — [`bypass_net`] rebuilds
/// the netlist, so `NetId`s do not carry over but input names do.
fn relocate_inputs(from: &Netlist, nets: &[NetId], to: &Netlist) -> Vec<NetId> {
    nets.iter()
        .filter_map(|&n| {
            let name = from.net(n).name();
            to.input_nets()
                .iter()
                .copied()
                .find(|&cand| to.net(cand).name() == name)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuning() -> Tuning {
        Tuning {
            max_iterations: 64,
            samples: 256,
        }
    }

    fn job(bench: &str, locker: LockerKind, width: usize, attack: AttackKind) -> JobSpec {
        JobSpec {
            bench: bench.to_string(),
            locker,
            width,
            attack,
            seed: 1,
        }
    }

    #[test]
    fn sat_breaks_xor_on_s27() {
        let rec = execute(
            &job("s27", LockerKind::Xor, 4, AttackKind::Sat),
            &tuning(),
            &CancelToken::new(),
        );
        assert_eq!(rec.status, "ok");
        assert_eq!(rec.verdict, "key-recovered");
        assert_eq!(rec.key_bits, 4);
    }

    #[test]
    fn sat_is_blind_against_gk_on_s27() {
        let rec = execute(
            &job("s27", LockerKind::Gk, 1, AttackKind::Sat),
            &tuning(),
            &CancelToken::new(),
        );
        assert_eq!(rec.status, "ok");
        assert_eq!(rec.verdict, "wrong-key-under-static-abstraction");
        assert_eq!(rec.iterations, 0);
    }

    #[test]
    fn removal_bypasses_sarlock_on_s27() {
        let rec = execute(
            &job("s27", LockerKind::SarLock, 3, AttackKind::Removal),
            &tuning(),
            &CancelToken::new(),
        );
        assert_eq!(rec.status, "ok");
        assert_eq!(rec.verdict, "point-function-removed");
    }

    #[test]
    fn oversized_width_is_a_skip_not_a_failure() {
        let rec = execute(
            &job("c17", LockerKind::SarLock, 40, AttackKind::Sat),
            &tuning(),
            &CancelToken::new(),
        );
        assert_eq!(rec.status, "skipped");
        assert_eq!(rec.verdict, "lock-failed");
    }

    #[test]
    fn pre_cancelled_job_records_timed_out() {
        let token = CancelToken::new();
        token.cancel();
        let rec = execute(
            &job("s27", LockerKind::Xor, 4, AttackKind::Sat),
            &tuning(),
            &token,
        );
        assert_eq!(rec.status, "timed-out");
        assert_eq!(rec.verdict, "timed-out");
    }

    #[test]
    fn execution_is_deterministic() {
        let j = job("s27", LockerKind::AntiSat, 3, AttackKind::Removal);
        let a = execute(&j, &tuning(), &CancelToken::new());
        let b = execute(&j, &tuning(), &CancelToken::new());
        assert_eq!(a, b);
    }
}
