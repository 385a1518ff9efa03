//! `corruptibility`: `corruption_scores` in `Both` mode on small cells.
//!
//! Eight rounds of s27 cells at seed-derived lock seeds, each round
//! {xor4, mux4, antisat3, 2 × sarlock3, 2 × gk2} (at most 15 data+key
//! bits), so the exhaustive sweep and the hash count both run and every
//! estimate has its exact count beside it. Cells whose counts fall under
//! the estimator's pivot finish in about half the time of the others; the
//! doubled sarlock and GK cells keep that fast share near two thirds for
//! any seed, so the median op never sits on the boundary between the two.
//! Checks: the GK signature (err = 2^n, dip = 0, wrong keys = 2^κ, one key
//! class) and exact repetition of every cell's scores on every pass. An
//! estimate outside (1+ε) of its exact count is allowed with probability
//! up to δ by design; it is reported in `count.within_eps_ratio`, not
//! counted as a failure.

use crate::runner::{LayerAgg, OpOutcome, Workload};
use crate::stats::{mix, Digest};
use crate::trace::{probe, Tracer};
use glitchlock_core::locking::{AntiSat, LockScheme, MuxLock, SarLock, XorLock};
use glitchlock_core::GkEncryptor;
use glitchlock_count::{
    corruption_scores, exact_scores, KeyedView, Score, ScoreConfig, ScoreMethod,
};
use glitchlock_netlist::{bench_format, NetId, Netlist};
use glitchlock_obs::names;
use glitchlock_sta::ClockModel;
use glitchlock_stdcell::{Library, Ps};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const LOCKERS: [&str; 7] = [
    "xor4", "mux4", "antisat3", "sarlock3", "sarlock3", "gk2", "gk2",
];

/// Rounds of [`LOCKERS`] per pass, each cell with its own lock seed.
const ROUNDS: usize = 8;

struct Cell {
    locked: Netlist,
    keys: Vec<NetId>,
    gk: bool,
    cfg: ScoreConfig,
}

pub struct Corrupt {
    oracle: Netlist,
    cells: Vec<Cell>,
    /// Estimates within (1+ε) of their exact count, and estimates checked.
    within: u64,
    estimates: u64,
}

fn lock(tag: &str, oracle: &Netlist, rng: &mut StdRng) -> Result<(Netlist, Vec<NetId>), String> {
    let locked = match tag {
        "xor4" => XorLock::new(4).lock(oracle, rng),
        "mux4" => MuxLock::new(4).lock(oracle, rng),
        "sarlock3" => SarLock::new(3).lock(oracle, rng),
        "antisat3" => AntiSat::new(3).lock(oracle, rng),
        _ => {
            let l = GkEncryptor::new(2)
                .encrypt(
                    oracle,
                    &Library::cl013g_like(),
                    &ClockModel::new(Ps::from_ns(3)),
                    rng,
                )
                .map_err(|e| format!("{tag}: {e}"))?;
            return Ok((l.attack_view, l.attack_key_inputs));
        }
    }
    .map_err(|e| format!("{tag}: {e}"))?;
    Ok((locked.netlist, locked.key_inputs))
}

impl Corrupt {
    /// Locks the 56 s27 cells.
    pub fn setup(seed: u64) -> Result<Corrupt, String> {
        let oracle = glitchlock_circuits::s27();
        let mut cells = Vec::new();
        for _ in 0..ROUNDS {
            for tag in LOCKERS {
                let ix = cells.len() as u64;
                let mut rng = StdRng::seed_from_u64(mix(seed, ix));
                let (locked, keys) = lock(tag, &oracle, &mut rng)?;
                cells.push(Cell {
                    locked,
                    keys,
                    gk: tag == "gk2",
                    cfg: ScoreConfig {
                        seed: mix(seed, 1000 + ix),
                        ..ScoreConfig::default()
                    },
                });
            }
        }
        Ok(Corrupt {
            oracle,
            cells,
            within: 0,
            estimates: 0,
        })
    }
}

fn score_digest(d: Digest, s: &Score) -> Digest {
    d.u64(s.exact.unwrap_or(u64::MAX))
        .u64(s.estimate.unwrap_or(f64::NAN).to_bits())
}

/// Whether `s`'s estimate lies within a factor (1+ε) of its exact count.
fn within_eps(s: &Score, eps: f64) -> Option<bool> {
    let (exact, est) = (s.exact? as f64, s.estimate?);
    Some(est >= exact / (1.0 + eps) && est <= exact * (1.0 + eps))
}

impl Workload for Corrupt {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn inputs_digest(&self) -> Digest {
        self.cells.iter().fold(Digest::default(), |d, c| {
            d.bytes(bench_format::emit(&c.locked).as_bytes())
                .u64(c.cfg.seed)
        })
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> OpOutcome {
        let cell = &self.cells[i];
        let mut out = OpOutcome::default();
        let op = tr.begin("op");
        let started = Instant::now();
        let hash = tr.begin("count.hash");
        let scores = corruption_scores(&cell.locked, &cell.keys, &self.oracle, &cell.cfg);
        tr.end(hash);
        out.wall = started.elapsed();
        tr.end(op);
        let scores = match scores {
            Ok(s) => s,
            Err(e) => {
                out.error = Some(format!("corruption_scores: {e}"));
                return out;
            }
        };

        // Probe: the exhaustive sweep inside `corruption_scores`, on the
        // same view and sampled key.
        if tr.on() {
            let kv = KeyedView::new(&cell.locked, &cell.keys);
            let (_, d) = probe(|| exact_scores(&kv, &self.oracle, &scores.sampled_key));
            tr.attribute(hash, "count.exact", d);
        }

        if scores.method != ScoreMethod::Both {
            out.error = Some(format!("method {} (want both)", scores.method.tag()));
        } else if cell.gk {
            let (n, kappa) = (scores.data_bits as u32, scores.key_bits as u32);
            let signature = (
                scores.err.exact,
                scores.dip.exact,
                scores.wrong_keys.exact,
                scores.key_classes,
            );
            if signature != (Some(1 << n), Some(0), Some(1 << kappa), Some(1)) {
                out.error = Some(format!("GK signature broken: {signature:?}"));
            }
        }
        if tr.on() {
            for s in [&scores.err, &scores.dip, &scores.wrong_keys] {
                if let Some(ok) = within_eps(s, cell.cfg.epsilon) {
                    self.estimates += 1;
                    self.within += u64::from(ok);
                }
            }
        }
        let d = Digest::default().bits(&scores.sampled_key);
        let d = [&scores.err, &scores.dip, &scores.wrong_keys]
            .into_iter()
            .fold(d, score_digest);
        out.digest = d.u64(scores.key_classes.unwrap_or(u64::MAX));
        out
    }

    fn reset_tallies(&mut self) {
        self.within = 0;
        self.estimates = 0;
    }

    fn layers(&self, agg: &LayerAgg) -> Vec<(&'static str, f64)> {
        let calls = agg.per_op(names::COUNT_SOLVER_CALLS);
        let hash_ms = agg.ms("count.hash");
        vec![
            ("count.exact_ms", agg.ms("count.exact")),
            ("count.hash_ms", hash_ms),
            ("count.solver_calls", calls),
            ("count.xor_rows", agg.per_op(names::COUNT_XOR_ROWS)),
            (
                "count.exhaustive_sweeps",
                agg.per_op(names::COUNT_EXHAUSTIVE_SWEEPS),
            ),
            (
                "count.us_per_solver_call",
                if calls > 0.0 {
                    hash_ms * 1e3 / calls
                } else {
                    0.0
                },
            ),
            (
                "count.within_eps_ratio",
                self.within as f64 / self.estimates.max(1) as f64,
            ),
        ]
    }
}
