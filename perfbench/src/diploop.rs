//! `dip-loop`: the Sec. VI contrast attacks run to convergence.
//!
//! 120 attacks — s1238/s5378/s9234/s13207/s15850 × {xor16, mux16,
//! sarlock6} × 8 lock seeds derived from the workload seed — locked in
//! set-up. Each op is
//! one campaign-style attack job: build the miter, run the DIP loop
//! (solve, oracle query, IO constraint) to UNSAT, extract a key, and
//! score it with `key_match_rate` at the campaign default of 1024
//! samples.
//!
//! The correctness check is functional, never bit-equality with the
//! inserted key (a recovered key may differ from it bit for bit and still
//! be correct): the first time a cell's key is recovered it must match
//! the oracle on all of 65,536 patterns, outside the op's timing, and
//! every later pass must recover that same key.

use crate::lockflow::sat_layers;
use crate::runner::{LayerAgg, OpOutcome, Workload};
use crate::stats::{mix, Digest};
use crate::trace::Tracer;
use glitchlock_attacks::sat_attack::{key_match_rate, MiterSession};
use glitchlock_circuits::{generate, profile_by_name};
use glitchlock_core::locking::{LockScheme, Locked, MuxLock, SarLock, XorLock};
use glitchlock_netlist::bench_format;
use glitchlock_obs::{self as obs, Collector};
use glitchlock_sat::{EncoderKind, SolverBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const BENCHES: [&str; 5] = ["s1238", "s5378", "s9234", "s13207", "s15850"];

/// Lock seeds per bench × scheme: attack cost varies several-fold with
/// the key-gate positions, so each configuration is sampled several times
/// to keep a pass representative of it whatever the workload seed.
const LOCKS_PER_CONFIG: usize = 8;

/// Patterns the in-op verify step scores a key on (the campaign
/// default).
const JOB_SAMPLES: usize = 1024;

/// Patterns the benchmark's own check requires a perfect match on.
const CHECK_SAMPLES: usize = 1 << 16;

/// DIP iterations after which an attack counts as failed.
const MAX_ITERATIONS: usize = 4096;

struct Cell {
    locked: Locked,
    verify_seed: u64,
    /// The key recovered on the first pass, once it passed the check.
    checked_key: Option<Vec<bool>>,
}

pub struct DipLoop {
    cells: Vec<Cell>,
    /// DIPs and miter clauses summed over the traced ops.
    dips: u64,
    clauses: u64,
}

impl DipLoop {
    /// Generates the five profiles and locks each three ways.
    pub fn setup(seed: u64) -> Result<DipLoop, String> {
        let schemes: [Box<dyn LockScheme>; 3] = [
            Box::new(XorLock::new(16)),
            Box::new(MuxLock::new(16)),
            Box::new(SarLock::new(6)),
        ];
        let mut cells = Vec::new();
        for name in BENCHES {
            let profile = profile_by_name(name).ok_or(format!("no profile {name}"))?;
            let original = generate(&profile);
            for scheme in schemes
                .iter()
                .flat_map(|s| std::iter::repeat_n(s, LOCKS_PER_CONFIG))
            {
                let ix = cells.len() as u64;
                let mut rng = StdRng::seed_from_u64(mix(seed, ix));
                let locked = scheme
                    .lock(&original, &mut rng)
                    .map_err(|e| format!("{name}: {e}"))?;
                cells.push(Cell {
                    locked,
                    verify_seed: mix(seed, 1000 + ix),
                    checked_key: None,
                });
            }
        }
        Ok(DipLoop {
            cells,
            dips: 0,
            clauses: 0,
        })
    }
}

impl Workload for DipLoop {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn inputs_digest(&self) -> Digest {
        self.cells.iter().fold(Digest::default(), |d, c| {
            d.bytes(bench_format::emit(&c.locked.netlist).as_bytes())
                .bits(&c.locked.correct_key)
        })
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> OpOutcome {
        let cell = &mut self.cells[i];
        let l = &cell.locked;
        let mut out = OpOutcome::default();

        let op = tr.begin("op");
        let started = Instant::now();
        let build = tr.begin("attacks.miter_build");
        let mut session = MiterSession::with_config(
            &l.netlist,
            &l.key_inputs,
            &[],
            &l.original,
            SolverBackend::default(),
            EncoderKind::default(),
        );
        tr.end(build);
        let (_, clauses) = session.cnf_size();
        let mut dips = 0u64;
        while let Some(dip) = tr.call("sat.solve", || session.find_dip()) {
            dips += 1;
            if dips as usize > MAX_ITERATIONS {
                out.error = Some(format!("no convergence after {MAX_ITERATIONS} DIPs"));
                break;
            }
            let response = tr.call("attacks.oracle", || session.query_oracle(&dip));
            tr.call("sat.encode_io", || {
                session.add_io_constraint(&dip, &response)
            });
        }
        let mut digest = Digest::default().u64(dips).u64(clauses);
        let mut recovered = None;
        if out.error.is_none() {
            if session.miter_root_unsat() {
                out.error = Some("IO constraints admit no key".into());
            } else if let Some(key) = tr.call("sat.solve", || session.extract_key()) {
                digest = digest.bits(&key);
                let mut rng = StdRng::seed_from_u64(cell.verify_seed);
                let rate = tr.call("attacks.verify", || {
                    key_match_rate(
                        &l.netlist,
                        &l.key_inputs,
                        &key,
                        &l.original,
                        JOB_SAMPLES,
                        &mut rng,
                    )
                });
                if rate != 1.0 {
                    out.error = Some(format!(
                        "recovered key scores {rate} on {JOB_SAMPLES} samples"
                    ));
                }
                recovered = Some(key);
            } else {
                out.error = Some("no key after convergence".into());
            }
        }
        out.wall = started.elapsed();
        tr.end(op);
        if let (Some(key), None) = (&recovered, &out.error) {
            match &cell.checked_key {
                Some(checked) if checked != key => {
                    out.error = Some("recovered a different key than on the first pass".into());
                }
                Some(_) => {}
                // The check's own program counters stay out of the op's.
                None => {
                    let mut rng = StdRng::seed_from_u64(!cell.verify_seed);
                    let rate = obs::scoped(&Arc::new(Collector::new()), || {
                        key_match_rate(
                            &l.netlist,
                            &l.key_inputs,
                            key,
                            &l.original,
                            CHECK_SAMPLES,
                            &mut rng,
                        )
                    });
                    if rate == 1.0 {
                        cell.checked_key = recovered.clone();
                    } else {
                        out.error = Some(format!(
                            "recovered key scores {rate} on {CHECK_SAMPLES} patterns"
                        ));
                    }
                }
            }
        }
        if tr.on() {
            self.dips += dips;
            self.clauses += clauses;
        }
        out.digest = digest;
        out
    }

    fn reset_tallies(&mut self) {
        self.dips = 0;
        self.clauses = 0;
    }

    fn layers(&self, agg: &LayerAgg) -> Vec<(&'static str, f64)> {
        let per_op = |v: u64| v as f64 / agg.ops.max(1) as f64;
        let mut v = vec![
            ("sat.encode_io_ms", agg.ms("sat.encode_io")),
            ("attacks.oracle_ms", agg.ms("attacks.oracle")),
            ("attacks.verify_ms", agg.ms("attacks.verify")),
            ("sat.miter_clauses", per_op(self.clauses)),
        ];
        v.extend(sat_layers(agg, per_op(self.dips)));
        v
    }
}
