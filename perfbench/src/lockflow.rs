//! `lock-flow`: the Tables I–II flow plus the Sec. VI GK attack.
//!
//! 21 cells — the seven IWLS2005 profiles × {4, 8, 16} GKs — each op
//! parsing the profile's `.bench` text, inserting GKs, measuring overhead
//! and running the SAT attack on the attack view. The seed picks each
//! cell's insertion seed; the circuits are the paper's fixed profiles.

use crate::runner::{LayerAgg, OpOutcome, Workload};
use crate::stats::{mix, Digest};
use crate::trace::{probe, Tracer};
use glitchlock_attacks::sat_attack::MiterSession;
use glitchlock_circuits::{generate, iwls2005_profiles};
use glitchlock_core::feasibility::analyze_feasibility_with;
use glitchlock_core::gk::GkDesign;
use glitchlock_core::{CoreError, GkEncryptor};
use glitchlock_netlist::bench_format;
use glitchlock_obs::names;
use glitchlock_sat::{EncoderKind, SolverBackend};
use glitchlock_sta::{analyze, ClockModel};
use glitchlock_stdcell::Library;
use glitchlock_synth::Overhead;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// GK counts per profile (Table II columns).
const GK_COUNTS: [usize; 3] = [4, 8, 16];

struct Cell {
    bench: usize,
    n_gks: usize,
    lock_seed: u64,
}

pub struct LockFlow {
    library: Library,
    /// `.bench` text and clock model per profile.
    benches: Vec<(String, ClockModel)>,
    cells: Vec<Cell>,
}

impl LockFlow {
    /// Generates the seven profiles and emits their `.bench` text.
    pub fn setup(seed: u64) -> Result<LockFlow, String> {
        let mut benches = Vec::new();
        let mut cells = Vec::new();
        for (b, profile) in iwls2005_profiles().iter().enumerate() {
            let text = bench_format::emit(&generate(profile));
            benches.push((text, ClockModel::new(profile.clock_period)));
            for n_gks in GK_COUNTS {
                let lock_seed = mix(seed, cells.len() as u64);
                cells.push(Cell {
                    bench: b,
                    n_gks,
                    lock_seed,
                });
            }
        }
        Ok(LockFlow {
            library: Library::cl013g_like(),
            benches,
            cells,
        })
    }
}

impl Workload for LockFlow {
    fn ops(&self) -> usize {
        self.cells.len()
    }

    fn inputs_digest(&self) -> Digest {
        let d = self
            .benches
            .iter()
            .fold(Digest::default(), |d, (text, _)| d.bytes(text.as_bytes()));
        self.cells
            .iter()
            .fold(d, |d, c| d.u64(c.n_gks as u64).u64(c.lock_seed))
    }

    fn run(&mut self, i: usize, tr: &mut Tracer) -> OpOutcome {
        let cell = &self.cells[i];
        let (text, clock) = &self.benches[cell.bench];
        let lib = &self.library;
        let mut out = OpOutcome::default();
        let mut digest = Digest::default().u64(cell.n_gks as u64);

        let op = tr.begin("op");
        let started = Instant::now();
        let parsed = tr.call("netlist.parse", || bench_format::parse(text));
        let Ok(original) = parsed else {
            tr.end(op);
            out.error = Some(format!("parse failed: {:?}", parsed.err()));
            return out;
        };
        let insert = tr.begin("core.insert");
        let mut rng = StdRng::seed_from_u64(cell.lock_seed);
        let locked = GkEncryptor::new(cell.n_gks).encrypt(&original, lib, clock, &mut rng);
        tr.end(insert);
        match locked {
            // The paper's "–" cell in Table II: too few feasible sites.
            Err(CoreError::NotEnoughSites {
                requested,
                available,
            }) => {
                digest = digest.u64(requested as u64).u64(available as u64);
            }
            Err(e) => out.error = Some(format!("GK insertion failed: {e}")),
            Ok(locked) => {
                if locked.key_width() != 2 * cell.n_gks {
                    out.error = Some(format!(
                        "key width {} for {} GKs",
                        locked.key_width(),
                        cell.n_gks
                    ));
                }
                let oh = tr.call("synth.overhead", || {
                    Overhead::measure(lib, &original, &locked.netlist)
                });
                digest = digest
                    .u64(oh.cell_overhead_pct().to_bits())
                    .u64(oh.area_overhead_pct().to_bits())
                    .bytes(format!("{:?}", locked.correct_key.bits()).as_bytes());
                let build = tr.begin("attacks.miter_build");
                let mut session = MiterSession::with_config(
                    &locked.attack_view,
                    &locked.attack_key_inputs,
                    &[],
                    &original,
                    SolverBackend::default(),
                    EncoderKind::default(),
                );
                tr.end(build);
                // Sec. VI: the GK miter must be UNSAT at the first DIP
                // search (under the miter assumption, not at the root),
                // leaving an arbitrary key and zero DIPs.
                if tr.call("sat.solve", || session.find_dip()).is_some() {
                    out.error = Some("SAT attack found a DIP on a GK attack view".into());
                } else if session.miter_root_unsat() {
                    out.error = Some("GK attack view constraints are contradictory".into());
                } else {
                    match tr.call("sat.solve", || session.extract_key()) {
                        Some(key) => digest = digest.bits(&key),
                        None => out.error = Some("no key after UNSAT at iteration 1".into()),
                    }
                }
            }
        }
        out.wall = started.elapsed();
        tr.end(op);

        // Probes: STA and feasibility are the first two steps of
        // `encrypt`; time them on the same input and attribute them.
        if tr.on() {
            let (sta, d) = probe(|| analyze(&original, lib, clock));
            tr.attribute(insert, "sta.analyze", d);
            let design = GkDesign::paper_default();
            let (_, d) = probe(|| analyze_feasibility_with(&original, lib, clock, &design, &sta));
            tr.attribute(insert, "core.feasibility", d);
        }
        out.digest = digest;
        out
    }

    fn layers(&self, agg: &LayerAgg) -> Vec<(&'static str, f64)> {
        let mut v = vec![
            ("netlist.parse_ms", agg.ms("netlist.parse")),
            ("sta.analyze_ms", agg.ms("sta.analyze")),
            ("core.feasibility_ms", agg.ms("core.feasibility")),
            ("core.insert_ms", agg.ms("core.insert")),
            ("synth.overhead_ms", agg.ms("synth.overhead")),
            ("core.sites_feasible", agg.per_op(names::LOCK_GK_FEASIBLE)),
            ("core.gk_inserted", agg.per_op(names::LOCK_GK_INSERTED)),
        ];
        // The GK attack finds no DIP by construction (checked per op).
        v.extend(sat_layers(agg, 0.0));
        v
    }
}

/// Miter-build and solver layers shared with `dip-loop`: self times per
/// op, program counters per op, and search rates per solver second.
pub fn sat_layers(agg: &LayerAgg, dips_per_op: f64) -> Vec<(&'static str, f64)> {
    let solve_s = agg.ms("sat.solve") * agg.ops as f64 / 1e3;
    let rate = |name| {
        if solve_s > 0.0 {
            agg.total(name) as f64 / solve_s
        } else {
            0.0
        }
    };
    vec![
        ("attacks.miter_build_ms", agg.ms("attacks.miter_build")),
        ("sat.solve_ms", agg.ms("sat.solve")),
        ("sat.dips", dips_per_op),
        ("sat.solver_calls", agg.per_op(names::SAT_SOLVER_CALLS)),
        ("sat.conflicts", agg.per_op(names::SAT_CONFLICTS)),
        ("sat.propagations", agg.per_op(names::SAT_PROPAGATIONS)),
        ("sat.conflicts_per_s", rate(names::SAT_CONFLICTS)),
        ("sat.propagations_per_s", rate(names::SAT_PROPAGATIONS)),
    ]
}
