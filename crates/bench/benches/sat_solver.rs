//! CDCL solver benchmarks for the one solver profile (glucose restarts,
//! LBD clause-DB reduction, rephasing) and the one CNF encoder.
//!
//! Two tiers:
//!
//! * microbenchmarks — random 3-SAT near the phase transition, pigeonhole
//!   (hard UNSAT), and a benchmark-circuit encode + query;
//! * the equivalence tier — bounded equivalence of a locked ISCAS'89 bench
//!   against its resynthesized (`optimize_sequential`) form, the check the
//!   workspace runs to validate optimization passes and removal-attack
//!   reconstructions. A single deep-unrolled UNSAT proof with 10⁴–10⁵
//!   conflicts — the one solver workload the end-to-end benchmark
//!   (`perfbench/`) does not run. Its DIP-loop workload covers the
//!   oracle-guided attack.
//!
//! The harness writes both tiers to `BENCH_sat.json` at the repository
//! root: ns/iteration per microbenchmark, and wall time, conflicts,
//! propagations and conflicts/sec per equivalence row. Conflict and
//! propagation counts are exactly reproducible per (seed, depth).
//!
//! ```text
//! cargo bench -p glitchlock-bench --bench sat_solver
//! ```

use glitchlock_bench::harness::{BenchmarkId, Criterion, Sample};
use glitchlock_circuits::{generate, profile_by_name, tiny};
use glitchlock_core::locking::{LockScheme, Locked, XorLock};
use glitchlock_netlist::CombView;
use glitchlock_obs as obs;
use glitchlock_sat::equiv::{bounded_equiv_with_stats, EquivResult};
use glitchlock_sat::{encode_comb_with, Cnf, Lit, SatResult, Solver, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn random_3sat(n_vars: u32, n_clauses: usize, seed: u64) -> Cnf {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut f = Cnf::new();
    for _ in 0..n_vars {
        f.new_var();
    }
    for _ in 0..n_clauses {
        let lits: Vec<Lit> = (0..3)
            .map(|_| Lit::with_sign(Var(rng.gen_range(0..n_vars)), rng.gen()))
            .collect();
        f.add_clause(&lits);
    }
    f
}

fn pigeonhole(n: u32) -> Cnf {
    let mut f = Cnf::new();
    let holes = n;
    let pigeons = n + 1;
    let var = |p: u32, h: u32| Var(p * holes + h);
    for _ in 0..pigeons * holes {
        f.new_var();
    }
    for p in 0..pigeons {
        let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
        f.add_clause(&clause);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                f.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
            }
        }
    }
    f
}

fn bench_micro(c: &mut Criterion) {
    let mut group = c.benchmark_group("sat_solver");
    for &n in &[60u32, 100] {
        let clauses = (n as f64 * 4.2) as usize;
        let f = random_3sat(n, clauses, 42);
        group.bench_with_input(BenchmarkId::new("random_3sat", n), &f, |b, f| {
            b.iter(|| black_box(Solver::from_cnf(f).solve()))
        });
    }
    for &n in &[6u32, 7] {
        let f = pigeonhole(n);
        group.bench_with_input(BenchmarkId::new("pigeonhole_unsat", n), &f, |b, f| {
            b.iter(|| assert_eq!(Solver::from_cnf(f).solve(), SatResult::Unsat))
        });
    }
    // Encode + query a benchmark-scale circuit.
    let nl = generate(&tiny(5));
    let view = CombView::new(&nl);
    let encode = || {
        let mut cnf = Cnf::new();
        encode_comb_with(&mut cnf, &nl, &view, &[]);
        cnf
    };
    group.bench_function("encode_tiny", |b| b.iter(|| black_box(encode())));
    let cnf = encode();
    group.bench_function("circuit_query_tiny", |b| {
        b.iter(|| black_box(Solver::from_cnf(&cnf).solve()))
    });
    group.finish();
}

/// One bounded-equivalence measurement. `depth` is the unroll depth.
struct EquivRow {
    bench: &'static str,
    locker: String,
    key_bits: usize,
    seed: u64,
    wall_ms: f64,
    conflicts: u64,
    propagations: u64,
    conflicts_per_sec: f64,
    depth: usize,
}

/// Default lock seed; each equivalence row pins its own because instance
/// hardness is placement-sensitive.
const LOCK_SEED: u64 = 0x5a7_0001;

/// Generates a bench profile and XOR-locks it with `key_bits` key gates.
fn lock_bench(bench: &str, key_bits: usize, seed: u64) -> Locked {
    let oracle = generate(&profile_by_name(bench).expect("known profile"));
    XorLock::new(key_bits)
        .lock(&oracle, &mut StdRng::seed_from_u64(seed))
        .expect("bench large enough for the key width")
}

/// `GLITCHLOCK_BENCH_SMOKE=1` trims the equivalence tier to one cheap
/// row — enough for ci.sh to prove the harness runs end to end without
/// paying for the conflict-heavy headline instances.
fn smoke() -> bool {
    std::env::var("GLITCHLOCK_BENCH_SMOKE").is_ok()
}

/// Bounded equivalence of each locked bench against its resynthesized
/// form: one deep-unrolled UNSAT proof per row.
fn bench_equiv() -> Vec<EquivRow> {
    let configs = if smoke() {
        vec![("s5378", 32, 2, LOCK_SEED)]
    } else {
        vec![
            ("s1238", 32, 5, 0x9e0b),
            ("s1238", 32, 6, LOCK_SEED),
            ("s5378", 32, 4, LOCK_SEED),
        ]
    };
    let mut rows = Vec::new();
    for (bench, key_bits, depth, seed) in configs {
        let locked = lock_bench(bench, key_bits, seed);
        let resynth = glitchlock_synth::optimize_sequential(&locked.netlist)
            .expect("locked bench resynthesizes");
        let start = Instant::now();
        let (result, stats) = bounded_equiv_with_stats(&locked.netlist, &resynth, depth)
            .expect("resynthesis keeps the interface");
        let wall = start.elapsed();
        assert_eq!(
            result,
            EquivResult::Equivalent,
            "resynthesis must preserve the locked function"
        );
        let row = EquivRow {
            bench,
            locker: format!("xor{key_bits}"),
            key_bits,
            seed,
            wall_ms: wall.as_secs_f64() * 1e3,
            conflicts: stats.conflicts,
            propagations: stats.propagations,
            conflicts_per_sec: stats.conflicts as f64 / wall.as_secs_f64(),
            depth,
        };
        println!(
            "sat_equiv/{bench}_{}_d{depth} {:>10.1} ms {:>9} conflicts {:>12.0} conflicts/s",
            row.locker, row.wall_ms, row.conflicts, row.conflicts_per_sec
        );
        rows.push(row);
    }
    rows
}

/// Hand-rolled JSON emission — the workspace carries no serde.
fn to_json(micro: &[Sample], rows: &[EquivRow]) -> String {
    let comma = |i: usize, n: usize| if i + 1 < n { "," } else { "" };
    let mut s = String::from(
        "{\n  \"note\": \"CDCL solver (glucose restarts, LBD clause-DB reduction, \
         rephasing) on the AIG CNF encoder. micro rows: mean ns per solve (or encode) \
         over the measured window. equiv-resynth rows prove bounded equivalence of a \
         locked ISCAS'89 bench against its resynthesized form (iterations = unroll \
         depth), a single conflict-heavy UNSAT solve; each pins its lock seed, and \
         conflict/propagation counts are exactly reproducible per (seed, depth). The \
         oracle-guided DIP loop is measured end to end by perfbench (dip-loop). \
         cargo bench -p glitchlock-bench --bench sat_solver\",\n  \"micro\": [\n",
    );
    for (i, m) in micro.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"id\": \"{}\", \"ns_per_iter\": {:.1}, \"iters\": {}}}{}\n",
            m.id,
            m.ns_per_iter,
            m.iters,
            comma(i, micro.len())
        ));
    }
    s.push_str("  ],\n  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"workload\": \"equiv-resynth\", \"bench\": \"{}\", \"locker\": \"{}\", \
             \"key_bits\": {}, \"seed\": \"{:#x}\", \"wall_ms\": {:.1}, \"conflicts\": {}, \
             \"propagations\": {}, \"conflicts_per_sec\": {:.0}, \"iterations\": {}}}{}\n",
            r.bench,
            r.locker,
            r.key_bits,
            r.seed,
            r.wall_ms,
            r.conflicts,
            r.propagations,
            r.conflicts_per_sec,
            r.depth,
            comma(i, rows.len())
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() {
    let mut c = Criterion::new();
    bench_micro(&mut c);
    println!();
    let rows = bench_equiv();
    let json = to_json(c.samples(), &rows);
    // Snapshot next to the workspace manifest (crates/bench -> repo root).
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("BENCH_sat.json");
    if std::env::var("GLITCHLOCK_BENCH_NO_SNAPSHOT").is_err() {
        std::fs::write(&path, &json).expect("write BENCH_sat.json");
        println!("\nwrote {}", path.display());
    }
    print!("\n{json}");
    println!("\n{}", obs::global().report().render_text());
}
