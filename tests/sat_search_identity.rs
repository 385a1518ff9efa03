//! Search-identity referee for the CDCL solver.
//!
//! Pins the exact search the solver runs on a fixed set of instances:
//! the answer, every `SolverStats` counter (conflicts, decisions,
//! propagations, restarts, reductions, learnt clauses kept, LBD sum) and
//! an FNV-1a digest of the model or of the failed-assumption core. The
//! instances are random 3-SAT at 60, 100 and 200 variables, pigeonhole
//! 7 and 8 (the latter runs six clause-database reductions, enough to
//! compact the clause arena), an incremental run of assumption solves
//! with unsat cores, and one
//! `MiterSession` DIP loop on an s1238 xor16 lock (DIP count and key).
//!
//! A change to the solver's storage or bookkeeping that keeps its search
//! must leave every row byte-identical: the same decisions, the same
//! learnt clauses, the same models. Until the solver emits proofs that a
//! checker verifies (ROADMAP item 2), this table is the safety net for
//! rebuilding the solver's hot path (ROADMAP item 4). A change that
//! alters the search on purpose re-pins it, and must say why.
//!
//! `cargo test --test sat_search_identity -- --nocapture` prints the rows.

use glitchlock::attacks::sat_attack::MiterSession;
use glitchlock::circuits::{generate, profile_by_name};
use glitchlock::core::locking::{LockScheme, XorLock};
use glitchlock::sat::{Lit, SatResult, Solver, SolverStats, Var};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every search counter of a solver.
fn counters(st: SolverStats) -> String {
    format!(
        "c={} d={} p={} r={} red={} learnt={} lbd={}",
        st.conflicts,
        st.decisions,
        st.propagations,
        st.restarts,
        st.reductions,
        st.learnt,
        st.lbd_sum
    )
}

/// One pinned row: the answer, the solver's counters and a digest of the
/// model (per variable: 0 false, 1 true, 2 unassigned) or of the
/// failed-assumption core (literal codes in core order).
fn row(name: &str, s: &Solver, r: SatResult) -> String {
    let digest = match r {
        SatResult::Sat => fnv1a((0..s.num_vars()).map(|v| match s.value(Var(v)) {
            Some(false) => 0,
            Some(true) => 1,
            None => 2,
        })),
        SatResult::Unsat => fnv1a(
            s.failed_assumptions()
                .iter()
                .flat_map(|l| (l.code() as u32).to_le_bytes()),
        ),
    };
    format!("{name} {r:?} {} {digest:016x}", counters(s.stats()))
}

/// A random 3-SAT formula at clause ratio 4.26 (the hardness peak),
/// with three distinct variables per clause.
fn random_3sat(vars: u32, seed: u64) -> Solver {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Solver::new();
    for _ in 0..vars {
        s.new_var();
    }
    for _ in 0..(vars as usize * 426 / 100) {
        let mut picked: Vec<u32> = Vec::with_capacity(3);
        while picked.len() < 3 {
            let v = rng.gen_range(0..vars);
            if !picked.contains(&v) {
                picked.push(v);
            }
        }
        let clause: Vec<Lit> = picked
            .iter()
            .map(|&v| Lit::with_sign(Var(v), rng.gen()))
            .collect();
        s.add_clause(&clause);
    }
    s
}

/// Pigeonhole: `holes + 1` pigeons into `holes` holes (unsatisfiable).
fn pigeonhole(holes: u32) -> Solver {
    let pigeons = holes + 1;
    let mut s = Solver::new();
    let var = |p: u32, h: u32| Var(p * holes + h);
    for _ in 0..pigeons * holes {
        s.new_var();
    }
    for p in 0..pigeons {
        let clause: Vec<Lit> = (0..holes).map(|h| Lit::pos(var(p, h))).collect();
        s.add_clause(&clause);
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                s.add_clause(&[Lit::neg(var(p1, h)), Lit::neg(var(p2, h))]);
            }
        }
    }
    s
}

fn rows() -> String {
    let mut out = String::new();
    for vars in [60u32, 100] {
        for seed in 0..4u64 {
            let mut s = random_3sat(vars, 0x35a7 + seed);
            let r = s.solve();
            writeln!(out, "{}", row(&format!("3sat{vars}/{seed}"), &s, r)).unwrap();
        }
    }

    for holes in [7, 8] {
        let mut s = pigeonhole(holes);
        let r = s.solve();
        writeln!(out, "{}", row(&format!("php{holes}"), &s, r)).unwrap();
    }
    for seed in 0..2u64 {
        let mut s = random_3sat(200, 0x200 + seed);
        let r = s.solve();
        writeln!(out, "{}", row(&format!("3sat200/{seed}"), &s, r)).unwrap();
    }

    // The assumption and core cases of the solver's unit tests.
    let mut s = Solver::new();
    let (a, b) = (s.new_var(), s.new_var());
    s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
    for (i, assume) in [vec![Lit::neg(a), Lit::neg(b)], vec![], vec![Lit::neg(a)]]
        .iter()
        .enumerate()
    {
        let r = s.solve_with(assume);
        writeln!(out, "{}", row(&format!("temporary/{i}"), &s, r)).unwrap();
    }
    let mut s = Solver::new();
    let (a, _) = (s.new_var(), s.new_var());
    let r = s.solve_with(&[Lit::pos(a), Lit::neg(a)]);
    writeln!(out, "{}", row("contradictory", &s, r)).unwrap();
    let mut s = Solver::new();
    let v: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
    s.add_clause(&[Lit::neg(v[0]), Lit::pos(v[1])]);
    s.add_clause(&[Lit::neg(v[1]), Lit::pos(v[2])]);
    s.add_clause(&[Lit::neg(v[2]), Lit::neg(v[3])]);
    let r = s.solve_with(&[Lit::pos(v[4]), Lit::pos(v[0]), Lit::pos(v[3])]);
    writeln!(out, "{}", row("chain-core", &s, r)).unwrap();

    // Incremental assumption solves on one hard-ish formula: the cores
    // come from `analyze_final` over learnt and original reasons alike.
    let mut s = random_3sat(100, 0x35a7 + 3);
    let mut rng = StdRng::seed_from_u64(0xa55e);
    for i in 0..12 {
        let assume: Vec<Lit> = (0..4)
            .map(|_| Lit::with_sign(Var(rng.gen_range(0..100)), rng.gen()))
            .collect();
        let r = s.solve_with(&assume);
        writeln!(out, "{}", row(&format!("assume/{i}"), &s, r)).unwrap();
    }

    // One DIP loop of the SAT attack on an xor16-locked s1238.
    let original = generate(&profile_by_name("s1238").expect("s1238 profile"));
    let locked = XorLock::new(16)
        .lock(&original, &mut StdRng::seed_from_u64(7))
        .expect("xor16 lock");
    let mut session = MiterSession::new(&locked.netlist, &locked.key_inputs, &[], &original);
    let mut dips = 0;
    while let Some(dip) = session.find_dip() {
        dips += 1;
        let response = session.query_oracle(&dip);
        session.add_io_constraint(&dip, &response);
    }
    let key = session.extract_key().expect("xor16 key");
    let key: String = key.iter().map(|&b| if b { '1' } else { '0' }).collect();
    let st = counters(session.stats());
    writeln!(out, "s1238-xor16 dips={dips} key={key} {st}").unwrap();
    out
}

const PINNED: &str = "\
3sat60/0 Unsat c=63 d=74 p=960 r=0 red=0 learnt=56 lbd=201 cbf29ce484222325
3sat60/1 Sat c=71 d=102 p=1088 r=0 red=0 learnt=71 lbd=292 c87a718d1be754dd
3sat60/2 Sat c=52 d=80 p=983 r=0 red=0 learnt=52 lbd=241 1485114b30b7b5eb
3sat60/3 Sat c=2 d=13 p=82 r=0 red=0 learnt=2 lbd=7 bf250cd678546d5f
3sat100/0 Unsat c=766 d=868 p=16540 r=0 red=0 learnt=754 lbd=3532 cbf29ce484222325
3sat100/1 Unsat c=731 d=868 p=17426 r=0 red=0 learnt=721 lbd=3380 cbf29ce484222325
3sat100/2 Unsat c=747 d=906 p=17128 r=0 red=0 learnt=740 lbd=3743 cbf29ce484222325
3sat100/3 Sat c=81 d=119 p=1940 r=0 red=0 learnt=81 lbd=442 2da851abae918190
php7 Unsat c=3251 d=4086 p=37049 r=26 red=1 learnt=3211 lbd=32947 cbf29ce484222325
php8 Unsat c=19383 d=24380 p=217943 r=111 red=6 learnt=9519 lbd=274247 cbf29ce484222325
3sat200/0 Sat c=1267 d=1557 p=48367 r=1 red=0 learnt=1267 lbd=10897 e25334111b1d0cfc
3sat200/1 Sat c=295 d=397 p=10927 r=0 red=0 learnt=295 lbd=2523 255188de0dbbed02
temporary/0 Unsat c=0 d=0 p=2 r=0 red=0 learnt=0 lbd=0 67bd6b43893f4077
temporary/1 Sat c=0 d=1 p=4 r=0 red=0 learnt=0 lbd=0 08328707b4eb6e3a
temporary/2 Sat c=0 d=1 p=6 r=0 red=0 learnt=0 lbd=0 08328707b4eb6e3a
contradictory Unsat c=0 d=0 p=1 r=0 red=0 learnt=0 lbd=0 89cd31291d2aefa4
chain-core Unsat c=0 d=0 p=5 r=0 red=0 learnt=0 lbd=0 6ad26a20123ba583
assume/0 Sat c=28 d=47 p=688 r=0 red=0 learnt=28 lbd=157 3a6bd7be73f41fac
assume/1 Unsat c=86 d=120 p=2089 r=1 red=0 learnt=86 lbd=516 d1003aa047be4a26
assume/2 Unsat c=128 d=172 p=3054 r=2 red=0 learnt=128 lbd=749 90b1aa366aa7d71b
assume/3 Unsat c=128 d=172 p=3057 r=2 red=0 learnt=128 lbd=749 d6281357e4d9b574
assume/4 Unsat c=207 d=281 p=4881 r=4 red=0 learnt=207 lbd=1203 23998067178043f8
assume/5 Unsat c=234 d=308 p=5605 r=4 red=0 learnt=234 lbd=1338 48944a13b75cb8f5
assume/6 Unsat c=367 d=471 p=8865 r=7 red=0 learnt=367 lbd=2137 b3ad07272509d043
assume/7 Unsat c=407 d=515 p=9785 r=8 red=0 learnt=407 lbd=2343 580b74cc89906454
assume/8 Unsat c=455 d=563 p=10808 r=8 red=0 learnt=455 lbd=2594 69bb7cd50f7237a7
assume/9 Unsat c=530 d=654 p=12840 r=9 red=0 learnt=530 lbd=3019 6d80015f6d46bde2
assume/10 Unsat c=597 d=738 p=14218 r=10 red=0 learnt=597 lbd=3392 cef599d9da93446b
assume/11 Sat c=673 d=842 p=16290 r=11 red=0 learnt=673 lbd=3894 184ed57ab394d6e1
s1238-xor16 dips=4 key=1011100001101000 c=322 d=872 p=30857 r=1 red=0 learnt=320 lbd=1789
";

#[test]
fn solver_search_is_pinned() {
    let got = rows();
    println!("{got}");
    assert_eq!(got, PINNED, "the solver's search changed");
}
