//! # glitchlock
//!
//! A production-quality Rust reproduction of **"A Glitch Key-Gate for Logic
//! Locking"** (Ji, Chiang, Lin, Wu, Chen, Wang — IEEE SOCC 2019).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`netlist`] — gate-level IR, `.bench`/Verilog-lite I/O, cone analysis.
//! * [`aig`] — And-Inverter Graph with complemented edges, structural
//!   hashing, netlist lowering/re-emission, and output-cone extraction
//!   (the substrate behind every SAT miter's CNF encoding).
//! * [`stdcell`] — synthetic 0.13µm-class standard-cell library.
//! * [`sim`] — event-driven gate-level timing simulation (glitch-accurate).
//! * [`sta`] — static timing analysis (arrival/required/slack, Eq. (1)).
//! * [`sat`] — CDCL SAT solver and Tseitin CNF encoding of netlists.
//! * [`synth`] — optimization passes and delay-chain composition.
//! * [`dataflow`] — monotone-framework worklist engine with pluggable
//!   lattice domains: constant/X propagation, per-key-bit taint, SCOAP
//!   testability scores, and PO-liveness (`glk analyze`). Lives here in
//!   the facade rather than under [`netlist`] because the engine depends
//!   on the netlist crate, so the netlist crate cannot re-export it.
//! * [`circuits`] — embedded ISCAS'89 circuits and IWLS2005-calibrated
//!   synthetic benchmark profiles.
//! * [`core`] — the paper's contribution: glitch key-gates (GK), KEYGEN,
//!   timing windows (Eqs. (2)–(6)), the insertion flow, and the locking
//!   baselines (XOR/XNOR, MUX, TDK, SARLock, Anti-SAT).
//! * [`attacks`] — SAT attack, removal attacks, TCF-based timed SAT attack,
//!   and the enhanced (locate-replace-SAT) removal attack.
//! * [`lint`] — static-analysis passes over netlists and locked designs:
//!   structural defects, removal-attack signatures, and timing-window
//!   re-verification (`glk lint`).
//! * [`fuzz`] — deterministic differential fuzzing: recipe-driven netlist
//!   and lock generation, a registry of referee oracles cross-checking
//!   every engine pair, delta-debugging shrinking, and a persistent
//!   regression corpus (`glk fuzz`).
//! * [`count`] — projected model counting for quantitative security
//!   scores: an exhaustive packed-sweep oracle plus an ApproxMC-style
//!   XOR hash-count estimator over the shared miter CNF, reporting
//!   wrong-key error rate, DIP-space size, and key equivalence-class
//!   estimates (`glk count`).
//! * [`obs`] — dependency-free structured tracing and metrics: typed
//!   counters/gauges/histograms, JSON-lines event sinks, end-of-run
//!   reports, and the trace schema behind `glk … --trace/--metrics`.
//! * [`jobs`] — the parallel campaign orchestrator: declarative campaign
//!   specs (benchmarks × lockers × attacks × seeds), a supervised
//!   work-stealing pool with per-job timeouts and bounded retry, a
//!   JSON-lines checkpoint journal with `--resume`, and deterministic
//!   Tables I–II-shaped reports (`glk campaign`).
//!
//! ## Quickstart
//!
//! ```rust
//! use glitchlock::netlist::{Netlist, GateKind, Logic};
//! use glitchlock::core::locking::{XorLock, LockScheme};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Build a tiny circuit and lock it with two XOR key-gates.
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.add_gate(GateKind::And, &[a, b])?;
//! nl.mark_output(y, "y");
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let locked = XorLock::new(1).lock(&nl, &mut rng)?;
//! assert_eq!(locked.key_width(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for full flows and `crates/bench` for the experiment
//! harness regenerating every table and figure in the paper.

pub use glitchlock_attacks as attacks;
pub use glitchlock_circuits as circuits;
pub use glitchlock_core as core;
pub use glitchlock_count as count;
pub use glitchlock_dataflow as dataflow;
pub use glitchlock_fuzz as fuzz;
pub use glitchlock_jobs as jobs;
pub use glitchlock_lint as lint;
pub use glitchlock_netlist as netlist;
pub use glitchlock_netlist::aig;
pub use glitchlock_obs as obs;
pub use glitchlock_sat as sat;
pub use glitchlock_serve as serve;
pub use glitchlock_sim as sim;
pub use glitchlock_sta as sta;
pub use glitchlock_stdcell as stdcell;
pub use glitchlock_synth as synth;
