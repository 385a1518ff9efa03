//! A CDCL SAT solver and netlist-to-CNF encoder for `glitchlock`.
//!
//! The SAT attack (Subramanyan et al., HOST'15) that the paper defends
//! against needs a real Boolean satisfiability solver. The offline crate
//! set has none, so this crate implements one from scratch:
//!
//! * [`Solver`] — conflict-driven clause learning with two-watched-literal
//!   propagation, first-UIP conflict analysis, and VSIDS branching with
//!   phase saving, run on one strategy profile: glucose-style LBD clause
//!   management, EMA restarts with trail-depth blocking, and best-phase
//!   rephasing. Supports incremental clause addition between solves and
//!   solving under assumptions with unsat-core extraction
//!   ([`Solver::failed_assumptions`]) — all used by the attack's DIP loop.
//! * [`Cnf`]/[`Lit`]/[`Var`] — clause database types.
//! * [`encoder`] — the netlist-to-CNF encoder: a gate-level netlist's
//!   combinational view is lowered to a strash-deduplicated
//!   And-Inverter Graph and Tseitin-encoded at one 3-clause gate per AND
//!   node ([`encode_comb_with`]), into a [`Cnf`] or straight into a
//!   [`Solver`] (both are [`CnfSink`]s).
//! * [`equiv`] — bounded sequential equivalence checking by unrolling.
//!
//! [`SolverBackend`] and [`EncoderKind`] are one-variant types naming
//! that one profile and that one encoder.
//!
//! # Example
//!
//! ```rust
//! use glitchlock_sat::{Solver, Lit, SatResult};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause(&[Lit::pos(a), Lit::pos(b)]);
//! s.add_clause(&[Lit::neg(a)]);
//! assert_eq!(s.solve(), SatResult::Sat);
//! assert_eq!(s.value(b), Some(true));
//! // Incremental: adding the blocking clause flips the result.
//! s.add_clause(&[Lit::neg(b)]);
//! assert_eq!(s.solve(), SatResult::Unsat);
//! ```

#![deny(missing_docs)]

mod clause;
mod cnf;
pub mod dimacs;
pub mod encoder;
pub mod equiv;
mod heap;
mod reduce;
mod restart;
mod solver;

pub use cnf::{Cnf, Lit, Var};
pub use encoder::{encode_aig_into, encode_comb_with, AigPorts, CnfSink, EncodedIo, EncoderKind};
pub use solver::{SatResult, Solver, SolverBackend, SolverStats};
