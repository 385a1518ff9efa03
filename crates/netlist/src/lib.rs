//! Gate-level netlist intermediate representation for the `glitchlock` project.
//!
//! This crate provides the circuit substrate every other crate builds on:
//!
//! * [`Netlist`] — an arena-based gate-level IR with primary inputs/outputs,
//!   combinational gates, and D flip-flops (single implicit global clock).
//! * [`Logic`] — three-valued logic (`0`, `1`, `X`) with the usual gate
//!   semantics, used by both the zero-delay evaluator and the timing
//!   simulator in `glitchlock-sim`.
//! * [`GateKind`] — the primitive cell functions (n-ary AND/OR/NAND/NOR,
//!   XOR/XNOR parity, INV/BUF, 2:1 and 4:1 MUX, constants, DFF).
//! * [`CombView`] — the sequential→combinational unfolding used by SAT
//!   attacks: every flip-flop's D pin becomes a pseudo primary output and its
//!   Q pin a pseudo primary input.
//! * [`Aig`] — an And-Inverter Graph with complemented edges and structural
//!   hashing; netlists lower into it ([`Aig::from_comb`]), round-trip back
//!   ([`Aig::to_netlist`]), and shrink to output cones
//!   ([`Aig::extract_cone`]) before CNF encoding.
//! * Parsers/writers for the ISCAS-89 `.bench` format ([`bench_format`]) and
//!   a structural Verilog subset ([`verilog`]).
//!
//! Lattice-based abstract interpretation over this IR (constant/X
//! propagation, key-bit taint, SCOAP testability) lives in the companion
//! `glitchlock-dataflow` crate, re-exported from the facade crate as
//! `glitchlock::dataflow` — it depends on this crate, so it cannot be
//! re-exported from here without a cycle.
//!
//! # Example
//!
//! ```rust
//! use glitchlock_netlist::{Netlist, GateKind, Logic};
//!
//! # fn main() -> Result<(), glitchlock_netlist::NetlistError> {
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_gate(GateKind::Nand, &[a, b])?;
//! nl.mark_output(g, "y");
//! nl.validate()?;
//! let out = nl.eval_comb(&[Logic::One, Logic::One]);
//! assert_eq!(out, vec![Logic::Zero]);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod aig;
mod comb;
mod cone;
mod depth;
mod error;
mod id;
mod kind;
mod logic;
#[allow(clippy::module_inception)]
mod netlist;
mod packed;

pub mod bench_format;
pub mod verilog;

pub use aig::{extract_cone_netlist, Aig, AigLit, AigNode, ConeExtraction};
pub use comb::{CombView, SeqState};
pub use cone::{fanin_cone, fanout_cone, output_reach, output_support, OutputReach};
pub use depth::{depth_histogram, levelize, max_depth};
pub use error::NetlistError;
pub use id::{CellId, LibCellId, NetId};
pub use kind::GateKind;
pub use logic::Logic;
pub use netlist::{Cell, Net, Netlist, NetlistStats};
pub use packed::{
    pack_bool_patterns, unpack_lane, EvalProgram, PackedBuf, PackedLogic, PackedSeqState, LANES,
};
