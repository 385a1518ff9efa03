//! # glitchlock-serve
//!
//! Oracle-as-a-service: a long-lived TCP daemon exposing the packed
//! 64-lane oracle evaluator, lock/attack jobs, and whole campaign specs
//! to many concurrent clients over a length-framed JSON protocol.
//!
//! The layers, bottom up:
//!
//! * [`frame`] — `[u32 BE length][canonical JSON]` framing with typed
//!   failures (clean close vs torn frame vs oversized header), allocation
//!   bounded *before* reading a payload.
//! * [`proto`] — the request/response vocabulary. Every type round-trips
//!   its JSON encoding exactly; responses echo the request id so the
//!   server may answer out of order.
//! * [`batcher`] — the throughput core: oracle work from all connections
//!   funnels into one queue, and a batch worker packs queued patterns —
//!   across connections — into 64-lane evaluator passes (bounded queue,
//!   drained whole each time the worker wakes).
//! * [`server`] — accept loop, per-connection threads, per-connection
//!   in-flight windows with explicit `busy` responses, and hard-kill
//!   supervision for heavy jobs, mirroring the campaign pool.
//! * [`client`] — a small blocking client (used by `glk query`, the load
//!   harness, and the test suite) supporting call and pipelined styles.
//!
//! Everything observable lands under the `serve.*` obs names, so
//! `glk trace-check --sites serve` can prove the daemon's probes fire.

#![deny(missing_docs)]

pub mod batcher;
pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use batcher::{Batcher, BatcherConfig, LoadedDesign, Submit};
pub use client::Client;
pub use frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME};
pub use proto::{AttackJob, ErrorCode, Op, Reply, Request, Response};
pub use server::{run_sweep, start, sweep_pattern, ServerConfig, ServerHandle};
