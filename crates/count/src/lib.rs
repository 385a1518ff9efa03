//! # glitchlock-count
//!
//! Projected model counting for quantitative locking-security scores.
//!
//! Campaign verdicts say *whether* an attack wins; this crate says *how
//! much* a locker corrupts. Three counts per locked design, each a
//! projected model count over the attack-surface Boolean spaces:
//!
//! * **wrong-key error rate** — `|{x : view(x, k̂) ≠ oracle(x)}| / 2^n`
//!   for one sampled key `k̂`: the fraction of the input space a wrong key
//!   corrupts (TriLock's "corruptibility" axis).
//! * **DIP-space size** — `|{x : ∃ k₁, k₂ : view(x, k₁) ≠ view(x, k₂)}|`:
//!   how many distinguishing input patterns exist at all. Zero means the
//!   SAT attack's first miter call is UNSAT — the paper's GK headline.
//! * **wrong-key count / key equivalence classes** —
//!   `|{k : ∃ x : view(x, k) ≠ oracle(x)}|` and the number of distinct
//!   key-induced functions: the quantities the one-key-premise critique
//!   needs to even be stated.
//!
//! Two engines compute them, and the crate is test-led around their
//! agreement:
//!
//! * [`exhaustive`] — a packed 64-lane brute-force sweep, exact up to
//!   ~20 data+key bits. Built first; it is the oracle every estimator
//!   path is validated against.
//! * [`estimator`] — an ApproxMC-style hash count: random XOR parity
//!   constraints ([`xor`]) layered onto a miter CNF, activated per round
//!   through assumption literals so **one** incremental solver serves the
//!   whole binary search, with a `(1+ε)`-multiplicative, `1−δ`-confidence
//!   guarantee.
//!
//! [`scores::corruption_scores`] dispatches between them (both run below
//! the exact cutoff, so every estimate is cross-checked for free), builds
//! the miters through the same encoder ([`glitchlock_sat::encode_comb_with`])
//! as the SAT attack, over every view output and every key bit. No
//! structural pruning runs first: a key that reaches no output shows up
//! as an UNSAT miter, which is how the GK attack view's `dip = 0` lands.
//!
//! Determinism contract: every random draw (sampled key, XOR rows) comes
//! from a [`rand::rngs::StdRng`] seeded by the caller — campaign runs key
//! it on the bench, the locker cell and the `count` directive — and hash
//! rows are drawn over projection *positions*, never solver variable ids,
//! so estimates are bit-identical across worker counts, shards, and
//! resume.

#![deny(missing_docs)]

pub mod estimator;
pub mod exhaustive;
pub mod scores;
pub mod view;
pub mod xor;

pub use estimator::{approx_count, ApproxCount, CountParams};
pub use exhaustive::{exact_scores, ExactScores};
pub use scores::{corruption_scores, CorruptionScores, Score, ScoreConfig, ScoreMethod};
pub use view::KeyedView;
pub use xor::{draw_rows, encode_row_into, ParityRow};
