//! The canonical metric-name registry.
//!
//! Every instrumentation site in the workspace registers under one of
//! these names, so bench snapshots, live `--metrics` reports, and traced
//! runs are comparable by string equality. [`expected_sites`] lists, per
//! CLI domain, the probes that any healthy run of that domain must fire
//! at least once — `glk trace-check --sites <domain>` fails when one
//! reads zero (dead-probe detection).

/// DIP-eliminating iterations of the oracle-guided SAT attack.
pub const SAT_ITERATIONS: &str = "sat.iterations";
/// Distinguishing input patterns found.
pub const SAT_DIPS: &str = "sat.dips";
/// CDCL solver invocations (find-DIP + key extraction).
pub const SAT_SOLVER_CALLS: &str = "sat.solver.calls";
/// Per-call solver wall time (histogram).
pub const SAT_SOLVER_NS: &str = "sat.solver.ns";
/// CNF variable count after the last solver call (gauge).
pub const SAT_VARS: &str = "sat.vars";
/// CNF clause count after the last solver call (gauge).
pub const SAT_CLAUSES: &str = "sat.clauses";
/// CDCL conflicts analyzed across solver calls.
pub const SAT_CONFLICTS: &str = "sat.conflicts";
/// Literals propagated across solver calls.
pub const SAT_PROPAGATIONS: &str = "sat.propagations";
/// Solver restarts across solver calls.
pub const SAT_RESTARTS: &str = "sat.restarts";
/// Learnt clauses currently kept after the last solver call (gauge).
pub const SAT_LEARNT: &str = "sat.learnt";
/// Learnt-clause database reductions across solver calls.
pub const SAT_REDUCTIONS: &str = "sat.reductions";
/// Mean learnt-clause LBD after the last solver call, in thousandths
/// (gauge; integer so traces stay deterministic).
pub const SAT_MEAN_LBD_MILLI: &str = "sat.mean_lbd_milli";

/// AppSAT rounds (DIP burst + probe batch).
pub const APPSAT_ROUNDS: &str = "appsat.rounds";
/// AppSAT DIPs added.
pub const APPSAT_DIPS: &str = "appsat.dips";
/// AppSAT random probe patterns evaluated.
pub const APPSAT_PROBES: &str = "appsat.probes";

/// Sequential (unrolled) SAT attack iterations.
pub const SEQSAT_ITERATIONS: &str = "seqsat.iterations";
/// Sequential SAT solver invocations.
pub const SEQSAT_SOLVER_CALLS: &str = "seqsat.solver.calls";

/// Patterns sampled by the removal attack's signal-skew scan.
pub const REMOVAL_SKEW_SAMPLES: &str = "removal.skew.samples";
/// Point-function candidates located by skew.
pub const REMOVAL_CANDIDATES: &str = "removal.candidates";
/// Structural GK sites located (MUX+XOR/XNOR motif).
pub const REMOVAL_GK_SITES: &str = "removal.gk_sites";
/// TDK delay buffers stripped.
pub const REMOVAL_TDK_STRIPPED: &str = "removal.tdk_stripped";

/// GK sites probed by the scan-chain hypothesis attack.
pub const SCAN_SITES: &str = "scan.sites";
/// Scan patterns evaluated against buffer/inverter hypotheses.
pub const SCAN_SAMPLES: &str = "scan.samples";
/// Sites resolved to a consistent buffer/inverter model.
pub const SCAN_RESOLVED: &str = "scan.resolved";

/// Timed characteristic-function frames built.
pub const TCF_FRAMES: &str = "tcf.frames";
/// Frames whose capture is undefined (glitch-masked).
pub const TCF_UNDEFINED: &str = "tcf.undefined";

/// Enhanced (locate-replace-SAT) attack runs.
pub const ENHANCED_RUNS: &str = "enhanced.runs";

/// Oracle queries answered (scalar + packed lanes).
pub const ORACLE_QUERIES: &str = "oracle.queries";

/// Gate evaluations: packed adds `instrs × 64` per pass, scalar adds the
/// combinational-cell count per pass, so the two paths agree pattern for
/// pattern.
pub const EVAL_GATE_EVALS: &str = "eval.gate_evals";
/// 64-lane packed evaluation passes.
pub const EVAL_PACKED_PASSES: &str = "eval.packed_passes";
/// Scalar (`eval_nets`) evaluation passes.
pub const EVAL_SCALAR_PASSES: &str = "eval.scalar_passes";

/// Heap events popped by the event-driven simulator.
pub const SIM_EVENTS: &str = "sim.events";
/// Net value changes applied (waveform edges).
pub const SIM_NET_CHANGES: &str = "sim.net_changes";
/// Events swallowed by inertial cancellation.
pub const SIM_CANCELLED: &str = "sim.cancelled";
/// Clock edges sampled.
pub const SIM_CLOCK_EDGES: &str = "sim.clock_edges";
/// Glitch pulses observed (consecutive edges closer than the observation
/// window).
pub const SIM_GLITCHES: &str = "sim.glitches";
/// Setup/hold violations recorded.
pub const SIM_VIOLATIONS: &str = "sim.violations";

/// Designs locked (any scheme, GK included).
pub const LOCK_DESIGNS: &str = "lock.designs";
/// Key bits inserted across schemes.
pub const LOCK_KEYBITS: &str = "lock.keybits";
/// GK candidate sites accepted by the Eqs. (1)–(6) window checks.
pub const LOCK_GK_FEASIBLE: &str = "lock.gk.sites.feasible";
/// GK candidate sites rejected, any verdict.
pub const LOCK_GK_REJECTED: &str = "lock.gk.sites.rejected";
/// Glitch key-gates actually inserted.
pub const LOCK_GK_INSERTED: &str = "lock.gk.inserted";
/// KEYGEN macros built (≤ inserted when shared).
pub const LOCK_GK_KEYGENS: &str = "lock.gk.keygens";

/// Campaign jobs expanded from the spec and handed to the pool.
pub const JOBS_SCHEDULED: &str = "jobs.scheduled";
/// Campaign jobs that ran to completion (any verdict, including skips).
pub const JOBS_COMPLETED: &str = "jobs.completed";
/// Job attempts beyond the first (bounded-retry re-executions).
pub const JOBS_RETRIES: &str = "jobs.retries";
/// Jobs killed at their per-job wall-clock timeout.
pub const JOBS_TIMEOUTS: &str = "jobs.timeouts";
/// Jobs that exhausted their retry budget.
pub const JOBS_FAILURES: &str = "jobs.failures";
/// Jobs skipped on `--resume` because the journal already records them.
pub const JOBS_RESUME_SKIPS: &str = "jobs.resume_skips";

/// Client connections accepted by the `glk serve` daemon.
pub const SERVE_CONNECTIONS: &str = "serve.connections";
/// Requests parsed off connections (every op, including rejected ones).
pub const SERVE_REQUESTS: &str = "serve.requests";
/// Responses written back to clients (busy and error replies included).
pub const SERVE_RESPONSES: &str = "serve.responses";
/// Explicit `busy` responses (in-flight window or batcher queue full).
pub const SERVE_BUSY: &str = "serve.busy";
/// Typed error responses (bad frames, bad JSON, unknown designs, …).
pub const SERVE_ERRORS: &str = "serve.errors";
/// Connections dropped mid-request (torn frame, reset, write failure).
pub const SERVE_DISCONNECTS: &str = "serve.disconnects";
/// Designs loaded into the oracle table.
pub const SERVE_DESIGNS: &str = "serve.designs";
/// Oracle patterns answered through the batcher (single + bulk + sweep).
pub const SERVE_ORACLE_PATTERNS: &str = "serve.oracle.patterns";
/// Batcher flushes (each one or more 64-lane packed passes).
pub const SERVE_ORACLE_BATCHES: &str = "serve.oracle.batches";
/// Work items coalesced into a flush beyond the first — lanes filled by
/// *other* connections' queries riding the same packed pass.
pub const SERVE_ORACLE_COALESCED: &str = "serve.oracle.coalesced";
/// Lock/attack/campaign jobs accepted by the daemon.
pub const SERVE_JOBS: &str = "serve.jobs";
/// Jobs hard-killed at the server's job timeout.
pub const SERVE_JOB_TIMEOUTS: &str = "serve.jobs.timeouts";

/// Per-request-type counter name (`serve.req.<op>`), one per protocol op.
pub fn serve_req(op: &str) -> String {
    format!("serve.req.{op}")
}

/// Per-client counter name (`serve.client.<n>.requests`), keyed by the
/// daemon's connection sequence number.
pub fn serve_client_requests(client: u64) -> String {
    format!("serve.client.{client}.requests")
}

/// Dataflow analysis runs (one per `AnalysisFacts` computation).
pub const ANALYSIS_RUNS: &str = "analysis.runs";
/// Worklist transfer-function applications summed over all domains.
pub const ANALYSIS_ITERATIONS: &str = "analysis.iterations";
/// Nets covered by a dataflow run (per run, not per domain).
pub const ANALYSIS_NETS: &str = "analysis.nets";
/// Key bits tracked by the taint domains.
pub const ANALYSIS_KEY_BITS: &str = "analysis.key_bits";
/// Nets forced up the lattice by widening (deep sequential feedback).
pub const ANALYSIS_WIDENED: &str = "analysis.widened";

/// Removal-attack point-function candidates discarded because no key
/// taint reaches them.
pub const REMOVAL_TAINT_PRUNED: &str = "removal.taint_pruned";

/// Corruption-score computations (one per locked design scored).
pub const COUNT_RUNS: &str = "count.runs";
/// Individual scores produced (err / dip / wrong-keys, skipped excluded).
pub const COUNT_SCORES: &str = "count.scores";
/// SAT solver invocations spent in hash-count cell enumeration.
pub const COUNT_SOLVER_CALLS: &str = "count.solver.calls";
/// Random XOR parity rows encoded onto miter CNFs.
pub const COUNT_XOR_ROWS: &str = "count.xor_rows";
/// Exhaustive ground-truth sweeps (one per key value swept).
pub const COUNT_EXHAUSTIVE_SWEEPS: &str = "count.exhaustive.sweeps";

/// Fuzz cases executed.
pub const FUZZ_CASES: &str = "fuzz.cases";
/// Referee verdicts returned (pass + skip + fail).
pub const FUZZ_VERDICTS: &str = "fuzz.verdicts";
/// Referee passes.
pub const FUZZ_PASSES: &str = "fuzz.passes";
/// Referee skips.
pub const FUZZ_SKIPS: &str = "fuzz.skips";
/// Failures recorded (after shrinking).
pub const FUZZ_FAILURES: &str = "fuzz.failures";
/// Shrink-oracle calls spent minimizing failures.
pub const FUZZ_SHRINK_STEPS: &str = "fuzz.shrink_steps";
/// Throughput gauge (volatile; excluded from determinism checks).
pub const FUZZ_CASES_PER_SEC: &str = "fuzz.cases_per_sec";

/// Probes that must be non-zero after any healthy run of the domain.
/// `None` for unknown domains.
pub fn expected_sites(domain: &str) -> Option<&'static [&'static str]> {
    match domain {
        // The exact SAT attack queries the oracle one DIP at a time, so
        // only the scalar evaluation path fires (packed is for batches).
        "attack" => Some(&[
            SAT_ITERATIONS,
            SAT_DIPS,
            SAT_SOLVER_CALLS,
            SAT_PROPAGATIONS,
            ORACLE_QUERIES,
            EVAL_GATE_EVALS,
            EVAL_SCALAR_PASSES,
        ]),
        "sim" => Some(&[
            SIM_EVENTS,
            SIM_NET_CHANGES,
            SIM_CLOCK_EDGES,
            EVAL_SCALAR_PASSES,
        ]),
        "lock-gk" => Some(&[
            LOCK_DESIGNS,
            LOCK_GK_FEASIBLE,
            LOCK_GK_INSERTED,
            LOCK_GK_KEYGENS,
        ]),
        "fuzz" => Some(&[
            FUZZ_CASES,
            FUZZ_VERDICTS,
            FUZZ_PASSES,
            LOCK_DESIGNS,
            EVAL_GATE_EVALS,
            EVAL_SCALAR_PASSES,
            EVAL_PACKED_PASSES,
            SIM_EVENTS,
        ]),
        // `glk analyze` always runs every domain over at least one key
        // bit (analyzing an unkeyed netlist is legal but not what the
        // gate traces). `analysis.widened` stays off the list: it is
        // legitimately zero on shallow or combinational designs.
        "analyze" => Some(&[
            ANALYSIS_RUNS,
            ANALYSIS_ITERATIONS,
            ANALYSIS_NETS,
            ANALYSIS_KEY_BITS,
        ]),
        // Any campaign locks designs and evaluates gates; per-job scoped
        // snapshots are folded back into the campaign collector, so these
        // read non-zero in the trace regardless of the attack mix.
        "campaign" => Some(&[
            JOBS_SCHEDULED,
            JOBS_COMPLETED,
            LOCK_DESIGNS,
            EVAL_GATE_EVALS,
        ]),
        // Any healthy daemon session accepts a connection, answers
        // requests, loads a design, and pushes oracle patterns through the
        // batcher. Busy/error/timeout counters are legitimately zero on a
        // clean session and stay off the list.
        "serve" => Some(&[
            SERVE_CONNECTIONS,
            SERVE_REQUESTS,
            SERVE_RESPONSES,
            SERVE_DESIGNS,
            SERVE_ORACLE_PATTERNS,
            SERVE_ORACLE_BATCHES,
        ]),
        // `glk count` always runs both the exhaustive sweep and the
        // estimator on its (small) gate designs. `count.xor_rows` stays
        // off the list: every projected space of the traced design may
        // legitimately fit under the pivot, in which case base
        // enumeration is exact and no hash round ever runs.
        "count" => Some(&[
            COUNT_RUNS,
            COUNT_SCORES,
            COUNT_SOLVER_CALLS,
            COUNT_EXHAUSTIVE_SWEEPS,
            EVAL_GATE_EVALS,
            EVAL_PACKED_PASSES,
        ]),
        _ => None,
    }
}

/// Every domain [`expected_sites`] knows about.
pub const DOMAINS: [&str; 8] = [
    "attack", "sim", "lock-gk", "analyze", "fuzz", "campaign", "serve", "count",
];
