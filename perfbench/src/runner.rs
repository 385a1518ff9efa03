//! The run loop shared by the single-threaded compute workloads, the
//! metric catalogue, and the result line.

use crate::stats::{median, peak_rss_mb, percentile, Digest};
use crate::trace::{span_cost_ns, Tracer};
use glitchlock_obs::{self as obs, Collector, MetricValue};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions: at least this many, and for at least
/// [`SETUP_MIN_S`] of wall time, both before and after the timed phase of
/// an untraced run, plus one between timed passes; `setup_s` is the median
/// of all of them. Spreading them over the run keeps one slow moment of
/// the machine from setting the figure.
pub const SETUP_MIN_REPS: usize = 4;
pub const SETUP_MIN_S: f64 = 0.15;
/// Cap on set-up repetitions per side.
pub const SETUP_MAX_REPS: usize = 200;

/// Fewest timed samples a run takes, so the 90th percentile has at least
/// ten samples beyond it.
pub const MIN_SAMPLES: usize = 110;

/// Every per-layer metric a traced run prints, with its unit. Layers a
/// workload does not exercise read 0 there.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("netlist.parse_ms", "ms"),
    ("sta.analyze_ms", "ms"),
    ("core.feasibility_ms", "ms"),
    ("core.insert_ms", "ms"),
    ("synth.overhead_ms", "ms"),
    ("attacks.miter_build_ms", "ms"),
    ("sat.solve_ms", "ms"),
    ("core.sites_feasible", "count"),
    ("core.gk_inserted", "count"),
    ("sat.encode_io_ms", "ms"),
    ("attacks.oracle_ms", "ms"),
    ("attacks.verify_ms", "ms"),
    ("sat.dips", "count"),
    ("sat.solver_calls", "count"),
    ("sat.conflicts", "count"),
    ("sat.propagations", "count"),
    ("sat.miter_clauses", "count"),
    ("sat.conflicts_per_s", "1/s"),
    ("sat.propagations_per_s", "1/s"),
    ("count.exact_ms", "ms"),
    ("count.hash_ms", "ms"),
    ("count.solver_calls", "count"),
    ("count.xor_rows", "count"),
    ("count.exhaustive_sweeps", "count"),
    ("count.us_per_solver_call", "us"),
    ("count.within_eps_ratio", "ratio"),
    ("serve.encode_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("netlist.packed_eval_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.wire_bytes_per_pattern", "B"),
    ("serve.oracle.coalesced", "count"),
    ("serve.lane_fill_ratio", "ratio"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.span_cost_us", "us"),
];

/// One printed metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// A finished run: the result line plus the recorded spans.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

impl Report {
    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// End-to-end metrics in catalogue order.
pub fn end_to_end(
    setup_s: f64,
    throughput: f64,
    p50_ms: f64,
    p90_ms: f64,
    rss_mb: f64,
) -> Vec<Metric> {
    let m = |name: &str, value, unit| Metric {
        name: name.to_string(),
        value,
        unit,
    };
    vec![
        m("setup_s", setup_s, "s"),
        m("throughput_per_s", throughput, "1/s"),
        m("latency_p50_ms", p50_ms, "ms"),
        m("latency_p90_ms", p90_ms, "ms"),
        m("peak_rss_mb", rss_mb, "MB"),
    ]
}

/// Fills the whole per-layer catalogue from `values` (0 where absent).
pub fn layer_catalogue(values: &BTreeMap<&'static str, f64>) -> Vec<Metric> {
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| Metric {
            name: name.to_string(),
            value: values.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// Per-op span self times (ms) and program counter totals over the
/// traced ops of a run.
pub struct LayerAgg {
    pub ops: usize,
    pub self_ms: BTreeMap<&'static str, f64>,
    pub counters: BTreeMap<String, u64>,
}

impl LayerAgg {
    /// Self time of span `name` per op, in ms.
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0) / self.ops.max(1) as f64
    }

    /// Total of program counter `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Program counter `name` per op.
    pub fn per_op(&self, name: &str) -> f64 {
        self.total(name) as f64 / self.ops.max(1) as f64
    }
}

/// What one op did.
#[derive(Default)]
pub struct OpOutcome {
    /// Wall time of the op itself (probes excluded).
    pub wall: Duration,
    /// Digest of the outputs that must repeat on every pass.
    pub digest: Digest,
    /// A failed correctness check, if any.
    pub error: Option<String>,
}

/// A single-threaded compute workload over a fixed op list.
pub trait Workload {
    /// Ops per pass.
    fn ops(&self) -> usize;
    /// Digest of the generated inputs; every set-up repetition must agree.
    fn inputs_digest(&self) -> Digest;
    /// Runs op `i`, timing it, checking its outputs, and (when `tr` is on)
    /// recording spans and probes.
    fn run(&mut self, i: usize, tr: &mut Tracer) -> OpOutcome;
    /// Clears workload-side per-layer tallies.
    fn reset_tallies(&mut self) {}
    /// Workload-specific per-layer metrics from the traced ops.
    fn layers(&self, agg: &LayerAgg) -> Vec<(&'static str, f64)>;
}

/// Program counters recorded while `f` ran under a fresh scoped collector.
fn with_counters<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let collector = Arc::new(Collector::new());
    let out = obs::scoped(&collector, f);
    let counters = collector
        .registry()
        .snapshot()
        .into_iter()
        .filter_map(|(name, v)| match v {
            MetricValue::Counter(c) => Some((name, c)),
            _ => None,
        })
        .collect();
    (out, counters)
}

struct Tally {
    attempted: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, i: usize, pass: &str, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            if self.errors.len() < 8 {
                eprintln!("perfbench: op {i} ({pass} pass): {e}");
            }
            self.errors.push(e);
        }
    }
}

/// Repeats `f` (one set-up, returning its own duration in seconds) until
/// [`SETUP_MIN_REPS`] and [`SETUP_MIN_S`] are both reached.
pub fn repeat_setup(
    secs: &mut Vec<f64>,
    mut f: impl FnMut() -> Result<f64, String>,
) -> Result<(), String> {
    let started = Instant::now();
    for rep in 0..SETUP_MAX_REPS {
        if rep >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_S {
            break;
        }
        secs.push(f()?);
    }
    Ok(())
}

/// Runs a compute workload: set-up (repeated when untraced), one warm-up
/// pass, then whole timed passes until another would end past `seconds`.
pub fn drive<W: Workload>(
    setup: fn(u64) -> Result<W, String>,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Report, String> {
    let mut setup_secs = Vec::new();
    let mut digest = None;
    let mut set_up = || -> Result<(W, f64), String> {
        let t = Instant::now();
        let w = setup(seed)?;
        let secs = t.elapsed().as_secs_f64();
        let d = w.inputs_digest();
        if *digest.get_or_insert(d) != d {
            return Err("set-up is not deterministic in the seed".to_string());
        }
        Ok((w, secs))
    };
    if !trace {
        // Each repetition's workload is dropped before the next is built,
        // so no two copies are ever alive before the peak RSS is read.
        repeat_setup(&mut setup_secs, || set_up().map(|(_, secs)| secs))?;
    }
    let (mut work, secs) = set_up()?;
    setup_secs.push(secs);
    let n = work.ops();
    let mut tr = Tracer::new(false, Instant::now());
    let mut tally = Tally {
        attempted: 0,
        errors: Vec::new(),
    };

    // Warm-up pass: fixes the reference outputs and counters of every op.
    let mut reference = Vec::with_capacity(n);
    for i in 0..n {
        let (out, counters) = with_counters(|| work.run(i, &mut tr));
        reference.push(counter_digest(out.digest, &counters));
        tally.record(i, "warm-up", out.error);
    }
    // Outputs and program counters of the whole pass: equal across runs on
    // the same seed.
    let pass_digest = reference.iter().fold(Digest::default(), |d, r| d.u64(r.0));
    eprintln!("perfbench: warm-up pass digest {:016x}", pass_digest.0);
    // Timed passes repeat the warm-up's ops, so the peak so far is the
    // run's; read it before the set-ups between passes build a second
    // copy of the workload next to `work`.
    let rss_mb = peak_rss_mb(None)?;

    // Timed passes, stopping before one that would end past `seconds`
    // once there are enough samples. A traced run alternates untraced and
    // traced passes so the tracing overhead is measured on the same ops.
    work.reset_tallies();
    let mut latencies = Vec::new();
    let mut walls = [0.0f64; 2];
    let mut op_counts = [0usize; 2];
    let mut counter_totals: BTreeMap<String, u64> = BTreeMap::new();
    let started = Instant::now();
    let mut pass = 0usize;
    loop {
        let traced = trace && pass % 2 == 1;
        tr.set_on(traced);
        let pass_started = Instant::now();
        for (i, want) in reference.iter().enumerate() {
            let (out, counters) = with_counters(|| work.run(i, &mut tr));
            let mut error = out.error;
            if error.is_none() && counter_digest(out.digest, &counters) != *want {
                error = Some("outputs or program counters differ from the warm-up pass".into());
            }
            tally.record(i, "timed", error);
            let ms = out.wall.as_secs_f64() * 1e3;
            walls[usize::from(traced)] += ms;
            op_counts[usize::from(traced)] += 1;
            if traced {
                for (k, v) in counters {
                    *counter_totals.entry(k).or_insert(0) += v;
                }
            } else {
                latencies.push(ms);
            }
        }
        pass += 1;
        if !trace {
            // One more set-up between passes, so the set-up figure samples
            // the machine across the whole run.
            setup_secs.push(set_up()?.1);
        }
        let enough = pass >= 2 && (trace || latencies.len() >= MIN_SAMPLES);
        let next_end = started.elapsed() + pass_started.elapsed();
        if enough && next_end.as_secs_f64() > seconds {
            break;
        }
    }
    if !trace {
        repeat_setup(&mut setup_secs, || set_up().map(|(_, secs)| secs))?;
    }
    let failed = tally.errors.len() as u64;
    let correct = tally.errors.is_empty();
    let metrics = if trace {
        let self_ns = tr.self_times();
        let agg = LayerAgg {
            ops: op_counts[1],
            self_ms: self_ns.into_iter().map(|(k, v)| (k, v / 1e6)).collect(),
            counters: counter_totals,
        };
        let mut values: BTreeMap<&'static str, f64> = work.layers(&agg).into_iter().collect();
        values.insert("unattributed_ms", agg.ms("op"));
        let untraced = op_counts[0] as f64 / walls[0];
        let traced = op_counts[1] as f64 / walls[1];
        values.insert("trace.overhead_pct", (untraced / traced - 1.0) * 100.0);
        values.insert("trace.span_cost_us", span_cost_ns() / 1e3);
        layer_catalogue(&values)
    } else {
        // Ops per second of op time: the timed phase less the benchmark's
        // own checks and the set-up repetitions between passes.
        end_to_end(
            median(&setup_secs),
            op_counts[0] as f64 / (walls[0] / 1e3),
            percentile(&latencies, 0.5),
            percentile(&latencies, 0.9),
            rss_mb,
        )
    };
    Ok(Report {
        correct,
        attempted: tally.attempted,
        failed,
        metrics,
        tracer: tr,
    })
}

fn counter_digest(outputs: Digest, counters: &BTreeMap<String, u64>) -> Digest {
    counters
        .iter()
        .fold(outputs, |d, (k, v)| d.bytes(k.as_bytes()).u64(*v))
}
