//! Minimal self-contained micro-benchmark harness with a Criterion-shaped
//! API, so the `benches/` targets build with no external dependencies.
//!
//! Timing protocol: each benchmark warms up for [`WARMUP_MS`], then runs
//! measured batches until [`MEASURE_MS`] of wall time has accumulated
//! (override both with `GLITCHLOCK_BENCH_MS`). Reported numbers are the
//! mean ns/iteration over the measured window.

use glitchlock_obs as obs;
use std::fmt::Display;
use std::time::{Duration, Instant};

const WARMUP_MS: u64 = 150;
const MEASURE_MS: u64 = 500;

fn measure_budget() -> Duration {
    let ms = std::env::var("GLITCHLOCK_BENCH_MS")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(MEASURE_MS);
    Duration::from_millis(ms)
}

/// One measured benchmark result.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Full benchmark id (`group/name` or `group/name/param`).
    pub id: String,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Total iterations measured.
    pub iters: u64,
}

impl Sample {
    /// Iterations per second implied by the mean.
    pub fn per_sec(&self) -> f64 {
        1e9 / self.ns_per_iter
    }
}

/// Top-level driver, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    samples: Vec<Sample>,
}

impl Criterion {
    /// Fresh driver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            crit: self,
        }
    }

    /// All samples measured so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    fn run_one(&mut self, id: String, f: &mut dyn FnMut(&mut Bencher)) {
        let mut b = Bencher {
            mode: Mode::Warmup(Duration::from_millis(
                WARMUP_MS.min(measure_budget().as_millis() as u64),
            )),
            total: Duration::ZERO,
            iters: 0,
        };
        f(&mut b);
        b.mode = Mode::Measure(measure_budget());
        b.total = Duration::ZERO;
        b.iters = 0;
        f(&mut b);
        let ns = if b.iters == 0 {
            f64::NAN
        } else {
            b.total.as_nanos() as f64 / b.iters as f64
        };
        let sample = Sample {
            id: id.clone(),
            ns_per_iter: ns,
            iters: b.iters,
        };
        println!(
            "{id:<48} {:>14.1} ns/iter {:>14.0} iters/s ({} iters)",
            sample.ns_per_iter,
            sample.per_sec(),
            sample.iters
        );
        // Publish under the shared metric namespace so traced bench runs
        // and `--metrics` reports are comparable by name.
        obs::gauge_set(
            &format!("bench.{}.ns_per_iter", sample.id),
            sample.ns_per_iter,
        );
        self.samples.push(sample);
    }
}

/// A named group of benchmarks, mirroring `criterion::BenchmarkGroup`.
pub struct BenchmarkGroup<'a> {
    name: String,
    crit: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks a closure under `group/name`.
    pub fn bench_function<F>(&mut self, name: impl Display, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, name);
        self.crit.run_one(id, &mut f);
    }

    /// Benchmarks a closure over a fixed input under `group/id`.
    pub fn bench_with_input<I: ?Sized, F>(&mut self, id: BenchmarkId, input: &I, mut f: F)
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.label);
        self.crit.run_one(full, &mut |b| f(b, input));
    }

    /// Closes the group (kept for API parity; no-op).
    pub fn finish(self) {}
}

/// A `name/param` benchmark label, mirroring `criterion::BenchmarkId`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds a label from a function name and a parameter.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{param}"),
        }
    }
}

enum Mode {
    Warmup(Duration),
    Measure(Duration),
}

/// Passed to benchmark closures; accumulates timed iterations.
pub struct Bencher {
    mode: Mode,
    total: Duration,
    iters: u64,
}

impl Bencher {
    /// Times `f` repeatedly until the phase budget is exhausted.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let budget = match self.mode {
            Mode::Warmup(d) | Mode::Measure(d) => d,
        };
        // Geometrically growing batches amortise clock reads for fast
        // closures while keeping slow ones to a handful of calls.
        let mut batch: u64 = 1;
        while self.total < budget {
            let start = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            self.total += start.elapsed();
            self.iters += batch;
            batch = (batch * 2).min(1 << 20);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_a_trivial_closure() {
        std::env::set_var("GLITCHLOCK_BENCH_MS", "5");
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("t");
        g.bench_function("noop", |b| b.iter(|| 1u64 + 1));
        g.bench_with_input(BenchmarkId::new("sum", 8), &8u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        g.finish();
        assert_eq!(c.samples().len(), 2);
        assert!(c.samples().iter().all(|s| s.iters > 0));
        assert_eq!(c.samples()[0].id, "t/noop");
        assert_eq!(c.samples()[1].id, "t/sum/8");
    }
}
