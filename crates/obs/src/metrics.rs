//! Typed metrics: counters, gauges, histograms in a thread-safe registry.
//!
//! Handles are cheap `Arc` clones; hot paths resolve a handle once (e.g.
//! at scratch-buffer allocation) and then pay a single relaxed atomic add
//! per batch. The registry keys metrics by name in a `BTreeMap` so every
//! snapshot iterates in a deterministic order — golden traces and
//! determinism tests depend on this (a `HashMap` here would leak the
//! per-process SipHash seed into emitted artifacts).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing event count. Cloning shares the underlying
/// cell.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point level (stored as `f64` bits in an
/// `AtomicU64`).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug, Default)]
struct HistInner {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Aggregating histogram over `u64` samples (nanoseconds by convention:
/// names end in `_ns`). Tracks count/sum/min/max — enough for reports and
/// overhead budgets without bucket bookkeeping on the hot path.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<HistInner>>);

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        let mut h = self.0.lock().expect("histogram poisoned");
        if h.count == 0 {
            h.min = v;
            h.max = v;
        } else {
            h.min = h.min.min(v);
            h.max = h.max.max(v);
        }
        h.count += 1;
        h.sum += v;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.0.lock().expect("histogram poisoned").count
    }

    /// Folds another histogram's aggregate into this one (used when a
    /// scoped per-job registry is merged back into its parent).
    pub fn absorb(&self, count: u64, sum: u64, min: u64, max: u64) {
        if count == 0 {
            return;
        }
        let mut h = self.0.lock().expect("histogram poisoned");
        if h.count == 0 {
            h.min = min;
            h.max = max;
        } else {
            h.min = h.min.min(min);
            h.max = h.max.max(max);
        }
        h.count += count;
        h.sum += sum;
    }

    fn snapshot(&self) -> MetricValue {
        let h = self.0.lock().expect("histogram poisoned");
        MetricValue::Hist {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
        }
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Hist(Histogram),
}

/// A point-in-time reading of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(f64),
    /// Histogram aggregate.
    Hist {
        /// Sample count.
        count: u64,
        /// Sum of samples.
        sum: u64,
        /// Smallest sample (0 when empty).
        min: u64,
        /// Largest sample (0 when empty).
        max: u64,
    },
}

/// Name → metric map behind a mutex. Lookups are rare (handles are
/// cached); snapshots are deterministic (BTreeMap order).
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// The metric registered under `name`, registering `make()` there on
    /// first use. A name already registered costs no allocation.
    fn metric(&self, name: &str, make: fn() -> Metric) -> Metric {
        let mut map = self.inner.lock().expect("registry poisoned");
        if let Some(m) = map.get(name) {
            return m.clone();
        }
        map.entry(name.to_string()).or_insert_with(make).clone()
    }

    /// The counter registered under `name`, creating it on first use. If
    /// the name is already taken by a different metric kind, a detached
    /// (unregistered) handle is returned so callers never panic mid-run.
    pub fn counter(&self, name: &str) -> Counter {
        match self.metric(name, || Metric::Counter(Counter::default())) {
            Metric::Counter(c) => c,
            _ => Counter::default(),
        }
    }

    /// The gauge registered under `name` (see [`Registry::counter`] for
    /// the kind-collision rule).
    pub fn gauge(&self, name: &str) -> Gauge {
        match self.metric(name, || Metric::Gauge(Gauge::default())) {
            Metric::Gauge(g) => g,
            _ => Gauge::default(),
        }
    }

    /// The histogram registered under `name` (see [`Registry::counter`]
    /// for the kind-collision rule).
    pub fn hist(&self, name: &str) -> Histogram {
        match self.metric(name, || Metric::Hist(Histogram::default())) {
            Metric::Hist(h) => h,
            _ => Histogram::default(),
        }
    }

    /// Folds a snapshot (typically from a scoped per-job registry) into
    /// this registry: counters add, gauges last-write-win, histograms
    /// merge their aggregates. Kind collisions follow the
    /// [`Registry::counter`] rule — the snapshot value is dropped rather
    /// than panicking.
    pub fn merge_snapshot(&self, snapshot: &[(String, MetricValue)]) {
        for (name, value) in snapshot {
            match value {
                MetricValue::Counter(v) => self.counter(name).add(*v),
                MetricValue::Gauge(v) => self.gauge(name).set(*v),
                MetricValue::Hist {
                    count,
                    sum,
                    min,
                    max,
                } => self.hist(name).absorb(*count, *sum, *min, *max),
            }
        }
    }

    /// All registered metrics in name order.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let map = self.inner.lock().expect("registry poisoned");
        map.iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Hist(h) => h.snapshot(),
                };
                (name.clone(), v)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_clones() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
    }

    #[test]
    fn snapshot_is_name_ordered() {
        let r = Registry::default();
        r.counter("zeta").incr();
        r.gauge("alpha").set(1.5);
        r.hist("mid").observe(10);
        let names: Vec<String> = r.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
    }

    #[test]
    fn kind_collision_returns_detached_handle() {
        let r = Registry::default();
        r.counter("x").incr();
        let g = r.gauge("x");
        g.set(9.0);
        assert_eq!(r.snapshot()[0].1, MetricValue::Counter(1));
    }

    #[test]
    fn merge_snapshot_adds_counters_and_merges_hists() {
        let a = Registry::default();
        a.counter("c").add(3);
        a.gauge("g").set(2.0);
        a.hist("h").observe(10);
        let b = Registry::default();
        b.counter("c").add(4);
        b.gauge("g").set(9.0);
        b.hist("h").observe(2);
        b.hist("h").observe(20);
        a.merge_snapshot(&b.snapshot());
        let got: std::collections::BTreeMap<String, MetricValue> =
            a.snapshot().into_iter().collect();
        assert_eq!(got["c"], MetricValue::Counter(7));
        assert_eq!(got["g"], MetricValue::Gauge(9.0));
        assert_eq!(
            got["h"],
            MetricValue::Hist {
                count: 3,
                sum: 32,
                min: 2,
                max: 20
            }
        );
    }

    #[test]
    fn histogram_tracks_min_max() {
        let h = Histogram::default();
        h.observe(5);
        h.observe(2);
        h.observe(9);
        assert_eq!(
            h.snapshot(),
            MetricValue::Hist {
                count: 3,
                sum: 16,
                min: 2,
                max: 9
            }
        );
    }
}
