//! # glitchlock-obs
//!
//! Dependency-free structured tracing + metrics for the glitchlock
//! workspace (the same no-external-deps rule as `glitchlock-prng`).
//!
//! Three layers:
//!
//! * **Metrics** — typed [`Counter`]s, [`Gauge`]s and [`Histogram`]s in a
//!   thread-safe, deterministically ordered [`Registry`]. Handles are
//!   `Arc` clones; hot paths cache one and pay a relaxed atomic add per
//!   batch. Always on — counting is cheap enough to never gate.
//! * **Tracing** — [`Event`]s (JSON lines with fixed `kind`/`name`/`ts`
//!   leaders) and [`SpanGuard`]s flowing into a [`Sink`]. Off by default:
//!   [`event`] returns an inert builder until a sink is installed, so
//!   un-traced runs pay one atomic load per would-be event.
//! * **Reports** — an end-of-run [`MetricsReport`] rendered as text or
//!   JSON, plus [`schema`] validation/normalization for golden-trace
//!   tests and `glk trace-check`.
//!
//! The process has one global collector ([`global`]); tests wanting
//! isolation run under a thread-scoped one ([`scoped`]):
//!
//! ```rust
//! use glitchlock_obs as obs;
//! use std::sync::Arc;
//!
//! let mine = Arc::new(obs::Collector::new());
//! let evals = obs::scoped(&mine, || {
//!     obs::add(obs::names::EVAL_GATE_EVALS, 64);
//!     obs::counter(obs::names::EVAL_GATE_EVALS).get()
//! });
//! assert_eq!(evals, 64);
//! ```

#![warn(missing_docs)]

mod collector;
mod event;
pub mod json;
mod metrics;
pub mod names;
mod report;
pub mod schema;
mod sink;

pub use collector::{Collector, SharedCollector};
pub use event::{write_json_str, Event, FieldValue};
pub use metrics::{Counter, Gauge, Histogram, MetricValue, Registry};
pub use report::MetricsReport;
pub use sink::{JsonlSink, MemSink, NullSink, Sink};

use std::cell::RefCell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static GLOBAL: OnceLock<SharedCollector> = OnceLock::new();

thread_local! {
    static SCOPED: RefCell<Vec<SharedCollector>> = const { RefCell::new(Vec::new()) };
}

/// The process-wide collector (created on first use).
pub fn global() -> &'static SharedCollector {
    GLOBAL.get_or_init(|| Arc::new(Collector::new()))
}

/// The collector in effect on this thread: the innermost [`scoped`] one,
/// else the global.
pub fn current() -> SharedCollector {
    SCOPED
        .with(|s| s.borrow().last().cloned())
        .unwrap_or_else(|| global().clone())
}

/// Runs `f` with `collector` as this thread's current collector. Scopes
/// nest; the previous collector is restored even if `f` panics.
pub fn scoped<T>(collector: &SharedCollector, f: impl FnOnce() -> T) -> T {
    struct PopOnDrop;
    impl Drop for PopOnDrop {
        fn drop(&mut self) {
            SCOPED.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    SCOPED.with(|s| s.borrow_mut().push(collector.clone()));
    let _guard = PopOnDrop;
    f()
}

/// The counter registered under `name` in the current collector.
pub fn counter(name: &str) -> Counter {
    current().counter(name)
}

/// Adds `n` to the counter `name` (one registry lookup; hot paths should
/// cache the handle from [`counter`] instead).
pub fn add(name: &str, n: u64) {
    current().counter(name).add(n);
}

/// Adds 1 to the counter `name`.
pub fn incr(name: &str) {
    add(name, 1);
}

/// Sets the gauge `name`.
pub fn gauge_set(name: &str, v: f64) {
    current().gauge(name).set(v);
}

/// Records one sample in the histogram `name`.
pub fn observe(name: &str, v: u64) {
    current().hist(name).observe(v);
}

/// True when the current collector has a live sink.
pub fn trace_enabled() -> bool {
    current().tracing()
}

/// Starts building an event. Inert (fields discarded) when tracing is
/// off, so call sites need no `if` guards.
pub fn event(kind: &str, name: &str) -> EventBuilder {
    let collector = current();
    if collector.tracing() {
        let ts = collector.now_ns();
        EventBuilder {
            target: Some((collector, Event::new(kind, name, ts))),
        }
    } else {
        EventBuilder { target: None }
    }
}

/// Fluent event construction; see [`event`].
#[must_use = "call .emit() to send the event"]
pub struct EventBuilder {
    target: Option<(SharedCollector, Event)>,
}

impl EventBuilder {
    /// Appends an unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        if let Some((_, e)) = self.target.as_mut() {
            e.push(key, FieldValue::U64(v));
        }
        self
    }

    /// Appends a signed integer field.
    pub fn i64(mut self, key: &str, v: i64) -> Self {
        if let Some((_, e)) = self.target.as_mut() {
            e.push(key, FieldValue::I64(v));
        }
        self
    }

    /// Appends a float field.
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        if let Some((_, e)) = self.target.as_mut() {
            e.push(key, FieldValue::F64(v));
        }
        self
    }

    /// Appends a boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        if let Some((_, e)) = self.target.as_mut() {
            e.push(key, FieldValue::Bool(v));
        }
        self
    }

    /// Appends a string field. The value is only materialized when
    /// tracing is on (take care to keep argument construction cheap, or
    /// pass a closure via [`EventBuilder::str_with`]).
    pub fn str(mut self, key: &str, v: impl Into<String>) -> Self {
        if let Some((_, e)) = self.target.as_mut() {
            e.push(key, FieldValue::Str(v.into()));
        }
        self
    }

    /// Appends a lazily computed string field — `f` only runs when the
    /// event will actually be emitted.
    pub fn str_with(mut self, key: &str, f: impl FnOnce() -> String) -> Self {
        if let Some((_, e)) = self.target.as_mut() {
            e.push(key, FieldValue::Str(f()));
        }
        self
    }

    /// Sends the event to the current sink.
    pub fn emit(self) {
        if let Some((collector, event)) = self.target {
            collector.emit(&event);
        }
    }
}

/// Opens a span: on drop it records the duration in the histogram
/// `span.<name>.ns` and (when tracing) emits a `span` event carrying
/// `dur_ns`.
pub fn span(name: &str) -> SpanGuard {
    SpanGuard {
        name: name.to_string(),
        collector: current(),
        start: Instant::now(),
    }
}

/// Guard returned by [`span`].
#[must_use = "a span measures until dropped"]
pub struct SpanGuard {
    name: String,
    collector: SharedCollector,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.collector
            .hist(&format!("span.{}.ns", self.name))
            .observe(dur);
        if self.collector.tracing() {
            let mut e = Event::new("span", self.name.clone(), self.collector.now_ns());
            e.push("dur_ns", FieldValue::U64(dur));
            self.collector.emit(&e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_collector_isolates_counters() {
        let a = Arc::new(Collector::new());
        let b = Arc::new(Collector::new());
        scoped(&a, || add("x", 2));
        scoped(&b, || {
            add("x", 5);
            // Nested scope shadows the outer one.
            scoped(&a, || add("x", 1));
        });
        assert_eq!(a.counter("x").get(), 3);
        assert_eq!(b.counter("x").get(), 5);
    }

    #[test]
    fn events_flow_to_mem_sink_with_monotonic_ts() {
        let mem = Arc::new(MemSink::default());
        let c = Arc::new(Collector::with_sink(Box::new(mem.clone())));
        scoped(&c, || {
            event("dip", "sat").u64("iter", 1).emit();
            event("result", "sat").str("outcome", "ok").emit();
        });
        let events = mem.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "dip");
        assert!(events[1].ts >= events[0].ts);
    }

    #[test]
    fn events_are_inert_without_a_sink() {
        let c = Arc::new(Collector::new());
        scoped(&c, || {
            assert!(!trace_enabled());
            let mut ran = false;
            event("x", "y")
                .str_with("big", || {
                    ran = true;
                    "expensive".to_string()
                })
                .emit();
            assert!(!ran, "lazy field must not materialize when tracing is off");
        });
    }

    #[test]
    fn span_records_histogram_and_event() {
        let mem = Arc::new(MemSink::default());
        let c = Arc::new(Collector::with_sink(Box::new(mem.clone())));
        scoped(&c, || {
            let _s = span("unit.test");
        });
        assert_eq!(c.hist("span.unit.test.ns").count(), 1);
        let events = mem.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "span");
        assert_eq!(events[0].name, "unit.test");
    }

    #[test]
    fn finish_emits_metric_lines() {
        let mem = Arc::new(MemSink::default());
        let c = Arc::new(Collector::with_sink(Box::new(mem.clone())));
        c.counter("sat.dips").add(3);
        c.gauge("rate").set(1.5);
        c.finish();
        let events = mem.drain();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind.as_str()).collect();
        assert!(kinds.contains(&"counter"));
        assert!(kinds.contains(&"gauge"));
        let line = events
            .iter()
            .find(|e| e.name == "sat.dips")
            .expect("counter line")
            .to_jsonl();
        assert!(line.contains("\"value\":3"), "{line}");
        schema::validate_line(&line).expect("schema-valid");
    }
}
