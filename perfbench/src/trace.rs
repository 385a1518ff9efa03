//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around each call it makes
//! into a layer's public function; nothing inside the program is
//! instrumented. A span's *self time* is its duration minus the durations
//! of its children. Some layers run inside a single public call (STA and
//! feasibility inside `GkEncryptor::encrypt`, the exhaustive sweep inside
//! `corruption_scores`, codec and evaluation inside a served request);
//! those are timed by a *probe* — the same call repeated on the same input
//! after the op has finished — and attached to the enclosing span as a
//! virtual child, so the parent's self time is the remainder.
//!
//! With tracing off every method is a no-op and records nothing.

use glitchlock_obs::{self as obs, Collector};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Handle of an open span (or a dummy when tracing is off).
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

const OFF: SpanId = SpanId(usize::MAX);

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    dur_ns: u64,
    probe: bool,
}

/// Per-thread span recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off between ops.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one. A span named
    /// `op` starts a new op: spans of one op share its identifier.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return OFF;
        }
        if name == "op" {
            self.op += 1;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: 0,
            probe: false,
        });
        let ix = self.spans.len() - 1;
        self.open.push(ix);
        SpanId(ix)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !self.on || id.0 == usize::MAX {
            return;
        }
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans close innermost first");
        let span = &mut self.spans[id.0];
        span.dur_ns = now - span.start_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Attaches a probe-measured virtual child of `dur` to `parent`.
    pub fn attribute(&mut self, parent: SpanId, name: &'static str, dur: Duration) {
        if !self.on || parent.0 == usize::MAX {
            return;
        }
        let start_ns = self.spans[parent.0].start_ns;
        self.spans.push(Span {
            name,
            op: self.spans[parent.0].op,
            parent: Some(parent.0),
            start_ns,
            dur_ns: dur.as_nanos() as u64,
            probe: true,
        });
    }

    /// Number of recorded spans (virtual ones included).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Sum of self times per span name, in nanoseconds. Self time may
    /// come out slightly negative when a probe ran slower than the same
    /// work inside its parent.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            *out.entry(s.name).or_insert(0.0) += s.dur_ns as f64 - c as f64;
        }
        out
    }

    /// Moves another recorder's spans into this one (op ids renumbered).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let op_base = self.op;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.op += op_base;
            self.spans.push(s);
        }
        self.op += other.op;
    }

    /// Writes every span as one JSON line: name, op, parent, start and
    /// duration in nanoseconds, and whether a probe measured it.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"dur_ns\":{},\"probe\":{}}}",
                s.name, s.op, s.start_ns, s.dur_ns, s.probe
            )?;
        }
        out.flush()
    }
}

/// Times `f` as a probe for [`Tracer::attribute`]. The probe's program
/// counters go to a throwaway collector, so they do not count twice.
pub fn probe<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let scratch = Arc::new(Collector::new());
    obs::scoped(&scratch, || {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        (out, t.elapsed())
    })
}

/// Cost of one recorded span (begin + end), in nanoseconds, measured on a
/// scratch recorder.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut tr = Tracer::new(true, Instant::now());
    let t = Instant::now();
    for _ in 0..N {
        let id = tr.begin("calibrate");
        tr.end(id);
    }
    t.elapsed().as_nanos() as f64 / N as f64
}
