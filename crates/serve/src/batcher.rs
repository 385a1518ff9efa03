//! The oracle request batcher.
//!
//! Many connections submit oracle work items (one or many patterns each);
//! a single batch worker drains the queue, groups items by design, packs
//! the patterns into 64-lane words, and runs the compiled evaluator once
//! per 64 patterns — so ten clients asking 6 patterns each cost one pass,
//! not ten. The worker never holds a partial batch: it evaluates whatever
//! is queued the moment it wakes, and work that arrives while it
//! evaluates is coalesced on its next drain. One knob bounds the batcher:
//! the **queue cap** (`max_queue_patterns`). `submit` refuses work beyond
//! it ([`Submit::Busy`]) instead of queuing unboundedly — the caller turns
//! that into a `busy` response and the client retries after draining.
//!
//! Results return through a per-item callback, invoked on the batch
//! worker under the server's obs collector.

use glitchlock_netlist::{CombView, EvalProgram, Netlist, PackedLogic, LANES};
use glitchlock_obs::{self as obs, names, SharedCollector};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A design loaded for serving: the owned netlist plus its combinational
/// view and compiled bit-parallel program, shared across connections.
#[derive(Debug)]
pub struct LoadedDesign {
    /// Registered name.
    pub name: String,
    /// The owned netlist.
    pub netlist: Netlist,
    /// Combinational (scan-unfolded) view.
    pub view: CombView,
    /// Compiled 64-lane evaluator.
    pub program: EvalProgram,
}

impl LoadedDesign {
    /// Validates and compiles a netlist for serving.
    ///
    /// # Errors
    ///
    /// Rejects cyclic or otherwise invalid netlists.
    pub fn new(name: &str, netlist: Netlist) -> Result<LoadedDesign, String> {
        netlist
            .validate()
            .map_err(|e| format!("design `{name}`: {e}"))?;
        let view = CombView::new(&netlist);
        let program =
            EvalProgram::compile(&netlist).map_err(|e| format!("design `{name}`: {e}"))?;
        Ok(LoadedDesign {
            name: name.to_string(),
            netlist,
            view,
            program,
        })
    }

    /// Oracle input width (primary + pseudo inputs).
    pub fn num_inputs(&self) -> usize {
        self.view.num_inputs()
    }

    /// Oracle output width (primary + pseudo outputs).
    pub fn num_outputs(&self) -> usize {
        self.view.num_outputs()
    }

    /// Evaluates a batch of patterns, 64 per pass. Pure compute — no
    /// metrics, no queueing; the batcher wraps this.
    ///
    /// # Panics
    ///
    /// Panics on pattern-width mismatch; callers validate widths first.
    pub fn eval_many(&self, patterns: &[Vec<bool>]) -> Vec<Vec<bool>> {
        let width = self.num_inputs();
        let mut buf = self.program.scratch();
        let mut results = Vec::with_capacity(patterns.len());
        for chunk in patterns.chunks(LANES) {
            let words: Vec<PackedLogic> = (0..width)
                .map(|i| {
                    let mut val = 0u64;
                    for (lane, p) in chunk.iter().enumerate() {
                        assert_eq!(p.len(), width, "pattern width");
                        if p[i] {
                            val |= 1 << lane;
                        }
                    }
                    PackedLogic { val, known: !0 }
                })
                .collect();
            let outs = self.view.eval_packed_words(&self.program, &words, &mut buf);
            for lane in 0..chunk.len() {
                results.push(
                    outs.iter()
                        .map(|w| w.get(lane).to_bool().expect("oracle outputs are definite"))
                        .collect(),
                );
            }
        }
        results
    }
}

/// What `submit` did with the work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Submit {
    /// Queued; the callback will fire with the results.
    Accepted,
    /// The queue is at its pattern cap; the work was **not** queued and
    /// the callback will never fire.
    Busy,
}

/// Batcher tuning.
#[derive(Clone, Copy, Debug)]
pub struct BatcherConfig {
    /// Pattern cap across all queued items; `submit` beyond it is `Busy`.
    pub max_queue_patterns: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_queue_patterns: 1 << 16,
        }
    }
}

/// One queued unit of oracle work.
struct WorkItem {
    design: Arc<LoadedDesign>,
    patterns: Vec<Vec<bool>>,
    reply: Box<dyn FnOnce(Vec<Vec<bool>>) + Send>,
}

struct Queue {
    items: VecDeque<WorkItem>,
    queued_patterns: usize,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    stop: AtomicBool,
    config: BatcherConfig,
}

/// The coalescing batch evaluator; one worker thread per batcher.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Starts the batch worker under `collector`'s obs scope.
    pub fn start(config: BatcherConfig, collector: SharedCollector) -> Batcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                queued_patterns: 0,
            }),
            wake: Condvar::new(),
            stop: AtomicBool::new(false),
            config,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("glk-serve-batcher".to_string())
            .spawn(move || obs::scoped(&collector, || run_worker(&worker_shared)))
            .expect("spawn batcher");
        Batcher {
            shared,
            worker: Some(worker),
        }
    }

    /// Queues patterns for `design`; `reply` fires on the batch worker
    /// with one output row per pattern, in order.
    pub fn submit(
        &self,
        design: Arc<LoadedDesign>,
        patterns: Vec<Vec<bool>>,
        reply: Box<dyn FnOnce(Vec<Vec<bool>>) + Send>,
    ) -> Submit {
        let mut queue = self.shared.queue.lock().expect("batcher queue mutex");
        if queue.queued_patterns + patterns.len() > self.shared.config.max_queue_patterns {
            return Submit::Busy;
        }
        queue.queued_patterns += patterns.len();
        queue.items.push_back(WorkItem {
            design,
            patterns,
            reply,
        });
        drop(queue);
        self.shared.wake.notify_one();
        Submit::Accepted
    }

    /// Drains outstanding work, then stops and joins the worker.
    pub fn shutdown(mut self) {
        self.stop_worker();
    }

    fn stop_worker(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.wake.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

fn run_worker(shared: &Shared) {
    loop {
        let batch: Vec<WorkItem> = {
            let mut queue = shared.queue.lock().expect("batcher queue mutex");
            // Sleep until there is work (or we are stopping).
            while queue.items.is_empty() {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.wake.wait(queue).expect("batcher queue mutex");
            }
            queue.queued_patterns = 0;
            queue.items.drain(..).collect()
        };
        if batch.len() > 1 {
            obs::incr(names::SERVE_ORACLE_COALESCED);
        }
        eval_batch(batch);
    }
}

/// Groups a drained batch by design and runs the packed passes: items
/// sharing a design are concatenated so their patterns share lanes.
fn eval_batch(batch: Vec<WorkItem>) {
    let mut groups: Vec<(Arc<LoadedDesign>, Vec<WorkItem>)> = Vec::new();
    for item in batch {
        match groups
            .iter_mut()
            .find(|(design, _)| Arc::ptr_eq(design, &item.design))
        {
            Some((_, items)) => items.push(item),
            None => groups.push((Arc::clone(&item.design), vec![item])),
        }
    }
    for (design, items) in groups {
        let total: usize = items.iter().map(|item| item.patterns.len()).sum();
        let mut all = Vec::with_capacity(total);
        for item in &items {
            all.extend(item.patterns.iter().cloned());
        }
        let rows = design.eval_many(&all);
        obs::add(names::SERVE_ORACLE_PATTERNS, total as u64);
        obs::add(names::SERVE_ORACLE_BATCHES, total.div_ceil(LANES) as u64);
        let mut rows = rows.into_iter();
        for item in items {
            let take = item.patterns.len();
            let out: Vec<Vec<bool>> = rows.by_ref().take(take).collect();
            (item.reply)(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitchlock_attacks::ComboOracle;
    use glitchlock_obs::Collector;
    use std::sync::mpsc;

    fn design() -> Arc<LoadedDesign> {
        Arc::new(LoadedDesign::new("s27", glitchlock_circuits::s27()).unwrap())
    }

    fn patterns(design: &LoadedDesign, count: usize, seed: u64) -> Vec<Vec<bool>> {
        let width = design.num_inputs();
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        state >> 63 != 0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn eval_many_matches_the_oracle() {
        let design = design();
        let netlist = glitchlock_circuits::s27();
        let oracle = ComboOracle::new(&netlist);
        let pats = patterns(&design, 130, 7);
        assert_eq!(design.eval_many(&pats), oracle.query_many(&pats));
    }

    #[test]
    fn batcher_answers_items_in_order_and_coalesces() {
        let design = design();
        let collector = Arc::new(Collector::new());
        let batcher = Batcher::start(BatcherConfig::default(), Arc::clone(&collector));
        let (tx, rx) = mpsc::channel();
        let expect: Vec<Vec<Vec<bool>>> = (0..10)
            .map(|i| design.eval_many(&patterns(&design, 5, i)))
            .collect();
        for i in 0..10u64 {
            let tx = tx.clone();
            let got = batcher.submit(
                Arc::clone(&design),
                patterns(&design, 5, i),
                Box::new(move |rows| tx.send((i, rows)).unwrap()),
            );
            assert_eq!(got, Submit::Accepted);
        }
        let mut replies: Vec<(u64, Vec<Vec<bool>>)> = (0..10).map(|_| rx.recv().unwrap()).collect();
        replies.sort_by_key(|(i, _)| *i);
        for (i, rows) in replies {
            assert_eq!(rows, expect[i as usize], "item {i}");
        }
        batcher.shutdown();
        let snapshot = collector.registry().snapshot();
        let counter = |name: &str| {
            snapshot
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| match v {
                    glitchlock_obs::MetricValue::Counter(c) => *c,
                    _ => 0,
                })
                .unwrap_or(0)
        };
        assert_eq!(counter(names::SERVE_ORACLE_PATTERNS), 50);
        assert!(counter(names::SERVE_ORACLE_BATCHES) >= 1);
    }

    #[test]
    fn queue_cap_yields_busy() {
        let design = design();
        let collector = Arc::new(Collector::new());
        let batcher = Batcher::start(
            BatcherConfig {
                max_queue_patterns: 8,
            },
            collector,
        );
        // An oversized submission is refused outright.
        let got = batcher.submit(
            Arc::clone(&design),
            patterns(&design, 9, 1),
            Box::new(|_| panic!("refused work must not run")),
        );
        assert_eq!(got, Submit::Busy);
        batcher.shutdown();
    }
}
