//! `oracle-serve`: a closed loop on two connections against the oracle
//! daemon.
//!
//! The daemon is `glitchlock_serve::start` in a child process (this
//! binary re-executed with [`DAEMON_ARG`]); set-up is its start plus a
//! `load-bench s1238`. Connection A sends back-to-back `oracle-bulk`
//! requests of 256 patterns, connection B back-to-back single-pattern
//! `oracle` requests. Throughput counts patterns answered; latencies are
//! B's requests; each is the median over one-second windows of the timed
//! phase (a window holds thousands of single requests, so its 90th
//! percentile has hundreds beyond it). Every reply is checked bit for bit
//! against this process's own packed evaluation of the same pattern; busy
//! or error replies count as failed.
//!
//! In a traced run the first half of the timed phase is untraced and the
//! second traced; an op is one request of either kind. Codec and
//! evaluation times are probes (the same `encode`/`decode` and
//! `LoadedDesign::eval_many` calls repeated on the same messages and
//! patterns), and `serve.wait` is the remainder of the request: transport
//! plus batcher queueing, including the flush deadline.

use crate::runner::{end_to_end, layer_catalogue, repeat_setup, LayerAgg, Report};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::{probe, span_cost_ns, Tracer};
use glitchlock_circuits::{generate, profile_by_name};
use glitchlock_obs::Collector;
use glitchlock_serve::proto::bits_to_string;
use glitchlock_serve::{Client, LoadedDesign, Op, Reply, Request, Response, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// First argument that makes this binary run as the daemon.
pub const DAEMON_ARG: &str = "--serve-daemon";

const DESIGN: &str = "s1238";
const BULK_PATTERNS: usize = 256;
/// Requests per pass on each connection.
const BULK_REQUESTS: usize = 8;
const SINGLE_REQUESTS: usize = 256;
/// Length of the windows the timed phase is cut into. Each end-to-end
/// figure is the median over windows of that window's figure, so a few
/// seconds in which the shared machine stalls these threads do not set it.
const WINDOW_S: f64 = 1.0;

/// Daemon entry point: serve until a `shutdown` op or until the parent
/// closes stdin.
pub fn daemon_main() -> ExitCode {
    let handle = match glitchlock_serve::start(ServerConfig::default(), Arc::new(Collector::new()))
    {
        Ok(h) => h,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening {}", handle.addr());
    let orphaned = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&orphaned);
    // Left detached: it blocks reading stdin until the parent closes it,
    // and the process exits as soon as the server has stopped.
    std::thread::spawn(move || {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        flag.store(true, Ordering::SeqCst);
    });
    while !handle.is_stopping() {
        if orphaned.load(Ordering::SeqCst) {
            handle.shutdown();
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.wait();
    ExitCode::SUCCESS
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn start() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(DAEMON_ARG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        match line.trim().strip_prefix("listening ").map(str::parse) {
            Some(Ok(addr)) => Ok(Daemon { child, addr }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "daemon did not report an address: `{}`",
                    line.trim()
                ))
            }
        }
    }

    /// Closes the daemon's stdin and waits (up to 5 s, then kills).
    fn stop(mut self) -> Result<(), String> {
        drop(self.child.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("daemon did not stop within 5 s".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

fn call(client: &mut Client, op: Op) -> Result<Reply, String> {
    let id = client.next_id();
    Ok(client.call(&Request { id, op })?.reply)
}

/// Starts a daemon and loads the design; returns the daemon, a connected
/// client, the design's input width, and the set-up time: the daemon's
/// start (spawn until it listens) plus the `load-bench` round trip. The
/// wait for the daemon's accept loop to pick up the new connection (it
/// polls every 25 ms) is left out, settled by an untimed `ping`, so the
/// figure does not depend on where in that poll the connection lands.
fn set_up() -> Result<(Daemon, Client, usize, f64), String> {
    let t = Instant::now();
    let daemon = Daemon::start()?;
    let start = t.elapsed();
    let mut client = Client::connect(daemon.addr)?;
    call(&mut client, Op::Ping)?;
    let t = Instant::now();
    let loaded = call(
        &mut client,
        Op::LoadBench {
            name: DESIGN.to_string(),
        },
    )?;
    let secs = (start + t.elapsed()).as_secs_f64();
    match loaded {
        Reply::Loaded { inputs, .. } => Ok((daemon, client, inputs, secs)),
        other => Err(format!("load-bench: {other:?}")),
    }
}

/// One request of a connection's op list with its expected outputs.
struct Planned {
    op: Op,
    patterns: Vec<Vec<bool>>,
    expected: Vec<String>,
}

fn plan(design: &LoadedDesign, rng: &mut StdRng, requests: usize, per: usize) -> Vec<Planned> {
    let width = design.num_inputs();
    (0..requests)
        .map(|_| {
            let patterns: Vec<Vec<bool>> = (0..per)
                .map(|_| (0..width).map(|_| rng.gen()).collect())
                .collect();
            let expected = design
                .eval_many(&patterns)
                .iter()
                .map(|o| bits_to_string(o))
                .collect();
            let texts: Vec<String> = patterns.iter().map(|p| bits_to_string(p)).collect();
            let op = if per == 1 {
                Op::Oracle {
                    design: DESIGN.to_string(),
                    pattern: texts[0].clone(),
                }
            } else {
                Op::OracleBulk {
                    design: DESIGN.to_string(),
                    patterns: texts,
                }
            };
            Planned {
                op,
                patterns,
                expected,
            }
        })
        .collect()
}

/// Per-connection tallies; index 0 = untraced, 1 = traced.
#[derive(Default)]
struct ConnStats {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    patterns: [u64; 2],
    wall_ms: [f64; 2],
    requests: [u64; 2],
    /// Completion time, patterns and latency (ms) of each answered request.
    answered: Vec<(Instant, u64, f64)>,
    wire_bytes: u64,
}

/// Runs whole passes over `reqs` until `deadline` (at least one pass);
/// passes starting after `trace_from` are traced.
fn drive_conn(
    client: &mut Client,
    reqs: &[Planned],
    costs: &[ProbeCost],
    deadline: Instant,
    trace_from: Option<Instant>,
    tr: &mut Tracer,
    st: &mut ConnStats,
) {
    loop {
        let traced = trace_from.is_some_and(|t| Instant::now() >= t);
        tr.set_on(traced);
        for (ix, p) in reqs.iter().enumerate() {
            let n = p.patterns.len() as u64;
            st.attempted += n;
            let op = tr.begin("op");
            let started = Instant::now();
            let request = Request {
                id: client.next_id(),
                op: p.op.clone(),
            };
            let wait = tr.begin("serve.wait");
            let response = client.call(&request);
            tr.end(wait);
            let wall = started.elapsed();
            tr.end(op);
            let response = match response {
                Ok(r) => r,
                Err(e) => {
                    st.failed += n;
                    st.errors.push(format!("connection: {e}"));
                    return;
                }
            };
            if let (true, Some(c)) = (tr.on(), costs.get(ix)) {
                tr.attribute(wait, "serve.encode", c.encode);
                tr.attribute(wait, "serve.decode", c.decode);
                tr.attribute(wait, "netlist.packed_eval", c.eval);
                st.wire_bytes += c.wire_bytes;
            }
            let outputs: Vec<&String> = match &response.reply {
                Reply::Oracle { output } => vec![output],
                Reply::OracleBulk { outputs } => outputs.iter().collect(),
                other @ (Reply::Busy { .. } | Reply::Error { .. }) => {
                    st.failed += n;
                    st.errors
                        .push(format!("daemon refused a request: {other:?}"));
                    continue;
                }
                other => {
                    st.failed += n;
                    st.errors.push(format!("unexpected reply {other:?}"));
                    continue;
                }
            };
            if outputs.len() != p.expected.len()
                || outputs.iter().zip(&p.expected).any(|(a, b)| *a != b)
            {
                st.failed += n;
                st.errors
                    .push("reply differs from the local packed evaluation".to_string());
                continue;
            }
            let slot = usize::from(traced);
            st.patterns[slot] += n;
            st.requests[slot] += 1;
            st.wall_ms[slot] += wall.as_secs_f64() * 1e3;
            st.answered
                .push((Instant::now(), n, wall.as_secs_f64() * 1e3));
        }
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// Probe-measured cost of one planned request: both sides' encode and
/// decode of the request and its response, the packed evaluation of its
/// patterns, and its bytes on the wire. Passes repeat the same messages,
/// so each is measured once (median of five) before the timed phase and
/// attached to every traced instance, keeping probes off the loaded
/// threads.
struct ProbeCost {
    encode: Duration,
    decode: Duration,
    eval: Duration,
    wire_bytes: u64,
}

fn probe_cost(p: &Planned, design: &LoadedDesign) -> ProbeCost {
    let request = Request {
        id: 1,
        op: p.op.clone(),
    };
    let reply = if p.expected.len() == 1 {
        Reply::Oracle {
            output: p.expected[0].clone(),
        }
    } else {
        Reply::OracleBulk {
            outputs: p.expected.clone(),
        }
    };
    let response = Response { id: 1, reply };
    let req_bytes = request.encode();
    let resp_bytes = response.encode();
    fn time<T>(mut f: impl FnMut() -> T) -> Duration {
        let runs: Vec<f64> = (0..5).map(|_| probe(&mut f).1.as_secs_f64()).collect();
        Duration::from_secs_f64(median(&runs))
    }
    ProbeCost {
        encode: time(|| (request.encode(), response.encode())),
        decode: time(|| (Request::decode(&req_bytes), Response::decode(&resp_bytes))),
        eval: time(|| design.eval_many(&p.patterns)),
        // Two 4-byte frame headers plus both payloads.
        wire_bytes: (req_bytes.len() + resp_bytes.len() + 8) as u64,
    }
}

fn daemon_counters(client: &mut Client) -> Result<BTreeMap<String, f64>, String> {
    match call(client, Op::Metrics)? {
        Reply::Metrics { metrics } => Ok(metrics),
        other => Err(format!("metrics: {other:?}")),
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let profile = profile_by_name(DESIGN).ok_or("no s1238 profile")?;
    let design = LoadedDesign::new(DESIGN, generate(&profile))?;

    let mut setup_secs = Vec::new();
    let mut live = None;
    // One set-up: a fresh daemon plus `load-bench`, replacing (and
    // stopping, untimed) whichever daemon `slot` held.
    let start_one = |slot: &mut Option<(Daemon, Client, usize)>| -> Result<f64, String> {
        if let Some((daemon, client, _)) = slot.take() {
            drop(client);
            daemon.stop()?;
        }
        let (daemon, client, width, secs) = set_up()?;
        *slot = Some((daemon, client, width));
        Ok(secs)
    };
    if trace {
        start_one(&mut live)?;
    } else {
        repeat_setup(&mut setup_secs, || start_one(&mut live))?;
    }
    let (daemon, mut single, width) = live.expect("at least one set-up");
    if width != design.num_inputs() {
        return Err(format!(
            "daemon reports {width} inputs, local design {}",
            design.num_inputs()
        ));
    }
    let mut bulk = Client::connect(daemon.addr)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let bulk_reqs = plan(&design, &mut rng, BULK_REQUESTS, BULK_PATTERNS);
    let single_reqs = plan(&design, &mut rng, SINGLE_REQUESTS, 1);

    let origin = Instant::now();
    let mut tr_a = Tracer::new(false, origin);
    let mut tr_b = Tracer::new(false, origin);
    let mut warm_a = ConnStats::default();
    let mut warm_b = ConnStats::default();
    let mut st_a = ConnStats::default();
    let mut st_b = ConnStats::default();

    // Warm-up: one pass on each connection, concurrently.
    let now = Instant::now();
    std::thread::scope(|s| {
        s.spawn(|| {
            drive_conn(
                &mut bulk,
                &bulk_reqs,
                &[],
                now,
                None,
                &mut tr_a,
                &mut warm_a,
            )
        });
        drive_conn(
            &mut single,
            &single_reqs,
            &[],
            now,
            None,
            &mut tr_b,
            &mut warm_b,
        );
    });
    let (costs_a, costs_b): (Vec<ProbeCost>, Vec<ProbeCost>) = if trace {
        (
            bulk_reqs.iter().map(|p| probe_cost(p, &design)).collect(),
            single_reqs.iter().map(|p| probe_cost(p, &design)).collect(),
        )
    } else {
        (Vec::new(), Vec::new())
    };

    let before = daemon_counters(&mut single)?;
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let trace_from = trace.then(|| started + Duration::from_secs_f64(seconds / 2.0));
    std::thread::scope(|s| {
        s.spawn(|| {
            drive_conn(
                &mut bulk, &bulk_reqs, &costs_a, deadline, trace_from, &mut tr_a, &mut st_a,
            )
        });
        drive_conn(
            &mut single,
            &single_reqs,
            &costs_b,
            deadline,
            trace_from,
            &mut tr_b,
            &mut st_b,
        );
    });
    let after = daemon_counters(&mut single)?;
    let rss = peak_rss_mb(Some(daemon.child.id()))?;
    drop(bulk);
    drop(single);
    daemon.stop()?;
    if !trace {
        repeat_setup(&mut setup_secs, || {
            let mut slot = None;
            let secs = start_one(&mut slot)?;
            if let Some((daemon, client, _)) = slot {
                drop(client);
                daemon.stop()?;
            }
            Ok(secs)
        })?;
    }

    let all = [&warm_a, &warm_b, &st_a, &st_b];
    let errors: Vec<&String> = all.iter().flat_map(|s| &s.errors).collect();
    for e in errors.iter().take(8) {
        eprintln!("perfbench: oracle-serve: {e}");
    }
    let attempted = all.iter().map(|s| s.attempted).sum();
    let failed = all.iter().map(|s| s.failed).sum();
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);

    let metrics = if trace {
        let timed_reqs: u64 = [&st_a, &st_b].iter().flat_map(|s| s.requests).sum();
        let traced_reqs = st_a.requests[1] + st_b.requests[1];
        let traced_patterns = st_a.patterns[1] + st_b.patterns[1];
        tr_a.absorb(tr_b);
        let agg = LayerAgg {
            ops: traced_reqs as usize,
            self_ms: tr_a
                .self_times()
                .into_iter()
                .map(|(k, v)| (k, v / 1e6))
                .collect(),
            counters: BTreeMap::new(),
        };
        let rate = |i: usize| {
            (st_a.patterns[i] + st_b.patterns[i]) as f64 / (st_a.wall_ms[i] + st_b.wall_ms[i])
        };
        let batches = delta("serve.oracle.batches");
        let values: BTreeMap<&'static str, f64> = [
            ("serve.encode_ms", agg.ms("serve.encode")),
            ("serve.decode_ms", agg.ms("serve.decode")),
            ("netlist.packed_eval_ms", agg.ms("netlist.packed_eval")),
            ("serve.wait_ms", agg.ms("serve.wait")),
            (
                "serve.wire_bytes_per_pattern",
                (st_a.wire_bytes + st_b.wire_bytes) as f64 / traced_patterns.max(1) as f64,
            ),
            // Coalesced batches per request over the whole timed phase.
            (
                "serve.oracle.coalesced",
                delta("serve.oracle.coalesced") / timed_reqs.max(1) as f64,
            ),
            (
                "serve.lane_fill_ratio",
                if batches > 0.0 {
                    delta("serve.oracle.patterns") / (64.0 * batches)
                } else {
                    0.0
                },
            ),
            ("unattributed_ms", agg.ms("op")),
            ("trace.overhead_pct", (rate(0) / rate(1) - 1.0) * 100.0),
            ("trace.span_cost_us", span_cost_ns() / 1e3),
        ]
        .into_iter()
        .collect();
        layer_catalogue(&values)
    } else {
        let windows = ((seconds / WINDOW_S) as usize).max(1);
        let mut patterns = vec![0u64; windows];
        let mut latencies = vec![Vec::new(); windows];
        let window_of = |t: Instant| (t.duration_since(started).as_secs_f64() / WINDOW_S) as usize;
        for &(t, n, _) in &st_a.answered {
            if let Some(p) = patterns.get_mut(window_of(t)) {
                *p += n;
            }
        }
        for &(t, n, ms) in &st_b.answered {
            let w = window_of(t);
            if w < windows {
                patterns[w] += n;
                latencies[w].push(ms);
            }
        }
        let per_window =
            |f: &dyn Fn(&[f64]) -> f64| median(&latencies.iter().map(|l| f(l)).collect::<Vec<_>>());
        let rates: Vec<f64> = patterns.iter().map(|&p| p as f64 / WINDOW_S).collect();
        end_to_end(
            median(&setup_secs),
            median(&rates),
            per_window(&|l| percentile(l, 0.5)),
            per_window(&|l| percentile(l, 0.9)),
            rss,
        )
    };
    Ok(Report {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        tracer: tr_a,
    })
}
