//! `glk` — the glitchlock command-line tool.
//!
//! Operates on ISCAS `.bench` netlists. [`USAGE`] (printed by `glk help`)
//! is the one declaration of every subcommand and the flags it accepts:
//! [`Args::parse`] reads a subcommand's lines from it, so what `glk help`
//! prints is exactly what `glk` accepts. An unknown flag, or a value flag
//! given no value, is a usage error (exit code 2); a failing command exits 1.
//!
//! `lock-gk` writes `<out-prefix>.locked.bench` (with KEYGENs),
//! `<out-prefix>.attack.bench` (the attacker's view) and prints the key.
//! Both `lock-gk` and `synth` finish with a lint audit of the produced
//! netlist, so every locked or resynthesized design leaves the flow checked;
//! `glk lint` runs the same battery standalone and exits nonzero when any
//! deny-level diagnostic fires.
//!
//! `glk analyze` runs the dataflow engine (constant/X propagation, per-key-bit
//! taint, SCOAP testability) over a netlist and prints per-key-bit
//! reachability — which primary outputs each bit can still influence after
//! semantic laundering — plus, with `--nets`, per-net lattice facts.
//!
//! The subcommands marked `[OBS]` in [`USAGE`] accept the observability
//! flags listed at its end; `glk trace-check` validates a trace against
//! the schema and, with `--sites <domain>`, fails on dead probes (expected
//! metrics that read zero).

use glitchlock::attacks::sat_attack::SatOutcome;
use glitchlock::attacks::SatAttack;
use glitchlock::core::feasibility::analyze_feasibility;
use glitchlock::core::gk::{GkDesign, GkScheme};
use glitchlock::core::locking::{LockScheme, XorLock};
use glitchlock::core::GkEncryptor;
use glitchlock::lint::{self, Diagnostic, Level, LintContext, LintRunner};
use glitchlock::netlist::{bench_format, Logic, Netlist};
use glitchlock::obs;
use glitchlock::sim::{ClockSpec, SimConfig, Simulator, Stimulus};
use glitchlock::sta::{analyze, ClockModel};
use glitchlock::stdcell::{Library, Ps};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

/// Full usage text, printed by `glk help` and when the subcommand is
/// missing. It is also the declaration [`Accepted::of`] reads each
/// subcommand's flags from.
const USAGE: &str = "\
usage: glk <subcommand> …

  glk stats       <in.bench>
  glk sta         <in.bench> [--period-ns N]
  glk feasibility <in.bench> [--period-ns N] [--glitch-ps L]
  glk lock-xor    <in.bench> <out.bench> [--bits N] [--seed S]
  glk lock-gk     <in.bench> <out-prefix> [--gks N] [--xor-bits N] [--period-ns N]
                  [--seed S] [--mix|--share] [OBS]
  glk attack      <locked.bench> <oracle.bench> [--key-prefix P] [OBS]
  glk count       <locked.bench> <oracle.bench> [--key-prefix P]
                  [--epsilon E] [--delta D] [--project keys|inputs]
                  [--seed S] [--exact-bits N] [--max-bits N] [OBS]
  glk sim         <in.bench> [--cycles N] [--period-ns N] [--vcd out.vcd]
                  [--seed S] [OBS]
  glk verify      <locked.bench> <oracle.bench> --key 0,1,… [--cycles N]
                  [--period-ns N] [--key-prefix P] [--seed S]
  glk lint        <in.bench> [--format json|text] [--deny codes|all] [--warn …]
                  [--allow …] [--period-ns N] [--glitch-ps L] [--margin-ps N]
                  [--key-prefix P]
  glk analyze     <in.bench> [--format json|text] [--key-prefix P] [--nets]
                  [OBS]
  glk synth       <in.bench> <out.bench> [--optimize] [--holdfix] [--resize N]
                  [--period-ns N] [--no-lint]
  glk lib         [out.lib] [--custom]
  glk fuzz        [--seed S] [--cases N] [--time-budget SECS] [--referee NAME]…
                  [--corpus DIR] [--inject none|xnor-flip] [--shrink-budget N]
                  [--max-failures N] [--list-referees] [OBS]
  glk campaign    --spec <spec.txt> [--jobs N] [--out PREFIX] [--resume]
                  [--journal PATH] [--halt-after N] [--shard I/N]
                  [--merge-journals a.jsonl,b.jsonl,…] [OBS]
  glk serve       [--addr HOST:PORT] [--max-inflight N] [--max-jobs N]
                  [--job-timeout-secs N] [--allow-debug] [OBS]
  glk query       <addr> ping|metrics|shutdown
  glk query       <addr> load-bench <name> | load-netlist <name> <in.bench>
  glk query       <addr> oracle <design> <bits> | oracle-bulk <design> <bits>…
  glk query       <addr> sweep <design> [--count N] [--seed S]
  glk query       <addr> attack <bench> --locker L --width N --attack A
                  [--seed S] [--max-iters N] [--samples N]
  glk query       <addr> campaign --spec <spec.txt> [--shard I/N]
                  [--journal PATH]
  glk query       <addr> sleep [--ms N]
  glk trace-check <trace.jsonl> [--sites attack|sim|lock-gk|analyze|fuzz|campaign|serve|count]
  glk help

OBS (observability) flags, accepted where marked:
  --trace out.jsonl         write a structured JSON-lines event trace
  --metrics                 print an end-of-run metrics report
  --metrics-format json|text  report format (default text; json is one line)

`query sleep` is refused unless the server was started with --allow-debug.
";

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let sub = match argv.next().as_deref() {
        None => {
            eprintln!("glk: missing subcommand (try `glk help`)\n{USAGE}");
            return ExitCode::from(2);
        }
        Some("--help" | "-h") => "help".to_string(),
        Some(sub) => sub.to_string(),
    };
    let args = match Args::parse(&sub, argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("glk: {e} (try `glk help`)");
            return ExitCode::from(2);
        }
    };
    match run(&sub, &args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("glk: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The flags and positionals one subcommand accepts, read from its
/// `glk <sub>` lines (and their indented continuation lines) in [`USAGE`]:
/// `--name` followed by a metavar takes one value, `[--name]` and
/// `[--a|--b]` are switches, and `[OBS]` adds the flags of the OBS block.
/// Every other word (`<in.bench>`, `[out.lib]`, `ping|metrics`) is one
/// positional; a word ending in `…` repeats, and ` | ` separates
/// alternative forms, as do repeated `glk <sub>` lines.
#[derive(Default)]
struct Accepted {
    /// Each declared flag, and whether it takes a value.
    flags: Vec<(&'static str, bool)>,
    obs: bool,
    /// The most positionals any form takes; `None` when one repeats.
    max_positional: Option<usize>,
}

impl Accepted {
    /// `None` when [`USAGE`] has no `glk <sub>` line.
    fn of(sub: &str) -> Option<Accepted> {
        let mut accepted = Accepted {
            max_positional: Some(0),
            ..Accepted::default()
        };
        let (mut found, mut in_sub) = (false, false);
        // Positionals of the form being read.
        let mut form = 0;
        for line in USAGE.lines() {
            let mut text = line;
            if let Some(rest) = line.trim_start().strip_prefix("glk ") {
                in_sub = rest.split_whitespace().next() == Some(sub);
                found |= in_sub;
                form = 0;
                text = rest.trim_start().trim_start_matches(sub);
            } else if !line.starts_with(' ') {
                in_sub = false;
            }
            if in_sub {
                accepted.declare(text, &mut form);
            }
        }
        if accepted.obs {
            // Each OBS line is `--name [metavar]`, then a gap of two or more
            // spaces before its description.
            let block = USAGE.lines().skip_while(|l| !l.starts_with("OBS"));
            for line in block.skip(1).take_while(|l| l.starts_with("  --")) {
                let flag = line.trim().split("  ").next().unwrap_or_default();
                accepted.declare(flag, &mut form);
            }
        }
        found.then_some(accepted)
    }

    fn declare(&mut self, text: &'static str, form: &mut usize) {
        let mut tokens = text.split_whitespace().peekable();
        while let Some(token) = tokens.next() {
            if let Some(decl) = token.trim_start_matches('[').strip_prefix("--") {
                let value = !decl.ends_with(']') && tokens.peek().is_some();
                let names = decl.trim_end_matches(']').split('|');
                self.flags
                    .extend(names.map(|n| (n.trim_start_matches("--"), value)));
                if value {
                    tokens.next(); // the metavar
                }
            } else if token == "[OBS]" {
                self.obs = true;
            } else if token == "|" {
                *form = 0;
            } else {
                *form += 1;
                self.max_positional = match self.max_positional {
                    Some(_) if token.ends_with('…') => None,
                    max => max.map(|m| m.max(*form)),
                };
            }
        }
    }

    /// Whether `--name` takes a value; `None` when it is not declared.
    fn takes_value(&self, name: &str) -> Option<bool> {
        self.flags.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

struct Args {
    accepted: Accepted,
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Splits `raw` into positionals and the flags [`USAGE`] declares for
    /// `sub`; an undeclared flag, or a value flag with no value after it,
    /// is an error.
    fn parse(sub: &str, raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let accepted = Accepted::of(sub).ok_or_else(|| format!("unknown subcommand {sub:?}"))?;
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut raw = raw.peekable();
        while let Some(a) = raw.next() {
            let Some(name) = a.strip_prefix("--") else {
                positional.push(a);
                continue;
            };
            let value = match accepted.takes_value(name) {
                None => return Err(format!("unknown flag --{name} for `glk {sub}`")),
                Some(false) => None,
                Some(true) => Some(
                    raw.next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("--{name} of `glk {sub}` expects a value"))?,
                ),
            };
            flags.push((name.to_string(), value));
        }
        if let Some(extra) = accepted.max_positional.and_then(|max| positional.get(max)) {
            return Err(format!("unexpected argument {extra:?} for `glk {sub}`"));
        }
        Ok(Args {
            accepted,
            positional,
            flags,
        })
    }

    /// Every value given to `--name`, in command-line order.
    fn values<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        debug_assert!(
            self.accepted.takes_value(name).is_some(),
            "--{name} is not in USAGE"
        );
        self.flags
            .iter()
            .filter(move |(n, _)| n == name)
            .filter_map(|(_, v)| v.as_deref())
    }

    fn flag<'a>(&'a self, name: &'a str) -> Option<&'a str> {
        self.values(name).next()
    }

    fn required<'a>(&'a self, name: &'a str) -> Result<&'a str, String> {
        self.flag(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn has(&self, name: &str) -> bool {
        debug_assert!(
            self.accepted.takes_value(name).is_some(),
            "--{name} is not in USAGE"
        );
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn opt_num<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("--{name} expects a number, got {v:?}"))
        };
        self.flag(name).map(parse).transpose()
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.opt_num(name)?.unwrap_or(default))
    }
}

fn run(sub: &str, args: &Args) -> Result<(), String> {
    let body: fn(&Args) -> Result<(), String> = match sub {
        "stats" => cmd_stats,
        "sta" => cmd_sta,
        "feasibility" => cmd_feasibility,
        "lock-xor" => cmd_lock_xor,
        "lock-gk" => cmd_lock_gk,
        "attack" => cmd_attack,
        "count" => cmd_count,
        "sim" => cmd_sim,
        "verify" => cmd_verify,
        "lint" => cmd_lint,
        "analyze" => cmd_analyze,
        "synth" => cmd_synth,
        "lib" => cmd_lib,
        "fuzz" => cmd_fuzz,
        "campaign" => cmd_campaign,
        "serve" => cmd_serve,
        "query" => cmd_query,
        "trace-check" => cmd_trace_check,
        "help" => |_| {
            print!("{USAGE}");
            Ok(())
        },
        other => unreachable!("`glk {other}` is in USAGE but has no command"),
    };
    if args.accepted.obs {
        with_obs(args, || body(args))
    } else {
        body(args)
    }
}

/// Runs the body of a subcommand marked `[OBS]` under the OBS flags:
/// `--trace` installs the JSONL sink on the global collector before the
/// body starts; afterwards metric lines are flushed into the trace and the
/// `--metrics` report is printed, even when the body fails (a failing fuzz
/// run still writes its trace).
fn with_obs(args: &Args, body: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    if let Some(path) = args.flag("trace") {
        let sink = obs::JsonlSink::create(std::path::Path::new(path))
            .map_err(|e| format!("opening trace file {path}: {e}"))?;
        obs::global().set_sink(Box::new(sink));
    }
    let metrics_json = args
        .has("metrics")
        .then(|| json_format(args, "metrics-format"))
        .transpose()?;
    let result = body();
    let collector = obs::global();
    if args.has("trace") {
        collector.finish();
    }
    match metrics_json {
        Some(false) => print!("{}", collector.report().render_text()),
        Some(true) => println!("{}", collector.report().render_json()),
        None => {}
    }
    result
}

/// Validates every line of a trace against the schema (kind/name/ts,
/// monotone timestamps) and summarizes it. With `--sites`, additionally
/// requires every probe that a healthy run of the domain must fire to
/// read non-zero — dead-probe detection for CI.
fn cmd_trace_check(args: &Args) -> Result<(), String> {
    use glitchlock::obs::names;

    let path = need(args, 0, "trace .jsonl")?;
    let text = read(&path)?;
    let summary = obs::schema::check_trace(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: {} schema-valid line(s)", summary.lines);
    for (kind, count) in &summary.kinds {
        println!("  kind {kind:<12} {count:>6}");
    }
    if let Some(domain) = args.flag("sites") {
        let sites = names::expected_sites(domain).ok_or_else(|| {
            format!(
                "--sites expects one of {:?}, got {domain:?}",
                names::DOMAINS
            )
        })?;
        let dead: Vec<&str> = sites
            .iter()
            .copied()
            .filter(|site| summary.metrics.get(*site).copied().unwrap_or(0.0) <= 0.0)
            .collect();
        if !dead.is_empty() {
            return Err(format!(
                "dead probe(s) for domain {domain}: {} (expected non-zero)",
                dead.join(", ")
            ));
        }
        println!("all {} expected {domain} probe(s) fired", sites.len());
    }
    Ok(())
}

/// Loads a `.bench` file, resolving `# $lib=` binding pragmas against the
/// default library (they carry the GK delay elements across files).
fn load(path: &str) -> Result<Netlist, String> {
    let text = read(path)?;
    let lib = Library::cl013g_like().with_gk_delay_macros();
    bench_format::parse_with_bindings(&text, path, &|name| lib.by_name(name))
        .map_err(|e| format!("parsing {path}: {e}"))
}

/// Reads a whole text file; the error names the path.
fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Saves a `.bench` file with binding pragmas.
fn save(path: &str, netlist: &Netlist) -> Result<(), String> {
    let lib = Library::cl013g_like().with_gk_delay_macros();
    let text =
        bench_format::emit_with_bindings(netlist, &|id| Some(lib.cell(id).name().to_string()));
    std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
}

fn need(args: &Args, ix: usize, what: &str) -> Result<String, String> {
    args.positional
        .get(ix)
        .cloned()
        .ok_or_else(|| format!("missing argument: {what}"))
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let nl = load(&need(args, 0, "input .bench")?)?;
    let st = nl.stats();
    println!("design   {}", nl.name());
    println!(
        "cells    {} ({} gates + {} flip-flops)",
        st.cells, st.gates, st.dffs
    );
    println!("inputs   {}", st.inputs);
    println!("outputs  {}", st.outputs);
    println!("nets     {}", st.nets);
    Ok(())
}

fn cmd_sta(args: &Args) -> Result<(), String> {
    let nl = load(&need(args, 0, "input .bench")?)?;
    let period = Ps::from_ns(args.num("period-ns", 3u64)?);
    let lib = Library::cl013g_like();
    let report = analyze(&nl, &lib, &ClockModel::new(period));
    println!("clock period  {period}");
    println!("timing met    {}", report.all_met());
    println!("WNS           {}ps", report.wns());
    for check in report.worst_endpoints(5) {
        println!(
            "  endpoint {:>8}: arrival {} | setup slack {}ps | hold slack {}ps",
            nl.cell(check.ff).name(),
            check.arrival_max,
            check.slack_setup,
            check.slack_hold
        );
    }
    Ok(())
}

fn cmd_feasibility(args: &Args) -> Result<(), String> {
    let nl = load(&need(args, 0, "input .bench")?)?;
    let period = Ps::from_ns(args.num("period-ns", 3u64)?);
    let l_glitch = Ps(args.num("glitch-ps", 1000u64)?);
    let lib = Library::cl013g_like();
    let design = GkDesign {
        scheme: GkScheme::InverterSteady,
        l_glitch,
        tolerance: Ps(30),
    };
    let report = analyze_feasibility(&nl, &lib, &ClockModel::new(period), &design);
    println!(
        "flip-flops {} | available for GK {} | coverage {:.2}%",
        nl.stats().dffs,
        report.available_count(),
        report.coverage_pct()
    );
    for entry in report.entries() {
        let w = entry
            .window
            .map(|w| format!("window ({}, {})", w.lo, w.hi))
            .unwrap_or_else(|| "no window".into());
        println!(
            "  {:>8}: {:?} | arrival {} | {}",
            nl.cell(entry.ff).name(),
            entry.verdict,
            entry.timing.t_arrival,
            w
        );
    }
    Ok(())
}

fn cmd_lock_xor(args: &Args) -> Result<(), String> {
    let nl = load(&need(args, 0, "input .bench")?)?;
    let out = need(args, 1, "output .bench")?;
    let bits = args.num("bits", 8usize)?;
    let seed = args.num("seed", 1u64)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let locked = XorLock::new(bits)
        .lock(&nl, &mut rng)
        .map_err(|e| e.to_string())?;
    save(&out, &locked.netlist)?;
    println!("locked with {bits} XOR/XNOR key-gates -> {out}");
    println!(
        "key inputs : {}",
        names(&locked.netlist, &locked.key_inputs)
    );
    println!("correct key: {}", bit_string(&locked.correct_key));
    Ok(())
}

fn cmd_lock_gk(args: &Args) -> Result<(), String> {
    let nl = load(&need(args, 0, "input .bench")?)?;
    let prefix = need(args, 1, "output prefix")?;
    let n_gks = args.num("gks", 4usize)?;
    let xor_bits = args.num("xor-bits", 0usize)?;
    let period = Ps::from_ns(args.num("period-ns", 3u64)?);
    let seed = args.num("seed", 1u64)?;
    let lib = Library::cl013g_like();
    let mut rng = StdRng::seed_from_u64(seed);
    // --xor-bits composes the paper's hybrid (Sec. VI): conventional
    // XOR/XNOR key-gates first, then GKs on top. The SAT attack on the
    // attacker's view then runs real DIP iterations for the XOR bits
    // while the GK bits stay statically unlearnable.
    let (base, xor_key) = if xor_bits > 0 {
        let xl = XorLock::new(xor_bits)
            .lock(&nl, &mut rng)
            .map_err(|e| e.to_string())?;
        let key = bit_string(&xl.correct_key);
        (xl.netlist, Some(key))
    } else {
        (nl, None)
    };
    let locked = GkEncryptor {
        mix_schemes: args.has("mix"),
        share_keygens: args.has("share"),
        ..GkEncryptor::new(n_gks)
    }
    .encrypt(&base, &lib, &ClockModel::new(period), &mut rng)
    .map_err(|e| e.to_string())?;
    let locked_path = format!("{prefix}.locked.bench");
    let attack_path = format!("{prefix}.attack.bench");
    save(&locked_path, &locked.netlist)?;
    save(&attack_path, &locked.attack_view)?;
    println!(
        "locked with {n_gks} GKs ({} key inputs)",
        locked.key_width()
    );
    if let Some(key) = &xor_key {
        println!("hybrid XOR pre-lock: {xor_bits} key-gates, correct key {key}");
    }
    println!("manufactured netlist -> {locked_path}");
    println!("attacker's view      -> {attack_path}");
    println!(
        "key inputs : {}",
        names(&locked.netlist, &locked.key_inputs)
    );
    println!("correct key: {}", locked.correct_key);
    if let Some(bools) = locked.correct_key.as_bools() {
        let compact = bit_string(&bools);
        println!("verify with: glk verify {locked_path} <original> --key {compact}");
    }
    for (i, gk) in locked.gks.iter().enumerate() {
        println!(
            "  gk{i}: {:?} selection {:?}, trigger window ({}, {})",
            gk.gk.scheme, gk.correct, gk.window.lo, gk.window.hi
        );
    }
    lint_audit(&locked.netlist, period)
}

/// The primary inputs of `locked` named with `prefix` or `gk`: the key an
/// attack or a count works on.
fn attack_key_inputs(
    locked: &Netlist,
    prefix: &str,
) -> Result<Vec<glitchlock::netlist::NetId>, String> {
    let key_inputs: Vec<_> = locked
        .input_nets()
        .iter()
        .copied()
        .filter(|&n| {
            let name = locked.net(n).name();
            name.starts_with(prefix) || name.starts_with("gk")
        })
        .collect();
    if key_inputs.is_empty() {
        return Err(format!("no key inputs matched prefix {prefix:?} or 'gk'"));
    }
    Ok(key_inputs)
}

fn cmd_attack(args: &Args) -> Result<(), String> {
    let locked = load(&need(args, 0, "locked .bench")?)?;
    let oracle = load(&need(args, 1, "oracle .bench")?)?;
    let key_inputs = attack_key_inputs(&locked, args.flag("key-prefix").unwrap_or("key"))?;
    println!(
        "attacking {} key inputs: {}",
        key_inputs.len(),
        names(&locked, &key_inputs)
    );
    let result = SatAttack::new(&locked, key_inputs, &oracle).run();
    match result.outcome {
        SatOutcome::KeyRecovered { key } => {
            println!(
                "CRACKED in {} DIP iterations; key = {}",
                result.iterations,
                bit_string(&key)
            );
        }
        SatOutcome::NoDipAtFirstIteration { .. } => {
            println!("UNSAT at iteration 1: no distinguishing input exists —");
            println!("the SAT attack is invalid against this locking.");
        }
        SatOutcome::IterationLimit => {
            println!("gave up after {} iterations", result.iterations);
        }
        SatOutcome::Cancelled => {
            println!("cancelled after {} iterations", result.iterations);
        }
    }
    Ok(())
}

/// The three quantitative locking-security scores (wrong-key error rate,
/// DIP-space size, wrong-key count) via the exhaustive sweep and/or the
/// ApproxMC-style hash-count estimator. `--project keys` prints only the
/// key-space score; `--project inputs` only the input-space scores.
fn cmd_count(args: &Args) -> Result<(), String> {
    use glitchlock::count::{corruption_scores, Score, ScoreConfig};

    let locked = load(&need(args, 0, "locked .bench")?)?;
    let oracle = load(&need(args, 1, "oracle .bench")?)?;
    let key_inputs = attack_key_inputs(&locked, args.flag("key-prefix").unwrap_or("key"))?;
    let project = match args.flag("project") {
        None => None,
        Some("keys") => Some(true),
        Some("inputs") => Some(false),
        Some(other) => return Err(format!("--project expects keys or inputs, got {other:?}")),
    };
    let defaults = ScoreConfig::default();
    let cfg = ScoreConfig {
        epsilon: args.num("epsilon", defaults.epsilon)?,
        delta: args.num("delta", defaults.delta)?,
        exact_bits: args.num("exact-bits", defaults.exact_bits)?,
        max_bits: args.num("max-bits", defaults.max_bits)?,
        seed: args.num("seed", defaults.seed)?,
    };
    let scores = corruption_scores(&locked, &key_inputs, &oracle, &cfg)?;
    println!(
        "count: {} data bit(s), {} key bit(s), method {}",
        scores.data_bits,
        scores.key_bits,
        scores.method.tag()
    );
    let show = |label: &str, s: &Score| {
        let dash = || "-".to_string();
        let exact = s.exact.map_or_else(dash, |e| e.to_string());
        let est = s.estimate.map_or_else(dash, |e| format!("{e:.1}"));
        let frac = s.fraction().map_or_else(dash, |f| format!("{f:.4}"));
        println!("  {label:<12} exact {exact:>10}  estimate {est:>12}  fraction {frac}");
    };
    if project != Some(true) {
        println!("  sampled key  {}", bit_string(&scores.sampled_key));
        show("err", &scores.err);
        show("dip", &scores.dip);
    }
    if project != Some(false) {
        show("wrong-keys", &scores.wrong_keys);
        if let Some(classes) = scores.key_classes {
            println!("  key-classes  {classes}");
        }
    }
    Ok(())
}

fn cmd_sim(args: &Args) -> Result<(), String> {
    let nl = load(&need(args, 0, "input .bench")?)?;
    let cycles = args.num("cycles", 8u64)?;
    let period = Ps::from_ns(args.num("period-ns", 3u64)?);
    let seed = args.num("seed", 1u64)?;
    let lib = Library::cl013g_like();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stim = Stimulus::new();
    for &ff in nl.dff_cells() {
        stim.set_ff(ff, Logic::Zero);
    }
    for &pi in nl.input_nets() {
        stim.set(pi, Logic::from_bool(rng.gen()));
        for c in 0..cycles {
            stim.at(period * (c + 1) + Ps(200), pi, Logic::from_bool(rng.gen()));
        }
    }
    let cfg = SimConfig::new().with_clock(ClockSpec::new(period));
    let horizon = period * (cycles + 2);
    let res = Simulator::new(&nl, &lib, cfg).run(&stim, horizon);
    println!("simulated {cycles} cycles at {period}");
    println!("setup/hold violations: {}", res.violations().len());
    for (net, name) in nl.output_ports() {
        println!(
            "  {name:>10} |{}|",
            res.waveform(net).ascii(horizon, Ps(period.as_ps() / 8))
        );
    }
    if let Some(path) = args.flag("vcd") {
        std::fs::write(path, glitchlock::sim::vcd::to_vcd(&nl, &res, None))
            .map_err(|e| format!("writing {path}: {e}"))?;
        println!("waveforms -> {path}");
    }
    Ok(())
}

/// Runs the locked netlist in the timing domain under the given key and
/// cross-validates every cycle's state transition and outputs against the
/// oracle's zero-delay semantics.
fn cmd_verify(args: &Args) -> Result<(), String> {
    use glitchlock::core::insertion::timed_trace;
    use glitchlock::core::KeyVector;
    use glitchlock::netlist::SeqState;

    let locked = load(&need(args, 0, "locked .bench")?)?;
    let oracle = load(&need(args, 1, "oracle .bench")?)?;
    let key: KeyVector = args.required("key")?.parse().map_err(|e| format!("{e}"))?;
    let cycles: usize = args.num("cycles", 12usize)?;
    let period = Ps::from_ns(args.num("period-ns", 3u64)?);
    let seed = args.num("seed", 1u64)?;
    let prefix = args.flag("key-prefix").unwrap_or("gk");
    let lib = Library::cl013g_like();

    let key_nets: Vec<_> = locked
        .input_nets()
        .iter()
        .copied()
        .filter(|&n| locked.net(n).name().starts_with(prefix))
        .collect();
    if key_nets.len() != key.len() {
        return Err(format!(
            "key has {} bits but {} key inputs matched prefix {prefix:?}",
            key.len(),
            key_nets.len()
        ));
    }
    let data_inputs: Vec<_> = locked
        .input_nets()
        .iter()
        .copied()
        .filter(|n| !key_nets.contains(n))
        .collect();
    if data_inputs.len() != oracle.input_nets().len() {
        return Err("locked data inputs do not align with the oracle".into());
    }
    // The original design's flip-flops precede any KEYGEN toggles.
    let n_oracle_ffs = oracle.dff_cells().len();
    if locked.dff_cells().len() < n_oracle_ffs {
        return Err("locked design has fewer flip-flops than the oracle".into());
    }
    let tracked: Vec<_> = locked.dff_cells()[..n_oracle_ffs].to_vec();

    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<Vec<Logic>> = (0..cycles)
        .map(|_| {
            (0..data_inputs.len())
                .map(|_| Logic::from_bool(rng.gen()))
                .collect()
        })
        .collect();
    let keyed: Vec<_> = key_nets
        .iter()
        .copied()
        .zip(key.bits().iter().copied())
        .collect();
    let trace = timed_trace(
        &locked,
        &lib,
        period,
        &keyed,
        &inputs,
        &data_inputs,
        &tracked,
    );
    let mut bad = 0;
    #[allow(clippy::needless_range_loop)] // c also indexes trace.states[c+1]
    for c in 0..cycles {
        let mut o = SeqState::from_values(&oracle, trace.states[c].clone());
        let po = o.step(&oracle, &inputs[c]);
        if trace.po[c] != po || trace.states[c + 1] != o.values() {
            bad += 1;
        }
    }
    println!(
        "verified {cycles} cycles: {} clean, {} corrupted",
        cycles - bad,
        bad
    );
    if bad == 0 {
        println!("KEY ACCEPTED: the chip matches the oracle in the timing domain.");
        Ok(())
    } else {
        println!("KEY REJECTED: transitions diverge from the oracle.");
        Err("verification failed".into())
    }
}

/// Collects every value given to a repeatable flag, splitting on commas,
/// so both `--deny a,b` and `--deny a --deny b` work.
fn flag_values(args: &Args, name: &str) -> Vec<String> {
    args.values(name)
        .flat_map(|v| v.split(','))
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// Whether a `json|text` flag asks for JSON (the default is text).
fn json_format(args: &Args, name: &str) -> Result<bool, String> {
    match args.flag(name).unwrap_or("text") {
        "json" => Ok(true),
        "text" => Ok(false),
        other => Err(format!("--{name} expects json or text, got {other:?}")),
    }
}

/// Configures a [`LintRunner`] from `--allow`/`--warn`/`--deny` flags.
fn lint_runner_from_flags(args: &Args) -> Result<LintRunner, String> {
    let mut runner = LintRunner::new();
    for (flag, level) in [
        ("allow", Level::Allow),
        ("warn", Level::Warn),
        ("deny", Level::Deny),
    ] {
        for code in flag_values(args, flag) {
            if code != "all" && lint::code_info(&code).is_none() {
                return Err(format!("--{flag}: unknown diagnostic code {code:?}"));
            }
            runner.set_level(&code, level);
        }
    }
    Ok(runner)
}

/// Runs the full static-analysis battery; exits nonzero when any deny-level
/// diagnostic survives. Parse failures are reported through the same
/// diagnostic pipeline instead of aborting, so `--format json` consumers
/// always get a well-formed report.
fn cmd_lint(args: &Args) -> Result<(), String> {
    let path = need(args, 0, "input .bench")?;
    let json = json_format(args, "format")?;
    let runner = lint_runner_from_flags(args)?;
    let lib = Library::cl013g_like().with_gk_delay_macros();
    let text = read(&path)?;
    let report = match bench_format::parse_with_bindings(&text, &path, &|name| lib.by_name(name)) {
        Ok(nl) => {
            let design = GkDesign {
                l_glitch: Ps(args.num("glitch-ps", 1000u64)?),
                ..GkDesign::paper_default()
            };
            let ctx = LintContext::new(&nl, &lib)
                .with_clock(ClockModel::new(Ps::from_ns(args.num("period-ns", 3u64)?)))
                .with_design(design)
                .with_margin(Ps(args.num("margin-ps", 0u64)?))
                .with_key_prefix(args.flag("key-prefix").unwrap_or("gk"));
            runner.run(&ctx)
        }
        Err(e) => runner.finish(vec![Diagnostic::from_netlist_error(&e, &path)]),
    };
    let rendered = if json {
        lint::render_json(&report)
    } else {
        lint::render_text(&report)
    };
    print!("{rendered}");
    if !rendered.ends_with('\n') {
        println!();
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("{} deny-level diagnostic(s)", report.denied()))
    }
}

/// Runs the dataflow engine's day-one domains (constant/X propagation, raw
/// and refined key taint, SCOAP testability) to their fixpoints and reports
/// per-key-bit reachability: how many nets each bit structurally touches,
/// whether its influence survives semantic laundering to any primary
/// output, and where it constant-collapses. `--nets` adds the per-net
/// lattice facts. Exit code is 0 regardless of findings — `glk lint`
/// owns policy; this is the inspection tool.
fn cmd_analyze(args: &Args) -> Result<(), String> {
    use glitchlock::dataflow::{AnalysisFacts, KeyBitSet, INF};

    let path = need(args, 0, "input .bench")?;
    let nl = load(&path)?;
    nl.validate()
        .map_err(|e| format!("{path}: invalid netlist: {e}"))?;
    let json = json_format(args, "format")?;
    let prefix = args.flag("key-prefix").unwrap_or("gk");
    let facts = AnalysisFacts::compute(&nl, prefix);

    let fmt_score = |v: u32| {
        if v == INF {
            "inf".to_string()
        } else {
            v.to_string()
        }
    };
    struct BitRow {
        name: String,
        raw_reach: usize,
        collapsed: usize,
        observable: Vec<String>,
        verdict: &'static str,
    }
    let bits: Vec<BitRow> = facts
        .keys
        .iter()
        .enumerate()
        .map(|(bit, &key)| {
            let observable: Vec<String> = facts
                .observable_pos(&nl, bit)
                .iter()
                .map(|&po| nl.net(po).name().to_string())
                .collect();
            let collapsed = facts.collapsed_nets(&nl, bit).len();
            let verdict = if !observable.is_empty() {
                "observable"
            } else if collapsed > 0 {
                "constant-collapsed"
            } else {
                "taint-dead"
            };
            BitRow {
                name: nl.net(key).name().to_string(),
                raw_reach: facts.raw_reach(bit),
                collapsed,
                observable,
                verdict,
            }
        })
        .collect();

    if json {
        let json_str = |s: &str| {
            let mut quoted = String::new();
            obs::write_json_str(&mut quoted, s);
            quoted
        };
        let bit_rows: Vec<String> = bits
            .iter()
            .map(|b| {
                let pos: Vec<String> = b.observable.iter().map(|p| json_str(p)).collect();
                format!(
                    "{{\"name\": {}, \"raw_reach\": {}, \"collapsed\": {}, \
                     \"observable_outputs\": [{}], \"verdict\": {}}}",
                    json_str(&b.name),
                    b.raw_reach,
                    b.collapsed,
                    pos.join(", "),
                    json_str(b.verdict)
                )
            })
            .collect();
        let mut out = format!(
            "{{\"design\": {}, \"nets\": {}, \"key_bits\": {}, \"iterations\": {}, \
             \"widened\": {}, \"bits\": [{}]",
            json_str(nl.name()),
            nl.nets().len(),
            facts.key_width(),
            facts.iterations,
            facts.widened,
            bit_rows.join(", ")
        );
        if args.has("nets") {
            let list = |bits: &KeyBitSet| bits.iter().map(|b| b.to_string()).collect::<Vec<_>>();
            let net_rows: Vec<String> = nl
                .nets()
                .map(|(id, net)| {
                    let (cc0, cc1, co) = facts.scoap_of(id);
                    format!(
                        "{{\"name\": {}, \"const\": {}, \"raw_taint\": [{}], \
                         \"refined_taint\": [{}], \"cc0\": {}, \"cc1\": {}, \"co\": {}}}",
                        json_str(net.name()),
                        json_str(&facts.consts.net(id).to_logic().to_string()),
                        list(facts.raw.net(id)).join(", "),
                        list(facts.refined.net(id)).join(", "),
                        json_str(&fmt_score(cc0)),
                        json_str(&fmt_score(cc1)),
                        json_str(&fmt_score(co)),
                    )
                })
                .collect();
            out.push_str(&format!(", \"net_facts\": [{}]", net_rows.join(", ")));
        }
        println!("{out}}}");
    } else {
        println!(
            "design {} | {} net(s) | {} key bit(s) matching prefix {prefix:?}",
            nl.name(),
            nl.nets().len(),
            facts.key_width()
        );
        println!(
            "fixpoints: {} transfer application(s), {} widened net(s)",
            facts.iterations, facts.widened
        );
        if bits.is_empty() {
            println!("no key bits to report on");
        }
        for b in &bits {
            let reach = if b.observable.is_empty() {
                "no primary output".to_string()
            } else {
                format!("-> {}", b.observable.join(","))
            };
            println!(
                "  {:<12} raw reach {:>4} net(s) | collapsed {:>3} | {:<18} {}",
                b.name, b.raw_reach, b.collapsed, b.verdict, reach
            );
        }
        if args.has("nets") {
            println!("per-net facts:");
            for (id, net) in nl.nets() {
                let (cc0, cc1, co) = facts.scoap_of(id);
                let taint: Vec<String> = facts
                    .refined
                    .net(id)
                    .iter()
                    .map(|b| nl.net(facts.keys[b]).name().to_string())
                    .collect();
                println!(
                    "  {:<12} const {} | cc0/cc1/co {}/{}/{} | refined taint {{{}}}",
                    net.name(),
                    facts.consts.net(id).to_logic(),
                    fmt_score(cc0),
                    fmt_score(cc1),
                    fmt_score(co),
                    taint.join(",")
                );
            }
        }
    }
    Ok(())
}

/// End-of-flow audit shared by `lock-gk` and `synth`: runs the default
/// battery over the produced netlist and fails the command on any
/// deny-level finding, so broken netlists never leave the flow silently.
fn lint_audit(nl: &Netlist, period: Ps) -> Result<(), String> {
    let lib = Library::cl013g_like().with_gk_delay_macros();
    let ctx = LintContext::new(nl, &lib).with_clock(ClockModel::new(period));
    let report = LintRunner::new().run(&ctx);
    if report.diagnostics.is_empty() {
        println!("lint audit: clean");
    } else {
        print!("{}", lint::render_text(&report));
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "lint audit found {} deny-level diagnostic(s)",
            report.denied()
        ))
    }
}

/// Applies the selected synthesis passes in a fixed order (optimize, resize,
/// holdfix — holdfix last so its padding is not resized away) and audits the
/// result with the lint battery unless `--no-lint` is given.
fn cmd_synth(args: &Args) -> Result<(), String> {
    use glitchlock::synth::{fix_hold, optimize_sequential, upsize_high_fanout};

    let mut nl = load(&need(args, 0, "input .bench")?)?;
    let out = need(args, 1, "output .bench")?;
    let period = Ps::from_ns(args.num("period-ns", 3u64)?);
    let lib = Library::cl013g_like().with_gk_delay_macros();
    if args.has("optimize") {
        let before = nl.stats().cells;
        nl = optimize_sequential(&nl).map_err(|e| e.to_string())?;
        println!("optimize: {} -> {} cells", before, nl.stats().cells);
    }
    if let Some(threshold) = args.opt_num::<usize>("resize")? {
        let rep = upsize_high_fanout(&mut nl, &lib, threshold);
        println!(
            "resize: upsized {} of {} cells (fanout >= {threshold})",
            rep.upsized, rep.examined
        );
    }
    if args.has("holdfix") {
        let rep =
            fix_hold(&mut nl, &lib, &ClockModel::new(period), 8).map_err(|e| e.to_string())?;
        println!(
            "holdfix: {} -> {} hold violations, {} delay cells added",
            rep.violations_before, rep.violations_after, rep.cells_added
        );
    }
    save(&out, &nl)?;
    println!("synthesized netlist -> {out}");
    if args.has("no-lint") {
        Ok(())
    } else {
        lint_audit(&nl, period)
    }
}

/// Dumps the synthetic standard-cell library as Liberty text (stdout when
/// no path is given).
fn cmd_lib(args: &Args) -> Result<(), String> {
    let lib = if args.has("custom") {
        Library::cl013g_like().with_gk_delay_macros()
    } else {
        Library::cl013g_like()
    };
    let text = glitchlock::stdcell::liberty::emit(&lib, "glitchlock_cl013g");
    match args.positional.first() {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            println!("library -> {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Runs the differential fuzzer: every case is generated from a seed chain
/// (`--seed S --cases N` is bit-for-bit reproducible), judged by the
/// referee registry, and any disagreement is shrunk to a minimal
/// reproducer. With `--corpus DIR` the reproducer is persisted as a
/// `.case` + `.bench` pair. Exits nonzero when any referee failed.
/// Wall-clock only goes to stderr, so stdout stays deterministic.
fn cmd_fuzz(args: &Args) -> Result<(), String> {
    use glitchlock::fuzz::{registry, run_fuzz, FuzzConfig, Inject};

    if args.has("list-referees") {
        for r in registry() {
            println!("{:<18} {}", r.name, r.about);
        }
        return Ok(());
    }
    let inject_name = args.flag("inject").unwrap_or("none");
    let inject = Inject::from_name(inject_name)
        .ok_or_else(|| format!("--inject expects none or xnor-flip, got {inject_name:?}"))?;
    let config = FuzzConfig {
        seed: args.num("seed", 1u64)?,
        cases: args.num("cases", 100usize)?,
        time_budget: args
            .opt_num("time-budget")?
            .map(std::time::Duration::from_secs),
        referees: flag_values(args, "referee"),
        inject,
        corpus_dir: args.flag("corpus").map(std::path::PathBuf::from),
        shrink_budget: args.num("shrink-budget", 300usize)?,
        max_failures: args.num("max-failures", 3usize)?,
    };
    let lib = Library::cl013g_like().with_gk_delay_macros();
    let report = run_fuzz(&config, &lib)?;
    println!(
        "fuzz: seed {} | {} case(s) run",
        config.seed, report.cases_run
    );
    for (name, passes) in &report.passes {
        println!(
            "  {name:<18} {passes:>5} pass  {:>5} skip",
            report.skips.get(name).copied().unwrap_or(0)
        );
    }
    eprintln!("fuzz: wall-clock {:.1}s", report.elapsed.as_secs_f64());
    if report.failures.is_empty() {
        println!("all referees agree on every case");
        return Ok(());
    }
    for f in &report.failures {
        println!();
        println!(
            "FAILURE case {} (seed {:#018x}) referee {}",
            f.index, f.case_seed, f.referee
        );
        println!("  {}", f.message);
        if let Some(path) = &f.corpus_path {
            println!("  reproducer -> {}", path.display());
        }
        println!("  shrunk recipe ({} oracle calls):", f.shrink_spent);
        for line in f.shrunk.to_text().lines() {
            println!("    {line}");
        }
        println!("  shrunk case: {}", f.shrunk_message);
    }
    Err(format!("{} referee failure(s)", report.failures.len()))
}

/// Expands the campaign spec (benchmarks × lockers × attacks × seeds) and
/// runs every cell through the supervised worker pool, journaling each
/// retired job to `<out>.journal.jsonl` so `--resume` skips completed work
/// after a kill. Writes `<out>.report.txt` and `<out>.report.json` and
/// prints the text report; the report is a pure function of the spec, so
/// `--jobs 1` and `--jobs 8` (and resumed runs) produce identical bytes.
/// Wall-clock only goes to stderr, so stdout stays deterministic.
fn cmd_campaign(args: &Args) -> Result<(), String> {
    use glitchlock::jobs::{
        merge_journals, parse_shard, run_campaign, CampaignConfig, CampaignSpec,
    };

    let spec = CampaignSpec::parse(&read(args.required("spec")?)?)?;
    let out = args.flag("out").unwrap_or("campaign").to_string();

    // Merge mode: reassemble shard journals into the canonical report,
    // no jobs run.
    if let Some(list) = args.flag("merge-journals") {
        let paths: Vec<std::path::PathBuf> =
            list.split(',').map(std::path::PathBuf::from).collect();
        let records = merge_journals(&spec, &paths)?;
        eprintln!(
            "campaign: merged {} record(s) from {} journal(s)",
            records.len(),
            paths.len()
        );
        return write_campaign_reports(&spec, &records, &out);
    }

    let shard = args.flag("shard").map(parse_shard).transpose()?;
    let journal_path = args
        .flag("journal")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(format!("{out}.journal.jsonl")));
    let config = CampaignConfig {
        spec,
        jobs: args.num("jobs", glitchlock::jobs::worker_count())?,
        journal_path: journal_path.clone(),
        resume: args.has("resume"),
        halt_after: args.opt_num("halt-after")?,
        shard,
    };
    let started = std::time::Instant::now();
    let result = run_campaign(&config)?;
    if result.skipped_resume > 0 {
        eprintln!(
            "resume: skipping {} journaled job(s)",
            result.skipped_resume
        );
    }
    eprintln!(
        "campaign: {} job(s) executed, wall-clock {:.1}s",
        result.executed,
        started.elapsed().as_secs_f64()
    );
    if result.halted {
        eprintln!(
            "campaign: halted early; rerun with --resume to finish \
             (journal: {})",
            journal_path.display()
        );
        return Ok(());
    }
    if let Some((index, count)) = shard {
        // A shard owns only its slice of the matrix, so there is no
        // report to render — the journal is the artifact to merge.
        eprintln!(
            "campaign: shard {index}/{count} complete; journal: {}",
            journal_path.display()
        );
        return Ok(());
    }
    write_campaign_reports(&config.spec, &result.records, &out)
}

/// Writes `<out>.report.txt` / `<out>.report.json`, prints the text
/// report, and fails if any record failed — shared by full runs and
/// `--merge-journals`.
fn write_campaign_reports(
    spec: &glitchlock::jobs::CampaignSpec,
    records: &[glitchlock::jobs::JobRecord],
    out: &str,
) -> Result<(), String> {
    use glitchlock::jobs::report;

    let text_report = report::render_text(spec, records);
    let json_report = report::render_json(spec, records);
    let txt_path = format!("{out}.report.txt");
    let json_path = format!("{out}.report.json");
    std::fs::write(&txt_path, &text_report).map_err(|e| format!("cannot write {txt_path}: {e}"))?;
    std::fs::write(&json_path, &json_report)
        .map_err(|e| format!("cannot write {json_path}: {e}"))?;
    print!("{text_report}");
    eprintln!("campaign: wrote {txt_path} and {json_path}");
    let failed = records.iter().filter(|r| r.status == "failed").count();
    if failed > 0 {
        return Err(format!("{failed} job(s) failed"));
    }
    Ok(())
}

/// The oracle/campaign daemon. Binds (localhost by default,
/// port 0 picks a free port), prints `serve: listening on ADDR` on stdout
/// so wrappers can scrape the address, then runs until SIGTERM or a
/// client `shutdown` op. All server threads feed the global collector, so
/// `--trace`/`--metrics` capture the whole daemon.
fn cmd_serve(args: &Args) -> Result<(), String> {
    use glitchlock::serve::{self, ServerConfig};
    use std::io::Write as _;

    let mut config = ServerConfig {
        addr: args.flag("addr").unwrap_or("127.0.0.1:0").to_string(),
        allow_debug: args.has("allow-debug"),
        ..ServerConfig::default()
    };
    config.max_inflight = args.num("max-inflight", config.max_inflight)?;
    config.max_jobs = args.num("max-jobs", config.max_jobs)?;
    if let Some(secs) = args.opt_num("job-timeout-secs")? {
        config.job_timeout = std::time::Duration::from_secs(secs);
    }

    let handle = serve::start(config, obs::global().clone())?;
    println!("serve: listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    install_sigterm_flag();
    while !handle.is_stopping() && !sigterm_received() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.shutdown();
    handle.wait();
    eprintln!("serve: shut down");
    Ok(())
}

/// Set by the SIGTERM handler; polled by the serve loop.
static SIGTERM: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_flag() {
    extern "C" fn on_term(_sig: i32) {
        SIGTERM.store(true, std::sync::atomic::Ordering::SeqCst);
    }
    // std already links libc; declaring `signal` avoids a crate dependency.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_NUM: i32 = 15;
    unsafe {
        signal(SIGTERM_NUM, on_term as extern "C" fn(i32) as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_flag() {}

fn sigterm_received() -> bool {
    SIGTERM.load(std::sync::atomic::Ordering::SeqCst)
}

/// A one-shot client for a running `glk serve`. Prints the
/// response as one canonical JSON line on stdout; error/busy replies exit
/// nonzero. `campaign --journal PATH` additionally writes the returned
/// records as a (shard) journal for later `--merge-journals`.
fn cmd_query(args: &Args) -> Result<(), String> {
    use glitchlock::jobs::{parse_shard, CampaignSpec, JournalWriter};
    use glitchlock::serve::{AttackJob, Client, Op, Reply, Request};

    let addr = need(args, 0, "server address (host:port)")?;
    let op_name = need(args, 1, "query op")?;
    let mut client = Client::connect(&addr)?;
    let op = match op_name.as_str() {
        "ping" => Op::Ping,
        "metrics" => Op::Metrics,
        "shutdown" => Op::Shutdown,
        "load-bench" => Op::LoadBench {
            name: need(args, 2, "benchmark name")?,
        },
        "load-netlist" => {
            let name = need(args, 2, "design name")?;
            let path = need(args, 3, "bench file")?;
            let bench = read(&path)?;
            Op::LoadNetlist { name, bench }
        }
        "oracle" => Op::Oracle {
            design: need(args, 2, "design name")?,
            pattern: need(args, 3, "pattern bits")?,
        },
        "oracle-bulk" => {
            let design = need(args, 2, "design name")?;
            let patterns: Vec<String> = args.positional[3..].to_vec();
            if patterns.is_empty() {
                return Err("oracle-bulk needs at least one pattern".to_string());
            }
            Op::OracleBulk { design, patterns }
        }
        "sweep" => Op::OracleSweep {
            design: need(args, 2, "design name")?,
            count: args.num("count", 1024u64)?,
            seed: args.num("seed", 1u64)?,
        },
        "attack" => Op::Attack(AttackJob {
            bench: need(args, 2, "benchmark name")?,
            locker: args.required("locker")?.to_string(),
            width: args.num("width", 0usize)?,
            attack: args.required("attack")?.to_string(),
            seed: args.num("seed", 1u64)?,
            max_iters: args.num("max-iters", 512usize)?,
            samples: args.num("samples", 1024usize)?,
        }),
        "campaign" => {
            let spec = read(args.required("spec")?)?;
            let shard = args.flag("shard").map(parse_shard).transpose()?;
            Op::Campaign { spec, shard }
        }
        "sleep" => Op::Sleep {
            ms: args.num("ms", 100u64)?,
        },
        other => return Err(format!("unknown query op {other:?} (try `glk help`)")),
    };
    let id = client.next_id();
    let request = Request { id, op };
    let response = client.call(&request)?;
    println!("{}", response.to_json());
    match (&response.reply, &request.op) {
        (Reply::Error { code, message }, _) => {
            Err(format!("server error [{}]: {message}", code.tag()))
        }
        (Reply::Busy { reason }, _) => Err(format!("server busy: {reason}")),
        (Reply::Campaign { spec_hash, records }, Op::Campaign { spec, shard }) => {
            if let Some(path) = args.flag("journal") {
                // The request's shard labels the journal header the way a
                // local `glk campaign --shard` run would.
                let parsed = CampaignSpec::parse(spec)?;
                if parsed.hash() != *spec_hash {
                    return Err(format!(
                        "server answered for spec {spec_hash}, local spec is {}",
                        parsed.hash()
                    ));
                }
                let writer =
                    JournalWriter::create_shard(std::path::Path::new(path), spec_hash, *shard)?;
                for record in records {
                    writer.append(record)?;
                }
                eprintln!("query: wrote {} record(s) to {path}", records.len());
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// A key as `0`/`1` characters, as `glk verify --key` takes it.
fn bit_string(bits: &[bool]) -> String {
    bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
}

fn names(nl: &Netlist, nets: &[glitchlock::netlist::NetId]) -> String {
    nets.iter()
        .map(|&n| nl.net(n).name())
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> impl Iterator<Item = String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        args.into_iter()
    }

    #[test]
    fn usage_declares_each_subcommands_flags() {
        for (sub, switches, values) in [
            ("lock-gk", &["mix", "share"][..], &[][..]),
            ("synth", &["optimize", "holdfix", "no-lint"], &["resize"]),
            ("fuzz", &[], &["referee"]),
            ("lint", &[], &["deny"]),
            ("query", &[], &["locker", "spec", "ms"]),
            ("attack", &["metrics"], &["trace", "metrics-format"]),
        ] {
            let accepted = Accepted::of(sub).unwrap();
            for (names, value) in [(switches, false), (values, true)] {
                for name in names {
                    assert_eq!(accepted.takes_value(name), Some(value), "{sub} --{name}");
                }
            }
        }
        assert!(Accepted::of("attack").unwrap().obs);
        let stats = Accepted::of("stats").unwrap();
        assert!(!stats.obs && stats.takes_value("trace").is_none());
        assert!(Accepted::of("frob").is_none());
    }

    #[test]
    fn parse_checks_flags_against_usage() {
        let args = Args::parse("lib", argv(&["--custom", "out.lib"])).unwrap();
        assert_eq!(args.positional, ["out.lib"]);
        let args = Args::parse("lint", argv(&["x", "--deny", "a,b", "--deny", "c"])).unwrap();
        assert_eq!(flag_values(&args, "deny"), ["a", "b", "c"]);
        let Err(err) = Args::parse("attack", argv(&["a", "b", "--solver", "legacy"])) else {
            panic!("--solver accepted");
        };
        assert!(err.contains("--solver") && err.contains("attack"), "{err}");
        assert!(Args::parse("sta", argv(&["s.bench", "--period-ns"])).is_err());
        assert!(Args::parse("synth", argv(&["a", "b", "--resize", "--optimize"])).is_err());
        assert!(Args::parse("serve", argv(&["--job-timeout-ms", "5"])).is_err());
    }

    #[test]
    fn usage_bounds_each_subcommands_positionals() {
        for (sub, max) in [
            ("stats", Some(1)),
            ("lock-gk", Some(2)),
            ("verify", Some(2)),
            ("lib", Some(1)),
            ("campaign", Some(0)),
            ("fuzz", Some(0)),
            ("trace-check", Some(1)),
            ("help", Some(0)),
            ("query", None),
        ] {
            assert_eq!(Accepted::of(sub).unwrap().max_positional, max, "{sub}");
        }
        let Err(err) = Args::parse("stats", argv(&["a.bench", "b.bench"])) else {
            panic!("surplus positional accepted");
        };
        assert!(
            err.contains("\"b.bench\"") && err.contains("stats"),
            "{err}"
        );
        assert!(Args::parse("verify", argv(&["l", "o", "--key", "01"])).is_ok());
        assert!(Args::parse("campaign", argv(&["--spec", "c.spec", "x"])).is_err());
        let bulk = ["127.0.0.1:1", "oracle-bulk", "s27", "0101", "1010", "0000"];
        assert_eq!(Args::parse("query", argv(&bulk)).unwrap().positional, bulk);
    }
}
