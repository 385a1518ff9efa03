//! End-to-end tests of the `glk` command-line tool.

use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

fn glk() -> Command {
    Command::new(env!("CARGO_BIN_EXE_glk"))
}

fn write_s27(dir: &std::path::Path) -> PathBuf {
    let path = dir.join("s27.bench");
    std::fs::write(&path, glitchlock_circuits::S27_BENCH).unwrap();
    path
}

/// A fresh directory per call: tests run in parallel and each rewrites
/// its own `s27.bench`.
fn tempdir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("glk-test-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn stats_and_sta_report() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let out = glk().arg("stats").arg(&bench).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("cells    13 (10 gates + 3 flip-flops)"));
    assert!(text.contains("inputs   4"));

    let out = glk()
        .args(["sta"])
        .arg(&bench)
        .args(["--period-ns", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("timing met    true"), "{text}");
}

#[test]
fn lock_gk_then_attack_round_trip() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let prefix = dir.join("s27gk");
    let out = glk()
        .arg("lock-gk")
        .arg(&bench)
        .arg(&prefix)
        .args(["--gks", "2", "--seed", "7"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("locked with 2 GKs (4 key inputs)"));
    let attack_file = format!("{}.attack.bench", prefix.display());
    assert!(std::path::Path::new(&attack_file).exists());
    assert!(std::path::Path::new(&format!("{}.locked.bench", prefix.display())).exists());

    let out = glk()
        .arg("attack")
        .arg(&attack_file)
        .arg(&bench)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("UNSAT at iteration 1"),
        "GK locking must invalidate the attack: {text}"
    );
}

#[test]
fn lock_xor_then_attack_cracks() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let locked = dir.join("s27x.bench");
    let out = glk()
        .arg("lock-xor")
        .arg(&bench)
        .arg(&locked)
        .args(["--bits", "4", "--seed", "9"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = glk()
        .arg("attack")
        .arg(&locked)
        .arg(&bench)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CRACKED"), "{text}");
}

#[test]
fn verify_accepts_correct_key_and_rejects_wrong() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let prefix = dir.join("s27v");
    let out = glk()
        .arg("lock-gk")
        .arg(&bench)
        .arg(&prefix)
        .args(["--gks", "2", "--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    // The tool prints a ready-to-run verify line with the compact key.
    let key = text
        .lines()
        .find(|l| l.contains("--key "))
        .and_then(|l| l.split("--key ").nth(1))
        .expect("compact key printed")
        .trim()
        .to_string();
    let locked_file = format!("{}.locked.bench", prefix.display());

    let out = glk()
        .arg("verify")
        .arg(&locked_file)
        .arg(&bench)
        .args(["--key", &key])
        .output()
        .unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{text}");
    assert!(text.contains("KEY ACCEPTED"), "{text}");

    // Flip one bit: rejected.
    let mut wrong: Vec<char> = key.chars().collect();
    wrong[0] = if wrong[0] == '0' { '1' } else { '0' };
    let wrong: String = wrong.into_iter().collect();
    let out = glk()
        .arg("verify")
        .arg(&locked_file)
        .arg(&bench)
        .args(["--key", &wrong])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("KEY REJECTED"), "{text}");
}

#[test]
fn sim_writes_vcd() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let vcd = dir.join("s27.vcd");
    let out = glk()
        .arg("sim")
        .arg(&bench)
        .args(["--cycles", "4", "--vcd"])
        .arg(&vcd)
        .output()
        .unwrap();
    assert!(out.status.success());
    let dump = std::fs::read_to_string(&vcd).unwrap();
    assert!(dump.contains("$timescale 1ps $end"));
    assert!(dump.contains("$enddefinitions $end"));
}

#[test]
fn errors_are_reported() {
    let out = glk()
        .arg("stats")
        .arg("/nonexistent.bench")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("glk:"));
    let out = glk().arg("frob").output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn help_lists_every_subcommand() {
    let out = glk().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for sub in [
        "stats",
        "sta",
        "feasibility",
        "lock-xor",
        "lock-gk",
        "attack",
        "sim",
        "verify",
        "lint",
        "synth",
        "lib",
        "fuzz",
        "trace-check",
        "help",
    ] {
        assert!(
            text.contains(&format!("glk {sub}")),
            "missing {sub}: {text}"
        );
    }
    assert!(text.contains("--trace"));
    assert!(text.contains("--metrics"));

    // The no-subcommand usage error carries the same full listing.
    let out = glk().output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("glk trace-check"), "{err}");
    assert!(err.contains("glk fuzz"), "{err}");
}

/// Every trace line must be a JSON object with string `kind`/`name` and a
/// numeric `ts`.
fn assert_schema_valid(trace: &std::path::Path) {
    let text = std::fs::read_to_string(trace).unwrap();
    assert!(!text.trim().is_empty(), "trace is empty");
    for (i, line) in text.lines().enumerate() {
        glitchlock::obs::schema::validate_line(line)
            .unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
    }
}

#[test]
fn attack_supports_trace_and_metrics() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let prefix = dir.join("s27obs");
    let out = glk()
        .arg("lock-gk")
        .arg(&bench)
        .arg(&prefix)
        .args(["--gks", "2", "--xor-bits", "3", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let attack_file = format!("{}.attack.bench", prefix.display());

    let trace = dir.join("attack-cli.jsonl");
    let out = glk()
        .arg("attack")
        .arg(&attack_file)
        .arg(&bench)
        .arg("--trace")
        .arg(&trace)
        .args(["--metrics"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_schema_valid(&trace);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("metrics:"), "{text}");
    assert!(text.contains("sat.iterations"), "{text}");

    // JSON metrics round-trip: the last stdout line is one JSON object.
    let out = glk()
        .arg("attack")
        .arg(&attack_file)
        .arg(&bench)
        .args(["--metrics", "--metrics-format", "json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap();
    let v = glitchlock::obs::json::parse(line).expect("json metrics parse");
    assert!(v.get("metrics").is_some(), "{line}");

    // trace-check accepts the trace and its domain probes.
    let out = glk()
        .arg("trace-check")
        .arg(&trace)
        .args(["--sites", "attack"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sim_and_fuzz_support_trace_flags() {
    let dir = tempdir();
    let bench = write_s27(&dir);

    let sim_trace = dir.join("sim-cli.jsonl");
    let out = glk()
        .arg("sim")
        .arg(&bench)
        .args(["--cycles", "4"])
        .arg("--trace")
        .arg(&sim_trace)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_schema_valid(&sim_trace);

    let fuzz_trace = dir.join("fuzz-cli.jsonl");
    let out = glk()
        .arg("fuzz")
        .args(["--seed", "7", "--cases", "10"])
        .arg("--trace")
        .arg(&fuzz_trace)
        .args(["--metrics"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_schema_valid(&fuzz_trace);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fuzz.cases"), "{text}");

    // Dead-probe detection: a sim trace cannot satisfy the attack domain.
    let out = glk()
        .arg("trace-check")
        .arg(&sim_trace)
        .args(["--sites", "attack"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("dead probe"), "{err}");

    // Unknown domains and invalid traces are rejected.
    let out = glk()
        .arg("trace-check")
        .arg(&sim_trace)
        .args(["--sites", "nonsense"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let bogus = dir.join("bogus.jsonl");
    std::fs::write(&bogus, "not json\n").unwrap();
    let out = glk().arg("trace-check").arg(&bogus).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_flags_are_usage_errors() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let prefix = dir.join("s27u");
    let out = glk()
        .arg("lock-gk")
        .arg(&bench)
        .arg(&prefix)
        .args(["--gks", "2", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());

    // A retired solver switch must not run the attack on defaults.
    let out = glk()
        .arg("attack")
        .arg(format!("{}.attack.bench", prefix.display()))
        .arg(&bench)
        .args(["--solver", "legacy"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--solver") && err.contains("attack"), "{err}");
    assert!(out.stdout.is_empty());

    // A retired daemon knob is rejected before the daemon binds.
    let out = glk()
        .args(["serve", "--flush-micros", "200"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(!text.contains("listening"), "{text}");
}

#[test]
fn value_flag_without_value_is_a_usage_error() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let out = glk()
        .arg("sta")
        .arg(&bench)
        .arg("--period-ns")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--period-ns"), "{err}");
}

#[test]
fn switches_never_take_the_next_argument() {
    let dir = tempdir();
    let lib = dir.join("out.lib");
    let out = glk().args(["lib", "--custom"]).arg(&lib).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("library -> "));
    // `--custom` still selects the library with the GK delay macros.
    let text = std::fs::read_to_string(&lib).unwrap();
    assert!(text.contains("cell (GKDLY"), "{text}");
}

#[test]
fn surplus_positionals_are_usage_errors() {
    let dir = tempdir();
    let bench = write_s27(&dir);
    let missing = dir.join("missing.bench");
    let out = glk()
        .arg("stats")
        .arg(&bench)
        .arg(&missing)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "stats ran on the first file");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("missing.bench") && err.contains("stats"),
        "{err}"
    );

    // The declared count still runs.
    let out = glk().arg("stats").arg(&bench).output().unwrap();
    assert!(out.status.success());
}
