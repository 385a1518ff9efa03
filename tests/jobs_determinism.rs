//! The campaign determinism contract, tested end-to-end through `glk`:
//! for a fixed spec, the report is a pure function of the spec.
//!
//! * `--jobs 1` and `--jobs 8` produce byte-identical text and JSON
//!   reports (scheduling independence).
//! * A run halted partway (`--halt-after`) and then finished with
//!   `--resume` produces reports byte-identical to the uninterrupted run,
//!   and the journal proves the resumed run did not re-execute any
//!   journaled job.
//! * Corruptibility rows depend only on the bench, the locker cell and
//!   the `count` directive, not on the spec's other lines.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A modest 12-job matrix: 1 bench × 3 lockers × 2 attacks × 2 seeds.
const SPEC: &str = "\
bench s27
locker xor 3
locker sarlock 3
locker gk 1
attack sat
attack removal
seeds 1 2
max-iters 64
samples 256
";

fn glk() -> Command {
    Command::new(env!("CARGO_BIN_EXE_glk"))
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("glk-jobs-det-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

struct Run {
    text: String,
    json: String,
    journal: PathBuf,
    stderr: String,
}

fn campaign_with_spec(dir: &Path, out: &str, spec_text: &str, extra: &[&str]) -> Run {
    let spec = dir.join("spec.txt");
    std::fs::write(&spec, spec_text).unwrap();
    let prefix = dir.join(out);
    let output = glk()
        .arg("campaign")
        .arg("--spec")
        .arg(&spec)
        .arg("--out")
        .arg(&prefix)
        .args(extra)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert!(output.status.success(), "campaign failed: {stderr}");
    let read = |suffix: &str| {
        std::fs::read_to_string(format!("{}{suffix}", prefix.display())).unwrap_or_default()
    };
    Run {
        text: read(".report.txt"),
        json: read(".report.json"),
        journal: PathBuf::from(format!("{}.journal.jsonl", prefix.display())),
        stderr,
    }
}

fn campaign(dir: &Path, out: &str, extra: &[&str]) -> Run {
    campaign_with_spec(dir, out, SPEC, extra)
}

/// Job ids journaled, in journal order (header line skipped).
fn journaled_ids(journal: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(journal).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert!(header.contains("\"campaign-journal\""), "{header}");
    lines
        .map(|l| {
            let v = glitchlock::obs::json::parse(l).unwrap();
            v.get("id")
                .and_then(glitchlock::obs::json::Value::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

#[test]
fn report_is_independent_of_worker_count() {
    let serial = campaign(&tempdir("serial"), "run", &["--jobs", "1"]);
    let wide = campaign(&tempdir("wide"), "run", &["--jobs", "8"]);
    assert!(!serial.text.is_empty() && !serial.json.is_empty());
    assert_eq!(serial.text, wide.text, "text report depends on --jobs");
    assert_eq!(serial.json, wide.json, "json report depends on --jobs");
}

/// The corruptibility columns ride the same contract: rows are computed
/// at render time from the spec alone, so worker counts, halts, resumes,
/// and shard merges cannot move an estimate by a single byte.
#[test]
fn counted_reports_are_deterministic_across_schedules_and_shards() {
    let spec = format!("{SPEC}count 0.8 0.2 20 6\n");

    let serial = campaign_with_spec(&tempdir("cnt-serial"), "run", &spec, &["--jobs", "1"]);
    assert!(
        serial.text.contains("corruptibility"),
        "count directive adds the section:\n{}",
        serial.text
    );
    assert!(
        serial.json.contains("\"corruptibility\""),
        "json gains the corruptibility key"
    );
    // gk1 on s27: the paper's quantitative signature — dip exact 0, one
    // key class — appears in the rendered table.
    assert!(serial.text.contains("gk1"), "{}", serial.text);

    for jobs in ["4", "8"] {
        let wide = campaign_with_spec(
            &tempdir(&format!("cnt-jobs{jobs}")),
            "run",
            &spec,
            &["--jobs", jobs],
        );
        assert_eq!(serial.text, wide.text, "--jobs {jobs}: text diverged");
        assert_eq!(serial.json, wide.json, "--jobs {jobs}: json diverged");
    }

    // Kill-then-resume.
    let dir = tempdir("cnt-resume");
    let halted = campaign_with_spec(&dir, "run", &spec, &["--jobs", "4", "--halt-after", "5"]);
    assert!(halted.text.is_empty(), "halted run wrote a report");
    let resumed = campaign_with_spec(&dir, "run", &spec, &["--jobs", "4", "--resume"]);
    assert_eq!(serial.text, resumed.text, "resumed text diverged");
    assert_eq!(serial.json, resumed.json, "resumed json diverged");

    // Two shards, merged.
    let dir = tempdir("cnt-shard");
    let spec_path = dir.join("spec.txt");
    std::fs::write(&spec_path, &spec).unwrap();
    let run = |extra: &[&str]| {
        let output = glk()
            .arg("campaign")
            .arg("--spec")
            .arg(&spec_path)
            .current_dir(&dir)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            output.status.success(),
            "{}",
            String::from_utf8_lossy(&output.stderr)
        );
    };
    run(&["--jobs", "1", "--shard", "0/2", "--journal", "s0.jsonl"]);
    run(&["--jobs", "1", "--shard", "1/2", "--journal", "s1.jsonl"]);
    run(&["--merge-journals", "s0.jsonl,s1.jsonl", "--out", "merged"]);
    let merged_text = std::fs::read_to_string(dir.join("merged.report.txt")).unwrap();
    let merged_json = std::fs::read_to_string(dir.join("merged.report.json")).unwrap();
    assert_eq!(serial.text, merged_text, "merged text diverged");
    assert_eq!(serial.json, merged_json, "merged json diverged");
}

/// The corruptibility section of a text report: its header through the
/// last row.
fn count_section(text: &str) -> String {
    let start = text.find("corruptibility (").expect("count section");
    text[start..]
        .lines()
        .take_while(|l| !l.is_empty())
        .collect::<Vec<_>>()
        .join("\n")
}

/// A count row is seeded from its bench, its locker cell and the `count`
/// directive alone: a spec that changes only its attacks, seeds and
/// sample budget renders the same corruptibility rows.
#[test]
fn count_rows_ignore_attacks_seeds_and_samples() {
    let directive = "count 0.8 0.2 20 6\n";
    let base = campaign_with_spec(
        &tempdir("cnt-base"),
        "run",
        &format!("{SPEC}{directive}"),
        &["--jobs", "2"],
    );
    let edited = "\
bench s27
locker xor 3
locker sarlock 3
locker gk 1
attack sat
seeds 9
max-iters 64
samples 128
";
    let other = campaign_with_spec(
        &tempdir("cnt-edited"),
        "run",
        &format!("{edited}{directive}"),
        &["--jobs", "2"],
    );
    assert_ne!(base.text, other.text, "the verdict tables differ");
    let rows = count_section(&base.text);
    assert_eq!(
        rows.lines().count(),
        5,
        "header, columns, three cells:\n{rows}"
    );
    assert_eq!(rows, count_section(&other.text));
}

#[test]
fn halted_then_resumed_run_matches_the_uninterrupted_run() {
    let full = campaign(&tempdir("full"), "run", &["--jobs", "4"]);

    let dir = tempdir("resume");
    // First leg: halt after 5 retired jobs. No report is written yet.
    let halted = campaign(&dir, "run", &["--jobs", "4", "--halt-after", "5"]);
    assert!(halted.stderr.contains("halted early"), "{}", halted.stderr);
    assert!(halted.text.is_empty(), "halted run wrote a report");
    let first_leg = journaled_ids(&halted.journal);
    assert!(
        first_leg.len() >= 5 && first_leg.len() < 12,
        "halt-after 5 retired {} job(s)",
        first_leg.len()
    );

    // Second leg: resume. Journaled jobs are skipped, not re-executed.
    let resumed = campaign(&dir, "run", &["--jobs", "4", "--resume"]);
    assert!(
        resumed
            .stderr
            .contains(&format!("skipping {} journaled job(s)", first_leg.len())),
        "{}",
        resumed.stderr
    );

    let all = journaled_ids(&resumed.journal);
    let unique: BTreeSet<_> = all.iter().collect();
    assert_eq!(all.len(), 12, "journal has every job exactly once");
    assert_eq!(unique.len(), 12, "a journaled job was re-executed");
    assert_eq!(
        &all[..first_leg.len()],
        &first_leg[..],
        "first leg rewritten"
    );

    assert_eq!(resumed.text, full.text, "resumed text report diverged");
    assert_eq!(resumed.json, full.json, "resumed json report diverged");
}
