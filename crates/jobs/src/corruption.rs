//! Render-time corruptibility rows for campaign reports.
//!
//! When a spec carries a `count` directive, the report gains one row per
//! bench × locker cell: the three `glitchlock-count` scores (wrong-key
//! error rate, DIP-space size, wrong-key count) plus the engine tag.
//! Rows are computed here, at report-render time, **never** inside pool
//! jobs — each is a pure function of its bench, its locker cell and the
//! `count` directive (locking RNG and count seeds both derive from those
//! three alone), so `--jobs 1`, `--jobs 8`, sharded, and resumed
//! campaigns render byte-identical reports without journaling a single
//! extra field, and editing a spec's attacks, seeds or samples leaves
//! its count rows as they were.

use crate::job::{lock, resolve_bench, LockerKind};
use crate::spec::{fnv1a64, CampaignSpec};
use glitchlock_count::{corruption_scores, Score, ScoreConfig, ScoreMethod};
use glitchlock_obs::json::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// One bench × locker corruptibility row.
#[derive(Clone, Debug, PartialEq)]
pub struct CorruptionRow {
    /// Benchmark name.
    pub bench: String,
    /// Locker cell tag (`xor4`, `gk2`, …).
    pub cell: String,
    /// Engine tag (`both`/`exact`/`estimate`/`skipped`) or `error`.
    pub method: String,
    /// Data-space width.
    pub data_bits: usize,
    /// Key-space width.
    pub key_bits: usize,
    /// Inputs the sampled wrong key corrupts, over `2^data_bits`.
    pub err: Option<Score>,
    /// Distinguishing-input space, over `2^data_bits`.
    pub dip: Option<Score>,
    /// Keys differing from the oracle anywhere, over `2^key_bits`.
    pub wrong_keys: Option<Score>,
    /// Distinct key-induced functions (exhaustive engine only).
    pub key_classes: Option<u64>,
    /// Failure detail when the scores could not be computed.
    pub detail: String,
}

/// Computes the corruptibility rows for `spec`, in bench × locker order.
/// Returns an empty list when the spec has no `count` directive. All
/// randomness (locking and hash draws) of a row is seeded from its bench,
/// its locker cell and the rendered directive, so each row is a pure
/// function of those and no other spec line moves it.
pub fn corruption_rows(spec: &CampaignSpec) -> Vec<CorruptionRow> {
    let Some(directive) = spec.count else {
        return Vec::new();
    };
    let rendered = directive.render();
    let mut rows = Vec::new();
    for bench in &spec.benches {
        for &(locker, width) in &spec.lockers {
            let cell = format!("{}{width}", locker.tag());
            let seed = fnv1a64(&format!("count/{bench}/{cell}/{rendered}"));
            let mut row = CorruptionRow {
                bench: bench.clone(),
                cell,
                method: "error".to_string(),
                data_bits: 0,
                key_bits: 0,
                err: None,
                dip: None,
                wrong_keys: None,
                key_classes: None,
                detail: String::new(),
            };
            let cfg = ScoreConfig {
                epsilon: directive.epsilon,
                delta: directive.delta,
                exact_bits: directive.exact_bits,
                max_bits: directive.max_bits,
                seed,
            };
            match score_cell(bench, locker, width, seed, &cfg) {
                Ok(scores) => {
                    row.method = scores.method.tag().to_string();
                    row.data_bits = scores.data_bits;
                    row.key_bits = scores.key_bits;
                    if scores.method != ScoreMethod::Skipped {
                        row.err = Some(scores.err);
                        row.dip = Some(scores.dip);
                        row.wrong_keys = Some(scores.wrong_keys);
                        row.key_classes = scores.key_classes;
                    }
                }
                Err(e) => row.detail = e,
            }
            rows.push(row);
        }
    }
    rows
}

fn score_cell(
    bench: &str,
    locker: LockerKind,
    width: usize,
    seed: u64,
    cfg: &ScoreConfig,
) -> Result<glitchlock_count::CorruptionScores, String> {
    let oracle = resolve_bench(bench)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let job = crate::job::JobSpec {
        bench: bench.to_string(),
        locker,
        width,
        attack: crate::job::AttackKind::Sat,
        seed,
    };
    let (locked, key_inputs) = lock(&job, &oracle, &mut rng)?;
    corruption_scores(&locked, &key_inputs, &oracle, cfg)
}

fn fmt_score(score: &Option<Score>) -> String {
    let Some(s) = score else {
        return "-".to_string();
    };
    match (s.exact, s.estimate) {
        (Some(e), _) => format!("{e}"),
        (None, Some(est)) => format!("~{est:.1}"),
        (None, None) => "-".to_string(),
    }
}

/// Appends the text-report corruptibility section.
pub fn write_text(out: &mut String, rows: &[CorruptionRow]) {
    use std::fmt::Write as _;
    let _ = writeln!(out, "corruptibility (err/dip over 2^n, W over 2^k):");
    let _ = writeln!(
        out,
        "  {:<8} {:<10} {:<8} {:>4} {:>4} {:>10} {:>10} {:>10} {:>8}",
        "bench", "locker", "method", "n", "k", "err", "dip", "wrong-keys", "classes"
    );
    for row in rows {
        let classes = row
            .key_classes
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "  {:<8} {:<10} {:<8} {:>4} {:>4} {:>10} {:>10} {:>10} {:>8} {}",
            row.bench,
            row.cell,
            row.method,
            row.data_bits,
            row.key_bits,
            fmt_score(&row.err),
            fmt_score(&row.dip),
            fmt_score(&row.wrong_keys),
            classes,
            row.detail
        );
    }
}

fn score_json(score: &Option<Score>) -> Value {
    let Some(s) = score else {
        return Value::Null;
    };
    let mut obj = BTreeMap::new();
    obj.insert("space_bits".to_string(), Value::Num(s.space_bits as f64));
    if let Some(e) = s.exact {
        obj.insert("exact".to_string(), Value::Num(e as f64));
    }
    if let Some(est) = s.estimate {
        obj.insert("estimate".to_string(), Value::Num(est));
    }
    Value::Obj(obj)
}

/// The JSON-report value for `rows`.
pub fn rows_json(rows: &[CorruptionRow]) -> Value {
    Value::Arr(
        rows.iter()
            .map(|row| {
                let mut obj = BTreeMap::new();
                obj.insert("bench".to_string(), Value::Str(row.bench.clone()));
                obj.insert("locker".to_string(), Value::Str(row.cell.clone()));
                obj.insert("method".to_string(), Value::Str(row.method.clone()));
                obj.insert("data_bits".to_string(), Value::Num(row.data_bits as f64));
                obj.insert("key_bits".to_string(), Value::Num(row.key_bits as f64));
                obj.insert("err".to_string(), score_json(&row.err));
                obj.insert("dip".to_string(), score_json(&row.dip));
                obj.insert("wrong_keys".to_string(), score_json(&row.wrong_keys));
                match row.key_classes {
                    Some(c) => obj.insert("key_classes".to_string(), Value::Num(c as f64)),
                    None => obj.insert("key_classes".to_string(), Value::Null),
                };
                if !row.detail.is_empty() {
                    obj.insert("detail".to_string(), Value::Str(row.detail.clone()));
                }
                Value::Obj(obj)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted_spec() -> CampaignSpec {
        CampaignSpec::parse(
            "bench s27\nlocker xor 2\nlocker gk 2\nattack sat\ncount 0.8 0.2 20 16\n",
        )
        .unwrap()
    }

    #[test]
    fn rows_require_the_count_directive() {
        let spec = CampaignSpec::parse("bench s27\nlocker xor 2\nattack sat\n").unwrap();
        assert!(corruption_rows(&spec).is_empty());
    }

    #[test]
    fn rows_cover_the_bench_locker_matrix_deterministically() {
        let spec = counted_spec();
        let rows = corruption_rows(&spec);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].cell, "xor2");
        assert_eq!(rows[1].cell, "gk2");
        assert_eq!(rows, corruption_rows(&spec), "pure function of the spec");
        // s27: 4 PI + 3 FF = 7 data bits; well inside both cutoffs.
        for row in &rows {
            assert_eq!(row.method, "both", "{row:?}");
            assert_eq!(row.data_bits, 7);
        }
        // XOR key-gates corrupt; the GK attack view is key-independent
        // (no DIPs, one equivalence class) yet statically wrong for
        // *every* key — the quantitative shape of the paper's
        // wrong-key-under-static-abstraction verdict.
        let xor = &rows[0];
        assert!(xor.wrong_keys.as_ref().unwrap().exact.unwrap() > 0);
        let gk = &rows[1];
        assert_eq!(gk.dip.as_ref().unwrap().exact, Some(0));
        assert_eq!(gk.key_classes, Some(1));
        assert_eq!(gk.err.as_ref().unwrap().exact, Some(128), "2^n: all inputs");
        assert_eq!(
            gk.wrong_keys.as_ref().unwrap().exact,
            Some(4),
            "2^k: all keys"
        );
    }

    #[test]
    fn unknown_benchmarks_report_errors_per_row() {
        let spec =
            CampaignSpec::parse("bench nosuch\nlocker xor 2\nattack sat\ncount 0.8 0.2 20 16\n")
                .unwrap();
        let rows = corruption_rows(&spec);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].method, "error");
        assert!(rows[0].detail.contains("unknown benchmark"));
    }

    #[test]
    fn text_and_json_render_without_panicking() {
        let rows = corruption_rows(&counted_spec());
        let mut text = String::new();
        write_text(&mut text, &rows);
        assert!(text.contains("corruptibility"));
        assert!(text.contains("gk2"));
        let json = rows_json(&rows);
        assert_eq!(format!("{json}").matches("\"bench\"").count(), 2);
    }
}
