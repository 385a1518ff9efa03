//! Human-readable and JSON renderers for lint reports.

use crate::{LintReport, Severity};
use glitchlock_obs::write_json_str;
use std::fmt::Write as _;

/// Renders a report the way a compiler prints diagnostics: one line per
/// finding, indented hints, and a summary line.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        let _ = writeln!(
            out,
            "{}[{}] at {}: {}",
            d.severity, d.code, d.location, d.message
        );
        if let Some(s) = &d.suggestion {
            let _ = writeln!(out, "    hint: {s}");
        }
    }
    let _ = writeln!(
        out,
        "lint: {} error(s), {} warning(s)",
        report.denied(),
        report.warnings()
    );
    out
}

/// Renders a report as a JSON object:
///
/// ```json
/// {"errors": 1, "warnings": 0, "diagnostics": [
///   {"code": "...", "severity": "error", "cell": null, "net": "n1",
///    "message": "...", "suggestion": null}
/// ]}
/// ```
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"errors\": {}, \"warnings\": {}, \"diagnostics\": [",
        report.denied(),
        report.warnings()
    ));
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let severity = match d.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        let fields = [
            ("code", Some(d.code)),
            ("severity", Some(severity)),
            ("cell", d.location.cell.as_deref()),
            ("net", d.location.net.as_deref()),
            ("message", Some(d.message.as_str())),
            ("suggestion", d.suggestion.as_deref()),
        ];
        for (j, (key, value)) in fields.into_iter().enumerate() {
            let _ = write!(out, "{}\"{key}\": ", if j == 0 { "{" } else { ", " });
            match value {
                Some(text) => write_json_str(&mut out, text),
                None => out.push_str("null"),
            }
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{diagnostic, Diagnostic, Location};

    /// The escaper `render_json` writes every string through.
    fn json_str(s: &str) -> String {
        let mut out = String::new();
        write_json_str(&mut out, s);
        out
    }

    fn sample() -> LintReport {
        LintReport {
            diagnostics: vec![
                Diagnostic::new(
                    diagnostic::UNDRIVEN_NET,
                    Severity::Error,
                    Location::net("n\"1"),
                    "net has no driver",
                )
                .with_suggestion("drive it"),
                Diagnostic::new(
                    diagnostic::DUPLICATE_GATE,
                    Severity::Warning,
                    Location::cell_net("g3", "w7"),
                    "same function as g2",
                ),
            ],
        }
    }

    #[test]
    fn text_report_lists_findings_and_summary() {
        let text = render_text(&sample());
        assert!(text.contains("error[undriven-net]"));
        assert!(text.contains("hint: drive it"));
        assert!(text.contains("warning[duplicate-gate]"));
        assert!(text.contains("1 error(s), 1 warning(s)"));
    }

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let json = render_json(&sample());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"errors\": 1"));
        assert!(json.contains("\"warnings\": 1"));
        // The quote inside the net name must be escaped.
        assert!(json.contains("n\\\"1"));
        assert!(json.contains("\"suggestion\": null"));
        // Balanced braces/brackets (cheap well-formedness proxy given no
        // string contains structural characters once escaped).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_str("a\nb"), "\"a\\nb\"");
        assert_eq!(json_str("a\u{1}b"), "\"a\\u0001b\"");
    }
}
