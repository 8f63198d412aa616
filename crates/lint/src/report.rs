//! Machine-readable lint report (SARIF-flavored JSON).
//!
//! The report is the CI artifact: one JSON document with a stable
//! shape (`gradestLint/v3`) listing every finding with rule, location
//! and message. It is written for people and never read back; the
//! gate's verdict is the finding count of the run that wrote it. Every
//! finding is an error, so findings carry no severity level. The crate
//! has no dependencies, so the JSON writer is hand-rolled here.

use crate::FileDiagnostics;
use std::fmt::Write as _;

/// Schema identifier written into every report.
const SCHEMA: &str = "gradestLint/v3";

/// One finding in flattened report form.
#[derive(Debug)]
pub struct Finding {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Message text.
    pub msg: String,
}

/// A full report: schema + findings, ordered by (path, line, rule).
#[derive(Debug, Default)]
pub struct Report {
    /// All findings.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Flattens per-file diagnostics into a report.
    pub fn from_diagnostics(files: &[FileDiagnostics]) -> Report {
        let mut findings = Vec::new();
        for file in files {
            let path = path_str(&file.path);
            for d in &file.diagnostics {
                findings.push(Finding {
                    rule: d.rule.to_string(),
                    path: path.clone(),
                    line: d.line,
                    msg: d.msg.clone(),
                });
            }
        }
        findings.sort_by(|a, b| {
            (&a.path, a.line, &a.rule, &a.msg).cmp(&(&b.path, b.line, &b.rule, &b.msg))
        });
        Report { findings }
    }

    /// Serializes to the `gradestLint/v3` JSON document (pretty,
    /// stable key order, trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"$schema\": {},", quote(SCHEMA));
        let _ = writeln!(s, "  \"tool\": {{ \"name\": \"gradest-lint\" }},");
        s.push_str("  \"results\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            s.push_str("    {\n");
            let _ = writeln!(s, "      \"ruleId\": {},", quote(&f.rule));
            let _ = writeln!(s, "      \"message\": {{ \"text\": {} }},", quote(&f.msg));
            let _ = writeln!(
                s,
                "      \"location\": {{ \"uri\": {}, \"line\": {} }}",
                quote(&f.path),
                f.line
            );
            s.push_str(if i + 1 == self.findings.len() { "    }\n" } else { "    },\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

fn path_str(path: &std::path::Path) -> String {
    // `/`-separated regardless of host, so a report reads the same everywhere.
    path.iter().filter_map(|c| c.to_str()).collect::<Vec<_>>().join("/")
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{RULE_NO_PANIC, RULE_UNUSED_PUB};
    use crate::Diagnostic;
    use std::path::PathBuf;

    #[test]
    fn json_is_pinned() {
        assert_eq!(
            Report::default().to_json(),
            r#"{
  "$schema": "gradestLint/v3",
  "tool": { "name": "gradest-lint" },
  "results": [
  ]
}
"#
        );

        // Given out of order: path sorts before line.
        let file = |path: &str, rule, line, msg: &str| FileDiagnostics {
            path: PathBuf::from(path),
            diagnostics: vec![Diagnostic { rule, line, msg: msg.to_string() }],
        };
        let report = Report::from_diagnostics(&[
            file("crates/geo/src/road.rs", RULE_UNUSED_PUB, 3, "pub fn `lonely`\u{1}\tend"),
            file("crates/core/src/ekf.rs", RULE_NO_PANIC, 12, "`.unwrap()` on \"x\"\nat C:\\tmp"),
        ]);
        assert_eq!(
            report.to_json(),
            r#"{
  "$schema": "gradestLint/v3",
  "tool": { "name": "gradest-lint" },
  "results": [
    {
      "ruleId": "no-panic",
      "message": { "text": "`.unwrap()` on \"x\"\nat C:\\tmp" },
      "location": { "uri": "crates/core/src/ekf.rs", "line": 12 }
    },
    {
      "ruleId": "unused-pub",
      "message": { "text": "pub fn `lonely`\u0001\tend" },
      "location": { "uri": "crates/geo/src/road.rs", "line": 3 }
    }
  ]
}
"#
        );
    }
}
