//! Machine-readable lint report (SARIF-flavored JSON) and the
//! `--baseline` diff mode.
//!
//! The report is the CI artifact: one JSON document with a stable
//! shape (`gradestLint/v2`) listing every finding with rule,
//! location, message, and a *fingerprint* that survives unrelated
//! edits. The fingerprint hashes the rule, the file path, the message
//! with digit runs stripped (so line numbers and counts embedded in
//! chain messages don't churn it), and an ordinal disambiguating
//! repeated identical findings in one file — deliberately *not* the
//! line number, so inserting a comment above a finding does not make
//! it "new".
//!
//! `diff(baseline, current)` classifies current findings as `new` or
//! `unchanged` against a previously accepted report and counts fixed
//! (absent) ones; only **new** findings fail the gate, so a baseline
//! can ratchet an imperfect tree while blocking regressions. Every
//! finding is an error, so findings carry no severity level.
//!
//! The crate has no dependencies, so the JSON writer and the (small,
//! report-shaped) parser are hand-rolled here. The parser handles the
//! full JSON grammar minus floats/exponents — enough to round-trip
//! anything this module writes, with errors rather than panics on
//! malformed input.

use crate::FileDiagnostics;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Schema identifier written into (and required from) every report.
const SCHEMA: &str = "gradestLint/v2";

/// One finding in flattened report form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name.
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Message text.
    pub msg: String,
    /// Stable fingerprint (see module docs).
    pub fingerprint: u64,
}

/// A full report: schema + findings, ordered by (path, line, rule).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Flattens per-file diagnostics into a report, assigning
    /// fingerprints (with per-key ordinals for repeats).
    pub fn from_diagnostics(files: &[FileDiagnostics]) -> Report {
        let mut findings = Vec::new();
        let mut seen: HashMap<u64, u32> = HashMap::new();
        for file in files {
            let path = path_str(&file.path);
            for d in &file.diagnostics {
                let base = fingerprint(d.rule, &path, &d.msg, 0);
                let ordinal = seen.entry(base).or_insert(0);
                let fp =
                    if *ordinal == 0 { base } else { fingerprint(d.rule, &path, &d.msg, *ordinal) };
                *ordinal += 1;
                findings.push(Finding {
                    rule: d.rule.to_string(),
                    path: path.clone(),
                    line: d.line,
                    msg: d.msg.clone(),
                    fingerprint: fp,
                });
            }
        }
        findings.sort_by(|a, b| {
            (&a.path, a.line, &a.rule, &a.msg).cmp(&(&b.path, b.line, &b.rule, &b.msg))
        });
        Report { findings }
    }

    /// Serializes to the `gradestLint/v2` JSON document (pretty,
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
                "      \"location\": {{ \"uri\": {}, \"line\": {} }},",
                quote(&f.path),
                f.line
            );
            let _ =
                writeln!(s, "      \"fingerprint\": {}", quote(&format!("{:016x}", f.fingerprint)));
            s.push_str(if i + 1 == self.findings.len() { "    }\n" } else { "    },\n" });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a report previously written by [`Report::to_json`].
    pub fn from_json(src: &str) -> Result<Report, String> {
        let value = parse_json(src)?;
        let obj = value.as_object().ok_or("report root is not an object")?;
        match obj.field("$schema").and_then(Value::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported report schema `{other}`")),
            None => return Err("report missing $schema".to_string()),
        }
        let results = obj
            .field("results")
            .and_then(Value::as_array)
            .ok_or("report missing `results` array")?;
        let mut findings = Vec::with_capacity(results.len());
        for (i, r) in results.iter().enumerate() {
            let r = r.as_object().ok_or_else(|| format!("results[{i}] is not an object"))?;
            let get_str = |key: &str| -> Result<&str, String> {
                r.field(key)
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("results[{i}] missing string `{key}`"))
            };
            let rule = get_str("ruleId")?.to_string();
            let msg = r
                .field("message")
                .and_then(Value::as_object)
                .and_then(|m| m.field("text"))
                .and_then(Value::as_str)
                .ok_or_else(|| format!("results[{i}] missing message.text"))?
                .to_string();
            let loc = r
                .field("location")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("results[{i}] missing location"))?;
            let path = loc
                .field("uri")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("results[{i}] missing location.uri"))?
                .to_string();
            let line = loc
                .field("line")
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("results[{i}] missing location.line"))?
                as u32;
            let fingerprint = u64::from_str_radix(get_str("fingerprint")?, 16)
                .map_err(|e| format!("results[{i}] bad fingerprint: {e}"))?;
            findings.push(Finding { rule, path, line, msg, fingerprint });
        }
        Ok(Report { findings })
    }
}

/// Outcome of diffing a current report against an accepted baseline.
#[derive(Debug, Default)]
pub struct Diff {
    /// Findings absent from the baseline (these fail the gate).
    pub new: Vec<Finding>,
    /// Findings whose fingerprint appears in the baseline.
    pub unchanged: Vec<Finding>,
    /// Baseline fingerprints with no current match (fixed findings).
    pub fixed: usize,
}

/// Classifies `current` findings against `baseline` by fingerprint.
pub fn diff(baseline: &Report, current: &Report) -> Diff {
    let mut budget: HashMap<u64, usize> = HashMap::new();
    for f in &baseline.findings {
        *budget.entry(f.fingerprint).or_insert(0) += 1;
    }
    let mut out = Diff::default();
    for f in &current.findings {
        match budget.get_mut(&f.fingerprint) {
            Some(n) if *n > 0 => {
                *n -= 1;
                out.unchanged.push(f.clone());
            }
            _ => out.new.push(f.clone()),
        }
    }
    out.fixed = budget.values().sum();
    out
}

fn path_str(path: &std::path::Path) -> String {
    // `/`-separated regardless of host, so reports diff cleanly.
    path.iter().filter_map(|c| c.to_str()).collect::<Vec<_>>().join("/")
}

/// FNV-1a 64 over `rule | path | msg-with-digit-runs-stripped | ordinal`.
fn fingerprint(rule: &str, path: &str, msg: &str, ordinal: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(rule.as_bytes());
    eat(b"|");
    eat(path.as_bytes());
    eat(b"|");
    let mut prev_digit = false;
    for b in msg.bytes() {
        if b.is_ascii_digit() {
            if !prev_digit {
                eat(b"#");
            }
            prev_digit = true;
        } else {
            prev_digit = false;
            eat(&[b]);
        }
    }
    eat(b"|");
    eat(&ordinal.to_le_bytes());
    h
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (objects, arrays, strings, non-negative integers,
// bool, null) — just enough to read reports back, erroring on anything
// malformed instead of panicking.

#[derive(Debug, Clone, PartialEq)]
enum Value {
    Object(Vec<(String, Value)>),
    Array(Vec<Value>),
    Str(String),
    Num(u64),
    Bool(bool),
    Null,
}

impl Value {
    fn as_object(&self) -> Option<&Object> {
        match self {
            Value::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// An object's key/value pair list, preserving insertion order.
type Object = Vec<(String, Value)>;

/// First value for `key` in an object.
trait ObjectGet {
    fn field(&self, key: &str) -> Option<&Value>;
}

impl ObjectGet for Object {
    fn field(&self, key: &str) -> Option<&Value> {
        self.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

fn parse_json(src: &str) -> Result<Value, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return Err(format!("object key at byte {pos} is not a string")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                let val = parse_value(b, pos)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(pairs));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(c) if c.is_ascii_digit() => {
            let start = *pos;
            while *pos < b.len() && b[*pos].is_ascii_digit() {
                *pos += 1;
            }
            let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
            s.parse::<u64>().map(Value::Num).map_err(|e| format!("bad number at {start}: {e}"))
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Value::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Value::Bool(false))
        }
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Value::Null)
        }
        _ => Err(format!("unexpected byte at {pos}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))?;
                        *pos += 4;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                    }
                    _ => return Err(format!("unknown escape `\\{}`", esc as char)),
                }
            }
            _ => {
                // Re-walk UTF-8 from the byte position: find the char
                // boundary span.
                let start = *pos - 1;
                let width = utf8_width(c);
                let end = start + width;
                let s = b
                    .get(start..end)
                    .and_then(|sl| std::str::from_utf8(sl).ok())
                    .ok_or("invalid utf-8 in string")?;
                out.push_str(s);
                *pos = end;
            }
        }
    }
    Err("unterminated string".to_string())
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
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
    use std::path::PathBuf;

    fn sample() -> Report {
        Report::from_diagnostics(&[
            FileDiagnostics {
                path: PathBuf::from("crates/core/src/ekf.rs"),
                diagnostics: vec![
                    crate::Diagnostic {
                        rule: RULE_NO_PANIC,
                        line: 12,
                        msg: "`.unwrap()` on line 12 \"quoted\"".to_string(),
                    },
                    crate::Diagnostic {
                        rule: RULE_NO_PANIC,
                        line: 40,
                        msg: "`.unwrap()` on line 40 \"quoted\"".to_string(),
                    },
                ],
            },
            FileDiagnostics {
                path: PathBuf::from("crates/geo/src/road.rs"),
                diagnostics: vec![crate::Diagnostic {
                    rule: RULE_UNUSED_PUB,
                    line: 3,
                    msg: "pub fn `lonely` referenced nowhere else".to_string(),
                }],
            },
        ])
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let report = sample();
        let parsed = Report::from_json(&report.to_json()).expect("round trip");
        assert_eq!(parsed.findings, report.findings);
        assert_eq!(report.findings.len(), 3);
    }

    #[test]
    fn fingerprints_ignore_line_numbers_but_split_repeats() {
        let r = sample();
        // Same rule+path+digit-stripped msg: ordinals make them unique.
        assert_ne!(r.findings[0].fingerprint, r.findings[1].fingerprint);
        assert_eq!(fingerprint("r", "p", "line 12", 0), fingerprint("r", "p", "line 999", 0));
        assert_ne!(fingerprint("r", "p", "m", 0), fingerprint("r", "q", "m", 0));
    }

    #[test]
    fn diff_classifies_new_unchanged_fixed() {
        let baseline = sample();
        let mut current = sample();
        // Drop one baseline finding (fixed), add one new.
        current.findings.remove(0);
        current.findings.push(Finding {
            rule: "no-panic".to_string(),
            path: "crates/core/src/track.rs".to_string(),
            line: 7,
            msg: "`panic!`".to_string(),
            fingerprint: fingerprint("no-panic", "crates/core/src/track.rs", "`panic!`", 0),
        });
        let d = diff(&baseline, &current);
        assert_eq!(d.new.len(), 1);
        assert_eq!(d.unchanged.len(), 2);
        assert_eq!(d.fixed, 1);
        assert_eq!(d.new[0].path, "crates/core/src/track.rs");
    }

    #[test]
    fn malformed_reports_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"$schema\": \"other/v9\", \"results\": []}",
            "{\"results\": []}",
            "{\"$schema\": \"gradestLint/v2\", \"results\": [{}]}",
            "{\"$schema\": \"gradestLint/v2\", \"results\": 3}",
            // A v1 report: the schema bump rejects it.
            "{\"$schema\": \"gradestLint/v1\", \"results\": []}",
        ] {
            assert!(Report::from_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn empty_report_round_trips() {
        let r = Report::default();
        let parsed = Report::from_json(&r.to_json()).expect("empty round trip");
        assert!(parsed.findings.is_empty());
        let d = diff(&parsed, &r);
        assert!(d.new.is_empty() && d.unchanged.is_empty() && d.fixed == 0);
    }
}
