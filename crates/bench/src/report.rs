//! Report rendering: aligned text tables and JSON result dumps.

use serde::Serialize;
use std::path::PathBuf;

/// Prints an aligned text table with a header rule.
///
/// # Panics
///
/// Panics if any row's arity differs from the header's.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "row arity mismatch");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    println!("\n== {title} ==");
    let header_line: Vec<String> =
        headers.iter().zip(&widths).map(|(h, w)| format!("{h:>w$}")).collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}")).collect();
        println!("{}", line.join("  "));
    }
}

/// Directory where experiment JSON results are dumped: the workspace's
/// `target/experiment-results/`, independent of the invoking working
/// directory.
pub fn results_dir() -> PathBuf {
    if let Ok(target) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(target).join("experiment-results");
    }
    // crates/bench/../../target anchors at the workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target").join("experiment-results")
}

/// Serializes an experiment result to
/// `target/experiment-results/<name>.json`. I/O failures are reported to
/// stderr but never abort an experiment run.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(ratio: f64) -> String {
    format!("{:.1}%", ratio * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_ragged_rows() {
        print_table("bad", &["a"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.224), "22.4%");
    }

    #[test]
    fn save_json_roundtrip() {
        #[derive(serde::Serialize)]
        struct S {
            x: u32,
        }
        save_json("unit_test_artifact", &S { x: 7 });
        let path = results_dir().join("unit_test_artifact.json");
        let body = std::fs::read_to_string(path).unwrap();
        assert!(body.contains("\"x\": 7"));
    }
}
