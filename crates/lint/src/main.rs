//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p gradest-lint                   # interprocedural scan, exit 1 on findings
//! cargo run -p gradest-lint -- <root>         # scan an explicit root
//! cargo run -p gradest-lint -- --report LINT_REPORT.json
//! cargo run -p gradest-lint -- --inject-violation            # gate self-test
//! ```
//!
//! The verdict is the finding count of one `gradest_lint::analyze` run;
//! the `--report` JSON is written for people and never read back.

use gradest_lint::report::Report;
use gradest_lint::rules::{RULE_TRANSITIVE_ALLOC, RULE_TRANSITIVE_PANIC, RULE_UNUSED_PUB};
use gradest_lint::AnalyzeOptions;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!(
            "gradest-lint: workspace invariant checker (see DESIGN.md §8, §13)\n\n\
             USAGE: gradest-lint [ROOT] [OPTIONS]\n\n\
             Scans crates/*/src and src/ under ROOT (default: the workspace root)\n\
             with the local token rules plus the interprocedural call-graph pass\n\
             (transitive no-alloc/no-panic taint, ambiguous-call audit, warm-path\n\
             drift check, unused-pub audit). Every finding is an error; suppress\n\
             one with `// lint:allow(<rule>) reason` on or above the offending\n\
             line. Stale allows are themselves errors.\n\n\
             OPTIONS:\n\
               --report <path>      also write the findings as a JSON report\n\
               --inject-violation   self-test: seed a cross-module warm-path\n\
                                    allocation + panic and an uncalled method\n\
                                    named like a field, and verify the gate\n\
                                    reports the first two with multi-hop call\n\
                                    chains and the method as unused-pub\n\n\
             Exit status: 0 clean, 1 findings (or self-test failure), 2\n\
             usage or report-write error."
        );
        return;
    }

    let mut root: Option<PathBuf> = None;
    let mut report_path: Option<PathBuf> = None;
    let mut inject = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--report" => {
                let Some(val) = it.next() else {
                    eprintln!("gradest-lint: --report requires a path argument");
                    std::process::exit(2);
                };
                report_path = Some(PathBuf::from(val));
            }
            "--inject-violation" => inject = true,
            a if a.starts_with('-') => {
                eprintln!("gradest-lint: unknown option `{a}` (see --help)");
                std::process::exit(2);
            }
            a => root = Some(PathBuf::from(a)),
        }
    }
    // The crate lives at <root>/crates/lint, so the default workspace
    // root is two levels up from the manifest.
    let root = root.unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));

    if inject {
        return self_test(&root);
    }

    let findings = gradest_lint::analyze(&root, &AnalyzeOptions::default());
    let report = Report::from_diagnostics(&findings);

    for f in &report.findings {
        println!("{}:{}: [{}] {}", f.path, f.line, f.rule, f.msg);
    }

    if let Some(path) = &report_path {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("gradest-lint: cannot write report {}: {e}", path.display());
            std::process::exit(2);
        }
        println!("gradest-lint: report written to {}", path.display());
    }

    let errors = report.findings.len();
    if errors > 0 {
        eprintln!("gradest-lint: {errors} error(s)");
        std::process::exit(1);
    }
    println!("gradest-lint: clean");
}

/// `--inject-violation`: proves the interprocedural gate and the
/// unused-pub audit actually fire. Seeds a virtual warm entry in `core`
/// calling a virtual `geo` helper that both allocates and unwraps, and
/// an uncalled `geo` method named like a field of a `core` struct, then
/// requires a transitive-alloc AND a transitive-panic finding, each with
/// a multi-hop call chain, AND an unused-pub finding on the method.
fn self_test(root: &Path) {
    let mut opts = AnalyzeOptions {
        // Virtual files only — nothing written to the working tree. The
        // audit reads them too, so the field counts if the audit
        // mistakes it for a call of the method.
        extra_sources: vec![
            (
                PathBuf::from("crates/core/src/__lint_selftest.rs"),
                "pub struct SeededConfig {\n    pub seeded_window: usize,\n}\n\
                 pub fn seeded_estimate_into(out: &mut [f64]) {\n    \
                 gradest_geo::__lint_selftest_helper::seeded_leaf(out);\n}\n"
                    .to_string(),
            ),
            (
                PathBuf::from("crates/geo/src/__lint_selftest_helper.rs"),
                "pub fn seeded_leaf(out: &mut [f64]) {\n    \
                 let v: Vec<f64> = vec![1.0];\n    \
                 out[0] = *v.first().unwrap();\n}\n\
                 pub struct SeededProbe;\n\
                 impl SeededProbe {\n    \
                 pub fn seeded_window(&self) -> usize {\n        0\n    }\n}\n"
                    .to_string(),
            ),
        ],
        ..AnalyzeOptions::default()
    };
    opts.hot_modules.push("core::__lint_selftest".to_string());
    opts.warm_modules.push("core::__lint_selftest".to_string());

    let findings = gradest_lint::analyze(root, &opts);
    let seeded: Vec<&gradest_lint::Diagnostic> = findings
        .iter()
        .filter(|f| f.path.to_string_lossy().contains("__lint_selftest_helper"))
        .flat_map(|f| f.diagnostics.iter())
        .collect();
    let chained_alloc =
        seeded.iter().any(|d| d.rule == RULE_TRANSITIVE_ALLOC && d.msg.contains("->"));
    let chained_panic =
        seeded.iter().any(|d| d.rule == RULE_TRANSITIVE_PANIC && d.msg.contains("->"));
    let unused_method =
        seeded.iter().any(|d| d.rule == RULE_UNUSED_PUB && d.msg.contains("fn `seeded_window`"));
    if chained_alloc && chained_panic && unused_method {
        println!(
            "gradest-lint: self-test OK — seeded cross-module allocation and panic both \
             reported with call chains, and the uncalled method named like a field flagged \
             ({} finding(s) on the seeded helper)",
            seeded.len()
        );
        return;
    }
    for d in &seeded {
        eprintln!("self-test saw: [{}] {}", d.rule, d.msg);
    }
    eprintln!(
        "gradest-lint: SELF-TEST FAILED — transitive-alloc chained: {chained_alloc}, \
         transitive-panic chained: {chained_panic}, unused method flagged: {unused_method}"
    );
    std::process::exit(1);
}
