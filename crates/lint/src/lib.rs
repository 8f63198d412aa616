//! # gradest-lint
//!
//! Workspace invariant checker for the gradest crates. Every finding is
//! an error, and the in-source allowlist (`// lint:allow(<rule>)
//! reason`) is itself audited. The rule families:
//!
//! * **no-panic / hot-index** — no `unwrap`/`expect`/`panic!`-family
//!   macros and no computed index expressions in the modules reachable
//!   from `GradientEstimator::estimate_into` and the fleet workers
//!   (every `GATED_MODULES` entry).
//! * **no-alloc-into** — functions named `*_into` or taking
//!   `&mut EstimatorScratch` may not allocate (the entries gated
//!   `NoPanicNoAlloc`).
//! * **float-div / total-cmp** — no float literal divided by an
//!   unguarded symbol in hot modules; no `partial_cmp(..).unwrap()`
//!   anywhere (use `total_cmp`).
//! * **sync-comment** — every atomic `Ordering::*` use and every
//!   `Mutex`/`RwLock`/atomic declaration carries a `// sync:`
//!   invariant comment.
//! * **unused-pub** — every `pub` item of an internal crate has a
//!   caller outside its own file ([`graph::Graph::unused_pub_items`]).
//!
//! `GATED_MODULES` is the one table of gated modules; every
//! [`analyze`] run checks the call-graph-derived warm modules against
//! its alloc-gated entries ([`warm_drift_findings`]).
//!
//! Run it with `cargo run -p gradest-lint`; its verdict is the finding
//! count of one [`analyze`] run. See DESIGN.md §8 and §13.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod taint;

pub use rules::Diagnostic;
use rules::Scope;

use std::path::{Path, PathBuf};

/// The gates on one [`GATED_MODULES`] entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gates {
    /// The no-panic, hot-index and float-div rules.
    NoPanic,
    /// Those rules plus the zero-allocation `_into` discipline of the
    /// warm per-trip path.
    NoPanicNoAlloc,
}

use Gates::{NoPanic, NoPanicNoAlloc};

/// Modules reachable from `GradientEstimator::estimate_into` and the
/// fleet workers, each named once with its gates. `<crate>::<module>`
/// maps to `crates/<crate>/src/<module>.rs`. A `NoPanic`-only module
/// allocates off the per-trip path, for the reason beside it. The
/// time-series ring's record path (`obs::timeseries`) is on the warm
/// path through `TimeSeriesRecorder`, so it is alloc-gated.
const GATED_MODULES: &[(&str, Gates)] = &[
    ("core::pipeline", NoPanicNoAlloc),
    ("core::ekf", NoPanicNoAlloc),
    ("core::ekf_lanes", NoPanicNoAlloc),
    ("core::fusion", NoPanicNoAlloc),
    ("core::lane_change", NoPanicNoAlloc),
    ("core::steering", NoPanicNoAlloc),
    ("core::smoother", NoPanicNoAlloc),
    ("core::track", NoPanicNoAlloc),
    // Allocates per batch (worker handles, result buffers) by design;
    // its per-trip work happens inside the alloc-gated modules.
    ("core::fleet", NoPanic),
    ("geo::index", NoPanicNoAlloc),
    // Tile serialization grows the caller's byte buffer.
    ("geo::tile", NoPanic),
    ("math::lowess", NoPanicNoAlloc),
    ("math::interp", NoPanicNoAlloc),
    ("math::signal", NoPanicNoAlloc),
    ("obs::metrics", NoPanicNoAlloc),
    // Allocates when building drift reports off the record path; the
    // per-frame tick is allocation-free.
    ("obs::quality", NoPanic),
    ("obs::recorder", NoPanicNoAlloc),
    // Allocates only when building a `RunReport` after the measured work.
    ("obs::run", NoPanic),
    // Allocates when building SLO tables off the record path; the
    // per-frame tick is allocation-free.
    ("obs::slo", NoPanic),
    ("obs::timeseries", NoPanicNoAlloc),
    ("obs::trace", NoPanicNoAlloc),
    ("sensors::alignment", NoPanicNoAlloc),
    ("sensors::columnar", NoPanicNoAlloc),
    // The connection and drain layers allocate at accept and shutdown,
    // never per frame: `serve::protocol` is the per-frame piece.
    ("serve::drain", NoPanic),
    ("serve::protocol", NoPanicNoAlloc),
    ("serve::server", NoPanic),
];

/// Maps a workspace-relative source path to its `<crate>::<module>`
/// name, or `None` for paths outside `crates/*/src/*.rs`.
fn module_for_path(rel: &Path) -> Option<String> {
    let mut parts = rel.iter().filter_map(|p| p.to_str());
    if parts.next()? != "crates" {
        return None;
    }
    let krate = parts.next()?;
    if parts.next()? != "src" {
        return None;
    }
    let file = parts.next()?;
    if parts.next().is_some() {
        return None; // nested (bin/, submodule dirs): never a hot module
    }
    let module = file.strip_suffix(".rs")?;
    Some(format!("{krate}::{module}"))
}

/// Findings for one file.
#[derive(Debug)]
pub struct FileDiagnostics {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// All findings in the file, sorted by line.
    pub diagnostics: Vec<Diagnostic>,
}

/// Directory names never scanned: vendored shims, test/bench/example
/// targets (panics and allocations are fine there), and build output.
const SKIP_DIRS: &[&str] = &["shims", "tests", "benches", "examples", "fixtures", "target", ".git"];

/// Options for the full interprocedural [`analyze`] pass.
pub struct AnalyzeOptions {
    /// Hot-path module list (no-panic taint roots). Defaults to every
    /// `GATED_MODULES` entry; fixtures and the `--inject-violation`
    /// self-test extend it.
    pub hot_modules: Vec<String>,
    /// Warm alloc-gated module list (no-alloc taint roots). Defaults to
    /// the `GATED_MODULES` entries gated `NoPanicNoAlloc`.
    pub warm_modules: Vec<String>,
    /// Run the unused-`pub` audit. Off only for fixtures that exercise
    /// other rules.
    pub unused_pub: bool,
    /// Virtual `(path, source)` files appended to the scanned set and
    /// to the unused-`pub` audit's corpus — the `--inject-violation`
    /// self-test seeds its violations this way without touching the
    /// working tree.
    pub extra_sources: Vec<(PathBuf, String)>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            hot_modules: GATED_MODULES.iter().map(|(m, _)| m.to_string()).collect(),
            warm_modules: GATED_MODULES
                .iter()
                .filter(|(_, gates)| *gates == NoPanicNoAlloc)
                .map(|(m, _)| m.to_string())
                .collect(),
            unused_pub: true,
            extra_sources: Vec::new(),
        }
    }
}

/// Entry points whose reachability defines the warm per-trip surface
/// for the drift check: `(module, fn name)`.
pub const WARM_ENTRY_FNS: &[(&str, &str)] = &[
    ("core::pipeline", "estimate_into"),
    ("core::pipeline", "estimate_into_recorded"),
    ("serve::protocol", "decode_upload_into"),
];

/// The full interprocedural pass: local token rules, call-graph taint
/// and the unused-`pub` audit, allowlist applied once over the merged
/// findings (so `lint:allow(transitive-*)` and `lint:allow(unused-pub)`
/// work and dead suppressions of any rule are errors), then the
/// warm-path drift check ([`warm_drift_findings`], a no-op when the
/// warm entry points are absent).
pub fn analyze(root: &Path, opts: &AnalyzeOptions) -> Vec<FileDiagnostics> {
    let (mut sources, unreadable) = workspace_sources(root);
    sources.extend(opts.extra_sources.iter().cloned());

    let graph = graph::Graph::build(sources);
    let mut by_file = taint::transitive_findings(&graph, &opts.hot_modules, &opts.warm_modules);
    if opts.unused_pub {
        for (item, msg) in graph.unused_pub_items(&use_corpus(root, &opts.extra_sources)) {
            let diag = Diagnostic { rule: rules::RULE_UNUSED_PUB, line: item.line, msg };
            by_file.entry(item.file).or_default().push(diag);
        }
    }

    let mut out = unreadable;
    for (fi, file) in graph.files.iter().enumerate() {
        let scope = scope_for_list(&file.path, &opts.hot_modules, &opts.warm_modules);
        let mut raw = rules::raw_findings(&file.lexed, scope);
        raw.extend(by_file.remove(&fi).unwrap_or_default());
        raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        let diagnostics = rules::apply_allowlist(&file.lexed, raw);
        if !diagnostics.is_empty() {
            out.push(FileDiagnostics { path: file.path.clone(), diagnostics });
        }
    }

    for (path, diag) in warm_drift_findings(&graph, &opts.warm_modules) {
        match out.iter_mut().find(|f| f.path == path) {
            Some(f) => f.diagnostics.push(diag),
            None => out.push(FileDiagnostics { path, diagnostics: vec![diag] }),
        }
    }

    for f in &mut out {
        f.diagnostics.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// Reads every first-party source file under `root` (`crates/*/src`
/// and the facade `src/`) as workspace-relative `(path, source)`
/// pairs, plus error diagnostics for unreadable files: the file set
/// [`analyze`] scans.
pub fn workspace_sources(root: &Path) -> (Vec<(PathBuf, String)>, Vec<FileDiagnostics>) {
    let mut files: Vec<PathBuf> = Vec::new();
    collect_rs_files(&root.join("src"), &mut files);
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            collect_rs_files(&entry.path().join("src"), &mut files);
        }
    }
    let mut sources: Vec<(PathBuf, String)> = Vec::new();
    let mut unreadable: Vec<FileDiagnostics> = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        match std::fs::read_to_string(&file) {
            Ok(src) => sources.push((rel, src)),
            Err(e) => unreadable.push(FileDiagnostics {
                path: rel,
                diagnostics: vec![Diagnostic {
                    rule: rules::RULE_ALLOWLIST,
                    line: 0,
                    msg: format!("unreadable source file: {e}"),
                }],
            }),
        }
    }
    (sources, unreadable)
}

/// Scope against explicit module lists (the analyze pass may extend the
/// built-in lists for self-tests and fixtures).
fn scope_for_list(rel: &Path, hot: &[String], warm: &[String]) -> Scope {
    match module_for_path(rel) {
        Some(m) => Scope { hot: hot.contains(&m), warm: warm.contains(&m) },
        None => Scope::default(),
    }
}

/// Warm-path coverage check: derives the modules the warm entry points
/// ([`WARM_ENTRY_FNS`]) reach from the call graph and reports every
/// derived module outside `warm_modules` — derived ⊆ gated. Each
/// finding sits on the first reachable warm-shaped function of the
/// ungated module. Empty when the entry points are absent (fixture
/// roots).
///
/// Only this direction is checked. A module counts as derived only when
/// a *warm-shaped* fn there is reachable, so modules the warm path
/// enters through plain methods (`EkfLanes::predict`) or trait dispatch
/// (the recorders behind the generic `Recorder`) are gated without
/// being derived: the gated list is the authority, and the derivation
/// catches modules missing from it.
pub fn warm_drift_findings(
    graph: &graph::Graph,
    warm_modules: &[String],
) -> Vec<(PathBuf, Diagnostic)> {
    let mut entries: Vec<usize> = Vec::new();
    for (module, name) in WARM_ENTRY_FNS {
        entries.extend(graph.fns_in_module_named(module, name));
    }
    if entries.is_empty() {
        return Vec::new();
    }

    // Derived set: modules containing a warm-shaped function reachable
    // from the entry points. Restricted to warm-shaped fns so batch
    // helpers a warm fn can name (error paths, cold setup) don't drag
    // their modules into the per-trip list. The first such fn (by file
    // position) locates the finding.
    let mut derived: std::collections::BTreeMap<String, (usize, u32)> =
        std::collections::BTreeMap::new();
    for &f in graph.reach(&entries).keys() {
        let func = &graph.fns[f];
        let module = &graph.files[func.file].module;
        if !func.warm_shape || module.split("::").count() != 2 {
            continue;
        }
        let site = (func.file, func.line);
        derived
            .entry(module.clone())
            .and_modify(|first| *first = (*first).min(site))
            .or_insert(site);
    }

    derived
        .into_iter()
        .filter(|(m, _)| !warm_modules.contains(m))
        .map(|(m, (file, line))| {
            let diag = Diagnostic {
                rule: rules::RULE_WARM_PATH_DRIFT,
                line,
                msg: format!(
                    "call graph derives warm module `{m}` (a `_into`/scratch fn here is \
                     reachable from the warm entry points) but GATED_MODULES does not gate \
                     it against allocation"
                ),
            };
            (graph.files[file].path.clone(), diag)
        })
        .collect()
}

/// Use corpus over the whole repo (tests, benches, examples and
/// `e2ebench/` included — a test-only consumer still counts as a use)
/// plus `extra` virtual files, for the unused-`pub` audit. Skips
/// vendored shims, lint fixtures and build output.
fn use_corpus(
    root: &Path,
    extra: &[(PathBuf, String)],
) -> std::collections::BTreeMap<PathBuf, std::collections::BTreeSet<graph::Use>> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !matches!(name.as_ref(), "target" | ".git" | "shims" | "fixtures") {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    let read = files.into_iter().filter_map(|file| {
        let src = std::fs::read_to_string(&file).ok()?;
        Some((file.strip_prefix(root).unwrap_or(&file).to_path_buf(), src))
    });
    read.chain(extra.iter().cloned())
        .map(|(rel, src)| (rel, graph::uses_in(&lexer::lex(&src).tokens)))
        .collect()
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_to_module_mapping() {
        assert_eq!(
            module_for_path(Path::new("crates/core/src/pipeline.rs")).as_deref(),
            Some("core::pipeline")
        );
        assert_eq!(module_for_path(Path::new("src/lib.rs")), None);
        assert_eq!(module_for_path(Path::new("crates/bench/src/bin/gradest-experiments.rs")), None);
        let opts = AnalyzeOptions::default();
        let scope = |p: &str| scope_for_list(Path::new(p), &opts.hot_modules, &opts.warm_modules);
        assert!(scope("crates/math/src/lowess.rs").hot && scope("crates/math/src/lowess.rs").warm);
        let fleet = scope("crates/core/src/fleet.rs");
        assert!(fleet.hot && !fleet.warm);
        let cold = scope("crates/core/src/cloud.rs");
        assert!(!cold.hot && !cold.warm);
    }

    #[test]
    fn every_hot_module_file_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (m, _) in GATED_MODULES {
            let (krate, module) = m.split_once("::").expect("crate::module");
            let path = root.join(format!("crates/{krate}/src/{module}.rs"));
            assert!(path.is_file(), "module table names missing file {}", path.display());
        }
    }
}
