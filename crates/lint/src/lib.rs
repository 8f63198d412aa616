//! # gradest-lint
//!
//! Workspace invariant checker for the gradest crates. Every finding is
//! an error, and the in-source allowlist (`// lint:allow(<rule>)
//! reason`) is itself audited. The rule families:
//!
//! * **no-panic / hot-index** — no `unwrap`/`expect`/`panic!`-family
//!   macros and no computed index expressions in the modules reachable
//!   from `GradientEstimator::estimate_into` and the fleet workers
//!   ([`HOT_PATH_MODULES`]).
//! * **no-alloc-into** — functions named `*_into` or taking
//!   `&mut EstimatorScratch` may not allocate
//!   ([`WARM_ALLOC_GATED_MODULES`]).
//! * **float-div / total-cmp** — no float literal divided by an
//!   unguarded symbol in hot modules; no `partial_cmp(..).unwrap()`
//!   anywhere (use `total_cmp`).
//! * **sync-comment** — every atomic `Ordering::*` use and every
//!   `Mutex`/`RwLock`/atomic declaration carries a `// sync:`
//!   invariant comment.
//! * **unused-pub** — every `pub` item of an internal crate has a
//!   caller outside its own file ([`graph::Graph::unused_pub_items`]).
//!
//! [`WARM_ALLOC_GATED_MODULES`] is the one list of warm modules; every
//! [`analyze`] run checks the call-graph-derived warm modules against
//! it ([`warm_drift_findings`]).
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

/// Modules reachable from `GradientEstimator::estimate_into` and the
/// fleet workers: the no-panic, hot-index, and float-div rules apply
/// here. `<crate>::<module>` maps to `crates/<crate>/src/<module>.rs`.
pub const HOT_PATH_MODULES: &[&str] = &[
    "core::pipeline",
    "core::ekf",
    "core::ekf_lanes",
    "core::fusion",
    "core::lane_change",
    "core::steering",
    "core::smoother",
    "core::track",
    "core::fleet",
    "geo::index",
    "geo::tile",
    "math::lowess",
    "math::interp",
    "math::signal",
    "obs::metrics",
    "obs::quality",
    "obs::recorder",
    "obs::run",
    "obs::slo",
    "obs::timeseries",
    "obs::trace",
    "sensors::alignment",
    "sensors::columnar",
    "serve::drain",
    "serve::protocol",
    "serve::server",
];

/// Modules under the zero-allocation `_into` discipline (the warm
/// per-trip path). [`HOT_PATH_MODULES`] minus `core::fleet`,
/// `obs::run`, `obs::quality`, and `obs::slo`: the fleet engine
/// allocates per batch (worker handles, result buffers) by design and its
/// per-trip work happens inside these modules; `obs::run` allocates
/// only when *building* a `RunReport` after the measured work;
/// `obs::quality` / `obs::slo` allocate when building reports off the
/// record path (the per-frame tick itself is allocation-free). The
/// time-series ring's record path (`obs::timeseries`) IS on the warm
/// path via `TimeSeriesRecorder`, so it stays gated.
pub const WARM_ALLOC_GATED_MODULES: &[&str] = &[
    "core::pipeline",
    "core::ekf",
    "core::ekf_lanes",
    "core::fusion",
    "core::lane_change",
    "core::steering",
    "core::smoother",
    "core::track",
    "geo::index",
    "math::lowess",
    "math::interp",
    "math::signal",
    "obs::metrics",
    "obs::recorder",
    "obs::timeseries",
    "obs::trace",
    "sensors::alignment",
    "sensors::columnar",
    "serve::protocol",
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
    /// Hot-path module list (no-panic taint roots). Defaults to
    /// [`HOT_PATH_MODULES`]; fixtures and the `--inject-violation`
    /// self-test extend it.
    pub hot_modules: Vec<String>,
    /// Warm alloc-gated module list (no-alloc taint roots). Defaults to
    /// [`WARM_ALLOC_GATED_MODULES`].
    pub warm_modules: Vec<String>,
    /// Run the unused-`pub` audit. Off only for fixtures that exercise
    /// other rules and for the `--inject-violation` self-test.
    pub unused_pub: bool,
    /// Virtual `(path, source)` files appended to the scanned set —
    /// the `--inject-violation` self-test seeds a cross-module
    /// violation this way without touching the working tree.
    pub extra_sources: Vec<(PathBuf, String)>,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            hot_modules: HOT_PATH_MODULES.iter().map(|s| s.to_string()).collect(),
            warm_modules: WARM_ALLOC_GATED_MODULES.iter().map(|s| s.to_string()).collect(),
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
        for (item, msg) in graph.unused_pub_items(&ident_corpus(root)) {
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
                     reachable from the warm entry points) but WARM_ALLOC_GATED_MODULES does \
                     not gate it"
                ),
            };
            (graph.files[file].path.clone(), diag)
        })
        .collect()
}

/// Identifier corpus over the whole repo (tests, benches, examples
/// and `e2ebench/` included — a test-only consumer still counts as a
/// use) for the unused-`pub` audit. Skips vendored shims, lint
/// fixtures and build output, and the names inside `pub use`
/// re-exports: re-exporting an item does not use it.
fn ident_corpus(
    root: &Path,
) -> std::collections::BTreeMap<PathBuf, std::collections::BTreeSet<String>> {
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
    let mut corpus = std::collections::BTreeMap::new();
    for file in files {
        let Ok(src) = std::fs::read_to_string(&file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let toks = lexer::lex(&src).tokens;
        let mut idents = std::collections::BTreeSet::new();
        let mut in_pub_use = false;
        for (i, t) in toks.iter().enumerate() {
            let is_ident = t.kind == lexer::TokKind::Ident;
            if is_ident && t.text == "pub" && toks.get(i + 1).is_some_and(|n| n.text == "use") {
                in_pub_use = true;
            } else if in_pub_use && t.text == ";" {
                in_pub_use = false;
            } else if !in_pub_use && is_ident {
                idents.insert(t.text.clone());
            }
        }
        corpus.insert(rel, idents);
    }
    corpus
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
    fn warm_modules_are_hot_minus_batch_layers() {
        for m in WARM_ALLOC_GATED_MODULES {
            assert!(HOT_PATH_MODULES.contains(m), "{m} warm but not hot");
        }
        // Hot modules outside the warm no-alloc gate: the
        // batch-allocating fleet engine, the report-building side of
        // obs (run summaries, drift monitors, SLO tables — their
        // record/tick paths are alloc-free but report construction is
        // not), tile serialization (grows the caller's byte buffer),
        // and the service's connection/drain layers (allocate at
        // accept/shutdown, never per frame — serve::protocol is the
        // per-frame piece and IS warm-gated).
        let hot_only: Vec<&&str> =
            HOT_PATH_MODULES.iter().filter(|m| !WARM_ALLOC_GATED_MODULES.contains(m)).collect();
        assert_eq!(
            hot_only,
            vec![
                &"core::fleet",
                &"geo::tile",
                &"obs::quality",
                &"obs::run",
                &"obs::slo",
                &"serve::drain",
                &"serve::server"
            ]
        );
    }

    #[test]
    fn path_to_module_mapping() {
        assert_eq!(
            module_for_path(Path::new("crates/core/src/pipeline.rs")).as_deref(),
            Some("core::pipeline")
        );
        assert_eq!(module_for_path(Path::new("src/lib.rs")), None);
        assert_eq!(module_for_path(Path::new("crates/bench/src/bin/gradest-experiments.rs")), None);
        let lists = |list: &[&str]| list.iter().map(|m| m.to_string()).collect::<Vec<_>>();
        let (hot, warm) = (lists(HOT_PATH_MODULES), lists(WARM_ALLOC_GATED_MODULES));
        let scope = |p: &str| scope_for_list(Path::new(p), &hot, &warm);
        assert!(scope("crates/math/src/lowess.rs").hot && scope("crates/math/src/lowess.rs").warm);
        let fleet = scope("crates/core/src/fleet.rs");
        assert!(fleet.hot && !fleet.warm);
        let cold = scope("crates/core/src/cloud.rs");
        assert!(!cold.hot && !cold.warm);
    }

    #[test]
    fn every_hot_module_file_exists() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for m in HOT_PATH_MODULES {
            let (krate, module) = m.split_once("::").expect("crate::module");
            let path = root.join(format!("crates/{krate}/src/{module}.rs"));
            assert!(path.is_file(), "hot module list names missing file {}", path.display());
        }
    }
}
