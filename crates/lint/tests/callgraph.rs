//! Trybuild-style fixture suite for the interprocedural pass: each
//! case under `tests/fixtures/graph/<case>/` is a miniature workspace
//! (`crates/*/src/*.rs`) run through the full [`gradest_lint::analyze`]
//! pipeline, so resolution, taint, suppression, and reporting are
//! exercised end-to-end exactly as the CLI runs them.
//!
//! The final tests pin the real repository: the workspace must analyze
//! clean, and the warm-path drift check must actually engage (find the
//! entry points, derive a non-trivial module set) rather than silently
//! skipping.

use gradest_lint::rules::{
    RULE_ALLOWLIST, RULE_AMBIGUOUS_CALL, RULE_TRANSITIVE_ALLOC, RULE_TRANSITIVE_PANIC,
    RULE_UNUSED_PUB, RULE_WARM_PATH_DRIFT,
};
use gradest_lint::{analyze, AnalyzeOptions, FileDiagnostics};
use std::path::{Path, PathBuf};

fn case_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/graph").join(name)
}

/// Runs a fixture case with defaults minus the unused-`pub` audit,
/// which the taint cases do not exercise (their fns have no callers
/// outside the case). The drift check always runs: the cases' warm
/// entry points reach only gated modules, so it must stay quiet.
fn run_case(name: &str) -> Vec<FileDiagnostics> {
    let opts = AnalyzeOptions { unused_pub: false, ..AnalyzeOptions::default() };
    analyze(&case_root(name), &opts)
}

fn flat(findings: &[FileDiagnostics]) -> Vec<(String, &'static str, String)> {
    findings
        .iter()
        .flat_map(|f| {
            let p = f.path.to_string_lossy().into_owned();
            f.diagnostics.iter().map(move |d| (p.clone(), d.rule, d.msg.clone()))
        })
        .collect()
}

#[test]
fn cross_module_alloc_reports_leaf_with_chain() {
    let all = flat(&run_case("cross_alloc"));
    let allocs: Vec<_> = all.iter().filter(|(_, r, _)| *r == RULE_TRANSITIVE_ALLOC).collect();
    assert_eq!(allocs.len(), 1, "{all:?}");
    let (path, _, msg) = allocs[0];
    assert_eq!(path, "crates/geo/src/helper.rs");
    assert!(msg.contains("core::pipeline::estimate_into"), "{msg}");
    assert!(msg.contains("geo::helper::refill_scratchless"), "{msg}");
    assert!(msg.contains(" -> "), "chain arrow missing: {msg}");
    // Nothing else fires: the caller is locally clean.
    assert_eq!(all.len(), 1, "{all:?}");
}

#[test]
fn panic_two_hops_deep_reports_every_link() {
    let all = flat(&run_case("panic_two_hops"));
    let panics: Vec<_> = all.iter().filter(|(_, r, _)| *r == RULE_TRANSITIVE_PANIC).collect();
    assert_eq!(panics.len(), 1, "{all:?}");
    let (path, _, msg) = panics[0];
    assert_eq!(path, "crates/math/src/deep.rs");
    for link in ["core::ekf::predict", "math::stage::mid_step", "math::deep::finish"] {
        assert!(msg.contains(link), "missing {link}: {msg}");
    }
}

#[test]
fn ambiguous_call_is_diagnosed_and_taint_is_conservative() {
    let all = flat(&run_case("ambiguous"));
    let amb: Vec<_> = all.iter().filter(|(_, r, _)| *r == RULE_AMBIGUOUS_CALL).collect();
    assert_eq!(amb.len(), 1, "{all:?}");
    assert_eq!(amb[0].0, "crates/core/src/pipeline.rs");
    assert!(amb[0].2.contains("`refill`"), "{}", amb[0].2);
    assert!(amb[0].2.contains("2 definitions"), "{}", amb[0].2);
    // The conservative union still reports the allocating candidate,
    // marked as crossing an ambiguous edge.
    let allocs: Vec<_> = all.iter().filter(|(_, r, _)| *r == RULE_TRANSITIVE_ALLOC).collect();
    assert_eq!(allocs.len(), 1, "{all:?}");
    assert!(allocs[0].2.contains("ambiguous"), "{}", allocs[0].2);
}

#[test]
fn dead_transitive_suppression_is_an_error() {
    let all = flat(&run_case("dead_suppression"));
    let stale: Vec<_> = all.iter().filter(|(_, r, _)| *r == RULE_ALLOWLIST).collect();
    assert_eq!(stale.len(), 1, "{all:?}");
    assert!(stale[0].2.contains("stale"), "{}", stale[0].2);
    assert!(stale[0].2.contains("transitive-alloc"), "{}", stale[0].2);
}

#[test]
fn justified_leaf_suppression_silences_the_chain() {
    let all = flat(&run_case("suppressed"));
    assert!(all.is_empty(), "allow at the leaf must suppress cleanly: {all:?}");
}

#[test]
fn warm_path_drift_fires_on_ungated_derived_module() {
    // The entry point in core::pipeline reaches a warm-shaped helper in
    // math::lowess; gating only core::pipeline must flag math::lowess,
    // on the helper's own line.
    let opts = AnalyzeOptions {
        unused_pub: false,
        warm_modules: vec!["core::pipeline".to_string()],
        ..AnalyzeOptions::default()
    };
    let findings = analyze(&case_root("drift"), &opts);
    let all = flat(&findings);
    let drift: Vec<_> = all.iter().filter(|(_, r, _)| *r == RULE_WARM_PATH_DRIFT).collect();
    assert_eq!(drift.len(), 1, "{all:?}");
    let (path, _, msg) = drift[0];
    assert_eq!(path, "crates/math/src/lowess.rs");
    assert!(msg.contains("`math::lowess`") && msg.contains("does not gate"), "{msg}");
    let line = findings
        .iter()
        .flat_map(|f| &f.diagnostics)
        .find(|d| d.rule == RULE_WARM_PATH_DRIFT)
        .map(|d| d.line);
    assert_eq!(line, Some(2), "finding sits on `smooth_into`");

    // Gating both derived modules silences it.
    let opts = AnalyzeOptions {
        unused_pub: false,
        warm_modules: vec!["core::pipeline".to_string(), "math::lowess".to_string()],
        ..AnalyzeOptions::default()
    };
    let all = flat(&analyze(&case_root("drift"), &opts));
    assert!(all.iter().all(|(_, r, _)| *r != RULE_WARM_PATH_DRIFT), "{all:?}");
}

#[test]
fn unused_pub_audit_sees_through_reexports_and_into_declarations() {
    let findings = analyze(&case_root("unused_pub"), &AnalyzeOptions::default());
    let all = flat(&findings);
    let has = |path: &str, rule: &str, needle: &str| {
        all.iter().any(|(p, r, m)| p == path && *r == rule && m.contains(needle))
    };
    // A module item that only a `pub use` names is flagged.
    assert!(has("crates/gears/src/shift.rs", RULE_UNUSED_PUB, "`Gearbox`"), "{all:?}");
    // A pub fn that only its own unit test calls is flagged.
    assert!(has("crates/gears/src/report.rs", RULE_UNUSED_PUB, "`only_tested`"), "{all:?}");
    // A stale `lint:allow(unused-pub)` is an error.
    assert!(has("crates/gears/src/report.rs", RULE_ALLOWLIST, "stale"), "{all:?}");
    // A name counts only in the role its item can be used in: a method
    // named like a field or a local, a free fn named like a method or a
    // parameter, and an associated const named like another type's.
    for (path, item) in [
        ("crates/gears/src/shift.rs", "fn `counts`"),
        ("crates/gears/src/shift.rs", "fn `gears`"),
        ("crates/gears/src/shift.rs", "const `ALL`"),
        ("crates/gears/src/report.rs", "fn `lerp`"),
        ("crates/gears/src/report.rs", "fn `teeth`"),
    ] {
        assert!(has(path, RULE_UNUSED_PUB, item), "{item} not flagged: {all:?}");
    }
    // Nothing else: the type a used fn returns, the type its pub field
    // names, the justified allow, and the items used as `T::f(..)`,
    // `.f(..)`, `.f::<U>(..)`, `.map(T::f)`, `T::CONST` and `use path::f`
    // then `f(..)` stay silent.
    assert_eq!(all.len(), 8, "{all:?}");
}

/// Transitive findings rendered order-insensitively: the graph's file
/// order is canonical after `Graph::build`, so keying by path makes the
/// comparison robust even if that ever changes.
fn taint_signature(sources: Vec<(PathBuf, String)>) -> Vec<(String, u32, &'static str, String)> {
    let graph = gradest_lint::graph::Graph::build(sources);
    let opts = AnalyzeOptions::default();
    gradest_lint::taint::transitive_findings(&graph, &opts.hot_modules, &opts.warm_modules)
        .into_iter()
        .flat_map(|(file, diags)| {
            let path = graph.files[file].path.to_string_lossy().into_owned();
            diags.into_iter().map(move |d| (path.clone(), d.line, d.rule, d.msg))
        })
        .collect()
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]

    /// File-discovery order must not affect the taint verdicts: the
    /// real workspace's sources are shuffled by a seeded Fisher-Yates
    /// and must produce byte-identical findings to the canonical run.
    #[test]
    fn transitive_findings_are_discovery_order_independent(seed in 0u64..u64::MAX) {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let (sources, _) = gradest_lint::workspace_sources(&root);
        let canonical = taint_signature(sources.clone());

        let mut shuffled = sources;
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            // xorshift64* keeps the shim dependency-free of rand.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = (state % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        proptest::prop_assert_eq!(&taint_signature(shuffled), &canonical);
    }
}

#[test]
fn real_workspace_is_clean_and_drift_check_engages() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let errors = flat(&analyze(&root, &AnalyzeOptions::default()));
    assert!(errors.is_empty(), "workspace must stay lint-clean: {errors:#?}");

    // The drift check must be live, not silently skipped: the entry
    // points resolve, and the derivation covers a meaningful slice of
    // the gated list — every derived module inside it.
    let (sources, unreadable) = gradest_lint::workspace_sources(&root);
    assert!(unreadable.is_empty());
    let graph = gradest_lint::graph::Graph::build(sources);
    let mut entries = Vec::new();
    for (module, name) in gradest_lint::WARM_ENTRY_FNS {
        entries.extend(graph.fns_in_module_named(module, name));
    }
    assert!(!entries.is_empty(), "warm entry points must exist");
    let derived: std::collections::BTreeSet<String> = graph
        .reach(&entries)
        .keys()
        .filter(|&&f| graph.fns[f].warm_shape)
        .map(|&f| graph.files[graph.fns[f].file].module.clone())
        .filter(|m| m.split("::").count() == 2)
        .collect();
    assert!(derived.len() >= 3, "derivation should reach several warm modules, got {derived:?}");
    let gated = AnalyzeOptions::default().warm_modules;
    for m in &derived {
        assert!(gated.contains(m), "derived {m} missing from the gated list");
    }
    // Removing any derived module from the gated list must surface as
    // drift on the real workspace, not only on fixtures.
    let first = derived.iter().next().expect("nonempty").clone();
    let ungated: Vec<String> = gated.into_iter().filter(|m| *m != first).collect();
    let drift = gradest_lint::warm_drift_findings(&graph, &ungated);
    assert_eq!(drift.len(), 1, "{drift:?}");
    assert!(drift[0].1.msg.contains(&format!("`{first}`")), "{}", drift[0].1.msg);
}
