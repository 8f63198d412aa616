//! Fixture suite: every rule family must fire on its "fires" fixture
//! and stay silent on its "allowed" twin — the trybuild-style contract
//! that keeps the linter's behaviour pinned as rules evolve.
//!
//! Fixtures live in `tests/fixtures/*.rs`. They are plain source text,
//! never compiled: the `fixtures` directory is also in the workspace
//! walker's skip list, so the linter's self-run does not scan them.

use gradest_lint::rules::{self, Scope};

fn fixture(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Rules that fired on a fixture, deduplicated in first-seen order.
fn fired(name: &str) -> Vec<&'static str> {
    fired_with(name, Scope::all())
}

fn fired_with(name: &str, scope: Scope) -> Vec<&'static str> {
    let diags = rules::scan_source(&fixture(name), scope);
    let mut rules_seen = Vec::new();
    for d in diags {
        if !rules_seen.contains(&d.rule) {
            rules_seen.push(d.rule);
        }
    }
    rules_seen
}

#[test]
fn no_panic_fires_and_allow_passes() {
    assert_eq!(fired("no_panic_fires.rs"), vec![rules::RULE_NO_PANIC]);
    assert_eq!(fired("no_panic_allowed.rs"), Vec::<&str>::new());
}

#[test]
fn hot_index_fires_and_allow_passes() {
    assert_eq!(fired("hot_index_fires.rs"), vec![rules::RULE_HOT_INDEX]);
    assert_eq!(fired("hot_index_allowed.rs"), Vec::<&str>::new());
}

#[test]
fn hot_index_counts_only_computed_indices() {
    // The "fires" fixture also contains a plain `v[i]` — exactly the
    // two computed-index lines may fire, not three.
    let diags = rules::scan_source(&fixture("hot_index_fires.rs"), Scope::all());
    assert_eq!(diags.len(), 3, "midpoint (1) + neighbours (2): {diags:?}");
}

#[test]
fn no_alloc_into_fires_and_allow_passes() {
    assert_eq!(fired("no_alloc_into_fires.rs"), vec![rules::RULE_NO_ALLOC_INTO]);
    assert_eq!(fired("no_alloc_into_allowed.rs"), Vec::<&str>::new());
}

#[test]
fn float_div_fires_and_guards_pass() {
    assert_eq!(fired("float_div_fires.rs"), vec![rules::RULE_FLOAT_DIV]);
    assert_eq!(fired("float_div_allowed.rs"), Vec::<&str>::new());
}

#[test]
fn total_cmp_fires_and_allow_passes() {
    // total-cmp is workspace-wide; scan with the cold-scope default so
    // the fixture's `unwrap`/`expect` don't also trip the hot-only
    // no-panic rule.
    let cold = Scope::default();
    assert_eq!(fired_with("total_cmp_fires.rs", cold), vec![rules::RULE_TOTAL_CMP]);
    assert_eq!(fired_with("total_cmp_allowed.rs", cold), Vec::<&str>::new());
}

#[test]
fn sync_comment_fires_and_documented_passes() {
    assert_eq!(fired("sync_comment_fires.rs"), vec![rules::RULE_SYNC_COMMENT]);
    assert_eq!(fired("sync_comment_allowed.rs"), Vec::<&str>::new());
}

#[test]
fn malformed_allows_are_diagnosed() {
    let diags = rules::scan_source(&fixture("allowlist_errors.rs"), Scope::all());
    let allowlist: Vec<_> = diags.iter().filter(|d| d.rule == rules::RULE_ALLOWLIST).collect();
    assert_eq!(allowlist.len(), 3, "reasonless + unknown rule + stale: {diags:?}");
    assert!(allowlist.iter().any(|d| d.msg.contains("reason")), "{allowlist:?}");
    assert!(allowlist.iter().any(|d| d.msg.contains("unknown")), "{allowlist:?}");
    assert!(allowlist.iter().any(|d| d.msg.contains("stale")), "{allowlist:?}");
}

#[test]
fn every_rule_family_is_covered_by_a_fixture() {
    // If a new rule is added to ALL_RULES without a fixture pair, this
    // inventory check fails rather than silently shipping an untested
    // rule.
    let covered = [
        rules::RULE_NO_PANIC,
        rules::RULE_HOT_INDEX,
        rules::RULE_NO_ALLOC_INTO,
        rules::RULE_FLOAT_DIV,
        rules::RULE_TOTAL_CMP,
        rules::RULE_SYNC_COMMENT,
        rules::RULE_ALLOWLIST,
        // Interprocedural rules are covered by the mini-workspace
        // fixtures under tests/fixtures/graph/ (see callgraph.rs).
        rules::RULE_TRANSITIVE_ALLOC,
        rules::RULE_TRANSITIVE_PANIC,
        rules::RULE_AMBIGUOUS_CALL,
        rules::RULE_UNUSED_PUB,
    ];
    for rule in rules::ALL_RULES {
        assert!(covered.contains(rule), "rule {rule} has no fixture coverage");
    }
}
