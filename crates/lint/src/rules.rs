//! The four lint rule families plus allowlist accounting, all written
//! against the token stream from [`crate::lexer`].
//!
//! Every rule is an error: a finding fails the gate unless the
//! offending line carries (or is immediately preceded by) an
//! `// lint:allow(<rule>) reason` comment. Allows themselves are
//! audited — an allow without a reason or an allow that suppresses
//! nothing is also an error, so the allowlist cannot rot.

use crate::lexer::{is_float_literal, lex, Lexed, Tok, TokKind};

/// Rule: `unwrap`/`expect`/`panic!`-family in a hot-path module.
pub const RULE_NO_PANIC: &str = "no-panic";
/// Rule: computed index expression (`a[i + 1]`) in a hot-path module.
pub const RULE_HOT_INDEX: &str = "hot-index";
/// Rule: heap allocation inside a `*_into` / scratch-taking function.
pub const RULE_NO_ALLOC_INTO: &str = "no-alloc-into";
/// Rule: float literal divided by an unguarded symbol.
pub const RULE_FLOAT_DIV: &str = "float-div";
/// Rule: `partial_cmp(..).unwrap()/expect()` instead of `total_cmp`.
pub const RULE_TOTAL_CMP: &str = "total-cmp";
/// Rule: atomic `Ordering` use or lock/atomic field without a
/// `// sync:` invariant comment.
pub const RULE_SYNC_COMMENT: &str = "sync-comment";
/// Rule: an allocation in a function transitively reachable from a
/// warm-path root (`*_into` / scratch-taking) via the workspace call
/// graph. The diagnostic carries the full call chain.
pub const RULE_TRANSITIVE_ALLOC: &str = "transitive-alloc";
/// Rule: a panic site (or computed index) in a function transitively
/// reachable from a hot-path module via the workspace call graph.
pub const RULE_TRANSITIVE_PANIC: &str = "transitive-panic";
/// Rule: a call from taint-checked code that name-matches several
/// definitions with *different* taint verdicts — the conservative
/// resolution decided the outcome, so the call needs a disambiguating
/// path qualifier (or an audited allow).
pub const RULE_AMBIGUOUS_CALL: &str = "ambiguous-call";
/// Rule: the call graph derives a warm-path module (a warm-shaped fn
/// reachable from the warm entry points) that the alloc-gated module
/// list does not cover. Not suppressible: fix the list, not the
/// messenger.
pub const RULE_WARM_PATH_DRIFT: &str = "warm-path-drift";
/// Rule: a `pub` item in an internal crate that nothing outside its
/// own file uses (see [`crate::graph::Graph::unused_pub_items`]).
pub const RULE_UNUSED_PUB: &str = "unused-pub";
/// Pseudo-rule for allowlist bookkeeping errors (missing reason,
/// stale allow, unknown rule name).
pub const RULE_ALLOWLIST: &str = "allowlist";

/// All suppressible rule names (everything except [`RULE_ALLOWLIST`]
/// and [`RULE_WARM_PATH_DRIFT`]).
pub const ALL_RULES: &[&str] = &[
    RULE_NO_PANIC,
    RULE_HOT_INDEX,
    RULE_NO_ALLOC_INTO,
    RULE_FLOAT_DIV,
    RULE_TOTAL_CMP,
    RULE_SYNC_COMMENT,
    RULE_TRANSITIVE_ALLOC,
    RULE_TRANSITIVE_PANIC,
    RULE_AMBIGUOUS_CALL,
    RULE_UNUSED_PUB,
];

/// Which rule families apply to a file (derived from the module lists
/// in [`crate`], or set directly by the fixture tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    /// Hot-path module: no-panic, hot-index, and float-div apply.
    pub hot: bool,
    /// Alloc-gated module: no-alloc-into applies.
    pub warm: bool,
}

impl Scope {
    /// Scope with every rule family enabled (used by fixtures).
    pub fn all() -> Self {
        Scope { hot: true, warm: true }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule name (one of the `RULE_*` constants).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// Human-readable description of the finding.
    pub msg: String,
}

/// Scans one file's source, returning every unsuppressed finding plus
/// allowlist bookkeeping errors. `total-cmp` and `sync-comment` always
/// apply; the rest follow `scope`. Code inside
/// `#[cfg(test)]` items is skipped.
pub fn scan_source(src: &str, scope: Scope) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let raw = raw_findings(&lexed, scope);
    apply_allowlist(&lexed, raw)
}

/// The local (single-file) rule findings for one lexed file, *before*
/// allowlist application. The workspace analyzer merges these with the
/// interprocedural findings and applies the allowlist once per file, so
/// a `lint:allow` can suppress either kind and stale allows are audited
/// against the union.
pub fn raw_findings(lexed: &Lexed, scope: Scope) -> Vec<Diagnostic> {
    let toks = &lexed.tokens;
    let excluded = test_excluded_mask(toks);

    let mut raw: Vec<Diagnostic> = Vec::new();
    if scope.hot {
        check_no_panic(toks, &excluded, &mut raw);
        check_hot_index(toks, &excluded, &mut raw);
        check_float_div(toks, &excluded, &mut raw);
    }
    if scope.warm {
        check_no_alloc_into(toks, &excluded, &mut raw);
    }
    check_total_cmp(toks, &excluded, &mut raw);
    check_sync_comment(lexed, &excluded, &mut raw);
    raw
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn text(toks: &[Tok], i: usize) -> &str {
    toks.get(i).map(|t| t.text.as_str()).unwrap_or("")
}

fn is_ident(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i).map(|t| t.kind == TokKind::Ident && t.text == s).unwrap_or(false)
}

/// Index of the delimiter matching the opener at `open` (`(`/`[`/`{`).
/// Returns `toks.len()` if unbalanced.
pub(crate) fn matching(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match text(toks, open) {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        "{" => ("{", "}"),
        _ => return toks.len(),
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
        }
    }
    toks.len()
}

/// Marks token indices inside `#[cfg(test)]`-gated items (the
/// following `mod`/`fn`/item body, brace-matched) so no rule fires on
/// test code.
pub(crate) fn test_excluded_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if text(toks, i) == "#" && text(toks, i + 1) == "[" {
            let close = matching(toks, i + 1);
            let attr: Vec<&str> =
                toks[i + 2..close.min(toks.len())].iter().map(|t| t.text.as_str()).collect();
            if attr.first() == Some(&"cfg") && attr.contains(&"test") {
                // Skip any further attributes, then swallow the item.
                let mut j = close + 1;
                while text(toks, j) == "#" && text(toks, j + 1) == "[" {
                    j = matching(toks, j + 1) + 1;
                }
                // Find the item's body `{` (or terminating `;`),
                // skipping balanced delimiters in the signature.
                while j < toks.len() {
                    match text(toks, j) {
                        "{" => {
                            let end = matching(toks, j);
                            for m in mask.iter_mut().take(end.min(toks.len() - 1) + 1).skip(i) {
                                *m = true;
                            }
                            i = end;
                            break;
                        }
                        ";" => {
                            for m in mask.iter_mut().take(j + 1).skip(i) {
                                *m = true;
                            }
                            i = j;
                            break;
                        }
                        "(" | "[" => j = matching(toks, j) + 1,
                        _ => j += 1,
                    }
                }
            } else {
                i = close;
            }
        }
        i += 1;
    }
    mask
}

/// A function item's name, parameter tokens, and body token range.
pub(crate) struct FnSpan {
    pub(crate) name: String,
    pub(crate) params: (usize, usize),
    pub(crate) body: (usize, usize),
    /// Token index of the `fn` keyword.
    pub(crate) kw: usize,
    /// 1-based line of the `fn` keyword.
    pub(crate) line: u32,
}

/// Whether a function span is under the warm no-alloc discipline: a
/// `*_into` name or an `&mut EstimatorScratch` parameter.
pub(crate) fn is_warm_fn(toks: &[Tok], span: &FnSpan) -> bool {
    let takes_scratch = toks[span.params.0..span.params.1]
        .iter()
        .any(|t| t.kind == TokKind::Ident && t.text == "EstimatorScratch");
    span.name.ends_with("_into") || takes_scratch
}

/// Finds function items (including nested ones) by scanning for `fn`
/// tokens and brace-matching their bodies.
pub(crate) fn fn_spans(toks: &[Tok]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_ident(toks, i, "fn") && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            // Skip generics to the parameter list.
            let mut j = i + 2;
            if text(toks, j) == "<" {
                let mut depth = 0i32;
                while j < toks.len() {
                    match text(toks, j) {
                        "<" => depth += 1,
                        ">" => depth -= 1,
                        ">>" => depth -= 2,
                        _ => {}
                    }
                    j += 1;
                    if depth <= 0 {
                        break;
                    }
                }
            }
            if text(toks, j) != "(" {
                i += 1;
                continue;
            }
            let params_end = matching(toks, j);
            let params = (j, params_end);
            // Find the body `{` (or `;` for a bodiless declaration),
            // skipping balanced delimiters in the return type.
            let mut k = params_end + 1;
            let mut body = None;
            while k < toks.len() {
                match text(toks, k) {
                    "{" => {
                        body = Some((k, matching(toks, k)));
                        break;
                    }
                    ";" => break,
                    "(" | "[" => k = matching(toks, k) + 1,
                    _ => k += 1,
                }
            }
            if let Some(body) = body {
                spans.push(FnSpan { name, params, body, kw: i, line: toks[i].line });
            }
        }
        i += 1;
    }
    spans
}

// ---------------------------------------------------------------------------
// Leaf-site detectors (shared by the local rules and the taint pass)
// ---------------------------------------------------------------------------

/// One allocation or panic site inside a token range, with enough
/// context to phrase both the local and the transitive diagnostic.
pub(crate) struct LeafSite {
    /// 1-based source line.
    pub(crate) line: u32,
    /// Short description of the offending construct, backtick-quoted
    /// (`` `.unwrap()` ``, `` `Vec::new` ``, `` `vec!` ``, ...).
    pub(crate) what: String,
}

/// Panic-family sites (`.unwrap()`/`.expect()` calls and the
/// `panic!`-family macros) in `toks[lo..hi]`, skipping masked tokens.
pub(crate) fn panic_sites(toks: &[Tok], lo: usize, hi: usize, excluded: &[bool]) -> Vec<LeafSite> {
    let mut out = Vec::new();
    for i in lo..hi.min(toks.len()) {
        if excluded[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = toks[i].text.as_str();
        if (t == "unwrap" || t == "expect")
            && text(toks, i.wrapping_sub(1)) == "."
            && text(toks, i + 1) == "("
        {
            out.push(LeafSite { line: toks[i].line, what: format!("`.{t}()`") });
        }
        if matches!(t, "panic" | "todo" | "unimplemented" | "unreachable")
            && text(toks, i + 1) == "!"
        {
            out.push(LeafSite { line: toks[i].line, what: format!("`{t}!`") });
        }
    }
    out
}

/// Computed-index sites (`a[i + 1]`-shaped expressions) in
/// `toks[lo..hi]`; the same shape the local hot-index rule bans.
pub(crate) fn computed_index_sites(
    toks: &[Tok],
    lo: usize,
    hi: usize,
    excluded: &[bool],
) -> Vec<LeafSite> {
    let mut out = Vec::new();
    for i in lo..hi.min(toks.len()) {
        if excluded[i] || text(toks, i) != "[" {
            continue;
        }
        let prev_is_expr = i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].text == "]"
                || toks[i - 1].text == ")")
            && !is_ident(toks, i - 1, "mut")
            && !is_ident(toks, i - 1, "return")
            && !is_ident(toks, i - 1, "in");
        if !prev_is_expr {
            continue;
        }
        let close = matching(toks, i);
        let mut depth = 0usize;
        let mut arithmetic = false;
        for tok in toks.iter().take(close).skip(i + 1) {
            match tok.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                "+" | "-" | "*" | "/" | "%" if depth == 0 && tok.kind == TokKind::Punct => {
                    arithmetic = true;
                }
                _ => {}
            }
        }
        if arithmetic {
            out.push(LeafSite { line: toks[i].line, what: "computed index".to_string() });
        }
    }
    out
}

/// Allocation sites (allocating method calls, `Type::ctor` pairs, and
/// allocating macros) in `toks[lo..hi]`, skipping masked tokens.
pub(crate) fn alloc_sites(toks: &[Tok], lo: usize, hi: usize, excluded: &[bool]) -> Vec<LeafSite> {
    let mut out = Vec::new();
    for i in lo..hi.min(toks.len()) {
        if excluded[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let t = toks[i].text.as_str();
        if ALLOC_METHODS.contains(&t)
            && text(toks, i.wrapping_sub(1)) == "."
            && text(toks, i + 1) == "("
        {
            out.push(LeafSite { line: toks[i].line, what: format!("`.{t}()`") });
        }
        if text(toks, i + 1) == "::"
            && ALLOC_CTORS.iter().any(|(ty, m)| *ty == t && text(toks, i + 2) == *m)
        {
            out.push(LeafSite {
                line: toks[i].line,
                what: format!("`{t}::{}`", text(toks, i + 2)),
            });
        }
        if ALLOC_MACROS.contains(&t) && text(toks, i + 1) == "!" {
            out.push(LeafSite { line: toks[i].line, what: format!("`{t}!`") });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule (a): no-panic hot path
// ---------------------------------------------------------------------------

fn check_no_panic(toks: &[Tok], excluded: &[bool], out: &mut Vec<Diagnostic>) {
    for site in panic_sites(toks, 0, toks.len(), excluded) {
        let msg = if site.what.starts_with("`.") {
            format!("{} in a hot-path module; handle the None/Err case", site.what)
        } else {
            format!("{} in a hot-path module", site.what)
        };
        out.push(Diagnostic { rule: RULE_NO_PANIC, line: site.line, msg });
    }
}

// ---------------------------------------------------------------------------
// Rule (a'): computed indexing in hot path
// ---------------------------------------------------------------------------

/// Fires on index expressions whose bracket content performs
/// arithmetic at the top level (`a[i + 1]`, `v[n.len() / 2]`,
/// `s[lo..lo + w]`): exactly the off-by-one shapes that panic at the
/// boundary. A plain `a[i]` is allowed — the index was computed
/// elsewhere and bounds-checking every read would drown the signal.
fn check_hot_index(toks: &[Tok], excluded: &[bool], out: &mut Vec<Diagnostic>) {
    for site in computed_index_sites(toks, 0, toks.len(), excluded) {
        out.push(Diagnostic {
            rule: RULE_HOT_INDEX,
            line: site.line,
            msg: "computed index in a hot-path module; use `.get()` or hoist the \
                  bounds proof"
                .to_string(),
        });
    }
}

// ---------------------------------------------------------------------------
// Rule (b): no-alloc `_into` discipline
// ---------------------------------------------------------------------------

/// Identifiers that allocate when invoked as `.method()`.
const ALLOC_METHODS: &[&str] = &["collect", "to_vec", "to_owned", "to_string", "clone"];
/// `Type::method` pairs that allocate.
const ALLOC_CTORS: &[(&str, &str)] = &[
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("Vec", "from"),
    ("String", "new"),
    ("String", "from"),
    ("Box", "new"),
];
/// Macros that allocate.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

fn check_no_alloc_into(toks: &[Tok], excluded: &[bool], out: &mut Vec<Diagnostic>) {
    for span in fn_spans(toks) {
        if !is_warm_fn(toks, &span) {
            continue;
        }
        for site in alloc_sites(toks, span.body.0, span.body.1, excluded) {
            let msg = if site.what.ends_with("!`") {
                format!("{} allocates inside `{}`", site.what, span.name)
            } else {
                format!("{} allocates inside `{}`; reuse the scratch buffers", site.what, span.name)
            };
            out.push(Diagnostic { rule: RULE_NO_ALLOC_INTO, line: site.line, msg });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule (c): float hygiene
// ---------------------------------------------------------------------------

fn check_total_cmp(toks: &[Tok], excluded: &[bool], out: &mut Vec<Diagnostic>) {
    for i in 0..toks.len() {
        if excluded[i] || !is_ident(toks, i, "partial_cmp") || text(toks, i + 1) != "(" {
            continue;
        }
        let close = matching(toks, i + 1);
        if text(toks, close + 1) == "." && matches!(text(toks, close + 2), "unwrap" | "expect") {
            out.push(Diagnostic {
                rule: RULE_TOTAL_CMP,
                line: toks[i].line,
                msg: "`partial_cmp(..).unwrap()` panics on NaN; use `total_cmp`".to_string(),
            });
        }
    }
}

/// Conservative unguarded-division check: a float literal divided by a
/// symbol (`1.0 / x`, `0.5 / cell.weight`) fires unless the enclosing
/// function also mentions the divisor next to a comparison operator or
/// a guarding method (`abs`/`max`/`clamp`/`is_finite`/`is_normal`).
fn check_float_div(toks: &[Tok], excluded: &[bool], out: &mut Vec<Diagnostic>) {
    let spans = fn_spans(toks);
    for i in 0..toks.len() {
        if excluded[i]
            || toks[i].kind != TokKind::Number
            || !is_float_literal(&toks[i].text)
            || text(toks, i + 1) != "/"
            || toks.get(i + 2).map(|t| t.kind) != Some(TokKind::Ident)
        {
            continue;
        }
        // Capture the divisor path: ident (. ident)*, stopping at a call.
        let mut path: Vec<&str> = vec![text(toks, i + 2)];
        let mut j = i + 3;
        while text(toks, j) == "."
            && toks.get(j + 1).map(|t| t.kind) == Some(TokKind::Ident)
            && text(toks, j + 2) != "("
        {
            path.push(text(toks, j + 1));
            j += 2;
        }
        let (lo, hi) = spans
            .iter()
            .find(|s| s.body.0 <= i && i < s.body.1)
            .map(|s| s.body)
            .unwrap_or((0, toks.len()));
        if !divisor_guarded(toks, lo, hi, &path, i + 2) {
            out.push(Diagnostic {
                rule: RULE_FLOAT_DIV,
                line: toks[i].line,
                msg: format!(
                    "`{} / {}` with no visible guard that `{}` is nonzero",
                    toks[i].text,
                    path.join("."),
                    path.join(".")
                ),
            });
        }
    }
}

/// Looks for the divisor path adjacent to a comparison or a guarding
/// method call anywhere in the enclosing function body.
fn divisor_guarded(toks: &[Tok], lo: usize, hi: usize, path: &[&str], div_at: usize) -> bool {
    const CMP: &[&str] = &[">", "<", ">=", "<=", "==", "!="];
    const GUARD_METHODS: &[&str] = &["abs", "max", "clamp", "is_finite", "is_normal", "recip"];
    let plen = 2 * path.len() - 1; // idents joined by `.` tokens
    let mut k = lo;
    while k + plen <= hi {
        let matches_path = (0..path.len()).all(|p| {
            is_ident(toks, k + 2 * p, path[p]) && (p == 0 || text(toks, k + 2 * p - 1) == ".")
        });
        if matches_path {
            let before = text(toks, k.wrapping_sub(1));
            let after = text(toks, k + plen);
            // A comparison guards only when it happens somewhere other
            // than the division itself (`1.0 / x == 0.0` compares the
            // quotient, not the divisor)...
            if k != div_at && (CMP.contains(&before) || CMP.contains(&after)) {
                return true;
            }
            // ...but a guard method is convincing even at the division
            // site: `1.0 / x.max(eps)` clamps the divisor inline.
            if after == "." && GUARD_METHODS.contains(&text(toks, k + plen + 1)) {
                return true;
            }
        }
        k += 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Rule (d): atomics / lock audit
// ---------------------------------------------------------------------------

/// Atomic memory orderings (so `std::cmp::Ordering::Less` never fires).
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
/// Types whose declarations must carry a `// sync:` invariant comment.
const SYNC_TYPES: &[&str] = &[
    "Mutex",
    "RwLock",
    "AtomicU64",
    "AtomicUsize",
    "AtomicU32",
    "AtomicBool",
    "AtomicI64",
    "AtomicI32",
    "AtomicU8",
];

/// How many lines above a declaration/use a `// sync:` comment may sit.
const SYNC_COMMENT_REACH: u32 = 4;

fn has_sync_comment(lexed: &Lexed, line: u32) -> bool {
    lexed
        .comments
        .iter()
        .any(|c| c.line <= line && line - c.line <= SYNC_COMMENT_REACH && c.text.contains("sync:"))
}

fn check_sync_comment(lexed: &Lexed, excluded: &[bool], out: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if excluded[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        // (d1) every atomic `Ordering::X` use.
        if toks[i].text == "Ordering"
            && text(toks, i + 1) == "::"
            && ATOMIC_ORDERINGS.contains(&text(toks, i + 2))
            && !has_sync_comment(lexed, toks[i].line)
        {
            out.push(Diagnostic {
                rule: RULE_SYNC_COMMENT,
                line: toks[i].line,
                msg: format!(
                    "`Ordering::{}` without a `// sync:` comment stating the invariant",
                    text(toks, i + 2)
                ),
            });
        }
        // (d2) every lock/atomic field or static declaration.
        if SYNC_TYPES.contains(&toks[i].text.as_str())
            && text(toks, i + 1) != "::"
            && is_sync_declaration(toks, i)
            && !has_sync_comment(lexed, toks[i].line)
        {
            out.push(Diagnostic {
                rule: RULE_SYNC_COMMENT,
                line: toks[i].line,
                msg: format!(
                    "`{}` declaration without a `// sync:` comment stating what it guards",
                    toks[i].text
                ),
            });
        }
    }
}

/// Whether the `SYNC_TYPES` token at `i` sits in a field or static
/// declaration (as opposed to a constructor path, `use` statement,
/// function signature, or local).
fn is_sync_declaration(toks: &[Tok], i: usize) -> bool {
    // Walk back to the statement start.
    let mut start = i;
    while start > 0 {
        let t = text(toks, start - 1);
        if t == ";" || t == "{" || t == "}" || t == "," {
            break;
        }
        start -= 1;
    }
    // A return type (`-> &RwLock<..>`) or unbalanced close paren means
    // we are inside a signature, not a declaration.
    let mut parens = 0i32;
    for t in toks[start..i].iter() {
        match t.text.as_str() {
            "->" => return false,
            "(" => parens += 1,
            ")" => {
                parens -= 1;
                if parens < 0 {
                    return false;
                }
            }
            _ => {}
        }
    }
    // Strip attributes and visibility.
    let mut j = start;
    while text(toks, j) == "#" && text(toks, j + 1) == "[" {
        j = matching(toks, j + 1) + 1;
    }
    if text(toks, j) == "pub" {
        j += 1;
        if text(toks, j) == "(" {
            j = matching(toks, j) + 1;
        }
    }
    match text(toks, j) {
        "use" | "let" | "mod" | "fn" | "impl" | "type" | "where" => false,
        "static" => true,
        _ => {
            // Field shape: `name : Type...` with the sync type somewhere
            // in the type position.
            toks.get(j).map(|t| t.kind) == Some(TokKind::Ident) && text(toks, j + 1) == ":"
        }
    }
}

// ---------------------------------------------------------------------------
// Allowlist
// ---------------------------------------------------------------------------

struct Allow {
    rule: String,
    reason: String,
    comment_line: u32,
    target_line: u32,
    used: bool,
}

/// Parses `// lint:allow(rule) reason` comments, suppresses matching
/// findings on the target line, and reports allowlist bookkeeping
/// errors (missing reason, unknown rule, stale allow). An allow whose
/// target line has no finding of that rule is *dead* and reported as an
/// error — the dead-suppression audit.
pub fn apply_allowlist(lexed: &Lexed, raw: Vec<Diagnostic>) -> Vec<Diagnostic> {
    let mut allows: Vec<Allow> = Vec::new();
    let mut problems: Vec<Diagnostic> = Vec::new();
    for c in &lexed.comments {
        let t = c.text.trim();
        let Some(rest) = t.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            problems.push(Diagnostic {
                rule: RULE_ALLOWLIST,
                line: c.line,
                msg: "malformed allow: missing `)`".to_string(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let reason = rest[close + 1..].trim().to_string();
        if !ALL_RULES.contains(&rule.as_str()) {
            problems.push(Diagnostic {
                rule: RULE_ALLOWLIST,
                line: c.line,
                msg: format!("unknown rule `{rule}` in allow (known: {})", ALL_RULES.join(", ")),
            });
            continue;
        }
        if reason.is_empty() {
            problems.push(Diagnostic {
                rule: RULE_ALLOWLIST,
                line: c.line,
                msg: format!("unexplained allow for `{rule}`: add a reason after the `)`"),
            });
            continue;
        }
        // Trailing comment → same line; otherwise the next code line.
        let same_line = lexed.tokens.iter().any(|t| t.line == c.line);
        let target_line = if same_line {
            c.line
        } else {
            lexed.tokens.iter().map(|t| t.line).find(|&l| l > c.line).unwrap_or(c.line)
        };
        allows.push(Allow { rule, reason, comment_line: c.line, target_line, used: false });
    }

    let mut out = Vec::new();
    for d in raw {
        let suppressed = allows
            .iter_mut()
            .find(|a| a.rule == d.rule && a.target_line == d.line)
            .map(|a| {
                a.used = true;
                debug_assert!(!a.reason.is_empty());
            })
            .is_some();
        if !suppressed {
            out.push(d);
        }
    }
    for a in &allows {
        if !a.used {
            problems.push(Diagnostic {
                rule: RULE_ALLOWLIST,
                line: a.comment_line,
                msg: format!(
                    "stale allow for `{}` (line {} has no such finding); remove it",
                    a.rule, a.target_line
                ),
            });
        }
    }
    out.extend(problems);
    out.sort_by_key(|d| d.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(src: &str, scope: Scope) -> Vec<&'static str> {
        scan_source(src, scope).into_iter().map(|d| d.rule).collect()
    }

    #[test]
    fn unwrap_fires_only_in_hot_scope() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        assert_eq!(rules_of(src, Scope::all()), vec![RULE_NO_PANIC]);
        assert!(rules_of(src, Scope::default()).is_empty());
    }

    #[test]
    fn unwrap_or_is_fine() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }";
        assert!(rules_of(src, Scope::all()).is_empty());
    }

    #[test]
    fn computed_index_fires_plain_index_does_not() {
        assert_eq!(
            rules_of("fn f(a: &[u32], i: usize) -> u32 { a[i + 1] }", Scope::all()),
            vec![RULE_HOT_INDEX]
        );
        assert!(rules_of("fn f(a: &[u32], i: usize) -> u32 { a[i] }", Scope::all()).is_empty());
        // Array type and attribute brackets never fire.
        assert!(rules_of("fn f() -> [u32; 2 + 2] { [0; 4] }", Scope::all()).is_empty());
    }

    #[test]
    fn alloc_in_into_fn_fires() {
        let src = "fn fill_into(out: &mut Vec<u32>) { let v: Vec<u32> = Vec::new(); }";
        assert_eq!(rules_of(src, Scope::all()), vec![RULE_NO_ALLOC_INTO]);
        // Same body in a non-_into fn: clean.
        let src2 = "fn fill(out: &mut Vec<u32>) { let v: Vec<u32> = Vec::new(); }";
        assert!(rules_of(src2, Scope::all()).is_empty());
        // clone_from is the sanctioned reuse API.
        let src3 = "fn fill_into(out: &mut Vec<u32>, src: &Vec<u32>) { out.clone_from(src); }";
        assert!(rules_of(src3, Scope::all()).is_empty());
    }

    #[test]
    fn scratch_param_triggers_alloc_rule() {
        let src = "fn warm(s: &mut EstimatorScratch) { let v = s.xs.to_vec(); }";
        assert_eq!(rules_of(src, Scope::all()), vec![RULE_NO_ALLOC_INTO]);
    }

    #[test]
    fn partial_cmp_unwrap_fires_everywhere() {
        let src = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }";
        assert_eq!(rules_of(src, Scope::default()), vec![RULE_TOTAL_CMP]);
        let ok = "fn f(v: &mut [f64]) { v.sort_by(|a, b| a.total_cmp(b)); }";
        assert!(rules_of(ok, Scope::default()).is_empty());
    }

    #[test]
    fn unguarded_float_div_fires_guarded_does_not() {
        let bad = "fn f(x: f64) -> f64 { 1.0 / x }";
        assert_eq!(rules_of(bad, Scope::all()), vec![RULE_FLOAT_DIV]);
        let ok = "fn f(x: f64) -> f64 { assert!(x > 0.0); 1.0 / x }";
        assert!(rules_of(ok, Scope::all()).is_empty());
        let dotted = "fn f(c: &Cell) -> f64 { if c.w <= 0.0 { return 0.0; } 1.0 / c.w }";
        assert!(rules_of(dotted, Scope::all()).is_empty());
    }

    #[test]
    fn ordering_and_fields_need_sync_comments() {
        let bad = "struct S { n: AtomicU64 }";
        assert_eq!(rules_of(bad, Scope::default()), vec![RULE_SYNC_COMMENT]);
        let ok = "struct S {\n    // sync: monotonic counter, read only for reporting\n    n: AtomicU64,\n}";
        assert!(rules_of(ok, Scope::default()).is_empty());
        let load = "fn f(n: &AtomicU64) -> u64 { n.load(Ordering::Relaxed) }";
        assert_eq!(rules_of(load, Scope::default()), vec![RULE_SYNC_COMMENT]);
        // Constructors, use statements, and cmp::Ordering never fire.
        let quiet = "use std::sync::Mutex;\nfn f() { let m = Mutex::new(0); }\nfn g(a: f64, b: f64) -> Ordering { Ordering::Less }";
        assert!(rules_of(quiet, Scope::default()).is_empty());
    }

    #[test]
    fn allowlist_suppresses_and_audits() {
        let allowed = "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(no-panic) validated by caller\n    x.unwrap()\n}";
        assert!(rules_of(allowed, Scope::all()).is_empty());
        let unexplained =
            "fn f(x: Option<u32>) -> u32 {\n    // lint:allow(no-panic)\n    x.unwrap()\n}";
        let got = rules_of(unexplained, Scope::all());
        assert!(got.contains(&RULE_ALLOWLIST) && got.contains(&RULE_NO_PANIC), "{got:?}");
        let stale = "// lint:allow(no-panic) nothing here panics\nfn f() -> u32 { 0 }";
        assert_eq!(rules_of(stale, Scope::all()), vec![RULE_ALLOWLIST]);
    }

    #[test]
    fn trailing_allow_on_same_line_works() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    x.unwrap() // lint:allow(no-panic) checked above\n}";
        assert!(rules_of(src, Scope::all()).is_empty());
    }

    #[test]
    fn cfg_test_mod_is_skipped() {
        let src = "fn hot() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}";
        assert!(rules_of(src, Scope::all()).is_empty());
    }

    #[test]
    fn float_div_self_guarded_divisor_passes() {
        let src = "fn f(x: f64) -> f64 { 1.0 / x.max(1e-9) }";
        assert!(rules_of(src, Scope::all()).is_empty());
        let bare = "fn f(x: f64) -> f64 { 1.0 / x }";
        assert_eq!(rules_of(bare, Scope::all()), vec![RULE_FLOAT_DIV]);
    }
}
