//! Workspace item model, symbol table, and conservative call graph.
//!
//! The graph is built from the same hand-rolled token stream the local
//! rules use (no `syn`): every first-party source file is lexed once,
//! function items are discovered by `fn`-token scanning with
//! brace-matched bodies, `impl`/`trait` blocks contribute a `self_ty`
//! so `Type::method` paths can resolve, and call sites are extracted
//! from each body as either free calls (`name(..)`, `path::name(..)`,
//! turbofish included) or method calls (`.name(..)`).
//!
//! Resolution is deliberately conservative, in two tiers:
//!
//! * **path-resolved** — qualified calls whose segments match a unique
//!   definition's crate, module path, or `self` type, and unqualified
//!   calls with a same-file or unique workspace definition. These are
//!   *confident* edges.
//! * **name-matched fallback** — calls matching several definitions in
//!   different files get edges to *all* of them (taint must not guess),
//!   and the call is recorded as *ambiguous* so the taint pass can
//!   surface an `ambiguous-call` diagnostic when the candidates'
//!   verdicts differ.
//!
//! Known resolution gaps (documented, accepted): calls through
//! function pointers/closures, `Trait::method(..)` UFCS through a
//! generic parameter, and macro-generated calls produce no edges. The
//! leaf token rules still cover such call *sites* locally when they
//! appear in gated modules.

use crate::lexer::{lex, Lexed, Tok, TokKind};
use crate::rules::{self};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

/// One lexed first-party source file.
pub struct SourceFile {
    /// Workspace-relative path.
    pub path: PathBuf,
    /// Graph module identity (`core::pipeline`, `bench::experiments::fleet_scaling`,
    /// `gradest::lib`, ...). Richer than the hot-module mapping: every
    /// scanned file gets an identity, nested directories included.
    pub module: String,
    /// Crate short name (`core`, `math`, `gradest` for the facade).
    pub krate: String,
    /// Token/comment stream.
    pub lexed: Lexed,
    /// Per-token `#[cfg(test)]` exclusion mask.
    pub excluded: Vec<bool>,
}

/// One function definition discovered in the workspace.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Function name (last path segment).
    pub name: String,
    /// `Self` type when defined inside an `impl` or `trait` block.
    pub self_ty: Option<String>,
    /// Index into [`Graph::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Body token range (brace-matched, exclusive of the braces' file tail).
    pub body: (usize, usize),
    /// Parameter-list token range.
    pub params: (usize, usize),
    /// Declared `pub` (plain, not `pub(crate)`/`pub(super)`).
    pub is_pub: bool,
    /// Warm no-alloc shape: `*_into` name or `&mut EstimatorScratch` param.
    pub warm_shape: bool,
}

/// One call site extracted from a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the calling function in [`Graph::fns`].
    pub caller: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// Display form (`helper`, `geo::index::build`, `.refill`).
    pub display: String,
    /// Resolved target functions (empty for external/unresolvable calls).
    pub targets: Vec<usize>,
    /// More than one candidate across different files: the name-matched
    /// fallback could not pick one, so taint follows all of them.
    pub ambiguous: bool,
}

/// A `pub` item (non-fn kinds included) for the unused-`pub` audit.
#[derive(Debug, Clone)]
pub struct PubItem {
    /// Item name.
    pub name: String,
    /// Item kind keyword (`fn`, `struct`, `enum`, `trait`, `const`, `static`, `type`).
    pub kind: &'static str,
    /// Index into [`Graph::files`].
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// Identifiers the item's public declaration names: a fn's
    /// signature, a struct's `pub` fields, an enum's payloads, a trait's
    /// item signatures, a type alias's target, a const/static's type.
    pub names: BTreeSet<String>,
    /// The inherent impl's type, for an associated fn or const.
    pub self_ty: Option<String>,
    /// A fn that takes `self`, so method-call syntax reaches it.
    pub method: bool,
}

/// The role one identifier occurrence plays, as the unused-`pub` audit
/// counts it. No receiver types are inferred: a method call counts for
/// every method of that name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Use {
    /// Any occurrence: uses a type, trait, or module-level const or static.
    Ident(String),
    /// `T::name` as a call, fn pointer or const read: uses `T`'s
    /// associated item `name`.
    Assoc(String, String),
    /// `.name(` or `.name::<`: uses every method `name`.
    Method(String),
    /// `name(`, a path ending in `::name`, or a `use` naming it: uses a
    /// free fn `name`.
    Free(String),
}

impl PubItem {
    /// The uses that count for this item.
    fn counted_by(&self) -> Vec<Use> {
        let name = self.name.clone();
        match &self.self_ty {
            Some(ty) if self.method => {
                vec![Use::Assoc(ty.clone(), name.clone()), Use::Method(name)]
            }
            Some(ty) => vec![Use::Assoc(ty.clone(), name)],
            None if self.kind == "fn" => vec![Use::Free(name)],
            None => vec![Use::Ident(name)],
        }
    }
}

/// Every [`Use`] in one token stream, except the names in `pub use`
/// re-exports: re-exporting an item does not use it.
pub fn uses_in(toks: &[Tok]) -> BTreeSet<Use> {
    let text = |i: usize| toks.get(i).map_or("", |t| t.text.as_str());
    let mut uses = BTreeSet::new();
    // Inside a `use` item: `Some(true)` for a `pub use`.
    let mut in_use: Option<bool> = None;
    for (i, t) in toks.iter().enumerate() {
        if t.text == ";" {
            in_use = None;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let prev = if i > 0 { text(i - 1) } else { "" };
        if t.text == "use" {
            in_use = Some(prev == "pub");
            continue;
        }
        if in_use == Some(true) {
            continue;
        }
        let name = &t.text;
        let called = text(i + 1) == "(" || (text(i + 1) == "::" && text(i + 2) == "<");
        if prev == "::" {
            if i >= 2 && toks[i - 2].kind == TokKind::Ident {
                uses.insert(Use::Assoc(toks[i - 2].text.clone(), name.clone()));
            }
            uses.insert(Use::Free(name.clone()));
        } else if prev == "." && called {
            uses.insert(Use::Method(name.clone()));
        } else if in_use.is_some() || (called && prev != "fn") {
            uses.insert(Use::Free(name.clone()));
        }
        uses.insert(Use::Ident(name.clone()));
    }
    uses
}

/// The workspace call graph plus everything needed to phrase
/// diagnostics: files, function definitions, call sites, and the
/// per-function outgoing edge lists.
pub struct Graph {
    /// Lexed source files, sorted by path (order-independence: the
    /// analyzer sorts before building, so discovery order never leaks
    /// into results).
    pub files: Vec<SourceFile>,
    /// All discovered function definitions, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// All call sites, in (file, token) order.
    pub calls: Vec<CallSite>,
    /// Outgoing call-site indices per function.
    pub calls_of: Vec<Vec<usize>>,
    /// All `pub` items (for the unused-`pub` audit).
    pub pub_items: Vec<PubItem>,
}

/// Keywords that can syntactically precede `(` without being calls.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "return", "for", "in", "loop", "as", "move", "else", "let", "break",
    "continue", "where", "await", "unsafe", "ref", "mut", "dyn", "impl", "fn", "use", "pub",
    "enum", "struct", "trait", "type", "mod", "static", "const",
];

/// Prelude constructors/variants that look like calls but never
/// resolve to workspace functions; skipping them early keeps the
/// symbol-table probing cheap and the ambiguity accounting quiet.
const BUILTIN_CALLS: &[&str] = &["Some", "Ok", "Err", "None", "Box", "Rc", "Arc", "Cow"];

/// Method names defined by std preludes/iterators/collections. When a
/// receiver's type cannot be pinned, a call to one of these almost
/// always dispatches to std (`xs.iter().map(..)`), so the
/// unique-candidate fallback must not edge it to a same-named
/// workspace method (`DMatrix::map`).
const STD_METHOD_NAMES: &[&str] = &[
    "map",
    "filter",
    "filter_map",
    "flat_map",
    "for_each",
    "fold",
    "reduce",
    "sum",
    "product",
    "count",
    "last",
    "nth",
    "chain",
    "zip",
    "rev",
    "enumerate",
    "skip",
    "take",
    "skip_while",
    "take_while",
    "step_by",
    "collect",
    "min",
    "max",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "any",
    "all",
    "find",
    "position",
    "flatten",
    "copied",
    "cloned",
    "peekable",
    "peek",
    "windows",
    "chunks",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "map_err",
    "map_or",
    "and_then",
    "or_else",
    "ok_or",
    "ok_or_else",
    "iter",
    "iter_mut",
    "into_iter",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "first",
    "push",
    "pop",
    "insert",
    "remove",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "drain",
    "retain",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_by_key",
    "resize",
    "truncate",
    "split",
    "split_at",
    "splitn",
    "join",
    "swap",
    "fill",
    "binary_search",
    "binary_search_by",
    "keys",
    "values",
    "entry",
    "or_insert",
    "or_default",
    "clone",
    "to_vec",
    "to_string",
    "into",
    "from",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "next",
    "abs",
    "sqrt",
    "powi",
    "powf",
    "floor",
    "ceil",
    "round",
    "partial_cmp",
    "total_cmp",
    "cmp",
    "eq",
    "hash",
    "fmt",
    "write",
    "read",
    "send",
    "recv",
    "lock",
    "spawn",
    "elapsed",
];

/// Graph module identity for a workspace-relative path, or `None` for
/// files outside `src/` trees.
fn graph_module(rel: &Path) -> Option<(String, String)> {
    let parts: Vec<&str> = rel.iter().filter_map(|p| p.to_str()).collect();
    match parts.as_slice() {
        ["crates", krate, "src", rest @ ..] if !rest.is_empty() => {
            let mut segs: Vec<String> = vec![(*krate).to_string()];
            for (i, p) in rest.iter().enumerate() {
                if i + 1 == rest.len() {
                    segs.push(p.strip_suffix(".rs")?.to_string());
                } else {
                    segs.push((*p).to_string());
                }
            }
            Some(((*krate).to_string(), segs.join("::")))
        }
        ["src", rest @ ..] if !rest.is_empty() => {
            let mut segs: Vec<String> = vec!["gradest".to_string()];
            for (i, p) in rest.iter().enumerate() {
                if i + 1 == rest.len() {
                    segs.push(p.strip_suffix(".rs")?.to_string());
                } else {
                    segs.push((*p).to_string());
                }
            }
            Some(("gradest".to_string(), segs.join("::")))
        }
        _ => None,
    }
}

/// Normalizes a path segment as written in source to the graph's crate
/// naming (`gradest_math` -> `math`).
fn normalize_crate_seg(seg: &str) -> &str {
    seg.strip_prefix("gradest_").unwrap_or(seg)
}

impl Graph {
    /// Builds the graph from `(path, source)` pairs. Inputs are sorted
    /// by path internally, so the result is independent of discovery
    /// order.
    pub fn build(sources: Vec<(PathBuf, String)>) -> Graph {
        let mut sources = sources;
        sources.sort_by(|a, b| a.0.cmp(&b.0));
        sources.dedup_by(|a, b| a.0 == b.0);

        let mut files = Vec::with_capacity(sources.len());
        for (path, src) in sources {
            let (krate, module) = graph_module(&path)
                .unwrap_or_else(|| ("<none>".to_string(), format!("<file:{}>", path.display())));
            let lexed = lex(&src);
            let excluded = rules::test_excluded_mask(&lexed.tokens);
            files.push(SourceFile { path, module, krate, lexed, excluded });
        }

        let mut fns: Vec<FnDef> = Vec::new();
        let mut pub_items: Vec<PubItem> = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let toks = &file.lexed.tokens;
            let impls = impl_ranges(toks);
            for span in rules::fn_spans(toks) {
                // Functions living entirely inside #[cfg(test)] items
                // are invisible to the graph.
                if file.excluded.get(span.kw).copied().unwrap_or(false) {
                    continue;
                }
                let self_ty = impl_type_at(&impls, span.kw);
                let warm_shape = rules::is_warm_fn(toks, &span);
                fns.push(FnDef {
                    name: span.name,
                    self_ty,
                    file: fi,
                    line: span.line,
                    body: span.body,
                    params: span.params,
                    is_pub: is_plain_pub(toks, span.kw),
                    warm_shape,
                });
            }
            collect_pub_items(toks, &file.excluded, &impls, fi, &mut pub_items);
        }

        // Symbol table: name -> fn indices.
        let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }

        // Innermost-enclosing-fn lookup per file: (body ranges sorted).
        let mut fns_of_file: Vec<Vec<usize>> = vec![Vec::new(); files.len()];
        for (i, f) in fns.iter().enumerate() {
            fns_of_file[f.file].push(i);
        }

        let mut calls: Vec<CallSite> = Vec::new();
        let mut calls_of: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (fi, file) in files.iter().enumerate() {
            let toks = &file.lexed.tokens;
            for raw in raw_calls(toks, &file.excluded) {
                // Attribute the call to the innermost enclosing fn.
                let caller = fns_of_file[fi]
                    .iter()
                    .copied()
                    .filter(|&f| fns[f].body.0 <= raw.at && raw.at < fns[f].body.1)
                    .min_by_key(|&f| fns[f].body.1 - fns[f].body.0);
                let Some(caller) = caller else {
                    continue; // top-level (const initializer etc.)
                };
                let (targets, ambiguous) = resolve(&raw, fi, &fns[caller], &files, &fns, &by_name);
                if targets.is_empty() {
                    continue; // external (std / shims) or unresolvable
                }
                let display = if raw.method {
                    format!(".{}", raw.name)
                } else if raw.qualifier.is_empty() {
                    raw.name.clone()
                } else {
                    format!("{}::{}", raw.qualifier.join("::"), raw.name)
                };
                let idx = calls.len();
                calls.push(CallSite { caller, line: raw.line, display, targets, ambiguous });
                calls_of[caller].push(idx);
            }
        }

        Graph { files, fns, calls, calls_of, pub_items }
    }

    /// Function indices matching `module::name` (used to seed
    /// reachability from named entry points).
    pub fn fns_in_module_named(&self, module: &str, name: &str) -> Vec<usize> {
        self.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.name == name && self.files[f.file].module == module)
            .map(|(i, _)| i)
            .collect()
    }

    /// Multi-source reachability over all call edges. Returns, for each
    /// reached function, the call-site index used to first reach it
    /// (`None` for roots) — enough to reconstruct a shortest call chain.
    pub fn reach(&self, roots: &[usize]) -> HashMap<usize, Option<usize>> {
        let mut parent: HashMap<usize, Option<usize>> = HashMap::new();
        let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
        // Deterministic frontier: sorted, deduped roots.
        let mut sorted_roots: Vec<usize> = roots.to_vec();
        sorted_roots.sort_unstable();
        sorted_roots.dedup();
        for &r in &sorted_roots {
            parent.insert(r, None);
            queue.push_back(r);
        }
        while let Some(f) = queue.pop_front() {
            for &c in &self.calls_of[f] {
                for &t in &self.calls[c].targets {
                    parent.entry(t).or_insert_with(|| {
                        queue.push_back(t);
                        Some(c)
                    });
                }
            }
        }
        parent
    }

    /// Reconstructs the call chain `root -> .. -> target` as
    /// `(fn index, Option<call line into the next hop>)` pairs, given a
    /// `reach` parent map containing `target`.
    pub fn chain(&self, parent: &HashMap<usize, Option<usize>>, target: usize) -> Vec<usize> {
        let mut chain = vec![target];
        let mut cur = target;
        // Chains are acyclic by construction (BFS tree), but cap the
        // walk defensively anyway.
        for _ in 0..self.fns.len() + 1 {
            match parent.get(&cur) {
                Some(Some(call)) => {
                    cur = self.calls[*call].caller;
                    chain.push(cur);
                }
                _ => break,
            }
        }
        chain.reverse();
        chain
    }

    /// Short display for a function (`module::name` or
    /// `module::Type::name`).
    pub fn fn_display(&self, f: usize) -> String {
        let d = &self.fns[f];
        let module = &self.files[d.file].module;
        match &d.self_ty {
            Some(ty) => format!("{module}::{ty}::{}", d.name),
            None => format!("{module}::{}", d.name),
        }
    }

    /// `pub` items in internal crates (`crates/*/src`, `bin/` excluded)
    /// that nothing uses — the unused-`pub` audit. An item is used when
    /// another file of `corpus` (which should span the whole repo,
    /// tests and benches included, see [`uses_in`]) holds a [`Use`] in
    /// the role the item can be used in, or,
    /// for a type, trait, or module-level const or static, when a used
    /// item of the same file names it in its declaration (the items
    /// rustc's `private_interfaces` lint would not let anyone demote).
    /// The second rule runs to a fixed point.
    pub fn unused_pub_items(
        &self,
        corpus: &BTreeMap<PathBuf, BTreeSet<Use>>,
    ) -> Vec<(PubItem, String)> {
        let audited = |item: &PubItem| {
            let path = self.files[item.file].path.to_string_lossy();
            // The facade and binaries are entry points, not API.
            path.starts_with("crates/")
                && !path.contains("/bin/")
                && !item.name.starts_with('_')
                && item.name != "main"
        };
        let mut used: Vec<bool> = self
            .pub_items
            .iter()
            .map(|item| {
                let path = &self.files[item.file].path;
                let counted = item.counted_by();
                !audited(item)
                    || corpus
                        .iter()
                        .any(|(p, uses)| p != path && counted.iter().any(|u| uses.contains(u)))
            })
            .collect();
        let mut changed = true;
        while changed {
            changed = false;
            for (i, item) in self.pub_items.iter().enumerate() {
                if used[i] || item.kind == "fn" || item.self_ty.is_some() {
                    continue;
                }
                let named = self.pub_items.iter().enumerate().any(|(j, by)| {
                    used[j] && by.file == item.file && j != i && by.names.contains(&item.name)
                });
                if named {
                    used[i] = true;
                    changed = true;
                }
            }
        }
        self.pub_items
            .iter()
            .zip(used)
            .filter(|(_, used)| !used)
            .map(|(item, _)| {
                let msg = format!(
                    "pub {} `{}` has no reference outside {}; demote to pub(crate) or remove",
                    item.kind,
                    item.name,
                    self.files[item.file].path.to_string_lossy()
                );
                (item.clone(), msg)
            })
            .collect()
    }
}

/// Whether the token before index `kw` (skipping qualifiers) is a plain
/// `pub` (not `pub(crate)`).
fn is_plain_pub(toks: &[Tok], kw: usize) -> bool {
    let mut i = kw;
    while i > 0 {
        let prev = toks[i - 1].text.as_str();
        match prev {
            "const" | "unsafe" | "extern" | "async" => i -= 1,
            _ if toks[i - 1].kind == TokKind::Str => i -= 1, // extern "C"
            "pub" => return true,
            ")" => {
                // pub(crate) / pub(super): restricted, not public API.
                return false;
            }
            _ => return false,
        }
    }
    false
}

/// `impl`/`trait` block body token ranges with their `Self` type name.
fn impl_ranges(toks: &[Tok]) -> Vec<((usize, usize), String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let t = toks[i].text.as_str();
        let is_block_kw = (t == "impl" || t == "trait") && toks[i].kind == TokKind::Ident;
        if !is_block_kw {
            i += 1;
            continue;
        }
        // `-> impl Trait` / `: impl Trait` are type positions, not items.
        if i > 0 {
            let prev = toks[i - 1].text.as_str();
            if matches!(prev, "->" | ":" | "+" | "(" | "<" | "," | "=" | "&" | "|") {
                i += 1;
                continue;
            }
        }
        // Scan to the body `{`, tracking angle depth and the `for`
        // pivot: for `impl Trait for Type`, the Self type is the last
        // angle-depth-0 ident after `for`; otherwise after the generics.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut last_ident: Option<String> = None;
        let mut in_where = false;
        let mut body = None;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "for" if angle == 0 && !in_where => last_ident = None,
                "where" if angle == 0 => in_where = true,
                "{" if angle <= 0 => {
                    body = Some((j, rules::matching(toks, j)));
                    break;
                }
                ";" if angle <= 0 => break, // e.g. `impl Foo;` (never valid, bail)
                _ => {
                    if angle == 0 && !in_where && toks[j].kind == TokKind::Ident {
                        last_ident = Some(toks[j].text.clone());
                    }
                }
            }
            j += 1;
        }
        if let (Some((open, close)), Some(ty)) = (body, last_ident) {
            out.push(((open, close), ty));
            // Do not skip the body: trait methods with bodies inside it
            // still need scanning, and nested impls do not occur.
            i = open + 1;
        } else {
            i = j + 1;
        }
    }
    out
}

/// The `Self` type of the [`impl_ranges`] block around token `at`.
fn impl_type_at(impls: &[((usize, usize), String)], at: usize) -> Option<String> {
    impls.iter().filter(|(r, _)| r.0 < at && at < r.1).map(|(_, ty)| ty.clone()).next_back()
}

/// A syntactic call site before resolution.
struct RawCall {
    /// Token index of the name ident.
    at: usize,
    line: u32,
    name: String,
    /// Path segments before the name (`geo::index::` -> ["geo", "index"]).
    qualifier: Vec<String>,
    /// `.name(..)` receiver-method shape.
    method: bool,
}

/// Extracts syntactic call sites from a token stream: `name(..)`,
/// `path::name(..)`, `path::name::<T>(..)`, and `.name(..)`. Macros
/// (`name!(..)`) and `fn` definitions are skipped; masked
/// (`#[cfg(test)]`) tokens produce no calls.
fn raw_calls(toks: &[Tok], excluded: &[bool]) -> Vec<RawCall> {
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if excluded[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if CALL_KEYWORDS.contains(&name) || BUILTIN_CALLS.contains(&name) {
            continue;
        }
        if text(i + 1) == "!" {
            continue; // macro; panic/alloc macros are leaf sites
        }
        // `fn name(` is a definition, not a call.
        if i > 0 && text(i - 1) == "fn" {
            continue;
        }
        // Position of the would-be `(`: directly after the name, or
        // after a `::<..>` turbofish.
        let mut open = i + 1;
        if text(open) == "::" && text(open + 1) == "<" {
            let mut depth = 0i32;
            let mut j = open + 1;
            while j < toks.len() {
                match text(j) {
                    "<" => depth += 1,
                    "<<" => depth += 2,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                j += 1;
                if depth <= 0 {
                    break;
                }
            }
            open = j;
        }
        if text(open) != "(" {
            continue;
        }
        let method = i > 0 && text(i - 1) == ".";
        let mut qualifier: Vec<String> = Vec::new();
        if !method {
            let mut k = i;
            while k >= 2 && text(k - 1) == "::" && toks[k - 2].kind == TokKind::Ident {
                qualifier.insert(0, toks[k - 2].text.clone());
                k -= 2;
            }
        }
        out.push(RawCall { at: i, line: toks[i].line, name: name.to_string(), qualifier, method });
    }
    out
}

/// Resolves a raw call against the symbol table. Returns the target fn
/// indices and whether the resolution was ambiguous (multiple
/// candidates across different files).
fn resolve(
    raw: &RawCall,
    caller_file: usize,
    caller: &FnDef,
    files: &[SourceFile],
    fns: &[FnDef],
    by_name: &HashMap<&str, Vec<usize>>,
) -> (Vec<usize>, bool) {
    let toks = &files[caller_file].lexed.tokens;
    let Some(all) = by_name.get(raw.name.as_str()) else {
        return (Vec::new(), false);
    };
    let caller_crate = &files[caller_file].krate;

    let mut candidates: Vec<usize> = if raw.method {
        // Methods resolve against method definitions only (fns with a
        // Self type); free functions cannot be `.called()`.
        let methods: Vec<usize> =
            all.iter().copied().filter(|&f| fns[f].self_ty.is_some()).collect();
        if methods.is_empty() {
            return (Vec::new(), false);
        }
        match receiver_type(raw, caller, toks) {
            Some(ty) => {
                // Receiver type pinned (self / typed param / typed let
                // binding): only that type's methods apply. An empty
                // match means the receiver is external or generic —
                // no workspace edge.
                let typed: Vec<usize> = methods
                    .iter()
                    .copied()
                    .filter(|&f| fns[f].self_ty.as_deref() == Some(ty.as_str()))
                    .collect();
                if typed.is_empty() {
                    return (Vec::new(), false);
                }
                typed
            }
            // Unknown receiver (field access, call-result chain):
            // keep the edge only when the method name is defined
            // exactly once workspace-wide AND does not collide with a
            // std method (`.map` on an iterator must not edge to
            // `DMatrix::map`). Multi-definition names (`.is_empty`,
            // `.len`, ...) would need real type inference, and
            // guessing floods the graph with false edges — a
            // documented precision gap; the local token rules still
            // cover such leaves inside gated modules.
            None if methods.len() == 1 && !STD_METHOD_NAMES.contains(&raw.name.as_str()) => methods,
            None => return (Vec::new(), false),
        }
    } else if !raw.qualifier.is_empty() {
        all.iter()
            .copied()
            .filter(|&f| qualifier_matches(&raw.qualifier, &fns[f], files, caller_crate))
            .collect()
    } else {
        // A local binding shadows any function: `let run = &closure;
        // run(x)` is a closure call, not an edge to some `fn run`
        // elsewhere in the workspace.
        if is_locally_bound(&raw.name, caller, toks, raw.at) {
            return (Vec::new(), false);
        }
        // Unqualified: same-file definitions win outright (including
        // cfg-gated twins of the same name, which are a deliberate
        // multi-definition).
        let same_file: Vec<usize> =
            all.iter().copied().filter(|&f| fns[f].file == caller_file).collect();
        if !same_file.is_empty() {
            return (same_file, false);
        }
        all.clone()
    };

    candidates.sort_unstable();
    candidates.dedup();
    if candidates.is_empty() {
        return (Vec::new(), false);
    }
    let first_file = fns[candidates[0]].file;
    let single_site = candidates.iter().all(|&f| fns[f].file == first_file);
    let ambiguous = candidates.len() > 1 && !single_site;
    (candidates, ambiguous)
}

/// Best-effort receiver type for a method call. `self.m()` uses the
/// enclosing impl's type; a plain identifier receiver is looked up in
/// the caller's parameter list (`x: &mut Ty`) and `let` bindings
/// (`let x: Ty = ..`, `let x = Ty::..` / `Ty(..)` / `Ty { .. }`),
/// last binding before the call winning. Field accesses
/// (`self.x.m()`) and expression receivers (`f().m()`) return `None`.
fn receiver_type(raw: &RawCall, caller: &FnDef, toks: &[Tok]) -> Option<String> {
    if raw.at < 2 {
        return None;
    }
    let recv = &toks[raw.at - 2];
    if recv.kind != TokKind::Ident {
        return None; // `).m()`, `].m()`, literal receivers
    }
    if raw.at >= 3 && toks[raw.at - 3].text == "." {
        return None; // field access: `self.cache.m()`
    }
    if recv.text == "self" {
        return caller.self_ty.clone();
    }
    let name = recv.text.as_str();
    let mut found: Option<String> = None;
    let (plo, phi) = caller.params;
    let mut i = plo;
    while i + 1 < phi {
        if toks[i].kind == TokKind::Ident && toks[i].text == name && toks[i + 1].text == ":" {
            found = type_head(toks, i + 2, phi);
        }
        i += 1;
    }
    let (blo, _) = caller.body;
    let hi = raw.at.min(toks.len());
    let mut j = blo;
    while j < hi {
        if toks[j].text == "let" && toks[j].kind == TokKind::Ident {
            let mut k = j + 1;
            if toks.get(k).map(|t| t.text.as_str()) == Some("mut") {
                k += 1;
            }
            if toks.get(k).map(|t| t.kind) == Some(TokKind::Ident) && toks[k].text == name {
                match toks.get(k + 1).map(|t| t.text.as_str()) {
                    Some(":") => found = type_head(toks, k + 2, hi),
                    Some("=") => {
                        // Constructor-head heuristic: `= Ty::..`,
                        // `= Ty(..)`, `= Ty { .. }`, `= Ty;` (unit).
                        found = match toks.get(k + 2) {
                            Some(t)
                                if t.kind == TokKind::Ident
                                    && t.text
                                        .chars()
                                        .next()
                                        .is_some_and(|c| c.is_ascii_uppercase())
                                    && matches!(
                                        toks.get(k + 3).map(|n| n.text.as_str()),
                                        Some("::" | "(" | "{" | ";")
                                    ) =>
                            {
                                Some(t.text.clone())
                            }
                            _ => None, // rebound to something untypeable
                        };
                    }
                    _ => {}
                }
            }
        }
        j += 1;
    }
    found
}

/// First concrete type identifier at `toks[i..hi]`, skipping reference
/// sigils, `mut`, `dyn`, and lifetimes. `impl Trait` heads yield
/// `None`; a generic parameter's single-letter name comes back as-is
/// and simply matches no workspace type.
fn type_head(toks: &[Tok], mut i: usize, hi: usize) -> Option<String> {
    while i < hi {
        match toks[i].text.as_str() {
            "&" | "&&" | "mut" | "dyn" => i += 1,
            _ if toks[i].kind == TokKind::Lifetime => i += 1,
            _ => break,
        }
    }
    if i >= hi {
        return None;
    }
    if toks[i].kind != TokKind::Ident || toks[i].text == "impl" {
        return None;
    }
    // Walk a path to its final segment: `gradest_geo::index::PackedRtree`
    // names the type `PackedRtree`.
    let mut last = i;
    while last + 2 < hi && toks[last + 1].text == "::" && toks[last + 2].kind == TokKind::Ident {
        last += 2;
    }
    Some(toks[last].text.clone())
}

/// Whether `name` is bound as a parameter or an earlier `let` in the
/// calling function — such a call goes through a closure or function
/// pointer, never directly to a workspace `fn` of the same name.
fn is_locally_bound(name: &str, caller: &FnDef, toks: &[Tok], before: usize) -> bool {
    let (plo, phi) = caller.params;
    for i in plo..phi.min(toks.len()) {
        if toks[i].kind == TokKind::Ident
            && toks[i].text == name
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
        {
            return true;
        }
    }
    let (blo, _) = caller.body;
    for j in blo..before.min(toks.len()) {
        if toks[j].kind == TokKind::Ident && toks[j].text == name && j > 0 {
            let prev = toks[j - 1].text.as_str();
            if prev == "let" || (prev == "mut" && j > 1 && toks[j - 2].text == "let") {
                return true;
            }
        }
    }
    false
}

/// Whether every qualifier segment matches the candidate's crate,
/// module path, or `Self` type. `crate`/`self`/`super` segments pin the
/// candidate to the caller's crate.
fn qualifier_matches(
    qualifier: &[String],
    cand: &FnDef,
    files: &[SourceFile],
    caller_crate: &str,
) -> bool {
    let file = &files[cand.file];
    let module_segs: Vec<&str> = file.module.split("::").collect();
    for seg in qualifier {
        let seg = seg.as_str();
        let ok = match seg {
            "crate" | "self" | "super" => file.krate == caller_crate,
            _ => {
                let norm = normalize_crate_seg(seg);
                norm == file.krate
                    || module_segs.contains(&norm)
                    || cand.self_ty.as_deref() == Some(seg)
            }
        };
        if !ok {
            return false;
        }
    }
    true
}

/// Collects `pub` item declarations (excluding `pub use` / `pub mod`)
/// from one file's token stream.
fn collect_pub_items(
    toks: &[Tok],
    excluded: &[bool],
    impls: &[((usize, usize), String)],
    file: usize,
    out: &mut Vec<PubItem>,
) {
    const KINDS: &[&str] = &["fn", "struct", "enum", "trait", "type", "static"];
    for i in 0..toks.len() {
        if excluded[i] || !(toks[i].kind == TokKind::Ident && toks[i].text == "pub") {
            continue;
        }
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some("(") {
            continue; // pub(crate) / pub(super): not public API
        }
        let mut j = i + 1;
        let mut kind: Option<&'static str> = None;
        loop {
            let t = toks.get(j).map(|t| t.text.as_str()).unwrap_or("");
            if let Some(k) = KINDS.iter().find(|k| **k == t) {
                kind = Some(k);
                j += 1;
                break;
            }
            match t {
                "const" => {
                    // `pub const fn f` vs `pub const NAME: ..`.
                    if toks.get(j + 1).map(|t| t.text.as_str()) == Some("fn") {
                        j += 1;
                    } else {
                        kind = Some("const");
                        j += 1;
                        break;
                    }
                }
                "unsafe" | "async" | "extern" => j += 1,
                _ if toks.get(j).map(|t| t.kind) == Some(TokKind::Str) => j += 1, // extern "C"
                _ => break,
            }
        }
        let (Some(kind), Some(name_tok)) = (kind, toks.get(j)) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let self_ty = impl_type_at(impls, i);
        // A `self` in the signature that does not start a `self::` path.
        let head = toks[j..].iter().take_while(|t| !matches!(t.text.as_str(), "{" | ";"));
        let head: Vec<&str> = head.map(|t| t.text.as_str()).collect();
        let method = kind == "fn" && head.windows(2).any(|w| w[0] == "self" && w[1] != "::");
        out.push(PubItem {
            name: name_tok.text.clone(),
            kind,
            file,
            line: toks[i].line,
            names: declared_names(toks, kind, j),
            self_ty,
            method,
        });
    }
}

/// Identifiers in the public declaration of the item whose name token
/// sits at `name` (see [`PubItem::names`]).
fn declared_names(toks: &[Tok], kind: &str, name: usize) -> BTreeSet<String> {
    let text = |i: usize| toks.get(i).map(|t| t.text.as_str()).unwrap_or("");
    let idents = |lo: usize, hi: usize| -> Vec<String> {
        toks[lo.min(toks.len())..hi.min(toks.len())]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .collect()
    };
    // First `{`/`;` (or `(`, when `paren` is set) after the name.
    let head_end = |paren: bool| {
        let mut k = name + 1;
        while k < toks.len() && !matches!(text(k), "{" | ";") && !(paren && text(k) == "(") {
            k += 1;
        }
        k
    };
    let mut names: Vec<String> = Vec::new();
    match kind {
        "fn" => names = idents(name + 1, head_end(false)),
        "type" | "const" | "static" => {
            let (from, to) = if kind == "type" { ("=", ";") } else { (":", "=") };
            let mut k = name + 1;
            while k < toks.len() && text(k) != from && text(k) != ";" {
                k += 1;
            }
            let mut end = k;
            while end < toks.len() && text(end) != to && text(end) != ";" {
                end += 1;
            }
            names = idents(k, end);
        }
        "enum" => {
            let open = head_end(false);
            if text(open) == "{" {
                names = idents(open, rules::matching(toks, open));
            }
        }
        "trait" => {
            // Supertraits and item signatures; default method bodies
            // are implementation, not declaration.
            let open = head_end(false);
            names = idents(name + 1, open);
            if text(open) == "{" {
                let close = rules::matching(toks, open);
                let mut k = open + 1;
                while k < close {
                    if text(k) == "{" {
                        k = rules::matching(toks, k) + 1;
                        continue;
                    }
                    names.extend(idents(k, k + 1));
                    k += 1;
                }
            }
        }
        "struct" => {
            // Only `pub` fields are public declaration.
            let open = head_end(true);
            if matches!(text(open), "{" | "(") {
                let close = rules::matching(toks, open);
                let mut depth = 0i32;
                let mut field_start = open + 1;
                for k in open + 1..=close.min(toks.len().saturating_sub(1)) {
                    match text(k) {
                        "(" | "[" | "{" | "<" => depth += 1,
                        ")" | "]" | "}" | ">" => depth -= 1,
                        "<<" => depth += 2,
                        ">>" => depth -= 2,
                        _ => {}
                    }
                    let at_end = k == close || (depth == 0 && text(k) == ",");
                    if !at_end {
                        continue;
                    }
                    let mut f = field_start;
                    while text(f) == "#" && text(f + 1) == "[" {
                        f = rules::matching(toks, f + 1) + 1;
                    }
                    if text(f) == "pub" && text(f + 1) != "(" {
                        names.extend(idents(f + 1, k));
                    }
                    field_start = k + 1;
                }
            }
        }
        _ => {}
    }
    names.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> (PathBuf, String) {
        (PathBuf::from(path), src.to_string())
    }

    #[test]
    fn module_identity_covers_nested_and_facade() {
        let m = |p: &str| graph_module(Path::new(p));
        assert_eq!(
            m("crates/core/src/pipeline.rs"),
            Some(("core".into(), "core::pipeline".into()))
        );
        assert_eq!(
            m("crates/bench/src/experiments/fleet_scaling.rs"),
            Some(("bench".into(), "bench::experiments::fleet_scaling".into()))
        );
        assert_eq!(m("src/lib.rs"), Some(("gradest".into(), "gradest::lib".into())));
        assert_eq!(m("README.md"), None);
    }

    #[test]
    fn cross_module_qualified_call_resolves() {
        let g = Graph::build(vec![
            file(
                "crates/core/src/pipeline.rs",
                "pub fn estimate_into(out: &mut [f64]) { gradest_geo::index::probe(out); }",
            ),
            file("crates/geo/src/index.rs", "pub fn probe(out: &mut [f64]) { out.sort(); }"),
        ]);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.calls.len(), 1);
        let call = &g.calls[0];
        assert!(!call.ambiguous);
        assert_eq!(g.fn_display(call.targets[0]), "geo::index::probe");
    }

    #[test]
    fn method_call_name_matches_methods_only() {
        let g = Graph::build(vec![
            file(
                "crates/core/src/track.rs",
                "pub struct T;\nimpl T {\n    pub fn refill(&self) {}\n}\nfn free_refill() {}\nfn caller(t: &T) { t.refill(); }",
            ),
        ]);
        let call = g.calls.iter().find(|c| c.display == ".refill").expect("method call edge");
        assert_eq!(call.targets.len(), 1);
        assert_eq!(g.fn_display(call.targets[0]), "core::track::T::refill");
    }

    #[test]
    fn unknown_receiver_with_multiple_method_defs_gets_no_edge() {
        // `.go` is defined twice and the receiver type is not
        // inferable (call-result chain): guessing would flood the
        // graph, so no edge is produced.
        let g = Graph::build(vec![
            file("crates/a/src/one.rs", "pub struct A;\nimpl A { pub fn go(&self) {} }"),
            file("crates/b/src/two.rs", "pub struct B;\nimpl B { pub fn go(&self) {} }"),
            file(
                "crates/c/src/three.rs",
                "pub fn caller() { make().go(); }\nfn make() -> u32 { 0 }",
            ),
        ]);
        assert!(!g.calls.iter().any(|c| c.display == ".go"), "{:?}", g.calls);
    }

    #[test]
    fn typed_receivers_pin_method_resolution() {
        let g = Graph::build(vec![
            file("crates/a/src/one.rs", "pub struct A;\nimpl A { pub fn go(&self) {} pub fn this(&self) { self.go(); } }"),
            file("crates/b/src/two.rs", "pub struct B;\nimpl B { pub fn go(&self) {} }"),
            file(
                "crates/c/src/three.rs",
                "pub fn by_param(x: &gradest_a::A) { x.go(); }\npub fn by_let() { let y = B::default(); y.go(); }",
            ),
        ]);
        let displays: Vec<(String, String)> = g
            .calls
            .iter()
            .filter(|c| c.display == ".go")
            .map(|c| (g.fn_display(c.caller), g.fn_display(c.targets[0])))
            .collect();
        assert_eq!(
            displays,
            vec![
                ("a::one::A::this".to_string(), "a::one::A::go".to_string()),
                ("c::three::by_param".to_string(), "a::one::A::go".to_string()),
                ("c::three::by_let".to_string(), "b::two::B::go".to_string()),
            ]
        );
        assert!(g.calls.iter().filter(|c| c.display == ".go").all(|c| !c.ambiguous));
    }

    #[test]
    fn locally_bound_names_produce_no_free_call_edge() {
        // `let run = ..; run(x)` is a closure call, and a callable
        // parameter `f(x)` likewise — neither may edge to the
        // unrelated workspace `fn run`.
        let g = Graph::build(vec![
            file("crates/a/src/worker.rs", "pub fn run(_x: u32) {}"),
            file(
                "crates/b/src/pool.rs",
                "pub fn spawn_all(f: impl Fn(u32)) { let run = &f; run(1); f(2); }",
            ),
        ]);
        assert!(g.calls.is_empty(), "{:?}", g.calls);
    }

    #[test]
    fn impl_for_takes_self_type_after_for() {
        let g = Graph::build(vec![file(
            "crates/obs/src/recorder.rs",
            "pub trait Recorder { fn event(&self) {} }\npub struct Noop;\nimpl Recorder for Noop { fn event(&self) {} }",
        )]);
        let tys: Vec<Option<&str>> = g.fns.iter().map(|f| f.self_ty.as_deref()).collect();
        assert_eq!(tys, vec![Some("Recorder"), Some("Noop")]);
    }

    #[test]
    fn reach_and_chain_reconstruct_two_hops() {
        let g = Graph::build(vec![
            file("crates/a/src/entry.rs", "pub fn run_into(o: &mut [u8]) { middle(o); }"),
            file("crates/a/src/mid.rs", "pub fn middle(o: &mut [u8]) { crate::leafy::leaf(o); }"),
            file("crates/a/src/leafy.rs", "pub fn leaf(_o: &mut [u8]) { }"),
        ]);
        let roots = g.fns_in_module_named("a::entry", "run_into");
        assert_eq!(roots.len(), 1);
        let parent = g.reach(&roots);
        let leaf = g.fns_in_module_named("a::leafy", "leaf")[0];
        let chain = g.chain(&parent, leaf);
        let names: Vec<String> = chain.iter().map(|&f| g.fn_display(f)).collect();
        assert_eq!(names, vec!["a::entry::run_into", "a::mid::middle", "a::leafy::leaf"]);
    }

    #[test]
    fn declarations_name_only_the_public_surface() {
        let g = Graph::build(vec![file(
            "crates/a/src/m.rs",
            "pub struct S { pub a: A, b: B }\npub struct P(pub Q, R);\npub enum E { V(C) }\n\
             pub fn f(x: D) -> F { body() }\npub trait T: G { fn g(&self) -> H { I } }\n\
             pub type Al = J;\npub const K: L = M;",
        )]);
        let names = |n: &str| &g.pub_items.iter().find(|i| i.name == n).expect(n).names;
        let has = |n: &str, id: &str| names(n).contains(id);
        assert!(has("S", "A") && !has("S", "B"), "private field: {:?}", names("S"));
        assert!(has("P", "Q") && !has("P", "R"), "{:?}", names("P"));
        assert!(has("E", "C"));
        assert!(has("f", "D") && has("f", "F") && !has("f", "body"));
        assert!(has("T", "G") && has("T", "H") && !has("T", "I"), "{:?}", names("T"));
        assert!(has("Al", "J"));
        assert!(has("K", "L") && !has("K", "M"));
    }

    #[test]
    fn test_code_produces_no_fns_or_calls() {
        let g = Graph::build(vec![file(
            "crates/a/src/x.rs",
            "pub fn real() {}\n#[cfg(test)]\nmod tests {\n    fn t() { super::real(); }\n}",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert!(g.calls.is_empty());
    }

    #[test]
    fn turbofish_and_fn_defs_are_handled() {
        let g = Graph::build(vec![
            file("crates/a/src/m.rs", "pub fn pick<T>(x: T) -> T { x }"),
            file("crates/a/src/n.rs", "pub fn caller() { pick::<u32>(1); }"),
        ]);
        assert_eq!(g.calls.len(), 1);
        assert_eq!(g.fn_display(g.calls[0].targets[0]), "a::m::pick");
    }
}
