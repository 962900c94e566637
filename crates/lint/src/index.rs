//! Workspace symbol/occurrence index: the cross-file analysis layer.
//!
//! Per-file rules see one [`FileCtx`] at a time; the concurrency rules
//! (`lock-order`, `counter-pairing`) need to reason about the whole
//! crate — which struct fields are locks, which functions acquire them,
//! who calls whom while holding what, and where every telemetry counter
//! is incremented. This module builds that picture lexically, on top of
//! the existing token streams, with no type information:
//!
//! 1. **Lock registry** — every struct field whose declared type mentions
//!    `Mutex` / `RwLock` (including through `Arc<…>`) becomes a named
//!    lock `Type::field`.
//! 2. **Function table** — every `fn` with a body, qualified by its
//!    enclosing `impl` type (`Queue::guard`) or bare for free functions,
//!    with the token range of the body.
//! 3. **Occurrences** — inside each body: lock acquisitions
//!    (`x.field.lock()` / `.read()` / `.write()` on a registered field),
//!    method/function calls, `drop(guard)` sites, and
//!    `counter.fetch_add(…)` sites.
//! 4. **Guard regions** — each acquisition gets a lexical *hold region*:
//!    from the acquisition to the **last** `drop(guard)` of its binding
//!    (conservative: branches may drop earlier), or to the end of the
//!    statement for un-bound temporaries, or to the end of the function
//!    when the guard is the tail expression — in which case the function
//!    is marked as *returning* that guard, and its call sites count as
//!    acquisitions themselves (`Queue::guard()` → holds `Queue::items`).
//! 5. **Call summaries** — a fixpoint propagates the set of locks each
//!    function may acquire through the (name-resolved) call graph, so
//!    `f` holding lock A while calling `g` picks up every lock `g` can
//!    take, transitively.
//!
//! Known limits, by construction (documented in DESIGN.md): resolution
//! is by method *name* (a `self.`-receiver prefers the enclosing impl;
//! other receivers match any function of that name in the indexed
//! crates), guard scopes are lexical rather than control-flow-aware, and
//! nested `fn` items attribute their occurrences to the enclosing
//! function too. All of these over-approximate, which for deadlock
//! detection errs on the loud side; false positives take a
//! `lint:allow(lock-order)` with a reason.

use crate::lexer::Token;
use crate::scanner::FileCtx;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose files are indexed (the concurrency-rule scope).
pub use crate::rules::LOCK_ORDER_CRATES as INDEXED_CRATES;

/// What a registered lock's acquisition methods are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex`: acquired via `.lock()`.
    Mutex,
    /// `std::sync::RwLock`: acquired via `.read()` / `.write()`.
    RwLock,
}

/// One lock acquisition occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Acquire {
    /// Canonical lock name, `Type::field`.
    pub lock: String,
    /// 1-based source line of the acquisition.
    pub line: u32,
    /// Token index of the acquiring method name.
    pub tok: usize,
    /// Token index where the guard's lexical hold region ends.
    pub end: usize,
    /// The guard escapes the function as its return value.
    pub tail_guard: bool,
}

/// One call occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    /// Bare callee name (`send`, `collect`, …).
    pub name: String,
    /// The receiver is literally `self`.
    pub recv_self: bool,
    /// 1-based source line.
    pub line: u32,
    /// Token index of the callee name.
    pub tok: usize,
}

/// One indexed function.
#[derive(Debug)]
pub struct FnInfo {
    /// Qualified name: `Type::name` inside an impl, else the bare name.
    pub qual: String,
    /// Unqualified name, for call resolution.
    pub bare: String,
    /// Enclosing `impl` type, if any.
    pub owner: Option<String>,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body (indices of `{` and `}` inclusive).
    pub body: (usize, usize),
    /// Direct lock acquisitions, in token order.
    pub acquires: Vec<Acquire>,
    /// Calls, in token order.
    pub calls: Vec<Call>,
    /// Lock whose guard this function returns to its caller, if any.
    pub returns_guard_of: Option<String>,
}

/// A `counter.fetch_add(…)` or counter field declaration occurrence.
#[derive(Debug, Clone)]
pub struct CounterSite {
    /// Counter (field/binding) name.
    pub name: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
}

/// The cross-file index the workspace rules consume.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Every indexed function, in (file, token) order.
    pub fns: Vec<FnInfo>,
    /// Registered locks: canonical name → kind.
    pub locks: BTreeMap<String, LockKind>,
    /// Field name → canonical lock names sharing it (usually one).
    pub lock_fields: BTreeMap<String, Vec<String>>,
    /// Atomic counter field declarations (`name: AtomicU64`).
    pub counter_decls: Vec<CounterSite>,
    /// `*.fetch_add(…)` sites.
    pub fetch_adds: Vec<CounterSite>,
    /// Per-function set of locks it may acquire, transitively (parallel
    /// to `fns`).
    pub locks_used: Vec<BTreeSet<String>>,
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "in", "as", "move",
    "unsafe", "break", "continue", "where", "impl", "dyn", "ref", "mut", "pub",
];

/// Find the matching `}` for the `{` at `open` (returns `open` when
/// unbalanced — callers treat that as an empty body).
fn match_brace(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (idx, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return idx;
            }
        }
    }
    open
}

/// Build the index over every file of the indexed crates, skipping test
/// code (test paths and `#[cfg(test)]` regions).
pub fn build(ctxs: &[FileCtx]) -> WorkspaceIndex {
    let mut idx = WorkspaceIndex::default();
    let in_scope =
        |ctx: &&FileCtx| INDEXED_CRATES.contains(&ctx.crate_name.as_str()) && !ctx.test_path;

    // Pass 1: lock registry and counter occurrences.
    for ctx in ctxs.iter().filter(in_scope) {
        scan_struct_lock_fields(ctx, &mut idx);
        scan_counters(ctx, &mut idx);
    }

    // Pass 2: function table with direct acquisitions and calls.
    for ctx in ctxs.iter().filter(in_scope) {
        scan_fns(ctx, &mut idx);
    }

    // Pass 3: guard-returning helpers, one extra round so a wrapper of a
    // guard-returning helper is recognised too (the live tree has none;
    // `tail_guard_marks_fn_as_guard_returning_and_propagates` covers one).
    for _ in 0..2 {
        propagate_returned_guards(&mut idx, ctxs);
    }

    // Pass 4: a call to a guard-returning helper IS an acquisition at the
    // call site (`let g = self.guard();` holds `Queue::items` until the
    // guard dies) — materialise those as synthetic acquires with their
    // own hold regions.
    add_synthetic_acquires(&mut idx, ctxs);

    // Pass 5: transitive lock-use summaries over the call graph.
    idx.locks_used = locks_used_fixpoint(&idx);
    idx
}

/// Register `Type::field` for every struct field whose type mentions
/// `Mutex`/`RwLock`.
fn scan_struct_lock_fields(ctx: &FileCtx, idx: &mut WorkspaceIndex) {
    let toks = &ctx.tokens;
    let n = toks.len();
    let mut i = 0;
    while i < n {
        if !toks[i].is_ident("struct") || ctx.in_test(toks[i].line) {
            i += 1;
            continue;
        }
        let Some(ty) = toks.get(i + 1).and_then(Token::ident).map(str::to_string) else {
            i += 1;
            continue;
        };
        // Find the field block `{`; a `;` or `(` first means unit/tuple.
        let mut open = None;
        let mut j = i + 2;
        let mut angle = 0i32;
        while j < n {
            if toks[j].is_punct("<") {
                angle += 1;
            } else if toks[j].is_punct(">") {
                angle -= 1;
            } else if angle <= 0 && (toks[j].is_punct(";") || toks[j].is_punct("(")) {
                break;
            } else if angle <= 0 && toks[j].is_punct("{") {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let close = match_brace(toks, open);
        // Fields at depth 1: `name : <type tokens> ,` — a type mentioning
        // Mutex/RwLock registers the field.
        let mut k = open + 1;
        while k < close {
            let field = toks[k].ident().map(str::to_string);
            if let (Some(field), true) = (field, toks.get(k + 1).is_some_and(|t| t.is_punct(":"))) {
                // Scan the type tokens to the field-separating comma.
                let mut depth = 0i32;
                let mut m = k + 2;
                let mut kind = None;
                while m < close {
                    let t = &toks[m];
                    if t.is_punct("<") || t.is_punct("(") || t.is_punct("[") {
                        depth += 1;
                    } else if t.is_punct(">") || t.is_punct(")") || t.is_punct("]") {
                        depth -= 1;
                    } else if t.is_punct(">>") {
                        depth -= 2;
                    } else if t.is_punct(",") && depth <= 0 {
                        break;
                    } else if t.is_ident("Mutex") {
                        kind = Some(LockKind::Mutex);
                    } else if t.is_ident("RwLock") && kind.is_none() {
                        kind = Some(LockKind::RwLock);
                    }
                    m += 1;
                }
                if let Some(kind) = kind {
                    let canonical = format!("{ty}::{field}");
                    idx.locks.insert(canonical.clone(), kind);
                    idx.lock_fields.entry(field).or_default().push(canonical);
                }
                k = m + 1;
                continue;
            }
            k += 1;
        }
        i = close + 1;
    }
}

/// Record `name: AtomicU64` field declarations and `name.fetch_add(…)`
/// sites (test code excluded).
fn scan_counters(ctx: &FileCtx, idx: &mut WorkspaceIndex) {
    let toks = &ctx.tokens;
    let n = toks.len();
    for i in 0..n {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if ctx.in_test(toks[i].line) {
            continue;
        }
        // Declaration: `name : [path::]AtomicU64`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct(":")) {
            let mut j = i + 2;
            while j < n
                && (toks[j].is_punct("::")
                    || toks[j]
                        .ident()
                        .is_some_and(|s| s == "std" || s == "sync" || s == "atomic"))
            {
                j += 1;
            }
            if toks
                .get(j)
                .is_some_and(|t| t.is_ident("AtomicU64") || t.is_ident("AtomicUsize"))
            {
                idx.counter_decls.push(CounterSite {
                    name: name.to_string(),
                    file: ctx.path.clone(),
                    line: toks[i].line,
                });
            }
        }
        // Increment: `name . fetch_add (`.
        if toks.get(i + 1).is_some_and(|t| t.is_punct("."))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("fetch_add"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
        {
            idx.fetch_adds.push(CounterSite {
                name: name.to_string(),
                file: ctx.path.clone(),
                line: toks[i + 2].line,
            });
        }
    }
}

/// Collect every `fn` with a body, qualified by enclosing `impl` type.
fn scan_fns(ctx: &FileCtx, idx: &mut WorkspaceIndex) {
    let toks = &ctx.tokens;
    let n = toks.len();

    // Impl spans: (type name, body token range).
    let mut impls: Vec<(String, (usize, usize))> = Vec::new();
    let mut i = 0;
    while i < n {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Skip generic parameters directly after `impl`.
        let mut j = i + 1;
        if toks.get(j).is_some_and(|t| t.is_punct("<")) {
            let mut d = 0i32;
            while j < n {
                if toks[j].is_punct("<") {
                    d += 1;
                } else if toks[j].is_punct(">") {
                    d -= 1;
                    if d == 0 {
                        j += 1;
                        break;
                    }
                } else if toks[j].is_punct(">>") {
                    d -= 2;
                    if d <= 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Path segments up to `for` / `where` / `{`; `impl Trait for Type`
        // attributes methods to `Type`.
        let mut last_path_ident = String::new();
        let mut d = 0i32;
        while j < n {
            let t = &toks[j];
            if t.is_punct("<") {
                d += 1;
            } else if t.is_punct(">") {
                d -= 1;
            } else if t.is_punct(">>") {
                d -= 2;
            } else if d <= 0 {
                if t.is_punct("{") {
                    break;
                }
                if t.is_ident("for") {
                    last_path_ident.clear(); // the real type follows
                } else if t.is_ident("where") {
                    // generic bounds until `{`
                } else if let Some(s) = t.ident() {
                    last_path_ident = s.to_string();
                }
            }
            j += 1;
        }
        if j < n && toks[j].is_punct("{") && !last_path_ident.is_empty() {
            let close = match_brace(toks, j);
            impls.push((last_path_ident, (j, close)));
            // Do not skip past the impl body: `fn` scanning below is a
            // separate pass, and impls do not nest.
        }
        i = j.max(i + 1);
    }

    let owner_of = |tok: usize| -> Option<String> {
        impls
            .iter()
            .filter(|(_, (open, close))| *open < tok && tok < *close)
            .map(|(ty, _)| ty.clone())
            .next_back() // innermost span
    };

    let mut i = 0;
    while i < n {
        if !toks[i].is_ident("fn") || ctx.in_test(toks[i].line) {
            i += 1;
            continue;
        }
        let Some(bare) = toks.get(i + 1).and_then(Token::ident).map(str::to_string) else {
            i += 1;
            continue;
        };
        // Find the body `{` (a `;` at depth 0 first means a declaration,
        // e.g. inside `extern "C" { … }`).
        let mut j = i + 2;
        let mut d = 0i32;
        let mut open = None;
        while j < n {
            let t = &toks[j];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
                d += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
                d -= 1;
            } else if t.is_punct(">>") {
                d -= 2;
            } else if d <= 0 && t.is_punct(";") {
                break;
            } else if d <= 0 && t.is_punct("{") {
                open = Some(j);
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j.max(i + 1);
            continue;
        };
        let close = match_brace(toks, open);
        let owner = owner_of(i);
        let qual = match &owner {
            Some(ty) => format!("{ty}::{bare}"),
            None => bare.clone(),
        };
        let mut info = FnInfo {
            qual,
            bare,
            owner,
            file: ctx.path.clone(),
            line: toks[i].line,
            body: (open, close),
            acquires: Vec::new(),
            calls: Vec::new(),
            returns_guard_of: None,
        };
        scan_body(ctx, idx, &mut info);
        if let Some(tail) = info.acquires.iter().find(|a| a.tail_guard) {
            info.returns_guard_of = Some(tail.lock.clone());
        }
        idx.fns.push(info);
        // Continue scanning *inside* the body too (nested fns), so do not
        // jump past `close`.
        i += 2;
    }
}

/// Scan one function body for acquisitions and calls.
fn scan_body(ctx: &FileCtx, idx: &WorkspaceIndex, info: &mut FnInfo) {
    let toks = &ctx.tokens;
    let (open, close) = info.body;
    let mut acquire_toks = BTreeSet::new();
    let mut k = open + 1;
    while k < close {
        let t = &toks[k];
        let Some(name) = t.ident() else {
            k += 1;
            continue;
        };
        // Acquisition: `<field> . lock ( )` (or `.read()`/`.write()` on a
        // registered RwLock field).
        let is_method = k >= 1 && toks[k - 1].is_punct(".");
        let zero_arg = toks.get(k + 1).is_some_and(|x| x.is_punct("("))
            && toks.get(k + 2).is_some_and(|x| x.is_punct(")"));
        if is_method && zero_arg && matches!(name, "lock" | "read" | "write") && k >= 2 {
            if let Some(field) = toks[k - 2].ident() {
                if let Some(cands) = idx.lock_fields.get(field) {
                    let want = if name == "lock" {
                        LockKind::Mutex
                    } else {
                        LockKind::RwLock
                    };
                    let matching: Vec<&String> = cands
                        .iter()
                        .filter(|c| idx.locks.get(*c) == Some(&want))
                        .collect();
                    if let Some(lock) = matching.first() {
                        let (end, tail_guard) = guard_region(toks, open, close, k);
                        info.acquires.push(Acquire {
                            lock: (*lock).clone(),
                            line: t.line,
                            tok: k,
                            end,
                            tail_guard,
                        });
                        acquire_toks.insert(k);
                        k += 1;
                        continue;
                    }
                }
            }
        }
        // Call: `name (` — a macro is `name ! (`, so requiring `(` right
        // after the name already excludes it.
        if toks.get(k + 1).is_some_and(|x| x.is_punct("("))
            && !KEYWORDS.contains(&name)
            && name != "drop"
            && !acquire_toks.contains(&k)
        {
            let recv_self = is_method && k >= 2 && toks[k - 2].is_ident("self");
            info.calls.push(Call {
                name: name.to_string(),
                recv_self,
                line: t.line,
                tok: k,
            });
        }
        k += 1;
    }
}

/// Lexical hold region of the guard produced by the acquisition at token
/// `at`: `(end_token, guard_is_tail_expression)`.
fn guard_region(toks: &[Token], open: usize, close: usize, at: usize) -> (usize, bool) {
    // Statement start: the token after the previous `;`/`{`/`}`.
    let mut s = at;
    while s > open {
        if toks[s - 1].is_punct(";") || toks[s - 1].is_punct("{") || toks[s - 1].is_punct("}") {
            break;
        }
        s -= 1;
    }
    // Binding: `let [mut] <ident> = …`.
    let mut guard_var = None;
    if toks.get(s).is_some_and(|t| t.is_ident("let")) {
        let mut v = s + 1;
        if toks.get(v).is_some_and(|t| t.is_ident("mut")) {
            v += 1;
        }
        match toks.get(v).and_then(Token::ident) {
            Some(id) => guard_var = Some(id.to_string()),
            // Pattern binding (`let (g, _) = …`): conservatively hold to
            // the end of the function.
            None => return (close, false),
        }
    }
    match guard_var {
        Some(v) => {
            // A later `let [mut] v = …` re-binding kills this guard, so
            // the region never extends past it (otherwise a loop that
            // re-locks under the same name would look like a
            // self-deadlock).
            let mut limit = close;
            let mut k = at + 1;
            while k + 2 < close {
                if toks[k].is_ident("let") {
                    let mut m = k + 1;
                    if toks.get(m).is_some_and(|t| t.is_ident("mut")) {
                        m += 1;
                    }
                    if toks.get(m).is_some_and(|t| t.is_ident(&v))
                        && toks.get(m + 1).is_some_and(|t| t.is_punct("="))
                    {
                        limit = k;
                        break;
                    }
                }
                k += 1;
            }
            // Last `drop ( v )` before the limit, else held to the limit
            // (conservative: branches may drop earlier).
            let mut end = limit;
            let mut k = at;
            while k + 3 < limit {
                if toks[k].is_ident("drop")
                    && toks[k + 1].is_punct("(")
                    && toks[k + 2].is_ident(&v)
                    && toks[k + 3].is_punct(")")
                {
                    end = k;
                }
                k += 1;
            }
            (end, false)
        }
        None => {
            // An explicit `return <acquire>…` hands the guard to the
            // caller regardless of the trailing `;`.
            if toks.get(s).is_some_and(|t| t.is_ident("return")) {
                return (close, true);
            }
            // Temporary: held to the end of the statement; a statement
            // that never terminates before the body's `}` is the tail
            // expression — the guard escapes to the caller.
            let mut d = 0i32;
            let mut k = at + 1;
            while k < close {
                let t = &toks[k];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    d += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    d -= 1;
                } else if t.is_punct(";") && d <= 0 {
                    return (k, false);
                }
                k += 1;
            }
            (close, true)
        }
    }
}

/// Mark wrappers of guard-returning helpers as guard-returning too: a
/// call to such a helper in tail position re-exports the guard.
fn propagate_returned_guards(idx: &mut WorkspaceIndex, ctxs: &[FileCtx]) {
    let returners: BTreeMap<String, String> = idx
        .fns
        .iter()
        .filter_map(|f| f.returns_guard_of.clone().map(|l| (f.bare.clone(), l)))
        .collect();
    let toks_of: BTreeMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.path.as_str(), c)).collect();
    for f in &mut idx.fns {
        if f.returns_guard_of.is_some() {
            continue;
        }
        let Some(ctx) = toks_of.get(f.file.as_str()) else {
            continue;
        };
        for c in &f.calls {
            let Some(lock) = returners.get(&c.name) else {
                continue;
            };
            let (_, tail) = guard_region(&ctx.tokens, f.body.0, f.body.1, c.tok);
            if tail {
                f.returns_guard_of = Some(lock.clone());
                break;
            }
        }
    }
}

/// Materialise calls to guard-returning helpers as acquisitions at the
/// call site, with the hold region computed from the call's binding.
fn add_synthetic_acquires(idx: &mut WorkspaceIndex, ctxs: &[FileCtx]) {
    let returners: BTreeMap<String, String> = idx
        .fns
        .iter()
        .filter_map(|f| f.returns_guard_of.clone().map(|l| (f.bare.clone(), l)))
        .collect();
    if returners.is_empty() {
        return;
    }
    let toks_of: BTreeMap<&str, &FileCtx> = ctxs.iter().map(|c| (c.path.as_str(), c)).collect();
    for f in &mut idx.fns {
        let Some(ctx) = toks_of.get(f.file.as_str()) else {
            continue;
        };
        let mut synth = Vec::new();
        for c in &f.calls {
            let Some(lock) = returners.get(&c.name) else {
                continue;
            };
            let (end, tail_guard) = guard_region(&ctx.tokens, f.body.0, f.body.1, c.tok);
            synth.push(Acquire {
                lock: lock.clone(),
                line: c.line,
                tok: c.tok,
                end,
                tail_guard,
            });
        }
        if !synth.is_empty() {
            f.acquires.extend(synth);
            f.acquires.sort_by_key(|a| a.tok);
        }
    }
}

/// Fixpoint of "locks this function may acquire, transitively".
fn locks_used_fixpoint(idx: &WorkspaceIndex) -> Vec<BTreeSet<String>> {
    let mut used: Vec<BTreeSet<String>> = idx
        .fns
        .iter()
        .map(|f| {
            let mut s: BTreeSet<String> = f.acquires.iter().map(|a| a.lock.clone()).collect();
            if let Some(l) = &f.returns_guard_of {
                s.insert(l.clone());
            }
            s
        })
        .collect();
    for _ in 0..idx.fns.len().max(1) {
        let mut changed = false;
        for i in 0..idx.fns.len() {
            let mut add = BTreeSet::new();
            for c in &idx.fns[i].calls {
                for j in resolve_call(idx, i, c) {
                    for l in &used[j] {
                        if !used[i].contains(l) {
                            add.insert(l.clone());
                        }
                    }
                }
            }
            if !add.is_empty() {
                used[i].extend(add);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    used
}

/// Resolve a call site to candidate function indices: a `self.` receiver
/// prefers the enclosing impl's method, otherwise every indexed function
/// with the bare name matches.
pub fn resolve_call(idx: &WorkspaceIndex, caller: usize, call: &Call) -> Vec<usize> {
    if call.recv_self {
        if let Some(ty) = &idx.fns[caller].owner {
            let qual = format!("{ty}::{}", call.name);
            let exact: Vec<usize> = idx
                .fns
                .iter()
                .enumerate()
                .filter(|(_, f)| f.qual == qual)
                .map(|(i, _)| i)
                .collect();
            if !exact.is_empty() {
                return exact;
            }
        }
    }
    idx.fns
        .iter()
        .enumerate()
        .filter(|(i, f)| f.bare == call.name && *i != caller)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str, src: &str) -> FileCtx {
        FileCtx::new(path, src)
    }

    #[test]
    fn lock_fields_are_registered_through_arc() {
        let c = ctx(
            "crates/serve/src/x.rs",
            "use std::sync::{Arc, Mutex, RwLock};\n\
             struct S { inner: Arc<Mutex<u32>>, map: RwLock<Vec<u8>>, plain: u32 }\n",
        );
        let idx = build(std::slice::from_ref(&c));
        assert_eq!(idx.locks.get("S::inner"), Some(&LockKind::Mutex));
        assert_eq!(idx.locks.get("S::map"), Some(&LockKind::RwLock));
        assert!(!idx.locks.contains_key("S::plain"));
    }

    #[test]
    fn acquisition_site_and_drop_bounded_region() {
        let c = ctx(
            "crates/serve/src/x.rs",
            "use std::sync::Mutex;\n\
             struct S { m: Mutex<u32> }\n\
             fn f(s: &S) {\n\
                 let g = s.m.lock().unwrap();\n\
                 drop(g);\n\
                 side_effect();\n\
             }\n",
        );
        let idx = build(std::slice::from_ref(&c));
        let f = idx.fns.iter().find(|f| f.bare == "f").expect("indexed");
        assert_eq!(f.acquires.len(), 1);
        let a = &f.acquires[0];
        assert_eq!(a.lock, "S::m");
        assert_eq!(a.line, 4);
        // The region ends at the drop: the later call is not under it.
        let call = f.calls.iter().find(|c| c.name == "side_effect").unwrap();
        assert!(a.end < call.tok, "drop(g) should end the hold region");
    }

    #[test]
    fn tail_guard_marks_fn_as_guard_returning_and_propagates() {
        let c = ctx(
            "crates/serve/src/x.rs",
            "use std::sync::{Mutex, MutexGuard};\n\
             struct S { m: Mutex<u32> }\n\
             impl S {\n\
                 fn lock(&self) -> MutexGuard<'_, u32> {\n\
                     self.m.lock().unwrap()\n\
                 }\n\
                 fn wrapper(&self) -> MutexGuard<'_, u32> {\n\
                     self.lock()\n\
                 }\n\
             }\n",
        );
        let idx = build(std::slice::from_ref(&c));
        let lockfn = idx.fns.iter().find(|f| f.qual == "S::lock").unwrap();
        assert_eq!(lockfn.returns_guard_of.as_deref(), Some("S::m"));
        let wrapper = idx.fns.iter().find(|f| f.qual == "S::wrapper").unwrap();
        assert_eq!(wrapper.returns_guard_of.as_deref(), Some("S::m"));
    }

    #[test]
    fn counters_and_fetch_adds_are_collected_outside_tests() {
        let c = ctx(
            "crates/serve/src/t.rs",
            "use std::sync::atomic::{AtomicU64, Ordering};\n\
             pub struct T { pub conns_opened: AtomicU64, pub conns_closed: AtomicU64 }\n\
             impl T { pub fn open(&self) { self.conns_opened.fetch_add(1, Ordering::Relaxed); } }\n\
             #[cfg(test)]\n\
             mod tests { fn t(x: &super::T) { x.conns_closed.fetch_add(1, std::sync::atomic::Ordering::Relaxed); } }\n",
        );
        let idx = build(std::slice::from_ref(&c));
        let decls: Vec<&str> = idx.counter_decls.iter().map(|d| d.name.as_str()).collect();
        assert!(decls.contains(&"conns_opened") && decls.contains(&"conns_closed"));
        let adds: Vec<&str> = idx.fetch_adds.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(adds, vec!["conns_opened"], "test-region add excluded");
    }

    #[test]
    fn out_of_scope_crates_are_not_indexed() {
        let c = ctx(
            "crates/sim/src/x.rs",
            "use std::sync::Mutex;\nstruct S { m: Mutex<u32> }\nfn f(s: &S) { let _g = s.m.lock(); }\n",
        );
        let idx = build(std::slice::from_ref(&c));
        assert!(idx.fns.is_empty());
        assert!(idx.locks.is_empty());
    }
}
