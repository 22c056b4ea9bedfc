//! Inter-procedural lock-order analysis.
//!
//! The model is intentionally conservative and name-driven:
//!
//! 1. **Lock inventory.** Every struct field whose type mentions `Mutex<…>`
//!    or `RwLock<…>` is a lock, identified as `Struct.field`
//!    (`Shared.state`, `VectorDatabase.collections`, …).
//! 2. **Acquisition sites.** `.lock()`, `.read()`, `.write()` with zero
//!    arguments acquire the receiver's lock when the receiver resolves to a
//!    known lock field (`self.state.lock()`, `lovo.keyframes.read()`) or to
//!    an accessor fn returning `&Mutex<…>`/`&RwLock<…>`
//!    (`self.shard(fp).lock()`). Unresolvable receivers (locals, destructured
//!    tuples) are skipped — missed acquisitions make the analysis
//!    under-approximate, never wrong about what it does report.
//! 3. **Hold tracking.** A `let`-bound guard is held to the end of its
//!    enclosing block; a temporary guard to the end of its statement;
//!    `drop(guard)` releases early. A `let` whose initializer goes on past
//!    the acquisition (`let v = m.lock().get(k).cloned();`) binds the
//!    result, not the guard, so its guard is a temporary. A guard taken in
//!    the scrutinee of an `if let`, `while let` or `match` is held through
//!    every block of the construct, `else` included (edition 2021), and
//!    released where the construct ends. Guard-returning helpers (any fn
//!    whose return type mentions `Guard`) export their acquisitions to the
//!    caller.
//! 4. **Call graph.** Method calls resolve through `self`, field types and
//!    `Type::method` paths; unresolvable receivers contribute no edges. A
//!    fixpoint computes each fn's may-acquire set, and every call made while
//!    holding a lock adds `held → may-acquire(callee)` edges.
//!
//! Cycles in the resulting lock-order graph are potential deadlocks
//! (errors); acquisition orders contradicting the documented hierarchy in
//! ARCHITECTURE.md are errors; observed orders the hierarchy doesn't cover
//! are warnings nudging the doc to stay complete.

use crate::lexer::{Token, TokenKind};
use crate::model::ParsedFile;
use crate::{Finding, Severity};
use std::collections::{HashMap, HashSet};

/// Lint name for lock-order findings, as used in allow markers.
pub const LOCK_LINT: &str = "lock-order";

/// Configuration: the documented lock hierarchy (pairs of lock ids, each
/// meaning "left may be held while acquiring right").
pub struct LockConfig {
    /// Documented `before -> after` pairs, e.g.
    /// `("VectorDatabase.collections", "VectorDatabase.metadata")`.
    pub hierarchy: Vec<(String, String)>,
}

#[derive(Debug, Clone)]
enum Event {
    /// A `}` was crossed; the brace depth is now `depth_after`.
    Close { depth_after: usize },
    /// A `;` ended a statement at `depth`.
    Semi { depth: usize },
    /// `drop(var)` releases the named guard early.
    DropVar { name: String },
    /// The `if let` / `while let` / `match` whose last block closes at this
    /// token index ended, releasing the guards taken in its scrutinee.
    ConstructEnd { end: usize },
    /// A lock acquisition.
    Acquire { lock: String, hold: Hold, line: u32 },
    /// A call to one or more candidate workspace fns.
    Call {
        cands: Vec<usize>,
        hold: Hold,
        line: u32,
    },
}

/// How long a guard taken at one site is held.
#[derive(Debug, Clone)]
struct Hold {
    /// Brace depth of the acquisition.
    depth: usize,
    /// Bound by a `let`: held to the end of the enclosing block, not the
    /// statement.
    block_bound: bool,
    /// The `let`'s variable, which `drop(var)` releases.
    var: Option<String>,
    /// Taken in a construct's scrutinee: held until the construct ending at
    /// this token index ends.
    construct: Option<usize>,
}

struct FnRef {
    file: usize,
    name: String,
    impl_type: Option<String>,
    is_guard: bool,
    is_test: bool,
}

/// Cross-file model shared by the scan.
struct Ctx {
    /// `(struct, field)` → lock id, for impl-aware receiver resolution.
    struct_field_lock: HashMap<(String, String), String>,
    /// field name → lock id when the name is unambiguous workspace-wide.
    unique_field_lock: HashMap<String, String>,
    /// `(struct, field)` → base type, for typed method resolution.
    struct_field_type: HashMap<(String, String), String>,
    /// field name → base type when unambiguous workspace-wide.
    unique_field_type: HashMap<String, String>,
    /// accessor fn name → lock id (fns returning `&Mutex<…>`/`&RwLock<…>`).
    accessor_lock: HashMap<String, String>,
    /// fn name → global fn ids.
    by_name: HashMap<String, Vec<usize>>,
    fns: Vec<FnRef>,
}

const TYPE_WRAPPERS: [&str; 16] = [
    "Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Cell", "Option", "Vec", "VecDeque",
    "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Result", "dyn",
];

fn base_type(type_text: &str) -> Option<String> {
    type_text
        .split_whitespace()
        .find(|tok| {
            tok.chars()
                .next()
                .is_some_and(|c| c.is_alphabetic() || c == '_')
                && !TYPE_WRAPPERS.contains(tok)
                && *tok != "mut"
        })
        .map(str::to_string)
}

fn is_lock_type(type_text: &str) -> bool {
    type_text.contains("Mutex <") || type_text.contains("RwLock <")
}

fn build_ctx(files: &[ParsedFile]) -> Ctx {
    let mut struct_field_lock = HashMap::new();
    let mut field_lock_candidates: HashMap<String, HashSet<String>> = HashMap::new();
    let mut struct_field_type = HashMap::new();
    let mut field_type_candidates: HashMap<String, HashSet<String>> = HashMap::new();
    for file in files {
        for s in &file.structs {
            for f in &s.fields {
                if is_lock_type(&f.type_text) {
                    let lock = format!("{}.{}", s.name, f.name);
                    struct_field_lock.insert((s.name.clone(), f.name.clone()), lock.clone());
                    field_lock_candidates
                        .entry(f.name.clone())
                        .or_default()
                        .insert(lock);
                }
                if let Some(ty) = base_type(&f.type_text) {
                    struct_field_type.insert((s.name.clone(), f.name.clone()), ty.clone());
                    field_type_candidates
                        .entry(f.name.clone())
                        .or_default()
                        .insert(ty);
                }
            }
        }
    }
    let unique = |cands: HashMap<String, HashSet<String>>| -> HashMap<String, String> {
        cands
            .into_iter()
            .filter_map(|(field, set)| {
                (set.len() == 1).then(|| (field, set.into_iter().next().unwrap_or_default()))
            })
            .collect()
    };
    let unique_field_lock = unique(field_lock_candidates);
    let unique_field_type = unique(field_type_candidates);

    let mut fns = Vec::new();
    let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
    let mut accessor_cands: HashMap<String, HashSet<String>> = HashMap::new();
    for (file_idx, file) in files.iter().enumerate() {
        for f in &file.fns {
            let id = fns.len();
            by_name.entry(f.name.clone()).or_default().push(id);
            // Accessor: returns a reference to a lock; the lock is whichever
            // `self.<lock field>` its body mentions.
            if is_lock_type(&f.ret_text) {
                if let (Some((open, close)), Some(impl_type)) = (f.body, f.impl_type.as_ref()) {
                    let toks = &file.tokens;
                    for j in open..=close {
                        if toks[j].kind == TokenKind::Ident
                            && j >= 2
                            && toks[j - 1].is_punct('.')
                            && toks[j - 2].is_ident("self")
                        {
                            if let Some(lock) =
                                struct_field_lock.get(&(impl_type.clone(), toks[j].text.clone()))
                            {
                                accessor_cands
                                    .entry(f.name.clone())
                                    .or_default()
                                    .insert(lock.clone());
                            }
                        }
                    }
                }
            }
            fns.push(FnRef {
                file: file_idx,
                name: f.name.clone(),
                impl_type: f.impl_type.clone(),
                is_guard: f.ret_text.contains("Guard"),
                is_test: f.is_test,
            });
        }
    }
    let accessor_lock = unique(accessor_cands);

    Ctx {
        struct_field_lock,
        unique_field_lock,
        struct_field_type,
        unique_field_type,
        accessor_lock,
        by_name,
        fns,
    }
}

/// Backward scan from the `)` at `close_idx` to its matching `(`.
fn matching_open(file: &ParsedFile, close_idx: usize) -> Option<usize> {
    let mut depth = 0isize;
    for j in (0..=close_idx).rev() {
        let t = &file.tokens[j];
        if t.is_punct(')') {
            depth += 1;
        } else if t.is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Resolves the receiver of a zero-arg `.lock()`/`.read()`/`.write()` at
/// token `j` to a lock id, or `None` when the receiver is not a known lock.
fn resolve_lock_receiver(
    file: &ParsedFile,
    j: usize,
    current_impl: Option<&str>,
    ctx: &Ctx,
) -> Option<String> {
    let toks = &file.tokens;
    let k = j.checked_sub(2)?;
    let recv = &toks[k];
    if recv.is_punct(')') {
        // Accessor form: `self.shard(fp).lock()`.
        let open = matching_open(file, k)?;
        let name = toks.get(open.checked_sub(1)?)?;
        if name.kind == TokenKind::Ident {
            return ctx.accessor_lock.get(&name.text).cloned();
        }
        return None;
    }
    if recv.kind != TokenKind::Ident {
        return None;
    }
    // Field access requires a dot before the field name; a bare identifier
    // is a local (often a destructured guard) we cannot type.
    if !(k >= 1 && toks[k - 1].is_punct('.')) {
        return None;
    }
    let field = &recv.text;
    if k >= 2 && toks[k - 2].is_ident("self") && !(k >= 3 && toks[k - 3].is_punct('.')) {
        if let Some(ty) = current_impl {
            if let Some(lock) = ctx.struct_field_lock.get(&(ty.to_string(), field.clone())) {
                return Some(lock.clone());
            }
        }
    }
    ctx.unique_field_lock.get(field).cloned()
}

/// Resolves a call at token `j` (an ident followed by `(`) to candidate
/// workspace fn ids. Empty when the receiver can't be typed.
fn resolve_call(file: &ParsedFile, j: usize, current_impl: Option<&str>, ctx: &Ctx) -> Vec<usize> {
    let toks = &file.tokens;
    let name = &toks[j].text;
    let ids = match ctx.by_name.get(name) {
        Some(ids) => ids,
        None => return Vec::new(),
    };
    let filter_impl = |ty: Option<&str>| -> Vec<usize> {
        ids.iter()
            .copied()
            .filter(|&id| {
                let f = &ctx.fns[id];
                !f.is_test && f.impl_type.as_deref() == ty
            })
            .collect()
    };

    let prev = match j.checked_sub(1) {
        Some(p) => &toks[p],
        None => return filter_impl(None),
    };
    if prev.is_punct('.') {
        let k = match j.checked_sub(2) {
            Some(k) => k,
            None => return Vec::new(),
        };
        let recv = &toks[k];
        if recv.kind != TokenKind::Ident {
            return Vec::new();
        }
        if recv.text == "self" && !(k >= 1 && toks[k - 1].is_punct('.')) {
            return current_impl.map_or_else(Vec::new, |ty| filter_impl(Some(ty)));
        }
        if k >= 1 && toks[k - 1].is_punct('.') {
            // Receiver is a field: prefer the enclosing impl's field table,
            // fall back to the workspace-unique field name.
            let field = &recv.text;
            let ty = current_impl
                .filter(|_| k >= 2 && toks[k - 2].is_ident("self"))
                .and_then(|t| ctx.struct_field_type.get(&(t.to_string(), field.clone())))
                .or_else(|| ctx.unique_field_type.get(field));
            return ty.map_or_else(Vec::new, |t| filter_impl(Some(t)));
        }
        return Vec::new(); // local-variable receiver: untyped
    }
    if prev.is_punct(':') && j >= 3 && toks[j - 2].is_punct(':') {
        let ty_tok = &toks[j - 3];
        if ty_tok.kind == TokenKind::Ident {
            let ty = if ty_tok.text == "Self" {
                current_impl.map(str::to_string)
            } else {
                Some(ty_tok.text.clone())
            };
            return ty.map_or_else(Vec::new, |t| filter_impl(Some(&t)));
        }
        return Vec::new();
    }
    filter_impl(None)
}

/// Adapters that pass a lock result through unchanged, so a `let` ending
/// in one of them still binds the guard.
const GUARD_ADAPTERS: [&str; 4] = ["unwrap", "expect", "map_err", "unwrap_or_else"];

/// Forward scan from the opening delimiter at `open` to its matching
/// closing one, within `limit`.
fn matching_close(toks: &[Token], open: usize, limit: usize) -> Option<usize> {
    let (open_c, close_c) = if toks[open].is_punct('(') {
        ('(', ')')
    } else {
        ('{', '}')
    };
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().take(limit + 1).skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// True when the expression whose guard-producing part ends at token
/// `end` goes on with a method call, after skipping `?` and the
/// [`GUARD_ADAPTERS`]: the guard is then a temporary of the statement.
fn continues_past(toks: &[Token], mut end: usize, limit: usize) -> bool {
    loop {
        match toks.get(end + 1) {
            Some(t) if t.is_punct('?') => end += 1,
            Some(t) if t.is_punct('.') => {
                let adapter = toks
                    .get(end + 2)
                    .is_some_and(|m| GUARD_ADAPTERS.iter().any(|a| m.is_ident(a)))
                    && toks.get(end + 3).is_some_and(|p| p.is_punct('('));
                if !adapter {
                    return true;
                }
                match matching_close(toks, end + 3, limit) {
                    Some(close) => end = close,
                    None => return false,
                }
            }
            _ => return false,
        }
    }
}

/// The first `{` at or after `from` outside any parentheses or brackets:
/// the block that follows a condition or scrutinee.
fn block_after(toks: &[Token], from: usize, limit: usize) -> Option<usize> {
    let mut nesting = 0isize;
    for (j, t) in toks.iter().enumerate().take(limit + 1).skip(from) {
        if t.is_punct('(') || t.is_punct('[') {
            nesting += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nesting -= 1;
        } else if nesting == 0 && t.is_punct('{') {
            return Some(j);
        }
    }
    None
}

/// For the `if let` / `while let` / `match` keyword at `kw`: the `{` that
/// ends its scrutinee and the `}` that ends the whole construct, following
/// `else` and `else if` blocks to the last one.
fn construct_span(toks: &[Token], kw: usize, limit: usize) -> Option<(usize, usize)> {
    let body = block_after(toks, kw + 1, limit)?;
    let mut end = matching_close(toks, body, limit)?;
    while toks.get(end + 1).is_some_and(|t| t.is_ident("else")) {
        let next = block_after(toks, end + 2, limit)?;
        end = matching_close(toks, next, limit)?;
    }
    Some((body, end))
}

/// Walks one fn body into an event list.
fn scan_fn(file: &ParsedFile, fn_local_idx: usize, ctx: &Ctx) -> Vec<Event> {
    let fndef = &file.fns[fn_local_idx];
    let Some((open, close)) = fndef.body else {
        return Vec::new();
    };
    let current_impl = fndef.impl_type.as_deref();
    let toks = &file.tokens;
    let mut events = Vec::new();
    let mut depth = 0usize;
    let mut let_pending = false;
    let mut let_var: Option<String> = None;
    // Open constructs: (keyword, scrutinee-ending `{`, construct-ending `}`).
    let mut constructs: Vec<(usize, usize, usize)> = Vec::new();
    // The hold of a guard whose producing expression spans `at..=end`.
    let hold = |constructs: &[(usize, usize, usize)],
                (at, end): (usize, usize),
                depth: usize,
                let_pending: bool,
                let_var: &Option<String>| Hold {
        depth,
        block_bound: let_pending && !continues_past(toks, end, close),
        var: let_var.clone(),
        construct: constructs
            .iter()
            .rev()
            .find(|&&(kw, body, _)| kw < at && at < body)
            .map(|&(.., end)| end),
    };
    let mut j = open;
    while j <= close {
        let t = &toks[j];
        let scrutinee_let = t.is_ident("let")
            && j > open
            && (toks[j - 1].is_ident("if") || toks[j - 1].is_ident("while"));
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            events.push(Event::Close { depth_after: depth });
            if constructs.iter().any(|&(.., end)| end == j) {
                constructs.retain(|&(.., end)| end != j);
                events.push(Event::ConstructEnd { end: j });
            }
            let_pending = false;
            let_var = None;
        } else if t.is_punct(';') {
            events.push(Event::Semi { depth });
            let_pending = false;
            let_var = None;
        } else if scrutinee_let || t.is_ident("match") {
            if let Some((body, end)) = construct_span(toks, j, close) {
                constructs.push((j, body, end));
            }
        } else if t.is_ident("let") {
            let_pending = true;
            let mut v = j + 1;
            if toks.get(v).is_some_and(|x| x.is_ident("mut")) {
                v += 1;
            }
            let_var = toks
                .get(v)
                .filter(|x| x.kind == TokenKind::Ident)
                .map(|x| x.text.clone());
        } else if t.kind == TokenKind::Ident && toks.get(j + 1).is_some_and(|n| n.is_punct('(')) {
            // `drop(guard)` releases a named guard early.
            if t.is_ident("drop")
                && toks.get(j + 2).is_some_and(|x| x.kind == TokenKind::Ident)
                && toks.get(j + 3).is_some_and(|x| x.is_punct(')'))
                && !(j >= 1 && toks[j - 1].is_punct('.'))
            {
                events.push(Event::DropVar {
                    name: toks[j + 2].text.clone(),
                });
                j += 4;
                continue;
            }
            let is_acquire_name = t.is_ident("lock") || t.is_ident("read") || t.is_ident("write");
            if is_acquire_name
                && j >= 1
                && toks[j - 1].is_punct('.')
                && toks.get(j + 2).is_some_and(|n| n.is_punct(')'))
            {
                if let Some(lock) = resolve_lock_receiver(file, j, current_impl, ctx) {
                    events.push(Event::Acquire {
                        lock,
                        hold: hold(&constructs, (j, j + 2), depth, let_pending, &let_var),
                        line: t.line,
                    });
                    j += 3;
                    continue;
                }
            }
            let cands = resolve_call(file, j, current_impl, ctx);
            if !cands.is_empty() {
                let end = matching_close(toks, j + 1, close).unwrap_or(j + 1);
                events.push(Event::Call {
                    cands,
                    hold: hold(&constructs, (j, end), depth, let_pending, &let_var),
                    line: t.line,
                });
            }
        }
        j += 1;
    }
    events
}

/// One observed lock-order edge with its provenance.
#[derive(Debug, Clone)]
struct Edge {
    from: String,
    to: String,
    file: std::path::PathBuf,
    line: u32,
    via: Option<String>,
}

/// Runs the lock-order analysis over the whole workspace.
pub fn check(files: &[ParsedFile], config: &LockConfig, findings: &mut Vec<Finding>) {
    let ctx = build_ctx(files);
    if ctx.struct_field_lock.is_empty() {
        return;
    }

    // Events per global fn id, in ctx.fns order.
    let mut events: Vec<Vec<Event>> = Vec::with_capacity(ctx.fns.len());
    {
        let mut id = 0usize;
        for (file_idx, file) in files.iter().enumerate() {
            for local in 0..file.fns.len() {
                debug_assert_eq!(ctx.fns[id].file, file_idx);
                if ctx.fns[id].is_test {
                    events.push(Vec::new());
                } else {
                    events.push(scan_fn(file, local, &ctx));
                }
                id += 1;
            }
        }
    }

    // May-acquire fixpoint.
    let mut may: Vec<HashSet<String>> = vec![HashSet::new(); ctx.fns.len()];
    for (id, evs) in events.iter().enumerate() {
        for e in evs {
            if let Event::Acquire { lock, .. } = e {
                may[id].insert(lock.clone());
            }
        }
    }
    loop {
        let mut changed = false;
        for id in 0..ctx.fns.len() {
            let mut add: Vec<String> = Vec::new();
            for e in &events[id] {
                if let Event::Call { cands, .. } = e {
                    for &c in cands {
                        for lock in &may[c] {
                            if !may[id].contains(lock) {
                                add.push(lock.clone());
                            }
                        }
                    }
                }
            }
            if !add.is_empty() {
                changed = true;
                may[id].extend(add);
            }
        }
        if !changed {
            break;
        }
    }

    // Replay each fn with hold-tracking to produce edges.
    struct Held {
        lock: String,
        hold: Hold,
    }
    let mut edges: Vec<Edge> = Vec::new();
    for (id, evs) in events.iter().enumerate() {
        let file = &files[ctx.fns[id].file];
        let mut held: Vec<Held> = Vec::new();
        for e in evs {
            match e {
                Event::Close { depth_after } => held.retain(|h| h.hold.depth <= *depth_after),
                Event::Semi { depth } => held.retain(|h| {
                    h.hold.block_bound || h.hold.construct.is_some() || h.hold.depth != *depth
                }),
                Event::DropVar { name } => {
                    held.retain(|h| h.hold.var.as_deref() != Some(name.as_str()));
                }
                Event::ConstructEnd { end } => held.retain(|h| h.hold.construct != Some(*end)),
                Event::Acquire { lock, hold, line } => {
                    for h in &held {
                        edges.push(Edge {
                            from: h.lock.clone(),
                            to: lock.clone(),
                            file: file.path.clone(),
                            line: *line,
                            via: None,
                        });
                    }
                    held.push(Held {
                        lock: lock.clone(),
                        hold: hold.clone(),
                    });
                }
                Event::Call { cands, hold, line } => {
                    let mut acquired: HashSet<&String> = HashSet::new();
                    for &c in cands {
                        acquired.extend(&may[c]);
                    }
                    if acquired.is_empty() {
                        continue;
                    }
                    let callee = ctx.fns[cands[0]].name.clone();
                    for h in &held {
                        for lock in &acquired {
                            edges.push(Edge {
                                from: h.lock.clone(),
                                to: (*lock).clone(),
                                file: file.path.clone(),
                                line: *line,
                                via: Some(callee.clone()),
                            });
                        }
                    }
                    if cands.iter().any(|&c| ctx.fns[c].is_guard) {
                        for lock in &acquired {
                            held.push(Held {
                                lock: (*lock).clone(),
                                hold: hold.clone(),
                            });
                        }
                    }
                }
            }
        }
    }

    // Allow markers remove edges at their site before graph analysis.
    let path_to_file: HashMap<&std::path::Path, &ParsedFile> =
        files.iter().map(|f| (f.path.as_path(), f)).collect();
    edges.retain(|e| {
        path_to_file
            .get(e.file.as_path())
            .and_then(|f| f.allow_for(LOCK_LINT, e.line))
            .is_none()
    });

    // Dedupe by (from, to), keeping the first site for reporting.
    let mut seen: HashMap<(String, String), Edge> = HashMap::new();
    for e in edges {
        seen.entry((e.from.clone(), e.to.clone())).or_insert(e);
    }
    let edges: Vec<&Edge> = {
        let mut v: Vec<&Edge> = seen.values().collect();
        v.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        v
    };

    let inventory: HashSet<&str> = ctx.struct_field_lock.values().map(String::as_str).collect();
    report_graph(&edges, &inventory, config, findings);
}

fn describe(e: &Edge) -> String {
    match &e.via {
        Some(callee) => format!(
            "{} -> {} ({}:{} via call to `{}`)",
            e.from,
            e.to,
            e.file.display(),
            e.line,
            callee
        ),
        None => format!("{} -> {} ({}:{})", e.from, e.to, e.file.display(), e.line),
    }
}

fn report_graph(
    edges: &[&Edge],
    inventory: &HashSet<&str>,
    config: &LockConfig,
    findings: &mut Vec<Finding>,
) {
    // Self-loops first: acquiring a lock already held deadlocks outright
    // with std's non-reentrant primitives.
    for e in edges {
        if e.from == e.to {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                lint: LOCK_LINT,
                severity: Severity::Error,
                message: format!(
                    "lock `{}` acquired while already held — std Mutex/RwLock are not \
                     reentrant, this deadlocks ({})",
                    e.from,
                    describe(e)
                ),
            });
        }
    }

    // Cycle detection over the (from -> to) graph with integer node ids;
    // self-loops are excluded (reported above).
    let mut node_ids: HashMap<&str, usize> = HashMap::new();
    let mut names: Vec<&str> = Vec::new();
    for e in edges {
        for name in [e.from.as_str(), e.to.as_str()] {
            if !node_ids.contains_key(name) {
                node_ids.insert(name, names.len());
                names.push(name);
            }
        }
    }
    let mut adj: Vec<Vec<&Edge>> = vec![Vec::new(); names.len()];
    for e in edges {
        if e.from != e.to {
            adj[node_ids[e.from.as_str()]].push(e);
        }
    }
    let mut reported: HashSet<String> = HashSet::new();
    for start in 0..names.len() {
        // Iterative DFS carrying the edge path; cycles are reported once per
        // node set. Graphs here are tiny (a handful of locks).
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        let mut path: Vec<&Edge> = Vec::new();
        let mut on_path: Vec<usize> = vec![start];
        while let Some(&mut (node, ref mut next_idx)) = stack.last_mut() {
            if *next_idx >= adj[node].len() {
                stack.pop();
                path.pop();
                on_path.pop();
                continue;
            }
            let edge = adj[node][*next_idx];
            *next_idx += 1;
            let to = node_ids[edge.to.as_str()];
            if let Some(pos) = on_path.iter().position(|&n| n == to) {
                let cycle: Vec<&Edge> = path[pos..].iter().copied().chain([edge]).collect();
                let mut members: Vec<&str> = cycle.iter().map(|e| e.from.as_str()).collect();
                members.sort_unstable();
                if reported.insert(members.join("|")) {
                    let route = cycle
                        .iter()
                        .map(|e| describe(e))
                        .collect::<Vec<_>>()
                        .join("; ");
                    findings.push(Finding {
                        file: cycle[0].file.clone(),
                        line: cycle[0].line,
                        lint: LOCK_LINT,
                        severity: Severity::Error,
                        message: format!("potential deadlock: lock-order cycle [{route}]"),
                    });
                }
                continue;
            }
            if on_path.len() < 32 {
                stack.push((to, 0));
                path.push(edge);
                on_path.push(to);
            }
        }
    }

    // Documented-hierarchy closure.
    let mut doc_reach: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (a, b) in &config.hierarchy {
        doc_reach.entry(a.as_str()).or_default().insert(b.as_str());
    }
    loop {
        let mut additions: Vec<(&str, &str)> = Vec::new();
        for (&a, outs) in &doc_reach {
            for &b in outs {
                if let Some(nexts) = doc_reach.get(b) {
                    for &c in nexts {
                        if !outs.contains(c) {
                            additions.push((a, c));
                        }
                    }
                }
            }
        }
        if additions.is_empty() {
            break;
        }
        for (a, c) in additions {
            doc_reach.entry(a).or_default().insert(c);
        }
    }
    let documented = |a: &str, b: &str| doc_reach.get(a).is_some_and(|s| s.contains(b));

    for e in edges {
        if e.from == e.to {
            continue;
        }
        if documented(&e.to, &e.from) {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                lint: LOCK_LINT,
                severity: Severity::Error,
                message: format!(
                    "lock order contradicts the documented hierarchy: observed {} but \
                     ARCHITECTURE.md orders `{}` before `{}`",
                    describe(e),
                    e.to,
                    e.from
                ),
            });
        } else if !documented(&e.from, &e.to) {
            findings.push(Finding {
                file: e.file.clone(),
                line: e.line,
                lint: LOCK_LINT,
                severity: Severity::Warning,
                message: format!(
                    "lock-order edge not in the documented hierarchy: {} — add \
                     `{} -> {}` to ARCHITECTURE.md's lock-order block or restructure",
                    describe(e),
                    e.from,
                    e.to
                ),
            });
        }
    }

    // Stale hierarchy entries: the documented map must only name locks that
    // still exist in the struct inventory.
    for (a, b) in &config.hierarchy {
        for name in [a, b] {
            if !inventory.contains(name.as_str()) {
                findings.push(Finding {
                    file: std::path::PathBuf::from("ARCHITECTURE.md"),
                    line: 0,
                    lint: LOCK_LINT,
                    severity: Severity::Warning,
                    message: format!(
                        "documented lock `{name}` not found in any struct definition — \
                         the lock-order block is stale"
                    ),
                });
            }
        }
    }
}
