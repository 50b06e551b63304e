//! Pass 1: static lock-order verification.
//!
//! For every function we extract (a) the lock classes it acquires, with
//! the set of classes already held at each acquisition, and (b) its call
//! sites, with the classes held across each call.  Per-function summaries
//! (`may_acquire`) are propagated over the name-resolved call graph to a
//! fixpoint, so "holds `FrontendInflight`, calls `submit`, which three
//! frames down takes `VirtQueueState`" produces the same `Inflight →
//! QueueState` edge the runtime detector would record — but over *all*
//! paths, not just the interleavings a test happens to execute.
//!
//! Edges are then checked against the hierarchy exported by `vphi-sync`
//! (`LockClass::ALL` / `layer()`): acquiring a lower-layer class while a
//! higher-layer class is held is a layer inversion; a cycle among
//! same-layer edges (the classic ABBA) is reported with a witness call
//! path for every edge in the cycle.
//!
//! Approximations, on purpose (token-level analysis):
//! - A `let`-bound guard is held to the end of its enclosing brace scope
//!   (or an explicit `drop(guard)`); an unbound guard (`x.lock().f()`)
//!   is held to the end of the statement.
//! - Receivers resolve by field name via [`crate::model::LockFields`];
//!   unresolved receivers are counted, not guessed.
//! - Calls resolve by callee name, same-crate first.  Unknown names (std
//!   methods, constructors) simply contribute no edges.

use std::collections::BTreeMap;

use syn::{Delimiter, TokenTree};

use crate::model::{is_keyword, Workspace};
use crate::report::{Finding, Summary};

/// Methods that acquire a tracked lock — or enter a `TrackedRole`, which
/// orders like one — when the receiver resolves.
const ACQUIRE_METHODS: &[&str] = &["lock", "try_lock", "read", "write", "enter", "try_enter"];

/// Callee names never resolved interprocedurally: ubiquitous std method
/// names that would otherwise alias unrelated in-tree functions
/// (`.insert()` on a `BTreeMap` is not `PhiMemTable::insert`, `.map()`
/// on an `Option` is not `KvmGuestMem::map`).  Deliberate
/// under-approximation: an in-tree function with one of these names
/// contributes no *call* edges, but its direct acquisitions are still
/// checked with its own held context.
const NO_RESOLVE: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_slice",
    "binary_search",
    "binary_search_by_key",
    "chain",
    "clamp",
    "clear",
    "clone",
    "cloned",
    "cmp",
    "collect",
    "compare_exchange",
    "compare_exchange_weak",
    "contains",
    "contains_key",
    "copied",
    "copy_from_slice",
    "count",
    "default",
    "deref",
    "deref_mut",
    "drop",
    "dedup",
    "entry",
    "enumerate",
    "eq",
    "err",
    "expect",
    "extend",
    "fetch_add",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_or",
    "fetch_sub",
    "fetch_update",
    "fetch_xor",
    "filter",
    "filter_map",
    "find",
    "first",
    "flat_map",
    "flatten",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "get_or_insert_with",
    "hash",
    "index",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "is_err",
    "is_none",
    "is_ok",
    "is_some",
    "iter",
    "iter_mut",
    "join",
    "last",
    "len",
    "load",
    "map",
    "map_err",
    "max",
    "min",
    "ne",
    "next",
    "ok",
    "ok_or",
    "ok_or_else",
    "or_else",
    "parse",
    "partial_cmp",
    "pop",
    "pop_front",
    "position",
    "push",
    "push_back",
    "read_exact",
    "remove",
    "resize",
    "retain",
    "rev",
    "saturating_sub",
    "send",
    "set",
    "skip",
    "sort",
    "sort_by",
    "sort_by_key",
    "spawn",
    "split",
    "starts_with",
    "store",
    "sum",
    "swap",
    "take",
    "take_while",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "truncate",
    "try_from",
    "try_into",
    "unwrap",
    "unwrap_or",
    "unwrap_or_default",
    "unwrap_or_else",
    "windows",
    "wrapping_add",
    "write_all",
    "zip",
    // Constructors: `X::new()` is almost never *this* crate's `new`.
    "new",
    "with_capacity",
    // Condvar methods: the guard is *released* while parked, so treating
    // them as calls made with the lock held would be wrong even when the
    // name resolves.
    "wait",
    "wait_for",
    "wait_while",
    "wait_timeout",
    "notify_one",
    "notify_all",
];

/// Calls whose closure argument runs on another thread, or later (a
/// registered handler): the caller's held set does not apply inside it.
const SPAWN_LIKE: &[&str] = &["spawn", "spawn_worker", "set_exit_handler"];

/// The class table exported by `vphi-sync`, keyed by variant name.
pub struct ClassTable {
    by_name: BTreeMap<&'static str, (u8, u8)>, // name -> (index, layer)
    names: Vec<&'static str>,
    layers: Vec<u8>,
}

impl ClassTable {
    pub fn from_sync() -> ClassTable {
        let mut by_name = BTreeMap::new();
        let mut names = Vec::new();
        let mut layers = Vec::new();
        for c in vphi_sync::LockClass::ALL {
            by_name.insert(c.name(), (c.index() as u8, c.layer()));
            names.push(c.name());
            layers.push(c.layer());
        }
        ClassTable { by_name, names, layers }
    }

    fn lookup(&self, name: &str) -> Option<(u8, u8)> {
        self.by_name.get(name).copied()
    }

    fn name(&self, idx: u8) -> &'static str {
        self.names[idx as usize]
    }

    fn layer(&self, idx: u8) -> u8 {
        self.layers[idx as usize]
    }
}

/// An acquisition event: class acquired, classes locally held, line.
struct Acq {
    class: u8,
    held: u64,
    line: usize,
}

/// A call site: callee name, classes locally held, line.
struct Call {
    callee: String,
    held: u64,
    line: usize,
}

#[derive(Default)]
struct FnExtract {
    acqs: Vec<Acq>,
    calls: Vec<Call>,
    sites: usize,
    resolved: usize,
}

struct HeldEntry {
    guard: Option<String>,
    class: u8,
    temp: bool,
}

fn mask(held: &[HeldEntry]) -> u64 {
    held.iter().fold(0u64, |m, e| m | (1u64 << e.class))
}

/// Walk one nesting level of a function body, tracking held guards.
fn walk_level(
    tokens: &[TokenTree],
    rel: &str,
    krate: &str,
    ws: &Workspace,
    classes: &ClassTable,
    held: &mut Vec<HeldEntry>,
    out: &mut FnExtract,
) {
    let scope_base = held.len();
    let mut stmt_base = held.len();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Punct(p) if p.ch == ';' => {
                // Temporaries die at the end of their statement.
                let mut k = held.len();
                while k > stmt_base {
                    k -= 1;
                    if held[k].temp {
                        held.remove(k);
                    }
                }
                stmt_base = held.len();
                i += 1;
            }
            TokenTree::Punct(p) if p.ch == '.' => {
                let method = tokens.get(i + 1).and_then(TokenTree::ident);
                let args = match tokens.get(i + 2) {
                    Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis => Some(g),
                    _ => None,
                };
                if let (Some(m), Some(args)) = (method, args) {
                    if ACQUIRE_METHODS.contains(&m) {
                        let receiver = if i > 0 { tokens[i - 1].ident() } else { None };
                        let class = receiver
                            .and_then(|f| ws.locks.resolve(rel, krate, f))
                            .and_then(|c| classes.lookup(c));
                        let strong = m == "lock";
                        if strong || class.is_some() {
                            out.sites += 1;
                        }
                        if let Some((idx, _)) = class {
                            out.resolved += 1;
                            out.acqs.push(Acq {
                                class: idx,
                                held: mask(held),
                                line: tokens[i + 1].line(),
                            });
                            // `x.lock().f(..)` consumes the guard in the
                            // chained call — it is a temporary no matter
                            // what the statement binds.
                            let consumed = matches!(
                                tokens.get(i + 3),
                                Some(TokenTree::Punct(p)) if p.ch == '.' || p.ch == '?'
                            );
                            let guard = if consumed { None } else { let_binding_before(tokens, i) };
                            let temp = guard.is_none();
                            held.push(HeldEntry { guard, class: idx, temp });
                        }
                    } else if !NO_RESOLVE.contains(&m) {
                        // A method call: record with the current held set.
                        out.calls.push(Call {
                            callee: m.to_string(),
                            held: mask(held),
                            line: tokens[i + 1].line(),
                        });
                    }
                    if SPAWN_LIKE.contains(&m) {
                        // The closure runs on another thread: no guard
                        // held here is held there.
                        let mut fresh = Vec::new();
                        walk_level(&args.tokens, rel, krate, ws, classes, &mut fresh, out);
                    } else {
                        walk_level(&args.tokens, rel, krate, ws, classes, held, out);
                    }
                    i += 3;
                    continue;
                }
                i += 1;
            }
            TokenTree::Ident(id) => {
                // `drop(g)` releases a named guard early.
                if id.text == "drop" {
                    if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                        if g.delimiter == Delimiter::Parenthesis {
                            if let Some(name) = sole_ident(&g.tokens) {
                                held.retain(|e| e.guard.as_deref() != Some(name));
                                i += 2;
                                continue;
                            }
                        }
                    }
                }
                // Free-function call `name(args)` (not a macro, not `fn`).
                let is_fn_def = i > 0 && tokens[i - 1].ident() == Some("fn");
                if !is_keyword(&id.text) && !is_fn_def {
                    if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                        if g.delimiter == Delimiter::Parenthesis {
                            if !NO_RESOLVE.contains(&id.text.as_str()) {
                                out.calls.push(Call {
                                    callee: id.text.clone(),
                                    held: mask(held),
                                    line: id.line,
                                });
                            }
                            if SPAWN_LIKE.contains(&id.text.as_str()) {
                                let mut fresh = Vec::new();
                                walk_level(&g.tokens, rel, krate, ws, classes, &mut fresh, out);
                                i += 2;
                                continue;
                            }
                        }
                    }
                }
                i += 1;
            }
            TokenTree::Group(g) => {
                walk_level(&g.tokens, rel, krate, ws, classes, held, out);
                i += 1;
            }
            _ => i += 1,
        }
    }
    held.truncate(scope_base);
}

/// The sole ident of a token list (`drop(g)`'s argument), if that's all
/// there is.
fn sole_ident(tokens: &[TokenTree]) -> Option<&str> {
    match tokens {
        [TokenTree::Ident(id)] => Some(&id.text),
        _ => None,
    }
}

/// If the expression containing position `dot` (the `.` before `lock`) is
/// `let [mut] NAME = receiver.lock()`, return `NAME`.
fn let_binding_before(tokens: &[TokenTree], dot: usize) -> Option<String> {
    let mut j = dot;
    // Walk back over the receiver chain: idents, `.`, `?`, call groups.
    while j > 0 {
        let prev = &tokens[j - 1];
        let chain = match prev {
            TokenTree::Ident(id) => id.text == "self" || !is_keyword(&id.text),
            TokenTree::Punct(p) => p.ch == '.' || p.ch == '?' || p.ch == '&' || p.ch == '*',
            TokenTree::Group(g) => g.delimiter == Delimiter::Parenthesis,
            TokenTree::Literal(_) => false,
        };
        if !chain {
            break;
        }
        j -= 1;
    }
    // Expect `= NAME [mut] let` walking further back.
    if j == 0 || tokens[j - 1].punct() != Some('=') {
        return None;
    }
    let name = tokens.get(j.checked_sub(2)?)?.ident()?;
    if is_keyword(name) {
        return None;
    }
    let mut k = j - 2;
    if k > 0 && tokens[k - 1].ident() == Some("mut") {
        k -= 1;
    }
    if k > 0 && tokens[k - 1].ident() == Some("let") {
        Some(name.to_string())
    } else {
        None
    }
}

/// Where an order edge was first observed.
enum Witness {
    /// `fun` directly acquires `to` at `line` while holding `from`.
    Direct { fun: usize, line: usize },
    /// `fun` calls `callee` at `line` holding `from`; `callee` may
    /// (transitively) acquire `to`.
    Call { fun: usize, line: usize, callee: usize },
}

struct FnInfo {
    file: usize,
    name: String,
    extract: FnExtract,
    /// Line of the first *direct* acquisition per class.
    direct_line: BTreeMap<u8, usize>,
    /// Classes this function may acquire, directly or transitively.
    may: u64,
    /// For transitively-acquired classes: the callee that introduced it.
    prov: BTreeMap<u8, usize>,
    /// Resolved callee fn ids, per call site (parallel to extract.calls).
    callees: Vec<Vec<usize>>,
}

/// Run the pass, appending findings and filling the lock/call counters of
/// `summary`.
pub fn run(
    ws: &Workspace,
    classes: &ClassTable,
    findings: &mut Vec<Finding>,
    summary: &mut Summary,
) {
    // 1. Extract every function.
    let mut fns: Vec<FnInfo> = Vec::new();
    let mut file_rels: Vec<&str> = Vec::new();
    for (fidx, file) in ws.files.iter().enumerate() {
        file_rels.push(&file.rel);
        for f in &file.functions {
            // Test code is excluded: the runtime audit already covers the
            // interleavings tests execute, and tests/lock_order.rs
            // *deliberately* violates the hierarchy to exercise it.
            if f.is_test {
                continue;
            }
            let mut extract = FnExtract::default();
            let mut held = Vec::new();
            walk_level(&f.body, &file.rel, &file.krate, ws, classes, &mut held, &mut extract);
            let mut direct_line = BTreeMap::new();
            for a in &extract.acqs {
                direct_line.entry(a.class).or_insert(a.line);
            }
            let may = extract.acqs.iter().fold(0u64, |m, a| m | (1u64 << a.class));
            fns.push(FnInfo {
                file: fidx,
                name: f.name.clone(),
                extract,
                direct_line,
                may,
                prov: BTreeMap::new(),
                callees: Vec::new(),
            });
        }
    }
    summary.lock_sites = fns.iter().map(|f| f.extract.sites).sum();
    summary.lock_sites_resolved = fns.iter().map(|f| f.extract.resolved).sum();

    // 2. Name-resolve calls: same-crate definitions first, then a
    // globally-unique definition; anything else contributes nothing.
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_crate_name: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    for (id, f) in fns.iter().enumerate() {
        by_name.entry(&f.name).or_default().push(id);
        let krate = &ws.files[f.file].krate;
        by_crate_name.entry((krate, &f.name)).or_default().push(id);
    }
    let mut call_edges: std::collections::BTreeSet<(usize, usize)> = Default::default();
    let mut resolved_calls: Vec<Vec<Vec<usize>>> = Vec::with_capacity(fns.len());
    for (id, f) in fns.iter().enumerate() {
        let krate: &str = &ws.files[f.file].krate;
        let mut per_fn = Vec::with_capacity(f.extract.calls.len());
        for c in &f.extract.calls {
            // A name with several same-crate definitions is ambiguous
            // (which `close`?) — resolving to all of them manufactured
            // false cycles, so ambiguity resolves to nothing, exactly
            // like ambiguous lock-field names.
            let same_crate = by_crate_name.get(&(krate, c.callee.as_str()));
            let targets: Vec<usize> = match same_crate {
                Some(ids) if ids.len() == 1 => ids.clone(),
                Some(_) => Vec::new(),
                None => match by_name.get(c.callee.as_str()) {
                    Some(ids) if ids.len() == 1 => ids.clone(),
                    _ => Vec::new(),
                },
            };
            for &t in &targets {
                if t != id {
                    call_edges.insert((id, t));
                }
            }
            per_fn.push(targets);
        }
        resolved_calls.push(per_fn);
    }
    for (f, callees) in fns.iter_mut().zip(resolved_calls) {
        f.callees = callees;
    }
    summary.call_edges = call_edges.len();

    // 3. Fixpoint: may_acquire closure over the call graph, recording
    // which callee first introduced each transitive class (for witness
    // path reconstruction).
    loop {
        let mut changed = false;
        for id in 0..fns.len() {
            let mut add: Vec<(u8, usize)> = Vec::new();
            for targets in &fns[id].callees {
                for &t in targets {
                    let new_bits = fns[t].may & !fns[id].may;
                    if new_bits != 0 {
                        for c in 0..64u8 {
                            if new_bits & (1 << c) != 0 && !add.iter().any(|(b, _)| *b == c) {
                                add.push((c, t));
                            }
                        }
                    }
                }
            }
            for (c, t) in add {
                if fns[id].may & (1 << c) == 0 {
                    fns[id].may |= 1 << c;
                    fns[id].prov.insert(c, t);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 4. Build the class-order edge set with one witness per edge.
    let mut edges: BTreeMap<(u8, u8), Witness> = BTreeMap::new();
    for (id, f) in fns.iter().enumerate() {
        for a in &f.extract.acqs {
            for from in bits(a.held) {
                edges.entry((from, a.class)).or_insert(Witness::Direct { fun: id, line: a.line });
            }
        }
        for (c, targets) in f.extract.calls.iter().zip(&f.callees) {
            if c.held == 0 {
                continue;
            }
            for &t in targets {
                for to in bits(fns[t].may) {
                    for from in bits(c.held) {
                        edges.entry((from, to)).or_insert(Witness::Call {
                            fun: id,
                            line: c.line,
                            callee: t,
                        });
                    }
                }
            }
        }
    }
    summary.order_edges = edges.len();

    // 5. Check edges against the hierarchy.
    let path = |w: &Witness, to: u8| witness_path(w, to, &fns, &file_rels, classes);
    for (&(from, to), w) in &edges {
        let (lf, lt) = (classes.layer(from), classes.layer(to));
        let (fun, line) = match *w {
            Witness::Direct { fun, line } | Witness::Call { fun, line, .. } => (fun, line),
        };
        let file = file_rels[fns[fun].file].to_string();
        let function = fns[fun].name.clone();
        if from == to {
            findings.push(Finding {
                rule: "lock-order",
                file,
                function,
                line,
                detail: format!("{0}->{0}", classes.name(from)),
                message: format!(
                    "{} (layer {}) may be re-acquired while already held: {}",
                    classes.name(from),
                    lf,
                    path(w, to)
                ),
            });
        } else if lt < lf {
            findings.push(Finding {
                rule: "lock-order",
                file,
                function,
                line,
                detail: format!("{}->{}", classes.name(from), classes.name(to)),
                message: format!(
                    "layer inversion: acquiring {} (layer {}) while holding {} (layer {}): {}",
                    classes.name(to),
                    lt,
                    classes.name(from),
                    lf,
                    path(w, to)
                ),
            });
        }
    }

    // 6. ABBA cycles among same-layer edges.
    let same_layer: Vec<(u8, u8)> = edges
        .keys()
        .copied()
        .filter(|&(a, b)| a != b && classes.layer(a) == classes.layer(b))
        .collect();
    for cycle in cycles(&same_layer) {
        let names: Vec<&str> = cycle.iter().map(|&c| classes.name(c)).collect();
        let mut legs = Vec::new();
        for k in 0..cycle.len() {
            let (a, b) = (cycle[k], cycle[(k + 1) % cycle.len()]);
            if let Some(w) = edges.get(&(a, b)) {
                legs.push(format!("{}->{} via {}", classes.name(a), classes.name(b), path(w, b)));
            }
        }
        findings.push(Finding {
            rule: "lock-order",
            file: "(workspace)".into(),
            function: "-".into(),
            line: 0,
            detail: format!("cycle:{}", names.join("+")),
            message: format!(
                "ABBA cycle within layer {}: {} [{}]",
                classes.layer(cycle[0]),
                names.join(" -> "),
                legs.join("; ")
            ),
        });
    }
}

fn bits(mask: u64) -> impl Iterator<Item = u8> {
    (0..64u8).filter(move |c| mask & (1u64 << c) != 0)
}

/// Render a witness as a call path ending at the direct acquisition.
fn witness_path(
    w: &Witness,
    to: u8,
    fns: &[FnInfo],
    file_rels: &[&str],
    classes: &ClassTable,
) -> String {
    match *w {
        Witness::Direct { fun, line } => {
            format!("{} ({}:{})", fns[fun].name, file_rels[fns[fun].file], line)
        }
        Witness::Call { fun, line, callee } => {
            let mut parts =
                vec![format!("{} ({}:{})", fns[fun].name, file_rels[fns[fun].file], line)];
            let mut cur = callee;
            for _ in 0..12 {
                if let Some(&l) = fns[cur].direct_line.get(&to) {
                    parts.push(format!(
                        "{} (acquires {} at {}:{})",
                        fns[cur].name,
                        classes.name(to),
                        file_rels[fns[cur].file],
                        l
                    ));
                    return parts.join(" -> ");
                }
                match fns[cur].prov.get(&to) {
                    Some(&next) => {
                        parts.push(fns[cur].name.clone());
                        cur = next;
                    }
                    None => break,
                }
            }
            parts.push("...".into());
            parts.join(" -> ")
        }
    }
}

/// Elementary cycles in a small digraph, canonicalized (rotated so the
/// smallest node leads) and deduplicated; deterministic order.
fn cycles(edges: &[(u8, u8)]) -> Vec<Vec<u8>> {
    let mut adj: BTreeMap<u8, Vec<u8>> = BTreeMap::new();
    for &(a, b) in edges {
        adj.entry(a).or_default().push(b);
    }
    let mut found: Vec<Vec<u8>> = Vec::new();
    let mut seen: std::collections::BTreeSet<Vec<u8>> = Default::default();
    let nodes: Vec<u8> = adj.keys().copied().collect();
    for &start in &nodes {
        let mut stack = vec![start];
        dfs_cycles(start, start, &adj, &mut stack, &mut seen, &mut found, 0);
    }
    found
}

fn dfs_cycles(
    start: u8,
    at: u8,
    adj: &BTreeMap<u8, Vec<u8>>,
    stack: &mut Vec<u8>,
    seen: &mut std::collections::BTreeSet<Vec<u8>>,
    found: &mut Vec<Vec<u8>>,
    depth: usize,
) {
    if depth > 8 {
        return;
    }
    let Some(nexts) = adj.get(&at) else { return };
    for &n in nexts {
        if n == start && stack.len() > 1 {
            let mut canon = stack.clone();
            let min_pos =
                canon.iter().enumerate().min_by_key(|(_, v)| **v).map(|(i, _)| i).unwrap_or(0);
            canon.rotate_left(min_pos);
            if seen.insert(canon.clone()) {
                found.push(canon);
            }
        } else if !stack.contains(&n) && n > start {
            // Only explore nodes greater than start: each cycle is found
            // from its smallest node exactly once.
            stack.push(n);
            dfs_cycles(start, n, adj, stack, seen, found, depth + 1);
            stack.pop();
        }
    }
}
