//! The guest-taint dataflow pass.
//!
//! The trust boundary (PAPER.md): everything a guest writes into a virtio
//! descriptor table and everything `VphiRequest::decode` pulls out of a
//! request buffer is attacker-controlled.  Within the boundary files (the
//! `guest-taint` entry of [`crate::exempt::SCOPES`]) this
//! pass marks values *tainted* when they come from descriptor fields
//! (`.addr` / `.len` / `.next` / `.id` / `.flags`) or from destructuring
//! a `VphiRequest`, propagates taint through `let` rebindings to a
//! fixpoint, and then requires every tainted value to pass a sanitizer —
//! a bounds comparison, a checked helper (`idx()`, `checked_*`,
//! `try_from`, `min`/`clamp`/`%`), or the validating `with_slice` — before
//! it reaches a sink: slice indexing `[x]`, an allocation size
//! (`vec![_; x]`, `with_capacity(x)`), or a slice range.
//!
//! The lattice is deliberately small (untainted < tainted <
//! tainted-but-sanitized, per function, flow-insensitive): at token level
//! a per-path analysis would be guesswork, but "a bound was checked
//! *somewhere* in this function" is exactly the invariant the scattered
//! ad-hoc checks were already trying to encode.
//!
//! The same boundary files also get a `guest-unwrap` check: `unwrap()` /
//! `expect()` reachable from guest-controlled input is a panic the guest
//! can trigger; justified ones live in the baseline with a comment.

use std::collections::BTreeSet;

use syn::{Delimiter, TokenTree};

use crate::model::{is_keyword, Workspace};
use crate::report::{Finding, Summary};

/// Struct fields whose *read* yields guest-controlled data (virtio
/// descriptor-table and used-elem fields).
const SOURCE_FIELDS: &[&str] = &["addr", "len", "next", "id", "flags"];

/// Callee names that validate their argument (or perform the bounds check
/// internally and return a `Result`).
const SANITIZER_CALLS: &[&str] =
    &["idx", "checked_idx", "try_from", "min", "max", "clamp", "with_slice", "validate"];

pub fn run(ws: &Workspace, findings: &mut Vec<Finding>, summary: &mut Summary) {
    for file in &ws.files {
        if !crate::exempt::in_scope("guest-taint", std::path::Path::new(&file.rel)) {
            continue;
        }
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            analyze_fn(&f.body, &file.rel, &f.name, findings, summary);
        }
    }
}

fn analyze_fn(
    body: &[TokenTree],
    rel: &str,
    function: &str,
    findings: &mut Vec<Finding>,
    summary: &mut Summary,
) {
    // 1. Collect `let` statements (flattened over all nesting levels) as
    // (bound idents, RHS tokens), plus VphiRequest destructure bindings.
    let mut lets: Vec<(Vec<String>, Vec<TokenTree>)> = Vec::new();
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    collect_bindings(body, &mut lets, &mut tainted);

    // 2. Propagate: a binding whose RHS reads a source field or mentions
    // a tainted ident becomes tainted.  Iterate to fixpoint.
    loop {
        let mut changed = false;
        for (names, rhs) in &lets {
            if names.iter().all(|n| tainted.contains(n)) {
                continue;
            }
            if rhs_is_tainted(rhs, &tainted) {
                for n in names {
                    changed |= tainted.insert(n.clone());
                }
            }
        }
        if !changed {
            break;
        }
    }
    summary.taint_sources += tainted.len();

    // 3. Sanitized idents: compared against a bound, passed to a checked
    // helper, or arithmetic-bounded, anywhere in the function.  A binding
    // whose RHS went *through* a sanitizer (`let i = st.idx(u.id)?`) is
    // sanitized at birth.
    let mut sanitized: BTreeSet<String> = BTreeSet::new();
    collect_sanitized(body, &tainted, &mut sanitized);
    for (names, rhs) in &lets {
        if rhs_sanitizes(rhs) {
            for n in names {
                sanitized.insert(n.clone());
            }
        }
    }

    // 4. Sinks.
    let mut reported: BTreeSet<String> = BTreeSet::new();
    scan_sinks(body, rel, function, &tainted, &sanitized, &mut reported, findings, summary);

    // 5. Guest-reachable panics.
    scan_unwraps(body, rel, function, findings);
}

/// Gather `let`-bindings and seed taints from `VphiRequest::X { a, b }`
/// destructuring patterns.
fn collect_bindings(
    tokens: &[TokenTree],
    lets: &mut Vec<(Vec<String>, Vec<TokenTree>)>,
    tainted: &mut BTreeSet<String>,
) {
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Ident(id) if id.text == "let" => {
                // Pattern = tokens up to the top-level `=`; RHS to `;`.
                let mut j = i + 1;
                let mut eq = None;
                while j < tokens.len() {
                    match &tokens[j] {
                        TokenTree::Punct(p) if p.ch == '=' => {
                            // Not `==` / `=>` / `>=`-style.
                            let nx = tokens.get(j + 1).and_then(TokenTree::punct);
                            if nx != Some('=') && nx != Some('>') {
                                eq = Some(j);
                                break;
                            }
                            j += 1;
                        }
                        TokenTree::Punct(p) if p.ch == ';' => break,
                        _ => j += 1,
                    }
                }
                let Some(eq) = eq else {
                    i += 1;
                    continue;
                };
                let mut end = eq + 1;
                while end < tokens.len() && tokens[end].punct() != Some(';') {
                    end += 1;
                }
                let names = pattern_idents(&tokens[i + 1..eq]);
                let rhs: Vec<TokenTree> = tokens[eq + 1..end].to_vec();
                lets.push((names, rhs));
                // The RHS may itself contain nested groups with lets
                // (closures); recurse over it too.
                for t in &tokens[eq + 1..end] {
                    if let TokenTree::Group(g) = t {
                        collect_bindings(&g.tokens, lets, tainted);
                    }
                }
                i = end;
            }
            TokenTree::Ident(id) if id.text == "VphiRequest" => {
                // `VphiRequest :: Variant { a, b, .. }` — in a *pattern*
                // the brace idents bind guest-decoded payload fields.
                if tokens.get(i + 1).and_then(TokenTree::punct) == Some(':')
                    && tokens.get(i + 2).and_then(TokenTree::punct) == Some(':')
                {
                    if let Some(TokenTree::Group(g)) = tokens.get(i + 4) {
                        if g.delimiter == Delimiter::Brace {
                            for n in pattern_idents(&g.tokens) {
                                tainted.insert(n);
                            }
                        }
                    }
                }
                i += 1;
            }
            TokenTree::Group(g) => {
                collect_bindings(&g.tokens, lets, tainted);
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Idents bound by a pattern fragment (excluding keywords, types, and
/// struct-pattern field renames `field: binding` keep the binding side).
fn pattern_idents(tokens: &[TokenTree]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        match &tokens[i] {
            TokenTree::Ident(id) if !is_keyword(&id.text) => {
                // Skip `Path ::` segments and `name :` field labels.
                let next = tokens.get(i + 1).and_then(TokenTree::punct);
                let after = tokens.get(i + 2).and_then(TokenTree::punct);
                let is_path = next == Some(':') && after == Some(':');
                let is_label = next == Some(':') && after != Some(':');
                let is_type = id.text.chars().next().is_some_and(char::is_uppercase);
                if !is_path && !is_label && !is_type {
                    out.push(id.text.clone());
                }
                i += 1;
            }
            TokenTree::Group(g) => {
                out.extend(pattern_idents(&g.tokens));
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Whether an RHS expression carries taint: reads a source field (`.len`
/// not followed by `(`), or mentions a tainted ident.
fn rhs_is_tainted(tokens: &[TokenTree], tainted: &BTreeSet<String>) -> bool {
    for i in 0..tokens.len() {
        match &tokens[i] {
            TokenTree::Ident(id) => {
                let is_field_read = i > 0
                    && tokens[i - 1].punct() == Some('.')
                    && SOURCE_FIELDS.contains(&id.text.as_str())
                    && !matches!(
                        tokens.get(i + 1),
                        Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                    );
                if is_field_read {
                    return true;
                }
                let is_method = i > 0 && tokens[i - 1].punct() == Some('.');
                if !is_method && tainted.contains(&id.text) {
                    return true;
                }
            }
            TokenTree::Group(g) if rhs_is_tainted(&g.tokens, tainted) => return true,
            _ => {}
        }
    }
    false
}

/// Mark tainted idents sanitized by comparisons, checked helpers, and
/// modulo-bounding.
fn collect_sanitized(tokens: &[TokenTree], tainted: &BTreeSet<String>, out: &mut BTreeSet<String>) {
    for i in 0..tokens.len() {
        match &tokens[i] {
            TokenTree::Ident(id) if tainted.contains(&id.text) => {
                let prev = if i > 0 { tokens[i - 1].punct() } else { None };
                let next = tokens.get(i + 1).and_then(TokenTree::punct);
                // `x < bound`, `bound > x`, `x >= n`, `x % n`, ...
                if matches!(prev, Some('<') | Some('>') | Some('%'))
                    || matches!(next, Some('<') | Some('>') | Some('%'))
                {
                    out.insert(id.text.clone());
                }
                // `x.min(..)`, `x.checked_add(..)`, `x.clamp(..)`.
                if next == Some('.') {
                    if let Some(m) = tokens.get(i + 2).and_then(TokenTree::ident) {
                        if SANITIZER_CALLS.contains(&m) || m.starts_with("checked_") {
                            out.insert(id.text.clone());
                        }
                    }
                }
            }
            TokenTree::Ident(id) => {
                // `idx(x)`, `with_slice(.., x, ..)`, `try_from(x)`:
                // a sanitizer call whose args mention a tainted ident.
                let sanitizes =
                    SANITIZER_CALLS.contains(&id.text.as_str()) || id.text.starts_with("checked_");
                if sanitizes {
                    if let Some(TokenTree::Group(g)) = tokens.get(i + 1) {
                        if g.delimiter == Delimiter::Parenthesis {
                            mark_mentioned(&g.tokens, tainted, out);
                        }
                    }
                }
            }
            _ => {}
        }
        if let TokenTree::Group(g) = &tokens[i] {
            collect_sanitized(&g.tokens, tainted, out);
        }
    }
}

/// Whether an RHS routes its value through a sanitizer call.
fn rhs_sanitizes(tokens: &[TokenTree]) -> bool {
    for i in 0..tokens.len() {
        if let Some(id) = tokens[i].ident() {
            let sanitizes = SANITIZER_CALLS.contains(&id) || id.starts_with("checked_");
            if sanitizes
                && matches!(
                    tokens.get(i + 1),
                    Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                )
            {
                return true;
            }
        }
        if let TokenTree::Group(g) = &tokens[i] {
            if rhs_sanitizes(&g.tokens) {
                return true;
            }
        }
    }
    false
}

fn mark_mentioned(tokens: &[TokenTree], tainted: &BTreeSet<String>, out: &mut BTreeSet<String>) {
    for t in tokens {
        match t {
            TokenTree::Ident(id) if tainted.contains(&id.text) => {
                out.insert(id.text.clone());
            }
            TokenTree::Group(g) => mark_mentioned(&g.tokens, tainted, out),
            _ => {}
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scan_sinks(
    tokens: &[TokenTree],
    rel: &str,
    function: &str,
    tainted: &BTreeSet<String>,
    sanitized: &BTreeSet<String>,
    reported: &mut BTreeSet<String>,
    findings: &mut Vec<Finding>,
    summary: &mut Summary,
) {
    for i in 0..tokens.len() {
        match &tokens[i] {
            // Indexing / slicing: `recv [ .. x .. ]` where `recv` is an
            // expression (ident or close of a call/index), not an array
            // literal or attribute.
            TokenTree::Group(g) if g.delimiter == Delimiter::Bracket && i > 0 => {
                let indexes = match &tokens[i - 1] {
                    TokenTree::Ident(id) => !is_keyword(&id.text),
                    TokenTree::Group(p) => p.delimiter != Delimiter::Bracket,
                    _ => false,
                };
                let is_macro_body = i >= 2 && tokens[i - 1].punct() == Some('!');
                if indexes && !is_macro_body {
                    summary.taint_sinks += 1;
                    report_tainted_in(
                        &g.tokens, rel, function, g.line, "index", tainted, sanitized, reported,
                        findings,
                    );
                }
                // `vec![val; x]`: allocation sized by `x`.
                if is_macro_body && tokens.get(i - 2).and_then(TokenTree::ident) == Some("vec") {
                    if let Some(semi) = g.tokens.iter().position(|t| t.punct() == Some(';')) {
                        summary.taint_sinks += 1;
                        report_tainted_in(
                            &g.tokens[semi + 1..],
                            rel,
                            function,
                            g.line,
                            "allocation size",
                            tainted,
                            sanitized,
                            reported,
                            findings,
                        );
                    }
                }
            }
            // `with_capacity(x)`.
            TokenTree::Group(g)
                if g.delimiter == Delimiter::Parenthesis
                    && i > 0
                    && tokens[i - 1].ident() == Some("with_capacity") =>
            {
                summary.taint_sinks += 1;
                report_tainted_in(
                    &g.tokens,
                    rel,
                    function,
                    g.line,
                    "allocation size",
                    tainted,
                    sanitized,
                    reported,
                    findings,
                );
            }
            _ => {}
        }
        if let TokenTree::Group(g) = &tokens[i] {
            scan_sinks(&g.tokens, rel, function, tainted, sanitized, reported, findings, summary);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn report_tainted_in(
    tokens: &[TokenTree],
    rel: &str,
    function: &str,
    line: usize,
    sink: &str,
    tainted: &BTreeSet<String>,
    sanitized: &BTreeSet<String>,
    reported: &mut BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    for t in tokens {
        match t {
            TokenTree::Ident(id) if tainted.contains(&id.text) && !sanitized.contains(&id.text) => {
                let detail = format!("{}:{sink}", id.text);
                if reported.insert(detail.clone()) {
                    findings.push(Finding {
                        rule: "guest-taint",
                        file: rel.to_string(),
                        function: function.to_string(),
                        line,
                        detail,
                        message: format!(
                            "guest-controlled `{}` reaches a {sink} without a bounds check; validate it (checked idx()/try_from/min) first",
                            id.text
                        ),
                    });
                }
            }
            TokenTree::Group(g) => report_tainted_in(
                &g.tokens, rel, function, line, sink, tainted, sanitized, reported, findings,
            ),
            _ => {}
        }
    }
}

/// `unwrap()` / `expect()` in guest-facing code: a panic the guest can
/// reach.  Justified sites live in the analyzer baseline.
fn scan_unwraps(tokens: &[TokenTree], rel: &str, function: &str, findings: &mut Vec<Finding>) {
    for i in 0..tokens.len() {
        if tokens[i].punct() == Some('.') {
            if let Some(m @ ("unwrap" | "expect")) = tokens.get(i + 1).and_then(TokenTree::ident) {
                if matches!(
                    tokens.get(i + 2),
                    Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                ) {
                    // Identify the site by the nearest named thing to its
                    // left so the key survives reformatting.
                    let mut j = i;
                    let mut anchor = "?";
                    while j > 0 {
                        j -= 1;
                        if let Some(name) = tokens[j].ident() {
                            anchor = name;
                            break;
                        }
                    }
                    findings.push(Finding {
                        rule: "guest-unwrap",
                        file: rel.to_string(),
                        function: function.to_string(),
                        line: tokens[i + 1].line(),
                        detail: format!("{anchor}.{m}"),
                        message: format!(
                            ".{m}() in guest-facing code panics on guest-controlled input; return a typed error (or baseline it with a justification)"
                        ),
                    });
                }
            }
        }
        if let TokenTree::Group(g) = &tokens[i] {
            scan_unwraps(&g.tokens, rel, function, findings);
        }
    }
}
