//! The `xtask lint` pass: the three file-scoped token-level checks of the
//! workspace's discipline that neither the compiler nor clippy can express.
//!
//! The runtime side of the concurrency discipline lives in `vphi-sync`
//! (lock classes, the order graph, the deadlock detector).  The bans a
//! type-resolved tool can state — raw `std::sync` primitives, virtqueue
//! submission and doorbells outside the frontend, MSI injection outside
//! the lane notifier, raw atomics and fences outside `vphi-sync`,
//! wildcard arms over the wire-protocol enum — are clippy configuration
//! (`clippy.toml`, `#[expect]` at the permitted sites, `#![deny]` in
//! `core/src/protocol.rs`), and `.lock().unwrap()` does not compile.  What
//! is left here
//! bans a *shape* in *one file or data path*, which clippy's
//! `disallowed-*` lists cannot scope.
//!
//! Checks (see DESIGN.md #12):
//! 1. `event-loop-blocking` — no `.lock()` / `.read()` / `.write()` /
//!    `.wait*()` method calls in `vmm/src/event_loop.rs`, which runs with
//!    the guest paused: a blocked lock there stalls the whole VM.
//! 2. `opctx-api` — in `scif/src/api.rs`, no `fn` may take a raw
//!    `&mut Timeline` parameter: the endpoint API's calling convention is
//!    `ctx: impl Into<OpCtx<'_>>` (DESIGN.md #14), which accepts a bare
//!    timeline from untraced callers and propagates trace context from
//!    traced ones.  `#[deprecated]` shims are exempt.
//! 3. `staging-buffer` — repeat-form `vec![_; len]` allocation is banned
//!    on both data planes: the RMA path (`scif/src/rma.rs` and
//!    `window.rs`, the backend, `pcie/`) and the message path
//!    (`scif/src/queue.rs` and `endpoint.rs`, the backend's `Send`/`Recv`
//!    arms).  Every RMA and every message moves its bytes once per hop,
//!    straight between the two stores (DESIGN.md #19, #20), with
//!    `pcie::dma::gather_copy`'s fixed bounce block as the RMA fallback,
//!    so a fresh length-sized staging vec is exactly the copy those
//!    designs retired.  Only the sanctioned bounce (`pcie/src/dma.rs`) is
//!    exempt; `#[cfg(test)]` items are skipped because tests stage
//!    reference buffers on purpose.

use std::fmt;
use std::path::{Path, PathBuf};

use syn::{Delimiter, TokenTree};
use vphi_analyze::exempt;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// Lint every `.rs` file under `root`, returning all findings.  The file
/// walk is shared with `vphi-analyze` ([`vphi_analyze::collect_sources`])
/// so both tools see exactly the same tree (same skip list, same order).
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut out = Vec::new();
    for (rel, src) in vphi_analyze::collect_sources(root)? {
        out.extend(lint_source(Path::new(&rel), &src)?);
    }
    Ok(out)
}

/// Lint a single file's source.  `rel` is the workspace-relative path;
/// every rule keys off it via the shared [`exempt`] tables.
pub fn lint_source(rel: &Path, src: &str) -> Result<Vec<Violation>, String> {
    let file = syn::parse_file(src).map_err(|e| format!("{}: {e}", rel.display()))?;
    let mut v = Vec::new();
    let is_event_loop = exempt::in_scope("event-loop-blocking", rel);
    let is_scif_api = exempt::in_scope("opctx-api", rel);
    if is_event_loop || is_scif_api {
        walk(&file.tokens, rel, is_event_loop, is_scif_api, &mut v);
    }
    if exempt::in_scope("staging-buffer", rel) && !exempt::is_exempt("staging-buffer", rel) {
        scan_staging(&file.tokens, rel, &mut v);
    }
    Ok(v)
}

fn walk(
    tokens: &[TokenTree],
    rel: &Path,
    is_event_loop: bool,
    is_scif_api: bool,
    out: &mut Vec<Violation>,
) {
    if is_event_loop {
        scan_event_loop(tokens, rel, out);
    }
    if is_scif_api {
        scan_opctx_api(tokens, rel, out);
    }
    for t in tokens {
        if let TokenTree::Group(g) = t {
            walk(&g.tokens, rel, is_event_loop, is_scif_api, out);
        }
    }
}

/// Rule 1: a blocking acquisition — `. <name> ( .. )` — in the event loop.
fn scan_event_loop(tokens: &[TokenTree], rel: &Path, out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if tokens[i].punct() != Some('.') {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(TokenTree::ident) else { continue };
        let blocking = matches!(name, "lock" | "read" | "write") || name.starts_with("wait");
        let is_call = matches!(
            tokens.get(i + 2),
            Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
        );
        if blocking && is_call {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: tokens[i + 1].line(),
                rule: "event-loop-blocking",
                message: format!(
                    ".{name}() in the vmm event loop can block with the guest paused; hand off to a worker instead"
                ),
            });
        }
    }
}

/// Rule 3: repeat-form `vec![_; len]` staging buffers on the data paths.
/// Self-recursive (not part of [`walk`]) so it can skip `#[cfg(test)]`
/// subtrees — tests stage reference buffers on purpose.
fn scan_staging(tokens: &[TokenTree], rel: &Path, out: &mut Vec<Violation>) {
    let mut i = 0;
    while i < tokens.len() {
        // `#[cfg(..test..)]` attributed item: skip to its `;` terminator
        // or past its brace body (covers `mod`, `fn`, `impl`, `use`).
        if tokens[i].punct() == Some('#') {
            if let Some(TokenTree::Group(attr)) = tokens.get(i + 1) {
                if attr.delimiter == Delimiter::Bracket
                    && attr.tokens.first().and_then(TokenTree::ident) == Some("cfg")
                    && group_mentions(attr, "test")
                {
                    i += 2;
                    while i < tokens.len() {
                        match &tokens[i] {
                            TokenTree::Group(g) if g.delimiter == Delimiter::Brace => {
                                i += 1;
                                break;
                            }
                            t if t.punct() == Some(';') => {
                                i += 1;
                                break;
                            }
                            _ => i += 1,
                        }
                    }
                    continue;
                }
            }
        }
        // `vec ! [ expr ; len ]` — the repeat form; a top-level `;` inside
        // the macro group distinguishes it from list-form `vec![a, b]`.
        if tokens[i].ident() == Some("vec")
            && tokens.get(i + 1).and_then(TokenTree::punct) == Some('!')
        {
            if let Some(TokenTree::Group(g)) = tokens.get(i + 2) {
                if g.tokens.iter().any(|t| t.punct() == Some(';')) {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: tokens[i].line(),
                        rule: "staging-buffer",
                        message: "vec![_; len] builds a length-sized staging buffer on a data path; RMA and message bytes move once per hop between the two stores (WindowBacking::copy_to with gather_copy as fallback, MsgQueue's lending calls) — only pcie::dma's fixed bounce is exempt (DESIGN.md #19, #20)".into(),
                    });
                }
            }
        }
        if let TokenTree::Group(g) = &tokens[i] {
            scan_staging(&g.tokens, rel, out);
        }
        i += 1;
    }
}

/// Rule 2: the endpoint API must take `OpCtx`, not a raw timeline.
/// Flags any `fn` in `scif/src/api.rs` whose parameter list mentions the
/// `Timeline` ident, unless a `#[deprecated]` attribute precedes it.
fn scan_opctx_api(tokens: &[TokenTree], rel: &Path, out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if tokens[i].ident() != Some("fn") {
            continue;
        }
        let Some(name) = tokens.get(i + 1).and_then(TokenTree::ident) else { continue };
        // The parameter list is the first parenthesis group after the fn
        // name (generic params contain no parenthesis groups in this API).
        let Some(params) = tokens[i + 2..].iter().find_map(|t| match t {
            TokenTree::Group(g) if g.delimiter == Delimiter::Parenthesis => Some(g),
            _ => None,
        }) else {
            continue;
        };
        if !group_mentions(params, "Timeline") || fn_is_deprecated(tokens, i) {
            continue;
        }
        out.push(Violation {
            file: rel.to_path_buf(),
            line: tokens[i + 1].line(),
            rule: "opctx-api",
            message: format!(
                "fn {name} takes a raw &mut Timeline; scif::api methods take `ctx: impl Into<OpCtx<'_>>` so traces propagate (DESIGN.md #14)"
            ),
        });
    }
}

/// Whether `group`'s token tree (at any depth) mentions ident `what`.
fn group_mentions(group: &syn::Group, what: &str) -> bool {
    fn scan(tokens: &[TokenTree], what: &str) -> bool {
        tokens.iter().any(|t| match t {
            TokenTree::Ident(id) => id.text == what,
            TokenTree::Group(g) => scan(&g.tokens, what),
            _ => false,
        })
    }
    scan(&group.tokens, what)
}

/// Whether the `fn` keyword at `at` is preceded by a `#[deprecated ..]`
/// attribute (scanning back over visibility/qualifier tokens).
fn fn_is_deprecated(tokens: &[TokenTree], at: usize) -> bool {
    let mut j = at;
    while j > 0 {
        j -= 1;
        match &tokens[j] {
            TokenTree::Ident(id)
                if matches!(id.text.as_str(), "pub" | "const" | "unsafe" | "async" | "crate") => {}
            // `pub(crate)` visibility group.
            TokenTree::Group(g) if g.delimiter == Delimiter::Parenthesis => {}
            // `#[ ... ]`: an attribute — deprecated anywhere inside counts.
            TokenTree::Group(g)
                if g.delimiter == Delimiter::Bracket
                    && j > 0
                    && tokens[j - 1].punct() == Some('#') =>
            {
                if g.tokens.iter().any(|t| t.ident() == Some("deprecated")) {
                    return true;
                }
                j -= 1; // keep scanning past this attribute
            }
            _ => return false,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Violation> {
        lint_source(Path::new(rel), src).unwrap()
    }

    #[test]
    fn event_loop_blocking_calls_are_flagged() {
        let src = "fn f(m: &M) { m.lock(); q.wait_until(|| true); s.load(Ordering::Relaxed); }";
        let v = lint("crates/vmm/src/event_loop.rs", src);
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert_eq!(rules, ["event-loop-blocking", "event-loop-blocking"]);
        // The same calls elsewhere are the runtime detector's job, not lint's.
        assert!(lint("crates/vmm/src/kvm.rs", src).is_empty());
    }

    #[test]
    fn scif_api_timeline_param_is_flagged() {
        let src = "impl ScifEndpoint {\n  pub fn send(&self, data: &[u8], tl: &mut Timeline) -> ScifResult<usize> { todo!() }\n}";
        let v = lint("crates/scif/src/api.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "opctx-api");
        assert_eq!(v[0].line, 2);
        // The same signature elsewhere is fine (guest/backend mirrors are
        // converted by review, not lint).
        assert!(lint("crates/core/src/guest.rs", src).is_empty());
    }

    #[test]
    fn scif_api_opctx_params_pass_and_deprecated_is_exempt() {
        let ok = "impl ScifEndpoint {\n  pub fn send<'a>(&self, data: &[u8], ctx: impl Into<OpCtx<'a>>) -> ScifResult<usize> { todo!() }\n  fn syscall(&self, ctx: &mut OpCtx<'_>) {}\n}";
        assert!(lint("crates/scif/src/api.rs", ok).is_empty());
        let shim = "#[deprecated(note = \"use OpCtx\")]\npub fn send_old(tl: &mut Timeline) {}";
        assert!(lint("crates/scif/src/api.rs", shim).is_empty());
        // Timeline in the return type or body is not a violation.
        let ret = "fn spans(&self) -> &Timeline { &self.tl }";
        assert!(lint("crates/scif/src/api.rs", ret).is_empty());
    }

    #[test]
    fn staging_vecs_are_flagged_on_the_rma_path_only() {
        let src = "fn replay(len: usize) { let buf = vec![0u8; len]; use_it(&buf); }";
        let v = lint("crates/scif/src/rma.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "staging-buffer");
        assert_eq!(v[0].line, 1);
        // The backend (RMA replay and message arms alike) and the message
        // queue are in scope with no exemption.
        assert_eq!(lint("crates/core/src/backend/rma.rs", src).len(), 1);
        assert_eq!(lint("crates/core/src/backend/mod.rs", src).len(), 1);
        assert_eq!(lint("crates/scif/src/queue.rs", src).len(), 1);
        assert_eq!(lint("crates/scif/src/endpoint.rs", src).len(), 1);
        // The sanctioned bounce is exempt; out-of-scope crates are not
        // this rule's business.
        assert!(lint("crates/pcie/src/dma.rs", src).is_empty());
        assert!(lint("crates/core/src/frontend/mod.rs", src).is_empty());
        // List-form vecs and non-vec macros stay legal on the path.
        let ok = "fn f() { let v = vec![1, 2, 3]; let w = Vec::with_capacity(9); }";
        assert!(lint("crates/scif/src/rma.rs", ok).is_empty());
        // Test modules stage reference buffers on purpose.
        let test_mod =
            "#[cfg(test)]\nmod tests {\n  fn f(n: usize) { let v = vec![0u8; n]; drop(v); }\n}";
        assert!(lint("crates/scif/src/rma.rs", test_mod).is_empty(), "cfg(test) is skipped");
        // A cfg(test) fn (not just mod) is skipped too; the next item
        // after it is still scanned.
        let mixed = "#[cfg(test)]\nfn helper(n: usize) -> Vec<u8> { vec![0; n] }\nfn hot(n: usize) -> Vec<u8> { vec![0; n] }";
        let v = lint("crates/scif/src/rma.rs", mixed);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3);
    }

    /// What CI's clippy job does not see: the three file-scoped rules on
    /// the real tree, so a green tier-1 is a green lint.
    #[test]
    fn workspace_is_lint_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let violations = lint_workspace(&root).unwrap();
        for v in &violations {
            eprintln!("{v}");
        }
        assert!(violations.is_empty(), "{} lint violation(s), listed above", violations.len());
    }

    #[test]
    fn staging_fixture_fails() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/staging_vec.rs");
        let src = std::fs::read_to_string(&fixture).unwrap();
        // The fixture dir is skipped by the workspace walk, so lint it
        // under a path the scope tables treat as the RMA engine.
        let v = lint("crates/scif/src/rma.rs", &src);
        assert_eq!(v.len(), 1, "exactly the non-test staging vec trips: {v:?}");
        assert_eq!(v[0].rule, "staging-buffer");
    }
}
