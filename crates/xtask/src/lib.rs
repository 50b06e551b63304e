//! The `xtask lint` pass: token-level static checks for the workspace's
//! concurrency discipline.
//!
//! The runtime side of the discipline lives in `vphi-sync` (lock classes,
//! the order graph, the deadlock detector).  This pass closes the loopholes
//! the runtime can't see: code that *bypasses* the tracked types, code that
//! re-panics on poison, wire-protocol matches that would silently drop a new
//! opcode, and blocking acquisitions in the VMM event loop (which runs with
//! the guest paused, so a blocked lock there stalls the whole VM).
//!
//! Checks (see DESIGN.md #12):
//! 1. `raw-sync` — `std::sync::{Mutex, RwLock, Condvar}` and `parking_lot`
//!    are banned outside `vphi-sync` and `shims/`; everything else must use
//!    the tracked types.
//! 2. `lock-unwrap` — `.lock().unwrap()` is banned; tracked locks recover
//!    from poison (`lock()` / `lock_or_recover()`), so a panicking stress
//!    thread cannot cascade into unrelated failures.
//! 3. `protocol-exhaustive` — in `core/src/protocol.rs`, any `match` whose
//!    arm *patterns* name `VphiRequest` must not have a `_` arm: adding an
//!    opcode must be a compile-or-lint error at every dispatch site.  (The
//!    byte-level `decode` match is exempt because `VphiRequest` appears
//!    only to the right of `=>` there.)
//! 4. `event-loop-blocking` — no `.lock()` / `.read()` / `.write()` /
//!    `.wait*()` method calls in `vmm/src/event_loop.rs`.
//! 5. `opctx-api` — in `scif/src/api.rs`, no `fn` may take a raw
//!    `&mut Timeline` parameter: the endpoint API's calling convention is
//!    `ctx: impl Into<OpCtx<'_>>` (DESIGN.md #14), which accepts a bare
//!    timeline from untraced callers and propagates trace context from
//!    traced ones.  `#[deprecated]` shims are exempt.
//! 6. `queue-router` — `.add_chain()` / `.prepare_chain()` /
//!    `.publish_chain()` / `.publish_avail()` are banned outside
//!    `crates/virtio/` and the frontend: every submission must go through
//!    the frontend's queue router so the per-endpoint lane hash
//!    (DESIGN.md #15) cannot be bypassed with a hand-picked queue index.
//!    The virtio microbench and the multi-queue FIFO property test drive
//!    rings directly on purpose and are exempt by path.
//! 7. `msi-notifier` — `.inject()` is banned outside `crates/vmm/` (the
//!    `IrqChip` itself) and `core/src/backend/notify.rs`: every completion
//!    MSI must go through the lane's `LaneNotifier`, the single place the
//!    EVENT_IDX suppression decision and the pending-batch flush live
//!    (DESIGN.md #16).  A direct injection would bypass both and corrupt
//!    the irqs-injected/suppressed ledger.
//! 8. `kick-doorbell` — `.kick()` and `.kick_blocking()` are banned
//!    outside `crates/virtio/` (the doorbell itself), the frontend (whose
//!    batch submitter amortizes one doorbell per touched lane, DESIGN.md
//!    #18, and whose blocking path is the one caller entitled to service
//!    its own vm-exit, #21), and the multi-queue FIFO property test: a
//!    stray kick bypasses EVENT_IDX suppression and the
//!    kicks-per-submission ledger the open-loop figure is built on.
//! 9. `staging-buffer` — repeat-form `vec![_; len]` allocation is banned
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

/// Lint a single file's source.  `rel` is the workspace-relative path; the
/// file-specific rules key off it via the shared [`exempt`] tables.
pub fn lint_source(rel: &Path, src: &str) -> Result<Vec<Violation>, String> {
    let file = syn::parse_file(src).map_err(|e| format!("{}: {e}", rel.display()))?;
    let mut v = Vec::new();
    let is_protocol = exempt::in_scope("protocol-exhaustive", rel);
    let is_scif_api = exempt::in_scope("opctx-api", rel);
    let checks = SequenceChecks {
        is_event_loop: exempt::in_scope("event-loop-blocking", rel),
        check_queue_submit: !exempt::is_exempt("queue-router", rel),
        check_irq_inject: !exempt::is_exempt("msi-notifier", rel),
        check_kick: !exempt::is_exempt("kick-doorbell", rel),
    };
    walk(&file.tokens, rel, is_protocol, is_scif_api, checks, &mut v);
    if exempt::in_scope("staging-buffer", rel) && !exempt::is_exempt("staging-buffer", rel) {
        scan_staging(&file.tokens, rel, &mut v);
    }
    Ok(v)
}

/// Which per-file sequence rules apply (rules 4, 6, 7, 8).
#[derive(Clone, Copy)]
struct SequenceChecks {
    is_event_loop: bool,
    check_queue_submit: bool,
    check_irq_inject: bool,
    check_kick: bool,
}

fn walk(
    tokens: &[TokenTree],
    rel: &Path,
    is_protocol: bool,
    is_scif_api: bool,
    checks: SequenceChecks,
    out: &mut Vec<Violation>,
) {
    scan_sequences(tokens, rel, checks, out);
    if is_protocol {
        scan_protocol_matches(tokens, rel, out);
    }
    if is_scif_api {
        scan_opctx_api(tokens, rel, out);
    }
    for t in tokens {
        if let TokenTree::Group(g) = t {
            walk(&g.tokens, rel, is_protocol, is_scif_api, checks, out);
        }
    }
}

const BANNED_SYNC: &[&str] = &["Mutex", "RwLock", "Condvar"];

/// Queue-submission methods only the router path may call (rule 6).
const QUEUE_SUBMIT: &[&str] =
    &["add_chain", "prepare_chain", "publish_chain", "publish_avail", "publish_avail_batch"];

/// The virtqueue's kick entry points, frontend-only (rule 8).
const KICKS: &[&str] = &["kick", "kick_blocking"];

/// Rules 1, 2, 4, 6, 7, 8: fixed token sequences within one nesting level.
fn scan_sequences(
    tokens: &[TokenTree],
    rel: &Path,
    checks: SequenceChecks,
    out: &mut Vec<Violation>,
) {
    let SequenceChecks { is_event_loop, check_queue_submit, check_irq_inject, check_kick } = checks;
    let ident = |i: usize| tokens.get(i).and_then(TokenTree::ident);
    let punct = |i: usize| tokens.get(i).and_then(TokenTree::punct);
    for i in 0..tokens.len() {
        // Rule 1a: `std :: sync :: <banned>` or `std :: sync :: { ..banned.. }`.
        if ident(i) == Some("std")
            && punct(i + 1) == Some(':')
            && punct(i + 2) == Some(':')
            && ident(i + 3) == Some("sync")
            && punct(i + 4) == Some(':')
            && punct(i + 5) == Some(':')
        {
            match tokens.get(i + 6) {
                Some(TokenTree::Ident(id)) if BANNED_SYNC.contains(&id.text.as_str()) => {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: id.line,
                        rule: "raw-sync",
                        message: format!(
                            "raw std::sync::{} is banned outside vphi-sync; use vphi_sync::Tracked{} with a declared LockClass",
                            id.text, id.text
                        ),
                    });
                }
                Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Brace => {
                    for t in &g.tokens {
                        if let TokenTree::Ident(id) = t {
                            if BANNED_SYNC.contains(&id.text.as_str()) {
                                out.push(Violation {
                                    file: rel.to_path_buf(),
                                    line: id.line,
                                    rule: "raw-sync",
                                    message: format!(
                                        "raw std::sync::{} is banned outside vphi-sync; use vphi_sync::Tracked{} with a declared LockClass",
                                        id.text, id.text
                                    ),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        // Rule 1b: any mention of parking_lot outside vphi-sync/shims.
        if let Some(TokenTree::Ident(id)) = tokens.get(i) {
            if id.text == "parking_lot" {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: id.line,
                    rule: "raw-sync",
                    message: "parking_lot is banned outside vphi-sync; use the tracked types"
                        .into(),
                });
            }
        }
        // Rule 2: `. lock ( ) . unwrap`.
        if punct(i) == Some('.')
            && ident(i + 1) == Some("lock")
            && matches!(tokens.get(i + 2), Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis)
            && punct(i + 3) == Some('.')
            && ident(i + 4) == Some("unwrap")
        {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: tokens[i + 1].line(),
                rule: "lock-unwrap",
                message: "lock().unwrap() re-panics on poison; tracked lock() already recovers — drop the unwrap()".into(),
            });
        }
        // Rule 4: blocking acquisition in the event loop.
        if is_event_loop && punct(i) == Some('.') {
            if let Some(name) = ident(i + 1) {
                let blocking = matches!(name, "lock" | "lock_or_recover" | "read" | "write")
                    || name.starts_with("wait");
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
        // Rule 6: direct virtqueue submission outside the router path.
        if check_queue_submit && punct(i) == Some('.') {
            if let Some(name) = ident(i + 1) {
                let is_call = matches!(
                    tokens.get(i + 2),
                    Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
                );
                if is_call && QUEUE_SUBMIT.contains(&name) {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: tokens[i + 1].line(),
                        rule: "queue-router",
                        message: format!(
                            ".{name}() submits to a VirtQueue directly; go through the frontend's queue router so the per-endpoint lane hash holds (DESIGN.md #15)"
                        ),
                    });
                }
            }
        }
        // Rule 7: direct MSI injection outside the lane notifier.
        if check_irq_inject
            && punct(i) == Some('.')
            && ident(i + 1) == Some("inject")
            && matches!(
                tokens.get(i + 2),
                Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
            )
        {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: tokens[i + 1].line(),
                rule: "msi-notifier",
                message: ".inject() bypasses the LaneNotifier; completion MSIs must go through deliver_irq() so EVENT_IDX suppression and batch flushing hold (DESIGN.md #16)".into(),
            });
        }
        // Rule 8: direct doorbell ring outside the frontend batch submitter.
        if check_kick
            && punct(i) == Some('.')
            && ident(i + 1).is_some_and(|name| KICKS.contains(&name))
            && matches!(
                tokens.get(i + 2),
                Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis
            )
        {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: tokens[i + 1].line(),
                rule: "kick-doorbell",
                message: "a virtqueue kick outside the frontend; submissions must go through its batch submitter (one kick covers the lane's whole batch and the kicks-per-submission ledger holds, DESIGN.md #18) or its blocking path (the one caller that services its own vm-exit, #21)".into(),
            });
        }
    }
}

/// Rule 9: repeat-form `vec![_; len]` staging buffers on the RMA path.
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

/// Rule 5: the endpoint API must take `OpCtx`, not a raw timeline.
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

/// Rule 3: exhaustive matches over the wire-protocol request enum.
fn scan_protocol_matches(tokens: &[TokenTree], rel: &Path, out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        if tokens[i].ident() != Some("match") {
            continue;
        }
        // The match body is the next brace group at this nesting level
        // (struct literals are not legal in a match scrutinee).
        let Some(body) = tokens[i + 1..].iter().find_map(|t| match t {
            TokenTree::Group(g) if g.delimiter == Delimiter::Brace => Some(g),
            _ => None,
        }) else {
            continue;
        };
        let arms = split_arms(&body.tokens);
        let over_request =
            arms.iter().any(|a| a.pattern.iter().any(|t| t.ident() == Some("VphiRequest")));
        if !over_request {
            continue;
        }
        for arm in &arms {
            if arm.pattern.len() == 1 && arm.pattern[0].ident() == Some("_") {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: arm.pattern[0].line(),
                    rule: "protocol-exhaustive",
                    message: "wildcard arm in a match over VphiRequest: a new opcode would be silently dropped; list every variant".into(),
                });
            }
        }
    }
}

struct Arm<'a> {
    /// Pattern tokens (guard stripped at the top-level `if`).
    pattern: &'a [TokenTree],
}

/// Split a match body's tokens into arms: pattern tokens left of each
/// top-level `=>`, value consumed up to the arm-terminating `,` (or a brace
/// group immediately after `=>`).
fn split_arms(body: &[TokenTree]) -> Vec<Arm<'_>> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let start = i;
        // Find `=>` (adjacent `=` `>` puncts).
        let mut arrow = None;
        while i < body.len() {
            if body[i].punct() == Some('=')
                && body.get(i + 1).and_then(TokenTree::punct) == Some('>')
            {
                arrow = Some(i);
                break;
            }
            i += 1;
        }
        let Some(arrow) = arrow else { break };
        let mut pattern = &body[start..arrow];
        // Strip a trailing `if <guard>` so `_ if c` still reads as `_`.
        if let Some(guard_at) = pattern.iter().position(|t| t.ident() == Some("if")) {
            pattern = &pattern[..guard_at];
        }
        arms.push(Arm { pattern });
        i = arrow + 2;
        // Skip the arm value: a brace-group body ends the arm; otherwise
        // scan to the next top-level comma.
        if let Some(TokenTree::Group(g)) = body.get(i) {
            if g.delimiter == Delimiter::Brace {
                i += 1;
                if body.get(i).and_then(TokenTree::punct) == Some(',') {
                    i += 1;
                }
                continue;
            }
        }
        while i < body.len() {
            if body[i].punct() == Some(',') {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    arms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Violation> {
        lint_source(Path::new(rel), src).unwrap()
    }

    #[test]
    fn flags_raw_std_mutex_and_use_lists() {
        let v = lint(
            "crates/foo/src/lib.rs",
            "use std::sync::Mutex;\nfn f() -> std::sync::RwLock<u8> { todo!() }\nuse std::sync::{Arc, Condvar};\n",
        );
        let rules: Vec<_> = v.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(rules, [("raw-sync", 1), ("raw-sync", 2), ("raw-sync", 3)]);
    }

    #[test]
    fn allows_std_sync_atomics_and_arc() {
        let v = lint(
            "crates/foo/src/lib.rs",
            "use std::sync::Arc;\nuse std::sync::atomic::{AtomicU64, Ordering};\nuse std::sync::mpsc;\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_parking_lot_anywhere() {
        let v = lint("crates/foo/src/lib.rs", "use parking_lot::Mutex;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "raw-sync");
    }

    #[test]
    fn mentions_in_comments_and_strings_are_fine() {
        let v = lint(
            "crates/foo/src/lib.rs",
            "// std::sync::Mutex in prose\nconst S: &str = \"parking_lot::Mutex\";\n",
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn flags_lock_unwrap() {
        let v = lint("crates/foo/src/lib.rs", "fn f() { let g = m.lock().unwrap(); drop(g); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "lock-unwrap");
        // lock() without unwrap, and unrelated unwraps, are fine.
        assert!(lint("a.rs", "fn f() { let g = m.lock(); x.parse().unwrap(); }").is_empty());
    }

    #[test]
    fn protocol_wildcard_over_request_enum_is_flagged() {
        let src = "fn dispatch(r: &VphiRequest) {\n  match r {\n    VphiRequest::Open => a(),\n    _ => b(),\n  }\n}";
        let v = lint("crates/core/src/protocol.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "protocol-exhaustive");
        assert_eq!(v[0].line, 4);
        // Same source outside protocol.rs is not this rule's business.
        assert!(lint("crates/core/src/backend/mod.rs", src).is_empty());
    }

    #[test]
    fn decode_style_byte_match_is_exempt() {
        // VphiRequest appears only to the right of `=>`: not a match over
        // the enum, so the `_ => return None` default is legitimate.
        let src = "fn decode(b: &[u8]) -> Option<VphiRequest> {\n  Some(match b[0] {\n    1 => VphiRequest::Open,\n    _ => return None,\n  })\n}";
        assert!(lint("crates/core/src/protocol.rs", src).is_empty());
    }

    #[test]
    fn guarded_wildcard_still_counts() {
        let src = "fn f(r: &VphiRequest, c: bool) { match r { VphiRequest::Open => a(), _ if c => b(), _ => d(), } }";
        let v = lint("crates/core/src/protocol.rs", src);
        assert_eq!(v.len(), 2);
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
    fn direct_queue_submission_is_flagged_outside_the_router() {
        let src = "fn f(q: &VirtQueue) { let h = q.prepare_chain(&c).unwrap(); q.publish_avail(h, cost, &mut tl); }";
        let v = lint("crates/core/src/backend/mod.rs", src);
        let rules: Vec<_> = v.iter().map(|x| x.rule).collect();
        assert_eq!(rules, ["queue-router", "queue-router"]);
        let v = lint("tests/concurrency.rs", "fn f() { q.add_chain(&r, &w).unwrap(); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "queue-router");
    }

    #[test]
    fn router_path_and_ring_tests_may_submit_directly() {
        let src =
            "fn f(q: &VirtQueue) { q.add_chain(&r, &w).unwrap(); q.prepare_chain(&c).unwrap(); }";
        assert!(lint("crates/core/src/frontend/mod.rs", src).is_empty());
        assert!(lint("crates/virtio/src/queue.rs", src).is_empty());
        assert!(lint("crates/virtio/tests/prop_queue.rs", src).is_empty());
        assert!(lint("crates/bench/benches/micro_components.rs", src).is_empty());
        assert!(lint("crates/core/tests/mq_fifo.rs", src).is_empty());
        // Pops and used-ring pushes are the backend's job and stay legal.
        let pops = "fn f(q: &VirtQueue) { q.pop_avail().unwrap(); q.push_used(e, c, &mut tl); }";
        assert!(lint("crates/core/src/backend/mod.rs", pops).is_empty());
    }

    #[test]
    fn flags_direct_msi_injection_outside_the_notifier() {
        let src = "fn f(chip: &IrqChip, tl: &mut Timeline) { chip.inject(7, tl); }";
        let v = lint("crates/core/src/backend/mod.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "msi-notifier");
        assert_eq!(v[0].line, 1);
        // A frontend helper sneaking an injection in is just as illegal.
        assert_eq!(lint("crates/core/src/frontend/mod.rs", src).len(), 1);
    }

    #[test]
    fn the_notifier_and_the_irqchip_itself_may_inject() {
        let src = "fn f(chip: &IrqChip, tl: &mut Timeline) { chip.inject(7, tl); }";
        assert!(lint("crates/core/src/backend/notify.rs", src).is_empty());
        assert!(lint("crates/vmm/src/irq.rs", src).is_empty());
        assert!(lint("crates/vmm/tests/irq_props.rs", src).is_empty());
        // Non-call mentions and other methods are not this rule's business.
        let other = "fn f(n: &LaneNotifier, tl: &mut Timeline) { n.deliver_irq(tl); }";
        assert!(lint("crates/core/src/backend/mod.rs", other).is_empty());
    }

    #[test]
    fn flags_direct_doorbell_kicks_outside_the_batch_submitter() {
        let src = "fn f(q: &VirtQueue, tl: &mut Timeline) { q.kick(cost, tl); }";
        let v = lint("crates/core/src/backend/mod.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "kick-doorbell");
        assert_eq!(v[0].line, 1);
        // A bench or guest-side helper ringing the bell itself is the exact
        // bypass the kicks-per-submission ledger exists to catch.
        assert_eq!(lint("crates/bench/src/experiments/open_loop.rs", src).len(), 1);
        assert_eq!(lint("crates/core/src/guest.rs", src).len(), 1);
        // The self-servicing kick is no way around the rule: it would run
        // the backend's drain pass on whatever thread called it.
        let inline = "fn f(q: &VirtQueue, tl: &mut Timeline) { q.kick_blocking(idx, cost, tl); }";
        for rel in
            ["crates/core/src/backend/drain.rs", "crates/core/src/guest.rs", "tests/chaos.rs"]
        {
            let v = lint(rel, inline);
            assert_eq!(v.len(), 1, "{rel}: {v:?}");
            assert_eq!(v[0].rule, "kick-doorbell");
        }
    }

    #[test]
    fn the_frontend_and_the_queue_itself_may_kick() {
        let src = "fn f(q: &VirtQueue, tl: &mut Timeline) { q.kick(cost, tl); }";
        assert!(lint("crates/core/src/frontend/mod.rs", src).is_empty());
        assert!(lint("crates/virtio/src/queue.rs", src).is_empty());
        assert!(lint("crates/core/tests/mq_fifo.rs", src).is_empty());
        let inline = "fn f(q: &VirtQueue, tl: &mut Timeline) { q.kick_blocking(idx, cost, tl); }";
        assert!(lint("crates/core/src/frontend/mod.rs", inline).is_empty());
        assert!(lint("crates/virtio/src/queue.rs", inline).is_empty());
        // Non-call mentions and other methods are not this rule's business.
        let other = "fn f() { let kick = cost.vmexit_kick; note(kick); }";
        assert!(lint("crates/core/src/backend/mod.rs", other).is_empty());
    }

    #[test]
    fn batched_avail_publication_is_router_only_too() {
        let src = "fn f(q: &VirtQueue) { q.publish_avail_batch(&heads, cost, &mut tl); }";
        let v = lint("crates/core/src/backend/mod.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "queue-router");
        assert!(lint("crates/core/src/frontend/mod.rs", src).is_empty());
        // So is the merged prepare-and-publish section.
        let src = "fn f(q: &VirtQueue) { q.publish_chain(&chain, cost, &mut tl, |_| ()); }";
        let v = lint("crates/core/src/backend/mod.rs", src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "queue-router");
        assert!(lint("crates/core/src/frontend/mod.rs", src).is_empty());
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

    #[test]
    fn fixture_fails_and_workspace_root_is_findable() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/raw_std_mutex.rs");
        let src = std::fs::read_to_string(&fixture).unwrap();
        let v = lint("crates/xtask/fixtures/raw_std_mutex.rs", &src);
        assert!(
            v.iter().any(|x| x.rule == "raw-sync") && v.iter().any(|x| x.rule == "lock-unwrap"),
            "fixture must trip raw-sync and lock-unwrap: {v:?}"
        );
    }
}
