//! The workspace's path-scoping tables, shared by `xtask lint` and
//! `vphi-analyze`.
//!
//! One declarative table, so a new tool (or a new rule) reuses the same
//! path semantics instead of growing another slightly-different copy.
//! Only rules that ban a shape in one file or data path live here; who may
//! submit to a virtqueue, ring its doorbell or inject an MSI is resolved by
//! type in the root `clippy.toml`, and the permitted sites carry
//! `#[expect(clippy::disallowed_methods, reason = "..")]` in source.

use std::path::Path;

/// Directories (relative to the workspace root) every scanner skips.
/// `crates/sync` implements the tracked types on top of the raw
/// primitives; `shims/` vendors external crates verbatim-ish; the fixture
/// directories exist to fail.
pub const SKIP_DIRS: &[&str] =
    &["target", ".git", "shims", "crates/sync", "crates/xtask/fixtures", "crates/analyze/fixtures"];

/// A path predicate attached to a rule name: the rule matches a file when
/// its workspace-relative path starts with any `prefixes` entry or ends
/// with any `suffixes` entry.
pub struct PathRule {
    pub rule: &'static str,
    pub prefixes: &'static [&'static str],
    pub suffixes: &'static [&'static str],
}

impl PathRule {
    fn matches(&self, rel: &str) -> bool {
        self.prefixes.iter().any(|p| rel.starts_with(p))
            || self.suffixes.iter().any(|s| rel.ends_with(s))
    }
}

/// Files exempt from a rule that otherwise applies to its whole scope.
///
/// - `staging-buffer`: `pcie::dma` owns the one sanctioned bounce
///   (`gather_copy`'s fixed 16 KiB block) and is the only exemption.  The
///   rule's scope is both data planes: the RMA path (`backend/rma.rs`,
///   the scif RMA engine and windows) and the message path
///   (`backend/mod.rs`, whose `Send`/`Recv` arms move bytes guest memory ↔
///   queue in place, the scif endpoint and its message queue), so a
///   length-sized vec cannot creep back onto either (DESIGN.md #19, #20).
pub const EXEMPTIONS: &[PathRule] =
    &[PathRule { rule: "staging-buffer", prefixes: &[], suffixes: &["pcie/src/dma.rs"] }];

/// Rules that apply *only* to specific files (the inverse of an
/// exemption): the event-loop blocking check and the OpCtx
/// calling-convention check are each scoped to the one file that defines
/// the discipline, the staging-buffer check to the two data planes, the
/// guest-taint pass to the trust boundary: the files whose input a guest
/// controls — the virtqueue rings, the request decoder and the whole
/// backend (so a new backend file is inside the boundary the day it is
/// added).  The analyzer's own fixtures opt in so seeded violations are
/// caught by golden tests.
pub const SCOPES: &[PathRule] = &[
    PathRule { rule: "event-loop-blocking", prefixes: &[], suffixes: &["vmm/src/event_loop.rs"] },
    PathRule { rule: "opctx-api", prefixes: &[], suffixes: &["scif/src/api.rs"] },
    PathRule {
        rule: "staging-buffer",
        prefixes: &["crates/core/src/backend/", "crates/pcie/src/"],
        suffixes: &[
            "scif/src/rma.rs",
            "scif/src/window.rs",
            "scif/src/queue.rs",
            "scif/src/endpoint.rs",
        ],
    },
    PathRule {
        rule: "guest-taint",
        prefixes: &["crates/core/src/backend/", "crates/analyze/fixtures/"],
        suffixes: &["virtio/src/queue.rs", "virtio/src/ring.rs", "core/src/protocol.rs"],
    },
];

/// Whether `rel` is exempt from `rule`.  Rules with no exemption entry are
/// never exempt.
pub fn is_exempt(rule: &str, rel: &Path) -> bool {
    let rel = rel.to_string_lossy();
    EXEMPTIONS.iter().any(|r| r.rule == rule && r.matches(&rel))
}

/// Whether `rule` applies to `rel` at all.  Rules with no scope entry
/// apply everywhere.
pub fn in_scope(rule: &str, rel: &Path) -> bool {
    let rel = rel.to_string_lossy();
    let mut scoped = SCOPES.iter().filter(|r| r.rule == rule).peekable();
    if scoped.peek().is_none() {
        return true;
    }
    scoped.any(|r| r.matches(&rel))
}

/// Whether the workspace walker skips `rel` (a directory) entirely.
pub fn skip_dir(rel: &Path) -> bool {
    SKIP_DIRS.iter().any(|s| rel == Path::new(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_buffer_scoping_guards_the_zero_copy_path() {
        // In scope: the RMA engine, the message queue and endpoint, and
        // the backend, where staging used to live; out of scope:
        // unrelated crates.
        for scoped in [
            "crates/scif/src/rma.rs",
            "crates/scif/src/window.rs",
            "crates/scif/src/queue.rs",
            "crates/scif/src/endpoint.rs",
            "crates/core/src/backend/mod.rs",
            "crates/core/src/backend/rma.rs",
            "crates/pcie/src/dma.rs",
        ] {
            assert!(in_scope("staging-buffer", Path::new(scoped)), "{scoped} should be in scope");
        }
        assert!(!in_scope("staging-buffer", Path::new("crates/core/src/frontend/mod.rs")));
        assert!(!in_scope("staging-buffer", Path::new("crates/bench/src/support.rs")));
        // Exempt: the sanctioned bounce in pcie::dma, and nothing else.
        assert!(is_exempt("staging-buffer", Path::new("crates/pcie/src/dma.rs")));
        for guarded in [
            "crates/core/src/backend/mod.rs",
            "crates/core/src/backend/rma.rs",
            "crates/scif/src/rma.rs",
            "crates/scif/src/window.rs",
            "crates/scif/src/queue.rs",
            "crates/scif/src/endpoint.rs",
        ] {
            assert!(
                !is_exempt("staging-buffer", Path::new(guarded)),
                "{guarded} must not be exempt"
            );
        }
    }

    #[test]
    fn scoped_rules_apply_only_to_their_files() {
        assert!(in_scope("event-loop-blocking", Path::new("crates/vmm/src/event_loop.rs")));
        assert!(!in_scope("event-loop-blocking", Path::new("crates/vmm/src/kvm.rs")));
        assert!(in_scope("opctx-api", Path::new("crates/scif/src/api.rs")));
        assert!(!in_scope("opctx-api", Path::new("crates/core/src/guest.rs")));
        // The trust boundary: the rings, the decoder, every backend file.
        for boundary in [
            "crates/virtio/src/queue.rs",
            "crates/virtio/src/ring.rs",
            "crates/core/src/protocol.rs",
            "crates/core/src/backend/mod.rs",
            "crates/core/src/backend/holdings.rs",
            "crates/core/src/backend/notify.rs",
            "crates/core/src/backend/reg_cache.rs",
            "crates/analyze/fixtures/unchecked_len.rs",
        ] {
            assert!(in_scope("guest-taint", Path::new(boundary)), "{boundary}");
        }
        assert!(!in_scope("guest-taint", Path::new("crates/core/src/frontend/mod.rs")));
        assert!(!in_scope("guest-taint", Path::new("crates/virtio/src/lib.rs")));
        // Rules without a scope entry apply everywhere.
        assert!(in_scope("an-unscoped-rule", Path::new("anything.rs")));
    }

    #[test]
    fn fixture_dirs_are_skipped() {
        assert!(skip_dir(Path::new("crates/xtask/fixtures")));
        assert!(skip_dir(Path::new("crates/analyze/fixtures")));
        assert!(skip_dir(Path::new("shims")));
        assert!(!skip_dir(Path::new("crates/virtio")));
    }
}
