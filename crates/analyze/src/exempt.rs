//! The workspace's path-scoping tables, shared by `xtask lint` and
//! `vphi-analyze`.
//!
//! Before this module existed, each lint rule carried its own ad-hoc
//! exemption function (`queue_submit_exempt`, `irq_inject_exempt`, the
//! per-file scoping of the opctx/protocol/event-loop rules).  Keeping them
//! in one declarative table means a new tool (or a new rule) reuses the
//! same path semantics instead of growing another slightly-different copy.

use std::path::Path;

/// Directories (relative to the workspace root) every scanner skips.
/// `crates/sync` implements the tracked types on top of the raw
/// primitives; `shims/` vendors external crates verbatim-ish; the fixture
/// directories exist to fail.
pub const SKIP_DIRS: &[&str] =
    &["target", ".git", "shims", "crates/sync", "crates/xtask/fixtures", "crates/analyze/fixtures"];

/// A path predicate attached to a rule name: the rule matches a file when
/// its workspace-relative path starts with any `prefixes` entry, contains
/// any `contains` entry, or ends with any `suffixes` entry.
pub struct PathRule {
    pub rule: &'static str,
    pub prefixes: &'static [&'static str],
    pub contains: &'static [&'static str],
    pub suffixes: &'static [&'static str],
}

impl PathRule {
    fn matches(&self, rel: &str) -> bool {
        self.prefixes.iter().any(|p| rel.starts_with(p))
            || self.contains.iter().any(|c| rel.contains(c))
            || self.suffixes.iter().any(|s| rel.ends_with(s))
    }
}

/// Files exempt from a rule that otherwise applies everywhere.
///
/// - `queue-router`: the queue implementation itself (and its tests), the
///   frontend (which owns the router), the ring microbenchmark, and the
///   FIFO property test drive rings directly on purpose.  The notifier's
///   unit tests stage completions on a bare queue to exercise the
///   suppression decision in isolation.
/// - `msi-notifier`: the `IrqChip` crate itself (and its tests) and the
///   `LaneNotifier`, which owns the suppression decision every completion
///   MSI must pass through.
/// - `kick-doorbell`: the queue implementation itself (and its tests), the
///   frontend (whose batch submitter owns the one-doorbell-per-lane
///   decision, DESIGN.md #18, and whose blocking path owns the
///   serviced-on-this-thread kick, #21), and the FIFO property test which
///   rings doorbells by hand on purpose.
/// - `staging-buffer`: `pcie::dma` owns the one sanctioned bounce
///   (`gather_copy`'s fixed 16 KiB block) and is the only exemption.  The
///   rule's scope is both data planes: the RMA path (`backend/rma.rs`,
///   the scif RMA engine and windows) and the message path
///   (`backend/mod.rs`, whose `Send`/`Recv` arms move bytes guest memory ↔
///   queue in place, the scif endpoint and its message queue), so a
///   length-sized vec cannot creep back onto either (DESIGN.md #19, #20).
pub const EXEMPTIONS: &[PathRule] = &[
    PathRule {
        rule: "queue-router",
        prefixes: &["crates/virtio/"],
        contains: &["core/src/frontend"],
        suffixes: &[
            "crates/bench/benches/micro_components.rs",
            "crates/core/tests/mq_fifo.rs",
            "core/src/backend/notify.rs",
        ],
    },
    PathRule {
        rule: "msi-notifier",
        prefixes: &["crates/vmm/"],
        contains: &[],
        suffixes: &["core/src/backend/notify.rs"],
    },
    PathRule {
        rule: "kick-doorbell",
        prefixes: &["crates/virtio/"],
        contains: &["core/src/frontend"],
        suffixes: &["crates/core/tests/mq_fifo.rs"],
    },
    PathRule {
        rule: "staging-buffer",
        prefixes: &[],
        contains: &[],
        suffixes: &["pcie/src/dma.rs"],
    },
];

/// Rules that apply *only* to specific files (the inverse of an
/// exemption): the protocol-exhaustiveness check, the event-loop blocking
/// check, and the OpCtx calling-convention check are each scoped to the
/// one file that defines the discipline.
pub const SCOPES: &[PathRule] = &[
    PathRule {
        rule: "protocol-exhaustive",
        prefixes: &[],
        contains: &[],
        suffixes: &["core/src/protocol.rs"],
    },
    PathRule {
        rule: "event-loop-blocking",
        prefixes: &[],
        contains: &[],
        suffixes: &["vmm/src/event_loop.rs"],
    },
    PathRule { rule: "opctx-api", prefixes: &[], contains: &[], suffixes: &["scif/src/api.rs"] },
    PathRule {
        rule: "staging-buffer",
        prefixes: &["crates/core/src/backend/", "crates/pcie/src/"],
        contains: &[],
        suffixes: &[
            "scif/src/rma.rs",
            "scif/src/window.rs",
            "scif/src/queue.rs",
            "scif/src/endpoint.rs",
        ],
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
    fn queue_router_exemptions_cover_the_ring_drivers() {
        for ok in [
            "crates/virtio/src/queue.rs",
            "crates/virtio/tests/prop_queue.rs",
            "crates/core/src/frontend/mod.rs",
            "crates/bench/benches/micro_components.rs",
            "crates/core/tests/mq_fifo.rs",
            "crates/core/src/backend/notify.rs",
        ] {
            assert!(is_exempt("queue-router", Path::new(ok)), "{ok} should be exempt");
        }
        for bad in ["crates/core/src/backend/mod.rs", "tests/concurrency.rs"] {
            assert!(!is_exempt("queue-router", Path::new(bad)), "{bad} must not be exempt");
        }
    }

    #[test]
    fn msi_notifier_exemptions_cover_the_chip_and_the_notifier() {
        for ok in [
            "crates/vmm/src/irq.rs",
            "crates/vmm/tests/irq_props.rs",
            "crates/core/src/backend/notify.rs",
        ] {
            assert!(is_exempt("msi-notifier", Path::new(ok)), "{ok} should be exempt");
        }
        for bad in ["crates/core/src/backend/mod.rs", "crates/core/src/frontend/mod.rs"] {
            assert!(!is_exempt("msi-notifier", Path::new(bad)), "{bad} must not be exempt");
        }
    }

    #[test]
    fn kick_doorbell_exemptions_cover_the_batch_submitter() {
        for ok in [
            "crates/virtio/src/queue.rs",
            "crates/core/src/frontend/mod.rs",
            "crates/core/tests/mq_fifo.rs",
        ] {
            assert!(is_exempt("kick-doorbell", Path::new(ok)), "{ok} should be exempt");
        }
        for bad in [
            "crates/core/src/backend/mod.rs",
            "crates/core/src/guest.rs",
            "crates/bench/src/experiments/open_loop.rs",
        ] {
            assert!(!is_exempt("kick-doorbell", Path::new(bad)), "{bad} must not be exempt");
        }
    }

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
        assert!(in_scope("protocol-exhaustive", Path::new("crates/core/src/protocol.rs")));
        assert!(!in_scope("protocol-exhaustive", Path::new("crates/core/src/backend/mod.rs")));
        assert!(in_scope("event-loop-blocking", Path::new("crates/vmm/src/event_loop.rs")));
        assert!(!in_scope("event-loop-blocking", Path::new("crates/vmm/src/kvm.rs")));
        assert!(in_scope("opctx-api", Path::new("crates/scif/src/api.rs")));
        assert!(!in_scope("opctx-api", Path::new("crates/core/src/guest.rs")));
        // Rules without a scope entry apply everywhere.
        assert!(in_scope("raw-sync", Path::new("anything.rs")));
    }

    #[test]
    fn fixture_dirs_are_skipped() {
        assert!(skip_dir(Path::new("crates/xtask/fixtures")));
        assert!(skip_dir(Path::new("crates/analyze/fixtures")));
        assert!(skip_dir(Path::new("shims")));
        assert!(!skip_dir(Path::new("crates/virtio")));
    }
}
