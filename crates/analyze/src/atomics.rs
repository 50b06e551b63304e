//! Pass 2: atomics-ordering audit.
//!
//! Every atomic in the workspace is registered in [`CONTRACTS`] with the
//! *minimum* ordering its protocol requires per operation kind (load /
//! store / read-modify-write).  The pass finds every `.load(Ordering::..)`
//! style call in non-test code and flags (a) an ordering weaker than the
//! site's declared contract (`atomic-weak`) and (b) any atomic receiver
//! that is not registered at all (`atomic-unregistered`) — so adding a new
//! atomic forces a conscious decision about its protocol, exactly like
//! adding a `LockClass` does for locks.
//!
//! Two tiers exist in practice (DESIGN.md #17):
//! - **counter**: statistics observed casually; `Relaxed` suffices.
//! - **protocol**: participates in a happens-before protocol (the
//!   EVENT_IDX Dekker pair `used_event`/`used_seq` from DESIGN.md #16 is
//!   `SeqCst`-only; start/stop flags publish with `Release`/`Acquire`).

use syn::{Delimiter, TokenTree};

use crate::report::{Finding, Summary};

/// Memory orderings, with a *satisfies* relation (not a total order:
/// `Acquire` and `Release` are incomparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOrd {
    Relaxed,
    Release,
    Acquire,
    AcqRel,
    SeqCst,
}

impl MemOrd {
    fn parse(s: &str) -> Option<MemOrd> {
        Some(match s {
            "Relaxed" => MemOrd::Relaxed,
            "Release" => MemOrd::Release,
            "Acquire" => MemOrd::Acquire,
            "AcqRel" => MemOrd::AcqRel,
            "SeqCst" => MemOrd::SeqCst,
            _ => return None,
        })
    }

    /// Whether `self` is at least as strong as `min`.
    fn satisfies(self, min: MemOrd) -> bool {
        use MemOrd::*;
        match min {
            Relaxed => true,
            Acquire => matches!(self, Acquire | AcqRel | SeqCst),
            Release => matches!(self, Release | AcqRel | SeqCst),
            AcqRel => matches!(self, AcqRel | SeqCst),
            SeqCst => self == SeqCst,
        }
    }
}

/// One registered atomic: `field` is the receiver ident at use sites;
/// `scope` (a path substring, empty = anywhere) disambiguates same-named
/// atomics in different subsystems.
pub struct AtomicContract {
    pub field: &'static str,
    pub scope: &'static str,
    pub load: MemOrd,
    pub store: MemOrd,
    pub rmw: MemOrd,
}

const fn counter(field: &'static str) -> AtomicContract {
    AtomicContract {
        field,
        scope: "",
        load: MemOrd::Relaxed,
        store: MemOrd::Relaxed,
        rmw: MemOrd::Relaxed,
    }
}

const fn flag(field: &'static str, scope: &'static str) -> AtomicContract {
    AtomicContract {
        field,
        scope,
        load: MemOrd::Acquire,
        store: MemOrd::Release,
        rmw: MemOrd::AcqRel,
    }
}

/// The workspace's atomics, by protocol.  Scoped entries win over
/// unscoped ones.
pub const CONTRACTS: &[AtomicContract] = &[
    // EVENT_IDX Dekker pair (DESIGN.md #16): the guest publishes
    // `used_event`, the device publishes `used_seq`, and each then reads
    // the other side; both stores and both loads must be SeqCst or the
    // "both sides sleep" interleaving reappears.
    AtomicContract {
        field: "used_event",
        scope: "crates/virtio",
        load: MemOrd::SeqCst,
        store: MemOrd::SeqCst,
        rmw: MemOrd::SeqCst,
    },
    AtomicContract {
        field: "used_seq",
        scope: "crates/virtio",
        load: MemOrd::SeqCst,
        store: MemOrd::SeqCst,
        rmw: MemOrd::SeqCst,
    },
    // The per-token wait queue's "is anybody registered?" count
    // (DESIGN.md #23): a waiter announces itself, then re-checks its
    // predicate; a waker publishes, then looks for an announcement.  The
    // same store-then-load-the-other-side shape as the pair above.
    AtomicContract {
        field: "registered",
        scope: "crates/vmm",
        load: MemOrd::SeqCst,
        store: MemOrd::SeqCst,
        rmw: MemOrd::SeqCst,
    },
    // Lifecycle / publication flags: Release store publishes, Acquire
    // load observes.
    flag("shutdown", "core/src/frontend"),
    // The request-slot table (DESIGN.md #23): a slot's state word is
    // written under its lock (or by its one holder) and read without it;
    // the live bitmap hands a slot from one holder to the next; the
    // head → slot route is written before the head is published.
    flag("word", "core/src/frontend"),
    flag("live", "core/src/frontend"),
    flag("head_slot", "core/src/frontend"),
    flag("any_busy_poll", "core/src/frontend"),
    flag("running", ""),
    flag("closed", ""),
    flag("unmapped", "crates/core"),
    flag("stop", "crates/vmm"),
    flag("flag", "crates/vmm"),
    flag("done", "crates/vmm"),
    // A poller's wake-up filter: the Release add before a hub bump
    // pairs with the Acquire load the woken poller makes.
    flag("events", "crates/scif"),
    flag("active_threads", "crates/phi-device"),
    AtomicContract {
        field: "ready",
        scope: "crates/vmm",
        load: MemOrd::Acquire,
        store: MemOrd::Release,
        rmw: MemOrd::Release,
    },
    // The simulated clock publishes time with Release/Acquire; its
    // advance CAS is AcqRel.
    flag("now_ns", "crates/sim-core"),
    flag("free_at_ns", "crates/sim-core"),
    // Plain counters and id allocators: Relaxed is the contract.
    counter("launches"),
    counter("endpoints_gced"),
    counter("endpoints_quarantined"),
    counter("guest_deaths"),
    counter("msi_lost"),
    counter("pages_translated"),
    counter("requests"),
    counter("windows_gced"),
    counter("worker_dispatches"),
    counter("irqs_injected"),
    counter("irqs_suppressed"),
    // A lane notifier's suppressed-while-sleeping batch size.
    counter("pending"),
    // `FrontendStats`, kept as atomics (`requests` is shared with the
    // backend's counter of the same name).
    counter("interrupt_waits"),
    counter("polling_waits"),
    counter("chunks_sent"),
    counter("kicks_delivered"),
    counter("deadline_retries"),
    counter("batches_submitted"),
    counter("batch_entries"),
    counter("batch_kicks"),
    counter("tokens_reaped"),
    counter("tokens_canceled"),
    counter("evictions"),
    counter("hits"),
    counter("invalidations"),
    counter("misses"),
    counter("next_packet_id"),
    counter("uploads"),
    counter("bytes_total"),
    counter("next_channel"),
    counter("transfers"),
    counter("raised"),
    counter("resets"),
    counter("jobs_completed"),
    counter("next_ephemeral"),
    counter("next_ep_id"),
    counter("kicks"),
    counter("chains_popped"),
    counter("burst_drains"),
    counter("burst_chains"),
    counter("queue_worker_dispatches"),
    counter("batch_hist"),
    counter("crossings"),
    counter("blocking_events"),
    counter("live_workers"),
    counter("live"),
    counter("vm_paused_ns"),
    counter("worker_events"),
    counter("wakeups"),
    counter("parks"),
    counter("sleeps"),
    counter("spurious"),
    counter("broadcasts"),
    counter("NEXT_VM_ID"),
    counter("next_trace"),
    counter("next_span"),
    counter("open_spans"),
    counter("spans_dropped"),
    counter("spans_recorded"),
    counter("traces_finished"),
    counter("traces_started"),
    counter("grants"),
    counter("busy_total_ns"),
    // `defused` is a one-shot fault-plan disarm, observed casually: the
    // injector tolerates a stale read (the fault fires once more).
    counter("defused"),
    counter("fired"),
    // Zero-copy RMA statistics (DESIGN.md #19): mapping-table consistency
    // is the ApertureWindows lock's job; these only count.
    counter("windows_mapped"),
    counter("map_hits"),
    counter("sg_descriptors"),
    counter("staging_bytes_avoided"),
];

fn contract_for(rel: &str, field: &str) -> Option<&'static AtomicContract> {
    CONTRACTS
        .iter()
        .find(|c| c.field == field && !c.scope.is_empty() && rel.contains(c.scope))
        .or_else(|| CONTRACTS.iter().find(|c| c.field == field && c.scope.is_empty()))
}

const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Run the pass over every non-test function.
pub fn run(ws: &crate::model::Workspace, findings: &mut Vec<Finding>, summary: &mut Summary) {
    for file in &ws.files {
        for f in &file.functions {
            if f.is_test {
                continue;
            }
            scan(&f.body, &file.rel, &f.name, findings, summary);
        }
    }
}

fn scan(
    tokens: &[TokenTree],
    rel: &str,
    function: &str,
    findings: &mut Vec<Finding>,
    summary: &mut Summary,
) {
    for i in 0..tokens.len() {
        if tokens[i].punct() == Some('.') {
            let method = tokens.get(i + 1).and_then(TokenTree::ident);
            let args = match tokens.get(i + 2) {
                Some(TokenTree::Group(g)) if g.delimiter == Delimiter::Parenthesis => Some(g),
                _ => None,
            };
            if let (Some(m), Some(args)) = (method, args) {
                if ATOMIC_METHODS.contains(&m) {
                    // Orderings named at the *top level* of the argument
                    // list (nested calls carry their own).
                    let ords = top_level_orderings(&args.tokens);
                    if !ords.is_empty() {
                        summary.atomic_ops += 1;
                        let receiver = receiver_ident(tokens, i);
                        check_op(rel, function, receiver, m, &ords, tokens[i + 1].line(), findings);
                    }
                }
            }
        }
        if let TokenTree::Group(g) = &tokens[i] {
            scan(&g.tokens, rel, function, findings, summary);
        }
    }
}

/// The atomic's name at a `.method(..)` site: the ident before the dot,
/// looking through one indexing group (`self.fired[i].load(..)` → `fired`).
fn receiver_ident(tokens: &[TokenTree], dot: usize) -> Option<&str> {
    match tokens.get(dot.checked_sub(1)?)? {
        TokenTree::Ident(id) => Some(&id.text),
        TokenTree::Group(g) if g.delimiter == Delimiter::Bracket => {
            tokens.get(dot.checked_sub(2)?)?.ident()
        }
        _ => None,
    }
}

/// `Ordering :: X` occurrences at one nesting level, in arg order.
fn top_level_orderings(tokens: &[TokenTree]) -> Vec<MemOrd> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if tokens[i].ident() == Some("Ordering")
            && tokens.get(i + 1).and_then(TokenTree::punct) == Some(':')
            && tokens.get(i + 2).and_then(TokenTree::punct) == Some(':')
        {
            if let Some(o) = tokens.get(i + 3).and_then(TokenTree::ident).and_then(MemOrd::parse) {
                out.push(o);
            }
        }
    }
    out
}

fn check_op(
    rel: &str,
    function: &str,
    receiver: Option<&str>,
    method: &str,
    ords: &[MemOrd],
    line: usize,
    findings: &mut Vec<Finding>,
) {
    let Some(recv) = receiver else {
        findings.push(Finding {
            rule: "atomic-unregistered",
            file: rel.to_string(),
            function: function.to_string(),
            line,
            detail: format!("?.{method}"),
            message: format!(".{method}() on an unnamed receiver; name the atomic so it can be registered in the contract table"),
        });
        return;
    };
    let Some(c) = contract_for(rel, recv) else {
        findings.push(Finding {
            rule: "atomic-unregistered",
            file: rel.to_string(),
            function: function.to_string(),
            line,
            detail: format!("{recv}.{method}"),
            message: format!(
                "atomic `{recv}` is not in the contract table; register it (counter or protocol tier) in vphi-analyze::atomics::CONTRACTS"
            ),
        });
        return;
    };
    // Slot minimums by operation kind; CAS-style ops carry a second
    // (failure-load) ordering.
    let slots: Vec<(MemOrd, &str)> = match method {
        "load" => vec![(c.load, "load")],
        "store" => vec![(c.store, "store")],
        "compare_exchange" | "compare_exchange_weak" | "fetch_update" => {
            vec![(c.rmw, "rmw"), (c.load, "failure load")]
        }
        _ => vec![(c.rmw, "rmw")],
    };
    for (k, &actual) in ords.iter().enumerate() {
        let Some(&(min, kind)) = slots.get(k) else { break };
        if !actual.satisfies(min) {
            findings.push(Finding {
                rule: "atomic-weak",
                file: rel.to_string(),
                function: function.to_string(),
                line,
                detail: format!("{recv}.{method}:{actual:?}<{min:?}"),
                message: format!(
                    "{recv}.{method}() uses Ordering::{actual:?} but the declared {kind} contract for `{recv}` requires at least {min:?}"
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfies_is_the_standard_strength_lattice() {
        use MemOrd::*;
        assert!(SeqCst.satisfies(Acquire));
        assert!(AcqRel.satisfies(Release));
        assert!(Acquire.satisfies(Relaxed));
        assert!(!Relaxed.satisfies(Acquire));
        assert!(!Acquire.satisfies(Release));
        assert!(!Release.satisfies(Acquire));
        assert!(!AcqRel.satisfies(SeqCst));
    }

    #[test]
    fn scoped_contracts_win_over_unscoped() {
        let c = contract_for("crates/virtio/src/queue.rs", "used_event").unwrap();
        assert_eq!(c.store, MemOrd::SeqCst);
        let c = contract_for("crates/core/src/backend/mod.rs", "running").unwrap();
        assert_eq!(c.store, MemOrd::Release);
        assert!(contract_for("crates/foo/src/lib.rs", "no_such_atomic").is_none());
    }
}
