//! What a trial records: per-op samples on both clocks, sums for the
//! guest/native ratios, failures, and — on a traced run — harness spans.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use vphi_sim_core::stats::percentile;
use vphi_sim_core::Timeline;

use crate::os::OsUsage;

/// Which path an op ran on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Guest,
    Native,
}

/// What a timed call is: its span name, size class, payload bytes, how
/// many ops it stands for (a 16-entry batch is one call of weight 16 whose
/// every entry takes the batch's latency) and its slot in the block — a
/// native call names the guest slot it twins.
#[derive(Debug, Clone, Copy)]
pub struct OpTag {
    pub name: &'static str,
    pub class: u8,
    pub bytes: u64,
    pub weight: u64,
    pub slot: usize,
}

/// One harness-side span of a traced run (host time, ns since the
/// recorder's epoch).
#[derive(Debug, Clone)]
pub struct HarnessSpan {
    pub id: u64,
    /// 0 = no parent.  A native twin and the probes attributed to a guest
    /// op name that guest op's span.
    pub parent: u64,
    /// The guest op this span belongs to (its twin and probes share it).
    pub req_id: u64,
    pub name: &'static str,
    pub cat: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub virt_ns: u64,
}

/// One side's accumulated samples: one per timed call.  Virtual latencies
/// — few distinct values, the clock being deterministic — are kept as
/// counts, which makes pooling them over trials cheap.
#[derive(Debug, Default, Clone)]
pub struct SideLog {
    /// Ops completed (a batch call counts its entries).
    pub ops: u64,
    pub wall_ns: u64,
    pub virt_ns: u64,
    pub bytes: u64,
    /// Per-call host latency (ns).
    wall: Vec<u32>,
    /// Class of each call, parallel to `wall`.
    class: Vec<u8>,
    /// (virtual latency in ns, class) → calls that took exactly that.
    virt: BTreeMap<(u64, u8), u64>,
}

impl SideLog {
    fn push(&mut self, class: u8, bytes: u64, wall: Duration, virt_ns: u64, weight: u64) {
        let wall_ns = wall.as_nanos() as u64;
        self.ops += weight;
        self.wall_ns += wall_ns;
        self.virt_ns += virt_ns;
        self.bytes += bytes;
        self.wall.push(wall_ns.min(u32::MAX as u64) as u32);
        self.class.push(class);
        *self.virt.entry((virt_ns, class)).or_insert(0) += 1;
    }

    pub fn absorb(&mut self, other: &SideLog) {
        self.ops += other.ops;
        self.wall_ns += other.wall_ns;
        self.virt_ns += other.virt_ns;
        self.bytes += other.bytes;
        self.wall.extend_from_slice(&other.wall);
        self.class.extend_from_slice(&other.class);
        for (key, count) in &other.virt {
            *self.virt.entry(*key).or_insert(0) += count;
        }
    }

    /// Nearest-rank percentile (ns) of the host latency of the calls
    /// whose class `keep` accepts; 0 when there are none.
    pub fn wall_pct(&self, p: f64, keep: impl Fn(u8) -> bool) -> f64 {
        let mut kept: Vec<f64> = self
            .wall
            .iter()
            .zip(&self.class)
            .filter(|(_, c)| keep(**c))
            .map(|(v, _)| *v as f64)
            .collect();
        percentile(&mut kept, p)
    }

    /// The same on the virtual clock.
    pub fn virt_pct(&self, p: f64, keep: impl Fn(u8) -> bool) -> f64 {
        let kept = || self.virt.iter().filter(|((_, c), _)| keep(*c));
        let total: u64 = kept().map(|(_, n)| n).sum();
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for ((ns, _), n) in kept() {
            seen += n;
            if seen >= rank {
                return *ns as f64;
            }
        }
        0.0
    }

    /// The sums and the virtual-latency counts, without the per-call host
    /// samples — small enough to pool over trials.
    pub fn without_wall_samples(&self) -> SideLog {
        SideLog {
            ops: self.ops,
            wall_ns: self.wall_ns,
            virt_ns: self.virt_ns,
            bytes: self.bytes,
            wall: Vec::new(),
            class: Vec::new(),
            virt: self.virt.clone(),
        }
    }
}

/// Any class.
pub fn any_class(_: u8) -> bool {
    true
}

/// The guest side of one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundTally {
    pub ops: u64,
    /// Host time of the round's guest block: the time its ops took to
    /// complete, whichever client ran them.
    pub block_ns: u64,
    /// Σ host time of the round's guest calls, over all clients.
    pub guest_ns: u64,
    /// Σ host time of the same ops on the native path.
    pub native_ns: u64,
    /// Σ guest virtual time — every round being the same multiset of
    /// shapes, rounds must agree on it (the determinism alarm).
    pub virt_ns: u64,
}

/// The record of one trial (or one client's share of it).
#[derive(Debug, Clone)]
pub struct TrialLog {
    epoch: Instant,
    pub guest: SideLog,
    pub native: SideLog,
    pub attempted: u64,
    pub failed: u64,
    /// The guest side of each completed round.
    pub rounds: Vec<RoundTally>,
    /// `Some` on a traced run.
    pub spans: Option<Vec<HarnessSpan>>,
    next_span: u64,
    /// Span ids of the current block's guest calls, by slot: a native twin
    /// and the probes name their guest op through it.
    block_guest_spans: Vec<u64>,
    /// Test seam: flip a byte of the Nth checked payload before comparing.
    pub corrupt_check: Option<u64>,
    checks: u64,
    /// Free-form failure notes (first few), printed with the result.
    pub notes: Vec<String>,
    /// `Some` = account the process's CPU time, faults and context
    /// switches to the guest calls (two `getrusage` calls around each,
    /// outside the timed section).
    pub os_guest: Option<OsUsage>,
}

impl TrialLog {
    pub fn new(traced: bool, corrupt_check: Option<u64>) -> Self {
        TrialLog {
            epoch: Instant::now(),
            guest: SideLog::default(),
            native: SideLog::default(),
            attempted: 0,
            failed: 0,
            rounds: Vec::new(),
            spans: traced.then(Vec::new),
            next_span: 1,
            block_guest_spans: Vec::new(),
            corrupt_check,
            checks: 0,
            notes: Vec::new(),
            os_guest: None,
        }
    }

    /// Call before a round's first op; hand the result to
    /// [`close_round`](Self::close_round).
    pub fn open_round(&self) -> RoundTally {
        RoundTally {
            ops: self.guest.ops,
            block_ns: self.guest.wall_ns,
            guest_ns: self.guest.wall_ns,
            native_ns: self.native.wall_ns,
            virt_ns: self.guest.virt_ns,
        }
    }

    /// Record the round opened at `opened`.  `block_ns` overrides the
    /// guest block's host time where it is not the sum of the guest calls
    /// (several clients running at once).
    pub fn close_round(&mut self, opened: RoundTally, block_ns: Option<u64>) {
        let tally = RoundTally {
            ops: self.guest.ops - opened.ops,
            block_ns: block_ns.unwrap_or(self.guest.wall_ns - opened.block_ns),
            guest_ns: self.guest.wall_ns - opened.guest_ns,
            native_ns: self.native.wall_ns - opened.native_ns,
            virt_ns: self.guest.virt_ns - opened.virt_ns,
        };
        self.rounds.push(tally);
    }

    /// A fresh log sharing this one's epoch and options (one per client).
    pub fn fork_client(&self) -> TrialLog {
        TrialLog { epoch: self.epoch, ..TrialLog::new(self.spans.is_some(), None) }
    }

    /// Time one call on `side`.  Returns what the call returned.
    pub fn timed_call<R>(
        &mut self,
        side: Side,
        tag: OpTag,
        call: impl FnOnce(&mut Timeline) -> R,
    ) -> R {
        let mut tl = Timeline::new();
        let os_before = (side == Side::Guest && self.os_guest.is_some()).then(OsUsage::snapshot);
        let started = Instant::now();
        let out = call(&mut tl);
        let wall = started.elapsed();
        if let (Some(before), Some(total)) = (os_before, self.os_guest.as_mut()) {
            total.accumulate(&OsUsage::snapshot().since(&before));
        }
        let virt_ns = tl.total().as_nanos();
        self.attempted += tag.weight;
        let side_log = match side {
            Side::Guest => &mut self.guest,
            Side::Native => &mut self.native,
        };
        side_log.push(tag.class, tag.bytes, wall, virt_ns, tag.weight);
        if self.spans.is_some() {
            let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
            let id = self.next_span;
            self.next_span += 1;
            let (parent, cat) = match side {
                Side::Guest => {
                    if tag.slot == 0 {
                        self.block_guest_spans.clear();
                    }
                    self.block_guest_spans.push(id);
                    (0, "guest")
                }
                Side::Native => {
                    (self.block_guest_spans.get(tag.slot).copied().unwrap_or(0), "native")
                }
            };
            self.push_span(HarnessSpan {
                id,
                parent,
                req_id: if parent == 0 { id } else { parent },
                name: tag.name,
                cat,
                start_ns,
                end_ns: start_ns + wall.as_nanos() as u64,
                virt_ns,
            });
        }
        out
    }

    fn push_span(&mut self, span: HarnessSpan) {
        if let Some(spans) = self.spans.as_mut() {
            spans.push(span);
        }
    }

    /// Record a layer-probe span (traced runs), attributed to the last
    /// guest op.
    pub fn probe_span(&mut self, name: &'static str, started: Instant, wall: Duration) {
        if self.spans.is_none() {
            return;
        }
        let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
        let id = self.next_span;
        self.next_span += 1;
        let parent = self.block_guest_spans.last().copied().unwrap_or(0);
        self.push_span(HarnessSpan {
            id,
            parent,
            req_id: parent,
            name,
            cat: "probe",
            start_ns,
            end_ns: start_ns + wall.as_nanos() as u64,
            virt_ns: 0,
        });
    }

    /// Count `ops` of the ops already attempted as failed.
    pub fn fail_ops(&mut self, ops: u64, why: impl FnOnce() -> String) {
        self.failed += ops;
        if self.notes.len() < 8 {
            self.notes.push(why());
        }
    }

    /// Compare a result payload against what it must be; a mismatch fails
    /// one op.  Returns whether it matched.
    pub fn check_bytes(&mut self, what: &str, got: &[u8], want: &[u8]) -> bool {
        self.checks += 1;
        let corrupt = self.corrupt_check == Some(self.checks) && !got.is_empty();
        let same = if corrupt {
            let mut flipped = got.to_vec();
            flipped[0] ^= 0x5A;
            flipped == want
        } else {
            got == want
        };
        if !same {
            let checks = self.checks;
            self.fail_ops(1, || {
                format!(
                    "{what}: payload mismatch at check {checks}{}",
                    if corrupt { " (injected)" } else { "" }
                )
            });
        }
        same
    }

    /// Fold a client's log into this one.  The round's block time is the
    /// caller's to give (`close_round`): it knows how the clients overlapped.
    pub fn absorb_client(&mut self, client: TrialLog) {
        self.guest.absorb(&client.guest);
        self.native.absorb(&client.native);
        self.attempted += client.attempted;
        self.failed += client.failed;
        self.notes.extend(client.notes);
        self.notes.truncate(8);
        if let (Some(mine), Some(theirs)) = (self.spans.as_mut(), client.spans) {
            // Keep ids unique across clients.
            let shift = self.next_span;
            mine.extend(theirs.into_iter().map(|mut s| {
                s.id += shift;
                if s.parent != 0 {
                    s.parent += shift;
                }
                s.req_id += shift;
                s
            }));
            // Probes are attributed to the last guest call, whoever made it.
            self.block_guest_spans = client.block_guest_spans.iter().map(|id| id + shift).collect();
            self.next_span += client.next_span;
        }
    }
}

#[cfg(test)]
mod tests {
    use vphi_sim_core::{SimDuration, SpanLabel};

    use super::*;

    fn tag(class: u8, weight: u64, slot: usize) -> OpTag {
        OpTag { name: "op", class, bytes: 10, weight, slot }
    }

    #[test]
    fn virtual_percentiles_are_nearest_rank_over_counts() {
        let mut log = TrialLog::new(false, None);
        for (class, virt) in [(0, 100), (0, 100), (1, 300), (1, 200)] {
            log.timed_call(Side::Guest, tag(class, 1, 0), |tl| {
                tl.charge(SpanLabel::GuestSyscall, SimDuration::from_nanos(virt));
            });
        }
        assert_eq!(log.guest.virt_pct(50.0, any_class), 100.0);
        assert_eq!(log.guest.virt_pct(75.0, any_class), 200.0);
        assert_eq!(log.guest.virt_pct(99.0, any_class), 300.0);
        assert_eq!(log.guest.virt_pct(50.0, |c| c == 1), 200.0);
        assert_eq!(log.guest.virt_pct(50.0, |c| c == 9), 0.0);
        assert_eq!((log.guest.ops, log.guest.virt_ns, log.guest.bytes), (4, 700, 40));
    }

    #[test]
    fn rounds_tally_both_sides_and_native_twins_name_their_guest_call() {
        let mut log = TrialLog::new(true, None);
        let opened = log.open_round();
        log.timed_call(Side::Guest, tag(0, 16, 0), |_| ());
        log.timed_call(Side::Guest, tag(0, 16, 1), |_| ());
        log.timed_call(Side::Native, tag(0, 1, 1), |_| ());
        log.close_round(opened, None);
        let round = log.rounds[0];
        assert_eq!(round.ops, 32);
        assert_eq!(round.block_ns, log.guest.wall_ns);
        assert_eq!(round.native_ns, log.native.wall_ns);
        let spans = log.spans.as_ref().unwrap();
        assert_eq!((spans[0].parent, spans[1].parent), (0, 0));
        assert_eq!(spans[2].parent, spans[1].id, "the twin of slot 1");
        assert_eq!(log.attempted, 33);
    }
}
