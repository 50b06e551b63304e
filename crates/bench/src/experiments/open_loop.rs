//! **OPEN-LOOP** — the serving workload for the completion-token API.
//!
//! Closed-loop benchmarks (Fig. 4/5) measure the path; a serving system
//! faces an *open* loop: requests arrive on their own schedule whether or
//! not the previous one finished, and the question is how much offered
//! load the transport sustains before tail latency collapses.  This
//! experiment pits the two submission models against each other:
//!
//! * **one-request-per-kick** — the legacy blocking API: every request
//!   pays its own doorbell vm-exit and (under the Interrupt scheme) its
//!   own completion wakeup.
//! * **batched SQ/CQ** — [`vphi::GuestScif::submit`] publishes a whole
//!   batch behind one doorbell per lane and reaps completions by token,
//!   so the per-notification costs are amortized across the batch.
//!
//! Hybrid method, same as MQ-SCALE: each request class is measured once
//! on the real stack and split into (shard service time, guest-side
//! fill); seeded open-loop arrivals are then replayed through the real
//! lane router with per-lane FIFO queueing, and percentiles are computed
//! directly from the per-request sojourn times.  Two real-stack runs
//! anchor the model: the kicks-per-submission ledger of an actual
//! submit/reap run (doorbell amortization is *measured*, not assumed),
//! and the 382 µs 1-byte blocking anchor (the redesign must not move it).
//!
//! The request mix is inference-serving shaped: large prefill pushes,
//! small decode steps, and KV-block fetches.

use vphi::builder::{VmConfig, VphiHost};
use vphi::frontend::VphiChannel;
use vphi::protocol::VphiRequest;
use vphi::{Sq, SqEntry};
use vphi_dev_support::{guest_send_once, sink, GuestRig};
use vphi_sim_core::units::KIB;
use vphi_sim_core::{SimDuration, SpanLabel, SplitMix64, Timeline};

use crate::support::{Cell, Figure};

/// Deterministic arrival seed (bit-reproducibility is asserted in tests).
const ARRIVAL_SEED: u64 = 0x0000_BE70_0B50_5E4E_u64;
/// VMs sharing the card in the sweep.
pub const OPEN_LOOP_VMS: usize = 4;
/// Entries per batch in the batched model (and the real ledger run).
pub const OPEN_LOOP_BATCH: usize = 16;
/// Offered per-VM request rates swept (requests per virtual second).
pub const OPEN_LOOP_RATES: &[f64] = &[500.0, 1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0];
/// Virtual seconds of arrivals generated per grid point.
const HORIZON_S: f64 = 0.25;
/// The p99 service-level objective that defines "saturation": the
/// highest offered rate whose p99 stays under this is the knee.
const SLO_P99: SimDuration = SimDuration::from_millis(2);
/// Endpoints per VM (sequential epds, hashed onto lanes by the router).
const ENDPOINTS_PER_VM: u64 = 16;

/// The serving mix: (name, payload bytes, share of requests).
const MIX: &[(&str, u64, f64)] =
    &[("prefill", 64 * KIB, 0.10), ("decode", KIB, 0.60), ("kv-fetch", 4 * KIB, 0.30)];

/// Guest-side labels that pipeline across requests (same split as
/// MQ-SCALE); the doorbell/wakeup labels are broken out separately
/// because batching amortizes exactly those.
const GUEST_FILL: &[SpanLabel] =
    &[SpanLabel::GuestSyscall, SpanLabel::GuestKmalloc, SpanLabel::GuestCopy, SpanLabel::RingPush];
const GUEST_NOTIFY: &[SpanLabel] = &[SpanLabel::VmExitKick, SpanLabel::GuestWakeup];

/// One (mode, rate) grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopRow {
    /// Entries per doorbell (1 = legacy one-request-per-kick).
    pub batch: usize,
    /// Offered rate per VM (req/s of virtual time).
    pub rate_per_vm: f64,
    pub vms: usize,
    pub requests: u64,
    /// Completed requests / horizon — the sustained throughput.
    pub throughput_rps: f64,
    pub p50: SimDuration,
    pub p99: SimDuration,
    pub p999: SimDuration,
}

/// Ledger of an actual submit/reap run on the real stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoorbellLedger {
    pub batches_submitted: u64,
    pub batch_entries: u64,
    /// Doorbells rung for those entries (one per touched lane per flush).
    pub batch_kicks: u64,
    pub tokens_reaped: u64,
    /// Backend-side drains that found work, and the chains they popped.
    pub burst_drains: u64,
    pub burst_chains: u64,
}

impl DoorbellLedger {
    /// Doorbells per submitted entry — amortization means ≪ 1.
    pub fn kicks_per_submission(&self) -> f64 {
        self.batch_kicks as f64 / self.batch_entries.max(1) as f64
    }

    /// Chains the backend popped per wakeup sweep — batching means > 1.
    pub fn chains_per_drain(&self) -> f64 {
        self.burst_chains as f64 / self.burst_drains.max(1) as f64
    }
}

/// The full OPEN-LOOP report.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenLoopReport {
    pub rows: Vec<OpenLoopRow>,
    pub ledger: DoorbellLedger,
    /// 1-byte blocking-send latency after the API redesign — must equal
    /// the seed's 382 µs byte-for-byte.
    pub anchor: SimDuration,
}

impl OpenLoopReport {
    fn saturation(&self, batch: usize) -> f64 {
        self.rows
            .iter()
            .filter(|r| r.batch == batch && r.p99 <= SLO_P99)
            .map(|r| r.throughput_rps)
            .fold(0.0, f64::max)
    }

    /// Highest sustained throughput with p99 within the SLO, batched.
    pub fn batched_saturation_rps(&self) -> f64 {
        self.saturation(OPEN_LOOP_BATCH)
    }

    /// Same knee for the one-request-per-kick model.
    pub fn single_saturation_rps(&self) -> f64 {
        self.saturation(1)
    }

    /// The headline number (acceptance floor: 2×).
    pub fn batching_speedup(&self) -> f64 {
        self.batched_saturation_rps() / self.single_saturation_rps().max(1.0)
    }

    /// The grid as a table; the saturation knees, the doorbell ledger and
    /// the anchor as facts.
    pub fn figure(&self) -> Figure {
        let mut fig = Figure::new(
            "open-loop",
            "OPEN-LOOP — serving throughput-latency: batched SQ/CQ vs one-request-per-kick",
            &["mode", "rate/VM", "VMs", "requests", "rps", "p50", "p99", "p999"],
        );
        for r in &self.rows {
            let mode =
                if r.batch == 1 { "1/kick".to_string() } else { format!("batch {}", r.batch) };
            fig.row(vec![
                Cell::Text(mode),
                Cell::Real(r.rate_per_vm, 0, ""),
                Cell::Count(r.vms as u64),
                Cell::Count(r.requests),
                Cell::Real(r.throughput_rps, 0, ""),
                Cell::Time(r.p50),
                Cell::Time(r.p99),
                Cell::Time(r.p999),
            ]);
        }
        let batched =
            fig.fact("batched_saturation_rps", Cell::Real(self.batched_saturation_rps(), 0, ""));
        let single =
            fig.fact("single_saturation_rps", Cell::Real(self.single_saturation_rps(), 0, ""));
        let speedup = fig.fact("batching_speedup", Cell::Real(self.batching_speedup(), 2, "x"));
        fig.note(format!(
            "saturation (p99 ≤ 2ms): batched {batched} rps vs one-per-kick {single} rps — \
             {speedup} (floor 2x)"
        ));
        let entries = fig.fact("batch_entries", Cell::Count(self.ledger.batch_entries));
        let kicks = fig.fact("batch_kicks", Cell::Count(self.ledger.batch_kicks));
        let per_entry =
            fig.fact("kicks_per_submission", Cell::Real(self.ledger.kicks_per_submission(), 3, ""));
        let per_drain =
            fig.fact("chains_per_drain", Cell::Real(self.ledger.chains_per_drain(), 1, ""));
        fig.note(format!(
            "doorbell ledger: {entries} entries / {kicks} kicks = {per_entry} kicks/submission; \
             backend popped {per_drain} chains/drain"
        ));
        let anchor = fig.fact("anchor", Cell::Time(self.anchor));
        fig.note(format!("1-byte blocking anchor after the redesign: {anchor} (seed: 382us)"));
        fig
    }
}

/// Regenerate the OPEN-LOOP report.
pub fn open_loop() -> OpenLoopReport {
    // Real-stack measurement of each class: (svc, fill, notify) where
    // notify is the per-request doorbell + wakeup cost batching amortizes.
    let classes: Vec<(u64, f64, SimDuration, SimDuration, SimDuration)> = MIX
        .iter()
        .map(|&(_, bytes, share)| {
            let (svc, fill, notify) = measure_class(bytes);
            (bytes, share, svc, fill, notify)
        })
        .collect();

    let router = VphiChannel::with_queues(8, VmConfig::default().num_queues);
    let mut rows = Vec::new();
    for &batch in &[1usize, OPEN_LOOP_BATCH] {
        for &rate in OPEN_LOOP_RATES {
            rows.push(replay_grid_point(&classes, &router, batch, rate));
        }
    }

    // Fig. 4's 1-byte anchor through the (now submit/reap-backed) blocking
    // path.
    let anchor = guest_send_once(&VphiHost::new(1), VmConfig::default(), &[0x5A]).total();
    OpenLoopReport { rows, ledger: ledger_run(), anchor }
}

/// Generate seeded open-loop arrivals for one (batch, rate) point and
/// replay them through a two-stage tandem queue: the submitting vCPU
/// (FIFO per VM, service = guest fill + its share of the notify cost)
/// feeding the lane shards (FIFO per VM × lane, service = shard time).
fn replay_grid_point(
    classes: &[(u64, f64, SimDuration, SimDuration, SimDuration)],
    router: &VphiChannel,
    batch: usize,
    rate_per_vm: f64,
) -> OpenLoopRow {
    let horizon_ns = (HORIZON_S * 1e9) as u64;
    let mut latencies: Vec<u64> = Vec::new();
    let lanes = router.queue_count();

    for vm in 0..OPEN_LOOP_VMS as u64 {
        let mut rng = SplitMix64::new(ARRIVAL_SEED ^ (vm.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let mut t_ns = 0u64;
        let mut vcpu_free = 0u64;
        let mut lane_free = vec![0u64; lanes];
        // Requests the current batch has accumulated; flushed (and the
        // doorbell paid once) when full.
        let mut pending: Vec<(u64, usize, u64)> = Vec::new(); // (arrival, class, lane)
        loop {
            // Exponential inter-arrival, seeded: -ln(U)/λ.
            let u = rng.next_f64().max(1e-12);
            let gap = (-u.ln() / rate_per_vm * 1e9) as u64;
            t_ns += gap.max(1);
            if t_ns >= horizon_ns {
                break;
            }
            // Class by mix share, endpoint by hash, lane by the REAL router.
            let pick = rng.next_f64();
            let mut acc = 0.0;
            let mut class = 0usize;
            for (i, &(_, share, ..)) in classes.iter().enumerate() {
                acc += share;
                if pick < acc {
                    class = i;
                    break;
                }
            }
            let epd = vm * ENDPOINTS_PER_VM + (rng.next_u64() % ENDPOINTS_PER_VM) + 1;
            let lane =
                router.route(&VphiRequest::Send { epd, len: classes[class].0 as u32 }) as u64;
            pending.push((t_ns, class, lane));
            if pending.len() < batch {
                continue;
            }
            // Flush: the submitter marshals every entry, then one doorbell
            // covers the batch; each entry's wakeup share is notify/batch
            // (EVENT_IDX coalesces the burst's completion irqs the same
            // way the backend's burst drain coalesces its kicks).
            for &(arrival, class, lane) in &pending {
                let (_, _, svc, fill, notify) = classes[class];
                let submit_cost = fill.as_nanos() + notify.as_nanos() / batch as u64;
                let start = vcpu_free.max(arrival);
                vcpu_free = start + submit_cost;
                let lane_start = lane_free[lane as usize].max(vcpu_free);
                lane_free[lane as usize] = lane_start + svc.as_nanos();
                latencies.push(lane_free[lane as usize] - arrival);
            }
            pending.clear();
        }
        // Tail batch: flushed short at the horizon.
        let short = pending.len().max(1) as u64;
        for &(arrival, class, lane) in &pending {
            let (_, _, svc, fill, notify) = classes[class];
            let submit_cost = fill.as_nanos() + notify.as_nanos() / short;
            let start = vcpu_free.max(arrival);
            vcpu_free = start + submit_cost;
            let lane_start = lane_free[lane as usize].max(vcpu_free);
            lane_free[lane as usize] = lane_start + svc.as_nanos();
            latencies.push(lane_free[lane as usize] - arrival);
        }
    }

    latencies.sort_unstable();
    let n = latencies.len();
    let pct = |p: f64| -> SimDuration {
        let idx = ((n as f64 * p) as usize).min(n.saturating_sub(1));
        SimDuration::from_nanos(latencies.get(idx).copied().unwrap_or(0))
    };
    OpenLoopRow {
        batch,
        rate_per_vm,
        vms: OPEN_LOOP_VMS,
        requests: n as u64,
        throughput_rps: n as f64 / HORIZON_S,
        p50: pct(0.50),
        p99: pct(0.99),
        p999: pct(0.999),
    }
}

/// Measure one request class on the real stack and split its timeline
/// into (shard service, guest fill, per-request notify cost).
fn measure_class(bytes: u64) -> (SimDuration, SimDuration, SimDuration) {
    let send_tl =
        guest_send_once(&VphiHost::new(1), VmConfig::default(), &vec![0x5Au8; bytes as usize]);
    let fill: SimDuration = GUEST_FILL.iter().map(|&l| send_tl.total_for(l)).sum();
    let notify: SimDuration = GUEST_NOTIFY.iter().map(|&l| send_tl.total_for(l)).sum();
    let svc = send_tl.total().saturating_sub(fill).saturating_sub(notify);
    (svc, fill, notify)
}

/// An actual submit/reap run: 4 batches of [`OPEN_LOOP_BATCH`] sends
/// through the SQ/CQ API, returning the doorbell ledger both sides kept.
fn ledger_run() -> DoorbellLedger {
    let host = VphiHost::new(1);
    let sink = sink(&host, 0);
    let rig = GuestRig::connect(&host, VmConfig::default(), sink.addr());
    let (guest, vm) = (&rig.guest, &rig.vm);
    let mut tl = Timeline::new();
    let payload = vec![0x5Au8; KIB as usize];
    let mut cq = vphi::Cq::new();
    for _ in 0..4 {
        let mut sq = Sq::new();
        for _ in 0..OPEN_LOOP_BATCH {
            sq.push(SqEntry::send(&payload));
        }
        let tokens = guest.submit(&mut sq, &mut tl).expect("submit");
        cq.watch(&tokens);
        let reaped = guest.reap(&mut cq, tokens.len(), tokens.len(), &mut tl).expect("reap");
        assert_eq!(reaped, OPEN_LOOP_BATCH, "short reap");
        for e in cq.drain() {
            e.result.expect("batched send failed");
        }
    }
    let fs = vm.frontend().stats();
    let (burst_drains, burst_chains) = vm.backend().inner().stats.bursts();
    let ledger = DoorbellLedger {
        batches_submitted: fs.batches_submitted,
        batch_entries: fs.batch_entries,
        batch_kicks: fs.batch_kicks,
        tokens_reaped: fs.tokens_reaped,
        burst_drains,
        burst_chains,
    };
    assert_eq!(vm.frontend().pending_tokens(), 0, "leaked pending tokens");
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_meets_the_acceptance_floors() {
        let report = open_loop();
        // Batched submission sustains ≥ 2× the one-per-kick saturation
        // throughput at the same p99 SLO.
        assert!(
            report.batching_speedup() >= 2.0,
            "batching speedup {:.2}x (batched {:.0} rps vs single {:.0} rps)",
            report.batching_speedup(),
            report.batched_saturation_rps(),
            report.single_saturation_rps(),
        );
        // The doorbell ledger proves the amortization on the real stack:
        // far less than one kick per submitted entry, and the backend's
        // drains popped multi-chain bursts.
        assert!(
            report.ledger.kicks_per_submission() <= 0.5,
            "kicks/submission = {:.3} (ledger {:?})",
            report.ledger.kicks_per_submission(),
            report.ledger,
        );
        assert_eq!(report.ledger.tokens_reaped, report.ledger.batch_entries);
        assert!(report.ledger.chains_per_drain() > 1.0, "ledger {:?}", report.ledger);
        // The redesign must not move the blocking anchor by a nanosecond.
        assert_eq!(report.anchor, SimDuration::from_micros(382));
    }

    #[test]
    fn open_loop_latency_behaves_under_load() {
        let report = open_loop();
        // One-per-kick: p99 degrades monotonically with offered load (the
        // submitting vCPU is an M/D/1 queue whose server never gets
        // cheaper).
        let p99s: Vec<u64> =
            report.rows.iter().filter(|r| r.batch == 1).map(|r| r.p99.as_nanos()).collect();
        for pair in p99s.windows(2) {
            assert!(pair[1] >= pair[0], "p99 improved under load: {p99s:?}");
        }
        // Batched: not monotone at the low end (a faster-filling batch
        // waits *less* for its doorbell), but the whole sweep stays
        // inside the SLO — batching never saturates at these rates.
        for r in report.rows.iter().filter(|r| r.batch == OPEN_LOOP_BATCH) {
            assert!(
                r.p99 <= SLO_P99,
                "batched p99 {} breached the SLO at {} rps",
                r.p99,
                r.rate_per_vm
            );
        }
        // Percentiles are ordered within every row.
        for r in &report.rows {
            assert!(r.p50 <= r.p99 && r.p99 <= r.p999, "{r:?}");
        }
    }

    #[test]
    fn open_loop_is_bit_reproducible() {
        let a = open_loop();
        let b = open_loop();
        assert_eq!(a, b, "OPEN-LOOP differed across runs");
    }
}
