//! The [`Tracer`]: per-VM span ring buffers, per-request stage summaries,
//! per-stage latency histograms, and the exporters.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

use vphi_sim_core::{SimDuration, SimTime, VirtualClock};
use vphi_sync::{Counter, LockClass, TrackedMutex};

use crate::{Stage, STAGE_COUNT};

/// Sizing knobs.  The rings overwrite oldest-first, so a long-running VM
/// keeps its most recent requests without unbounded memory.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Max retained spans per VM.
    pub ring_capacity: usize,
    /// Max retained per-request summaries (across all VMs).
    pub summary_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { ring_capacity: 4096, summary_capacity: 1024 }
    }
}

/// One recorded span.  `start`/`dur` are virtual-time offsets on the
/// trace's shared clock (the root starts at 0).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub vm: u32,
    pub trace_id: u64,
    pub id: u32,
    /// 0 for the root span.
    pub parent: u32,
    pub name: &'static str,
    pub stage: Stage,
    /// Virtqueue the request rode (0 for endpoint-less ops and untraced
    /// single-queue paths) — lets per-queue breakdowns fall out of the
    /// existing stage taxonomy.
    pub queue: u16,
    pub start: SimDuration,
    pub dur: SimDuration,
}

/// Per-request stage decomposition, produced at root finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    pub vm: u32,
    pub trace_id: u64,
    pub op: &'static str,
    pub payload: u64,
    /// End-to-end virtual latency; equals `stages.iter().sum()` by
    /// construction (every timeline charge maps to exactly one stage).
    pub total: SimDuration,
    pub stages: [SimDuration; STAGE_COUNT],
    /// Virtual clock reading when the request finished (ZERO if the
    /// tracer has no clock attached).
    pub at: SimTime,
}

/// Monotonic tracer counters (for debugfs and orphan detection).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounters {
    pub traces_started: u64,
    pub traces_finished: u64,
    pub spans_recorded: u64,
    pub spans_dropped: u64,
    /// Spans begun but not yet ended.  Zero at quiesce means no orphans.
    pub open_spans: i64,
}

/// Histogram key: op kind × stage (6 = end-to-end) × payload pow2 bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HistKey {
    op: &'static str,
    stage: u8,
    bucket: u8,
}

const E2E_STAGE: u8 = STAGE_COUNT as u8;

/// Payload pow2 bucket: number of significant bits, so bucket `b` covers
/// `[2^(b-1), 2^b)` and 0 bytes is bucket 0.
pub fn size_bucket(payload: u64) -> u8 {
    (64 - payload.leading_zeros()) as u8
}

/// Upper edge of a payload bucket, for display.
fn bucket_hi(bucket: u8) -> u64 {
    if bucket == 0 {
        0
    } else {
        (1u64 << bucket) - 1
    }
}

/// Log2-bucketed latency histogram (nanosecond resolution, 64 buckets
/// cover the full u64 range).
#[derive(Debug, Clone)]
struct Hist {
    count: u64,
    max_ns: u64,
    buckets: [u64; 64],
}

impl Default for Hist {
    fn default() -> Self {
        Hist { count: 0, max_ns: 0, buckets: [0; 64] }
    }
}

impl Hist {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.max_ns = self.max_ns.max(ns);
        self.buckets[(64 - ns.leading_zeros()) as usize % 64] += 1;
    }

    /// Quantile as the upper edge of the bucket holding it — a log2
    /// histogram answers "within 2×", which is what a breakdown needs.
    fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil() as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return if i == 0 { 0 } else { ((1u128 << i) - 1).min(u64::MAX as u128) as u64 };
            }
        }
        self.max_ns
    }
}

/// One rendered histogram row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistRow {
    pub op: &'static str,
    /// `None` = end-to-end.
    pub stage: Option<Stage>,
    /// Upper edge of the payload-size bucket, in bytes.
    pub payload_hi: u64,
    pub count: u64,
    pub p50: SimDuration,
    pub p99: SimDuration,
    pub max: SimDuration,
}

#[derive(Debug, Default)]
struct Store {
    rings: BTreeMap<u32, VecDeque<SpanRec>>,
    summaries: VecDeque<TraceSummary>,
    hists: BTreeMap<HistKey, Hist>,
}

/// Collects spans and summaries from every [`OpCtx`](crate::OpCtx) whose
/// hook was armed with this tracer.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    clock: Option<Arc<VirtualClock>>,
    store: TrackedMutex<Store>,
    next_trace: Counter,
    open_spans: Counter,
    spans_recorded: Counter,
    spans_dropped: Counter,
    traces_started: Counter,
    traces_finished: Counter,
}

impl Tracer {
    pub fn new(config: TraceConfig) -> Self {
        Tracer {
            config,
            clock: None,
            store: TrackedMutex::new(LockClass::TraceRings, Store::default()),
            next_trace: Counter::new(1),
            open_spans: Counter::new(0),
            spans_recorded: Counter::new(0),
            spans_dropped: Counter::new(0),
            traces_started: Counter::new(0),
            traces_finished: Counter::new(0),
        }
    }

    /// A tracer that stamps summaries with the host's virtual clock.
    pub fn with_clock(config: TraceConfig, clock: Arc<VirtualClock>) -> Self {
        let mut t = Tracer::new(config);
        t.clock = Some(clock);
        t
    }

    pub(crate) fn alloc_trace(&self) -> u64 {
        self.traces_started.bump();
        self.next_trace.next()
    }

    pub(crate) fn span_opened(&self) {
        self.open_spans.bump();
    }

    pub(crate) fn record(&self, rec: SpanRec) {
        self.open_spans.sub(1);
        self.spans_recorded.bump();
        let mut store = self.store.lock();
        let ring = store.rings.entry(rec.vm).or_default();
        if ring.len() >= self.config.ring_capacity {
            ring.pop_front();
            self.spans_dropped.bump();
        }
        ring.push_back(rec);
    }

    pub(crate) fn finish_request(
        &self,
        vm: u32,
        trace_id: u64,
        op: &'static str,
        payload: u64,
        stages: [SimDuration; STAGE_COUNT],
        total: SimDuration,
    ) {
        self.traces_finished.bump();
        let at = self.clock.as_ref().map(|c| c.now()).unwrap_or(SimTime::ZERO);
        let bucket = size_bucket(payload);
        let mut store = self.store.lock();
        if store.summaries.len() >= self.config.summary_capacity {
            store.summaries.pop_front();
        }
        store.summaries.push_back(TraceSummary { vm, trace_id, op, payload, total, stages, at });
        let hists = &mut store.hists;
        for (i, d) in stages.iter().enumerate() {
            if !d.is_zero() {
                hists
                    .entry(HistKey { op, stage: i as u8, bucket })
                    .or_default()
                    .record(d.as_nanos());
            }
        }
        hists.entry(HistKey { op, stage: E2E_STAGE, bucket }).or_default().record(total.as_nanos());
    }

    pub fn counters(&self) -> TraceCounters {
        TraceCounters {
            traces_started: self.traces_started.get(),
            traces_finished: self.traces_finished.get(),
            spans_recorded: self.spans_recorded.get(),
            spans_dropped: self.spans_dropped.get(),
            open_spans: self.open_spans.get() as i64,
        }
    }

    /// VMs that have recorded at least one span.
    pub fn vms(&self) -> Vec<u32> {
        self.store.lock().rings.keys().copied().collect()
    }

    /// Snapshot of one VM's span ring, oldest first.
    pub fn spans(&self, vm: u32) -> Vec<SpanRec> {
        self.store.lock().rings.get(&vm).map(|r| r.iter().cloned().collect()).unwrap_or_default()
    }

    /// Snapshot of the retained request summaries for one VM.
    pub fn summaries(&self, vm: u32) -> Vec<TraceSummary> {
        self.store.lock().summaries.iter().filter(|s| s.vm == vm).cloned().collect()
    }

    /// The most recent finished request for a VM.
    pub fn last_summary(&self, vm: u32) -> Option<TraceSummary> {
        self.store.lock().summaries.iter().rev().find(|s| s.vm == vm).cloned()
    }

    /// Histogram rows, deterministically ordered (op, stage, bucket).
    pub fn hist_rows(&self) -> Vec<HistRow> {
        self.store
            .lock()
            .hists
            .iter()
            .map(|(k, h)| HistRow {
                op: k.op,
                stage: (k.stage != E2E_STAGE).then(|| Stage::ALL[k.stage as usize]),
                payload_hi: bucket_hi(k.bucket),
                count: h.count,
                p50: SimDuration::from_nanos(h.quantile_ns(0.50)),
                p99: SimDuration::from_nanos(h.quantile_ns(0.99)),
                max: SimDuration::from_nanos(h.max_ns),
            })
            .collect()
    }

    /// Canonical byte-stable text form: spans (per VM, ring order) then
    /// summaries (arrival order).  Two runs on the same virtual-clock
    /// schedule encode identically — pinned by `tests/trace.rs`.
    ///
    /// Only trace-local quantities are emitted.  [`TraceSummary::at`] is
    /// deliberately excluded: the global clock folds concurrent threads'
    /// progress (`observe` is a monotonic max), so a finish stamp depends
    /// on how far *other* threads happened to get — per-trace starts and
    /// durations do not.
    pub fn encode(&self) -> String {
        let store = self.store.lock();
        let mut out = String::from("vphi-trace v1\n");
        for (vm, ring) in &store.rings {
            for s in ring {
                let _ = writeln!(
                    out,
                    "span vm={vm} queue={} trace={} id={} parent={} stage={} name={} start_ns={} dur_ns={}",
                    s.queue,
                    s.trace_id,
                    s.id,
                    s.parent,
                    s.stage.name(),
                    s.name,
                    s.start.as_nanos(),
                    s.dur.as_nanos(),
                );
            }
        }
        for s in &store.summaries {
            let _ = write!(
                out,
                "summary vm={} trace={} op={} payload={} total_ns={}",
                s.vm,
                s.trace_id,
                s.op,
                s.payload,
                s.total.as_nanos(),
            );
            for (i, stage) in Stage::ALL.iter().enumerate() {
                let _ = write!(out, " {}={}", stage.name(), s.stages[i].as_nanos());
            }
            out.push('\n');
        }
        out
    }

    /// Export every retained span as a `chrome://tracing` /
    /// [Perfetto](https://ui.perfetto.dev) JSON document: complete ("X")
    /// events, microsecond timestamps, one process per VM, one track per
    /// trace.  Write it to a file and load it in the trace viewer.
    pub fn chrome_trace_json(&self) -> String {
        let store = self.store.lock();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let mut first = true;
        for ring in store.rings.values() {
            for s in ring {
                if !first {
                    out.push_str(",\n");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"ph\":\"X\",\"pid\":{},\"tid\":{},\"name\":\"{}\",\"cat\":\"{}\",\
                     \"ts\":{}.{:03},\"dur\":{}.{:03},\
                     \"args\":{{\"span\":{},\"parent\":{},\"queue\":{}}}}}",
                    s.vm,
                    s.trace_id,
                    s.name,
                    s.stage.name(),
                    s.start.as_nanos() / 1_000,
                    s.start.as_nanos() % 1_000,
                    s.dur.as_nanos() / 1_000,
                    s.dur.as_nanos() % 1_000,
                    s.id,
                    s.parent,
                    s.queue,
                )
                .map_err(|_| ())
                .ok();
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_buckets_are_pow2_ranges() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 1);
        assert_eq!(size_bucket(2), 2);
        assert_eq!(size_bucket(3), 2);
        assert_eq!(size_bucket(4), 3);
        assert_eq!(size_bucket(65536), 17);
        assert_eq!(bucket_hi(0), 0);
        assert_eq!(bucket_hi(2), 3);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(TraceConfig { ring_capacity: 2, summary_capacity: 2 });
        for i in 0..3u32 {
            t.span_opened();
            t.record(SpanRec {
                vm: 0,
                trace_id: 1,
                id: i + 1,
                parent: 0,
                name: "s",
                stage: Stage::HostScif,
                queue: 0,
                start: SimDuration::ZERO,
                dur: SimDuration::from_nanos(i as u64),
            });
        }
        let spans = t.spans(0);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 2, "oldest span must be overwritten");
        let c = t.counters();
        assert_eq!(c.spans_recorded, 3);
        assert_eq!(c.spans_dropped, 1);
        assert_eq!(c.open_spans, 0);
    }

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let mut h = Hist::default();
        for _ in 0..99 {
            h.record(1_000); // ~1µs
        }
        h.record(1_000_000); // one 1ms outlier
        assert_eq!(h.count, 100);
        assert_eq!(h.max_ns, 1_000_000);
        let p50 = h.quantile_ns(0.50);
        assert!((1_000..4_000).contains(&p50), "p50 {p50} should bracket 1µs");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 < 1_000_000, "p99 {p99} excludes the single outlier");
    }

    #[test]
    fn encode_and_chrome_export_are_deterministic() {
        let mk = || {
            let t = Tracer::new(TraceConfig::default());
            t.span_opened();
            t.record(SpanRec {
                vm: 1,
                trace_id: 1,
                id: 1,
                parent: 0,
                name: "send",
                stage: Stage::GuestSyscall,
                queue: 0,
                start: SimDuration::ZERO,
                dur: SimDuration::from_micros(382),
            });
            t.finish_request(
                1,
                1,
                "send",
                1,
                [
                    SimDuration::from_micros(382),
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                    SimDuration::ZERO,
                ],
                SimDuration::from_micros(382),
            );
            t
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.encode(), b.encode());
        assert!(a.encode().contains("summary vm=1 trace=1 op=send payload=1 total_ns=382000"));
        let json = a.chrome_trace_json();
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"dur\":382.000"));
        assert!(json.ends_with("]}\n"));
    }
}
