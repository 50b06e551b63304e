//! The [`OpCtx`] operation context and the [`TraceCtx`] it carries.
//!
//! `OpCtx` is the single threaded parameter of every SCIF-path operation:
//! the virtual-time [`Timeline`] the op charges into, plus the trace
//! context that links its spans to the request's root.  Untraced callers
//! build one implicitly from `&mut Timeline` (the pre-redesign calling
//! convention still compiles everywhere); traced layers pass `&mut ctx`
//! down, which reborrows the timeline and clones the trace linkage.

use std::sync::Arc;

use vphi_sim_core::{SimDuration, Timeline};
use vphi_sync::Counter;

use crate::tracer::{SpanRec, Tracer};
use crate::{Stage, TraceHook};

/// Trace linkage carried by an [`OpCtx`].  `Default` (and conversion from a
/// bare `&mut Timeline`) gives the untraced state, where every span
/// operation is a branch on `None`.
#[derive(Debug, Clone, Default)]
pub struct TraceCtx {
    pub(crate) inner: Option<TraceInner>,
}

impl TraceCtx {
    /// A clone whose next spans parent directly to the trace root — for
    /// stages (e.g. completion delivery) that are siblings of the subtree
    /// this context currently sits in, not children of it.
    pub fn at_root(&self) -> TraceCtx {
        let mut c = self.clone();
        if let Some(inner) = c.inner.as_mut() {
            inner.parent = inner.root;
        }
        c
    }

    /// Tag every span this context records from now on with the virtqueue
    /// the request was routed to.  The frontend calls this right after the
    /// queue router picks a lane; forks inherit the tag, so backend spans
    /// carry it too.  No-op when disarmed.
    pub fn set_queue(&mut self, queue: u16) {
        if let Some(inner) = self.inner.as_mut() {
            inner.queue = queue;
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct TraceInner {
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) vm: u32,
    pub(crate) trace_id: u64,
    pub(crate) root: u32,
    pub(crate) parent: u32,
    /// Shared across forks/clones so span ids stay unique per trace.
    pub(crate) next_span: Arc<Counter>,
    /// Virtual offset of this context's timeline zero within the trace.
    /// The frontend's context has `base = 0`; a backend fork sets `base`
    /// to the frontend's elapsed time at submit, so backend spans land
    /// after the ring transit on the shared trace clock.
    pub(crate) base: SimDuration,
    /// `tl.total()` at the moment this context attached to the trace;
    /// span offsets are measured relative to it.
    pub(crate) zero: SimDuration,
    /// Virtqueue the request rode (set by the frontend's queue router;
    /// stays 0 for endpoint-less ops and single-queue configs).
    pub(crate) queue: u16,
}

/// Operation context: the timeline an op charges plus its trace linkage.
///
/// APIs take `ctx: impl Into<OpCtx<'_>>` so callers can pass either a bare
/// `&mut Timeline` (untraced) or `&mut OpCtx` (propagating a trace).
#[derive(Debug)]
pub struct OpCtx<'a> {
    pub tl: &'a mut Timeline,
    pub trace: TraceCtx,
}

impl<'a> From<&'a mut Timeline> for OpCtx<'a> {
    fn from(tl: &'a mut Timeline) -> Self {
        OpCtx { tl, trace: TraceCtx::default() }
    }
}

impl<'a, 'b> From<&'a mut OpCtx<'b>> for OpCtx<'a> {
    fn from(ctx: &'a mut OpCtx<'b>) -> Self {
        OpCtx { tl: &mut *ctx.tl, trace: ctx.trace.clone() }
    }
}

/// Token for an open child span; every [`OpCtx::begin`] must be matched by
/// an [`OpCtx::end`] (use [`OpCtx::in_span`] where control flow allows —
/// the closure shape makes orphans impossible).
#[must_use = "an open span must be ended or the trace reports an orphan"]
#[derive(Debug)]
pub struct OpenSpan {
    armed: bool,
    id: u32,
    prev_parent: u32,
    name: &'static str,
    stage: Stage,
    start_total: SimDuration,
}

impl OpenSpan {
    const DISARMED: OpenSpan = OpenSpan {
        armed: false,
        id: 0,
        prev_parent: 0,
        name: "",
        stage: Stage::GuestSyscall,
        start_total: SimDuration::ZERO,
    };
}

/// Token for a request root adopted via [`OpCtx::adopt_root`]; closed by
/// [`OpCtx::finish_root`], which also decomposes what the request charged
/// into per-stage sums for the histograms.
#[must_use = "a root span must be finished or the trace reports an orphan"]
#[derive(Debug)]
pub struct RootSpan {
    name: &'static str,
    /// The timeline as the request found it; `None` when disarmed.
    start: Option<Timeline>,
}

impl RootSpan {
    const DISARMED: RootSpan = RootSpan { name: "", start: None };
}

/// Root spans get id 1; their `parent` field is 0 ("no parent").
const ROOT_SPAN_ID: u32 = 1;

impl<'a> OpCtx<'a> {
    pub fn new(tl: &'a mut Timeline, trace: TraceCtx) -> Self {
        OpCtx { tl, trace }
    }

    /// Open a child span under the current parent.  Disarmed contexts pay
    /// one branch and do not touch the timeline.
    #[inline]
    pub fn begin(&mut self, name: &'static str, stage: Stage) -> OpenSpan {
        match self.trace.inner.as_mut() {
            None => OpenSpan::DISARMED,
            Some(inner) => {
                let start_total = self.tl.total();
                let id = inner.next_span.next() as u32;
                let prev_parent = inner.parent;
                inner.parent = id;
                inner.tracer.span_opened();
                OpenSpan { armed: true, id, prev_parent, name, stage, start_total }
            }
        }
    }

    /// Close a span opened by [`begin`](Self::begin): record it and restore
    /// the previous parent.
    #[inline]
    pub fn end(&mut self, span: OpenSpan) {
        if !span.armed {
            return;
        }
        let total = self.tl.total();
        if let Some(inner) = self.trace.inner.as_mut() {
            inner.parent = span.prev_parent;
            inner.tracer.record(SpanRec {
                vm: inner.vm,
                trace_id: inner.trace_id,
                id: span.id,
                parent: span.prev_parent,
                name: span.name,
                stage: span.stage,
                queue: inner.queue,
                start: inner.base + (span.start_total - inner.zero),
                dur: total - span.start_total,
            });
        }
    }

    /// Run `f` inside a span.  The closure shape guarantees the span closes
    /// on every exit path, so traces built this way cannot orphan.
    #[inline]
    pub fn in_span<R>(
        &mut self,
        name: &'static str,
        stage: Stage,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let span = self.begin(name, stage);
        let r = f(self);
        self.end(span);
        r
    }

    /// Become the root of a new trace if (a) this context is not already
    /// inside one and (b) `hook` is armed.  Otherwise returns a disarmed
    /// token and [`finish_root`](Self::finish_root) is a no-op — so every
    /// request entry point can adopt unconditionally and nesting resolves
    /// to one trace per outermost guest operation.
    pub fn adopt_root(&mut self, hook: &TraceHook, op: &'static str) -> RootSpan {
        if self.trace.inner.is_some() {
            return RootSpan::DISARMED;
        }
        let Some(arm) = hook.get() else {
            return RootSpan::DISARMED;
        };
        let tracer = Arc::clone(&arm.tracer);
        let trace_id = tracer.alloc_trace();
        tracer.span_opened();
        let zero = self.tl.total();
        self.trace.inner = Some(TraceInner {
            tracer,
            vm: arm.vm,
            trace_id,
            root: ROOT_SPAN_ID,
            parent: ROOT_SPAN_ID,
            next_span: Arc::new(Counter::new(ROOT_SPAN_ID as u64 + 1)),
            base: SimDuration::ZERO,
            zero,
            queue: 0,
        });
        RootSpan { name: op, start: Some(self.tl.clone()) }
    }

    /// Close a root adopted by [`adopt_root`](Self::adopt_root): record the
    /// root span, decompose what the request charged into per-stage sums
    /// (total by construction — see [`Stage::of`]), feed the histograms,
    /// and detach this context from the trace.
    pub fn finish_root(&mut self, root: RootSpan, payload: u64) {
        let Some(start) = root.start else {
            return;
        };
        let Some(inner) = self.trace.inner.take() else {
            return;
        };
        let own = self.tl.since(&start);
        let total = own.total();
        let mut stages = [SimDuration::ZERO; crate::STAGE_COUNT];
        for (label, d) in own.breakdown() {
            stages[Stage::of(label).index()] += d;
        }
        inner.tracer.record(SpanRec {
            vm: inner.vm,
            trace_id: inner.trace_id,
            id: ROOT_SPAN_ID,
            parent: 0,
            name: root.name,
            stage: Stage::GuestSyscall,
            queue: inner.queue,
            start: SimDuration::ZERO,
            dur: total,
        });
        inner.tracer.finish_request(inner.vm, inner.trace_id, root.name, payload, stages, total);
    }

    /// Tag the trace with the virtqueue the request was routed to (see
    /// [`TraceCtx::set_queue`]).
    pub fn set_queue(&mut self, queue: u16) {
        self.trace.set_queue(queue);
    }

    /// Fork a context for the backend half of the request.  The fork's
    /// spans parent to the root (the backend is a sibling subtree, not a
    /// child of whichever frontend span happens to be open at submit), and
    /// its `base` pins the backend's fresh timeline zero to the frontend's
    /// elapsed time, so both halves share one trace clock.
    pub fn fork(&self) -> TraceCtx {
        match &self.trace.inner {
            None => TraceCtx::default(),
            Some(inner) => TraceCtx {
                inner: Some(TraceInner {
                    tracer: Arc::clone(&inner.tracer),
                    vm: inner.vm,
                    trace_id: inner.trace_id,
                    root: inner.root,
                    parent: inner.root,
                    next_span: Arc::clone(&inner.next_span),
                    base: inner.base + (self.tl.total() - inner.zero),
                    zero: SimDuration::ZERO,
                    queue: inner.queue,
                }),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceConfig;
    use vphi_sim_core::SpanLabel;

    #[test]
    fn untraced_ctx_spans_are_free_noops() {
        let mut tl = Timeline::new();
        let mut ctx = OpCtx::from(&mut tl);
        let hook = TraceHook::new(); // disarmed
        let root = ctx.adopt_root(&hook, "op");
        let r = ctx.in_span("child", Stage::HostScif, |c| {
            c.tl.charge(SpanLabel::HostSyscall, SimDuration::from_micros(2));
            7
        });
        ctx.finish_root(root, 1);
        assert_eq!(r, 7);
        assert_eq!(tl.total(), SimDuration::from_micros(2));
    }

    #[test]
    fn root_children_and_stage_sums_line_up() {
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let hook = TraceHook::new();
        hook.arm(Arc::clone(&tracer), 0);

        let mut tl = Timeline::new();
        let mut ctx = OpCtx::from(&mut tl);
        let root = ctx.adopt_root(&hook, "send");
        ctx.in_span("guest-syscall", Stage::GuestSyscall, |c| {
            c.tl.charge(SpanLabel::GuestSyscall, SimDuration::from_micros(3));
            c.in_span("nested", Stage::GuestSyscall, |c2| {
                c2.tl.charge(SpanLabel::GuestCopy, SimDuration::from_micros(1));
            });
        });
        ctx.in_span("virtio-ring", Stage::VirtioRing, |c| {
            c.tl.charge(SpanLabel::RingPush, SimDuration::from_micros(2));
        });
        ctx.finish_root(root, 64);

        let spans = tracer.spans(0);
        assert_eq!(spans.len(), 4);
        let root_rec = spans.iter().find(|s| s.parent == 0).unwrap();
        assert_eq!(root_rec.name, "send");
        assert_eq!(root_rec.dur, SimDuration::from_micros(6));
        let nested = spans.iter().find(|s| s.name == "nested").unwrap();
        let parent = spans.iter().find(|s| s.id == nested.parent).unwrap();
        assert_eq!(parent.name, "guest-syscall");
        assert_eq!(parent.parent, root_rec.id);

        let sum = tracer.last_summary(0).unwrap();
        assert_eq!(sum.op, "send");
        assert_eq!(sum.payload, 64);
        assert_eq!(sum.total, SimDuration::from_micros(6));
        assert_eq!(sum.stages[Stage::GuestSyscall.index()], SimDuration::from_micros(4));
        assert_eq!(sum.stages[Stage::VirtioRing.index()], SimDuration::from_micros(2));
        assert_eq!(sum.stages.iter().copied().sum::<SimDuration>(), sum.total);
        assert_eq!(tracer.counters().open_spans, 0);
    }

    #[test]
    fn nested_adoption_yields_one_trace() {
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let hook = TraceHook::new();
        hook.arm(Arc::clone(&tracer), 0);

        let mut tl = Timeline::new();
        let mut ctx = OpCtx::from(&mut tl);
        let outer = ctx.adopt_root(&hook, "outer");
        {
            // An inner layer converting `&mut ctx` back into an OpCtx (the
            // generic-call shape) must not start a second trace.
            let mut inner: OpCtx<'_> = (&mut ctx).into();
            let nested = inner.adopt_root(&hook, "inner");
            inner.in_span("work", Stage::HostScif, |c| {
                c.tl.charge(SpanLabel::HostSyscall, SimDuration::from_micros(1));
            });
            inner.finish_root(nested, 0);
        }
        ctx.finish_root(outer, 0);
        let c = tracer.counters();
        assert_eq!(c.traces_started, 1);
        assert_eq!(c.traces_finished, 1);
        assert_eq!(c.open_spans, 0);
    }

    #[test]
    fn queue_tag_reaches_spans_and_survives_fork() {
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let hook = TraceHook::new();
        hook.arm(Arc::clone(&tracer), 0);

        let mut tl = Timeline::new();
        let mut ctx = OpCtx::from(&mut tl);
        let root = ctx.adopt_root(&hook, "send");
        ctx.set_queue(3);
        ctx.in_span("virtio-ring", Stage::VirtioRing, |c| {
            c.tl.charge(SpanLabel::RingPush, SimDuration::from_micros(1));
        });
        let forked = ctx.fork();
        let mut be_tl = Timeline::new();
        let mut be = OpCtx::new(&mut be_tl, forked);
        be.in_span("backend-replay", Stage::BackendReplay, |c| {
            c.tl.charge(SpanLabel::BackendDecode, SimDuration::from_micros(1));
        });
        ctx.tl.absorb(&be_tl);
        ctx.finish_root(root, 1);

        let spans = tracer.spans(0);
        assert!(!spans.is_empty());
        for s in &spans {
            assert_eq!(s.queue, 3, "span {} must carry the queue tag", s.name);
        }
        // A disarmed context ignores the tag without panicking.
        let mut tl2 = Timeline::new();
        let mut untraced = OpCtx::from(&mut tl2);
        untraced.set_queue(9);
    }

    #[test]
    fn fork_places_backend_spans_on_the_shared_trace_clock() {
        let tracer = Arc::new(Tracer::new(TraceConfig::default()));
        let hook = TraceHook::new();
        hook.arm(Arc::clone(&tracer), 0);

        let mut fe_tl = Timeline::new();
        let mut fe = OpCtx::from(&mut fe_tl);
        let root = fe.adopt_root(&hook, "send");
        fe.tl.charge(SpanLabel::RingPush, SimDuration::from_micros(5));
        let forked = fe.fork();

        let mut be_tl = Timeline::new();
        let mut be = OpCtx::new(&mut be_tl, forked);
        be.in_span("backend-replay", Stage::BackendReplay, |c| {
            c.tl.charge(SpanLabel::BackendDecode, SimDuration::from_micros(2));
        });

        fe.tl.absorb(&be_tl);
        fe.finish_root(root, 1);

        let spans = tracer.spans(0);
        let replay = spans.iter().find(|s| s.name == "backend-replay").unwrap();
        assert_eq!(replay.start, SimDuration::from_micros(5));
        assert_eq!(replay.dur, SimDuration::from_micros(2));
        let root_rec = spans.iter().find(|s| s.parent == 0).unwrap();
        assert_eq!(replay.parent, root_rec.id);
        assert_eq!(root_rec.dur, SimDuration::from_micros(7));
    }
}
