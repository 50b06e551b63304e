//! End-to-end request tracing: span-graph integrity across send/recv and
//! RMA, byte-stable encoding on a fixed virtual-clock schedule, and no
//! orphan spans when a chaos fault plan fires mid-request.

use std::collections::{BTreeMap, BTreeSet};
use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::{Cq, Sq, SqEntry};
use vphi_dev_support::{echo_window_server, window};
use vphi_faults::FaultPlan;
use vphi_scif::{RmaFlags, ScifAddr, ScifError};
use vphi_sim_core::{SimDuration, Timeline};
use vphi_trace::{SpanRec, Stage, TraceConfig};

/// One traced guest session: open, connect, 5-byte echo, a 4 KiB RMA
/// write into the server window, close.
fn one_session(vm: &VphiVm, addr: ScifAddr) -> Result<(), ScifError> {
    let mut tl = Timeline::new();
    let ep = vm.open_scif(&mut tl)?;
    ep.connect(addr, &mut tl)?;
    ep.send(b"ping!", &mut tl)?;
    let mut back = [0u8; 5];
    let mut got = 0;
    while got < back.len() {
        let n = ep.recv(&mut back[got..], &mut tl)?;
        if n == 0 {
            return Err(ScifError::ConnReset);
        }
        got += n;
    }
    assert_eq!(&back, b"ping!");
    let buf = vm.alloc_buf(4096)?;
    ep.vwriteto(&buf, 0, RmaFlags::SYNC, &mut tl)?;
    ep.close(&mut tl)?;
    Ok(())
}

/// Check every retained span graph: per trace, exactly one root (id 1,
/// parent 0), unique ids, and every parent resolving to a span of the
/// same trace.
fn assert_well_formed(spans: &[SpanRec]) {
    let mut by_trace: BTreeMap<u64, Vec<&SpanRec>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace_id).or_default().push(s);
    }
    assert!(!by_trace.is_empty(), "no traces recorded");
    for (trace_id, spans) in by_trace {
        let ids: BTreeSet<u32> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), spans.len(), "trace {trace_id}: duplicate span ids");
        let roots: Vec<_> = spans.iter().filter(|s| s.parent == 0).collect();
        assert_eq!(roots.len(), 1, "trace {trace_id}: expected exactly one root");
        assert_eq!(roots[0].id, 1, "trace {trace_id}: root id");
        for s in &spans {
            assert!(
                s.parent == 0 || ids.contains(&s.parent),
                "trace {trace_id}: span {} ({}) has unresolved parent {}",
                s.id,
                s.name,
                s.parent
            );
        }
    }
}

#[test]
fn span_graph_covers_every_layer_and_is_well_formed() {
    let host = VphiHost::new(1);
    let tracer = host.arm_tracing(TraceConfig { ring_capacity: 1 << 16, summary_capacity: 1024 });
    let server = echo_window_server(&host, 0);
    let vm = host.spawn_vm(VmConfig::default());

    one_session(&vm, server.addr()).expect("traced session");

    let vm_id = vm.vm().id();
    let spans = tracer.spans(vm_id);
    assert_well_formed(&spans);

    // The trace follows the request through every layer of the stack.
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for expected in [
        "guest-syscall",  // frontend marshalling
        "virtio-ring",    // descriptor + kick
        "backend-replay", // backend decode + execute
        "scif_send",      // host SCIF replay of the guest's send
        "scif_recv",
        "scif_vwriteto",
        "complete",      // used-ring write-back + interrupt
        "wait-complete", // frontend waiting scheme
    ] {
        assert!(names.contains(expected), "missing span {expected:?} in {names:?}");
    }

    // Child spans nest under the op roots: a scif_* replay span's parent
    // chain reaches the backend-replay span.
    let by_id: BTreeMap<(u64, u32), &SpanRec> =
        spans.iter().map(|s| ((s.trace_id, s.id), s)).collect();
    let scif_send = spans.iter().find(|s| s.name == "scif_send").unwrap();
    let parent = by_id[&(scif_send.trace_id, scif_send.parent)];
    assert_eq!(parent.name, "backend-replay");

    // Summaries cover the ops the session issued, and the RMA write's
    // decomposition has real DMA time.
    let ops: BTreeSet<&str> = tracer.summaries(vm_id).iter().map(|s| s.op).collect();
    for op in ["open", "connect", "send", "recv", "vwriteto", "close"] {
        assert!(ops.contains(op), "missing summary for {op:?} in {ops:?}");
    }
    let vwrite =
        tracer.summaries(vm_id).into_iter().find(|s| s.op == "vwriteto").expect("vwriteto summary");
    assert!(!vwrite.stages[Stage::Dma.index()].is_zero(), "{vwrite:?}");
    assert_eq!(vwrite.stages.iter().copied().sum::<vphi_sim_core::SimDuration>(), vwrite.total);

    // Everything opened was closed.
    let c = tracer.counters();
    assert_eq!(c.open_spans, 0, "{c:?}");
    assert_eq!(c.traces_started, c.traces_finished, "{c:?}");
    assert_eq!(c.spans_dropped, 0, "{c:?}");

    // The chrome://tracing export carries the same spans.
    let chrome = tracer.chrome_trace_json();
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("backend-replay"));

    vm.shutdown();
}

/// One deterministic traced workload; returns the canonical encoding,
/// with the VM id (a process-global counter, so it differs between test
/// runs in the same process) normalized out.
fn encoded_run() -> String {
    let host = VphiHost::new(1);
    let tracer = host.arm_tracing(TraceConfig::default());
    let server = echo_window_server(&host, 0);
    let vm = host.spawn_vm(VmConfig::default());
    one_session(&vm, server.addr()).expect("traced session");
    let encoded = tracer.encode().replace(&format!("vm={}", vm.vm().id()), "vm=#");
    vm.shutdown();
    encoded
}

#[test]
fn trace_encoding_is_byte_stable() {
    let a = encoded_run();
    let b = encoded_run();
    assert!(a.starts_with("vphi-trace v1\n"), "{a:?}");
    assert!(a.contains("span vm="), "no spans encoded: {a:?}");
    assert!(a.contains("summary vm="), "no summaries encoded: {a:?}");
    // Virtual time is the only clock in the encoding, so two identical
    // schedules encode identically — byte for byte.
    assert_eq!(a, b);
}

/// One 16-entry batch (ten 500-byte sends, five 4 KiB `vreadfrom`s, one
/// 5 000-byte send) submitted and reaped on a fresh stack.  Returns the
/// virtual time the caller's timeline gained and, when traced, the stage
/// sums of the traces the two calls produced.
fn one_batch(traced: bool) -> (SimDuration, Option<SimDuration>) {
    let host = VphiHost::new(1);
    let tracer = traced.then(|| host.arm_tracing(TraceConfig::default()));
    let server = window(&host, 0, 4096, |_| {});
    let rig = server.guest(&host, VmConfig::default());
    let (ep, vm, mut tl) = (&rig.guest, &rig.vm, Timeline::new());
    let bufs: Vec<_> = (0..5).map(|_| vm.alloc_buf(4096).unwrap()).collect();

    let mut sq = Sq::new();
    for i in 0..16 {
        sq.push(match i {
            3 | 6 | 9 | 12 | 15 => SqEntry::vreadfrom(&bufs[i / 3 - 1], 0, RmaFlags::SYNC),
            7 => SqEntry::send(&[7u8; 5_000]),
            _ => SqEntry::send(&[i as u8; 500]),
        });
    }
    let before = tl.total();
    let tokens = ep.submit(&mut sq, &mut tl).unwrap();
    assert_eq!(tokens.len(), 16);
    let mut cq = Cq::new();
    cq.watch(&tokens);
    assert_eq!(ep.reap(&mut cq, 16, 16, &mut tl).unwrap(), 16);
    let virt = tl.total() - before;
    assert!(cq.drain().iter().all(|c| c.result.is_ok()));

    let staged = tracer.map(|tracer| {
        let batch: Vec<_> = tracer
            .summaries(vm.vm().id())
            .into_iter()
            .filter(|s| s.op == "submit-batch" || s.op == "reap")
            .collect();
        assert_eq!(batch.len(), 2, "one submit and one reap trace: {batch:?}");
        batch.iter().flat_map(|s| s.stages).sum::<SimDuration>()
    });
    (virt, staged)
}

/// Every nanosecond a batch charges its caller lands in a trace: the
/// payload staging `submit` does ahead of the driver's `submit_batch`
/// included.  Tracing itself moves no virtual time.
#[test]
fn batch_stage_sums_reconcile_with_the_callers_timeline() {
    let (traced_virt, staged) = one_batch(true);
    assert_eq!(staged, Some(traced_virt), "stage sums vs the caller's virtual time");
    let (untraced_virt, _) = one_batch(false);
    assert_eq!(untraced_virt, traced_virt, "tracing changed the batch's virtual time");
}

/// Every guest request the backend replays onto a `ScifEndpoint` method,
/// by request name (`VphiRequest::name`), with the span that method
/// opens.  The span is how a replay shows up in the guest's trace, and a
/// method records one only when it is handed the request's `OpCtx`: one
/// that takes a bare `&mut Timeline` loses its row's span.
const REPLAYED_AS: [(&str, &str); 19] = [
    ("bind", "scif_bind"),
    ("listen", "scif_listen"),
    ("accept", "scif_accept"),
    ("connect", "scif_connect"),
    ("send", "scif_send"),
    ("recv", "scif_recv"),
    ("send_timed", "scif_send_timed"),
    ("recv_timed", "scif_recv_timed"),
    ("register", "scif_register"),
    ("unregister", "scif_unregister"),
    ("vreadfrom", "scif_vreadfrom"),
    ("vwriteto", "scif_vwriteto"),
    ("readfrom", "scif_readfrom"),
    ("writeto", "scif_writeto"),
    ("mmap", "scif_mmap"),
    ("fence_mark", "scif_fence_mark"),
    ("fence_wait", "scif_fence_wait"),
    ("fence_signal", "scif_fence_signal"),
    ("poll", "scif_poll"),
];

/// One traced guest through every request in [`REPLAYED_AS`]: each trace
/// of the request holds its method's `host-scif` span, parented under the
/// request's `backend-replay` span.
#[test]
fn every_replayed_request_traces_its_host_scif_call() {
    use vphi_scif::{PollEvents, Port, Prot, HOST_NODE};
    use vphi_sim_core::cost::PAGE_SIZE;

    let host = VphiHost::new(1);
    let tracer = host.arm_tracing(TraceConfig { ring_capacity: 1 << 16, summary_capacity: 1024 });
    let server = echo_window_server(&host, 0);
    let vm = host.spawn_vm(VmConfig::default());
    let mut tl = Timeline::new();

    // A guest listener, and a native client on the timed lane.
    let listener = vm.open_scif(&mut tl).unwrap();
    let port = listener.bind(Port::ANY, &mut tl).unwrap();
    listener.listen(1, &mut tl).unwrap();
    let client = host.native_endpoint().unwrap();
    let (conn, _) = std::thread::scope(|s| {
        let accepting = s.spawn(|| listener.accept(&mut Timeline::new()));
        client.connect(ScifAddr::new(HOST_NODE, port), &mut Timeline::new()).unwrap();
        accepting.join().unwrap()
    })
    .unwrap();
    client.send_timed(64, &mut tl).unwrap();
    assert_eq!(conn.recv_timed(64, &mut tl), Ok(64));
    assert_eq!(conn.send_timed(64, &mut tl), Ok(64));

    // A guest client of the card's echo + window server.
    let ep = vm.open_scif(&mut tl).unwrap();
    ep.connect(server.addr(), &mut tl).unwrap();
    ep.send(b"ping", &mut tl).unwrap();
    // The echo comes back once the server has registered its window.
    assert_eq!(ep.recv(&mut [0u8; 4], &mut tl), Ok(4));
    let buf = vm.alloc_buf(PAGE_SIZE).unwrap();
    ep.vwriteto(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
    ep.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
    let loff = ep.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
    ep.writeto(loff, PAGE_SIZE, 0, RmaFlags::SYNC, &mut tl).unwrap();
    ep.readfrom(loff, PAGE_SIZE, 0, RmaFlags::SYNC, &mut tl).unwrap();
    let marker = ep.fence_mark(&mut tl).unwrap();
    ep.fence_wait(marker, &mut tl).unwrap();
    ep.fence_signal(loff, 1, 0, 2, &mut tl).unwrap();
    assert!(ep.poll(PollEvents::OUT, 0, &mut tl).unwrap().contains(PollEvents::OUT));
    ep.mmap(vm.vm().kvm(), 0, PAGE_SIZE, Prot::READ, &mut tl).unwrap().munmap(&mut tl).unwrap();
    ep.unregister(loff, PAGE_SIZE, &mut tl).unwrap();
    for guest in [ep, conn, listener] {
        guest.close(&mut tl).unwrap();
    }
    drop(client);

    let vm_id = vm.vm().id();
    let spans = tracer.spans(vm_id);
    let by_id: BTreeMap<(u64, u32), &SpanRec> =
        spans.iter().map(|s| ((s.trace_id, s.id), s)).collect();
    let summaries = tracer.summaries(vm_id);
    for (op, method) in REPLAYED_AS {
        let traces: Vec<u64> =
            summaries.iter().filter(|s| s.op == op).map(|s| s.trace_id).collect();
        assert!(!traces.is_empty(), "no {op:?} request was traced");
        for trace in traces {
            let replayed = spans.iter().any(|s| {
                s.trace_id == trace
                    && s.name == method
                    && s.stage == Stage::HostScif
                    && by_id.get(&(trace, s.parent)).is_some_and(|p| p.name == "backend-replay")
            });
            assert!(replayed, "{op:?} trace {trace} has no {method:?} span under backend-replay");
        }
    }
    assert_eq!(tracer.counters().spans_dropped, 0);
    vm.shutdown();
}

#[test]
fn chaos_faults_leave_no_orphan_spans() {
    let host = VphiHost::new(1);
    let tracer = host.arm_tracing(TraceConfig::default());
    let _injector = host.arm_faults(FaultPlan::from_seed(47, 12));
    let server = echo_window_server(&host, 0);
    let vm = host.spawn_vm(VmConfig::default());

    // Drive sessions through the fault plan with chaos-style recovery:
    // retry retryable errors, reset a failed card, stop if the guest dies.
    let mut completed = 0;
    'sessions: for _ in 0..8 {
        for _attempt in 0..25 {
            if vm.frontend().channel().is_shutdown() {
                break 'sessions;
            }
            match one_session(&vm, server.addr()) {
                Ok(()) => {
                    completed += 1;
                    continue 'sessions;
                }
                Err(ScifError::NoDev) if host.board(0).is_failed() => {
                    host.reset_card(0);
                }
                Err(_) => {}
            }
        }
    }
    let died = vm.frontend().channel().is_shutdown();
    assert!(died || completed == 8, "neither died nor finished ({completed}/8)");

    // Quiesce, then audit: every begun span ended and every adopted root
    // finished — errors, re-kicks, card resets and guest death
    // all travel the same finish paths as success.
    vm.shutdown();
    server.shutdown();

    let c = tracer.counters();
    assert!(c.traces_started > 0, "{c:?}");
    assert_eq!(c.traces_started, c.traces_finished, "orphan roots: {c:?}");
    assert_eq!(c.open_spans, 0, "orphan spans: {c:?}");
}
