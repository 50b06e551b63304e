//! Host cost as exact counts: what one call of the stack costs the machine
//! the simulator runs on, guest beside native.  A [`HostCost`] sums over a
//! window of calls: heap allocations process-wide (this module's counting
//! global allocator, in every binary that links the crate); lock
//! acquisitions per [`LockClass`] and atomic RMWs on the calling thread and
//! condvar signals process-wide, where the lock-order audit counts them
//! (debug, `sync-audit`); a guest VM's kicks, real sleeps and staging
//! chunks.  [`figure`] is `host_cost.golden.json`; what is not exact
//! (context switches, `WALL`) is a wall reading.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt;
use std::sync::Arc;

use vphi::backend::RmaCharge;
use vphi::builder::{VmConfig, VphiHost, VphiVm};
use vphi::{Cq, GuestScif, Sq, SqEntry};
use vphi_coi::{CoiDaemon, CoiEnv, GuestEnv, NativeEnv};
use vphi_dev_support::native_connect;
use vphi_mic_tools::{micnativeloadex, MicBinary};
use vphi_scif::types::pinned_buf;
use vphi_scif::window::WindowBacking;
use vphi_scif::{Port, Prot, RmaFlags, ScifAddr, ScifEndpoint};
use vphi_sim_core::Timeline;
use vphi_sync::{audit, LockClass};

use crate::support::{bracketed, split_cells, Cell, Figure};

/// Allocations at or above this size count as payload-sized.
const LARGE: usize = 32 << 10;

// The allocator's own counts are raw atomics, not `vphi_sync::Counter`s: a
// `Counter` reports its RMW to the audit, and the instrument must not show
// in the RMW column it measures.
#[expect(clippy::disallowed_types, reason = "the counting allocator's own, uncounted tallies")]
type RawU64 = std::sync::atomic::AtomicU64;

/// Allocations of any size, and of at least [`LARGE`] bytes, since the
/// process started.
static ALL_ALLOCS: RawU64 = RawU64::new(0);
static LARGE_ALLOCS: RawU64 = RawU64::new(0);

struct CountingAlloc;

fn note(size: usize) {
    use std::sync::atomic::Ordering::Relaxed;
    ALL_ALLOCS.fetch_add(1, Relaxed);
    if size >= LARGE {
        LARGE_ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, the
// allocator the process would otherwise use, so `System`'s guarantees are
// this allocator's; the only addition is a few relaxed atomic updates, which
// neither allocate nor touch the memory being managed.
#[expect(
    unsafe_code,
    reason = "a global allocator is an unsafe trait; each method forwards to `System`"
)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System.alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`, and that `new_size` is
        // valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator —
        // that is, from `System` — with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Which builds a count repeats exactly in: all, those with the audit (the
/// only ones that count it), or none (a wall reading on every row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Exact {
    Always,
    Audited,
    Never,
}

/// The counts of a [`HostCost`], in column order, each with the builds it
/// repeats exactly in.  The first two are the calling thread's.
const COUNTS: [(&str, Exact); 10] = [
    ("acquisitions", Exact::Audited),
    ("RMWs", Exact::Audited),
    ("allocs", Exact::Always),
    ("allocs >= 32 KiB", Exact::Always),
    ("signals", Exact::Audited),
    ("kicks", Exact::Always),
    ("sleeps", Exact::Always),
    ("staged chunks", Exact::Always),
    ("voluntary switches", Exact::Never),
    ("involuntary switches", Exact::Never),
];

/// The last column: the acquisitions per lock class.
const BY_CLASS: &str = "acquisitions by class";

/// What a window of calls cost the host: the counted columns, then the
/// acquisitions per [`LockClass::index`], summed over `calls`.
#[derive(Debug)]
pub struct HostCost {
    calls: u64,
    counts: [u64; COUNTS.len() + LockClass::COUNT],
}

impl HostCost {
    fn zero() -> Self {
        HostCost { calls: 0, counts: [0; COUNTS.len() + LockClass::COUNT] }
    }

    fn read_thread(&mut self) {
        let classes = audit::thread_acquisitions();
        self.counts[COUNTS.len()..].copy_from_slice(&classes);
        self.counts[..2].copy_from_slice(&[classes.iter().sum(), audit::thread_rmws()]);
    }

    /// The rest of the [`COUNTS`], in order.  Reading them takes locks,
    /// so it stays outside the thread's window; it neither allocates nor
    /// signals.
    fn read_rest(&mut self, scope: &Scope<'_>) {
        use std::sync::atomic::Ordering::Relaxed;
        let (kicks, sleeps, staged) = scope.vm.map_or((0, 0, 0), |vm| {
            let channel = vm.frontend().channel();
            let kicks = channel.lanes().iter().map(|l| l.queue.counters().kicks).sum();
            (kicks, channel.waits().parks, vm.frontend().stats().chunks_sent)
        });
        let (voluntary, involuntary) = context_switches().unwrap_or_default();
        let (all, large) = (ALL_ALLOCS.load(Relaxed), LARGE_ALLOCS.load(Relaxed));
        let signals = audit::stats().signals;
        let rest = [all, large, signals, kicks, sleeps, staged, voluntary, involuntary];
        self.counts[2..COUNTS.len()].copy_from_slice(&rest);
    }
}

/// The calling thread's `(voluntary, involuntary)` context switches, read
/// from `/proc/thread-self/status` into a stack buffer.
fn context_switches() -> Option<(u64, u64)> {
    use std::{fs::File, io::Read};
    let (mut file, mut buf, mut len) = (File::open("/proc/thread-self/status").ok()?, [0; 4096], 0);
    while let Ok(n @ 1..) = file.read(&mut buf[len..]) {
        len += n;
    }
    let status = std::str::from_utf8(&buf[..len]).ok()?;
    let field = |name: &str| {
        status.lines().find_map(|l| l.strip_prefix(name)).and_then(|v| v.trim().parse().ok())
    };
    Some((field("voluntary_ctxt_switches:")?, field("nonvoluntary_ctxt_switches:")?))
}

/// For a guest, the VM the calls kick.
struct Scope<'a> {
    vm: Option<&'a VphiVm>,
}

impl Scope<'_> {
    /// Run `call` `warm` times, then `calls` times, each from a quiet
    /// stack ([`quiesce`]), and count the latter: the calling thread's
    /// counts over each call, the rest over the call and the quiet after
    /// it, so what a call left another thread to finish (a shard
    /// completing a batch) is its own.
    fn count(&self, warm: u64, calls: u64, mut call: impl FnMut()) -> HostCost {
        (0..warm).for_each(|_| call());
        let (mut cost, mut before, mut after) =
            (HostCost::zero(), HostCost::zero(), HostCost::zero());
        self.vm.inspect(|vm| quiesce(vm));
        for _ in 0..calls {
            before.read_rest(self);
            before.read_thread();
            call();
            after.read_thread();
            self.vm.inspect(|vm| quiesce(vm));
            after.read_rest(self);
            cost.calls += 1;
            for (i, sum) in cost.counts.iter_mut().enumerate() {
                *sum += after.counts[i] - before.counts[i];
            }
        }
        cost
    }
}

/// Wait until every lane of `vm` is idle: its shard parked on its ring, no
/// kick pending.  A blocking caller services its own kick only on an idle
/// lane (DESIGN.md #21); one that finds the shard still draining hands its
/// chain over.
fn quiesce(vm: &VphiVm) {
    for lane in vm.frontend().channel().lanes() {
        while !lane.queue.device_idle() {
            std::thread::yield_now();
        }
    }
}

/// Who makes the calls: a guest, or the host natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Guest,
    Native,
}

/// One call the host cost is counted per.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A blocking 1-byte `send`: the fixed per-request path alone.
    Send1B,
    /// A 64 KiB `send` to the card and a 64 KiB `recv` of its reply.
    SendRecv64K,
    /// One 4 MiB (`KMALLOC_MAX_SIZE`) `send_timed` chunk.
    Chunk4M,
    /// 16 MiB `vreadfrom` + `vwriteto`, real or timed GDDR; a guest's under its `RmaCharge`.
    Rma { timed: bool, charge: Option<RmaCharge> },
    /// A 16-entry batch, submit to reap (a guest's only).
    Batch16,
    /// `micnativeloadex` of `dgemm_sample(2048)` on 224 threads.
    Launch,
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Shape::Send1B => f.write_str("send 1 B"),
            Shape::SendRecv64K => f.write_str("send + recv 64 KiB"),
            Shape::Chunk4M => f.write_str("send_timed 4 MiB"),
            Shape::Rma { timed, charge } => {
                let window = if *timed { "timed" } else { "GDDR" };
                write!(f, "vreadfrom + vwriteto 16 MiB, {window} window")?;
                charge.map_or(Ok(()), |c| write!(f, ", {c:?}"))
            }
            Shape::Batch16 => f.write_str("batch of 16"),
            Shape::Launch => f.write_str("dgemm_sample(2048) launch"),
        }
    }
}

/// Every row of the golden, measured and tabled.
pub fn figure() -> Figure {
    let mut rows = Vec::new();
    for shape in [Shape::Send1B, Shape::SendRecv64K, Shape::Chunk4M] {
        rows.extend([(shape, Side::Guest), (shape, Side::Native)]);
    }
    for timed in [false, true] {
        rows.extend(RmaCharge::ALL.map(|c| (Shape::Rma { timed, charge: Some(c) }, Side::Guest)));
        rows.push((Shape::Rma { timed, charge: None }, Side::Native));
    }
    rows.push((Shape::Batch16, Side::Guest));
    rows.extend([(Shape::Launch, Side::Guest), (Shape::Launch, Side::Native)]);
    table(rows.into_iter().map(|(shape, side)| (shape, side, measure(shape, side))))
}

/// Counts of a shape, either side, not exact over 20 runs.  A launch's
/// card threads race its client: they allocate and signal beside it; a
/// `recv` that parks re-takes its queue lock (`MsgQueue` 15 to 17) and a
/// `recv_timed` parks or not; a `connect` that parks bumps debug-only
/// wait counters (RMWs 521 / 41 in debug, 519 / 39 in release +
/// `sync-audit`).
const WALL: &[(Shape, &str)] = &[
    (Shape::Launch, "acquisitions"),
    (Shape::Launch, BY_CLASS),
    (Shape::Launch, "RMWs"),
    (Shape::Launch, "allocs"),
    (Shape::Launch, "signals"),
];

const PAYLOAD: usize = 64 << 10;
/// Above `KMALLOC_MAX_SIZE`, so each [`RmaCharge`] takes its own arm.
const RMA: u64 = 16 << 20;
const BATCH: usize = 16;

/// Run `shape` on `side` in a fresh host: warm up, then count a window of
/// calls.
pub fn measure(shape: Shape, side: Side) -> HostCost {
    let host = VphiHost::new(1);
    let charge =
        if let Shape::Rma { charge: Some(c), .. } = shape { c } else { RmaCharge::default() };
    let vm = (side == Side::Guest).then(|| host.spawn_vm(VmConfig::builder().rma(charge).build()));
    let scope = Scope { vm: vm.as_ref() };
    let env: Arc<dyn CoiEnv> = match &vm {
        Some(vm) => Arc::new(GuestEnv::new(vm)),
        None => Arc::new(NativeEnv::new(&host)),
    };
    let cost = match (shape, &vm) {
        (Shape::Rma { timed, .. }, _) => rma(&host, &scope, timed),
        (Shape::Launch, _) => launch(&host, &scope, &env),
        (Shape::Batch16, Some(vm)) => batch(&host, vm, &scope),
        _ => message(&host, &scope, &env, shape),
    };
    vm.inspect(VphiVm::shutdown);
    cost
}

/// A client `connect`ed to a card endpoint the calling thread drives, with
/// `window` registered at offset 0, and that endpoint: no card-side thread
/// runs, and what the card is sent stays queued until the caller takes it.
fn card_peer<T>(
    host: &VphiHost,
    window: Option<(WindowBacking, u64)>,
    connect: impl FnOnce(ScifAddr) -> T,
) -> (T, ScifEndpoint) {
    let mut tl = Timeline::new();
    let listener = host.device_endpoint(0).expect("device endpoint");
    let port = listener.bind(Port::ANY, &mut tl).expect("bind");
    listener.listen(1, &mut tl).expect("listen");
    let accepting = std::thread::spawn(move || listener.accept(&mut Timeline::new()));
    let client = connect(ScifAddr::new(host.device_node(0), port));
    let card = accepting.join().expect("accept thread").expect("accept");
    if let Some((backing, len)) = window {
        card.register(Some(0), len, Prot::READ_WRITE, backing, &mut tl).expect("register");
    }
    (client, card)
}

fn guest_connect(vm: &VphiVm, at: ScifAddr) -> GuestScif {
    let guest = vm.open_scif(&mut Timeline::new()).expect("guest open");
    guest.connect(at, &mut Timeline::new()).expect("guest connect");
    guest
}

/// The 1-byte send, the 64 KiB round trip and the timed chunk.  Each
/// starts from one round trip, so the queues have grown to hold what its
/// window leaves in them.
fn message(host: &VphiHost, scope: &Scope<'_>, env: &Arc<dyn CoiEnv>, shape: Shape) -> HostCost {
    let (client, card) = card_peer(host, None, |at| {
        let client = env.open(&mut Timeline::new()).expect("open");
        client.connect(at, &mut Timeline::new()).expect("connect");
        client
    });
    let (data, mut out, tl) = (vec![7u8; PAYLOAD], vec![0u8; PAYLOAD], &mut Timeline::new());
    let mut round_trip = || {
        assert_eq!(client.send(&data, &mut *tl), Ok(PAYLOAD));
        assert_eq!(card.recv(&mut out, &mut *tl), Ok(PAYLOAD));
        assert_eq!(card.send(&data, &mut *tl), Ok(PAYLOAD));
        assert_eq!(client.recv(&mut out, &mut *tl), Ok(PAYLOAD));
        tl.clear();
    };
    round_trip();
    match shape {
        Shape::Send1B => scope.count(8, 200, || {
            assert_eq!(client.send(&[7], &mut Timeline::new()), Ok(1));
        }),
        Shape::SendRecv64K => scope.count(8, 50, round_trip),
        _ => scope.count(8, 200, || {
            assert_eq!(client.send_timed(4 << 20, &mut Timeline::new()), Ok(4 << 20));
        }),
    }
}

/// The batch, built before the window (`SqEntry::send` copies).  The reap
/// starts once the shard has completed it all, so it never waits (how long
/// a reaper spins or sleeps is the scheduler's), for one `LaneExecutor`
/// acquisition per lane; the card drains the batch.
fn batch(host: &VphiHost, vm: &VphiVm, scope: &Scope<'_>) -> HostCost {
    let tl = &mut Timeline::new();
    let window = (WindowBacking::Pinned(pinned_buf(4096)), 4096);
    let (guest, card) = card_peer(host, Some(window), |at| guest_connect(vm, at));
    let (rma_buf, data) = (vm.alloc_buf(4096).expect("guest buf"), vec![7u8; PAYLOAD]);
    let entry = |i: usize| match i % 3 {
        0 => SqEntry::send(&data[..1 << 10]),
        1 => SqEntry::vreadfrom(&rma_buf, 0, RmaFlags::SYNC),
        _ => SqEntry::send(&data),
    };
    let mut batches: Vec<Sq> = (0..28)
        .map(|_| {
            let mut sq = Sq::new();
            (0..BATCH).for_each(|i| sq.push(entry(i)));
            sq
        })
        .collect();
    let mut drained = vec![0u8; (0..BATCH).map(|i| [1 << 10, 0, PAYLOAD][i % 3]).sum()];
    let lanes = vm.frontend().channel().lanes();
    let completed = || lanes.iter().map(|l| l.queue.used_seq()).sum::<u64>();
    scope.count(8, 20, || {
        let (mut sq, mut cq) = (batches.pop().expect("a batch per call"), Cq::new());
        let done = completed() + BATCH as u64;
        cq.watch(&guest.submit(&mut sq, &mut *tl).expect("submit"));
        while completed() < done {
            std::thread::yield_now();
        }
        // A shard completes a request after pushing it used, under its
        // executor role: once the role is free, every token is done.
        lanes.iter().for_each(|l| drop(l.queue.executor.enter()));
        assert_eq!(guest.reap(&mut cq, BATCH, BATCH, &mut *tl), Ok(BATCH));
        assert!(cq.drain().iter().all(|e| e.result.is_ok()));
        assert_eq!(card.recv(&mut drained, &mut *tl), Ok(drained.len()));
        tl.clear();
    })
}

/// The RMA, against card 0's GDDR registered on a card endpoint the
/// calling thread holds.  One warm call fills the registration and
/// mapping caches.
fn rma(host: &VphiHost, scope: &Scope<'_>, timed: bool) -> HostCost {
    let gddr = host.board(0).memory();
    let region = if timed { gddr.alloc_timed(RMA) } else { gddr.alloc(RMA) }.expect("gddr");
    let window = Some((WindowBacking::Device(region), RMA));
    let (tl, sync) = (&mut Timeline::new(), RmaFlags::SYNC);
    if let Some(vm) = scope.vm {
        let (guest, _card) = card_peer(host, window, |at| guest_connect(vm, at));
        let buf = vm.alloc_buf(RMA).expect("guest buf");
        scope.count(1, 4, || {
            guest.vreadfrom(&buf, 0, sync, &mut *tl).expect("vreadfrom");
            guest.vwriteto(&buf, 0, sync, &mut *tl).expect("vwriteto");
            tl.clear();
        })
    } else {
        let (native, _card) = card_peer(host, window, |at| native_connect(host, at));
        let mut buf = vec![0u8; RMA as usize];
        scope.count(1, 4, || {
            native.vreadfrom(&mut buf, 0, sync, &mut *tl).expect("vreadfrom");
            native.vwriteto(&buf, 0, sync, &mut *tl).expect("vwriteto");
            tl.clear();
        })
    }
}

/// The launch, with the COI daemon up on card 0.
fn launch(host: &VphiHost, scope: &Scope<'_>, env: &Arc<dyn CoiEnv>) -> HostCost {
    let (_daemon, binary) =
        (CoiDaemon::spawn(host, 0).expect("COI daemon"), MicBinary::dgemm_sample(2048));
    scope.count(5, 20, || {
        let report = micnativeloadex(env, 0, &binary, 224).expect("launch");
        assert_eq!(report.exit_code, 0, "dgemm exited nonzero");
    })
}

/// Shape, side, each count some build compares, then [`BY_CLASS`].
fn columns() -> Vec<&'static str> {
    let compared = COUNTS.iter().filter(|(_, exact)| *exact != Exact::Never);
    ["shape", "side"].into_iter().chain(compared.map(|&(name, _)| name)).chain([BY_CLASS]).collect()
}

/// Table `rows` as the `host-cost` figure.  A count that is never exact,
/// or that `WALL` lists for the row's shape, is a wall reading (its
/// cell, if it has one, reads `"wall"`); without the audit, a count only
/// the audit counts reads `"-"`.
pub fn table(rows: impl IntoIterator<Item = (Shape, Side, HostCost)>) -> Figure {
    let title = "Host cost per call: allocations and signals process-wide, lock acquisitions \
                 and atomic RMWs on the calling thread";
    let mut fig = Figure::new("host-cost", title, &columns());
    for (shape, side, cost) in rows {
        let side = format!("{side:?}").to_lowercase();
        let mut cells = vec![Cell::Text(shape.to_string()), Cell::Text(side.clone())];
        // The cell of the count `name` that is `exact`, if it has a column.
        let mut cell = |name: &str, exact: Exact, value: Cell| match exact {
            Exact::Audited if !audit::ENABLED => Some(Cell::Text("-".to_string())),
            _ if exact == Exact::Never || WALL.contains(&(shape, name)) => {
                fig.wall(format!("{shape} {side} {name}"), value);
                (exact != Exact::Never).then(|| Cell::Text("wall".to_string()))
            }
            _ => Some(value),
        };
        for (&(name, exact), &total) in COUNTS.iter().zip(&cost.counts) {
            let per_call = total as f64 / cost.calls.max(1) as f64;
            cells.extend(cell(name, exact, Cell::Real(per_call, 2, "")));
        }
        // The classes taken, in class order: "MsgQueue 1, TimedLane 1".
        let classes = &cost.counts[COUNTS.len()..];
        let taken = LockClass::ALL.into_iter().filter(|c| classes[c.index()] > 0);
        let per_call = |c: LockClass| classes[c.index()] as f64 / cost.calls.max(1) as f64;
        let by_class = taken.map(|c| format!("{c:?} {}", per_call(c))).collect::<Vec<_>>();
        cells.extend(cell(BY_CLASS, Exact::Audited, Cell::Text(by_class.join(", "))));
        fig.row(cells);
    }
    fig
}

/// `json`, a list of `host-cost` records, as far as this build can
/// reproduce it: without the audit, each cell of a count only the audit
/// counts reads `"-"`.
pub fn comparable(json: &str) -> String {
    let audited = COUNTS.iter().filter(|(_, exact)| *exact == Exact::Audited);
    let audited: Vec<&str> = audited.map(|&(name, _)| name).chain([BY_CLASS]).collect();
    let columns = columns();
    let line = |line: &str| match line.strip_prefix("  [") {
        Some(row) if !audit::ENABLED => {
            let mut cells = split_cells(bracketed(line));
            for (cell, _) in cells.iter_mut().zip(&columns).filter(|(_, c)| audited.contains(c)) {
                *cell = "\"-\"";
            }
            format!("  [{}{}\n", cells.join(", "), &row[row.rfind(']').unwrap_or(0)..])
        }
        _ => format!("{line}\n"),
    };
    json.lines().map(line).collect()
}
