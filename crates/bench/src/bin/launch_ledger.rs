//! `launch_ledger` — one `micnativeloadex` by call: where a launch's host
//! time goes, guest beside native.
//!
//! ```text
//! launch_ledger [--launches N] [--warmup W]
//! taskset -c 0 target/release/launch_ledger --launches 3000
//! ```
//!
//! With the COI daemon up, runs `W` warm-up pairs (default 50) and then `N`
//! (default 1,000) alternating guest / native launches of
//! `dgemm_sample(2048)` on 224 threads.  Every `CoiEnv` / `CoiTransport`
//! call the tool makes goes through a wrapper that times it, so the table
//! is µs per launch per call for each side — the wrappers' own clock reads
//! land in the rows they time.  Below it: the whole launch, the board
//! doorbells rung per launch, the calling thread's voluntary and
//! involuntary context switches per launch (`/proc/thread-self/status`),
//! and — in builds with the lock-order audit (debug, or `--features
//! vphi-sync/sync-audit`) — the condvar signals sent process-wide between
//! a launch's start and end, and the tracked lock acquisitions and atomic
//! read-modify-writes the calling thread made per launch.

use std::sync::Arc;
use std::time::Instant;

use vphi::builder::{VmConfig, VphiHost};
use vphi_bench::support::render_table;
use vphi_coi::transport::{CoiEnv, CoiListener, CoiTransport};
use vphi_coi::{CoiDaemon, GuestEnv, NativeEnv};
use vphi_mic_tools::{micnativeloadex, MicBinary};
use vphi_scif::{NodeId, Port, ScifResult};
use vphi_sim_core::Timeline;
use vphi_sync::Counter;

/// Every call a COI client can make, in the order the table prints them.
#[derive(Clone, Copy)]
enum Call {
    SendTimed,
    Connect,
    Recv,
    Close,
    Send,
    CardUsable,
    DeviceCount,
    RecvTimed,
    Listen,
    Label,
}

/// The table's row names, indexed by [`Call`].
const CALLS: [&str; 10] = [
    "send_timed",
    "connect",
    "recv",
    "close",
    "send",
    "card_usable",
    "device_count",
    "recv_timed",
    "listen",
    "label",
];

/// Calls made and nanoseconds spent, per entry of [`CALLS`].
struct Ledger {
    calls: [Counter; CALLS.len()],
    ns: [Counter; CALLS.len()],
}

impl Ledger {
    fn new() -> Arc<Self> {
        Arc::new(Ledger {
            calls: std::array::from_fn(|_| Counter::new(0)),
            ns: std::array::from_fn(|_| Counter::new(0)),
        })
    }

    fn time<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.ns[call as usize].add(start.elapsed().as_nanos() as u64);
        self.calls[call as usize].bump();
        out
    }

    fn reset(&self) {
        self.calls.iter().chain(&self.ns).for_each(Counter::reset);
    }
}

struct TimedTransport {
    inner: Box<dyn CoiTransport>,
    ledger: Arc<Ledger>,
}

impl CoiTransport for TimedTransport {
    fn send(&self, data: &[u8], tl: &mut Timeline) -> ScifResult<usize> {
        self.ledger.time(Call::Send, || self.inner.send(data, tl))
    }

    fn recv(&self, out: &mut [u8], tl: &mut Timeline) -> ScifResult<usize> {
        self.ledger.time(Call::Recv, || self.inner.recv(out, tl))
    }

    fn send_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        self.ledger.time(Call::SendTimed, || self.inner.send_timed(len, tl))
    }

    fn recv_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        self.ledger.time(Call::RecvTimed, || self.inner.recv_timed(len, tl))
    }

    fn close(&self) {
        self.ledger.time(Call::Close, || self.inner.close())
    }
}

struct TimedEnv {
    inner: Arc<dyn CoiEnv>,
    ledger: Arc<Ledger>,
}

impl CoiEnv for TimedEnv {
    fn connect(
        &self,
        node: NodeId,
        port: Port,
        tl: &mut Timeline,
    ) -> ScifResult<Box<dyn CoiTransport>> {
        let inner = self.ledger.time(Call::Connect, || self.inner.connect(node, port, tl))?;
        Ok(Box::new(TimedTransport { inner, ledger: Arc::clone(&self.ledger) }))
    }

    fn listen(&self, port: Port, tl: &mut Timeline) -> ScifResult<Box<dyn CoiListener>> {
        self.ledger.time(Call::Listen, || self.inner.listen(port, tl))
    }

    fn device_count(&self) -> usize {
        self.ledger.time(Call::DeviceCount, || self.inner.device_count())
    }

    fn card_usable(&self, mic: u32, tl: &mut Timeline) -> bool {
        self.ledger.time(Call::CardUsable, || self.inner.card_usable(mic, tl))
    }

    fn label(&self) -> String {
        self.ledger.time(Call::Label, || self.inner.label())
    }
}

/// What the calling thread has done so far that a launch adds to:
/// `[acquisitions, RMWs, voluntary, involuntary context switches]`.  The
/// first two read zero in builds without the audit, the last two when
/// `/proc` is not there.
fn thread_tally() -> [u64; 4] {
    let acquisitions = vphi_sync::audit::thread_acquisitions().iter().sum();
    let (voluntary, involuntary) = context_switches().unwrap_or_default();
    [acquisitions, vphi_sync::audit::thread_rmws(), voluntary, involuntary]
}

/// The calling thread's `(voluntary, involuntary)` context switches.
fn context_switches() -> Option<(u64, u64)> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let field = |name: &str| {
        status.lines().find_map(|l| l.strip_prefix(name)).and_then(|v| v.trim().parse().ok())
    };
    Some((field("voluntary_ctxt_switches:")?, field("nonvoluntary_ctxt_switches:")?))
}

/// One side of the comparison and what its measured launches added up to.
struct Side {
    env: Arc<dyn CoiEnv>,
    ledger: Arc<Ledger>,
    launch_ns: u64,
    rings: u64,
    signals: u64,
    /// [`thread_tally`] summed over the measured launches.
    thread: [u64; 4],
}

impl Side {
    fn new(inner: Arc<dyn CoiEnv>) -> Self {
        let ledger = Ledger::new();
        let env = Arc::new(TimedEnv { inner, ledger: Arc::clone(&ledger) });
        Side { env, ledger, launch_ns: 0, rings: 0, signals: 0, thread: [0; 4] }
    }
}

fn arg(args: &[String], flag: &str, default: u64) -> u64 {
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} takes a number");
            std::process::exit(2)
        }),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let launches = arg(&args, "--launches", 1_000).max(1);
    let warmup = arg(&args, "--warmup", 50);

    let host = VphiHost::new(1);
    let daemon = CoiDaemon::spawn(&host, 0).expect("COI daemon");
    let vm = host.spawn_vm(VmConfig::default());
    let board = host.board(0);
    let rings = || board.db_to_device.pending() + board.db_to_host.pending();
    let mut sides =
        [Side::new(Arc::new(GuestEnv::new(&vm))), Side::new(Arc::new(NativeEnv::new(&host)))];
    let binary = MicBinary::dgemm_sample(2048);

    for round in 0..warmup + launches {
        for side in &mut sides {
            if round == warmup {
                side.ledger.reset();
            }
            let (rings_before, signals_before) = (rings(), vphi_sync::audit::stats().signals);
            let thread_before = thread_tally();
            let start = Instant::now();
            let report = micnativeloadex(&side.env, 0, &binary, 224).expect("launch");
            let ns = start.elapsed().as_nanos() as u64;
            let thread_after = thread_tally();
            assert_eq!(report.exit_code, 0, "dgemm exited nonzero");
            if round >= warmup {
                side.launch_ns += ns;
                side.rings += rings() - rings_before;
                side.signals += vphi_sync::audit::stats().signals - signals_before;
                for (sum, (after, before)) in
                    side.thread.iter_mut().zip(thread_after.iter().zip(thread_before))
                {
                    *sum += after - before;
                }
            }
        }
    }
    vm.shutdown();
    daemon.shutdown();

    let per_launch = |n: u64| n as f64 / launches as f64;
    let us = |ns: u64| format!("{:.2}", per_launch(ns) / 1e3);
    let [guest, native] = &sides;
    let mut rows: Vec<Vec<String>> = (0..CALLS.len())
        .filter(|&i| guest.ledger.calls[i].get() + native.ledger.calls[i].get() > 0)
        .map(|i| {
            vec![
                CALLS[i].to_string(),
                format!(
                    "{:.1} / {:.1}",
                    per_launch(guest.ledger.calls[i].get()),
                    per_launch(native.ledger.calls[i].get())
                ),
                us(guest.ledger.ns[i].get()),
                us(native.ledger.ns[i].get()),
            ]
        })
        .collect();
    rows.push(vec![
        "whole launch".to_string(),
        String::new(),
        us(guest.launch_ns),
        us(native.launch_ns),
    ]);
    println!(
        "{}",
        render_table(
            &format!(
                "LAUNCH LEDGER — micnativeloadex(dgemm_sample(2048)), {launches} launches per \
                 side after {warmup} warm-up pairs, µs per launch"
            ),
            &["call", "calls (guest / native)", "guest", "native"],
            &rows,
        )
    );
    println!(
        "board doorbells rung per launch: {:.1} guest / {:.1} native",
        per_launch(guest.rings),
        per_launch(native.rings)
    );
    let [g, n] = [guest.thread, native.thread].map(|t| t.map(per_launch));
    if context_switches().is_some() {
        println!(
            "context switches per launch (calling thread): {:.1} voluntary, {:.1} involuntary \
             guest / {:.1} voluntary, {:.1} involuntary native",
            g[2], g[3], n[2], n[3]
        );
    } else {
        println!("context switches: not counted here (no /proc/thread-self/status)");
    }
    if vphi_sync::audit::ENABLED {
        println!(
            "condvar signals per launch (process-wide): {:.1} guest / {:.1} native",
            per_launch(guest.signals),
            per_launch(native.signals)
        );
        println!(
            "tracked lock acquisitions per launch (calling thread): {:.1} guest / {:.1} native",
            g[0], n[0]
        );
        println!("atomic RMWs per launch (calling thread): {:.1} guest / {:.1} native", g[1], n[1]);
    } else {
        println!(
            "condvar signals, lock acquisitions and atomic RMWs: not counted in this build \
             (debug or sync-audit counts them)"
        );
    }
}
