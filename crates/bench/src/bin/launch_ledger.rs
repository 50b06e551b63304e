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
//! `dgemm_sample(2048)` on 224 threads, each `CoiEnv` / `Scif` call
//! timed by a wrapper (whose clock reads land in the rows they time): µs
//! per launch per call, and the guest's excess over native.  Below the
//! table, that excess for the whole launch divided by the requests the
//! guest sent its device per launch: the guest-only host time of one
//! request.  Then the launch rows of `host_cost.golden.json`, measured on
//! launches of their own (`vphi_bench::host_cost`).  A wall reading: run
//! it pinned (`taskset -c 0`) and compare runs, not numbers.

use std::sync::Arc;
use std::time::Instant;

use vphi::builder::{VmConfig, VphiHost};
use vphi_bench::host_cost::{self, measure, Shape, Side as HostSide};
use vphi_bench::support::render_table;
use vphi_coi::transport::CoiEnv;
use vphi_coi::{CoiDaemon, GuestEnv, NativeEnv};
use vphi_mic_tools::{micnativeloadex, MicBinary};
use vphi_scif::{Port, Scif, ScifAddr, ScifResult};
use vphi_sim_core::Timeline;
use vphi_sync::Counter;

/// Every call a COI client can make, in the order the table prints them,
/// and the whole launch.
const CALLS: [&str; 14] = [
    "send_timed",
    "connect",
    "recv",
    "close",
    "send",
    "card_usable",
    "device_count",
    "open",
    "recv_timed",
    "bind",
    "listen",
    "accept",
    "label",
    "whole launch",
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

    fn time<R>(&self, call: &str, f: impl FnOnce() -> R) -> R {
        let i = CALLS.iter().position(|&c| c == call).expect("a listed call");
        let start = Instant::now();
        let out = f();
        self.ns[i].add(start.elapsed().as_nanos() as u64);
        self.calls[i].bump();
        out
    }

    fn reset(&self) {
        self.calls.iter().chain(&self.ns).for_each(Counter::reset);
    }
}

struct TimedTransport {
    inner: Box<dyn Scif>,
    ledger: Arc<Ledger>,
}

impl TimedTransport {
    fn boxed(inner: Box<dyn Scif>, ledger: &Arc<Ledger>) -> Box<dyn Scif> {
        Box::new(TimedTransport { inner, ledger: Arc::clone(ledger) })
    }
}

impl Scif for TimedTransport {
    fn bind(&self, port: Port, tl: &mut Timeline) -> ScifResult<Port> {
        self.ledger.time("bind", || self.inner.bind(port, tl))
    }

    fn listen(&self, backlog: usize, tl: &mut Timeline) -> ScifResult<()> {
        self.ledger.time("listen", || self.inner.listen(backlog, tl))
    }

    fn connect(&self, dst: ScifAddr, tl: &mut Timeline) -> ScifResult<ScifAddr> {
        self.ledger.time("connect", || self.inner.connect(dst, tl))
    }

    fn accept(&self, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>> {
        let inner = self.ledger.time("accept", || self.inner.accept(tl))?;
        Ok(TimedTransport::boxed(inner, &self.ledger))
    }

    fn send(&self, data: &[u8], tl: &mut Timeline) -> ScifResult<usize> {
        self.ledger.time("send", || self.inner.send(data, tl))
    }

    fn recv(&self, out: &mut [u8], tl: &mut Timeline) -> ScifResult<usize> {
        self.ledger.time("recv", || self.inner.recv(out, tl))
    }

    fn send_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        self.ledger.time("send_timed", || self.inner.send_timed(len, tl))
    }

    fn recv_timed(&self, len: u64, tl: &mut Timeline) -> ScifResult<u64> {
        self.ledger.time("recv_timed", || self.inner.recv_timed(len, tl))
    }

    fn close(&self) {
        self.ledger.time("close", || self.inner.close())
    }
}

struct TimedEnv {
    inner: Arc<dyn CoiEnv>,
    ledger: Arc<Ledger>,
}

impl CoiEnv for TimedEnv {
    fn open(&self, tl: &mut Timeline) -> ScifResult<Box<dyn Scif>> {
        let inner = self.ledger.time("open", || self.inner.open(tl))?;
        Ok(TimedTransport::boxed(inner, &self.ledger))
    }

    fn device_count(&self) -> usize {
        self.ledger.time("device_count", || self.inner.device_count())
    }

    fn card_usable(&self, mic: u32, tl: &mut Timeline) -> bool {
        self.ledger.time("card_usable", || self.inner.card_usable(mic, tl))
    }

    fn label(&self) -> String {
        self.ledger.time("label", || self.inner.label())
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
    let sides = [Arc::new(GuestEnv::new(&vm)) as Arc<dyn CoiEnv>, Arc::new(NativeEnv::new(&host))]
        .map(|inner| {
            let ledger = Ledger::new();
            (Arc::new(TimedEnv { inner, ledger: Arc::clone(&ledger) }) as Arc<dyn CoiEnv>, ledger)
        });
    let binary = MicBinary::dgemm_sample(2048);

    let mut requests_before = 0;
    for round in 0..warmup + launches {
        if round == warmup {
            requests_before = vm.frontend().stats().requests;
        }
        for (env, ledger) in &sides {
            if round == warmup {
                ledger.reset();
            }
            let report = ledger.time("whole launch", || micnativeloadex(env, 0, &binary, 224));
            assert_eq!(report.expect("launch").exit_code, 0, "dgemm exited nonzero");
        }
    }
    let requests = (vm.frontend().stats().requests - requests_before) as f64 / launches as f64;
    vm.shutdown();
    daemon.shutdown();

    let per_launch = |n: &Counter| n.get() as f64 / launches as f64;
    let [(_, guest), (_, native)] = &sides;
    let rows: Vec<Vec<String>> = (0..CALLS.len())
        .filter(|&i| guest.calls[i].get() + native.calls[i].get() > 0)
        .map(|i| {
            let calls =
                format!("{:.1} / {:.1}", per_launch(&guest.calls[i]), per_launch(&native.calls[i]));
            let us = |ledger: &Ledger| per_launch(&ledger.ns[i]) / 1e3;
            let (g, n) = (us(guest), us(native));
            vec![
                CALLS[i].to_string(),
                calls,
                format!("{g:.2}"),
                format!("{n:.2}"),
                format!("{:.2}", g - n),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!(
                "LAUNCH LEDGER — micnativeloadex(dgemm_sample(2048)), {launches} launches per \
                 side after {warmup} warm-up pairs, µs per launch"
            ),
            &["call", "calls (guest / native)", "guest", "native", "guest − native"],
            &rows,
        )
    );
    let whole = CALLS.len() - 1;
    let gap_us = (per_launch(&guest.ns[whole]) - per_launch(&native.ns[whole])) / 1e3;
    println!(
        "guest-only µs per guest request: {:.3} ({gap_us:.2} µs over {requests:.1} requests per launch)\n",
        gap_us / requests
    );
    let costs = [HostSide::Guest, HostSide::Native]
        .map(|side| (Shape::Launch, side, measure(Shape::Launch, side)));
    print!("{}", host_cost::table(costs));
}
