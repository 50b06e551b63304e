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
//! `dgemm_sample(2048)` on 224 threads, each `CoiEnv` / `CoiTransport` call
//! timed by a wrapper (whose clock reads land in the rows they time): µs
//! per launch per call.  Then the launch rows of `host_cost.golden.json`,
//! measured on launches of their own (`vphi_bench::host_cost`).

use std::sync::Arc;
use std::time::Instant;

use vphi::builder::{VmConfig, VphiHost};
use vphi_bench::host_cost::{self, measure, Shape, Side as HostSide};
use vphi_bench::support::render_table;
use vphi_coi::transport::{CoiEnv, CoiListener, CoiTransport};
use vphi_coi::{CoiDaemon, GuestEnv, NativeEnv};
use vphi_mic_tools::{micnativeloadex, MicBinary};
use vphi_scif::{NodeId, Port, ScifResult};
use vphi_sim_core::Timeline;
use vphi_sync::Counter;

/// Every call a COI client can make, in the order the table prints them,
/// and the whole launch.
const CALLS: [&str; 11] = [
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
    inner: Box<dyn CoiTransport>,
    ledger: Arc<Ledger>,
}

impl CoiTransport for TimedTransport {
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
    fn connect(
        &self,
        node: NodeId,
        port: Port,
        tl: &mut Timeline,
    ) -> ScifResult<Box<dyn CoiTransport>> {
        let inner = self.ledger.time("connect", || self.inner.connect(node, port, tl))?;
        Ok(Box::new(TimedTransport { inner, ledger: Arc::clone(&self.ledger) }))
    }

    fn listen(&self, port: Port, tl: &mut Timeline) -> ScifResult<Box<dyn CoiListener>> {
        self.ledger.time("listen", || self.inner.listen(port, tl))
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

    for round in 0..warmup + launches {
        for (env, ledger) in &sides {
            if round == warmup {
                ledger.reset();
            }
            let report = ledger.time("whole launch", || micnativeloadex(env, 0, &binary, 224));
            assert_eq!(report.expect("launch").exit_code, 0, "dgemm exited nonzero");
        }
    }
    vm.shutdown();
    daemon.shutdown();

    let per_launch = |n: &Counter| n.get() as f64 / launches as f64;
    let [(_, guest), (_, native)] = &sides;
    let rows: Vec<Vec<String>> = (0..CALLS.len())
        .filter(|&i| guest.calls[i].get() + native.calls[i].get() > 0)
        .map(|i| {
            let calls =
                format!("{:.1} / {:.1}", per_launch(&guest.calls[i]), per_launch(&native.calls[i]));
            let us = |ledger: &Ledger| format!("{:.2}", per_launch(&ledger.ns[i]) / 1e3);
            vec![CALLS[i].to_string(), calls, us(guest), us(native)]
        })
        .collect();
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
    let costs = [HostSide::Guest, HostSide::Native]
        .map(|side| (Shape::Launch, side, measure(Shape::Launch, side)));
    print!("{}", host_cost::table(costs));
}
