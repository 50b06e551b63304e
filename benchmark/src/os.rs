//! Process-level controls and readings: CPU pinning, resource usage and
//! `/proc/self/status`.
//!
//! Pinning is the harness's biggest noise lever: an unpinned 1-byte send
//! swings 8–20 µs of host time from one second to the next on a 2-CPU
//! sandbox (cross-CPU wake-ups).  std already links libc, so the three
//! calls are declared here instead of pulling in a crate.

use std::time::Duration;

/// Words of the kernel's default 1024-bit `cpu_set_t`.
const CPU_SET_WORDS: usize = 16;
const RUSAGE_SELF: i32 = 0;

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RawRusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity failed: {}", std::io::Error::last_os_error()));
    }
    Ok((0..CPU_SET_WORDS * 64).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect())
}

/// Where the process runs: the CPUs it pinned itself to, out of how many
/// it was allowed on before.
#[derive(Debug, Clone)]
pub struct Pinning {
    pub cpus: Vec<usize>,
    pub allowed: usize,
}

/// Pin the calling thread — and every thread it spawns afterwards — to
/// the first `want` CPUs it is allowed on.  Failure is a hard error: an
/// unpinned run measures the scheduler.
pub fn pin_to_first_cpus(want: usize) -> Result<Pinning, String> {
    let allowed = allowed_cpus()?;
    let chosen: Vec<usize> = allowed.iter().copied().take(want.max(1)).collect();
    if chosen.is_empty() {
        return Err("no CPU in the affinity mask".into());
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    for cpu in &chosen {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte size passed and
    // is only read; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()));
    }
    Ok(Pinning { cpus: chosen, allowed: allowed.len() })
}

/// Process-wide resource usage, including threads that already exited.
#[derive(Debug, Clone, Copy, Default)]
pub struct OsUsage {
    pub user: Duration,
    pub sys: Duration,
    pub minor_faults: u64,
    pub ctx_switches: u64,
}

impl OsUsage {
    pub fn snapshot() -> OsUsage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage`-shaped value
        // (layout pinned by `repr(C)` above).
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut raw) };
        if rc != 0 {
            return OsUsage::default();
        }
        let tv = |t: [i64; 2]| Duration::new(t[0].max(0) as u64, (t[1].max(0) as u32) * 1000);
        OsUsage {
            user: tv(raw.utime),
            sys: tv(raw.stime),
            minor_faults: raw.minflt.max(0) as u64,
            ctx_switches: (raw.nvcsw + raw.nivcsw).max(0) as u64,
        }
    }

    /// Usage accrued since `earlier`.
    pub fn since(&self, earlier: &OsUsage) -> OsUsage {
        OsUsage {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
        }
    }

    pub fn accumulate(&mut self, other: &OsUsage) {
        self.user += other.user;
        self.sys += other.sys;
        self.minor_faults += other.minor_faults;
        self.ctx_switches += other.ctx_switches;
    }
}

/// A numeric `/proc/self/status` field (`VmHWM` in KiB, `Threads`).
pub fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    proc_status_field("VmHWM").unwrap_or(0) as f64 / 1024.0
}
