//! Deterministic fault injection for the vPHI stack.
//!
//! The production stack the paper describes had to survive real failure
//! modes — guests dying mid-RMA, lost kicks and MSIs, card lockups requiring a reset while other VMs keep running.  The
//! simulation exercises those paths through this crate: a [`FaultPlan`]
//! (seed + schedule of [`FaultPoint`]s) is *armed* onto the [`FaultHook`]s
//! embedded at each injection site, and every chaos run is then exactly
//! reproducible from the plan alone.
//!
//! Determinism does **not** come from wall time or thread scheduling.  A
//! fault fires when its site's *crossing counter* — an atomic bumped once
//! per traversal of the instrumented code path — reaches the `nth` value
//! the plan assigned.  Two runs with the same seed therefore produce the
//! same `encode()` bytes and the same per-site firing schedule, no matter
//! how the OS interleaves threads.
//!
//! When no plan is armed a [`FaultHook::fire`] is a single atomic load of
//! an unset `OnceLock` — effectively free, so the hooks stay compiled into
//! production paths.

use std::sync::{Arc, OnceLock};

use vphi_sim_core::SplitMix64;
use vphi_sync::{Counter, Flag};

/// Number of distinct injection sites across the stack.
pub const SITE_COUNT: usize = 9;

/// Where in the stack a fault strikes.  Each variant maps to exactly one
/// instrumented code path (see DESIGN.md #13 for the full map).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum FaultSite {
    /// PCIe link retrain: the transaction stalls for `param` microseconds.
    PcieRetrainStall = 0,
    /// DMA transfer error on the link: the RMA fails with a retryable error.
    PcieDmaError = 1,
    /// A completion MSI is lost between backend and guest: the guest's
    /// watchdog finds the reply one period later.
    PcieMsiLost = 2,
    /// A device core locks up: the board goes to `Failed` until reset.
    PhiCoreLockup = 3,
    /// Uncorrectable ECC error in device memory: the transfer fails with
    /// `EIO`, and the board stays online.
    PhiEccError = 4,
    /// The card's uOS panics: the board goes to `Failed` until reset.
    PhiUosPanic = 5,
    /// A virtqueue kick never reaches the backend: the guest's watchdog
    /// kicks again one period later.
    VirtioKickLost = 6,
    /// The used-ring completion is delayed by `param` microseconds.
    VirtioUsedDelay = 7,
    /// The guest dies abruptly mid-request.
    VmmGuestDeath = 8,
}

impl FaultSite {
    /// Every site, in wire order.
    pub const ALL: [FaultSite; SITE_COUNT] = [
        FaultSite::PcieRetrainStall,
        FaultSite::PcieDmaError,
        FaultSite::PcieMsiLost,
        FaultSite::PhiCoreLockup,
        FaultSite::PhiEccError,
        FaultSite::PhiUosPanic,
        FaultSite::VirtioKickLost,
        FaultSite::VirtioUsedDelay,
        FaultSite::VmmGuestDeath,
    ];

    pub fn name(self) -> &'static str {
        match self {
            FaultSite::PcieRetrainStall => "pcie-retrain-stall",
            FaultSite::PcieDmaError => "pcie-dma-error",
            FaultSite::PcieMsiLost => "pcie-msi-lost",
            FaultSite::PhiCoreLockup => "phi-core-lockup",
            FaultSite::PhiEccError => "phi-ecc-error",
            FaultSite::PhiUosPanic => "phi-uos-panic",
            FaultSite::VirtioKickLost => "virtio-kick-lost",
            FaultSite::VirtioUsedDelay => "virtio-used-delay",
            FaultSite::VmmGuestDeath => "vmm-guest-death",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Whether `param` carries a duration in microseconds for this site.
    fn takes_param(self) -> bool {
        matches!(self, FaultSite::PcieRetrainStall | FaultSite::VirtioUsedDelay)
    }
}

/// One scheduled fault: strike `site` on its `nth` crossing (1-based),
/// with a site-specific `param` (µs for stall/delay sites, 0 otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPoint {
    pub site: FaultSite,
    pub nth: u64,
    pub param: u64,
}

/// A complete, reproducible fault schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    pub seed: u64,
    pub points: Vec<FaultPoint>,
}

impl FaultPlan {
    /// Derive `n_points` faults from `seed`.  The same seed always yields
    /// a byte-identical [`encode`](Self::encode) output.
    pub fn from_seed(seed: u64, n_points: usize) -> Self {
        let mut rng = SplitMix64::new(seed);
        let points = (0..n_points)
            .map(|_| {
                let site = FaultSite::ALL[rng.next_below(SITE_COUNT as u64) as usize];
                let nth = 1 + rng.next_below(6);
                let param = if site.takes_param() { 50 + rng.next_below(450) } else { 0 };
                FaultPoint { site, nth, param }
            })
            .collect();
        FaultPlan { seed, points }
    }

    /// A plan with exactly one fault — handy for targeted tests.
    pub fn single(site: FaultSite, nth: u64, param: u64) -> Self {
        FaultPlan { seed: 0, points: vec![FaultPoint { site, nth, param }] }
    }

    /// Canonical byte encoding: `seed` then `(site, nth, param)` per point.
    /// Chaos tests pin "same seed ⇒ byte-identical schedule" on this.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.points.len() * 17);
        out.extend_from_slice(&self.seed.to_le_bytes());
        for p in &self.points {
            out.push(p.site as u8);
            out.extend_from_slice(&p.nth.to_le_bytes());
            out.extend_from_slice(&p.param.to_le_bytes());
        }
        out
    }
}

/// An armed plan: immutable per-site schedules plus the live counters.
///
/// Lock-free by construction — the schedule is read-only after `new`, and
/// all mutation goes through atomics, so `crossing` is safe to call from
/// any thread including backend workers holding tracked locks.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per site: sorted, nth-deduplicated `(nth, param)` pairs.
    schedule: [Vec<(u64, u64)>; SITE_COUNT],
    crossings: [Counter; SITE_COUNT],
    fired: [Counter; SITE_COUNT],
    defused: Flag,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> Self {
        let mut schedule: [Vec<(u64, u64)>; SITE_COUNT] = Default::default();
        for p in &plan.points {
            schedule[p.site.index()].push((p.nth, p.param));
        }
        for s in &mut schedule {
            s.sort_unstable();
            s.dedup_by_key(|&mut (nth, _)| nth);
        }
        FaultInjector {
            plan,
            schedule,
            crossings: Default::default(),
            fired: Default::default(),
            defused: Flag::new(false),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Record one traversal of `site`'s instrumented path.  Returns
    /// `Some(param)` if the plan schedules a fault on this crossing.
    pub fn crossing(&self, site: FaultSite) -> Option<u64> {
        let i = site.index();
        let nth = self.crossings[i].next() + 1;
        if self.defused.get() {
            return None;
        }
        let param = self.schedule[i]
            .binary_search_by_key(&nth, |&(n, _)| n)
            .ok()
            .map(|at| self.schedule[i][at].1)?;
        self.fired[i].bump();
        Some(param)
    }

    /// Permanently stop firing (crossings keep counting).  A `OnceLock`ed
    /// hook cannot be disarmed, so chaos tests defuse the injector instead
    /// before running their clean bystander phase.
    pub fn defuse(&self) {
        self.defused.set();
    }

    pub fn crossings_at(&self, site: FaultSite) -> u64 {
        self.crossings[site.index()].get()
    }

    pub fn fired_at(&self, site: FaultSite) -> u64 {
        self.fired[site.index()].get()
    }

    pub fn fired_total(&self) -> u64 {
        self.fired.iter().map(|fired| fired.get()).sum()
    }
}

/// The per-site arming point embedded in production structs.
///
/// Disarmed (the default, and the only state outside chaos runs) the hook
/// is a single relaxed atomic load — the `OnceLock` fast path — so the
/// instrumented code costs nothing measurable in steady state.
#[derive(Debug, Default)]
pub struct FaultHook {
    slot: OnceLock<Arc<FaultInjector>>,
}

impl FaultHook {
    pub const fn new() -> Self {
        FaultHook { slot: OnceLock::new() }
    }

    /// Arm this hook.  Returns `false` if it was already armed (the first
    /// plan wins; re-arming requires a fresh stack).
    pub fn arm(&self, injector: Arc<FaultInjector>) -> bool {
        self.slot.set(injector).is_ok()
    }

    pub fn armed(&self) -> bool {
        self.slot.get().is_some()
    }

    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.slot.get()
    }

    /// The injection-site call: count a crossing and report whether a
    /// fault strikes here, with its parameter.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> Option<u64> {
        match self.slot.get() {
            None => None,
            Some(inj) => inj.crossing(site),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_is_byte_identical() {
        let a = FaultPlan::from_seed(0xD00D, 16);
        let b = FaultPlan::from_seed(0xD00D, 16);
        assert_eq!(a, b);
        assert_eq!(a.encode(), b.encode());
        assert_ne!(a.encode(), FaultPlan::from_seed(0xD00E, 16).encode());
    }

    #[test]
    fn params_only_on_duration_sites() {
        let plan = FaultPlan::from_seed(7, 200);
        for p in &plan.points {
            if p.site.takes_param() {
                assert!((50..500).contains(&p.param), "{p:?}");
            } else {
                assert_eq!(p.param, 0, "{p:?}");
            }
            assert!((1..=6).contains(&p.nth), "{p:?}");
        }
        // 200 draws over 9 sites should cover every site.
        for site in FaultSite::ALL {
            assert!(plan.points.iter().any(|p| p.site == site), "missing {}", site.name());
        }
    }

    #[test]
    fn fires_on_the_nth_crossing_only() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            points: vec![
                FaultPoint { site: FaultSite::PcieDmaError, nth: 3, param: 0 },
                FaultPoint { site: FaultSite::VirtioUsedDelay, nth: 1, param: 99 },
            ],
        });
        assert_eq!(inj.crossing(FaultSite::PcieDmaError), None);
        assert_eq!(inj.crossing(FaultSite::PcieDmaError), None);
        assert_eq!(inj.crossing(FaultSite::PcieDmaError), Some(0));
        assert_eq!(inj.crossing(FaultSite::PcieDmaError), None);
        assert_eq!(inj.crossing(FaultSite::VirtioUsedDelay), Some(99));
        assert_eq!(inj.fired_at(FaultSite::PcieDmaError), 1);
        assert_eq!(inj.crossings_at(FaultSite::PcieDmaError), 4);
        assert_eq!(inj.fired_total(), 2);
        // Other sites never fire.
        assert_eq!(inj.crossing(FaultSite::VmmGuestDeath), None);
    }

    #[test]
    fn defuse_stops_firing_but_keeps_counting() {
        let inj = FaultInjector::new(FaultPlan::single(FaultSite::PcieMsiLost, 2, 0));
        assert_eq!(inj.crossing(FaultSite::PcieMsiLost), None);
        inj.defuse();
        assert_eq!(inj.crossing(FaultSite::PcieMsiLost), None);
        assert_eq!(inj.crossings_at(FaultSite::PcieMsiLost), 2);
        assert_eq!(inj.fired_total(), 0);
    }

    #[test]
    fn disarmed_hook_is_inert_and_arms_once() {
        let hook = FaultHook::new();
        assert!(!hook.armed());
        assert_eq!(hook.fire(FaultSite::VmmGuestDeath), None);
        let first = Arc::new(FaultInjector::new(FaultPlan::single(FaultSite::VmmGuestDeath, 1, 0)));
        assert!(hook.arm(Arc::clone(&first)));
        let second = Arc::new(FaultInjector::new(FaultPlan::from_seed(1, 4)));
        assert!(!hook.arm(second), "second arm must lose");
        assert_eq!(hook.fire(FaultSite::VmmGuestDeath), Some(0));
        assert_eq!(first.fired_total(), 1);
    }

    #[test]
    fn duplicate_nth_keeps_one_firing() {
        let inj = FaultInjector::new(FaultPlan {
            seed: 0,
            points: vec![
                FaultPoint { site: FaultSite::PhiEccError, nth: 2, param: 0 },
                FaultPoint { site: FaultSite::PhiEccError, nth: 2, param: 7 },
            ],
        });
        assert_eq!(inj.crossing(FaultSite::PhiEccError), None);
        assert!(inj.crossing(FaultSite::PhiEccError).is_some());
        assert_eq!(inj.fired_total(), 1);
    }
}
