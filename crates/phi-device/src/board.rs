//! The assembled coprocessor board.

use std::sync::Arc;

use vphi_faults::{FaultHook, FaultSite};
use vphi_pcie::{DmaEngine, PcieLink};
use vphi_sim_core::{CostModel, SimDuration};
use vphi_sync::{Counter, LockClass, Published, TrackedMutex};

use crate::memory::DeviceMemory;
use crate::spec::PhiSpec;
use crate::sysfs::SysfsInfo;
use crate::uos::UosScheduler;

/// Boot state, mirroring the MPSS `state` sysfs attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum BoardState {
    Offline,
    Booting,
    Online,
    /// The card hit a fatal fault (core lockup, uOS panic) and needs a
    /// reset; mirrors MPSS "lost"/"failed" states.
    Failed,
}

impl BoardState {
    const ALL: [BoardState; 4] =
        [BoardState::Offline, BoardState::Booting, BoardState::Online, BoardState::Failed];

    pub fn as_str(self) -> &'static str {
        match self {
            BoardState::Offline => "offline",
            BoardState::Booting => "booting",
            BoardState::Online => "online",
            BoardState::Failed => "failed",
        }
    }
}

/// A fatal board-level fault observed by [`PhiBoard::poll_faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhiFault {
    /// A device core stopped retiring instructions.
    CoreLockup,
    /// The card's embedded Linux panicked.
    UosPanic,
}

/// One Xeon Phi card plugged into the host: spec, GDDR, DMA engine on a
/// PCIe link, and the uOS scheduler once booted.  It has no doorbell or
/// MSI object: a SCIF message's doorbell write is part of its `ScifPost`
/// charge, an interrupt is the raiser's `IrqInject` charge, and every
/// receiver sleeps on what it waits for (DESIGN.md #22).
pub struct PhiBoard {
    spec: PhiSpec,
    /// Transitions are made under this lock ([`set_state`](Self::set_state)).
    state: TrackedMutex<BoardState>,
    /// The state as of the last transition: what [`state`](Self::state)
    /// reads, lock-free — the fabric checks it on every message.
    state_word: Published,
    memory: Arc<DeviceMemory>,
    link: Arc<PcieLink>,
    dma: Arc<DmaEngine>,
    uos: Arc<UosScheduler>,
    sysfs: TrackedMutex<SysfsInfo>,
    mic_index: u32,
    faults: FaultHook,
    resets: Counter,
}

impl std::fmt::Debug for PhiBoard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhiBoard")
            .field("spec", &self.spec.model)
            .field("state", &self.state())
            .field("mic_index", &self.mic_index)
            .finish()
    }
}

impl PhiBoard {
    /// Plug a card in (state: offline).  `mic_index` is its `/dev/mic`
    /// slot number.
    pub fn new(spec: PhiSpec, mic_index: u32, cost: Arc<CostModel>) -> Self {
        let link = Arc::new(PcieLink::new(Arc::clone(&cost)));
        let dma = Arc::new(DmaEngine::new(Arc::clone(&link), spec.dma_channels));
        let memory = Arc::new(DeviceMemory::new(spec.memory_bytes));
        let uos = Arc::new(UosScheduler::new(spec.clone(), cost));
        let sysfs = TrackedMutex::new(
            LockClass::BoardSysfs,
            SysfsInfo::from_spec(&spec, mic_index, "offline"),
        );
        PhiBoard {
            spec,
            state: TrackedMutex::new(LockClass::BoardState, BoardState::Offline),
            state_word: Published::new(BoardState::Offline as u64),
            memory,
            link,
            dma,
            uos,
            sysfs,
            mic_index,
            faults: FaultHook::new(),
            resets: Counter::new(0),
        }
    }

    /// Boot the uOS.  Returns the virtual boot duration (KNC cards take
    /// tens of seconds to boot; we charge a token 10 s so traces stay
    /// realistic without dominating experiments).
    pub fn boot(&self) -> SimDuration {
        {
            let mut st = self.state.lock();
            if *st == BoardState::Online {
                return SimDuration::ZERO;
            }
            self.set_state(&mut st, BoardState::Booting);
        }
        self.sysfs.lock().set("state", "booting");
        let boot_time = SimDuration::from_secs(10);
        self.set_state(&mut self.state.lock(), BoardState::Online);
        self.sysfs.lock().set("state", "online");
        boot_time
    }

    /// The board's state, read without the state lock.
    pub fn state(&self) -> BoardState {
        BoardState::ALL[self.state_word.load() as usize]
    }

    /// Move to `next`; `st` is the held state lock.
    fn set_state(&self, st: &mut BoardState, next: BoardState) {
        *st = next;
        self.state_word.store(next as u64);
    }

    pub fn is_online(&self) -> bool {
        self.state() == BoardState::Online
    }

    pub fn spec(&self) -> &PhiSpec {
        &self.spec
    }

    pub fn mic_index(&self) -> u32 {
        self.mic_index
    }

    pub fn memory(&self) -> &Arc<DeviceMemory> {
        &self.memory
    }

    pub fn link(&self) -> &Arc<PcieLink> {
        &self.link
    }

    pub fn dma(&self) -> &Arc<DmaEngine> {
        &self.dma
    }

    pub fn uos(&self) -> &Arc<UosScheduler> {
        &self.uos
    }

    pub fn sysfs(&self) -> SysfsInfo {
        self.sysfs.lock().clone()
    }

    /// The attribute table as text ([`SysfsInfo::text`]), made under the
    /// lock without a copy of the table.
    pub fn sysfs_text(&self) -> String {
        self.sysfs.lock().text()
    }

    /// Fault-injection arming point (lockups, ECC, uOS panics).
    pub fn fault_hook(&self) -> &FaultHook {
        &self.faults
    }

    pub fn is_failed(&self) -> bool {
        self.state() == BoardState::Failed
    }

    /// Mark the card failed (host-visible via sysfs), as the real MPSS
    /// daemon does when the watchdog stops hearing from the uOS.
    pub fn fail(&self, reason: &str) {
        self.set_state(&mut self.state.lock(), BoardState::Failed);
        let mut sysfs = self.sysfs.lock();
        sysfs.set("state", "failed");
        sysfs.set("fail_reason", reason);
    }

    /// Check the injection schedule for a fatal board fault.  Called from
    /// the fabric's charge paths (every message/RMA traversal); on the
    /// firing crossing the board transitions to `Failed`.
    pub fn poll_faults(&self) -> Option<PhiFault> {
        if !self.faults.armed() || self.is_failed() {
            return None;
        }
        if self.faults.fire(FaultSite::PhiCoreLockup).is_some() {
            self.fail("core lockup");
            return Some(PhiFault::CoreLockup);
        }
        if self.faults.fire(FaultSite::PhiUosPanic).is_some() {
            self.fail("uos panic");
            return Some(PhiFault::UosPanic);
        }
        None
    }

    /// Check the injection schedule for an uncorrectable device-memory ECC
    /// error on this RMA.  Unlike a lockup this is per-transfer: the board
    /// stays online, the transfer fails fatally.
    pub fn ecc_fault(&self) -> bool {
        self.faults.fire(FaultSite::PhiEccError).is_some()
    }

    /// Reset a failed (or live) card: back to offline, then reboot the
    /// uOS.  Returns the virtual reset+boot duration.  All endpoint state
    /// referencing the card is the fabric's problem — see
    /// `VphiHost::reset_card`, which quarantines affected endpoints.
    pub fn reset(&self) -> SimDuration {
        self.set_state(&mut self.state.lock(), BoardState::Offline);
        {
            let mut sysfs = self.sysfs.lock();
            sysfs.set("state", "resetting");
            sysfs.set("fail_reason", "");
        }
        self.resets.bump();
        self.boot()
    }

    /// How many times this card has been reset.
    pub fn reset_count(&self) -> u64 {
        self.resets.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn board() -> PhiBoard {
        PhiBoard::new(PhiSpec::phi_3120p(), 0, Arc::new(CostModel::paper_calibrated()))
    }

    #[test]
    fn starts_offline_and_boots_once() {
        let b = board();
        assert_eq!(b.state(), BoardState::Offline);
        assert_eq!(b.sysfs().get("state"), Some("offline"));
        let t = b.boot();
        assert!(t > SimDuration::ZERO);
        assert!(b.is_online());
        assert_eq!(b.sysfs().get("state"), Some("online"));
        // Second boot is a no-op.
        assert_eq!(b.boot(), SimDuration::ZERO);
    }

    #[test]
    fn components_are_wired_to_the_spec() {
        let b = board();
        assert_eq!(b.memory().capacity(), PhiSpec::phi_3120p().memory_bytes);
        assert_eq!(b.dma().channels(), 8);
        assert_eq!(b.uos().spec().model, "3120P");
        assert_eq!(b.mic_index(), 0);
    }

    #[test]
    fn state_strings() {
        assert_eq!(BoardState::Offline.as_str(), "offline");
        assert_eq!(BoardState::Booting.as_str(), "booting");
        assert_eq!(BoardState::Online.as_str(), "online");
        assert_eq!(BoardState::Failed.as_str(), "failed");
    }

    #[test]
    fn lockup_fault_fails_the_board_until_reset() {
        use vphi_faults::{FaultInjector, FaultPlan};
        let b = board();
        b.boot();
        let inj = Arc::new(FaultInjector::new(FaultPlan::single(FaultSite::PhiCoreLockup, 2, 0)));
        assert!(b.fault_hook().arm(inj));
        assert_eq!(b.poll_faults(), None);
        assert_eq!(b.poll_faults(), Some(PhiFault::CoreLockup));
        assert!(b.is_failed());
        assert_eq!(b.sysfs().get("state"), Some("failed"));
        assert_eq!(b.sysfs().get("fail_reason"), Some("core lockup"));
        // Failed boards don't double-report.
        assert_eq!(b.poll_faults(), None);
        let t = b.reset();
        assert!(t > SimDuration::ZERO);
        assert!(b.is_online());
        assert_eq!(b.reset_count(), 1);
        assert_eq!(b.sysfs().get("state"), Some("online"));
    }

    #[test]
    fn ecc_fault_leaves_the_board_online() {
        use vphi_faults::{FaultInjector, FaultPlan};
        let b = board();
        b.boot();
        let inj = Arc::new(FaultInjector::new(FaultPlan::single(FaultSite::PhiEccError, 1, 0)));
        assert!(b.fault_hook().arm(inj));
        assert!(b.ecc_fault());
        assert!(!b.ecc_fault());
        assert!(b.is_online());
    }
}
