//! Registration-cache correctness under interleaving and concurrency.
//!
//! The cache must never *serve a stale translation*: a lookup may only
//! hit when the same `(endpoint, range)` was translated earlier and no
//! invalidating event — overlapping `scif_unregister` or endpoint close —
//! happened in between.  The property test drives arbitrary interleavings
//! of register / RMA / unregister / close against a reference model; the
//! stress test hammers the cache from six guest threads in the style of
//! the token-routing concurrency suite.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use vphi::backend::RmaCharge;
use vphi::builder::{VmConfig, VphiHost};
use vphi::debugfs::VphiDebugReport;
use vphi_dev_support::window_timed;
use vphi_scif::{Prot, RmaFlags, ScifError};
use vphi_sim_core::units::{KIB, MIB};
use vphi_sim_core::{SimDuration, SpanLabel, Timeline};

const PAGE: u64 = 4096;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary interleavings of RMA reads/writes, window registration,
    /// unregistration and endpoint close/reopen: every cache probe must
    /// agree with a reference model, so a hit can never reuse a
    /// translation an invalidation should have dropped.
    #[test]
    fn interleavings_never_serve_stale_translations(
        ops in prop::collection::vec((0u8..5u8, 0usize..4usize), 1..30)
    ) {
        let host = VphiHost::new(1);
        let server = window_timed(&host, 0, 16 * PAGE);
        let vm = host.spawn_vm(VmConfig::default());

        // Four disjoint guest buffers of 1..=4 pages.
        let bufs: Vec<_> =
            (0..4).map(|i| vm.alloc_buf((i as u64 + 1) * PAGE).unwrap()).collect();

        let mut tl = Timeline::new();
        let mut guest = vm.open_scif(&mut tl).unwrap();
        guest.connect(server.addr(), &mut tl).unwrap();
        server.wait_registered();

        // The reference model: which buffers have a live cached
        // translation, and which windows are registered over them.
        let mut cached: HashSet<usize> = HashSet::new();
        let mut windows: HashMap<usize, u64> = HashMap::new();

        for (kind, b) in ops {
            let mut tl = Timeline::new();
            match kind {
                // RMA on buffer `b`: the probe must hit exactly when the
                // model says the translation is still live.
                0 | 1 => {
                    let before = VphiDebugReport::collect(&vm);
                    if kind == 0 {
                        guest.vreadfrom(&bufs[b], 0, RmaFlags::SYNC, &mut tl).unwrap();
                    } else {
                        guest.vwriteto(&bufs[b], 0, RmaFlags::SYNC, &mut tl).unwrap();
                    }
                    let after = VphiDebugReport::collect(&vm);
                    let hits = after.reg_cache_hits - before.reg_cache_hits;
                    let misses = after.reg_cache_misses - before.reg_cache_misses;
                    prop_assert_eq!(hits + misses, 1, "every RMA probes exactly once");
                    prop_assert_eq!(
                        hits == 1,
                        cached.contains(&b),
                        "hit disagrees with model: stale or lost translation"
                    );
                    cached.insert(b);
                }
                // Register a window over buffer `b` (if none yet).
                2 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = windows.entry(b) {
                        let off =
                            guest.register(&bufs[b], Prot::READ_WRITE, None, &mut tl).unwrap();
                        e.insert(off);
                    }
                }
                // Unregister it: overlapping translations must die.
                3 => {
                    if let Some(off) = windows.remove(&b) {
                        guest.unregister(off, bufs[b].len(), &mut tl).unwrap();
                        cached.remove(&b);
                    }
                }
                // Close and reopen the endpoint: everything dies.
                _ => {
                    guest.close(&mut tl).unwrap();
                    cached.clear();
                    windows.clear();
                    guest = vm.open_scif(&mut tl).unwrap();
                    guest.connect(server.addr(), &mut tl).unwrap();
                    server.wait_registered();
                }
            }
        }

        let mut tl_close = Timeline::new();
        let _ = guest.close(&mut tl_close);
        vm.shutdown();
    }
}

/// Zero-copy mapping lifetime vs in-flight DMA: a reader thread hammers
/// large (> `KMALLOC_MAX_SIZE`) zero-copy reads while the main thread
/// churns register/unregister over the same pages.  Every unregister's
/// `unmap_window` must quiesce the in-flight descriptor list before
/// tearing the mapping down, so the race can corrupt nothing — and the
/// zero-leak audit must balance once the endpoint closes.
#[test]
fn unregister_quiesces_inflight_zero_copy_dma() {
    const BIG: u64 = 8 * 1024 * 1024; // > KMALLOC_MAX_SIZE → zero-copy arm
    let host = VphiHost::new(1);
    let server = window_timed(&host, 0, 2 * BIG);
    let vm = Arc::new(host.spawn_vm(VmConfig::builder().rma(RmaCharge::Mapped).build()));

    let mut tl = Timeline::new();
    let guest = Arc::new(vm.open_scif(&mut tl).unwrap());
    guest.connect(server.addr(), &mut tl).unwrap();
    server.wait_registered();
    let buf = Arc::new(vm.alloc_buf(BIG).unwrap());

    let reader = {
        let (guest, buf) = (Arc::clone(&guest), Arc::clone(&buf));
        std::thread::spawn(move || {
            for _ in 0..20 {
                let mut tl = Timeline::new();
                guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
            }
        })
    };
    // Window churn over the very pages the reader is gathering from: each
    // unregister invalidates the mapping cache and unmaps the device
    // subwindow, which must block until the reader's IoGuard drops.
    for _ in 0..10 {
        let mut tl = Timeline::new();
        let off = guest.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
        guest.unregister(off, buf.len(), &mut tl).unwrap();
    }
    reader.join().unwrap();

    let be = vm.backend().inner();
    assert_eq!(be.aperture().inflight_total(), 0, "no leaked IoGuards");
    let report = VphiDebugReport::collect(&vm);
    assert!(report.windows_mapped >= 1, "the zero-copy path mapped at least once");
    assert!(
        report.staging_bytes_avoided >= 20 * BIG,
        "every big read skipped staging: {}",
        report.staging_bytes_avoided
    );
    let mut tl = Timeline::new();
    guest.close(&mut tl).unwrap();
    assert_eq!(be.aperture().mapped_windows(), 0, "zero-leak: close unmaps everything");
    vm.shutdown();
}

/// Chaos seed: a card reset lands while zero-copy windows are mapped and
/// reads are in flight.  Quarantine must unmap the victims' windows
/// (quiescing in-flight gathers), racing requests may re-map against the
/// quarantined endpoint, and `scif_close` must still drain everything —
/// the audit balances at zero either way.
#[test]
fn card_reset_with_mapped_windows_unmaps_cleanly() {
    const BIG: u64 = 8 * 1024 * 1024;
    let host = VphiHost::new(1);
    let server = window_timed(&host, 0, 2 * BIG);
    let vm = Arc::new(host.spawn_vm(VmConfig::builder().rma(RmaCharge::Mapped).build()));

    let mut tl = Timeline::new();
    let guest = Arc::new(vm.open_scif(&mut tl).unwrap());
    guest.connect(server.addr(), &mut tl).unwrap();
    server.wait_registered();
    let buf = Arc::new(vm.alloc_buf(BIG).unwrap());

    // Map a window with a successful zero-copy read first, so the reset
    // definitely finds mappings outstanding.
    guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
    let be = vm.backend().inner();
    assert!(be.aperture().mapped_windows() >= 1, "a window is mapped before the reset");

    let reader = {
        let (guest, buf) = (Arc::clone(&guest), Arc::clone(&buf));
        std::thread::spawn(move || {
            // Reads racing the reset may fail once the endpoint is
            // quarantined; only the bookkeeping must stay coherent.
            for _ in 0..10 {
                let mut tl = Timeline::new();
                let _ = guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl);
            }
        })
    };
    host.reset_card(0);
    reader.join().unwrap();

    assert_eq!(be.aperture().inflight_total(), 0, "reset left no in-flight descriptor lists");
    let mut tl = Timeline::new();
    let _ = guest.close(&mut tl);
    assert_eq!(be.aperture().mapped_windows(), 0, "zero-leak after quarantine + close");
    vm.shutdown();
}

/// The frontend's `chunk_size` cuts messages and no RMA reads it, so a VM
/// may tune it under any large-RMA charge: a cache-cold 16 MiB mapped read
/// costs the same virtual time with 256 KiB chunks as with the default
/// 4 MiB, while a 64 MiB `send_timed` on the same VM goes out in 256
/// requests instead of 16.
#[test]
fn a_mapped_rma_costs_the_same_under_any_message_chunk() {
    const RMA: u64 = 16 * MIB;
    let cold_read_then_send = |config: VmConfig| {
        let host = VphiHost::new(1);
        let server = window_timed(&host, 0, RMA);
        let rig = server.guest(&host, config);

        let read_tl = rig.vread(&rig.vm.alloc_buf(RMA).unwrap());
        assert!(read_tl.total_for(SpanLabel::WindowPin) > SimDuration::ZERO, "the mapped arm");

        let before = rig.vm.frontend().stats().requests;
        assert_eq!(rig.guest.send_timed(64 * MIB, &mut Timeline::new()), Ok(64 * MIB));
        let chunks = rig.vm.frontend().stats().requests - before;
        (read_tl.total(), chunks)
    };
    let mapped = || VmConfig::builder().rma(RmaCharge::Mapped);
    let (default_read, default_chunks) = cold_read_then_send(mapped().build());
    let (tuned_read, tuned_chunks) = cold_read_then_send(mapped().chunk_size(256 * KIB).build());
    assert_eq!(tuned_read, default_read, "no RMA reads the message chunk");
    assert_eq!((default_chunks, tuned_chunks), (16, 256));
}

/// Aperture exhaustion is an outcome, not a degraded mode: a mapped read
/// that finds no room is `ENOMEM` before any pin, map or descriptor is
/// charged or counted, holds nothing, and succeeds once room is made.
#[test]
fn an_exhausted_aperture_is_enomem_and_holds_nothing() {
    const BIG: u64 = 8 * MIB;
    const FILLER_EPD: u64 = u64::MAX; // no guest endpoint has it
    let host = VphiHost::new(1);
    let server = window_timed(&host, 0, BIG);
    let rig = server.guest(&host, VmConfig::builder().rma(RmaCharge::Mapped).build());
    let (guest, vm) = (&rig.guest, &rig.vm);
    let buf = vm.alloc_buf(BIG).unwrap();

    let be = vm.backend().inner();
    let mut fillers = 0;
    while be.aperture().map_window((FILLER_EPD, fillers), 1 << 30).is_some() {
        fillers += 1;
    }
    let counted = || {
        let r = VphiDebugReport::collect(vm);
        (r.windows_mapped, r.staging_bytes_avoided)
    };
    let before = counted();

    let mut refused = Timeline::new();
    assert_eq!(guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut refused), Err(ScifError::NoMem));
    for label in [SpanLabel::WindowPin, SpanLabel::SgBuild, SpanLabel::LinkTransfer] {
        assert_eq!(refused.total_for(label), SimDuration::ZERO, "{label:?} charged");
    }
    assert_eq!(counted(), before, "a refused map is not a mapped window");
    assert_eq!(be.aperture().inflight_total(), 0);
    assert_eq!(be.aperture().mapped_windows() as u64, fillers, "only the fillers are mapped");

    assert_eq!(be.aperture().unmap_endpoint(FILLER_EPD) as u64, fillers);
    let mut served = Timeline::new();
    assert_eq!(guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut served), Ok(()));
    assert!(served.total_for(SpanLabel::WindowPin) > SimDuration::ZERO);
    assert_eq!(counted(), (before.0 + 1, before.1 + BIG));

    guest.close(&mut Timeline::new()).unwrap();
    assert_eq!(be.aperture().mapped_windows(), 0);
}

/// Six guest threads sharing one frontend, each doing warm RMA rounds on
/// its own buffer with a register/unregister invalidation in the middle —
/// the cache and the notification-coalescing counters must stay coherent
/// under real thread interleaving.
#[test]
fn six_threads_hammer_the_cache_coherently() {
    let host = VphiHost::new(1);
    let threads = 6usize;
    let rounds = 10u32;
    let server = window_timed(&host, 0, 16 * PAGE);
    let vm = Arc::new(host.spawn_vm(VmConfig::default()));

    let mut handles = Vec::new();
    for _ in 0..threads {
        // One connection at a time: the server reports registrations in
        // the order it made them.
        let mut tl = Timeline::new();
        let guest = vm.open_scif(&mut tl).unwrap();
        guest.connect(server.addr(), &mut tl).unwrap();
        server.wait_registered();
        let vm = Arc::clone(&vm);
        handles.push(std::thread::spawn(move || {
            let buf = vm.alloc_buf(2 * PAGE).unwrap();
            for round in 0..rounds {
                let mut tl = Timeline::new();
                guest.vreadfrom(&buf, 0, RmaFlags::SYNC, &mut tl).unwrap();
                if round == 4 {
                    // Window churn over the same pages: the next read
                    // must re-translate, not reuse the dead pin.
                    let off = guest.register(&buf, Prot::READ_WRITE, None, &mut tl).unwrap();
                    guest.unregister(off, buf.len(), &mut tl).unwrap();
                }
            }
            guest.close(&mut tl).unwrap();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }

    let report = VphiDebugReport::collect(&vm);
    let t = threads as u64;
    // Each thread: a cold first read, then warm reads except the one
    // after its unregister.
    assert!(report.reg_cache_hits >= t * (rounds as u64 - 2), "hits = {}", report.reg_cache_hits);
    assert!(report.reg_cache_misses >= 2 * t, "misses = {}", report.reg_cache_misses);
    assert!(report.reg_cache_invalidations >= t, "each unregister invalidates that thread's entry");
    // Frontend and backend notification accounting must balance exactly:
    // every request kicks once and every completion either injects,
    // suppresses, or loses its interrupt.
    assert_eq!(report.kicks_delivered, report.requests);
    assert_eq!(
        report.irqs_injected + report.irqs_suppressed + report.msi_lost,
        report.backend_requests
    );
    assert_eq!(vm.frontend().channel().inflight_count(), 0);

    vm.shutdown();
}
