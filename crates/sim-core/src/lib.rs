//! # vphi-sim-core — virtual-time substrate for the vPHI reproduction
//!
//! The vPHI paper measures a real Xeon Phi 3120P behind a real PCIe gen2
//! link.  Neither exists on the machines this reproduction targets, so the
//! whole stack runs as a *functional* simulation: threads, rings and byte
//! movement are real, but **durations are virtual**.  This crate provides
//! the primitives every other crate charges time against:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-granularity virtual time.
//!   There is no shared clock: a request's virtual time is what its own
//!   [`Timeline`] was charged, so it cannot depend on how the host
//!   schedules other requests' threads.
//! * [`cost::CostModel`] — every structural cost in the system (vm-exit,
//!   interrupt injection, guest wake-up, per-page pin/translate, per-byte
//!   link time, …) as an explicit parameter.  The paper-calibrated preset
//!   reproduces the paper's native anchors (7 µs 1-byte latency,
//!   6.4 GB/s peak remote read).
//! * [`timeline::Timeline`] — a per-request ledger of virtual time.  As a
//!   request traverses frontend → virtio → backend → SCIF → DMA, each
//!   component charges labelled durations; the figure harness reads
//!   latency and breakdowns straight off the timeline.
//! * [`stats`] — small online-statistics helpers for the benchmark
//!   harness (mean, stddev, percentiles, throughput series).
//! * [`rng`] — a deterministic SplitMix64 generator so every experiment
//!   is reproducible bit-for-bit.
//! * [`host_mem::HostBytes`] — the host memory behind guest RAM and
//!   byte-backed GDDR: lazily zeroed, huge-page aligned, and advised onto
//!   transparent huge pages where its owner asks.

pub mod cost;
pub mod host_mem;
pub mod rng;
pub mod stats;
pub mod timeline;
pub mod units;

pub use cost::CostModel;
pub use rng::SplitMix64;
pub use timeline::{SpanLabel, Timeline};
pub use units::{SimDuration, SimTime, GIB, KIB, MIB};
