//! Dual-clock benchmark of the vPHI stack.
//!
//! Five seeded workloads run through the public guest API and, interleaved,
//! the identical ops on the native path, so every host-time number also
//! exists as a drift-cancelling guest/native ratio.  `wall_*` metrics are
//! host time, `virt_*` metrics are virtual time; none mixes the clocks.
//! Layers are measured from outside only: public counters, the public
//! tracer, and harness-timed probes of each layer's public functions.
//! See `README.md` for the glossary and how to run.

pub mod counters;
pub mod gen;
pub mod json;
pub mod os;
pub mod probes;
pub mod record;
pub mod report;
pub mod runner;
pub mod spec;
pub mod stack;
pub mod suite;
pub mod workloads;
