//! # vphi-bench — the experiment harness
//!
//! One module per paper artifact, each returning the figure's data series
//! in virtual time and the [`Figure`]s that table them.  [`FIGURES`] lists
//! every figure id in print order with the function that regenerates it;
//! the `figures` binary prints them and `tests/golden.rs` compares their
//! virtual-time JSON with the committed `figures.golden.json`.  What the
//! *simulator* costs the host per call is counted, not timed:
//! [`host_cost`] tables it, `tests/host_cost.rs` compares it with
//! `host_cost.golden.json`.

pub mod experiments;
pub mod host_cost;
pub mod support;

pub use experiments::*;
use support::Figure;

/// Runs one figure id's experiment and returns its tables.
pub type FigureFn = fn() -> Vec<Figure>;

/// Every figure id, in print order, with the function that runs it.
pub static FIGURES: &[(&str, FigureFn)] = &[
    ("4", || vec![fig4::figure()]),
    ("breakdown", || vec![breakdown::figure()]),
    ("5", || vec![fig5::figure()]),
    ("6", || vec![dgemm::figure("6", 56)]),
    ("7", || vec![dgemm::figure("7", 112)]),
    ("8", || vec![dgemm::figure("8", 224)]),
    ("abl-wait", || vec![ablations::wait_figure()]),
    ("abl-chunk", || vec![ablations::chunk_figure()]),
    ("abl-block", || vec![ablations::block_figure()]),
    ("abl-cache", || vec![abl_cache().figure()]),
    ("abl-faults", || vec![abl_faults().figure()]),
    ("trace-breakdown", || trace_breakdown().figures()),
    ("zero-copy", || vec![zero_copy().figure()]),
    ("share", || vec![sharing::figure()]),
    ("mq-scale", || vec![mq_scale().figure()]),
    ("open-loop", || vec![open_loop().figure()]),
];
