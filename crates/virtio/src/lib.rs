//! # vphi-virtio — the split-virtqueue transport
//!
//! vPHI's frontend and backend communicate over a virtio ring (paper
//! §II-C, Fig. 2): the guest posts buffer *references* (guest-physical
//! addresses) into a shared ring and kicks the device; the backend pops
//! them, maps the referenced buffers, emulates the I/O, pushes a used
//! element and injects a virtual interrupt.  No payload bytes live in the
//! ring itself — that is the zero-copy property the paper leans on.
//!
//! This crate implements the classic *split* virtqueue:
//!
//! * [`ring::Descriptor`] / [`ring::DescChain`] — guest-physical buffer
//!   references with `NEXT`/`WRITE` chaining.
//! * [`queue::VirtQueue`] — the descriptor table + avail ring + used ring
//!   under one lock, with a guest-side API (`publish_chain`,
//!   `take_used`) and a device-side API (`pop_avail_bounded`,
//!   `push_used`), and its kick (guest → device), which the lane's device
//!   thread sleeps on in `wait_kick` until a kick or the ring's close.
//!   The device → guest interrupt is decided outside the queue, from whether a push
//!   crossed the EVENT_IDX `used_event` threshold the guest armed.

pub mod queue;
pub mod ring;

pub use queue::{Popped, QueueCounters, QueueError, VirtQueue};
pub use ring::{DescChain, DescFlags, Descriptor, UsedElem};
