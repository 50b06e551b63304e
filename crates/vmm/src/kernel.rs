//! The guest-kernel environment the vPHI frontend driver runs in.
//!
//! Provides the three kernel services the paper's frontend uses:
//! `kmalloc` (physically-contiguous, capped at `KMALLOC_MAX_SIZE`),
//! user↔kernel copies (the *only* data copies on the vPHI path, §III),
//! and wait queues + IRQ registration.

use std::sync::Arc;

use vphi_sim_core::cost::{CostModel, KMALLOC_MAX_SIZE};
use vphi_sim_core::{SpanLabel, Timeline};

use crate::guest_mem::{Gpa, GuestMemError, GuestMemory};
use crate::irq::IrqChip;

/// A kmalloc'd physically-contiguous kernel buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmallocBuf {
    pub gpa: Gpa,
    pub len: u64,
}

/// The guest kernel.
pub struct GuestKernel {
    mem: Arc<GuestMemory>,
    cost: Arc<CostModel>,
    irq: Arc<IrqChip>,
}

impl std::fmt::Debug for GuestKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestKernel").field("mem_size", &self.mem.size()).finish()
    }
}

impl GuestKernel {
    pub fn new(mem: Arc<GuestMemory>, cost: Arc<CostModel>) -> Self {
        let irq = Arc::new(IrqChip::new(Arc::clone(&cost)));
        GuestKernel { mem, cost, irq }
    }

    pub fn mem(&self) -> &Arc<GuestMemory> {
        &self.mem
    }

    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    pub fn irq(&self) -> &Arc<IrqChip> {
        &self.irq
    }

    /// `kmalloc`: allocate up to `KMALLOC_MAX_SIZE` physically-contiguous
    /// bytes, charging the allocation cost.  Larger requests fail — that
    /// limit is why the frontend chunks big transfers (paper §III,
    /// implementation details).
    pub fn kmalloc(&self, len: u64, tl: &mut Timeline) -> Result<KmallocBuf, GuestMemError> {
        if len == 0 {
            return Err(GuestMemError::EmptyRequest);
        }
        if len > KMALLOC_MAX_SIZE {
            return Err(GuestMemError::OutOfMemory);
        }
        tl.charge(SpanLabel::GuestKmalloc, self.cost.guest_kmalloc);
        let gpa = self.mem.alloc(len)?;
        Ok(KmallocBuf { gpa, len })
    }

    /// `kfree`.
    pub fn kfree(&self, buf: KmallocBuf) -> Result<(), GuestMemError> {
        self.mem.free(buf.gpa)
    }

    /// `copy_from_user`: user buffer → kernel buffer, charged as a guest
    /// copy.
    pub fn copy_from_user(
        &self,
        dst: KmallocBuf,
        src: &[u8],
        tl: &mut Timeline,
    ) -> Result<(), GuestMemError> {
        if src.len() as u64 > dst.len {
            return Err(GuestMemError::OutOfBounds);
        }
        tl.charge(SpanLabel::GuestCopy, self.cost.cpu_copy(src.len() as u64));
        self.mem.write(dst.gpa, src)
    }

    /// `copy_to_user`: kernel buffer → user buffer.
    pub fn copy_to_user(
        &self,
        dst: &mut [u8],
        src: KmallocBuf,
        tl: &mut Timeline,
    ) -> Result<(), GuestMemError> {
        if dst.len() as u64 > src.len {
            return Err(GuestMemError::OutOfBounds);
        }
        tl.charge(SpanLabel::GuestCopy, self.cost.cpu_copy(dst.len() as u64));
        self.mem.read(src.gpa, dst)
    }

    /// Charge a guest syscall entry/exit.
    pub fn charge_syscall(&self, tl: &mut Timeline) {
        tl.charge(SpanLabel::GuestSyscall, self.cost.guest_syscall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_sim_core::units::MIB;
    use vphi_sim_core::SimDuration;

    fn kernel() -> GuestKernel {
        GuestKernel::new(
            Arc::new(GuestMemory::new(64 * MIB)),
            Arc::new(CostModel::paper_calibrated()),
        )
    }

    #[test]
    fn kmalloc_respects_the_4mib_limit() {
        let k = kernel();
        let mut tl = Timeline::new();
        assert!(k.kmalloc(KMALLOC_MAX_SIZE, &mut tl).is_ok());
        assert_eq!(k.kmalloc(KMALLOC_MAX_SIZE + 1, &mut tl), Err(GuestMemError::OutOfMemory));
        assert_eq!(k.kmalloc(0, &mut tl), Err(GuestMemError::EmptyRequest));
        assert!(tl.total_for(SpanLabel::GuestKmalloc) > SimDuration::ZERO);
    }

    #[test]
    fn user_kernel_copies_round_trip_and_charge() {
        let k = kernel();
        let mut tl = Timeline::new();
        let buf = k.kmalloc(4096, &mut tl).unwrap();
        k.copy_from_user(buf, b"from-user", &mut tl).unwrap();
        let mut out = [0u8; 9];
        k.copy_to_user(&mut out, buf, &mut tl).unwrap();
        assert_eq!(&out, b"from-user");
        assert!(tl.total_for(SpanLabel::GuestCopy) > SimDuration::ZERO);
        k.kfree(buf).unwrap();
    }

    #[test]
    fn copies_are_bounds_checked() {
        let k = kernel();
        let mut tl = Timeline::new();
        let buf = k.kmalloc(4096, &mut tl).unwrap();
        let big = vec![0u8; 8192];
        assert_eq!(k.copy_from_user(buf, &big, &mut tl), Err(GuestMemError::OutOfBounds));
        let mut big_out = vec![0u8; 8192];
        assert_eq!(k.copy_to_user(&mut big_out, buf, &mut tl), Err(GuestMemError::OutOfBounds));
    }

    #[test]
    fn syscall_charge() {
        let k = kernel();
        let mut tl = Timeline::new();
        k.charge_syscall(&mut tl);
        assert_eq!(
            tl.total_for(SpanLabel::GuestSyscall),
            CostModel::paper_calibrated().guest_syscall
        );
    }
}
