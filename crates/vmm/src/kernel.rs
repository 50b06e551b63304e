//! The guest-kernel environment the vPHI frontend driver runs in.
//!
//! Provides the three kernel services the paper's frontend uses:
//! `kmalloc` (physically-contiguous, capped at `KMALLOC_MAX_SIZE`),
//! user↔kernel copies (the *only* data copies on the vPHI path, §III),
//! and the syscall charge.  A staging buffer's copy is made in the same
//! critical section as its allocation (outbound) or its free (inbound).

use std::sync::Arc;

use vphi_sim_core::cost::{CostModel, KMALLOC_MAX_SIZE};
use vphi_sim_core::{SpanLabel, Timeline};

use crate::guest_mem::{Gpa, GuestMemError, GuestMemory};

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
}

impl std::fmt::Debug for GuestKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GuestKernel").field("mem_size", &self.mem.size()).finish()
    }
}

impl GuestKernel {
    pub fn new(mem: Arc<GuestMemory>, cost: Arc<CostModel>) -> Self {
        GuestKernel { mem, cost }
    }

    pub fn mem(&self) -> &Arc<GuestMemory> {
        &self.mem
    }

    pub fn cost(&self) -> &Arc<CostModel> {
        &self.cost
    }

    /// `kmalloc`: allocate up to `KMALLOC_MAX_SIZE` physically-contiguous
    /// bytes, charging the allocation cost.  Larger requests fail — that
    /// limit is why the frontend chunks big transfers (paper §III,
    /// implementation details).
    pub fn kmalloc(&self, len: u64, tl: &mut Timeline) -> Result<KmallocBuf, GuestMemError> {
        self.kmalloc_with(len, tl, |_| ())
    }

    /// `kmalloc` a buffer for `src` and `copy_from_user` it in, charging
    /// both: an outbound staging chunk.
    pub fn kmalloc_from_user(
        &self,
        src: &[u8],
        tl: &mut Timeline,
    ) -> Result<KmallocBuf, GuestMemError> {
        let buf = self.kmalloc_with(src.len() as u64, tl, |bytes| bytes.copy_from_slice(src))?;
        tl.charge(SpanLabel::GuestCopy, self.cost.cpu_copy(buf.len));
        Ok(buf)
    }

    fn kmalloc_with(
        &self,
        len: u64,
        tl: &mut Timeline,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<KmallocBuf, GuestMemError> {
        if len == 0 {
            return Err(GuestMemError::EmptyRequest);
        }
        if len > KMALLOC_MAX_SIZE {
            return Err(GuestMemError::OutOfMemory);
        }
        self.charge_kmalloc(tl);
        let gpa = self.mem.alloc_with(len, fill)?;
        Ok(KmallocBuf { gpa, len })
    }

    /// Charge one `kmalloc`, for a caller that reuses a buffer where the
    /// modelled driver allocates afresh.
    pub fn charge_kmalloc(&self, tl: &mut Timeline) {
        tl.charge(SpanLabel::GuestKmalloc, self.cost.guest_kmalloc);
    }

    /// `kfree`.
    pub fn kfree(&self, buf: KmallocBuf) -> Result<(), GuestMemError> {
        self.mem.free(buf.gpa)
    }

    /// `copy_to_user` of `dst.len()` bytes out of `src`, then `kfree` it:
    /// an inbound staging chunk's last use.  The copy is charged; the
    /// buffer is freed whether or not the copy succeeded, and the copy's
    /// error is reported first.
    pub fn copy_to_user_and_free(
        &self,
        dst: &mut [u8],
        src: KmallocBuf,
        tl: &mut Timeline,
    ) -> Result<(), GuestMemError> {
        if dst.len() as u64 > src.len {
            let _ = self.kfree(src);
            return Err(GuestMemError::OutOfBounds);
        }
        tl.charge(SpanLabel::GuestCopy, self.cost.cpu_copy(dst.len() as u64));
        self.mem.read_and_free(src.gpa, dst)
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
        let buf = k.kmalloc_from_user(b"from-user", &mut tl).unwrap();
        assert_eq!(tl.total_for(SpanLabel::GuestKmalloc), k.cost().guest_kmalloc);
        let mut out = [0u8; 9];
        k.copy_to_user_and_free(&mut out, buf, &mut tl).unwrap();
        assert_eq!(&out, b"from-user");
        assert_eq!(tl.total_for(SpanLabel::GuestCopy), k.cost().cpu_copy(9) * 2);
        assert_eq!(k.mem().allocated(), 0);
        assert_eq!(k.kfree(buf), Err(GuestMemError::BadFree), "freed once");
    }

    #[test]
    fn copies_are_bounds_checked() {
        let k = kernel();
        let mut tl = Timeline::new();
        let big = vec![0u8; (KMALLOC_MAX_SIZE + 1) as usize];
        assert_eq!(k.kmalloc_from_user(&big, &mut tl), Err(GuestMemError::OutOfMemory));
        let buf = k.kmalloc(4096, &mut tl).unwrap();
        let mut big_out = vec![0u8; 8192];
        assert_eq!(
            k.copy_to_user_and_free(&mut big_out, buf, &mut tl),
            Err(GuestMemError::OutOfBounds)
        );
        assert_eq!(k.mem().allocated(), 0);
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
