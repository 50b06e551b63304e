//! `GuestMemory`'s page-indexed live table (DESIGN.md #24) against the
//! map of live allocations it replaced: allocation, free, double free,
//! misaligned and out-of-range free give identical verdicts, addresses and
//! `allocated()`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vphi_sim_core::cost::PAGE_SIZE;
use vphi_vmm::{Gpa, GuestMemError, GuestMemory};

/// The allocator as a map of live allocations: first fit at the lowest
/// address, free by exact base only.
#[derive(Default)]
struct MapModel {
    live: BTreeMap<u64, u64>,
}

impl MapModel {
    fn alloc(&mut self, len: u64, size: u64) -> Result<Gpa, GuestMemError> {
        if len == 0 {
            return Err(GuestMemError::EmptyRequest);
        }
        let len = len.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        let mut at = 0;
        for (&start, &l) in &self.live {
            if start - at >= len {
                break;
            }
            at = start + l;
        }
        if size - at < len {
            return Err(GuestMemError::OutOfMemory);
        }
        self.live.insert(at, len);
        Ok(Gpa(at))
    }

    fn free(&mut self, gpa: Gpa) -> Result<(), GuestMemError> {
        self.live.remove(&gpa.0).map(|_| ()).ok_or(GuestMemError::BadFree)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(u64),
    /// Free the nth live allocation, `delta` bytes past its base.
    FreeLive(usize, u64),
    /// Free an address nobody handed out (or somebody did: a guess).
    FreeAt(u64),
}

proptest! {
    #[test]
    fn the_live_table_matches_a_map_model(
        ops in prop::collection::vec(
            prop_oneof![
                (0u64..6 * PAGE_SIZE).prop_map(Op::Alloc),
                (0u64..6 * PAGE_SIZE).prop_map(Op::Alloc),
                (0usize..32, prop_oneof![Just(0), Just(0), Just(1), Just(PAGE_SIZE)])
                    .prop_map(|(n, delta)| Op::FreeLive(n, delta)),
                prop_oneof![
                    (0u64..40).prop_map(|page| page * PAGE_SIZE),
                    0u64..40 * PAGE_SIZE,
                    Just(u64::MAX),
                    Just(u64::MAX - PAGE_SIZE + 1),
                ]
                .prop_map(Op::FreeAt),
            ],
            0..200,
        ),
    ) {
        const SIZE: u64 = 32 * PAGE_SIZE;
        let mem = GuestMemory::new(SIZE);
        let mut model = MapModel::default();
        for op in ops {
            match op {
                Op::Alloc(len) => prop_assert_eq!(mem.alloc(len), model.alloc(len, SIZE)),
                Op::FreeLive(n, delta) => {
                    if let Some(&base) = model.live.keys().nth(n % model.live.len().max(1)) {
                        let gpa = Gpa(base + delta);
                        prop_assert_eq!(mem.free(gpa), model.free(gpa), "free of {}", gpa);
                        // And never twice.
                        if delta == 0 {
                            prop_assert_eq!(mem.free(gpa), Err(GuestMemError::BadFree));
                        }
                    }
                }
                Op::FreeAt(addr) => {
                    prop_assert_eq!(mem.free(Gpa(addr)), model.free(Gpa(addr)), "{:#x}", addr)
                }
            }
            prop_assert_eq!(mem.allocated(), model.live.values().sum::<u64>());
        }
    }
}
