//! Descriptor-table entries and chains.

/// Descriptor flags (`VRING_DESC_F_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DescFlags {
    /// This descriptor continues into `next`.
    pub next: bool,
    /// Device-writable (a response buffer); otherwise device-readable.
    pub write: bool,
}

impl DescFlags {
    pub const NONE: DescFlags = DescFlags { next: false, write: false };
    pub const NEXT: DescFlags = DescFlags { next: true, write: false };
    pub const WRITE: DescFlags = DescFlags { next: false, write: true };
    pub const NEXT_WRITE: DescFlags = DescFlags { next: true, write: true };
}

/// One descriptor-table entry: a guest-physical buffer reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Descriptor {
    /// Guest-physical address of the buffer.
    pub addr: u64,
    /// Buffer length in bytes.
    pub len: u32,
    pub flags: DescFlags,
    /// Next descriptor index when `flags.next`.
    pub next: u16,
}

impl Descriptor {
    pub fn readable(addr: u64, len: u32) -> Self {
        Descriptor { addr, len, flags: DescFlags::NONE, next: 0 }
    }

    pub fn writable(addr: u64, len: u32) -> Self {
        Descriptor { addr, len, flags: DescFlags::WRITE, next: 0 }
    }
}

/// Chains this long or shorter keep their descriptors in the popped value
/// itself: two headers and up to two payload descriptors, which is every
/// chain a blocking call builds.
const INLINE_DESCS: usize = 4;

/// A chain's descriptors, in order; reads as a slice.  Short chains (the
/// common case) are stored inline, so popping one allocates nothing.
#[derive(Clone)]
struct DescList {
    inline: [Descriptor; INLINE_DESCS],
    inline_len: usize,
    /// The whole list, once it has outgrown `inline`.
    spilled: Vec<Descriptor>,
}

impl DescList {
    fn new() -> Self {
        DescList {
            inline: [Descriptor::readable(0, 0); INLINE_DESCS],
            inline_len: 0,
            spilled: Vec::new(),
        }
    }

    fn push(&mut self, d: Descriptor) {
        if !self.spilled.is_empty() {
            self.spilled.push(d);
        } else if self.inline_len < INLINE_DESCS {
            self.inline[self.inline_len] = d;
            self.inline_len += 1;
        } else {
            self.spilled.reserve(2 * INLINE_DESCS);
            self.spilled.extend_from_slice(&self.inline);
            self.spilled.push(d);
        }
    }
}

impl std::ops::Deref for DescList {
    type Target = [Descriptor];

    fn deref(&self) -> &[Descriptor] {
        if self.spilled.is_empty() {
            &self.inline[..self.inline_len]
        } else {
            &self.spilled
        }
    }
}

impl FromIterator<Descriptor> for DescList {
    fn from_iter<I: IntoIterator<Item = Descriptor>>(iter: I) -> Self {
        let mut list = DescList::new();
        for d in iter {
            list.push(d);
        }
        list
    }
}

impl PartialEq for DescList {
    fn eq(&self, other: &DescList) -> bool {
        **self == **other
    }
}

impl Eq for DescList {}

impl std::fmt::Debug for DescList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A popped chain, resolved into its ordered descriptors.  Never empty:
/// it is built from its head descriptor, so the request header
/// ([`request`](Self::request)) and the response header
/// ([`response`](Self::response)) always exist — the same descriptor, for
/// a chain of one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescChain {
    /// Head descriptor index — the id pushed back on the used ring.
    pub head: u16,
    descriptors: DescList,
}

impl DescChain {
    /// A chain of one: the descriptor at table index `head`.
    pub(crate) fn new(head: u16, first: Descriptor) -> Self {
        let mut descriptors = DescList::new();
        descriptors.push(first);
        DescChain { head, descriptors }
    }

    /// Follow the chain one more link.
    pub(crate) fn push(&mut self, d: Descriptor) {
        self.descriptors.push(d);
    }

    /// The descriptors, in chain order.
    pub fn descriptors(&self) -> &[Descriptor] {
        &self.descriptors
    }

    /// The first descriptor: where a vPHI request header sits.
    pub fn request(&self) -> &Descriptor {
        &self.descriptors[0]
    }

    /// The last descriptor: where a vPHI response header goes.
    pub fn response(&self) -> &Descriptor {
        &self.descriptors[self.descriptors.len() - 1]
    }

    /// Device-readable descriptors (the request).
    pub fn readable(&self) -> impl Iterator<Item = &Descriptor> {
        self.descriptors.iter().filter(|d| !d.flags.write)
    }

    /// Device-writable descriptors (the response area).
    pub fn writable(&self) -> impl Iterator<Item = &Descriptor> {
        self.descriptors.iter().filter(|d| d.flags.write)
    }

    pub fn total_len(&self) -> u64 {
        self.descriptors.iter().map(|d| d.len as u64).sum()
    }
}

/// A used-ring element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UsedElem {
    /// Head index of the completed chain.
    pub id: u16,
    /// Bytes the device wrote into the chain's writable descriptors.
    pub len: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn flag_presets() {
        assert!(DescFlags::NEXT.next && !DescFlags::NEXT.write);
        assert!(DescFlags::WRITE.write && !DescFlags::WRITE.next);
        assert!(DescFlags::NEXT_WRITE.next && DescFlags::NEXT_WRITE.write);
        assert_eq!(DescFlags::default(), DescFlags::NONE);
    }

    #[test]
    fn chain_partitions_by_direction() {
        let mut chain = DescChain::new(3, Descriptor::readable(0x1000, 64));
        assert_eq!(chain.request(), chain.response(), "a chain of one is both headers");
        chain.push(Descriptor::readable(0x2000, 128));
        chain.push(Descriptor::writable(0x3000, 256));
        assert_eq!(chain.readable().count(), 2);
        assert_eq!(chain.writable().count(), 1);
        assert_eq!(chain.total_len(), 64 + 128 + 256);
        assert_eq!(chain.writable().next().unwrap().addr, 0x3000);
        assert_eq!((chain.request().addr, chain.response().addr), (0x1000, 0x3000));
    }

    #[test]
    fn a_descriptor_list_reads_the_same_inline_or_spilled() {
        let descs: Vec<Descriptor> = (0..9).map(|i| Descriptor::readable(i, i as u32)).collect();
        for n in 0..descs.len() {
            let list: DescList = descs[..n].iter().copied().collect();
            assert_eq!(&*list, &descs[..n], "{n} descriptors");
            assert_eq!(list.last(), descs[..n].last());
        }
    }
}
