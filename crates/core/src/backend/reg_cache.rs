//! Per-VM RMA **registration cache**.
//!
//! Fig. 5 of the paper shows vPHI remote reads topping out at ~72% of
//! native bandwidth.  The gap is the per-page pin + GPA→HVA translation
//! the backend pays on *every* RMA request (`PageTranslate`,
//! 249 ns/page), on top of the link's 640 ns/page: 640/(640+249) ≈ 0.72.
//! Native SCIF amortizes that work across requests because registration
//! pins the buffer once.
//!
//! This cache gives the backend the same amortization: the first RMA on
//! a guest buffer pays the full per-page translation and records the
//! pinned range; repeated RMAs on the same `(endpoint, range)` pay only a
//! constant-time probe (`RegCacheLookup`).  Entries are invalidated when
//! the pinned translation can go stale: `scif_unregister` of an
//! overlapping window, endpoint close, and mmap teardown.
//!
//! The cache only changes what a request is *charged* — data movement is
//! unaffected — so with the cache disabled the simulation reproduces the
//! seed (and the paper's Fig. 5 shape) exactly.

use std::collections::HashMap;

use vphi_pcie::MapKey;
use vphi_sim_core::cost::PAGE_SIZE;

/// Cached ranges per VM; least-recently-used beyond that.
const CAPACITY: usize = 128;

/// The cache's lifetime counters, as reports and tests read them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegCacheSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl RegCacheSnapshot {
    /// Fraction of lookups served from the cache (0 when never probed).
    pub fn hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

/// An exact pinned range: the endpoint it was pinned for and the guest
/// page span.  Exact-match keys mirror how real RMA workloads re-issue
/// transfers on the same registered buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    epd: u64,
    page_start: u64,
    pages: u64,
}

impl CacheKey {
    fn new(epd: u64, gpa: u64, bytes: u64) -> Self {
        let page_start = gpa / PAGE_SIZE;
        let page_end = (gpa + bytes.max(1)).div_ceil(PAGE_SIZE);
        CacheKey { epd, page_start, pages: page_end - page_start }
    }

    fn overlaps_pages(&self, page_start: u64, page_end: u64) -> bool {
        self.page_start < page_end && page_start < self.page_start + self.pages
    }

    /// The key the mapped arm files this range's device subwindow under.
    fn map_key(&self) -> MapKey {
        (self.epd, self.page_start)
    }
}

/// The per-VM cache itself: a plain table, locked by its one owner
/// (`backend/holdings.rs`), which is also who asks the aperture whether a
/// range this table let go of was mapped.
#[derive(Debug)]
pub(super) struct RegistrationCache {
    /// Most ranges held pinned at once; 0 is a cache that is off.
    capacity: usize,
    stats: RegCacheSnapshot,
    /// Pinned range → last-touched tick (for LRU eviction).
    entries: HashMap<CacheKey, u64>,
    tick: u64,
}

impl RegistrationCache {
    /// The backend's cache, or with `enabled` off one that never hits:
    /// every RMA then pays the full per-page translation (the seed's
    /// charging, the Fig. 5 gap).
    pub fn new(enabled: bool) -> Self {
        Self::with_capacity(if enabled { CAPACITY } else { 0 })
    }

    fn with_capacity(capacity: usize) -> Self {
        RegistrationCache {
            capacity,
            stats: RegCacheSnapshot::default(),
            entries: HashMap::new(),
            tick: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Cached ranges currently pinned.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn snapshot(&self) -> RegCacheSnapshot {
        self.stats
    }

    /// Probe for `(epd, gpa..gpa+bytes)`.  On a hit the pinned translation
    /// is reused (the caller skips the per-page / pin charge).  On a miss
    /// the range is inserted, evicting the least-recently-used entry if
    /// full.  Returns whether it hit, and the map key of the range it
    /// evicted to make room.
    pub fn probe(&mut self, epd: u64, gpa: u64, bytes: u64) -> (bool, Option<MapKey>) {
        if !self.enabled() {
            return (false, None);
        }
        let key = CacheKey::new(epd, gpa, bytes);
        self.tick += 1;
        if let Some(tick) = self.entries.get_mut(&key) {
            *tick = self.tick;
            self.stats.hits += 1;
            return (true, None);
        }
        self.stats.misses += 1;
        let mut evicted = None;
        if self.entries.len() >= self.capacity {
            if let Some(victim) = self.entries.iter().min_by_key(|(_, &tick)| tick).map(|(&k, _)| k)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
                evicted = Some(victim.map_key());
            }
        }
        self.entries.insert(key, self.tick);
        (false, evicted)
    }

    /// Drop every cached range pinned for `epd` (endpoint closed).
    /// Returns how many went.
    pub fn invalidate_endpoint(&mut self, epd: u64) -> usize {
        self.invalidate_where(|k| k.epd == epd).len()
    }

    /// Drop cached ranges for `epd` whose pages overlap `gpa..gpa+bytes`
    /// (window unregistered).  Returns the map key of each one dropped.
    pub fn invalidate_range(&mut self, epd: u64, gpa: u64, bytes: u64) -> Vec<MapKey> {
        let page_start = gpa / PAGE_SIZE;
        let page_end = (gpa + bytes.max(1)).div_ceil(PAGE_SIZE);
        self.invalidate_where(|k| k.epd == epd && k.overlaps_pages(page_start, page_end))
    }

    fn invalidate_where(&mut self, pred: impl Fn(&CacheKey) -> bool) -> Vec<MapKey> {
        let mut dropped = Vec::new();
        self.entries.retain(|k, _| {
            let goes = pred(k);
            if goes {
                dropped.push(k.map_key());
            }
            !goes
        });
        self.stats.invalidations += dropped.len() as u64;
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> RegistrationCache {
        RegistrationCache::with_capacity(capacity)
    }

    fn hit(c: &mut RegistrationCache, epd: u64, gpa: u64, bytes: u64) -> bool {
        c.probe(epd, gpa, bytes).0
    }

    #[test]
    fn miss_then_hit_on_same_range() {
        let mut c = cache(8);
        assert!(!hit(&mut c, 1, 0x1000, 4096));
        assert!(hit(&mut c, 1, 0x1000, 4096));
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn different_endpoint_or_range_is_a_miss() {
        let mut c = cache(8);
        c.probe(1, 0x1000, 4096);
        assert!(!hit(&mut c, 2, 0x1000, 4096), "other endpoint");
        assert!(!hit(&mut c, 1, 0x2000, 4096), "other range");
        assert!(!hit(&mut c, 1, 0x1000, 8192), "other length");
        assert_eq!(c.snapshot().misses, 4);
    }

    #[test]
    fn sub_page_offsets_share_a_page_key() {
        let mut c = cache(8);
        c.probe(1, 0x1000, 100);
        // Same page span → same pinned range.
        assert!(hit(&mut c, 1, 0x1010, 80));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut c = cache(2);
        c.probe(1, 0x1000, 4096); // A
        c.probe(1, 0x2000, 4096); // B
        c.probe(1, 0x1000, 4096); // touch A → B is LRU
        assert_eq!(c.probe(1, 0x3000, 4096), (false, Some((1, 0x2))), "C evicts B");
        assert_eq!(c.snapshot().evictions, 1);
        assert_eq!(c.len(), 2);
        assert!(hit(&mut c, 1, 0x1000, 4096), "A survived");
        assert!(!hit(&mut c, 1, 0x2000, 4096), "B was evicted");
    }

    #[test]
    fn invalidate_endpoint_drops_only_that_endpoint() {
        let mut c = cache(8);
        c.probe(1, 0x1000, 4096);
        c.probe(1, 0x2000, 4096);
        c.probe(2, 0x1000, 4096);
        assert_eq!(c.invalidate_endpoint(1), 2);
        assert_eq!(c.len(), 1);
        assert!(hit(&mut c, 2, 0x1000, 4096), "endpoint 2 untouched");
        assert_eq!(c.snapshot().invalidations, 2);
    }

    #[test]
    fn invalidate_range_uses_page_overlap() {
        let mut c = cache(8);
        c.probe(1, 0x1000, 8192); // pages 1..3
        c.probe(1, 0x5000, 4096); // page 5
                                  // Invalidate page 2 → overlaps the first entry only.
        assert_eq!(c.invalidate_range(1, 0x2000, 4096), [(1, 0x1)]);
        assert!(!hit(&mut c, 1, 0x1000, 8192), "stale entry gone");
        assert!(hit(&mut c, 1, 0x5000, 4096), "non-overlapping survives");
        // Same range, other endpoint: untouched.
        assert_eq!(c.invalidate_range(2, 0x0, 1 << 20), []);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let mut c = RegistrationCache::new(false);
        assert!(!c.enabled());
        assert!(!hit(&mut c, 1, 0x1000, 4096));
        assert!(!hit(&mut c, 1, 0x1000, 4096));
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses), (0, 0), "disabled cache does not count");
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn zero_capacity_behaves_as_disabled() {
        let mut c = cache(0);
        assert!(!c.enabled());
        assert!(!hit(&mut c, 1, 0x1000, 4096));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn zero_length_lookup_still_occupies_one_page() {
        let mut c = cache(8);
        assert!(!hit(&mut c, 1, 0x1000, 0));
        assert!(hit(&mut c, 1, 0x1000, 0));
    }
}
