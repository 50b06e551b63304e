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

use vphi_sim_core::cost::PAGE_SIZE;
use vphi_sync::{Counter, LockClass, TrackedMutex};

/// Tuning knobs for the registration cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegCacheConfig {
    /// Disabled reproduces the seed charging exactly (the Fig. 5 gap).
    pub enabled: bool,
    /// Maximum cached ranges per VM; least-recently-used beyond that.
    pub capacity: usize,
}

impl Default for RegCacheConfig {
    fn default() -> Self {
        RegCacheConfig { enabled: true, capacity: 128 }
    }
}

impl RegCacheConfig {
    /// Seed-faithful charging: every RMA pays full per-page translation.
    pub fn disabled() -> Self {
        RegCacheConfig { enabled: false, ..Self::default() }
    }
}

/// Lifetime counters, cheap enough to bump from the service loop.
#[derive(Debug, Default)]
pub struct RegCacheStats {
    pub hits: Counter,
    pub misses: Counter,
    pub evictions: Counter,
    pub invalidations: Counter,
}

/// A point-in-time copy of [`RegCacheStats`] for reports and tests.
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
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Last-touched tick (for LRU eviction).
    tick: u64,
    /// Whether the range is aperture-mapped (zero-copy path): evicting or
    /// invalidating it must also unmap the device subwindow.
    mapped: bool,
}

struct CacheInner {
    entries: HashMap<CacheKey, Entry>,
    tick: u64,
}

/// Result of a [`RegistrationCache::probe`]: whether the range was already
/// pinned, plus the `(epd, guest page)` keys of any *mapped* entries the
/// probe evicted — the caller owns unmapping those from the device
/// aperture before their subwindows can be considered free.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct MapProbe {
    pub hit: bool,
    pub evicted: Vec<(u64, u64)>,
}

/// Result of an invalidation sweep: entry count dropped, plus the mapped
/// keys the caller must unmap (see [`MapProbe`]).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Invalidated {
    pub dropped: usize,
    pub unmapped: Vec<(u64, u64)>,
}

/// The per-VM cache itself.  One instance lives in the backend device.
pub struct RegistrationCache {
    config: RegCacheConfig,
    pub stats: RegCacheStats,
    inner: TrackedMutex<CacheInner>,
}

impl std::fmt::Debug for RegistrationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegistrationCache")
            .field("config", &self.config)
            .field("len", &self.len())
            .finish()
    }
}

impl RegistrationCache {
    pub fn new(config: RegCacheConfig) -> Self {
        RegistrationCache {
            config,
            stats: RegCacheStats::default(),
            inner: TrackedMutex::new(
                LockClass::RegCache,
                CacheInner { entries: HashMap::new(), tick: 0 },
            ),
        }
    }

    pub fn config(&self) -> RegCacheConfig {
        self.config
    }

    pub fn enabled(&self) -> bool {
        self.config.enabled && self.config.capacity > 0
    }

    /// Cached ranges currently pinned.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn snapshot(&self) -> RegCacheSnapshot {
        RegCacheSnapshot {
            hits: self.stats.hits.get(),
            misses: self.stats.misses.get(),
            evictions: self.stats.evictions.get(),
            invalidations: self.stats.invalidations.get(),
        }
    }

    /// Probe for `(epd, gpa..gpa+bytes)`, the unified entry point of the
    /// copy path (`mapped = false`) and the zero-copy mapping path
    /// (`mapped = true`).  On a hit the pinned translation is reused (the
    /// caller skips the per-page / pin charge); a hit from the mapping
    /// path upgrades the entry's `mapped` flag so a later eviction knows
    /// to unmap.  On a miss the range is inserted, evicting the
    /// least-recently-used entry if full — any evicted *mapped* keys are
    /// returned for the caller to unmap.
    pub fn probe(&self, epd: u64, gpa: u64, bytes: u64, mapped: bool) -> MapProbe {
        if !self.enabled() {
            return MapProbe::default();
        }
        let key = CacheKey::new(epd, gpa, bytes);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.entries.get_mut(&key) {
            e.tick = tick;
            e.mapped |= mapped;
            self.stats.hits.bump();
            return MapProbe { hit: true, evicted: Vec::new() };
        }
        self.stats.misses.bump();
        let mut evicted = Vec::new();
        if inner.entries.len() >= self.config.capacity {
            if let Some(victim) = inner.entries.iter().min_by_key(|(_, e)| e.tick).map(|(&k, _)| k)
            {
                if let Some(e) = inner.entries.remove(&victim) {
                    if e.mapped {
                        evicted.push((victim.epd, victim.page_start));
                    }
                }
                self.stats.evictions.bump();
            }
        }
        inner.entries.insert(key, Entry { tick, mapped });
        MapProbe { hit: false, evicted }
    }

    /// Cached ranges currently flagged as aperture-mapped.
    pub fn mapped_len(&self) -> usize {
        self.inner.lock().entries.values().filter(|e| e.mapped).count()
    }

    /// Drop every cached range pinned for `epd` (endpoint closed).
    pub fn invalidate_endpoint(&self, epd: u64) -> Invalidated {
        self.invalidate_where(|k| k.epd == epd)
    }

    /// Drop cached ranges for `epd` whose pages overlap
    /// `gpa..gpa+bytes` (window unregistered / mapping torn down).
    pub fn invalidate_range(&self, epd: u64, gpa: u64, bytes: u64) -> Invalidated {
        let page_start = gpa / PAGE_SIZE;
        let page_end = (gpa + bytes.max(1)).div_ceil(PAGE_SIZE);
        self.invalidate_where(|k| k.epd == epd && k.overlaps_pages(page_start, page_end))
    }

    fn invalidate_where(&self, pred: impl Fn(&CacheKey) -> bool) -> Invalidated {
        let mut inner = self.inner.lock();
        let mut out = Invalidated::default();
        inner.entries.retain(|k, e| {
            if pred(k) {
                if e.mapped {
                    out.unmapped.push((k.epd, k.page_start));
                }
                out.dropped += 1;
                false
            } else {
                true
            }
        });
        self.stats.invalidations.add(out.dropped as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(capacity: usize) -> RegistrationCache {
        RegistrationCache::new(RegCacheConfig { enabled: true, capacity })
    }

    #[test]
    fn miss_then_hit_on_same_range() {
        let c = cache(8);
        assert!(!c.probe(1, 0x1000, 4096, false).hit);
        assert!(c.probe(1, 0x1000, 4096, false).hit);
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.hit_rate(), 0.5);
    }

    #[test]
    fn different_endpoint_or_range_is_a_miss() {
        let c = cache(8);
        c.probe(1, 0x1000, 4096, false);
        assert!(!c.probe(2, 0x1000, 4096, false).hit, "other endpoint");
        assert!(!c.probe(1, 0x2000, 4096, false).hit, "other range");
        assert!(!c.probe(1, 0x1000, 8192, false).hit, "other length");
        assert_eq!(c.snapshot().misses, 4);
    }

    #[test]
    fn sub_page_offsets_share_a_page_key() {
        let c = cache(8);
        c.probe(1, 0x1000, 100, false);
        // Same page span → same pinned range.
        assert!(c.probe(1, 0x1010, 80, false).hit);
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let c = cache(2);
        c.probe(1, 0x1000, 4096, false); // A
        c.probe(1, 0x2000, 4096, false); // B
        c.probe(1, 0x1000, 4096, false); // touch A → B is LRU
        c.probe(1, 0x3000, 4096, false); // C evicts B
        assert_eq!(c.snapshot().evictions, 1);
        assert_eq!(c.len(), 2);
        assert!(c.probe(1, 0x1000, 4096, false).hit, "A survived");
        assert!(!c.probe(1, 0x2000, 4096, false).hit, "B was evicted");
    }

    #[test]
    fn invalidate_endpoint_drops_only_that_endpoint() {
        let c = cache(8);
        c.probe(1, 0x1000, 4096, false);
        c.probe(1, 0x2000, 4096, false);
        c.probe(2, 0x1000, 4096, false);
        assert_eq!(c.invalidate_endpoint(1).dropped, 2);
        assert_eq!(c.len(), 1);
        assert!(c.probe(2, 0x1000, 4096, false).hit, "endpoint 2 untouched");
        assert_eq!(c.snapshot().invalidations, 2);
    }

    #[test]
    fn invalidate_range_uses_page_overlap() {
        let c = cache(8);
        c.probe(1, 0x1000, 8192, false); // pages 1..3
        c.probe(1, 0x5000, 4096, false); // page 5
                                         // Invalidate page 2 → overlaps the first entry only.
        assert_eq!(c.invalidate_range(1, 0x2000, 4096).dropped, 1);
        assert!(!c.probe(1, 0x1000, 8192, false).hit, "stale entry gone");
        assert!(c.probe(1, 0x5000, 4096, false).hit, "non-overlapping survives");
        // Same range, other endpoint: untouched.
        assert_eq!(c.invalidate_range(2, 0x0, 1 << 20).dropped, 0);
    }

    #[test]
    fn mapped_entries_surface_on_eviction_and_invalidation() {
        let c = cache(2);
        assert!(!c.probe(1, 0x1000, 4096, true).hit); // mapped A
        assert!(!c.probe(1, 0x2000, 4096, false).hit); // copy-path B
        assert_eq!(c.mapped_len(), 1);
        // Filling past capacity evicts A (LRU, mapped) — its key surfaces.
        let p = c.probe(1, 0x3000, 4096, false);
        assert!(!p.hit);
        assert_eq!(p.evicted, vec![(1, 0x1)], "mapped victim's key surfaces");
        // Next eviction takes B, a copy-path entry: nothing to unmap.
        let p = c.probe(1, 0x4000, 4096, true);
        assert_eq!(p.evicted, vec![] as Vec<(u64, u64)>, "copy-path victim needs no unmap");
        // Invalidation reports mapped keys the same way: C (copy) and
        // D (mapped) remain.
        let inv = c.invalidate_endpoint(1);
        assert_eq!(inv.dropped, 2);
        assert_eq!(inv.unmapped, vec![(1, 0x4)]);
        assert_eq!(c.mapped_len(), 0);
    }

    #[test]
    fn copy_path_hit_upgrades_to_mapped() {
        let c = cache(8);
        assert!(!c.probe(3, 0x1000, 4096, false).hit);
        assert_eq!(c.mapped_len(), 0);
        assert!(c.probe(3, 0x1000, 4096, true).hit, "hit upgrades in place");
        assert_eq!(c.mapped_len(), 1);
        let inv = c.invalidate_range(3, 0x1000, 4096);
        assert_eq!(inv.unmapped, vec![(3, 0x1)]);
    }

    #[test]
    fn disabled_cache_never_hits() {
        let c = RegistrationCache::new(RegCacheConfig::disabled());
        assert!(!c.enabled());
        assert!(!c.probe(1, 0x1000, 4096, false).hit);
        assert!(!c.probe(1, 0x1000, 4096, false).hit);
        let s = c.snapshot();
        assert_eq!((s.hits, s.misses), (0, 0), "disabled cache does not count");
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn zero_capacity_behaves_as_disabled() {
        let c = cache(0);
        assert!(!c.enabled());
        assert!(!c.probe(1, 0x1000, 4096, false).hit);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn zero_length_lookup_still_occupies_one_page() {
        let c = cache(8);
        assert!(!c.probe(1, 0x1000, 0, false).hit);
        assert!(c.probe(1, 0x1000, 0, false).hit);
    }
}
