//! What a guest endpoint holds on the host, and the one way it is let go
//! (DESIGN.md #26).
//!
//! An endpoint descriptor stands for a host SCIF endpoint, the guest
//! windows registered on it, the pinned translations the registration
//! cache remembers for it and the device-aperture subwindows the mapped
//! RMA arm made for it.  All four live here, the first three under one
//! lock, and every way an endpoint ends — `scif_close`, `scif_unregister`,
//! `munmap`, a card reset, the guest's death, the device stopping — goes
//! through [`Holdings::release`].  Nothing outside this file maps or unmaps
//! an aperture window or invalidates the cache, so "the record is gone"
//! means "nothing is held".
//!
//! The lock is never held across anything that blocks: a release takes
//! what it lets go of out from under the lock, then — unlocked — closes
//! the endpoints (which wakes handlers parked inside them) and unmaps the
//! subwindows (`unmap_window` waits for in-flight descriptor lists).
//! Mapping, which does not block, happens *under* the lock, so a release
//! that follows sees every mapping made for the record it took.

use std::collections::BTreeMap;
use std::sync::Arc;

use vphi_pcie::{Aperture, ApertureMap, IoGuard, MapKey};
use vphi_scif::{NodeId, ScifAddr, ScifEndpoint, ScifError, ScifResult};
use vphi_sim_core::cost::{HUGE_PAGE_SIZE, PAGE_SIZE};
use vphi_sync::{LockClass, TrackedMutex};

use super::reg_cache::{RegCacheSnapshot, RegistrationCache};

/// A registered guest window: where the endpoint's window table put it
/// and the guest range that backs it.
struct Window {
    offset: u64,
    gpa: u64,
    len: u64,
}

/// One endpoint descriptor's record.
struct Held {
    ep: Arc<ScifEndpoint>,
    windows: Vec<Window>,
}

/// Records per slab page.
const PAGE_SLOTS: usize = 64;

/// Epds are handed out in order and never reused, so the table is a slab
/// indexed by epd — in pages, keyed by page number, so that one long-lived
/// endpoint keeps neither a slot nor a page for the descriptors handed out
/// after it: a page whose descriptors have all been handed out and closed
/// goes.
type Pages = BTreeMap<usize, Vec<Option<Held>>>;

/// The endpoint records and the registration cache, under one lock.
struct Table {
    pages: Pages,
    next_epd: u64,
    /// The guest died or the device stopped: nothing is admitted any more.
    dead: bool,
    cache: RegistrationCache,
}

/// `(page, slot)` of `epd`.
fn place(epd: u64) -> (usize, usize) {
    ((epd / PAGE_SLOTS as u64) as usize, (epd % PAGE_SLOTS as u64) as usize)
}

fn held(pages: &mut Pages, epd: u64) -> Option<&mut Held> {
    let (page, slot) = place(epd);
    pages.get_mut(&page)?.get_mut(slot)?.as_mut()
}

/// Every record, with its epd.
fn records(pages: &mut Pages) -> impl Iterator<Item = (u64, &mut Held)> {
    pages.iter_mut().flat_map(|(&page, slots)| {
        let epd = move |slot| (page * PAGE_SLOTS + slot) as u64;
        slots
            .iter_mut()
            .enumerate()
            .filter_map(move |(slot, held)| Some((epd(slot), held.as_mut()?)))
    })
}

impl Table {
    fn insert(&mut self, held: Held) -> u64 {
        let epd = self.next_epd;
        self.next_epd += 1;
        // In order: a page's next free slot is the one `epd` indexes, and
        // a page that went was full, so nothing is filed on it again.
        let (page, _) = place(epd);
        let slots = self.pages.entry(page).or_insert_with(|| Vec::with_capacity(PAGE_SLOTS));
        slots.push(Some(held));
        epd
    }

    fn take(&mut self, epd: u64) -> Option<Held> {
        let (page, slot) = place(epd);
        let slots = self.pages.get_mut(&page)?;
        let held = slots.get_mut(slot)?.take()?;
        if slots.len() == PAGE_SLOTS && slots.iter().all(Option::is_none) {
            self.pages.remove(&page);
        }
        Some(held)
    }
}

/// What one release took out from under the lock, for [`Holdings::release`]
/// to finish with no lock held.
#[derive(Default)]
struct Released {
    /// Endpoints to close …
    eps: Vec<Arc<ScifEndpoint>>,
    /// … or to abort, when the guest keeps their descriptors (quarantine).
    abort: bool,
    /// Window registrations that went with them.
    windows: usize,
    /// Subwindows to unmap if the aperture has them …
    keys: Vec<MapKey>,
    /// … and endpoints to unmap everything of.
    epds: Vec<u64>,
}

impl Released {
    /// The endpoint is closed and everything `held` pinned for `epd` goes:
    /// its windows, its cached translations, its subwindows.
    fn strip(&mut self, cache: &mut RegistrationCache, epd: u64, held: &mut Held) {
        self.eps.push(Arc::clone(&held.ep));
        self.windows += std::mem::take(&mut held.windows).len();
        cache.invalidate_endpoint(epd);
        self.epds.push(epd);
    }
}

/// A mapped RMA's device subwindow ([`Holdings::probe_map`]).
pub(super) struct Mapping<'a> {
    /// Whether the window had to be pinned and mapped for this request.
    pub cold: bool,
    pub sub: Aperture,
    /// Held for the duration of the transfer, so an unmap quiesces behind
    /// it.
    pub io: Option<IoGuard<'a>>,
}

/// Everything the guest's endpoint descriptors hold.
pub struct Holdings {
    table: TrackedMutex<Table>,
    /// Whether the registration cache is on: a probe of one that is off
    /// never hits, and the caller charges no lookup for it.
    pub(super) cache_enabled: bool,
    /// Window-mapping table for `RmaCharge::Mapped`: registered guest
    /// windows pinned into huge-page subwindows of one large device
    /// aperture.
    aperture: ApertureMap,
}

impl Holdings {
    pub(super) fn new(cache: bool) -> Self {
        let cache = RegistrationCache::new(cache);
        Holdings {
            cache_enabled: cache.enabled(),
            // Epd 0 is never handed out.
            table: TrackedMutex::new(
                LockClass::BackendEndpoints,
                Table { pages: Pages::from([(0, vec![None])]), next_epd: 1, dead: false, cache },
            ),
            // 64 GiB of device aperture at the 1 TiB mark — far above any
            // guest RAM so map bugs fault loudly, and big enough that
            // exhaustion only happens via leaks.
            aperture: ApertureMap::new(Aperture::new(1 << 40, 64 << 30)),
        }
    }

    /// Endpoint descriptors the guest holds.
    pub fn open_endpoints(&self) -> usize {
        records(&mut self.table.lock().pages).count()
    }

    /// Guest windows still registered (leak detector).
    pub fn window_entries(&self) -> usize {
        records(&mut self.table.lock().pages).map(|(_, held)| held.windows.len()).sum()
    }

    /// Ranges the registration cache holds pinned.
    pub fn cached_ranges(&self) -> usize {
        self.table.lock().cache.len()
    }

    pub fn cache_snapshot(&self) -> RegCacheSnapshot {
        self.table.lock().cache.snapshot()
    }

    /// The window-mapping table, for audits (`mapped_windows`,
    /// `inflight_total`).
    pub fn aperture(&self) -> &ApertureMap {
        &self.aperture
    }

    /// File a new endpoint and name it.  A dead backend admits nothing:
    /// the endpoint is closed and the caller told `ENODEV`.
    pub(super) fn insert(&self, ep: ScifEndpoint) -> ScifResult<u64> {
        let mut table = self.table.lock();
        if table.dead {
            drop(table);
            ep.close();
            return Err(ScifError::NoDev);
        }
        Ok(table.insert(Held { ep: Arc::new(ep), windows: Vec::new() }))
    }

    pub(super) fn get(&self, epd: u64) -> ScifResult<Arc<ScifEndpoint>> {
        let mut table = self.table.lock();
        held(&mut table.pages, epd).map(|held| Arc::clone(&held.ep)).ok_or(ScifError::Inval)
    }

    /// Remember that `gpa..gpa+len` backs the window the endpoint just
    /// registered at `offset`, so that unregistering it drops the
    /// translations cached over those pages.  `ENODEV` if the record went
    /// while the window was being made: the caller takes the window back.
    pub(super) fn note_window(&self, epd: u64, offset: u64, gpa: u64, len: u64) -> ScifResult<()> {
        let mut table = self.table.lock();
        let held = held(&mut table.pages, epd).ok_or(ScifError::NoDev)?;
        held.windows.push(Window { offset, gpa, len });
        Ok(())
    }

    /// The staged arms' probe: is `gpa..gpa+len` already pinned for `epd`?
    /// A miss pins it.
    pub(super) fn probe_copy(&self, epd: u64, gpa: u64, len: u64) -> ScifResult<bool> {
        self.release(|table, out| {
            held(&mut table.pages, epd).ok_or(ScifError::Inval)?;
            let (hit, evicted) = table.cache.probe(epd, gpa, len);
            out.keys.extend(evicted);
            Ok(hit)
        })
    }

    /// The mapped arm's probe: pin `gpa..gpa+len` and map it into the
    /// device aperture unless both were done already.  An aperture with no
    /// room for the window is `ENOMEM`.
    pub(super) fn probe_map(&self, epd: u64, gpa: u64, len: u64) -> ScifResult<Mapping<'_>> {
        let key: MapKey = (epd, gpa / PAGE_SIZE);
        let mut table = self.table.lock();
        held(&mut table.pages, epd).ok_or(ScifError::Inval)?;
        let (hit, evicted) = table.cache.probe(epd, gpa, len);
        if evicted.is_some() {
            // The victim's subwindow goes before this request's is made —
            // it may be filed under the same key — and not under the lock.
            drop(table);
            self.release(|_, out| out.keys.extend(evicted));
            table = self.table.lock();
            held(&mut table.pages, epd).ok_or(ScifError::Inval)?;
        }
        // Mapping does not block, and under the lock a release that follows
        // sees it.
        let cold = !hit || self.aperture.lookup(key).is_none();
        // The mapping covers from the window's containing huge page so an
        // unaligned start still lands inside the subwindow.
        let sub = self.aperture.map_window(key, (gpa % HUGE_PAGE_SIZE) + len);
        Ok(Mapping { cold, sub: sub.ok_or(ScifError::NoMem)?, io: self.aperture.begin_io(key) })
    }

    /// `scif_unregister`: the windows of `epd` overlapping
    /// `offset..offset+len` are gone, and with them every translation
    /// cached over their pages.
    pub(super) fn release_range(&self, epd: u64, offset: u64, len: u64) {
        self.release(|Table { pages, cache, .. }, out| {
            let Some(held) = held(pages, epd) else { return };
            held.windows.retain(|w| {
                let gone = w.offset < offset + len && offset < w.offset + w.len;
                if gone {
                    out.keys.extend(cache.invalidate_range(epd, w.gpa, w.len));
                    // With the cache off the mapping is filed under the
                    // window's first page and nothing else remembers it.
                    out.keys.push((epd, w.gpa / PAGE_SIZE));
                }
                !gone
            });
        })
    }

    /// `munmap` of a device mapping made through `epd`: tearing it down can
    /// release device pages the cache assumed pinned for the endpoint, so
    /// its translations and subwindows go; its windows stay registered.
    pub(super) fn release_translations(&self, epd: u64) {
        self.release(|table, out| {
            table.cache.invalidate_endpoint(epd);
            out.epds.push(epd);
        })
    }

    /// `scif_close`: the record and everything under it.  Whether there
    /// was one.
    pub(super) fn release_endpoint(&self, epd: u64) -> bool {
        self.release(|table, out| {
            let held = table.take(epd);
            held.map(|mut held| out.strip(&mut table.cache, epd, &mut held)).is_some()
        })
    }

    /// Card-reset recovery: every endpoint that touched `node` is aborted
    /// and stripped of what it held, but its record stays, so that the
    /// guest's own `scif_close` still succeeds once (close is idempotent)
    /// before the descriptor goes invalid.  How many there were.
    pub(super) fn quarantine(&self, node: NodeId) -> usize {
        self.release(|Table { pages, cache, .. }, out| {
            out.abort = true;
            let on_node = |addr: Option<ScifAddr>| addr.is_some_and(|a| a.node == node);
            for (epd, held) in records(pages) {
                if on_node(held.ep.local_addr()) || on_node(held.ep.peer_addr()) {
                    out.strip(cache, epd, held);
                }
            }
            out.eps.len()
        })
    }

    /// The guest died or the device is stopping: nothing is admitted from
    /// here on and every record goes.  `(endpoints, windows)` released.
    pub(super) fn release_all(&self) -> (usize, usize) {
        self.release(|table, out| {
            table.dead = true;
            let Table { pages, cache, .. } = table;
            for (epd, held) in records(pages) {
                out.strip(cache, epd, held);
            }
            *pages = Pages::new();
            (out.eps.len(), out.windows)
        })
    }

    /// The one release path.  `take` says, under the lock, what goes; it
    /// is let go of with the lock dropped: closing wakes whoever is parked
    /// inside the endpoint, unmapping waits for the descriptor lists in
    /// flight over the subwindow.
    fn release<R>(&self, take: impl FnOnce(&mut Table, &mut Released) -> R) -> R {
        let mut out = Released::default();
        let taken = take(&mut self.table.lock(), &mut out);
        for ep in &out.eps {
            if out.abort {
                ep.core().abort();
            } else {
                ep.close();
            }
        }
        for &key in &out.keys {
            self.aperture.unmap_window(key);
        }
        for &epd in &out.epds {
            self.aperture.unmap_endpoint(epd);
        }
        taken
    }
}

#[cfg(test)]
mod tests {
    use vphi_scif::{ScifFabric, HOST_NODE};
    use vphi_sim_core::CostModel;

    use super::*;

    /// A guest that keeps one endpoint open and opens and closes others
    /// forever keeps two pages: the long-lived endpoint's and the one being
    /// filled.  Emptied pages used to stay in the table, one per 64 epds.
    #[test]
    fn a_long_lived_endpoint_does_not_pin_the_pages_after_it() {
        let fabric = ScifFabric::new(Arc::new(CostModel::paper_calibrated()));
        let open = || ScifEndpoint::open(&fabric, HOST_NODE).unwrap();
        let holdings = Holdings::new(true);
        let kept = holdings.insert(open()).unwrap();
        for expected in kept + 1..kept + 10_001 {
            let epd = holdings.insert(open()).unwrap();
            assert_eq!(epd, expected, "epds stay sequential");
            assert!(holdings.release_endpoint(epd));
        }
        assert_eq!(holdings.table.lock().pages.len(), 2);
        assert_eq!(holdings.open_endpoints(), 1);
        assert!(holdings.get(kept).is_ok());
    }
}
