//! Per-processor memory management unit, modelled on the Rosetta-C.
//!
//! Each ACE processor module translates virtual addresses through its own
//! Rosetta MMU. Two properties of that hardware matter to the NUMA layer:
//!
//! * translations are per-processor, so the same virtual page can map to
//!   *different* physical frames on different processors — this is what
//!   makes page replication in local memories possible at all; and
//! * Rosetta's inverted page table allows only **one virtual address per
//!   physical page per processor**; entering a second virtual mapping for
//!   a frame silently displaces the first, producing an extra fault when
//!   the displaced address is touched again (section 2.3.1 of the paper).
//!
//! A mapping is identified by an address-space id (one per pmap/task) and
//! a virtual page number.

use crate::idhash::IdHashMap;
use crate::mem::Frame;
use crate::prot::Prot;
use crate::time::Access;

/// Address-space identifier (one per pmap).
pub type Asid = u32;

/// A virtual page number within an address space.
pub type Vpn = u64;

/// Why a translation failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MmuFault {
    /// No translation present for the virtual page.
    NotMapped,
    /// A translation exists but does not permit the attempted access.
    Protection {
        /// The protection the existing mapping carries.
        have: Prot,
    },
}

/// One entry of the (per-processor) translation table.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Mapping {
    /// Physical frame the page maps to.
    pub frame: Frame,
    /// Permissions of this mapping (may be stricter than what the user is
    /// allowed; the NUMA layer tightens protections to drive its
    /// consistency protocol).
    pub prot: Prot,
    /// Hardware referenced bit (set on any successful translation).
    pub referenced: bool,
    /// Hardware modified bit (set on successful write translation).
    pub modified: bool,
}

/// Counters exposed for tests and reporting.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MmuStats {
    /// Successful translations.
    pub hits: u64,
    /// Faults of either kind.
    pub faults: u64,
    /// Mappings displaced by Rosetta's one-virtual-address-per-frame
    /// restriction.
    pub displaced: u64,
}

/// The translation hardware of one processor.
pub struct Mmu {
    /// Forward map: (asid, vpn) -> mapping.
    map: IdHashMap<(Asid, Vpn), Mapping>,
    /// Inverted map enforcing the Rosetta restriction:
    /// frame -> the single (asid, vpn) mapped to it on this processor.
    by_frame: IdHashMap<Frame, (Asid, Vpn)>,
    stats: MmuStats,
    /// Invalidation epoch: bumped on every mutation of the translation
    /// table (enter, remove, protect, reference/modified-bit clearing).
    /// Software caches of translations — the simulator's per-thread TLB
    /// — record the epoch they were filled at and treat any bump as a
    /// wholesale invalidation, so an unmap, protection change or
    /// shootdown on this processor can never be served from a stale
    /// cached translation.
    epoch: u64,
}

impl Mmu {
    /// An MMU with no translations.
    pub fn new() -> Mmu {
        Mmu {
            map: IdHashMap::default(),
            by_frame: IdHashMap::default(),
            stats: MmuStats::default(),
            epoch: 0,
        }
    }

    /// The current invalidation epoch. A cached translation is valid
    /// only while the epoch it was captured at is still current.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Translates `(asid, vpn)` for an access of kind `kind`, updating
    /// referenced/modified bits on success.
    #[inline]
    pub fn translate(&mut self, asid: Asid, vpn: Vpn, kind: Access) -> Result<Frame, MmuFault> {
        match self.map.get_mut(&(asid, vpn)) {
            None => {
                self.stats.faults += 1;
                Err(MmuFault::NotMapped)
            }
            Some(m) => {
                let ok = match kind {
                    Access::Fetch => m.prot.allows_read(),
                    Access::Store => m.prot.allows_write(),
                };
                if ok {
                    m.referenced = true;
                    if kind == Access::Store {
                        m.modified = true;
                    }
                    self.stats.hits += 1;
                    Ok(m.frame)
                } else {
                    self.stats.faults += 1;
                    Err(MmuFault::Protection { have: m.prot })
                }
            }
        }
    }

    /// Looks up a mapping without touching referenced/modified bits or
    /// statistics (a kernel/debugger probe, not a hardware translation).
    pub fn probe(&self, asid: Asid, vpn: Vpn) -> Option<Mapping> {
        self.map.get(&(asid, vpn)).copied()
    }

    /// Installs a translation. If the frame is already mapped at a
    /// *different* virtual address on this processor, that older mapping
    /// is displaced first (the Rosetta restriction). Returns the displaced
    /// virtual page, if any.
    pub fn enter(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        frame: Frame,
        prot: Prot,
    ) -> Option<(Asid, Vpn)> {
        debug_assert!(prot != Prot::NONE, "entering a useless mapping");
        self.epoch += 1;
        let mut displaced = None;
        if let Some(&(old_as, old_vpn)) = self.by_frame.get(&frame) {
            if (old_as, old_vpn) != (asid, vpn) {
                self.map.remove(&(old_as, old_vpn));
                self.stats.displaced += 1;
                displaced = Some((old_as, old_vpn));
            }
        }
        // If this vpn previously pointed at another frame, drop the stale
        // inverted entry for that frame.
        if let Some(old) = self.map.get(&(asid, vpn)) {
            if old.frame != frame {
                self.by_frame.remove(&old.frame);
            }
        }
        self.by_frame.insert(frame, (asid, vpn));
        self.map.insert(
            (asid, vpn),
            Mapping { frame, prot, referenced: false, modified: false },
        );
        displaced
    }

    /// Removes the translation for `(asid, vpn)`, returning it.
    pub fn remove(&mut self, asid: Asid, vpn: Vpn) -> Option<Mapping> {
        let m = self.map.remove(&(asid, vpn))?;
        self.by_frame.remove(&m.frame);
        self.epoch += 1;
        Some(m)
    }

    /// Removes whatever translation points at `frame`, returning the
    /// virtual page and the mapping.
    pub fn remove_frame(&mut self, frame: Frame) -> Option<(Asid, Vpn, Mapping)> {
        let (asid, vpn) = self.by_frame.remove(&frame)?;
        let m = self.map.remove(&(asid, vpn))?;
        self.epoch += 1;
        Some((asid, vpn, m))
    }

    /// Tightens (or changes) the protection on an existing mapping.
    /// Returns false if there is no such mapping.
    pub fn protect(&mut self, asid: Asid, vpn: Vpn, prot: Prot) -> bool {
        match self.map.get_mut(&(asid, vpn)) {
            Some(m) => {
                m.prot = prot;
                self.epoch += 1;
                true
            }
            None => false,
        }
    }

    /// Removes every mapping belonging to `asid` (pmap destruction).
    pub fn remove_asid(&mut self, asid: Asid) {
        let victims: Vec<(Asid, Vpn)> =
            self.map.keys().filter(|(a, _)| *a == asid).copied().collect();
        for key in victims {
            if let Some(m) = self.map.remove(&key) {
                self.by_frame.remove(&m.frame);
                self.epoch += 1;
            }
        }
    }

    /// Reads and clears the referenced bit of whatever mapping points at
    /// `frame` on this processor. Returns `None` if the frame is not
    /// mapped here.
    pub fn take_referenced_frame(&mut self, frame: Frame) -> Option<bool> {
        let &(asid, vpn) = self.by_frame.get(&frame)?;
        let m = self.map.get_mut(&(asid, vpn))?;
        // Clearing the referenced bit must invalidate cached
        // translations: a fast path reusing one would otherwise skip the
        // re-translation that sets the bit again.
        self.epoch += 1;
        Some(std::mem::replace(&mut m.referenced, false))
    }

    /// Reads and clears the modified bit of a mapping.
    pub fn take_modified(&mut self, asid: Asid, vpn: Vpn) -> bool {
        match self.map.get_mut(&(asid, vpn)) {
            Some(m) => {
                self.epoch += 1;
                std::mem::replace(&mut m.modified, false)
            }
            None => false,
        }
    }

    /// Iterates over every live translation on this processor (used by
    /// the kernel's consistency audit to cross-check the MMU against the
    /// NUMA directory). Order is unspecified.
    pub fn mappings(&self) -> impl Iterator<Item = ((Asid, Vpn), Mapping)> + '_ {
        self.map.iter().map(|(&k, &m)| (k, m))
    }

    /// Current statistics.
    pub fn stats(&self) -> MmuStats {
        self.stats
    }

    /// Number of live translations (all address spaces).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the MMU holds no translations.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Default for Mmu {
    fn default() -> Self {
        Mmu::new()
    }
}

/// Convenience re-export so callers can say `AccessKind::Fetch`.
pub use crate::time::Access as AccessKind;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Frame;
    use crate::types::NodeId;

    const AS: Asid = 1;

    #[test]
    fn translate_unmapped_faults() {
        let mut mmu = Mmu::new();
        assert_eq!(mmu.translate(AS, 5, Access::Fetch), Err(MmuFault::NotMapped));
        assert_eq!(mmu.stats().faults, 1);
    }

    #[test]
    fn enter_then_translate() {
        let mut mmu = Mmu::new();
        let f = Frame::global(3);
        assert_eq!(mmu.enter(AS, 5, f, Prot::READ), None);
        assert_eq!(mmu.translate(AS, 5, Access::Fetch), Ok(f));
        assert_eq!(
            mmu.translate(AS, 5, Access::Store),
            Err(MmuFault::Protection { have: Prot::READ })
        );
        assert_eq!(mmu.stats().hits, 1);
        assert_eq!(mmu.stats().faults, 1);
    }

    #[test]
    fn referenced_and_modified_bits() {
        let mut mmu = Mmu::new();
        let f = Frame::local(NodeId(0), 1);
        mmu.enter(AS, 9, f, Prot::READ_WRITE);
        assert!(!mmu.probe(AS, 9).unwrap().referenced);
        mmu.translate(AS, 9, Access::Fetch).unwrap();
        assert!(mmu.probe(AS, 9).unwrap().referenced);
        assert!(!mmu.probe(AS, 9).unwrap().modified);
        mmu.translate(AS, 9, Access::Store).unwrap();
        assert!(mmu.take_modified(AS, 9));
        assert!(!mmu.take_modified(AS, 9), "take_modified clears the bit");
    }

    #[test]
    fn rosetta_one_vaddr_per_frame() {
        let mut mmu = Mmu::new();
        let f = Frame::global(7);
        mmu.enter(AS, 1, f, Prot::READ);
        // Mapping the same frame at a second virtual address displaces the
        // first mapping.
        let displaced = mmu.enter(AS, 2, f, Prot::READ);
        assert_eq!(displaced, Some((AS, 1)));
        assert_eq!(mmu.translate(AS, 1, Access::Fetch), Err(MmuFault::NotMapped));
        assert_eq!(mmu.translate(AS, 2, Access::Fetch), Ok(f));
        assert_eq!(mmu.stats().displaced, 1);
    }

    #[test]
    fn re_enter_same_vpn_replaces_frame() {
        let mut mmu = Mmu::new();
        let f1 = Frame::global(1);
        let f2 = Frame::local(NodeId(0), 2);
        mmu.enter(AS, 4, f1, Prot::READ);
        assert_eq!(mmu.enter(AS, 4, f2, Prot::READ_WRITE), None);
        assert_eq!(mmu.translate(AS, 4, Access::Store), Ok(f2));
        // The inverted entry for f1 must be gone: mapping f1 elsewhere
        // displaces nothing.
        assert_eq!(mmu.enter(AS, 8, f1, Prot::READ), None);
    }

    #[test]
    fn remove_frame_drops_mapping() {
        let mut mmu = Mmu::new();
        let f = Frame::global(2);
        mmu.enter(AS, 3, f, Prot::READ_WRITE);
        let (asid, vpn, m) = mmu.remove_frame(f).unwrap();
        assert_eq!((asid, vpn), (AS, 3));
        assert_eq!(m.frame, f);
        assert!(mmu.is_empty());
        assert!(mmu.remove_frame(f).is_none());
    }

    #[test]
    fn protect_tightens_permissions() {
        let mut mmu = Mmu::new();
        let f = Frame::global(0);
        mmu.enter(AS, 1, f, Prot::READ_WRITE);
        assert!(mmu.protect(AS, 1, Prot::READ));
        assert_eq!(
            mmu.translate(AS, 1, Access::Store),
            Err(MmuFault::Protection { have: Prot::READ })
        );
        assert!(!mmu.protect(AS, 99, Prot::READ));
    }

    #[test]
    fn remove_asid_clears_only_that_space() {
        let mut mmu = Mmu::new();
        mmu.enter(1, 1, Frame::global(1), Prot::READ);
        mmu.enter(2, 1, Frame::global(2), Prot::READ);
        mmu.remove_asid(1);
        assert!(mmu.probe(1, 1).is_none());
        assert!(mmu.probe(2, 1).is_some());
    }

    #[test]
    fn epoch_bumps_on_every_mutation_and_only_on_mutation() {
        let mut mmu = Mmu::new();
        let e0 = mmu.epoch();
        // Probes and translations (even faulting ones) leave the epoch
        // alone: they never change the table.
        assert!(mmu.probe(AS, 1).is_none());
        assert_eq!(mmu.translate(AS, 1, Access::Fetch), Err(MmuFault::NotMapped));
        assert_eq!(mmu.epoch(), e0);

        let f = Frame::global(1);
        mmu.enter(AS, 1, f, Prot::READ_WRITE);
        let e1 = mmu.epoch();
        assert!(e1 > e0, "enter bumps");
        mmu.translate(AS, 1, Access::Store).unwrap();
        assert_eq!(mmu.epoch(), e1, "successful translate does not bump");

        assert!(mmu.protect(AS, 1, Prot::READ));
        let e2 = mmu.epoch();
        assert!(e2 > e1, "protect on a live mapping bumps");
        assert!(!mmu.protect(AS, 99, Prot::READ));
        assert_eq!(mmu.epoch(), e2, "protect miss does not bump");

        assert_eq!(mmu.take_referenced_frame(f), Some(true));
        let e3 = mmu.epoch();
        assert!(e3 > e2, "clearing the referenced bit bumps");
        assert!(mmu.take_referenced_frame(Frame::global(9)).is_none());
        assert_eq!(mmu.epoch(), e3, "bit clear on an unmapped frame does not bump");

        mmu.take_modified(AS, 1);
        let e4 = mmu.epoch();
        assert!(e4 > e3, "clearing the modified bit bumps");
        assert!(!mmu.take_modified(AS, 99));
        assert_eq!(mmu.epoch(), e4);

        assert!(mmu.remove(AS, 1).is_some());
        let e5 = mmu.epoch();
        assert!(e5 > e4, "remove bumps");
        assert!(mmu.remove(AS, 1).is_none());
        assert_eq!(mmu.epoch(), e5, "remove miss does not bump");

        mmu.enter(AS, 2, f, Prot::READ);
        mmu.enter(2, 3, Frame::global(2), Prot::READ);
        let e6 = mmu.epoch();
        assert!(mmu.remove_frame(f).is_some());
        assert!(mmu.epoch() > e6, "remove_frame bumps");
        let e7 = mmu.epoch();
        mmu.remove_asid(99);
        assert_eq!(mmu.epoch(), e7, "remove_asid of an empty space does not bump");
        mmu.remove_asid(2);
        assert!(mmu.epoch() > e7, "remove_asid bumps per removed mapping");
    }

    #[test]
    fn distinct_asids_can_map_distinct_frames_at_same_vpn() {
        let mut mmu = Mmu::new();
        mmu.enter(1, 5, Frame::global(1), Prot::READ);
        mmu.enter(2, 5, Frame::global(2), Prot::READ);
        assert_eq!(mmu.translate(1, 5, Access::Fetch), Ok(Frame::global(1)));
        assert_eq!(mmu.translate(2, 5, Access::Fetch), Ok(Frame::global(2)));
    }
}
