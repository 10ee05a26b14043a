//! Victim selection under local-frame exhaustion.
//!
//! Local memories are a cache of global memory, and a full cache
//! replaces instead of failing: when a LOCAL placement finds the
//! requesting processor's free list empty, the manager picks a victim
//! page holding a frame there, executes the legal Table-1/2 downgrade
//! (sync a writable victim back to global, drop a read-only replica),
//! and retries the allocation. Which page to sacrifice is policy, and
//! this module is that policy's interface — deliberately parallel to
//! [`crate::policy::CachePolicy`], which answers the placement
//! question the same way.
//!
//! The default, [`LruReclaim`], approximates LRU over the per-frame
//! last-touch stamps the machine's charge paths maintain in virtual
//! time: the candidate whose frame was referenced longest ago goes
//! first, with the logical page id as a deterministic tie-break.

use ace_machine::{Frame, Ns};
use mach_vm::LPageId;

/// Bound on victim evictions per request before the request itself
/// degrades to a global-writable mapping.
pub const DEFAULT_MAX_RECLAIM_ATTEMPTS: u32 = 4;

/// One evictable page: a page holding a local frame on the pressured
/// processor. The manager never offers the faulting page, a quarantined
/// frame, or a remote-shared host frame as a candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReclaimCandidate {
    /// The page that would lose its local copy.
    pub lpage: LPageId,
    /// The local frame that would be freed.
    pub frame: Frame,
    /// Virtual time of the frame's last recorded reference
    /// ([`Ns::ZERO`] if untouched since allocation).
    pub last_touch: Ns,
    /// True when the copy is the page's local-writable truth (evicting
    /// it costs a sync back to global; a read-only replica drops free).
    pub writable: bool,
}

/// A victim-selection policy.
///
/// `candidates` arrives in logical-page-id order — it is read off the
/// pressured node's residency index, which is ordered by page id, not
/// collected from the directory and sorted — so any deterministic
/// function of the slice is a deterministic policy.
pub trait ReclaimPolicy: Send {
    /// Human-readable policy name.
    fn name(&self) -> &'static str;

    /// Picks the page to evict, or `None` to decline (the request then
    /// degrades to a global-writable mapping).
    fn pick_victim(&mut self, candidates: &[ReclaimCandidate]) -> Option<LPageId>;
}

/// Approximate LRU over last-touch virtual time (the default).
#[derive(Clone, Copy, Debug, Default)]
pub struct LruReclaim;

impl ReclaimPolicy for LruReclaim {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn pick_victim(&mut self, candidates: &[ReclaimCandidate]) -> Option<LPageId> {
        candidates
            .iter()
            .min_by_key(|c| (c.last_touch, c.lpage.0))
            .map(|c| c.lpage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_machine::NodeId;

    fn cand(lpage: u32, touch: u64) -> ReclaimCandidate {
        ReclaimCandidate {
            lpage: LPageId(lpage),
            frame: Frame::local(NodeId(0), lpage),
            last_touch: Ns(touch),
            writable: false,
        }
    }

    #[test]
    fn lru_picks_the_coldest_candidate() {
        let mut p = LruReclaim;
        assert_eq!(p.name(), "lru");
        assert_eq!(p.pick_victim(&[]), None);
        let picked = p.pick_victim(&[cand(1, 300), cand(2, 100), cand(3, 200)]);
        assert_eq!(picked, Some(LPageId(2)));
    }

    #[test]
    fn lru_breaks_timestamp_ties_by_page_id() {
        let mut p = LruReclaim;
        let picked = p.pick_victim(&[cand(9, 50), cand(4, 50), cand(7, 50)]);
        assert_eq!(picked, Some(LPageId(4)));
    }
}
