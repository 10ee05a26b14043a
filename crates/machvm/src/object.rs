//! Memory objects.
//!
//! A Mach memory object is the backing store for a range of virtual
//! memory. The applications in this reproduction use anonymous zero-fill
//! objects (Mach's default memory manager); the object tracks which of
//! its pages are *resident*, i.e. have a logical page from the pool.

use crate::pool::LPageId;
use ace_machine::IdHashMap;
use std::collections::HashMap;

/// Identifies one memory object.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct VmObjectId(pub u32);

/// An anonymous zero-fill memory object with a swap store for paged-out
/// pages (the default memory manager's backing store).
#[derive(Debug)]
pub struct VmObject {
    /// This object's id.
    pub id: VmObjectId,
    /// Size in pages.
    pub size_pages: u64,
    /// Resident logical pages, by page index within the object.
    resident: IdHashMap<u64, LPageId>,
    /// Paged-out contents, by page index ("disk").
    swap: HashMap<u64, Box<[u8]>>,
    /// Number of map entries referencing the object.
    pub ref_count: u32,
}

impl VmObject {
    /// Creates an object of `size_pages` pages with no resident pages.
    pub fn new(id: VmObjectId, size_pages: u64) -> VmObject {
        VmObject {
            id,
            size_pages,
            resident: IdHashMap::default(),
            swap: HashMap::new(),
            ref_count: 1,
        }
    }

    /// The logical page backing page `index`, if resident.
    pub fn resident_page(&self, index: u64) -> Option<LPageId> {
        self.resident.get(&index).copied()
    }

    /// Records that `lpage` now backs page `index`.
    pub fn insert_page(&mut self, index: u64, lpage: LPageId) {
        debug_assert!(index < self.size_pages, "page index out of object bounds");
        let prev = self.resident.insert(index, lpage);
        debug_assert!(prev.is_none(), "page {index} doubly resident");
    }

    /// Removes the residence record for page `index`, returning its
    /// logical page.
    pub fn remove_page(&mut self, index: u64) -> Option<LPageId> {
        self.resident.remove(&index)
    }

    /// All resident pages, in page-index order: the order they are
    /// freed in decides which logical page the pool hands out next.
    pub fn resident_pages(&self) -> Vec<(u64, LPageId)> {
        let mut pages: Vec<(u64, LPageId)> = self.resident.iter().map(|(&i, &l)| (i, l)).collect();
        pages.sort_unstable_by_key(|&(i, _)| i);
        pages
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// Stores page `index`'s contents in the swap store.
    pub fn swap_out(&mut self, index: u64, data: Box<[u8]>) {
        self.swap.insert(index, data);
    }

    /// Retrieves (and removes) swapped contents for page `index`.
    pub fn swap_in(&mut self, index: u64) -> Option<Box<[u8]>> {
        self.swap.remove(&index)
    }

    /// Peeks at swapped contents without paging in.
    pub fn swap_peek(&self, index: u64) -> Option<&[u8]> {
        self.swap.get(&index).map(|b| &b[..])
    }

    /// Number of pages currently swapped out.
    pub fn swapped_count(&self) -> usize {
        self.swap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residence_tracking() {
        let mut o = VmObject::new(VmObjectId(1), 10);
        assert_eq!(o.resident_page(3), None);
        o.insert_page(3, LPageId(7));
        assert_eq!(o.resident_page(3), Some(LPageId(7)));
        assert_eq!(o.resident_count(), 1);
        assert_eq!(o.remove_page(3), Some(LPageId(7)));
        assert_eq!(o.resident_count(), 0);
    }
}
