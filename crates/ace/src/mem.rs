//! Physical memory: global and per-processor local page frames.
//!
//! Frames hold real bytes, so that page replication, migration and
//! write-back in the NUMA layer are *observable*: a consistency bug makes
//! application programs compute wrong answers, which the application test
//! suites catch end to end.

use crate::config::MachineConfig;
use crate::time::Ns;
use crate::types::NodeId;
use std::fmt;

/// Which memory module a frame lives in.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemRegion {
    /// The shared global memory cards on the IPC bus.
    Global,
    /// The local memory of one node. On the flat paper machine every
    /// processor module carries its own node, so node *i* is cpu *i*'s
    /// 8 MB local memory; hierarchical topologies pool several
    /// processors onto one node.
    Local(NodeId),
}

/// One physical page frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The memory module holding the frame.
    pub region: MemRegion,
    /// Frame index within that module.
    pub index: u32,
}

impl Frame {
    /// Constructs a global frame.
    pub fn global(index: u32) -> Frame {
        Frame { region: MemRegion::Global, index }
    }

    /// Constructs a local frame on `node`.
    pub fn local(node: NodeId, index: u32) -> Frame {
        Frame { region: MemRegion::Local(node), index }
    }

    /// True if the frame is in global memory.
    pub fn is_global(self) -> bool {
        self.region == MemRegion::Global
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.region {
            MemRegion::Global => write!(f, "G#{}", self.index),
            MemRegion::Local(n) => write!(f, "L{}#{}", n.0, self.index),
        }
    }
}

/// Errors from frame allocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MemError {
    /// The requested region has no free frames.
    OutOfFrames(MemRegion),
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfFrames(r) => write!(f, "out of page frames in {r:?}"),
        }
    }
}

impl std::error::Error for MemError {}

/// Where a frame is in its life: on its module's free list, handed
/// out, or retired for good after a failed ECC scrub.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FrameState {
    Free,
    Allocated,
    Quarantined,
}

/// Storage and free-list for one memory module.
struct Module {
    /// Frame payloads; `None` until first touched, which keeps small
    /// simulations cheap even with realistically sized memories.
    frames: Vec<Option<Box<[u8]>>>,
    /// Indices of free frames, popped from the back.
    free: Vec<u32>,
    /// One state per frame; `free` lists exactly the `Free` ones (until
    /// the module goes offline, which empties the list for good).
    state: Vec<FrameState>,
    /// Number of `Quarantined` frames.
    quarantined: usize,
    /// High-water mark of simultaneously allocated frames.
    peak_used: usize,
    /// Per-frame last-touch stamp in virtual time, kept by the machine's
    /// charge paths. Read by the reclaim layer to approximate LRU; never
    /// charges time itself.
    last_touch: Vec<Ns>,
}

impl Module {
    fn new(n_frames: usize) -> Module {
        Module {
            frames: (0..n_frames).map(|_| None).collect(),
            free: (0..n_frames as u32).rev().collect(),
            state: vec![FrameState::Free; n_frames],
            quarantined: 0,
            peak_used: 0,
            last_touch: vec![Ns::ZERO; n_frames],
        }
    }

    fn used(&self) -> usize {
        self.frames.len() - self.free.len()
    }

    /// Books frame `index`, just taken off the free list, as allocated.
    fn note_allocated(&mut self, index: u32) {
        self.state[index as usize] = FrameState::Allocated;
        self.peak_used = self.peak_used.max(self.used());
        self.last_touch[index as usize] = Ns::ZERO;
    }
}

/// All physical memory of the machine.
pub struct PhysMem {
    page_bytes: usize,
    global: Module,
    locals: Vec<Module>,
    /// Per-node flag: true once the node's local memory has gone
    /// offline (a hard failure). A dead module allocates nothing and
    /// tolerates frees of its lost frames.
    offline: Vec<bool>,
}

impl PhysMem {
    /// Builds the memory described by `cfg`: one global module plus one
    /// local module per topology node, each sized by the node's pool.
    pub fn new(cfg: &MachineConfig) -> PhysMem {
        PhysMem {
            page_bytes: cfg.page_size.bytes(),
            global: Module::new(cfg.global_frames),
            locals: cfg.topology.node_frames().iter().map(|&n| Module::new(n)).collect(),
            offline: vec![false; cfg.topology.n_nodes()],
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> usize {
        self.page_bytes
    }

    fn module(&self, region: MemRegion) -> &Module {
        match region {
            MemRegion::Global => &self.global,
            MemRegion::Local(n) => &self.locals[n.index()],
        }
    }

    fn module_mut(&mut self, region: MemRegion) -> &mut Module {
        match region {
            MemRegion::Global => &mut self.global,
            MemRegion::Local(n) => &mut self.locals[n.index()],
        }
    }

    /// Allocates a frame in `region`. The frame's previous contents are
    /// undefined (a real kernel zeroes on demand; so does the pmap layer
    /// above).
    pub fn alloc(&mut self, region: MemRegion) -> Result<Frame, MemError> {
        let m = self.module_mut(region);
        let index = m.free.pop().ok_or(MemError::OutOfFrames(region))?;
        m.note_allocated(index);
        Ok(Frame { region, index })
    }

    /// Allocates a *specific* global frame. The Mach logical page pool on
    /// the ACE corresponds one-to-one with global memory, so the pmap
    /// layer reserves global frame `i` for logical page `i`.
    pub fn alloc_global_at(&mut self, index: u32) -> Result<Frame, MemError> {
        let m = &mut self.global;
        match m.free.iter().rposition(|&f| f == index) {
            Some(pos) => {
                m.free.swap_remove(pos);
                m.note_allocated(index);
                Ok(Frame::global(index))
            }
            None => Err(MemError::OutOfFrames(MemRegion::Global)),
        }
    }

    /// Returns a frame to its module's free list. Freeing a frame of an
    /// offline module is a tolerated no-op: the frame is gone with its
    /// module, and recovery or late release paths may still hold
    /// references to it.
    pub fn free(&mut self, frame: Frame) {
        if self.is_offline_frame(frame) {
            return;
        }
        let m = self.module_mut(frame.region);
        let state = &mut m.state[frame.index as usize];
        assert!(*state != FrameState::Quarantined, "freeing quarantined frame {frame:?}");
        assert!(*state != FrameState::Free, "double free of {frame:?}");
        *state = FrameState::Free;
        m.free.push(frame.index);
    }

    /// Takes `node`'s entire local memory offline — a hard component
    /// failure. The module's free list is emptied (nothing can ever be
    /// allocated there again), every payload is dropped (the bytes are
    /// permanently lost), and the frames that were allocated at the
    /// moment of death are returned in index order so the NUMA layer
    /// can walk its directory and recover each one. Quarantined frames
    /// were already retired and are not reported again. Idempotent:
    /// a second death of the same module reports nothing.
    pub fn offline_local(&mut self, node: NodeId) -> Vec<Frame> {
        if self.offline[node.index()] {
            return Vec::new();
        }
        self.offline[node.index()] = true;
        let m = &mut self.locals[node.index()];
        m.free.clear();
        m.frames.iter_mut().for_each(|payload| *payload = None);
        (0u32..)
            .zip(&m.state)
            .filter(|(_, &state)| state == FrameState::Allocated)
            .map(|(index, _)| Frame::local(node, index))
            .collect()
    }

    /// True if `node`'s local memory module has gone offline.
    pub fn is_offline(&self, node: NodeId) -> bool {
        self.offline[node.index()]
    }

    /// True if `frame` belongs to an offline local module.
    pub fn is_offline_frame(&self, frame: Frame) -> bool {
        match frame.region {
            MemRegion::Global => false,
            MemRegion::Local(n) => self.offline[n.index()],
        }
    }

    /// Permanently retires an *allocated* frame (a failed ECC scrub).
    /// The frame is never returned to its free list, so it can never be
    /// handed out again; the module's capacity shrinks by one page.
    pub fn quarantine(&mut self, frame: Frame) {
        let m = self.module_mut(frame.region);
        let state = &mut m.state[frame.index as usize];
        assert!(*state != FrameState::Free, "quarantining a free frame {frame:?}");
        if *state == FrameState::Allocated {
            *state = FrameState::Quarantined;
            m.quarantined += 1;
        }
    }

    /// True if `frame` has been quarantined.
    pub fn is_quarantined(&self, frame: Frame) -> bool {
        self.module(frame.region).state[frame.index as usize] == FrameState::Quarantined
    }

    /// Number of quarantined frames in `region`.
    pub fn quarantined_frames(&self, region: MemRegion) -> usize {
        self.module(region).quarantined
    }

    /// Number of free frames in `region`.
    pub fn free_frames(&self, region: MemRegion) -> usize {
        self.module(region).free.len()
    }

    /// Number of allocated frames in `region`.
    pub fn used_frames(&self, region: MemRegion) -> usize {
        self.module(region).used()
    }

    /// High-water mark of allocated frames in `region`.
    pub fn peak_used_frames(&self, region: MemRegion) -> usize {
        self.module(region).peak_used
    }

    /// Records that `frame` was referenced at virtual time `t`. Called by
    /// the machine's charge paths; charges nothing itself.
    #[inline]
    pub fn touch(&mut self, frame: Frame, t: Ns) {
        self.module_mut(frame.region).last_touch[frame.index as usize] = t;
    }

    /// Virtual time of the last recorded reference to `frame`
    /// ([`Ns::ZERO`] if never touched since allocation).
    pub fn last_touch(&self, frame: Frame) -> Ns {
        self.module(frame.region).last_touch[frame.index as usize]
    }

    /// The bytes of `frame`, one page of them (zeros if never touched),
    /// for callers that make many accesses to one page: one lookup, then
    /// plain slice indexing. Charges nothing.
    #[inline]
    pub fn frame_bytes(&mut self, frame: Frame) -> &mut [u8] {
        let page_bytes = self.page_bytes;
        let m = self.module_mut(frame.region);
        m.frames[frame.index as usize]
            .get_or_insert_with(|| vec![0u8; page_bytes].into_boxed_slice())
    }

    /// Reads a little-endian `u32` at byte `offset` within `frame`.
    ///
    /// The offset must leave room for four bytes within the page; an
    /// out-of-range offset is a caller bug (all callers derive offsets
    /// from page-masked virtual addresses) and panics via the slice
    /// bounds check rather than a decode `unwrap`.
    #[inline]
    pub fn read_u32(&mut self, frame: Frame, offset: usize) -> u32 {
        debug_assert!(offset + 4 <= self.page_bytes);
        let d = self.frame_bytes(frame);
        let w = &d[offset..offset + 4];
        u32::from_le_bytes([w[0], w[1], w[2], w[3]])
    }

    /// Writes a little-endian `u32` at byte `offset` within `frame`.
    #[inline]
    pub fn write_u32(&mut self, frame: Frame, offset: usize, value: u32) {
        debug_assert!(offset + 4 <= self.page_bytes);
        let d = self.frame_bytes(frame);
        d[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&mut self, frame: Frame, offset: usize) -> u8 {
        self.frame_bytes(frame)[offset]
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, frame: Frame, offset: usize, value: u8) {
        self.frame_bytes(frame)[offset] = value;
    }

    /// Copies a byte range into `out`.
    pub fn read_bytes(&mut self, frame: Frame, offset: usize, out: &mut [u8]) {
        let d = self.frame_bytes(frame);
        out.copy_from_slice(&d[offset..offset + out.len()]);
    }

    /// Writes a byte range.
    pub fn write_bytes(&mut self, frame: Frame, offset: usize, src: &[u8]) {
        let d = self.frame_bytes(frame);
        d[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Copies the whole page `src` into `dst` (used by replicate, migrate
    /// and sync operations in the pmap layer).
    pub fn copy_page(&mut self, src: Frame, dst: Frame) {
        debug_assert_ne!(src, dst, "copy_page onto itself");
        // Take the source payload out briefly to satisfy the borrow
        // checker without copying twice.
        let buf = {
            let page_bytes = self.page_bytes;
            let sm = self.module_mut(src.region);
            match &sm.frames[src.index as usize] {
                Some(b) => b.clone(),
                None => vec![0u8; page_bytes].into_boxed_slice(),
            }
        };
        let dm = self.module_mut(dst.region);
        dm.frames[dst.index as usize] = Some(buf);
    }

    /// Fills the page with zeros (the `pmap_zero_page` operation).
    pub fn zero_page(&mut self, frame: Frame) {
        let page_bytes = self.page_bytes;
        let m = self.module_mut(frame.region);
        m.frames[frame.index as usize] = Some(vec![0u8; page_bytes].into_boxed_slice());
    }

    /// True if two frames currently hold identical bytes: the end-to-end
    /// check behind every fault-armed page copy, and the consistency
    /// checker's test of replica coherence. A never-touched frame equals
    /// a page of zeros, which is what a copy of it would contain.
    pub fn pages_equal(&self, a: Frame, b: Frame) -> bool {
        let payload = |f: Frame| self.module(f.region).frames[f.index as usize].as_deref();
        match (payload(a), payload(b)) {
            (Some(x), Some(y)) => x == y,
            (Some(x), None) | (None, Some(x)) => x.iter().all(|&byte| byte == 0),
            (None, None) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    fn mem() -> PhysMem {
        PhysMem::new(&TopologyBuilder::small(2).config())
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut m = mem();
        let total = m.free_frames(MemRegion::Global);
        let f = m.alloc(MemRegion::Global).unwrap();
        assert_eq!(m.free_frames(MemRegion::Global), total - 1);
        assert_eq!(m.used_frames(MemRegion::Global), 1);
        m.free(f);
        assert_eq!(m.free_frames(MemRegion::Global), total);
        assert_eq!(m.peak_used_frames(MemRegion::Global), 1);
    }

    #[test]
    fn exhaustion_is_an_error() {
        let mut m = mem();
        let region = MemRegion::Local(NodeId(1));
        let n = m.free_frames(region);
        for _ in 0..n {
            m.alloc(region).unwrap();
        }
        assert_eq!(m.alloc(region), Err(MemError::OutOfFrames(region)));
        // The other local module is unaffected.
        assert!(m.alloc(MemRegion::Local(NodeId(0))).is_ok());
    }

    #[test]
    fn alloc_global_at_reserves_specific_frame() {
        let mut m = mem();
        let f = m.alloc_global_at(7).unwrap();
        assert_eq!(f, Frame::global(7));
        assert!(m.alloc_global_at(7).is_err());
        m.free(f);
        assert!(m.alloc_global_at(7).is_ok());
    }

    #[test]
    fn read_write_words_and_bytes() {
        let mut m = mem();
        let f = m.alloc(MemRegion::Global).unwrap();
        m.write_u32(f, 0, 0xdead_beef);
        m.write_u8(f, 100, 7);
        assert_eq!(m.read_u32(f, 0), 0xdead_beef);
        assert_eq!(m.read_u8(f, 100), 7);
        // Untouched bytes read as zero.
        assert_eq!(m.read_u32(f, 8), 0);
    }

    #[test]
    fn frame_bytes_is_the_page_the_word_accessors_see() {
        let mut m = mem();
        let f = m.alloc(MemRegion::Local(NodeId(0))).unwrap();
        assert_eq!(m.frame_bytes(f).len(), m.page_bytes());
        assert!(m.frame_bytes(f).iter().all(|&b| b == 0), "never touched reads as zeros");
        m.frame_bytes(f)[8..12].copy_from_slice(&0xfeed_f00du32.to_le_bytes());
        assert_eq!(m.read_u32(f, 8), 0xfeed_f00d);
        m.write_u32(f, 12, 7);
        assert_eq!(m.frame_bytes(f)[12..16], 7u32.to_le_bytes());
    }

    #[test]
    fn copy_page_moves_bytes_across_regions() {
        let mut m = mem();
        let g = m.alloc(MemRegion::Global).unwrap();
        let l = m.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.write_u32(g, 4, 123);
        m.copy_page(g, l);
        assert_eq!(m.read_u32(l, 4), 123);
        assert!(m.pages_equal(g, l));
        m.write_u32(l, 4, 456);
        assert!(!m.pages_equal(g, l));
        assert_eq!(m.read_u32(g, 4), 123, "copy must not alias");
    }

    #[test]
    fn zero_page_clears_contents() {
        let mut m = mem();
        let f = m.alloc(MemRegion::Global).unwrap();
        m.write_u32(f, 0, 1);
        m.zero_page(f);
        assert_eq!(m.read_u32(f, 0), 0);
    }

    #[test]
    fn quarantined_frame_is_retired_for_good() {
        let mut m = mem();
        let region = MemRegion::Local(NodeId(0));
        let total = m.free_frames(region);
        let f = m.alloc(region).unwrap();
        m.quarantine(f);
        assert!(m.is_quarantined(f));
        assert_eq!(m.quarantined_frames(region), 1);
        assert_eq!(m.quarantined_frames(MemRegion::Global), 0);
        // The frame never returns to the free list; capacity shrank.
        assert_eq!(m.free_frames(region), total - 1);
        let mut seen = Vec::new();
        while let Ok(g) = m.alloc(region) {
            assert_ne!(g, f, "quarantined frame re-allocated");
            seen.push(g);
        }
        assert_eq!(seen.len(), total - 1);
    }

    #[test]
    fn offline_local_loses_every_frame_for_good() {
        let mut m = mem();
        let region = MemRegion::Local(NodeId(0));
        let a = m.alloc(region).unwrap();
        let b = m.alloc(region).unwrap();
        let q = m.alloc(region).unwrap();
        m.quarantine(q);
        m.write_u32(a, 0, 0xfeed);
        assert!(!m.is_offline(NodeId(0)));

        let lost = m.offline_local(NodeId(0));
        assert_eq!(lost, vec![a, b], "allocated, non-quarantined frames reported in order");
        assert!(m.is_offline(NodeId(0)));
        assert!(m.is_offline_frame(a));
        assert!(!m.is_offline_frame(Frame::global(0)));
        // Nothing can ever be allocated there again...
        assert_eq!(m.free_frames(region), 0);
        assert_eq!(m.alloc(region), Err(MemError::OutOfFrames(region)));
        // ...the bytes are gone...
        assert_eq!(m.read_u32(a, 0), 0, "payloads dropped with the module");
        // ...freeing a dead frame is a tolerated no-op...
        m.free(a);
        assert_eq!(m.free_frames(region), 0);
        // ...death is idempotent, and the other module is unaffected.
        assert!(m.offline_local(NodeId(0)).is_empty());
        assert!(!m.is_offline(NodeId(1)));
        assert!(m.alloc(MemRegion::Local(NodeId(1))).is_ok());
    }

    #[test]
    fn pages_equal_tracks_contents() {
        let mut m = mem();
        let a = m.alloc(MemRegion::Global).unwrap();
        let b = m.alloc(MemRegion::Local(NodeId(0))).unwrap();
        let c = m.alloc(MemRegion::Local(NodeId(1))).unwrap();
        // Never-touched frames equal each other and explicit zero pages,
        // whichever side the payload is on.
        assert!(m.pages_equal(a, c));
        m.zero_page(b);
        assert!(m.pages_equal(a, b) && m.pages_equal(b, a));
        m.write_u8(b, m.page_bytes() - 1, 1);
        assert!(!m.pages_equal(a, b) && !m.pages_equal(b, a), "one non-zero byte, the last");
        m.write_u32(a, 12, 0xfeed);
        m.copy_page(a, b);
        assert!(m.pages_equal(a, b));
        // A single flipped byte is visible.
        let byte = m.read_u8(b, 99);
        m.write_u8(b, 99, byte ^ 0x40);
        assert!(!m.pages_equal(a, b));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = mem();
        let f = m.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.free(f);
        m.free(f);
    }

    #[test]
    #[should_panic(expected = "quarantining a free frame")]
    fn quarantining_a_free_frame_panics() {
        let mut m = mem();
        let f = m.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.free(f);
        m.quarantine(f);
    }

    #[test]
    #[should_panic(expected = "freeing quarantined frame")]
    fn freeing_a_quarantined_frame_panics() {
        let mut m = mem();
        let f = m.alloc(MemRegion::Local(NodeId(0))).unwrap();
        m.quarantine(f);
        m.free(f);
    }

    #[test]
    fn offline_local_reports_exactly_the_allocated_frames() {
        // Free, allocated and quarantined frames interleaved, with the
        // free list out of index order: the report is what a scan of
        // "not free and not quarantined" gives, in index order.
        let mut m = mem();
        let region = MemRegion::Local(NodeId(1));
        let frames: Vec<Frame> = (0..8).map(|_| m.alloc(region).unwrap()).collect();
        for &i in &[6, 1, 4] {
            m.free(frames[i]);
        }
        m.quarantine(frames[2]);
        m.quarantine(frames[7]);
        assert_eq!(m.offline_local(NodeId(1)), vec![frames[0], frames[3], frames[5]]);
        assert_eq!(m.quarantined_frames(region), 2, "quarantine outlives the module");
        assert!(m.is_quarantined(frames[7]) && !m.is_quarantined(frames[0]));
    }

    #[test]
    fn last_touch_stamps_track_references_and_reset_on_alloc() {
        let mut m = mem();
        let f = m.alloc(MemRegion::Local(NodeId(0))).unwrap();
        assert_eq!(m.last_touch(f), Ns::ZERO);
        m.touch(f, Ns(42));
        assert_eq!(m.last_touch(f), Ns(42));
        m.touch(f, Ns(99));
        assert_eq!(m.last_touch(f), Ns(99));
        // Freeing and re-allocating the frame clears the stale stamp.
        m.free(f);
        let g = m.alloc(MemRegion::Local(NodeId(0))).unwrap();
        assert_eq!(g, f, "LIFO free list hands the same frame back");
        assert_eq!(m.last_touch(g), Ns::ZERO);
        // alloc_global_at resets too.
        let h = m.alloc_global_at(3).unwrap();
        assert_eq!(m.last_touch(h), Ns::ZERO);
    }

    #[test]
    fn copy_of_untouched_page_is_zeros() {
        let mut m = mem();
        let g = m.alloc(MemRegion::Global).unwrap();
        let l = m.alloc(MemRegion::Local(NodeId(1))).unwrap();
        m.write_u32(l, 0, 9);
        m.copy_page(g, l);
        assert_eq!(m.read_u32(l, 0), 0);
    }
}
