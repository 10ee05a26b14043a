//! Deterministic fault injection for the simulated memory hierarchy.
//!
//! Real NUMA machines fail in ways the happy path never exercises: bus
//! transactions time out under contention, local-memory frames develop
//! uncorrectable ECC errors, and DMA engines occasionally deliver a page
//! with flipped bits. The [`FaultInjector`] models all three so the NUMA
//! layer's recovery paths can be driven — and tested — reproducibly:
//!
//! * **Transient bus timeouts** abort a page copy that crosses the IPC
//!   bus before any data moves; the caller is expected to retry.
//! * **Bad frames** are local-memory frames whose first allocation fails
//!   an ECC scrub; once declared bad a frame stays bad forever, and the
//!   memory allocator quarantines it (see [`PhysMem::quarantine`]).
//! * **Silent corruption** lets a bus-crossing page copy complete but
//!   flips one byte of the destination; only an end-to-end comparison
//!   with the source catches it.
//!
//! Everything is driven by one seeded [SplitMix64] stream plus optional
//! *scripted* faults (exact sequences queued by tests), so a given seed
//! produces the same fault schedule on every run. With all rates at zero
//! and nothing scripted the injector is inert: no random numbers are
//! drawn and no behaviour changes anywhere in the machine.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c
//! [`PhysMem::quarantine`]: crate::mem::PhysMem::quarantine

use crate::idhash::{IdHashMap, IdHashSet};
use crate::mem::{Frame, MemRegion};
use crate::time::Ns;
use crate::types::CpuId;
use std::collections::{HashSet, VecDeque};
use std::fmt;

/// A scheduled **hard failure**: a whole component dies at a fixed
/// virtual time. Unlike the stochastic channels above, hard failures
/// are not drawn from the random stream — they are an explicit,
/// deterministic schedule, so a run with a node loss at t=5 ms replays
/// identically under any host parallelism.
///
/// The machine itself only records the schedule; the execution engine
/// watches virtual time and fires each failure exactly once, and the
/// NUMA layer runs the online recovery protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HardFault {
    /// `node`'s entire local memory module goes offline at `vt`: every
    /// frame in it is permanently lost. The node's processors keep
    /// executing, served by global and remote memory.
    NodeOffline {
        /// Node whose local memory dies.
        node: crate::types::NodeId,
        /// Virtual time of the failure.
        vt: Ns,
    },
    /// `cpu` stops executing at `vt`; its runnable threads must drain
    /// to the surviving processors. Its local memory stays reachable
    /// over the bus.
    CpuOffline {
        /// Processor that dies.
        cpu: CpuId,
        /// Virtual time of the failure.
        vt: Ns,
    },
}

impl HardFault {
    /// The virtual time the failure fires at.
    pub fn vt(self) -> Ns {
        match self {
            HardFault::NodeOffline { vt, .. } | HardFault::CpuOffline { vt, .. } => vt,
        }
    }

    /// The component index the failure strikes — the node index for a
    /// node death, the processor index for a processor death.
    pub fn target_index(self) -> u16 {
        match self {
            HardFault::NodeOffline { node, .. } => node.0,
            HardFault::CpuOffline { cpu, .. } => cpu.0,
        }
    }
}

/// Knobs controlling fault injection. All rates are probabilities in
/// `[0, 1]` evaluated independently per opportunity; the default
/// configuration injects nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic fault stream. Two machines configured
    /// with the same seed and rates see the same fault schedule.
    pub seed: u64,
    /// Probability that a bus-crossing page copy times out.
    pub bus_timeout_rate: f64,
    /// Probability that a never-before-allocated local frame fails its
    /// ECC scrub and must be quarantined.
    pub bad_frame_rate: f64,
    /// Probability that a bus-crossing page copy completes but silently
    /// corrupts one byte of the destination.
    pub corruption_rate: f64,
    /// Consecutive bad frames tolerated in one local placement attempt
    /// before the manager gives up on that local memory and degrades the
    /// page to a global placement.
    pub quarantine_threshold: u32,
    /// Copy attempts (initial try plus retries) before a transfer is
    /// declared unrecoverable.
    pub max_copy_retries: u32,
    /// System time charged per retry, multiplied by the attempt number
    /// (linear backoff).
    pub retry_backoff: Ns,
    /// Scheduled hard failures (node and processor deaths), fired by
    /// the execution engine when virtual time reaches each entry's
    /// `vt`. Empty — the default — leaves every code path byte-
    /// identical to a machine that has no hard-failure support at all.
    pub hard_faults: Vec<HardFault>,
}

impl FaultConfig {
    /// Fault injection fully disabled: zero rates, recovery knobs at
    /// their defaults.
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            seed: 0,
            bus_timeout_rate: 0.0,
            bad_frame_rate: 0.0,
            corruption_rate: 0.0,
            quarantine_threshold: 2,
            max_copy_retries: 4,
            retry_backoff: Ns(10_000),
            hard_faults: Vec::new(),
        }
    }

    /// True if any stochastic fault can fire.
    pub fn any_rate(&self) -> bool {
        self.bus_timeout_rate > 0.0 || self.bad_frame_rate > 0.0 || self.corruption_rate > 0.0
    }

    /// Checks rates are valid probabilities and thresholds are sane.
    pub fn validate(&self) -> Result<(), String> {
        for (name, r) in [
            ("bus_timeout_rate", self.bus_timeout_rate),
            ("bad_frame_rate", self.bad_frame_rate),
            ("corruption_rate", self.corruption_rate),
        ] {
            if !(0.0..=1.0).contains(&r) || r.is_nan() {
                return Err(format!("{name} {r} is not a probability"));
            }
        }
        if self.max_copy_retries == 0 {
            return Err("max_copy_retries must be at least 1".to_string());
        }
        if self.quarantine_threshold == 0 {
            return Err("quarantine_threshold must be at least 1".to_string());
        }
        // A component can die only once; a second schedule entry for
        // the same (kind, index) is a script bug, not a fault model.
        let mut seen = HashSet::new();
        for hf in &self.hard_faults {
            let key = match hf {
                HardFault::NodeOffline { node, .. } => ("node", node.0),
                HardFault::CpuOffline { cpu, .. } => ("cpu", cpu.0),
            };
            if !seen.insert(key) {
                return Err(format!("duplicate hard fault scheduled: {hf:?}"));
            }
        }
        Ok(())
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// What went wrong with one page-copy attempt.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CopyFault {
    /// The bus transaction timed out before any data moved.
    BusTimeout,
    /// The copy completed but one byte of the destination was flipped.
    Corruption,
}

/// Error returned by [`Machine::try_kernel_copy_page`] when the bus
/// transaction timed out: the destination page is unchanged and the
/// caller should retry (with backoff) or give up.
///
/// [`Machine::try_kernel_copy_page`]: crate::machine::Machine::try_kernel_copy_page
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BusTimeout;

impl fmt::Display for BusTimeout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bus transaction timed out")
    }
}

impl std::error::Error for BusTimeout {}

/// Counts of faults *injected* (as opposed to recovered from — recovery
/// counters live in the NUMA layer's stats).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct FaultStats {
    /// Bus-crossing page copies aborted by a timeout.
    pub bus_timeouts: u64,
    /// Local frames that failed their ECC scrub.
    pub bad_frames: u64,
    /// Page copies silently corrupted.
    pub corruptions: u64,
}

impl FaultStats {
    /// True if any fault was injected.
    pub fn any(&self) -> bool {
        self.bus_timeouts > 0 || self.bad_frames > 0 || self.corruptions > 0
    }
}

/// The deterministic fault source, owned by the [`Machine`].
///
/// [`Machine`]: crate::machine::Machine
pub struct FaultInjector {
    cfg: FaultConfig,
    /// SplitMix64 state.
    rng: u64,
    /// Faults queued by tests, consumed before the stochastic stream on
    /// each bus-crossing copy.
    scripted_copy: VecDeque<CopyFault>,
    /// Exact `(offset, mask)` sites queued by tests, consumed by
    /// corrupted copies ahead of the stochastic stream.
    scripted_sites: VecDeque<(usize, u8)>,
    /// Frames explicitly declared bad by tests.
    scripted_bad: IdHashSet<Frame>,
    /// Memoized scrub verdicts: a frame once scrubbed keeps its verdict,
    /// so re-allocating a good frame never turns it bad mid-run.
    verdicts: IdHashMap<Frame, bool>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Builds an injector for `cfg`.
    pub fn new(cfg: FaultConfig) -> FaultInjector {
        FaultInjector {
            rng: cfg.seed,
            cfg,
            scripted_copy: VecDeque::new(),
            scripted_sites: VecDeque::new(),
            scripted_bad: IdHashSet::default(),
            verdicts: IdHashMap::default(),
            stats: FaultStats::default(),
        }
    }

    /// The configuration this injector was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Injected-fault counters so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// True if this injector can still do anything: a stochastic rate is
    /// nonzero or a scripted fault is pending. When false, the machine
    /// and manager take exactly the fault-free code paths.
    pub fn active(&self) -> bool {
        self.cfg.any_rate() || !self.scripted_copy.is_empty() || !self.scripted_bad.is_empty()
    }

    /// Queues an exact fault for the next bus-crossing page copy
    /// (consumed in FIFO order, ahead of the stochastic stream).
    pub fn script_copy_fault(&mut self, fault: CopyFault) {
        self.scripted_copy.push_back(fault);
    }

    /// Queues the exact byte a corrupted copy flips (consumed in FIFO
    /// order by [`corruption_site`](Self::corruption_site), ahead of the
    /// stochastic stream). Pair it with a scripted
    /// [`CopyFault::Corruption`].
    pub fn script_corruption_site(&mut self, offset: usize, mask: u8) {
        debug_assert!(mask != 0, "a zero mask corrupts nothing");
        self.scripted_sites.push_back((offset, mask));
    }

    /// Declares `frame` bad: its next ECC scrub fails. Only local frames
    /// participate in the bad-frame model.
    pub fn script_bad_frame(&mut self, frame: Frame) {
        debug_assert!(
            matches!(frame.region, MemRegion::Local(_)),
            "only local frames can be scripted bad"
        );
        self.scripted_bad.insert(frame);
    }

    /// One SplitMix64 step.
    fn next_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decides the fate of one page copy. `crosses_bus` is true when the
    /// source and destination live in different memory modules; copies
    /// within one module never see bus faults.
    pub fn copy_fault(&mut self, crosses_bus: bool) -> Option<CopyFault> {
        if !crosses_bus {
            return None;
        }
        let fault = if let Some(f) = self.scripted_copy.pop_front() {
            Some(f)
        } else if self.cfg.bus_timeout_rate > 0.0 && self.next_f64() < self.cfg.bus_timeout_rate {
            Some(CopyFault::BusTimeout)
        } else if self.cfg.corruption_rate > 0.0 && self.next_f64() < self.cfg.corruption_rate {
            Some(CopyFault::Corruption)
        } else {
            None
        };
        match fault {
            Some(CopyFault::BusTimeout) => self.stats.bus_timeouts += 1,
            Some(CopyFault::Corruption) => self.stats.corruptions += 1,
            None => {}
        }
        fault
    }

    /// ECC-scrubs `frame` at allocation time; true means the frame is
    /// bad and must be quarantined. Verdicts are memoized so a frame's
    /// health never changes after its first scrub. Global memory is
    /// modeled as ECC-protected and always scrubs clean (the logical
    /// page pool identifies global frame *i* with logical page *i*, so a
    /// dead global frame would be a dead logical page).
    pub fn scrub_frame(&mut self, frame: Frame) -> bool {
        if frame.region == MemRegion::Global {
            return false;
        }
        if let Some(&bad) = self.verdicts.get(&frame) {
            return bad;
        }
        let bad = if self.scripted_bad.remove(&frame) {
            true
        } else {
            self.cfg.bad_frame_rate > 0.0 && self.next_f64() < self.cfg.bad_frame_rate
        };
        self.verdicts.insert(frame, bad);
        if bad {
            self.stats.bad_frames += 1;
        }
        bad
    }

    /// Picks the byte to flip for a corrupted copy: a deterministic
    /// offset within the page and a nonzero XOR mask.
    pub fn corruption_site(&mut self, page_bytes: usize) -> (usize, u8) {
        if let Some((offset, mask)) = self.scripted_sites.pop_front() {
            debug_assert!(offset < page_bytes, "scripted site outside the page");
            return (offset, mask);
        }
        let r = self.next_u64();
        let offset = (r as usize) % page_bytes;
        let mask = ((r >> 32) as u8) | 1;
        (offset, mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::CpuId;

    #[test]
    fn disabled_injector_is_inert() {
        let mut inj = FaultInjector::new(FaultConfig::disabled());
        assert!(!inj.active());
        for _ in 0..100 {
            assert_eq!(inj.copy_fault(true), None);
            assert!(!inj.scrub_frame(Frame::local(crate::types::NodeId(0), 3)));
        }
        assert!(!inj.stats().any());
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            seed: 42,
            bus_timeout_rate: 0.3,
            bad_frame_rate: 0.2,
            corruption_rate: 0.1,
            ..FaultConfig::disabled()
        };
        let mut a = FaultInjector::new(cfg.clone());
        let mut b = FaultInjector::new(cfg);
        for i in 0..200 {
            assert_eq!(a.copy_fault(true), b.copy_fault(true));
            let f = Frame::local(crate::types::NodeId(0), i);
            assert_eq!(a.scrub_frame(f), b.scrub_frame(f));
        }
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().any());
    }

    #[test]
    fn scripted_faults_come_first_and_in_order() {
        let mut inj = FaultInjector::new(FaultConfig::disabled());
        inj.script_copy_fault(CopyFault::BusTimeout);
        inj.script_copy_fault(CopyFault::Corruption);
        assert!(inj.active());
        // Non-crossing copies do not consume scripted faults.
        assert_eq!(inj.copy_fault(false), None);
        assert_eq!(inj.copy_fault(true), Some(CopyFault::BusTimeout));
        assert_eq!(inj.copy_fault(true), Some(CopyFault::Corruption));
        assert_eq!(inj.copy_fault(true), None);
        assert!(!inj.active());
        assert_eq!(inj.stats().bus_timeouts, 1);
        assert_eq!(inj.stats().corruptions, 1);
    }

    #[test]
    fn scrub_verdicts_are_memoized() {
        let cfg = FaultConfig { seed: 7, bad_frame_rate: 0.5, ..FaultConfig::disabled() };
        let mut inj = FaultInjector::new(cfg);
        let frames: Vec<Frame> = (0..50).map(|i| Frame::local(crate::types::NodeId(1), i)).collect();
        let first: Vec<bool> = frames.iter().map(|&f| inj.scrub_frame(f)).collect();
        let second: Vec<bool> = frames.iter().map(|&f| inj.scrub_frame(f)).collect();
        assert_eq!(first, second);
        let bad_count = inj.stats().bad_frames;
        assert!(bad_count > 0 && (bad_count as usize) < frames.len());
    }

    #[test]
    fn scripted_bad_frame_fails_scrub_once_declared() {
        let mut inj = FaultInjector::new(FaultConfig::disabled());
        let f = Frame::local(crate::types::NodeId(0), 9);
        inj.script_bad_frame(f);
        assert!(inj.scrub_frame(f));
        // Memoized: stays bad.
        assert!(inj.scrub_frame(f));
        assert_eq!(inj.stats().bad_frames, 1);
    }

    #[test]
    fn global_frames_always_scrub_clean() {
        let cfg = FaultConfig { seed: 3, bad_frame_rate: 1.0, ..FaultConfig::disabled() };
        let mut inj = FaultInjector::new(cfg);
        assert!(!inj.scrub_frame(Frame::global(0)));
        assert!(inj.scrub_frame(Frame::local(crate::types::NodeId(0), 0)));
    }

    #[test]
    fn corruption_site_mask_is_nonzero() {
        let cfg = FaultConfig { seed: 11, ..FaultConfig::disabled() };
        let mut inj = FaultInjector::new(cfg);
        for _ in 0..100 {
            let (off, mask) = inj.corruption_site(256);
            assert!(off < 256);
            assert_ne!(mask, 0);
        }
    }

    #[test]
    fn scripted_sites_come_first_and_draw_nothing() {
        let cfg = FaultConfig { seed: 11, ..FaultConfig::disabled() };
        let mut scripted = FaultInjector::new(cfg.clone());
        let mut plain = FaultInjector::new(cfg);
        scripted.script_corruption_site(2047, 0x80);
        assert_eq!(scripted.corruption_site(2048), (2047, 0x80));
        assert_eq!(scripted.corruption_site(2048), plain.corruption_site(2048));
    }

    #[test]
    fn hard_fault_schedule_validates_and_stays_off_the_copy_path() {
        let mut c = FaultConfig::disabled();
        c.hard_faults = vec![
            HardFault::NodeOffline { node: crate::types::NodeId(1), vt: Ns(500) },
            HardFault::CpuOffline { cpu: CpuId(1), vt: Ns(900) },
        ];
        assert!(c.validate().is_ok(), "node and cpu death of one processor may coexist");
        assert_eq!(c.hard_faults[0].target_index(), 1);
        assert_eq!(c.hard_faults[0].vt(), Ns(500));
        // Hard failures are an engine-fired schedule, not a stochastic
        // channel: the injector's copy path must stay inert.
        let mut inj = FaultInjector::new(c.clone());
        assert!(!inj.active(), "a pure hard-fault schedule must not perturb copies");
        assert_eq!(inj.copy_fault(true), None);

        c.hard_faults.push(HardFault::NodeOffline { node: crate::types::NodeId(1), vt: Ns(700) });
        assert!(c.validate().is_err(), "a node can only die once");
    }

    #[test]
    fn validate_rejects_bad_rates() {
        let mut c = FaultConfig::disabled();
        c.bus_timeout_rate = 1.5;
        assert!(c.validate().is_err());
        let mut c = FaultConfig::disabled();
        c.max_copy_retries = 0;
        assert!(c.validate().is_err());
        assert!(FaultConfig::disabled().validate().is_ok());
    }
}
