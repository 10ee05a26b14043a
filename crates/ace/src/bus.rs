//! IPC bus accounting.
//!
//! The ACE's Inter-Processor Communication bus is 32 bits wide and moves
//! 80 MB/s. The default simulation charges fixed per-access costs (the
//! paper's applications were chosen to be "relatively free of lock, bus or
//! memory contention", section 3.1), but the bus tracks the traffic it
//! carries so experiments can report utilization and, optionally, flag
//! runs where the fixed-cost assumption would have been violated.

use crate::time::Ns;

/// A first-come-first-served queueing model of the IPC bus (opt-in).
///
/// The paper's methodology requires applications "relatively free of
/// lock, bus or memory contention" (section 3.1), so the default cost
/// model charges fixed per-access times. This model checks that
/// assumption: the bus serves 32-bit words serially at its nominal
/// 80 MB/s (50 ns per word); an access arriving while the bus is busy
/// queues behind it, and the queueing delay is added to the access cost.
/// Deterministic: accesses are processed in the engine's virtual-time
/// order — which means contention runs must use a zero lookahead window
/// (exact interleaving); batched execution would present accesses out of
/// arrival order and manufacture spurious delays.
#[derive(Clone, Copy, Debug, Default)]
pub struct BusQueue {
    /// Virtual time at which the bus becomes free.
    free_at: Ns,
    /// Total queueing delay imposed so far.
    pub total_delay: Ns,
    /// Accesses that had to queue.
    pub delayed: u64,
}

/// Service time for one 32-bit word at 80 MB/s.
pub const WORD_SERVICE: Ns = Ns(50);

impl BusQueue {
    /// Accounts a bus transaction of `words` starting at local time
    /// `now`; returns the queueing delay the requester must add to its
    /// access cost.
    pub fn acquire(&mut self, now: Ns, words: u64) -> Ns {
        let start = if self.free_at > now { self.free_at } else { now };
        let delay = start - now;
        self.free_at = start + WORD_SERVICE * words;
        if delay > Ns::ZERO {
            self.total_delay += delay;
            self.delayed += 1;
        }
        delay
    }
}

crate::counters! {
    /// Cumulative traffic over the IPC bus.
    #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
    pub struct BusStats {
        /// 32-bit transfers for application references to global memory.
        pub global_word_transfers: u64,
        /// 32-bit transfers for kernel page copies (replication, migration,
        /// sync write-back).
        pub copy_word_transfers: u64,
        /// Remote (processor-to-processor local memory) word transfers,
        /// which cross the bus once in each direction.
        pub remote_word_transfers: u64,
    }
}

impl BusStats {
    /// Total bytes moved over the bus.
    pub fn total_bytes(&self) -> u64 {
        (self.global_word_transfers + self.copy_word_transfers + self.remote_word_transfers) * 4
    }

    /// Mean bus utilization over a run that occupied the machine for
    /// `elapsed` of virtual time, against the nominal 80 MB/s capacity.
    ///
    /// Returns a fraction; values approaching 1.0 mean the fixed-cost
    /// timing model understates contention.
    pub fn utilization(&self, elapsed: Ns) -> f64 {
        if elapsed == Ns::ZERO {
            return 0.0;
        }
        let bytes_per_sec = self.total_bytes() as f64 / elapsed.as_secs_f64();
        bytes_per_sec / 80e6
    }

    /// Records application global-memory references.
    #[inline]
    pub fn add_global(&mut self, words: u64) {
        self.global_word_transfers += words;
    }

    /// Records kernel page-copy traffic.
    #[inline]
    pub fn add_copy(&mut self, words: u64) {
        self.copy_word_transfers += words;
    }

    /// Records remote-reference traffic.
    #[inline]
    pub fn add_remote(&mut self, words: u64) {
        self.remote_word_transfers += words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_queue_imposes_fcfs_delays() {
        let mut q = BusQueue::default();
        // First access at t=0 for 4 words: no delay, bus busy 200ns.
        assert_eq!(q.acquire(Ns(0), 4), Ns::ZERO);
        // Second access at t=100 queues 100ns behind the first.
        assert_eq!(q.acquire(Ns(100), 1), Ns(100));
        // Third at t=1000: bus long free, no delay.
        assert_eq!(q.acquire(Ns(1000), 1), Ns::ZERO);
        assert_eq!(q.total_delay, Ns(100));
        assert_eq!(q.delayed, 1);
    }

    #[test]
    fn saturating_offered_load_grows_delay() {
        let mut q = BusQueue::default();
        // Offered load 2x capacity: every 25ns a 1-word (50ns) access.
        let mut total = Ns::ZERO;
        for i in 0..100u64 {
            total += q.acquire(Ns(i * 25), 1);
        }
        // Queueing delay grows roughly linearly to ~capacity shortfall.
        assert!(total > Ns(100 * 25 / 2), "delay = {total}");
    }

    #[test]
    fn traffic_accumulates() {
        let mut b = BusStats::default();
        b.add_global(10);
        b.add_copy(512);
        b.add_remote(2);
        assert_eq!(b.total_bytes(), (10 + 512 + 2) * 4);
    }

    #[test]
    fn utilization_against_capacity() {
        let mut b = BusStats::default();
        // 80 MB in one second is utilization 1.0.
        b.add_global(20_000_000);
        let u = b.utilization(Ns(1_000_000_000));
        assert!((u - 1.0).abs() < 1e-9, "u = {u}");
        assert_eq!(BusStats::default().utilization(Ns::ZERO), 0.0);
    }
}
