//! Offline optimal placement: a future-knowledge lower bound on the
//! reference-plus-movement cost the paper calls T_optimal.
//!
//! "We would have liked to compare T_numa to T_optimal but had no way to
//! measure the latter" (section 3.1). In a simulator we can: for each
//! page independently, dynamic programming over its reference sequence
//! chooses, before every reference, the cheapest placement among
//!
//! * `Global` — everyone references at global cost;
//! * `Local(i)` — processor *i* references at local cost (other
//!   processors must move the page first);
//! * `Replicated` — all processors *read* at local cost; writes must
//!   leave the state.
//!
//! Every state change costs one page copy (the same constant the online
//! protocol pays per copy; multi-copy transitions are charged a single
//! copy, which keeps this a *lower bound*). The result is the cheapest
//! achievable total reference + movement cost with perfect future
//! knowledge, per page and in total.
//!
//! The DP's frontier never holds more than three finite values. A
//! reference by processor *c* can be served in `Global`, in `Local(c)`
//! and, if it is a fetch, in `Replicated` — every other state is
//! unreachable right after it — and because every transition costs the
//! same copy, `min_s(dp[s] + [s≠t]·copy)` is `min(dp[t], min(dp) + copy)`.
//! So one pass over the trace keeps `(global, replicated, local, owner)`
//! per page and does a handful of `min`s per reference. (What this
//! replaces regrouped the trace by page and relaxed every pair of
//! `2 + processors` states per reference; it survives as the test
//! oracle below.)

use crate::record::{PerPage, Trace};
use ace_machine::{Access, CostModel, CpuId, Distance, Ns};
use std::collections::BTreeMap;

/// The per-page optimal cost breakdown.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OptimalReport {
    /// Optimal total cost (references + copies), summed over pages.
    pub optimal_cost: Ns,
    /// The cost actually charged for the traced references (no copies).
    pub actual_ref_cost: Ns,
    /// Per-page optimal costs, ordered by page number.
    pub per_page: BTreeMap<u64, Ns>,
}

/// An unreachable state's cost.
const INF: u64 = u64::MAX;

/// One page's DP frontier: the cheapest cost so far of ending in each
/// placement state that is still reachable.
#[derive(Clone, Copy)]
struct Frontier {
    global: u64,
    /// `INF` after a store.
    replicated: u64,
    /// Cost of `Local(owner)`; every other `Local(i)` is unreachable.
    local: u64,
    /// `None` before the first reference, when the page may start local
    /// to anyone.
    owner: Option<CpuId>,
}

impl Frontier {
    /// The first placement of a fresh page is free of movement (the
    /// online protocol also places the zero-filled page wherever it
    /// likes), so every state starts at 0.
    const FRESH: Frontier = Frontier { global: 0, replicated: 0, local: 0, owner: None };

    /// One reference by `cpu`: `at_global` / `at_local` are its cost
    /// served from global / local memory.
    #[inline]
    fn step(&mut self, cpu: CpuId, fetch: bool, at_global: u64, at_local: u64, copy: u64) {
        // `global` is always finite, so `moved` is and every `min` below is.
        let moved = self.best() + copy;
        let stayed = if self.owner.is_none_or(|o| o == cpu) { self.local } else { INF };
        self.global = self.global.min(moved) + at_global;
        self.local = stayed.min(moved) + at_local;
        self.replicated = if fetch { self.replicated.min(moved) + at_local } else { INF };
        self.owner = Some(cpu);
    }

    fn best(&self) -> u64 {
        self.global.min(self.replicated).min(self.local)
    }
}

/// Computes the offline optimal placement cost of a trace on a machine
/// with the given cost model, in one pass over its runs.
pub fn optimal_cost(trace: &Trace, costs: &CostModel, page_bytes: usize) -> OptimalReport {
    assert_eq!(
        page_bytes,
        trace.page_size.bytes(),
        "optimal_cost: page_bytes disagrees with the page size the trace was recorded at"
    );
    let copy = costs.page_copy(page_bytes).0;
    let mut frontiers: PerPage<Frontier> = PerPage::new();
    let mut actual_ref_cost = Ns::ZERO;
    for run in trace.runs() {
        actual_ref_cost += costs.access(run.kind, run.dist) * run.total_words();
        let at_global = costs.access(run.kind, Distance::Global).0 * run.words;
        let at_local = costs.access(run.kind, Distance::Local).0 * run.words;
        let fetch = run.kind == Access::Fetch;
        let (_, slot) = frontiers.entry(trace.vpn_of(run), || Frontier::FRESH);
        let mut f = *slot;
        for _ in 0..run.count {
            f.step(run.cpu, fetch, at_global, at_local, copy);
        }
        *slot = f;
    }
    let per_page: BTreeMap<u64, Ns> =
        frontiers.pages.iter().map(|(vpn, f)| (*vpn, Ns(f.best()))).collect();
    let optimal_cost = per_page.values().copied().sum();
    OptimalReport { optimal_cost, actual_ref_cost, per_page }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ace_machine::{CpuId, PageSize};
    use ace_sim::RefEvent;
    use mach_vm::VAddr;

    const PAGE: usize = 256;

    fn tr(events: Vec<(u16, u64, Access)>) -> Trace {
        Trace::from_events(
            PageSize::new(PAGE),
            events.into_iter().map(|(c, a, k)| RefEvent {
                t: Ns(0),
                cpu: CpuId(c),
                addr: VAddr(a),
                kind: k,
                dist: Distance::Global,
                words: 1,
            }),
        )
    }

    /// Placement states of the textbook DP.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum S {
        Global,
        Local(CpuId),
        Replicated,
    }

    /// The DP as first written — every pair of states relaxed per
    /// reference, a fresh vector each time — kept as the oracle the
    /// three-value frontier is compared against.
    pub(crate) fn page_optimal(events: &[(CpuId, Access, u64)], costs: &CostModel, copy: Ns) -> Ns {
        // Candidate states: Global, Replicated, and Local(i) for each cpu
        // seen in the sequence.
        let mut cpus: Vec<CpuId> = Vec::new();
        for (c, _, _) in events {
            if !cpus.contains(c) {
                cpus.push(*c);
            }
        }
        let mut states: Vec<S> = vec![S::Global, S::Replicated];
        states.extend(cpus.iter().map(|&c| S::Local(c)));
        const INF: u64 = u64::MAX / 4;
        let mut dp: Vec<u64> = vec![0; states.len()];
        for &(cpu, kind, words) in events {
            let mut next: Vec<u64> = vec![INF; states.len()];
            for (si, &s) in states.iter().enumerate() {
                if dp[si] >= INF {
                    continue;
                }
                for (ti, &t) in states.iter().enumerate() {
                    // Is the access servable in state t?
                    let access_cost = match (t, kind) {
                        (S::Global, _) => costs.access(kind, Distance::Global),
                        (S::Local(i), _) if i == cpu => costs.access(kind, Distance::Local),
                        (S::Local(_), _) => continue,
                        (S::Replicated, Access::Fetch) => costs.access(kind, Distance::Local),
                        (S::Replicated, Access::Store) => continue,
                    };
                    let trans = if s == t { Ns::ZERO } else { copy };
                    let cand = dp[si]
                        .saturating_add(trans.0)
                        .saturating_add(access_cost.0 * words);
                    if cand < next[ti] {
                        next[ti] = cand;
                    }
                }
            }
            dp = next;
        }
        Ns(dp.into_iter().min().unwrap_or(0))
    }

    /// `optimal_cost` by the oracle: regroup by page, run the S² DP.
    pub(crate) fn oracle(trace: &Trace, costs: &CostModel, page_bytes: usize) -> OptimalReport {
        let mut by_page: BTreeMap<u64, Vec<(CpuId, Access, u64)>> = BTreeMap::new();
        let mut actual_ref_cost = Ns::ZERO;
        for e in trace.iter() {
            by_page
                .entry(trace.page_size.page_of(e.addr.0))
                .or_default()
                .push((e.cpu, e.kind, e.words));
            actual_ref_cost += costs.access(e.kind, e.dist) * e.words;
        }
        let copy = costs.page_copy(page_bytes);
        let per_page: BTreeMap<u64, Ns> =
            by_page.iter().map(|(&vpn, ev)| (vpn, page_optimal(ev, costs, copy))).collect();
        OptimalReport { optimal_cost: per_page.values().copied().sum(), actual_ref_cost, per_page }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The frontier against the oracle, with page copies dear (the
        /// ACE: ~100 references), comparable (~4) and nearly free, so
        /// every transition of the DP is the cheapest somewhere.
        #[test]
        fn frontier_is_the_dp_on_random_short_sequences(
            seq in proptest::collection::vec(
                (0u16..4, 0u64..3, proptest::prelude::any::<bool>(), 1u64..3),
                0..40,
            ),
        ) {
            let t = Trace::from_events(
                PageSize::new(PAGE),
                seq.iter().map(|&(c, page, store, words)| RefEvent {
                    t: Ns(0),
                    cpu: CpuId(c),
                    addr: VAddr(page * PAGE as u64),
                    kind: if store { Access::Store } else { Access::Fetch },
                    dist: Distance::Local,
                    words,
                }),
            );
            for (copy_word, copy_setup) in [(2_340, 20_000), (50, 0), (0, 1)] {
                let costs = CostModel {
                    copy_word: Ns(copy_word),
                    copy_setup: Ns(copy_setup),
                    ..CostModel::ace()
                };
                proptest::prop_assert_eq!(optimal_cost(&t, &costs, PAGE), oracle(&t, &costs, PAGE));
            }
        }
    }

    #[test]
    fn private_page_is_all_local() {
        let costs = CostModel::ace();
        let t = tr((0..100).map(|i| (0, (i % 8) * 4, Access::Store)).collect());
        let r = optimal_cost(&t, &costs, PAGE);
        // Optimal: Local(0) throughout: 100 local stores, no copies.
        assert_eq!(r.optimal_cost, costs.local_store * 100);
    }

    #[test]
    fn read_shared_page_is_replicated() {
        let costs = CostModel::ace();
        let events = (0..60).map(|i| ((i % 3) as u16, 0, Access::Fetch)).collect();
        let r = optimal_cost(&tr(events), &costs, PAGE);
        assert_eq!(r.optimal_cost, costs.local_fetch * 60);
    }

    #[test]
    fn heavy_write_sharing_prefers_global() {
        let costs = CostModel::ace();
        // Alternating writers: staying global beats copying every time.
        let events: Vec<_> = (0..40).map(|i| ((i % 2) as u16, 0, Access::Store)).collect();
        let r = optimal_cost(&tr(events), &costs, PAGE);
        assert_eq!(r.optimal_cost, costs.global_store * 40);
    }

    #[test]
    fn migration_pays_off_for_long_runs() {
        let costs = CostModel::ace();
        // 1000 writes by cpu0, then 1000 by cpu1: one copy amortizes.
        let mut events: Vec<_> = (0..1000).map(|_| (0u16, 0, Access::Store)).collect();
        events.extend((0..1000).map(|_| (1u16, 0, Access::Store)));
        let r = optimal_cost(&tr(events), &costs, PAGE);
        let copy = costs.page_copy(PAGE);
        assert_eq!(r.optimal_cost, costs.local_store * 2000 + copy);
        // And it beats staying global.
        assert!(r.optimal_cost < costs.global_store * 2000);
    }

    #[test]
    fn optimal_never_exceeds_all_global() {
        let costs = CostModel::ace();
        let events: Vec<_> = (0..200)
            .map(|i| {
                let cpu = (i % 5) as u16;
                let kind = if i % 3 == 0 { Access::Store } else { Access::Fetch };
                (cpu, (i % 64) * 4, kind)
            })
            .collect();
        let t = tr(events);
        let r = optimal_cost(&t, &costs, PAGE);
        let all_global: Ns =
            t.iter().map(|e| costs.access(e.kind, Distance::Global) * e.words).sum();
        assert!(r.optimal_cost <= all_global);
    }

    #[test]
    fn actual_ref_cost_uses_traced_distances() {
        let costs = CostModel::ace();
        let t = tr(vec![(0, 0, Access::Fetch)]);
        let r = optimal_cost(&t, &costs, PAGE);
        // The event above is marked Global in the helper.
        assert_eq!(r.actual_ref_cost, costs.global_fetch);
    }
}
