//! Trace-driven policy replay.
//!
//! Replays a captured reference trace against the consistency protocol's
//! transition tables under an arbitrary policy, charging reference and
//! page-copy costs — a cheap way to compare placement policies offline
//! without re-running the application (the "trace-driven analyses" of
//! section 5).
//!
//! The replay mirrors the online manager's state machine (including
//! which accesses fault and reach the policy) but not the engine's
//! timing feedback: the trace's interleaving is fixed. That is exactly
//! the usual methodology — and its usual caveat.

use crate::record::{PerPage, Trace};
use ace_machine::{Access, CostModel, CpuId, CpuSet, Distance, Ns};
use mach_vm::LPageId;
use numa_core::{plan, CachePolicy, Cleanup, TableState};

/// Replay results.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Total reference cost under the replayed policy.
    pub ref_cost: Ns,
    /// Total page-copy cost (replication, migration, sync).
    pub copy_cost: Ns,
    /// Number of requests that reached the policy.
    pub requests: u64,
    /// Number of page copies performed.
    pub copies: u64,
    /// References served locally.
    pub local_refs: u64,
    /// References served from global memory.
    pub global_refs: u64,
}

impl ReplayReport {
    /// Reference + copy cost.
    pub fn total_cost(&self) -> Ns {
        self.ref_cost + self.copy_cost
    }

    /// Fraction of references served locally.
    pub fn alpha(&self) -> f64 {
        let total = self.local_refs + self.global_refs;
        if total == 0 {
            1.0
        } else {
            self.local_refs as f64 / total as f64
        }
    }
}

/// Protocol state of one page during replay.
struct Page {
    state: TableState,
    owner: Option<CpuId>,
    replicas: CpuSet,
    last_owner: Option<CpuId>,
}

impl Page {
    /// Does this access fault (reach the policy)? (The replayer models
    /// the paper's two-level protocol only; the remote extension never
    /// appears because replayed policies answer Local/Global.)
    fn faults(&self, kind: Access, cpu: CpuId) -> bool {
        match self.state {
            TableState::GlobalWritable | TableState::RemoteShared => false,
            TableState::ReadOnly => kind == Access::Store || !self.replicas.contains(cpu),
            TableState::LocalWritableOwn | TableState::LocalWritableOther => {
                self.owner != Some(cpu)
            }
        }
    }
}

/// Replays `trace` under `policy` with the given costs. The policy sees
/// each page under its dense per-trace index (order of first reference),
/// so no two pages of a trace can share policy state.
///
/// Only a run's first reference is stepped through the protocol. Within
/// a run the same processor repeats the same kind of access to the same
/// page with nobody in between, and the state any step leaves behind
/// serves the access that caused it, so the rest of the run cannot fault:
/// it is charged in one multiplication at the placement the first
/// reference produced.
pub fn replay(
    trace: &Trace,
    policy: &mut dyn CachePolicy,
    costs: &CostModel,
    page_bytes: usize,
) -> ReplayReport {
    assert_eq!(
        page_bytes,
        trace.page_size.bytes(),
        "replay: page_bytes disagrees with the page size the trace was recorded at"
    );
    let copy = costs.page_copy(page_bytes);
    let mut pages: PerPage<Page> = PerPage::new();
    let mut rep = ReplayReport::default();
    for run in trace.runs() {
        let (cpu, kind) = (run.cpu, run.kind);
        let (idx, p) = pages.entry(trace.vpn_of(run), || Page {
            state: TableState::ReadOnly,
            owner: None,
            replicas: CpuSet::EMPTY,
            last_owner: None,
        });
        let lpage = LPageId(idx);
        if p.faults(kind, cpu) {
            rep.requests += 1;
            let decision = policy.decide(lpage, kind, cpu);
            let viewed = match p.state {
                TableState::LocalWritableOwn | TableState::LocalWritableOther => {
                    if p.owner == Some(cpu) {
                        TableState::LocalWritableOwn
                    } else {
                        TableState::LocalWritableOther
                    }
                }
                s => s,
            };
            let pl = plan(kind, decision, viewed);
            // Charge copies: sync half of sync&flush cleanups, plus the
            // copy-to-local.
            match pl.cleanup {
                Cleanup::SyncFlushOwn | Cleanup::SyncFlushOther => {
                    rep.copy_cost += copy;
                    rep.copies += 1;
                }
                _ => {}
            }
            if pl.copy_to_local && !p.replicas.contains(cpu) {
                rep.copy_cost += copy;
                rep.copies += 1;
            }
            // Apply the new state.
            match pl.new_state {
                TableState::ReadOnly => {
                    match pl.cleanup {
                        Cleanup::FlushAll => p.replicas = CpuSet::EMPTY,
                        Cleanup::FlushOther | Cleanup::SyncFlushOther | Cleanup::SyncFlushOwn => {
                            p.replicas = CpuSet::EMPTY;
                        }
                        _ => {}
                    }
                    p.replicas.insert(cpu);
                    p.state = TableState::ReadOnly;
                    p.owner = None;
                }
                TableState::LocalWritableOwn => {
                    if p.last_owner.is_some() && p.last_owner != Some(cpu) {
                        policy.on_move(lpage);
                    }
                    p.last_owner = Some(cpu);
                    p.replicas = CpuSet::singleton(cpu);
                    p.owner = Some(cpu);
                    p.state = TableState::LocalWritableOwn;
                }
                TableState::GlobalWritable => {
                    p.replicas = CpuSet::EMPTY;
                    p.owner = None;
                    p.state = TableState::GlobalWritable;
                }
                TableState::LocalWritableOther | TableState::RemoteShared => unreachable!(),
            }
            assert!(
                run.count == 1 || !p.faults(kind, cpu),
                "replay: {kind:?} by {cpu} on page {} faults again right after its fault was served",
                trace.vpn_of(run)
            );
        }
        // Charge the run at its (new) placement.
        let local = match p.state {
            TableState::GlobalWritable => false,
            TableState::ReadOnly => p.replicas.contains(cpu),
            _ => p.owner == Some(cpu),
        };
        let d = if local { Distance::Local } else { Distance::Global };
        let words = run.total_words();
        rep.ref_cost += costs.access(kind, d) * words;
        if local {
            rep.local_refs += words;
        } else {
            rep.global_refs += words;
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_machine::PageSize;
    use ace_sim::RefEvent;
    use mach_vm::VAddr;
    use numa_core::{AllGlobalPolicy, MoveLimitPolicy};

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

    #[test]
    fn all_global_replay_charges_global() {
        let costs = CostModel::ace();
        let t = tr(vec![(0, 0, Access::Store), (0, 0, Access::Fetch)]);
        let r = replay(&t, &mut AllGlobalPolicy, &costs, PAGE);
        assert_eq!(r.ref_cost, costs.global_store + costs.global_fetch);
        assert_eq!(r.copies, 0);
        assert_eq!(r.alpha(), 0.0);
    }

    #[test]
    fn private_writes_stay_local_under_move_limit() {
        let costs = CostModel::ace();
        let t = tr((0..50).map(|_| (0, 0, Access::Store)).collect());
        let r = replay(&t, &mut MoveLimitPolicy::default(), &costs, PAGE);
        assert_eq!(r.alpha(), 1.0);
        assert_eq!(r.requests, 1, "only the first write faults");
    }

    #[test]
    fn ping_pong_pins_and_stops_copying() {
        let costs = CostModel::ace();
        let events: Vec<_> = (0..40).map(|i| ((i % 2) as u16, 0, Access::Store)).collect();
        let t = tr(events);
        let mut pol = MoveLimitPolicy::new(4);
        let r = replay(&t, &mut pol, &costs, PAGE);
        // After pinning, no more copies: total copies bounded by the
        // early migrations.
        assert!(r.copies <= 12, "copies = {}", r.copies);
        assert!(r.global_refs > 20);
        // A non-pinning policy would copy on every alternation.
        let mut greedy = numa_core::AllLocalPolicy;
        let r2 = replay(&t, &mut greedy, &costs, PAGE);
        assert!(r2.copies > 30);
        assert!(r2.total_cost() > r.total_cost(), "pinning must win here");
    }

    #[test]
    fn read_sharing_replicates_once_per_cpu() {
        let costs = CostModel::ace();
        let events: Vec<_> = (0..30).map(|i| ((i % 3) as u16, 0, Access::Fetch)).collect();
        let r = replay(&tr(events), &mut MoveLimitPolicy::default(), &costs, PAGE);
        assert_eq!(r.requests, 3, "one fault per cpu");
        assert_eq!(r.copies, 3);
        assert_eq!(r.alpha(), 1.0);
    }
}
