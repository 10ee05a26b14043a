//! Property-based state-machine test for the coherence protocol.
//!
//! Drives `NumaManager::request` directly (no engine, no threads — the
//! manager itself serializes every transition, so this *is* the flat
//! sequentially-consistent setting the protocol promises) with long
//! seeded streams of random reads, writes, migrations, and pins across
//! processors and pages, and checks three properties after every step:
//!
//! 1. **Sequential consistency** — a flat oracle holds the byte
//!    contents each page must have; every granted frame must agree with
//!    it before the access and after it.
//! 2. **Legal states** (Tables 1 and 2 of the paper) — the directory
//!    state the manager lands in must equal the `new_state` of the
//!    [`numa_core::plan`] cell selected by (access, decision, prior
//!    state), whenever the decision was executed as made (memory
//!    pressure and hardware faults may legitimately degrade LOCAL to
//!    GLOBAL; those steps skip the table check but not the others).
//! 3. **Structural invariants** — `NumaManager::check_invariants`
//!    (replica freshness, exactly-one-copy for local-writable, no local
//!    copies for global-writable, ...) must hold for every page.
//!
//! The generator is a hand-rolled SplitMix64 so failures reproduce from
//! the printed seed alone.

use numa_repro::machine::{
    Access, CpuId, FaultConfig, Frame, Machine, MemRegion, NodeId, TopologyBuilder,
};
use numa_repro::numa::{
    plan, CachePolicy, FlushLimitPolicy, LruReclaim, MoveLimitPolicy, NumaManager, PinReason,
    Placement, ReclaimCandidate, ReclaimPolicy, StateKind, TableState,
};
use numa_repro::vm::LPageId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const PAGES: u32 = 6;
const CPUS: u16 = 4;
const OPS: usize = 300;

/// SplitMix64: tiny, seedable, and good enough to shuffle op streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Wraps any policy and records the decision it just made, so the test
/// can look up the Table 1/2 cell the manager was asked to execute.
struct Recording<P: CachePolicy> {
    inner: P,
    last: Option<Placement>,
}

impl<P: CachePolicy> Recording<P> {
    fn new(inner: P) -> Recording<P> {
        Recording { inner, last: None }
    }
}

impl<P: CachePolicy> CachePolicy for Recording<P> {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn decide(&mut self, lpage: LPageId, access: Access, cpu: CpuId) -> Placement {
        let d = self.inner.decide(lpage, access, cpu);
        self.last = Some(d);
        d
    }

    fn on_move(&mut self, lpage: LPageId) {
        self.inner.on_move(lpage);
    }

    fn on_invalidation(&mut self, lpage: LPageId, copies: u32, writer: NodeId) {
        self.inner.on_invalidation(lpage, copies, writer);
    }

    fn on_free(&mut self, lpage: LPageId) {
        self.inner.on_free(lpage);
    }

    fn on_tick(&mut self) {
        self.inner.on_tick();
    }

    fn take_reconsiderations(&mut self) -> Vec<LPageId> {
        self.inner.take_reconsiderations()
    }

    fn pin_reason(&self, lpage: LPageId) -> Option<PinReason> {
        self.inner.pin_reason(lpage)
    }
}

/// A policy that flips a seeded coin between LOCAL and GLOBAL, which
/// wanders the protocol through every cell of Tables 1 and 2.
struct CoinPolicy(Rng);

impl CachePolicy for CoinPolicy {
    fn name(&self) -> &'static str {
        "coin"
    }

    fn decide(&mut self, _lpage: LPageId, _access: Access, _cpu: CpuId) -> Placement {
        if self.0.below(2) == 0 {
            Placement::Local
        } else {
            Placement::Global
        }
    }
}

/// Maps the directory state to the Table 1/2 row seen by a processor
/// whose local memory is `home`, or `None` where the tables don't apply
/// (first touch of a fresh page; the remote-reference extension
/// bypasses the tables entirely).
fn table_row(state: StateKind, home: NodeId) -> Option<TableState> {
    match state {
        StateKind::Fresh => None,
        StateKind::ReadOnly => Some(TableState::ReadOnly),
        StateKind::GlobalWritable => Some(TableState::GlobalWritable),
        StateKind::LocalWritable(owner) if owner == home => Some(TableState::LocalWritableOwn),
        StateKind::LocalWritable(_) => Some(TableState::LocalWritableOther),
        StateKind::RemoteShared(_) => None,
    }
}

/// Maps a Table 1/2 `new_state` back to the directory state it implies
/// for a requesting processor homed on `home`.
fn expected_state(new_state: TableState, home: NodeId) -> StateKind {
    match new_state {
        TableState::ReadOnly => StateKind::ReadOnly,
        TableState::GlobalWritable => StateKind::GlobalWritable,
        TableState::LocalWritableOwn => StateKind::LocalWritable(home),
        other => panic!("plan() produced impossible new_state {other:?}"),
    }
}

/// The directory-scan reference for the residency index: what a walk of
/// the whole directory finds in `node`'s local memory, sorted by page id
/// — how victim selection, the pressure daemon and node-loss recovery
/// found their pages before the index existed. `frame_owners` visits
/// every copy of every page and never reads the index.
fn scan_node(mgr: &NumaManager, node: NodeId) -> Vec<(LPageId, Frame)> {
    let mut found: Vec<(LPageId, Frame)> = mgr
        .frame_owners()
        .into_iter()
        .filter(|(f, _)| f.region == MemRegion::Local(node))
        .map(|(f, (lp, _))| (lp, f))
        .collect();
    found.sort_by_key(|&(lp, _)| lp);
    found
}

/// Property 4: the index can never drift. On every node the three
/// indexed walks — the node's residents (what `node_offline` recovers),
/// `reclaim_candidates` for every possible faulting page, and the
/// pressure daemon's next victim — equal the directory scan's answer
/// element for element, order included.
fn assert_index_matches_scan(m: &Machine, mgr: &NumaManager, tag: &str) {
    mgr.check_residency_index().unwrap_or_else(|e| panic!("{tag}: {e}"));
    for node in (0..CPUS).map(NodeId) {
        let scan = scan_node(mgr, node);
        let indexed: Vec<(LPageId, Frame)> = mgr.resident_on(node).collect();
        assert_eq!(indexed, scan, "{tag}: residents of {node}");
        // Every page as the excluded one, and an id no page has.
        for exclude in (0..=PAGES).map(LPageId) {
            let want: Vec<ReclaimCandidate> = scan
                .iter()
                .filter(|&&(lp, f)| {
                    lp != exclude
                        && !matches!(mgr.view(lp).state, StateKind::RemoteShared(_))
                        && !m.mem.is_quarantined(f)
                })
                .map(|&(lp, f)| ReclaimCandidate {
                    lpage: lp,
                    frame: f,
                    last_touch: m.mem.last_touch(f),
                    writable: mgr.view(lp).state == StateKind::LocalWritable(node),
                })
                .collect();
            assert_eq!(
                mgr.reclaim_candidates(m, node, exclude),
                want,
                "{tag}: candidates on {node} excluding {exclude:?}"
            );
        }
        let victim = scan
            .iter()
            .filter(|&&(lp, _)| {
                let v = mgr.view(lp);
                v.state == StateKind::ReadOnly && v.global_valid
            })
            .map(|&(lp, f)| (m.mem.last_touch(f), lp))
            .min()
            .map(|(_, lp)| lp);
        assert_eq!(mgr.pressure_victim(m, node), victim, "{tag}: daemon victim on {node}");
    }
}

/// Runs one seeded op stream against the given policy and checks the
/// three properties after every step. Returns the manager for extra,
/// policy-specific assertions.
fn run_stream<P: CachePolicy>(
    seed: u64,
    faults: FaultConfig,
    policy: Recording<P>,
) -> (Machine, NumaManager, Recording<P>) {
    run_stream_with_frames(seed, faults, policy, None)
}

/// [`run_stream`] on a machine whose per-processor local memory is
/// shrunk to `local_frames` frames, so synchronous reclaim and
/// degrade-to-global fire constantly under the same three properties.
fn run_stream_with_frames<P: CachePolicy>(
    seed: u64,
    faults: FaultConfig,
    mut policy: Recording<P>,
    local_frames: Option<usize>,
) -> (Machine, NumaManager, Recording<P>) {
    let mut cfg = TopologyBuilder::small(CPUS as usize).config();
    cfg.faults = faults;
    if let Some(frames) = local_frames {
        cfg.topology.set_uniform_local_frames(frames);
    }
    let psize = cfg.page_size.bytes();
    let mut m = Machine::new(cfg);
    let mut mgr = NumaManager::new();

    // Flat sequentially-consistent oracle: the byte contents every page
    // must expose, updated on each granted store.
    let mut oracle: HashMap<u32, Vec<u8>> = HashMap::new();
    for p in 0..PAGES {
        mgr.zero_page(LPageId(p));
        oracle.insert(p, vec![0u8; psize]);
    }

    let mut rng = Rng(seed);
    let mut buf = vec![0u8; psize];
    for step in 0..OPS {
        let page = LPageId(rng.below(u64::from(PAGES)) as u32);
        let cpu = CpuId(rng.below(u64::from(CPUS)) as u16);
        let access = if rng.below(2) == 0 { Access::Fetch } else { Access::Store };
        let tag = format!("seed {seed:#x} step {step}: {access:?} page {page:?} on {cpu:?}");

        let prior = mgr.view(page).state;
        let stats0 = mgr.stats();
        let g = mgr
            .request(&mut m, page, access, cpu, &mut policy)
            .unwrap_or_else(|e| panic!("{tag}: request failed: {e:?}"));
        let decision = policy.last.take().expect("policy was consulted");

        // Property 1a: the granted frame holds exactly what the oracle
        // says the page holds — migrations and replications lose
        // nothing, and stale replicas are never handed out.
        let want = &oracle[&page.0];
        m.mem.read_bytes(g.frame, 0, &mut buf);
        assert_eq!(&buf, want, "{tag}: granted frame disagrees with the oracle");

        // Property 1b: the grant's protection ceiling admits the access.
        match access {
            Access::Fetch => assert!(g.prot_ceiling.allows_read(), "{tag}: unreadable grant"),
            Access::Store => assert!(g.prot_ceiling.allows_write(), "{tag}: unwritable grant"),
        }
        if access == Access::Store {
            let off = rng.below((psize / 4) as u64) as usize * 4;
            let val = rng.next() as u32;
            m.mem.write_u32(g.frame, off, val);
            oracle.get_mut(&page.0).unwrap()[off..off + 4].copy_from_slice(&val.to_le_bytes());
        }

        // Property 2: the state the manager landed in is the new_state
        // of the Table 1/2 cell for (access, decision, prior state) —
        // unless pressure or a hardware fault legitimately degraded the
        // decision mid-flight, which the fallback counters reveal.
        let stats1 = mgr.stats();
        let degraded = stats1.local_pressure_fallbacks != stats0.local_pressure_fallbacks
            || stats1.fault_global_fallbacks != stats0.fault_global_fallbacks;
        if let Some(row) = table_row(prior, m.home_of(cpu)) {
            if !degraded {
                let cell = plan(access, decision, row);
                assert_eq!(
                    mgr.view(page).state,
                    expected_state(cell.new_state, m.home_of(cpu)),
                    "{tag}: landed outside the Table 1/2 cell (prior {row:?}, {decision:?})"
                );
            }
        }

        // Property 3: structural invariants for every page, every step.
        for p in 0..PAGES {
            mgr.check_invariants(&mut m, LPageId(p))
                .unwrap_or_else(|e| panic!("{tag}: invariant broken on page {p}: {e}"));
        }
        assert_index_matches_scan(&m, &mgr, &tag);
    }

    // Final read-back through the authoritative path must match the
    // oracle for every page.
    for p in 0..PAGES {
        let mut got = vec![0u8; psize];
        mgr.read_page(&mut m, LPageId(p), &mut got, CpuId(0));
        assert_eq!(&got, &oracle[&p], "seed {seed:#x}: final contents of page {p} diverged");
    }
    (m, mgr, policy)
}

#[test]
fn random_ops_stay_coherent_and_inside_the_tables() {
    for seed in [0x0ACE_5EED, 1, 2, 3] {
        let coin = CoinPolicy(Rng(seed ^ 0xC01D_C0FF_EE00_0000));
        let (_, mgr, _) = run_stream(seed, FaultConfig::disabled(), Recording::new(coin));
        let s = mgr.stats();
        assert_eq!(s.requests, OPS as u64, "every op goes through the manager");
        // The coin policy must actually have wandered the tables:
        // replications (read sharing), migrations (write stealing), and
        // global placements all occur in 300 mixed ops.
        assert!(s.replications > 0, "stream never replicated: {s:?}");
        assert!(s.migrations > 0, "stream never migrated: {s:?}");
        assert!(s.to_global > 0, "stream never went global: {s:?}");
        assert_eq!(s.local_pressure_fallbacks, 0, "small(4) has frames to spare");
    }
}

#[test]
fn random_ops_stay_coherent_under_memory_pressure() {
    // The same three properties on machines with only 2-4 local frames
    // per processor: every LOCAL placement contends for frames, so
    // synchronous reclaim (and, once the per-request budget runs out,
    // degrade-to-global) fires constantly. Neither may ever surface
    // stale bytes, land outside the tables, or break an invariant.
    let mut total_reclaims = 0u64;
    for (seed, frames) in [(0x0ACE_5EEDu64, 2usize), (1, 2), (2, 3), (3, 4)] {
        let coin = CoinPolicy(Rng(seed ^ 0x5C4A_7C17_0000_0000));
        let (_, mgr, _) = run_stream_with_frames(
            seed,
            FaultConfig::disabled(),
            Recording::new(coin),
            Some(frames),
        );
        let s = mgr.stats();
        if frames == 2 {
            assert!(
                s.reclaims > 0,
                "2 local frames for {PAGES} pages must force reclaim: {s:?}"
            );
        }
        assert_eq!(
            s.local_pressure_fallbacks, s.degradations,
            "every pressure fallback is a typed degradation: {s:?}"
        );
        total_reclaims += s.reclaims;
    }
    assert!(total_reclaims > 0, "the pressure matrix never exercised reclaim");
}

#[test]
fn reclaimed_then_refetched_pages_are_byte_identical() {
    // Deterministic single-frame squeeze: with one local frame per
    // processor, every new LOCAL placement must evict the previous
    // tenant. A dirty victim is synced to global on the way out, so
    // refetching it later returns exactly the written bytes.
    use numa_repro::numa::AllLocalPolicy;
    let cfg = TopologyBuilder::small(2).local_frames(1).config();
    let psize = cfg.page_size.bytes();
    let mut m = Machine::new(cfg);
    let mut mgr = NumaManager::new();
    let mut pol = AllLocalPolicy;
    const A: LPageId = LPageId(0);
    const B: LPageId = LPageId(1);
    mgr.zero_page(A);
    mgr.zero_page(B);
    let cpu = CpuId(0);

    // Dirty page A in cpu0's only local frame.
    let g = mgr.request(&mut m, A, Access::Store, cpu, &mut pol).unwrap();
    let pattern: Vec<u8> = (0..psize).map(|i| (i * 7 + 13) as u8).collect();
    m.mem.write_bytes(g.frame, 0, &pattern);
    mgr.check_invariants(&mut m, A).unwrap();

    // Touching B forces A out: the writable victim must sync to global.
    let syncs_before = mgr.stats().syncs;
    mgr.request(&mut m, B, Access::Fetch, cpu, &mut pol).unwrap();
    assert!(mgr.stats().reclaims > 0, "B's placement must evict A");
    assert!(mgr.stats().syncs > syncs_before, "dirty victim must be synced, not dropped");
    mgr.check_invariants(&mut m, A).unwrap();
    mgr.check_invariants(&mut m, B).unwrap();

    // Refetching A (evicting B in turn) returns the exact bytes.
    let g = mgr.request(&mut m, A, Access::Fetch, cpu, &mut pol).unwrap();
    let mut got = vec![0u8; psize];
    m.mem.read_bytes(g.frame, 0, &mut got);
    assert_eq!(got, pattern, "reclaimed-then-refetched page lost data");
    assert!(mgr.stats().reclaims >= 2);
    mgr.check_invariants(&mut m, A).unwrap();
    mgr.check_invariants(&mut m, B).unwrap();
}

#[test]
fn random_ops_stay_coherent_under_fault_injection() {
    // Same properties with the fault clock running: recovery (retries,
    // refetches, quarantines, degradations) may reroute placements but
    // can never surface stale or corrupt data, leave an illegal state,
    // or break an invariant.
    for seed in [0x0ACE_5EED, 7] {
        let faults = FaultConfig {
            seed,
            bus_timeout_rate: 0.05,
            bad_frame_rate: 0.05,
            corruption_rate: 0.05,
            ..FaultConfig::disabled()
        };
        let coin = CoinPolicy(Rng(seed ^ 0xFA17_0000_0000_0000));
        let (_, mgr, _) = run_stream(seed, faults, Recording::new(coin));
        let s = mgr.stats();
        assert!(
            s.bus_retries + s.corruptions_detected + s.frame_quarantines > 0,
            "fault rates of 5% must actually fire in 300 ops: {s:?}"
        );
    }
}

/// Hard component loss inside the property harness: at a scheduled step
/// mid-stream, one node's memory goes offline and the manager runs its
/// recovery protocol. The same three properties must hold on every step
/// *after* recovery — with two typed amendments:
///
/// * pages the recovery classified as lost (`PageLost`) restart as
///   zero-filled Fresh pages, so the oracle resets them to zeros;
/// * LOCAL placements aimed at the dead node legitimately degrade to
///   GLOBAL (`dead_node_fallbacks`), which skips the table cell check
///   exactly like pressure degradations do.
///
/// Returns everything observable so the determinism test can compare
/// two whole runs byte for byte.
fn run_chaos_stream(
    seed: u64,
    offline_step: usize,
    dead: NodeId,
) -> (numa_repro::numa::NumaStats, Vec<Vec<u8>>, Vec<numa_repro::numa::FaultEvent>) {
    use numa_repro::numa::FaultEvent;
    let cfg = TopologyBuilder::small(CPUS as usize).config();
    let psize = cfg.page_size.bytes();
    let mut m = Machine::new(cfg);
    let mut mgr = NumaManager::new();
    let mut policy = Recording::new(CoinPolicy(Rng(seed ^ 0xDEAD_0000_0000_0000)));

    let mut oracle: HashMap<u32, Vec<u8>> = HashMap::new();
    for p in 0..PAGES {
        mgr.zero_page(LPageId(p));
        oracle.insert(p, vec![0u8; psize]);
    }

    let mut rng = Rng(seed);
    let mut buf = vec![0u8; psize];
    for step in 0..OPS {
        if step == offline_step {
            let events_before = mgr.fault_events().len();
            let affected: Vec<LPageId> = scan_node(&mgr, dead).into_iter().map(|(lp, _)| lp).collect();
            mgr.node_offline(&mut m, dead);
            // Recovery visits exactly the pages the directory scan finds
            // on the dying node, in page-id order, once each.
            let recovered: Vec<LPageId> = mgr.fault_events()[events_before..]
                .iter()
                .filter_map(|e| match e {
                    FaultEvent::PageRehomed { lpage, .. } | FaultEvent::PageLost { lpage, .. } => {
                        Some(*lpage)
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(recovered, affected, "seed {seed:#x}: node_offline's affected list");
            // Typed losses restart as zero-filled Fresh pages: the
            // sequentially-consistent oracle adopts exactly that truth.
            let lost: Vec<LPageId> = mgr.fault_events()[events_before..]
                .iter()
                .filter_map(|e| match e {
                    FaultEvent::PageLost { lpage, .. } => Some(*lpage),
                    _ => None,
                })
                .collect();
            for lp in lost {
                oracle.insert(lp.0, vec![0u8; psize]);
            }
            // Recovery leaves every page structurally legal before any
            // further request runs.
            for p in 0..PAGES {
                mgr.check_invariants(&mut m, LPageId(p)).unwrap_or_else(|e| {
                    panic!("seed {seed:#x}: invariant broken right after recovery on page {p}: {e}")
                });
            }
        }

        let page = LPageId(rng.below(u64::from(PAGES)) as u32);
        let cpu = CpuId(rng.below(u64::from(CPUS)) as u16);
        let access = if rng.below(2) == 0 { Access::Fetch } else { Access::Store };
        let tag = format!("seed {seed:#x} step {step}: {access:?} page {page:?} on {cpu:?}");

        let prior = mgr.view(page).state;
        let stats0 = mgr.stats();
        let g = mgr
            .request(&mut m, page, access, cpu, &mut policy)
            .unwrap_or_else(|e| panic!("{tag}: request failed after recovery: {e:?}"));
        let decision = policy.last.take().expect("policy was consulted");

        let want = &oracle[&page.0];
        m.mem.read_bytes(g.frame, 0, &mut buf);
        assert_eq!(&buf, want, "{tag}: granted frame disagrees with the oracle");
        if access == Access::Store {
            let off = rng.below((psize / 4) as u64) as usize * 4;
            let val = rng.next() as u32;
            m.mem.write_u32(g.frame, off, val);
            oracle.get_mut(&page.0).unwrap()[off..off + 4].copy_from_slice(&val.to_le_bytes());
        }

        let stats1 = mgr.stats();
        let degraded = stats1.local_pressure_fallbacks != stats0.local_pressure_fallbacks
            || stats1.fault_global_fallbacks != stats0.fault_global_fallbacks
            || stats1.dead_node_fallbacks != stats0.dead_node_fallbacks;
        if let Some(row) = table_row(prior, m.home_of(cpu)) {
            if !degraded {
                let cell = plan(access, decision, row);
                assert_eq!(
                    mgr.view(page).state,
                    expected_state(cell.new_state, m.home_of(cpu)),
                    "{tag}: landed outside the Table 1/2 cell (prior {row:?}, {decision:?})"
                );
            }
        }
        for p in 0..PAGES {
            mgr.check_invariants(&mut m, LPageId(p))
                .unwrap_or_else(|e| panic!("{tag}: invariant broken on page {p}: {e}"));
        }
        assert_index_matches_scan(&m, &mgr, &tag);
    }

    let mut finals = Vec::new();
    for p in 0..PAGES {
        let mut got = vec![0u8; psize];
        mgr.read_page(&mut m, LPageId(p), &mut got, CpuId(0));
        assert_eq!(&got, &oracle[&p], "seed {seed:#x}: final contents of page {p} diverged");
        finals.push(got);
    }
    (mgr.stats(), finals, mgr.fault_events().to_vec())
}

#[test]
fn post_recovery_state_satisfies_the_tables_and_the_oracle() {
    let mut total_recovered = 0u64;
    for seed in [0x0ACE_5EED, 11, 12] {
        let (stats, _, events) = run_chaos_stream(seed, OPS / 3, NodeId(1));
        assert_eq!(stats.nodes_offlined, 1, "seed {seed:#x}: the node must die once");
        total_recovered += stats.pages_rehomed + stats.pages_lost;
        assert!(
            stats.dead_node_fallbacks > 0,
            "seed {seed:#x}: the coin policy keeps aiming LOCAL at the dead node: {stats:?}"
        );
        assert!(
            events.iter().any(|e| matches!(
                e,
                numa_repro::numa::FaultEvent::NodeOffline { node: NodeId(1), .. }
            )),
            "seed {seed:#x}: the loss must be a typed fault event"
        );
    }
    // Whether a given step leaves copies on the dying node is
    // seed-dependent; across the matrix at least one run must exercise
    // the rehome/lost classifier for the test to mean anything.
    assert!(
        total_recovered > 0,
        "no seed in the matrix left copies on the dying node — recovery never ran"
    );
}

#[test]
fn recovery_runs_byte_identical_across_reruns() {
    for seed in [0x0ACE_5EED, 21] {
        let first = run_chaos_stream(seed, OPS / 2, NodeId(2));
        let second = run_chaos_stream(seed, OPS / 2, NodeId(2));
        assert_eq!(first.0, second.0, "seed {seed:#x}: recovery stats diverged across reruns");
        assert_eq!(first.1, second.1, "seed {seed:#x}: final page bytes diverged across reruns");
        assert_eq!(first.2, second.2, "seed {seed:#x}: fault-event log diverged across reruns");
    }
}

/// Overload shedding as a protocol property. A seeded matrix of
/// protection knobs (bounded queues, deadlines, tenant quotas) drives
/// the serving workload through admission, with and without the fault
/// clock running. Three things must hold for every combination:
///
/// 1. **Shed requests leave the store untouched** — `KvServe::run`
///    verifies the final KV words against a host-side replay of exactly
///    the served puts, so a shed request that mutated any word fails
///    the run outright;
/// 2. **the ledger is exact** — every generated request is accounted
///    admitted or shed with a typed reason, nothing double-counted;
/// 3. **the directory stays Table-legal** — `check_consistency` walks
///    every page's Table 1/2 invariants after the last request, faults
///    or not.
///
/// And the whole composition reproduces byte-for-byte from the seed.
#[test]
fn shed_requests_never_mutate_state_with_and_without_faults() {
    use numa_repro::apps::{App, KvServe, Scale, ServeParams};
    use numa_repro::sim::{SimConfig, Simulator};
    const SERVE_SEED: u64 = 0x0ACE_CAFE;
    let mut rng = Rng(SERVE_SEED);
    for case in 0..6u32 {
        let params = ServeParams {
            requests: 256,
            rate: 4_000 + rng.below(60_000),
            tenants: 1 + rng.below(4) as usize,
            queue_depth: rng.below(3) as usize * 3,
            deadline_ns: [0, 150_000, 400_000][rng.below(3) as usize],
            tenant_quota: [0, 500, 2_000][rng.below(3) as usize],
            ..ServeParams::for_scale(Scale::Test)
        };
        for faults in [false, true] {
            let tag = format!("seed {SERVE_SEED:#x} case {case} faults={faults}");
            let observe = |p: ServeParams| {
                let mut cfg = SimConfig::small(3);
                if faults {
                    cfg = cfg.faults(FaultConfig {
                        seed: 0x0ACE_5EED,
                        bus_timeout_rate: 0.01,
                        bad_frame_rate: 0.01,
                        corruption_rate: 0.01,
                        ..FaultConfig::default()
                    });
                }
                let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
                KvServe::new(p)
                    .run(&mut sim, 3)
                    .unwrap_or_else(|e| panic!("{tag}: a shed request corrupted state: {e}"));
                sim.with_kernel(|k| k.check_consistency())
                    .unwrap_or_else(|e| panic!("{tag}: directory illegal after serving: {e}"));
                sim.report()
            };
            let report = observe(params.clone());
            let s = report.serving.as_ref().expect("serving report attached");
            assert_eq!(
                s.requests,
                s.admitted + s.shed_queue_full + s.shed_deadline + s.shed_quota,
                "{tag}: ledger out of balance: {s:?}"
            );
            assert_eq!(s.admitted, s.gets + s.puts, "{tag}: admitted != served");
            assert_eq!(s.latency.total(), s.admitted, "{tag}: unmeasured admissions");
            let limited =
                params.queue_depth > 0 || params.deadline_ns > 0 || params.tenant_quota > 0;
            assert_eq!(s.limited, limited, "{tag}: limited flag disagrees with the knobs");
            if !limited {
                assert_eq!(s.shed_total(), 0, "{tag}: unprotected runs never shed");
            }
            // Byte-identical reproduction from the same seed and knobs.
            let again = observe(params.clone());
            assert_eq!(
                report.to_json().to_string_flat(),
                again.to_json().to_string_flat(),
                "{tag}: rerun diverged"
            );
        }
    }
}

#[test]
fn random_ops_with_the_paper_policy_pin_hot_pages() {
    // MoveLimitPolicy under the same harness: the protocol properties
    // hold, and pages whose ownership ping-pongs end up pinned global.
    let (_, _, policy) = run_stream(
        0x0ACE_5EED,
        FaultConfig::disabled(),
        Recording::new(MoveLimitPolicy::new(2)),
    );
    assert!(
        policy.inner.pinned_count() > 0,
        "random cross-CPU writes must trip the move limit"
    );
}

#[test]
fn random_ops_with_the_flush_policy_stay_coherent_and_pin() {
    // FlushLimitPolicy under the full property harness: sequential
    // consistency, Table 1/2 legality and the structural invariants
    // hold on every step, and read-write sharing (which never trips
    // the move limit) trips the flush budget instead.
    for seed in [0x0ACE_5EED, 31] {
        let (_, mgr, policy) = run_stream(
            seed,
            FaultConfig::disabled(),
            Recording::new(FlushLimitPolicy::new(2, 0)),
        );
        let s = mgr.stats();
        assert!(
            policy.inner.pinned_pages().count() > 0,
            "seed {seed:#x}: random sharing must trip a flush budget of 2: {s:?}"
        );
        assert!(s.coherence_invalidations > 0, "seed {seed:#x}: no invalidations: {s:?}");
        assert!(s.flush_pins > 0, "seed {seed:#x}: pins must be attributed to flushes: {s:?}");
        assert_eq!(s.pins, 0, "seed {seed:#x}: the move-limit pin path must not fire: {s:?}");
    }
}

#[test]
fn random_ops_with_the_flush_policy_stay_coherent_under_faults() {
    // The same harness with the fault clock running: recovery may
    // reroute placements, but the flush accounting still only counts
    // coherence invalidations and the properties all hold.
    let faults = FaultConfig {
        seed: 0x0ACE_5EED,
        bus_timeout_rate: 0.05,
        bad_frame_rate: 0.05,
        corruption_rate: 0.05,
        ..FaultConfig::disabled()
    };
    let (_, mgr, policy) =
        run_stream(0x0ACE_5EED, faults, Recording::new(FlushLimitPolicy::new(2, 0)));
    let s = mgr.stats();
    assert!(
        policy.inner.pinned_pages().count() > 0,
        "random sharing must trip the flush budget under faults too: {s:?}"
    );
    assert!(s.coherence_invalidations > 0, "no invalidations under faults: {s:?}");
}

/// One reader-writer thrash round: the writer stores, every reader
/// fetches and checks the value. Returns the value written.
fn thrash_round(
    m: &mut Machine,
    mgr: &mut NumaManager,
    pol: &mut FlushLimitPolicy,
    page: LPageId,
    round: u32,
) -> u32 {
    let g = mgr.request(m, page, Access::Store, CpuId(0), pol).unwrap();
    let val = round + 1;
    m.mem.write_u32(g.frame, 0, val);
    for r in 1..CPUS {
        let g = mgr.request(m, page, Access::Fetch, CpuId(r), pol).unwrap();
        assert_eq!(m.mem.read_u32(g.frame, 0), val, "round {round}: reader {r} saw stale data");
    }
    mgr.check_invariants(m, page).unwrap();
    val
}

#[test]
fn flush_limit_converges_the_single_writer_thrash() {
    // The serving-shard pathology, distilled: one writer, three readers,
    // one page. Ownership never changes hands, so the move limit is
    // blind to it — but every round invalidates copies, so the flush
    // budget trips, the page pins global, and from then on the
    // invalidation count is provably frozen: the thrash has converged.
    let mut m = Machine::new(TopologyBuilder::small(CPUS as usize).config());
    let mut mgr = NumaManager::new();
    let mut pol = FlushLimitPolicy::new(3, 0);
    const L: LPageId = LPageId(0);
    mgr.zero_page(L);

    let mut frozen: Option<u64> = None;
    for round in 0..16u32 {
        thrash_round(&mut m, &mut mgr, &mut pol, L, round);
        assert_eq!(mgr.view(L).move_count, 0, "a single-writer stream never migrates");
        let s = mgr.stats();
        if let Some(f) = frozen {
            assert_eq!(
                s.coherence_invalidations, f,
                "round {round}: invalidations past the pin — the thrash did not converge"
            );
            assert_eq!(mgr.view(L).state, StateKind::GlobalWritable, "round {round}");
        } else if pol.is_pinned(L) && mgr.view(L).state == StateKind::GlobalWritable {
            frozen = Some(s.coherence_invalidations);
        }
    }
    assert!(frozen.is_some(), "a flush budget of 3 must trip under reader-writer thrash");
    let s = mgr.stats();
    assert_eq!(s.migrations, 0, "nothing to migrate: {s:?}");
    assert_eq!(s.pins, 0, "the move-limit pin path must stay silent: {s:?}");
    assert_eq!(s.flush_pins, 1, "exactly one page pinned, attributed to flushes: {s:?}");
    assert!(
        pol.invalidations(L) > pol.threshold(),
        "pinning requires the budget to be exceeded, not met"
    );
}

#[test]
fn flush_limit_converges_the_single_writer_thrash_under_faults() {
    // Same pathology with all three fault channels firing: recovery may
    // degrade individual placements along the way, but the flush budget
    // still trips, readers never see stale bytes, and once the page is
    // pinned in global memory the coherence-invalidation count freezes.
    let mut cfg = TopologyBuilder::small(CPUS as usize).config();
    cfg.faults = FaultConfig {
        seed: 0x0ACE_5EED,
        bus_timeout_rate: 0.05,
        bad_frame_rate: 0.05,
        corruption_rate: 0.05,
        ..FaultConfig::disabled()
    };
    let mut m = Machine::new(cfg);
    let mut mgr = NumaManager::new();
    let mut pol = FlushLimitPolicy::new(3, 0);
    const L: LPageId = LPageId(0);
    mgr.zero_page(L);

    let mut frozen: Option<u64> = None;
    for round in 0..24u32 {
        thrash_round(&mut m, &mut mgr, &mut pol, L, round);
        assert_eq!(mgr.view(L).move_count, 0, "a single-writer stream never migrates");
        let s = mgr.stats();
        if let Some(f) = frozen {
            assert_eq!(
                s.coherence_invalidations, f,
                "round {round}: invalidations past the pin under faults"
            );
        } else if pol.is_pinned(L) && mgr.view(L).state == StateKind::GlobalWritable {
            frozen = Some(s.coherence_invalidations);
        }
    }
    assert!(frozen.is_some(), "the flush budget must trip under fault injection too");
    assert_eq!(mgr.view(L).state, StateKind::GlobalWritable);
}

#[test]
fn move_limit_migrates_then_pins() {
    // Deterministic migrate-then-pin: two processors alternate stores
    // to one page. Each store steals ownership (a migration) until the
    // move budget is spent; after that the page is pinned global and
    // never moves again.
    let mut m = Machine::new(TopologyBuilder::small(2).config());
    let mut mgr = NumaManager::new();
    let mut pol = MoveLimitPolicy::new(2);
    const L: LPageId = LPageId(0);
    mgr.zero_page(L);

    let mut last_val = 0u32;
    for i in 0..10u32 {
        let cpu = CpuId((i % 2) as u16);
        let g = mgr.request(&mut m, L, Access::Store, cpu, &mut pol).unwrap();
        assert_eq!(m.mem.read_u32(g.frame, 0), last_val, "store {i} saw a stale page");
        last_val = i + 1;
        m.mem.write_u32(g.frame, 0, last_val);
        mgr.check_invariants(&mut m, L).unwrap();

        if pol.is_pinned(L) {
            assert_eq!(
                mgr.view(L).state,
                StateKind::GlobalWritable,
                "a pinned page must sit in global memory"
            );
        } else {
            assert_eq!(
                mgr.view(L).state,
                StateKind::LocalWritable(m.home_of(cpu)),
                "before pinning, each store steals ownership"
            );
        }
    }

    assert!(pol.is_pinned(L), "2 tolerated moves < 9 steals: page must pin");
    let moves_at_pin = mgr.view(L).move_count;
    assert!(moves_at_pin > pol.threshold(), "pin requires exceeding the budget");

    // Once pinned, further stores from either processor change nothing.
    for i in 0..4u32 {
        let cpu = CpuId((i % 2) as u16);
        mgr.request(&mut m, L, Access::Store, cpu, &mut pol).unwrap();
        assert_eq!(mgr.view(L).state, StateKind::GlobalWritable);
        assert_eq!(mgr.view(L).move_count, moves_at_pin, "pinned pages stop migrating");
        mgr.check_invariants(&mut m, L).unwrap();
    }
}

/// A seeded three-way coin: LOCAL, GLOBAL, or hosted on a random node
/// (the section 4.4 extension, which bypasses Tables 1 and 2).
struct RemoteCoin(Rng);

impl CachePolicy for RemoteCoin {
    fn name(&self) -> &'static str {
        "remote-coin"
    }

    fn decide(&mut self, _lpage: LPageId, _access: Access, _cpu: CpuId) -> Placement {
        match self.0.below(3) {
            0 => Placement::Local,
            1 => Placement::Global,
            _ => Placement::RemoteAt(NodeId(self.0.below(u64::from(CPUS)) as u16)),
        }
    }
}

#[test]
fn remote_placements_and_releases_keep_the_index_exact() {
    // The index's remaining writers: hosting a page remotely, re-hosting
    // it, leaving the extension state, and releasing a page outright
    // (after which a stale index entry would name a page that no longer
    // exists). Sequential consistency, the structural invariants and the
    // index-equals-scan property hold on every step.
    for seed in [0x0ACE_5EEDu64, 41, 42] {
        let cfg = TopologyBuilder::small(CPUS as usize).config();
        let psize = cfg.page_size.bytes();
        let mut m = Machine::new(cfg);
        let mut mgr = NumaManager::new();
        let mut policy = RemoteCoin(Rng(seed ^ 0x4E40_7E00_0000_0000));
        let mut oracle: Vec<Vec<u8>> = (0..PAGES).map(|_| vec![0u8; psize]).collect();
        (0..PAGES).for_each(|p| mgr.zero_page(LPageId(p)));

        let mut rng = Rng(seed);
        let mut buf = vec![0u8; psize];
        let mut released = 0;
        for step in 0..OPS {
            let page = LPageId(rng.below(u64::from(PAGES)) as u32);
            let tag = format!("seed {seed:#x} step {step}: page {page:?}");
            if rng.below(8) == 0 {
                policy.on_free(page);
                mgr.release_page(&mut m, page);
                mgr.zero_page(page);
                oracle[page.index()].fill(0);
                released += 1;
            } else {
                let cpu = CpuId(rng.below(u64::from(CPUS)) as u16);
                let access = if rng.below(2) == 0 { Access::Fetch } else { Access::Store };
                let g = mgr
                    .request(&mut m, page, access, cpu, &mut policy)
                    .unwrap_or_else(|e| panic!("{tag}: request failed: {e:?}"));
                m.mem.read_bytes(g.frame, 0, &mut buf);
                assert_eq!(buf, oracle[page.index()], "{tag}: granted frame disagrees");
                if access == Access::Store {
                    let off = rng.below((psize / 4) as u64) as usize * 4;
                    let val = rng.next() as u32;
                    m.mem.write_u32(g.frame, off, val);
                    oracle[page.index()][off..off + 4].copy_from_slice(&val.to_le_bytes());
                }
            }
            for p in 0..PAGES {
                mgr.check_invariants(&mut m, LPageId(p))
                    .unwrap_or_else(|e| panic!("{tag}: invariant broken on page {p}: {e}"));
            }
            assert_index_matches_scan(&m, &mgr, &tag);
        }
        let s = mgr.stats();
        assert!(s.to_remote > 0 && released > 0, "seed {seed:#x}: stream too tame: {s:?}");
    }
}

/// What a recording reclaim policy was shown over a run: how many
/// slices, how many candidates, and an FNV-1a digest over every field
/// of every candidate in the order shown.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
struct Shown {
    slices: u64,
    candidates: u64,
    digest: u64,
}

/// LRU victim selection that records every slice it is offered.
struct RecordingReclaim(Arc<Mutex<Shown>>);

impl ReclaimPolicy for RecordingReclaim {
    fn name(&self) -> &'static str {
        "recording-lru"
    }

    fn pick_victim(&mut self, candidates: &[ReclaimCandidate]) -> Option<LPageId> {
        let mut shown = self.0.lock().unwrap();
        shown.slices += 1;
        shown.candidates += candidates.len() as u64;
        let mut mix = |word: u64| {
            shown.digest = (shown.digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(candidates.len() as u64);
        for c in candidates {
            let node = match c.frame.region {
                MemRegion::Global => 0,
                MemRegion::Local(n) => u64::from(n.0) + 1,
            };
            for word in [
                u64::from(c.lpage.0),
                node,
                u64::from(c.frame.index),
                c.last_touch.0,
                u64::from(c.writable),
            ] {
                mix(word);
            }
        }
        LruReclaim.pick_victim(candidates)
    }
}

#[test]
fn reclaim_policy_is_shown_the_slices_the_directory_scan_showed_it() {
    // The `pressure` grid's tightest cells (4 local frames per
    // processor; both placements, with and without soft faults). The
    // expected values were recorded by this same test body at the parent
    // commit, where candidates came from a sorted scan of the whole
    // directory: the index must offer the policy the identical slices —
    // same pages, frames, stamps and flags, in the same order, the same
    // number of times.
    use numa_repro::sim::Simulator;
    const AT_PARENT: [Shown; 4] = [
        Shown { slices: 2, candidates: 8, digest: 17679710662145689113 },
        Shown { slices: 3, candidates: 12, digest: 18076012975201044595 },
        Shown { slices: 77, candidates: 308, digest: 6774857237882741112 },
        Shown { slices: 77, candidates: 308, digest: 14169049731262574511 },
    ];
    let cells: Vec<_> = numa_lab::Grid::pressure()
        .jobs()
        .into_iter()
        .filter(|j| j.local_frames == Some(4))
        .collect();
    assert_eq!(cells.len(), AT_PARENT.len());
    for (spec, want) in cells.iter().zip(AT_PARENT) {
        let shown = Arc::new(Mutex::new(Shown::default()));
        let mut sim = Simulator::new(spec.sim_config(), spec.policy());
        sim.with_kernel(|k| {
            k.pmap.set_reclaim_policy(Box::new(RecordingReclaim(Arc::clone(&shown))))
        });
        spec.make_app().run(&mut sim, spec.workers).expect("verified");
        let shown = *shown.lock().unwrap();
        assert!(shown.slices > 0, "{}: the tightest cell must reclaim", spec.label());
        assert_eq!(shown, want, "{}", spec.label());
    }
}

#[test]
fn insertion_history_cannot_reach_a_report() {
    // The maps that stay hashed (MMU tables, scrub verdicts, object
    // residency) hash with a fixed function, so nothing randomizes their
    // iteration order between processes any more; a different insertion
    // history is what still does. Run the same application twice on the
    // same tight machine — once from boot, once after 40 extra pages
    // were entered into every one of those maps (and the directory and
    // the residency index) from every processor and released again, so
    // tables have grown, entries have moved and local frames come off
    // their free lists in another order — and require the identical
    // report, event stream and audit verdict.
    use numa_repro::apps::{App, IMatMult};
    use numa_repro::machine::Prot;
    use numa_repro::metrics::VecSink;
    use numa_repro::sim::{SimConfig, Simulator};
    const THREADS: usize = 3;
    let observe = |extra_pages: u64| {
        let mut cfg = SimConfig::small(THREADS);
        cfg.machine.topology.set_uniform_local_frames(4);
        let page = cfg.machine.page_size.bytes() as u64;
        let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        if extra_pages > 0 {
            let extra = sim.alloc(extra_pages * page, Prot::READ_WRITE);
            sim.with_kernel(|k| {
                // Touched last page first and freed first page first,
                // the logical-page pool's stack ends as it began.
                for p in (0..extra_pages).rev() {
                    for cpu in 0..THREADS as u64 {
                        k.store_u32(CpuId(cpu as u16), extra + p * page + cpu * 4, 1).unwrap();
                    }
                }
            });
            sim.dealloc(extra);
            sim.with_kernel(|k| k.pmap.drain_pending_frees(&mut k.machine));
        }
        let sink = Arc::new(Mutex::new(VecSink::new()));
        sim.with_kernel(|k| {
            k.reset_measurements();
            k.pmap.set_event_sink(sink.clone());
        });
        IMatMult::with_dim(16).expect("valid dimension").run(&mut sim, THREADS).expect("verified");
        let audit = sim.with_kernel(|k| k.check_consistency());
        let events = sink.lock().unwrap().events.clone();
        (sim.report(), events, audit)
    };
    let (report, events, audit) = observe(0);
    let (report2, events2, audit2) = observe(40);
    assert!(report.numa.reclaims > 0 && report.numa.migrations > 0, "run too tame: {report}");
    assert_eq!(audit, Ok(()));
    assert_eq!(audit, audit2);
    assert_eq!(
        report.to_json().to_string_flat(),
        report2.to_json().to_string_flat(),
        "reports diverged with the insertion history"
    );
    assert_eq!(events, events2, "event streams diverged with the insertion history");
}
