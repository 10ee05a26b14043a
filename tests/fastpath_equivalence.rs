//! Differential suite: the batched fast path must be observationally
//! equivalent to the per-reference slow path.
//!
//! Every application in the paper mix runs twice — once with the
//! software-TLB fast path (the default), once with it disabled — under
//! the heaviest observability the harness offers: an event sink tapping
//! the machine and the NUMA manager, a per-reference sink on the
//! kernel, and (in the second test) deterministic fault injection with
//! recovery. Equivalence is judged on everything a user can see:
//!
//! * the `RunReport`, compared field by field *and* as the human
//!   rendering;
//! * the full event stream (bus traffic + protocol actions, in
//!   virtual-time order);
//! * the raw per-reference log — every address, access kind, distance,
//!   and virtual timestamp.
//!
//! The fast path is allowed to differ in exactly one place: MMU
//! hit-rate bookkeeping (it skips redundant hardware translations).
//! Nothing reported, streamed, or gated may move.

use numa_repro::apps::{paper_mix, App, KvServe, Scale, ServeParams};
use numa_repro::machine::FaultConfig;
use numa_repro::metrics::{Event, EventKind, VecSink};
use numa_repro::numa::{
    CachePolicy, FlushLimitPolicy, MoveLimitPolicy, MoveOrFlushLimitPolicy, StateKind,
};
use numa_repro::sim::{RefEvent, RunReport, SimConfig, Simulator};
use std::sync::{Arc, Mutex};

const CPUS: usize = 3;

/// Everything observable about one run.
struct Observation {
    /// The run's report.
    report: RunReport,
    /// The report's human rendering.
    report_text: String,
    /// The structured event stream.
    events: Vec<Event>,
    /// The raw per-reference log.
    refs: Vec<RefEvent>,
}

/// Runs `app` under the given path and fault setting, capturing every
/// observable output.
fn observe(app: &dyn App, fastpath: bool, faults: bool) -> Observation {
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let mut cfg = SimConfig::small(CPUS).events(sink.clone()).fastpath(fastpath);
    if faults {
        // The lab's `faults` grid rates, at its committed seed: bus
        // timeouts, ECC-bad frames, and copy corruption all fire, and
        // all are recovered from.
        cfg = cfg.faults(FaultConfig {
            seed: 0x0ACE_5EED,
            bus_timeout_rate: 0.01,
            bad_frame_rate: 0.01,
            corruption_rate: 0.01,
            ..FaultConfig::default()
        });
    }
    let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
    let refs = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&refs);
    sim.with_kernel(|k| {
        k.set_sink(Box::new(move |e: &RefEvent| tap.lock().unwrap().push(*e)))
    });
    app.run(&mut sim, CPUS)
        .unwrap_or_else(|e| panic!("{} failed verification: {e}", app.name()));
    let report = sim.report();
    let events = sink.lock().unwrap().events.clone();
    let refs = refs.lock().unwrap().clone();
    Observation {
        report_text: format!("{report}"),
        report,
        events,
        refs,
    }
}

/// Asserts that two observations are indistinguishable, with failure
/// messages that point at the first diverging element.
fn assert_equivalent(app: &str, slow: &Observation, fast: &Observation) {
    assert_eq!(slow.report, fast.report, "{app}: RunReport diverged between paths");
    assert_eq!(
        slow.report_text, fast.report_text,
        "{app}: report rendering diverged between paths"
    );
    assert_eq!(
        slow.events.len(),
        fast.events.len(),
        "{app}: event stream length diverged"
    );
    if let Some(i) = (0..slow.events.len()).find(|&i| slow.events[i] != fast.events[i]) {
        panic!(
            "{app}: event {i} diverged:\n  slow: {:?}\n  fast: {:?}",
            slow.events[i], fast.events[i]
        );
    }
    assert_eq!(
        slow.refs.len(),
        fast.refs.len(),
        "{app}: reference log length diverged"
    );
    if let Some(i) = (0..slow.refs.len()).find(|&i| slow.refs[i] != fast.refs[i]) {
        panic!(
            "{app}: reference {i} diverged:\n  slow: {:?}\n  fast: {:?}",
            slow.refs[i], fast.refs[i]
        );
    }
}

#[test]
#[ignore = "multi-second sweep of the full app mix; CI runs it via --ignored"]
fn every_app_is_equivalent_under_full_observability() {
    for app in paper_mix(Scale::Test) {
        let slow = observe(app.as_ref(), false, false);
        let fast = observe(app.as_ref(), true, false);
        assert!(
            !slow.refs.is_empty() || app.name() == "ParMult",
            "{}: instrumentation captured no references",
            app.name()
        );
        assert_equivalent(app.name(), &slow, &fast);
    }
}

#[test]
#[ignore = "multi-second sweep of the full app mix; CI runs it via --ignored"]
fn every_app_is_equivalent_under_fault_injection() {
    for app in paper_mix(Scale::Test) {
        let slow = observe(app.as_ref(), false, true);
        let fast = observe(app.as_ref(), true, true);
        assert_equivalent(app.name(), &slow, &fast);
    }
}

/// Hard-failure schedules: a node's memory dies mid-run and a processor
/// is stopped shortly after, under full observability. The software-TLB
/// fast path caches translations precisely where node-offline shootdowns
/// strike, so any staleness (a batched run charging a dead node's frame)
/// diverges the reference log, the event stream, or the report. The MMU
/// epoch bump on recovery must make both paths observationally
/// identical.
fn observe_hard_failure(fastpath: bool) -> Observation {
    use numa_repro::machine::{CpuId, HardFault, NodeId, Ns, Prot};
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let cfg = SimConfig::small(CPUS).events(sink.clone()).fastpath(fastpath).faults(
        FaultConfig {
            hard_faults: vec![
                HardFault::NodeOffline { node: NodeId(1), vt: Ns::from_us(700) },
                HardFault::CpuOffline { cpu: CpuId(2), vt: Ns::from_ms(1) },
            ],
            ..FaultConfig::default()
        },
    );
    let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
    let refs = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&refs);
    sim.with_kernel(|k| {
        k.set_sink(Box::new(move |e: &RefEvent| tap.lock().unwrap().push(*e)))
    });
    let page = 256u64;
    let a = sim.alloc(16 * page, Prot::READ_WRITE);
    for t in 0..CPUS as u64 {
        sim.spawn(format!("mix-{t}"), move |ctx| {
            for round in 0..4u64 {
                for i in 0..16u64 {
                    // Batched same-page runs keep the fast path's TLB hot
                    // on shared pages every node replicates...
                    let _ = ctx.read_run(a + i * page, 4, 8);
                    // ...while interleaved writes keep ownership moving.
                    if i % (CPUS as u64) == t {
                        ctx.write_u32(a + i * page + 128 + t * 8, (round * 100 + i) as u32);
                    }
                    ctx.compute(Ns::from_us(25));
                }
            }
        });
    }
    let report = sim.run();
    let events = sink.lock().unwrap().events.clone();
    let refs = refs.lock().unwrap().clone();
    Observation {
        report_text: format!("{report}"),
        report,
        events,
        refs,
    }
}

#[test]
fn hard_failure_schedules_are_equivalent_across_paths() {
    let slow = observe_hard_failure(false);
    let fast = observe_hard_failure(true);
    assert_eq!(slow.report.numa.nodes_offlined, 1, "the schedule must actually kill the node");
    assert!(
        slow.report.numa.threads_drained > 0,
        "the stopped processor must drain its thread: {:?}",
        slow.report.numa
    );
    assert!(!slow.refs.is_empty(), "instrumentation captured no references");
    assert_equivalent("hard-failure mix", &slow, &fast);
}

/// The serving workload under one placement policy, with full
/// observability plus the per-request latency histogram.
fn observe_kvserve(fastpath: bool, policy: Box<dyn CachePolicy>) -> Observation {
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let cfg = SimConfig::small(CPUS).events(sink.clone()).fastpath(fastpath);
    let mut sim = Simulator::new(cfg, policy);
    let refs = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&refs);
    sim.with_kernel(|k| {
        k.set_sink(Box::new(move |e: &RefEvent| tap.lock().unwrap().push(*e)))
    });
    KvServe::at_scale(Scale::Test)
        .run(&mut sim, CPUS)
        .unwrap_or_else(|e| panic!("KvServe failed verification: {e}"));
    let report = sim.report();
    assert!(report.serving.is_some(), "the serving workload must attach its histogram");
    let events = sink.lock().unwrap().events.clone();
    let refs = refs.lock().unwrap().clone();
    Observation {
        report_text: format!("{report}"),
        report,
        events,
        refs,
    }
}

/// The serving workload under the flush-aware policies: open-loop
/// arrivals, the per-request latency histogram, and the new flush-pin
/// accounting (counters and `flush_pinned` events alike) must be
/// byte-identical across access paths for every policy on the serving
/// grid's axis.
#[test]
fn kvserve_is_equivalent_across_paths_under_every_policy() {
    type MakePolicy = fn() -> Box<dyn CachePolicy>;
    let policies: [(&str, MakePolicy); 3] = [
        ("move-limit", || Box::new(MoveLimitPolicy::default())),
        ("flush-limit", || Box::new(FlushLimitPolicy::default())),
        ("move-or-flush", || Box::new(MoveOrFlushLimitPolicy::default())),
    ];
    for (name, make) in policies {
        let slow = observe_kvserve(false, make());
        let fast = observe_kvserve(true, make());
        assert!(!slow.refs.is_empty(), "KvServe/{name}: no references captured");
        assert_equivalent(&format!("KvServe/{name}"), &slow, &fast);
    }
    // The flush-aware runs must actually exercise the new machinery —
    // otherwise the equivalence above proves nothing about it.
    let flush = observe_kvserve(true, Box::new(FlushLimitPolicy::default()));
    assert!(
        flush.report.numa.flush_pins > 0,
        "the flush budget never tripped on the serving workload: {:?}",
        flush.report.numa
    );
}

/// The serving workload under explicit parameters and an optional
/// hard-failure schedule. Verification may legitimately fail once a
/// node's memory dies (shards homed there zero-fill); what matters is
/// that both paths observe the *same* outcome, so the run verdict is
/// part of the observation rather than a panic.
fn observe_kvserve_under(
    fastpath: bool,
    params: ServeParams,
    hard: bool,
) -> (Observation, Result<(), String>) {
    use numa_repro::machine::{CpuId, HardFault, NodeId, Ns};
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let mut cfg = SimConfig::small(CPUS).events(sink.clone()).fastpath(fastpath);
    if hard {
        cfg = cfg.faults(FaultConfig {
            hard_faults: vec![
                HardFault::NodeOffline { node: NodeId(1), vt: Ns::from_ms(5) },
                HardFault::CpuOffline { cpu: CpuId(2), vt: Ns::from_ms(10) },
            ],
            ..FaultConfig::default()
        });
    }
    let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
    let refs = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&refs);
    sim.with_kernel(|k| {
        k.set_sink(Box::new(move |e: &RefEvent| tap.lock().unwrap().push(*e)))
    });
    let verdict = KvServe::new(params).run(&mut sim, CPUS);
    let report = sim.report();
    let events = sink.lock().unwrap().events.clone();
    let refs = refs.lock().unwrap().clone();
    let obs = Observation {
        report_text: format!("{report}"),
        report,
        events,
        refs,
    };
    (obs, verdict)
}

/// Overload parameters hot enough to shed through every knob: a burst
/// far past what three processors serve, bounded queues, tight
/// deadlines, and a throttled tenant mix.
fn overload_params() -> ServeParams {
    ServeParams {
        requests: 384,
        rate: 20_000,
        tenants: 3,
        queue_depth: 6,
        deadline_ns: 300_000,
        tenant_quota: 2_000,
        ..ServeParams::for_scale(Scale::Test)
    }
}

/// The serving workload with every overload knob engaged must shed
/// deterministically and identically across access paths: same ledger,
/// same goodput tail, same event stream, same reference log.
#[test]
fn kvserve_overload_is_equivalent_across_paths() {
    let (slow, sv) = observe_kvserve_under(false, overload_params(), false);
    let (fast, fv) = observe_kvserve_under(true, overload_params(), false);
    sv.as_ref().expect("overload without hard faults still verifies");
    assert_eq!(sv, fv, "run verdict diverged between paths");
    let serving = slow.report.serving.as_ref().expect("the serving report attaches");
    assert!(serving.limited, "the overload knobs never engaged: {serving:?}");
    assert!(slow.report_text.contains("admission:"), "report rendering lacks the admission line");
    assert_equivalent("KvServe/overload", &slow, &fast);
}

/// The serving workload while a node's memory dies and a processor is
/// stopped mid-serve: drained queues shed by deadline, recovery re-homes
/// what it can, and whatever the outcome — verified or degraded — both
/// paths must tell the same story byte for byte.
#[test]
fn kvserve_hard_failure_is_equivalent_across_paths() {
    let (slow, sv) = observe_kvserve_under(false, overload_params(), true);
    let (fast, fv) = observe_kvserve_under(true, overload_params(), true);
    assert_eq!(sv, fv, "run verdict diverged between paths");
    assert_eq!(slow.report.numa.nodes_offlined, 1, "the schedule must actually kill the node");
    assert!(
        slow.report.numa.threads_drained > 0,
        "the stopped processor must drain its worker: {:?}",
        slow.report.numa
    );
    // The serving report still attaches with its deterministic ledger,
    // even when recovery could not save every shard.
    assert!(slow.report.serving.as_ref().is_some_and(|s| s.limited));
    assert_equivalent("KvServe/hard-failure", &slow, &fast);
    // And the whole composition is deterministic, not merely
    // path-equivalent: a rerun reproduces the exact bytes.
    let (again, av) = observe_kvserve_under(true, overload_params(), true);
    assert_eq!(av, fv);
    assert_eq!(again.report, fast.report, "rerun diverged");
}

/// The policy-comparison serving sweep at several worker counts: the
/// whole document — placements, policies, counters, percentiles — is
/// byte-identical whether cells run serially or on 4 or 8 farm threads.
#[test]
fn serving_policy_sweep_is_byte_identical_across_worker_counts() {
    let mut grid = numa_lab::Grid::serving();
    grid.req_rates = vec![2_000];
    grid.zipf_exponents = vec![1.5];
    grid.tenant_counts = vec![1];
    let jobs = grid.jobs();
    assert_eq!(jobs.len(), 5, "local + global + one numa cell per policy");
    let j1 = numa_lab::Sweep::run(grid.clone(), 1, None).unwrap().to_json().to_string_flat();
    let j4 = numa_lab::Sweep::run(grid.clone(), 4, None).unwrap().to_json().to_string_flat();
    let j8 = numa_lab::Sweep::run(grid, 8, None).unwrap().to_json().to_string_flat();
    assert_eq!(j1, j4, "--jobs 1 vs --jobs 4 diverged");
    assert_eq!(j1, j8, "--jobs 1 vs --jobs 8 diverged");
    assert!(j1.contains("\"policy\":\"flush-limit\""));
    assert!(j1.contains("\"coherence_invalidations\":"));
}

/// A cut-down overload sweep — saturated load, every protection knob,
/// healthy and node-loss cells — is byte-identical across farm worker
/// counts and across access paths.
#[test]
fn overload_sweep_is_byte_identical_across_workers_and_paths() {
    let mut grid = numa_lab::Grid::overload();
    grid.policies.truncate(1);
    grid.req_rates = vec![32_000];
    grid.queue_depths = vec![8];
    grid.deadlines_ns = vec![400_000];
    grid.tenant_quotas = vec![800];
    let jobs = grid.jobs();
    assert_eq!(jobs.len(), 2, "one healthy and one node-loss cell");
    let j1 = numa_lab::Sweep::run(grid.clone(), 1, None).unwrap().to_json().to_string_flat();
    let j4 = numa_lab::Sweep::run(grid.clone(), 4, None).unwrap().to_json().to_string_flat();
    let j8 = numa_lab::Sweep::run(grid.clone(), 8, None).unwrap().to_json().to_string_flat();
    assert_eq!(j1, j4, "--jobs 1 vs --jobs 4 diverged");
    assert_eq!(j1, j8, "--jobs 1 vs --jobs 8 diverged");
    let mut slow_grid = grid;
    slow_grid.fastpath = false;
    let slow = numa_lab::Sweep::run(slow_grid, 4, None).unwrap().to_json().to_string_flat();
    // Sweep documents never stamp the access path, so observational
    // equivalence means the slow-path document is the same bytes.
    assert_eq!(j1, slow, "fast vs slow path diverged");
    assert!(j1.contains("\"shed_queue_full\":"));
    assert!(j1.contains("\"nodes_offlined\":1"), "the chaos cell must kill its node");
}

/// The software TLB's capacity in pages (`ThreadCtx`'s `TLB_ENTRIES`):
/// page `vpn` lives only in slot `vpn % TLB_SLOTS`.
const TLB_SLOTS: u64 = 256;

/// What the striders of [`observe_tlb_edges`] leave besides the
/// observation: the translations the MMUs made, and for each strider
/// every processor it ran on and a digest of every value it read.
struct TlbEdges {
    obs: Observation,
    hits: u64,
    striders: Vec<(Vec<usize>, u64)>,
}

/// The software TLB's edges, under full observability, on two
/// processors. Each of two striders reads and writes runs whose strides
/// span more pages than the TLB has slots (so slots wrap and evict each
/// other), a run at a stride of exactly `TLB_SLOTS` pages (every
/// element in one slot), runs with several elements per page
/// (closed-form extent lengths that vary page by page), and, most of
/// the time, a column within the TLB's reach. A writer stores into the
/// pages they read meanwhile, shooting down their copies, so the
/// striders' MMU epochs bump mid-run. Three threads on two processors
/// give the global queue someone to move.
fn observe_tlb_edges(fastpath: bool, scheduler: numa_repro::sim::SchedulerKind) -> TlbEdges {
    use numa_repro::machine::{Ns, Prot, TopologyBuilder};
    const PAGE: u64 = 256;
    const PAGES: u64 = 2 * TLB_SLOTS + 88;
    const REACH: usize = 240;
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let machine = TopologyBuilder::small(2).global_frames(1024).local_frames(1024).config();
    let mut cfg = SimConfig::small(2).machine(machine).events(sink.clone()).fastpath(fastpath);
    cfg.scheduler = scheduler;
    cfg.quantum = Ns::from_ms(50);
    let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
    let refs = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&refs);
    sim.with_kernel(|k| {
        k.set_sink(Box::new(move |e: &RefEvent| tap.lock().unwrap().push(*e)))
    });
    let a = sim.alloc(PAGES * PAGE, Prot::READ_WRITE);
    let seen = Arc::new(Mutex::new(vec![(Vec::new(), 0u64); 2]));
    for id in 0..2usize {
        let out = Arc::clone(&seen);
        sim.spawn(format!("strider-{id}"), move |ctx| {
            let mut digest = 0u64;
            let mut fold = |v: u64| digest = digest.wrapping_mul(0x100_0000_01b3).wrapping_add(v);
            // One word a page, drifting a word further in each time,
            // across more pages than the TLB has slots; then read back.
            if id == 0 {
                ctx.write_run(a, PAGE + 4, &(0..560).collect::<Vec<u32>>());
            }
            ctx.read_run(a, PAGE + 4, 560).into_iter().for_each(|v| fold(v.into()));
            for round in 0..32u64 {
                out.lock().unwrap()[id].0.push(ctx.cpu().index());
                // Every element in the same slot, evicting the one before.
                let same_slot = ctx.read_run(a + 160 + (round % 8) * 4, TLB_SLOTS * PAGE, 3);
                // Several elements per page, a varying number on each.
                let packed = ctx.read_run(a + (round % 4) * 4, 60, 200);
                same_slot.into_iter().chain(packed).for_each(|v| fold(v.into()));
                // Pages only this strider touches, past the wide read.
                let f64s = a + (PAGES - 16 + 6 * id as u64) * PAGE + 16;
                ctx.write_run_f64(f64s, 24, &[round as f64 + 0.5; 40]);
                // Two pages a step, across more pages than the TLB has
                // slots: every element misses, so only now and then.
                if round % 6 == 0 {
                    let wide = ctx.read_run_f64(a + 32, 2 * PAGE + 8, 280);
                    wide.into_iter().for_each(|v| fold(v.to_bits()));
                }
                // A column within reach, read again and again.
                for col in 0..24u64 {
                    let column = ctx.read_run(a + 64 + col * 4, PAGE, REACH);
                    column.into_iter().for_each(|v| fold(v.into()));
                }
            }
            out.lock().unwrap()[id].1 = digest;
        });
    }
    sim.spawn("writer", move |ctx| {
        for i in 0..24u64 {
            // Eight pages the striders read, three stores each.
            ctx.write_u32(a + ((i % 8 * 37) % PAGES) * PAGE + 192, i as u32);
            ctx.compute(Ns::from_ms(20));
        }
    });
    let report = sim.run();
    let hits = sim.with_kernel(|k| k.machine.mmus.iter().map(|m| m.stats().hits).sum::<u64>());
    let events = sink.lock().unwrap().events.clone();
    let refs = refs.lock().unwrap().clone();
    let obs = Observation {
        report_text: format!("{report}"),
        report,
        events,
        refs,
    };
    let striders = seen.lock().unwrap().clone();
    TlbEdges { obs, hits, striders }
}

/// The direct-mapped TLB's reach, slot conflicts and stale epochs change
/// nothing observable, under a scheduler that moves threads between
/// processors and under the default one; and the reach is really there:
/// the fast path translates at least ten times less often.
#[test]
fn tlb_reach_conflicts_and_staleness_are_invisible() {
    use numa_repro::sim::SchedulerKind;
    for scheduler in [SchedulerKind::GlobalQueue, SchedulerKind::Affinity] {
        let slow = observe_tlb_edges(false, scheduler);
        let fast = observe_tlb_edges(true, scheduler);
        let name = format!("TLB edges/{scheduler:?}");
        if scheduler == SchedulerKind::GlobalQueue {
            let moved = |cpus: &Vec<usize>| cpus.iter().any(|&c| c != cpus[0]);
            assert!(
                slow.striders.iter().all(|(cpus, _)| moved(cpus)),
                "{name}: a strider never changed processors"
            );
        }
        assert!(
            slow.obs.events.iter().any(|e| e.kind == EventKind::Shootdown),
            "{name}: no store shot down a cached translation"
        );
        assert_equivalent(&name, &slow.obs, &fast.obs);
        assert_eq!(slow.striders, fast.striders, "{name}: processors or values read diverged");
        assert!(
            fast.hits * 10 <= slow.hits,
            "{name}: the TLB's reach shrank: {} translations vs {}",
            fast.hits,
            slow.hits
        );
    }
}

/// The fast path must actually engage: on a run-shaped workload the MMU
/// translates far fewer times than the slow path, which is the whole
/// point — and the only permitted difference.
#[test]
fn fast_path_skips_translations_but_nothing_else() {
    let translations = |fastpath: bool| {
        let cfg = SimConfig::small(2).fastpath(fastpath);
        let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        numa_repro::apps::Gfetch::new(Scale::Test)
            .run(&mut sim, 2)
            .expect("verified");
        sim.with_kernel(|k| {
            k.machine.mmus.iter().map(|m| m.stats().hits).sum::<u64>()
        })
    };
    let slow = translations(false);
    let fast = translations(true);
    assert!(
        fast * 10 < slow,
        "fast path should eliminate most translations: {fast} vs {slow}"
    );
}

/// The processors each mirror-image thread of [`observe_cpu_swap`] ran
/// its reads on, in order.
type CpusSeen = Vec<Vec<usize>>;

/// A thread moved to a processor whose MMU epoch equals the one its
/// cached entry was filled at, under full observability. Two nodes, the
/// global queue, two mirror-image threads and a bystander that only
/// computes: each mirror thread writes and reads its own page, so the
/// two MMUs' epochs step alike, then computes past its quantum. The
/// bystander takes the first processor given up, and the other mirror
/// thread's processor goes to the first thread, whose entry for its
/// page now matches that MMU's epoch. Only the entry's processor tells
/// it belongs to another MMU: reusing it would skip the fault the slow
/// path takes there and charge the old processor's local frame at the
/// old processor's distance and cost.
fn observe_cpu_swap(fastpath: bool) -> (Observation, CpusSeen) {
    use numa_repro::machine::{Ns, Prot};
    use numa_repro::sim::SchedulerKind;
    const PAGE: u64 = 256;
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let mut cfg = SimConfig::small(2).events(sink.clone()).fastpath(fastpath);
    cfg.scheduler = SchedulerKind::GlobalQueue;
    cfg.quantum = Ns::from_us(200);
    let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
    let refs = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&refs);
    sim.with_kernel(|k| {
        k.set_sink(Box::new(move |e: &RefEvent| tap.lock().unwrap().push(*e)))
    });
    let a = sim.alloc(2 * PAGE, Prot::READ_WRITE);
    let seen = Arc::new(Mutex::new(vec![Vec::new(); 2]));
    for id in 0..2u64 {
        let out = Arc::clone(&seen);
        sim.spawn(format!("mirror-{id}"), move |ctx| {
            let page = a + id * PAGE;
            ctx.write_u32(page + 8, 100 + id as u32);
            assert_eq!(ctx.read_u32(page + 8), 100 + id as u32);
            let before = ctx.cpu().index();
            ctx.compute(Ns::from_ms(1));
            let after = ctx.cpu().index();
            assert_eq!(ctx.read_u32(page + 8), 100 + id as u32);
            assert_eq!(ctx.read_run(page, 4, 4)[2], 100 + id as u32);
            ctx.write_u32(page + 12, 200 + id as u32);
            out.lock().unwrap()[id as usize] = vec![before, after];
        });
    }
    sim.spawn("bystander", move |ctx| ctx.compute(Ns::from_ms(1)));
    let report = sim.run();
    let events = sink.lock().unwrap().events.clone();
    let refs = refs.lock().unwrap().clone();
    let obs = Observation {
        report_text: format!("{report}"),
        report,
        events,
        refs,
    };
    let seen = seen.lock().unwrap().clone();
    (obs, seen)
}

/// `tlb_lookup`'s processor check is what stands between a moved thread
/// and an entry of the processor it left when the two MMUs' epochs are
/// equal: without it the fast path skips a fault and mischarges.
#[test]
fn an_entry_stays_with_its_processor_when_epochs_meet() {
    let (slow, slow_cpus) = observe_cpu_swap(false);
    let (fast, fast_cpus) = observe_cpu_swap(true);
    assert!(
        slow_cpus.iter().any(|cpus| cpus[0] != cpus[1]),
        "no mirror thread changed processors: {slow_cpus:?}"
    );
    assert_eq!(slow_cpus, fast_cpus, "the paths scheduled differently");
    assert_equivalent("processor swap", &slow, &fast);
}

/// A policy that hosts logical page `p` on node `p % 4`: on a 2×2 mesh
/// a thread on node 0 finds its pages zero, one and two hops away.
struct HostByPage;

impl CachePolicy for HostByPage {
    fn name(&self) -> &'static str {
        "host-by-page"
    }
    fn decide(
        &mut self,
        lpage: numa_repro::vm::LPageId,
        _: numa_repro::machine::Access,
        _: numa_repro::machine::CpuId,
    ) -> numa_repro::numa::Placement {
        numa_repro::numa::Placement::RemoteAt(numa_repro::machine::NodeId((lpage.0 % 4) as u16))
    }
}

/// One thread on a 2×2 mesh storing to and then fetching from pages
/// hosted at every hop count, under full observability; also returns
/// its pages' final states. The store fills each page's entry, so
/// the fetches after it hit an entry filled by a store and must charge
/// the fetch row of the page's hop count, not the store row.
fn observe_mesh_hops(fastpath: bool) -> (Observation, Vec<StateKind>) {
    use numa_repro::machine::{Prot, TopologyBuilder};
    const PAGES: u64 = 8;
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let machine = TopologyBuilder::mesh(4, 1).config();
    let page = machine.page_size.bytes() as u64;
    let cfg = SimConfig::small(4).machine(machine).events(sink.clone()).fastpath(fastpath);
    let mut sim = Simulator::new(cfg, Box::new(HostByPage));
    let refs = Arc::new(Mutex::new(Vec::new()));
    let tap = Arc::clone(&refs);
    sim.with_kernel(|k| {
        k.set_sink(Box::new(move |e: &RefEvent| tap.lock().unwrap().push(*e)))
    });
    let a = sim.alloc(PAGES * page, Prot::READ_WRITE);
    sim.spawn("hopper", move |ctx| {
        for round in 0..3u32 {
            for p in 0..PAGES {
                let base = a + p * page;
                let v = round * 100 + p as u32;
                ctx.write_u32(base + 16, v);
                assert_eq!(ctx.read_u32(base + 16), v);
                assert_eq!(ctx.read_run(base, 4, 12)[4], v);
                ctx.write_run(base + 64, 8, &[v; 6]);
                assert_eq!(ctx.read_run_f64(base + 128, 8, 5), [0.0; 5]);
            }
        }
    });
    let report = sim.run();
    let states = sim.with_kernel(|k| {
        (0..PAGES)
            .map(|p| {
                let lpage = k.vm.resident_lpage(k.task, a + p * page).expect("touched");
                k.pmap.view(lpage).state
            })
            .collect()
    });
    let events = sink.lock().unwrap().events.clone();
    let refs = refs.lock().unwrap().clone();
    let obs = Observation {
        report_text: format!("{report}"),
        report,
        events,
        refs,
    };
    (obs, states)
}

/// Costs cached in a TLB entry are right at every hop count of a
/// multi-hop machine, for both access kinds of a store-filled entry.
#[test]
fn cached_costs_match_every_hop_count_on_a_mesh() {
    use numa_repro::machine::NodeId;
    let (slow, states) = observe_mesh_hops(false);
    let (fast, _) = observe_mesh_hops(true);
    let hosts: Vec<_> = (0..8).map(|p| StateKind::RemoteShared(NodeId(p % 4))).collect();
    assert_eq!(states, hosts, "the pages must sit at every hop count from node 0");
    assert_equivalent("mesh hops", &slow, &fast);
}

/// How often the fast path still translates on `stream_1cpu`'s largest
/// cell: FFT-256 on one processor, all pages local. Its column gathers
/// step two pages per element and can conflict in the direct-mapped
/// slots. Prints MMU translations (`Mmu::stats().hits`) per reference
/// and per charged run, which is one TLB lookup on the fast path
/// (`--nocapture` shows them). The slow path is not run: it translates
/// every reference but the second half of a test-and-set, and its 36
/// million references take minutes in a debug build.
#[test]
#[ignore = "FFT at the paper's size; CI runs it via --ignored"]
fn fft256_translations_per_reference() {
    use numa_repro::apps::Fft;
    use numa_repro::numa::AllLocalPolicy;
    use numa_repro::sim::RefRun;
    let mut sim = Simulator::new(SimConfig::ace(1), Box::new(AllLocalPolicy));
    let seen = Arc::new(Mutex::new((0u64, 0u64)));
    let tally = Arc::clone(&seen);
    sim.with_kernel(|k| {
        k.set_run_sink(Box::new(move |run: &RefRun| {
            let mut t = tally.lock().unwrap();
            *t = (t.0 + 1, t.1 + run.count);
        }))
    });
    Fft::with_dim(256).unwrap().run(&mut sim, 1).expect("FFT-256 verifies");
    let translations = sim.with_kernel(|k| k.machine.mmus[0].stats().hits);
    let (runs, refs) = *seen.lock().unwrap();
    let share = translations as f64 / refs as f64;
    println!(
        "FFT-256, one processor, fast path: {translations} translations for {refs} \
         references ({:.2} %) in {runs} charged runs ({:.2} %)",
        100.0 * share,
        100.0 * translations as f64 / runs as f64
    );
    assert!(share < 0.1, "the software TLB served under nine references in ten");
}
