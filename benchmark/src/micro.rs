//! Microcells: each times one layer's public entry point from outside.
//!
//! A microcell is the median over [`BATCHES`] batches of nanoseconds per
//! operation, set-up excluded. They are workload-independent: every
//! traced run measures all of them, so a per-layer unit cost sits next
//! to every workload's counts (`core.est_busy_frac` multiplies the two).
//! Inputs and results pass through `black_box`, and every batch does
//! real work against real state — a manager with a directory, a
//! simulator with a thread — never an empty loop.

use crate::stats::median;
use ace_machine::{
    Access, CpuId, Distance, FaultConfig, Frame, Machine, MachineConfig, MemRegion, Mmu, NodeId,
    Ns, Prot, TopologyBuilder,
};
use ace_sim::{Kernel, RunReport, SimConfig, Simulator, ThreadCtx};
use cthreads::{Barrier, SpinLock, WorkPile};
use mach_vm::{LPageId, LogicalPool, NullPmap, VAddr, VmEntry, VmMap, VmObjectId, VmState};
use numa_apps::zipf::{Rng, Zipf};
use numa_apps::{App, Primes3};
use numa_core::{
    AcePmap, AllGlobalPolicy, AllLocalPolicy, CachePolicy, MoveLimitPolicy, NumaManager,
};
use numa_lab::{diff_documents, run_jobs_with, Checkpoint, GateTolerances, Grid, Sweep};
use numa_metrics::{Event, EventKind, EventSink, LatencyHistogram, Telemetry, Tolerance};
use numa_trace::{optimal_cost, replay, Recorder};
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Batches per microcell (the issue asks for at least 30).
const BATCHES: usize = 31;
/// Batches of the microcells whose one operation is a whole simulation.
const SIM_BATCHES: usize = 9;

/// One measured unit cost.
pub type Sample = (&'static str, f64);

/// Median over `batches` of the time `run` takes on a fresh `setup()`,
/// per operation.
fn timed<S>(
    batches: usize,
    ops: usize,
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S),
) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let mut state = setup();
            let started = Instant::now();
            run(&mut state);
            started.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// [`timed`] for operations that need no per-batch state.
fn steady(ops: usize, mut op: impl FnMut(usize)) -> f64 {
    timed(BATCHES, ops, || (), |()| (0..ops).for_each(&mut op))
}

fn ace(n_cpus: usize) -> MachineConfig {
    TopologyBuilder::flat_ace(n_cpus).config()
}

fn ace_layer(out: &mut Vec<Sample>) {
    let (cpu, node) = (CpuId(0), NodeId(0));
    let mut m = Machine::new(ace(1));
    let local = |m: &mut Machine| {
        m.mem
            .alloc(MemRegion::Local(node))
            .expect("a free local frame")
    };
    let (a, b) = (local(&mut m), local(&mut m));
    out.push((
        "ace.charge_access_ns",
        steady(100_000, |_| {
            black_box(m.charge_access(cpu, Access::Fetch, black_box(a), 1));
        }),
    ));
    out.push((
        "ace.charge_access_n_ns",
        steady(100_000, |_| {
            black_box(m.charge_access_n(cpu, Access::Fetch, black_box(a), 1, 512));
        }),
    ));
    out.push((
        "ace.copy_page_ns",
        steady(2_000, |_| {
            black_box(m.kernel_copy_page(cpu, black_box(a), b));
        }),
    ));
    out.push((
        "ace.zero_page_ns",
        steady(2_000, |_| {
            black_box(m.kernel_zero_page(cpu, black_box(b)));
        }),
    ));

    let mut mmu = Mmu::new();
    for vpn in 0..1024u64 {
        mmu.enter(1, vpn, Frame::global(vpn as u32), Prot::READ_WRITE);
    }
    out.push((
        "ace.mmu_translate_ns",
        steady(100_000, |i| {
            black_box(
                mmu.translate(1, black_box(i as u64 & 1023), Access::Fetch)
                    .is_ok(),
            );
        }),
    ));
    out.push((
        "ace.mmu_enter_remove_ns",
        steady(50_000, |i| {
            let vpn = 2048 + (i as u64 & 1023);
            mmu.enter(1, vpn, Frame::global(vpn as u32), Prot::READ_WRITE);
            black_box(mmu.remove(1, vpn));
        }),
    ));
}

fn machvm_layer(out: &mut Vec<Sample>) {
    const PAGES: usize = 1024;
    out.push((
        "machvm.fault_ns",
        timed(
            BATCHES,
            PAGES,
            || {
                let cfg = ace(1);
                let mut vm = VmState::new(cfg.page_size, cfg.global_frames);
                let mut pmap = NullPmap::new();
                let task = vm.task_create(&mut pmap);
                let bytes = (PAGES * cfg.page_size.bytes()) as u64;
                let base = vm
                    .vm_allocate(task, bytes, Prot::READ_WRITE)
                    .expect("address space");
                (Machine::new(cfg), vm, pmap, task, base)
            },
            |(m, vm, pmap, task, base)| {
                let page = m.config.page_size.bytes() as u64;
                for p in 0..PAGES as u64 {
                    vm.fault(m, pmap, *task, *base + p * page, Prot::READ_WRITE, CpuId(0))
                        .expect("zero-fill fault");
                }
            },
        ),
    ));

    let mut map = VmMap::new();
    for e in 0..64u64 {
        let entry = VmEntry {
            start_vpn: 16 + e * 16,
            npages: 8,
            object: VmObjectId(e as u32),
            object_offset: 0,
            prot: Prot::READ_WRITE,
        };
        map.insert(entry).expect("disjoint entries");
    }
    out.push((
        "machvm.map_lookup_ns",
        steady(100_000, |i| {
            black_box(map.lookup(black_box(16 + (i as u64 & 63) * 16 + 3)));
        }),
    ));

    let mut pool = LogicalPool::new(8192);
    let owner = mach_vm::pool::PageOwner {
        object: VmObjectId(0),
        index: 0,
    };
    out.push((
        "machvm.pool_alloc_free_ns",
        steady(100_000, |_| {
            let lp = pool.alloc(black_box(owner)).expect("a free logical page");
            pool.free(lp).expect("freeing a live page");
        }),
    ));
}

/// Marks pages `pages` as new and zero-filled.
fn fresh((_, mgr): &mut (Machine, NumaManager), pages: std::ops::Range<u32>) {
    pages.for_each(|p| mgr.zero_page(LPageId(p)));
}

/// One request per page of `pages`: `access` from `cpu` under `policy`.
fn touch(
    (m, mgr): &mut (Machine, NumaManager),
    pages: std::ops::Range<u32>,
    access: Access,
    cpu: CpuId,
    policy: &mut dyn CachePolicy,
) {
    for p in pages.map(LPageId) {
        black_box(mgr.request(m, p, access, cpu, policy).expect("placement"));
    }
}

/// A manager microcell: one machine for all batches, `prime` (untimed)
/// then `run` (timed) per batch, every page released in between. The
/// first batch is dropped: it is the one that touches each simulated
/// frame's host memory for the first time, and the cells measure the
/// steady state a long cell is in, not the allocator. Returns the
/// median nanoseconds per timed request and the page copies per timed
/// request (no cell's priming copies a page).
fn manager_cell(
    cfg: MachineConfig,
    ops: u32,
    mut prime: impl FnMut(&mut (Machine, NumaManager)),
    mut run: impl FnMut(&mut (Machine, NumaManager)),
) -> (f64, f64) {
    let mut state = (Machine::new(cfg), NumaManager::new());
    let mut samples = Vec::new();
    for batch in 0..=BATCHES {
        prime(&mut state);
        let started = Instant::now();
        run(&mut state);
        if batch > 0 {
            samples.push(started.elapsed().as_nanos() as f64 / f64::from(ops));
        }
        let (m, mgr) = &mut state;
        let pages: Vec<LPageId> = mgr.known_pages().collect();
        pages.into_iter().for_each(|p| mgr.release_page(m, p));
    }
    let copies = state.1.stats().total_page_copies() as f64;
    (
        median(&samples),
        copies / (f64::from(ops) * (BATCHES + 1) as f64),
    )
}

fn core_layer(out: &mut Vec<Sample>) {
    const PAGES: u32 = 512;
    let (cpu0, cpu1) = (CpuId(0), CpuId(1));
    let (store, fetch) = (Access::Store, Access::Fetch);
    // Pages `0..PAGES`, each stored to once from CPU 0 under `policy`.
    let owned_by_cpu0 = |policy: fn() -> Box<dyn CachePolicy>| {
        move |s: &mut (Machine, NumaManager)| {
            fresh(s, 0..PAGES);
            touch(s, 0..PAGES, store, cpu0, policy().as_mut());
        }
    };
    let local = || Box::new(AllLocalPolicy) as Box<dyn CachePolicy>;
    let global = || Box::new(AllGlobalPolicy) as Box<dyn CachePolicy>;
    let cell = |name, (ns_per_request, _copies)| (name, ns_per_request);
    out.push(cell(
        "core.request_fresh_ns",
        manager_cell(
            ace(2),
            PAGES,
            |s| fresh(s, 0..PAGES),
            |s| touch(s, 0..PAGES, store, cpu0, &mut AllLocalPolicy),
        ),
    ));
    out.push(cell(
        "core.request_replicate_ns",
        manager_cell(ace(2), PAGES, owned_by_cpu0(local), |s| {
            touch(s, 0..PAGES, fetch, cpu1, &mut AllLocalPolicy)
        }),
    ));
    out.push(cell(
        "core.request_global_ns",
        manager_cell(ace(2), PAGES, owned_by_cpu0(global), |s| {
            touch(s, 0..PAGES, store, cpu1, &mut AllGlobalPolicy)
        }),
    ));
    // A migration, plain and on a machine with fault injection armed
    // (at a rate that never fires): armed, every page copy is
    // checksummed at both ends, byte by byte, which is what
    // `neverpin_faulty` spends its time on. The difference per copy is
    // the cost of the check.
    let migrate = |cfg| {
        manager_cell(cfg, PAGES, owned_by_cpu0(local), |s| {
            touch(s, 0..PAGES, store, cpu1, &mut AllLocalPolicy)
        })
    };
    let mut armed = ace(2);
    armed.faults = FaultConfig {
        corruption_rate: 1e-12,
        ..FaultConfig::disabled()
    };
    let (plain_ns, _) = migrate(ace(2));
    let (checked_ns, copies) = migrate(armed);
    out.push(("core.request_migrate_ns", plain_ns));
    out.push((
        "core.copy_check_ns",
        (checked_ns - plain_ns).max(0.0) / copies,
    ));
    // A full 64-frame pool: every further LOCAL placement evicts (and
    // syncs) a local-writable victim first, as in `neverpin_lf64`.
    out.push(cell(
        "core.request_reclaim_ns",
        manager_cell(
            TopologyBuilder::flat_ace(2).local_frames(64).config(),
            PAGES,
            |s| {
                fresh(s, 0..64 + PAGES);
                touch(s, 0..64, store, cpu0, &mut AllLocalPolicy);
            },
            |s| touch(s, 64..64 + PAGES, store, cpu0, &mut AllLocalPolicy),
        ),
    ));
    // A node below its low watermark with nothing droppable (every copy
    // is local-writable): each tick scans the whole directory and finds
    // no victim, which is what the daemon does over idle time on a
    // tight machine.
    let mut tight = (
        Machine::new(TopologyBuilder::flat_ace(1).local_frames(1024).config()),
        NumaManager::new(),
    );
    fresh(&mut tight, 0..1024);
    touch(&mut tight, 0..1024, store, cpu0, &mut AllLocalPolicy);
    let (m, mgr) = &mut tight;
    out.push((
        "core.pressure_tick_ns",
        steady(200, |_| mgr.pressure_tick(m, 2, 4)),
    ));
    out.push((
        "core.node_offline_ns",
        timed(
            BATCHES,
            1,
            || {
                let mut state = (Machine::new(ace(2)), NumaManager::new());
                fresh(&mut state, 0..1024);
                touch(&mut state, 0..1024, store, cpu1, &mut AllLocalPolicy);
                state
            },
            |(m, mgr)| mgr.node_offline(m, NodeId(1)),
        ),
    ));
}

/// Runs `body` `ops` times per batch inside one simulated thread of a
/// fresh simulator and returns the median nanoseconds per call. The
/// thread owns two warm, locally placed, zeroed pages at the address it
/// is given.
fn in_thread(
    cfg: SimConfig,
    ops: usize,
    body: impl Fn(&mut ThreadCtx, VAddr) + Send + 'static,
) -> f64 {
    let mut sim = Simulator::new(cfg, Box::new(AllLocalPolicy));
    let base = sim.alloc(4096, Prot::READ_WRITE);
    let samples = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&samples);
    sim.spawn("micro", move |ctx| {
        ctx.write_run(base, 4, &[0; 1024]);
        let measured: Vec<f64> = (0..BATCHES)
            .map(|_| {
                let started = Instant::now();
                (0..ops).for_each(|_| body(ctx, base));
                started.elapsed().as_nanos() as f64 / ops as f64
            })
            .collect();
        *out.lock().expect("samples poisoned") = measured;
    });
    sim.run();
    let samples = samples.lock().expect("samples poisoned");
    median(&samples)
}

fn sim_layer(out: &mut Vec<Sample>) {
    let read = |ctx: &mut ThreadCtx, a: VAddr| {
        black_box(ctx.read_u32(black_box(a)));
    };
    out.push((
        "sim.read_u32_ns",
        in_thread(SimConfig::ace(1), 20_000, read),
    ));
    out.push((
        "sim.read_u32_slow_ns",
        in_thread(SimConfig::ace(1).fastpath(false), 20_000, read),
    ));
    out.push((
        "sim.read_run_word_ns",
        in_thread(SimConfig::ace(1), 2_000, |ctx, a| {
            black_box(ctx.read_run(black_box(a), 4, 512));
        }) / 512.0,
    ));
    out.push((
        "sim.compute_chunk_ns",
        in_thread(SimConfig::ace(1), 20_000, |ctx, _| {
            ctx.compute(Ns::from_us(20));
        }),
    ));

    let mut kernel = Kernel::new(Machine::new(ace(1)), AcePmap::new(Box::new(AllLocalPolicy)));
    let addr = kernel.alloc(2048, Prot::READ_WRITE).expect("address space");
    kernel.store_u32(CpuId(0), addr, 1).expect("first touch");
    out.push((
        "sim.access_step_ns",
        steady(100_000, |_| {
            black_box(
                kernel
                    .access_step(CpuId(0), black_box(addr), Access::Fetch, 1)
                    .is_ok(),
            );
        }),
    ));

    // Two compute-only threads on two CPUs: every window of virtual
    // time costs one grant and one yield per CPU and nothing else.
    let virt = Ns::from_ms(200);
    let lookahead = SimConfig::ace(2).lookahead;
    let windows = 2 * virt.0 / lookahead.0;
    out.push((
        "sim.window_ns",
        timed(
            SIM_BATCHES,
            windows as usize,
            || {
                let mut sim = Simulator::new(SimConfig::ace(2), Box::new(AllLocalPolicy));
                (0..2).for_each(|i| sim.spawn(format!("busy{i}"), move |ctx| ctx.compute(virt)));
                sim
            },
            |sim| {
                sim.run();
            },
        ),
    ));
    // Four threads with nothing to do for a quarter of a virtual second.
    let until = Ns::from_ms(250);
    out.push((
        "sim.idle_ns_per_virt_ms",
        timed(
            SIM_BATCHES,
            (until.0 / 1_000_000) as usize,
            || {
                let mut sim = Simulator::new(SimConfig::ace(4), Box::new(AllLocalPolicy));
                (0..4)
                    .for_each(|i| sim.spawn(format!("idle{i}"), move |ctx| ctx.wait_until(until)));
                sim
            },
            |sim| {
                sim.run();
            },
        ),
    ));
    out.push((
        "sim.spawn_run_ns",
        steady(20, |_| {
            let mut sim = Simulator::new(SimConfig::ace(1), Box::new(AllLocalPolicy));
            sim.spawn("empty", |_| {});
            black_box(sim.run());
        }),
    ));
}

fn cthreads_layer(out: &mut Vec<Sample>) {
    out.push((
        "cthreads.lock_pair_ns",
        in_thread(SimConfig::ace(1), 10_000, |ctx, a| {
            let lock = SpinLock::new(a);
            lock.lock(ctx);
            lock.unlock(ctx);
        }),
    ));
    out.push((
        "cthreads.workpile_take_ns",
        in_thread(SimConfig::ace(1), 10_000, |ctx, a| {
            black_box(WorkPile::new(a, u64::from(u32::MAX)).take(ctx));
        }),
    ));

    const ROUNDS: usize = 200;
    let mut sim = Simulator::new(SimConfig::ace(4), Box::new(MoveLimitPolicy::default()));
    let barrier = Barrier::new(sim.alloc(64, Prot::READ_WRITE), 4);
    let samples = Arc::new(Mutex::new(Vec::new()));
    for i in 0..4 {
        let out = Arc::clone(&samples);
        sim.spawn(format!("party{i}"), move |ctx| {
            for _ in 0..BATCHES {
                let started = Instant::now();
                (0..ROUNDS).for_each(|_| barrier.wait(ctx));
                if i == 0 {
                    let per_round = started.elapsed().as_nanos() as f64 / ROUNDS as f64;
                    out.lock().expect("samples poisoned").push(per_round);
                }
            }
        });
    }
    sim.run();
    let samples = samples.lock().expect("samples poisoned");
    out.push(("cthreads.barrier_ns", median(&samples)));
}

fn apps_and_metrics_layers(out: &mut Vec<Sample>, root: &Path) -> Result<(), String> {
    let zipf = Zipf::new(4096, 1.0).map_err(|e| e.to_string())?;
    let mut rng = Rng::new(0x0ACE);
    out.push((
        "apps.zipf_sample_ns",
        steady(100_000, |_| {
            black_box(zipf.sample(&mut rng));
        }),
    ));

    let mut hist = LatencyHistogram::new();
    out.push((
        "metrics.hist_record_ns",
        steady(100_000, |i| {
            hist.record(black_box(
                500 + (i as u64).wrapping_mul(2_654_435_761) % 4_000_000,
            ));
        }),
    ));
    out.push((
        "metrics.hist_percentile_ns",
        steady(10_000, |_| {
            black_box(hist.percentile(black_box(0.99)));
        }),
    ));

    let mut telemetry = Telemetry::new();
    let kind = EventKind::Reference {
        access: Access::Fetch,
        dist: Distance::Local,
        words: 1,
    };
    let mut t = 0;
    out.push((
        "metrics.event_record_ns",
        steady(100_000, |_| {
            t += 650;
            telemetry.record(black_box(&Event {
                t: Ns(t),
                cpu: CpuId(0),
                kind,
            }));
        }),
    ));

    let read = |name: &str| {
        std::fs::read_to_string(root.join(name)).map_err(|e| format!("cannot read {name}: {e}"))
    };
    let text = read("BENCH_overload.json")?;
    let doc = numa_metrics::parse(&text)?;
    let mb = text.len() as f64 / 1e6;
    let per_s = |ns_per_op: f64| mb / (ns_per_op / 1e9);
    out.push((
        "metrics.json_write_mb_s",
        per_s(steady(3, |_| {
            black_box(black_box(&doc).to_string_flat());
        })),
    ));
    out.push((
        "metrics.json_parse_mb_s",
        per_s(steady(3, |_| {
            black_box(numa_metrics::parse(black_box(&text)).is_ok());
        })),
    ));
    out.push((
        "metrics.compare_ms",
        steady(3, |_| {
            black_box(numa_metrics::compare(&doc, black_box(&doc), &|_| Tolerance::EXACT).passes());
        }) / 1e6,
    ));

    let serving = read("BENCH_serving.json")?;
    let tolerances = GateTolerances::default();
    out.push((
        "lab.gate_ms",
        steady(3, |_| {
            black_box(diff_documents(&serving, black_box(&serving), &tolerances).is_ok());
        }) / 1e6,
    ));
    Ok(())
}

fn lab_layer(out: &mut Vec<Sample>, scratch: &Path) -> Result<(), String> {
    out.push((
        "lab.grid_expand_us",
        steady(20, |_| {
            black_box(Grid::overload().jobs());
        }) / 1e3,
    ));

    let jobs: Vec<_> = Grid::overload()
        .jobs()
        .into_iter()
        .cycle()
        .take(1_000)
        .collect();
    // A job that does nothing still has to hand back a report.
    let idle: RunReport = Simulator::new(SimConfig::ace(1), Box::new(AllLocalPolicy)).report();
    out.push((
        "lab.farm_job_us",
        timed(
            BATCHES,
            jobs.len(),
            || (),
            |()| {
                let idle = idle.clone();
                black_box(run_jobs_with(&jobs, 1, None, move |_| Ok(idle.clone())).is_ok());
            },
        ) / 1e3,
    ));

    // A finished sweep of the paper grid's shape (24 rows, 8 model
    // rows) at test scale: the document `paper_bench` serialises.
    let sweep = Sweep::run(Grid::paper(), 1, None).map_err(|e| e.to_string())?;
    out.push((
        "lab.sweep_json_ms",
        steady(5, |_| {
            black_box(black_box(&sweep).to_json().to_string_flat());
        }) / 1e6,
    ));

    std::fs::create_dir_all(scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let path = scratch.join(format!("checkpoint-{}.partial", std::process::id()));
    let mut failed = None;
    out.push((
        "lab.checkpoint_roundtrip_ms",
        steady(1, |_| {
            let roundtrip = || -> Result<usize, String> {
                let mut cp = Checkpoint::load_or_create(&path, &sweep.grid)?;
                for r in &sweep.results {
                    cp.record(&r.spec, &r.report)?;
                }
                let reloaded = Checkpoint::load_or_create(&path, &sweep.grid)?;
                cp.remove();
                Ok(reloaded.completed_ids().len())
            };
            match roundtrip() {
                Ok(n) if n == sweep.results.len() => {}
                Ok(n) => {
                    failed = Some(format!(
                        "checkpoint reloaded {n} of {} cells",
                        sweep.results.len()
                    ))
                }
                Err(e) => failed = Some(e),
            }
        }) / 1e6,
    ));
    failed.map_or(Ok(()), Err)
}

fn trace_layer(out: &mut Vec<Sample>) -> Result<(), String> {
    const CPUS: usize = 4;
    let app = Primes3::with_limit(20_000);
    let run = |record: bool| -> Result<(f64, Option<numa_trace::Trace>), String> {
        let mut sim = Simulator::new(SimConfig::ace(CPUS), Box::new(MoveLimitPolicy::default()));
        let started = Instant::now();
        let recorder = record.then(|| Recorder::install(&sim));
        app.run(&mut sim, CPUS)?;
        let trace = recorder.map(|r| r.take(&sim));
        Ok((started.elapsed().as_nanos() as f64, trace))
    };
    let mut extra = Vec::new();
    let mut trace = None;
    for _ in 0..SIM_BATCHES {
        let (plain_ns, _) = run(false)?;
        let (recorded_ns, t) = run(true)?;
        let t = t.expect("a recorded run yields a trace");
        extra.push((recorded_ns - plain_ns) / t.len() as f64);
        trace = Some(t);
    }
    let trace = trace.expect("at least one batch");
    // The difference of two noisy runs can come out below zero; the
    // cost cannot.
    out.push(("trace.record_ref_ns", median(&extra).max(0.0)));
    let costs = ace_machine::CostModel::ace();
    let page = ace(CPUS).page_size.bytes();
    out.push((
        "trace.replay_ref_ns",
        timed(SIM_BATCHES, trace.len(), MoveLimitPolicy::default, |p| {
            black_box(replay(&trace, p, &costs, page));
        }),
    ));
    out.push((
        "trace.optimal_ref_ns",
        timed(
            SIM_BATCHES,
            trace.len(),
            || (),
            |()| {
                black_box(optimal_cost(&trace, &costs, page));
            },
        ),
    ));
    Ok(())
}

/// Measures every microcell. `root` is the repository (for the
/// committed documents the JSON cells read), `scratch` a directory of
/// the benchmark's own for the checkpoint round trip.
pub fn run_all(root: &Path, scratch: &Path) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    ace_layer(&mut out);
    machvm_layer(&mut out);
    core_layer(&mut out);
    sim_layer(&mut out);
    cthreads_layer(&mut out);
    apps_and_metrics_layers(&mut out, root)?;
    lab_layer(&mut out, scratch)?;
    trace_layer(&mut out)?;
    Ok(out)
}
