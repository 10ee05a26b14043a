//! Differential test of idle parking: `ThreadCtx::wait_until` against a
//! reference written from the public API the way `wait_until` used to be
//! — one `compute_chunk` charge at a time with a scheduling decision at
//! every budget boundary, all of it on the waiting thread. A thread
//! parked in `wait_until` is instead idled by the scheduler without ever
//! being woken; every clock and counter must come out the same.

use ace_machine::{
    BusStats, CpuId, CpuTime, FaultConfig, FaultStats, HardFault, NodeId, Ns, Prot,
};
use ace_sim::{run_one, RefCounters, SchedulerKind, SimConfig, Simulator, ThreadCtx};
use numa_core::{MoveLimitPolicy, NumaStats};

type Wait = fn(&mut ThreadCtx, Ns);

/// The chunk-grinding wait `ThreadCtx::wait_until` replaced.
fn wait_until_reference(ctx: &mut ThreadCtx, t: Ns) {
    // Every config here keeps the presets' 20 us compute chunk.
    let chunk = Ns::from_us(20);
    loop {
        let now = ctx.now();
        if now >= t {
            return;
        }
        ctx.compute((t - now).min(chunk));
    }
}

fn wait_until_parked(ctx: &mut ThreadCtx, t: Ns) {
    ctx.wait_until(t);
}

type Measured = (Vec<CpuTime>, RefCounters, NumaStats, BusStats, FaultStats, bool);

fn measured(sim: &Simulator) -> Measured {
    let r = sim.report();
    (r.cpu_times, r.refs, r.numa, r.bus, r.faults, sim.vt_exceeded())
}

/// Runs `scenario` with both waits and requires identical measurements;
/// returns them for scenario-specific checks.
fn same_both_ways(label: &str, scenario: impl Fn(Wait) -> Measured) -> Measured {
    let reference = scenario(wait_until_reference);
    let parked = scenario(wait_until_parked);
    assert_eq!(reference, parked, "{label}: parked wait diverged from the reference");
    parked
}

/// Lookahead windows on both sides of the chunk size, plus exact
/// interleaving.
fn lookaheads() -> [Ns; 3] {
    [Ns::ZERO, Ns::from_us(70), Ns::from_us(500)]
}

/// `waiters` threads that each touch shared memory, wait for a target
/// that is no multiple of the chunk, and touch memory again, three
/// times over, next to `computers` threads that only compute.
fn waiters_and_computers(
    cfg: SimConfig,
    waiters: u64,
    computers: u64,
    wait: Wait,
) -> Measured {
    let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
    let a = sim.alloc(4096, Prot::READ_WRITE);
    for w in 0..waiters {
        sim.spawn(format!("waiter{w}"), move |ctx| {
            for round in 1..=3u64 {
                ctx.write_u32(a + w * 8, (round * 10 + w) as u32);
                wait(ctx, Ns(round * 1_000_000 + w * 333_337 + 1_234));
                let _ = ctx.read_u32(a + ((w + 1) % waiters) * 8);
            }
        });
    }
    for c in 0..computers {
        sim.spawn(format!("computer{c}"), move |ctx| {
            for i in 0..40u64 {
                ctx.compute(Ns::from_us(90 + c * 7));
                ctx.write_u32(a + 1024 + c * 8, i as u32);
            }
        });
    }
    sim.run();
    measured(&sim)
}

#[test]
fn staggered_waiters_on_their_own_processors() {
    for lookahead in lookaheads() {
        for fast in [true, false] {
            let cfg = SimConfig::small(4).lookahead(lookahead).fastpath(fast);
            let m = same_both_ways(&format!("lookahead {lookahead:?} fast {fast}"), |wait| {
                waiters_and_computers(cfg.clone(), 4, 0, wait)
            });
            assert!(m.0.iter().all(|t| t.total() >= Ns::from_ms(3)), "every waiter reached 3 ms");
        }
    }
}

#[test]
fn waiters_sharing_processors_with_compute_threads() {
    // Two processors, a waiter and a computer on each, a quantum far
    // shorter than the waits: parked threads are rotated out and in
    // (and, under the global queue, across processors) while parked.
    for scheduler in [SchedulerKind::Affinity, SchedulerKind::GlobalQueue] {
        for lookahead in lookaheads() {
            for fast in [true, false] {
                let cfg = SimConfig::small(2)
                    .scheduler(scheduler)
                    .quantum(Ns::from_us(200))
                    .lookahead(lookahead)
                    .fastpath(fast);
                same_both_ways(&format!("{scheduler:?} lookahead {lookahead:?} fast {fast}"), |wait| {
                    waiters_and_computers(cfg.clone(), 2, 2, wait)
                });
            }
        }
    }
}

#[test]
fn daemon_ticks_during_parked_windows_flush_the_same_replicas() {
    // Four local frames per node and a read-mostly sweep keep every
    // free list under the watermark, so each daemon tick (1 ms) flushes
    // replicas — and most ticks fall while all three threads are parked.
    for lookahead in lookaheads() {
        let m = same_both_ways(&format!("lookahead {lookahead:?}"), |wait| {
            let mut cfg = SimConfig::small(3).lookahead(lookahead).pressure_watermarks(2, 4);
            cfg.machine.topology.set_uniform_local_frames(4);
            let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let page = 256u64;
            let a = sim.alloc(16 * page, Prot::READ_WRITE);
            for t in 0..3u64 {
                sim.spawn(format!("reader{t}"), move |ctx| {
                    for round in 1..=4u64 {
                        for i in 0..16u64 {
                            let _ = ctx.read_u32(a + i * page);
                            if i % 4 == t {
                                ctx.write_u32(a + i * page + 4 + t * 8, (round * 10 + i) as u32);
                            }
                        }
                        wait(ctx, Ns(round * 2_500_000 + t * 77_777));
                    }
                });
            }
            sim.run();
            sim.with_kernel(|k| k.check_consistency()).expect("directory legal");
            measured(&sim)
        });
        assert!(m.2.pressure_ticks > 0, "the daemon must have had flushing to do: {:?}", m.2);
    }
}

#[test]
fn hard_failures_strike_parked_threads_identically() {
    // Processor 2 stops at 500 us, while its only thread is parked in a
    // 2 ms wait (the thread is drained to a survivor still parked);
    // node 1 loses its memory at 800 us, with every thread parked.
    for lookahead in lookaheads() {
        let m = same_both_ways(&format!("lookahead {lookahead:?}"), |wait| {
            let cfg = SimConfig::small(3).lookahead(lookahead).faults(FaultConfig {
                hard_faults: vec![
                    HardFault::CpuOffline { cpu: CpuId(2), vt: Ns::from_us(500) },
                    HardFault::NodeOffline { node: NodeId(1), vt: Ns::from_us(800) },
                ],
                ..FaultConfig::default()
            });
            let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
            let a = sim.alloc(8192, Prot::READ_WRITE);
            for t in 0..3u64 {
                sim.spawn(format!("t{t}"), move |ctx| {
                    for i in 0..16u64 {
                        ctx.write_u32(a + t * 2048 + i * 4, (t * 100 + i) as u32);
                        let _ = ctx.read_u32(a);
                    }
                    wait(ctx, Ns(2_000_000 + t * 50_001));
                    for i in 0..16u64 {
                        let _ = ctx.read_u32(a + ((t + 1) % 3) * 2048 + i * 4);
                    }
                });
            }
            sim.run();
            sim.with_kernel(|k| k.check_consistency()).expect("directory legal after recovery");
            measured(&sim)
        });
        assert_eq!(m.2.threads_drained, 1, "t2 was parked on the processor that stopped");
        assert_eq!(m.2.nodes_offlined, 1);
    }
}

#[test]
fn vt_budget_expires_with_every_thread_parked() {
    let cfg = SimConfig::small(3).lookahead(Ns::from_us(70)).vt_budget(Some(Ns::from_ms(2)));
    // The truncated runs agree on every clock...
    let m = same_both_ways("budget", |wait| {
        let mut sim = Simulator::new(cfg.clone(), Box::new(MoveLimitPolicy::default()));
        for t in 0..3u64 {
            sim.spawn(format!("t{t}"), move |ctx| wait(ctx, Ns::from_ms(50 + t)));
        }
        sim.run();
        measured(&sim)
    });
    assert!(m.5, "the run was cut by the budget");
    // ...and the farm's entry point types the abort instead of hanging
    // on threads nobody will ever wake.
    let err = run_one(cfg, Box::new(MoveLimitPolicy::default()), |sim| {
        for t in 0..3u64 {
            sim.spawn(format!("t{t}"), move |ctx| ctx.wait_until(Ns::from_ms(50 + t)));
        }
        sim.run();
        Ok(())
    })
    .expect_err("50 ms waits cannot fit a 2 ms budget");
    assert!(err.contains("virtual-time budget"), "got: {err}");
}

/// SplitMix64, for the seeded sweep below.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn seeded_mixes_of_waits_and_work_agree() {
    // Forty machines and thread mixes drawn from a seed: waits relative
    // to the thread's own clock interleaved with references, computes
    // and voluntary yields, more threads than processors half the time.
    let mut seed = 1989u64;
    for case in 0..40 {
        let n_cpus = 1 + (next(&mut seed) % 4) as usize;
        let n_threads = n_cpus + (next(&mut seed) % 3) as usize;
        let cfg = SimConfig::small(n_cpus)
            .scheduler(if next(&mut seed) & 1 == 0 {
                SchedulerKind::Affinity
            } else {
                SchedulerKind::GlobalQueue
            })
            .quantum(Ns::from_us(100 + next(&mut seed) % 900))
            .lookahead(Ns::from_us(next(&mut seed) % 300))
            .daemon_interval(Ns::from_us(300 + next(&mut seed) % 700))
            .fastpath(next(&mut seed) & 3 != 0);
        let scripts: Vec<Vec<u64>> = (0..n_threads)
            .map(|_| (0..24).map(|_| next(&mut seed)).collect())
            .collect();
        same_both_ways(&format!("case {case}"), |wait| {
            let mut sim = Simulator::new(cfg.clone(), Box::new(MoveLimitPolicy::default()));
            let a = sim.alloc(4096, Prot::READ_WRITE);
            for (t, script) in scripts.iter().cloned().enumerate() {
                sim.spawn(format!("t{t}"), move |ctx| {
                    for op in script {
                        let arg = op >> 8;
                        match op % 5 {
                            0 => {
                                let now = ctx.now();
                                wait(ctx, now + Ns(arg % 700_000));
                            }
                            1 => ctx.compute(Ns(arg % 150_000)),
                            2 => ctx.write_u32(a + (arg % 256) * 4, op as u32),
                            3 => drop(ctx.read_u32(a + (arg % 256) * 4)),
                            _ => ctx.yield_now(),
                        }
                    }
                });
            }
            sim.run();
            measured(&sim)
        });
    }
}

/// Both schedulers on both access paths: the four corners every
/// boundary case below runs under.
fn modes() -> impl Iterator<Item = (SchedulerKind, bool)> {
    [SchedulerKind::Affinity, SchedulerKind::GlobalQueue]
        .into_iter()
        .flat_map(|s| [(s, true), (s, false)])
}

#[test]
fn lone_waiter_with_an_unbounded_budget_lands_on_its_target() {
    // One thread on one processor has no one to yield to, so its grant
    // never ends: the closed form must take the whole wait in one step
    // without multiplying its way past the top of the clock.
    let target = Ns(1_000_000_007);
    for (scheduler, fast) in modes() {
        let cfg = SimConfig::small(1).scheduler(scheduler).fastpath(fast);
        let m = same_both_ways(&format!("{scheduler:?} fast {fast}"), |wait| {
            let mut sim = Simulator::new(cfg.clone(), Box::new(MoveLimitPolicy::default()));
            sim.spawn("waiter", move |ctx| wait(ctx, target));
            sim.run();
            measured(&sim)
        });
        assert_eq!(m.0[0].user, target, "{scheduler:?} fast {fast}: user time is the wait");
        assert_eq!(m.0[0].system, Ns::ZERO);
    }
}

#[test]
fn target_landing_exactly_on_the_budget_end() {
    // The first grant starts at 0 and ends at the quantum (one
    // processor, a computer queued behind the waiter) or at the
    // lookahead (two processors, both at 0), so a wait for exactly that
    // instant reaches its target and spends its grant in the same step.
    let quantum = Ns::from_us(100);
    let lookahead = Ns::from_us(60);
    for (scheduler, fast) in modes() {
        for (cpus, target) in [(1, quantum), (2, lookahead)] {
            let cfg = SimConfig::small(cpus)
                .scheduler(scheduler)
                .quantum(quantum)
                .lookahead(lookahead)
                .fastpath(fast);
            same_both_ways(&format!("{scheduler:?} fast {fast} cpus {cpus}"), |wait| {
                let mut sim = Simulator::new(cfg.clone(), Box::new(MoveLimitPolicy::default()));
                let a = sim.alloc(256, Prot::READ_WRITE);
                sim.spawn("waiter", move |ctx| {
                    wait(ctx, target);
                    ctx.write_u32(a, 1);
                    wait(ctx, target * 3);
                    let _ = ctx.read_u32(a + 4);
                });
                sim.spawn("computer", move |ctx| {
                    for i in 0..8u32 {
                        ctx.compute(Ns::from_us(45));
                        ctx.write_u32(a + 4, i);
                    }
                });
                sim.run();
                measured(&sim)
            });
        }
    }
}

#[test]
fn waiter_parks_with_its_budget_already_spent() {
    // No lookahead and two waiters in lockstep: whichever processor is
    // picked is granted up to the other's clock, which equals its own,
    // so it idles through an empty window and must still step a chunk.
    // A compute that overshoots its grant leaves the thread past its
    // budget's end when it next waits.
    for (scheduler, fast) in modes() {
        let cfg = SimConfig::small(2).scheduler(scheduler).fastpath(fast);
        same_both_ways(&format!("{scheduler:?} fast {fast}"), |wait| {
            let mut sim = Simulator::new(cfg.clone(), Box::new(MoveLimitPolicy::default()));
            for t in 0..2u64 {
                sim.spawn(format!("t{t}"), move |ctx| {
                    wait(ctx, Ns(500_003));
                    ctx.compute(Ns::from_us(33 + t * 7));
                    wait(ctx, Ns(900_017));
                });
            }
            sim.run();
            measured(&sim)
        });
    }
}

#[test]
fn targets_inside_the_first_chunk() {
    // Waits no longer than one 20 us chunk, from wherever the thread's
    // clock happens to be, next to a thread that also computes.
    for (scheduler, fast) in modes() {
        for lookahead in lookaheads() {
            let cfg = SimConfig::small(2)
                .scheduler(scheduler)
                .quantum(Ns::from_us(150))
                .lookahead(lookahead)
                .fastpath(fast);
            same_both_ways(&format!("{scheduler:?} fast {fast} lookahead {lookahead:?}"), |wait| {
                let mut sim = Simulator::new(cfg.clone(), Box::new(MoveLimitPolicy::default()));
                let a = sim.alloc(256, Prot::READ_WRITE);
                for t in 0..3u64 {
                    sim.spawn(format!("t{t}"), move |ctx| {
                        let shorts = [1, 7_000, 19_999, 20_000].into_iter().cycle();
                        for (i, short) in shorts.take(12).enumerate() {
                            let now = ctx.now();
                            wait(ctx, now + Ns(short + t));
                            ctx.write_u32(a + t * 4, i as u32);
                            if t == 2 {
                                ctx.compute(Ns::from_us(27));
                            }
                        }
                    });
                }
                sim.run();
                measured(&sim)
            });
        }
    }
}
