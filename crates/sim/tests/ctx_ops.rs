//! Coverage of the thread-context operation surface and engine knobs.

use ace_machine::{Ns, Prot};
use ace_sim::{SimConfig, Simulator};
use numa_core::MoveLimitPolicy;

fn sim(n: usize) -> Simulator {
    Simulator::new(SimConfig::small(n), Box::new(MoveLimitPolicy::default()))
}

#[test]
fn byte_and_word_ops_roundtrip() {
    let mut s = sim(1);
    let a = s.alloc(1024, Prot::READ_WRITE);
    s.spawn("ops", move |ctx| {
        ctx.write_u8(a, 0xAB);
        ctx.write_u8(a + 1, 0x01);
        assert_eq!(ctx.read_u8(a), 0xAB);
        ctx.write_i32(a + 4, -12345);
        assert_eq!(ctx.read_i32(a + 4), -12345);
        ctx.write_f64(a + 8, -0.5);
        assert_eq!(ctx.read_f64(a + 8), -0.5);
        // Byte writes and word reads see the same memory.
        assert_eq!(ctx.read_u32(a) & 0xFFFF, 0x01AB);
    });
    s.run();
}

#[test]
fn tid_cpu_and_ncpus_are_visible() {
    let mut s = sim(3);
    for t in 0..3 {
        s.spawn(format!("t{t}"), move |ctx| {
            assert_eq!(ctx.tid(), t);
            assert_eq!(ctx.n_cpus(), 3);
            // Affinity: sequential assignment.
            assert_eq!(ctx.cpu().index(), t);
        });
    }
    s.run();
}

#[test]
fn yield_now_is_harmless() {
    let mut s = sim(2);
    let a = s.alloc(64, Prot::READ_WRITE);
    for t in 0..2u64 {
        s.spawn(format!("t{t}"), move |ctx| {
            for i in 0..10u32 {
                ctx.yield_now();
                if t == 0 {
                    ctx.write_u32(a, i);
                } else {
                    let _ = ctx.read_u32(a);
                }
            }
        });
    }
    s.run();
    assert_eq!(s.with_kernel(|k| k.peek_u32(a)), 9);
}

#[test]
fn compute_is_chunked_but_exact() {
    let mut s = sim(1);
    s.spawn("compute", |ctx| {
        ctx.compute(Ns::from_ms(3));
        ctx.compute(Ns(1)); // Sub-chunk remainder.
    });
    let r = s.run();
    assert_eq!(r.total_user(), Ns(3_000_001));
}

/// The fast path's one-step `compute` charges what the slow path's
/// chunk-by-chunk loop charges before each rendezvous, for lengths on
/// either side of a chunk (20 µs, `COMPUTE_CHUNK`) and budgets that end
/// anywhere in them: two threads alternate computes with shared-word
/// stores between them, so any shifted rendezvous reorders the stores
/// and shows in the values read, the clocks seen, or the report.
#[test]
fn compute_charges_the_same_at_every_budget_boundary_on_both_paths() {
    let chunk = Ns::from_us(20);
    let lengths = [Ns(1), chunk - Ns(1), chunk, chunk + Ns(1), chunk * 37 + Ns(5)];
    let run = |fastpath: bool, lookahead: Ns| {
        let mut cfg = SimConfig::small(2).fastpath(fastpath);
        cfg.lookahead = lookahead;
        let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        let a = s.alloc(64, Prot::READ_WRITE);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        for t in 0..2u64 {
            let seen = std::sync::Arc::clone(&seen);
            s.spawn(format!("t{t}"), move |ctx| {
                for round in 0..6usize {
                    for (i, &len) in lengths.iter().enumerate() {
                        // Thread 1 takes the lengths rotated by the
                        // round, so every pair of lengths meets.
                        let len = if t == 0 { len } else { lengths[(i + round) % lengths.len()] };
                        ctx.compute(len);
                        ctx.write_u32(a + t * 4, (round * 10 + i) as u32);
                        let other = ctx.read_u32(a + (1 - t) * 4);
                        // `now` may hand the processor over: never under
                        // the lock.
                        let now = ctx.now();
                        seen.lock().unwrap().push((t, now, other));
                    }
                }
            });
        }
        let r = s.run();
        let clocks: Vec<Ns> = r.cpu_times.iter().map(|c| c.total()).collect();
        let seen = seen.lock().unwrap().clone();
        (clocks, r, seen)
    };
    for lookahead in [Ns::ZERO, Ns::from_us(500)] {
        let slow = run(false, lookahead);
        let fast = run(true, lookahead);
        assert_eq!(slow.0, fast.0, "per-cpu clocks diverged at lookahead {lookahead:?}");
        assert_eq!(slow.1, fast.1, "reports diverged at lookahead {lookahead:?}");
        assert_eq!(slow.2, fast.2, "interleaving diverged at lookahead {lookahead:?}");
    }
}

#[test]
fn lookahead_zero_and_nonzero_agree_on_results() {
    // Timing may differ across lookahead settings (bounded reorder), but
    // data results and conservation properties must not.
    let run = |lookahead: Ns| {
        let mut cfg = SimConfig::small(3);
        cfg.lookahead = lookahead;
        let mut s = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        let a = s.alloc(4096, Prot::READ_WRITE);
        for t in 0..3u64 {
            s.spawn(format!("t{t}"), move |ctx| {
                for i in 0..60u64 {
                    let slot = a + ((t * 64 + i % 64) % 256) * 4;
                    let v = ctx.read_u32(slot);
                    ctx.write_u32(slot, v + 1);
                }
            });
        }
        s.run();
        // Sum of all increments is conserved regardless of interleaving.
        let mut sum = 0u64;
        for w in 0..256u64 {
            sum += s.with_kernel(|k| k.peek_u32(a + w * 4)) as u64;
        }
        sum
    };
    // Slots are per-thread-disjoint (t*64 block), so the count is exact.
    assert_eq!(run(Ns::ZERO), 180);
    assert_eq!(run(Ns::from_us(100)), 180);
}

#[test]
fn unix_syscall_charges_master_system_time() {
    let mut s = sim(2);
    let a = s.alloc(64, Prot::READ_WRITE);
    s.spawn("caller", move |ctx| {
        ctx.write_u32(a, 3);
        ctx.unix_syscall(Ns::from_us(50), &[a]);
        // The syscall's read-modify-write preserved the value.
        assert_eq!(ctx.read_u32(a), 3);
    });
    // Two threads so the caller is not on cpu0... tid 0 -> cpu0; spawn a
    // second thread first to shift assignment.
    let r = s.run();
    assert!(r.cpu_times[0].system >= Ns::from_us(50));
}

#[test]
fn reports_accumulate_refs_by_distance() {
    let mut s = sim(2);
    let a = s.alloc(64, Prot::READ_WRITE);
    // Ping-pong writes to force global pinning under a zero threshold.
    let mut cfg = SimConfig::small(2);
    cfg.machine.global_frames = 64;
    let mut s2 = Simulator::new(cfg, Box::new(MoveLimitPolicy::new(0)));
    let b = s2.alloc(64, Prot::READ_WRITE);
    for t in 0..2u64 {
        s2.spawn(format!("t{t}"), move |ctx| {
            for _ in 0..20 {
                ctx.write_u32(b, t as u32);
            }
        });
    }
    let r2 = s2.run();
    assert!(r2.refs.global > 0, "pinned page must serve global refs");
    // And the plain single-writer case is all local.
    s.spawn("solo", move |ctx| {
        for i in 0..20 {
            ctx.write_u32(a, i);
        }
    });
    let r = s.run();
    assert_eq!(r.refs.global, 0);
    assert_eq!(r.refs.local, 20);
}
