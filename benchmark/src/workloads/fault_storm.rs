//! `fault_storm`: a harness-authored, protocol-bound application.

use super::{cell, in_seeded_order, with_sink, Rep, Tag, Workload};
use crate::seed::SplitMix;
use crate::span::Tracer;
use ace_machine::{FaultConfig, Prot};
use ace_sim::{RunReport, SimConfig, Simulator};
use numa_core::{AllLocalPolicy, CachePolicy, MoveLimitPolicy};
use numa_metrics::SharedSink;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CPUS: usize = 4;
const PAGES: usize = 256;
/// Even rounds write, odd rounds read; 64 rounds make one repetition
/// about half a host second on the reference box.
const ROUNDS: usize = 64;
/// Ownership moves after which the `movelimit` cell pins a page.
const MOVE_LIMIT: u32 = 4;
/// Soft-fault rate of the `neverpin_faulty` cell, on all three channels.
const FAULT_RATE: f64 = 0.01;

#[derive(Clone, Copy)]
enum Kind {
    /// All-local policy, roomy local memories.
    NeverPin,
    /// All-local policy, 64 local frames: with 256 pages in play every
    /// LOCAL placement has to reclaim a victim first.
    NeverPinLf64,
    /// The paper's policy: after `MOVE_LIMIT` moves a page is pinned
    /// and the cell turns into a stream of global references — the
    /// bypass of everything the other cells exercise.
    MoveLimit,
    /// All-local policy with soft faults: retry, quarantine, refetch.
    NeverPinFaulty,
}

const KINDS: [(&str, Kind); 4] = [
    ("neverpin", Kind::NeverPin),
    ("neverpin_lf64", Kind::NeverPinLf64),
    ("movelimit", Kind::MoveLimit),
    ("neverpin_faulty", Kind::NeverPinFaulty),
];

/// Shared pages with one word per CPU each. A phase is one simulated
/// thread sweeping every page in a seeded order, run to completion
/// before the next is spawned, so each page fault is served with the
/// engine idle: `VmState::fault`, the policy, `NumaManager::request`,
/// the page copy and the MMU updates own the host time.
pub struct FaultStorm {
    /// Page visit order of each phase (`ROUNDS * CPUS` of them), the
    /// same for every cell.
    visits: Vec<Arc<[usize]>>,
    fault_seed: u64,
    order: Vec<usize>,
}

impl FaultStorm {
    /// Visit orders, the fault stream's seed and the cell order all
    /// come from `seed`.
    pub fn new(seed: u64) -> FaultStorm {
        let mut rng = SplitMix::new(seed, 0xF5);
        let visits = (0..ROUNDS * CPUS)
            .map(|_| rng.permutation(PAGES).into())
            .collect();
        FaultStorm {
            visits,
            fault_seed: rng.next_u64(),
            order: SplitMix::new(seed, 0xF6).permutation(KINDS.len()),
        }
    }

    fn config(&self, kind: Kind) -> (SimConfig, Box<dyn CachePolicy>) {
        let mut cfg = SimConfig::ace(CPUS);
        let mut policy: Box<dyn CachePolicy> = Box::new(AllLocalPolicy);
        match kind {
            Kind::NeverPin => {}
            Kind::NeverPinLf64 => cfg.machine.topology.set_uniform_local_frames(64),
            Kind::MoveLimit => policy = Box::new(MoveLimitPolicy::new(MOVE_LIMIT)),
            Kind::NeverPinFaulty => {
                cfg = cfg.faults(FaultConfig {
                    seed: self.fault_seed,
                    bus_timeout_rate: FAULT_RATE,
                    bad_frame_rate: FAULT_RATE,
                    corruption_rate: FAULT_RATE,
                    // At the default of 4 attempts a copy is lost for
                    // good once in 10^8; over a session of runs that is
                    // a failed operation the workload must not have.
                    max_copy_retries: 8,
                    ..FaultConfig::disabled()
                });
            }
        }
        (cfg, policy)
    }

    fn run_cell(
        &self,
        t: &mut Tracer,
        sink: Option<&SharedSink>,
        label: &str,
        kind: Kind,
    ) -> Result<RunReport, String> {
        let (cfg, policy) = self.config(kind);
        let page = cfg.machine.page_size.bytes() as u64;
        let mut sim = Simulator::new(with_sink(cfg, sink), policy);
        let base = sim.alloc(PAGES as u64 * page, Prot::READ_WRITE);
        let slot = move |p: usize, cpu: usize| base + p as u64 * page + cpu as u64 * 4;
        // What every slot must hold, kept on the host.
        let mut mirror = vec![0u32; PAGES * CPUS];
        let wrong = Arc::new(AtomicU64::new(0));
        for round in 0..ROUNDS {
            for cpu in 0..CPUS {
                let visit = Arc::clone(&self.visits[round * CPUS + cpu]);
                let wrong = Arc::clone(&wrong);
                if round % 2 == 0 {
                    let value = move |p: usize| {
                        ((round as u32 + 1) << 16) | ((cpu as u32) << 12) | p as u32
                    };
                    for p in 0..PAGES {
                        mirror[p * CPUS + cpu] = value(p);
                    }
                    sim.spawn(format!("w{round}.{cpu}"), move |ctx| {
                        // Threads are bound to CPUs in spawn order, so
                        // phase k of a round runs on CPU k.
                        wrong.fetch_add(u64::from(ctx.cpu().index() != cpu), Ordering::Relaxed);
                        for &p in visit.iter() {
                            ctx.write_u32(slot(p, cpu), value(p));
                        }
                    });
                } else {
                    let expect: Arc<[u32]> = mirror.as_slice().into();
                    sim.spawn(format!("r{round}.{cpu}"), move |ctx| {
                        wrong.fetch_add(u64::from(ctx.cpu().index() != cpu), Ordering::Relaxed);
                        for &p in visit.iter() {
                            let got = ctx.read_run(slot(p, 0), 4, CPUS);
                            let bad = got.iter().zip(&expect[p * CPUS..]).filter(|(g, e)| g != e);
                            wrong.fetch_add(bad.count() as u64, Ordering::Relaxed);
                        }
                    });
                }
                t.span("Simulator::run", label, |_| sim.run());
            }
        }
        // End state, slot by slot.
        let stale = sim.with_kernel(|k| {
            (0..PAGES * CPUS)
                .filter(|&i| k.peek_u32(slot(i / CPUS, i % CPUS)) != mirror[i])
                .count()
        });
        let wrong = wrong.load(Ordering::Relaxed);
        if wrong > 0 || stale > 0 {
            return Err(format!(
                "{wrong} wrong reads or placements, {stale} wrong final slots"
            ));
        }
        t.span("check_consistency", label, |_| {
            sim.with_kernel(|k| k.check_consistency())
        })?;
        Ok(t.span("Simulator::report", label, |_| sim.report()))
    }
}

impl Workload for FaultStorm {
    fn rep(&self, t: &mut Tracer, sink: Option<&SharedSink>) -> Rep {
        let mut rep = Rep::default();
        let ran = in_seeded_order(&self.order, |i| {
            let (label, kind) = KINDS[i];
            let tag = Tag {
                label: label.to_string(),
                numa: true,
                per_ref: sink.is_some(),
            };
            cell(t, tag, |t, label| self.run_cell(t, sink, label, kind))
        });
        ran.into_iter().for_each(|r| rep.file(r));
        rep
    }

    fn inputs(&self) -> String {
        format!(
            "first phase visits pages {:?}…, fault seed {:#x}; {}",
            &self.visits[0][..8],
            self.fault_seed,
            super::order_text(&self.order)
        )
    }
}
