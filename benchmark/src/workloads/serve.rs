//! `serve_idle` and `serve_sat`: KvServe used both ways.
//!
//! KvServe is an **open loop on the virtual clock**: every arrival is a
//! pre-scheduled absolute virtual time and latency is measured from the
//! scheduled arrival, so the generator is never late — lateness is zero
//! by construction, not by measurement. A request that is shed counts
//! as missing its deadline.
//!
//! The request stream's seed is a private constant of `numa-apps`; the
//! harness does not reach into it. `--seed` instead moves the stream on
//! the virtual-time axis (`start_ns`), and leaves it alone at the
//! default seed. The get/put mix is *not* jittered: the flush-limit
//! policy's pins tip chaotically on it — one per mille of `put_permille`
//! moved `virt_sys_s` of `serve_idle` by 10 % — so it would be a
//! different modelled system per seed, not a different sample of one.

use super::{app_cell, in_seeded_order, with_sink, Rep, Tag, Workload};
use crate::seed::{SplitMix, DEFAULT_SEED};
use crate::span::Tracer;
use ace_machine::Ns;
use ace_sim::SimConfig;
use numa_apps::{KvServe, Scale, ServeParams};
use numa_core::{AllGlobalPolicy, CachePolicy, FlushLimitPolicy};
use numa_metrics::SharedSink;

const CPUS: usize = 4;
/// Local frames per CPU: fewer than the store has shard pages, so the
/// pressure machinery is live.
const LOCAL_FRAMES: usize = 12;
/// Virtual-time safety net, as on the serving grids.
const VT_BUDGET: Ns = Ns::from_ms(60_000);

/// The cell whose host time per request is `apps.kvserve_req_ns`: past
/// capacity with nothing shed, so every request takes the full path.
pub const BUSIEST_CELL: &str = "numa r=2M unprotected";

struct ServeCell {
    label: String,
    params: ServeParams,
    /// All-global placement; otherwise the flush-limit NUMA policy.
    global: bool,
}

/// A set of KvServe cells on the 4-CPU, 12-local-frame machine.
pub struct Serve {
    cells: Vec<ServeCell>,
    order: Vec<usize>,
}

/// Bench-scale store (4096 keys, 16 shards, three tenants), its first
/// arrival delayed by up to a millisecond by any seed but the default.
fn base_params(seed: u64) -> ServeParams {
    let mut p = ServeParams {
        tenants: 3,
        ..ServeParams::for_scale(Scale::Bench)
    };
    if seed != DEFAULT_SEED {
        p.start_ns += SplitMix::new(seed, 0x5E).below(1_000_001);
    }
    p
}

impl Serve {
    fn new(seed: u64, salt: u64, cells: Vec<ServeCell>) -> Serve {
        let order = SplitMix::new(seed, salt).permutation(cells.len());
        Serve { cells, order }
    }

    /// 4 096 requests — enough for 40 samples beyond p99 — at 500 and
    /// 2 000 req/s under the global and the NUMA placement. The workers
    /// wait for arrivals more than 99 % of virtual time.
    pub fn idle(seed: u64) -> Serve {
        let mut cells = Vec::new();
        for rate in [500, 2_000] {
            for global in [true, false] {
                cells.push(ServeCell {
                    label: format!("{} r={rate}", if global { "global" } else { "numa" }),
                    params: ServeParams {
                        requests: 4096,
                        rate,
                        ..base_params(seed)
                    },
                    global,
                });
            }
        }
        Serve::new(seed, 0x51, cells)
    }

    /// 2^20 requests under the NUMA placement: within capacity, past it
    /// unprotected (the backlog grows for the whole run), and past it
    /// with every admission knob engaged.
    pub fn saturated(seed: u64) -> Serve {
        let at = |label: &str, rate: u64, protected: bool| {
            let mut params = ServeParams {
                requests: 1 << 20,
                rate,
                ..base_params(seed)
            };
            if protected {
                params.queue_depth = 8;
                params.deadline_ns = 400_000;
                params.tenant_quota = 400_000;
            }
            ServeCell {
                label: label.to_string(),
                params,
                global: false,
            }
        };
        let cells = vec![
            at("numa r=512k", 512_000, false),
            at(BUSIEST_CELL, 2_000_000, false),
            at("numa r=2M protected", 2_000_000, true),
        ];
        Serve::new(seed, 0x52, cells)
    }
}

impl Workload for Serve {
    fn rep(&self, t: &mut Tracer, sink: Option<&SharedSink>) -> Rep {
        let mut rep = Rep::default();
        let ran = in_seeded_order(&self.order, |i| {
            let cell = &self.cells[i];
            let mut cfg = SimConfig::ace(CPUS).vt_budget(Some(VT_BUDGET));
            cfg.machine.topology.set_uniform_local_frames(LOCAL_FRAMES);
            let policy: Box<dyn CachePolicy> = if cell.global {
                Box::new(AllGlobalPolicy)
            } else {
                Box::new(FlushLimitPolicy::default())
            };
            let tag = Tag {
                label: cell.label.clone(),
                numa: !cell.global,
                per_ref: sink.is_some(),
            };
            let app = KvServe::new(cell.params.clone());
            app_cell(t, tag, with_sink(cfg, sink), policy, &app, CPUS)
        });
        ran.into_iter().for_each(|r| rep.file(r));
        rep
    }

    fn inputs(&self) -> String {
        let p = &self.cells[0].params;
        format!(
            "start_ns {}; {}",
            p.start_ns,
            super::order_text(&self.order)
        )
    }
}
