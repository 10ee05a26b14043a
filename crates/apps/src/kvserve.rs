//! KvServe: a sharded in-memory KV store under open-loop request load.
//!
//! The eight paper applications are batch kernels: they reference
//! memory as fast as the machine allows and finish. Serving traffic is
//! the opposite regime — requests *arrive* on the time axis whether or
//! not the store keeps up — and it is where NUMA placement gets hard:
//! a zipfian hot set concentrates references on a few pages, reads
//! want those pages replicated near every processor, and writes want
//! them pinned where the owner runs.
//!
//! The store is `shards` page-aligned regions (one allocation each, so
//! shards never share a page). Each key lives in shard `key % shards`
//! at slot `key / shards`, holding one word that encodes
//! `(version << 12) | key` — every write bumps the version, so any
//! read can be checked for *which* write it observed.
//!
//! The load is generated host-side from one seeded stream before the
//! simulation starts: arrival times (uniform-jitter open loop at the
//! configured rate), tenants (zipf-skewed across `tenants` equal key
//! ranges), keys (zipfian within the tenant, exponent `zipf_s`, hot
//! set shifted halfway through the run), and the get/put mix. The same
//! pass admits and routes each request as it is drawn, so the stream
//! exists only once, as the workers' queues (16 bytes a request). Workers
//! pace themselves with [`ace_sim::ThreadCtx::wait_until`]: a request
//! is served no earlier than its arrival, and latency is completion
//! minus scheduled arrival — so queueing delay under overload is part
//! of the tail, exactly as in a real open-loop benchmark.
//!
//! Routing, decided in the generation pass, keeps verification exact
//! under any worker count: puts for a shard always go to one worker
//! (shard-affine, `(key % shards) % workers`, in arrival order), so
//! the final value of every key equals a host-side replay; gets are
//! sprayed round-robin across workers (that is what makes hot pages
//! *read-shared* and the placement policy's life interesting) and are
//! checked for coherence instead — a get must observe a version that
//! was actually written, never more than the key's total puts, and
//! never going backwards within one worker.
//!
//! # Overload robustness
//!
//! An open loop above service capacity grows queues without bound, so
//! the unprotected tail is an artifact of an infinite queue. Three
//! independently-switchable knobs bound it, each shedding with a typed
//! [`ShedReason`] and never mutating KV state:
//!
//! * **Bounded queues** (`queue_depth`, 0 = unbounded): a request that
//!   arrives while `queue_depth` earlier requests are waiting (admitted
//!   but not yet dequeued) at its worker is shed `QueueFull`.
//! * **Deadlines** (`deadline_ns`, 0 = none): a request that waits past
//!   its deadline is shed `DeadlineExpired` at dequeue — it occupied
//!   queue space while waiting but costs no service time. This is also
//!   how a drained processor's backlog sheds under a `CpuOffline` hard
//!   fault: the pause while its threads re-home blows the deadline.
//! * **Per-tenant quotas** (`tenant_quota` requests/second, 0 =
//!   unlimited): a token bucket per tenant in virtual time, refilled at
//!   the quota rate with a quarter-second burst, judged at arrival —
//!   one hot tenant cannot starve the rest. Rejections are shed
//!   `QuotaExceeded` before reaching any worker queue.
//!
//! Every generated request lands in exactly one ledger slot —
//! `generated == admitted + shed_queue_full + shed_deadline +
//! shed_quota` — and verification stays exact under shedding: workers
//! report the last word they actually wrote per key, and the host
//! checks final memory against those (cross-checked against the full
//! replay when no knob is engaged). All admission bookkeeping is pure
//! host-side integer arithmetic with zero virtual-time cost, so runs
//! with every knob disabled are byte-identical to the unprotected
//! serving stack.

use crate::app::App;
use crate::params::ParamError;
use crate::zipf::{self, Rng, Zipf};
use crate::Scale;
use ace_machine::{Ns, Prot};
use ace_sim::Simulator;
use cthreads::Barrier;
use mach_vm::VAddr;
use numa_metrics::{LatencyHistogram, ServingReport, ShedReason};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};

/// Fixed generator seed: every run of the same parameters sees the
/// same request stream.
const SERVE_SEED: u64 = 0x0ACE_CAFE;

/// Key bits in a stored word (keys are validated to fit).
const KEY_BITS: u32 = 12;
const KEY_MASK: u32 = (1 << KEY_BITS) - 1;

/// Pure compute charged per request before the memory operation
/// (parsing, lookup bookkeeping).
const GET_WORK: Ns = Ns(500);
const PUT_WORK: Ns = Ns(800);

/// Serving-workload parameters. Grids and command lines feed these, so
/// every field is validated into a typed [`ParamError`] instead of a
/// panic.
#[derive(Clone, Debug)]
pub struct ServeParams {
    /// Total keyspace size (at most 4096: keys share their word with a
    /// 20-bit version counter).
    pub keys: usize,
    /// Shard count — fixed independent of the worker count, so every
    /// cell of a sweep does the same total work (section 3.1's
    /// methodology).
    pub shards: usize,
    /// Total requests in the run (at most 2^20, and no key may be put
    /// 2^20 times: each put bumps the key's 20-bit stored version).
    pub requests: usize,
    /// Open-loop arrival rate in requests per second of virtual time.
    pub rate: u64,
    /// Zipf exponent of key popularity within a tenant (a non-negative
    /// multiple of 0.5, see [`crate::zipf`]).
    pub zipf_s: f64,
    /// Number of tenants; the keyspace splits into `tenants` equal
    /// ranges and traffic across tenants is itself zipf(1.0)-skewed.
    pub tenants: usize,
    /// Puts per thousand requests (the rest are gets).
    pub put_permille: u32,
    /// Virtual-time grace before the first arrival, covering store
    /// initialization.
    pub start_ns: u64,
    /// Per-worker bound on waiting requests; an arrival past the bound
    /// is shed [`ShedReason::QueueFull`]. Zero disables the bound
    /// (pre-admission behavior, byte-identical).
    pub queue_depth: usize,
    /// Per-request deadline: a request that waits longer than this
    /// before dequeue is shed [`ShedReason::DeadlineExpired`] unserved,
    /// and only served requests within it count toward goodput. Zero
    /// disables deadlines.
    pub deadline_ns: u64,
    /// Per-tenant admission quota in requests per second of virtual
    /// time (token bucket, quarter-second burst); rejections are shed
    /// [`ShedReason::QuotaExceeded`]. Zero disables quotas.
    pub tenant_quota: u64,
}

impl ServeParams {
    /// Parameters at the given workload scale.
    pub fn for_scale(scale: Scale) -> ServeParams {
        match scale {
            Scale::Test => ServeParams {
                keys: 512,
                shards: 8,
                requests: 1536,
                rate: 1_000,
                zipf_s: 1.0,
                tenants: 1,
                put_permille: 250,
                start_ns: 500_000,
                queue_depth: 0,
                deadline_ns: 0,
                tenant_quota: 0,
            },
            Scale::Bench => ServeParams {
                keys: 4096,
                shards: 16,
                requests: 16384,
                rate: 1_000,
                zipf_s: 1.0,
                tenants: 1,
                put_permille: 250,
                start_ns: 2_000_000,
                queue_depth: 0,
                deadline_ns: 0,
                tenant_quota: 0,
            },
        }
    }

    /// Validates every field; the first offense comes back typed.
    pub fn validate(&self) -> Result<(), ParamError> {
        if self.keys == 0 {
            return Err(ParamError::EmptyDomain { what: "keys" });
        }
        if self.keys > (KEY_MASK as usize + 1) {
            return Err(ParamError::Exceeds {
                what: "keys",
                got: self.keys,
                limit: KEY_MASK as usize + 1,
                bound: "the stored-word key field",
            });
        }
        if self.shards == 0 {
            return Err(ParamError::EmptyDomain { what: "shards" });
        }
        if self.shards > self.keys {
            return Err(ParamError::Exceeds {
                what: "shards",
                got: self.shards,
                limit: self.keys,
                bound: "keys",
            });
        }
        if self.requests == 0 {
            return Err(ParamError::EmptyDomain { what: "requests" });
        }
        if self.requests > (1 << 20) {
            return Err(ParamError::Exceeds {
                what: "requests",
                got: self.requests,
                limit: 1 << 20,
                bound: "the stored-word version field",
            });
        }
        if self.rate == 0 {
            return Err(ParamError::EmptyDomain { what: "request rate" });
        }
        if self.rate > 1_000_000_000 {
            return Err(ParamError::Exceeds {
                what: "request rate",
                got: self.rate as usize,
                limit: 1_000_000_000,
                bound: "one request per nanosecond",
            });
        }
        if self.tenants == 0 {
            return Err(ParamError::EmptyDomain { what: "tenants" });
        }
        if self.tenants > self.keys {
            return Err(ParamError::Exceeds {
                what: "tenants",
                got: self.tenants,
                limit: self.keys,
                bound: "keys",
            });
        }
        if self.put_permille > 1000 {
            return Err(ParamError::Exceeds {
                what: "put rate",
                got: self.put_permille as usize,
                limit: 1000,
                bound: "per-mille",
            });
        }
        if self.tenant_quota > 1_000_000_000 {
            return Err(ParamError::Exceeds {
                what: "tenant quota",
                got: self.tenant_quota as usize,
                limit: 1_000_000_000,
                bound: "one request per nanosecond",
            });
        }
        zipf::exponent_half_steps(self.zipf_s).map(|_| ())
    }
}

/// One generated request (16 bytes).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Request {
    /// Scheduled arrival instant (virtual time, ns).
    at: u64,
    /// The word a put stores, or the key a get reads: the key is
    /// `word & KEY_MASK` either way.
    word: u32,
    /// A put (else a get).
    put: bool,
}

/// The generated load, admitted and routed: each worker's queue plus
/// the host-side ground truth verification needs.
#[derive(Debug, PartialEq)]
struct Workload {
    /// Each worker's admitted requests, in arrival order.
    queues: Vec<Vec<Request>>,
    /// Total puts per key == the final version of that key.
    puts_per_key: Vec<u32>,
    gets: u64,
    puts: u64,
    /// Requests the tenant quotas shed before routing.
    shed_quota: u64,
}

/// Generates the request stream from one seeded RNG in arrival order
/// (arrival times are monotone) and, in the same pass, admits each
/// request past its tenant's quota and routes it to a worker's queue.
/// A key put to 2^20 times would wrap its stored-word version field,
/// and is a typed error.
fn generate(p: &ServeParams, workers: usize) -> Result<Workload, ParamError> {
    let mut rng = Rng::new(SERVE_SEED);
    let tenant_pick = Zipf::new(p.tenants, 1.0)?;
    // Each tenant's key range `(base, span)`.
    let ranges: Vec<(usize, usize)> = (0..p.tenants)
        .map(|t| {
            let base = t * p.keys / p.tenants;
            (base, (t + 1) * p.keys / p.tenants - base)
        })
        .collect();
    let tenant_keys: Vec<Zipf> =
        ranges.iter().map(|&(_, span)| Zipf::new(span, p.zipf_s)).collect::<Result<_, _>>()?;
    // The worker that owns each key's puts.
    let owner: Vec<usize> = (0..p.keys).map(|key| (key % p.shards) % workers).collect();
    let gap = 1_000_000_000 / p.rate;
    // Per-tenant admission: a token bucket in virtual time, judged at
    // arrival before routing, so a rejected request never reaches a
    // worker queue. Tokens are scaled by 1e9 (the bucket refills
    // `tenant_quota` tokens per second and arrival times are
    // nanoseconds), and the bucket starts full with a quarter-second
    // burst. Pure host-side integer arithmetic: it costs no virtual
    // time and with the quota disabled every request is routed.
    const TOKEN: u128 = 1_000_000_000;
    let burst = TOKEN * 1.max(p.tenant_quota / 4) as u128;
    let mut tokens = vec![burst; p.tenants];
    let mut refilled_at = vec![p.start_ns; p.tenants];
    let mut at = p.start_ns;
    let mut versions = vec![0u32; p.keys];
    let mut queues: Vec<Vec<Request>> =
        (0..workers).map(|_| Vec::with_capacity(p.requests.div_ceil(workers))).collect();
    let (mut gets, mut puts, mut shed_quota, mut rr) = (0u64, 0u64, 0u64, 0usize);
    for i in 0..p.requests {
        // Uniform jitter around the mean inter-arrival gap keeps the
        // stream open-loop but aperiodic.
        at += gap / 2 + rng.next_below(gap.max(1));
        let tenant = tenant_pick.sample(&mut rng);
        let (base, span) = ranges[tenant];
        let mut rank = tenant_keys[tenant].sample(&mut rng);
        // Phase change: halfway through the run every tenant's hot set
        // rotates to the far side of its range, so placement decisions
        // made for the first phase go stale.
        if i >= p.requests / 2 {
            rank += span / 2;
            if rank >= span {
                rank -= span;
            }
        }
        let key = (base + rank) as u32;
        let put = rng.next_below(1000) < p.put_permille as u64;
        let word = if put {
            let version = &mut versions[key as usize];
            *version += 1;
            if *version >> (32 - KEY_BITS) != 0 {
                return Err(ParamError::Exceeds {
                    what: "puts to one key",
                    got: *version as usize,
                    limit: (1 << (32 - KEY_BITS)) - 1,
                    bound: "the stored-word version field",
                });
            }
            puts += 1;
            (*version << KEY_BITS) | key
        } else {
            gets += 1;
            key
        };
        if p.tenant_quota > 0 {
            let refill = (at - refilled_at[tenant]) as u128 * p.tenant_quota as u128;
            tokens[tenant] = burst.min(tokens[tenant] + refill);
            refilled_at[tenant] = at;
            if tokens[tenant] < TOKEN {
                shed_quota += 1;
                continue;
            }
            tokens[tenant] -= TOKEN;
        }
        // Route: puts shard-affine (per-key arrival order preserved),
        // gets round-robin (hot pages become read-shared).
        let w = if put {
            owner[key as usize]
        } else {
            let w = rr;
            rr = if rr + 1 == workers { 0 } else { rr + 1 };
            w
        };
        queues[w].push(Request { at, word, put });
    }
    Ok(Workload { queues, puts_per_key: versions, gets, puts, shed_quota })
}

/// What one worker brings home.
#[derive(Default)]
struct WorkerOut {
    latency: LatencyHistogram,
    /// Latency of served requests that also met their deadline.
    goodput: LatencyHistogram,
    gets: u64,
    puts: u64,
    /// Requests shed at arrival: the worker's waiting queue was full.
    shed_queue_full: u64,
    /// Requests shed at dequeue: they waited past their deadline.
    shed_deadline: u64,
    /// `(key, word)` of every put actually served, in service order —
    /// the host rebuilds expected final state from these, so shed puts
    /// (which never touch memory) drop out of verification exactly.
    served_puts: Vec<(u32, u32)>,
    /// First coherence violation observed, if any.
    error: Option<String>,
}

/// The serving application.
pub struct KvServe {
    params: ServeParams,
}

impl KvServe {
    /// A store/generator pair with explicit parameters (validated when
    /// the app runs, so a bad grid axis fails its one cell, typed).
    pub fn new(params: ServeParams) -> KvServe {
        KvServe { params }
    }

    /// KvServe at the given scale's default parameters.
    pub fn at_scale(scale: Scale) -> KvServe {
        KvServe::new(ServeParams::for_scale(scale))
    }
}

impl App for KvServe {
    fn name(&self) -> &'static str {
        "KvServe"
    }

    fn run(&self, sim: &mut Simulator, workers: usize) -> Result<(), String> {
        let p = self.params.clone();
        p.validate().map_err(|e| format!("KvServe parameters: {e}"))?;
        let wl = generate(&p, workers).map_err(|e| format!("KvServe generator: {e}"))?;
        let slots = p.keys.div_ceil(p.shards);
        // One allocation per shard: allocations are page-granular, so
        // shards are page-aligned and never share a page.
        let shard_base: Vec<VAddr> =
            (0..p.shards).map(|_| sim.alloc(slots as u64 * 4, Prot::READ_WRITE)).collect();
        let ctl = sim.alloc(64, Prot::READ_WRITE);
        let bar = Barrier::new(ctl, workers as u32);
        let addr_of = |key: u32, shard_base: &[VAddr]| {
            shard_base[key as usize % p.shards] + (key as u64 / p.shards as u64) * 4
        };
        let puts_per_key = Arc::new(wl.puts_per_key);
        let outs: Vec<Arc<Mutex<WorkerOut>>> =
            (0..workers).map(|_| Arc::new(Mutex::new(WorkerOut::default()))).collect();
        for (w, queue) in wl.queues.into_iter().enumerate() {
            let bases = shard_base.clone();
            let bound = Arc::clone(&puts_per_key);
            let out = Arc::clone(&outs[w]);
            let (keys, shards) = (p.keys, p.shards);
            let (depth, deadline) = (p.queue_depth, p.deadline_ns);
            sim.spawn(format!("kvserve-{w}"), move |ctx| {
                // Initialization: worker w writes version-0 values into
                // the shards whose puts it owns — a single writer per
                // shard, so pages start out homed with their put owner.
                for s in (0..shards).filter(|s| s % workers == w) {
                    let vals: Vec<u32> = (0..)
                        .map(|j| j * shards + s)
                        .take_while(|&k| k < keys)
                        .map(|k| k as u32 & KEY_MASK)
                        .collect();
                    ctx.write_run(bases[s], 4, &vals);
                }
                bar.wait(ctx);
                let mut o = WorkerOut::default();
                // Last version this worker observed per key, for the
                // monotonicity half of the coherence check.
                let mut seen = vec![0u32; keys];
                // Dequeue instants of admitted requests that may still
                // be waiting, for the queue-occupancy bound. The worker
                // serves strictly in arrival order, so every earlier
                // request's dequeue time is known when the next one is
                // judged. Only live when a bound or deadline is set:
                // the unprotected loop must stay instruction-identical.
                let bounded = depth > 0 || deadline > 0;
                let mut waiting: VecDeque<u64> = VecDeque::new();
                for req in &queue {
                    if depth > 0 {
                        // Occupancy at this request's arrival: earlier
                        // admitted requests not yet dequeued. A request
                        // in service (dequeued, not finished) has left
                        // the queue and does not count.
                        while waiting.front().is_some_and(|&d| d <= req.at) {
                            waiting.pop_front();
                        }
                        if waiting.len() >= depth {
                            o.shed_queue_full += 1;
                            continue;
                        }
                    }
                    ctx.wait_until(Ns(req.at));
                    if bounded {
                        // Reading the clock charges no virtual time.
                        let dequeued = ctx.now().0;
                        if depth > 0 {
                            waiting.push_back(dequeued);
                        }
                        if deadline > 0 && dequeued.saturating_sub(req.at) > deadline {
                            o.shed_deadline += 1;
                            continue;
                        }
                    }
                    let key = req.word & KEY_MASK;
                    let addr = bases[key as usize % shards] + (key as u64 / shards as u64) * 4;
                    if req.put {
                        ctx.compute(PUT_WORK);
                        ctx.write_u32(addr, req.word);
                        o.puts += 1;
                        o.served_puts.push((key, req.word));
                    } else {
                        ctx.compute(GET_WORK);
                        let word = ctx.read_u32(addr);
                        o.gets += 1;
                        let (k, v) = (word & KEY_MASK, word >> KEY_BITS);
                        if o.error.is_none() {
                            if k != key {
                                o.error = Some(format!("get of key {key} read a word tagged {k}"));
                            } else if v > bound[key as usize] {
                                o.error = Some(format!(
                                    "get of key {key} saw version {v}, only {} were written",
                                    bound[key as usize]
                                ));
                            } else if v < seen[key as usize] {
                                o.error = Some(format!(
                                    "get of key {key} went backwards: {v} after {}",
                                    seen[key as usize]
                                ));
                            }
                        }
                        seen[key as usize] = v;
                    }
                    let done = ctx.now().0;
                    let lat = done.saturating_sub(req.at);
                    o.latency.record(lat);
                    if deadline == 0 || lat <= deadline {
                        o.goodput.record(lat);
                    }
                }
                // A panic elsewhere may have poisoned the mutex; the
                // measurements are still good, so store them either way
                // instead of compounding one panic with another.
                *out.lock().unwrap_or_else(PoisonError::into_inner) = o;
            });
        }
        sim.run();
        let limited = p.queue_depth > 0 || p.deadline_ns > 0 || p.tenant_quota > 0;
        let mut report = ServingReport {
            requests: p.requests as u64,
            gets: 0,
            puts: 0,
            admitted: 0,
            shed_queue_full: 0,
            shed_deadline: 0,
            shed_quota: 0,
            limited,
            latency: LatencyHistogram::new(),
            goodput: LatencyHistogram::new(),
        };
        report.shed(ShedReason::QuotaExceeded, wl.shed_quota);
        // Expected final state: the version-0 initialization overridden
        // by every put a worker actually served, in service order. Each
        // key's puts are confined to one worker in arrival order, so
        // this is exact under any shedding pattern.
        let mut expected: Vec<u32> = (0..p.keys as u32).map(|k| k & KEY_MASK).collect();
        let mut errors: Vec<String> = Vec::new();
        for out in &outs {
            // A panicked worker poisons the mutex; take the data anyway
            // (the chaos harness needs a deterministic report, not a
            // second panic).
            let o = out.lock().unwrap_or_else(PoisonError::into_inner);
            for &(key, word) in &o.served_puts {
                expected[key as usize] = word;
            }
            if let Some(e) = &o.error {
                errors.push(e.clone());
            }
            report.gets += o.gets;
            report.puts += o.puts;
            report.shed(ShedReason::QueueFull, o.shed_queue_full);
            report.shed(ShedReason::DeadlineExpired, o.shed_deadline);
            report.latency.merge(&o.latency);
            report.goodput.merge(&o.goodput);
        }
        report.admitted = report.gets + report.puts;
        let balanced = report.ledger_balanced();
        let (gets, puts) = (report.gets, report.puts);
        let shed_total = report.shed_total();
        // Attach before the verdicts: a run that fails verification
        // (a chaos cell that lost pages) still reports its measured
        // counters deterministically alongside the typed error.
        sim.attach_serving(report);
        // Exact final-state verification: every key's word must equal
        // the host-side replay of its served puts. With no knob engaged
        // every generated put was served, so the replay must also match
        // the generator's version count — a self-check that no request
        // was silently dropped.
        for key in 0..p.keys as u32 {
            let expect = expected[key as usize];
            if !limited {
                let full = (puts_per_key[key as usize] << KEY_BITS) | (key & KEY_MASK);
                if expect != full {
                    return Err(format!(
                        "key {key}: a generated put was never served (word {expect:#x}, \
                         replay {full:#x})"
                    ));
                }
            }
            let got = sim.with_kernel(|k| k.peek_u32(addr_of(key, &shard_base)));
            if got != expect {
                return Err(format!("key {key}: final word {got:#x}, expected {expect:#x}"));
            }
        }
        if let Some(e) = errors.first() {
            return Err(format!("coherence violation: {e}"));
        }
        if !limited && (gets, puts) != (wl.gets, wl.puts) {
            return Err(format!(
                "served {}/{} gets/puts, generated {}/{}",
                gets, puts, wl.gets, wl.puts
            ));
        }
        if !balanced {
            return Err(format!(
                "shed ledger out of balance: {} generated, {} admitted + {} shed",
                p.requests,
                gets + puts,
                shed_total
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_sim::SimConfig;
    use numa_core::{AllGlobalPolicy, MoveLimitPolicy};

    fn run_with(params: ServeParams, cpus: usize, workers: usize) -> ace_sim::RunReport {
        let app = KvServe::new(params);
        let mut sim =
            Simulator::new(SimConfig::ace(cpus), Box::new(MoveLimitPolicy::default()));
        app.run(&mut sim, workers).expect("kvserve verifies");
        sim.report()
    }

    fn quick() -> ServeParams {
        ServeParams { requests: 384, ..ServeParams::for_scale(Scale::Test) }
    }

    /// A request as the two-pass generator drew it.
    struct Drawn {
        at: u64,
        key: u32,
        tenant: u32,
        put: Option<u32>,
    }

    /// The two-pass reference: draw the whole stream, then admit and
    /// route it, as KvServe did before generation and routing became
    /// one pass.
    fn generate_then_route(p: &ServeParams, workers: usize) -> Workload {
        let mut rng = Rng::new(SERVE_SEED);
        let tenant_pick = Zipf::new(p.tenants, 1.0).unwrap();
        let range_of = |t: usize| {
            let base = t * p.keys / p.tenants;
            let end = (t + 1) * p.keys / p.tenants;
            (base, end - base)
        };
        let tenant_keys: Vec<Zipf> =
            (0..p.tenants).map(|t| Zipf::new(range_of(t).1, p.zipf_s).unwrap()).collect();
        let gap = 1_000_000_000 / p.rate;
        let mut at = p.start_ns;
        let mut versions = vec![0u32; p.keys];
        let mut stream = Vec::with_capacity(p.requests);
        let (mut gets, mut puts) = (0u64, 0u64);
        for i in 0..p.requests {
            at += gap / 2 + rng.next_below(gap.max(1));
            let tenant = tenant_pick.sample(&mut rng);
            let (base, span) = range_of(tenant);
            let rank = tenant_keys[tenant].sample(&mut rng);
            let rank = if i >= p.requests / 2 { (rank + span / 2) % span } else { rank };
            let key = (base + rank) as u32;
            let put = rng.next_below(1000) < p.put_permille as u64;
            let put = if put {
                versions[key as usize] += 1;
                puts += 1;
                Some((versions[key as usize] << KEY_BITS) | (key & KEY_MASK))
            } else {
                gets += 1;
                None
            };
            stream.push(Drawn { at, key, tenant: tenant as u32, put });
        }
        const TOKEN: u128 = 1_000_000_000;
        let burst = TOKEN * 1.max(p.tenant_quota / 4) as u128;
        let mut tokens = vec![burst; p.tenants];
        let mut refilled_at = vec![p.start_ns; p.tenants];
        let mut shed_quota = 0u64;
        let mut queues: Vec<Vec<Request>> = vec![Vec::new(); workers];
        let mut rr = 0usize;
        for r in &stream {
            if p.tenant_quota > 0 {
                let t = r.tenant as usize;
                let refill = (r.at - refilled_at[t]) as u128 * p.tenant_quota as u128;
                tokens[t] = burst.min(tokens[t] + refill);
                refilled_at[t] = r.at;
                if tokens[t] < TOKEN {
                    shed_quota += 1;
                    continue;
                }
                tokens[t] -= TOKEN;
            }
            let w = match r.put {
                Some(_) => (r.key as usize % p.shards) % workers,
                None => {
                    rr += 1;
                    (rr - 1) % workers
                }
            };
            let word = r.put.unwrap_or(r.key);
            queues[w].push(Request { at: r.at, word, put: r.put.is_some() });
        }
        Workload { queues, puts_per_key: versions, gets, puts, shed_quota }
    }

    #[test]
    fn one_pass_load_matches_the_two_pass_reference() {
        let check = |p: &ServeParams, workers: usize| {
            let label = format!("{p:?} workers {workers}");
            let one = generate(p, workers).expect("valid parameters");
            assert_eq!(one, generate_then_route(p, workers), "{label}");
            assert!(one.gets > 0 && one.puts > 0, "{label}: a mixed stream");
            let routed: usize = one.queues.iter().map(Vec::len).sum();
            assert_eq!(routed as u64 + one.shed_quota, p.requests as u64, "{label}");
            one.shed_quota
        };
        // Quota off, the overload grid's 800 req/s at its 32k req/s
        // rate, and `serve_sat`'s 400k req/s, whose quarter-second
        // burst outlasts this short stream. An odd request count puts
        // the phase change between two requests of a pair.
        for quota in [0, 800, 400_000] {
            for tenants in [1, 3] {
                for workers in 1..=4 {
                    let p = ServeParams {
                        requests: 4097,
                        rate: 32_000,
                        tenants,
                        tenant_quota: quota,
                        ..ServeParams::for_scale(Scale::Test)
                    };
                    assert_eq!(check(&p, workers) > 0, quota == 800, "quota {quota}");
                }
            }
        }
        // Past the 400k burst, that quota sheds too.
        let p = ServeParams {
            requests: (1 << 18) + 1,
            rate: 2_000_000,
            tenant_quota: 400_000,
            ..ServeParams::for_scale(Scale::Test)
        };
        assert!(check(&p, 3) > 0, "a 2M req/s stream exhausts a 400k req/s bucket");
    }

    #[test]
    fn a_key_put_two_to_the_twenty_times_is_a_typed_error() {
        // One key, every request a put: the 2^20th put would store
        // version 2^20, which wraps the 20-bit field to version 0.
        let single = |requests| ServeParams {
            keys: 1,
            shards: 1,
            put_permille: 1000,
            requests,
            ..ServeParams::for_scale(Scale::Test)
        };
        let p = single(1 << 20);
        p.validate().expect("2^20 requests are within the request bound");
        let mut sim = Simulator::new(SimConfig::small(1), Box::new(MoveLimitPolicy::default()));
        let err = KvServe::new(p.clone()).run(&mut sim, 1).expect_err("fails before it runs");
        assert!(err.contains("the stored-word version field"), "got: {err}");
        let err = generate(&p, 1).expect_err("the version field would wrap");
        assert_eq!(
            err,
            ParamError::Exceeds {
                what: "puts to one key",
                got: 1 << 20,
                limit: (1 << 20) - 1,
                bound: "the stored-word version field",
            }
        );
        let wl = generate(&single((1 << 20) - 1), 1).expect("the last version fits");
        assert_eq!(wl.puts_per_key, vec![(1 << 20) - 1]);
        assert_eq!(wl.queues[0].last().map(|r| r.word), Some(0xFFFF_F000));
    }

    #[test]
    fn serves_verifies_and_attaches_latency() {
        let r = run_with(quick(), 3, 3);
        let s = r.serving.as_ref().expect("serving report attached");
        assert_eq!(s.requests, 384);
        assert_eq!(s.gets + s.puts, 384);
        assert!(s.puts > 0 && s.gets > s.puts, "mixed ratio: {}/{}", s.gets, s.puts);
        assert_eq!(s.latency.total(), 384);
        assert!(s.latency.p50() > 0);
        assert!(s.latency.p999() >= s.latency.p50());
    }

    #[test]
    fn runs_are_deterministic() {
        assert_eq!(run_with(quick(), 3, 3), run_with(quick(), 3, 3));
    }

    #[test]
    fn final_state_is_worker_count_invariant() {
        // The verification inside `run` replays puts host-side; passing
        // under 1, 2 and 4 workers proves per-key order is preserved by
        // the shard-affine routing.
        for (cpus, workers) in [(1, 1), (2, 2), (4, 4)] {
            run_with(quick(), cpus, workers);
        }
    }

    #[test]
    fn overload_blows_up_the_tail() {
        let light = run_with(ServeParams { rate: 500, ..quick() }, 2, 2);
        let heavy = run_with(ServeParams { rate: 50_000, ..quick() }, 2, 2);
        let (pl, ph) = (
            light.serving.as_ref().unwrap().latency.p99(),
            heavy.serving.as_ref().unwrap().latency.p99(),
        );
        assert!(
            ph > pl.saturating_mul(4),
            "open loop must queue under overload: p99 {ph} vs {pl}"
        );
    }

    #[test]
    fn bounded_queue_sheds_and_balances_the_ledger() {
        let r = run_with(
            ServeParams { rate: 50_000, queue_depth: 4, ..quick() },
            2,
            2,
        );
        let s = r.serving.as_ref().unwrap();
        assert!(s.limited);
        assert!(s.shed_queue_full > 0, "a 50k req/s burst must overflow depth-4 queues");
        assert_eq!(s.shed_deadline + s.shed_quota, 0);
        assert!(s.ledger_balanced(), "ledger: {} != {} + {}", s.requests, s.admitted, s.shed_total());
        // Only admitted requests are measured, and every admitted
        // request was actually served (run_with verifies final state).
        assert_eq!(s.latency.total(), s.admitted);
        assert_eq!(s.gets + s.puts, s.admitted);
    }

    #[test]
    fn deadline_sheds_late_requests_and_caps_goodput() {
        let r = run_with(
            ServeParams { rate: 50_000, deadline_ns: 100_000, ..quick() },
            2,
            2,
        );
        let s = r.serving.as_ref().unwrap();
        assert!(s.limited);
        assert!(s.shed_deadline > 0, "stale queue entries must shed at dequeue");
        assert_eq!(s.shed_queue_full + s.shed_quota, 0);
        assert!(s.ledger_balanced());
        // Goodput counts only admitted-and-on-time completions, so it
        // can never exceed the admitted distribution.
        assert!(s.goodput.total() <= s.latency.total());
        assert!(s.goodput.max_ns() <= s.latency.max_ns());
    }

    #[test]
    fn tenant_quota_sheds_in_admission_before_the_workers() {
        let mut p = quick();
        p.rate = 50_000;
        p.tenants = 3;
        p.tenant_quota = 200;
        let r = run_with(p, 2, 2);
        let s = r.serving.as_ref().unwrap();
        assert!(s.limited);
        assert!(s.shed_quota > 0, "a 50k req/s burst must exhaust 200 req/s buckets");
        assert_eq!(s.shed_queue_full + s.shed_deadline, 0);
        assert!(s.ledger_balanced());
        // Quota-shed requests never reach a worker queue: everything
        // that passed admission was served and measured.
        assert_eq!(s.latency.total(), s.admitted);
    }

    #[test]
    fn queue_depth_boundaries_are_sane() {
        // Depth 0 is the unbounded sentinel: nothing sheds, the report
        // keeps its legacy unlimited shape.
        let r = run_with(ServeParams { rate: 50_000, queue_depth: 0, ..quick() }, 2, 2);
        let s = r.serving.as_ref().unwrap();
        assert!(!s.limited);
        assert_eq!(s.shed_total(), 0);
        assert_eq!(s.admitted, s.requests);
        // Depth 1 is the harshest bound: one waiter only; under a hard
        // burst most requests shed, yet the ledger still balances and
        // served state still verifies.
        let r = run_with(ServeParams { rate: 50_000, queue_depth: 1, ..quick() }, 2, 2);
        let s = r.serving.as_ref().unwrap();
        assert!(s.shed_queue_full > s.admitted, "depth 1 must shed most of a hard burst");
        assert!(s.admitted > 0, "the in-service slot still drains work");
        assert!(s.ledger_balanced());
    }

    #[test]
    fn deadline_boundaries_are_sane() {
        // Deadline 0 is the disabled sentinel.
        let r = run_with(ServeParams { rate: 50_000, deadline_ns: 0, ..quick() }, 2, 2);
        let s = r.serving.as_ref().unwrap();
        assert!(!s.limited);
        assert_eq!(s.shed_total(), 0);
        // Deadline u64::MAX never expires: the knob is engaged (the
        // report is limited) but nothing sheds and every completion is
        // on time, so goodput equals the admitted distribution.
        let r = run_with(ServeParams { rate: 50_000, deadline_ns: u64::MAX, ..quick() }, 2, 2);
        let s = r.serving.as_ref().unwrap();
        assert!(s.limited);
        assert_eq!(s.shed_total(), 0);
        assert_eq!(s.goodput, s.latency);
    }

    #[test]
    fn protection_keeps_the_served_tail_within_four_times_baseline() {
        // The acceptance bar: drive the open loop 4x past saturation;
        // bounded queues plus deadline shedding must keep the p99 of
        // requests actually admitted within 4x the unsaturated p99,
        // with the shed ledger exactly accounting for the difference.
        let baseline = run_with(ServeParams { rate: 500, ..quick() }, 2, 2);
        let bp99 = baseline.serving.as_ref().unwrap().latency.p99();
        let protected = run_with(
            ServeParams { rate: 50_000, queue_depth: 4, deadline_ns: 200_000, ..quick() },
            2,
            2,
        );
        let s = protected.serving.as_ref().unwrap();
        assert!(s.shed_total() > 0, "4x saturation must shed");
        assert!(s.ledger_balanced());
        assert_eq!(s.requests, s.admitted + s.shed_queue_full + s.shed_deadline + s.shed_quota);
        assert!(
            s.latency.p99() <= bp99.saturating_mul(4),
            "protected p99 {} vs unsaturated p99 {}",
            s.latency.p99(),
            bp99
        );
        // Contrast: the same burst unprotected blows far past that bar
        // (see overload_blows_up_the_tail).
    }

    #[test]
    fn multi_tenant_and_phase_shift_stay_verified() {
        let mut p = quick();
        p.tenants = 3;
        p.zipf_s = 1.5;
        let r = run_with(p, 3, 3);
        assert!(r.serving.is_some());
    }

    #[test]
    fn works_under_the_all_global_policy() {
        let app = KvServe::new(quick());
        let mut sim = Simulator::new(SimConfig::ace(2), Box::new(AllGlobalPolicy));
        app.run(&mut sim, 2).expect("kvserve verifies under all-global placement");
        assert!(sim.report().serving.is_some());
    }

    #[test]
    fn malformed_parameters_fail_typed_not_panicking() {
        let cases: Vec<(ServeParams, &str)> = vec![
            (ServeParams { keys: 0, ..quick() }, "keys must be positive"),
            (ServeParams { keys: 8192, ..quick() }, "keys (8192)"),
            (ServeParams { shards: 0, ..quick() }, "shards must be positive"),
            (ServeParams { shards: 1024, ..quick() }, "shards (1024)"),
            (ServeParams { rate: 0, ..quick() }, "request rate must be positive"),
            (ServeParams { tenants: 0, ..quick() }, "tenants must be positive"),
            (ServeParams { tenants: 513, ..quick() }, "tenants (513)"),
            (ServeParams { put_permille: 1001, ..quick() }, "put rate (1001)"),
            (ServeParams { zipf_s: 0.7, ..quick() }, "zipf exponent"),
        ];
        for (params, needle) in cases {
            let app = KvServe::new(params);
            let mut sim =
                Simulator::new(SimConfig::small(2), Box::new(MoveLimitPolicy::default()));
            let err = app.run(&mut sim, 2).expect_err("invalid params must fail");
            assert!(err.contains(needle), "error `{err}` should mention `{needle}`");
        }
    }

    #[test]
    fn default_params_validate_at_both_scales() {
        ServeParams::for_scale(Scale::Test).validate().unwrap();
        ServeParams::for_scale(Scale::Bench).validate().unwrap();
    }
}

