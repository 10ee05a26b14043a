//! A recorded trace is the per-reference stream, however it was taken.
//!
//! `tests/fastpath_equivalence.rs` and `tests/topology_equivalence.rs`
//! compare the per-reference sink fast-vs-slow with the machine tap
//! installed, which forces `Kernel::charge_run` through its per-element
//! loop. With only a reference sink the batched path charges an extent
//! in closed form and hands the sink one run; these tests are the oracle
//! for that: the `Recorder`'s run-compressed trace, taken with the fast
//! path on, must expand to exactly what the slow path records and what a
//! per-reference closure sees. And it must be *every* reference: the
//! words in a trace sum to the run's `RefCounters`.

use numa_repro::apps::{App, Gfetch, IMatMult, Primes3, Scale};
use numa_repro::machine::{Access, Distance, MachineConfig, Prot, TopologyBuilder};
use numa_repro::numa::{CachePolicy, FlushLimitPolicy, MoveLimitPolicy};
use numa_repro::sim::{RefEvent, SimConfig, Simulator};
use numa_repro::threads::SpinLock;
use numa_repro::trace::{Recorder, SharingReport};
use std::sync::{Arc, Mutex};

const CPUS: usize = 4;

/// How a run's references are collected.
#[derive(Clone, Copy, Debug)]
enum Way {
    /// `Recorder`, fast path on: runs straight from the closed form.
    RecordedFast,
    /// `Recorder`, fast path off: runs of one, merged by the trace.
    RecordedSlow,
    /// A per-reference `set_sink` closure, fast path on.
    Closure,
}

fn references(
    app: &dyn App,
    machine: MachineConfig,
    policy: Box<dyn CachePolicy>,
    way: Way,
) -> Vec<RefEvent> {
    let cfg = SimConfig::small(CPUS).machine(machine).fastpath(!matches!(way, Way::RecordedSlow));
    let mut sim = Simulator::new(cfg, policy);
    let run = |sim: &mut Simulator| {
        app.run(sim, CPUS).unwrap_or_else(|e| panic!("{} failed verification: {e}", app.name()))
    };
    if let Way::Closure = way {
        let log = Arc::new(Mutex::new(Vec::new()));
        let tap = Arc::clone(&log);
        sim.with_kernel(|k| k.set_sink(Box::new(move |e: &RefEvent| tap.lock().unwrap().push(*e))));
        run(&mut sim);
        let refs = log.lock().unwrap().clone();
        return refs;
    }
    let recorder = Recorder::install(&sim);
    run(&mut sim);
    let trace = recorder.take(&sim);
    if let Way::RecordedFast = way {
        assert!(
            trace.runs().len() < trace.len(),
            "{}: the fast path recorded no run longer than one reference",
            app.name()
        );
    }
    assert_eq!(trace.iter().count(), trace.len());
    trace.iter().collect()
}

fn assert_same(tag: &str, a: &[RefEvent], b: &[RefEvent]) {
    assert_eq!(a.len(), b.len(), "{tag}: reference count diverged");
    if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
        panic!("{tag}: reference {i} diverged:\n  a: {:?}\n  b: {:?}", a[i], b[i]);
    }
}

#[test]
fn a_recorded_trace_expands_to_the_per_reference_stream() {
    let apps: [&dyn App; 2] = [&Primes3::new(Scale::Test), &IMatMult::new(Scale::Test)];
    for app in apps {
        let observe = |way| {
            let machine = TopologyBuilder::flat_ace(CPUS).config();
            references(app, machine, Box::new(MoveLimitPolicy::default()), way)
        };
        let fast = observe(Way::RecordedFast);
        assert!(!fast.is_empty(), "{}: no references captured", app.name());
        assert_same(&format!("{} recorded fast-vs-slow", app.name()), &fast, &observe(Way::RecordedSlow));
        assert_same(&format!("{} recorded-vs-closure", app.name()), &fast, &observe(Way::Closure));
    }
}

/// The same on a machine with remote references: two sockets, and a
/// policy that re-homes contended pages to their dominant writer.
#[test]
fn so_does_one_with_remote_references() {
    let app = Primes3::new(Scale::Test);
    let observe = |way| {
        let machine = TopologyBuilder::two_socket(CPUS).config();
        references(&app, machine, Box::new(FlushLimitPolicy::with_rehome(1, 0)), way)
    };
    let fast = observe(Way::RecordedFast);
    assert!(
        fast.iter().any(|e| e.dist == Distance::Remote),
        "a re-homing policy on two sockets never produced a Remote reference"
    );
    assert_same("two-socket recorded fast-vs-slow", &fast, &observe(Way::RecordedSlow));
    assert_same("two-socket recorded-vs-closure", &fast, &observe(Way::Closure));
}

/// Word references in a recorded trace against the run's own counters.
fn assert_trace_counts_every_reference(tag: &str, sim: &Simulator, trace: &numa_repro::trace::Trace) {
    let refs = sim.report().refs;
    let traced: u64 = trace.runs().iter().map(|r| r.total_words()).sum();
    assert_eq!(
        traced,
        refs.local + refs.global + refs.remote,
        "{tag}: the trace and RefCounters disagree on how many words were referenced"
    );
    let sharing = SharingReport::from_trace(trace);
    assert_eq!(sharing.alpha(), refs.alpha(), "{tag}: trace-ground-truth alpha is not the run's");
}

/// Every reference the kernel counts reaches the sink — the fetch half
/// of a `test_and_set` included, which it once did not (every lock
/// attempt left the trace one `R` short of `RunReport.refs`).
#[test]
fn a_trace_counts_every_reference_the_run_does() {
    let apps: [&dyn App; 3] =
        [&IMatMult::new(Scale::Test), &Gfetch::new(Scale::Test), &Primes3::new(Scale::Test)];
    for app in apps {
        let mut sim = Simulator::new(SimConfig::small(CPUS), Box::new(MoveLimitPolicy::default()));
        let recorder = Recorder::install(&sim);
        app.run(&mut sim, CPUS).unwrap_or_else(|e| panic!("{} failed verification: {e}", app.name()));
        assert_trace_counts_every_reference(app.name(), &sim, &recorder.take(&sim));
    }

    // A lock-heavy body: four threads bump one counter under one spin
    // lock, so most references are lock attempts.
    let mut sim = Simulator::new(SimConfig::small(CPUS), Box::new(MoveLimitPolicy::default()));
    let base = sim.alloc(64, Prot::READ_WRITE);
    let (lock, counter) = (SpinLock::new(base), base + 32);
    let recorder = Recorder::install(&sim);
    for t in 0..CPUS {
        sim.spawn(format!("t{t}"), move |ctx| {
            for _ in 0..50 {
                lock.with(ctx, |ctx| {
                    let v = ctx.read_u32(counter);
                    ctx.write_u32(counter, v + 1);
                });
            }
        });
    }
    sim.run();
    let trace = recorder.take(&sim);
    assert_eq!(sim.with_kernel(|k| k.peek_u32(counter)), 50 * CPUS as u32);
    let attempts = trace.iter().filter(|e| e.addr == lock.addr() && e.kind == Access::Fetch).count();
    assert!(attempts >= 50 * CPUS, "every lock attempt fetches the lock word: saw {attempts}");
    assert_trace_counts_every_reference("spin lock", &sim, &trace);
}
