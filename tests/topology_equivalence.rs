//! Degenerate-equivalence suite: the topology redesign must be
//! invisible on the paper's flat machine.
//!
//! The ACE of the paper — one bus, one global memory, flat per-CPU
//! local memories — is now just `TopologyBuilder::flat_ace(n)`, a
//! degenerate value of the general machine description. Nothing a user
//! can observe may move between two independently built descriptions
//! of that machine, or between the simulator's two access paths:
//!
//! * the `RunReport`, compared field by field *and* as the human
//!   rendering;
//! * the full event stream (bus traffic + protocol actions, in
//!   virtual-time order);
//! * the raw per-reference log — every address, access kind, distance,
//!   and virtual timestamp.
//!
//! The committed sweep baselines are the pre-refactor record of those
//! bytes, so the smoke document regenerating byte-identically in
//! process closes the loop back to the code before the redesign. On a
//! *hierarchical* machine the same instrumentation must visibly
//! change: that contrast is what proves the flat checks are not
//! vacuous.

use numa_repro::apps::{App, Gfetch, IMatMult, Scale};
use numa_repro::machine::{MachineConfig, TopologyBuilder};
use numa_repro::metrics::{Event, VecSink};
use numa_repro::numa::MoveLimitPolicy;
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

/// Runs `app` on the given machine description under full
/// observability (event sink + per-reference sink), on the chosen
/// access path.
fn observe(app: &dyn App, machine: MachineConfig, fastpath: bool) -> Observation {
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let cfg = SimConfig::small(CPUS)
        .machine(machine)
        .events(sink.clone())
        .fastpath(fastpath);
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
fn assert_equivalent(tag: &str, a: &Observation, b: &Observation) {
    assert_eq!(a.report, b.report, "{tag}: RunReport diverged");
    assert_eq!(a.report_text, b.report_text, "{tag}: report rendering diverged");
    assert_eq!(a.events.len(), b.events.len(), "{tag}: event stream length diverged");
    if let Some(i) = (0..a.events.len()).find(|&i| a.events[i] != b.events[i]) {
        panic!("{tag}: event {i} diverged:\n  a: {:?}\n  b: {:?}", a.events[i], b.events[i]);
    }
    assert_eq!(a.refs.len(), b.refs.len(), "{tag}: reference log length diverged");
    if let Some(i) = (0..a.refs.len()).find(|&i| a.refs[i] != b.refs[i]) {
        panic!("{tag}: reference {i} diverged:\n  a: {:?}\n  b: {:?}", a.refs[i], b.refs[i]);
    }
}

/// Two independently built flat descriptions must be the same machine,
/// observably, on both access paths — and the two paths must agree
/// with each other on the flat machine.
#[test]
fn flat_runs_are_identical_across_builds_and_paths() {
    for app in [&Gfetch::new(Scale::Test) as &dyn App, &IMatMult::new(Scale::Test)] {
        let builder = || TopologyBuilder::flat_ace(CPUS).config();

        let first_fast = observe(app, builder(), true);
        let built_fast = observe(app, builder(), true);
        let first_slow = observe(app, builder(), false);
        let built_slow = observe(app, builder(), false);

        assert!(!built_fast.refs.is_empty(), "{}: no references captured", app.name());
        assert_equivalent(&format!("{} rebuild (fast)", app.name()), &first_fast, &built_fast);
        assert_equivalent(&format!("{} rebuild (slow)", app.name()), &first_slow, &built_slow);
        assert_equivalent(&format!("{} fast-vs-slow (builder)", app.name()), &built_fast, &built_slow);
    }
}

/// A flat report must keep its exact pre-topology shape: the counter
/// that only a hierarchical machine can produce stays zero, and the
/// description itself knows it is degenerate.
#[test]
fn flat_reports_keep_their_pre_topology_shape() {
    let cfg = TopologyBuilder::flat_ace(CPUS).config();
    assert!(cfg.topology.is_flat(), "flat_ace must be the degenerate shape");
    assert_eq!(cfg.topology.max_hops(), 1, "flat machines have sibling hops only");
    let o = observe(&Gfetch::new(Scale::Test), cfg, true);
    assert_eq!(o.report.numa.near_replications, 0, "a flat machine has no sibling node");
}

/// The contrast run: the same app and policy on a 2x2 mesh must take
/// the replicate-from-nearest path — visible both as its counter and
/// as cheaper copies — or the flat equivalence above would
/// be vacuously checking a machine the redesign never varies.
#[test]
fn hierarchical_runs_are_observably_different() {
    let mesh = TopologyBuilder::mesh(4, 1).config();
    assert!(!mesh.topology.is_flat());
    assert!(mesh.topology.max_hops() >= 2, "a 2x2 mesh has a 2-hop diagonal");
    let o = observe(&Gfetch::new(Scale::Test), mesh, true);
    assert!(
        o.report.numa.near_replications > 0,
        "a mesh run must replicate from a sibling node: {:?}",
        o.report.numa
    );
    let flat = observe(&Gfetch::new(Scale::Test), TopologyBuilder::flat_ace(4).config(), true);
    assert_ne!(
        o.report, flat.report,
        "a mesh machine must not report like the flat machine"
    );
}

/// The committed smoke baseline is the pre-refactor record of the flat
/// machine's bytes; regenerating it in process proves the whole
/// pipeline — grid, farm, report serialization — is untouched by the
/// redesign.
#[test]
fn committed_smoke_baseline_regenerates_byte_identically() {
    use numa_lab::{Grid, Sweep};
    let doc = Sweep::run(Grid::smoke(), 2, None).unwrap().to_json().to_string_flat();
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_smoke.json"))
            .expect("committed baseline readable");
    assert_eq!(doc, committed, "smoke sweep no longer matches its committed bytes");
}

/// The committed hierarchical baseline regenerates byte-identically
/// too, at different worker counts: topology cells are as
/// deterministic as flat ones.
#[test]
fn committed_topology_baseline_regenerates_byte_identically() {
    use numa_lab::{Grid, Sweep};
    let committed =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_topology.json"))
            .expect("committed baseline readable");
    for jobs in [1, 4] {
        let doc = Sweep::run(Grid::named("topology").unwrap(), jobs, None)
            .unwrap()
            .to_json()
            .to_string_flat();
        assert_eq!(doc, committed, "topology sweep diverged at --jobs {jobs}");
    }
}
