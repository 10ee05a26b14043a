//! End-to-end guarantees of the observability pipeline: the event
//! stream is deterministic, the JSON report is deterministic, and an
//! absent sink changes nothing about a run's results. Telemetry taking
//! the machine's reference runs whole aggregates what it would from
//! every reference one by one.

use numa_repro::apps::{App, Gfetch, IMatMult, Primes3, Scale};
use numa_repro::machine::Ns;
use numa_repro::metrics::{Event, EventSink, Telemetry, VecSink};
use numa_repro::numa::{CachePolicy, MoveLimitPolicy, ReconsiderPolicy};
use numa_repro::sim::{RunReport, SimConfig, Simulator};
use std::sync::{Arc, Mutex};

const CPUS: usize = 3;

fn run_with_sink(policy: Box<dyn CachePolicy>) -> (RunReport, Vec<numa_repro::metrics::Event>) {
    let sink = Arc::new(Mutex::new(VecSink::new()));
    let cfg = SimConfig::small(CPUS).events(sink.clone());
    let mut sim = Simulator::new(cfg, policy);
    IMatMult::with_dim(12).expect("valid dimension").run(&mut sim, CPUS).expect("verified");
    let report = sim.report();
    let events = sink.lock().unwrap().events.clone();
    (report, events)
}

fn run_without_sink(policy: Box<dyn CachePolicy>) -> RunReport {
    let mut sim = Simulator::new(SimConfig::small(CPUS), policy);
    IMatMult::with_dim(12).expect("valid dimension").run(&mut sim, CPUS).expect("verified");
    sim.report()
}

#[test]
fn identical_runs_produce_identical_event_streams() {
    let (r1, e1) = run_with_sink(Box::new(MoveLimitPolicy::default()));
    let (r2, e2) = run_with_sink(Box::new(MoveLimitPolicy::default()));
    assert!(!e1.is_empty(), "an instrumented run must emit events");
    assert_eq!(e1, e2, "event streams must be identical run to run");
    assert_eq!(r1, r2, "reports must be identical run to run");
}

#[test]
fn event_stream_serializes_to_valid_json() {
    let (_, events) = run_with_sink(Box::new(MoveLimitPolicy::default()));
    let sink = VecSink { events };
    let text = sink.to_json().to_string_flat();
    numa_repro::metrics::validate(&text).expect("event log must be valid JSON");
}

#[test]
fn disabled_sink_leaves_results_byte_identical() {
    let plain = run_without_sink(Box::new(ReconsiderPolicy::new(4, 8)));
    let (tapped, events) = run_with_sink(Box::new(ReconsiderPolicy::new(4, 8)));
    assert!(!events.is_empty());
    // Observation is free: every measured quantity, and therefore the
    // report's rendering, match a run with no sink installed.
    assert_eq!(plain, tapped);
    assert_eq!(format!("{plain}"), format!("{tapped}"));
}

#[test]
fn telemetry_aggregates_a_real_run() {
    let telemetry = Arc::new(Mutex::new(Telemetry::new()));
    let cfg = SimConfig::small(CPUS).events(telemetry.clone());
    let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
    IMatMult::with_dim(12).expect("valid dimension").run(&mut sim, CPUS).expect("verified");
    let report = sim.report();
    let tel = telemetry.lock().unwrap();
    assert!(tel.events_seen() > 0);
    assert!(tel.pages_tracked() > 0, "page lifecycles must be recorded");
    // The policy pinned some pages; the lifecycle view must agree with
    // the run report's aggregate counters.
    let json = tel.to_json().to_string_flat();
    numa_repro::metrics::validate(&json).expect("telemetry JSON must parse");
    if report.numa.pins > 0 {
        assert!(
            json.contains("\"what\":\"pinned\""),
            "a pinned page's lifecycle must record the pin"
        );
    }
}

/// Telemetry that sees every reference one by one: it implements only
/// `record`, so the machine's reference runs reach it through the
/// default `record_run`, which expands them.
struct OneByOne(Telemetry);

impl EventSink for OneByOne {
    fn record(&mut self, event: &Event) {
        self.0.record(event);
    }
}

#[test]
fn telemetry_takes_reference_runs_whole_without_changing_a_byte() {
    let apps: [Box<dyn App>; 3] = [
        Box::new(IMatMult::new(Scale::Test)),
        Box::new(Gfetch::new(Scale::Test)),
        Box::new(Primes3::new(Scale::Test)),
    ];
    let bucket = Ns(10_000);
    for app in &apps {
        // Fast path on: the machine reports extents as runs, and
        // `Telemetry` buckets them in closed form.
        let runs = Arc::new(Mutex::new(Telemetry::with_bucket(bucket)));
        let cfg = SimConfig::small(CPUS).events(runs.clone());
        let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        app.run(&mut sim, CPUS).expect("verified");
        // Fast path off, and every run expanded before `Telemetry`
        // sees it.
        let one_by_one = Arc::new(Mutex::new(OneByOne(Telemetry::with_bucket(bucket))));
        let cfg = SimConfig::small(CPUS).events(one_by_one.clone()).fastpath(false);
        let mut sim = Simulator::new(cfg, Box::new(MoveLimitPolicy::default()));
        app.run(&mut sim, CPUS).expect("verified");

        let (runs, one_by_one) = (runs.lock().unwrap(), one_by_one.lock().unwrap());
        assert!(runs.events_seen() > 0);
        assert_eq!(runs.events_seen(), one_by_one.0.events_seen(), "{}", app.name());
        assert!(
            runs.to_json().to_string_flat() == one_by_one.0.to_json().to_string_flat(),
            "{}: telemetry differs between runs and single references",
            app.name()
        );
    }
}
