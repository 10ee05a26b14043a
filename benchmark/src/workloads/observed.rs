//! `observed`: the observer path — every reference taken one at a time.

use super::{app_cell, cell, in_seeded_order, with_sink, Rep, Tag, Workload};
use crate::seed::SplitMix;
use crate::span::Tracer;
use ace_machine::{CostModel, Ns};
use ace_sim::{RunReport, SimConfig, Simulator};
use numa_apps::{App, Gfetch, IMatMult, Primes3, Scale};
use numa_core::{AllGlobalPolicy, AllLocalPolicy, CachePolicy, MoveLimitPolicy};
use numa_metrics::{Event, EventSink, SharedSink, Telemetry};
use numa_trace::{optimal_cost, replay, Recorder, SharingReport};
use std::sync::{Arc, Mutex};

const CPUS: usize = 4;

/// The three ways of watching a run.
const WAYS: [&str; 3] = ["events", "recorded", "slowpath"];

/// IMatMult, Gfetch and Primes3 at bench scale on four CPUs under the
/// paper's policy, each run three ways: with `Telemetry` on the event
/// stream, with the trace `Recorder` (followed by the offline analyses
/// of the trace), and with the fast path off. All three force
/// `Kernel::access_step` per reference; none may change what the run
/// measures on the virtual clock.
pub struct Observed {
    apps: Vec<(&'static str, Box<dyn App>)>,
    order: Vec<usize>,
}

/// Forwards every event to two sinks (the workload's own `Telemetry`
/// and the traced run's counting sink; `SimConfig` takes one).
struct Tee(SharedSink, SharedSink);

impl EventSink for Tee {
    fn record(&mut self, event: &Event) {
        for sink in [&self.0, &self.1] {
            if let Ok(mut s) = sink.lock() {
                s.record(event);
            }
        }
    }
}

fn policy() -> Box<dyn CachePolicy> {
    Box::new(MoveLimitPolicy::default())
}

impl Observed {
    /// `seed` only picks the order the nine cells run in.
    pub fn new(seed: u64) -> Observed {
        let apps: Vec<(&'static str, Box<dyn App>)> = vec![
            ("IMatMult", Box::new(IMatMult::new(Scale::Bench))),
            ("Gfetch", Box::new(Gfetch::new(Scale::Bench))),
            ("Primes3", Box::new(Primes3::new(Scale::Bench))),
        ];
        let order = SplitMix::new(seed, 0x0B).permutation(apps.len() * WAYS.len());
        Observed { apps, order }
    }

    /// The run under the recorder, then everything the trace crate does
    /// with a trace. Costs and classifications go into the digest: they
    /// are pure functions of the trace and must repeat.
    fn recorded(
        t: &mut Tracer,
        sink: Option<&SharedSink>,
        label: &str,
        app: &dyn App,
        rep: &mut Rep,
    ) -> Result<RunReport, String> {
        let mut sim = Simulator::new(with_sink(SimConfig::ace(CPUS), sink), policy());
        let recorder = t.span("Recorder::install", label, |_| Recorder::install(&sim));
        t.span("App::run", label, |_| app.run(&mut sim, CPUS))?;
        let trace = t.span("Recorder::take", label, |_| recorder.take(&sim));
        t.span("check_consistency", label, |_| {
            sim.with_kernel(|k| k.check_consistency())
        })?;
        let report = t.span("Simulator::report", label, |_| sim.report());

        let costs = CostModel::ace();
        let page = sim.config().machine.page_size.bytes();
        let mut policies: [(&str, Box<dyn CachePolicy>); 3] = [
            ("move-limit", policy()),
            ("all-global", Box::new(AllGlobalPolicy)),
            ("never-pin", Box::new(AllLocalPolicy)),
        ];
        let mut cheapest = Ns(u64::MAX);
        for (name, p) in &mut policies {
            let r = t.span("replay", &format!("{label} {name}"), |_| {
                replay(&trace, p.as_mut(), &costs, page)
            });
            cheapest = cheapest.min(r.total_cost());
            rep.digest(&r.total_cost().0.to_le_bytes());
            rep.digest(&r.requests.to_le_bytes());
        }
        let optimal = t.span("optimal_cost", label, |_| {
            optimal_cost(&trace, &costs, page)
        });
        rep.digest(&optimal.optimal_cost.0.to_le_bytes());
        if optimal.optimal_cost > cheapest {
            return Err(format!(
                "offline optimum {} is above a replayed policy's {}",
                optimal.optimal_cost, cheapest
            ));
        }
        let sharing = t.span("SharingReport::from_trace", label, |_| {
            SharingReport::from_trace(&trace)
        });
        rep.digest(&(sharing.pages.len() as u64).to_le_bytes());
        Ok(report)
    }
}

impl Workload for Observed {
    fn rep(&self, t: &mut Tracer, sink: Option<&SharedSink>) -> Rep {
        let mut rep = Rep::default();
        let mut events_seen = 0;
        let ran = in_seeded_order(&self.order, |i| {
            let (name, app) = &self.apps[i / WAYS.len()];
            let way = WAYS[i % WAYS.len()];
            let tag = Tag {
                label: format!("{name} {way}"),
                numa: true,
                per_ref: true,
            };
            match way {
                "events" => {
                    let telemetry = Arc::new(Mutex::new(Telemetry::new()));
                    let own: SharedSink = telemetry.clone();
                    let both = match sink {
                        Some(s) => numa_metrics::shared(Tee(own, Arc::clone(s))),
                        None => own,
                    };
                    let cfg = SimConfig::ace(CPUS).events(both);
                    let ran = app_cell(t, tag, cfg, policy(), app.as_ref(), CPUS);
                    events_seen += telemetry.lock().expect("telemetry poisoned").events_seen();
                    ran
                }
                "recorded" => cell(t, tag, |t, label| {
                    Observed::recorded(t, sink, label, app.as_ref(), &mut rep)
                }),
                _ => {
                    let cfg = with_sink(SimConfig::ace(CPUS).fastpath(false), sink);
                    app_cell(t, tag, cfg, policy(), app.as_ref(), CPUS)
                }
            }
        });
        // Observers watch; they never charge. The three runs of an app
        // must agree on every clock and counter.
        for (three, (name, _)) in ran.chunks(WAYS.len()).zip(&self.apps) {
            let reports: Vec<&RunReport> = three
                .iter()
                .filter_map(|r| r.report.as_ref().ok())
                .collect();
            let same = reports.windows(2).all(|w| {
                (&w[0].cpu_times, w[0].refs, w[0].numa) == (&w[1].cpu_times, w[1].refs, w[1].numa)
            });
            let outcome = if same {
                Ok(())
            } else {
                Err("the three observed runs disagree".into())
            };
            rep.checks
                .check(&format!("{name} observer equivalence"), outcome);
        }
        ran.into_iter().for_each(|r| rep.file(r));
        rep.events_seen = events_seen;
        rep
    }

    fn inputs(&self) -> String {
        super::order_text(&self.order)
    }
}
