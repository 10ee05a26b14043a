//! Runs each benchmark application under every placement policy,
//! prints a comparison table, and writes the full machine-readable
//! result set to `BENCH_policy_comparison.json`.
//!
//! ```sh
//! cargo run --release --example policy_comparison
//! ```
//!
//! Every run is deterministic: two invocations produce byte-identical
//! JSON. The file is validated before it is written; a malformed or
//! empty report makes the example exit nonzero so CI catches it.

use numa_repro::apps::{App, Gfetch, IMatMult, Scale};
use numa_repro::metrics::{Json, Model, Table, Telemetry};
use numa_repro::numa::{
    AllGlobalPolicy, AllLocalPolicy, CachePolicy, MoveLimitPolicy, ReconsiderPolicy,
};
use numa_repro::sim::{SimConfig, Simulator};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};

const CPUS: usize = 4;
const OUT: &str = "BENCH_policy_comparison.json";
const SCHEMA: &str = "numa-repro/policy-comparison/v1";

type PolicyCtor = fn() -> Box<dyn CachePolicy>;

fn policies() -> Vec<(&'static str, PolicyCtor)> {
    vec![
        ("move-limit(4)", || Box::new(MoveLimitPolicy::default())),
        ("move-limit(0)", || Box::new(MoveLimitPolicy::new(0))),
        ("all-global", || Box::new(AllGlobalPolicy)),
        ("all-local (never pin)", || Box::new(AllLocalPolicy)),
        ("reconsider(4, 8)", || Box::new(ReconsiderPolicy::new(4, 8))),
    ]
}

fn apps() -> Vec<Box<dyn App>> {
    vec![Box::new(IMatMult::with_dim(48).expect("valid dimension")), Box::new(Gfetch::new(Scale::Test))]
}

/// One run with no event sink: the placement-model baselines don't need
/// telemetry, and the disabled path keeps them cheap.
fn baseline(app: &dyn App, cpus: usize, policy: Box<dyn CachePolicy>) -> f64 {
    let mut sim = Simulator::new(SimConfig::ace(cpus), policy);
    app.run(&mut sim, cpus).expect("baseline run verified");
    sim.report().user_secs()
}

fn main() -> ExitCode {
    let mut doc = Json::obj()
        .field("schema", SCHEMA)
        .field("machine", Json::obj().field("cpus", CPUS));
    let mut app_entries: Vec<Json> = Vec::new();

    for app in apps() {
        let app = app.as_ref();
        // The model baselines: one thread on one processor (T_local)
        // and the all-global policy on the full machine (T_global).
        let t_local = baseline(app, 1, Box::new(MoveLimitPolicy::default()));
        let t_global = baseline(app, CPUS, Box::new(AllGlobalPolicy));
        let g_over_l = app.g_over_l();

        let mut t = Table::new(&[
            "policy",
            "Tuser(s)",
            "Tsys(s)",
            "alpha(meas)",
            "alpha",
            "beta",
            "gamma",
            "repl",
            "migr",
            "pins",
            "events",
        ])
        .with_title(format!("{} on {CPUS} processors, one run each", app.name()));

        let mut policy_entries: Vec<Json> = Vec::new();
        for (name, make) in policies() {
            // Concrete handle kept so the aggregates can be read back
            // after the run; a clone coerces to the type-erased sink.
            let telemetry = Arc::new(Mutex::new(Telemetry::new()));
            let cfg = SimConfig::ace(CPUS).events(telemetry.clone());
            let mut sim = Simulator::new(cfg, make());
            app.run(&mut sim, CPUS).expect("policy run verified");
            let r = sim.report();

            let model = Model::solve(t_global, r.user_secs(), t_local, g_over_l).ok();
            let tel = telemetry.lock().expect("telemetry sink poisoned");
            t.row(vec![
                name.to_string(),
                format!("{:.4}", r.user_secs()),
                format!("{:.4}", r.system_secs()),
                format!("{:.3}", r.alpha_measured()),
                model.map_or("na".into(), |m| format!("{:.3}", m.alpha)),
                model.map_or("na".into(), |m| format!("{:.3}", m.beta)),
                model.map_or("na".into(), |m| format!("{:.3}", m.gamma)),
                r.numa.replications.to_string(),
                r.numa.migrations.to_string(),
                r.numa.pins.to_string(),
                tel.events_seen().to_string(),
            ]);

            let mut entry = Json::obj().field("policy", name).field("report", r.to_json());
            entry = match model {
                Some(m) => entry
                    .field("alpha", m.alpha)
                    .field("beta", m.beta)
                    .field("gamma", m.gamma),
                None => entry
                    .field("alpha", Json::Null)
                    .field("beta", Json::Null)
                    .field("gamma", Json::Null),
            };
            entry = entry.field(
                "telemetry",
                Json::obj()
                    .field("events_seen", tel.events_seen())
                    .field("pages_tracked", tel.pages_tracked())
                    .field("move_histogram", tel.move_histogram().to_json())
                    .field("recovery_latency", tel.recovery_latency().to_json()),
            );
            policy_entries.push(entry);
        }
        println!("{t}");

        app_entries.push(
            Json::obj()
                .field("app", app.name())
                .field("t_local_s", t_local)
                .field("t_global_s", t_global)
                .field("g_over_l", g_over_l)
                .field("policies", Json::Arr(policy_entries)),
        );
    }

    doc = doc.field("apps", Json::Arr(app_entries));
    let text = doc.to_string_flat();
    if let Err(e) = numa_repro::metrics::validate(&text) {
        eprintln!("generated report is not valid JSON: {e}");
        return ExitCode::from(2);
    }
    if !text.contains("\"policies\":[{") {
        eprintln!("generated report contains no policy results");
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::write(OUT, &text) {
        eprintln!("cannot write {OUT}: {e}");
        return ExitCode::from(2);
    }
    println!("Wrote {OUT} ({} bytes). Every run computes the identical", text.len());
    println!("(verified) result; only placement, and therefore time, differs.");
    ExitCode::SUCCESS
}
