//! `stream_1cpu`: the reference path alone.

use super::{app_cell, in_seeded_order, Rep, Tag, Workload};
use crate::seed::SplitMix;
use crate::span::Tracer;
use ace_sim::SimConfig;
use numa_apps::{App, DivisorDiscipline, Fft, Gfetch, IMatMult, Primes2, Scale};
use numa_core::AllLocalPolicy;
use numa_metrics::SharedSink;

/// Four single-threaded apps on a one-CPU machine under the all-local
/// policy. With no second runnable thread the engine never has anyone
/// to hand the baton to, so what is left is `ThreadCtx`, the kernel's
/// charging core and the app closures.
pub struct Stream {
    apps: Vec<(&'static str, Box<dyn App>)>,
    order: Vec<usize>,
}

impl Stream {
    /// FFT and IMatMult at the paper's own sizes, Primes2 and Gfetch at
    /// bench scale; `seed` only picks the order the cells run in.
    pub fn new(seed: u64) -> Result<Stream, String> {
        let apps: Vec<(&'static str, Box<dyn App>)> = vec![
            (
                "FFT-256",
                Box::new(Fft::with_dim(256).map_err(|e| e.to_string())?),
            ),
            (
                "IMatMult-200",
                Box::new(IMatMult::with_dim(200).map_err(|e| e.to_string())?),
            ),
            (
                "Primes2",
                Box::new(Primes2::new(Scale::Bench, DivisorDiscipline::PrivateCopy)),
            ),
            ("Gfetch", Box::new(Gfetch::new(Scale::Bench))),
        ];
        let order = SplitMix::new(seed, 0x57).permutation(apps.len());
        Ok(Stream { apps, order })
    }
}

impl Workload for Stream {
    fn rep(&self, t: &mut Tracer, sink: Option<&SharedSink>) -> Rep {
        let mut rep = Rep::default();
        let ran = in_seeded_order(&self.order, |i| {
            let (label, app) = &self.apps[i];
            let tag = Tag {
                label: label.to_string(),
                numa: true,
                per_ref: sink.is_some(),
            };
            let cfg = super::with_sink(SimConfig::ace(1), sink);
            app_cell(t, tag, cfg, Box::new(AllLocalPolicy), app.as_ref(), 1)
        });
        ran.into_iter().for_each(|r| rep.file(r));
        rep
    }

    fn inputs(&self) -> String {
        super::order_text(&self.order)
    }
}
