//! Per-page sharing classification.

use crate::record::Trace;
use ace_machine::{Access, CpuId, CpuSet, Distance};
use std::collections::BTreeMap;

/// How a page (or object) was actually shared over a run — the
/// vocabulary of section 4.2.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum PageClass {
    /// Referenced by exactly one processor.
    Private,
    /// Read by several processors, written by none (or by exactly the
    /// readers before any sharing — conservatively: written by nobody).
    ReadShared,
    /// Written by at least one processor and referenced by more than
    /// one: the class that belongs in global memory.
    WriteShared,
}

/// Per-page (or per-object) observation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageUsage {
    /// Processors that read the page.
    pub readers: CpuSet,
    /// Processors that wrote the page.
    pub writers: CpuSet,
    /// Word references to the page.
    pub refs: u64,
    /// Word references served from local memory.
    pub local_refs: u64,
}

impl PageUsage {
    /// Counts `words` word references of one kind by `cpu`, served at
    /// distance `dist`.
    pub fn note(&mut self, cpu: CpuId, kind: Access, dist: Distance, words: u64) {
        match kind {
            Access::Fetch => self.readers.insert(cpu),
            Access::Store => self.writers.insert(cpu),
        }
        self.refs += words;
        if dist == Distance::Local {
            self.local_refs += words;
        }
    }

    /// The page's sharing class.
    pub fn class(&self) -> PageClass {
        let mut all = self.readers;
        for c in self.writers.iter() {
            all.insert(c);
        }
        if all.len() <= 1 {
            PageClass::Private
        } else if self.writers.is_empty() {
            PageClass::ReadShared
        } else {
            PageClass::WriteShared
        }
    }
}

/// Whole-trace sharing report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SharingReport {
    /// Usage per virtual page, ordered by page number.
    pub pages: BTreeMap<u64, PageUsage>,
}

impl SharingReport {
    /// Classifies every page referenced in the trace (one step per
    /// run: a run is one processor, one kind, one distance, one page).
    pub fn from_trace(trace: &Trace) -> SharingReport {
        let mut pages: BTreeMap<u64, PageUsage> = BTreeMap::new();
        for run in trace.runs() {
            let usage = pages.entry(trace.vpn_of(run)).or_default();
            usage.note(run.cpu, run.kind, run.dist, run.total_words());
        }
        SharingReport { pages }
    }

    /// Number of pages in the given class.
    pub fn count(&self, class: PageClass) -> usize {
        self.pages.values().filter(|u| u.class() == class).count()
    }

    /// Fraction of all word references served locally (trace-ground-truth
    /// alpha).
    pub fn alpha(&self) -> f64 {
        let (mut local, mut total) = (0u64, 0u64);
        for u in self.pages.values() {
            local += u.local_refs;
            total += u.refs;
        }
        if total == 0 {
            1.0
        } else {
            local as f64 / total as f64
        }
    }

    /// The `n` most-referenced pages, hottest first — where placement
    /// effort (pragmas, padding, restructuring) pays.
    pub fn hottest(&self, n: usize) -> Vec<(u64, PageUsage)> {
        let mut v: Vec<(u64, PageUsage)> =
            self.pages.iter().map(|(&p, &u)| (p, u)).collect();
        v.sort_by(|a, b| b.1.refs.cmp(&a.1.refs).then(a.0.cmp(&b.0)));
        v.truncate(n);
        v
    }

    /// Fraction of references that target write-shared pages — the
    /// component no page-placement policy can make local.
    pub fn write_shared_ref_fraction(&self) -> f64 {
        let total: u64 = self.pages.values().map(|u| u.refs).sum();
        if total == 0 {
            return 0.0;
        }
        let ws: u64 = self
            .pages
            .values()
            .filter(|u| u.class() == PageClass::WriteShared)
            .map(|u| u.refs)
            .sum();
        ws as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_machine::{CpuId, Ns};
    use ace_sim::RefEvent;
    use mach_vm::VAddr;

    fn ev(cpu: u16, addr: u64, kind: Access, dist: Distance) -> RefEvent {
        RefEvent { t: Ns(0), cpu: CpuId(cpu), addr: VAddr(addr), kind, dist, words: 1 }
    }

    fn trace(events: Vec<RefEvent>) -> Trace {
        Trace::from_events(ace_machine::PageSize::new(256), events)
    }

    #[test]
    fn classification() {
        let t = trace(vec![
            // Page 0: written and read by cpu0 only -> private.
            ev(0, 0, Access::Store, Distance::Local),
            ev(0, 4, Access::Fetch, Distance::Local),
            // Page 1: read by two cpus, written by none -> read-shared.
            ev(0, 256, Access::Fetch, Distance::Local),
            ev(1, 260, Access::Fetch, Distance::Local),
            // Page 2: written by cpu0, read by cpu1 -> write-shared.
            ev(0, 512, Access::Store, Distance::Local),
            ev(1, 516, Access::Fetch, Distance::Global),
        ]);
        let r = SharingReport::from_trace(&t);
        assert_eq!(r.count(PageClass::Private), 1);
        assert_eq!(r.count(PageClass::ReadShared), 1);
        assert_eq!(r.count(PageClass::WriteShared), 1);
        assert_eq!(r.pages[&0].class(), PageClass::Private);
        assert_eq!(r.pages[&2].class(), PageClass::WriteShared);
        assert!((r.alpha() - 5.0 / 6.0).abs() < 1e-12);
        assert!((r.write_shared_ref_fraction() - 2.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let r = SharingReport::from_trace(&trace(vec![]));
        assert_eq!(r.pages.len(), 0);
        assert_eq!(r.alpha(), 1.0);
        assert_eq!(r.write_shared_ref_fraction(), 0.0);
    }

    #[test]
    fn hottest_orders_by_reference_volume() {
        let t = trace(vec![
            ev(0, 0, Access::Fetch, Distance::Local),
            ev(0, 256, Access::Fetch, Distance::Local),
            ev(0, 260, Access::Fetch, Distance::Local),
            ev(0, 264, Access::Fetch, Distance::Local),
            ev(1, 512, Access::Store, Distance::Global),
            ev(1, 516, Access::Store, Distance::Global),
        ]);
        let r = SharingReport::from_trace(&t);
        let hot = r.hottest(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, 1, "page 1 has the most refs");
        assert_eq!(hot[0].1.refs, 3);
        assert_eq!(hot[1].0, 2);
        assert!(r.hottest(10).len() == 3, "truncates to available pages");
    }

    #[test]
    fn single_writer_multiple_readers_is_write_shared() {
        let t = trace(vec![
            ev(2, 0, Access::Store, Distance::Local),
            ev(3, 0, Access::Store, Distance::Global),
        ]);
        let r = SharingReport::from_trace(&t);
        assert_eq!(r.pages[&0].class(), PageClass::WriteShared);
    }
}
