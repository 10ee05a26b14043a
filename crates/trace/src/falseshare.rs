//! Object-granularity false-sharing detection.
//!
//! "By definition, an object that is not writably shared, but that is on
//! a writably shared page, is falsely shared" (section 4.2). Given the
//! application's object extents, this module classifies each *object*
//! from the trace, classifies each *page*, and reports the objects (and
//! the reference volume) penalized by colocation.

use crate::analysis::{PageClass, PageUsage, SharingReport};
use crate::record::Trace;
use mach_vm::VAddr;
use std::collections::BTreeMap;

/// Named object extents registered by the application harness.
#[derive(Clone, Debug, Default)]
pub struct ObjectMap {
    objects: Vec<(String, VAddr, u64)>,
}

impl ObjectMap {
    /// An empty map.
    pub fn new() -> ObjectMap {
        ObjectMap::default()
    }

    /// Registers an object extent `[base, base+len)`.
    pub fn add(&mut self, name: impl Into<String>, base: VAddr, len: u64) {
        self.objects.push((name.into(), base, len));
    }

    /// The index of the object containing `addr`.
    fn object_of(&self, addr: VAddr) -> Option<usize> {
        self.objects
            .iter()
            .position(|(_, base, len)| addr >= *base && addr.0 < base.0 + len)
    }

    /// Object name by index.
    pub fn name(&self, idx: usize) -> &str {
        &self.objects[idx].0
    }
}

/// Per-object observation and verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectUsage {
    /// Object name.
    pub name: String,
    /// The object's own sharing class.
    pub class: PageClass,
    /// Word references to the object.
    pub refs: u64,
    /// True if some page holding this object is write-shared while the
    /// object itself is not — the object is falsely shared.
    pub falsely_shared: bool,
}

/// The report: objects, their classes, and the falsely-shared subset.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FalseSharingReport {
    /// One entry per registered object that was referenced.
    pub objects: Vec<ObjectUsage>,
}

impl FalseSharingReport {
    /// Analyzes `trace` against the registered object extents.
    pub fn analyze(trace: &Trace, map: &ObjectMap) -> FalseSharingReport {
        let pages = SharingReport::from_trace(trace).pages;
        // Each referenced object's usage and the pages it was touched on,
        // by object index.
        let mut objects: BTreeMap<usize, (PageUsage, Vec<u64>)> = BTreeMap::new();
        for e in trace.iter() {
            let Some(oi) = map.object_of(e.addr) else { continue };
            let (usage, on) = objects.entry(oi).or_default();
            usage.note(e.cpu, e.kind, e.dist, e.words);
            let vpn = trace.page_size.page_of(e.addr.0);
            if !on.contains(&vpn) {
                on.push(vpn);
            }
        }
        let objects = objects
            .into_iter()
            .map(|(oi, (usage, on))| {
                let class = usage.class();
                let on_ws_page = on.iter().any(|vpn| pages[vpn].class() == PageClass::WriteShared);
                ObjectUsage {
                    name: map.name(oi).to_string(),
                    class,
                    refs: usage.refs,
                    falsely_shared: on_ws_page && class != PageClass::WriteShared,
                }
            })
            .collect();
        FalseSharingReport { objects }
    }

    /// Fraction of object references that were falsely shared.
    pub fn false_ref_fraction(&self) -> f64 {
        let total: u64 = self.objects.iter().map(|o| o.refs).sum();
        if total == 0 {
            return 0.0;
        }
        let f: u64 =
            self.objects.iter().filter(|o| o.falsely_shared).map(|o| o.refs).sum();
        f as f64 / total as f64
    }

    /// Names of the falsely shared objects.
    pub fn falsely_shared(&self) -> Vec<&str> {
        self.objects
            .iter()
            .filter(|o| o.falsely_shared)
            .map(|o| o.name.as_str())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ace_machine::{Access, CpuId, Distance, Ns, PageSize};
    use ace_sim::RefEvent;

    fn ev(cpu: u16, addr: u64, kind: Access) -> RefEvent {
        RefEvent {
            t: Ns(0),
            cpu: CpuId(cpu),
            addr: VAddr(addr),
            kind,
            dist: Distance::Local,
            words: 1,
        }
    }

    #[test]
    fn private_object_on_write_shared_page_is_falsely_shared() {
        // Page 0 holds a private counter (cpu0 only) and a shared queue
        // word written by both cpus. The counter is falsely shared.
        let mut map = ObjectMap::new();
        map.add("counter", VAddr(0), 8);
        map.add("queue", VAddr(128), 8);
        let trace = Trace::from_events(
            PageSize::new(256),
            [
                ev(0, 0, Access::Store),
                ev(0, 0, Access::Fetch),
                ev(0, 128, Access::Store),
                ev(1, 128, Access::Store),
            ],
        );
        let r = FalseSharingReport::analyze(&trace, &map);
        assert_eq!(r.falsely_shared(), vec!["counter"]);
        let counter = &r.objects[0];
        assert_eq!(counter.class, PageClass::Private);
        assert!(counter.falsely_shared);
        let queue = &r.objects[1];
        assert_eq!(queue.class, PageClass::WriteShared);
        assert!(!queue.falsely_shared, "truly shared objects are not false");
        assert!((r.false_ref_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn separated_objects_are_not_falsely_shared() {
        // Same objects on different pages: nothing is falsely shared.
        let mut map = ObjectMap::new();
        map.add("counter", VAddr(0), 8);
        map.add("queue", VAddr(256), 8);
        let trace = Trace::from_events(
            PageSize::new(256),
            [
                ev(0, 0, Access::Store),
                ev(0, 256, Access::Store),
                ev(1, 256, Access::Store),
            ],
        );
        let r = FalseSharingReport::analyze(&trace, &map);
        assert!(r.falsely_shared().is_empty());
        assert_eq!(r.false_ref_fraction(), 0.0);
    }

    #[test]
    fn read_shared_object_beside_written_object() {
        // A read-only table colocated with a hot mutex: the table is
        // falsely shared (it could have been replicated).
        let mut map = ObjectMap::new();
        map.add("table", VAddr(0), 64);
        map.add("mutex", VAddr(64), 4);
        let trace = Trace::from_events(
            PageSize::new(256),
            [
                ev(0, 0, Access::Fetch),
                ev(1, 4, Access::Fetch),
                ev(0, 64, Access::Store),
                ev(1, 64, Access::Store),
            ],
        );
        let r = FalseSharingReport::analyze(&trace, &map);
        assert_eq!(r.objects[0].class, PageClass::ReadShared);
        assert!(r.objects[0].falsely_shared);
    }
}
