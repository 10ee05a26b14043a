//! Trace capture, and the run-compressed form a trace is held in.

use ace_machine::{Access, CpuId, Distance, Ns, PageSize};
use ace_sim::{RefEvent, RefRun, Simulator};
use mach_vm::VAddr;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One row of a [`Trace`]: `count` consecutive references by one
/// processor, of one kind, distance and width, all on one page. Element
/// `i` was made at address `addr + i * stride` when the processor's
/// clock read `t0 + i * dt`. A row of one has no step (both read 0).
///
/// 40 bytes, no packing: `words` stays as wide as [`RefEvent`] and the
/// text format carry it, so a row can hold whatever `read_trace` accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Run {
    /// The first element's post-reference clock.
    pub t0: Ns,
    /// The first element's address.
    pub addr: VAddr,
    /// Width of every element in 32-bit words.
    pub words: u64,
    /// Clock step between consecutive elements, in nanoseconds.
    pub dt: u32,
    /// Address step between consecutive elements, in bytes.
    pub stride: i32,
    /// Number of elements (at least 1).
    pub count: u32,
    /// Referencing processor.
    pub cpu: CpuId,
    /// Fetch or store.
    pub kind: Access,
    /// Where the references were served from.
    pub dist: Distance,
}

impl Run {
    /// The row as the run it holds (a downward stride wraps).
    pub fn run(&self) -> RefRun {
        let Run { t0: t, addr, words, cpu, kind, dist, .. } = *self;
        RefRun {
            first: RefEvent { t, cpu, addr, kind, dist, words },
            stride: i64::from(self.stride) as u64,
            dt: Ns(u64::from(self.dt)),
            count: u64::from(self.count),
        }
    }

    /// Word references in the row.
    pub fn total_words(&self) -> u64 {
        self.words * u64::from(self.count)
    }
}

/// A captured reference trace, in global virtual-time order of
/// execution, held as arithmetic runs (see [`Run`]). How the references
/// were cut into rows is not observable: [`Trace::iter`], the analyses
/// and the stored text depend only on the references themselves.
#[derive(Clone, Debug)]
pub struct Trace {
    runs: Vec<Run>,
    refs: usize,
    /// Page size of the traced machine.
    pub page_size: PageSize,
}

impl Trace {
    /// An empty trace of a machine with the given page size.
    pub fn new(page_size: PageSize) -> Trace {
        Trace { runs: Vec::new(), refs: 0, page_size }
    }

    /// A trace of the given references, in order.
    pub fn from_events(page_size: PageSize, events: impl IntoIterator<Item = RefEvent>) -> Trace {
        let mut trace = Trace::new(page_size);
        for e in events {
            trace.push(&e);
        }
        trace
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.refs
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.refs == 0
    }

    /// The rows the trace is held in.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// Every reference, in order.
    pub fn iter(&self) -> impl Iterator<Item = RefEvent> + '_ {
        self.runs.iter().flat_map(|row| row.run().events())
    }

    /// The virtual page a row's references fall on.
    pub fn vpn_of(&self, run: &Run) -> u64 {
        self.page_size.page_of(run.addr.0)
    }

    /// Appends one reference.
    pub fn push(&mut self, e: &RefEvent) {
        self.push_run(&RefRun::one(*e));
    }

    /// Appends a run of references. It extends the last row when it
    /// continues that row's progression in address *and* clock (and
    /// shares its processor, kind, distance, width and page), so neither
    /// is ever lost; otherwise it starts a new row. A run a row cannot
    /// hold whole (it leaves its page, or a step is out of range) is
    /// appended reference by reference.
    pub fn push_run(&mut self, run: &RefRun) {
        let e = run.first;
        let page = self.page_size;
        let whole = u32::try_from(run.count).ok().filter(|&n| n > 0).and_then(|count| {
            let (stride, dt) = match count {
                1 => (0, 0),
                _ => (i32::try_from(run.stride).ok()?, u32::try_from(run.dt.0).ok()?),
            };
            let row = Run {
                t0: e.t,
                addr: e.addr,
                words: e.words,
                dt,
                stride,
                count,
                cpu: e.cpu,
                kind: e.kind,
                dist: e.dist,
            };
            let end = run.event(run.count - 1).addr;
            (page.page_of(end.0) == page.page_of(e.addr.0)).then_some(row)
        });
        let Some(row) = whole else {
            return run.events().for_each(|e| self.push(&e));
        };
        self.refs += row.count as usize;
        if !self.runs.last_mut().is_some_and(|last| extend(last, &row, page)) {
            self.runs.push(row);
        }
    }
}

/// Grows `last` by `row` if the result is still one arithmetic run on
/// one page.
fn extend(last: &mut Run, row: &Run, page: PageSize) -> bool {
    if (last.cpu, last.kind, last.dist, last.words) != (row.cpu, row.kind, row.dist, row.words)
        || page.page_of(last.addr.0) != page.page_of(row.addr.0)
    {
        return false;
    }
    let Some(count) = last.count.checked_add(row.count) else {
        return false;
    };
    // The step the grown row would have: its own once it has one,
    // otherwise the gap from its only element to the newcomer.
    let mut grown = *last;
    if last.count == 1 {
        let gap = (
            i32::try_from(row.addr.0.wrapping_sub(last.addr.0) as i64),
            u32::try_from(row.t0.0.wrapping_sub(last.t0.0)),
        );
        let (Ok(stride), Ok(dt)) = gap else {
            return false;
        };
        (grown.stride, grown.dt) = (stride, dt);
    }
    if row.count > 1 && (grown.stride, grown.dt) != (row.stride, row.dt) {
        return false;
    }
    let next = grown.run().event(u64::from(last.count));
    if (next.addr, next.t) != (row.addr, row.t0) {
        return false;
    }
    grown.count = count;
    *last = grown;
    true
}

/// Per-page state of an analysis, numbered densely in order of first
/// reference.
pub(crate) struct PerPage<T> {
    index: HashMap<u64, u32>,
    /// Each page's virtual page number and state, by index.
    pub(crate) pages: Vec<(u64, T)>,
}

impl<T> PerPage<T> {
    pub(crate) fn new() -> PerPage<T> {
        PerPage { index: HashMap::new(), pages: Vec::new() }
    }

    /// The index and state of virtual page `vpn`, `fresh` on first sight.
    pub(crate) fn entry(&mut self, vpn: u64, fresh: impl FnOnce() -> T) -> (u32, &mut T) {
        let idx = *self.index.entry(vpn).or_insert(self.pages.len() as u32);
        if idx as usize == self.pages.len() {
            self.pages.push((vpn, fresh()));
        }
        (idx, &mut self.pages[idx as usize].1)
    }
}

/// Captures references from a simulator into a [`Trace`].
///
/// Install before `run`, then [`Recorder::take`] afterwards:
///
/// ```ignore
/// let rec = Recorder::install(&sim);
/// sim.run();
/// let trace = rec.take(&sim);
/// ```
pub struct Recorder {
    buf: Arc<Mutex<Trace>>,
}

impl Recorder {
    /// Hooks the simulator's reference sink.
    pub fn install(sim: &Simulator) -> Recorder {
        sim.with_kernel(|k| {
            let buf = Arc::new(Mutex::new(Trace::new(k.vm.page_size())));
            let sink_buf = Arc::clone(&buf);
            k.set_run_sink(Box::new(move |run: &RefRun| {
                sink_buf.lock().expect("recorder poisoned").push_run(run);
            }));
            Recorder { buf }
        })
    }

    /// Uninstalls the sink and returns everything captured so far.
    pub fn take(self, sim: &Simulator) -> Trace {
        sim.with_kernel(|k| drop(k.take_sink()));
        let mut buf = self.buf.lock().expect("recorder poisoned");
        let empty = Trace::new(buf.page_size);
        std::mem::replace(&mut *buf, empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Trace {
        /// Appends elements `from..to` of `row` as a row of their own,
        /// never merged into the last: how the tests cut one list of
        /// references into rows of their choosing.
        pub(crate) fn push_cut(&mut self, row: &Run, from: u32, to: u32) {
            let first = row.run().event(u64::from(from));
            let (stride, dt) = if to - from > 1 { (row.stride, row.dt) } else { (0, 0) };
            self.runs.push(Run { t0: first.t, addr: first.addr, stride, dt, count: to - from, ..*row });
            self.refs += (to - from) as usize;
        }
    }
    use ace_machine::Prot;
    use ace_sim::SimConfig;
    use numa_core::MoveLimitPolicy;

    #[test]
    fn records_reads_and_writes_in_order() {
        let mut sim =
            Simulator::new(SimConfig::small(2), Box::new(MoveLimitPolicy::default()));
        let a = sim.alloc(256, Prot::READ_WRITE);
        let rec = Recorder::install(&sim);
        sim.spawn("t", move |ctx| {
            ctx.write_u32(a, 1);
            let _ = ctx.read_u32(a);
            ctx.write_u32(a + 4, 2);
        });
        sim.run();
        let trace = rec.take(&sim);
        assert_eq!(trace.len(), 3);
        let events: Vec<RefEvent> = trace.iter().collect();
        assert_eq!(events[0].kind, Access::Store);
        assert_eq!(events[1].kind, Access::Fetch);
        assert_eq!(events[2].addr, a + 4);
        let page = trace.page_size;
        assert_eq!(page.page_of(events[0].addr.0), page.page_of(events[2].addr.0));
        // Sink uninstalled: further runs do not grow the trace.
        let n = trace.len();
        let mut sim2 = sim;
        sim2.spawn("t2", move |ctx| ctx.write_u32(a, 3));
        sim2.run();
        assert_eq!(trace.len(), n);
    }
}
