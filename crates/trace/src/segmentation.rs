//! How a trace's references are cut into rows cannot matter: every
//! analysis, the iterator and the stored bytes are functions of the
//! references alone.

use crate::optimal::tests::oracle;
use crate::{
    optimal_cost, read_trace, replay, write_trace, FalseSharingReport, ObjectMap, SharingReport,
    Trace,
};
use ace_machine::{Access, CostModel, CpuId, Distance, Ns, PageSize};
use ace_sim::RefEvent;
use mach_vm::VAddr;
use numa_core::{AllGlobalPolicy, AllLocalPolicy, CachePolicy, MoveLimitPolicy};
use proptest::prelude::*;

const PAGE: usize = 256;

/// One generated stretch of references: (cpu, page, store?, words),
/// (distance, first word, stride in words, descending?), (clock step,
/// count).
type Stretch = ((u16, u64, bool, u64), (u8, u64, u64, bool), (u64, u64));

/// The references the stretches stand for, clock running on across them.
fn references(cpus: u16, pages: u64, stretches: &[Stretch]) -> Vec<RefEvent> {
    let mut now = 0u64;
    let mut out = Vec::new();
    for &((cpu, page, store, words), (dist, word, stride, down), (dt, count)) in stretches {
        for i in 0..count {
            // A constant step, with a hiccup now and then so that equal
            // strides alone do not make a run.
            now += dt * 350 + u64::from((i + word) % 5 == 4);
            let step = (i * stride * 4) as i64;
            let base = (page % pages) * PAGE as u64 + word * 4;
            out.push(RefEvent {
                t: Ns(now),
                cpu: CpuId(cpu % cpus),
                addr: VAddr(base.wrapping_add_signed(if down { -step } else { step }) % (4 * PAGE as u64)),
                kind: if store { Access::Store } else { Access::Fetch },
                dist: [Distance::Local, Distance::Global, Distance::Remote][dist as usize],
                words,
            });
        }
    }
    out
}

/// `greedy`'s references with each row cut further wherever `coin` says.
fn cut(greedy: &Trace, mut coin: impl FnMut() -> bool) -> Trace {
    let mut out = Trace::new(greedy.page_size);
    for row in greedy.runs() {
        let mut from = 0;
        for to in 1..=row.count {
            if to == row.count || coin() {
                out.push_cut(row, from, to);
                from = to;
            }
        }
    }
    out
}

/// Everything the crate computes from a trace.
fn everything(t: &Trace, objects: &ObjectMap) -> impl PartialEq + std::fmt::Debug {
    let costs = CostModel::ace();
    let policies: [Box<dyn CachePolicy>; 3] = [
        Box::new(MoveLimitPolicy::new(2)),
        Box::new(AllGlobalPolicy),
        Box::new(AllLocalPolicy),
    ];
    let replays = policies.map(|mut p| replay(t, p.as_mut(), &costs, PAGE));
    let mut text = Vec::new();
    write_trace(t, &mut text).expect("writing to memory");
    (
        replays,
        optimal_cost(t, &costs, PAGE),
        SharingReport::from_trace(t),
        FalseSharingReport::analyze(t, objects),
        t.iter().collect::<Vec<_>>(),
        text,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn segmentation_cannot_matter(
        cpus in 2u16..6,
        pages in 1u64..5,
        stretches in collection::vec(
            (
                (0u16..5, 0u64..4, any::<bool>(), 1u64..3),
                (0u8..3, 0u64..64, 0u64..4, any::<bool>()),
                (0u64..3, 1u64..9),
            ),
            0..24,
        ),
        seed in any::<u64>(),
    ) {
        let refs = references(cpus, pages, &stretches);
        let mut objects = ObjectMap::new();
        for i in 0..pages * 4 {
            objects.add(format!("o{i}"), VAddr(i * 64), 48);
        }
        let greedy = Trace::from_events(PageSize::new(PAGE), refs.iter().copied());
        let singletons = cut(&greedy, || true);
        let mut bits = seed;
        let random = cut(&greedy, || {
            bits = bits.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            bits >> 62 == 0
        });
        prop_assert_eq!(greedy.len(), refs.len());
        prop_assert_eq!(singletons.runs().len(), refs.len());
        prop_assert!(greedy.iter().eq(refs.iter().copied()));

        let expect = everything(&greedy, &objects);
        prop_assert_eq!(&everything(&singletons, &objects), &expect);
        prop_assert_eq!(&everything(&random, &objects), &expect);

        // The frontier is the DP whichever way the rows fall.
        let costs = CostModel::ace();
        prop_assert_eq!(optimal_cost(&random, &costs, PAGE), oracle(&greedy, &costs, PAGE));

        // And a stored trace reads back as the same references.
        let mut text = Vec::new();
        write_trace(&random, &mut text).expect("writing to memory");
        let back = read_trace(&text[..]).expect("reading what was written");
        prop_assert!(back.iter().eq(refs.iter().copied()));
        prop_assert_eq!(back.page_size, greedy.page_size);
    }
}

#[test]
fn the_merge_keeps_address_and_clock() {
    let page = PageSize::new(PAGE);
    let ev = |t, addr| RefEvent {
        t: Ns(t),
        cpu: CpuId(0),
        addr: VAddr(addr),
        kind: Access::Fetch,
        dist: Distance::Local,
        words: 1,
    };
    // A constant stride at a constant clock step is one row, up or down…
    let up = Trace::from_events(page, (0..8).map(|i| ev(100 + 10 * i, 4 * i)));
    let down = Trace::from_events(page, (0..8).map(|i| ev(100 + 10 * i, 60 - 4 * i)));
    assert_eq!((up.runs().len(), down.runs().len()), (1, 1));
    assert_eq!(down.runs()[0].stride, -4);
    // …a spin on one word is one row…
    assert_eq!(Trace::from_events(page, (0..8).map(|i| ev(10 * i, 0))).runs().len(), 1);
    // …but a hiccup in the clock, a change of stride or a page boundary
    // each start a new one, and nothing is lost either way.
    let hiccup = [ev(0, 0), ev(10, 4), ev(25, 8), ev(35, 12)];
    let t = Trace::from_events(page, hiccup);
    assert_eq!(t.runs().len(), 2);
    assert!(t.iter().eq(hiccup));
    let turn = [ev(0, 0), ev(10, 4), ev(20, 12)];
    assert_eq!(Trace::from_events(page, turn).runs().len(), 2);
    let crossing: Vec<_> = (0..8).map(|i| ev(10 * i, 240 + 4 * i)).collect();
    let t = Trace::from_events(page, crossing.iter().copied());
    assert_eq!(t.runs().len(), 2);
    assert!(t.iter().eq(crossing.iter().copied()));
}
