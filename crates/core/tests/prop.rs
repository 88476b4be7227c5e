//! Property-based tests for the collector's core invariants.
//!
//! These check the contract of figure 2 over randomly generated object
//! graphs and root placements:
//!
//! 1. **Soundness** — every object transitively reachable from scanned
//!    roots survives collection (a collector that frees reachable memory is
//!    broken, full stop).
//! 2. **Precision without pollution** — with clean roots (only real
//!    pointers, no junk), exactly the reachable objects survive.
//! 3. **Blacklist completeness** — every invalid candidate observed in the
//!    heap's vicinity lands on the blacklist, and no composite allocation is
//!    ever placed on a blacklisted page.

use gc_core::{Collector, GcConfig, PointerPolicy};
use gc_heap::{HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::HashSet;

const DATA_BASE: u32 = 0x1_0000;
const DATA_WORDS: u32 = 256;

fn collector(policy: PointerPolicy, blacklisting: bool) -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            Addr::new(DATA_BASE),
            DATA_WORDS * 4,
        ))
        .unwrap();
    let config = GcConfig {
        heap: HeapConfig {
            heap_base: Addr::new(0x20_0000),
            max_heap_bytes: 8 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        },
        pointer_policy: policy,
        blacklisting,
        // Keep collections explicit so the test controls liveness windows.
        min_bytes_between_gcs: u64::MAX,
        ..GcConfig::default()
    };
    Collector::new(space, config)
}

/// A random object graph: N objects of 2 field words each, random edges,
/// random subset of objects rooted.
#[derive(Debug, Clone)]
struct GraphSpec {
    nobjects: usize,
    edges: Vec<(usize, usize, u8)>, // (from, to, field 0/1)
    roots: Vec<usize>,
}

fn arb_graph() -> impl Strategy<Value = GraphSpec> {
    (2usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec((0..n, 0..n, 0u8..2), 0..n * 2),
            proptest::collection::vec(0..n, 0..5),
        )
            .prop_map(move |(edges, roots)| GraphSpec {
                nobjects: n,
                edges,
                roots,
            })
    })
}

fn reachable(spec: &GraphSpec) -> HashSet<usize> {
    // Later writes to the same (object, field) overwrite earlier ones, so
    // only the final value of each field is an edge.
    let mut fields: std::collections::HashMap<(usize, u8), usize> =
        std::collections::HashMap::new();
    for &(f, t, field) in &spec.edges {
        fields.insert((f, field), t);
    }
    let mut seen: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = spec.roots.clone();
    while let Some(i) = stack.pop() {
        if seen.insert(i) {
            for field in 0..2u8 {
                if let Some(&t) = fields.get(&(i, field)) {
                    if !seen.contains(&t) {
                        stack.push(t);
                    }
                }
            }
        }
    }
    seen
}

fn build(gc: &mut Collector, spec: &GraphSpec) -> Vec<Addr> {
    let objs: Vec<Addr> = (0..spec.nobjects)
        .map(|_| gc.alloc(8, ObjectKind::Composite).unwrap())
        .collect();
    for &(f, t, field) in &spec.edges {
        gc.space_mut()
            .write_u32(objs[f] + u32::from(field) * 4, objs[t].raw())
            .unwrap();
    }
    for (i, &r) in spec.roots.iter().enumerate() {
        gc.space_mut()
            .write_u32(Addr::new(DATA_BASE) + (i as u32) * 4, objs[r].raw())
            .unwrap();
    }
    objs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Soundness + precision for clean roots: exactly the reachable objects
    /// survive, under every pointer policy.
    #[test]
    fn exactly_reachable_survive(spec in arb_graph(), policy_i in 0usize..3) {
        let policy = [PointerPolicy::AllInterior, PointerPolicy::FirstPage, PointerPolicy::BaseOnly][policy_i];
        let mut gc = collector(policy, true);
        let objs = build(&mut gc, &spec);
        gc.collect();
        let expect = reachable(&spec);
        for (i, &obj) in objs.iter().enumerate() {
            prop_assert_eq!(
                gc.is_live(obj),
                expect.contains(&i),
                "object {} (of {}), policy {}", i, spec.nobjects, policy
            );
        }
    }

    /// Reachable objects always survive even when the roots additionally
    /// contain arbitrary junk words (conservatism may retain more, never
    /// less).
    #[test]
    fn junk_never_causes_reclamation_of_reachable(
        spec in arb_graph(),
        junk in proptest::collection::vec(any::<u32>(), 0..64),
        blacklisting: bool,
    ) {
        let mut gc = collector(PointerPolicy::AllInterior, blacklisting);
        let objs = build(&mut gc, &spec);
        // Junk goes after the root slots.
        for (i, &j) in junk.iter().enumerate() {
            let slot = Addr::new(DATA_BASE) + (64 + i as u32) * 4;
            gc.space_mut().write_u32(slot, j).unwrap();
        }
        gc.collect();
        for i in reachable(&spec) {
            prop_assert!(gc.is_live(objs[i]), "reachable object {i} was reclaimed");
        }
    }

    /// Every invalid candidate in the vicinity is blacklisted, and no
    /// composite object is ever allocated on a blacklisted page.
    #[test]
    fn blacklist_is_respected_by_allocation(
        junk_pages in proptest::collection::vec(0u32..128, 1..10),
        allocs in 1usize..200,
    ) {
        let mut gc = collector(PointerPolicy::AllInterior, true);
        let heap_base = 0x20_0000u32;
        for (i, &p) in junk_pages.iter().enumerate() {
            let fake = heap_base + p * PAGE_BYTES + 8;
            gc.space_mut().write_u32(Addr::new(DATA_BASE) + (i as u32) * 4, fake).unwrap();
        }
        gc.start();
        for &p in &junk_pages {
            let page = Addr::new(heap_base + p * PAGE_BYTES).page();
            prop_assert!(gc.blacklist().contains(page), "page +{p} not blacklisted");
        }
        for _ in 0..allocs {
            let a = gc.alloc(8, ObjectKind::Composite).unwrap();
            prop_assert!(!gc.blacklist().contains(a.page()),
                "composite object at {a} on a blacklisted page");
        }
    }

    /// Explicit `collect` is idempotent when the mutator does nothing in
    /// between: the second collection frees nothing.
    #[test]
    fn quiescent_collection_is_idempotent(spec in arb_graph()) {
        let mut gc = collector(PointerPolicy::AllInterior, true);
        build(&mut gc, &spec);
        gc.collect();
        let live_after_first: Vec<Addr> =
            gc.heap().live_objects().map(|o| o.base).collect();
        let second = gc.collect();
        prop_assert_eq!(second.sweep.objects_freed, 0);
        let live_after_second: Vec<Addr> =
            gc.heap().live_objects().map(|o| o.base).collect();
        prop_assert_eq!(live_after_first, live_after_second);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hashed blacklist is a conservative approximation of the exact
    /// one: every page the exact store blacklists, the hashed store (of
    /// any size) also reports blacklisted.
    #[test]
    fn hashed_blacklist_is_superset_of_exact(
        pages in proptest::collection::vec(0u32..(1 << 20), 1..64),
        bits in 6u8..16,
    ) {
        use gc_core::{Blacklist, BlacklistKind, RootClass};
        use gc_vmspace::PageIdx;
        let mut exact = Blacklist::new(BlacklistKind::Exact, 2);
        let mut hashed = Blacklist::new(BlacklistKind::Hashed { bits }, 2);
        exact.begin_cycle(1);
        hashed.begin_cycle(1);
        for &p in &pages {
            exact.note_false_ref(PageIdx::new(p), RootClass::Static);
            hashed.note_false_ref(PageIdx::new(p), RootClass::Static);
        }
        exact.end_cycle();
        hashed.end_cycle();
        for &p in &pages {
            prop_assert!(exact.contains(PageIdx::new(p)));
            prop_assert!(hashed.contains(PageIdx::new(p)), "hashed missed page {p}");
        }
        prop_assert!(hashed.len() <= exact.len().max(1) * 64,
            "hashed table bit count stays bounded");
    }

    /// Collection is monotone in roots: adding one more rooted object can
    /// never reduce the surviving set.
    #[test]
    fn marking_is_monotone_in_roots(spec in arb_graph(), extra in 0usize..40) {
        let build_and_collect = |with_extra: bool| -> Vec<u32> {
            let mut gc = collector(PointerPolicy::AllInterior, true);
            let objs = build(&mut gc, &spec);
            if with_extra && !objs.is_empty() {
                let target = objs[extra % objs.len()];
                gc.space_mut()
                    .write_u32(Addr::new(DATA_BASE) + 40, target.raw())
                    .unwrap();
            }
            gc.collect();
            let mut live: Vec<u32> =
                gc.heap().live_objects().map(|o| o.base.raw()).collect();
            live.sort_unstable();
            live
        };
        let base = build_and_collect(false);
        let more = build_and_collect(true);
        for b in &base {
            prop_assert!(more.binary_search(b).is_ok(),
                "adding a root lost object {b:#x}");
        }
    }
}

/// Builds the same graph in a collector with the given config tweaks.
fn collector_with(tweak: impl FnOnce(&mut GcConfig)) -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            Addr::new(DATA_BASE),
            DATA_WORDS * 4,
        ))
        .unwrap();
    let mut config = GcConfig {
        heap: HeapConfig {
            heap_base: Addr::new(0x20_0000),
            max_heap_bytes: 8 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        },
        min_bytes_between_gcs: u64::MAX,
        ..GcConfig::default()
    };
    tweak(&mut config);
    Collector::new(space, config)
}

fn live_set(gc: &Collector) -> Vec<u32> {
    let mut v: Vec<u32> = gc.heap().live_objects().map(|o| o.base.raw()).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An incremental cycle (any budget) computes exactly the same live
    /// set as a stop-the-world collection of the identical heap.
    #[test]
    fn incremental_equals_stop_world(spec in arb_graph(), budget in 1u32..64) {
        let mut stop = collector_with(|_| {});
        build(&mut stop, &spec);
        stop.collect();
        let expect = live_set(&stop);

        let mut inc = collector_with(|c| {
            c.incremental = true;
            c.incremental_budget = budget;
        });
        build(&mut inc, &spec);
        let mut steps = 0;
        loop {
            steps += 1;
            prop_assert!(steps < 100_000, "incremental cycle terminates");
            if inc
                .collect_increment(gc_core::CollectReason::Explicit)
                .is_some()
            {
                break;
            }
        }
        prop_assert_eq!(live_set(&inc), expect, "same graph, same survivors");
    }

    /// With a quiescent mutator, a minor collection followed by a full one
    /// leaves exactly the stop-the-world live set (sticky mark bits may
    /// defer reclamation of tenured garbage, never change the fixpoint).
    #[test]
    fn generational_fixpoint_equals_stop_world(spec in arb_graph()) {
        let mut stop = collector_with(|_| {});
        build(&mut stop, &spec);
        stop.collect();
        let expect = live_set(&stop);

        let mut gen = collector_with(|c| c.generational = true);
        build(&mut gen, &spec);
        gen.collect_minor();
        // The minor collection may only over-approximate (old objects are
        // assumed live), never under-approximate.
        let after_minor = live_set(&gen);
        for b in &expect {
            prop_assert!(after_minor.binary_search(b).is_ok(),
                "minor collection lost reachable object {b:#x}");
        }
        gen.collect();
        prop_assert_eq!(live_set(&gen), expect);
    }
}

/// A typed+untyped object graph. Every object has `sizes[i]` field words;
/// object `i` is *typed* iff `typed[i]`, in which case only the words
/// whose bit is set in `masks[i]` (and that fall inside the object) are
/// declared pointer words — everything else is data the collector must
/// not trace. Untyped objects trace every word.
#[derive(Debug, Clone)]
struct TypedGraphSpec {
    sizes: Vec<u8>,
    typed: Vec<bool>,
    masks: Vec<u8>,
    edges: Vec<(usize, usize, u8)>,
    roots: Vec<usize>,
    /// Post-tenure victim placements: `(root_index, word)` — a fresh
    /// unrooted object's address is stored into that word of the
    /// `roots[root_index]`-th object, through the write barrier.
    stores: Vec<(usize, u8)>,
}

fn arb_typed_graph() -> impl Strategy<Value = TypedGraphSpec> {
    (3usize..32).prop_flat_map(|n| {
        (
            (
                proptest::collection::vec(2u8..=6, n..n + 1),
                proptest::collection::vec(any::<bool>(), n..n + 1),
                proptest::collection::vec(any::<u8>(), n..n + 1),
            ),
            (
                proptest::collection::vec((0..n, 0..n, 0u8..6), 0..n * 2),
                proptest::collection::vec(0..n, 1..6),
                proptest::collection::vec((0..8usize, 0u8..6), 0..n),
            ),
        )
            .prop_map(
                |((sizes, typed, masks), (edges, roots, stores))| TypedGraphSpec {
                    sizes,
                    typed,
                    masks,
                    edges,
                    roots,
                    stores,
                },
            )
    })
}

impl TypedGraphSpec {
    /// May word `w` of object `i` hold a traced pointer?
    fn is_pointer_word(&self, i: usize, w: u8) -> bool {
        w < self.sizes[i] && (!self.typed[i] || self.masks[i] & (1 << w) != 0)
    }
}

/// Model reachability: the final value of each (object, word) is the last
/// edge written there, and it is traced only through pointer words.
fn reachable_typed(spec: &TypedGraphSpec) -> HashSet<usize> {
    let mut fields: std::collections::HashMap<(usize, u8), usize> =
        std::collections::HashMap::new();
    for &(f, t, field) in &spec.edges {
        let w = field % spec.sizes[f];
        fields.insert((f, w), t);
    }
    let mut seen: HashSet<usize> = HashSet::new();
    let mut stack: Vec<usize> = spec.roots.clone();
    while let Some(i) = stack.pop() {
        if seen.insert(i) {
            for (&(f, w), &t) in &fields {
                if f == i && spec.is_pointer_word(i, w) && !seen.contains(&t) {
                    stack.push(t);
                }
            }
        }
    }
    seen
}

fn build_typed(gc: &mut Collector, spec: &TypedGraphSpec) -> Vec<Addr> {
    use gc_heap::Descriptor;
    let objs: Vec<Addr> = (0..spec.sizes.len())
        .map(|i| {
            let words = u32::from(spec.sizes[i]);
            if spec.typed[i] {
                let offsets: Vec<u32> = (0..spec.sizes[i])
                    .filter(|&w| spec.masks[i] & (1 << w) != 0)
                    .map(u32::from)
                    .collect();
                let desc = gc.register_descriptor(Descriptor::with_pointers_at(words, &offsets));
                gc.alloc_typed(words * 4, desc).unwrap()
            } else {
                gc.alloc(words * 4, ObjectKind::Composite).unwrap()
            }
        })
        .collect();
    for &(f, t, field) in &spec.edges {
        let w = field % spec.sizes[f];
        gc.space_mut()
            .write_u32(objs[f] + u32::from(w) * 4, objs[t].raw())
            .unwrap();
    }
    for (i, &r) in spec.roots.iter().enumerate() {
        gc.space_mut()
            .write_u32(Addr::new(DATA_BASE) + (i as u32) * 4, objs[r].raw())
            .unwrap();
    }
    objs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact reachability over typed+untyped graphs: with clean roots,
    /// precisely the model-reachable objects survive a full collection —
    /// typed data words never retain, typed pointer words always trace.
    #[test]
    fn typed_graphs_exactly_reachable_survive(spec in arb_typed_graph()) {
        let expect = reachable_typed(&spec);
        let mut gc = collector_with(|_| {});
        let objs = build_typed(&mut gc, &spec);
        gc.collect();
        for (i, &obj) in objs.iter().enumerate() {
            prop_assert_eq!(
                gc.is_live(obj),
                expect.contains(&i),
                "object {} (typed={})",
                i, spec.typed[i]
            );
        }
    }

    /// Full and minor collections agree on typed layouts: a young object
    /// stored into a tenured host's word — through the write barrier, so
    /// the card is dirty — survives the next collection iff that word is
    /// a traced pointer word, identically in generational and
    /// stop-the-world mode. (Before the shared scan kernel, the minor
    /// path scanned typed hosts conservatively and kept every victim.)
    #[test]
    fn typed_victims_agree_full_vs_minor(spec in arb_typed_graph()) {
        let run = |generational: bool| -> Vec<bool> {
            let mut gc = collector_with(|c| c.generational = generational);
            let objs = build_typed(&mut gc, &spec);
            if generational {
                gc.collect_minor(); // tenure the reachable graph
            }
            // Victim placements target *rooted* hosts only, so the hosts
            // are reachable in both modes regardless of edge overwrites.
            let mut victims = Vec::new();
            for &(ri, w0) in &spec.stores {
                let host = spec.roots[ri % spec.roots.len()];
                let w = w0 % spec.sizes[host];
                let victim = gc.alloc(8, ObjectKind::Composite).unwrap();
                let slot = objs[host] + u32::from(w) * 4;
                gc.space_mut().write_u32(slot, victim.raw()).unwrap();
                gc.record_write(slot);
                victims.push((host, w, victim));
            }
            if generational {
                gc.collect_minor();
            } else {
                gc.collect();
            }
            victims.iter().map(|&(_, _, v)| gc.is_live(v)).collect()
        };
        let full = run(false);
        let minor = run(true);
        prop_assert_eq!(&full, &minor,
            "typed hosts' victims must share one fate in full and minor mode");
        // And that shared fate is the *declared* one: the last victim
        // stored into a pointer word lives, everything else dies.
        let mut last: std::collections::HashMap<(usize, u8), usize> =
            std::collections::HashMap::new();
        for (vi, &(ri, w0)) in spec.stores.iter().enumerate() {
            let host = spec.roots[ri % spec.roots.len()];
            let w = w0 % spec.sizes[host];
            last.insert((host, w), vi);
        }
        for (vi, &(ri, w0)) in spec.stores.iter().enumerate() {
            let host = spec.roots[ri % spec.roots.len()];
            let w = w0 % spec.sizes[host];
            let expect = last.get(&(host, w)) == Some(&vi) && spec.is_pointer_word(host, w);
            prop_assert_eq!(
                full[vi], expect,
                "victim {} at word {} of host {} (typed={})",
                vi, w, host, spec.typed[host]
            );
        }
    }
}
