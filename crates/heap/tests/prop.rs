//! Property-based tests for the heap substrate's structural invariants.

use gc_heap::{
    accept_all, BlockShape, Descriptor, ExplicitHeap, FreeListPolicy, Heap, HeapConfig, ObjectKind,
    SweepStats,
};
use gc_vmspace::{Addr, AddressSpace, Endian, PAGE_BYTES};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, HashSet};

fn heap(policy: FreeListPolicy) -> (AddressSpace, Heap) {
    let space = AddressSpace::new(Endian::Big);
    let heap = Heap::new(HeapConfig {
        heap_base: Addr::new(0x10_0000),
        max_heap_bytes: 64 << 20,
        growth_pages: 16,
        freelist_policy: policy,
        ..HeapConfig::default()
    });
    (space, heap)
}

/// Structural invariants that must hold after any operation sequence.
fn check_invariants(heap: &Heap) {
    // 1. Live object extents never overlap, and every interior address
    //    resolves back to its object.
    let mut extents: Vec<(u32, u32)> = Vec::new();
    for obj in heap.live_objects() {
        extents.push((obj.base.raw(), obj.base.raw() + obj.bytes));
        // Base and last byte resolve to the same object.
        let via_base = heap.object_containing(obj.base).expect("base resolves");
        assert_eq!(via_base.base, obj.base);
        let via_last = heap
            .object_containing(obj.base + obj.bytes - 1)
            .expect("interior resolves");
        assert_eq!(via_last.base, obj.base);
    }
    extents.sort_unstable();
    for pair in extents.windows(2) {
        assert!(pair[0].1 <= pair[1].0, "live objects overlap: {pair:?}");
    }
    // 2. bytes_live accounting agrees with enumeration.
    let sum: u64 = heap.live_objects().map(|o| u64::from(o.bytes)).sum();
    assert_eq!(
        heap.stats().bytes_live,
        sum,
        "bytes_live accounting drifted"
    );
    // 3. Every block's pages are inside the heap range.
    for block in heap.blocks() {
        assert!(heap.in_heap_range(block.base()));
        let end = block.base() + block.npages() * PAGE_BYTES - 1;
        assert!(heap.in_heap_range(end));
        match block.shape() {
            BlockShape::Small { .. } => assert_eq!(block.npages(), 1),
            BlockShape::Large { obj_bytes } => {
                assert!(obj_bytes.div_ceil(PAGE_BYTES) == block.npages())
            }
        }
    }
}

/// The lazy heap's aggregate views must agree with a full object walk even
/// while sweeps are pending: `bytes_live`, the generation census and the
/// size-class census all answer from the same (pending-aware) liveness.
fn check_lazy_census_consistency(heap: &Heap) {
    let walk_bytes: u64 = heap.live_objects().map(|o| u64::from(o.bytes)).sum();
    assert_eq!(heap.stats().bytes_live, walk_bytes);
    let walk_count = heap.live_objects().count() as u64;
    let (young, old) = heap.generation_census();
    assert_eq!(young + old, walk_count);
    let census_count: u64 = heap
        .size_class_census()
        .iter()
        .map(|row| u64::from(row.live_objects))
        .sum();
    assert_eq!(census_count, walk_count);
}

/// One block's allocation and old bits, slot by slot.
#[derive(Clone, PartialEq, Eq, Debug)]
struct SlotBits {
    allocated: Vec<bool>,
    old: Vec<bool>,
}

/// What a sweep must leave behind: its counts, and each block's bits keyed
/// by base address (`None` for a block the sweep releases).
#[derive(Debug, Default)]
struct SweepOutcome {
    freed: u64,
    live: u64,
    promoted: u64,
    blocks: BTreeMap<u32, Option<SlotBits>>,
}

/// The slot-at-a-time sweep loop the word-at-a-time kernel replaced, kept
/// as the reference: a slot survives if it is allocated and marked, or
/// allocated and old during a minor sweep; survivors become old; freed
/// slots lose their allocation and old bits; a block with no survivor is
/// released. Reads the heap only through public per-slot accessors.
fn reference_sweep(heap: &Heap, minor: bool) -> SweepOutcome {
    let mut out = SweepOutcome::default();
    for block in heap.blocks() {
        let n = block.slots();
        let mut bits = SlotBits {
            allocated: (0..n).map(|s| block.is_allocated(s)).collect(),
            old: (0..n).map(|s| block.is_old(s)).collect(),
        };
        let mut live_here = 0;
        for slot in 0..n {
            if !block.is_allocated(slot) {
                continue;
            }
            let old = block.is_old(slot);
            let marked = block.is_marked(slot);
            if (minor && old) || marked {
                live_here += 1;
                if marked && !old {
                    bits.old[slot as usize] = true;
                    out.promoted += 1;
                }
            } else {
                bits.allocated[slot as usize] = false;
                bits.old[slot as usize] = false;
                out.freed += 1;
            }
        }
        out.live += live_here;
        out.blocks
            .insert(block.base().raw(), (live_here > 0).then_some(bits));
    }
    out
}

/// Object sizes for the kernel oracle: slot counts that are multiples of
/// 64 (8 B: 512) and ones that are not (12 B: 341, 24 B: 170, 40 B: 102,
/// 2048 B: 2), plus large objects.
const ORACLE_SIZES: [u32; 8] = [8, 12, 24, 40, 200, 2048, 3000, 9000];

/// An operation in a random allocator trace.
#[derive(Debug, Clone)]
enum Op {
    Alloc { bytes: u32, atomic: bool },
    FreeIdx(usize),
    SweepNothingMarked,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (1u32..6000, any::<bool>()).prop_map(|(bytes, atomic)| Op::Alloc { bytes, atomic }),
        3 => any::<usize>().prop_map(Op::FreeIdx),
        1 => Just(Op::SweepNothingMarked),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariants hold across arbitrary alloc/free/sweep traces under both
    /// free-list policies.
    #[test]
    fn invariants_hold_across_traces(
        ops in proptest::collection::vec(arb_op(), 1..120),
        lifo: bool,
    ) {
        let policy = if lifo { FreeListPolicy::Lifo } else { FreeListPolicy::AddressOrdered };
        let (mut space, mut heap) = heap(policy);
        let mut live: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { bytes, atomic } => {
                    let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                    let addr = heap.alloc(&mut space, bytes, kind, &mut accept_all).unwrap();
                    live.push(addr);
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let addr = live.swap_remove(i % live.len());
                        heap.free_object(addr).unwrap();
                    }
                }
                Op::SweepNothingMarked => {
                    // Mark everything we consider live, then sweep: nothing
                    // of ours may be reclaimed.
                    heap.clear_marks();
                    for &a in &live {
                        let obj = heap.object_containing(a).expect("tracked object is live");
                        heap.set_marked(obj);
                    }
                    let stats = heap.sweep();
                    prop_assert_eq!(stats.objects_live, live.len() as u64);
                }
            }
            check_invariants(&heap);
        }
        // Every tracked address is still a distinct live object.
        let bases: HashSet<u32> = heap.live_objects().map(|o| o.base.raw()).collect();
        for a in &live {
            prop_assert!(bases.contains(&a.raw()));
        }
        prop_assert_eq!(bases.len(), live.len());
    }

    /// Allocation never returns overlapping or duplicate addresses, and
    /// usable sizes are at least the request.
    #[test]
    fn allocations_are_disjoint_and_big_enough(
        sizes in proptest::collection::vec(1u32..10_000, 1..80),
    ) {
        let (mut space, mut heap) = heap(FreeListPolicy::AddressOrdered);
        let mut seen: HashMap<u32, u32> = HashMap::new();
        for bytes in sizes {
            let addr = heap.alloc(&mut space, bytes, ObjectKind::Composite, &mut accept_all).unwrap();
            prop_assert!(!seen.contains_key(&addr.raw()), "duplicate address {addr}");
            let obj = heap.object_containing(addr).expect("fresh object resolves");
            prop_assert!(obj.bytes >= bytes, "usable {} < requested {bytes}", obj.bytes);
            seen.insert(addr.raw(), obj.bytes);
        }
        check_invariants(&heap);
    }

    /// A random trace swept lazily is indistinguishable from the same
    /// trace swept eagerly: identical snapshot accounting, identical
    /// liveness at every point — including while blocks are still pending
    /// and after a *partial* drain via the allocation slow path — and an
    /// identical settled heap once the deferred work is realized.
    #[test]
    fn lazy_sweep_is_equivalent_to_eager(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((1u32..4000, any::<bool>()), 1..60),
                any::<u64>(),
            ),
            1..4,
        ),
        drain in 0usize..8,
        budget in 1u32..5,
    ) {
        let build = |sweep_budget| {
            let space = AddressSpace::new(Endian::Big);
            let heap = Heap::new(HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 64 << 20,
                growth_pages: 16,
                sweep_budget,
                ..HeapConfig::default()
            });
            (space, heap)
        };
        let (mut es, mut eager) = build(64);
        let (mut ls, mut lazy) = build(budget);
        // Parallel handle vectors: index i is the same logical object in
        // both heaps (addresses may legitimately diverge once demand-order
        // free-list rebuilding kicks in).
        let mut handles: Vec<(Addr, Addr)> = Vec::new();
        for (allocs, mark_seed) in rounds {
            for (bytes, atomic) in allocs {
                let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                let e = eager.alloc(&mut es, bytes, kind, &mut accept_all).unwrap();
                let l = lazy.alloc(&mut ls, bytes, kind, &mut accept_all).unwrap();
                handles.push((e, l));
            }
            // Mark the same logical subset in both heaps.
            eager.clear_marks();
            lazy.clear_marks();
            let survives = |i: usize| {
                ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mark_seed)
                    .count_ones()
                    .is_multiple_of(2)
            };
            let mut survivors = Vec::new();
            for (i, &(e, l)) in handles.iter().enumerate() {
                if survives(i) {
                    let eo = eager.object_containing(e).expect("tracked object");
                    eager.set_marked(eo);
                    let lo = lazy.object_containing(l).expect("tracked object");
                    lazy.set_marked(lo);
                    survivors.push((e, l));
                }
            }
            let se = eager.sweep();
            let sl = lazy.sweep_lazy();
            // The lazy snapshot reports the identical reclamation up
            // front; only the block-release work differs until realized.
            prop_assert_eq!(se.objects_freed, sl.objects_freed);
            prop_assert_eq!(se.bytes_freed, sl.bytes_freed);
            prop_assert_eq!(se.objects_live, sl.objects_live);
            prop_assert_eq!(se.bytes_live, sl.bytes_live);
            prop_assert_eq!(se.objects_promoted, sl.objects_promoted);
            prop_assert_eq!(se.bytes_promoted, sl.bytes_promoted);
            prop_assert_eq!(eager.stats().bytes_live, lazy.stats().bytes_live);
            handles = survivors;
            // Liveness views agree while blocks are pending, and the lazy
            // heap's censuses stay self-consistent.
            check_lazy_census_consistency(&lazy);
            for &(e, l) in &handles {
                prop_assert!(eager.object_containing(e).is_some());
                prop_assert!(lazy.object_containing(l).is_some());
            }
            // Partially drain the pending queue through the slow path —
            // the same allocations land in the eager heap so the traces
            // stay identical.
            for _ in 0..drain {
                let e = eager.alloc(&mut es, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                let l = lazy.alloc(&mut ls, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                handles.push((e, l));
            }
            check_lazy_census_consistency(&lazy);
        }
        // Realizing the leftovers settles the lazy heap. Page/block
        // geometry (mapped pages, block count, free runs) legitimately
        // diverges once free-list rebuild order differs — equivalence is
        // about the objects and the accounting, not object placement.
        lazy.finish_sweep();
        prop_assert_eq!(lazy.pending_sweep_blocks(), 0);
        let (e, l) = (eager.stats(), lazy.stats());
        prop_assert_eq!(e.bytes_live, l.bytes_live);
        prop_assert_eq!(e.bytes_allocated_total, l.bytes_allocated_total);
        check_lazy_census_consistency(&lazy);
        let eager_sizes: Vec<u32> = {
            let mut v: Vec<u32> = eager.live_objects().map(|o| o.bytes).collect();
            v.sort_unstable();
            v
        };
        let lazy_sizes: Vec<u32> = {
            let mut v: Vec<u32> = lazy.live_objects().map(|o| o.bytes).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(eager_sizes, lazy_sizes);
    }

    /// `Heap::stats()` answers from incrementally maintained counters;
    /// this pins them to the from-scratch recomputation
    /// ([`Heap::recomputed_stats`]) after every step of a randomized
    /// alloc/free/sweep trace — eager and lazy, both free-list policies,
    /// with and without the bump-cursor fast path.
    #[test]
    fn incremental_stats_match_recomputation(
        ops in proptest::collection::vec(arb_op(), 1..120),
        lifo: bool,
        lazy: bool,
        bump: bool,
    ) {
        let policy = if lifo { FreeListPolicy::Lifo } else { FreeListPolicy::AddressOrdered };
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 64 << 20,
            growth_pages: 16,
            freelist_policy: policy,
            bump_alloc: bump,
            sweep_budget: 2,
        });
        let mut live: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { bytes, atomic } => {
                    let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                    let addr = heap.alloc(&mut space, bytes, kind, &mut accept_all).unwrap();
                    live.push(addr);
                }
                Op::FreeIdx(i) => {
                    if !live.is_empty() {
                        let addr = live.swap_remove(i % live.len());
                        heap.free_object(addr).unwrap();
                    }
                }
                Op::SweepNothingMarked => {
                    heap.clear_marks();
                    for &a in &live {
                        let obj = heap.object_containing(a).expect("tracked object is live");
                        heap.set_marked(obj);
                    }
                    if lazy { heap.sweep_lazy(); } else { heap.sweep(); }
                }
            }
            prop_assert_eq!(heap.stats(), heap.recomputed_stats());
        }
        heap.finish_sweep();
        prop_assert_eq!(heap.stats(), heap.recomputed_stats());
    }

    /// The bump-cursor fast path is *address-identical* to the old
    /// prepopulated-free-list path: the same trace run on a `bump_alloc`
    /// and a non-`bump_alloc` heap returns the same address for every
    /// allocation — in eager mode and at every lazy sweep budget 1..=4,
    /// with partial drains leaving cursors and pending blocks active —
    /// so every liveness view (`live_objects`, `object_containing`,
    /// censuses) coincides exactly.
    #[test]
    fn bump_cursor_is_address_identical_to_prepopulated(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((1u32..4000, any::<bool>()), 1..60),
                any::<u64>(),
            ),
            1..4,
        ),
        drain in 0usize..8,
        budget in 1u32..5,
        lazy: bool,
    ) {
        let build = |bump_alloc| {
            let space = AddressSpace::new(Endian::Big);
            let heap = Heap::new(HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 64 << 20,
                growth_pages: 16,
                sweep_budget: budget,
                bump_alloc,
                ..HeapConfig::default()
            });
            (space, heap)
        };
        let (mut bs, mut bumpy) = build(true);
        let (mut ps, mut plain) = build(false);
        let mut live: Vec<Addr> = Vec::new();
        for (allocs, mark_seed) in rounds {
            for (bytes, atomic) in allocs {
                let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                let b = bumpy.alloc(&mut bs, bytes, kind, &mut accept_all).unwrap();
                let p = plain.alloc(&mut ps, bytes, kind, &mut accept_all).unwrap();
                prop_assert_eq!(b, p, "allocation order diverged");
                live.push(b);
            }
            bumpy.clear_marks();
            plain.clear_marks();
            let survives = |i: usize| {
                ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mark_seed)
                    .count_ones()
                    .is_multiple_of(2)
            };
            let mut survivors = Vec::new();
            for (i, &a) in live.iter().enumerate() {
                if survives(i) {
                    let bo = bumpy.object_containing(a).expect("tracked object");
                    bumpy.set_marked(bo);
                    let po = plain.object_containing(a).expect("tracked object");
                    plain.set_marked(po);
                    survivors.push(a);
                }
            }
            if lazy {
                bumpy.sweep_lazy();
                plain.sweep_lazy();
            } else {
                bumpy.sweep();
                plain.sweep();
            }
            live = survivors;
            // Partial drain through the slow path: cursors and pending
            // blocks are both in play while these land.
            for _ in 0..drain {
                let b = bumpy.alloc(&mut bs, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                let p = plain.alloc(&mut ps, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                prop_assert_eq!(b, p, "post-sweep allocation order diverged");
                live.push(b);
            }
            // Identical addresses ⇒ the views must agree exactly.
            let bl: Vec<(u32, u32)> = bumpy.live_objects().map(|o| (o.base.raw(), o.bytes)).collect();
            let pl: Vec<(u32, u32)> = plain.live_objects().map(|o| (o.base.raw(), o.bytes)).collect();
            prop_assert_eq!(bl, pl, "live object walks diverged");
            for &a in &live {
                prop_assert_eq!(
                    bumpy.object_containing(a).map(|o| o.base),
                    plain.object_containing(a).map(|o| o.base)
                );
            }
            prop_assert_eq!(bumpy.generation_census(), plain.generation_census());
            check_lazy_census_consistency(&bumpy);
        }
        bumpy.finish_sweep();
        plain.finish_sweep();
        prop_assert_eq!(bumpy.stats(), plain.stats(), "settled accounting diverged");
    }

    /// The word-at-a-time sweep kernel decides exactly what the old
    /// slot-at-a-time loop decided: the same freed, live and promoted
    /// counts and the same allocation and old bits in every block, for
    /// full and minor sweeps, eager and lazy, across size classes whose
    /// slot count is not a multiple of 64. Typed and untyped objects reuse
    /// each other's slots, and `descriptor_of` must name exactly the
    /// descriptor of each slot's current occupant.
    #[test]
    fn sweep_kernel_matches_slot_at_a_time_reference(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..ORACLE_SIZES.len(), 0u8..4), 1..80),
                any::<u64>(),
                any::<bool>(),
            ),
            1..5,
        ),
        lazy: bool,
    ) {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 64 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        });
        let descs = [
            Descriptor::with_pointers_at(2, &[0]),
            Descriptor::with_pointers_at(3, &[1, 2]),
        ];
        let ids = descs.clone().map(|d| heap.register_descriptor(d));
        // Live object base → the descriptor it was allocated with.
        let mut model: BTreeMap<u32, Option<usize>> = BTreeMap::new();
        let mut freed_bases: Vec<u32> = Vec::new();
        for (allocs, mark_seed, minor) in rounds {
            for (size, how) in allocs {
                let bytes = ORACLE_SIZES[size];
                // 0, 1: typed with that descriptor; 2: composite; 3: atomic.
                let addr = match how {
                    0 | 1 => heap.alloc_typed(&mut space, bytes, ids[how as usize], &mut accept_all),
                    2 => heap.alloc(&mut space, bytes, ObjectKind::Composite, &mut accept_all),
                    _ => heap.alloc(&mut space, bytes, ObjectKind::Atomic, &mut accept_all),
                }
                .unwrap();
                model.insert(addr.raw(), (how < 2).then_some(how as usize));
            }
            heap.clear_marks();
            for (i, &base) in model.keys().enumerate() {
                if ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mark_seed).count_ones().is_multiple_of(2) {
                    let obj = heap.object_containing(Addr::new(base)).expect("tracked object");
                    heap.set_marked(obj);
                }
            }
            let want = reference_sweep(&heap, minor);
            let stats: SweepStats = match (lazy, minor) {
                (false, false) => heap.sweep(),
                (false, true) => heap.sweep_young(),
                (true, false) => heap.sweep_lazy(),
                (true, true) => heap.sweep_young_lazy(),
            };
            prop_assert_eq!(
                (stats.objects_freed, stats.objects_live, stats.objects_promoted),
                (want.freed, want.live, want.promoted)
            );
            if lazy {
                let before = heap.lazy_sweep_totals();
                heap.finish_sweep();
                let after = heap.lazy_sweep_totals();
                prop_assert_eq!(after.objects_freed - before.objects_freed, want.freed);
                prop_assert_eq!(after.objects_promoted - before.objects_promoted, want.promoted);
            }
            let got: BTreeMap<u32, SlotBits> = heap
                .blocks()
                .map(|b| {
                    let n = b.slots();
                    let bits = SlotBits {
                        allocated: (0..n).map(|s| b.is_allocated(s)).collect(),
                        old: (0..n).map(|s| b.is_old(s)).collect(),
                    };
                    (b.base().raw(), bits)
                })
                .collect();
            let kept: BTreeMap<u32, SlotBits> = want
                .blocks
                .into_iter()
                .filter_map(|(base, bits)| Some((base, bits?)))
                .collect();
            prop_assert_eq!(got, kept, "post-sweep allocation/old bits");
            model.retain(|&base, _| {
                let live = heap.object_containing(Addr::new(base)).is_some();
                if !live {
                    freed_bases.push(base);
                }
                live
            });
            // Descriptors follow each slot's current occupant: every slot
            // of every block, and every freed object base.
            for block in heap.blocks() {
                for slot in 0..block.slots() {
                    let base = block.slot_base(slot).raw();
                    let expected = model.get(&base).copied().flatten().map(|d| &descs[d]);
                    prop_assert_eq!(heap.descriptor_of(Addr::new(base)), expected);
                }
            }
            for &base in &freed_bases {
                let expected = model.get(&base).copied().flatten().map(|d| &descs[d]);
                prop_assert_eq!(heap.descriptor_of(Addr::new(base)), expected);
            }
        }
    }

    /// free + realloc round trips: the explicit heap recycles without
    /// leaking or corrupting accounting.
    #[test]
    fn explicit_heap_recycles(rounds in 1usize..30, batch in 1usize..40, bytes in 1u32..512) {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = ExplicitHeap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            growth_pages: 16,
            ..HeapConfig::default()
        });
        let mut peak_pages = 0;
        for _ in 0..rounds {
            let ptrs: Vec<Addr> =
                (0..batch).map(|_| heap.malloc(&mut space, bytes).unwrap()).collect();
            peak_pages = peak_pages.max(heap.stats().mapped_pages);
            for p in ptrs {
                heap.free(p).unwrap();
            }
            prop_assert_eq!(heap.stats().bytes_live, 0);
        }
        // Steady state: memory does not grow without bound across rounds.
        prop_assert_eq!(heap.stats().mapped_pages, peak_pages);
    }
}
