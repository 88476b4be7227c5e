//! Property-based tests for the heap substrate's structural invariants.

use gc_heap::{
    accept_all, BlockShape, Descriptor, ExplicitHeap, FreeListPolicy, Heap, HeapConfig, HeapError,
    MarkHit, ObjectKind, PageUse, SizeClass, SweepStats,
};
use gc_vmspace::{Addr, AddressSpace, Endian, PageIdx, PAGE_BYTES};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

fn heap(policy: FreeListPolicy) -> (AddressSpace, Heap) {
    let space = AddressSpace::new(Endian::Big);
    let heap = Heap::new(HeapConfig {
        heap_base: Addr::new(0x10_0000),
        max_heap_bytes: 64 << 20,
        growth_pages: 16,
        freelist_policy: policy,
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

/// The page table covers exactly the heap's span: one entry per page from
/// the (page-aligned) base up to the break, none for the rest of the space.
fn check_page_table_span(heap: &Heap, base: Addr) {
    let span = heap.hi().raw() - base.align_up(PAGE_BYTES).raw();
    assert_eq!(heap.page_table_pages(), span / PAGE_BYTES);
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
    /// Of `freed`, the objects of blocks with no survivor.
    freed_with_block: u64,
    live: u64,
    promoted: u64,
    /// Of `promoted`, the survivors of large blocks, which even a lazy
    /// sweep tenures at once.
    promoted_large: u64,
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
        let mut freed_here = 0;
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
                    if matches!(block.shape(), BlockShape::Large { .. }) {
                        out.promoted_large += 1;
                    }
                }
            } else {
                bits.allocated[slot as usize] = false;
                bits.old[slot as usize] = false;
                freed_here += 1;
            }
        }
        out.freed += freed_here;
        if live_here == 0 {
            out.freed_with_block += freed_here;
        }
        out.live += live_here;
        out.blocks
            .insert(block.base().raw(), (live_here > 0).then_some(bits));
    }
    out
}

/// The free slot addresses of the small blocks of one (size class, kind),
/// and those blocks' base addresses. A slot is free when no live object
/// holds it, so a pending block's condemned slots count as free.
fn free_slots(heap: &Heap, class: SizeClass, kind: ObjectKind) -> (Vec<u32>, HashSet<u32>) {
    let mut free = Vec::new();
    let mut bases = HashSet::new();
    for b in heap.blocks() {
        let small = matches!(b.shape(), BlockShape::Small { class: c } if *c == class);
        if small && b.kind() == kind {
            bases.insert(b.base().raw());
            let slots = (0..b.slots()).map(|s| b.slot_base(s));
            let slots = slots.filter(|&a| heap.object_containing(a).is_none());
            free.extend(slots.map(Addr::raw));
        }
    }
    (free, bases)
}

/// Allocates `bytes` of `kind` and checks the address-ordered policy's
/// allocation order, through public accessors only. For a small object:
/// - afterwards, no block of its (size class, kind) holds a free slot
///   below the returned address;
/// - its slot comes from a block that existed before the call, unless no
///   such block had a free slot (so the allocator took a fresh block).
fn alloc_lowest_free(
    heap: &mut Heap,
    space: &mut AddressSpace,
    bytes: u32,
    kind: ObjectKind,
) -> Addr {
    let class = SizeClass::for_bytes(bytes);
    let before = class.map(|c| free_slots(heap, c, kind));
    let addr = heap.alloc(space, bytes, kind, &mut accept_all).unwrap();
    if let (Some(class), Some((free_before, blocks_before))) = (class, before) {
        let (free_after, _) = free_slots(heap, class, kind);
        let below: Vec<u32> = free_after.into_iter().filter(|&a| a < addr.raw()).collect();
        assert!(below.is_empty(), "{addr}: free slots below it: {below:x?}");
        // A small block is one page.
        let block = addr.page().base().raw();
        assert!(
            blocks_before.contains(&block) || free_before.is_empty(),
            "{addr}: new block while slots were free: {free_before:x?}"
        );
    }
    addr
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

/// An operation in a random dirty-set trace.
#[derive(Debug, Clone)]
enum DirtyOp {
    Alloc(u32),
    Write(u32),
    SweepNothingMarked,
    Clear,
}

fn arb_dirty_op() -> impl Strategy<Value = DirtyOp> {
    prop_oneof![
        4 => (1u32..6000).prop_map(DirtyOp::Alloc),
        8 => (0u32..96 * PAGE_BYTES).prop_map(DirtyOp::Write),
        1 => Just(DirtyOp::SweepNothingMarked),
        1 => Just(DirtyOp::Clear),
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
                    let stats = heap.sweep(false);
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

    /// The dirty-page set is exactly the set of heap pages written since
    /// it was last cleared, listed in ascending order, across allocation,
    /// growth and sweeps that release and reuse pages; and dirty bits
    /// never disturb what a page resolves to.
    #[test]
    fn dirty_pages_match_a_reference_set(
        ops in proptest::collection::vec(arb_dirty_op(), 1..150),
    ) {
        let (mut space, mut heap) = heap(FreeListPolicy::AddressOrdered);
        let base = Addr::new(0x10_0000);
        let mut want: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                DirtyOp::Alloc(bytes) => {
                    heap.alloc(&mut space, bytes, ObjectKind::Composite, &mut accept_all).unwrap();
                }
                DirtyOp::Write(offset) => {
                    // From two pages below the base to well past the break.
                    let addr = Addr::new(base.raw() - 2 * PAGE_BYTES + offset);
                    if addr >= base && addr < heap.hi() {
                        want.insert(addr.page().raw());
                    }
                    heap.note_write(addr);
                }
                DirtyOp::SweepNothingMarked => {
                    heap.clear_marks();
                    heap.sweep(false);
                }
                DirtyOp::Clear => {
                    heap.clear_dirty();
                    want.clear();
                }
            }
            prop_assert_eq!(heap.dirty_page_count() as usize, want.len());
            let got: Vec<u32> = heap.dirty_pages().map(PageIdx::raw).collect();
            prop_assert_eq!(got, want.iter().copied().collect::<Vec<_>>());
            check_invariants(&heap);
        }
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
    /// trace swept eagerly: identical snapshot accounting, every object at
    /// the same address, identical liveness at every point — including
    /// while blocks are still pending and after a *partial* drain by the
    /// allocator — and an identical settled heap, page geometry included,
    /// once the deferred work is realized.
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
    ) {
        let (mut es, mut eager) = heap(FreeListPolicy::AddressOrdered);
        let (mut ls, mut lazy) = heap(FreeListPolicy::AddressOrdered);
        let mut handles: Vec<Addr> = Vec::new();
        for (allocs, mark_seed) in rounds {
            for (bytes, atomic) in allocs {
                let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                let e = eager.alloc(&mut es, bytes, kind, &mut accept_all).unwrap();
                let l = lazy.alloc(&mut ls, bytes, kind, &mut accept_all).unwrap();
                prop_assert_eq!(e, l, "both heaps place the object alike");
                handles.push(l);
            }
            // Mark the same subset in both heaps.
            eager.clear_marks();
            lazy.clear_marks();
            let survives = |i: usize| {
                ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mark_seed)
                    .count_ones()
                    .is_multiple_of(2)
            };
            let mut survivors = Vec::new();
            for (i, &a) in handles.iter().enumerate() {
                if survives(i) {
                    for heap in [&mut eager, &mut lazy] {
                        let obj = heap.object_containing(a).expect("tracked object");
                        heap.set_marked(obj);
                    }
                    survivors.push(a);
                }
            }
            let se = eager.sweep(false);
            let sl = lazy.sweep_lazy(false);
            // The lazy snapshot reports the identical reclamation up
            // front.
            prop_assert_eq!(se.objects_freed, sl.objects_freed);
            prop_assert_eq!(se.bytes_freed, sl.bytes_freed);
            prop_assert_eq!(se.objects_live, sl.objects_live);
            prop_assert_eq!(se.bytes_live, sl.bytes_live);
            prop_assert_eq!(se.objects_promoted, sl.objects_promoted);
            prop_assert_eq!(se.bytes_promoted, sl.bytes_promoted);
            prop_assert_eq!(se.blocks_released, sl.blocks_released);
            prop_assert_eq!(eager.stats(), lazy.stats());
            handles = survivors;
            // Liveness views agree while blocks are pending, and the lazy
            // heap's censuses stay self-consistent.
            check_lazy_census_consistency(&lazy);
            for &a in &handles {
                prop_assert!(eager.object_containing(a).is_some());
                prop_assert!(lazy.object_containing(a).is_some());
            }
            // Partially drain the pending blocks through allocation, the
            // same allocations landing in the eager heap.
            for _ in 0..drain {
                let e = eager.alloc(&mut es, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                let l = lazy.alloc(&mut ls, 16, ObjectKind::Composite, &mut accept_all).unwrap();
                prop_assert_eq!(e, l, "both heaps place the object alike");
                handles.push(l);
            }
            check_lazy_census_consistency(&lazy);
        }
        // Realizing the leftovers settles the lazy heap into the eager
        // one: mapped pages, block count, free runs and accounting.
        lazy.finish_sweep();
        prop_assert_eq!(lazy.pending_sweep_blocks(), 0);
        prop_assert_eq!(eager.stats(), lazy.stats());
        check_lazy_census_consistency(&lazy);
        let live = |heap: &Heap| {
            let mut v: Vec<(u32, u32)> = heap.live_objects().map(|o| (o.base.raw(), o.bytes)).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(live(&eager), live(&lazy));
    }

    /// `Heap::stats()` answers from incrementally maintained counters;
    /// this pins them to the from-scratch recomputation
    /// ([`Heap::recomputed_stats`]) after every step of a randomized
    /// alloc/free/sweep trace — eager and lazy, both free-list policies.
    #[test]
    fn incremental_stats_match_recomputation(
        ops in proptest::collection::vec(arb_op(), 1..120),
        lifo: bool,
        lazy: bool,
    ) {
        let policy = if lifo { FreeListPolicy::Lifo } else { FreeListPolicy::AddressOrdered };
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 64 << 20,
            growth_pages: 16,
            freelist_policy: policy,
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
                    if lazy { heap.sweep_lazy(false); } else { heap.sweep(false); }
                }
            }
            prop_assert_eq!(heap.stats(), heap.recomputed_stats());
            check_page_table_span(&heap, Addr::new(0x10_0000));
        }
        heap.finish_sweep();
        prop_assert_eq!(heap.stats(), heap.recomputed_stats());
    }

    /// The address-ordered policy's allocation-order oracle, checked
    /// after every small allocation of a trace with explicit frees, full
    /// and minor collections swept eagerly or lazily, and partial drains
    /// that leave blocks pending (see
    /// [`alloc_lowest_free`]).
    #[test]
    fn allocation_takes_the_lowest_free_slot(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((1u32..3000, any::<bool>()), 1..60),
                any::<u64>(),
                any::<bool>(),
                proptest::collection::vec(any::<usize>(), 0..8),
            ),
            1..4,
        ),
        drain in 0usize..8,
        lazy: bool,
    ) {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 64 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        });
        let mut live: Vec<Addr> = Vec::new();
        for (allocs, mark_seed, minor, frees) in rounds {
            for (bytes, atomic) in allocs {
                let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                live.push(alloc_lowest_free(&mut heap, &mut space, bytes, kind));
            }
            heap.clear_marks();
            let mut survivors = Vec::new();
            for (i, &a) in live.iter().enumerate() {
                if picked(i, mark_seed) {
                    let obj = heap.object_containing(a).expect("tracked object");
                    heap.set_marked(obj);
                    survivors.push(a);
                }
            }
            if lazy { heap.sweep_lazy(minor); } else { heap.sweep(minor); }
            live = survivors;
            for _ in 0..drain {
                live.push(alloc_lowest_free(&mut heap, &mut space, 16, ObjectKind::Composite));
            }
            // Survivors free cleanly, realizing their block's sweep first
            // when it is still pending.
            for i in frees {
                if !live.is_empty() {
                    heap.free_object(live.swap_remove(i % live.len())).unwrap();
                }
            }
            check_lazy_census_consistency(&heap);
        }
        heap.finish_sweep();
        prop_assert_eq!(heap.stats(), heap.recomputed_stats());
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
                    0 | 1 => heap.alloc_with(&mut space, bytes, ObjectKind::Composite, Some(ids[how as usize]), &mut accept_all),
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
            let stats: SweepStats = if lazy { heap.sweep_lazy(minor) } else { heap.sweep(minor) };
            prop_assert_eq!(
                (stats.objects_freed, stats.objects_live, stats.objects_promoted),
                (want.freed, want.live, want.promoted)
            );
            if lazy {
                // The snapshot releases blocks with no survivor and sweeps
                // large blocks; the deferred sweep frees the rest.
                let before = heap.lazy_sweep_totals();
                heap.finish_sweep();
                let after = heap.lazy_sweep_totals();
                prop_assert_eq!(
                    after.objects_freed - before.objects_freed,
                    want.freed - want.freed_with_block
                );
                prop_assert_eq!(
                    after.objects_promoted - before.objects_promoted,
                    want.promoted - want.promoted_large
                );
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

/// One round of the mark-kernel oracle's trace: allocations (an
/// `ORACLE_SIZES` index, and 0/1 typed, 2 composite, 3 atomic), then a
/// collection that marks the objects a seed picks and sweeps full or minor
/// (third field), eagerly or lazily (fourth).
type KernelRound = (Vec<(usize, u8)>, u64, bool, bool);

/// Whether object `i` of a trace is one the seed picks (about half).
fn picked(i: usize, seed: u64) -> bool {
    ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed)
        .count_ones()
        .is_multiple_of(2)
}

/// Marks whatever live object now holds each picked base.
fn mark_picked(heap: &mut Heap, bases: &[u32], seed: u64) {
    for (i, &base) in bases.iter().enumerate() {
        if picked(i, seed) {
            if let Some(obj) = heap.object_containing(Addr::new(base)) {
                heap.set_marked(obj);
            }
        }
    }
}

/// Replays an oracle trace into a fresh heap; also returns every object
/// base the trace allocated, dead ones included. Swept blocks release and
/// their ids are reused by later rounds. A last lazy round's snapshot stays
/// pending when `pending` is set; otherwise the marks are cleared and the
/// objects `premark` picks are marked, as in a mark phase under way.
fn kernel_heap(rounds: &[KernelRound], pending: bool, premark: u64) -> (Heap, Vec<u32>) {
    let mut space = AddressSpace::new(Endian::Big);
    let mut heap = Heap::new(HeapConfig {
        heap_base: Addr::new(0x10_0000),
        max_heap_bytes: 64 << 20,
        growth_pages: 16,
        ..HeapConfig::default()
    });
    let ids = [
        Descriptor::with_pointers_at(2, &[0]),
        Descriptor::with_pointers_at(3, &[1, 2]),
    ]
    .map(|d| heap.register_descriptor(d));
    let mut bases = Vec::new();
    for (allocs, mark_seed, minor, lazy) in rounds {
        for &(size, how) in allocs {
            let bytes = ORACLE_SIZES[size];
            let addr = match how {
                0 | 1 => heap.alloc_with(
                    &mut space,
                    bytes,
                    ObjectKind::Composite,
                    Some(ids[how as usize]),
                    &mut accept_all,
                ),
                2 => heap.alloc(&mut space, bytes, ObjectKind::Composite, &mut accept_all),
                _ => heap.alloc(&mut space, bytes, ObjectKind::Atomic, &mut accept_all),
            }
            .unwrap();
            bases.push(addr.raw());
        }
        heap.clear_marks();
        mark_picked(&mut heap, &bases, *mark_seed);
        if *lazy {
            heap.sweep_lazy(*minor);
        } else {
            heap.sweep(*minor);
        }
    }
    if !(pending && heap.pending_sweep_blocks() > 0) {
        heap.clear_marks();
        mark_picked(&mut heap, &bases, premark);
    }
    (heap, bases)
}

/// Candidate addresses for the kernel oracle, in an order `seed` scrambles
/// so consecutive probes jump between pages: bases, unaligned and aligned
/// interiors, the last bytes of each size, first-page boundaries, the
/// trailing waste of small blocks and the space past a large object's end,
/// and addresses outside the heap.
fn kernel_probes(heap: &Heap, bases: &[u32], seed: u64) -> Vec<Addr> {
    let mut probes: Vec<u32> = Vec::new();
    for &base in bases {
        for off in [0, 1, 4, 11, 39, 2047, 2999, 4095, 4096, 8999, 9000, 12287] {
            probes.push(base.wrapping_add(off));
        }
    }
    for block in heap.blocks() {
        let used = block.base() + block.slots() * block.obj_bytes();
        let end = block.base() + block.npages() * PAGE_BYTES;
        if used < end {
            probes.extend([used.raw(), end.raw() - 4]);
        }
    }
    probes.extend([0, 0x10_0000 - 4, heap.hi().raw(), heap.hi().raw() + 4]);
    probes.sort_by_key(|&a| (u64::from(a) ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    probes.into_iter().map(Addr::new).collect()
}

/// The pointer policies, as `accept(addr, base)`.
fn all_interior(_addr: Addr, _base: Addr) -> bool {
    true
}
fn first_page(addr: Addr, base: Addr) -> bool {
    addr.offset_from(base) < PAGE_BYTES
}
fn base_only(addr: Addr, base: Addr) -> bool {
    addr == base
}

/// The composition the mark kernel replaced: resolve, apply the policy,
/// stop at the minor-mode old boundary, then test-and-set the mark bit.
fn reference_mark(
    heap: &mut Heap,
    addr: Addr,
    policy: fn(Addr, Addr) -> bool,
    minor: bool,
) -> MarkHit {
    let Some(obj) = heap
        .object_containing(addr)
        .filter(|o| policy(addr, o.base))
    else {
        return MarkHit::Invalid;
    };
    if minor && heap.is_old(obj) {
        MarkHit::Valid
    } else if heap.set_marked(obj) {
        MarkHit::Newly(obj)
    } else {
        MarkHit::Valid
    }
}

/// Every block's mark bits, keyed by block base.
fn mark_bits(heap: &Heap) -> BTreeMap<u32, Vec<bool>> {
    heap.blocks()
        .map(|b| {
            (
                b.base().raw(),
                (0..b.slots()).map(|s| b.is_marked(s)).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Heap::mark_candidate` gives the same outcome for every candidate,
    /// and leaves the same mark bits, as the reference composition, on
    /// random heaps with small and large blocks, typed and untyped slots,
    /// trailing waste, pending lazy snapshots (full and minor) and reused
    /// block ids — for every pointer policy, in full and minor mode. The
    /// scan's `descriptor_of_obj` agrees with `descriptor_of` on every live
    /// object.
    #[test]
    fn mark_kernel_matches_reference_composition(
        rounds in proptest::collection::vec(
            (
                proptest::collection::vec((0usize..ORACLE_SIZES.len(), 0u8..4), 1..60),
                any::<u64>(),
                any::<bool>(),
                any::<bool>(),
            ),
            1..4,
        ),
        pending: bool,
        premark: u64,
        order: u64,
    ) {
        let (heap, bases) = kernel_heap(&rounds, pending, premark);
        for obj in heap.live_objects() {
            prop_assert_eq!(heap.descriptor_of_obj(obj), heap.descriptor_of(obj.base));
        }
        let probes = kernel_probes(&heap, &bases, order);
        let policies: [fn(Addr, Addr) -> bool; 3] = [all_interior, first_page, base_only];
        for (p, policy) in policies.into_iter().enumerate() {
            for minor in [false, true] {
                let (kernel, _) = kernel_heap(&rounds, pending, premark);
                let (mut reference, _) = kernel_heap(&rounds, pending, premark);
                for &addr in &probes {
                    let got = kernel.mark_candidate(addr, minor, |base| policy(addr, base));
                    let want = reference_mark(&mut reference, addr, policy, minor);
                    prop_assert_eq!(got, want, "{} policy {} minor {}", addr, p, minor);
                }
                prop_assert_eq!(mark_bits(&kernel), mark_bits(&reference));
            }
        }
    }
}

/// Heap bases at the bottom and the top of the 32-bit space, the last one
/// inside the top page.
const EDGE_BASES: [u32; 4] = [0x10_0000, 0xFFF0_0000, 0xFFFF_0000, 0xFFFF_F800];

/// Heap limits: none, less than a page, one page, 16 pages.
const EDGE_LIMITS: [u64; 4] = [0, 4095, 4096, 64 << 10];

/// Request sizes at the edges: zero, one, each size class and one byte
/// more, a page and its neighbours, and the last four 32-bit sizes.
fn edge_sizes() -> Vec<u32> {
    let mut sizes = vec![0, 1, PAGE_BYTES - 1, PAGE_BYTES, PAGE_BYTES + 1];
    sizes.extend(SizeClass::all().flat_map(|c| [c.bytes(), c.bytes() + 1]));
    sizes.extend(0xFFFF_FFFC..=u32::MAX);
    sizes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Edge inputs end in a result, never a panic or a wrapped address:
    /// every allocation returns an in-range object that overlaps no other,
    /// `ZeroSized`, or `OutOfMemory` — which names the pages it was denied
    /// whenever the predicate saw pages and rejected them all — and the
    /// incremental stats match their recomputation after every step.
    #[test]
    fn edge_inputs_return_errors_not_panics(
        base in 0usize..EDGE_BASES.len(),
        limit in 0usize..EDGE_LIMITS.len(),
        ops in proptest::collection::vec((any::<usize>(), any::<bool>(), 0u8..10), 1..60),
        deny_all: bool,
        lifo: bool,
        lazy: bool,
    ) {
        let sizes = edge_sizes();
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(EDGE_BASES[base]),
            max_heap_bytes: EDGE_LIMITS[limit],
            growth_pages: 4,
            freelist_policy: if lifo { FreeListPolicy::Lifo } else { FreeListPolicy::AddressOrdered },
        });
        let offered = Cell::new(0u32);
        let mut pred = |_: PageIdx, _: PageUse| {
            offered.set(offered.get() + 1);
            !deny_all
        };
        let mut live: Vec<Addr> = Vec::new();
        for (pick, atomic, action) in ops {
            match action {
                0 => {
                    heap.clear_marks();
                    for &a in &live {
                        let obj = heap.object_containing(a).expect("tracked object is live");
                        heap.set_marked(obj);
                    }
                    if lazy { heap.sweep_lazy(false); } else { heap.sweep(false); }
                }
                1 if !live.is_empty() => {
                    heap.free_object(live.swap_remove(pick % live.len())).unwrap();
                }
                _ => {
                    let bytes = sizes[pick % sizes.len()];
                    let kind = if atomic { ObjectKind::Atomic } else { ObjectKind::Composite };
                    let offered_before = offered.get();
                    match heap.alloc(&mut space, bytes, kind, &mut pred) {
                        Ok(addr) => {
                            let obj = heap.object_containing(addr).expect("new object resolves");
                            prop_assert_eq!(obj.base, addr);
                            prop_assert!(obj.bytes >= bytes);
                            prop_assert!(heap.in_heap_range(addr));
                            let end = u64::from(addr.raw()) + u64::from(obj.bytes);
                            prop_assert!(end <= (1 << 32) - u64::from(PAGE_BYTES), "{addr} + {}", obj.bytes);
                            live.push(addr);
                        }
                        Err(HeapError::ZeroSized) => prop_assert_eq!(bytes, 0),
                        Err(HeapError::OutOfMemory { requested, pages_denied }) => {
                            prop_assert!(bytes > 0);
                            prop_assert!(requested >= bytes);
                            if deny_all && offered.get() > offered_before {
                                prop_assert!(pages_denied > 0, "{bytes:#x}: every offered page was denied");
                            }
                        }
                        Err(e) => panic!("{bytes:#x}: unexpected error {e}"),
                    }
                }
            }
            check_invariants(&heap);
            prop_assert_eq!(heap.stats(), heap.recomputed_stats());
            check_page_table_span(&heap, Addr::new(EDGE_BASES[base]));
        }
    }
}
