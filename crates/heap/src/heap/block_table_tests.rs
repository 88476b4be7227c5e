//! The block table under id recycling, and heap growth at the top of the
//! 32-bit space.

use super::*;
use gc_vmspace::Endian;

fn setup() -> (AddressSpace, Heap) {
    let space = AddressSpace::new(Endian::Big);
    let heap = Heap::new(HeapConfig {
        heap_base: Addr::new(0x0003_0000),
        max_heap_bytes: 8 << 20,
        growth_pages: 16,
        ..HeapConfig::default()
    });
    (space, heap)
}

fn alloc(space: &mut AddressSpace, heap: &mut Heap, bytes: u32) -> Addr {
    heap.alloc(space, bytes, ObjectKind::Composite, &mut accept_all)
        .unwrap()
}

#[test]
fn block_table_is_bounded_by_peak_live_blocks() {
    let (mut space, mut heap) = setup();
    let mut peak = 0;
    for round in 0..40usize {
        let n = 200 + (round * 37) % 900;
        for i in 0..n {
            alloc(&mut space, &mut heap, [8, 24, 100, 600, 5000][i % 5]);
            peak = peak.max(heap.stats().blocks);
        }
        // Nothing marked: every block dies, eagerly or lazily.
        heap.clear_marks();
        if round % 2 == 0 {
            heap.sweep(false);
        } else {
            heap.sweep_lazy(false);
        }
        assert!(
            heap.blocks.len() as u32 <= peak,
            "round {round}: table of {} for a peak of {peak} live blocks",
            heap.blocks.len()
        );
    }
    heap.finish_sweep();
    assert_eq!(heap.stats().blocks, 0);
    assert_eq!(heap.free_ids.len(), heap.blocks.len(), "every id is free");
}

#[test]
fn resolve_cache_never_maps_a_released_page_to_a_reused_id() {
    let (mut space, mut heap) = setup();
    let doomed = alloc(&mut space, &mut heap, 8);
    let keep = alloc(&mut space, &mut heap, 100);
    let old_id = heap.object_containing(doomed).unwrap().block;
    let mut cache = PageResolveCache::new();
    assert_eq!(
        resolve_cached(&mut heap, doomed, &mut cache).map(|o| o.block),
        Some(old_id)
    );
    heap.clear_marks();
    let k = heap.object_containing(keep).unwrap();
    heap.set_marked(k);
    assert_eq!(heap.sweep(false).blocks_released, 1);
    // The next block takes the freed id, on a different page.
    let old_page = doomed.page();
    let mut elsewhere = |p: PageIdx, _: PageUse| p != old_page;
    let fresh = heap
        .alloc(&mut space, 8, ObjectKind::Composite, &mut elsewhere)
        .unwrap();
    let reused = heap.object_containing(fresh).unwrap();
    assert_eq!(reused.block, old_id, "the freed id was reused");
    assert_ne!(fresh.page(), old_page);
    // The entry filled before the release must not name the new block.
    assert_eq!(cache.block_for(old_page, &heap.page_table), None);
    assert_eq!(resolve_cached(&mut heap, doomed, &mut cache), None);
    assert_eq!(resolve_cached(&mut heap, fresh, &mut cache), Some(reused));
}

#[test]
fn growth_at_the_top_of_the_space_fills_what_fits_then_fails() {
    // Pages below the ceiling for each base, including one inside the top
    // page, where nothing fits.
    for (base, fits) in [
        (0xFFF0_0000u32, 255u32),
        (0xFFFF_0000, 15),
        (0xFFFF_F800, 0),
    ] {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(base),
            ..HeapConfig::default()
        });
        let mut placed = 0u32;
        let err = loop {
            match heap.alloc(&mut space, PAGE_BYTES, ObjectKind::Atomic, &mut accept_all) {
                Ok(a) => {
                    assert!(u64::from(a.raw() + PAGE_BYTES) <= HEAP_CEILING);
                    placed += 1;
                    assert!(placed <= fits, "base {base:#x}: more pages than fit");
                }
                Err(e) => break e,
            }
        };
        assert!(
            matches!(err, HeapError::OutOfMemory { .. }),
            "base {base:#x}: {err}"
        );
        assert_eq!(placed, fits, "base {base:#x}");
        assert_eq!(heap.stats().mapped_pages, fits);
        assert!(heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .is_err());
        if fits > 0 {
            assert_eq!(u64::from(heap.hi().raw()), HEAP_CEILING);
            assert!(heap.lo().unwrap() < heap.hi());
        }
    }
}

#[test]
fn sizes_near_four_gib_are_out_of_memory_in_every_build() {
    let (mut space, mut heap) = setup();
    alloc(&mut space, &mut heap, 8);
    let before = heap.stats();
    // 0xFFFF_FFFC still rounds to a granule; rounded up, the three sizes
    // above it do not fit in 32 bits (unchecked, they wrap to 0 in release
    // builds and map a zero-page block).
    for bytes in [0xFFFF_FFFC, 0xFFFF_FFFD, 0xFFFF_FFFE, u32::MAX] {
        for kind in [ObjectKind::Composite, ObjectKind::Atomic] {
            assert_eq!(
                heap.alloc(&mut space, bytes, kind, &mut accept_all),
                Err(HeapError::OutOfMemory {
                    requested: bytes,
                    pages_denied: 0,
                }),
                "{bytes:#x}"
            );
        }
    }
    assert_eq!(heap.stats(), before);
    assert_eq!(heap.stats(), heap.recomputed_stats());
}

#[test]
fn a_new_heap_reserves_no_page_entries() {
    let (_, heap) = setup();
    assert_eq!(heap.page_table_pages(), 0);
    assert_eq!(heap.page_table_bytes(), 0);
}

/// Grows a heap at `base` past a foreign segment mapped at `occupant`, so
/// that an expansion jumps over it, then checks that the page table
/// resolves only heap pages: nothing below the base, inside the occupant,
/// at the break or in the top page; every block page to its block; and
/// the pages mapped after the jump still clean for the zero-fill skip.
/// Returns how many objects landed above the occupant.
fn check_span_across_a_foreign_segment(base: u32, occupant: (u32, u32)) -> usize {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "foreign",
            SegmentKind::Data,
            Addr::new(occupant.0),
            occupant.1,
        ))
        .unwrap();
    let mut heap = Heap::new(HeapConfig {
        heap_base: Addr::new(base),
        growth_pages: 16,
        ..HeapConfig::default()
    });
    let first = Addr::new(base).align_up(PAGE_BYTES);
    let occupant_end = u64::from(occupant.0) + u64::from(occupant.1);
    let mut above = Vec::new();
    for i in 0..400 {
        let (bytes, kind) = [
            (8, ObjectKind::Composite),
            (5000, ObjectKind::Atomic),
            (100, ObjectKind::Atomic),
        ][i % 3];
        let Ok(addr) = heap.alloc(&mut space, bytes, kind, &mut accept_all) else {
            break;
        };
        if u64::from(addr.raw()) >= occupant_end {
            above.push(addr);
        }
        let span = (heap.hi().raw() - first.raw()) / PAGE_BYTES;
        assert_eq!(heap.page_table_pages(), span, "base {base:#x}");
    }
    let hi = heap.hi();
    let mut outside = vec![hi, Addr::new(0xFFFF_F000), Addr::new(u32::MAX - 3)];
    outside.extend((1..=2).filter_map(|k| first.checked_sub(k * 4)));
    let inside = [0, 4, PAGE_BYTES + 8, occupant.1 - 4].into_iter();
    outside.extend(
        inside
            .filter(|&o| o < occupant.1)
            .map(|o| Addr::new(occupant.0 + o)),
    );
    outside.extend(hi.checked_add(4));
    for a in outside {
        assert_eq!(heap.object_containing(a), None, "base {base:#x}: {a}");
    }
    for block in heap.blocks() {
        assert!(block.zeroed, "base {base:#x}: never-reused pages are clean");
        for i in 0..block.npages() {
            let page = PageIdx::new(block.base().page().raw() + i);
            assert_eq!(heap.page_table.get(page), Some(block.id), "{page:?}");
        }
    }
    let last = Addr::new(occupant.0 + (occupant.1 - 1)).page();
    for p in Addr::new(occupant.0).page().raw()..=last.raw() {
        let page = PageIdx::new(p);
        assert_eq!(heap.page_table.get(page), None);
        if let Some(&v) = heap.page_table.slots.get(heap.page_table.index(page)) {
            assert_eq!(v & PageTable::CLEAN, 0, "a jumped page is never clean");
        }
    }
    for &a in &above {
        let obj = heap
            .object_containing(a)
            .expect("object above the jump resolves");
        assert_eq!(obj.base, a);
        let bytes = space.bytes_at(a, obj.bytes).unwrap();
        assert!(bytes.iter().all(|&b| b == 0), "{a} is zero-filled");
    }
    above.len()
}

#[test]
fn the_page_table_resolves_only_heap_pages_across_a_jump() {
    // An occupant right behind the first 16-page increment, at an
    // ordinary base and near the top of the space.
    let page = PAGE_BYTES;
    for base in [0x0003_0000, 0xFFF0_0000] {
        let jumped = check_span_across_a_foreign_segment(base, (base + 16 * page, 3 * page));
        assert!(
            jumped > 0,
            "base {base:#x}: the heap grew past the occupant"
        );
    }
    // Nothing fits above this base; the occupant takes the top page.
    assert_eq!(
        check_span_across_a_foreign_segment(0xFFFF_F800, (0xFFFF_F000, page)),
        0
    );
}

#[test]
#[should_panic]
fn writing_a_page_below_the_base_fails_loudly() {
    let (mut space, mut heap) = setup();
    alloc(&mut space, &mut heap, 8);
    let below = PageIdx::new(Addr::new(0x0003_0000).page().raw() - 1);
    heap.page_table.set(below, BlockId(0));
}

/// The pages `note_write` recorded, as raw page numbers.
fn dirty(heap: &Heap) -> Vec<u32> {
    heap.dirty_pages().map(PageIdx::raw).collect()
}

#[test]
fn writes_outside_the_heap_leave_the_dirty_set_alone() {
    // An ordinary base, one whose heap grows up to the ceiling, and one
    // where a foreign segment occupies the base, so the heap starts above.
    for (base, occupied) in [
        (0x0003_0000u32, false),
        (0xFFF0_0000, false),
        (0x0003_0000, true),
    ] {
        let mut space = AddressSpace::new(Endian::Big);
        if occupied {
            let spec = SegmentSpec::new(
                "foreign",
                SegmentKind::Data,
                Addr::new(base),
                2 * PAGE_BYTES,
            );
            space.map(spec).unwrap();
        }
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(base),
            growth_pages: 16,
            ..HeapConfig::default()
        });
        heap.note_write(Addr::new(base));
        assert_eq!(heap.dirty_page_count(), 0, "an empty heap has no pages");
        while heap
            .alloc(&mut space, PAGE_BYTES, ObjectKind::Atomic, &mut accept_all)
            .is_ok()
            && heap.stats().mapped_pages < 300
        {}
        let (lo, hi) = (heap.lo().unwrap(), heap.hi());
        if base > 0x8000_0000 {
            assert_eq!(hi, Addr::new(0xFFFF_F000), "the heap reached the top page");
        }
        assert_eq!(lo > Addr::new(base), occupied);
        let mut outside = vec![hi, Addr::new(0xFFFF_F000), Addr::new(u32::MAX - 3)];
        outside.extend(lo.checked_sub(4));
        if occupied {
            outside.push(Addr::new(base));
        }
        outside.extend(hi.checked_add(4));
        for a in outside {
            heap.note_write(a);
        }
        assert_eq!(heap.dirty_page_count(), 0, "base {base:#x}");
        assert_eq!(dirty(&heap), Vec::<u32>::new());
        heap.note_write(hi - 4);
        heap.note_write(lo);
        assert_eq!(dirty(&heap), [lo.page().raw(), (hi - 4).page().raw()]);
    }
}

#[test]
fn dirty_pages_come_out_ascending_and_counted_exactly() {
    let (mut space, mut heap) = setup();
    while heap.stats().mapped_pages < 64 {
        alloc(&mut space, &mut heap, 5000);
    }
    let first = heap.lo().unwrap().page().raw();
    let pages = heap.stats().mapped_pages;
    let mut want = std::collections::BTreeSet::new();
    for k in 0..300u32 {
        // Descending-ish, repeating page order; any offset in the page.
        let page = first + (pages - 1) - (k * 37) % pages;
        heap.note_write(Addr::new(page * PAGE_BYTES + (k * 52) % PAGE_BYTES));
        want.insert(page);
        assert_eq!(heap.dirty_page_count() as usize, want.len());
    }
    assert_eq!(dirty(&heap), want.into_iter().collect::<Vec<_>>());
}

#[test]
fn the_dirty_bit_survives_release_and_reuse_without_an_epoch_bump() {
    let (mut space, mut heap) = setup();
    let a = alloc(&mut space, &mut heap, 8);
    let other = alloc(&mut space, &mut heap, 5000);
    let epoch = heap.page_table.epoch;
    heap.note_write(a);
    heap.note_write(other + 4096);
    assert_eq!(heap.page_table.epoch, epoch, "dirtying maps no block");
    // Nothing marked: both blocks are released.
    heap.clear_marks();
    heap.sweep(false);
    assert_eq!(heap.page_table.get(a.page()), None, "released");
    assert_eq!(dirty(&heap), [a.page().raw(), (other + 4096).page().raw()]);
    // The released page is mapped to a new block.
    let b = alloc(&mut space, &mut heap, 24);
    assert_eq!(b.page(), a.page(), "the lowest free page is reused");
    assert!(heap.page_table.get(b.page()).is_some());
    assert_eq!(heap.dirty_page_count(), 2);
    assert_eq!(dirty(&heap)[0], b.page().raw());
    let epoch = heap.page_table.epoch;
    heap.clear_dirty();
    assert_eq!(heap.page_table.epoch, epoch, "clearing maps no block");
    assert_eq!(heap.dirty_page_count(), 0);
    assert_eq!(dirty(&heap), Vec::<u32>::new());
    assert_eq!(
        heap.page_table.get(b.page()),
        heap.object_containing(b).map(|o| o.block)
    );
}
