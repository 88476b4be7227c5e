//! The block table under id recycling, and heap growth at the top of the
//! 32-bit space.

use super::*;
use gc_vmspace::Endian;

fn setup(sweep_budget: u32) -> (AddressSpace, Heap) {
    let space = AddressSpace::new(Endian::Big);
    let heap = Heap::new(HeapConfig {
        heap_base: Addr::new(0x0003_0000),
        max_heap_bytes: 8 << 20,
        growth_pages: 16,
        sweep_budget,
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
    let (mut space, mut heap) = setup(64);
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
            heap.sweep();
        } else {
            heap.sweep_lazy();
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
    let (mut space, mut heap) = setup(64);
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
    assert_eq!(heap.sweep().blocks_released, 1);
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
    assert_eq!(cache.block_for(old_page, &heap.page_map), None);
    assert_eq!(resolve_cached(&mut heap, doomed, &mut cache), None);
    assert_eq!(resolve_cached(&mut heap, fresh, &mut cache), Some(reused));
}

#[test]
fn stale_pending_entry_naming_a_reused_id_is_skipped() {
    let (mut space, mut heap) = setup(1);
    // Block A: a full page of 16-byte objects, all garbage. Block B: one
    // survivor. Both queue for the 16-byte class, A first.
    let a: Vec<Addr> = (0..256).map(|_| alloc(&mut space, &mut heap, 16)).collect();
    let b = alloc(&mut space, &mut heap, 16);
    let a_id = heap.object_containing(a[0]).unwrap().block;
    heap.clear_marks();
    let bo = heap.object_containing(b).unwrap();
    heap.set_marked(bo);
    heap.sweep_lazy();
    assert_eq!(heap.pending_sweep_blocks(), 2);
    // Freeing into A realizes its sweep, which releases it; its queue
    // entry stays behind.
    assert_eq!(
        heap.free_object(a[0]),
        Err(HeapError::NotAnObject { addr: a[0] })
    );
    assert!(heap.block(a_id).is_none());
    // A fresh, non-pending block of another class takes A's id.
    let other = alloc(&mut space, &mut heap, 100);
    let other_obj = heap.object_containing(other).unwrap();
    assert_eq!(other_obj.block, a_id);
    assert!(!heap.block(a_id).unwrap().is_pending_sweep());
    // At budget 1 the stale entry must be skipped without sweeping the
    // fresh block or spending the budget: B is swept and serves the slot.
    let next = alloc(&mut space, &mut heap, 16);
    assert_eq!(next, b + 16, "B's never-used tail serves the request");
    assert_eq!(heap.pending_sweep_blocks(), 0);
    assert_eq!(heap.lazy_sweep_totals().blocks_swept, 2);
    assert_eq!(heap.object_containing(other), Some(other_obj));
    assert_eq!(heap.block(a_id).unwrap().live_objects(), 1);
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
