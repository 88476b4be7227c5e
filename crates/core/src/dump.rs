//! Human-readable collector state dumps — the `GC_dump` analogue.
//!
//! The paper's diagnosis workflow ("a quick examination of the blacklist
//! in a statically linked SPARC executable suggests…", observation 7;
//! appendix B's tracked-down leak sources) relies on being able to *look*
//! at the collector's state. [`Collector::dump`](crate::Collector::dump)
//! renders the heap, the blacklist and the root map as text.

use crate::Collector;
use gc_heap::BlockShape;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders a multi-line report of the collector's current state.
pub(crate) fn dump(gc: &Collector) -> String {
    let mut out = String::new();
    let heap = gc.heap();
    let stats = heap.stats();
    let _ = writeln!(out, "=== collector state ===");
    let _ = writeln!(
        out,
        "heap: {} pages mapped ({} KB), {} free ({} quarantined), largest free run {} pages",
        stats.mapped_pages,
        stats.mapped_pages * 4,
        stats.free_pages,
        heap.quarantined_pages(),
        stats.largest_free_run,
    );
    let _ = writeln!(
        out,
        "live: {} bytes in {} blocks; {} bytes allocated over the program's lifetime",
        stats.bytes_live, stats.blocks, stats.bytes_allocated_total,
    );
    let (young, old) = heap.generation_census();
    let _ = writeln!(out, "generations: {young} young / {old} old objects");
    if gc.config().lazy_sweep || heap.pending_sweep_blocks() > 0 {
        let totals = heap.lazy_sweep_totals();
        let _ = writeln!(
            out,
            "lazy sweep: {} block(s) pending, epoch {}; realized {} block(s) swept, {} bytes freed",
            heap.pending_sweep_blocks(),
            heap.sweep_epoch(),
            totals.blocks_swept,
            totals.bytes_freed,
        );
    }

    // Blocks grouped by (size, kind).
    let mut by_shape: BTreeMap<(u32, &'static str), (u32, u64)> = BTreeMap::new();
    for block in heap.blocks() {
        let kind = match block.kind() {
            gc_heap::ObjectKind::Composite => "composite",
            gc_heap::ObjectKind::Atomic => "atomic",
        };
        let label = match block.shape() {
            BlockShape::Small { .. } => (block.obj_bytes(), kind),
            BlockShape::Large { obj_bytes } => (*obj_bytes, kind),
        };
        let e = by_shape.entry(label).or_insert((0, 0));
        e.0 += 1;
        // Pending-aware: survivors only, whether or not the block's
        // deferred sweep has run yet.
        e.1 += u64::from(heap.live_objects_in(block));
    }
    let _ = writeln!(out, "--- blocks by object size ---");
    for ((bytes, kind), (blocks, live)) in by_shape {
        let _ = writeln!(
            out,
            "{bytes:>8} B {kind:<9}: {blocks:>4} block(s), {live:>7} live"
        );
    }

    // Blacklist.
    let bl = gc.blacklist();
    let _ = writeln!(
        out,
        "--- blacklist: {} page(s), {} false refs observed ---",
        bl.len(),
        bl.total_noted()
    );
    // Truncate the listing to a screenful of blacklisted pages.
    const BLACKLIST_PAGES_PER_LINE: usize = 6;
    const BLACKLIST_LINES: usize = 12;
    const BLACKLIST_PAGES_SHOWN: usize = BLACKLIST_PAGES_PER_LINE * BLACKLIST_LINES;
    let pages = bl.pages();
    for chunk in pages.chunks(BLACKLIST_PAGES_PER_LINE).take(BLACKLIST_LINES) {
        let line: Vec<String> = chunk
            .iter()
            .map(|p| {
                let src = bl
                    .source_of(*p)
                    .map(|s| format!("({s})"))
                    .unwrap_or_default();
                format!("{}{}", p.base(), src)
            })
            .collect();
        let _ = writeln!(out, "  {}", line.join("  "));
    }
    if pages.len() > BLACKLIST_PAGES_SHOWN {
        let _ = writeln!(out, "  … {} more", pages.len() - BLACKLIST_PAGES_SHOWN);
    }

    // Roots.
    let _ = writeln!(out, "--- root segments ---");
    for seg in gc.space().roots() {
        let (lo, end) = seg.scan_range();
        let _ = writeln!(
            out,
            "  {:<18} {} [{}..{:#010x}) scanned {} bytes",
            seg.name(),
            seg.kind(),
            lo,
            end,
            (end - u64::from(lo.raw())),
        );
    }
    let s = gc.stats();
    let _ = writeln!(
        out,
        "--- {} collection(s) ({} minor, {} increments), {} root words scanned, {} false refs ---",
        s.collections, s.minor_collections, s.increments, s.total_root_words, s.total_false_refs,
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::{Collector, GcConfig};
    use gc_heap::{HeapConfig, ObjectKind};
    use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};

    #[test]
    fn dump_covers_all_sections() {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "globals",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .unwrap();
        // Junk that will be blacklisted at startup.
        space.write_u32(Addr::new(0x1_0000), 0x10_2030).unwrap();
        let mut gc = Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    ..HeapConfig::default()
                },
                ..GcConfig::default()
            },
        );
        let a = gc.alloc(8, ObjectKind::Composite).unwrap();
        let b = gc.alloc(64, ObjectKind::Atomic).unwrap();
        gc.space_mut()
            .write_u32(Addr::new(0x1_0004), a.raw())
            .unwrap();
        gc.space_mut()
            .write_u32(Addr::new(0x1_0008), b.raw())
            .unwrap();
        gc.collect();
        let text = gc.dump();
        for needle in [
            "=== collector state ===",
            "heap:",
            "blocks by object size",
            "8 B composite",
            "64 B atomic",
            "blacklist: ",
            "(static data)",
            "root segments",
            "globals",
            "collection(s)",
        ] {
            assert!(text.contains(needle), "dump missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn dump_on_fresh_collector_is_well_formed() {
        let space = AddressSpace::new(Endian::Big);
        let gc = Collector::new(space, GcConfig::default());
        let text = gc.dump();
        assert!(text.contains("0 pages mapped"));
        assert!(text.contains("0 collection(s)"));
    }
}
