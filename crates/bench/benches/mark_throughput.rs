//! Mark-phase throughput over pointer-dense and pointer-free heaps: the
//! cost structure behind the paper's advice to allocate large pointer-free
//! objects atomically (§2: compressed data "introduce[s] false pointers
//! with excessively high probability" *and* costs scan time).
//!
//! Every case allocates `CELLS` objects, and the reported rate is cells per
//! second. On the linked chains every cell is marked, so its inverse is the
//! per-object cost of one collection: a scanned object, and one candidate
//! resolved, filtered and marked per pointer word.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gc_core::{Collector, GcConfig};
use gc_heap::{Descriptor, HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};

/// How each cell of a chain is allocated.
#[derive(Clone, Copy)]
enum Cell {
    /// Untyped, scanned word by word (`Composite`) or never (`Atomic`).
    Untyped { bytes: u32, kind: ObjectKind },
    /// A typed record `[next, data, data, data]` whose descriptor declares
    /// only `next`; the data words hold heap addresses that a conservative
    /// scan would resolve.
    Record,
}

fn list_collector(cells: u32, cell: Cell) -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            Addr::new(0x1_0000),
            4096,
        ))
        .expect("maps");
    let mut gc = Collector::new(
        space,
        GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                ..HeapConfig::default()
            },
            min_bytes_between_gcs: u64::MAX,
            ..GcConfig::default()
        },
    );
    let record = gc.register_descriptor(Descriptor::with_pointers_at(4, &[0]));
    let mut head = 0u32;
    for _ in 0..cells {
        let (cell, links) = match cell {
            Cell::Untyped { bytes, kind } => (
                gc.alloc(bytes, kind).expect("heap has room"),
                kind == ObjectKind::Composite,
            ),
            Cell::Record => {
                let rec = gc.alloc_typed(16, record).expect("heap has room");
                for off in [4, 8, 12] {
                    gc.space_mut()
                        .write_u32(rec + off, rec.raw())
                        .expect("mapped");
                }
                (rec, true)
            }
        };
        if links {
            gc.space_mut().write_u32(cell, head).expect("mapped");
        }
        head = cell.raw();
        // The newest cell roots the whole chain.
        gc.space_mut()
            .write_u32(Addr::new(0x1_0000), head)
            .expect("mapped");
    }
    gc
}

fn bench_mark(c: &mut Criterion) {
    const CELLS: u32 = 100_000;
    let mut group = c.benchmark_group("mark_phase");
    group.sample_size(20);
    group.throughput(Throughput::Elements(u64::from(CELLS)));

    let composite = |bytes| Cell::Untyped {
        bytes,
        kind: ObjectKind::Composite,
    };
    let cases = [
        // 16-byte composite chain: every word scanned, pointer chased.
        ("pointer_dense_chain", composite(16)),
        // Program T's 4-byte cells: one word per object, so the kernel's
        // per-candidate cost is nearly the whole per-object cost.
        ("program_t_cells", composite(4)),
        // Typed records: only the declared pointer word is read.
        ("typed_record_chain", Cell::Record),
        // Atomic cells cannot link, so only the newest is reachable: the
        // collection's cost over a heap that is nearly all garbage.
        (
            "atomic_objects",
            Cell::Untyped {
                bytes: 16,
                kind: ObjectKind::Atomic,
            },
        ),
    ];
    for (name, cell) in cases {
        let mut gc = list_collector(CELLS, cell);
        group.bench_function(name, |b| b.iter(|| gc.collect()));
    }
    group.finish();
}

criterion_group!(benches, bench_mark);
criterion_main!(benches);
