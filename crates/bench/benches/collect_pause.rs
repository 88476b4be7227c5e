//! Full-collection pause versus live-heap size: the linear cost that
//! motivates the paper's remark that generational and incremental variants
//! exist ([5, 8, 12]) while this paper focuses on space behaviour.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gc_core::{Collector, GcConfig};
use gc_heap::{HeapConfig, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
use std::collections::VecDeque;

fn tree_collector(nodes: u32) -> Collector {
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
    // A wide binary tree rooted in static data.
    let root = gc.alloc(12, ObjectKind::Composite).expect("heap has room");
    gc.space_mut()
        .write_u32(Addr::new(0x1_0000), root.raw())
        .expect("mapped");
    // Children join at the front and parents leave from the back: a FIFO
    // queue, so the tree grows breadth-first.
    let mut frontier = VecDeque::from([root]);
    let mut count = 1;
    'grow: while let Some(parent) = frontier.pop_back() {
        for off in [0u32, 4] {
            if count >= nodes {
                break 'grow;
            }
            let child = gc.alloc(12, ObjectKind::Composite).expect("heap has room");
            gc.space_mut()
                .write_u32(parent + off, child.raw())
                .expect("mapped");
            frontier.push_front(child);
            count += 1;
        }
    }
    gc
}

fn bench_pause(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_collection_pause");
    group.sample_size(15);
    for nodes in [10_000u32, 40_000, 160_000] {
        let mut gc = tree_collector(nodes);
        group.bench_with_input(BenchmarkId::from_parameter(nodes), &nodes, |b, _| {
            b.iter(|| gc.collect())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pause);
criterion_main!(benches);
