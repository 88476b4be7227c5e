//! The allocation-throughput bench family behind `BENCH_alloc.json`.
//!
//! Four microbenches plus one whole-program phase, each reporting
//! objects/sec, MB/sec, and how many collections ran while allocating:
//!
//! * `small_composite` — 16-byte pointer-bearing objects, the hottest size
//!   class, allocated from the block bitmaps.
//! * `small_atomic` — 16-byte pointer-free objects; zero-once pages make
//!   their fill skippable on fresh slots.
//! * `typed` — 16-byte objects behind a registered descriptor, exercising
//!   the `alloc_typed` entry point.
//! * `large` — 16 KiB objects, bypassing size classes entirely; a control
//!   that the fast path leaves the large-object route alone.
//! * `gcbench_phase` — the scaled GCBench tree churn on a full `Machine`,
//!   the alloc-heavy macro workload.
//!
//! Runs standalone (`cargo bench --bench alloc_family`). `--json <path>`
//! additionally writes the machine-readable report (the committed baseline
//! lives at `BENCH_alloc.json` in the repository root).

use gc_bench::{json_array, json_object, json_str, JsonOut};
use gc_core::{Collector, GcConfig};
use gc_heap::{Descriptor, HeapConfig, ObjectKind};
use gc_machine::{Machine, MachineConfig};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
use gc_workloads::GcBench;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Best-of-N repetitions; allocation benches are short, so the minimum
/// over a few runs is the stable statistic.
const REPS: usize = 3;

struct BenchResult {
    name: &'static str,
    objects: u64,
    bytes: u64,
    elapsed: Duration,
    collections: u64,
}

impl BenchResult {
    fn objects_per_sec(&self) -> f64 {
        self.objects as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 / (1 << 20) as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

fn collector() -> Collector {
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            Addr::new(0x1_0000),
            4096,
        ))
        .expect("maps");
    Collector::new(
        space,
        GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                ..HeapConfig::default()
            },
            // Collections at a realistic cadence: the GC counts in the
            // report confirm the amortized cost is being measured.
            min_bytes_between_gcs: 256 << 10,
            ..GcConfig::default()
        },
    )
}

/// Runs `body` against a fresh collector `REPS` times and keeps the
/// fastest repetition.
fn best_of(name: &'static str, body: impl Fn(&mut Collector)) -> BenchResult {
    let mut best: Option<BenchResult> = None;
    for _ in 0..REPS {
        let mut gc = collector();
        let t0 = Instant::now();
        body(&mut gc);
        let elapsed = t0.elapsed();
        let stats = gc.heap().stats();
        let result = BenchResult {
            name,
            objects: gc.heap().objects_allocated_total(),
            bytes: stats.bytes_allocated_total,
            elapsed,
            collections: gc.stats().collections,
        };
        if best.as_ref().is_none_or(|b| elapsed < b.elapsed) {
            best = Some(result);
        }
    }
    best.expect("REPS >= 1")
}

fn small(kind: ObjectKind, name: &'static str) -> BenchResult {
    best_of(name, |gc| {
        for _ in 0..400_000u32 {
            // Dropped immediately: pure allocation + amortized collection.
            black_box(gc.alloc(16, kind).expect("heap has room"));
        }
    })
}

fn typed() -> BenchResult {
    let mut best: Option<BenchResult> = None;
    for _ in 0..REPS {
        let mut gc = collector();
        let desc = gc.register_descriptor(Descriptor::with_pointers_at(4, &[0, 2]));
        let t0 = Instant::now();
        for _ in 0..400_000u32 {
            black_box(gc.alloc_typed(16, desc).expect("heap has room"));
        }
        let elapsed = t0.elapsed();
        let stats = gc.heap().stats();
        let result = BenchResult {
            name: "typed",
            objects: gc.heap().objects_allocated_total(),
            bytes: stats.bytes_allocated_total,
            elapsed,
            collections: gc.stats().collections,
        };
        if best.as_ref().is_none_or(|b| elapsed < b.elapsed) {
            best = Some(result);
        }
    }
    best.expect("REPS >= 1")
}

fn large() -> BenchResult {
    best_of("large", |gc| {
        for _ in 0..20_000u32 {
            black_box(
                gc.alloc(16 << 10, ObjectKind::Atomic)
                    .expect("heap has room"),
            );
        }
    })
}

fn gcbench_phase() -> BenchResult {
    let mut best: Option<BenchResult> = None;
    for _ in 0..REPS {
        let mut m = Machine::new(MachineConfig::default());
        m.add_static_segment(Addr::new(0x2_0000), 4096);
        let report = GcBench::scaled().run(&mut m);
        let stats = m.gc().heap().stats();
        let result = BenchResult {
            name: "gcbench_phase",
            objects: m.gc().heap().objects_allocated_total(),
            bytes: stats.bytes_allocated_total,
            elapsed: report.elapsed,
            collections: report.collections,
        };
        if best.as_ref().is_none_or(|b| result.elapsed < b.elapsed) {
            best = Some(result);
        }
    }
    best.expect("REPS >= 1")
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    args.retain(|a| !a.starts_with("--"));

    let results = [
        small(ObjectKind::Composite, "small_composite"),
        small(ObjectKind::Atomic, "small_atomic"),
        typed(),
        large(),
        gcbench_phase(),
    ];

    println!(
        "alloc_family (best of {REPS}):\n\
         {:<16} {:>12} {:>12} {:>12} {:>6}",
        "bench", "objs/sec", "MB/sec", "objects", "GCs"
    );
    for r in &results {
        println!(
            "{:<16} {:>12.0} {:>12.1} {:>12} {:>6}",
            r.name,
            r.objects_per_sec(),
            r.mb_per_sec(),
            r.objects,
            r.collections
        );
    }

    if json_out.enabled() {
        let rows: Vec<String> = results
            .iter()
            .map(|r| {
                json_object(&[
                    ("name", json_str(r.name)),
                    ("objects", r.objects.to_string()),
                    ("bytes", r.bytes.to_string()),
                    ("elapsed_ns", r.elapsed.as_nanos().to_string()),
                    ("objects_per_sec", format!("{:.2}", r.objects_per_sec())),
                    ("mb_per_sec", format!("{:.2}", r.mb_per_sec())),
                    ("collections", r.collections.to_string()),
                ])
            })
            .collect();
        let doc = json_object(&[
            ("v", "1".into()),
            ("bench", json_str("alloc_family")),
            ("reps", REPS.to_string()),
            ("results", json_array(&rows)),
        ]);
        json_out.write(&doc).expect("JSON report written");
    }
}
