//! Golden fingerprints of the collector's allocation order.
//!
//! Small objects come from the lowest free slot of their (size class,
//! kind), and every observable of a run follows from that order:
//! collection triggers, the live-address sets, blacklisting and false
//! references, and Table 1's retention. This file replays a randomized
//! mutator and the Table-1 Program T run and compares each outcome with a
//! digest recorded when allocation still went through a per-slot free
//! list merged with a bump cursor. Matching digests mean the block-bitmap
//! allocator hands out exactly the addresses that design did, across the
//! matrix of sweep strategy (eager × lazy) and mark parallelism (1 × 4
//! threads).
//!
//! A digest is FNV-1a over the `Debug` form of the fingerprint, so a
//! mismatch means some field changed; rerun the old and new code and
//! diff the `Debug` output to see which.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sec_gc::analysis::table1;
use sec_gc::core::{observer, CollectReason, GcConfig, GcEvent, GcObserver};
use sec_gc::heap::{HeapConfig, ObjectKind};
use sec_gc::machine::{Machine, MachineConfig};
use sec_gc::platforms::{BuildOptions, Platform, Profile};
use sec_gc::vmspace::{Addr, Endian};
use std::fmt::Debug;

const ROOT_SLOTS: u32 = 12;

/// Recorded `run_trace` digests: `(seed, lazy_sweep, mark_threads, digest)`.
/// The lazy rows equal the eager ones: a lazy snapshot releases empty
/// blocks as the eager sweep does, so both sweeps place every object
/// alike.
const TRACE_GOLDEN: [(u64, bool, u32, u64); 8] = [
    (3, false, 1, 0xeb7d_604e_cb99_e178),
    (3, false, 4, 0xeb7d_604e_cb99_e178),
    (3, true, 1, 0xeb7d_604e_cb99_e178),
    (3, true, 4, 0xeb7d_604e_cb99_e178),
    (41, false, 1, 0x6822_c46a_e5a2_c920),
    (41, false, 4, 0x6822_c46a_e5a2_c920),
    (41, true, 1, 0x6822_c46a_e5a2_c920),
    (41, true, 4, 0x6822_c46a_e5a2_c920),
];

/// Recorded digests of the Table-1 Program T report (SPARC statics,
/// blacklisting on, seed 11, scale divisor 25):
/// `(lazy_sweep, mark_threads, digest)`.
const TABLE1_GOLDEN: [(bool, u32, u64); 4] = [
    (false, 1, 0x2e3d_8463_157b_9f24),
    (false, 4, 0x2e3d_8463_157b_9f24),
    (true, 1, 0x2e3d_8463_157b_9f24),
    (true, 4, 0x2e3d_8463_157b_9f24),
];

/// 64-bit FNV-1a of the `Debug` form of `value`.
fn digest(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Records why and in what order every collection began — automatic
/// triggers fire inside `alloc`, so an observer is the only way to see
/// them per cycle.
#[derive(Debug, Default)]
struct Triggers(Vec<(u64, String)>);

impl GcObserver for Triggers {
    fn on_event(&mut self, event: &GcEvent) {
        if let GcEvent::CollectionBegin { gc_no, reason, .. } = event {
            self.0.push((*gc_no, reason.to_string()));
        }
    }
}

/// Everything observable about one run that follows from the allocation
/// order. Durations are deliberately excluded.
#[derive(Debug, PartialEq, Eq)]
struct RunFingerprint {
    collections: u64,
    triggers: Vec<(u64, String)>,
    /// Sorted base addresses of the live heap at each checkpoint.
    checkpoints: Vec<Vec<u32>>,
    bytes_live: u64,
    bytes_allocated_total: u64,
    blacklist_pages: u32,
    false_refs: u64,
}

fn live_addresses(m: &Machine) -> Vec<u32> {
    let mut v: Vec<u32> = m.gc().heap().live_objects().map(|o| o.base.raw()).collect();
    v.sort_unstable();
    v
}

/// A deterministic randomized mutator with *automatic* collection
/// triggering: the threshold is low enough that collections fire from the
/// allocation path itself, so trigger timing (and hence every downstream
/// observable) would expose any drift in allocation order.
fn run_trace(seed: u64, lazy_sweep: bool, mark_threads: u32) -> RunFingerprint {
    let triggers = observer(Triggers::default());
    let handle = triggers.clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = Machine::new(MachineConfig {
        endian: Endian::Big,
        gc: GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 16 << 20,
                growth_pages: 16,
                ..HeapConfig::default()
            },
            blacklisting: true,
            lazy_sweep,
            mark_threads,
            min_bytes_between_gcs: 16 << 10,
            free_space_divisor: 4,
            observer: Some(handle),
            ..GcConfig::default()
        },
        seed,
        ..MachineConfig::default()
    });
    m.add_static_segment(Addr::new(0x2_0000), 4096);
    let roots = m.alloc_static(ROOT_SLOTS);
    let junk = m.alloc_static(8);
    for i in 0..8u32 {
        m.store(junk + i * 4, 0x10_0000 + rng.random_range(0..2u32 << 20));
    }

    let mut checkpoints = Vec::new();
    for step in 0..2400u32 {
        match rng.random_range(0..100u32) {
            0..=69 => {
                let bytes = *[12u32, 16, 24, 48, 256]
                    .get(rng.random_range(0..5) as usize)
                    .unwrap();
                let kind = if rng.random_range(0..4u32) == 0 {
                    ObjectKind::Atomic
                } else {
                    ObjectKind::Composite
                };
                let obj = m.alloc(bytes, kind).expect("heap has room");
                if rng.random_range(0..3u32) > 0 {
                    m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, obj.raw());
                }
            }
            70..=89 => {
                m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, 0);
            }
            _ => {
                let near = (0x10_0000 + rng.random_range(0..4u32 << 20)) | 1;
                m.store(junk + (rng.random_range(0..8u32)) * 4, near);
            }
        }
        if step % 400 == 399 {
            checkpoints.push(live_addresses(&m));
        }
    }
    let stats = m.collect();
    checkpoints.push(live_addresses(&m));
    let heap = m.gc().heap().stats();
    let trigger_log = triggers.lock().expect("trigger log").0.clone();
    RunFingerprint {
        collections: m.gc().stats().collections,
        triggers: trigger_log,
        checkpoints,
        bytes_live: heap.bytes_live,
        bytes_allocated_total: heap.bytes_allocated_total,
        blacklist_pages: stats.blacklist_pages,
        false_refs: m.gc().stats().total_false_refs,
    }
}

#[test]
fn trace_fingerprints_match_the_recorded_allocation_order() {
    let mut mismatches = Vec::new();
    for (seed, lazy_sweep, mark_threads, want) in TRACE_GOLDEN {
        let run = run_trace(seed, lazy_sweep, mark_threads);
        assert!(
            run.collections > 4,
            "trace collected often enough to compare (got {})",
            run.collections
        );
        assert!(
            run.triggers
                .iter()
                .any(|(_, r)| r == &CollectReason::Automatic.to_string()),
            "allocation-triggered collections occurred"
        );
        let got = digest(&run);
        if got != want {
            mismatches.push(format!(
                "({seed}, {lazy_sweep}, {mark_threads}, {got:#018x}) recorded {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "allocation order diverged from the recording:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn table1_retention_matches_the_recorded_run() {
    // The paper's headline metric: same retained lists, same per-list
    // fate, same collection count and blacklist as recorded.
    let profile = Profile::sparc_static(false);
    let shape = table1::shape_for(&profile, 25);
    let mut mismatches = Vec::new();
    for (lazy_sweep, mark_threads, want) in TABLE1_GOLDEN {
        let mut platform = profile.build_custom(
            BuildOptions {
                seed: 11,
                blacklisting: true,
                ..BuildOptions::default()
            },
            |gc| {
                gc.lazy_sweep = lazy_sweep;
                gc.mark_threads = mark_threads;
            },
        );
        let Platform { machine, hooks, .. } = &mut platform;
        let report = shape.run(machine, &mut |m| hooks.tick(m));
        assert!(report.lists > 0, "Program T allocated lists");
        let got = digest(&report);
        if got != want {
            mismatches.push(format!(
                "({lazy_sweep}, {mark_threads}, {got:#018x}) recorded {want:#018x}: {report:?}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "Table-1 report diverged from the recording:\n{}",
        mismatches.join("\n")
    );
}
