//! Differential harness for lazy sweeping: eager (`lazy_sweep = false`)
//! and lazy (`lazy_sweep = true`) collections over identical randomized
//! workloads must be *observationally identical* — same reclamation
//! counts, same live set, same blacklist, same Table-1 retention.
//!
//! A lazy snapshot decides every slot's fate up front and defers only the
//! free-list mutation work to the allocation slow path, so every
//! comparison here is exact equality, not a tolerance. Liveness is
//! compared right after each collection — while blocks are still pending —
//! which is exactly the window where a non-transparent implementation
//! would leak condemned-but-unswept objects into the census.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sec_gc::analysis::table1;
use sec_gc::core::GcConfig;
use sec_gc::heap::{HeapConfig, ObjectKind};
use sec_gc::machine::{Machine, MachineConfig};
use sec_gc::platforms::{BuildOptions, Platform, Profile};
use sec_gc::vmspace::{Addr, Endian};

const ROOT_SLOTS: u32 = 12;

/// Everything observable about one collection that must not depend on the
/// sweep strategy. Durations and block-release timing are deliberately
/// excluded — deferred work is the only thing allowed to differ.
#[derive(Debug, PartialEq, Eq)]
struct CollectionFingerprint {
    root_words_scanned: u64,
    heap_words_scanned: u64,
    valid_pointers: u64,
    false_refs_near_heap: u64,
    blacklist_pages: u32,
    objects_marked: u64,
    bytes_marked: u64,
    objects_freed: u64,
    bytes_freed: u64,
    objects_live: u64,
    bytes_live: u64,
    /// Sorted base addresses of every object that survived the sweep,
    /// observed *before* any deferred work is realized.
    live_objects: Vec<u32>,
}

fn fingerprint(m: &Machine, stats: &sec_gc::core::CollectionStats) -> CollectionFingerprint {
    let mut live_objects: Vec<u32> = m.gc().heap().live_objects().map(|o| o.base.raw()).collect();
    live_objects.sort_unstable();
    // The heap's aggregate views must agree with the walk even while
    // blocks are pending.
    let walk_bytes: u64 = m
        .gc()
        .heap()
        .live_objects()
        .map(|o| u64::from(o.bytes))
        .sum();
    assert_eq!(
        m.gc().heap().stats().bytes_live,
        walk_bytes,
        "bytes_live disagrees with the object walk mid-pending"
    );
    CollectionFingerprint {
        root_words_scanned: stats.root_words_scanned,
        heap_words_scanned: stats.heap_words_scanned,
        valid_pointers: stats.valid_pointers,
        false_refs_near_heap: stats.false_refs_near_heap,
        blacklist_pages: stats.blacklist_pages,
        objects_marked: stats.objects_marked,
        bytes_marked: stats.bytes_marked,
        objects_freed: stats.sweep.objects_freed,
        bytes_freed: stats.sweep.bytes_freed,
        objects_live: stats.sweep.objects_live,
        bytes_live: stats.sweep.bytes_live,
        live_objects,
    }
}

/// Runs a deterministic randomized workload and fingerprints every
/// collection. Only `lazy_sweep` varies between compared runs.
fn run_trace(seed: u64, lazy_sweep: bool, generational: bool) -> Vec<CollectionFingerprint> {
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
            generational,
            lazy_sweep,
            min_bytes_between_gcs: u64::MAX,
            free_space_divisor: 1 << 24,
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

    let mut fingerprints = Vec::new();
    let mut recent: Vec<u32> = Vec::new();
    for step in 0..600u32 {
        match rng.random_range(0..100u32) {
            0..=44 => {
                let bytes = *[12u32, 16, 24, 48]
                    .get(rng.random_range(0..4) as usize)
                    .unwrap();
                let obj = m
                    .alloc(bytes, ObjectKind::Composite)
                    .expect("heap has room");
                m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, obj.raw());
                recent.push(obj.raw());
            }
            45..=69 => {
                if recent.len() >= 2 {
                    let from = recent[rng.random_range(0..recent.len())];
                    let to = recent[rng.random_range(0..recent.len())];
                    m.store(Addr::new(from) + rng.random_range(0..2u32) * 4, to);
                }
            }
            70..=79 => {
                if !recent.is_empty() {
                    let host = recent[rng.random_range(0..recent.len())];
                    let near = (0x10_0000 + rng.random_range(0..4u32 << 20)) | 1;
                    m.store(Addr::new(host) + 4, near);
                }
            }
            80..=89 => {
                m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, 0);
            }
            _ => {
                let stats = if generational && step % 2 == 0 {
                    m.gc_mut().collect_minor()
                } else {
                    m.collect()
                };
                fingerprints.push(fingerprint(&m, &stats));
                recent.retain(|&o| m.gc().is_live(Addr::new(o)));
            }
        }
        if recent.len() > 64 {
            recent.drain(..32);
        }
    }
    let stats = m.collect();
    fingerprints.push(fingerprint(&m, &stats));
    fingerprints
}

#[test]
fn randomized_full_collections_are_sweep_strategy_invariant() {
    for seed in [1u64, 17, 91] {
        let eager = run_trace(seed, false, false);
        assert!(eager.len() > 10, "trace collected often enough to compare");
        let lazy = run_trace(seed, true, false);
        assert_eq!(
            eager, lazy,
            "seed {seed}: lazy sweeping diverged from eager"
        );
    }
}

#[test]
fn randomized_generational_collections_are_sweep_strategy_invariant() {
    // Minor collections take the `sweep_lazy(true)` path, where pending
    // survivors must census as tenured before the deferred sweep promotes
    // them for real.
    for seed in [5u64, 29] {
        let eager = run_trace(seed, false, true);
        let lazy = run_trace(seed, true, true);
        assert_eq!(
            eager, lazy,
            "seed {seed}: generational lazy sweeping diverged"
        );
    }
}

fn table1_run(profile: &Profile, lazy: bool) -> sec_gc::workloads::ProgramTReport {
    let shape = table1::shape_for(profile, 25);
    let mut platform = profile.build(BuildOptions {
        seed: 11,
        blacklisting: true,
        lazy_sweep: Some(lazy),
        ..BuildOptions::default()
    });
    let Platform { machine, hooks, .. } = &mut platform;
    shape.run(machine, &mut |m| hooks.tick(m))
}

#[test]
fn table1_retention_is_sweep_strategy_invariant() {
    // The paper's headline metric reproduces bit-identically under lazy
    // sweeping: same retained lists, same per-list fate, same collection
    // count.
    let profile = Profile::sparc_static(false);
    let eager = table1_run(&profile, false);
    let lazy = table1_run(&profile, true);
    assert_eq!(eager.lists, lazy.lists);
    assert_eq!(
        eager.retained, lazy.retained,
        "retention must not depend on the sweep strategy"
    );
    assert_eq!(eager.reclaimed, lazy.reclaimed, "same per-list fate");
    assert_eq!(eager.collections, lazy.collections);
    assert_eq!(eager.blacklist_pages, lazy.blacklist_pages);
    assert_eq!(eager.representatives, lazy.representatives);
    assert_eq!(eager.bytes_live, lazy.bytes_live);
}
