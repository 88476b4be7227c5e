//! Differential harness for the shared object-scan kernel and the mark
//! phase's page-resolve cache: serial vs forced-parallel marking, eager vs
//! lazy sweeping, and cache-on vs cache-off must all be *observationally
//! identical* over randomized typed+untyped workloads — same mark set,
//! same counters, same blacklist, same Table-1 retention.
//!
//! The resolve cache is a pure memoization of `Heap::object_containing`
//! (epoch-validated against the page table, which is frozen during a mark
//! phase), so the only fields allowed to differ between cache-on and
//! cache-off runs are the `resolve_hits`/`resolve_misses` telemetry
//! counters themselves — they are deliberately excluded from the
//! fingerprint and checked separately.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sec_gc::analysis::table1;
use sec_gc::core::GcConfig;
use sec_gc::heap::{Descriptor, HeapConfig, ObjectKind};
use sec_gc::machine::{Machine, MachineConfig};
use sec_gc::platforms::{BuildOptions, Platform, Profile};
use sec_gc::vmspace::{Addr, Endian};

const ROOT_SLOTS: u32 = 12;

/// One compared configuration of the collector.
#[derive(Clone, Copy, Debug)]
struct Cfg {
    mark_threads: u32,
    force: bool,
    lazy_sweep: bool,
    resolve_cache: bool,
}

/// Everything observable about one collection that must not depend on the
/// worker count, the sweep strategy, or the resolve cache. Durations,
/// per-worker stats, and the resolve hit/miss counters are excluded — they
/// are the only fields allowed to differ.
#[derive(Debug, PartialEq, Eq)]
struct CollectionFingerprint {
    root_words_scanned: u64,
    heap_words_scanned: u64,
    candidates_in_range: u64,
    valid_pointers: u64,
    false_refs_near_heap: u64,
    newly_blacklisted: u32,
    blacklist_pages: u32,
    objects_marked: u64,
    bytes_marked: u64,
    objects_freed: u64,
    bytes_freed: u64,
    live_objects: Vec<u32>,
    blacklisted: Vec<u32>,
}

fn fingerprint(m: &Machine, stats: &sec_gc::core::CollectionStats) -> CollectionFingerprint {
    let mut live_objects: Vec<u32> = m.gc().heap().live_objects().map(|o| o.base.raw()).collect();
    live_objects.sort_unstable();
    let mut blacklisted: Vec<u32> = m.gc().blacklist().pages().iter().map(|p| p.raw()).collect();
    blacklisted.sort_unstable();
    CollectionFingerprint {
        root_words_scanned: stats.root_words_scanned,
        heap_words_scanned: stats.heap_words_scanned,
        candidates_in_range: stats.candidates_in_range,
        valid_pointers: stats.valid_pointers,
        false_refs_near_heap: stats.false_refs_near_heap,
        newly_blacklisted: stats.newly_blacklisted,
        blacklist_pages: stats.blacklist_pages,
        objects_marked: stats.objects_marked,
        bytes_marked: stats.bytes_marked,
        objects_freed: stats.sweep.objects_freed,
        bytes_freed: stats.sweep.bytes_freed,
        live_objects,
        blacklisted,
    }
}

/// Runs a deterministic randomized typed+untyped workload and fingerprints
/// every collection; also returns the summed resolve hit+miss counters.
/// Only `cfg` varies between compared runs.
fn run_trace(seed: u64, generational: bool, cfg: Cfg) -> (Vec<CollectionFingerprint>, u64) {
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
            mark_threads: cfg.mark_threads,
            mark_threads_force: cfg.force,
            lazy_sweep: cfg.lazy_sweep,
            resolve_cache: cfg.resolve_cache,
            min_bytes_between_gcs: u64::MAX,
            free_space_divisor: 1 << 24,
            ..GcConfig::default()
        },
        seed,
        ..MachineConfig::default()
    });
    m.add_static_segment(Addr::new(0x2_0000), 4096);
    let roots = m.alloc_static(ROOT_SLOTS);
    // Static junk in the heap's vicinity so blacklisting has work to do.
    let junk = m.alloc_static(8);
    for i in 0..8u32 {
        m.store(junk + i * 4, 0x10_0000 + rng.random_range(0..2u32 << 20));
    }
    // Typed layouts: [ptr, data, data], [data, ptr, data, ptr],
    // [ptr, data, ptr, data, data, data].
    let descs = [
        m.gc_mut()
            .register_descriptor(Descriptor::with_pointers_at(3, &[0])),
        m.gc_mut()
            .register_descriptor(Descriptor::with_pointers_at(4, &[1, 3])),
        m.gc_mut()
            .register_descriptor(Descriptor::with_pointers_at(6, &[0, 2])),
    ];

    let mut fingerprints = Vec::new();
    let mut resolves = 0u64;
    let mut recent: Vec<u32> = Vec::new();
    for step in 0..500u32 {
        match rng.random_range(0..100u32) {
            // Fresh untyped object, rooted somewhere.
            0..=29 => {
                let bytes = *[12u32, 16, 24, 48]
                    .get(rng.random_range(0..4) as usize)
                    .unwrap();
                let obj = m
                    .alloc(bytes, ObjectKind::Composite)
                    .expect("heap has room");
                m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, obj.raw());
                recent.push(obj.raw());
            }
            // Fresh typed object, rooted somewhere.
            30..=44 => {
                let i = rng.random_range(0..3) as usize;
                let words = [3u32, 4, 6][i];
                let obj = m.alloc_typed(words * 4, descs[i]).expect("heap has room");
                m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, obj.raw());
                recent.push(obj.raw());
            }
            // Link two recent objects through an arbitrary field. For a
            // typed target field this is an edge only if the field is a
            // declared pointer word — exactly what the shared scan kernel
            // must get identical everywhere.
            45..=69 => {
                if recent.len() >= 2 {
                    let from = recent[rng.random_range(0..recent.len())];
                    let to = recent[rng.random_range(0..recent.len())];
                    m.store(Addr::new(from) + rng.random_range(0..3u32) * 4, to);
                }
            }
            // A heap-sourced false reference stored inside an object.
            70..=79 => {
                if !recent.is_empty() {
                    let host = recent[rng.random_range(0..recent.len())];
                    let near = (0x10_0000 + rng.random_range(0..4u32 << 20)) | 1;
                    m.store(Addr::new(host) + 4, near);
                }
            }
            // Unroot a slot.
            80..=89 => {
                m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, 0);
            }
            // Collect and fingerprint.
            _ => {
                let stats = if generational && step % 2 == 0 {
                    m.gc_mut().collect_minor()
                } else {
                    m.collect()
                };
                fingerprints.push(fingerprint(&m, &stats));
                resolves += stats.resolve_hits + stats.resolve_misses;
                recent.retain(|&o| m.gc().is_live(Addr::new(o)));
            }
        }
        if recent.len() > 64 {
            recent.drain(..32);
        }
    }
    let stats = m.collect();
    fingerprints.push(fingerprint(&m, &stats));
    resolves += stats.resolve_hits + stats.resolve_misses;
    (fingerprints, resolves)
}

/// The tentpole gate: {serial, forced 4-thread} x {eager, lazy} x
/// {cache on, cache off} all produce bit-identical collection traces.
#[test]
fn mark_kernel_is_configuration_invariant() {
    for (seed, generational) in [(7u64, false), (23, true)] {
        let baseline_cfg = Cfg {
            mark_threads: 1,
            force: false,
            lazy_sweep: false,
            resolve_cache: true,
        };
        let (baseline, _) = run_trace(seed, generational, baseline_cfg);
        assert!(
            baseline.len() > 10,
            "trace collected often enough to compare"
        );
        for mark_threads in [1u32, 4] {
            for lazy_sweep in [false, true] {
                for resolve_cache in [false, true] {
                    let cfg = Cfg {
                        mark_threads,
                        force: mark_threads > 1,
                        lazy_sweep,
                        resolve_cache,
                    };
                    let (run, _) = run_trace(seed, generational, cfg);
                    assert_eq!(
                        baseline, run,
                        "seed {seed} (generational={generational}): {cfg:?} \
                         diverged from the serial/eager/cache-on baseline"
                    );
                }
            }
        }
    }
}

/// The hit/miss counters are telemetry only — but they must be *plausible*
/// telemetry: zero with the cache off, live with it on, on both the serial
/// and the parallel path.
#[test]
fn resolve_counters_track_the_configuration() {
    for mark_threads in [1u32, 4] {
        let on = Cfg {
            mark_threads,
            force: mark_threads > 1,
            lazy_sweep: false,
            resolve_cache: true,
        };
        let off = Cfg {
            resolve_cache: false,
            ..on
        };
        let (_, resolves_on) = run_trace(7, false, on);
        let (_, resolves_off) = run_trace(7, false, off);
        assert!(
            resolves_on > 0,
            "{mark_threads}-thread cache-on run reports its lookups"
        );
        assert_eq!(
            resolves_off, 0,
            "{mark_threads}-thread cache-off run reports no lookups"
        );
    }
}

/// The paper's headline metric is resolve-cache invariant: same retained
/// lists, same blacklist, same collection count, with and without the
/// cache, on the worst-case platform row.
#[test]
fn table1_retention_is_resolve_cache_invariant() {
    let profile = Profile::sparc_static(false);
    for blacklisting in [false, true] {
        let run = |resolve_cache: bool| {
            let shape = table1::shape_for(&profile, 25);
            let mut platform = profile.build_custom(
                BuildOptions {
                    seed: 11,
                    blacklisting,
                    ..BuildOptions::default()
                },
                |c| c.resolve_cache = resolve_cache,
            );
            let Platform { machine, hooks, .. } = &mut platform;
            shape.run(machine, &mut |m| hooks.tick(m))
        };
        let cached = run(true);
        let uncached = run(false);
        assert_eq!(cached.lists, uncached.lists);
        assert_eq!(
            cached.retained, uncached.retained,
            "retention (blacklisting={blacklisting}) must not depend on the \
             resolve cache"
        );
        assert_eq!(cached.reclaimed, uncached.reclaimed, "same per-list fate");
        assert_eq!(cached.collections, uncached.collections);
        assert_eq!(cached.blacklist_pages, uncached.blacklist_pages);
        assert_eq!(cached.representatives, uncached.representatives);
    }
}
