//! The configuration-equivalence harness shared by the differential tests.
//!
//! The collector's implementation knobs — parallel marking, lazy sweeping
//! and the page-resolve cache — are observationally identical to the
//! paper's serial, eager collector. [`configs`] is the one list of
//! compared configurations; each test file takes the entries of one
//! [`Axis`] and compares them, exactly, with the baseline on randomized
//! typed+untyped traces (fingerprinted after every collection, live
//! addresses read mid-pending) and on Table-1 retention. Only durations,
//! per-worker splits and the resolve telemetry (zero exactly when the
//! cache is off) may differ. `GcConfig::default()` reads no environment,
//! so each configuration is an explicit input.

// Each test binary uses its own part of the harness.
#![allow(dead_code)]

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sec_gc::analysis::table1;
use sec_gc::core::{CollectionStats, GcConfig};
use sec_gc::heap::{Descriptor, HeapConfig, ObjectKind};
use sec_gc::machine::{Machine, MachineConfig};
use sec_gc::platforms::{BuildOptions, Platform, Profile};
use sec_gc::vmspace::{Addr, Endian};
use sec_gc::workloads::ProgramTReport;

const ROOT_SLOTS: u32 = 12;

/// Stop-the-world trace seeds.
pub const FULL_SEEDS: [u64; 6] = [1, 3, 7, 17, 47, 91];
/// Generational trace seeds.
pub const GENERATIONAL_SEEDS: [u64; 3] = [5, 23, 29];

/// One compared configuration of the collector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cfg {
    pub mark_threads: u32,
    /// Spawn every worker even past the core count, so they really race.
    pub force: bool,
    pub lazy_sweep: bool,
    pub resolve_cache: bool,
}

/// Which knobs a configuration moves away from the baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// More than one mark worker; eager sweep, cache on.
    Threads,
    /// Lazy sweeping; one marker, cache on.
    Sweep,
    /// Cache off; one marker, eager sweep.
    Cache,
    /// Two or three knobs at once.
    Crossed,
}

impl Cfg {
    /// The paper's collector: one serial marker, an eager sweep.
    pub const BASELINE: Cfg = Cfg {
        mark_threads: 1,
        force: false,
        lazy_sweep: false,
        resolve_cache: true,
    };
    /// The baseline with lazy sweeping.
    pub const LAZY: Cfg = Cfg {
        lazy_sweep: true,
        ..Cfg::BASELINE
    };

    pub fn apply(self, gc: &mut GcConfig) {
        gc.mark_threads = self.mark_threads;
        gc.mark_threads_force = self.force;
        gc.lazy_sweep = self.lazy_sweep;
        gc.resolve_cache = self.resolve_cache;
    }

    pub fn axis(self) -> Axis {
        let moved = [self.mark_threads != 1, self.lazy_sweep, !self.resolve_cache];
        match moved {
            [true, false, false] => Axis::Threads,
            [false, true, false] => Axis::Sweep,
            [false, false, true] => Axis::Cache,
            _ => Axis::Crossed,
        }
    }
}

/// Every configuration compared with the baseline: {1; forced 2, 4, 8;
/// unforced 4 (clamped to the host's cores)} × {eager, lazy} ×
/// {cache on, off}. Retiring a knob means deleting its axis here.
pub fn configs() -> Vec<Cfg> {
    let mut out = Vec::new();
    for (mark_threads, force) in [(1, false), (2, true), (4, true), (8, true), (4, false)] {
        for lazy_sweep in [false, true] {
            for resolve_cache in [true, false] {
                let cfg = Cfg {
                    mark_threads,
                    force,
                    lazy_sweep,
                    resolve_cache,
                };
                if cfg != Cfg::BASELINE {
                    out.push(cfg);
                }
            }
        }
    }
    out
}

/// The entries of [`configs`] that move exactly `axis`.
pub fn configs_on(axis: Axis) -> Vec<Cfg> {
    configs().into_iter().filter(|c| c.axis() == axis).collect()
}

/// Everything observable about one collection that must not depend on the
/// configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CollectionFingerprint {
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
    objects_live: u64,
    bytes_live: u64,
    /// Sorted bases of every surviving object, observed before any
    /// deferred sweep work is realized.
    live_objects: Vec<u32>,
    /// Sorted blacklisted pages after the cycle.
    blacklisted: Vec<u32>,
}

fn fingerprint(m: &Machine, stats: &CollectionStats) -> CollectionFingerprint {
    let heap = m.gc().heap();
    let mut live_objects: Vec<u32> = heap.live_objects().map(|o| o.base.raw()).collect();
    live_objects.sort_unstable();
    // The heap's aggregate view agrees with the walk even mid-pending.
    let walk_bytes: u64 = heap.live_objects().map(|o| u64::from(o.bytes)).sum();
    assert_eq!(heap.stats().bytes_live, walk_bytes, "bytes_live vs walk");
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
        objects_live: stats.sweep.objects_live,
        bytes_live: stats.sweep.bytes_live,
        live_objects,
        blacklisted,
    }
}

/// Runs a deterministic randomized typed+untyped workload and fingerprints
/// every collection; also returns the summed resolve hit+miss counters.
/// Only `cfg` varies between compared runs.
fn run_trace(seed: u64, generational: bool, cfg: Cfg) -> (Vec<CollectionFingerprint>, u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut gc = GcConfig {
        heap: HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 16 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        },
        blacklisting: true,
        generational,
        min_bytes_between_gcs: u64::MAX,
        free_space_divisor: 1 << 24,
        ..GcConfig::default()
    };
    cfg.apply(&mut gc);
    let mut m = Machine::new(MachineConfig {
        endian: Endian::Big,
        gc,
        seed,
        ..MachineConfig::default()
    });
    m.add_static_segment(Addr::new(0x2_0000), 4096);
    let roots = m.alloc_static(ROOT_SLOTS);
    // Static junk in the heap's vicinity: false references with root
    // provenance, so blacklisting has work to do.
    let junk = m.alloc_static(8);
    for i in 0..8u32 {
        m.store(junk + i * 4, 0x10_0000 + rng.random_range(0..2u32 << 20));
    }
    // Typed layouts: [ptr, data, data], [data, ptr, data, ptr],
    // [ptr, data, ptr, data, data, data].
    let descs = [
        Descriptor::with_pointers_at(3, &[0]),
        Descriptor::with_pointers_at(4, &[1, 3]),
        Descriptor::with_pointers_at(6, &[0, 2]),
    ]
    .map(|d| m.gc_mut().register_descriptor(d));

    let mut fingerprints = Vec::new();
    let mut resolves = 0u64;
    let mut recent: Vec<u32> = Vec::new();
    for step in 0..500u32 {
        match rng.random_range(0..100u32) {
            // A fresh untyped (0..30) or typed object, rooted somewhere.
            op @ 0..=44 => {
                let obj = if op < 30 {
                    let bytes = [12u32, 16, 24, 48][rng.random_range(0..4) as usize];
                    m.alloc(bytes, ObjectKind::Composite)
                } else {
                    let i = rng.random_range(0..3) as usize;
                    m.alloc_typed([3u32, 4, 6][i] * 4, descs[i])
                }
                .expect("heap has room");
                m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, obj.raw());
                recent.push(obj.raw());
            }
            // Link two recent objects through an arbitrary field. For a
            // typed target field this is an edge only if the field is a
            // declared pointer word.
            45..=69 => {
                if recent.len() >= 2 {
                    let from = recent[rng.random_range(0..recent.len())];
                    let to = recent[rng.random_range(0..recent.len())];
                    m.store(Addr::new(from) + rng.random_range(0..3u32) * 4, to);
                }
            }
            // A heap-sourced false reference stored inside an object: the
            // provenance class parallel workers buffer and merge.
            70..=79 => {
                if !recent.is_empty() {
                    let host = recent[rng.random_range(0..recent.len())];
                    let near = (0x10_0000 + rng.random_range(0..4u32 << 20)) | 1;
                    m.store(Addr::new(host) + 4, near);
                }
            }
            // Unroot a slot.
            80..=89 => m.store(roots + rng.random_range(0..ROOT_SLOTS) * 4, 0),
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

/// Compares each of `cfgs`' traces, addresses included, with the
/// baseline's at each seed, and checks the resolve counters follow the
/// cache: no lookups with it off, some with it on, serial or parallel.
pub fn traces_are_configuration_invariant(cfgs: &[Cfg], seeds: &[u64], generational: bool) {
    assert!(!cfgs.is_empty(), "no configuration to compare");
    for &seed in seeds {
        let (base, resolves) = run_trace(seed, generational, Cfg::BASELINE);
        assert!(base.len() > 10, "trace collected often enough to compare");
        assert!(
            resolves > 0,
            "seed {seed}: the baseline reports its lookups"
        );
        for &cfg in cfgs {
            let (run, resolves) = run_trace(seed, generational, cfg);
            assert_eq!(
                resolves > 0,
                cfg.resolve_cache,
                "seed {seed}: {cfg:?} reported {resolves} resolve lookups"
            );
            assert_eq!(
                base, run,
                "seed {seed} (generational={generational}): {cfg:?} diverged from the baseline"
            );
        }
    }
}

fn table1_run(profile: &Profile, blacklisting: bool, cfg: Cfg) -> ProgramTReport {
    let shape = table1::shape_for(profile, 25);
    let opts = BuildOptions {
        seed: 11,
        blacklisting,
        ..BuildOptions::default()
    };
    let mut platform = profile.build_custom(opts, |gc| cfg.apply(gc));
    let Platform { machine, hooks, .. } = &mut platform;
    shape.run(machine, &mut |m| hooks.tick(m))
}

/// Every Table-1 observable, the retained fraction bit for bit.
fn table1_key(r: &ProgramTReport) -> impl PartialEq + std::fmt::Debug {
    let counts = (
        r.lists,
        r.retained,
        r.collections,
        r.blacklist_pages,
        r.bytes_live,
    );
    let fates = (r.reclaimed.clone(), r.representatives.clone());
    (counts, r.fraction_retained().to_bits(), fates)
}

/// Table-1 retention — the paper's headline metric, on its worst-case
/// platform row, with blacklisting off and on — is the baseline's under
/// each of `cfgs`.
pub fn table1_retention_is_invariant(cfgs: &[Cfg]) {
    assert!(!cfgs.is_empty(), "no configuration to compare");
    let profile = Profile::sparc_static(false);
    for blacklisting in [false, true] {
        let base = table1_run(&profile, blacklisting, Cfg::BASELINE);
        for &cfg in cfgs {
            let run = table1_run(&profile, blacklisting, cfg);
            assert_eq!(
                table1_key(&base),
                table1_key(&run),
                "blacklisting={blacklisting}: {cfg:?} changed Table-1 retention"
            );
        }
    }
}
