//! Golden fingerprints of the collection pipeline.
//!
//! A stop-the-world cycle, a generational minor cycle and an incremental
//! cycle are one mark–sweep pipeline with different roots: they share the
//! cycle start (numbering, blacklist epoch, mark clearing) and the cycle
//! end (finalizer resurrection, disappearing links, sweep, dirty-page
//! reset, statistics and events). This file replays a randomized mutator
//! under each of the three modes and compares what the pipeline emits with
//! a digest recorded before the two cycle ends were merged into one.
//!
//! The trace writes heap fields through [`Machine::store`], so the write
//! barrier's dirty pages feed minor collections and the incremental
//! finish; it registers finalizers and disappearing links, so the shared
//! end's resurrection and link clearing run with work to do.
//!
//! A digest is FNV-1a over the `Debug` form of the fingerprint: the event
//! stream without durations and phase times, every collection's
//! statistics without its timings and page-resolve cache counters, and
//! the sorted live heap at the end. A mismatch means some field changed; rerun the
//! old and new code and diff the `Debug` output to see which.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sec_gc::core::{observer, CollectionStats, GcConfig, GcEvent, GcObserver};
use sec_gc::heap::{HeapConfig, ObjectKind};
use sec_gc::machine::{Machine, MachineConfig};
use sec_gc::vmspace::{Addr, Endian};
use std::fmt::Debug;

const ROOT_SLOTS: u32 = 16;
const STEPS: u32 = 1500;
const SPINE_BYTES: u32 = 6000;

/// The three cycle shapes the pipeline serves.
#[derive(Clone, Copy, Debug)]
enum Mode {
    /// Stop-the-world full collections, eager sweep.
    StopTheWorld,
    /// Generational minor and full collections, lazy sweep.
    Generational,
    /// Incremental cycles of 64-object increments, lazy sweep.
    Incremental,
}

/// Recorded digests: `(mode, seed, digest)`. The two lazy-sweep modes
/// were last re-recorded when a pending block began waiting in its
/// address-ordered free list and large blocks began to be swept in the
/// pause: their runs match the same modes swept eagerly in everything but
/// the `LazySweep` batches and the sweep's `blocks_deferred`.
const GOLDEN: [(Mode, u64, u64); 6] = [
    (Mode::StopTheWorld, 5, 0xd737_7c6a_07aa_b91b),
    (Mode::StopTheWorld, 29, 0x091c_7dd4_3466_2cdc),
    (Mode::Generational, 5, 0x2b3c_8601_af81_b508),
    (Mode::Generational, 29, 0x91fa_87a6_b3ee_5601),
    (Mode::Incremental, 5, 0x13a6_b944_5abf_232d),
    (Mode::Incremental, 29, 0xd415_b881_a680_0679),
];

/// 64-bit FNV-1a of the `Debug` form of `value`.
fn digest(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Every event in program order, rendered without wall-clock fields.
#[derive(Debug, Default)]
struct Events(Vec<String>);

impl GcObserver for Events {
    fn on_event(&mut self, event: &GcEvent) {
        let line = match *event {
            GcEvent::CollectionEnd {
                gc_no,
                kind,
                objects_marked,
                objects_freed,
                bytes_freed,
                ..
            } => format!("end {gc_no} {kind:?} {objects_marked} {objects_freed} {bytes_freed}"),
            GcEvent::AllocSlowPath { bytes, .. } => format!("slow {bytes}"),
            GcEvent::IncrementalPause { gc_no, .. } => format!("pause {gc_no}"),
            GcEvent::LazySweep {
                blocks_swept,
                objects_freed,
                bytes_freed,
                pending_blocks,
                ..
            } => format!("lazy {blocks_swept} {objects_freed} {bytes_freed} {pending_blocks}"),
            ref other => format!("{other:?}"),
        };
        self.0.push(line);
    }
}

/// A collection's statistics without its timings and resolve counters.
/// The closing `par=None` is how the digests recorded the statistics'
/// former parallel-mark field, which was always `None` here.
fn cycle_key(c: &CollectionStats) -> String {
    format!(
        "{} {:?} {:?} roots={} heap={} cand={} valid={} false={} newbl={} bl={} \
         marked={}/{} fin={} allocs={}/{} {:?} par=None",
        c.gc_no,
        c.kind,
        c.reason,
        c.root_words_scanned,
        c.heap_words_scanned,
        c.candidates_in_range,
        c.valid_pointers,
        c.false_refs_near_heap,
        c.newly_blacklisted,
        c.blacklist_pages,
        c.objects_marked,
        c.bytes_marked,
        c.finalizers_ready,
        c.fast_path_allocs,
        c.slow_path_allocs,
        c.sweep,
    )
}

#[derive(Debug)]
struct PipelineFingerprint {
    events: Vec<String>,
    cycles: Vec<String>,
    live: Vec<u32>,
}

fn config(mode: Mode, events: sec_gc::core::SharedObserver) -> GcConfig {
    let mut gc = GcConfig {
        heap: HeapConfig {
            heap_base: Addr::new(0x10_0000),
            max_heap_bytes: 16 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        },
        blacklisting: true,
        // Pinned so every CI leg checks the same digest.
        resolve_cache: true,
        lazy_sweep: false,
        min_bytes_between_gcs: 16 << 10,
        free_space_divisor: 4,
        observer: Some(events),
        ..GcConfig::default()
    };
    match mode {
        Mode::StopTheWorld => {}
        Mode::Generational => {
            gc.generational = true;
            gc.lazy_sweep = true;
        }
        Mode::Incremental => {
            gc.incremental = true;
            gc.incremental_budget = 64;
            gc.lazy_sweep = true;
        }
    }
    gc
}

/// A deterministic randomized mutator with automatic collection
/// triggering, heap stores through the write barrier, finalizers and
/// disappearing links.
fn run_trace(mode: Mode, seed: u64) -> PipelineFingerprint {
    let events = observer(Events::default());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = Machine::new(MachineConfig {
        endian: Endian::Big,
        gc: config(mode, events.clone()),
        seed,
        ..MachineConfig::default()
    });
    m.add_static_segment(Addr::new(0x2_0000), 4096);
    let roots = m.alloc_static(ROOT_SLOTS);
    let junk = m.alloc_static(8);
    // A long-lived spine whose fields hold most of the live heap, so an
    // incremental cycle takes several increments and the mutator writes
    // into already-marked objects while it runs.
    let spine_root = m.alloc_static(1);
    let spine = m
        .alloc(SPINE_BYTES, ObjectKind::Composite)
        .expect("heap has room");
    m.store(spine_root, spine.raw());
    for i in 0..SPINE_BYTES / 16 {
        let obj = m.alloc(24, ObjectKind::Composite).expect("heap has room");
        m.store(spine + i * 16, obj.raw());
    }
    // What each root slot holds: (object base, bytes).
    let mut held: Vec<Option<(Addr, u32)>> = vec![None; ROOT_SLOTS as usize];
    let mut cycles = Vec::new();
    let mut seen = m.gc().stats().collections;

    for step in 0..STEPS {
        let slot = rng.random_range(0..ROOT_SLOTS);
        match rng.random_range(0..100u32) {
            0..=44 => {
                let bytes = *[8u32, 16, 24, 48, 256, 5000]
                    .get(rng.random_range(0..6) as usize)
                    .unwrap();
                let kind = if rng.random_range(0..4u32) == 0 {
                    ObjectKind::Atomic
                } else {
                    ObjectKind::Composite
                };
                let obj = m.alloc(bytes, kind).expect("heap has room");
                if rng.random_range(0..3u32) > 0 {
                    m.store(roots + slot * 4, obj.raw());
                    held[slot as usize] = Some((obj, bytes));
                }
            }
            45..=64 => {
                // A heap store: a field of the spine or of a rooted object
                // gets a rooted object or a fresh one only the heap holds.
                let Some((dst, bytes)) = (if rng.random_range(0..3u32) == 0 {
                    Some((spine, SPINE_BYTES))
                } else {
                    held[slot as usize]
                }) else {
                    continue;
                };
                let value = match held[rng.random_range(0..ROOT_SLOTS) as usize] {
                    Some((src, _)) if rng.random_range(0..2u32) == 0 => src,
                    _ => m.alloc(24, ObjectKind::Composite).expect("heap has room"),
                };
                let field = rng.random_range(0..bytes / 4);
                m.store(dst + field * 4, value.raw());
            }
            65..=74 => {
                m.store(roots + slot * 4, 0);
                held[slot as usize] = None;
            }
            75..=79 => {
                let obj = m.alloc(24, ObjectKind::Composite).expect("heap has room");
                m.gc_mut()
                    .register_finalizer(obj, u64::from(step))
                    .expect("fresh object");
                if rng.random_range(0..2u32) == 0 {
                    m.store(roots + slot * 4, obj.raw());
                    held[slot as usize] = Some((obj, 24));
                }
            }
            80..=84 => {
                // A weak slot in a rooted pointer-free holder.
                let holder = m.alloc(8, ObjectKind::Atomic).expect("heap has room");
                m.store(roots + slot * 4, holder.raw());
                held[slot as usize] = Some((holder, 8));
                let target = m.alloc(16, ObjectKind::Composite).expect("heap has room");
                m.store(holder, target.raw());
                m.gc_mut()
                    .register_disappearing_link(holder, target)
                    .expect("fresh object");
            }
            85..=89 => {
                m.gc_mut().drain_finalized();
            }
            _ => {
                let near = (0x10_0000 + rng.random_range(0..4u32 << 20)) | 1;
                m.store(junk + rng.random_range(0..8u32) * 4, near);
            }
        }
        let now = m.gc().stats().collections;
        assert!(now - seen <= 1, "one step ran at most one collection");
        if now > seen {
            cycles.push(cycle_key(m.gc().stats().last.as_ref().expect("ran")));
            seen = now;
        }
    }
    cycles.push(cycle_key(&m.collect()));
    let mut live: Vec<u32> = m.gc().heap().live_objects().map(|o| o.base.raw()).collect();
    live.sort_unstable();
    let events = events.lock().expect("event log").0.clone();
    PipelineFingerprint {
        events,
        cycles,
        live,
    }
}

#[test]
fn pipeline_fingerprints_match_the_recording() {
    let mut mismatches = Vec::new();
    for (mode, seed, want) in GOLDEN {
        let run = run_trace(mode, seed);
        assert!(
            run.cycles.len() > 4,
            "{mode:?} collected often enough to compare (got {})",
            run.cycles.len()
        );
        assert!(!run.live.is_empty(), "{mode:?} kept a live heap");
        let count = |prefix: &str| run.events.iter().filter(|e| e.starts_with(prefix)).count();
        assert!(count("FinalizersReady") > 0, "{mode:?} queued finalizers");
        match mode {
            Mode::StopTheWorld => assert_eq!(count("pause"), 0),
            Mode::Generational => assert!(run.cycles.iter().any(|c| c.contains(" Minor "))),
            Mode::Incremental => assert!(
                count("pause") > 4 * run.cycles.len(),
                "{mode:?} cycles took several increments"
            ),
        }
        let got = digest(&run);
        if got != want {
            mismatches.push(format!(
                "(Mode::{mode:?}, {seed}, {got:#018x}) recorded {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "the collection pipeline diverged from the recording:\n{}",
        mismatches.join("\n")
    );
}
