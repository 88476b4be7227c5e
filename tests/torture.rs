//! GC torture: random mutator traces checked against an exact shadow model.
//!
//! A randomized program drives the machine (allocations, pointer stores,
//! root updates, calls, thread switches, minor and full collections) while
//! the test maintains an *exact* model of reachability from the roots it
//! controls. After every collection:
//!
//! * **Soundness** — every exactly-reachable object is still live (a
//!   conservative collector may never reclaim reachable memory);
//! * **No faults** — all object memory reads still succeed and the links
//!   the model knows about still hold their values (no premature reuse).
//!
//! Conservatism means the collector may keep *more* than the model (stale
//! frames, droppings) — never less.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sec_gc::core::GcConfig;
use sec_gc::heap::{HeapConfig, ObjectKind};
use sec_gc::machine::{FramePolicy, Machine, MachineConfig, StackClearing};
use sec_gc::vmspace::{Addr, Endian};
use std::collections::{HashMap, HashSet, VecDeque};

const ROOT_SLOTS: u32 = 16;

/// Exact shadow of the object graph the test itself built.
#[derive(Default)]
struct Shadow {
    /// Object base → the two link words the model wrote (exact edges).
    objects: HashMap<u32, [u32; 2]>,
    /// Static root slot index → object base (0 = empty).
    roots: Vec<u32>,
}

impl Shadow {
    fn reachable(&self) -> HashSet<u32> {
        let mut seen = HashSet::new();
        let mut queue: VecDeque<u32> = self.roots.iter().copied().filter(|&r| r != 0).collect();
        while let Some(obj) = queue.pop_front() {
            if obj == 0 || !seen.insert(obj) {
                continue;
            }
            if let Some(links) = self.objects.get(&obj) {
                for &l in links {
                    if l != 0 && !seen.contains(&l) {
                        queue.push_back(l);
                    }
                }
            }
        }
        seen
    }
}

/// Which collector mode a torture run drives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    StopWorld,
    Generational,
    Incremental,
}

fn machine(seed: u64, mode: Mode, mark_threads: u32, lazy_sweep: bool) -> Machine {
    let mut m = Machine::new(MachineConfig {
        endian: Endian::Big,
        gc: GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 32 << 20,
                growth_pages: 16,
                ..HeapConfig::default()
            },
            generational: mode == Mode::Generational,
            incremental: mode == Mode::Incremental,
            incremental_budget: 64,
            full_gc_every: 3,
            min_bytes_between_gcs: 12 << 10,
            free_space_divisor: 1 << 24,
            mark_threads,
            // Really spawn the workers even on a single-core host: the
            // torture trace is the nastiest racing workload we have.
            mark_threads_force: mark_threads > 1,
            lazy_sweep,
            ..GcConfig::default()
        },
        frame: FramePolicy {
            pad_words: 6,
            clear_on_push: false,
        },
        register_windows: if seed.is_multiple_of(2) { 8 } else { 0 },
        allocator_hygiene: seed.is_multiple_of(3),
        collector_hygiene: seed.is_multiple_of(3),
        stack_clearing: StackClearing {
            enabled: seed.is_multiple_of(5),
            every_allocs: 16,
            max_bytes_per_clear: 8 << 10,
        },
        seed,
        ..MachineConfig::default()
    });
    m.add_static_segment(Addr::new(0x2_0000), 4096);
    m
}

/// Heap-census consistency: three independent full passes over the heap
/// (the raw object iterator, the generation census, and the size-class
/// census) and the incrementally maintained `bytes_live` counter must all
/// describe the same heap. A marker that double-frees, double-sweeps or
/// loses an object under any worker count breaks one of these first.
fn check_census(m: &Machine) {
    let heap = m.gc().heap();
    let (mut live_objects, mut live_bytes) = (0u64, 0u64);
    for obj in heap.live_objects() {
        live_objects += 1;
        live_bytes += u64::from(obj.bytes);
    }
    let stats = heap.stats();
    assert_eq!(
        stats.bytes_live, live_bytes,
        "bytes_live counter disagrees with a full object walk"
    );
    let (young, old) = heap.generation_census();
    assert_eq!(
        young + old,
        live_objects,
        "generation census disagrees with the object walk"
    );
    let by_class: u64 = heap
        .size_class_census()
        .iter()
        .map(|row| u64::from(row.live_objects))
        .sum();
    assert_eq!(
        by_class, live_objects,
        "size-class census disagrees with the object walk"
    );
}

fn check(m: &Machine, shadow: &Shadow) {
    check_census(m);
    let reachable = shadow.reachable();
    for &obj in &reachable {
        let addr = Addr::new(obj);
        assert!(
            m.gc().is_live(addr),
            "exactly-reachable object {addr} was reclaimed"
        );
        // Its links still read back exactly as the model wrote them.
        let links = &shadow.objects[&obj];
        assert_eq!(m.load(addr), links[0], "link 0 of {addr} corrupted");
        assert_eq!(m.load(addr + 4), links[1], "link 1 of {addr} corrupted");
    }
}

fn torture(seed: u64, mode: Mode, steps: u32, (mark_threads, lazy_sweep): (u32, bool)) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = machine(seed, mode, mark_threads, lazy_sweep);
    let roots_base = m.alloc_static(ROOT_SLOTS);
    let mut shadow = Shadow {
        roots: vec![0; ROOT_SLOTS as usize],
        ..Shadow::default()
    };
    let t1 = m.spawn_thread(64 << 10);
    let main = m.current_thread();

    for step in 0..steps {
        match rng.random_range(0..100u32) {
            // Allocate a fresh 12-byte object and root it somewhere.
            0..=39 => {
                let obj = m.alloc(12, ObjectKind::Composite).expect("heap has room");
                let slot = rng.random_range(0..ROOT_SLOTS);
                m.store(roots_base + slot * 4, obj.raw());
                shadow.objects.insert(obj.raw(), [0, 0]);
                shadow.roots[slot as usize] = obj.raw();
            }
            // Link two *reachable* objects (exact edge, via the write
            // barrier). Restricting both ends to the reachable set keeps
            // the model sound: an object that ever becomes unreachable can
            // only regain reachability through a new edge, and new edges
            // only target objects that are provably still alive.
            40..=64 => {
                let reachable: Vec<u32> = shadow.reachable().into_iter().collect();
                if reachable.len() >= 2 {
                    let from = reachable[rng.random_range(0..reachable.len())];
                    let to = reachable[rng.random_range(0..reachable.len())];
                    let field = rng.random_range(0..2u32);
                    m.store(Addr::new(from) + field * 4, to);
                    shadow.objects.get_mut(&from).expect("known")[field as usize] = to;
                }
            }
            // Clear a root slot.
            65..=74 => {
                let slot = rng.random_range(0..ROOT_SLOTS);
                m.store(roots_base + slot * 4, 0);
                shadow.roots[slot as usize] = 0;
            }
            // Stack activity: garbage allocations inside frames.
            75..=84 => {
                m.call(2, |m| {
                    for _ in 0..8 {
                        let junk = m.alloc(8, ObjectKind::Composite).expect("heap has room");
                        m.set_local(0, junk.raw());
                    }
                });
            }
            // Thread hop with some register traffic.
            85..=89 => {
                m.switch_thread(t1);
                m.call(1, |m| m.set_local(0, step));
                m.switch_thread(main);
            }
            // Explicit full collection.
            90..=94 => {
                m.collect();
                prune_and_check(&mut m, &mut shadow);
            }
            // Mode-specific collection step: a minor collection, or a few
            // increments of an in-progress incremental cycle.
            _ => {
                match mode {
                    Mode::Generational => {
                        m.gc_mut().collect_minor();
                    }
                    Mode::Incremental => {
                        for _ in 0..4 {
                            let _ = m
                                .gc_mut()
                                .collect_increment(sec_gc::core::CollectReason::Explicit);
                        }
                    }
                    Mode::StopWorld => {}
                }
                prune_and_check(&mut m, &mut shadow);
            }
        }
    }
    m.collect();
    prune_and_check(&mut m, &mut shadow);

    // Endgame: clear every root; after two full collections only
    // conservatism (stale stack/registers) may keep anything of ours.
    for slot in 0..ROOT_SLOTS {
        m.store(roots_base + slot * 4, 0);
        shadow.roots[slot as usize] = 0;
    }
    m.collect();
    m.collect();
    let still: usize = shadow
        .objects
        .keys()
        .filter(|&&o| m.gc().is_live(Addr::new(o)))
        .count();
    let total = shadow.objects.len().max(1);
    let hygienic = seed.is_multiple_of(3);
    if hygienic {
        // A clean machine leaves no stale roots: (nearly) everything goes.
        assert!(
            still * 4 < total.max(25),
            "hygienic machine reclaims nearly everything ({still}/{total})"
        );
    } else {
        // Sloppy machines legitimately pin objects through stale register
        // windows and droppings — the paper's phenomenon, not a bug. The
        // collector must still have reclaimed *something* of the garbage.
        assert!(
            still < total || total < 8,
            "even a sloppy machine reclaims some garbage ({still}/{total})"
        );
    }
}

/// Drops model entries for objects the collector reclaimed (it may keep
/// extra — conservatism — but never reclaim reachable ones), then checks.
/// Unreachable entries whose memory was reclaimed leave dangling link
/// *values* behind in other unreachable objects; `check` never reads
/// those, because it only inspects the reachable set.
fn prune_and_check(m: &mut Machine, shadow: &mut Shadow) {
    let reachable = shadow.reachable();
    shadow
        .objects
        .retain(|&obj, _| reachable.contains(&obj) || m.gc().is_live(Addr::new(obj)));
    check(m, shadow);
}

/// Every torture configuration runs under serial marking and under four
/// forced (really racing) mark workers, each with eager and with lazy
/// sweeping — same trace, same shadow model. Pairs are
/// `(mark_threads, lazy_sweep)`.
const CONFIGS: [(u32, bool); 4] = [(1, false), (1, true), (4, false), (4, true)];

#[test]
fn torture_full_collections() {
    for seed in [1u64, 2, 3, 4] {
        for cfg in CONFIGS {
            torture(seed, Mode::StopWorld, 1500, cfg);
        }
    }
}

#[test]
fn torture_generational() {
    for seed in [5u64, 6, 7, 8] {
        for cfg in CONFIGS {
            torture(seed, Mode::Generational, 1500, cfg);
        }
    }
}

#[test]
fn torture_incremental() {
    for seed in [9u64, 10, 11, 12] {
        for cfg in CONFIGS {
            torture(seed, Mode::Incremental, 1500, cfg);
        }
    }
}

#[test]
fn torture_long_single_run() {
    for cfg in CONFIGS {
        torture(42, Mode::Generational, 6000, cfg);
        torture(43, Mode::Incremental, 6000, cfg);
    }
}
