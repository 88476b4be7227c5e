//! Cross-crate integration tests: the full stack (vmspace → heap → core →
//! machine → platforms → workloads → analysis) exercised end to end.

use sec_gc::analysis::table1::{self, Table1Config};
use sec_gc::core::{GcConfig, PointerPolicy};
use sec_gc::heap::{HeapConfig, ObjectKind};
use sec_gc::machine::{Machine, MachineConfig};
use sec_gc::platforms::{BuildOptions, Platform, Profile};
use sec_gc::vmspace::Addr;
use sec_gc::workloads::ProgramT;

/// The paper's headline result, end to end at reduced scale: on the worst
/// platform, blacklisting collapses Program T retention by an order of
/// magnitude.
#[test]
fn blacklisting_collapses_sparc_static_retention() {
    let profile = Profile::sparc_static(false);
    let config = Table1Config {
        seeds: vec![11],
        scale: 8,
    };
    let row = table1::run_row(&profile, &config);
    let without = row.no_blacklisting.hi();
    let with = row.blacklisting.hi();
    assert!(
        without > 0.25,
        "polluted baseline retains substantially: {without}"
    );
    assert!(
        with < without / 4.0,
        "blacklisting collapses retention: {with} vs {without}"
    );
}

/// The startup collection is what protects against static data: without
/// it, the first allocations land on pages that static junk already points
/// at, and blacklisting only helps *after* the damage.
#[test]
fn startup_collection_matters() {
    use sec_gc::core::Collector;
    use sec_gc::vmspace::{AddressSpace, Endian, SegmentKind, SegmentSpec};

    let run = |initial_collect: bool| -> u32 {
        let mut space = AddressSpace::new(Endian::Big);
        space
            .map(SegmentSpec::new(
                "junk",
                SegmentKind::Data,
                Addr::new(0x1_0000),
                4096,
            ))
            .expect("maps");
        // Junk integers pointing at the first pages of the future heap.
        for i in 0..32u32 {
            space
                .write_u32(Addr::new(0x1_0000 + i * 4), 0x10_0000 + i * 4096 + 24)
                .expect("mapped");
        }
        let mut gc = Collector::new(
            space,
            GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    ..HeapConfig::default()
                },
                initial_collect,
                min_bytes_between_gcs: u64::MAX,
                ..GcConfig::default()
            },
        );
        // Allocate garbage straight away, then collect and count survivors.
        for _ in 0..10_000 {
            gc.alloc(16, ObjectKind::Composite).expect("heap has room");
        }
        gc.collect();
        gc.heap().live_objects().count() as u32
    };
    let with_startup = run(true);
    let without_startup = run(false);
    assert_eq!(with_startup, 0, "startup collection neutralizes all junk");
    assert!(
        without_startup > 0,
        "without it, junk pins objects allocated before the first collection"
    );
}

/// Finalization, blacklisting and the machine's stack discipline compose:
/// a list dropped by the program is finalized exactly once even while
/// static junk pins *other* lists.
#[test]
fn finalization_is_exactly_once_under_pollution() {
    let mut platform = Profile::sparc_static(false).build(BuildOptions {
        seed: 9,
        blacklisting: true,
        ..BuildOptions::default()
    });
    let m = &mut platform.machine;
    m.gc_mut().start();
    let root = m.alloc_static(1);
    let obj = m.alloc(8, ObjectKind::Composite).expect("heap has room");
    m.store(root, obj.raw());
    m.gc_mut().register_finalizer(obj, 7).expect("live object");
    m.collect();
    assert!(m.gc_mut().drain_finalized().is_empty(), "still rooted");
    m.store(root, 0);
    m.collect();
    assert_eq!(m.gc_mut().drain_finalized(), vec![(obj, 7)]);
    m.collect();
    assert!(
        m.gc_mut().drain_finalized().is_empty(),
        "never delivered twice"
    );
}

/// The interior-pointer policy changes exactly what Table 1 measures:
/// under `BaseOnly`, Program T's circular lists are reclaimed even on the
/// polluted image, because junk rarely equals an object *base* exactly.
#[test]
fn pointer_policy_controls_misidentification_rate() {
    let profile = Profile::sparc_static(false);
    let shape = ProgramT::paper().scaled(10);
    let mut retained = Vec::new();
    for policy in [PointerPolicy::AllInterior, PointerPolicy::BaseOnly] {
        let mut platform = profile.build(BuildOptions {
            seed: 2,
            blacklisting: false,
            pointer_policy: policy,
            ..BuildOptions::default()
        });
        let Platform { machine, hooks, .. } = &mut platform;
        let r = shape.run(machine, &mut |m| hooks.tick(m));
        retained.push(r.retained);
    }
    assert!(
        retained[1] <= retained[0],
        "base-only must misidentify no more than all-interior: {retained:?}"
    );
}

/// A long-running machine across many collection cycles stays consistent:
/// allocation, collection, and the blacklist converge rather than drift.
#[test]
fn steady_state_stability() {
    let mut m = Machine::new(MachineConfig {
        gc: GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 8 << 20,
                growth_pages: 16,
                ..HeapConfig::default()
            },
            min_bytes_between_gcs: 64 << 10,
            ..GcConfig::default()
        },
        ..MachineConfig::default()
    });
    m.add_static_segment(Addr::new(0x2_0000), 4096);
    let root = m.alloc_static(1);
    // A rotating buffer of live lists; everything else is garbage.
    for round in 0..20_000u32 {
        let obj = m.alloc(24, ObjectKind::Composite).expect("heap has room");
        if round % 3 == 0 {
            m.store(root, obj.raw());
        }
    }
    m.collect();
    let stats = m.gc().heap().stats();
    assert!(
        stats.bytes_live <= 64,
        "steady-state garbage is reclaimed; live = {}",
        stats.bytes_live
    );
    assert!(
        stats.mapped_pages < 1024,
        "heap did not balloon: {} pages",
        stats.mapped_pages
    );
    assert!(m.gc().gc_count() >= 3, "collections actually ran");
}

/// Every Table-1 profile builds, runs a tiny Program T, and produces a
/// well-formed report under both toggles.
#[test]
fn all_profiles_run_end_to_end() {
    for profile in Profile::table1_rows() {
        for blacklisting in [false, true] {
            let report = table1::run_once(&profile, 1, blacklisting, 25);
            assert!(report.lists >= 4, "{}: report is well-formed", profile.name);
            assert!(
                report.collections >= 2,
                "{}: collections happened ({})",
                profile.name,
                report.collections
            );
            assert_eq!(report.representatives.len() as u32, report.lists);
        }
    }
}
