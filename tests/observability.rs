//! Integration tests for the telemetry subsystem: the observer event
//! stream under a real workload, phase-timing consistency, and the JSON
//! metrics snapshot.

use sec_gc::core::{observer, GcEvent, RingBufferSink, METRICS_SCHEMA_VERSION};
use sec_gc::platforms::{BuildOptions, Platform, Profile};
use sec_gc::workloads::ProgramT;

/// Runs Program T (scaled down) with a ring-buffer observer installed,
/// returning the retained event stream and the platform for further
/// inspection.
fn run_program_t_with_observer() -> (Vec<GcEvent>, Platform) {
    let sink = observer(RingBufferSink::new(100_000));
    let profile = Profile::sparc_static(false);
    let mut platform = profile.build_custom(
        BuildOptions {
            seed: 1,
            blacklisting: true,
            ..BuildOptions::default()
        },
        |gc| gc.observer = Some(sink.clone()),
    );
    let shape = ProgramT::paper().scaled(20);
    let Platform { machine, hooks, .. } = &mut platform;
    let report = shape.run(machine, &mut |m| hooks.tick(m));
    assert!(report.collections > 0, "Program T collects");
    let events = sink.lock().expect("sink uncontended").events();
    (events, platform)
}

#[test]
fn program_t_event_stream_is_ordered() {
    let (events, _platform) = run_program_t_with_observer();
    assert!(!events.is_empty(), "the run produces events");

    // Every CollectionBegin is closed by a CollectionEnd with the same
    // gc_no before the next begins, and gc_no increases monotonically.
    let mut open: Option<u64> = None;
    let mut last_gc_no = 0u64;
    let mut cycles = 0u32;
    for event in &events {
        match *event {
            GcEvent::CollectionBegin { gc_no, .. } => {
                assert_eq!(open, None, "GC#{gc_no} begins while another cycle is open");
                assert!(
                    gc_no > last_gc_no,
                    "gc_no increases: {gc_no} after {last_gc_no}"
                );
                open = Some(gc_no);
            }
            GcEvent::CollectionEnd {
                gc_no,
                duration,
                phases,
                ..
            } => {
                assert_eq!(open, Some(gc_no), "end pairs with the open begin");
                assert!(
                    phases.total() <= duration,
                    "phases fit in the cycle duration"
                );
                open = None;
                last_gc_no = gc_no;
                cycles += 1;
            }
            // Mid-cycle events carry the open cycle's number.
            GcEvent::BlacklistGrow { gc_no, .. } | GcEvent::FinalizersReady { gc_no, .. } => {
                assert_eq!(open, Some(gc_no), "cycle-scoped event inside its cycle");
            }
            _ => {}
        }
    }
    assert_eq!(open, None, "every begun cycle finished");
    assert!(cycles > 0, "at least one full begin/end pair observed");
}

#[test]
fn program_t_emits_slow_paths_and_blacklist_growth() {
    let (events, platform) = run_program_t_with_observer();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, GcEvent::AllocSlowPath { .. })),
        "automatic collections make some allocations slow"
    );
    assert!(
        events.iter().any(|e| matches!(e, GcEvent::HeapGrow { .. })),
        "the heap grows from empty"
    );
    // SPARC(static) pollution blacklists pages; growth must be reported.
    let final_pages = platform.machine.gc().blacklist().len();
    if final_pages > 0 {
        let reported: u32 = events
            .iter()
            .filter_map(|e| match e {
                GcEvent::BlacklistGrow {
                    newly_blacklisted, ..
                } => Some(*newly_blacklisted),
                _ => None,
            })
            .sum();
        assert!(
            reported > 0,
            "blacklist growth events cover the observed pages"
        );
    }
    // Histograms in GcStats agree with the event stream's cycle count.
    let stats = platform.machine.gc().stats();
    assert_eq!(
        stats.pause_times.count(),
        stats.collections + stats.increments,
        "one pause sample per stop-the-world cycle (no incremental mode here)"
    );
    assert!(stats.pause_times.p50() <= stats.pause_times.p95());
    assert!(stats.pause_times.p95() <= stats.pause_times.p99());
    assert!(stats.pause_times.p99() <= stats.pause_times.max());
}

#[test]
fn phase_breakdown_sums_within_total_duration() {
    let (_events, platform) = run_program_t_with_observer();
    let last = platform.machine.gc().stats().last.expect("collections ran");
    let phases = last.phases;
    assert!(
        phases.total() > std::time::Duration::ZERO,
        "phases were timed"
    );
    assert!(
        phases.total() <= last.duration,
        "root-scan {:?} + mark {:?} + finalize {:?} + sweep {:?} fits in {:?}",
        phases.root_scan,
        phases.mark,
        phases.finalize,
        phases.sweep,
        last.duration
    );
}

#[test]
fn metrics_json_snapshot_has_the_documented_schema() {
    let (_events, platform) = run_program_t_with_observer();
    let json = platform.machine.gc().metrics_json();
    assert!(json.starts_with(&format!("{{\"version\":{METRICS_SCHEMA_VERSION},")));
    for key in [
        "\"collections\":",
        "\"last_collection\":",
        "\"phases\":",
        "\"root_scan_ns\":",
        "\"mark_ns\":",
        "\"finalize_ns\":",
        "\"sweep_ns\":",
        "\"pause_ns\":",
        "\"alloc_slow_path_ns\":",
        "\"fast_path_allocs\":",
        "\"slow_path_allocs\":",
        "\"p50\":",
        "\"p95\":",
        "\"p99\":",
        "\"heap\":",
        "\"page_table_bytes\":",
        "\"pop_words_scanned\":",
        "\"size_classes\":",
        "\"blacklist\":",
    ] {
        assert!(json.contains(key), "snapshot missing {key}: {json}");
    }
    // Balanced braces/brackets outside strings — a cheap well-formedness
    // check that catches unterminated objects without a JSON parser.
    let mut depth = 0i64;
    for c in json.chars() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => depth -= 1,
            _ => {}
        }
        assert!(depth >= 0, "close before open in {json}");
    }
    assert_eq!(depth, 0, "unbalanced JSON nesting");
}

#[test]
fn incremental_cycle_reports_pauses_and_phases() {
    use sec_gc::core::{CollectReason, Collector, GcConfig};
    use sec_gc::heap::ObjectKind;
    use sec_gc::vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};

    let sink = observer(RingBufferSink::new(10_000));
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
            incremental: true,
            incremental_budget: 64,
            observer: Some(sink.clone()),
            ..GcConfig::default()
        },
    );
    // A live chain long enough to need several increments.
    let mut head = 0u32;
    for _ in 0..1000 {
        let cell = gc.alloc(16, ObjectKind::Composite).expect("room");
        gc.space_mut().write_u32(cell, head).expect("mapped");
        head = cell.raw();
        gc.space_mut()
            .write_u32(Addr::new(0x1_0000), head)
            .expect("mapped");
    }
    let stats = loop {
        if let Some(c) = gc.collect_increment(CollectReason::Explicit) {
            break c;
        }
    };
    assert!(
        stats.phases.total() <= stats.duration,
        "mutator time is excluded from phases"
    );
    assert!(
        stats.phases.mark > std::time::Duration::ZERO,
        "increments accumulated mark time"
    );
    let events = sink.lock().expect("uncontended").events();
    let pauses = events
        .iter()
        .filter(|e| matches!(e, GcEvent::IncrementalPause { .. }))
        .count() as u64;
    assert!(pauses >= 2, "several bounded pauses observed, got {pauses}");
    // One histogram sample per pause, plus one for the stop-the-world
    // startup collection (which is not an incremental pause).
    assert_eq!(gc.stats().pause_times.count(), pauses + 1);
}
