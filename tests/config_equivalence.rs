//! A configuration that moves every field it can at once — lazy sweeping,
//! and the mark-worker fields the benchmark assigns but the collector
//! ignores — is observationally identical to the paper's eager
//! collector: compared exactly with the baseline on randomized traces and
//! Table-1 retention, and GCBench classic under lazy sweeping. Lazy
//! sweeping alone is `lazy_sweep_diff.rs`; the ignored fields alone are
//! replayed against recorded digests by `mark_trace_golden.rs`. All three
//! share `equivalence/mod.rs`.

mod equivalence;

use equivalence::{
    table1_retention_is_invariant, traces_are_configuration_invariant, Cfg, FULL_SEEDS,
    GENERATIONAL_SEEDS,
};
use sec_gc::core::{observer, GcEvent, GcObserver};
use sec_gc::platforms::{BuildOptions, Profile};
use sec_gc::workloads::GcBench;

#[test]
fn randomized_full_collections_are_configuration_invariant() {
    traces_are_configuration_invariant(&[Cfg::CROSSED], &FULL_SEEDS, false);
}

#[test]
fn randomized_generational_collections_are_configuration_invariant() {
    traces_are_configuration_invariant(&[Cfg::CROSSED], &GENERATIONAL_SEEDS, true);
}

#[test]
fn table1_retention_is_configuration_invariant() {
    table1_retention_is_invariant(&[Cfg::CROSSED]);
}

/// Sums every collection's mark and reclamation counts over a run (the
/// collector's `GcStats` keeps only the last collection's).
#[derive(Debug, Default, PartialEq, Eq)]
struct RunTotals {
    collections: u64,
    objects_marked: u64,
    objects_freed: u64,
    bytes_freed: u64,
    /// Live bytes after the run, with all deferred sweep work realized.
    bytes_live: u64,
}

impl GcObserver for RunTotals {
    fn on_event(&mut self, event: &GcEvent) {
        if let GcEvent::CollectionEnd {
            objects_marked,
            objects_freed,
            bytes_freed,
            ..
        } = event
        {
            self.collections += 1;
            self.objects_marked += objects_marked;
            self.objects_freed += objects_freed;
            self.bytes_freed += bytes_freed;
        }
    }
}

fn gcbench_classic(cfg: Cfg) -> RunTotals {
    let totals = observer(RunTotals::default());
    let mut profile = Profile::synthetic();
    profile.max_heap_bytes = 512 << 20;
    let mut platform = profile.build_custom(BuildOptions::default(), |gc| {
        cfg.apply(gc);
        gc.observer = Some(totals.clone());
    });
    GcBench::classic().run(&mut platform.machine);
    platform.machine.gc_mut().finish_sweep();
    let bytes_live = platform.machine.gc().heap().stats().bytes_live;
    let mut totals = std::mem::take(&mut *totals.lock().expect("run totals"));
    totals.bytes_live = bytes_live;
    totals
}

#[test]
fn gcbench_classic_is_configuration_invariant() {
    let base = gcbench_classic(Cfg::BASELINE);
    assert!(base.collections > 0 && base.objects_freed > 0);
    assert_eq!(
        base,
        gcbench_classic(Cfg::LAZY),
        "lazy sweeping diverged on GCBench"
    );
}
