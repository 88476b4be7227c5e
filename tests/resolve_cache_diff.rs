//! The page-resolve cache is observationally identical to resolving every
//! candidate from the page table: the cache entry of the one configuration
//! list (one marker, eager sweep), compared exactly with the baseline, and
//! its hit/miss counters are zero exactly when it is off. See
//! `equivalence/mod.rs`.

mod equivalence;

use equivalence::{
    configs_on, table1_retention_is_invariant, traces_are_configuration_invariant, Axis, Cfg,
    FULL_SEEDS, GENERATIONAL_SEEDS,
};

#[test]
fn mark_kernel_is_configuration_invariant() {
    let cfgs = configs_on(Axis::Cache);
    traces_are_configuration_invariant(&cfgs, &FULL_SEEDS, false);
    traces_are_configuration_invariant(&cfgs, &GENERATIONAL_SEEDS, true);
}

/// The hit/miss counters are telemetry only — but they must be *plausible*
/// telemetry: zero with the cache off, live with it on, on both the serial
/// and the parallel path.
#[test]
fn resolve_counters_track_the_configuration() {
    let parallel = Cfg {
        mark_threads: 4,
        force: true,
        ..Cfg::BASELINE
    };
    let off = |on: Cfg| Cfg {
        resolve_cache: false,
        ..on
    };
    traces_are_configuration_invariant(&[off(Cfg::BASELINE), parallel, off(parallel)], &[7], false);
}

#[test]
fn table1_retention_is_resolve_cache_invariant() {
    table1_retention_is_invariant(&configs_on(Axis::Cache));
}
