//! Parallel marking is observationally identical to the serial marker:
//! the thread entries of the one configuration list (forced 2, 4, 8
//! racing workers, and 4 clamped to the host's cores; eager sweep, cache
//! on), compared exactly with the baseline. See `equivalence/mod.rs`.

mod equivalence;

use equivalence::{
    configs_on, table1_retention_is_invariant, traces_are_configuration_invariant, Axis, Cfg,
    FULL_SEEDS, GENERATIONAL_SEEDS,
};

fn thread_configs(force: bool) -> Vec<Cfg> {
    let mut cfgs = configs_on(Axis::Threads);
    cfgs.retain(|c| c.force == force);
    cfgs
}

#[test]
fn randomized_full_collections_are_thread_count_invariant() {
    traces_are_configuration_invariant(&thread_configs(false), &FULL_SEEDS, false);
}

#[test]
fn forced_worker_racing_is_thread_count_invariant() {
    // `mark_threads_force` skips the cores clamp, so every compared run
    // really spawns 2/4/8 racing workers even on a single-core host.
    traces_are_configuration_invariant(&thread_configs(true), &FULL_SEEDS, false);
}

#[test]
fn randomized_generational_collections_are_thread_count_invariant() {
    // Minor collections seed the parallel drain with the dirty-old scan.
    traces_are_configuration_invariant(&configs_on(Axis::Threads), &GENERATIONAL_SEEDS, true);
}

#[test]
fn table1_retention_is_thread_count_invariant() {
    table1_retention_is_invariant(&configs_on(Axis::Threads));
}
