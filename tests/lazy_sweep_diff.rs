//! Lazy sweeping is observationally identical to the eager sweep: the
//! sweep entry of the one configuration list (one marker, cache on),
//! compared exactly with the baseline, live addresses included. A lazy
//! snapshot releases empty blocks as the eager sweep does, so both sweeps
//! place later objects alike. See `equivalence/mod.rs`.

mod equivalence;

use equivalence::{
    configs_on, table1_retention_is_invariant, traces_are_configuration_invariant, Axis,
    FULL_SEEDS, GENERATIONAL_SEEDS,
};

#[test]
fn randomized_full_collections_are_sweep_strategy_invariant() {
    traces_are_configuration_invariant(&configs_on(Axis::Sweep), &FULL_SEEDS, false);
}

#[test]
fn randomized_generational_collections_are_sweep_strategy_invariant() {
    // A lazy minor snapshot must census pending survivors as tenured
    // before the deferred sweep promotes them for real.
    traces_are_configuration_invariant(&configs_on(Axis::Sweep), &GENERATIONAL_SEEDS, true);
}

#[test]
fn table1_retention_is_sweep_strategy_invariant() {
    table1_retention_is_invariant(&configs_on(Axis::Sweep));
}
