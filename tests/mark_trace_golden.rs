//! Golden fingerprints of the mark kernel on the equivalence harness's
//! typed+untyped traces and on Table-1 retention.
//!
//! Every candidate resolves through the page table and every scanned word
//! is read through the address space; the collector keeps no lookup cache
//! of its own. This file replays the baseline configuration (one serial
//! marker, eager sweep) of `equivalence/mod.rs` — each collection's
//! counters, its live-object set and the blacklist, after every
//! collection — and the Table-1 Program T run with blacklisting off and
//! on, and compares each outcome with a digest recorded while marking
//! still went through a page-resolve cache and a per-scan segment hint.
//! Each replay runs twice: as recorded, and with the fields the benchmark
//! assigns but the collector ignores set (`mark_threads = 4`,
//! `mark_threads_force = true`), which must not move a digest.
//!
//! A digest is FNV-1a over the `Debug` form of the fingerprint, so a
//! mismatch means some field changed; rerun the old and new code and
//! diff the `Debug` output to see which.

mod equivalence;

use equivalence::{table1_key_of, trace, Cfg, FULL_SEEDS, GENERATIONAL_SEEDS};
use std::fmt::Debug;

/// Recorded stop-the-world trace digests: `(seed, digest)`.
const FULL_GOLDEN: [(u64, u64); 6] = [
    (1, 0xe3a5_e2c9_c6ea_74d1),
    (3, 0xe131_b6a2_05e2_988a),
    (7, 0x7793_e230_c077_015c),
    (17, 0x154b_a780_3082_9da3),
    (47, 0x7fd0_d187_3392_bca4),
    (91, 0x38c5_42fe_4123_910e),
];

/// Recorded generational trace digests: `(seed, digest)`.
const GENERATIONAL_GOLDEN: [(u64, u64); 3] = [
    (5, 0x2d7f_71d4_b541_9ff0),
    (23, 0xe601_a5de_ac22_cbde),
    (29, 0xefbd_e0a9_213d_edc7),
];

/// Recorded Table-1 key digests: `(blacklisting, digest)`.
const TABLE1_GOLDEN: [(bool, u64); 2] = [
    (false, 0x50fc_ac06_3d46_4f58),
    (true, 0x221f_7ad7_e13e_980e),
];

/// The configurations each recorded digest must hold for.
const REPLAYED: [Cfg; 2] = [Cfg::BASELINE, Cfg::IGNORED];

/// 64-bit FNV-1a of the `Debug` form of `value`.
fn digest(value: &impl Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Compares each recorded trace digest with a fresh run, reporting every
/// mismatch at once.
fn traces_match(golden: &[(u64, u64)], seeds: &[u64], generational: bool) {
    let recorded: Vec<u64> = golden.iter().map(|&(seed, _)| seed).collect();
    assert_eq!(recorded, seeds, "one recorded digest per harness seed");
    let mut mismatches = Vec::new();
    for cfg in REPLAYED {
        for &(seed, want) in golden {
            let run = trace(seed, generational, cfg);
            assert!(run.len() > 10, "trace collected often enough to compare");
            let got = digest(&run);
            if got != want {
                mismatches.push(format!(
                    "{cfg:?} ({seed}, {got:#018x}) recorded {want:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "generational={generational}: trace fingerprints drifted: {mismatches:#?}"
    );
}

#[test]
fn full_trace_fingerprints_match_the_recording() {
    traces_match(&FULL_GOLDEN, &FULL_SEEDS, false);
}

#[test]
fn generational_trace_fingerprints_match_the_recording() {
    traces_match(&GENERATIONAL_GOLDEN, &GENERATIONAL_SEEDS, true);
}

#[test]
fn table1_retention_matches_the_recording() {
    let mut mismatches = Vec::new();
    for cfg in REPLAYED {
        for (blacklisting, want) in TABLE1_GOLDEN {
            let got = digest(&table1_key_of(blacklisting, cfg));
            if got != want {
                mismatches.push(format!(
                    "{cfg:?} ({blacklisting}, {got:#018x}) recorded {want:#018x}"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "Table-1 retention drifted: {mismatches:#?}"
    );
}
