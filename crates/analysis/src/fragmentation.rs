//! The conclusions' fragmentation claim.
//!
//! "…even a completely nonmoving conservative collector should gain a
//! slight advantage over a malloc/free implementation, in that it is
//! usually much less expensive to keep free lists sorted by address. This
//! increases the probability that related objects are allocated together,
//! and thus increases the probability of large chunks of adjacent space
//! becoming available in the future, decreasing fragmentation."
//!
//! The experiment drives the explicit heap with a churning allocation
//! trace under both free-list policies and compares external
//! fragmentation.

use crate::TextTable;
use gc_heap::{ExplicitHeap, FreeListPolicy, HeapConfig};
use gc_vmspace::{Addr, AddressSpace, Endian};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// Shape of the fragmentation trace.
#[derive(Clone, Copy, Debug)]
pub struct FragmentationRun {
    /// Alloc/free operations to perform.
    pub operations: u32,
    /// Steady-state live object target.
    pub live_target: u32,
    /// Smallest object size.
    pub min_bytes: u32,
    /// Largest object size.
    pub max_bytes: u32,
}

impl Default for FragmentationRun {
    fn default() -> Self {
        FragmentationRun {
            operations: 60_000,
            live_target: 2_000,
            min_bytes: 8,
            max_bytes: 512,
        }
    }
}

/// Measured outcome for one policy.
#[derive(Clone, Copy, Debug)]
pub struct FragmentationReport {
    /// The free-list policy driven.
    pub policy: FreeListPolicy,
    /// Pages mapped at the end.
    pub mapped_pages: u32,
    /// Whole pages recovered (mapped but holding no objects) after the
    /// shrink — higher is better: these are reusable for any size class or
    /// large object.
    pub free_pages: u32,
    /// Longest contiguous free-page run (larger = better coalescing).
    pub largest_free_run: u32,
    /// Live bytes divided by the capacity of the pages still holding
    /// objects — higher means survivors are packed densely rather than
    /// smeared across the heap.
    pub occupancy: f64,
}

/// Runs the trace under one policy.
///
/// The trace mixes phases (growing, churning, shrinking) with size drift so
/// placement policy has something to matter for.
pub fn run(config: &FragmentationRun, policy: FreeListPolicy, seed: u64) -> FragmentationReport {
    let mut space = AddressSpace::new(Endian::Big);
    let mut heap = ExplicitHeap::new(HeapConfig {
        heap_base: Addr::new(0x10_0000),
        max_heap_bytes: 256 << 20,
        growth_pages: 64,
        freelist_policy: policy,
    });
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut live: Vec<Addr> = Vec::new();
    for op in 0..config.operations {
        // Phase drift: the live target breathes between 50% and 150%.
        let phase = f64::from(op) / f64::from(config.operations);
        let breathe = 1.0 + 0.5 * (phase * std::f64::consts::TAU * 3.0).sin();
        let target = (f64::from(config.live_target) * breathe) as usize;
        if live.len() < target {
            let bytes = rng.random_range(config.min_bytes..=config.max_bytes);
            let p = heap
                .malloc(&mut space, bytes)
                .expect("heap limit is generous");
            live.push(p);
        } else if !live.is_empty() {
            let idx = rng.random_range(0..live.len());
            let p = live.swap_remove(idx);
            heap.free(p).expect("live pointer frees cleanly");
        }
    }
    // Shrink to a quarter and measure steady-state fragmentation.
    while live.len() > config.live_target as usize / 4 {
        let idx = rng.random_range(0..live.len());
        let p = live.swap_remove(idx);
        heap.free(p).expect("live pointer frees cleanly");
    }
    let stats = heap.stats();
    let used_pages = stats.mapped_pages - stats.free_pages;
    FragmentationReport {
        policy,
        mapped_pages: stats.mapped_pages,
        free_pages: stats.free_pages,
        largest_free_run: stats.largest_free_run,
        occupancy: if used_pages == 0 {
            1.0
        } else {
            stats.bytes_live as f64 / (f64::from(used_pages) * 4096.0)
        },
    }
}

/// Runs the trace under both policies and returns (address-ordered, LIFO).
pub fn compare(config: &FragmentationRun, seed: u64) -> (FragmentationReport, FragmentationReport) {
    (
        run(config, FreeListPolicy::AddressOrdered, seed),
        run(config, FreeListPolicy::Lifo, seed),
    )
}

/// Renders a comparison table.
pub fn comparison_table(reports: &[FragmentationReport]) -> TextTable {
    let mut t = TextTable::new(vec![
        "Policy".into(),
        "Mapped pages".into(),
        "Whole pages recovered".into(),
        "Largest free run".into(),
        "Survivor occupancy".into(),
    ]);
    for r in reports {
        t.row(vec![
            r.policy.to_string(),
            r.mapped_pages.to_string(),
            r.free_pages.to_string(),
            r.largest_free_run.to_string(),
            format!("{:.1}%", 100.0 * r.occupancy),
        ]);
    }
    t
}

impl fmt::Display for FragmentationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} mapped pages, {} whole pages recovered, largest run {}, {:.1}% survivor occupancy",
            self.policy,
            self.mapped_pages,
            self.free_pages,
            self.largest_free_run,
            100.0 * self.occupancy
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FragmentationRun {
        FragmentationRun {
            operations: 8_000,
            live_target: 400,
            min_bytes: 8,
            max_bytes: 256,
        }
    }

    #[test]
    fn address_ordered_coalesces_at_least_as_well() {
        let mut wins = 0;
        let mut total = 0;
        for seed in [1u64, 2, 3] {
            let (ao, lifo) = compare(&small(), seed);
            total += 1;
            if ao.largest_free_run >= lifo.largest_free_run {
                wins += 1;
            }
        }
        assert!(
            wins * 2 >= total,
            "address-ordered should coalesce at least as well in most runs ({wins}/{total})"
        );
    }

    #[test]
    fn trace_is_deterministic_per_seed() {
        let a = run(&small(), FreeListPolicy::AddressOrdered, 9);
        let b = run(&small(), FreeListPolicy::AddressOrdered, 9);
        assert_eq!(a.mapped_pages, b.mapped_pages);
        assert_eq!(a.free_pages, b.free_pages);
        assert_eq!(a.largest_free_run, b.largest_free_run);
    }

    #[test]
    fn table_renders() {
        let (ao, lifo) = compare(&small(), 1);
        let t = comparison_table(&[ao, lifo]);
        let s = t.to_string();
        assert!(s.contains("address-ordered"));
        assert!(s.contains("LIFO"));
    }
}
