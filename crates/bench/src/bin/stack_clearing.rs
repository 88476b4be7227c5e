//! Regenerates the **§3.1 list-reversal experiment**: peak apparently-live
//! cons cells with and without allocator stack clearing, and for the
//! optimized (loop) build.
//!
//! Paper numbers (1000-element list reversed 1000 times, unoptimized
//! SPARC): 40,000–100,000 apparently live cells; ≤18,000 with stack
//! clearing; ~2,000 optimized.

use gc_analysis::TextTable;
use gc_bench::Positionals;
use gc_core::GcConfig;
use gc_heap::HeapConfig;
use gc_machine::{FramePolicy, Machine, MachineConfig, StackClearing};
use gc_vmspace::{Addr, Endian};
use gc_workloads::Reverse;

fn sparc_like(clearing: bool) -> Machine {
    let mut m = Machine::new(MachineConfig {
        endian: Endian::Big,
        gc: GcConfig {
            heap: HeapConfig {
                heap_base: Addr::new(0x10_0000),
                max_heap_bytes: 256 << 20,
                growth_pages: 64,
                ..HeapConfig::default()
            },
            min_bytes_between_gcs: 64 << 10,
            free_space_divisor: 1 << 24,
            ..GcConfig::default()
        },
        stack_bytes: 4 << 20,
        frame: FramePolicy {
            pad_words: 12,
            clear_on_push: false,
        },
        register_windows: 8,
        allocator_hygiene: false,
        collector_hygiene: false,
        stack_clearing: StackClearing {
            enabled: clearing,
            every_allocs: 64,
            max_bytes_per_clear: 64 << 10,
        },
        ..MachineConfig::default()
    });
    m.add_static_segment(Addr::new(0x2_0000), 4096);
    m
}

fn main() {
    let args = Positionals::new(
        std::env::args().skip(1).collect(),
        1,
        "stack_clearing [scale]",
    );
    let scale: u32 = args.get(0).unwrap_or(1);

    let mut table = TextTable::new(vec![
        "Configuration".into(),
        "Peak apparently-live cells".into(),
        "Final live".into(),
        "Paper".into(),
    ]);
    let shape = |optimized| {
        let r = Reverse::paper(optimized);
        if scale > 1 {
            r.scaled(scale)
        } else {
            r
        }
    };

    let mut run = |label: &str, optimized: bool, clearing: bool, paper: &str| {
        let mut m = sparc_like(clearing);
        let r = shape(optimized).run(&mut m);
        table.row(vec![
            label.into(),
            r.max_apparent_cells.to_string(),
            r.final_live_cells.to_string(),
            paper.into(),
        ]);
    };
    run("unoptimized (recursive)", false, false, "40,000-100,000");
    run("unoptimized + stack clearing", false, true, "<= 18,000");
    run("optimized (tail call -> loop)", true, false, "~2,000");
    println!(
        "Recursive non-destructive reversal of a {}-element list, {} times (scale 1/{scale})\n",
        shape(false).list_len,
        shape(false).iterations
    );
    println!("{table}");
}
