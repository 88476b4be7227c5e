//! Regenerates **appendix B's residual-leak classification**: which root
//! classes retain the lists that survive even with blacklisting — and,
//! without blacklisting, where the bulk of the false references live.

use gc_analysis::provenance::classify_retention;
use gc_analysis::table1::shape_for;
use gc_bench::Positionals;
use gc_platforms::{BuildOptions, Platform, Profile};

fn main() {
    let args = Positionals::new(
        std::env::args().skip(1).collect(),
        1,
        "provenance_report [scale]",
    );
    let scale: u32 = args.get(0).unwrap_or(2);
    for (profile, blacklisting) in [
        (Profile::sparc_static(false), false),
        (Profile::sparc_static(false), true),
        (Profile::pcr(4, false), true),
    ] {
        let shape = shape_for(&profile, scale);
        let mut platform = profile.build(BuildOptions {
            seed: 1,
            blacklisting,
            ..BuildOptions::default()
        });
        let report = {
            let Platform { machine, hooks, .. } = &mut platform;
            shape.run(machine, &mut |m| hooks.tick(m))
        };
        println!(
            "--- {} (blacklisting {}) — {report} ---",
            profile.name,
            if blacklisting { "ON" } else { "OFF" },
        );
        println!("{}\n", classify_retention(&platform.machine, &report));
    }
    println!("Paper (appendix B): residual PCR leaks came from occasionally-");
    println!("changing statics (heap-size variables), thread stacks, and");
    println!("heap-resident pointers, \"all … with comparable frequency\".");
}
