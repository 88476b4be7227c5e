//! Regenerates **footnote 4**: running two copies of the program with heap
//! bases offset by n identifies root words that are provably not pointers,
//! eliminating (at substantial cost) the misidentification that
//! blacklisting addresses cheaply.

use gc_analysis::dual_heap;
use gc_bench::Positionals;
use gc_platforms::Profile;

fn main() {
    let args = Positionals::new(
        std::env::args().skip(1).collect(),
        1,
        "dual_heap_oracle [scale]",
    );
    let scale: u32 = args.get(0).unwrap_or(4);
    println!(
        "SPARC(static) image, blacklisting OFF, heap copies offset by 64 KB (scale 1/{scale})\n"
    );
    for seed in 1..=3u64 {
        let r = dual_heap::run(&Profile::sparc_static(false), 64 << 10, seed, scale);
        println!("seed {seed}: {r}");
    }
    println!("\nPaper (footnote 4): \"more accurate techniques are possible at");
    println!("substantial performance cost … any two corresponding locations");
    println!("whose values do not differ by n are then known not to be pointers\".");
}
