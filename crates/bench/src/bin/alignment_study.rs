//! Regenerates the **§2 alignment observations**: machines without pointer
//! alignment guarantees force the collector to consider every halfword or
//! byte offset, "greatly increasing the number of false pointers" —
//! blacklisting still collapses the retention, at the cost of a larger
//! blacklist.

use gc_analysis::alignment::{sweep, table};
use gc_bench::Positionals;

fn main() {
    let args = Positionals::new(
        std::env::args().skip(1).collect(),
        1,
        "alignment_study [scale]",
    );
    let scale: u32 = args.get(0).unwrap_or(4);
    println!("Program T on the SPARC(static) image at scale 1/{scale}\n");
    println!("{}", table(&sweep(1, scale)));
    println!("Paper (§2): unaligned scanning greatly increases false pointers;");
    println!("\"fortunately, modern machines typically impose substantial");
    println!("penalties on unaligned data references. Thus newer compilers");
    println!("almost always guarantee adequate alignment.\"");
}
