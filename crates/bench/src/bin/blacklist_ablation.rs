//! Ablates the blacklist's design choices (§3): exact vs. hashed backends,
//! entry aging, the vicinity growth window, and the pointer-free-object
//! exemption. Program T on the SPARC(static) image at 1/4 scale.

use gc_analysis::ablation;
use gc_bench::Positionals;

fn main() {
    let args = Positionals::new(
        std::env::args().skip(1).collect(),
        1,
        "blacklist_ablation [scale]",
    );
    let scale: u32 = args.get(0).unwrap_or(4);
    let seed = 1;

    println!("-- backend: exact bitmap vs hashed one-bit tables --\n");
    println!("{}", ablation::table(&ablation::backend_sweep(seed, scale)));
    println!("Paper: hashed tables over-blacklist on collision but \"do not");
    println!("result in much lost precision\".\n");

    println!("-- vicinity growth window --\n");
    println!("{}", ablation::table(&ablation::window_sweep(seed, scale)));
    println!("Candidates beyond the window are not \"in the vicinity of the");
    println!("heap\"; a zero window defeats startup blacklisting entirely.\n");

    println!("-- blacklist entry aging (TTL in collections) --\n");
    println!("{}", ablation::table(&ablation::ttl_sweep(seed, scale)));
    println!("\"Blacklisted values that are no longer found by a later");
    println!("collection may be removed from the list.\"\n");

    println!("-- observation 6: small pointer-free objects on blacklisted pages --\n");
    let (with, without) = ablation::atomic_exemption(seed);
    println!("heap pages with the exemption:    {with}");
    println!("heap pages without the exemption: {without}");
    println!("\"In the PCedar environment, there are enough allocations of small");
    println!("objects known to be pointer-free that blacklisted pages can still");
    println!("be allocated, and thus the loss is usually zero.\"");
}
