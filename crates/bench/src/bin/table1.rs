//! Regenerates **Table 1**: storage retention with and without blacklisting.
//!
//! Usage: `table1 [scale [seed...]]` — scale divides Program T's size
//! (default 1 = the paper's full 20 MB configuration; use e.g. 10 for a
//! quick pass). Default seeds: 1 2 3. With `--json <path>`, also writes
//! the result rows as a machine-readable report.

use gc_analysis::table1::{self, Table1Config};
use gc_bench::{json_array, json_object, json_str, JsonOut, Positionals};

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);
    let args = Positionals::new(args, usize::MAX, "table1 [--json <path>] [scale [seed...]]");
    let scale: u32 = args.get(0).unwrap_or(1);
    let mut seeds: Vec<u64> = args.rest(1);
    if seeds.is_empty() {
        seeds = vec![1, 2, 3];
    }
    let config = Table1Config { seeds, scale };
    eprintln!(
        "running Table 1 at scale 1/{} with seeds {:?}…",
        config.scale, config.seeds
    );
    let table = table1::run(&config);
    println!("{table}");
    println!("Paper's Table 1 for comparison:");
    println!("  SPARC(static)   no     79-79.5%    0-.5%");
    println!("  SPARC(static)   yes    78-78.5%    .5-1%");
    println!("  SPARC(dynamic)  no     8-9.5%      .5%");
    println!("  SPARC(dynamic)  yes    9-11.5%     0-.5%");
    println!("  SGI(static)     no     1.5-8%      0%");
    println!("  SGI(static)     yes    1-4%        0%");
    println!("  OS/2(static)    no     28%         3%");
    println!("  OS/2(static)    yes    26%         1%");
    println!("  PCR             mixed  44.5-55%    1.5-3.5%");
    let seeds_json: Vec<String> = config.seeds.iter().map(u64::to_string).collect();
    let document = json_object(&[
        ("benchmark", json_str("table1")),
        ("scale", config.scale.to_string()),
        ("seeds", json_array(&seeds_json)),
        ("results", table.text_table().to_json()),
    ]);
    json_out.write(&document).expect("write JSON report");
}
