//! Single-row Table-1 probe: runs Program T at full scale on one platform
//! profile, both blacklisting toggles, for the given seeds. The
//! calibration tool behind the numbers in EXPERIMENTS.md.
//!
//! Usage: `probe <sparc_static|sparc_dynamic|sgi|os2|pcr> [seed...]`

use gc_analysis::table1;
use gc_bench::Positionals;
use gc_platforms::Profile;

const USAGE: &str = "probe <sparc_static|sparc_dynamic|sgi|os2|pcr> [seed...]";

fn main() {
    let args = Positionals::new(std::env::args().skip(1).collect(), usize::MAX, USAGE);
    let row: String = args.get(0).unwrap_or_else(|| "sparc_static".into());
    let mut seeds: Vec<u64> = args.rest(1);
    if seeds.is_empty() {
        seeds = vec![1, 2];
    }
    let profile = match row.as_str() {
        "sparc_static" => Profile::sparc_static(false),
        "sparc_dynamic" => Profile::sparc_dynamic(false),
        "sgi" => Profile::sgi(false),
        "os2" => Profile::os2(false),
        "pcr" => Profile::pcr(4, false),
        other => args.fail(&format!("unknown row {other:?}")),
    };
    for &seed in &seeds {
        let off = table1::run_once(&profile, seed, false, 1);
        let on = table1::run_once(&profile, seed, true, 1);
        println!(
            "{row} seed {seed}: no-bl {:.1}%  bl {:.1}%  (bl pages {})",
            100.0 * off.fraction_retained(),
            100.0 * on.fraction_retained(),
            on.blacklist_pages
        );
    }
}
