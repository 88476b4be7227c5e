//! GCBench — the classic stress benchmark distributed with the collector
//! the paper describes — run under all three collector modes as a
//! whole-system throughput check, with the collector's default (serial,
//! eager) configuration.
//!
//! With `--json <path>`, also writes a machine-readable report combining
//! the result rows with each mode's full collector metrics snapshot.

use gc_analysis::TextTable;
use gc_bench::{json_array, json_object, json_str, JsonOut};
use gc_platforms::{BuildOptions, Profile};
use gc_workloads::GcBench;

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_out = JsonOut::from_args(&mut args);
    let classic = args.first().map(String::as_str) == Some("classic");
    let shape = if classic {
        GcBench::classic()
    } else {
        GcBench::scaled()
    };
    println!(
        "GCBench ({}): long-lived depth {}, short-lived depths {}..{} step 2\n",
        if classic { "classic" } else { "scaled" },
        shape.long_lived_depth,
        shape.min_depth,
        shape.max_depth,
    );
    let mut table = TextTable::new(vec![
        "Collector mode".into(),
        "Elapsed".into(),
        "GCs".into(),
        "Final heap pages".into(),
    ]);
    let mut mode_reports: Vec<String> = Vec::new();
    for mode in ["stop-world", "generational", "incremental"] {
        let mut profile = Profile::synthetic();
        profile.max_heap_bytes = 512 << 20;
        let mut platform = profile.build_custom(BuildOptions::default(), |gc| match mode {
            "generational" => {
                gc.generational = true;
                gc.full_gc_every = 6;
            }
            "incremental" => {
                gc.incremental = true;
                gc.incremental_budget = 2048;
            }
            _ => {}
        });
        let r = shape.run(&mut platform.machine);
        table.row(vec![
            mode.into(),
            format!("{:?}", r.elapsed),
            r.collections.to_string(),
            r.final_heap_pages.to_string(),
        ]);
        if json_out.enabled() {
            let gc = platform.machine.gc();
            let objs = gc.heap().objects_allocated_total();
            let throughput = objs as f64 / r.elapsed.as_secs_f64().max(1e-9);
            mode_reports.push(json_object(&[
                ("mode", json_str(mode)),
                ("elapsed_ns", r.elapsed.as_nanos().to_string()),
                ("collections", r.collections.to_string()),
                ("final_heap_pages", r.final_heap_pages.to_string()),
                ("alloc_throughput_objs_per_sec", format!("{throughput:.2}")),
                (
                    "alloc_fast_path_hits",
                    gc.stats().fast_path_allocs.to_string(),
                ),
                ("metrics", gc.metrics_json()),
            ]));
        }
    }
    println!("{table}");

    let document = json_object(&[
        ("benchmark", json_str("gcbench")),
        (
            "variant",
            json_str(if classic { "classic" } else { "scaled" }),
        ),
        ("results", table.to_json()),
        ("modes", json_array(&mode_reports)),
    ]);
    json_out.write(&document).expect("write JSON report");
}
