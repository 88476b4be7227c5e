//! End-to-end check of the `--json` reporting path: runs the real
//! `gcbench` binary, then verifies the emitted document's shape and the
//! phase-timing invariants without a JSON library (field extraction by
//! string scanning, which the hand-rolled emitter's stable key order
//! makes reliable).

use std::process::Command;

/// Extracts the numeric value following `"key":` at or after `from`.
fn field_u64(json: &str, key: &str, from: usize) -> Option<(u64, usize)> {
    let needle = format!("\"{key}\":");
    let at = json[from..].find(&needle)? + from + needle.len();
    let digits: String = json[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok().map(|v| (v, at))
}

#[test]
fn gcbench_json_report_is_complete_and_consistent() {
    let out_path = std::env::temp_dir().join(format!("gcbench-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_gcbench"))
        .args(["--json", out_path.to_str().expect("utf-8 temp path")])
        // The collector's defaults read no environment, so these must not
        // reach any snapshot's configuration.
        .envs([
            ("GC_MARK_THREADS", "4"),
            ("GC_LAZY_SWEEP", "1"),
            ("GC_RESOLVE_CACHE", "0"),
        ])
        .status()
        .expect("gcbench runs");
    assert!(status.success(), "gcbench exits cleanly");
    let json = std::fs::read_to_string(&out_path).expect("report written");
    let _ = std::fs::remove_file(&out_path);

    // Document shape: the three modes, each with a full metrics snapshot.
    for key in [
        "\"benchmark\":\"gcbench\"",
        "\"results\":[",
        "\"modes\":[",
        "\"mode\":\"stop-world\"",
        "\"mode\":\"generational\"",
        "\"mode\":\"incremental\"",
    ] {
        assert!(json.contains(key), "missing {key}");
    }

    // Each metrics snapshot carries the versioned schema with per-phase
    // timings, pause histogram percentiles, heap census and blacklist.
    let snapshots = json.matches("\"version\":").count();
    assert_eq!(snapshots, 3, "one metrics snapshot per mode");
    for key in [
        "\"pause_ns\":",
        "\"p50\":",
        "\"p95\":",
        "\"p99\":",
        "\"size_classes\":[",
        "\"obj_bytes\":",
        "\"blacklist\":",
        "\"alloc_slow_path_ns\":",
        "\"alloc_throughput_objs_per_sec\":",
        "\"alloc_fast_path_hits\":",
        "\"fast_path_allocs\":",
        "\"slow_path_allocs\":",
    ] {
        assert!(
            json.matches(key).count() >= 3,
            "{key} appears in every snapshot"
        );
    }

    // Every snapshot's config keeps the defaults whatever the environment
    // says.
    for key in [
        "\"mark_threads\":1,",
        "\"lazy_sweep\":false,",
        "\"resolve_cache\":true",
    ] {
        assert_eq!(
            json.matches(key).count(),
            snapshots,
            "{key} in every config"
        );
    }
    assert!(!json.contains("\"resolve_cache\":false"));

    // Phase-sum invariant: every last-collection record's phases fit in
    // its recorded total duration.
    let mut checked = 0;
    let mut cursor = 0;
    while let Some((root_scan, at)) = field_u64(&json, "root_scan_ns", cursor) {
        let (mark, _) = field_u64(&json, "mark_ns", at).expect("mark follows");
        let (finalize, _) = field_u64(&json, "finalize_ns", at).expect("finalize follows");
        let (sweep, _) = field_u64(&json, "sweep_ns", at).expect("sweep follows");
        let (duration, next) = field_u64(&json, "duration_ns", at).expect("duration follows");
        let sum = root_scan + mark + finalize + sweep;
        assert!(
            sum <= duration,
            "phase sum {sum} exceeds total {duration} (record at byte {at})"
        );
        assert!(sum > 0, "phases were actually timed");
        checked += 1;
        cursor = next;
    }
    assert!(
        checked >= 3,
        "checked a phase record per mode, got {checked}"
    );

    // Blacklist page count is a number.
    let (_pages, _) = field_u64(&json, "pages", 0).expect("blacklist page count present");
}

#[test]
fn table1_json_report_carries_result_rows() {
    let out_path = std::env::temp_dir().join(format!("table1-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args([
            "--json",
            out_path.to_str().expect("utf-8 temp path"),
            "40",
            "1",
        ])
        .status()
        .expect("table1 runs");
    assert!(status.success(), "table1 exits cleanly");
    let json = std::fs::read_to_string(&out_path).expect("report written");
    let _ = std::fs::remove_file(&out_path);
    for key in [
        "\"benchmark\":\"table1\"",
        "\"scale\":40",
        "\"seeds\":[1]",
        "\"results\":[",
        "\"Machine\":",
        "\"Blacklisting\":",
    ] {
        assert!(json.contains(key), "missing {key} in {json}");
    }
}
