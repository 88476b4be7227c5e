//! Benchmark harness for the paper's tables, figures and timing claims.
//!
//! * Criterion benches (`benches/`) measure the timing claims: allocation
//!   throughput vs. `malloc`/`free` and the blacklisting bookkeeping
//!   overhead (footnote 3), plus mark-phase throughput and pause shape.
//! * One binary per table/figure (`src/bin/`) regenerates the paper's
//!   results; see EXPERIMENTS.md at the repository root for the index and
//!   the measured-vs-paper comparison.
//!
//! Every table/figure binary accepts `--json <path>`: alongside its usual
//! text report it then writes a machine-readable JSON document combining
//! the run's result rows with each collector's
//! [`metrics_json`](gc_core::Collector::metrics_json) snapshot (per-phase
//! timings, pause histograms, heap census, blacklist state).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::io;
use std::path::PathBuf;

/// The `--json <path>` output option shared by the table/figure binaries.
///
/// [`JsonOut::from_args`] strips the flag (and its path argument) from the
/// argument list so each binary's remaining positional parsing is
/// untouched.
#[derive(Clone, Debug, Default)]
pub struct JsonOut {
    path: Option<PathBuf>,
}

impl JsonOut {
    /// Extracts `--json <path>` (or `--json=<path>`) from `args`, removing
    /// the consumed elements.
    ///
    /// # Panics
    ///
    /// Panics when `--json` is present without a path — a usage error the
    /// binaries surface immediately.
    pub fn from_args(args: &mut Vec<String>) -> Self {
        let mut path = None;
        let mut i = 0;
        while i < args.len() {
            if args[i] == "--json" {
                assert!(i + 1 < args.len(), "--json requires a path argument");
                args.remove(i);
                path = Some(PathBuf::from(args.remove(i)));
            } else if let Some(p) = args[i].strip_prefix("--json=") {
                path = Some(PathBuf::from(p));
                args.remove(i);
            } else {
                i += 1;
            }
        }
        JsonOut { path }
    }

    /// Whether `--json` was given.
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Writes `document` (a complete JSON value) to the configured path;
    /// no-op when `--json` was not given.
    ///
    /// # Errors
    ///
    /// Any error of [`fs::write`].
    pub fn write(&self, document: &str) -> io::Result<()> {
        if let Some(path) = &self.path {
            fs::write(path, format!("{document}\n"))?;
            eprintln!("wrote JSON report to {}", path.display());
        }
        Ok(())
    }
}

/// Extracts `--<flag> <value>` (or `--<flag>=<value>`) from `args`,
/// removing the consumed elements; returns the last occurrence's value.
///
/// # Panics
///
/// Panics when the flag is present without a value.
pub fn take_option(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let prefix = format!("{flag}=");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            assert!(i + 1 < args.len(), "{flag} requires a value argument");
            args.remove(i);
            value = Some(args.remove(i));
        } else if let Some(v) = args[i].strip_prefix(&prefix) {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    value
}

/// Parses the `--mark-threads <n>` option shared by the benchmark
/// binaries; absent means 1 (serial marking).
///
/// # Panics
///
/// Panics when the value is not an integer in
/// `1..=`[`MAX_MARK_THREADS`](gc_core::MAX_MARK_THREADS), the most workers
/// the collector runs.
pub fn take_mark_threads(args: &mut Vec<String>) -> u32 {
    match take_option(args, "--mark-threads") {
        None => 1,
        Some(v) => {
            let n: u32 = v
                .parse()
                .unwrap_or_else(|_| panic!("--mark-threads needs a number, got {v:?}"));
            assert!(n >= 1, "--mark-threads must be at least 1");
            assert!(
                n <= gc_core::MAX_MARK_THREADS,
                "--mark-threads must be at most {}",
                gc_core::MAX_MARK_THREADS
            );
            n
        }
    }
}

/// Builds a JSON object from `(key, value)` pairs whose values are already
/// rendered JSON (use [`json_str`] for string values).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", gc_core::json_escape(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Builds a JSON array from already-rendered JSON values.
pub fn json_array(values: &[String]) -> String {
    format!("[{}]", values.join(","))
}

/// Renders a string as a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", gc_core::json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn json_flag_is_stripped_from_args() {
        let mut a = args(&["4", "--json", "out.json", "7"]);
        let out = JsonOut::from_args(&mut a);
        assert!(out.enabled());
        assert_eq!(a, args(&["4", "7"]));

        let mut a = args(&["--json=x.json"]);
        assert!(JsonOut::from_args(&mut a).enabled());
        assert!(a.is_empty());

        let mut a = args(&["4"]);
        assert!(!JsonOut::from_args(&mut a).enabled());
        assert_eq!(a, args(&["4"]));
    }

    #[test]
    #[should_panic(expected = "--json requires a path")]
    fn json_flag_requires_path() {
        JsonOut::from_args(&mut args(&["--json"]));
    }

    #[test]
    fn take_option_strips_both_spellings() {
        let mut a = args(&["4", "--mark-threads", "8", "7"]);
        assert_eq!(take_option(&mut a, "--mark-threads"), Some("8".into()));
        assert_eq!(a, args(&["4", "7"]));

        let mut a = args(&["--mark-threads=2"]);
        assert_eq!(take_mark_threads(&mut a), 2);
        assert!(a.is_empty());

        let mut a = args(&["classic"]);
        assert_eq!(take_mark_threads(&mut a), 1);
        assert_eq!(a, args(&["classic"]));
    }

    #[test]
    #[should_panic(expected = "needs a number")]
    fn mark_threads_rejects_garbage() {
        take_mark_threads(&mut args(&["--mark-threads", "lots"]));
    }

    #[test]
    #[should_panic(expected = "--mark-threads must be at most 16")]
    fn mark_threads_rejects_more_than_the_collector_runs() {
        assert_eq!(
            take_mark_threads(&mut args(&["--mark-threads", "16"])),
            gc_core::MAX_MARK_THREADS
        );
        take_mark_threads(&mut args(&["--mark-threads", "100"]));
    }

    #[test]
    fn json_builders_compose() {
        let obj = json_object(&[
            ("name", json_str("a\"b")),
            ("n", "3".into()),
            ("xs", json_array(&["1".into(), "2".into()])),
        ]);
        assert_eq!(obj, r#"{"name":"a\"b","n":3,"xs":[1,2]}"#);
    }

    #[test]
    fn write_is_noop_without_flag() {
        JsonOut::default().write("{}").expect("no-op write");
    }
}
