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
use std::str::FromStr;

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

/// The positional arguments of a table/figure binary.
///
/// An argument that does not parse, or one more than the binary takes, is
/// a usage error: the binary exits with status 2 and prints its usage line
/// instead of running with a default in the argument's place.
#[derive(Clone, Debug)]
pub struct Positionals {
    args: Vec<String>,
    usage: &'static str,
}

impl Positionals {
    /// Checks `args` (with `--json` already stripped) against a binary that
    /// takes at most `max` positional arguments, described by `usage`.
    pub fn new(args: Vec<String>, max: usize, usage: &'static str) -> Self {
        let p = Positionals { args, usage };
        if let Some(extra) = p.args.get(max) {
            p.fail(&format!("unexpected argument {extra:?}"));
        }
        p
    }

    /// Argument `i` parsed as `T`, or `None` when it is absent.
    pub fn get<T: FromStr>(&self, i: usize) -> Option<T> {
        self.parse(i).unwrap_or_else(|e| self.fail(&e))
    }

    /// Every argument from `i` on, each parsed as `T`.
    pub fn rest<T: FromStr>(&self, i: usize) -> Vec<T> {
        (i..self.args.len()).filter_map(|j| self.get(j)).collect()
    }

    /// Reports a usage error and exits with status 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("error: {message}\nusage: {}", self.usage);
        std::process::exit(2)
    }

    fn parse<T: FromStr>(&self, i: usize) -> Result<Option<T>, String> {
        self.args
            .get(i)
            .map(|s| {
                s.parse()
                    .map_err(|_| format!("cannot parse argument {s:?}"))
            })
            .transpose()
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
    fn positionals_parse_or_report_the_bad_argument() {
        let p = Positionals::new(
            args(&["40", "7", "--mark-threads"]),
            3,
            "t [scale [seed...]]",
        );
        assert_eq!(p.parse::<u32>(0), Ok(Some(40)));
        assert_eq!(p.parse::<u64>(1), Ok(Some(7)));
        assert_eq!(p.parse::<u32>(3), Ok(None), "absent");
        assert_eq!(
            p.parse::<u32>(2),
            Err("cannot parse argument \"--mark-threads\"".into())
        );
        assert_eq!(p.parse::<String>(2), Ok(Some("--mark-threads".into())));
        assert_eq!(p.get::<u32>(0), Some(40));
        let seeds = Positionals::new(args(&["40", "7", "9"]), usize::MAX, "t [scale [seed...]]");
        assert_eq!(seeds.rest::<u64>(1), [7, 9]);
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
