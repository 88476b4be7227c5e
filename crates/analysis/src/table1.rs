//! The Table-1 harness: storage retention with and without blacklisting.

use crate::{format_pct_range, TextTable};
use gc_platforms::{BuildOptions, Platform, Profile};
use gc_workloads::{ProgramT, ProgramTReport};
use std::fmt;

/// Configuration of a Table-1 reproduction run.
#[derive(Clone, Debug)]
pub struct Table1Config {
    /// Seeds; each (row, toggle) runs once per seed and the table reports
    /// the observed range, as the paper does ("Where we observed different
    /// results, we specified ranges").
    pub seeds: Vec<u64>,
    /// Scale divisor for Program T (1 = the paper's full size; tests use
    /// larger divisors for speed). Scaling shrinks lists and nodes alike.
    pub scale: u32,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            seeds: vec![1, 2, 3],
            scale: 1,
        }
    }
}

/// One measured cell of the table: retention fractions over the seeds.
#[derive(Clone, Debug, Default)]
pub struct RetentionRange {
    /// Per-seed retention fractions.
    pub samples: Vec<f64>,
}

impl RetentionRange {
    /// Lowest observed retention.
    pub fn lo(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Highest observed retention.
    pub fn hi(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

impl fmt::Display for RetentionRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&format_pct_range(self.lo(), self.hi()))
    }
}

/// One row of the reproduced table.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Machine label (paper row name).
    pub machine: String,
    /// "yes"/"no"/"mixed", as the paper prints it.
    pub optimized: String,
    /// Retention without blacklisting.
    pub no_blacklisting: RetentionRange,
    /// Retention with blacklisting.
    pub blacklisting: RetentionRange,
    /// Detailed per-seed reports (blacklisting on), for diagnostics.
    pub detail: Vec<ProgramTReport>,
}

/// The reproduced Table 1.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// Rows in the paper's order.
    pub rows: Vec<Table1Row>,
    /// The configuration that produced them.
    pub config: Table1Config,
}

/// The Program T shape a profile row uses (appendix B's per-platform
/// adaptations).
pub fn shape_for(profile: &Profile, scale: u32) -> ProgramT {
    let base = match profile.name.as_str() {
        "OS/2(static)" => ProgramT::os2(),
        "PCR" => ProgramT::pcr(),
        _ => ProgramT::paper(),
    };
    if scale > 1 {
        base.scaled(scale)
    } else {
        base
    }
}

/// Runs Program T once on a fresh instance of `profile`.
pub fn run_once(profile: &Profile, seed: u64, blacklisting: bool, scale: u32) -> ProgramTReport {
    let shape = shape_for(profile, scale);
    let mut platform = profile.build(BuildOptions {
        seed,
        blacklisting,
        ..BuildOptions::default()
    });
    let Platform { machine, hooks, .. } = &mut platform;
    shape.run(machine, &mut |m| hooks.tick(m))
}

/// Reproduces Table 1 under the given configuration.
pub fn run(config: &Table1Config) -> Table1 {
    let mut rows = Vec::new();
    for profile in Profile::table1_rows() {
        rows.push(run_row(&profile, config));
    }
    Table1 {
        rows,
        config: config.clone(),
    }
}

/// Runs a single profile row of the table.
pub fn run_row(profile: &Profile, config: &Table1Config) -> Table1Row {
    let mut no_bl = RetentionRange::default();
    let mut bl = RetentionRange::default();
    let mut detail = Vec::new();
    for &seed in &config.seeds {
        let r = run_once(profile, seed, false, config.scale);
        no_bl.samples.push(r.fraction_retained());
        let r = run_once(profile, seed, true, config.scale);
        bl.samples.push(r.fraction_retained());
        detail.push(r);
    }
    let optimized = if profile.name == "PCR" {
        "mixed".to_owned()
    } else if profile.optimized {
        "yes".to_owned()
    } else {
        "no".to_owned()
    };
    Table1Row {
        machine: profile.name.clone(),
        optimized,
        no_blacklisting: no_bl,
        blacklisting: bl,
        detail,
    }
}

impl Table1 {
    /// Renders the table in the paper's format.
    pub fn text_table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "Machine".into(),
            "Optimized?".into(),
            "No Blacklisting".into(),
            "Blacklisting".into(),
        ]);
        for row in &self.rows {
            t.row(vec![
                row.machine.clone(),
                row.optimized.clone(),
                row.no_blacklisting.to_string(),
                row.blacklisting.to_string(),
            ]);
        }
        t
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Storage retention with and without blacklisting (scale 1/{}, {} seed(s))",
            self.config.scale,
            self.config.seeds.len()
        )?;
        write!(f, "{}", self.text_table())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_follow_appendix_b() {
        assert_eq!(shape_for(&Profile::os2(false), 1).lists, 100);
        let pcr = shape_for(&Profile::pcr(4, false), 1);
        assert_eq!((pcr.nodes_per_list, pcr.cell_bytes), (12_500, 8));
        assert_eq!(shape_for(&Profile::sparc_static(false), 1).lists, 200);
    }

    #[test]
    fn retention_range_bounds() {
        let r = RetentionRange {
            samples: vec![0.1, 0.4, 0.2],
        };
        assert_eq!(r.lo(), 0.1);
        assert_eq!(r.hi(), 0.4);
        assert_eq!(r.to_string(), "10-40%");
    }

    #[test]
    fn single_row_scaled_run() {
        // A fast scaled-down sanity run of the worst row: blacklisting must
        // collapse retention relative to the baseline.
        let profile = Profile::sparc_static(false);
        let config = Table1Config {
            seeds: vec![5],
            scale: 10,
        };
        let row = run_row(&profile, &config);
        assert!(
            row.no_blacklisting.hi() > row.blacklisting.hi(),
            "no-blacklist {} vs blacklist {}",
            row.no_blacklisting,
            row.blacklisting
        );
        assert_eq!(row.detail.len(), 1);
        assert_eq!(row.optimized, "no");
    }
}
