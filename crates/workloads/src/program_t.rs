//! Program T — appendix A of the paper.
//!
//! ```c
//! # define N 200     /* number of lists  */
//! # define S 25000   /* nodes per list   */
//! char *a[N];
//! void test(n) {
//!     for (i = 0; i < N; i++) a[i] = alloc_cycle(n);
//!     for (i = 0; i < N; i++) a[i] = 0;
//! }
//! main() {
//!     test(S);             /* allocate and drop 200 × 100 KB cycles  */
//!     GC_gcollect();
//!     test(2);             /* "simulate further program execution to
//!                             clear stack garbage. Not terribly
//!                             effective." */
//!     GC_gcollect();
//! }
//! ```
//!
//! Retention accounting uses finalization, like the paper's PCR runs: one
//! representative cell per list carries a finalizer token, and a list
//! counts as reclaimed when its token is delivered. This is reuse-safe
//! (a reallocated address cannot masquerade as a survivor).

use gc_heap::ObjectKind;
use gc_machine::Machine;
use gc_vmspace::Addr;
use std::fmt;

/// A tick callback invoked between lists, modelling platform background
/// activity (IO syscalls, PCR housekeeping, concurrent clients).
pub type Tick<'a> = &'a mut dyn FnMut(&mut Machine);

/// Shape of the Program T run.
#[derive(Clone, Copy, Debug)]
pub struct ProgramT {
    /// Number of lists (the paper's `N`; 200, or 100 on OS/2).
    pub lists: u32,
    /// Cells per list (the paper's `S`; 25 000, or 12 500 under PCR).
    pub nodes_per_list: u32,
    /// Cell size in bytes (4; 8 under PCR, whose cells carry a magic
    /// second word).
    pub cell_bytes: u32,
}

impl ProgramT {
    /// The paper's main configuration: 200 cycles of 25 000 × 4-byte cells
    /// (100 KB per list, 20 MB total).
    pub fn paper() -> Self {
        ProgramT {
            lists: 200,
            nodes_per_list: 25_000,
            cell_bytes: 4,
        }
    }

    /// The OS/2 configuration: "modified to only allocate 100 lists
    /// totalling 10 MB, due to memory constraints on the machine".
    pub fn os2() -> Self {
        ProgramT {
            lists: 100,
            nodes_per_list: 25_000,
            cell_bytes: 4,
        }
    }

    /// The PCR configuration: "each list consisted of 12500 8-byte cells,
    /// instead of twice as many objects of half the size".
    pub fn pcr() -> Self {
        ProgramT {
            lists: 200,
            nodes_per_list: 12_500,
            cell_bytes: 8,
        }
    }

    /// A proportionally scaled-down shape for fast tests: `1/factor` of
    /// the lists and nodes (at least 4 lists × 64 nodes).
    pub fn scaled(self, factor: u32) -> Self {
        ProgramT {
            lists: (self.lists / factor).max(4),
            nodes_per_list: (self.nodes_per_list / factor).max(64),
            cell_bytes: self.cell_bytes,
        }
    }

    /// Total bytes of list data allocated by `test(S)`.
    pub fn total_bytes(&self) -> u64 {
        u64::from(self.lists) * u64::from(self.nodes_per_list) * u64::from(self.cell_bytes)
    }

    /// Runs Program T on the machine; `tick` is invoked once per list
    /// allocated (modelling the platform's background activity).
    ///
    /// # Panics
    ///
    /// Panics if the machine's heap cannot hold the configured lists (a
    /// configuration bug).
    pub fn run(&self, m: &mut Machine, tick: Tick<'_>) -> ProgramTReport {
        let a = m.alloc_static(self.lists);
        let reps = self.test(m, a, self.nodes_per_list, Some(tick), true);
        m.collect();
        // test(2): "simulate further program execution to clear stack
        // garbage. This is not terribly effective."
        let _ = self.test(m, a, 2, None, false);
        // "The garbage collector was manually invoked until no more lists
        // were finalized … (Once was usually enough.)"
        let mut reclaimed = vec![false; self.lists as usize];
        let mut rounds = 0u32;
        loop {
            m.collect();
            rounds += 1;
            let newly = m.gc_mut().drain_finalized();
            for (_, token) in &newly {
                reclaimed[*token as usize] = true;
            }
            if newly.is_empty() || rounds >= 5 {
                break;
            }
        }
        let retained = reclaimed.iter().filter(|&&r| !r).count() as u32;
        // Lazy sweeping defers free-list rebuilding to allocation time; the
        // report's accounting reads the settled heap.
        m.gc_mut().finish_sweep();
        let heap = m.gc().heap().stats();
        ProgramTReport {
            lists: self.lists,
            retained,
            collections: m.gc().gc_count(),
            blacklist_pages: m.gc().blacklist().len(),
            heap_mapped_bytes: u64::from(heap.mapped_pages) * 4096,
            bytes_live: heap.bytes_live,
            representatives: reps,
            reclaimed,
        }
    }

    /// The paper's `test(n)`, exactly as in appendix A: allocate `lists`
    /// cycles of `n` cells into the static array `a`, then clear `a` —
    /// both loops inside one frame, whose slot 2 models the compiler's
    /// return-value temporary for `a[i] = alloc_cycle(n)`. Returns one
    /// representative cell per list.
    fn test(
        &self,
        m: &mut Machine,
        a: Addr,
        n: u32,
        mut tick: Option<Tick<'_>>,
        register: bool,
    ) -> Vec<Addr> {
        let mut reps = Vec::with_capacity(self.lists as usize);
        // test's frame: i, n, the return-value temporary, one spare.
        m.call(4, |m| {
            for i in 0..self.lists {
                let head = self.alloc_cycle(m, n);
                // The return value passes through a frame temporary before
                // landing in a[i], as compiled code would spill it.
                m.set_local(2, head.raw());
                m.store(a + i * 4, head.raw());
                reps.push(head);
                if register {
                    m.gc_mut()
                        .register_finalizer(head, u64::from(i))
                        .expect("representative cell is live while a[] holds the list");
                }
                if let Some(t) = tick.as_deref_mut() {
                    t(m);
                }
            }
            // a[i] = 0 — inside the same frame, as in appendix A.
            for i in 0..self.lists {
                m.set_local(0, i);
                m.store(a + i * 4, 0);
            }
        });
        reps
    }

    /// `alloc_cycle(n)`: a circular list of `n` cells; returns a pointer
    /// into it.
    fn alloc_cycle(&self, m: &mut Machine, n: u32) -> Addr {
        m.call(2, |m| {
            let first = m
                .alloc(self.cell_bytes, ObjectKind::Composite)
                .expect("heap has room");
            // Keep the chain rooted through the frame while building.
            m.set_local(0, first.raw());
            let mut prev = first;
            for k in 1..n {
                let cell = m
                    .alloc(self.cell_bytes, ObjectKind::Composite)
                    .expect("heap has room");
                if self.cell_bytes >= 8 {
                    // The PCR variant's magic word for tracing false refs.
                    m.store(cell + 4, 0xFEED_0000 | (k & 0xFFFF));
                }
                m.store(prev, cell.raw());
                m.set_local(1, cell.raw());
                prev = cell;
            }
            // Close the cycle.
            m.store(prev, first.raw());
            first
        })
    }
}

/// Results of one Program T run.
#[derive(Clone, Debug)]
pub struct ProgramTReport {
    /// Number of lists allocated.
    pub lists: u32,
    /// Lists never reclaimed (the paper's Table-1 metric).
    pub retained: u32,
    /// Collections performed over the run.
    pub collections: u64,
    /// Blacklisted pages at the end.
    pub blacklist_pages: u32,
    /// Mapped heap at the end.
    pub heap_mapped_bytes: u64,
    /// Live heap bytes at the end.
    pub bytes_live: u64,
    /// One representative cell address per list (for retention tracing).
    pub representatives: Vec<Addr>,
    /// Per-list reclamation flags (`false` = retained).
    pub reclaimed: Vec<bool>,
}

impl ProgramTReport {
    /// Fraction of lists retained, as Table 1 reports it.
    pub fn fraction_retained(&self) -> f64 {
        f64::from(self.retained) / f64::from(self.lists)
    }

    /// Representatives of the retained lists (for retention tracing).
    pub fn retained_representatives(&self) -> Vec<Addr> {
        self.representatives
            .iter()
            .zip(&self.reclaimed)
            .filter(|(_, &ok)| !ok)
            .map(|(&a, _)| a)
            .collect()
    }
}

impl fmt::Display for ProgramTReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} lists retained ({:.1}%), {} GCs, {} pages blacklisted",
            self.retained,
            self.lists,
            100.0 * self.fraction_retained(),
            self.collections,
            self.blacklist_pages,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_platforms::{BuildOptions, Profile};

    fn no_tick(_: &mut Machine) {}

    #[test]
    fn clean_platform_retains_nothing() {
        let mut p = Profile::synthetic().build(BuildOptions::default());
        let shape = ProgramT::paper().scaled(20);
        let report = shape.run(&mut p.machine, &mut no_tick);
        assert_eq!(report.retained, 0, "no pollution, no retention: {report}");
        assert!(report.collections >= 2);
    }

    #[test]
    fn polluted_platform_without_blacklisting_retains() {
        let profile = Profile::sparc_static(false);
        let mut p = profile.build(BuildOptions {
            seed: 2,
            blacklisting: false,
            ..BuildOptions::default()
        });
        let shape = ProgramT::paper().scaled(10);
        let report = shape.run(&mut p.machine, &mut no_tick);
        assert!(
            report.retained > shape.lists / 4,
            "static junk should pin many lists: {report}"
        );
    }

    #[test]
    fn blacklisting_collapses_retention() {
        let profile = Profile::sparc_static(false);
        let mut with = profile.build(BuildOptions {
            seed: 2,
            blacklisting: true,
            ..BuildOptions::default()
        });
        let shape = ProgramT::paper().scaled(10);
        let report = shape.run(&mut with.machine, &mut no_tick);
        assert!(
            report.fraction_retained() <= 0.10,
            "blacklisting nearly eliminates retention: {report}"
        );
        assert!(report.blacklist_pages > 0);
    }

    #[test]
    fn report_shape() {
        let mut p = Profile::synthetic().build(BuildOptions::default());
        let shape = ProgramT {
            lists: 4,
            nodes_per_list: 64,
            cell_bytes: 8,
        };
        let report = shape.run(&mut p.machine, &mut no_tick);
        assert_eq!(report.lists, 4);
        assert_eq!(report.representatives.len(), 4);
        assert_eq!(report.fraction_retained(), 0.0);
        assert!(report.to_string().contains("0/4 lists retained"));
    }

    #[test]
    fn scaled_preserves_cell_size() {
        let s = ProgramT::pcr().scaled(10);
        assert_eq!(s.cell_bytes, 8);
        assert_eq!(s.lists, 20);
        assert_eq!(s.nodes_per_list, 1250);
        assert_eq!(ProgramT::paper().total_bytes(), 20_000_000);
    }
}
