//! Collector statistics.

use crate::telemetry::{Histogram, PhaseTimes};
use gc_heap::SweepStats;
use std::fmt;
use std::time::Duration;

/// What a collection covered.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CollectKind {
    /// Roots + entire heap; sweeps everything and tenures survivors.
    Full,
    /// Roots + dirty old objects; sweeps only the young generation
    /// (sticky-mark-bit generational mode).
    Minor,
}

impl fmt::Display for CollectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectKind::Full => f.write_str("full"),
            CollectKind::Minor => f.write_str("minor"),
        }
    }
}

/// A request to the unified collection entry point,
/// [`Collector::run`](crate::Collector::run).
///
/// `Full` and `Minor` always complete a cycle; `Increment` performs one
/// bounded step of an incremental cycle (starting one if needed) and only
/// yields statistics on the step that finishes the cycle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CollectRequest {
    /// A full stop-the-world collection.
    Full,
    /// A minor (young-generation) collection.
    Minor,
    /// One bounded incremental marking step, attributed to the given
    /// reason.
    Increment(CollectReason),
}

/// Why a collection ran.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CollectReason {
    /// The startup collection, run before any allocation so static data's
    /// false references are blacklisted first (§3 of the paper).
    Startup,
    /// The allocation-rate threshold was crossed.
    Automatic,
    /// The client asked for a collection.
    Explicit,
    /// A failed allocation forced a collection before retrying.
    OutOfMemory,
}

impl fmt::Display for CollectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CollectReason::Startup => "startup",
            CollectReason::Automatic => "automatic",
            CollectReason::Explicit => "explicit",
            CollectReason::OutOfMemory => "out-of-memory retry",
        };
        f.write_str(s)
    }
}

/// Statistics of one collection cycle.
#[derive(Clone, Copy, Debug)]
pub struct CollectionStats {
    /// Sequence number of this collection (1-based).
    pub gc_no: u64,
    /// Full or minor.
    pub kind: CollectKind,
    /// Why it ran.
    pub reason: CollectReason,
    /// Root words examined.
    pub root_words_scanned: u64,
    /// Heap object words examined.
    pub heap_words_scanned: u64,
    /// Candidates that pointed into the heap's vicinity (valid or not).
    pub candidates_in_range: u64,
    /// Candidates that resolved to live objects under the pointer policy.
    pub valid_pointers: u64,
    /// Invalid candidates in the vicinity of the heap (figure 2's
    /// blacklisting condition), counted whether or not blacklisting is on.
    pub false_refs_near_heap: u64,
    /// Pages newly blacklisted this cycle.
    pub newly_blacklisted: u32,
    /// Blacklist size after the cycle.
    pub blacklist_pages: u32,
    /// Objects marked live.
    pub objects_marked: u64,
    /// Bytes marked live.
    pub bytes_marked: u64,
    /// Always 0: the mark phase keeps no resolve cache, and each
    /// candidate in range is one page-table read, so the lookup count is
    /// [`candidates_in_range`](Self::candidates_in_range). Remains only
    /// because the benchmark reads it (`perfbench/src/probe.rs:445`); it
    /// goes with the benchmark change of ROADMAP item 2.
    pub resolve_hits: u64,
    /// Always 0, like [`resolve_hits`](Self::resolve_hits), and read at
    /// `perfbench/src/probe.rs:446`.
    pub resolve_misses: u64,
    /// Finalizable objects that became ready this cycle.
    pub finalizers_ready: u32,
    /// Successful allocations since the previous collection that completed
    /// without triggering any collection work.
    pub fast_path_allocs: u64,
    /// Successful allocations since the previous collection that triggered
    /// collection work (a cycle, an incremental step, or the startup
    /// collection) before returning.
    pub slow_path_allocs: u64,
    /// Sweep results.
    pub sweep: SweepStats,
    /// Per-phase wall-clock breakdown (root scan, mark, finalize, sweep).
    /// The phase sum is bounded by [`duration`](CollectionStats::duration);
    /// the remainder is inter-phase bookkeeping.
    pub phases: PhaseTimes,
    /// Wall-clock duration of the whole cycle.
    pub duration: Duration,
}

impl fmt::Display for CollectionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "GC#{} ({} {}): {} objs / {} bytes live, {} freed; {} root words, {} false refs near heap, {} pages blacklisted ({} new); {:?}",
            self.gc_no,
            self.kind,
            self.reason,
            self.objects_marked,
            self.bytes_marked,
            self.sweep.objects_freed,
            self.root_words_scanned,
            self.false_refs_near_heap,
            self.blacklist_pages,
            self.newly_blacklisted,
            self.duration,
        )
    }
}

/// Cumulative collector statistics.
#[derive(Clone, Debug, Default)]
pub struct GcStats {
    /// Number of collections so far.
    pub collections: u64,
    /// Statistics of the most recent collection.
    pub last: Option<CollectionStats>,
    /// Total time spent collecting.
    pub total_gc_time: Duration,
    /// Total root words scanned over all collections.
    pub total_root_words: u64,
    /// Total false references near the heap over all collections.
    pub total_false_refs: u64,
    /// Largest `objects_marked` any collection observed — the paper's
    /// "maximum apparently accessible cons-cells at one point" (§3.1).
    pub max_objects_marked: u64,
    /// Number of minor collections (generational mode).
    pub minor_collections: u64,
    /// Marking increments performed (incremental mode).
    pub increments: u64,
    /// Longest single mutator pause an incremental cycle caused (root
    /// scan, one tracing increment, or the stop-the-world finish).
    pub max_increment_pause: Duration,
    /// Distribution of mutator pauses, in nanoseconds. Stop-the-world
    /// collections contribute their whole duration; incremental cycles
    /// contribute each bounded increment instead of the cycle total.
    pub pause_times: Histogram,
    /// Distribution of allocation slow-path latencies (allocations that
    /// triggered collection work before returning), in nanoseconds.
    pub alloc_slow_path: Histogram,
    /// Successful allocations that completed without triggering any
    /// collection work — the O(1) fast path.
    pub fast_path_allocs: u64,
    /// Successful allocations that triggered collection work before
    /// returning. `fast_path_allocs + slow_path_allocs` is the total
    /// number of successful `alloc`/`alloc_typed` calls.
    pub slow_path_allocs: u64,
    /// Distribution of realized deferred-sweep batches (lazy sweeping
    /// only), in nanoseconds: the time each allocation slow path or
    /// [`finish_sweep`](crate::Collector::finish_sweep) spent rebuilding
    /// free lists. This is exactly the work the collection pauses in
    /// [`pause_times`](GcStats::pause_times) no longer include.
    pub lazy_sweep_pauses: Histogram,
}

impl GcStats {
    pub(crate) fn record(&mut self, c: CollectionStats) {
        self.collections += 1;
        self.total_gc_time += c.duration;
        self.total_root_words += c.root_words_scanned;
        self.total_false_refs += c.false_refs_near_heap;
        self.max_objects_marked = self.max_objects_marked.max(c.objects_marked);
        if c.kind == CollectKind::Minor {
            self.minor_collections += 1;
        }
        self.last = Some(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(gc_no: u64) -> CollectionStats {
        CollectionStats {
            gc_no,
            kind: CollectKind::Full,
            reason: CollectReason::Explicit,
            root_words_scanned: 100,
            heap_words_scanned: 50,
            candidates_in_range: 10,
            valid_pointers: 7,
            false_refs_near_heap: 3,
            newly_blacklisted: 2,
            blacklist_pages: 2,
            objects_marked: 7,
            bytes_marked: 56,
            resolve_hits: 0,
            resolve_misses: 0,
            finalizers_ready: 0,
            fast_path_allocs: 0,
            slow_path_allocs: 0,
            sweep: SweepStats::default(),
            phases: PhaseTimes::default(),
            duration: Duration::from_micros(10),
        }
    }

    #[test]
    fn record_accumulates() {
        let mut s = GcStats::default();
        s.record(sample(1));
        s.record(sample(2));
        assert_eq!(s.collections, 2);
        assert_eq!(s.total_root_words, 200);
        assert_eq!(s.total_false_refs, 6);
        assert_eq!(s.last.expect("recorded").gc_no, 2);
        assert_eq!(s.total_gc_time, Duration::from_micros(20));
        assert_eq!(s.max_objects_marked, 7);
    }

    #[test]
    fn displays_are_informative() {
        let c = sample(1);
        let text = c.to_string();
        assert!(text.contains("GC#1"));
        assert!(text.contains("explicit"));
        assert!(text.contains("3 false refs"));
        assert_eq!(CollectReason::Startup.to_string(), "startup");
    }
}
