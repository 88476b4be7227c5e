//! Structured collector telemetry: the event stream, phase timings,
//! latency histograms, and the JSON metrics snapshot.
//!
//! The paper's whole methodology is measurement — Table 1's retention
//! fractions, §3.1's "maximum apparently accessible" peaks, appendix B's
//! hand-tracked leak sources — and this module is the machine-readable
//! counterpart of [`Collector::dump`](crate::Collector::dump)'s
//! human-readable report:
//!
//! * [`GcEvent`] / [`GcObserver`]: a typed event stream (collection
//!   begin/end, allocation slow paths, heap growth, blacklist growth,
//!   stack clears, incremental pauses, finalizer readiness) delivered to a
//!   sink installed via [`GcConfig::observer`](crate::GcConfig::observer).
//!   Built-in sinks: [`RingBufferSink`], [`JsonLinesSink`], [`NullSink`].
//! * [`PhaseTimes`]: the per-phase wall-clock breakdown (root scan, mark,
//!   finalize, sweep) of every collection cycle.
//! * [`Histogram`]: log₂-bucketed latency accounting with
//!   p50/p95/p99/max queries, accumulated in
//!   [`GcStats`](crate::GcStats) for pause times and allocation
//!   slow-path latencies.
//! * [`Collector::metrics_json`](crate::Collector::metrics_json): a
//!   versioned JSON snapshot of all of the above plus a per-size-class
//!   heap census and the blacklist state.

use crate::{CollectKind, CollectReason, Collector};
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Schema version of [`Collector::metrics_json`](crate::Collector::metrics_json)
/// and of [`JsonLinesSink`] event records.
///
/// Version 2 added parallel-mark telemetry: the `mark_worker` event, the
/// `mark_threads` config field, and `last_collection.parallel_mark`.
///
/// Version 3 added lazy-sweep telemetry: the `lazy_sweep` event, the
/// `lazy_sweep` and `sweep_budget` config fields, the snapshot's
/// `lazy_sweep` section (pending blocks, realized totals, batch-latency
/// histogram), `last_collection.blocks_deferred`, and the
/// `collection_end` event's `objects_freed` field. With lazy sweeping
/// on, `pause_ns` no longer includes free-list reconstruction — that work
/// is sampled in `lazy_sweep.batch_ns` instead.
///
/// Version 4 added mark-phase resolve-cache telemetry: the
/// `resolve_cache` config field, `last_collection.resolve_hits` /
/// `last_collection.resolve_misses`, and the same two fields on the
/// `collection_end` event (all 0 when the cache is disabled).
///
/// Version 5 added allocation fast-path telemetry: the snapshot's
/// top-level `fast_path_allocs` / `slow_path_allocs` counters (successful
/// allocations that did / did not trigger collection work), and the same
/// two fields on `last_collection` as deltas since the previous
/// collection. Version 6 removed the allocation-path switch from `config`.
///
/// Version 7 added `heap.page_table_bytes`: the heap's per-page metadata,
/// which grows with the heap's span rather than the address space's.
///
/// Version 8 added `heap.pop_words_scanned`, the allocation bitmap words
/// read by free-list pops, and removed `lazy_sweep.blocks_released`,
/// which was always 0 once lazy snapshots released every empty block.
///
/// Version 9 removed the `sweep_budget` config field: a lazy heap sweeps
/// each pending block when its address-ordered free list first selects
/// it, so no per-allocation bound remains.
pub const METRICS_SCHEMA_VERSION: u32 = 9;

// ---------------------------------------------------------------------------
// Phase timings
// ---------------------------------------------------------------------------

/// Wall-clock breakdown of one collection cycle.
///
/// The four phases cover the work a cycle does; their sum is bounded by
/// (and close to) the cycle's total
/// [`duration`](crate::CollectionStats::duration), the difference being
/// inter-phase bookkeeping (mark-bit clearing, card resets, statistics).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Conservative scan of all root segments (stacks, registers, static
    /// data), including direct marking of root-referenced objects.
    pub root_scan: Duration,
    /// Transitive tracing: draining the mark stack, plus dirty-page
    /// rescans (generational remembered set, incremental finish).
    pub mark: Duration,
    /// Finalization scan and resurrection, plus disappearing-link
    /// clearing.
    pub finalize: Duration,
    /// Sweeping unmarked objects and releasing empty blocks.
    pub sweep: Duration,
}

impl PhaseTimes {
    /// Sum of the four phases.
    pub fn total(&self) -> Duration {
        self.root_scan + self.mark + self.finalize + self.sweep
    }

    fn to_json(self) -> String {
        format!(
            "{{\"root_scan_ns\":{},\"mark_ns\":{},\"finalize_ns\":{},\"sweep_ns\":{}}}",
            self.root_scan.as_nanos(),
            self.mark.as_nanos(),
            self.finalize.as_nanos(),
            self.sweep.as_nanos(),
        )
    }
}

// ---------------------------------------------------------------------------
// Events and observers
// ---------------------------------------------------------------------------

/// One observable collector occurrence, in program order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GcEvent {
    /// A collection cycle is starting. For incremental cycles this fires
    /// at the initial root scan.
    CollectionBegin {
        /// Sequence number of the collection (1-based, monotone).
        gc_no: u64,
        /// Full or minor.
        kind: CollectKind,
        /// Why the collection ran.
        reason: CollectReason,
    },
    /// A collection cycle finished (marking, finalization and sweep done).
    CollectionEnd {
        /// Sequence number; pairs with the matching `CollectionBegin`.
        gc_no: u64,
        /// Full or minor.
        kind: CollectKind,
        /// Per-phase wall-clock breakdown.
        phases: PhaseTimes,
        /// Whole-cycle wall-clock duration.
        duration: Duration,
        /// Objects marked live.
        objects_marked: u64,
        /// Objects reclaimed by the sweep (with lazy sweeping, the exact
        /// count the snapshot condemned — realized later, at allocation).
        objects_freed: u64,
        /// Bytes reclaimed by the sweep.
        bytes_freed: u64,
        /// Page-resolve cache hits during the mark phase (0 when
        /// [`GcConfig::resolve_cache`](crate::GcConfig::resolve_cache) is
        /// off).
        resolve_hits: u64,
        /// Page-resolve cache misses during the mark phase (0 when the
        /// cache is off).
        resolve_misses: u64,
    },
    /// An allocation took the slow path: it triggered collection work
    /// (threshold or out-of-memory retry) before returning.
    AllocSlowPath {
        /// Requested size in bytes.
        bytes: u32,
        /// Wall-clock latency of the whole allocation call.
        duration: Duration,
    },
    /// The heap mapped fresh pages from the address space.
    HeapGrow {
        /// Pages added by this growth step.
        grown_pages: u32,
        /// Total mapped pages after growing.
        mapped_pages: u32,
    },
    /// A collection added pages to the blacklist.
    BlacklistGrow {
        /// Collection that observed the new false references.
        gc_no: u64,
        /// Pages newly blacklisted this cycle.
        newly_blacklisted: u32,
        /// Blacklist size after the cycle.
        total_pages: u32,
    },
    /// The mutator cleared a dead region of its stack (§3.1 stack
    /// hygiene; reported by the embedder via
    /// [`Collector::note_stack_clear`](crate::Collector::note_stack_clear)).
    StackClear {
        /// Bytes zeroed.
        bytes: u32,
    },
    /// One bounded mutator pause of an incremental cycle (root scan, one
    /// tracing increment, or the stop-the-world finish).
    IncrementalPause {
        /// The incremental cycle's collection number.
        gc_no: u64,
        /// Pause duration.
        duration: Duration,
    },
    /// A collection found registered finalizable objects unreachable and
    /// queued them.
    FinalizersReady {
        /// Collection that discovered them.
        gc_no: u64,
        /// Number of newly queued finalizable objects.
        count: u32,
    },
    /// A batch of deferred sweep work was realized (lazy sweeping only):
    /// an allocation that reached a pending block, an explicit free, or a
    /// [`finish_sweep`](crate::Collector::finish_sweep) swept blocks a
    /// previous collection left pending.
    LazySweep {
        /// Blocks swept in this batch.
        blocks_swept: u64,
        /// Objects reclaimed by the batch (already counted in the owning
        /// collection's sweep statistics at snapshot time).
        objects_freed: u64,
        /// Bytes reclaimed by the batch.
        bytes_freed: u64,
        /// Blocks still awaiting their deferred sweep afterwards.
        pending_blocks: u32,
        /// Wall-clock time the batch took — mutator time, not collection
        /// pause.
        duration: Duration,
    },
    /// One worker's share of a parallel mark phase (`mark_threads > 1`).
    /// Emitted once per worker, in worker order, after the drain's barrier.
    MarkWorker {
        /// Collection whose mark phase the worker served.
        gc_no: u64,
        /// Worker index, `0..mark_threads`.
        worker: u32,
        /// Objects this worker won the race to mark.
        objects_marked: u64,
        /// Bytes of those objects.
        bytes_marked: u64,
        /// Work items stolen from other workers' deques.
        stolen: u64,
        /// Wall-clock time the worker spent draining.
        duration: Duration,
    },
}

impl GcEvent {
    /// Short machine-readable tag naming the event type.
    pub fn tag(&self) -> &'static str {
        match self {
            GcEvent::CollectionBegin { .. } => "collection_begin",
            GcEvent::CollectionEnd { .. } => "collection_end",
            GcEvent::AllocSlowPath { .. } => "alloc_slow_path",
            GcEvent::HeapGrow { .. } => "heap_grow",
            GcEvent::BlacklistGrow { .. } => "blacklist_grow",
            GcEvent::StackClear { .. } => "stack_clear",
            GcEvent::IncrementalPause { .. } => "incremental_pause",
            GcEvent::FinalizersReady { .. } => "finalizers_ready",
            GcEvent::LazySweep { .. } => "lazy_sweep",
            GcEvent::MarkWorker { .. } => "mark_worker",
        }
    }

    /// Renders the event as a single-line JSON object.
    pub fn to_json(&self) -> String {
        let mut fields = format!("\"event\":\"{}\"", self.tag());
        match self {
            GcEvent::CollectionBegin {
                gc_no,
                kind,
                reason,
            } => {
                fields.push_str(&format!(
                    ",\"gc_no\":{gc_no},\"kind\":\"{kind}\",\"reason\":\"{reason}\""
                ));
            }
            GcEvent::CollectionEnd {
                gc_no,
                kind,
                phases,
                duration,
                objects_marked,
                objects_freed,
                bytes_freed,
                resolve_hits,
                resolve_misses,
            } => {
                fields.push_str(&format!(
                    ",\"gc_no\":{gc_no},\"kind\":\"{kind}\",\"phases\":{},\"duration_ns\":{},\"objects_marked\":{objects_marked},\"objects_freed\":{objects_freed},\"bytes_freed\":{bytes_freed},\"resolve_hits\":{resolve_hits},\"resolve_misses\":{resolve_misses}",
                    phases.to_json(),
                    duration.as_nanos(),
                ));
            }
            GcEvent::AllocSlowPath { bytes, duration } => {
                fields.push_str(&format!(
                    ",\"bytes\":{bytes},\"duration_ns\":{}",
                    duration.as_nanos()
                ));
            }
            GcEvent::HeapGrow {
                grown_pages,
                mapped_pages,
            } => {
                fields.push_str(&format!(
                    ",\"grown_pages\":{grown_pages},\"mapped_pages\":{mapped_pages}"
                ));
            }
            GcEvent::BlacklistGrow {
                gc_no,
                newly_blacklisted,
                total_pages,
            } => {
                fields.push_str(&format!(
                    ",\"gc_no\":{gc_no},\"newly_blacklisted\":{newly_blacklisted},\"total_pages\":{total_pages}"
                ));
            }
            GcEvent::StackClear { bytes } => {
                fields.push_str(&format!(",\"bytes\":{bytes}"));
            }
            GcEvent::IncrementalPause { gc_no, duration } => {
                fields.push_str(&format!(
                    ",\"gc_no\":{gc_no},\"duration_ns\":{}",
                    duration.as_nanos()
                ));
            }
            GcEvent::FinalizersReady { gc_no, count } => {
                fields.push_str(&format!(",\"gc_no\":{gc_no},\"count\":{count}"));
            }
            GcEvent::LazySweep {
                blocks_swept,
                objects_freed,
                bytes_freed,
                pending_blocks,
                duration,
            } => {
                fields.push_str(&format!(
                    ",\"blocks_swept\":{blocks_swept},\"objects_freed\":{objects_freed},\"bytes_freed\":{bytes_freed},\"pending_blocks\":{pending_blocks},\"duration_ns\":{}",
                    duration.as_nanos()
                ));
            }
            GcEvent::MarkWorker {
                gc_no,
                worker,
                objects_marked,
                bytes_marked,
                stolen,
                duration,
            } => {
                fields.push_str(&format!(
                    ",\"gc_no\":{gc_no},\"worker\":{worker},\"objects_marked\":{objects_marked},\"bytes_marked\":{bytes_marked},\"stolen\":{stolen},\"duration_ns\":{}",
                    duration.as_nanos()
                ));
            }
        }
        format!("{{\"v\":{METRICS_SCHEMA_VERSION},{fields}}}")
    }
}

/// A sink for the collector's event stream.
///
/// Installed via [`GcConfig::observer`](crate::GcConfig::observer);
/// invoked synchronously at each event, in program order, so
/// implementations should be cheap (or buffer).
pub trait GcObserver: fmt::Debug {
    /// Delivers one event.
    fn on_event(&mut self, event: &GcEvent);
}

/// The shared, thread-safe handle under which an observer is installed.
///
/// The embedder keeps a clone to inspect the sink after running (e.g. to
/// drain a [`RingBufferSink`]):
///
/// ```
/// use gc_core::{observer, Collector, GcConfig, RingBufferSink};
/// use gc_vmspace::{AddressSpace, Endian};
///
/// let sink = observer(RingBufferSink::new(1024));
/// let config = GcConfig { observer: Some(sink.clone()), ..GcConfig::default() };
/// let mut gc = Collector::new(AddressSpace::new(Endian::Big), config);
/// gc.collect();
/// assert!(!sink.lock().unwrap().events().is_empty());
/// ```
pub type SharedObserver = Arc<Mutex<dyn GcObserver + Send>>;

/// Wraps a sink into the [`SharedObserver`] handle
/// [`GcConfig::observer`](crate::GcConfig::observer) expects, returning a
/// handle the caller can keep cloning.
pub fn observer<O: GcObserver + Send + 'static>(sink: O) -> Arc<Mutex<O>> {
    Arc::new(Mutex::new(sink))
}

/// An observer that discards every event (the explicit "off" sink).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl GcObserver for NullSink {
    fn on_event(&mut self, _event: &GcEvent) {}
}

/// An observer that retains the most recent events in a bounded ring.
#[derive(Clone, Debug)]
pub struct RingBufferSink {
    capacity: usize,
    dropped: u64,
    events: VecDeque<GcEvent>,
}

impl RingBufferSink {
    /// A ring retaining at most `capacity` events (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer needs capacity");
        RingBufferSink {
            capacity,
            dropped: 0,
            events: VecDeque::with_capacity(capacity),
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<GcEvent> {
        self.events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Discards all retained events (the drop counter is kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl GcObserver for RingBufferSink {
    fn on_event(&mut self, event: &GcEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }
}

/// An observer that appends each event as one JSON line to a writer.
pub struct JsonLinesSink {
    out: BufWriter<Box<dyn Write + Send>>,
    lines: u64,
    errored: bool,
}

impl JsonLinesSink {
    /// A sink writing to an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        JsonLinesSink {
            out: BufWriter::new(out),
            lines: 0,
            errored: false,
        }
    }

    /// A sink appending to the file at `path` (created if missing).
    ///
    /// # Errors
    ///
    /// Any error of [`File::create`].
    pub fn to_file(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::new(Box::new(file)))
    }

    /// Number of event lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// `true` once any write has failed; subsequent events are dropped
    /// silently rather than panicking inside the collector.
    pub fn errored(&self) -> bool {
        self.errored
    }

    /// Flushes buffered lines to the underlying writer.
    ///
    /// # Errors
    ///
    /// Any error of the underlying writer's flush.
    pub fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

impl fmt::Debug for JsonLinesSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonLinesSink")
            .field("lines", &self.lines)
            .field("errored", &self.errored)
            .finish_non_exhaustive()
    }
}

impl Drop for JsonLinesSink {
    fn drop(&mut self) {
        let _ = self.out.flush();
    }
}

impl GcObserver for JsonLinesSink {
    fn on_event(&mut self, event: &GcEvent) {
        if self.errored {
            return;
        }
        if writeln!(self.out, "{}", event.to_json()).is_err() {
            self.errored = true;
            return;
        }
        self.lines += 1;
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Number of log₂ buckets: bucket 0 holds zeros, bucket `b ≥ 1` holds
/// values in `[2^(b-1), 2^b)`, up to bucket 64 for the top of the `u64`
/// range.
const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples (latencies in nanoseconds,
/// sizes in bytes, …) with constant-time recording and approximate
/// percentile queries.
///
/// Percentiles are resolved to their bucket's upper bound (clamped to the
/// observed maximum), so the error is bounded by a factor of two — the
/// usual trade for O(1) recording without retaining samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value falls into.
    fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `b`.
    pub fn bucket_lo(b: usize) -> u64 {
        if b == 0 {
            0
        } else {
            1u64 << (b - 1)
        }
    }

    /// Inclusive upper bound of bucket `b`.
    pub fn bucket_hi(b: usize) -> u64 {
        match b {
            0 => 0,
            64 => u64::MAX,
            _ => (1u64 << b) - 1,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`Duration`] sample in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// The value at or below which `p` percent of samples fall, resolved
    /// to the containing bucket's upper bound and clamped to the observed
    /// extremes. Returns 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return Self::bucket_hi(b).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Median (see [`Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile (see [`Histogram::percentile`]).
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th percentile (see [`Histogram::percentile`]).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// The non-empty buckets as `(lo, hi, count)` triples, low to high.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(b, &n)| (Self::bucket_lo(b), Self::bucket_hi(b), n))
            .collect()
    }

    /// Renders the histogram and its summary statistics as a JSON object.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .into_iter()
            .map(|(lo, hi, n)| format!("{{\"lo\":{lo},\"hi\":{hi},\"count\":{n}}}"))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"mean\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min(),
            self.mean(),
            self.max,
            self.p50(),
            self.p95(),
            self.p99(),
            buckets.join(","),
        )
    }
}

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

/// Escapes a string for embedding in a JSON string literal (used by the
/// report tooling that wraps [`Collector::metrics_json`] output).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders the parallel-mark breakdown of a collection, or `null` for
/// serial marking.
fn parallel_mark_json(p: Option<&crate::ParallelMarkStats>) -> String {
    let Some(p) = p else {
        return "null".to_string();
    };
    let workers: Vec<String> = p
        .worker_stats()
        .iter()
        .map(|w| {
            format!(
                "{{\"objects_marked\":{},\"bytes_marked\":{},\"stolen\":{},\"duration_ns\":{}}}",
                w.objects_marked,
                w.bytes_marked,
                w.stolen,
                w.duration.as_nanos(),
            )
        })
        .collect();
    format!(
        "{{\"workers\":{},\"total_stolen\":{},\"worker_stats\":[{}]}}",
        p.workers(),
        p.total_stolen(),
        workers.join(","),
    )
}

/// Builds the versioned JSON metrics snapshot for
/// [`Collector::metrics_json`](crate::Collector::metrics_json).
pub(crate) fn metrics_json(gc: &Collector) -> String {
    let stats = gc.stats();
    let heap_stats = gc.heap().stats();
    let config = gc.config();

    // Cumulative collection statistics.
    let collections = format!(
        "{{\"total\":{},\"minor\":{},\"increments\":{},\"total_gc_time_ns\":{},\"total_root_words\":{},\"total_false_refs\":{},\"max_objects_marked\":{},\"max_increment_pause_ns\":{}}}",
        stats.collections,
        stats.minor_collections,
        stats.increments,
        stats.total_gc_time.as_nanos(),
        stats.total_root_words,
        stats.total_false_refs,
        stats.max_objects_marked,
        stats.max_increment_pause.as_nanos(),
    );

    // The most recent collection in full, including its phase breakdown
    // and (when the mark phase ran in parallel) the per-worker split.
    let last = match &stats.last {
        None => "null".to_string(),
        Some(c) => format!(
            "{{\"gc_no\":{},\"kind\":\"{}\",\"reason\":\"{}\",\"phases\":{},\"duration_ns\":{},\"root_words_scanned\":{},\"heap_words_scanned\":{},\"candidates_in_range\":{},\"valid_pointers\":{},\"false_refs_near_heap\":{},\"newly_blacklisted\":{},\"objects_marked\":{},\"bytes_marked\":{},\"resolve_hits\":{},\"resolve_misses\":{},\"finalizers_ready\":{},\"fast_path_allocs\":{},\"slow_path_allocs\":{},\"objects_freed\":{},\"bytes_freed\":{},\"blocks_deferred\":{},\"parallel_mark\":{}}}",
            c.gc_no,
            c.kind,
            c.reason,
            c.phases.to_json(),
            c.duration.as_nanos(),
            c.root_words_scanned,
            c.heap_words_scanned,
            c.candidates_in_range,
            c.valid_pointers,
            c.false_refs_near_heap,
            c.newly_blacklisted,
            c.objects_marked,
            c.bytes_marked,
            c.resolve_hits,
            c.resolve_misses,
            c.finalizers_ready,
            c.fast_path_allocs,
            c.slow_path_allocs,
            c.sweep.objects_freed,
            c.sweep.bytes_freed,
            c.sweep.blocks_deferred,
            parallel_mark_json(c.parallel_mark.as_ref()),
        ),
    };

    // Per-size-class heap census.
    let census: Vec<String> = gc
        .heap()
        .size_class_census()
        .into_iter()
        .map(|c| {
            format!(
                "{{\"obj_bytes\":{},\"kind\":\"{}\",\"large\":{},\"blocks\":{},\"pages\":{},\"live_objects\":{},\"free_slots\":{}}}",
                c.obj_bytes,
                match c.kind {
                    gc_heap::ObjectKind::Composite => "composite",
                    gc_heap::ObjectKind::Atomic => "atomic",
                },
                c.large,
                c.blocks,
                c.pages,
                c.live_objects,
                c.free_slots,
            )
        })
        .collect();
    let heap = format!(
        "{{\"mapped_pages\":{},\"free_pages\":{},\"quarantined_pages\":{},\"largest_free_run\":{},\"blocks\":{},\"bytes_live\":{},\"bytes_allocated_total\":{},\"bytes_since_collect\":{},\"page_table_bytes\":{},\"pop_words_scanned\":{},\"size_classes\":[{}]}}",
        heap_stats.mapped_pages,
        heap_stats.free_pages,
        gc.heap().quarantined_pages(),
        heap_stats.largest_free_run,
        heap_stats.blocks,
        heap_stats.bytes_live,
        heap_stats.bytes_allocated_total,
        heap_stats.bytes_since_collect,
        gc.heap().page_table_bytes(),
        gc.heap().pop_words_scanned(),
        census.join(","),
    );

    // Blacklist state.
    let bl = gc.blacklist();
    let blacklist = format!(
        "{{\"enabled\":{},\"pages\":{},\"total_noted\":{}}}",
        config.blacklisting,
        bl.len(),
        bl.total_noted(),
    );

    let config_summary = format!(
        "{{\"pointer_policy\":\"{}\",\"scan_alignment\":\"{}\",\"generational\":{},\"incremental\":{},\"mark_threads\":{},\"lazy_sweep\":{},\"resolve_cache\":{}}}",
        config.pointer_policy,
        config.scan_alignment,
        config.generational,
        config.incremental,
        config.mark_threads,
        config.lazy_sweep,
        config.resolve_cache,
    );

    // Lazy-sweep state: what is still pending, and the deferred work
    // realized so far (deferred block sweeps happen on mutator time, so
    // their latencies are sampled here rather than in `pause_ns`).
    let lazy_totals = gc.heap().lazy_sweep_totals();
    let lazy_sweep = format!(
        "{{\"enabled\":{},\"pending_blocks\":{},\"sweep_epoch\":{},\"blocks_swept\":{},\"objects_freed\":{},\"bytes_freed\":{},\"sweep_time_ns\":{},\"batch_ns\":{}}}",
        config.lazy_sweep,
        gc.heap().pending_sweep_blocks(),
        gc.heap().sweep_epoch(),
        lazy_totals.blocks_swept,
        lazy_totals.objects_freed,
        lazy_totals.bytes_freed,
        lazy_totals.sweep_time.as_nanos(),
        stats.lazy_sweep_pauses.to_json(),
    );

    format!(
        "{{\"version\":{METRICS_SCHEMA_VERSION},\"config\":{config_summary},\"collections\":{collections},\"last_collection\":{last},\"pause_ns\":{},\"alloc_slow_path_ns\":{},\"fast_path_allocs\":{},\"slow_path_allocs\":{},\"lazy_sweep\":{lazy_sweep},\"heap\":{heap},\"blacklist\":{blacklist}}}",
        stats.pause_times.to_json(),
        stats.alloc_slow_path.to_json(),
        stats.fast_path_allocs,
        stats.slow_path_allocs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Zeros land alone in bucket 0.
        assert_eq!(Histogram::bucket_index(0), 0);
        // Each bucket b >= 1 covers [2^(b-1), 2^b - 1].
        for b in 1..=63usize {
            let lo = Histogram::bucket_lo(b);
            let hi = Histogram::bucket_hi(b);
            assert_eq!(Histogram::bucket_index(lo), b, "lower bound of bucket {b}");
            assert_eq!(Histogram::bucket_index(hi), b, "upper bound of bucket {b}");
            assert_eq!(hi, 2 * lo - 1);
        }
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        assert_eq!(Histogram::bucket_hi(64), u64::MAX);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let mut h = Histogram::new();
        h.record(1000);
        for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 1000, "p{p}");
        }
        assert_eq!(h.min(), 1000);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.mean(), 1000);
    }

    #[test]
    fn percentiles_order_and_clamp() {
        let mut h = Histogram::new();
        // 90 fast samples, 10 slow ones.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} <= {p95} <= {p99}");
        // p50 falls in 100's bucket [64, 127]; clamped to >= min.
        assert!((100..200).contains(&p50), "p50 = {p50}");
        // p95 and p99 land in the slow bucket, clamped to the observed max.
        assert_eq!(p99, 1_000_000);
        assert!(h.percentile(100.0) == 1_000_000);
    }

    #[test]
    fn mean_and_sum_accumulate() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.sum(), 10);
        assert_eq!(h.mean(), 2);
        assert_eq!(h.count(), 4);
        // Buckets: 1 -> b1, 2..3 -> b2, 4 -> b3.
        assert_eq!(h.nonzero_buckets(), vec![(1, 1, 1), (2, 3, 2), (4, 7, 1)]);
    }

    #[test]
    fn histogram_json_has_summary_fields() {
        let mut h = Histogram::new();
        h.record(5);
        let json = h.to_json();
        for needle in [
            "\"count\":1",
            "\"p50\":5",
            "\"p99\":5",
            "\"buckets\":[{\"lo\":4",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut sink = RingBufferSink::new(2);
        for bytes in [1u32, 2, 3] {
            sink.on_event(&GcEvent::StackClear { bytes });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        assert_eq!(
            sink.events(),
            vec![
                GcEvent::StackClear { bytes: 2 },
                GcEvent::StackClear { bytes: 3 }
            ]
        );
        sink.clear();
        assert!(sink.is_empty());
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));

        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, data: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut sink = JsonLinesSink::new(Box::new(SharedBuf(buf.clone())));
        sink.on_event(&GcEvent::StackClear { bytes: 64 });
        sink.on_event(&GcEvent::HeapGrow {
            grown_pages: 4,
            mapped_pages: 4,
        });
        sink.flush().unwrap();
        assert_eq!(sink.lines(), 2);
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(
            lines[0].contains("\"event\":\"stack_clear\"") && lines[0].contains("\"bytes\":64")
        );
        assert!(
            lines[1].contains("\"event\":\"heap_grow\"") && lines[1].contains("\"mapped_pages\":4")
        );
    }

    #[test]
    fn event_json_is_tagged_and_versioned() {
        let e = GcEvent::CollectionBegin {
            gc_no: 3,
            kind: CollectKind::Full,
            reason: CollectReason::Explicit,
        };
        let json = e.to_json();
        assert!(json.starts_with(&format!("{{\"v\":{METRICS_SCHEMA_VERSION},")));
        assert!(json.contains("\"event\":\"collection_begin\""));
        assert!(json.contains("\"gc_no\":3"));
        assert!(json.contains("\"kind\":\"full\""));
    }

    #[test]
    fn phase_times_total_sums_phases() {
        let phases = PhaseTimes {
            root_scan: Duration::from_micros(10),
            mark: Duration::from_micros(20),
            finalize: Duration::from_micros(5),
            sweep: Duration::from_micros(15),
        };
        assert_eq!(phases.total(), Duration::from_micros(50));
        let json = phases.to_json();
        assert!(json.contains("\"root_scan_ns\":10000"));
        assert!(json.contains("\"sweep_ns\":15000"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
