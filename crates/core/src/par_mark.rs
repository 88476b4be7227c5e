//! The parallel mark phase: a work-stealing drain over a frozen heap.
//!
//! Marking over the simulated address space is pure — the heap is frozen,
//! candidate resolution is a read-only query, and the only write is the
//! atomic test-and-set of a mark bit — so a parallel drain can be made
//! *bit-identical* to the serial one:
//!
//! * Each object's mark bit transitions 0→1 exactly once (the heap's mark
//!   kernel, [`Heap::mark_candidate`] with [`MarkBit::Atomic`], answers
//!   `Newly` to exactly one racing worker), so `objects_marked`/
//!   `bytes_marked` totals match serial.
//! * Each marked composite object is scanned exactly once (only the
//!   winning worker pushes it), so `heap_words`, `candidates_in_range`,
//!   `valid_pointers` and `false_refs_near_heap` totals match serial.
//! * Blacklist candidates are buffered per worker and merged sorted by
//!   page after the join. Every drain-phase false reference has heap
//!   provenance, and within one cycle the blacklist's per-page state is
//!   insensitive to noting order, so the merged result — and hence
//!   `dump()` output — is independent of scheduling.
//!
//! Workers own one [`StealDeque`] each (LIFO locally, FIFO for thieves)
//! and terminate via the [`InFlight`] counter; see
//! [`worksteal`](crate::worksteal) for the protocol.
//!
//! The unit of exchange is a *batch* of objects, not a single object:
//! each worker drains a private stack and only spills its overflow to the
//! shared deque, one [`BATCH`]-sized chunk at a time, so the lock and
//! counter are touched once per batch rather than once per (often
//! 16-byte) object. The in-flight counter counts batches; a worker's
//! current batch is retired only after its entire local drain — including
//! the children it did not spill — so the counter never under-reports
//! outstanding work.

use crate::mark::{scan_object_fields, MarkOutcome};
use crate::stats::MarkWorkerStats;
use crate::worksteal::{InFlight, StealDeque};
use crate::{GcConfig, PointerPolicy};
use gc_heap::{Heap, MarkBit, MarkHit, ObjRef, ObjectKind, PageResolveCache};
use gc_vmspace::{Addr, AddressSpace, Endian, SegmentHint};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Objects per work batch. Large enough to amortize the deque lock and
/// counter update, small enough that an idle worker finds stealable work
/// quickly on bushy graphs.
const BATCH: usize = 64;

/// Smallest local stack worth splitting for a starving thief. A depth-first
/// stack this deep holds the roots of substantial unexplored subgraphs at
/// its bottom.
const SPILL_MIN: usize = 8;

/// A batch of marked composite objects awaiting scanning.
type Batch = Vec<ObjRef>;

/// Everything the mark loop reads; shared immutably across workers.
struct Shared<'a> {
    space: &'a AddressSpace,
    heap: &'a Heap,
    endian: Endian,
    policy: PointerPolicy,
    /// log2 of the scan stride, read once for every worker.
    stride_shift: u32,
    blacklisting: bool,
    vic_lo: u64,
    vic_hi: u64,
    minor: bool,
    /// Each worker keeps a private [`PageResolveCache`] when enabled.
    resolve_cache: bool,
}

/// One worker's private results, merged deterministically after the join.
#[derive(Default)]
struct WorkerResult {
    out: MarkOutcome,
    stolen: u64,
    duration: std::time::Duration,
    /// Pages of false references seen while draining (heap provenance).
    false_pages: Vec<u32>,
}

/// The merged result of a parallel drain.
pub(crate) struct ParallelOutcome {
    /// Summed counters, equal to what a serial drain of the same seeds
    /// would have produced (`root_words` stays 0 — roots are scanned
    /// serially before the drain).
    pub out: MarkOutcome,
    /// Per-worker statistics, indexed by worker.
    pub workers: Vec<MarkWorkerStats>,
    /// False-reference pages with their note counts, ascending by page.
    pub false_pages: Vec<(u32, u64)>,
}

/// Drains `seeds` (already-marked composite objects) to the transitive
/// fixed point using `nworkers` (at least 2) scoped threads; a serial
/// drain is the collector's own [`Marker`](crate::mark::Marker).
pub(crate) fn par_drain(
    space: &AddressSpace,
    heap: &Heap,
    config: &GcConfig,
    vicinity: (u64, u64),
    minor: bool,
    seeds: Vec<ObjRef>,
    nworkers: usize,
) -> ParallelOutcome {
    debug_assert!(nworkers >= 2, "one worker is the serial marker's job");
    let shared = Shared {
        space,
        heap,
        endian: space.endian(),
        policy: config.pointer_policy,
        stride_shift: config.scan_alignment.stride().trailing_zeros(),
        blacklisting: config.blacklisting,
        vic_lo: vicinity.0,
        vic_hi: vicinity.1,
        minor,
        resolve_cache: config.resolve_cache,
    };
    let queues: Vec<StealDeque<Batch>> = (0..nworkers).map(|_| StealDeque::new()).collect();
    let seed_batches: Vec<Batch> = seeds.chunks(BATCH).map(<[ObjRef]>::to_vec).collect();
    let inflight = InFlight::new(seed_batches.len() as u64);
    for (i, batch) in seed_batches.into_iter().enumerate() {
        queues[i % nworkers].push(batch);
    }
    let hungry = AtomicUsize::new(0);
    let results: Vec<WorkerResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nworkers)
            .map(|w| {
                let shared = &shared;
                let queues = &queues;
                let inflight = &inflight;
                let hungry = &hungry;
                s.spawn(move || worker_loop(shared, w, queues, inflight, hungry))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mark worker panicked"))
            .collect()
    });

    let mut out = MarkOutcome::default();
    let mut workers = Vec::with_capacity(nworkers);
    let mut pages: BTreeMap<u32, u64> = BTreeMap::new();
    for r in results {
        workers.push(MarkWorkerStats {
            objects_marked: r.out.objects_marked,
            bytes_marked: r.out.bytes_marked,
            stolen: r.stolen,
            duration: r.duration,
        });
        out.merge(r.out);
        for page in r.false_pages {
            *pages.entry(page).or_insert(0) += 1;
        }
    }
    ParallelOutcome {
        out,
        workers,
        false_pages: pages.into_iter().collect(),
    }
}

/// Folds a worker's private cache counters into its result.
fn finish_cache(res: &mut WorkerResult, cache: Option<PageResolveCache>) {
    if let Some(cache) = cache {
        res.out.resolve_hits = cache.hits();
        res.out.resolve_misses = cache.misses();
    }
}

fn worker_loop(
    shared: &Shared<'_>,
    me: usize,
    queues: &[StealDeque<Batch>],
    inflight: &InFlight,
    hungry: &AtomicUsize,
) -> WorkerResult {
    let start = Instant::now();
    let mut res = WorkerResult::default();
    let mut cache = shared.resolve_cache.then(PageResolveCache::new);
    // Per-worker segment hint: concurrent workers scanning through the
    // shared `AddressSpace` cache would ping-pong its single entry.
    let mut hint = SegmentHint::new();
    let mut local: Vec<ObjRef> = Vec::new();
    let mut am_hungry = false;
    let n = queues.len();
    loop {
        let mut batch = queues[me].pop();
        if batch.is_none() {
            // Steal round: visit victims in a fixed rotation starting past
            // ourselves, so contention spreads instead of piling onto
            // worker 0.
            for k in 1..n {
                if let Some(stolen) = queues[(me + k) % n].steal() {
                    res.stolen += 1;
                    batch = Some(stolen);
                    break;
                }
            }
        }
        match batch {
            Some(items) => {
                if am_hungry {
                    am_hungry = false;
                    hungry.fetch_sub(1, Ordering::Relaxed);
                }
                local.extend(items);
                while let Some(obj) = local.pop() {
                    scan_object(shared, obj, &mut local, &mut res, &mut cache, &mut hint);
                    // Spill the *bottom* of the stack (the older entries —
                    // roots of the largest unexplored subgraphs) when the
                    // stack is overfull, or as soon as any worker is
                    // starving: on narrow graphs (deep trees, lists) the
                    // stack never grows large, and starvation-driven
                    // splitting is what spreads the work.
                    let spill_len = if local.len() >= 2 * BATCH {
                        BATCH
                    } else if local.len() >= SPILL_MIN && hungry.load(Ordering::Relaxed) > 0 {
                        local.len() / 2
                    } else {
                        continue;
                    };
                    let rest = local.split_off(spill_len);
                    let spill = std::mem::replace(&mut local, rest);
                    inflight.add_one();
                    queues[me].push(spill);
                }
                // Retire only after the whole local drain: children that
                // were not spilled are covered by this batch's token.
                inflight.finish_one();
            }
            None => {
                if inflight.is_idle() {
                    break;
                }
                if !am_hungry {
                    am_hungry = true;
                    hungry.fetch_add(1, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        }
    }
    if am_hungry {
        hungry.fetch_sub(1, Ordering::Relaxed);
    }
    finish_cache(&mut res, cache);
    res.duration = start.elapsed();
    res
}

/// Scans one object with the shared scan kernel, feeding each candidate
/// to this worker's [`consider`].
fn scan_object(
    shared: &Shared<'_>,
    obj: ObjRef,
    local: &mut Vec<ObjRef>,
    res: &mut WorkerResult,
    cache: &mut Option<PageResolveCache>,
    hint: &mut SegmentHint,
) {
    let words = scan_object_fields(
        shared.space,
        shared.heap,
        shared.endian,
        shared.stride_shift,
        obj,
        hint,
        |value| consider(shared, value, local, res, cache),
    );
    res.out.heap_words += words;
}

/// Figure 2's `mark(p)`, racing against other workers on the mark bit: the
/// heap's mark kernel decides; this wrapper keeps the worker's counters and
/// its blacklist sink.
#[inline]
fn consider(
    shared: &Shared<'_>,
    value: u32,
    local: &mut Vec<ObjRef>,
    res: &mut WorkerResult,
    cache: &mut Option<PageResolveCache>,
) {
    let v = u64::from(value);
    if v < shared.vic_lo || v >= shared.vic_hi {
        return;
    }
    res.out.candidates_in_range += 1;
    let addr = Addr::new(value);
    let accept = |base| shared.policy.accepts(addr, base);
    match shared
        .heap
        .mark_candidate(addr, cache.as_mut(), shared.minor, accept, MarkBit::Atomic)
    {
        MarkHit::Invalid => {
            res.out.false_refs_near_heap += 1;
            if shared.blacklisting {
                res.false_pages.push(addr.page().raw());
            }
        }
        MarkHit::Valid => res.out.valid_pointers += 1,
        MarkHit::Newly(obj) => {
            res.out.valid_pointers += 1;
            res.out.objects_marked += 1;
            res.out.bytes_marked += u64::from(obj.bytes);
            if obj.kind == ObjectKind::Composite {
                local.push(obj);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_heap::{accept_all, HeapConfig};

    #[test]
    fn parallel_drain_reaches_the_transitive_closure() {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig::default());
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let c = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        space.write_u32(a, b.raw()).unwrap();
        space.write_u32(b + 4, c.raw()).unwrap();
        heap.clear_marks();
        let obj_a = heap.object_containing(a).unwrap();
        assert!(heap.set_marked(obj_a), "seed premarked, as after root scan");

        let config = GcConfig::default();
        let result = par_drain(&space, &heap, &config, (0, 1 << 32), false, vec![obj_a], 4);
        for addr in [b, c] {
            let obj = heap.object_containing(addr).unwrap();
            assert!(heap.is_marked(obj), "{addr} reached through the chain");
        }
        // The seed was marked before the drain; the drain marked b and c.
        assert_eq!(result.out.objects_marked, 2);
        assert_eq!(result.out.bytes_marked, 16);
        assert_eq!(result.out.root_words, 0, "roots are not the drain's job");
        assert_eq!(result.workers.len(), 4);
        let per_worker: u64 = result.workers.iter().map(|w| w.objects_marked).sum();
        assert_eq!(per_worker, result.out.objects_marked);
    }

    #[test]
    fn empty_seed_terminates_immediately() {
        let space = AddressSpace::new(Endian::Big);
        let heap = Heap::new(HeapConfig::default());
        let config = GcConfig::default();
        let result = par_drain(&space, &heap, &config, (0, 1 << 32), false, Vec::new(), 8);
        assert_eq!(result.out.objects_marked, 0);
        assert_eq!(result.out.heap_words, 0);
        assert!(result.false_pages.is_empty());
        assert_eq!(result.workers.len(), 8);
    }
}
