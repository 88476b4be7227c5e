//! Instrumentation shared by every workload: the collector observer, the
//! mutator wrapper that every allocation and store of a workload goes
//! through, and the per-run counters both feed.
//!
//! Untraced runs install an observer that only keeps pause durations and
//! the peak mapped-page count; the wrapper adds one statistics read per
//! call. Traced runs also time every call into the collector, keep spans
//! for slow allocations, collections, increments and lazy sweep batches,
//! and sum the collector's per-phase telemetry.

use gc_core::{CollectionStats, Collector, GcError, GcEvent, GcObserver};
use gc_heap::{DescriptorId, ObjectKind};
use gc_machine::Machine;
use gc_vmspace::Addr;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A stop-the-world collection whose phases leave more than this share of
/// its pause unattributed is flagged by the traced run.
pub const UNATTRIBUTED_FLAG_SHARE: f64 = 0.10;

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same list; `None` for a root.
    pub parent: Option<usize>,
    /// Collection the span belongs to (0 for mutator calls).
    pub gc_no: u64,
}

/// The cycle event the observer saw last. A stop-the-world collection's
/// `CollectionEnd` directly follows its own `CollectionBegin`; an
/// incremental cycle's follows its finishing `IncrementalPause`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CycleEvent {
    Begin(u64),
    Pause(u64),
}

/// Sums of the collector's event telemetry, kept by traced runs only.
#[derive(Debug, Default)]
pub struct EventLayers {
    /// Spans raised since the mutator wrapper last adopted them; a
    /// `parent` here indexes into this list. Detached spans (whole
    /// incremental cycles, which outlive the call that started them) stay
    /// roots instead of nesting under the call that ended them.
    pending: Vec<(Span, bool)>,
    open_stw: Option<usize>,
    open_cycle: Option<(u64, u64)>,
    worker_busy: Vec<Duration>,
    pub stw: u64,
    pub abandoned_cycles: u64,
    pub root_scan: Duration,
    pub mark: Duration,
    pub finalize: Duration,
    pub sweep: Duration,
    pub unattributed: Duration,
    pub flagged: Vec<u64>,
    pub objects_freed: u64,
    pub increments: u64,
    pub increment_time: Duration,
    pub lazy_time: Duration,
    pub lazy_blocks: u64,
    pub grow_count: u64,
    pub grow_pages: u64,
    pub blacklist_new: u64,
    pub finalizers_ready: u64,
    pub steals: u64,
    pub worker_max: Duration,
    pub worker_min: Duration,
}

impl EventLayers {
    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, gc_no: u64) -> usize {
        let parent = self.open_stw;
        self.pending.push((
            Span {
                name,
                start_ns,
                end_ns,
                parent,
                gc_no,
            },
            false,
        ));
        self.pending.len() - 1
    }

    /// Adds another run's sums.
    pub fn add(&mut self, o: &EventLayers) {
        self.stw += o.stw;
        self.abandoned_cycles += o.abandoned_cycles;
        self.root_scan += o.root_scan;
        self.mark += o.mark;
        self.finalize += o.finalize;
        self.sweep += o.sweep;
        self.unattributed += o.unattributed;
        self.flagged.extend_from_slice(&o.flagged);
        self.objects_freed += o.objects_freed;
        self.increments += o.increments;
        self.increment_time += o.increment_time;
        self.lazy_time += o.lazy_time;
        self.lazy_blocks += o.lazy_blocks;
        self.grow_count += o.grow_count;
        self.grow_pages += o.grow_pages;
        self.blacklist_new += o.blacklist_new;
        self.finalizers_ready += o.finalizers_ready;
        self.steals += o.steals;
        self.worker_max += o.worker_max;
        self.worker_min += o.worker_min;
    }
}

/// The observer every run installs.
#[derive(Debug)]
pub struct Sink {
    epoch: Instant,
    last: Option<CycleEvent>,
    /// Pause samples in nanoseconds: each stop-the-world `CollectionEnd`
    /// and each `IncrementalPause` — the samples the collector's own
    /// `pause_times` histogram records.
    pub pauses_ns: Vec<u64>,
    /// Largest `HeapGrow.mapped_pages` seen.
    pub peak_grow_pages: u32,
    pub events: Option<EventLayers>,
}

impl Sink {
    fn now(&self) -> u64 {
        ns(self.epoch.elapsed())
    }
}

impl GcObserver for Sink {
    fn on_event(&mut self, event: &GcEvent) {
        let now = self.now();
        match *event {
            GcEvent::CollectionBegin { gc_no, .. } => {
                self.last = Some(CycleEvent::Begin(gc_no));
                if let Some(ev) = &mut self.events {
                    let i = ev.push("collection", now, now, gc_no);
                    ev.open_stw = Some(i);
                }
            }
            GcEvent::IncrementalPause { gc_no, duration } => {
                self.pauses_ns.push(ns(duration));
                let starts_cycle = self.last == Some(CycleEvent::Begin(gc_no));
                self.last = Some(CycleEvent::Pause(gc_no));
                if let Some(ev) = &mut self.events {
                    if starts_cycle {
                        // The Begin just seen opened an incremental cycle,
                        // not a stop-the-world collection.
                        let (span, _) = ev.pending.pop().expect("begin pushed a span");
                        ev.open_stw = None;
                        ev.open_cycle = Some((gc_no, span.start_ns));
                    }
                    ev.increments += 1;
                    ev.increment_time += duration;
                    ev.push("increment", now.saturating_sub(ns(duration)), now, gc_no);
                }
            }
            GcEvent::CollectionEnd {
                gc_no,
                phases,
                duration,
                objects_freed,
                ..
            } => {
                let stw = self.last == Some(CycleEvent::Begin(gc_no));
                if stw {
                    self.pauses_ns.push(ns(duration));
                }
                if let Some(ev) = &mut self.events {
                    ev.root_scan += phases.root_scan;
                    ev.mark += phases.mark;
                    ev.finalize += phases.finalize;
                    ev.sweep += phases.sweep;
                    ev.objects_freed += objects_freed;
                    if stw {
                        ev.stw += 1;
                        let i = ev.open_stw.take().expect("stop-the-world span is open");
                        ev.pending[i].0.end_ns = now;
                        let rest = duration.saturating_sub(phases.total());
                        ev.unattributed += rest;
                        if rest.as_secs_f64() > UNATTRIBUTED_FLAG_SHARE * duration.as_secs_f64() {
                            ev.flagged.push(gc_no);
                        }
                        // A stop-the-world collection abandons an
                        // incremental cycle in progress.
                        if ev.open_cycle.take().is_some() {
                            ev.abandoned_cycles += 1;
                        }
                    } else if let Some((cycle, start)) = ev.open_cycle.take() {
                        ev.pending.push((
                            Span {
                                name: "incremental_cycle",
                                start_ns: start,
                                end_ns: now,
                                parent: None,
                                gc_no: cycle,
                            },
                            true,
                        ));
                    }
                    if let (Some(&max), Some(&min)) =
                        (ev.worker_busy.iter().max(), ev.worker_busy.iter().min())
                    {
                        ev.worker_max += max;
                        ev.worker_min += min;
                    }
                    ev.worker_busy.clear();
                }
            }
            GcEvent::HeapGrow {
                grown_pages,
                mapped_pages,
            } => {
                self.peak_grow_pages = self.peak_grow_pages.max(mapped_pages);
                if let Some(ev) = &mut self.events {
                    ev.grow_count += 1;
                    ev.grow_pages += u64::from(grown_pages);
                }
            }
            GcEvent::BlacklistGrow {
                newly_blacklisted, ..
            } => {
                if let Some(ev) = &mut self.events {
                    ev.blacklist_new += u64::from(newly_blacklisted);
                }
            }
            GcEvent::FinalizersReady { count, .. } => {
                if let Some(ev) = &mut self.events {
                    ev.finalizers_ready += u64::from(count);
                }
            }
            GcEvent::LazySweep {
                blocks_swept,
                duration,
                ..
            } => {
                if let Some(ev) = &mut self.events {
                    ev.lazy_blocks += blocks_swept;
                    ev.lazy_time += duration;
                    ev.push("lazy_sweep", now.saturating_sub(ns(duration)), now, 0);
                }
            }
            GcEvent::MarkWorker {
                gc_no,
                stolen,
                duration,
                ..
            } => {
                if let Some(ev) = &mut self.events {
                    ev.steals += stolen;
                    ev.worker_busy.push(duration);
                    ev.push("mark_worker", now.saturating_sub(ns(duration)), now, gc_no);
                }
            }
            _ => {}
        }
    }
}

/// Deterministic work counters: identical across runs of one seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    pub collections: u64,
    pub increments: u64,
    pub objects_marked: u64,
    pub root_words: u64,
    pub heap_words: u64,
    pub candidates_in_range: u64,
    pub valid_pointers: u64,
    pub false_refs: u64,
    pub objects_freed: u64,
    pub finalizers_ready: u64,
    pub allocs: u64,
    pub stores: u64,
    pub pause_samples: u64,
    pub peak_mapped_pages: u64,
    pub blacklist_pages: u64,
}

impl Work {
    fn add_collection(&mut self, c: &CollectionStats) {
        self.objects_marked += c.objects_marked;
        self.root_words += c.root_words_scanned;
        self.heap_words += c.heap_words_scanned;
        self.candidates_in_range += c.candidates_in_range;
        self.valid_pointers += c.valid_pointers;
        self.false_refs += c.false_refs_near_heap;
        self.objects_freed += c.sweep.objects_freed;
        self.finalizers_ready += u64::from(c.finalizers_ready);
    }

    /// Adds another run's counters: sums, except the two peaks.
    pub fn merge(&mut self, o: &Work) {
        self.collections += o.collections;
        self.increments += o.increments;
        self.objects_marked += o.objects_marked;
        self.root_words += o.root_words;
        self.heap_words += o.heap_words;
        self.candidates_in_range += o.candidates_in_range;
        self.valid_pointers += o.valid_pointers;
        self.false_refs += o.false_refs;
        self.objects_freed += o.objects_freed;
        self.finalizers_ready += o.finalizers_ready;
        self.allocs += o.allocs;
        self.stores += o.stores;
        self.pause_samples += o.pause_samples;
        self.peak_mapped_pages = self.peak_mapped_pages.max(o.peak_mapped_pages);
        self.blacklist_pages = self.blacklist_pages.max(o.blacklist_pages);
    }
}

/// Aggregate cost of one kind of call that did no collection work.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTime {
    pub count: u64,
    pub ns: u64,
}

impl OpTime {
    fn add(&mut self, d: Duration) {
        self.count += 1;
        self.ns += ns(d);
    }

    pub fn merge(&mut self, o: &OpTime) {
        self.count += o.count;
        self.ns += o.ns;
    }

    pub fn ns_per_op(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

/// Per-call timings of a traced run.
#[derive(Debug, Default)]
pub struct Calls {
    pub alloc: OpTime,
    pub alloc_typed: OpTime,
    pub store: OpTime,
    /// Spans of calls that triggered collection work and of what the
    /// collector did inside them.
    pub spans: Vec<Span>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Call {
    Alloc,
    AllocTyped,
    Collect,
    Startup,
}

/// Counters of one collector's run, fed by the observer and the wrapper.
#[derive(Debug)]
pub struct Probe {
    epoch: Instant,
    pub sink: Arc<Mutex<Sink>>,
    pub calls: Option<Calls>,
    pub work: Work,
    /// Pause samples recorded before the timed workload began (the
    /// startup collection's, part of setup).
    setup_pauses: usize,
    /// Mark-phase page-resolve cache hits and misses. Not work counters:
    /// they depend on marking order, which follows hash-map iteration in
    /// the finalization phase.
    pub resolve_hits: u64,
    pub resolve_misses: u64,
    pub attempted: u64,
    pub failed: u64,
    seen_collections: u64,
    seen_increments: u64,
    seen_lazy_blocks: u64,
}

/// How much a run records beyond pause samples.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trace {
    /// Pause samples and the peak mapped-page count only.
    Off,
    /// Also the collector's event telemetry, summed.
    Events,
    /// Also a timing of every call into the collector, and spans.
    Calls,
}

impl Probe {
    /// A probe whose spans are timed from `epoch`.
    pub fn new(epoch: Instant, trace: Trace) -> Probe {
        Probe {
            epoch,
            sink: Arc::new(Mutex::new(Sink {
                epoch,
                last: None,
                pauses_ns: Vec::new(),
                peak_grow_pages: 0,
                events: (trace != Trace::Off).then(EventLayers::default),
            })),
            calls: (trace == Trace::Calls).then(Calls::default),
            work: Work::default(),
            setup_pauses: 0,
            resolve_hits: 0,
            resolve_misses: 0,
            attempted: 0,
            failed: 0,
            seen_collections: 0,
            seen_increments: 0,
            seen_lazy_blocks: 0,
        }
    }

    pub fn sink(&self) -> MutexGuard<'_, Sink> {
        self.sink.lock().expect("observer lock is never poisoned")
    }

    /// Accounts the collections and increments a call ran; returns whether
    /// it did any (a slow path).
    fn settle(&mut self, gc: &Collector) -> bool {
        let s = gc.stats();
        if s.collections == self.seen_collections && s.increments == self.seen_increments {
            return false;
        }
        if s.collections > self.seen_collections {
            let ran = s.collections - self.seen_collections;
            self.check(ran == 1, || {
                format!("one call ran {ran} collections; only the last one's statistics count")
            });
            if let Some(c) = &s.last {
                self.work.add_collection(c);
                self.resolve_hits += c.resolve_hits;
                self.resolve_misses += c.resolve_misses;
            }
            self.seen_collections = s.collections;
        }
        self.seen_increments = s.increments;
        true
    }

    /// Records a traced call to the collector that ran from `t0` to `t1`.
    fn traced(&mut self, call: Call, t0: Instant, t1: Instant, slow: bool, gc: &Collector) {
        let lazy_blocks = gc.heap().lazy_sweep_totals().blocks_swept;
        let lazy = lazy_blocks != self.seen_lazy_blocks;
        self.seen_lazy_blocks = lazy_blocks;
        let epoch = self.epoch;
        let calls = self.calls.as_mut().expect("traced run");
        let explicit = matches!(call, Call::Collect | Call::Startup);
        let parent = if slow || explicit {
            let name = match call {
                Call::Alloc => "alloc_slow",
                Call::AllocTyped => "alloc_typed_slow",
                Call::Collect => "collect",
                Call::Startup => "startup",
            };
            calls.spans.push(Span {
                name,
                start_ns: ns(t0 - epoch),
                end_ns: ns(t1 - epoch),
                parent: None,
                gc_no: 0,
            });
            Some(calls.spans.len() - 1)
        } else {
            match call {
                Call::Alloc => calls.alloc.add(t1 - t0),
                Call::AllocTyped => calls.alloc_typed.add(t1 - t0),
                Call::Collect | Call::Startup => unreachable!("explicit calls get a span"),
            }
            None
        };
        if slow || lazy || explicit {
            let mut sink = self.sink.lock().expect("observer lock is never poisoned");
            let pending = std::mem::take(&mut sink.events.as_mut().expect("traced run").pending);
            // Lazy sweep batches inside fast allocations stay aggregate
            // counters, like the allocations themselves.
            let Some(call_span) = parent else { return };
            let base = calls.spans.len();
            for (span, detached) in pending {
                let parent = match span.parent {
                    Some(i) => Some(base + i),
                    None if detached => None,
                    None => Some(call_span),
                };
                calls.spans.push(Span { parent, ..span });
            }
        }
    }

    /// Counts one checked outcome of the workload's verification.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Marks the start of the timed workload: pauses before it belong to
    /// setup.
    pub fn begin_run(&mut self) {
        let recorded = self.sink().pauses_ns.len();
        self.setup_pauses = recorded;
    }

    /// Ends the measured part of a run: completes the work counters,
    /// checks that the pause samples equal the collector's own
    /// `pause_times` histogram exactly, and takes what the run measured:
    /// the pauses since [`begin_run`](Probe::begin_run). Collections after
    /// this (the workload's verification) are neither traced nor counted.
    pub fn finish(&mut self, gc: &Collector) -> Measured {
        let stats = gc.stats();
        self.work.collections = stats.collections;
        self.work.increments = stats.increments;
        self.work.blacklist_pages = u64::from(gc.blacklist().len());
        let (mut pauses_ns, peak_grow, events) = {
            let mut sink = self.sink();
            let pauses = std::mem::take(&mut sink.pauses_ns);
            (pauses, sink.peak_grow_pages, sink.events.take())
        };
        let (count, sum) = (pauses_ns.len() as u64, pauses_ns.iter().sum::<u64>());
        let h = &stats.pause_times;
        self.check(count == h.count() && sum == h.sum(), || {
            format!(
                "pause samples {count} / {sum} ns differ from pause_times {} / {} ns",
                h.count(),
                h.sum()
            )
        });
        // The heap never unmaps pages, so its final size is its peak;
        // `HeapGrow` events must agree.
        let mapped = gc.heap().mapped_pages();
        self.check(peak_grow <= mapped, || {
            format!("HeapGrow reported {peak_grow} pages, the heap maps {mapped}")
        });
        self.work.peak_mapped_pages = u64::from(mapped);
        pauses_ns.drain(..self.setup_pauses);
        self.work.pause_samples = pauses_ns.len() as u64;
        Measured {
            work: self.work,
            resolve_hits: self.resolve_hits,
            resolve_misses: self.resolve_misses,
            pauses_ns,
            events,
            calls: self.calls.take(),
        }
    }
}

/// What one run measured, up to [`Probe::finish`].
#[derive(Debug)]
pub struct Measured {
    pub work: Work,
    pub resolve_hits: u64,
    pub resolve_misses: u64,
    pub pauses_ns: Vec<u64>,
    pub events: Option<EventLayers>,
    pub calls: Option<Calls>,
}

/// The mutator's handle on the machine: every allocation, store and
/// explicit collection of a workload goes through it.
pub struct Mu<'a> {
    pub m: &'a mut Machine,
    pub probe: &'a mut Probe,
}

impl Mu<'_> {
    /// Runs `f` in a fresh simulated stack frame with `locals` slots.
    pub fn call<R>(&mut self, locals: u32, f: impl FnOnce(&mut Mu<'_>) -> R) -> R {
        let probe = &mut *self.probe;
        self.m.call(locals, |m| f(&mut Mu { m, probe }))
    }

    pub fn alloc(&mut self, bytes: u32, kind: ObjectKind) -> Result<Addr, GcError> {
        self.alloc_with(Call::Alloc, |m| m.alloc(bytes, kind))
    }

    pub fn alloc_typed(&mut self, bytes: u32, desc: DescriptorId) -> Result<Addr, GcError> {
        self.alloc_with(Call::AllocTyped, |m| m.alloc_typed(bytes, desc))
    }

    fn alloc_with(
        &mut self,
        call: Call,
        f: impl FnOnce(&mut Machine) -> Result<Addr, GcError>,
    ) -> Result<Addr, GcError> {
        self.probe.attempted += 1;
        self.probe.work.allocs += 1;
        let result = if self.probe.calls.is_some() {
            let t0 = Instant::now();
            let r = f(self.m);
            let t1 = Instant::now();
            let slow = self.probe.settle(self.m.gc());
            self.probe.traced(call, t0, t1, slow, self.m.gc());
            r
        } else {
            let r = f(self.m);
            self.probe.settle(self.m.gc());
            r
        };
        if let Err(e) = &result {
            self.probe.failed += 1;
            eprintln!("allocation failed: {e}");
        }
        result
    }

    pub fn store(&mut self, addr: Addr, value: u32) {
        self.probe.work.stores += 1;
        match &mut self.probe.calls {
            Some(calls) => {
                let t0 = Instant::now();
                self.m.store(addr, value);
                calls.store.add(t0.elapsed());
            }
            None => self.m.store(addr, value),
        }
    }

    /// An explicit full collection.
    pub fn collect(&mut self) {
        self.explicit(Call::Collect, |m| {
            m.collect();
        });
    }

    /// The startup collection, before the workload allocates.
    pub fn start(&mut self) {
        self.explicit(Call::Startup, |m| m.gc_mut().start());
    }

    fn explicit(&mut self, call: Call, f: impl FnOnce(&mut Machine)) {
        let t0 = Instant::now();
        f(self.m);
        let t1 = Instant::now();
        self.probe.settle(self.m.gc());
        if self.probe.calls.is_some() {
            self.probe.traced(call, t0, t1, true, self.m.gc());
        }
    }
}
