//! The conservative mark phase with blacklisting — figure 2 of the paper.
//!
//! ```text
//! mark(p) {
//!     if p is not a valid object address
//!         if p is in the vicinity of the heap
//!             add p to blacklist
//!         return
//!     if p is marked return
//!     set mark bit for p
//!     for each field q in the object referenced by p
//!         mark(q)
//! }
//! ```
//!
//! The recursion is replaced by an explicit mark stack; "valid object
//! address" is the heap's object map filtered by the configured
//! [`PointerPolicy`](crate::PointerPolicy); "vicinity of the heap" is the
//! current heap address range plus a growth window, since such addresses
//! "could conceivably become valid object addresses as a result of later
//! allocation".

use crate::{Blacklist, GcConfig, RootClass};
use gc_heap::{Heap, MarkBit, MarkHit, ObjRef, ObjectKind, PageResolveCache};
use gc_vmspace::{Addr, AddressSpace, Endian, Segment, SegmentHint, PAGE_BYTES};

/// Counters produced by one mark phase.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MarkOutcome {
    pub root_words: u64,
    pub heap_words: u64,
    pub candidates_in_range: u64,
    pub valid_pointers: u64,
    pub false_refs_near_heap: u64,
    pub objects_marked: u64,
    pub bytes_marked: u64,
    /// Candidate resolutions answered by the page-resolve cache.
    pub resolve_hits: u64,
    /// Cached resolutions that had to walk the page table anyway (cold
    /// entry, conflict eviction, or epoch flush). Both counters stay 0
    /// with the cache disabled.
    pub resolve_misses: u64,
}

impl MarkOutcome {
    /// Adds another outcome's counters into this one (accumulating across
    /// marker instances, increments, or parallel workers).
    pub(crate) fn merge(&mut self, other: MarkOutcome) {
        self.root_words += other.root_words;
        self.heap_words += other.heap_words;
        self.candidates_in_range += other.candidates_in_range;
        self.valid_pointers += other.valid_pointers;
        self.false_refs_near_heap += other.false_refs_near_heap;
        self.objects_marked += other.objects_marked;
        self.bytes_marked += other.bytes_marked;
        self.resolve_hits += other.resolve_hits;
        self.resolve_misses += other.resolve_misses;
    }
}

/// Scans one composite object's fields, feeding each candidate word to
/// `consider`; returns the number of words examined (the caller's
/// `heap_words` contribution).
///
/// This is **the** object-scan kernel: the serial drain, the budgeted
/// incremental drain, the dirty-page rescan, and the parallel workers all
/// route through it, so every scan path agrees on
///
/// * the typed fast path — an object with a registered
///   [`Descriptor`](gc_heap::Descriptor) has only its declared pointer
///   offsets read (the "less conservative" end of the paper's spectrum);
///   its data words can never be misidentified as pointers, on *any* path
///   (dirty-page rescans included). The descriptor is read through the
///   object's block ([`Heap::descriptor_of_obj`]), so an untyped object
///   costs one field test and no page lookup;
/// * the short-object guard — objects under one word (`bytes < 4`) scan
///   zero words, typed or not;
/// * the early stop — descriptor offsets ascend (guaranteed by
///   [`Descriptor::pointer_offsets`](gc_heap::Descriptor::pointer_offsets)),
///   so the first offset past the object's end proves no later one fits.
///
/// `pointer_offsets()` is iterated directly — no per-object collection of
/// offsets — which is possible everywhere because every caller holds the
/// heap by shared reference during marking.
///
/// The object's memory is fetched through the caller's [`SegmentHint`]
/// rather than the address space's shared one-entry cache: each scan loop
/// (the serial marker, every parallel worker) owns a private hint, so
/// concurrent scans cannot evict each other's cached segment.
///
/// Always inlined: a call per scanned object measurably slows the drain
/// loops of Program T, whose objects are one word each.
#[inline(always)]
pub(crate) fn scan_object_fields(
    space: &AddressSpace,
    heap: &Heap,
    endian: Endian,
    stride: usize,
    obj: ObjRef,
    hint: &mut SegmentHint,
    mut consider: impl FnMut(u32),
) -> u64 {
    let bytes = space
        .bytes_at_hinted(obj.base, obj.bytes, hint)
        .expect("live object memory is mapped");
    if bytes.len() < 4 {
        return 0;
    }
    if let Some(desc) = heap.descriptor_of_obj(obj) {
        let mut words = 0u64;
        for off in desc.pointer_offsets() {
            let byte_off = (off as usize) * 4;
            if byte_off + 4 > bytes.len() {
                break;
            }
            words += 1;
            consider(endian.read_u32(&bytes[byte_off..byte_off + 4]));
        }
        return words;
    }
    // The word count is the loop's trip count; computing it up front keeps
    // a counter increment out of the hot scan loop.
    let words = ((bytes.len() - 4) / stride + 1) as u64;
    for off in (0..=bytes.len() - 4).step_by(stride) {
        consider(endian.read_u32(&bytes[off..off + 4]));
    }
    words
}

/// One mark phase over a frozen address space.
///
/// The heap is held by shared reference: marking's only heap write is the
/// mark bit, which the heap's mark kernel ([`Heap::mark_candidate`]) sets
/// with a plain load and store ([`MarkBit::Single`] — exactly equivalent to
/// `&mut` marking while one thread marks, which is always the case here).
/// That is what lets the scan loops borrow descriptors and page iterators
/// straight from the heap with no per-object allocation.
///
/// Every candidate — roots, the drains, dirty-page rescans — goes through
/// [`consider`](Marker::consider), a thin wrapper over the kernel that
/// keeps only the counters and the blacklist.
pub(crate) struct Marker<'a> {
    space: &'a AddressSpace,
    heap: &'a Heap,
    blacklist: &'a mut Blacklist,
    config: &'a GcConfig,
    endian: Endian,
    /// Vicinity of the heap: `[vic_lo, vic_hi)` as 64-bit bounds.
    vic_lo: u64,
    vic_hi: u64,
    stack: Vec<ObjRef>,
    /// Minor mode: old objects are generation boundaries — never marked or
    /// traced; the young reachable set is found from roots plus dirty old
    /// objects.
    minor: bool,
    /// Page-resolve cache ([`GcConfig::resolve_cache`]); `None` = off.
    cache: Option<PageResolveCache>,
    /// The cache's cumulative (hits, misses) when this marker took it: a
    /// cache carried across an incremental cycle's increments arrives warm
    /// and already counted.
    cache_base: (u64, u64),
    /// Private segment hint for object scans (see
    /// [`scan_object_fields`]) — keeps this marker's loops off the
    /// address space's shared lookup cache.
    hint: SegmentHint,
    pub(crate) out: MarkOutcome,
}

impl<'a> Marker<'a> {
    /// The blacklist vicinity is deliberately **asymmetric**: it extends
    /// [`growth_window_pages`](GcConfig::growth_window_pages) *above* the
    /// heap break but not below `lo`. §2 blacklists invalid candidates
    /// that "could conceivably become valid object addresses as a result
    /// of later allocation" — and the heap only ever expands upward
    /// (`next_expansion` starts at `heap_base` and is monotone; released
    /// pages are recycled in place, never mapped below `lo`), so an
    /// address below the heap can never become a valid object address.
    /// Extending the window below would only blacklist pages the
    /// allocator can never use — with the default 8192-page window it
    /// would reach address 0 and blacklist every small integer, inflating
    /// the blacklist without preventing a single false retention. The
    /// dual-heap oracle confirms Table 1 is unchanged either way: `vic_lo`
    /// only gates blacklist insertion, never candidate resolution (see
    /// EXPERIMENTS.md).
    pub(crate) fn new(
        space: &'a AddressSpace,
        heap: &'a Heap,
        blacklist: &'a mut Blacklist,
        config: &'a GcConfig,
    ) -> Self {
        let base = config.heap.heap_base;
        let lo = heap.lo().unwrap_or(base).min(base);
        let hi = u64::from(heap.hi().raw())
            + u64::from(config.growth_window_pages) * u64::from(PAGE_BYTES);
        let endian = space.endian();
        Marker {
            space,
            heap,
            blacklist,
            config,
            endian,
            vic_lo: u64::from(lo.raw()),
            vic_hi: hi.min(1 << 32),
            stack: Vec::new(),
            minor: false,
            cache: config.resolve_cache.then(PageResolveCache::new),
            cache_base: (0, 0),
            hint: SegmentHint::new(),
            out: MarkOutcome::default(),
        }
    }

    /// The phase's counters with this marker's resolve-cache hits and
    /// misses folded in — what the collector should read instead of `out`.
    pub(crate) fn outcome(&self) -> MarkOutcome {
        let mut out = self.out;
        if let Some(cache) = &self.cache {
            out.resolve_hits = cache.hits() - self.cache_base.0;
            out.resolve_misses = cache.misses() - self.cache_base.1;
        }
        out
    }

    /// Resumes with a resolve cache an earlier marker of the same
    /// incremental cycle surrendered ([`take_cache`](Marker::take_cache));
    /// `None` (the cache is off) changes nothing. The cache's epoch check
    /// makes it safe to carry across the mutator's allocations in between.
    pub(crate) fn set_cache(&mut self, cache: Option<PageResolveCache>) {
        if let Some(cache) = cache {
            self.cache_base = (cache.hits(), cache.misses());
            self.cache = Some(cache);
        }
    }

    /// Surrenders the resolve cache (pausing an incremental cycle).
    pub(crate) fn take_cache(&mut self) -> Option<PageResolveCache> {
        self.cache.take()
    }

    /// Switches the marker to minor (young-only) mode.
    pub(crate) fn minor(mut self) -> Self {
        self.minor = true;
        self
    }

    /// The heap-vicinity bounds `[lo, hi)` this marker blacklists within,
    /// for handing to a parallel drain over the same frozen heap.
    pub(crate) fn vicinity(&self) -> (u64, u64) {
        (self.vic_lo, self.vic_hi)
    }

    /// Scans the fields of composite objects on the heap's dirty pages, in
    /// ascending page order. A minor marker scans the old ones: the
    /// generational remembered set. Otherwise it scans the *marked* ones:
    /// the incremental finish's dirty rescan, bdwgc's `GC_push_marked`. An
    /// unmarked object on a dirty page is not known reachable, and
    /// scanning it would retain whatever it points to. Rescanning only
    /// marked ones is enough: every black object written after its scan
    /// lies on a dirty page, and the finish rescans the roots.
    ///
    /// With `drain`, the stack is drained after each page. Without it the
    /// found objects stay on the stack, seeding a parallel drain; both
    /// reach the same fixed point, since every counter totals per object
    /// scan and each scan happens exactly once either way.
    pub(crate) fn scan_dirty_pages(&mut self, drain: bool) {
        let heap = self.heap;
        for page in heap.dirty_pages() {
            for obj in heap.objects_on_page(page) {
                let wanted = if self.minor {
                    heap.is_old(obj)
                } else {
                    heap.is_marked(obj)
                };
                if obj.kind == ObjectKind::Composite && wanted {
                    self.scan(obj);
                }
            }
            if drain {
                self.drain_all();
            }
        }
    }

    /// Scans every root segment and transitively marks the reachable heap.
    pub(crate) fn run(&mut self) {
        let space = self.space;
        for seg in space.roots() {
            self.scan_root_segment(seg);
            self.drain_all();
        }
    }

    /// Scans every root segment without draining: the found objects stay
    /// on the mark stack for budgeted tracing (incremental mode), or for a
    /// separately timed [`drain_all`](Marker::drain_all) (phase telemetry).
    pub(crate) fn run_roots_only(&mut self) {
        let space = self.space;
        for seg in space.roots() {
            self.scan_root_segment(seg);
        }
    }

    /// Drains the mark stack to empty, tracing everything reachable from
    /// the objects currently on it.
    pub(crate) fn drain_all(&mut self) {
        while let Some(obj) = self.stack.pop() {
            self.scan(obj);
        }
    }

    /// Seeds the mark stack (resuming an incremental cycle).
    pub(crate) fn set_stack(&mut self, stack: Vec<ObjRef>) {
        self.stack = stack;
    }

    /// Surrenders the remaining mark stack (pausing an incremental cycle).
    pub(crate) fn take_stack(&mut self) -> Vec<ObjRef> {
        std::mem::take(&mut self.stack)
    }

    /// Traces up to `budget` objects off the mark stack; returns `true`
    /// when the stack is empty (tracing complete).
    pub(crate) fn drain_budget(&mut self, budget: u32) -> bool {
        for _ in 0..budget {
            let Some(obj) = self.stack.pop() else {
                return true;
            };
            self.scan(obj);
        }
        self.stack.is_empty()
    }

    /// Marks the live object containing `addr` and everything reachable
    /// from it (used to resurrect finalizable objects). Not a candidate:
    /// no pointer policy, no resolve cache and no candidate counters.
    pub(crate) fn mark_object(&mut self, addr: Addr) {
        let hit = self
            .heap
            .mark_candidate(addr, None, self.minor, |_| true, MarkBit::Single);
        if let MarkHit::Newly(obj) = hit {
            self.push_marked(obj);
        }
        self.drain_all();
    }

    fn scan_root_segment(&mut self, seg: &'a Segment) {
        let source = RootClass::of_segment(seg.kind());
        let stride = self.config.scan_alignment.stride() as usize;
        // Scan only the effective root range (e.g. the live part of a
        // stack, between sp and the stack top).
        let (lo, end) = seg.scan_range();
        let from = (lo - seg.base()) as usize;
        let to = (end - u64::from(seg.base().raw())) as usize;
        let bytes = &seg.bytes()[from..to];
        // Candidates are read at machine offsets, so start at the first
        // in-range address aligned to the stride.
        let misalign = (lo.raw() % stride as u32) as usize;
        let start = (stride - misalign) % stride;
        if bytes.len() < 4 || start > bytes.len() - 4 {
            return;
        }
        for off in (start..=bytes.len() - 4).step_by(stride) {
            let value = self.endian.read_u32(&bytes[off..off + 4]);
            self.out.root_words += 1;
            self.consider(value, source);
        }
    }

    /// Figure 2's `mark(p)` for a single candidate word: the heap's mark
    /// kernel decides; this wrapper counts and blacklists.
    #[inline]
    fn consider(&mut self, value: u32, source: RootClass) {
        let v = u64::from(value);
        if v < self.vic_lo || v >= self.vic_hi {
            return;
        }
        self.out.candidates_in_range += 1;
        let addr = Addr::new(value);
        let policy = self.config.pointer_policy;
        let accept = |base| policy.accepts(addr, base);
        match self.heap.mark_candidate(
            addr,
            self.cache.as_mut(),
            self.minor,
            accept,
            MarkBit::Single,
        ) {
            MarkHit::Invalid => {
                // p is not a valid object address but is in the vicinity of
                // the heap: blacklist it.
                self.out.false_refs_near_heap += 1;
                if self.config.blacklisting {
                    self.blacklist.note_false_ref(addr.page(), source);
                }
            }
            MarkHit::Valid => self.out.valid_pointers += 1,
            MarkHit::Newly(obj) => {
                self.out.valid_pointers += 1;
                self.push_marked(obj);
            }
        }
    }

    /// Counts an object the kernel newly marked and queues it for scanning.
    fn push_marked(&mut self, obj: ObjRef) {
        self.out.objects_marked += 1;
        self.out.bytes_marked += u64::from(obj.bytes);
        if obj.kind == ObjectKind::Composite {
            self.stack.push(obj);
        }
    }

    /// Scans one marked object's fields, considering each candidate word.
    #[inline]
    fn scan(&mut self, obj: ObjRef) {
        let (space, heap, endian) = (self.space, self.heap, self.endian);
        let stride = self.config.scan_alignment.stride() as usize;
        let mut hint = self.hint;
        let words = scan_object_fields(space, heap, endian, stride, obj, &mut hint, |v| {
            self.consider(v, RootClass::Heap);
        });
        self.hint = hint;
        self.out.heap_words += words;
    }
}
