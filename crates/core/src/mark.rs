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
use gc_heap::{Heap, MarkHit, ObjRef, ObjectKind};
use gc_vmspace::{Addr, AddressSpace, Endian, Segment, PAGE_BYTES};

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
}

impl MarkOutcome {
    /// Adds another outcome's counters into this one (accumulating across
    /// marker instances and increments).
    pub(crate) fn merge(&mut self, other: MarkOutcome) {
        self.root_words += other.root_words;
        self.heap_words += other.heap_words;
        self.candidates_in_range += other.candidates_in_range;
        self.valid_pointers += other.valid_pointers;
        self.false_refs_near_heap += other.false_refs_near_heap;
        self.objects_marked += other.objects_marked;
        self.bytes_marked += other.bytes_marked;
    }
}

/// Scans one composite object's fields, feeding each candidate word to
/// `consider`; returns the number of words examined (the caller's
/// `heap_words` contribution).
///
/// This is **the** object-scan kernel: the drain, the budgeted
/// incremental drain and the dirty-page rescan all route through it, so
/// every scan path agrees on
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
/// * the untyped scan — a candidate at every `1 << stride_shift`-th byte
///   offset (the stride is 1, 2 or 4 bytes), so the word count is a
///   shift and the loop walks it with no division;
/// * the early stop — descriptor offsets ascend (guaranteed by
///   [`Descriptor::pointer_offsets`](gc_heap::Descriptor::pointer_offsets)),
///   so the first offset past the object's end proves no later one fits.
///
/// `pointer_offsets()` is iterated directly — no per-object collection of
/// offsets — which is possible everywhere because every caller holds the
/// heap by shared reference during marking.
///
/// The object's memory is fetched with [`AddressSpace::bytes_at`], whose
/// segment lookup answers a heap object from its most-recently-used entry.
///
/// Always inlined: a call per scanned object measurably slows the drain
/// loops of Program T, whose objects are one word each.
#[inline(always)]
pub(crate) fn scan_object_fields(
    space: &AddressSpace,
    heap: &Heap,
    endian: Endian,
    stride_shift: u32,
    obj: ObjRef,
    mut consider: impl FnMut(u32),
) -> u64 {
    let bytes = space
        .bytes_at(obj.base, obj.bytes)
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
    let words = ((bytes.len() - 4) >> stride_shift) + 1;
    for i in 0..words {
        let off = i << stride_shift;
        consider(endian.read_u32(&bytes[off..off + 4]));
    }
    words as u64
}

/// One mark phase over a frozen address space.
///
/// The heap is held by shared reference: marking's only heap write is the
/// mark bit, which the heap's mark kernel ([`Heap::mark_candidate`]) sets
/// with a plain load and store (exact, since one marker runs at a time).
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
    /// log2 of the scan stride, read once from the configuration.
    stride_shift: u32,
    /// Vicinity of the heap: `[vic_lo, vic_hi)` as 64-bit bounds.
    vic_lo: u64,
    vic_hi: u64,
    stack: Vec<ObjRef>,
    /// Minor mode: old objects are generation boundaries — never marked or
    /// traced; the young reachable set is found from roots plus dirty old
    /// objects.
    minor: bool,
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
            stride_shift: config.scan_alignment.stride().trailing_zeros(),
            vic_lo: u64::from(lo.raw()),
            vic_hi: hi.min(1 << 32),
            stack: Vec::new(),
            minor: false,
            out: MarkOutcome::default(),
        }
    }

    /// Switches the marker to minor (young-only) mode.
    pub(crate) fn minor(mut self) -> Self {
        self.minor = true;
        self
    }

    /// Scans the fields of composite objects on the heap's dirty pages, in
    /// ascending page order. A minor marker scans the old ones: the
    /// generational remembered set. Otherwise it scans the *marked* ones:
    /// the incremental finish's dirty rescan, bdwgc's `GC_push_marked`. An
    /// unmarked object on a dirty page is not known reachable, and
    /// scanning it would retain whatever it points to. Rescanning only
    /// marked ones is enough: every black object written after its scan
    /// lies on a dirty page, and the finish rescans the roots. The stack
    /// is drained after each page.
    pub(crate) fn scan_dirty_pages(&mut self) {
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
            self.drain_all();
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
    /// no pointer policy and no candidate counters.
    pub(crate) fn mark_object(&mut self, addr: Addr) {
        let hit = self.heap.mark_candidate(addr, self.minor, |_| true);
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
        match self.heap.mark_candidate(addr, self.minor, accept) {
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
        let shift = self.stride_shift;
        let words = scan_object_fields(space, heap, endian, shift, obj, |v| {
            self.consider(v, RootClass::Heap);
        });
        self.out.heap_words += words;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_heap::HeapConfig;

    #[test]
    fn scan_reads_the_words_of_a_step_by_reference() {
        const LARGE: u32 = 3 * PAGE_BYTES + 8;
        let endian = Endian::Big;
        let mut space = AddressSpace::new(endian);
        let mut heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x10_0000),
            ..HeapConfig::default()
        });
        let base = heap
            .alloc(&mut space, LARGE, ObjectKind::Composite, &mut |_, _| true)
            .unwrap();
        let fill: Vec<u8> = (0..LARGE).map(|i| (i * 37 % 251) as u8).collect();
        space.write_bytes(base, &fill).unwrap();
        // An untyped object: the shorter extents below scan a prefix of it.
        let whole = heap.object_containing(base).unwrap();
        for stride_shift in 0..=2 {
            let stride = 1 << stride_shift;
            for bytes in (0..=64).chain([LARGE]) {
                let data = &fill[..bytes as usize];
                let want: Vec<u32> = match data.len().checked_sub(4) {
                    Some(last) => (0..=last)
                        .step_by(stride)
                        .map(|off| endian.read_u32(&data[off..off + 4]))
                        .collect(),
                    None => Vec::new(),
                };
                let obj = ObjRef { bytes, ..whole };
                let mut got = Vec::new();
                let words = scan_object_fields(&space, &heap, endian, stride_shift, obj, |v| {
                    got.push(v);
                });
                assert_eq!(got, want, "stride {stride}, {bytes} bytes");
                assert_eq!(words, want.len() as u64, "stride {stride}, {bytes} bytes");
            }
        }
    }
}
