//! The page-level heap: block acquisition, object allocation, sweeping.

use crate::block::SlotFates;
use crate::freelist::FreeList;
use crate::{
    Block, BlockId, BlockShape, FreeListPolicy, HeapError, ObjRef, ObjectKind, SizeClass,
    GRANULE_BYTES,
};
use gc_vmspace::{Addr, AddressSpace, PageIdx, SegmentKind, SegmentSpec, PAGE_BYTES};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The heap's page table: one entry per page of the heap's own span, from
/// `heap_base`'s page up to the heap break, each holding the page's block
/// id, its never-written ("clean") bit and its dirty bit.
///
/// **Invariant:** the heap maps only upward from `heap_base` —
/// `next_expansion` starts there and only grows, and released pages are
/// recycled in place — so every heap page lies in `[first, first + len)`
/// and the table grows only at its end ([`PageTable::extend`]). A
/// lookup outside the span (below the base, at or past the break, or in a
/// foreign segment the growth path jumped over) resolves to "no block"
/// without an entry. Writing a page below the base is a heap bug and
/// fails loudly in debug builds.
///
/// Its size follows the heap's span, 4 bytes a page, not the 4 GiB space.
#[derive(Debug)]
struct PageTable {
    /// Page index of entry 0: `heap_base.page()`.
    first: u32,
    /// Per page: [`PageTable::CLEAN`] | [`PageTable::DIRTY`] | block id
    /// (low 30 bits), with [`PageTable::NONE`] for "no block".
    slots: Vec<u32>,
    /// Number of entries whose dirty bit is set.
    dirty: u32,
}

impl PageTable {
    /// The clean bit: the page has never been written since the address
    /// space mapped (and zero-initialized) it.
    const CLEAN: u32 = 1 << 31;
    /// The dirty bit: the mutator wrote the page since the dirty set was
    /// last cleared ([`Heap::note_write`]).
    const DIRTY: u32 = 1 << 30;
    /// The block-id bits; block ids are bounded by the page count (< 2^20).
    const ID: u32 = Self::DIRTY - 1;
    /// The block-id value for "no block".
    const NONE: u32 = Self::ID;

    fn new(heap_base: Addr) -> Self {
        PageTable {
            first: heap_base.page().raw(),
            slots: Vec::new(),
            dirty: 0,
        }
    }

    /// The entry index of `page`; pages below the base wrap to indices
    /// past any table's end.
    #[inline]
    fn index(&self, page: PageIdx) -> usize {
        page.raw().wrapping_sub(self.first) as usize
    }

    /// The entry of a heap page, for writing.
    fn slot_mut(&mut self, page: PageIdx) -> &mut u32 {
        debug_assert!(
            page.raw() >= self.first,
            "page {page:?} lies below the heap base page {:#x}",
            self.first
        );
        let i = self.index(page);
        &mut self.slots[i]
    }

    #[inline]
    fn get(&self, page: PageIdx) -> Option<BlockId> {
        let v = *self.slots.get(self.index(page))? & Self::ID;
        (v != Self::NONE).then_some(BlockId(v))
    }

    /// Maps `page` to block `id` and clears its clean bit: a block's pages
    /// get written. The dirty bit is kept.
    fn set(&mut self, page: PageIdx, id: BlockId) {
        debug_assert!(id.0 < Self::NONE, "block id {} overflows the table", id.0);
        let v = self.slot_mut(page);
        *v = (*v & Self::DIRTY) | id.0;
    }

    /// Unmaps a released block's page; it was written, so it is not clean.
    /// The dirty bit is kept.
    fn clear(&mut self, page: PageIdx) {
        let v = self.slot_mut(page);
        *v = (*v & Self::DIRTY) | Self::NONE;
    }

    /// Grows the span to the new heap break `end` after the heap mapped
    /// `[mapped, end)`: every new page is block-free, and the freshly
    /// mapped (zero-initialized) ones are clean. Pages between the old
    /// break and `mapped` belong to a foreign segment the growth path
    /// jumped over.
    fn extend(&mut self, mapped: PageIdx, end: PageIdx) {
        debug_assert!(
            self.index(mapped) >= self.slots.len(),
            "the break only rises"
        );
        self.slots.resize(self.index(mapped), Self::NONE);
        self.slots.resize(self.index(end), Self::NONE | Self::CLEAN);
    }

    /// Is every page of `[first, first + n)` still clean?
    fn all_clean(&self, first: PageIdx, n: u32) -> bool {
        let i = self.index(first);
        self.slots[i..i + n as usize]
            .iter()
            .all(|&v| v & Self::CLEAN != 0)
    }
}

/// What [`Heap::mark_candidate`] made of a candidate address.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MarkHit {
    /// Not a valid object address: no live object contains it, or the
    /// pointer policy rejected it.
    Invalid,
    /// A valid object address whose object was already marked, or is an
    /// old-generation boundary of a minor collection.
    Valid,
    /// A valid object address whose object this call marked.
    Newly(ObjRef),
}

/// How a candidate page would be used, passed to placement predicates.
///
/// The collector's blacklist rules differ by use (§3 of the paper): a
/// blacklisted page may still hold small *pointer-free* objects; a large
/// object must not *span* a blacklisted page when interior pointers are
/// honoured, and must not *start* on one otherwise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageUse {
    /// The page would become a small-object block of the given kind.
    SmallBlock(ObjectKind),
    /// The page would hold the first page of a large object.
    LargeFirst(ObjectKind),
    /// The page would hold a non-first page of a large object.
    LargeBody(ObjectKind),
}

/// A placement predicate: may this page be used in this way?
///
/// The collector passes its blacklist here; `true` means the page is usable.
pub type PagePredicate<'a> = &'a mut dyn FnMut(PageIdx, PageUse) -> bool;

/// Configuration of the heap substrate.
#[derive(Clone, Debug)]
pub struct HeapConfig {
    /// Address where the heap begins (like the post-BSS `sbrk` break).
    pub heap_base: Addr,
    /// Hard limit on mapped heap bytes.
    pub max_heap_bytes: u64,
    /// Expansion increment in pages; the paper notes blacklisting losses are
    /// "dominated by the heap expansion increment" (observation 6).
    pub growth_pages: u32,
    /// Free-list ordering policy.
    pub freelist_policy: FreeListPolicy,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 512 << 20,
            growth_pages: 256,
            freelist_policy: FreeListPolicy::AddressOrdered,
        }
    }
}

/// Statistics of one sweep.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepStats {
    /// Bytes reclaimed.
    pub bytes_freed: u64,
    /// Objects reclaimed.
    pub objects_freed: u64,
    /// Whole blocks released back to the page pool.
    pub blocks_released: u32,
    /// Objects that survived (marked, or old during a young-only sweep).
    pub objects_live: u64,
    /// Bytes that survived.
    pub bytes_live: u64,
    /// Young objects promoted to the old generation by this sweep.
    pub objects_promoted: u64,
    /// Bytes promoted.
    pub bytes_promoted: u64,
    /// Small blocks whose sweep was deferred until the allocator reaches
    /// them (lazy sweeping). Always 0 for an eager sweep.
    /// The freed/live/promoted tallies above are exact either way: a lazy
    /// snapshot decides every slot's fate up front and defers only the
    /// mutation work.
    pub blocks_deferred: u32,
}

/// Cumulative accounting of *realized* deferred sweep work: everything the
/// allocator, [`Heap::finish_sweep`], and the explicit-free path have swept
/// since the heap was created.
///
/// The freed/promoted tallies here overlap the per-collection
/// [`SweepStats`]: a lazy snapshot already reported each slot's fate; these
/// totals say when the reclamation work actually ran (and what it yielded),
/// not how much garbage existed. By the time every pending block is swept,
/// `objects_freed`/`bytes_freed` equal the sum of the snapshots' counts.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LazySweepStats {
    /// Pending blocks swept outside a collection pause.
    pub blocks_swept: u64,
    /// Objects reclaimed by deferred sweeps.
    pub objects_freed: u64,
    /// Bytes reclaimed by deferred sweeps.
    pub bytes_freed: u64,
    /// Young survivors tenured by deferred sweeps.
    pub objects_promoted: u64,
    /// Bytes tenured by deferred sweeps.
    pub bytes_promoted: u64,
    /// Wall-clock time spent in deferred sweeping.
    pub sweep_time: Duration,
}

/// Aggregate heap statistics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HeapStats {
    /// Pages currently mapped as heap.
    pub mapped_pages: u32,
    /// Pages mapped but not part of any object block.
    pub free_pages: u32,
    /// Longest run of contiguous free pages.
    pub largest_free_run: u32,
    /// Live object bytes.
    pub bytes_live: u64,
    /// Cumulative bytes ever allocated.
    pub bytes_allocated_total: u64,
    /// Bytes allocated since the last collection.
    pub bytes_since_collect: u64,
    /// Number of live object blocks.
    pub blocks: u32,
}

/// A layout descriptor for *typed* objects: which words may hold pointers.
///
/// The paper's introduction notes that implementations "vary greatly in
/// their degree of conservativism. Some maintain complete information on
/// the location of pointers in the heap, and only scan the stack
/// conservatively" (Scheme→C, Cedar, KCL). A descriptor provides that
/// complete information for one object layout; objects allocated with one
/// are scanned exactly — their non-pointer words can never be
/// misidentified.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Descriptor {
    /// `word_is_pointer[i]` — may word `i` hold a pointer?
    pub word_is_pointer: Vec<bool>,
}

impl Descriptor {
    /// A descriptor with pointers at the given word offsets, `words` long.
    ///
    /// # Panics
    ///
    /// Panics if an offset is out of range.
    pub fn with_pointers_at(words: u32, offsets: &[u32]) -> Descriptor {
        let mut word_is_pointer = vec![false; words as usize];
        for &o in offsets {
            assert!(
                o < words,
                "pointer offset {o} out of range for a {words}-word descriptor"
            );
            word_is_pointer[o as usize] = true;
        }
        Descriptor { word_is_pointer }
    }

    /// The word offsets that may hold pointers, in **strictly ascending**
    /// order — a structural guarantee of the bitmap representation (input
    /// order and duplicates in [`with_pointers_at`](Self::with_pointers_at)
    /// cannot affect it). Scan loops rely on it: once an offset lands past
    /// an object's end, every later offset does too, so they may stop at
    /// the first out-of-range offset without skipping a valid pointer word.
    pub fn pointer_offsets(&self) -> impl Iterator<Item = u32> + '_ {
        self.word_is_pointer
            .iter()
            .enumerate()
            .filter(|(_, &p)| p)
            .map(|(i, _)| i as u32)
    }
}

/// Identifier of a registered [`Descriptor`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct DescriptorId(u32);

/// The page-level heap substrate.
///
/// `Heap` owns all block metadata out-of-band and carves object blocks out
/// of simulated heap pages mapped into an [`AddressSpace`]. It has no
/// marking logic of its own — the collector drives it — but provides the
/// object map ([`Heap::object_containing`]), mark bits, sweeping, and
/// blacklist-aware block placement via [`PagePredicate`]s.
#[derive(Debug)]
pub struct Heap {
    config: HeapConfig,
    /// The block table, indexed by id; `None` marks a released block's
    /// slot, whose id waits in `free_ids`.
    blocks: Vec<Option<Block>>,
    /// Ids of released blocks, reused before the table grows, so its
    /// length (and every whole-table walk: `clear_marks`, the sweeps) is
    /// bounded by the peak live block count, not by every block ever made.
    free_ids: Vec<u32>,
    /// Page → block id and clean bit over the heap's span (see
    /// [`PageTable`]); direct indexing keeps the mark phase's candidate
    /// lookups cheap.
    page_table: PageTable,
    /// Mapped, block-free page runs: first page index → run length, coalesced.
    free_runs: BTreeMap<u32, u32>,
    /// Pages a placement predicate rejected, parked off the free-run path
    /// so repeated searches do not rescan them — the paper's footnote-3
    /// fix ("blacklisted blocks were kept on a list of free pages
    /// indefinitely, increasing the overhead of page-level allocation").
    /// Atomic small-object acquisition may still draw from here
    /// (observation 6); [`Heap::note_collection`] returns the rest to the
    /// free runs, since blacklist entries age.
    quarantined: Vec<u32>,
    /// Atomic-reclaim scan cursor into `quarantined`: every entry below it
    /// was already rejected for atomic small-block use since the last
    /// collection. Sound because the collector's predicate (the blacklist)
    /// only grows between collections — a rejected page stays rejected —
    /// and [`Heap::note_collection`] resets the cursor when the predicate
    /// may relent. Keeps repeated atomic misses from rescanning the whole
    /// list.
    quarantine_scan: usize,
    /// Free lists indexed by `class.index() * 2 + kind`: every small
    /// block with a free slot, pending blocks whose deferred sweep will
    /// leave one included.
    free_lists: Vec<FreeList>,
    /// Pages mapped but in no free run and no block (the free-run total,
    /// maintained incrementally so `stats()` is O(1)).
    free_run_pages: u32,
    /// Multiset of free-run lengths (length → count), kept in lockstep
    /// with `free_runs` so `largest_free_run` is a `last_key_value` away
    /// instead of a full scan.
    run_lengths: BTreeMap<u32, u32>,
    /// Live block count, maintained incrementally.
    block_count: u32,
    next_expansion: Addr,
    /// The most recent heap segment and its end, for contiguous in-place
    /// extension (a multi-page object may span expansion increments, so
    /// contiguous heap memory must live in one segment).
    last_segment: Option<(gc_vmspace::SegmentId, Addr)>,
    heap_lo: Option<Addr>,
    heap_hi: Addr,
    mapped_pages: u32,
    bytes_live: u64,
    bytes_allocated_total: u64,
    bytes_since_collect: u64,
    objects_allocated_total: u64,
    descriptors: Vec<Descriptor>,
    /// Blocks currently awaiting their deferred sweep.
    pending_blocks: u32,
    /// Whether the outstanding snapshot came from a *minor* collection
    /// (old objects survive regardless of marks).
    pending_minor: bool,
    /// Bumped by every lazy snapshot: the mark-bitmap epoch. A block whose
    /// `pending` flag is set holds mark bits from this epoch.
    sweep_epoch: u64,
    /// Realized deferred-sweep work, cumulatively.
    lazy_totals: LazySweepStats,
    /// `allocated` bitmap words read by address-ordered free-list pops,
    /// cumulatively.
    pop_words_scanned: u64,
}

fn fl_index(class: SizeClass, kind: ObjectKind) -> usize {
    class.index() * 2
        + match kind {
            ObjectKind::Composite => 0,
            ObjectKind::Atomic => 1,
        }
}

/// The free-list index of a small block; `None` for a large one.
fn small_index(block: &Block) -> Option<usize> {
    match block.shape {
        BlockShape::Small { class } => Some(fl_index(class, block.kind)),
        BlockShape::Large { .. } => None,
    }
}

/// The heap never maps the top page of the 32-bit space, so every block's
/// one-past-the-end address, and [`Heap::hi`], stay representable.
const HEAP_CEILING: u64 = (1 << 32) - PAGE_BYTES as u64;

impl SweepStats {
    /// Adds one block's slot fates, `obj_bytes` each.
    fn tally(&mut self, fates: SlotFates, obj_bytes: u32) {
        let ob = u64::from(obj_bytes);
        self.objects_live += u64::from(fates.live);
        self.bytes_live += u64::from(fates.live) * ob;
        self.objects_freed += u64::from(fates.freed);
        self.bytes_freed += u64::from(fates.freed) * ob;
        self.objects_promoted += u64::from(fates.promoted);
        self.bytes_promoted += u64::from(fates.promoted) * ob;
    }
}

impl Heap {
    /// Creates an empty heap with the given configuration.
    pub fn new(config: HeapConfig) -> Self {
        let heap_base = config.heap_base.align_up(PAGE_BYTES);
        let free_lists = (0..SizeClass::COUNT * 2)
            .map(|_| FreeList::new(config.freelist_policy))
            .collect();
        Heap {
            next_expansion: heap_base,
            last_segment: None,
            heap_lo: None,
            heap_hi: heap_base,
            config,
            blocks: Vec::new(),
            free_ids: Vec::new(),
            page_table: PageTable::new(heap_base),
            free_runs: BTreeMap::new(),
            quarantined: Vec::new(),
            quarantine_scan: 0,
            free_lists,
            free_run_pages: 0,
            run_lengths: BTreeMap::new(),
            block_count: 0,
            mapped_pages: 0,
            bytes_live: 0,
            bytes_allocated_total: 0,
            bytes_since_collect: 0,
            objects_allocated_total: 0,
            descriptors: Vec::new(),
            pending_blocks: 0,
            pending_minor: false,
            sweep_epoch: 0,
            lazy_totals: LazySweepStats::default(),
            pop_words_scanned: 0,
        }
    }

    /// Registers an object-layout descriptor for typed allocation.
    pub fn register_descriptor(&mut self, descriptor: Descriptor) -> DescriptorId {
        self.descriptors.push(descriptor);
        DescriptorId(self.descriptors.len() as u32 - 1)
    }

    /// The descriptor of a typed object, if `base` is the base of an
    /// allocated slot whose object was allocated typed: a page lookup and
    /// an index into the block's descriptor side table.
    pub fn descriptor_of(&self, base: Addr) -> Option<&Descriptor> {
        let block = self.block(self.page_table.get(base.page())?)?;
        Some(&self.descriptors[block.descriptor_at(base)? as usize])
    }

    /// The descriptor of a live typed object, read through `obj.block`:
    /// the mark phase's object scan, which holds the `ObjRef` already,
    /// does no page lookup and no slot arithmetic.
    #[inline]
    pub fn descriptor_of_obj(&self, obj: ObjRef) -> Option<&Descriptor> {
        let d = self.block(obj.block)?.descriptor_in(obj.index)?;
        Some(&self.descriptors[d as usize])
    }

    /// The heap configuration.
    pub fn config(&self) -> &HeapConfig {
        &self.config
    }

    /// Lowest mapped heap address, if any heap memory exists.
    pub fn lo(&self) -> Option<Addr> {
        self.heap_lo
    }

    /// One past the highest mapped heap address (equals the base before any
    /// expansion).
    pub fn hi(&self) -> Addr {
        self.heap_hi
    }

    /// Returns `true` if `addr` is in the current heap address range
    /// (mapped heap pages, including free runs).
    pub fn in_heap_range(&self, addr: Addr) -> bool {
        match self.heap_lo {
            Some(lo) => addr >= lo && addr < self.heap_hi,
            None => false,
        }
    }

    /// Records a mutator write to `addr` in the dirty-page set (the write
    /// barrier's card table, at page granularity): sets the page's dirty
    /// bit. Writes outside [`in_heap_range`](Heap::in_heap_range) are
    /// ignored. Dirty bits survive a page's block being released and its
    /// reuse, and change no page's block.
    #[inline]
    pub fn note_write(&mut self, addr: Addr) {
        if self.in_heap_range(addr) {
            let table = &mut self.page_table;
            let v = table.slot_mut(addr.page());
            if *v & PageTable::DIRTY == 0 {
                *v |= PageTable::DIRTY;
                table.dirty += 1;
            }
        }
    }

    /// The dirty pages, in ascending order.
    pub fn dirty_pages(&self) -> impl Iterator<Item = PageIdx> + '_ {
        let table = &self.page_table;
        let slots = if table.dirty == 0 {
            &[][..]
        } else {
            &table.slots[..]
        };
        (table.first..)
            .zip(slots)
            .filter(|&(_, &v)| v & PageTable::DIRTY != 0)
            .map(|(page, _)| PageIdx::new(page))
    }

    /// Number of dirty pages.
    pub fn dirty_page_count(&self) -> u32 {
        self.page_table.dirty
    }

    /// Empties the dirty-page set.
    pub fn clear_dirty(&mut self) {
        let table = &mut self.page_table;
        if table.dirty > 0 {
            table.slots.iter_mut().for_each(|v| *v &= !PageTable::DIRTY);
            table.dirty = 0;
        }
    }

    /// Allocates an object of `bytes` bytes and `kind`, placing new blocks
    /// only on pages accepted by `pred`.
    ///
    /// The predicate is consulted *only* when allocation from a new page
    /// begins, exactly as in the paper ("the blacklist is only examined when
    /// allocation from a new page is begun") — free-list hits bypass it.
    ///
    /// The returned object's memory is zeroed.
    ///
    /// Under lazy sweeping, a pending block is swept when its free list
    /// first reaches it, so every object lands where it would after an
    /// eager sweep.
    ///
    /// # Errors
    ///
    /// [`HeapError::ZeroSized`] for `bytes == 0`;
    /// [`HeapError::OutOfMemory`] if no acceptable placement exists within
    /// the configured heap limit.
    pub fn alloc(
        &mut self,
        space: &mut AddressSpace,
        bytes: u32,
        kind: ObjectKind,
        pred: PagePredicate<'_>,
    ) -> Result<Addr, HeapError> {
        self.alloc_with(space, bytes, kind, None, pred)
    }

    /// [`Heap::alloc`] for either layout. With `desc`, the object is
    /// typed: scanned *exactly* via its descriptor instead of
    /// conservatively word-by-word, with object words past the descriptor
    /// treated as non-pointers. Without, the slot's descriptor entry is
    /// reset.
    ///
    /// # Errors
    ///
    /// As [`Heap::alloc`].
    pub fn alloc_with(
        &mut self,
        space: &mut AddressSpace,
        bytes: u32,
        kind: ObjectKind,
        desc: Option<DescriptorId>,
        pred: PagePredicate<'_>,
    ) -> Result<Addr, HeapError> {
        if bytes == 0 {
            return Err(HeapError::ZeroSized);
        }
        let (addr, id, slot) = match SizeClass::for_bytes(bytes) {
            Some(class) => self.alloc_small(space, class, kind, pred),
            None => self.alloc_large(space, bytes, kind, pred),
        }?;
        self.block_mut(id).set_descriptor(slot, desc.map(|d| d.0));
        Ok(addr)
    }

    /// Takes the next free slot of `fli` per the free-list policy. A
    /// pending block is swept when the list first selects it.
    #[inline]
    fn pop_small_slot(&mut self, fli: usize) -> Option<(BlockId, u32)> {
        if let Some(id) = self.free_lists[fli].unstarted_block() {
            if self.block(id).is_some_and(|b| b.pending) {
                self.realize([id]);
            }
        }
        let page_table = &self.page_table;
        self.free_lists[fli].pop(
            &self.blocks,
            |addr| page_table.get(addr.page()),
            &mut self.pop_words_scanned,
        )
    }

    fn alloc_small(
        &mut self,
        space: &mut AddressSpace,
        class: SizeClass,
        kind: ObjectKind,
        pred: PagePredicate<'_>,
    ) -> Result<(Addr, BlockId, u32), HeapError> {
        let fli = fl_index(class, kind);
        if let Some((id, slot)) = self.pop_small_slot(fli) {
            return self.finish_alloc(space, id, slot);
        }
        let mut denied = 0u32;
        // Quarantined (predicate-rejected) pages are still usable by small
        // *atomic* blocks (observation 6's exemption); pointer-containing
        // acquisitions never look at them again — that is the point of the
        // quarantine. The scan resumes past the already-rejected prefix
        // (`quarantine_scan`), so repeated atomic misses are O(new pages),
        // not O(quarantine).
        let reclaimed = if kind == ObjectKind::Atomic {
            let start = self.quarantine_scan.min(self.quarantined.len());
            let hit = self.quarantined[start..]
                .iter()
                .position(|&p| pred(PageIdx::new(p), PageUse::SmallBlock(kind)))
                .map(|i| start + i);
            // Everything scanned before the hit (or the whole tail) was
            // rejected; the accepted entry is replaced by the unscanned
            // last element, so the rejected prefix ends at the hit index.
            self.quarantine_scan = hit.unwrap_or(self.quarantined.len());
            denied += (self.quarantine_scan - start) as u32;
            hit
        } else {
            None
        };
        let page = if let Some(i) = reclaimed {
            PageIdx::new(self.quarantined.swap_remove(i))
        } else {
            self.take_one_page(
                space,
                &mut |p| pred(p, PageUse::SmallBlock(kind)),
                &mut denied,
            )?
            .ok_or(HeapError::OutOfMemory {
                requested: class.bytes(),
                pages_denied: denied,
            })?
        };
        // A recycled page is cleared whole, once, so that no slot of the
        // new block pays for its own fill.
        if !self.page_table.all_clean(page, 1) {
            space.fill(page.base(), PAGE_BYTES, 0)?;
        }
        let id = self.new_block_id();
        let mut block = Block::new_small(id, page.base(), class, kind);
        block.zeroed = true;
        self.page_table.set(page, id);
        self.install_block(block);
        let allocated = self.finish_alloc(space, id, 0)?;
        let block = self.blocks[id.0 as usize].as_ref().expect("block is live");
        self.free_lists[fli].add(block, None);
        Ok(allocated)
    }

    fn alloc_large(
        &mut self,
        space: &mut AddressSpace,
        bytes: u32,
        kind: ObjectKind,
        pred: PagePredicate<'_>,
    ) -> Result<(Addr, BlockId, u32), HeapError> {
        // Sizes within a granule of 2^32 do not round to a granule; no
        // placement could hold them anyway.
        let Some(obj_bytes) = bytes.checked_next_multiple_of(GRANULE_BYTES) else {
            return Err(HeapError::OutOfMemory {
                requested: bytes,
                pages_denied: 0,
            });
        };
        let npages = obj_bytes.div_ceil(PAGE_BYTES);
        let mut denied = 0u32;
        let mut check = |p: PageIdx, first: bool| {
            let use_ = if first {
                PageUse::LargeFirst(kind)
            } else {
                PageUse::LargeBody(kind)
            };
            pred(p, use_)
        };
        let first_page = self
            .take_pages(space, npages, &mut check, &mut denied)?
            .ok_or(HeapError::OutOfMemory {
                requested: bytes,
                pages_denied: denied,
            })?;
        let id = self.new_block_id();
        let mut block = Block::new_large(id, first_page.base(), obj_bytes, kind);
        block.zeroed = self.page_table.all_clean(first_page, npages);
        for i in 0..npages {
            self.page_table.set(PageIdx::new(first_page.raw() + i), id);
        }
        self.install_block(block);
        self.finish_alloc(space, id, 0)
    }

    /// The id for a block about to be created: a released block's id when
    /// one is free, else a new table slot. The caller must
    /// [`install_block`](Self::install_block) under it.
    fn new_block_id(&mut self) -> BlockId {
        BlockId(self.free_ids.pop().unwrap_or_else(|| {
            self.blocks.push(None);
            self.blocks.len() as u32 - 1
        }))
    }

    fn install_block(&mut self, block: Block) {
        let slot = &mut self.blocks[block.id.0 as usize];
        debug_assert!(slot.is_none(), "block id installed twice");
        *slot = Some(block);
        self.block_count += 1;
    }

    /// Books one allocated slot. Slots at or above the block's never-used
    /// watermark on zeroed blocks skip the zero fill: the mapping, or the
    /// page clear when a small block was carved, already zeroed them.
    fn finish_alloc(
        &mut self,
        space: &mut AddressSpace,
        id: BlockId,
        slot: u32,
    ) -> Result<(Addr, BlockId, u32), HeapError> {
        let b = self.block_mut(id);
        b.allocated.set(slot);
        // Fresh objects are born young, whatever the slot's previous
        // occupant was.
        b.old.clear(slot);
        let fresh = b.zeroed && slot >= b.bump;
        b.bump = b.bump.max(slot + 1);
        let (addr, obj_bytes) = (b.slot_base(slot), b.obj_bytes());
        if !fresh {
            space.fill(addr, obj_bytes, 0)?;
        }
        self.bytes_live += u64::from(obj_bytes);
        self.bytes_allocated_total += u64::from(obj_bytes);
        self.bytes_since_collect += u64::from(obj_bytes);
        self.objects_allocated_total += 1;
        Ok((addr, id, slot))
    }

    /// Takes one acceptable page, parking rejected pages in the quarantine
    /// so they are never rescanned on this path (the footnote-3 fix).
    fn take_one_page(
        &mut self,
        space: &mut AddressSpace,
        accept: &mut dyn FnMut(PageIdx) -> bool,
        denied: &mut u32,
    ) -> Result<Option<PageIdx>, HeapError> {
        loop {
            let Some((&run_start, _)) = self.free_runs.iter().next() else {
                if !self.expand(space, 1)? {
                    return Ok(None);
                }
                continue;
            };
            let page = PageIdx::new(run_start);
            self.carve_run(page, 1);
            if accept(page) {
                return Ok(Some(page));
            }
            *denied += 1;
            self.quarantined.push(page.raw());
        }
    }

    /// Finds `npages` contiguous acceptable pages among free runs, expanding
    /// the heap as needed. Returns `Ok(None)` when the heap limit is
    /// exhausted without an acceptable window.
    fn take_pages(
        &mut self,
        space: &mut AddressSpace,
        npages: u32,
        accept: &mut dyn FnMut(PageIdx, bool) -> bool,
        denied: &mut u32,
    ) -> Result<Option<PageIdx>, HeapError> {
        loop {
            if let Some(first) = self.search_free_runs(npages, accept, denied) {
                self.carve_run(first, npages);
                return Ok(Some(first));
            }
            if !self.expand(space, npages)? {
                return Ok(None);
            }
        }
    }

    /// Scans the free runs for an acceptable window of `npages`.
    fn search_free_runs(
        &self,
        npages: u32,
        accept: &mut dyn FnMut(PageIdx, bool) -> bool,
        denied: &mut u32,
    ) -> Option<PageIdx> {
        for (&run_start, &run_len) in &self.free_runs {
            if run_len < npages {
                continue;
            }
            let mut start = run_start;
            'window: while start + npages <= run_start + run_len {
                for i in 0..npages {
                    if !accept(PageIdx::new(start + i), i == 0) {
                        *denied += 1;
                        // Restart the window past the rejected page.
                        start += i + 1;
                        continue 'window;
                    }
                }
                return Some(PageIdx::new(start));
            }
        }
        None
    }

    /// Inserts a free run, keeping the page total and length multiset (the
    /// O(1)-stats counters) in lockstep with the run map.
    fn runs_insert(&mut self, start: u32, len: u32) {
        self.free_runs.insert(start, len);
        self.free_run_pages += len;
        *self.run_lengths.entry(len).or_insert(0) += 1;
    }

    /// Removes the free run starting at `start`, returning its length.
    fn runs_remove(&mut self, start: u32) -> u32 {
        let len = self.free_runs.remove(&start).expect("removed run exists");
        self.free_run_pages -= len;
        match self.run_lengths.get_mut(&len) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.run_lengths.remove(&len);
            }
        }
        len
    }

    /// Removes `[first, first+npages)` from the free runs.
    fn carve_run(&mut self, first: PageIdx, npages: u32) {
        let (&run_start, &run_len) = self
            .free_runs
            .range(..=first.raw())
            .next_back()
            .expect("carved window lies in a free run");
        assert!(
            run_start <= first.raw() && first.raw() + npages <= run_start + run_len,
            "carved window exceeds its free run"
        );
        self.runs_remove(run_start);
        if run_start < first.raw() {
            self.runs_insert(run_start, first.raw() - run_start);
        }
        let tail_start = first.raw() + npages;
        if tail_start < run_start + run_len {
            self.runs_insert(tail_start, run_start + run_len - tail_start);
        }
    }

    /// Returns pages to the free-run pool, coalescing with neighbours.
    fn release_pages(&mut self, first: PageIdx, npages: u32) {
        let mut start = first.raw();
        let mut len = npages;
        if let Some((&prev_start, &prev_len)) = self.free_runs.range(..start).next_back() {
            if prev_start + prev_len == start {
                self.runs_remove(prev_start);
                start = prev_start;
                len += prev_len;
            }
        }
        if let Some(&next_len) = self.free_runs.get(&(first.raw() + npages)) {
            self.runs_remove(first.raw() + npages);
            len += next_len;
        }
        self.runs_insert(start, len);
    }

    /// Maps one more expansion increment of heap pages, clamped to the
    /// heap limit and to the space left below [`HEAP_CEILING`]. Returns
    /// `false` when fewer than `min_pages` pages can be mapped.
    fn expand(&mut self, space: &mut AddressSpace, min_pages: u32) -> Result<bool, HeapError> {
        let limit_pages =
            (self.config.max_heap_bytes / u64::from(PAGE_BYTES)).min(u64::from(u32::MAX)) as u32;
        // Find a gap: skip over any foreign segments sitting in the way.
        let mut base = self.next_expansion.align_up(PAGE_BYTES);
        let want = loop {
            let room = HEAP_CEILING.saturating_sub(u64::from(base.raw())) / u64::from(PAGE_BYTES);
            let want = min_pages
                .max(self.config.growth_pages)
                .min(limit_pages.saturating_sub(self.mapped_pages))
                .min(room as u32);
            if want < min_pages {
                return Ok(false);
            }
            let len = want * PAGE_BYTES;
            // Contiguous growth extends the previous heap segment in place,
            // so objects may span expansion increments.
            if let Some((seg, end)) = self.last_segment {
                if end == base {
                    match space.extend(seg, len) {
                        Ok(()) => {
                            self.last_segment = Some((seg, base + len));
                            break want;
                        }
                        Err(gc_vmspace::VmError::Overlap { .. }) => {
                            // A foreign segment moved in right behind the
                            // heap; fall through to the mapping path.
                        }
                        Err(e) => return Err(e.into()),
                    }
                }
            }
            match space.map(SegmentSpec::new("heap", SegmentKind::Heap, base, len)) {
                Ok(seg) => {
                    self.last_segment = Some((seg, base + len));
                    break want;
                }
                Err(gc_vmspace::VmError::Overlap { .. }) => {
                    // Jump past whichever segment occupies some page in the
                    // window, then retry. Fall back to one page if the
                    // occupant sits between our page-granular probes. A
                    // segment may end at 2^32, so clamp to the ceiling.
                    let occupant_end = (0..want)
                        .find_map(|i| space.find(base + i * PAGE_BYTES))
                        .map_or(0, |seg| seg.end().min(HEAP_CEILING) as u32);
                    base = Addr::new(occupant_end)
                        .align_up(PAGE_BYTES)
                        .max(base + PAGE_BYTES);
                }
                Err(e) => return Err(e.into()),
            }
        };
        let end = base + want * PAGE_BYTES;
        // `map`/`extend` zero-initialize, so the new pages start clean:
        // the first block carved from them may skip per-allocation fills.
        self.page_table.extend(base.page(), end.page());
        self.release_pages(base.page(), want);
        self.mapped_pages += want;
        self.heap_lo = Some(self.heap_lo.map_or(base, |lo| lo.min(base)));
        self.heap_hi = self.heap_hi.max(end);
        self.next_expansion = end;
        Ok(true)
    }

    fn block_mut(&mut self, id: BlockId) -> &mut Block {
        self.blocks[id.0 as usize].as_mut().expect("block is live")
    }

    /// The live block with the given id, if any.
    #[inline]
    pub fn block(&self, id: BlockId) -> Option<&Block> {
        self.blocks.get(id.0 as usize)?.as_ref()
    }

    fn slot_of(&self, addr: Addr) -> Option<(&Block, u32)> {
        let id = self.page_table.get(addr.page())?;
        let block = self.block(id)?;
        let slot = block.slot_containing(addr)?;
        Some((block, slot))
    }

    /// Decides a slot's liveness, honouring any outstanding lazy-sweep
    /// snapshot: a pending block's unmarked (and, outside minor snapshots,
    /// unmarked-or-young) slots are already condemned — the deferred sweep
    /// only realizes the decision. This keeps lazy sweeping transparent:
    /// every liveness view agrees with what an eager sweep would have left.
    #[inline(always)]
    fn slot_live(&self, block: &Block, slot: u32) -> bool {
        block.allocated.get(slot)
            && (!block.pending
                || block.marked.get(slot)
                || (self.pending_minor && block.old.get(slot)))
    }

    /// The live slot containing `addr` in block `id`, the block of
    /// `addr`'s page.
    #[inline(always)]
    fn live_slot(&self, id: Option<BlockId>, addr: Addr) -> Option<(&Block, u32)> {
        let block = self.block(id?)?;
        let slot = block.slot_containing(addr)?;
        self.slot_live(block, slot).then_some((block, slot))
    }

    /// Resolves an address to the live object whose extent contains it.
    ///
    /// This is the collector's "valid object address" test (fig. 2): any
    /// interior address resolves; the caller applies its interior-pointer
    /// policy using [`ObjRef::base`].
    pub fn object_containing(&self, addr: Addr) -> Option<ObjRef> {
        let (block, slot) = self.live_slot(self.page_table.get(addr.page()), addr)?;
        Some(block.obj_ref(slot))
    }

    /// Figure 2's `mark(p)` for one candidate address, through a single
    /// borrow of its block: page → block from the page table, the live
    /// slot as [`object_containing`](Self::object_containing) finds it, the
    /// caller's pointer policy `accept(base)`, the minor-mode boundary, and
    /// the mark bit's test-and-set. In minor mode an old object (or any
    /// survivor of a pending block, which the deferred sweep will tenure)
    /// is valid but never marked.
    ///
    /// The mark bit is set through `&self` with a plain load and store,
    /// which is exact because one marker runs at a time; the shared borrow
    /// lets the mark loops hold descriptors borrowed from the heap.
    #[inline]
    pub fn mark_candidate(
        &self,
        addr: Addr,
        minor: bool,
        accept: impl FnOnce(Addr) -> bool,
    ) -> MarkHit {
        let live = self.live_slot(self.page_table.get(addr.page()), addr);
        let Some((block, slot)) = live.filter(|&(b, slot)| accept(b.slot_base(slot))) else {
            return MarkHit::Invalid;
        };
        if minor && (block.pending || block.old.get(slot)) {
            return MarkHit::Valid;
        }
        if block.marked.set_relaxed(slot) {
            MarkHit::Newly(block.obj_ref(slot))
        } else {
            MarkHit::Valid
        }
    }

    /// Returns `true` if `addr` is the base address of a live object.
    pub fn is_object_base(&self, addr: Addr) -> bool {
        self.object_containing(addr).is_some_and(|o| o.base == addr)
    }

    /// Returns the mark bit of an object.
    pub fn is_marked(&self, obj: ObjRef) -> bool {
        self.block(obj.block)
            .is_some_and(|b| b.is_marked(obj.index))
    }

    /// Sets the mark bit of an object. Returns `true` if it was newly set.
    pub fn set_marked(&mut self, obj: ObjRef) -> bool {
        let block = self.block_mut(obj.block);
        if block.marked.get(obj.index) {
            false
        } else {
            block.marked.set(obj.index);
            true
        }
    }

    /// Clears every mark bit (start of a collection).
    ///
    /// Realizes any outstanding lazy-sweep snapshot first: pending blocks'
    /// reclamation decisions live in their mark bits, so wiping the bits
    /// without sweeping would resurrect condemned objects. (The collector
    /// drains pending blocks before starting a cycle anyway — this keeps
    /// the invariant even for direct heap users.)
    pub fn clear_marks(&mut self) {
        self.finish_sweep();
        for block in self.blocks.iter_mut().flatten() {
            block.marked.clear_all();
        }
    }

    /// Sweeps every block now, reclaiming every allocated-but-unmarked
    /// object, tenuring every survivor, rebuilding the object free lists
    /// and releasing fully empty blocks.
    ///
    /// After a *minor* (young-only) collection, old objects are retained
    /// regardless of mark bits, unmarked young objects are reclaimed, and
    /// marked young objects are promoted (sticky mark bits, as in the PCR
    /// generational collector the paper builds on).
    ///
    /// An eager sweep supersedes any outstanding lazy snapshot: it visits
    /// every block with the same (fresh) mark bits the deferred sweeps
    /// would have used.
    pub fn sweep(&mut self, minor: bool) -> SweepStats {
        self.sweep_blocks(minor, false)
    }

    /// Lazy counterpart of [`Heap::sweep`]: decides every slot's fate
    /// against the current mark bits (so all counts in the returned stats
    /// are exact and `bytes_live` is re-based, exactly as after an eager
    /// sweep) but defers each small block's per-slot work — bit clearing
    /// and tenuring — until the allocator reaches the block in its
    /// address-ordered free list, [`Heap::finish_sweep`] runs, or an
    /// explicit free touches it.
    ///
    /// The free lists are rebuilt as an eager sweep rebuilds them, pending
    /// blocks included, so every allocation takes the slot it would take
    /// after [`Heap::sweep`]. Blocks with no survivor are released now, as
    /// the eager sweep and bdwgc's reclaim start do. Large blocks, and
    /// every block under the LIFO policy (whose list holds slots, which
    /// exist only once the sweep is applied), are swept now.
    ///
    /// The caller (the collector) must complete any previous snapshot
    /// *before* clearing mark bits for the next cycle — pending blocks'
    /// reclamation decisions live in those bits.
    pub fn sweep_lazy(&mut self, minor: bool) -> SweepStats {
        self.sweep_blocks(minor, true)
    }

    /// The one sweep loop: decides every block's fate, applies it now
    /// (`sweep_apply`) or, with `defer`, only counts it (`sweep_census`)
    /// and marks the block pending, releases blocks with no survivor, and
    /// offers every small block that will have a free slot to its free
    /// list.
    fn sweep_blocks(&mut self, minor: bool, defer: bool) -> SweepStats {
        let policy = self.config.freelist_policy;
        let defer = defer && policy == FreeListPolicy::AddressOrdered;
        for fl in &mut self.free_lists {
            *fl = FreeList::new(policy);
        }
        self.pending_blocks = 0;
        self.pending_minor = minor;
        self.sweep_epoch += u64::from(defer);
        let mut stats = SweepStats::default();
        let mut released: Vec<BlockId> = Vec::new();
        for block in self.blocks.iter_mut().flatten() {
            let fli = small_index(block);
            block.pending = defer && fli.is_some();
            let fates = if block.pending {
                block.sweep_census(minor)
            } else {
                block.sweep_apply(minor)
            };
            stats.tally(fates, block.obj_bytes());
            if fates.live == 0 {
                released.push(block.id);
                continue;
            }
            self.pending_blocks += u32::from(block.pending);
            if let Some(fli) = fli.filter(|_| fates.live < block.slots()) {
                self.free_lists[fli].add(block, None);
            }
        }
        for id in released {
            self.release_block(id);
            stats.blocks_released += 1;
        }
        stats.blocks_deferred = self.pending_blocks;
        self.bytes_live = stats.bytes_live;
        stats
    }

    /// Applies the deferred sweep of the pending blocks `ids`: frees
    /// condemned slots and tenures survivors. Each block keeps a survivor
    /// (the snapshot released every block with none) and stays listed in
    /// its free list exactly when the snapshot listed it, since the slots
    /// it frees are the ones the snapshot counted. Returns the number of
    /// blocks swept.
    fn realize(&mut self, ids: impl IntoIterator<Item = BlockId>) -> u32 {
        let t0 = Instant::now();
        let mut swept = 0;
        let totals = &mut self.lazy_totals;
        for id in ids {
            let block = self.blocks[id.0 as usize]
                .as_mut()
                .expect("pending block is live");
            debug_assert!(block.pending, "only pending blocks are realized");
            block.pending = false;
            let fates = block.sweep_apply(self.pending_minor);
            debug_assert!(fates.live > 0, "the snapshot released empty blocks");
            // `bytes_live` was already re-based by the snapshot; only the
            // realized-work totals move here.
            let ob = u64::from(block.obj_bytes());
            totals.objects_freed += u64::from(fates.freed);
            totals.bytes_freed += u64::from(fates.freed) * ob;
            totals.objects_promoted += u64::from(fates.promoted);
            totals.bytes_promoted += u64::from(fates.promoted) * ob;
            swept += 1;
        }
        self.pending_blocks -= swept;
        totals.blocks_swept += u64::from(swept);
        totals.sweep_time += t0.elapsed();
        swept
    }

    /// Completes any outstanding lazy-sweep snapshot, sweeping every
    /// pending block now. Returns the number of blocks swept by this call.
    ///
    /// The escape hatch for code that needs the post-sweep heap in full —
    /// exact page/block accounting before a census or dump, and the
    /// collector before it clears mark bits for the next cycle. A no-op
    /// (returning 0) when nothing is pending, so callers need not check.
    pub fn finish_sweep(&mut self) -> u32 {
        if self.pending_blocks == 0 {
            return 0;
        }
        let ids: Vec<BlockId> = self.blocks().filter(|b| b.pending).map(|b| b.id).collect();
        let swept = self.realize(ids);
        debug_assert_eq!(self.pending_blocks, 0, "every pending block swept");
        swept
    }

    /// Blocks currently awaiting their deferred sweep (0 outside lazy mode
    /// or once the allocator has caught up).
    pub fn pending_sweep_blocks(&self) -> u32 {
        self.pending_blocks
    }

    /// The mark-bitmap epoch: how many lazy snapshots this heap has taken.
    /// Pending blocks hold mark bits from the current epoch.
    pub fn sweep_epoch(&self) -> u64 {
        self.sweep_epoch
    }

    /// Cumulative realized deferred-sweep work; see [`LazySweepStats`].
    pub fn lazy_sweep_totals(&self) -> LazySweepStats {
        self.lazy_totals
    }

    /// `allocated` bitmap words read by address-ordered free-list pops
    /// since the heap was created: one per pop, plus one per bitmap word
    /// a pop leaves full. LIFO pops read none.
    pub fn pop_words_scanned(&self) -> u64 {
        self.pop_words_scanned
    }

    /// The live objects whose block owns `page` (the card-scanning helper
    /// for generational mode: a dirty page's old composite objects must be
    /// rescanned at a minor collection).
    /// Allocation-free: yields objects straight off the block's bitmaps,
    /// so per-page scans (dirty-card rescans run one per dirty page, every
    /// minor collection) build no intermediate `Vec`.
    pub fn objects_on_page(&self, page: PageIdx) -> impl Iterator<Item = ObjRef> + '_ {
        self.page_table
            .get(page)
            .and_then(|id| self.block(id))
            .into_iter()
            .flat_map(move |block| {
                block
                    .allocated
                    .iter_ones()
                    .filter(|&slot| self.slot_live(block, slot))
                    .map(|slot| block.obj_ref(slot))
            })
    }

    /// Is the object in the old generation?
    ///
    /// Survivors on pending (lazily unswept) blocks count as old: every
    /// sweep survivor is tenured, so the deferred sweep will make it so.
    pub fn is_old(&self, obj: ObjRef) -> bool {
        self.block(obj.block)
            .is_some_and(|b| b.is_old(obj.index) || b.pending)
    }

    /// Counts (young, old) live objects — a full pass, for diagnostics.
    ///
    /// Pending (lazily unswept) blocks report their survivors as old: every
    /// sweep survivor is tenured, so the deferred sweep will leave exactly
    /// that census behind.
    pub fn generation_census(&self) -> (u64, u64) {
        let mut young = 0;
        let mut old = 0;
        for block in self.blocks() {
            for slot in block.allocated.iter_ones() {
                if !self.slot_live(block, slot) {
                    continue;
                }
                if block.pending || block.old.get(slot) {
                    old += 1;
                } else {
                    young += 1;
                }
            }
        }
        (young, old)
    }

    /// Releases a block and frees its id for the next block created.
    ///
    /// Reusing the id is safe for the one holder of block ids outside the
    /// heap, [`ObjRef`]s on a collector's mark stack: blocks are released
    /// only by sweeps and explicit frees, and the collector runs neither
    /// while a mark stack holds references — it completes any deferred
    /// sweep before a cycle starts, and allocation during an incremental
    /// cycle finds nothing pending to sweep. The released pages themselves
    /// resolve to no block, since the page table is the only page → block
    /// map.
    fn release_block(&mut self, id: BlockId) {
        let block = self.blocks[id.0 as usize]
            .take()
            .expect("released block is live");
        self.free_ids.push(id.0);
        self.block_count -= 1;
        for i in 0..block.npages() {
            self.page_table
                .clear(PageIdx::new(block.base().page().raw() + i));
        }
        // Withdraw the block's free slots (explicit-free path; the sweep
        // path rebuilt the lists already).
        if let Some(fli) = small_index(&block) {
            self.free_lists[fli].remove(&block);
        }
        self.release_pages(block.base().page(), block.npages());
    }

    /// Explicitly frees the object based at `addr` (the `malloc/free`
    /// baseline path; a garbage-collected program calls [`Heap::sweep`]
    /// instead).
    ///
    /// # Errors
    ///
    /// [`HeapError::NotAnObject`] if `addr` is not an object base;
    /// [`HeapError::DoubleFree`] if the slot is already free.
    pub fn free_object(&mut self, addr: Addr) -> Result<(), HeapError> {
        // A pending block must realize its deferred sweep first: the
        // slot's fate was decided at the snapshot, and explicit free is
        // defined against the post-sweep state (freeing an object the
        // collector already condemned reports `NotAnObject`).
        if let Some((b, _)) = self.slot_of(addr) {
            if b.pending {
                self.realize([b.id()]);
            }
        }
        let (block, slot) = match self.slot_of(addr) {
            Some((b, s)) if b.slot_base(s) == addr => (b.id(), s),
            _ => return Err(HeapError::NotAnObject { addr }),
        };
        let b = self.blocks[block.0 as usize]
            .as_mut()
            .expect("block is live");
        if !b.allocated.get(slot) {
            return Err(HeapError::DoubleFree { addr });
        }
        b.allocated.clear(slot);
        b.marked.clear(slot);
        self.bytes_live -= u64::from(b.obj_bytes());
        if b.is_unused() {
            self.release_block(block);
        } else if let Some(fli) = small_index(b) {
            self.free_lists[fli].add(b, Some(slot));
        }
        Ok(())
    }

    /// Iterates over live blocks in id order. Ids are recycled, so this is
    /// neither creation nor address order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> + '_ {
        self.blocks.iter().flatten()
    }

    /// Iterates over all live objects.
    pub fn live_objects(&self) -> impl Iterator<Item = ObjRef> + '_ {
        self.blocks().flat_map(move |b| {
            b.allocated
                .iter_ones()
                .filter(move |&slot| self.slot_live(b, slot))
                .map(move |slot| b.obj_ref(slot))
        })
    }

    /// Live objects in one block, honouring any pending lazy-sweep
    /// snapshot (a pending block's allocation bits still include condemned
    /// objects; this counts only the survivors).
    pub fn live_objects_in(&self, block: &Block) -> u32 {
        if !block.pending {
            return block.live_objects();
        }
        block.sweep_census(self.pending_minor).live
    }

    /// Marks the start of a collection cycle for allocation-rate
    /// accounting, and returns quarantined pages to the free runs (their
    /// blacklist entries may have aged out; they will be re-quarantined on
    /// the next denial otherwise).
    pub fn note_collection(&mut self) {
        self.bytes_since_collect = 0;
        for page in std::mem::take(&mut self.quarantined) {
            self.release_pages(PageIdx::new(page), 1);
        }
        // The placement predicate (the blacklist) may relent now; the
        // rejected-prefix cursor is only sound within one collection epoch.
        self.quarantine_scan = 0;
    }

    /// Pages currently parked in the quarantine.
    pub fn quarantined_pages(&self) -> u32 {
        self.quarantined.len() as u32
    }

    /// Aggregate statistics. Constant-time: every field is maintained
    /// incrementally (the free-run total and length multiset move on
    /// carve/coalesce, the block count on block creation/release), so the
    /// allocation hot path may consult this without walking runs or
    /// blocks. [`Heap::recomputed_stats`] is the from-scratch cross-check.
    pub fn stats(&self) -> HeapStats {
        HeapStats {
            mapped_pages: self.mapped_pages,
            free_pages: self.free_run_pages + self.quarantined.len() as u32,
            largest_free_run: self.run_lengths.last_key_value().map_or(0, |(&len, _)| len),
            bytes_live: self.bytes_live,
            bytes_allocated_total: self.bytes_allocated_total,
            bytes_since_collect: self.bytes_since_collect,
            blocks: self.block_count,
        }
    }

    /// Pages currently mapped as heap — the narrow O(1) accessor for the
    /// allocation hot path's growth check.
    pub fn mapped_pages(&self) -> u32 {
        self.mapped_pages
    }

    /// Pages the page table covers: the span from the heap base to
    /// [`Heap::hi`], one entry each, whatever the space's size.
    pub fn page_table_pages(&self) -> u32 {
        self.page_table.slots.len() as u32
    }

    /// Bytes the page table holds allocated: the collector's per-page
    /// metadata, which grows with the heap's span.
    pub fn page_table_bytes(&self) -> usize {
        self.page_table.slots.capacity() * std::mem::size_of::<u32>()
    }

    /// Bytes allocated since the last collection — the narrow O(1)
    /// accessor for the collection-trigger check.
    pub fn bytes_since_collect(&self) -> u64 {
        self.bytes_since_collect
    }

    /// [`Heap::stats`] recomputed from scratch by walking the free runs
    /// and blocks — the validation oracle for the incremental counters
    /// (the heap proptests assert both agree after arbitrary traces).
    pub fn recomputed_stats(&self) -> HeapStats {
        HeapStats {
            mapped_pages: self.mapped_pages,
            free_pages: self.free_runs.values().sum::<u32>() + self.quarantined.len() as u32,
            largest_free_run: self.free_runs.values().copied().max().unwrap_or(0),
            bytes_live: self.bytes_live,
            bytes_allocated_total: self.bytes_allocated_total,
            bytes_since_collect: self.bytes_since_collect,
            blocks: self.blocks().count() as u32,
        }
    }

    /// Total objects ever allocated.
    pub fn objects_allocated_total(&self) -> u64 {
        self.objects_allocated_total
    }

    /// Aggregates live blocks into a per-size-class census, ordered by
    /// object size then kind (composite before atomic, small before large).
    /// Large-object blocks of the same object size share one row.
    pub fn size_class_census(&self) -> Vec<SizeClassCensus> {
        let mut rows: std::collections::BTreeMap<(u32, bool, bool), SizeClassCensus> =
            std::collections::BTreeMap::new();
        for b in self.blocks() {
            let large = matches!(b.shape(), BlockShape::Large { .. });
            let atomic = b.kind() == ObjectKind::Atomic;
            let row = rows
                .entry((b.obj_bytes(), large, atomic))
                .or_insert(SizeClassCensus {
                    obj_bytes: b.obj_bytes(),
                    kind: b.kind(),
                    large,
                    blocks: 0,
                    pages: 0,
                    live_objects: 0,
                    free_slots: 0,
                });
            let live = self.live_objects_in(b);
            row.blocks += 1;
            row.pages += b.npages();
            row.live_objects += live;
            row.free_slots += b.slots().saturating_sub(live);
        }
        rows.into_values().collect()
    }
}

/// One row of [`Heap::size_class_census`]: the live blocks of one object
/// size and kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeClassCensus {
    /// Object size in bytes (the size class for small blocks, the exact
    /// rounded size for large ones).
    pub obj_bytes: u32,
    /// Composite or atomic.
    pub kind: ObjectKind,
    /// Whether these are large-object blocks (one object per block).
    pub large: bool,
    /// Live blocks of this class.
    pub blocks: u32,
    /// Pages those blocks span.
    pub pages: u32,
    /// Allocated objects.
    pub live_objects: u32,
    /// Unallocated slots available without mapping new pages.
    pub free_slots: u32,
}

/// Accepts every page; the placement predicate used when blacklisting is
/// disabled.
pub fn accept_all(_page: PageIdx, _use_: PageUse) -> bool {
    true
}

/// The resolve the mark kernel does, for tests: every mark is cleared
/// first, so a live object comes back as the one `Newly` marked.
#[cfg(test)]
fn resolve_marking(heap: &mut Heap, addr: Addr) -> Option<ObjRef> {
    heap.clear_marks();
    match heap.mark_candidate(addr, false, |_| true) {
        MarkHit::Newly(obj) => Some(obj),
        MarkHit::Invalid => None,
        MarkHit::Valid => unreachable!("marks were just cleared"),
    }
}

#[cfg(test)]
mod block_table_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use gc_vmspace::Endian;

    fn setup() -> (AddressSpace, Heap) {
        let space = AddressSpace::new(Endian::Big);
        let heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 8 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        });
        (space, heap)
    }

    #[test]
    fn small_alloc_and_object_map() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(a.page(), b.page(), "same size class shares a block");
        let obj = heap
            .object_containing(a + 4)
            .expect("interior address resolves");
        assert_eq!(obj.base, a);
        assert_eq!(obj.bytes, 8);
        assert!(heap.is_object_base(a));
        assert!(!heap.is_object_base(a + 4));
        assert!(heap.object_containing(Addr::new(0x10)).is_none());
    }

    #[test]
    fn alloc_zeroes_memory() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        space.write_u32(a, 0xdeadbeef).unwrap();
        heap.free_object(a).unwrap();
        let b = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert_eq!(b, a, "address-ordered free list reuses the slot");
        assert_eq!(space.read_u32(b).unwrap(), 0, "allocation zeroes");
    }

    #[test]
    fn a_recycled_page_is_cleared_once_and_a_clean_page_never() {
        let (mut space, mut heap) = setup();
        let alloc = |heap: &mut Heap, space: &mut AddressSpace, bytes| {
            heap.alloc(space, bytes, ObjectKind::Composite, &mut accept_all)
                .unwrap()
        };
        // A 16-byte block, scribbled over and then swept away whole.
        let page = alloc(&mut heap, &mut space, 16).page();
        space.fill(page.base(), PAGE_BYTES, 0xa5).unwrap();
        heap.clear_marks();
        assert_eq!(heap.sweep(false).blocks_released, 1);
        // A 12-byte block on the dirty page: its first object clears the
        // whole page, and every slot is handed out all-zero.
        let first = alloc(&mut heap, &mut space, 12);
        assert_eq!(first.page(), page);
        let whole = space.bytes_at(page.base(), PAGE_BYTES).unwrap();
        assert!(whole.iter().all(|&b| b == 0), "the page is cleared at once");
        space.fill(first, 12, 0x5a).unwrap();
        for _ in 1..SizeClass::for_bytes(12).unwrap().objects_per_page() {
            let obj = alloc(&mut heap, &mut space, 12);
            assert_eq!(obj.page(), page);
            let bytes = space.bytes_at(obj, 12).unwrap();
            assert!(bytes.iter().all(|&b| b == 0), "object at {obj} is zero");
            space.fill(obj, 12, 0x5a).unwrap();
        }
        // The next page is clean: the heap writes nothing on it. (Only
        // this test writes a free page behind the heap's back, to see.)
        let next = PageIdx::new(page.raw() + 1);
        let last_word = next.base() + (PAGE_BYTES - 4);
        space.write_u32(last_word, 0xfeed).unwrap();
        assert_eq!(alloc(&mut heap, &mut space, 4).page(), next);
        assert_eq!(space.read_u32(last_word).unwrap(), 0xfeed);
    }

    #[test]
    fn filling_a_fresh_block_reads_about_one_bitmap_word_per_pop() {
        let (mut space, mut heap) = setup();
        // The 4-byte class: 1024 slots in 16 bitmap words. Slot 0 comes
        // with the new block; the other 1023 are popped.
        let (slots, words) = (1024, 16);
        let mut pages = (0..slots).map(|_| {
            heap.alloc(&mut space, 4, ObjectKind::Atomic, &mut accept_all)
                .unwrap()
                .page()
        });
        let page = pages.next().unwrap();
        assert!(pages.all(|p| p == page), "one block holds every object");
        let read = heap.pop_words_scanned();
        assert!(read <= slots + words, "{read} words for {slots} slots");
        assert!(read * 10 <= (slots - 1) * 11, "{read} words for 1023 pops");
    }

    #[test]
    fn kinds_use_separate_blocks() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 8, ObjectKind::Atomic, &mut accept_all)
            .unwrap();
        assert_ne!(
            a.page(),
            b.page(),
            "atomic and composite never share a block"
        );
        assert_eq!(
            heap.object_containing(a).unwrap().kind,
            ObjectKind::Composite
        );
        assert_eq!(heap.object_containing(b).unwrap().kind, ObjectKind::Atomic);
    }

    #[test]
    fn large_alloc_spans_pages() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 100_000, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let obj = heap
            .object_containing(a + 99_999)
            .expect("interior of large object");
        assert_eq!(obj.base, a);
        assert_eq!(obj.bytes, 100_000);
        // Every spanned page resolves to the object.
        for p in 0..(100_000u32.div_ceil(PAGE_BYTES)) {
            assert!(heap.object_containing(a + p * PAGE_BYTES).is_some());
        }
        assert!(
            heap.object_containing(a + 100_000).is_none(),
            "past the end"
        );
    }

    #[test]
    fn predicate_steers_placement() {
        let (mut space, mut heap) = setup();
        // Forbid the first 4 pages of the heap.
        let base_page = Addr::new(0x0003_0000).page().raw();
        let mut pred = |p: PageIdx, _u: PageUse| p.raw() >= base_page + 4;
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut pred)
            .unwrap();
        assert!(a.page().raw() >= base_page + 4);
    }

    #[test]
    fn predicate_distinguishes_page_use() {
        let (mut space, mut heap) = setup();
        let mut uses = Vec::new();
        let mut pred = |_p: PageIdx, u: PageUse| {
            uses.push(u);
            true
        };
        heap.alloc(&mut space, 2 * PAGE_BYTES, ObjectKind::Atomic, &mut pred)
            .unwrap();
        assert_eq!(
            uses[..2],
            [
                PageUse::LargeFirst(ObjectKind::Atomic),
                PageUse::LargeBody(ObjectKind::Atomic)
            ]
        );
    }

    #[test]
    fn out_of_memory_reports_denied_pages() {
        let mut space = AddressSpace::new(Endian::Big);
        let mut heap = Heap::new(HeapConfig {
            max_heap_bytes: 64 << 10, // 16 pages
            growth_pages: 4,
            ..HeapConfig::default()
        });
        let mut deny_all = |_p: PageIdx, _u: PageUse| false;
        let err = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut deny_all)
            .unwrap_err();
        match err {
            HeapError::OutOfMemory {
                requested: 8,
                pages_denied,
            } => {
                assert!(
                    pages_denied >= 16,
                    "every mapped page was denied: {pages_denied}"
                )
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn sweep_reclaims_unmarked() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.clear_marks();
        let obj_a = heap.object_containing(a).unwrap();
        assert!(heap.set_marked(obj_a));
        assert!(!heap.set_marked(obj_a), "second mark reports already-set");
        let stats = heap.sweep(false);
        assert_eq!(stats.objects_freed, 1);
        assert_eq!(stats.objects_live, 1);
        assert!(heap.object_containing(a).is_some());
        assert!(heap.object_containing(b).is_none(), "b was reclaimed");
    }

    #[test]
    fn heap_is_sync() {
        // Mark bits are set through `&Heap`; the heap stays shareable.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<Heap>();
    }

    #[test]
    fn shared_marking_agrees_with_exclusive() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.clear_marks();
        let obj = heap.object_containing(a).unwrap();
        let mark = || heap.mark_candidate(a, false, |_| true);
        assert_eq!(
            mark(),
            MarkHit::Newly(obj),
            "the first shared mark sets the bit"
        );
        assert_eq!(mark(), MarkHit::Valid, "already marked");
        assert!(!heap.set_marked(obj), "exclusive path sees the shared mark");
        assert!(heap.is_marked(obj));
        let stats = heap.sweep(false);
        assert_eq!(stats.objects_live, 1);
    }

    #[test]
    fn sweep_releases_empty_blocks() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(
                &mut space,
                2 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        assert_eq!(heap.stats().blocks, 1);
        heap.clear_marks();
        let stats = heap.sweep(false);
        assert_eq!(stats.blocks_released, 1);
        assert_eq!(heap.stats().blocks, 0);
        assert!(heap.object_containing(a).is_none());
        // The pages are reusable.
        let b = heap
            .alloc(
                &mut space,
                2 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        assert_eq!(b, a, "released pages are reused lowest-first");
    }

    #[test]
    fn explicit_free_and_double_free() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 32, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.free_object(a).unwrap();
        assert_eq!(heap.free_object(a), Err(HeapError::NotAnObject { addr: a }));
        assert_eq!(
            heap.free_object(Addr::new(1)),
            Err(HeapError::NotAnObject { addr: Addr::new(1) })
        );
    }

    #[test]
    fn double_free_detected_when_block_survives() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let _b = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.free_object(a).unwrap();
        assert_eq!(heap.free_object(a), Err(HeapError::DoubleFree { addr: a }));
    }

    #[test]
    fn stats_track_liveness() {
        let (mut space, mut heap) = setup();
        assert_eq!(heap.stats().bytes_live, 0);
        let a = heap
            .alloc(&mut space, 100, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let s = heap.stats();
        assert_eq!(s.bytes_live, 128, "100 bytes rounds to the 128-byte class");
        assert_eq!(s.bytes_allocated_total, 128);
        assert_eq!(s.bytes_since_collect, 128);
        heap.note_collection();
        assert_eq!(heap.stats().bytes_since_collect, 0);
        heap.free_object(a).unwrap();
        assert_eq!(heap.stats().bytes_live, 0);
        assert_eq!(heap.objects_allocated_total(), 1);
    }

    #[test]
    fn heap_range_grows() {
        let (mut space, mut heap) = setup();
        assert!(!heap.in_heap_range(Addr::new(0x0003_0000)));
        heap.alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert!(heap.in_heap_range(Addr::new(0x0003_0000)));
        assert_eq!(heap.lo(), Some(Addr::new(0x0003_0000)));
        assert_eq!(heap.hi(), Addr::new(0x0003_0000) + 16 * PAGE_BYTES);
    }

    #[test]
    fn expansion_skips_foreign_segments() {
        let (mut space, mut heap) = setup();
        // Drop a foreign segment right where the heap wants to grow.
        space
            .map(SegmentSpec::new(
                "lib",
                SegmentKind::Data,
                Addr::new(0x0003_0000),
                PAGE_BYTES,
            ))
            .unwrap();
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert!(
            a.raw() >= 0x0003_1000,
            "heap skipped the occupied page, got {a}"
        );
    }

    #[test]
    fn live_objects_enumeration() {
        let (mut space, mut heap) = setup();
        let mut addrs: Vec<Addr> = (0..5)
            .map(|_| {
                heap.alloc(&mut space, 24, ObjectKind::Composite, &mut accept_all)
                    .unwrap()
            })
            .collect();
        let mut live: Vec<Addr> = heap.live_objects().map(|o| o.base).collect();
        addrs.sort_unstable();
        live.sort_unstable();
        assert_eq!(addrs, live);
    }

    #[test]
    fn free_run_coalescing_allows_large_reuse() {
        let (mut space, mut heap) = setup();
        // Two adjacent large objects.
        let a = heap
            .alloc(
                &mut space,
                3 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        let b = heap
            .alloc(
                &mut space,
                3 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        heap.free_object(a).unwrap();
        heap.free_object(b).unwrap();
        // The coalesced 6-page run satisfies a 6-page request in place.
        let c = heap
            .alloc(
                &mut space,
                6 * PAGE_BYTES,
                ObjectKind::Composite,
                &mut accept_all,
            )
            .unwrap();
        assert_eq!(c, a.min(b));
    }
}

#[cfg(test)]
mod lazy_sweep_tests {
    use super::*;
    use gc_vmspace::Endian;

    fn setup() -> (AddressSpace, Heap) {
        let space = AddressSpace::new(Endian::Big);
        let heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 8 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        });
        (space, heap)
    }

    fn mark(heap: &mut Heap, addr: Addr) {
        let obj = heap.object_containing(addr).expect("marked object is live");
        heap.set_marked(obj);
    }

    /// The torture suite's census-consistency invariant, checkable while
    /// blocks are pending: the object walk, the `bytes_live` counter, the
    /// generation census, and the size-class census all describe the same
    /// heap.
    fn assert_census_consistent(heap: &Heap) {
        let (mut objs, mut bytes) = (0u64, 0u64);
        for o in heap.live_objects() {
            objs += 1;
            bytes += u64::from(o.bytes);
        }
        assert_eq!(heap.stats().bytes_live, bytes, "bytes_live vs object walk");
        let (young, old) = heap.generation_census();
        assert_eq!(young + old, objs, "generation census vs object walk");
        let by_class: u64 = heap
            .size_class_census()
            .iter()
            .map(|r| u64::from(r.live_objects))
            .sum();
        assert_eq!(by_class, objs, "size-class census vs object walk");
    }

    #[test]
    fn snapshot_defers_work_but_reports_exact_counts() {
        let (mut space, mut heap) = setup();
        let addrs: Vec<Addr> = (0..8)
            .map(|_| {
                heap.alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
                    .unwrap()
            })
            .collect();
        for (i, &a) in addrs.iter().enumerate() {
            if i % 2 == 0 {
                mark(&mut heap, a);
            }
        }
        let stats = heap.sweep_lazy(false);
        assert_eq!(stats.objects_freed, 4);
        assert_eq!(stats.bytes_freed, 4 * 16);
        assert_eq!(stats.objects_live, 4);
        assert_eq!(stats.blocks_deferred, 1);
        assert_eq!(heap.pending_sweep_blocks(), 1);
        assert_eq!(heap.sweep_epoch(), 1);
        // No reclamation work has run yet...
        assert_eq!(heap.lazy_sweep_totals().objects_freed, 0);
        // ...yet every liveness view already shows the post-sweep heap.
        for (i, &a) in addrs.iter().enumerate() {
            assert_eq!(heap.object_containing(a).is_some(), i % 2 == 0);
        }
        assert_census_consistent(&heap);
    }

    #[test]
    fn allocation_slow_path_reloads_the_free_list() {
        let (mut space, mut heap) = setup();
        let addrs: Vec<Addr> = (0..8)
            .map(|_| {
                heap.alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
                    .unwrap()
            })
            .collect();
        for &a in addrs.iter().skip(4) {
            mark(&mut heap, a);
        }
        heap.sweep_lazy(false);
        assert_eq!(heap.pending_sweep_blocks(), 1);
        // The next allocation of this class reaches the pending block in
        // its free list, sweeps it and recycles the lowest condemned slot.
        let fresh = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert_eq!(fresh, addrs[0], "condemned slot recycled");
        assert_eq!(heap.pending_sweep_blocks(), 0);
        let totals = heap.lazy_sweep_totals();
        assert_eq!(totals.blocks_swept, 1);
        assert_eq!(totals.objects_freed, 4);
        assert_census_consistent(&heap);
    }

    #[test]
    fn finish_sweep_completes_and_matches_eager() {
        // The same trace through an eager heap and a lazy heap ends in the
        // same state: identical sweep tallies, live sets, and page counts.
        let trace = |lazy: bool| {
            let (mut space, mut heap) = setup();
            let mut addrs = Vec::new();
            for i in 0..60u32 {
                let bytes = 8 + (i % 5) * 24;
                let kind = if i % 7 == 0 {
                    ObjectKind::Atomic
                } else {
                    ObjectKind::Composite
                };
                addrs.push(
                    heap.alloc(&mut space, bytes, kind, &mut accept_all)
                        .unwrap(),
                );
            }
            // A couple of large objects, one condemned.
            addrs.push(
                heap.alloc(&mut space, 20_000, ObjectKind::Composite, &mut accept_all)
                    .unwrap(),
            );
            addrs.push(
                heap.alloc(&mut space, 9_000, ObjectKind::Atomic, &mut accept_all)
                    .unwrap(),
            );
            for (i, &a) in addrs.iter().enumerate() {
                if i % 3 == 0 {
                    mark(&mut heap, a);
                }
            }
            // What blocks with no survivor hold: the snapshot releases
            // them outright, so the deferred sweep never frees it.
            let mut doomed = (0u64, 0u64);
            for b in heap.blocks() {
                if (0..b.slots()).all(|s| !b.is_marked(s)) {
                    let n = u64::from(b.live_objects());
                    doomed.0 += n;
                    doomed.1 += n * u64::from(b.obj_bytes());
                }
            }
            let stats = if lazy {
                heap.sweep_lazy(false)
            } else {
                heap.sweep(false)
            };
            let swept = if lazy { heap.finish_sweep() } else { 0 };
            let mut live: Vec<u32> = heap.live_objects().map(|o| o.base.raw()).collect();
            live.sort_unstable();
            let totals = heap.lazy_sweep_totals();
            (stats, swept, live, heap.stats(), totals, doomed)
        };
        let (eager, _, eager_live, eager_heap, _, _) = trace(false);
        let (lazy, swept, lazy_live, lazy_heap, totals, doomed) = trace(true);
        assert_eq!(lazy.objects_freed, eager.objects_freed);
        assert_eq!(lazy.bytes_freed, eager.bytes_freed);
        assert_eq!(lazy.objects_live, eager.objects_live);
        assert_eq!(lazy.bytes_live, eager.bytes_live);
        assert_eq!(lazy.objects_promoted, eager.objects_promoted);
        assert_eq!(u32::try_from(totals.blocks_swept).unwrap(), swept);
        // Empty blocks go at the snapshot, the rest in the deferred sweep.
        assert!(eager.blocks_released > 0, "the trace leaves empty blocks");
        assert_eq!(lazy.blocks_released, eager.blocks_released);
        assert_eq!(totals.objects_freed + doomed.0, eager.objects_freed);
        assert_eq!(totals.bytes_freed + doomed.1, eager.bytes_freed);
        assert_eq!(lazy_live, eager_live);
        assert_eq!(lazy_heap, eager_heap);
    }

    #[test]
    fn slow_path_only_sweeps_the_requested_class() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let b = heap
            .alloc(&mut space, 100, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        mark(&mut heap, a);
        mark(&mut heap, b);
        heap.sweep_lazy(false);
        assert_eq!(heap.pending_sweep_blocks(), 2);
        heap.alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        assert_eq!(
            heap.pending_sweep_blocks(),
            1,
            "the other class's block stays pending"
        );
        assert_census_consistent(&heap);
    }

    #[test]
    fn a_full_lazy_heap_serves_what_the_eager_heap_serves() {
        let run = |lazy: bool| {
            let space = &mut AddressSpace::new(Endian::Big);
            let mut heap = Heap::new(HeapConfig {
                heap_base: Addr::new(0x0003_0000),
                max_heap_bytes: 16 * u64::from(PAGE_BYTES),
                growth_pages: 4,
                ..HeapConfig::default()
            });
            // Fill all 16 pages (16-byte class, 256 slots/page); only the
            // last object is garbage, so only the last block has a free
            // slot, and the heap has no page left.
            let addrs: Vec<Addr> = (0..(16 * 256))
                .map(|_| {
                    heap.alloc(space, 16, ObjectKind::Composite, &mut accept_all)
                        .unwrap()
                })
                .collect();
            let (&last, survivors) = addrs.split_last().unwrap();
            for &a in survivors {
                mark(&mut heap, a);
            }
            if lazy {
                heap.sweep_lazy(false);
            } else {
                heap.sweep(false);
            }
            let mut alloc = || heap.alloc(space, 16, ObjectKind::Composite, &mut accept_all);
            let served = (alloc(), alloc());
            assert_eq!(served.0, Ok(last), "the garbage slot is served");
            (served, heap.pending_sweep_blocks())
        };
        let (eager, _) = run(false);
        let (lazy, pending) = run(true);
        assert_eq!(lazy, eager, "the lazy heap serves and refuses alike");
        assert!(matches!(eager.1, Err(HeapError::OutOfMemory { .. })));
        // The 15 full blocks have nothing to serve: they wait for
        // `finish_sweep`.
        assert_eq!(pending, 15);
    }

    #[test]
    fn lazy_refill_follows_addresses_when_block_ids_do_not() {
        let refill = |lazy: bool| {
            let (mut space, mut heap) = setup();
            let mut alloc = |heap: &mut Heap, bytes| {
                heap.alloc(&mut space, bytes, ObjectKind::Composite, &mut accept_all)
                    .unwrap()
            };
            // Four one-page large objects take ids 0-3 on pages 0-3. Freed
            // in the order 1, 2, 3, 0, their ids come back as 0, 3, 2, 1.
            let large: Vec<Addr> = (0..4).map(|_| alloc(&mut heap, 3000)).collect();
            for i in [1, 2, 3, 0] {
                heap.free_object(large[i]).unwrap();
            }
            // Four 2048-byte blocks (two slots each) on pages 0-3 under
            // those ids; the first object of each survives.
            let objs: Vec<Addr> = (0..8).map(|_| alloc(&mut heap, 2048)).collect();
            let kept: Vec<Addr> = objs.into_iter().step_by(2).collect();
            let ids: Vec<u32> = kept
                .iter()
                .map(|&a| heap.object_containing(a).unwrap().block.raw())
                .collect();
            assert_eq!(ids, [0, 3, 2, 1]);
            heap.clear_marks();
            for &a in &kept {
                mark(&mut heap, a);
            }
            if lazy {
                heap.sweep_lazy(false);
            } else {
                heap.sweep(false);
            }
            (0..4)
                .map(|_| alloc(&mut heap, 2048).raw())
                .collect::<Vec<u32>>()
        };
        let eager = refill(false);
        assert_eq!(eager, [0x30800, 0x31800, 0x32800, 0x33800]);
        assert_eq!(refill(true), eager, "lazy refill follows address order");
    }

    #[test]
    fn explicit_free_realizes_the_pending_sweep_first() {
        let (mut space, mut heap) = setup();
        let keep = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let doomed = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        mark(&mut heap, keep);
        heap.sweep_lazy(false);
        // Freeing an object the collector already condemned reports the
        // same error an eager sweep would: the slot is gone.
        assert_eq!(
            heap.free_object(doomed),
            Err(HeapError::DoubleFree { addr: doomed })
        );
        assert_eq!(heap.pending_sweep_blocks(), 0, "the block got swept");
        heap.free_object(keep).expect("survivor frees cleanly");
        assert_eq!(heap.stats().bytes_live, 0);
    }

    #[test]
    fn minor_snapshot_defers_promotion_but_censuses_agree() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        mark(&mut heap, a);
        heap.sweep(false); // tenure `a`
        let young_survivor = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let young_garbage = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        heap.clear_marks();
        mark(&mut heap, young_survivor);
        let stats = heap.sweep_lazy(true);
        assert_eq!(stats.objects_live, 2, "old `a` + marked young");
        assert_eq!(stats.objects_freed, 1);
        assert_eq!(stats.objects_promoted, 1);
        assert!(heap.object_containing(a).is_some());
        assert!(heap.object_containing(young_survivor).is_some());
        assert!(heap.object_containing(young_garbage).is_none());
        // Pending survivors census as old: that is what the deferred sweep
        // leaves behind.
        assert_eq!(heap.generation_census(), (0, 2));
        assert_census_consistent(&heap);
        heap.finish_sweep();
        assert_eq!(heap.generation_census(), (0, 2));
        assert_eq!(heap.lazy_sweep_totals().objects_promoted, 1);
        let obj = heap.object_containing(young_survivor).unwrap();
        assert!(heap.is_old(obj), "deferred sweep tenured the survivor");
    }

    #[test]
    fn eager_sweep_supersedes_a_pending_snapshot() {
        let (mut space, mut heap) = setup();
        let a = heap
            .alloc(&mut space, 16, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        mark(&mut heap, a);
        heap.sweep_lazy(false);
        assert_eq!(heap.pending_sweep_blocks(), 1);
        let stats = heap.sweep(false);
        assert_eq!(heap.pending_sweep_blocks(), 0);
        assert_eq!(stats.objects_live, 1);
        assert_eq!(stats.blocks_deferred, 0);
        assert_census_consistent(&heap);
    }
}

#[cfg(test)]
mod quarantine_tests {
    use super::*;
    use crate::accept_all;
    use gc_vmspace::Endian;

    fn setup() -> (AddressSpace, Heap) {
        let space = AddressSpace::new(Endian::Big);
        let heap = Heap::new(HeapConfig {
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 8 << 20,
            growth_pages: 16,
            ..HeapConfig::default()
        });
        (space, heap)
    }

    #[test]
    fn denied_pages_are_quarantined_not_rescanned() {
        let (mut space, mut heap) = setup();
        let base_page = Addr::new(0x0003_0000).page().raw();
        // Deny the first 8 pages for composite use.
        let denials = std::cell::Cell::new(0u32);
        let mut pred = |p: PageIdx, u: PageUse| {
            if p.raw() < base_page + 8 && matches!(u, PageUse::SmallBlock(ObjectKind::Composite)) {
                denials.set(denials.get() + 1);
                false
            } else {
                true
            }
        };
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut pred)
            .unwrap();
        assert!(a.page().raw() >= base_page + 8);
        assert_eq!(heap.quarantined_pages(), 8);
        let first_round = denials.get();
        assert_eq!(first_round, 8, "each denied page was checked exactly once");
        // Exhaust the block so the next allocation needs a fresh page: the
        // quarantined pages are NOT re-examined (footnote 3's fix).
        for _ in 0..1024 {
            heap.alloc(&mut space, 8, ObjectKind::Composite, &mut pred)
                .unwrap();
        }
        assert_eq!(
            denials.get(),
            first_round,
            "quarantined pages never rescanned"
        );
    }

    #[test]
    fn atomic_allocation_reuses_quarantined_pages() {
        let (mut space, mut heap) = setup();
        let base_page = Addr::new(0x0003_0000).page().raw();
        // Composite is denied on page 0; atomic is allowed anywhere
        // (observation 6's exemption).
        let mut pred = |p: PageIdx, u: PageUse| {
            p.raw() != base_page || matches!(u, PageUse::SmallBlock(ObjectKind::Atomic))
        };
        let c = heap
            .alloc(&mut space, 8, ObjectKind::Composite, &mut pred)
            .unwrap();
        assert_ne!(c.page().raw(), base_page);
        assert_eq!(heap.quarantined_pages(), 1);
        let a = heap
            .alloc(&mut space, 8, ObjectKind::Atomic, &mut pred)
            .unwrap();
        assert_eq!(a.page().raw(), base_page, "atomic drew from the quarantine");
        assert_eq!(heap.quarantined_pages(), 0);
    }

    #[test]
    fn note_collection_requeues_quarantined_pages() {
        let (mut space, mut heap) = setup();
        let base_page = Addr::new(0x0003_0000).page().raw();
        let mut deny_first = |p: PageIdx, _u: PageUse| p.raw() != base_page;
        heap.alloc(&mut space, 8, ObjectKind::Composite, &mut deny_first)
            .unwrap();
        assert_eq!(heap.quarantined_pages(), 1);
        heap.note_collection();
        assert_eq!(heap.quarantined_pages(), 0);
        // The page is usable again once the predicate (blacklist) relents.
        let b = heap
            .alloc(&mut space, 2048, ObjectKind::Composite, &mut accept_all)
            .unwrap();
        let _ = b;
        let mut seen_first = false;
        for _ in 0..64 {
            let x = heap
                .alloc(&mut space, 2048, ObjectKind::Composite, &mut accept_all)
                .unwrap();
            if x.page().raw() == base_page {
                seen_first = true;
            }
        }
        assert!(seen_first, "requeued page returned to service");
    }

    #[test]
    fn quarantine_counts_in_free_pages() {
        let (mut space, mut heap) = setup();
        let base_page = Addr::new(0x0003_0000).page().raw();
        let mut deny_first = |p: PageIdx, _u: PageUse| p.raw() != base_page;
        heap.alloc(&mut space, 8, ObjectKind::Composite, &mut deny_first)
            .unwrap();
        let stats = heap.stats();
        assert_eq!(stats.mapped_pages, 16);
        // 16 mapped - 1 block page = 15 free, of which 1 quarantined.
        assert_eq!(stats.free_pages, 15);
        assert_eq!(heap.quarantined_pages(), 1);
    }

    #[test]
    fn descriptor_offsets_always_ascend() {
        // Scan loops stop at the first out-of-range offset, which is only
        // sound if pointer_offsets is strictly ascending — pin that down
        // even for unsorted, duplicated constructor input.
        let desc = Descriptor::with_pointers_at(8, &[5, 1, 3, 1, 5]);
        let offsets: Vec<u32> = desc.pointer_offsets().collect();
        assert_eq!(offsets, vec![1, 3, 5]);
        assert!(
            offsets.windows(2).all(|w| w[0] < w[1]),
            "offsets are strictly ascending"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn descriptor_rejects_out_of_range_offsets() {
        let _ = Descriptor::with_pointers_at(2, &[2]);
    }
}
