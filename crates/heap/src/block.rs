//! Heap blocks and object references.
//!
//! A *block* is a run of whole pages dedicated either to small objects of a
//! single size class and kind, or to one large object. Block metadata
//! (headers, mark bits, allocation bits) is kept out-of-band in Rust data —
//! the analogue of bdwgc's separate header map — so the simulated heap bytes
//! are exactly what the mutator wrote.

use crate::{AtomicBitmap, Bitmap, SizeClass, GRANULE_BYTES};
use gc_vmspace::{Addr, PAGE_BYTES};
use std::fmt;

/// Identifier of a live [`Block`].
///
/// Ids are recycled: releasing a block returns its id to the heap, and the
/// next block created takes it, so the block table never grows past the
/// peak number of live blocks. An id (and any [`ObjRef`] carrying it) is
/// therefore valid only until its block is released — that is, until the
/// next sweep that finds the block empty, or an explicit free of its last
/// object. A collector holds `ObjRef`s only while no block can be released
/// (during a mark phase or an incremental cycle; see `Heap::release_block`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// Raw index of this block id.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blk#{}", self.0)
    }
}

/// Whether objects in a block may contain pointers.
///
/// The paper stresses that the allocator must let clients state that an
/// object contains no pointers ("compressed bitmaps introduce false pointers
/// with excessively high probability", §2), and that *blacklisted pages may
/// still serve small pointer-free objects* (§3, observation 6).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum ObjectKind {
    /// May contain pointers anywhere; scanned conservatively word by word.
    #[default]
    Composite,
    /// Guaranteed pointer-free (the `GC_malloc_atomic` analogue); never
    /// scanned.
    Atomic,
}

impl fmt::Display for ObjectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKind::Composite => f.write_str("composite"),
            ObjectKind::Atomic => f.write_str("atomic"),
        }
    }
}

/// The shape of a block: many small slots or one large object.
#[derive(Clone, Debug)]
pub enum BlockShape {
    /// One page holding `class.objects_per_page()` slots of one size class.
    Small {
        /// The size class of every slot in the block.
        class: SizeClass,
    },
    /// `npages` contiguous pages holding a single object.
    Large {
        /// Exact object size in bytes (granule-rounded, ≤ npages·4096).
        obj_bytes: u32,
    },
}

/// A live heap block.
#[derive(Clone, Debug)]
pub struct Block {
    pub(crate) id: BlockId,
    pub(crate) base: Addr,
    pub(crate) npages: u32,
    pub(crate) shape: BlockShape,
    /// Resolve constants, fixed at creation (the shape stays the source of
    /// truth): the object size, the slot count, and `span`, the bytes the
    /// slots cover (the page less its trailing waste, or a large object's
    /// granule-rounded size).
    obj_bytes: u32,
    slots: u32,
    span: u32,
    /// `ceil(2^32 / obj_bytes)` for a small block, 0 for a large one:
    /// bdwgc's inverse object size (`hb_inv_sz`), so an offset's slot is a
    /// multiply and a shift (see [`slot_containing`](Self::slot_containing)).
    inv: u32,
    pub(crate) kind: ObjectKind,
    pub(crate) allocated: Bitmap,
    /// Mark bits, set through `&Heap` by the marker (whose scan loops
    /// borrow from the heap while they mark); every other path uses the
    /// `&mut` accessors.
    pub(crate) marked: AtomicBitmap,
    /// Generation bits for the sticky-mark-bit generational mode (one per
    /// slot): objects that survived a collection are *old*; minor
    /// collections treat them as immortal roots and sweep only the young.
    pub(crate) old: Bitmap,
    /// Set between a lazy-sweep snapshot and this block's deferred sweep:
    /// the allocation/old bits still describe the pre-collection heap, and
    /// the mark bits of that collection decide each slot's fate. While
    /// pending, per-slot liveness is `allocated && survives-the-snapshot`.
    pub(crate) pending: bool,
    /// Never-used watermark: slots at indices `>= bump` have never been
    /// allocated since the block was created.
    pub(crate) bump: u32,
    /// Never-used slots are all-zero, so allocation may skip the explicit
    /// fill: the block's pages were never written since the address space
    /// mapped (and zeroed) them, or, for a small block, the heap cleared
    /// its page when it carved the block.
    pub(crate) zeroed: bool,
    /// Per-slot descriptor index of typed objects ([`NO_DESCRIPTOR`] for
    /// untyped slots), created when the block first holds a typed object.
    /// An entry is meaningful only while its slot is allocated: every
    /// allocation overwrites it, so the sweep never touches it.
    pub(crate) descriptors: Option<Box<[u32]>>,
}

/// [`Block::descriptors`] entry of an untyped slot.
pub(crate) const NO_DESCRIPTOR: u32 = u32::MAX;

/// Slot tallies of one block's sweep decision.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub(crate) struct SlotFates {
    /// Allocated slots that survive.
    pub(crate) live: u32,
    /// Allocated slots that are reclaimed.
    pub(crate) freed: u32,
    /// Survivors that were young and become old.
    pub(crate) promoted: u32,
}

/// The sweep kernel, 64 slots at a time: returns `(keep, freed)` for one
/// word of the allocation, mark and old bitmaps. A slot survives if it is
/// allocated and marked — or allocated and old during a minor sweep — and
/// every survivor ends up old (tenured), so the promoted slots are
/// `keep & !old`.
#[inline]
fn sweep_word(alloc: u64, marked: u64, old: u64, minor: bool) -> (u64, u64) {
    let keep = alloc & (marked | if minor { old } else { 0 });
    (keep, alloc & !keep)
}

impl SlotFates {
    #[inline]
    fn add(&mut self, keep: u64, freed: u64, old: u64) {
        self.live += keep.count_ones();
        self.freed += freed.count_ones();
        self.promoted += (keep & !old).count_ones();
    }
}

impl Block {
    pub(crate) fn new_small(id: BlockId, base: Addr, class: SizeClass, kind: ObjectKind) -> Self {
        let (obj_bytes, n) = (class.bytes(), class.objects_per_page());
        Block {
            id,
            base,
            npages: 1,
            shape: BlockShape::Small { class },
            obj_bytes,
            slots: n,
            span: n * obj_bytes,
            inv: (1u64 << 32).div_ceil(u64::from(obj_bytes)) as u32,
            kind,
            allocated: Bitmap::new(n),
            marked: AtomicBitmap::new(n),
            old: Bitmap::new(n),
            pending: false,
            bump: 0,
            zeroed: false,
            descriptors: None,
        }
    }

    pub(crate) fn new_large(id: BlockId, base: Addr, bytes: u32, kind: ObjectKind) -> Self {
        let obj_bytes = bytes.div_ceil(GRANULE_BYTES) * GRANULE_BYTES;
        Block {
            id,
            base,
            npages: obj_bytes.div_ceil(PAGE_BYTES),
            shape: BlockShape::Large { obj_bytes },
            obj_bytes,
            slots: 1,
            span: obj_bytes,
            inv: 0,
            kind,
            allocated: Bitmap::new(1),
            marked: AtomicBitmap::new(1),
            old: Bitmap::new(1),
            pending: false,
            bump: 0,
            zeroed: false,
            descriptors: None,
        }
    }

    /// The sweep decision against the current mark bits, counted but not
    /// applied: the lazy snapshot and the pending-aware censuses use it.
    pub(crate) fn sweep_census(&self, minor: bool) -> SlotFates {
        let mut fates = SlotFates::default();
        for (i, (&alloc, &old)) in self
            .allocated
            .words()
            .iter()
            .zip(self.old.words())
            .enumerate()
        {
            let (keep, freed) = sweep_word(alloc, self.marked.word(i), old, minor);
            fates.add(keep, freed, old);
        }
        fates
    }

    /// Applies the sweep decision in place: freed slots lose their
    /// allocation and old bits, survivors become old.
    pub(crate) fn sweep_apply(&mut self, minor: bool) -> SlotFates {
        let mut fates = SlotFates::default();
        let words = self
            .allocated
            .words_mut()
            .iter_mut()
            .zip(self.old.words_mut());
        for (i, (alloc, old)) in words.enumerate() {
            let (keep, freed) = sweep_word(*alloc, self.marked.word(i), *old, minor);
            fates.add(keep, freed, *old);
            *alloc = keep;
            *old = (*old & !freed) | keep;
        }
        fates
    }

    /// Records the descriptor index of the object just allocated in
    /// `slot` (`None` for an untyped object), creating the side table on
    /// the block's first typed object.
    pub(crate) fn set_descriptor(&mut self, slot: u32, desc: Option<u32>) {
        if self.descriptors.is_none() && desc.is_some() {
            self.descriptors = Some(vec![NO_DESCRIPTOR; self.slots() as usize].into());
        }
        if let Some(table) = &mut self.descriptors {
            table[slot as usize] = desc.unwrap_or(NO_DESCRIPTOR);
        }
    }

    /// The descriptor index of the typed object allocated at `base`, if
    /// any.
    pub(crate) fn descriptor_at(&self, base: Addr) -> Option<u32> {
        let slot = self
            .slot_containing(base)
            .filter(|&slot| self.slot_base(slot) == base)?;
        self.descriptor_in(slot)
    }

    /// The descriptor index of the typed object allocated in `slot`, if
    /// any. Blocks that never held a typed object answer from one field.
    #[inline]
    pub(crate) fn descriptor_in(&self, slot: u32) -> Option<u32> {
        let d = self.descriptors.as_deref()?[slot as usize];
        (d != NO_DESCRIPTOR && self.allocated.get(slot)).then_some(d)
    }

    /// The block's identifier.
    #[inline]
    pub fn id(&self) -> BlockId {
        self.id
    }

    /// Lowest address of the block.
    pub fn base(&self) -> Addr {
        self.base
    }

    /// Number of pages the block spans.
    pub fn npages(&self) -> u32 {
        self.npages
    }

    /// Whether the block's objects may contain pointers.
    #[inline]
    pub fn kind(&self) -> ObjectKind {
        self.kind
    }

    /// The block's shape.
    pub fn shape(&self) -> &BlockShape {
        &self.shape
    }

    /// Object size in bytes for every slot of this block.
    #[inline]
    pub fn obj_bytes(&self) -> u32 {
        self.obj_bytes
    }

    /// Number of object slots in the block.
    #[inline]
    pub fn slots(&self) -> u32 {
        self.slots
    }

    /// Number of live (allocated) objects in the block.
    pub fn live_objects(&self) -> u32 {
        self.allocated.count_ones()
    }

    /// Base address of slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= slots()`.
    #[inline]
    pub fn slot_base(&self, index: u32) -> Addr {
        assert!(index < self.slots, "slot index out of range");
        self.base + index * self.obj_bytes
    }

    /// A reference to the object in slot `index`.
    #[inline]
    pub(crate) fn obj_ref(&self, index: u32) -> ObjRef {
        ObjRef {
            block: self.id,
            index,
            base: self.slot_base(index),
            bytes: self.obj_bytes(),
            kind: self.kind,
        }
    }

    /// Maps an address to the slot whose extent contains it, if any.
    ///
    /// Returns `None` for addresses in the block's trailing waste (the
    /// unused remainder when the object size does not divide the page) or
    /// past a large object's granule-rounded end.
    ///
    /// Divides by no runtime value: an address below the base wraps to an
    /// offset past `span` (the heap never maps the top page, so a block's
    /// end fits in 32 bits), and the slot is `(off * inv) >> 32`. That is
    /// exactly `off / obj_bytes` whenever the rounding error
    /// `off * (inv * obj_bytes - 2^32)` is below 2^32; a small block's `off`
    /// is below 4096 and `inv * obj_bytes - 2^32` below `obj_bytes` (at most
    /// 2048), so the error stays under 2^23. A unit test checks every
    /// offset of every class. A large block's `inv` of 0 gives slot 0.
    #[inline]
    pub fn slot_containing(&self, addr: Addr) -> Option<u32> {
        let off = addr.raw().wrapping_sub(self.base.raw());
        (off < self.span).then(|| ((u64::from(off) * u64::from(self.inv)) >> 32) as u32)
    }

    /// Is slot `index` currently allocated?
    pub fn is_allocated(&self, index: u32) -> bool {
        self.allocated.get(index)
    }

    /// Is slot `index` marked?
    pub fn is_marked(&self, index: u32) -> bool {
        self.marked.get(index)
    }

    /// Is slot `index` in the old generation?
    pub fn is_old(&self, index: u32) -> bool {
        self.old.get(index)
    }

    /// Returns `true` if the block contains no live objects.
    pub fn is_unused(&self) -> bool {
        self.allocated.count_ones() == 0
    }
}

/// A resolved reference to a live heap object.
///
/// Produced by [`Heap::object_containing`](crate::Heap::object_containing);
/// carries everything the collector's mark phase needs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ObjRef {
    /// Block holding the object.
    pub block: BlockId,
    /// Slot index within the block.
    pub index: u32,
    /// Base address of the object.
    pub base: Addr,
    /// Object size in bytes.
    pub bytes: u32,
    /// Whether the object may contain pointers.
    pub kind: ObjectKind,
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj {}+{}B in {}", self.base, self.bytes, self.block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_block_slot_math() {
        let class = SizeClass::for_bytes(12).unwrap();
        let b = Block::new_small(BlockId(0), Addr::new(0x10000), class, ObjectKind::Composite);
        assert_eq!(b.slots(), 341);
        assert_eq!(b.slot_base(0), Addr::new(0x10000));
        assert_eq!(b.slot_base(2), Addr::new(0x10018));
        assert_eq!(b.slot_containing(Addr::new(0x10000)), Some(0));
        assert_eq!(b.slot_containing(Addr::new(0x10017)), Some(1));
        // Trailing waste: 341 * 12 = 4092, bytes 4092..4096 belong to no slot.
        assert_eq!(b.slot_containing(Addr::new(0x10000 + 4092)), None);
        assert_eq!(b.slot_containing(Addr::new(0xffff)), None);
    }

    #[test]
    fn large_block_slot_math() {
        let b = Block::new_large(BlockId(1), Addr::new(0x20000), 10_000, ObjectKind::Atomic);
        assert_eq!(b.npages(), 3);
        assert_eq!(b.obj_bytes(), 10_000);
        assert_eq!(b.slots(), 1);
        assert_eq!(b.slot_containing(Addr::new(0x20000)), Some(0));
        assert_eq!(b.slot_containing(Addr::new(0x20000 + 9_999)), Some(0));
        // Granule-rounded end: past the object, inside the last page.
        assert_eq!(b.slot_containing(Addr::new(0x20000 + 10_000)), None);
    }

    #[test]
    fn slot_containing_matches_division() {
        // The lowest and the highest page the heap can map: the top page of
        // the 32-bit space is never mapped.
        for base in [0x1000, u32::MAX - 2 * PAGE_BYTES + 1] {
            for class in SizeClass::all() {
                let b = Block::new_small(BlockId(0), Addr::new(base), class, ObjectKind::Composite);
                let d = class.bytes();
                assert_eq!(b.slot_containing(Addr::new(base - 1)), None, "{class}");
                for off in 0..PAGE_BYTES {
                    let want = (off / d < class.objects_per_page()).then_some(off / d);
                    let got = b.slot_containing(Addr::new(base + off));
                    assert_eq!(got, want, "{class} +{off}");
                }
            }
        }
        let base = Addr::new(0x10_0000);
        for bytes in [
            crate::MAX_SMALL_BYTES + GRANULE_BYTES,
            4096,
            10_000,
            1 << 20,
        ] {
            let b = Block::new_large(BlockId(0), base, bytes, ObjectKind::Composite);
            let (d, end) = (b.obj_bytes(), b.npages() * PAGE_BYTES);
            let at = |off: u32| b.slot_containing(base + off);
            assert_eq!(b.slot_containing(base - 1), None, "{bytes}");
            assert_eq!(
                [at(0), at(d - 1), at(d)],
                [Some(0), Some(0), None],
                "{bytes}"
            );
            assert_eq!(at(end - 1), (end == d).then_some(0), "{bytes}");
        }
    }

    #[test]
    fn large_block_rounds_to_granule() {
        let b = Block::new_large(BlockId(2), Addr::new(0x30000), 10, ObjectKind::Composite);
        assert_eq!(b.obj_bytes(), 12);
        assert_eq!(b.npages(), 1);
    }

    #[test]
    fn unused_tracking() {
        let class = SizeClass::for_bytes(8).unwrap();
        let mut b = Block::new_small(BlockId(0), Addr::new(0), class, ObjectKind::Composite);
        assert!(b.is_unused());
        b.allocated.set(5);
        assert!(!b.is_unused());
        assert_eq!(b.live_objects(), 1);
        assert!(b.is_allocated(5));
        assert!(!b.is_marked(5));
    }
}
