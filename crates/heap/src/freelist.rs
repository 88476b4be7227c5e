//! Object free lists with pluggable ordering policy.
//!
//! The paper's conclusion argues that a conservative collector gains a space
//! advantage over typical `malloc` implementations because "it is usually
//! much less expensive to keep free lists sorted by address", improving
//! locality of reallocation and the chance of coalescing. Both policies are
//! implemented so the fragmentation experiment (EXPERIMENTS.md, C1) can
//! compare them.

use crate::{Block, BlockId};
use gc_vmspace::Addr;
use std::collections::BTreeMap;
use std::fmt;

/// Ordering policy for object free lists.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum FreeListPolicy {
    /// Pop the lowest-addressed free slot first (the paper's recommended
    /// policy for reduced fragmentation).
    #[default]
    AddressOrdered,
    /// Pop the most recently freed slot first (typical `malloc` behaviour).
    Lifo,
}

impl fmt::Display for FreeListPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FreeListPolicy::AddressOrdered => f.write_str("address-ordered"),
            FreeListPolicy::Lifo => f.write_str("LIFO"),
        }
    }
}

/// The free slots of one (size class, kind) pair's blocks, in the order a
/// [`FreeListPolicy`] hands them out.
#[derive(Clone, Debug)]
pub(crate) enum FreeList {
    /// The blocks with a free slot, by base address. The next slot is the
    /// first zero bit of the lowest block's allocation bitmap: the lowest
    /// free slot of the pair, since blocks do not overlap. Keeping the list
    /// sorted costs one insert per block a sweep or free touches. A block
    /// awaiting its deferred sweep is listed when that sweep will leave it
    /// a free slot; the heap applies the sweep before the first pop from
    /// it ([`FreeList::unstarted_block`]).
    Blocks {
        set: BTreeMap<Addr, BlockId>,
        /// Where the next pop starts, once one has found it: every slot
        /// before it is allocated. `add` and `remove` clear it, so a slot
        /// freed below it or a lower block is never skipped.
        cursor: Option<Cursor>,
    },
    /// Free slot addresses, the most recently freed on top.
    Lifo(Vec<Addr>),
}

/// The lowest listed block and the index of its first `allocated` word
/// with a zero bit, so a pop reads one word instead of rescanning the
/// bitmap from word 0 (Nofl-style allocation from mark-metadata holes, a
/// word at a time).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Cursor {
    block: BlockId,
    word: usize,
}

/// The free slots of `block`'s `allocated` word `i` as set bits, without
/// the bits past the block's last slot.
#[inline]
fn free_bits(block: &Block, i: usize) -> u64 {
    let valid = match block.slots() - i as u32 * 64 {
        n if n >= 64 => u64::MAX,
        n => (1 << n) - 1,
    };
    !block.allocated.words()[i] & valid
}

/// The first `allocated` word of `block` from word `from` on that has a
/// free slot, with its [`free_bits`]; adds the words read to `words_read`.
#[inline]
fn next_free_word(block: &Block, from: usize, words_read: &mut u64) -> Option<(usize, u64)> {
    (from..block.allocated.words().len()).find_map(|i| {
        *words_read += 1;
        let free = free_bits(block, i);
        (free != 0).then_some((i, free))
    })
}

impl FreeList {
    pub(crate) fn new(policy: FreeListPolicy) -> Self {
        match policy {
            FreeListPolicy::AddressOrdered => FreeList::Blocks {
                set: BTreeMap::new(),
                cursor: None,
            },
            FreeListPolicy::Lifo => FreeList::Lifo(Vec::new()),
        }
    }

    /// Offers the free slots of `block`: all of them after a sweep or the
    /// block's creation, or only `freed` after an explicit free. A pending
    /// block is offered only by a sweep that counted a free slot in it,
    /// and only to an address-ordered list.
    pub(crate) fn add(&mut self, block: &Block, freed: Option<u32>) {
        match self {
            FreeList::Blocks { set, cursor } => {
                *cursor = None;
                if block.pending || block.live_objects() < block.slots() {
                    set.insert(block.base, block.id);
                }
            }
            FreeList::Lifo(stack) => match freed {
                Some(slot) => stack.push(block.slot_base(slot)),
                None => stack.extend(block.allocated.iter_zeros().map(|s| block.slot_base(s))),
            },
        }
    }

    /// Withdraws every slot of `block`, which is being released.
    pub(crate) fn remove(&mut self, block: &Block) {
        match self {
            FreeList::Blocks { set, cursor } => {
                *cursor = None;
                set.remove(&block.base);
            }
            FreeList::Lifo(stack) => stack.retain(|&a| block.slot_containing(a).is_none()),
        }
    }

    /// The block the next pop will start on, when no pop has started on
    /// it yet: the lowest listed block while the cursor is unset. `None`
    /// when the cursor is set, the list is empty, or the list is LIFO.
    #[inline]
    pub(crate) fn unstarted_block(&self) -> Option<BlockId> {
        match self {
            FreeList::Blocks { set, cursor: None } => set.first_key_value().map(|(_, &id)| id),
            _ => None,
        }
    }

    /// Takes the next free slot, as `(block, slot)`, for the caller to
    /// allocate before the next pop. `blocks` is the block table and
    /// `block_at(addr)` the block owning `addr`'s page. Adds the number of
    /// `allocated` words read to `words_read`: one per pop, plus one per
    /// word the pop fills.
    #[inline]
    pub(crate) fn pop(
        &mut self,
        blocks: &[Option<Block>],
        block_at: impl FnOnce(Addr) -> Option<BlockId>,
        words_read: &mut u64,
    ) -> Option<(BlockId, u32)> {
        let live = |id: BlockId| blocks[id.0 as usize].as_ref().expect("block is live");
        match self {
            FreeList::Blocks { set, cursor } => {
                let Cursor { block: id, word } = match *cursor {
                    Some(c) => c,
                    None => Cursor {
                        block: *set.first_key_value()?.1,
                        word: 0,
                    },
                };
                let block = live(id);
                debug_assert!(!block.pending, "pending blocks are swept first");
                let (word, free) =
                    next_free_word(block, word, words_read).expect("listed block has a free slot");
                // The cursor stays while this word has another free slot,
                // else moves to the next word with one; a block with none
                // left leaves the list.
                let next = if free & (free - 1) != 0 {
                    Some(word)
                } else {
                    next_free_word(block, word + 1, words_read).map(|(w, _)| w)
                };
                *cursor = match next {
                    Some(word) => Some(Cursor { block: id, word }),
                    None => {
                        set.pop_first();
                        None
                    }
                };
                Some((id, word as u32 * 64 + free.trailing_zeros()))
            }
            FreeList::Lifo(stack) => {
                let addr = stack.pop()?;
                let id = block_at(addr).expect("listed slot has a block");
                Some((id, live(id).slot_containing(addr)?))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObjectKind, SizeClass};

    fn block(id: u32, base: u32) -> Block {
        block_of(1024, id, base)
    }

    fn block_of(bytes: u32, id: u32, base: u32) -> Block {
        let class = SizeClass::for_bytes(bytes).unwrap();
        Block::new_small(BlockId(id), Addr::new(base), class, ObjectKind::Composite)
    }

    fn table(blocks: &[&Block]) -> Vec<Option<Block>> {
        let mut t = vec![
            None;
            blocks
                .iter()
                .map(|b| b.id.0 as usize + 1)
                .max()
                .unwrap_or(0)
        ];
        for b in blocks {
            t[b.id.0 as usize] = Some((*b).clone());
        }
        t
    }

    fn is_empty(fl: &FreeList) -> bool {
        match fl {
            FreeList::Blocks { set, .. } => set.is_empty(),
            FreeList::Lifo(stack) => stack.is_empty(),
        }
    }

    /// Pops from an address-ordered list and allocates the slot in its
    /// block, as the heap does; returns `(block id, slot)`.
    fn take(fl: &mut FreeList, blocks: &mut [&mut Block]) -> Option<(u32, u32)> {
        let t = table(&blocks.iter().map(|b| &**b).collect::<Vec<_>>());
        let (id, slot) = fl.pop(&t, |_| None, &mut 0)?;
        let b = blocks
            .iter_mut()
            .find(|b| b.id == id)
            .expect("popped block");
        b.allocated.set(slot);
        Some((id.0, slot))
    }

    fn page_owner(table: &[Option<Block>]) -> impl Fn(Addr) -> Option<BlockId> + '_ {
        |addr| {
            let mut blocks = table.iter().flatten();
            blocks.find(|b| b.base.page() == addr.page()).map(|b| b.id)
        }
    }

    #[test]
    fn address_ordered_takes_the_lowest_free_slot() {
        // Two four-slot blocks, offered high first.
        let (mut lo, mut hi) = (block(1, 0x2000), block(0, 0x5000));
        lo.allocated.set(0);
        hi.allocated.set(0);
        let mut fl = FreeList::new(FreeListPolicy::AddressOrdered);
        fl.add(&hi, None);
        fl.add(&lo, None);
        let mut taken = Vec::new();
        loop {
            let t = table(&[&lo, &hi]);
            let Some((id, slot)) = fl.pop(&t, |_| None, &mut 0) else {
                break;
            };
            let b = if id == lo.id { &mut lo } else { &mut hi };
            b.allocated.set(slot);
            taken.push(b.slot_base(slot).raw());
        }
        assert_eq!(taken, [0x2400, 0x2800, 0x2c00, 0x5400, 0x5800, 0x5c00]);
        assert!(is_empty(&fl), "full blocks leave the set");
    }

    #[test]
    fn address_ordered_lists_each_block_once() {
        let mut b = block(0, 0x3000);
        b.allocated.set(0);
        b.allocated.set(2);
        let mut fl = FreeList::new(FreeListPolicy::AddressOrdered);
        fl.add(&b, Some(1));
        fl.add(&b, Some(3));
        fl.add(&b, None);
        let FreeList::Blocks { set, .. } = &fl else {
            unreachable!()
        };
        assert_eq!(set.len(), 1);
        fl.remove(&b);
        assert!(is_empty(&fl));
        // A full block is never listed.
        b.allocated.set(1);
        b.allocated.set(3);
        fl.add(&b, None);
        assert!(is_empty(&fl));
    }

    #[test]
    fn lifo_pops_most_recent() {
        let mut b = block(0, 0x1000);
        for slot in 0..4 {
            b.allocated.set(slot);
        }
        let mut fl = FreeList::new(FreeListPolicy::Lifo);
        fl.add(&b, Some(1));
        fl.add(&b, Some(3));
        let t = table(&[&b]);
        assert_eq!(fl.pop(&t, page_owner(&t), &mut 0), Some((b.id, 3)));
        assert_eq!(fl.pop(&t, page_owner(&t), &mut 0), Some((b.id, 1)));
        assert_eq!(fl.pop(&t, page_owner(&t), &mut 0), None);
    }

    #[test]
    fn lifo_release_purges_only_that_block() {
        let (mut a, mut b) = (block(0, 0x1000), block(1, 0x2000));
        a.allocated.set(0);
        b.allocated.set(0);
        let mut fl = FreeList::new(FreeListPolicy::Lifo);
        fl.add(&a, None);
        fl.add(&b, None);
        fl.remove(&a);
        let t = table(&[&a, &b]);
        let mut rest = Vec::new();
        while let Some((id, slot)) = fl.pop(&t, page_owner(&t), &mut 0) {
            rest.push((id.0, slot));
        }
        assert_eq!(rest, [(1, 3), (1, 2), (1, 1)]);
    }

    #[test]
    fn a_slot_freed_below_the_cursor_comes_next() {
        // 4-byte class: 1024 slots in 16 words.
        let mut b = block_of(4, 0, 0x1000);
        let mut fl = FreeList::new(FreeListPolicy::AddressOrdered);
        fl.add(&b, None);
        for slot in 0..200 {
            assert_eq!(take(&mut fl, &mut [&mut b]), Some((0, slot)));
        }
        // The cursor now sits in word 3; free a slot in word 0.
        b.allocated.clear(5);
        fl.add(&b, Some(5));
        assert_eq!(take(&mut fl, &mut [&mut b]), Some((0, 5)));
        assert_eq!(take(&mut fl, &mut [&mut b]), Some((0, 200)));
    }

    #[test]
    fn a_lower_block_added_by_a_sweep_comes_first() {
        let (mut lo, mut hi) = (block(1, 0x2000), block(0, 0x5000));
        let mut fl = FreeList::new(FreeListPolicy::AddressOrdered);
        fl.add(&hi, None);
        assert_eq!(take(&mut fl, &mut [&mut lo, &mut hi]), Some((0, 0)));
        // A sweep lists a lower block while the cursor points into `hi`.
        fl.add(&lo, None);
        assert_eq!(take(&mut fl, &mut [&mut lo, &mut hi]), Some((1, 0)));
    }

    #[test]
    fn releasing_the_cursor_block_moves_the_pop_to_the_next_block() {
        let (mut lo, mut hi) = (block(1, 0x2000), block(0, 0x5000));
        let mut fl = FreeList::new(FreeListPolicy::AddressOrdered);
        fl.add(&hi, None);
        fl.add(&lo, None);
        assert_eq!(take(&mut fl, &mut [&mut lo, &mut hi]), Some((1, 0)));
        fl.remove(&lo);
        assert_eq!(take(&mut fl, &mut [&mut lo, &mut hi]), Some((0, 0)));
    }

    #[test]
    fn the_last_free_slot_in_a_partial_word_removes_the_block() {
        // 12-byte class: 341 slots, so the last word holds 21 of them.
        let mut b = block_of(12, 0, 0x1000);
        assert_eq!(b.slots(), 341);
        for slot in 0..340 {
            b.allocated.set(slot);
        }
        let mut fl = FreeList::new(FreeListPolicy::AddressOrdered);
        fl.add(&b, None);
        assert_eq!(take(&mut fl, &mut [&mut b]), Some((0, 340)));
        assert!(is_empty(&fl), "the full block leaves the set");
        assert_eq!(take(&mut fl, &mut [&mut b]), None);
    }
}
