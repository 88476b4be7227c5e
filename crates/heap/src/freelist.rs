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

/// The free slots of one (size class, kind) pair's realized blocks (none
/// awaiting a deferred sweep), in the order a [`FreeListPolicy`] hands
/// them out.
#[derive(Clone, Debug)]
pub(crate) enum FreeList {
    /// The blocks with a free slot, by base address. The next slot is the
    /// first zero bit of the lowest block's allocation bitmap: the lowest
    /// free slot of the pair, since blocks do not overlap. Keeping the list
    /// sorted costs one insert per block a sweep or free touches.
    Blocks(BTreeMap<Addr, BlockId>),
    /// Free slot addresses, the most recently freed on top.
    Lifo(Vec<Addr>),
}

impl FreeList {
    pub(crate) fn new(policy: FreeListPolicy) -> Self {
        match policy {
            FreeListPolicy::AddressOrdered => FreeList::Blocks(BTreeMap::new()),
            FreeListPolicy::Lifo => FreeList::Lifo(Vec::new()),
        }
    }

    /// Offers the free slots of `block`: all of them after a sweep or the
    /// block's creation, or only `freed` after an explicit free.
    pub(crate) fn add(&mut self, block: &Block, freed: Option<u32>) {
        match self {
            FreeList::Blocks(set) if block.live_objects() < block.slots() => {
                set.insert(block.base, block.id);
            }
            FreeList::Blocks(_) => {}
            FreeList::Lifo(stack) => match freed {
                Some(slot) => stack.push(block.slot_base(slot)),
                None => stack.extend(block.allocated.iter_zeros().map(|s| block.slot_base(s))),
            },
        }
    }

    /// Withdraws every slot of `block`, which is being released.
    pub(crate) fn remove(&mut self, block: &Block) {
        match self {
            FreeList::Blocks(set) => {
                set.remove(&block.base);
            }
            FreeList::Lifo(stack) => stack.retain(|&a| block.slot_containing(a).is_none()),
        }
    }

    /// Takes the next free slot, as `(block, slot)`, for the caller to
    /// allocate. `blocks` is the block table and `block_at(addr)` the
    /// block owning `addr`'s page.
    pub(crate) fn pop(
        &mut self,
        blocks: &[Option<Block>],
        block_at: impl FnOnce(Addr) -> Option<BlockId>,
    ) -> Option<(BlockId, u32)> {
        let live = |id: BlockId| blocks[id.0 as usize].as_ref().expect("block is live");
        match self {
            FreeList::Blocks(set) => {
                let (_, &id) = set.first_key_value()?;
                let mut free = live(id).allocated.iter_zeros();
                let slot = free.next().expect("listed block has a free slot");
                if free.next().is_none() {
                    set.pop_first();
                }
                Some((id, slot))
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
        let class = SizeClass::for_bytes(1024).unwrap();
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
            FreeList::Blocks(set) => set.is_empty(),
            FreeList::Lifo(stack) => stack.is_empty(),
        }
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
            let Some((id, slot)) = fl.pop(&t, |_| None) else {
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
        let FreeList::Blocks(set) = &fl else {
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
        assert_eq!(fl.pop(&t, page_owner(&t)), Some((b.id, 3)));
        assert_eq!(fl.pop(&t, page_owner(&t)), Some((b.id, 1)));
        assert_eq!(fl.pop(&t, page_owner(&t)), None);
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
        while let Some((id, slot)) = fl.pop(&t, page_owner(&t)) {
            rest.push((id.0, slot));
        }
        assert_eq!(rest, [(1, 3), (1, 2), (1, 1)]);
    }
}
