//! The page blacklist (§3 of the paper, "Systematic Techniques").
//!
//! During marking, every candidate that is *not* a valid object address but
//! lies "in the vicinity of the heap" is recorded: its page is blacklisted,
//! and the allocator never places pointer-containing or large objects there.
//! A collection at startup — before any allocation — guarantees that false
//! references from static data can never pin heap memory.
//!
//! Two storage backends are provided, both from the paper: an exact per-page
//! table with provenance and aging metadata, and a one-bit-per-entry hash
//! table for discontinuous heaps, where a hash collision over-blacklists
//! (safe) but never under-blacklists.

use crate::BlacklistKind;
use gc_vmspace::{PageIdx, SegmentKind};
use std::collections::HashMap;
use std::fmt;

/// Where a scanned word (and hence a blacklist entry or retention cause)
/// came from.
///
/// Mirrors the paper's appendix-B breakdown of false-reference sources:
/// static data, thread stacks, registers, process environment, or
/// heap-resident pointers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RootClass {
    /// Static data or BSS (the paper's "most troublesome" source).
    Static,
    /// A mutator stack.
    Stack,
    /// The register file (incl. register windows).
    Registers,
    /// Environment block / other process droppings.
    Environ,
    /// A pointer found while scanning a live heap object.
    Heap,
}

impl RootClass {
    /// Classifies a segment kind as a root class.
    pub fn of_segment(kind: SegmentKind) -> RootClass {
        match kind {
            SegmentKind::Stack => RootClass::Stack,
            SegmentKind::Registers => RootClass::Registers,
            SegmentKind::Environ => RootClass::Environ,
            SegmentKind::Heap => RootClass::Heap,
            _ => RootClass::Static,
        }
    }
}

impl fmt::Display for RootClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RootClass::Static => "static data",
            RootClass::Stack => "stack",
            RootClass::Registers => "registers",
            RootClass::Environ => "environment",
            RootClass::Heap => "heap object",
        };
        f.write_str(s)
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    last_seen: u64,
    source: RootClass,
}

#[derive(Debug)]
enum Store {
    Exact(HashMap<u32, Entry>),
    Hashed {
        current: Vec<u64>,
        previous: Vec<u64>,
        mask: u32,
    },
}

/// The page blacklist.
///
/// # Example
///
/// ```
/// use gc_core::{Blacklist, BlacklistKind, RootClass};
/// use gc_vmspace::PageIdx;
///
/// let mut bl = Blacklist::new(BlacklistKind::Exact, 2);
/// bl.begin_cycle(1);
/// bl.note_false_ref(PageIdx::new(100), RootClass::Static);
/// bl.end_cycle();
/// assert!(bl.contains(PageIdx::new(100)));
/// assert!(!bl.contains(PageIdx::new(101)));
/// ```
#[derive(Debug)]
pub struct Blacklist {
    store: Store,
    ttl: u32,
    gc_no: u64,
    total_noted: u64,
}

impl Blacklist {
    /// Creates an empty blacklist.
    ///
    /// `ttl` is the number of collections an entry survives without being
    /// re-observed (exact store only; the hashed store always uses two
    /// generations).
    pub fn new(kind: BlacklistKind, ttl: u32) -> Self {
        let store = match kind {
            BlacklistKind::Exact => Store::Exact(HashMap::new()),
            BlacklistKind::Hashed { bits } => {
                let nbits = 1u32 << bits;
                let words = nbits.div_ceil(64) as usize;
                Store::Hashed {
                    current: vec![0; words],
                    previous: vec![0; words],
                    mask: nbits - 1,
                }
            }
        };
        Blacklist {
            store,
            ttl,
            gc_no: 0,
            total_noted: 0,
        }
    }

    fn hash(page: PageIdx, mask: u32) -> (usize, u32) {
        // Fibonacci hashing of the page number into the table.
        let h = page.raw().wrapping_mul(0x9e37_79b9) & mask;
        ((h / 64) as usize, h % 64)
    }

    /// Begins a collection cycle numbered `gc_no`.
    pub fn begin_cycle(&mut self, gc_no: u64) {
        self.gc_no = gc_no;
        if let Store::Hashed {
            current, previous, ..
        } = &mut self.store
        {
            std::mem::swap(current, previous);
            current.fill(0);
        }
    }

    /// Records a false reference to `page` observed during marking.
    pub fn note_false_ref(&mut self, page: PageIdx, source: RootClass) {
        self.total_noted += 1;
        match &mut self.store {
            Store::Exact(map) => {
                let gc_no = self.gc_no;
                map.entry(page.raw())
                    .and_modify(|e| e.last_seen = gc_no)
                    .or_insert(Entry {
                        last_seen: gc_no,
                        source,
                    });
            }
            Store::Hashed { current, mask, .. } => {
                let (w, b) = Self::hash(page, *mask);
                current[w] |= 1 << b;
            }
        }
    }

    /// Ends the current cycle: exact entries unseen for more than `ttl`
    /// collections age out, as the paper permits.
    pub fn end_cycle(&mut self) {
        if let Store::Exact(map) = &mut self.store {
            let gc_no = self.gc_no;
            let ttl = u64::from(self.ttl);
            map.retain(|_, e| gc_no.saturating_sub(e.last_seen) <= ttl);
        }
    }

    /// Is `page` blacklisted?
    pub fn contains(&self, page: PageIdx) -> bool {
        match &self.store {
            Store::Exact(map) => map.contains_key(&page.raw()),
            Store::Hashed {
                current,
                previous,
                mask,
            } => {
                let (w, b) = Self::hash(page, *mask);
                (current[w] | previous[w]) >> b & 1 == 1
            }
        }
    }

    /// Recorded provenance of a blacklisted page (exact store only).
    pub fn source_of(&self, page: PageIdx) -> Option<RootClass> {
        match &self.store {
            Store::Exact(map) => map.get(&page.raw()).map(|e| e.source),
            Store::Hashed { .. } => None,
        }
    }

    /// Number of blacklisted pages (exact) or set table bits (hashed).
    pub fn len(&self) -> u32 {
        match &self.store {
            Store::Exact(map) => map.len() as u32,
            Store::Hashed {
                current, previous, ..
            } => current
                .iter()
                .zip(previous)
                .map(|(c, p)| (c | p).count_ones())
                .sum(),
        }
    }

    /// Returns `true` if nothing is blacklisted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The blacklisted pages, ascending (exact store only; empty for
    /// hashed).
    pub fn pages(&self) -> Vec<PageIdx> {
        match &self.store {
            Store::Exact(map) => {
                let mut v: Vec<PageIdx> = map.keys().map(|&p| PageIdx::new(p)).collect();
                v.sort_unstable();
                v
            }
            Store::Hashed { .. } => Vec::new(),
        }
    }

    /// Total false references ever recorded.
    pub fn total_noted(&self) -> u64 {
        self.total_noted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_records_and_reports() {
        let mut bl = Blacklist::new(BlacklistKind::Exact, 1);
        bl.begin_cycle(1);
        bl.note_false_ref(PageIdx::new(7), RootClass::Static);
        bl.note_false_ref(PageIdx::new(9), RootClass::Stack);
        bl.end_cycle();
        assert_eq!(bl.len(), 2);
        assert!(bl.contains(PageIdx::new(7)));
        assert_eq!(bl.source_of(PageIdx::new(7)), Some(RootClass::Static));
        assert_eq!(bl.source_of(PageIdx::new(9)), Some(RootClass::Stack));
        assert_eq!(bl.pages(), vec![PageIdx::new(7), PageIdx::new(9)]);
        assert_eq!(bl.total_noted(), 2);
    }

    #[test]
    fn exact_entries_age_out() {
        let mut bl = Blacklist::new(BlacklistKind::Exact, 1);
        bl.begin_cycle(1);
        bl.note_false_ref(PageIdx::new(7), RootClass::Static);
        bl.end_cycle();
        // Cycle 2: page 7 not re-observed, but within ttl.
        bl.begin_cycle(2);
        bl.end_cycle();
        assert!(bl.contains(PageIdx::new(7)));
        // Cycle 3: beyond ttl, ages out.
        bl.begin_cycle(3);
        bl.end_cycle();
        assert!(!bl.contains(PageIdx::new(7)));
    }

    #[test]
    fn reobservation_refreshes_ttl() {
        let mut bl = Blacklist::new(BlacklistKind::Exact, 1);
        for gc in 1..=5 {
            bl.begin_cycle(gc);
            bl.note_false_ref(PageIdx::new(7), RootClass::Static);
            bl.end_cycle();
        }
        assert!(bl.contains(PageIdx::new(7)));
    }

    #[test]
    fn hashed_over_blacklists_only() {
        let mut bl = Blacklist::new(BlacklistKind::Hashed { bits: 10 }, 1);
        bl.begin_cycle(1);
        for p in [3u32, 4096, 70000] {
            bl.note_false_ref(PageIdx::new(p), RootClass::Static);
        }
        for p in [3u32, 4096, 70000] {
            assert!(
                bl.contains(PageIdx::new(p)),
                "noted page {p} must be blacklisted"
            );
        }
        assert!(!bl.is_empty());
        assert!(
            bl.pages().is_empty(),
            "hashed store has no page enumeration"
        );
        assert_eq!(bl.source_of(PageIdx::new(3)), None);
    }

    #[test]
    fn hashed_two_generation_aging() {
        let mut bl = Blacklist::new(BlacklistKind::Hashed { bits: 12 }, 1);
        bl.begin_cycle(1);
        bl.note_false_ref(PageIdx::new(42), RootClass::Static);
        // Still present through the next full cycle.
        bl.begin_cycle(2);
        assert!(bl.contains(PageIdx::new(42)));
        // Not re-observed in cycle 2; gone after cycle 3 begins.
        bl.begin_cycle(3);
        assert!(!bl.contains(PageIdx::new(42)));
    }

    #[test]
    fn root_class_of_segment() {
        assert_eq!(RootClass::of_segment(SegmentKind::Data), RootClass::Static);
        assert_eq!(RootClass::of_segment(SegmentKind::Bss), RootClass::Static);
        assert_eq!(RootClass::of_segment(SegmentKind::Text), RootClass::Static);
        assert_eq!(RootClass::of_segment(SegmentKind::Stack), RootClass::Stack);
        assert_eq!(
            RootClass::of_segment(SegmentKind::Registers),
            RootClass::Registers
        );
        assert_eq!(
            RootClass::of_segment(SegmentKind::Environ),
            RootClass::Environ
        );
        assert_eq!(RootClass::of_segment(SegmentKind::Heap), RootClass::Heap);
    }

    #[test]
    fn empty_blacklist() {
        let bl = Blacklist::new(BlacklistKind::Exact, 1);
        assert!(bl.is_empty());
        assert!(!bl.contains(PageIdx::new(0)));
        assert_eq!(bl.total_noted(), 0);
    }
}
