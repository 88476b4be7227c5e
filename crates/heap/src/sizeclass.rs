//! Small-object size classes.
//!
//! Objects up to half a page are allocated from per-class pages, like
//! bdwgc's small-object free lists; anything larger is a large object
//! spanning whole pages.

use gc_vmspace::PAGE_BYTES;
use std::fmt;

/// The allocation granule in bytes.
///
/// The paper's Program T allocates 4-byte objects, so the granule is one
/// machine word.
pub const GRANULE_BYTES: u32 = 4;

/// Size-class table, in granules. Chosen so internal fragmentation stays
/// below ~25 % while keeping the table small; the largest class is half a
/// page.
const CLASS_GRANULES: [u32; 18] = [
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512,
];

/// Objects per page of each class, read when a block is created. The block
/// keeps its own resolve constants (slot count, covered span and inverse
/// object size), so resolving a candidate, the mark phase's hot path,
/// divides by nothing.
const CLASS_SLOTS: [u32; CLASS_GRANULES.len()] = {
    let mut slots = [0; CLASS_GRANULES.len()];
    let mut i = 0;
    while i < slots.len() {
        slots[i] = PAGE_BYTES / (CLASS_GRANULES[i] * GRANULE_BYTES);
        i += 1;
    }
    slots
};

/// The largest small-object request in bytes; larger requests become large
/// objects.
pub const MAX_SMALL_BYTES: u32 = CLASS_GRANULES[CLASS_GRANULES.len() - 1] * GRANULE_BYTES;

/// The smallest class holding a request of `g` granules, at index `g`
/// (entry 0 unused), so the allocation path finds a class with one read.
const CLASS_OF_GRANULES: [u8; (MAX_SMALL_BYTES / GRANULE_BYTES) as usize + 1] = {
    let mut table = [0; (MAX_SMALL_BYTES / GRANULE_BYTES) as usize + 1];
    let (mut g, mut class) = (1, 0);
    while g < table.len() {
        while CLASS_GRANULES[class] < g as u32 {
            class += 1;
        }
        table[g] = class as u8;
        g += 1;
    }
    table
};

/// A small-object size class.
///
/// # Example
///
/// ```
/// use gc_heap::SizeClass;
/// let c = SizeClass::for_bytes(10).expect("10 bytes is a small object");
/// assert_eq!(c.bytes(), 12); // rounded up to the 3-granule class
/// assert!(SizeClass::for_bytes(100_000).is_none()); // large object
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SizeClass(u8);

impl SizeClass {
    /// Returns the smallest class that fits `bytes`, or `None` if the
    /// request needs a large object (or is zero).
    #[inline]
    pub fn for_bytes(bytes: u32) -> Option<SizeClass> {
        if bytes == 0 || bytes > MAX_SMALL_BYTES {
            return None;
        }
        let granules = bytes.div_ceil(GRANULE_BYTES);
        Some(SizeClass(CLASS_OF_GRANULES[granules as usize]))
    }

    /// Object size of this class in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        CLASS_GRANULES[self.0 as usize] * GRANULE_BYTES
    }

    /// Number of objects of this class that fit in one page.
    #[inline]
    pub fn objects_per_page(self) -> u32 {
        CLASS_SLOTS[self.0 as usize]
    }

    /// All size classes, smallest first.
    pub fn all() -> impl Iterator<Item = SizeClass> {
        (0..CLASS_GRANULES.len() as u8).map(SizeClass)
    }

    /// Index of this class in the class table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Number of size classes.
    pub const COUNT: usize = CLASS_GRANULES.len();
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}B", self.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding() {
        assert_eq!(SizeClass::for_bytes(1).unwrap().bytes(), 4);
        assert_eq!(SizeClass::for_bytes(4).unwrap().bytes(), 4);
        assert_eq!(SizeClass::for_bytes(5).unwrap().bytes(), 8);
        assert_eq!(SizeClass::for_bytes(8).unwrap().bytes(), 8);
        assert_eq!(SizeClass::for_bytes(9).unwrap().bytes(), 12);
        assert_eq!(SizeClass::for_bytes(2048).unwrap().bytes(), 2048);
        assert!(SizeClass::for_bytes(2049).is_none());
        assert!(SizeClass::for_bytes(0).is_none());
    }

    #[test]
    fn objects_per_page_divides() {
        for c in SizeClass::all() {
            let n = c.objects_per_page();
            assert!(n >= 2, "even the largest class packs two per page");
            assert!(n * c.bytes() <= PAGE_BYTES);
        }
        assert_eq!(SizeClass::for_bytes(4).unwrap().objects_per_page(), 1024);
        assert_eq!(SizeClass::for_bytes(8).unwrap().objects_per_page(), 512);
    }

    #[test]
    fn classes_are_monotonic() {
        let sizes: Vec<u32> = SizeClass::all().map(SizeClass::bytes).collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sizes.len(), SizeClass::COUNT);
    }

    #[test]
    fn every_small_request_fits_its_class() {
        for bytes in 1..=MAX_SMALL_BYTES {
            let c = SizeClass::for_bytes(bytes).expect("small request has a class");
            assert!(c.bytes() >= bytes);
            // Tight: the previous class (if any) would not fit.
            if c.index() > 0 {
                let prev = SizeClass(c.index() as u8 - 1);
                assert!(prev.bytes() < bytes);
            }
        }
    }

    #[test]
    fn display() {
        assert_eq!(SizeClass::for_bytes(6).unwrap().to_string(), "8B");
    }
}
