//! Addresses, pages and words of the simulated 32-bit machine.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Size of a simulated page in bytes (4 KiB, matching the paper's machines).
pub const PAGE_BYTES: u32 = 4096;

/// Size of a simulated machine word in bytes (32-bit machine).
pub const WORD_BYTES: u32 = 4;

/// Number of words per page.
pub const PAGE_WORDS: u32 = PAGE_BYTES / WORD_BYTES;

/// A byte address in the simulated 32-bit address space.
///
/// `Addr` is a newtype over `u32`; the full 4 GiB space is representable.
/// Addresses format as hexadecimal, e.g. `0x0009_0000` prints as `0x00090000`.
///
/// # Example
///
/// ```
/// use gc_vmspace::{Addr, PAGE_BYTES};
/// let a = Addr::new(0x1234);
/// assert_eq!(a.page().raw(), 0x1234 / PAGE_BYTES);
/// assert_eq!((a + 4).raw(), 0x1238);
/// assert!(a.is_word_aligned());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(u32);

impl Addr {
    /// The null address.
    pub const NULL: Addr = Addr(0);

    /// The highest representable address.
    pub const MAX: Addr = Addr(u32::MAX);

    /// Creates an address from a raw 32-bit value.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Addr(raw)
    }

    /// Returns the raw 32-bit value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns `true` if this is the null address.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the index of the page containing this address.
    #[inline]
    pub const fn page(self) -> PageIdx {
        PageIdx(self.0 / PAGE_BYTES)
    }

    /// Returns the byte offset of this address within its page.
    #[inline]
    pub const fn page_offset(self) -> u32 {
        self.0 % PAGE_BYTES
    }

    /// Returns `true` if the address is aligned to a machine word.
    #[inline]
    pub const fn is_word_aligned(self) -> bool {
        self.0.is_multiple_of(WORD_BYTES)
    }

    /// Rounds the address down to the nearest multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    #[inline]
    pub const fn align_down(self, align: u32) -> Self {
        assert!(align != 0, "alignment must be nonzero");
        Addr(self.0 - self.0 % align)
    }

    /// Rounds the address up to the nearest multiple of `align`, saturating
    /// at [`Addr::MAX`]'s containing boundary.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    #[inline]
    pub const fn align_up(self, align: u32) -> Self {
        assert!(align != 0, "alignment must be nonzero");
        let rem = self.0 % align;
        if rem == 0 {
            self
        } else {
            Addr(self.0.saturating_add(align - rem))
        }
    }

    /// Adds a byte offset, returning `None` on 32-bit overflow.
    #[inline]
    pub fn checked_add(self, bytes: u32) -> Option<Self> {
        self.0.checked_add(bytes).map(Addr)
    }

    /// Subtracts a byte offset, returning `None` on underflow.
    #[inline]
    pub fn checked_sub(self, bytes: u32) -> Option<Self> {
        self.0.checked_sub(bytes).map(Addr)
    }

    /// Adds a byte offset with wrap-around (two's-complement address math).
    #[inline]
    pub const fn wrapping_add(self, bytes: u32) -> Self {
        Addr(self.0.wrapping_add(bytes))
    }

    /// Byte distance from `other` to `self`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `other > self` (standard integer underflow).
    #[inline]
    pub const fn offset_from(self, other: Addr) -> u32 {
        self.0 - other.0
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Addr({:#010x})", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u32> for Addr {
    fn from(raw: u32) -> Self {
        Addr(raw)
    }
}

impl From<Addr> for u32 {
    fn from(addr: Addr) -> Self {
        addr.0
    }
}

impl Add<u32> for Addr {
    type Output = Addr;

    /// # Panics
    ///
    /// Panics in debug builds on 32-bit overflow.
    fn add(self, rhs: u32) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl AddAssign<u32> for Addr {
    fn add_assign(&mut self, rhs: u32) {
        self.0 += rhs;
    }
}

impl Sub<u32> for Addr {
    type Output = Addr;

    /// # Panics
    ///
    /// Panics in debug builds on underflow.
    fn sub(self, rhs: u32) -> Addr {
        Addr(self.0 - rhs)
    }
}

impl Sub<Addr> for Addr {
    type Output = u32;

    /// # Panics
    ///
    /// Panics in debug builds on underflow.
    fn sub(self, rhs: Addr) -> u32 {
        self.0 - rhs.0
    }
}

/// Index of a 4 KiB page in the simulated address space.
///
/// There are 2²⁰ pages in the 4 GiB space; page indices are the key type of
/// the collector's page table and blacklist.
///
/// # Example
///
/// ```
/// use gc_vmspace::{Addr, PageIdx};
/// let p = Addr::new(0x2345).page();
/// assert_eq!(p, PageIdx::new(2));
/// assert_eq!(p.base(), Addr::new(0x2000));
/// assert_eq!(p.next(), PageIdx::new(3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PageIdx(u32);

impl PageIdx {
    /// Creates a page index from a raw value.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        PageIdx(raw)
    }

    /// Returns the raw page number.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the base (lowest) address of this page.
    #[inline]
    pub const fn base(self) -> Addr {
        Addr(self.0 * PAGE_BYTES)
    }

    /// Returns the following page index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if this is the last page of the address space.
    #[inline]
    pub const fn next(self) -> PageIdx {
        PageIdx(self.0 + 1)
    }

    /// Returns the page index advanced by `n` pages.
    #[inline]
    pub const fn advance(self, n: u32) -> PageIdx {
        PageIdx(self.0 + n)
    }
}

impl fmt::Debug for PageIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageIdx({} @ {})", self.0, self.base())
    }
}

impl fmt::Display for PageIdx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page {} ({})", self.0, self.base())
    }
}

impl From<u32> for PageIdx {
    fn from(raw: u32) -> Self {
        PageIdx(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_math() {
        assert_eq!(Addr::new(0).page(), PageIdx::new(0));
        assert_eq!(Addr::new(4095).page(), PageIdx::new(0));
        assert_eq!(Addr::new(4096).page(), PageIdx::new(1));
        assert_eq!(Addr::new(u32::MAX).page(), PageIdx::new((1 << 20) - 1));
    }

    #[test]
    fn alignment() {
        let a = Addr::new(0x1003);
        assert!(!a.is_word_aligned());
        assert_eq!(a.align_down(4), Addr::new(0x1000));
        assert_eq!(a.align_up(4), Addr::new(0x1004));
        assert_eq!(Addr::new(0x1000).align_up(4096), Addr::new(0x1000));
        assert_eq!(Addr::new(0x1001).align_up(4096), Addr::new(0x2000));
    }

    #[test]
    fn arithmetic_and_conversions() {
        let a = Addr::new(100);
        assert_eq!((a + 28).raw(), 128);
        assert_eq!(a.checked_add(u32::MAX), None);
        assert_eq!(a.checked_sub(101), None);
        assert_eq!(Addr::new(8) - Addr::new(3), 5);
        assert_eq!(u32::from(Addr::new(7)), 7);
        assert_eq!(Addr::from(7u32), Addr::new(7));
        assert_eq!(Addr::MAX.wrapping_add(1), Addr::NULL);
    }

    #[test]
    fn page_offset_and_base() {
        let a = Addr::new(0x5432);
        assert_eq!(a.page_offset(), 0x432);
        assert_eq!(a.page().base(), Addr::new(0x5000));
        assert_eq!(a.page().next().base(), Addr::new(0x6000));
        assert_eq!(PageIdx::new(2).advance(3), PageIdx::new(5));
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(Addr::new(0x90000).to_string(), "0x00090000");
        assert_eq!(format!("{:x}", Addr::new(0xff)), "ff");
        assert_eq!(format!("{:X}", Addr::new(0xff)), "FF");
        assert_eq!(format!("{:?}", Addr::new(0x10)), "Addr(0x00000010)");
    }

    #[test]
    #[should_panic(expected = "alignment must be nonzero")]
    fn zero_alignment_panics() {
        let _ = Addr::new(1).align_down(0);
    }

    #[test]
    fn null_checks() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr::new(1).is_null());
        assert_eq!(Addr::default(), Addr::NULL);
    }

    #[test]
    fn align_up_saturates() {
        // Near the top of the address space, align_up must not wrap to 0.
        let a = Addr::new(u32::MAX - 2);
        assert!(a.align_up(4096).raw() > a.raw());
    }
}
