//! Compact fixed-size bitmaps used for per-object mark and allocation bits.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fixed-length bitmap.
///
/// One bit per object slot in a heap block, in the style of bdwgc's per-block
/// mark bit arrays. Bits are indexed from 0.
///
/// # Example
///
/// ```
/// use gc_heap::Bitmap;
/// let mut b = Bitmap::new(100);
/// b.set(3);
/// assert!(b.get(3));
/// assert_eq!(b.count_ones(), 1);
/// b.clear_all();
/// assert_eq!(b.count_ones(), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bitmap {
    words: Vec<u64>,
    nbits: u32,
}

impl Bitmap {
    /// Creates a bitmap of `nbits` bits, all zero.
    pub fn new(nbits: u32) -> Self {
        Bitmap {
            words: vec![0; nbits.div_ceil(64) as usize],
            nbits,
        }
    }

    /// Number of bits in the map.
    pub fn len(&self) -> u32 {
        self.nbits
    }

    /// Returns `true` if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        self.words[(i / 64) as usize] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: u32) {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        self.words[(i / 64) as usize] |= 1 << (i % 64);
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn clear(&mut self, i: u32) {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
        self.words[(i / 64) as usize] &= !(1 << (i % 64));
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(self.words.iter().copied(), self.nbits)
    }

    /// Iterates over the indices of clear bits in increasing order.
    pub fn iter_zeros(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(self.words.iter().map(|w| !w), self.nbits)
    }

    /// The backing words, 64 bits each, bit `i` at `words()[i / 64]` bit
    /// `i % 64`. Bits at or beyond [`len`](Self::len) are always zero.
    ///
    /// Lets whole-bitmap set algebra (e.g. the sweep kernel) run one word
    /// at a time instead of one bit at a time.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable backing words, for word-at-a-time updates. Callers must
    /// keep bits at or beyond [`len`](Self::len) zero.
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }
}

/// The indices of the set bits of `words` (bit `i` in word `i / 64`) below
/// `nbits`, ascending: one `trailing_zeros` per set bit instead of one test
/// per bit.
fn set_bits(words: impl Iterator<Item = u64>, nbits: u32) -> impl Iterator<Item = u32> {
    words.enumerate().flat_map(move |(wi, w)| {
        let base = wi as u32 * 64;
        let mut w = match nbits - base {
            n if n >= 64 => w,
            n => w & ((1 << n) - 1),
        };
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let bit = w.trailing_zeros();
                w &= w - 1;
                base + bit
            })
        })
    })
}

impl fmt::Debug for Bitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bitmap({}/{} set)", self.count_ones(), self.nbits)
    }
}

/// A fixed-length bitmap whose bits can be set through a shared reference.
///
/// Used for per-block *mark* bits so parallel mark workers can test-and-set
/// marks over `&Heap` without synchronizing on anything wider than one
/// `AtomicU64` word. Serial paths keep the cheap non-atomic API through
/// `&mut self` (which the borrow checker proves exclusive, so plain
/// loads/stores via [`AtomicU64::get_mut`] are exact).
///
/// All atomic accesses are `Relaxed`: mark bits carry no data dependencies —
/// workers publish their results through the scoped-thread join, which is
/// already a full synchronization point.
///
/// # Example
///
/// ```
/// use gc_heap::AtomicBitmap;
/// let b = AtomicBitmap::new(100);
/// assert!(b.set_atomic(3), "first setter wins");
/// assert!(!b.set_atomic(3), "already set");
/// assert!(b.get(3));
/// assert_eq!(b.count_ones(), 1);
/// ```
pub struct AtomicBitmap {
    words: Vec<AtomicU64>,
    nbits: u32,
}

impl AtomicBitmap {
    /// Creates a bitmap of `nbits` bits, all zero.
    pub fn new(nbits: u32) -> Self {
        AtomicBitmap {
            words: (0..nbits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            nbits,
        }
    }

    /// Number of bits in the map.
    pub fn len(&self) -> u32 {
        self.nbits
    }

    /// Returns `true` if the bitmap has zero bits.
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    #[inline]
    fn check(&self, i: u32) {
        assert!(i < self.nbits, "bit index {i} out of range {}", self.nbits);
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: u32) -> bool {
        self.check(i);
        self.words[(i / 64) as usize].load(Ordering::Relaxed) >> (i % 64) & 1 == 1
    }

    /// Atomically sets bit `i`, returning `true` iff this call changed it
    /// from 0 to 1 (i.e. the caller won the race to mark).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set_atomic(&self, i: u32) -> bool {
        self.check(i);
        let mask = 1u64 << (i % 64);
        let prev = self.words[(i / 64) as usize].fetch_or(mask, Ordering::Relaxed);
        prev & mask == 0
    }

    /// Sets bit `i` through a shared reference *without* an atomic
    /// read-modify-write, returning `true` iff the bit was clear.
    ///
    /// Equivalent to [`set_atomic`](Self::set_atomic) only while a single
    /// thread is setting bits: the load and store are separate, so two
    /// racing callers could both observe 0 and both report `true`. The
    /// single-worker mark drain uses this to skip the locked RMW cycle
    /// that `fetch_or` costs on every newly marked object.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set_relaxed(&self, i: u32) -> bool {
        self.check(i);
        let mask = 1u64 << (i % 64);
        let word = &self.words[(i / 64) as usize];
        let prev = word.load(Ordering::Relaxed);
        if prev & mask != 0 {
            return false;
        }
        word.store(prev | mask, Ordering::Relaxed);
        true
    }

    /// Sets bit `i` through exclusive access (serial fast path).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: u32) {
        self.check(i);
        *self.words[(i / 64) as usize].get_mut() |= 1 << (i % 64);
    }

    /// Clears bit `i` through exclusive access.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn clear(&mut self, i: u32) {
        self.check(i);
        *self.words[(i / 64) as usize].get_mut() &= !(1 << (i % 64));
    }

    /// Clears every bit through exclusive access.
    pub fn clear_all(&mut self) {
        for w in &mut self.words {
            *w.get_mut() = 0;
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> u32 {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones())
            .sum()
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(
            self.words.iter().map(|w| w.load(Ordering::Relaxed)),
            self.nbits,
        )
    }

    /// Iterates over the indices of clear bits in increasing order.
    pub fn iter_zeros(&self) -> impl Iterator<Item = u32> + '_ {
        set_bits(
            self.words.iter().map(|w| !w.load(Ordering::Relaxed)),
            self.nbits,
        )
    }

    /// Reads backing word `i` (bits `64 * i ..`), or 0 past the end.
    /// The word-at-a-time counterpart of [`Bitmap::words`] for mark bits.
    pub fn word(&self, i: usize) -> u64 {
        self.words.get(i).map_or(0, |w| w.load(Ordering::Relaxed))
    }
}

impl Clone for AtomicBitmap {
    fn clone(&self) -> Self {
        AtomicBitmap {
            words: self
                .words
                .iter()
                .map(|w| AtomicU64::new(w.load(Ordering::Relaxed)))
                .collect(),
            nbits: self.nbits,
        }
    }
}

impl PartialEq for AtomicBitmap {
    fn eq(&self, other: &Self) -> bool {
        self.nbits == other.nbits
            && self
                .words
                .iter()
                .zip(&other.words)
                .all(|(a, b)| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed))
    }
}

impl Eq for AtomicBitmap {}

impl fmt::Debug for AtomicBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AtomicBitmap({}/{} set)", self.count_ones(), self.nbits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut b = Bitmap::new(130);
        for i in [0, 63, 64, 65, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 5);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.count_ones(), 4);
    }

    #[test]
    fn iteration() {
        let mut b = Bitmap::new(10);
        b.set(1);
        b.set(7);
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![1, 7]);
        assert_eq!(b.iter_zeros().count(), 8);
    }

    #[test]
    fn word_iteration_matches_bit_tests() {
        // Lengths on, just past, and short of word boundaries.
        for nbits in [1u32, 63, 64, 65, 128, 170, 341] {
            let mut b = Bitmap::new(nbits);
            for i in (0..nbits).filter(|i| i % 3 == 0 || i % 64 == 63) {
                b.set(i);
            }
            let ones: Vec<u32> = (0..nbits).filter(|&i| b.get(i)).collect();
            let zeros: Vec<u32> = (0..nbits).filter(|&i| !b.get(i)).collect();
            assert_eq!(b.iter_ones().collect::<Vec<_>>(), ones, "{nbits} bits");
            assert_eq!(b.iter_zeros().collect::<Vec<_>>(), zeros, "{nbits} bits");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        Bitmap::new(8).get(8);
    }

    #[test]
    fn empty_bitmap() {
        let b = Bitmap::new(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn clear_all_resets() {
        let mut b = Bitmap::new(200);
        for i in 0..200 {
            b.set(i);
        }
        assert_eq!(b.count_ones(), 200);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn atomic_set_get_clear() {
        let mut b = AtomicBitmap::new(130);
        for i in [0u32, 63, 64, 65, 129] {
            assert!(!b.get(i));
            b.set(i);
            assert!(b.get(i));
        }
        assert_eq!(b.count_ones(), 5);
        b.clear(64);
        assert!(!b.get(64));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 65, 129]);
        assert_eq!(b.iter_zeros().count(), 126);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn atomic_test_and_set_reports_winner() {
        let b = AtomicBitmap::new(70);
        assert!(b.set_atomic(69), "first set transitions 0 -> 1");
        assert!(!b.set_atomic(69), "second set sees the bit already on");
        assert!(b.get(69));
        assert_eq!(b.count_ones(), 1);
    }

    #[test]
    fn relaxed_set_matches_atomic_semantics_single_threaded() {
        let b = AtomicBitmap::new(70);
        assert!(b.set_relaxed(69), "first set transitions 0 -> 1");
        assert!(!b.set_relaxed(69), "second set sees the bit already on");
        assert!(!b.set_atomic(69), "agrees with the atomic view");
        assert!(b.set_relaxed(3));
        assert_eq!(b.count_ones(), 2);
    }

    #[test]
    fn atomic_concurrent_marking_counts_each_bit_once() {
        // Core of the parallel-mark determinism argument: across racing
        // setters, exactly one claims each bit.
        let b = AtomicBitmap::new(512);
        let won: u32 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let b = &b;
                    s.spawn(move || (0..512).filter(|&i| b.set_atomic(i)).count() as u32)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker ok"))
                .sum()
        });
        assert_eq!(won, 512, "every bit claimed exactly once");
        assert_eq!(b.count_ones(), 512);
    }

    #[test]
    fn atomic_clone_and_eq() {
        let mut a = AtomicBitmap::new(80);
        a.set(5);
        a.set(79);
        let c = a.clone();
        assert_eq!(a, c);
        assert!(c.get(5) && c.get(79));
        let d = AtomicBitmap::new(80);
        assert_ne!(a, d);
        assert!(AtomicBitmap::new(0).is_empty());
        assert_eq!(a.len(), 80);
        assert_eq!(format!("{a:?}"), "AtomicBitmap(2/80 set)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn atomic_out_of_range_panics() {
        AtomicBitmap::new(8).get(8);
    }
}
