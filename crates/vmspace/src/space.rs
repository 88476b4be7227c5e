//! The simulated address space: a collection of mapped segments.

use crate::{Addr, Endian, Segment, SegmentId, SegmentSpec, VmError};
use std::sync::atomic::{AtomicU32, Ordering};

/// Sentinel for "no cached segment" in the lookup cache.
const NO_CACHE: u32 = u32::MAX;

/// A simulated 32-bit, byte-addressed address space.
///
/// An `AddressSpace` is a set of non-overlapping [`Segment`]s. All multi-byte
/// accesses honour the space's [`Endian`]; accesses to unmapped addresses and
/// writes to read-only segments fault with a typed [`VmError`] rather than
/// panicking, so workloads can observe faults.
///
/// Unaligned reads are permitted: conservative collectors on machines without
/// alignment guarantees must consider every byte offset (§2 of the paper),
/// so the substrate cannot reject them.
///
/// # Example
///
/// ```
/// use gc_vmspace::{AddressSpace, Endian, SegmentKind, SegmentSpec, Addr};
/// # fn main() -> Result<(), gc_vmspace::VmError> {
/// let mut space = AddressSpace::new(Endian::Big);
/// space.map(SegmentSpec::new("stack", SegmentKind::Stack, Addr::new(0xf000_0000), 8192))?;
/// space.write_u32(Addr::new(0xf000_0040), 42)?;
/// assert_eq!(space.read_u32(Addr::new(0xf000_0040))?, 42);
/// assert!(space.read_u32(Addr::new(0x10)).is_err()); // unmapped
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AddressSpace {
    endian: Endian,
    slots: Vec<Option<Segment>>,
    /// Live segments sorted by base address.
    order: Vec<(Addr, SegmentId)>,
    /// Two-entry lookup cache, most recently used first. Conservative
    /// scans touch long runs of addresses within one segment, and a
    /// mutator alternates between its stack and the heap, so one of the
    /// two hits almost always. Atomic (relaxed; `NO_CACHE` = empty) so
    /// lookups through `&AddressSpace` can update it while the space stays
    /// `Sync` — the cache is only ever a hint.
    cache: [AtomicU32; 2],
}

impl Clone for AddressSpace {
    fn clone(&self) -> Self {
        AddressSpace {
            endian: self.endian,
            slots: self.slots.clone(),
            order: self.order.clone(),
            cache: self
                .cache
                .each_ref()
                .map(|c| AtomicU32::new(c.load(Ordering::Relaxed))),
        }
    }
}

impl AddressSpace {
    /// Creates an empty address space with the given byte order.
    pub fn new(endian: Endian) -> Self {
        AddressSpace {
            endian,
            slots: Vec::new(),
            order: Vec::new(),
            cache: [AtomicU32::new(NO_CACHE), AtomicU32::new(NO_CACHE)],
        }
    }

    /// The byte order used for multi-byte accesses.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Maps a new segment described by `spec`.
    ///
    /// The segment's memory is zero-initialized.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Overlap`] if the range intersects an existing
    /// segment and [`VmError::OutOfSpace`] if it extends past 4 GiB.
    ///
    /// # Panics
    ///
    /// Panics if `spec.len()` is zero.
    pub fn map(&mut self, spec: SegmentSpec) -> Result<SegmentId, VmError> {
        assert!(spec.len > 0, "cannot map an empty segment");
        let base = spec.base;
        let len = spec.len;
        let end = u64::from(base.raw()) + u64::from(len);
        if end > 1 << 32 {
            return Err(VmError::OutOfSpace { base, len });
        }
        // Find the insertion point among live segments ordered by base.
        let pos = self.order.partition_point(|&(b, _)| b < base);
        if let Some(&(_, prev_id)) = pos.checked_sub(1).and_then(|p| self.order.get(p)) {
            if self.segment(prev_id).end() > u64::from(base.raw()) {
                return Err(VmError::Overlap { base, len });
            }
        }
        if let Some(&(next_base, _)) = self.order.get(pos) {
            if u64::from(next_base.raw()) < end {
                return Err(VmError::Overlap { base, len });
            }
        }
        let id = SegmentId(self.slots.len() as u32);
        self.slots.push(Some(Segment {
            id,
            name: spec.name,
            kind: spec.kind,
            base,
            data: vec![0; len as usize],
            root: spec.root,
            writable: spec.writable,
            root_window: None,
        }));
        self.order.insert(pos, (base, id));
        Ok(id)
    }

    /// Extends a segment in place by `extra` zero bytes (e.g. contiguous
    /// heap growth, like `sbrk`). The segment's base is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Overlap`] if another segment begins inside the
    /// extension range, and [`VmError::OutOfSpace`] past 4 GiB.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live segment.
    pub fn extend(&mut self, id: SegmentId, extra: u32) -> Result<(), VmError> {
        let (old_end, base) = {
            let seg = self.segment(id);
            (seg.end(), seg.base())
        };
        let new_end = old_end + u64::from(extra);
        if new_end > 1 << 32 {
            return Err(VmError::OutOfSpace {
                base: Addr::new(old_end as u32),
                len: extra,
            });
        }
        // The next live segment (by base) must start at or after the new end.
        let pos = self.order.partition_point(|&(b, _)| b <= base);
        if let Some(&(next_base, _)) = self.order.get(pos) {
            if u64::from(next_base.raw()) < new_end {
                return Err(VmError::Overlap {
                    base: Addr::new(old_end as u32),
                    len: extra,
                });
            }
        }
        let seg = self.slots[id.0 as usize]
            .as_mut()
            .expect("segment is mapped");
        seg.data.resize(seg.data.len() + extra as usize, 0);
        Ok(())
    }

    /// Unmaps a segment. Its id is never reused.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live segment.
    pub fn unmap(&mut self, id: SegmentId) {
        let seg = self.slots[id.0 as usize]
            .take()
            .expect("segment already unmapped");
        let pos = self
            .order
            .iter()
            .position(|&(_, oid)| oid == id)
            .expect("live segment present in order index");
        self.order.remove(pos);
        let _ = seg;
        for entry in &self.cache {
            entry.store(NO_CACHE, Ordering::Relaxed);
        }
    }

    /// Returns the live segment with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the segment was never mapped or has been unmapped.
    #[inline]
    pub fn segment(&self, id: SegmentId) -> &Segment {
        self.slots[id.0 as usize]
            .as_ref()
            .expect("segment is mapped")
    }

    /// Returns the live segment with the given id, or `None` if unmapped.
    #[inline]
    pub fn try_segment(&self, id: SegmentId) -> Option<&Segment> {
        self.slots.get(id.0 as usize)?.as_ref()
    }

    /// Restricts (or, with `None`, unrestricts) the root-scanned window of
    /// a segment. Used by the mutator to expose only the live portion
    /// `[sp, top)` of each stack to the collector.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live segment.
    #[inline]
    pub fn set_root_window(&mut self, id: SegmentId, window: Option<(Addr, Addr)>) {
        self.slots[id.0 as usize]
            .as_mut()
            .expect("segment is mapped")
            .root_window = window;
    }

    /// Changes whether a segment is scanned as a GC root.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not refer to a live segment.
    pub fn set_root(&mut self, id: SegmentId, root: bool) {
        self.slots[id.0 as usize]
            .as_mut()
            .expect("segment is mapped")
            .root = root;
    }

    /// Iterates over live segments in address order.
    pub fn segments(&self) -> impl Iterator<Item = &Segment> + '_ {
        self.order.iter().map(move |&(_, id)| self.segment(id))
    }

    /// Iterates over live segments scanned as GC roots, in address order.
    pub fn roots(&self) -> impl Iterator<Item = &Segment> + '_ {
        self.segments().filter(|s| s.is_root())
    }

    /// Finds the segment containing `addr`, if any.
    #[inline]
    pub fn find(&self, addr: Addr) -> Option<&Segment> {
        let [first, second] = &self.cache;
        let mru = first.load(Ordering::Relaxed);
        if let Some(seg) = self.cached(mru, addr) {
            return Some(seg);
        }
        let other = second.load(Ordering::Relaxed);
        let seg = match self.cached(other, addr) {
            Some(seg) => seg,
            None => self.search(addr)?,
        };
        first.store(seg.id().0, Ordering::Relaxed);
        second.store(mru, Ordering::Relaxed);
        Some(seg)
    }

    /// The cache entry `entry`'s segment, if it is live and holds `addr`.
    #[inline]
    fn cached(&self, entry: u32, addr: Addr) -> Option<&Segment> {
        if entry == NO_CACHE {
            return None;
        }
        self.try_segment(SegmentId(entry))
            .filter(|seg| seg.contains(addr))
    }

    /// The segment holding `addr`, by binary search over `order`.
    fn search(&self, addr: Addr) -> Option<&Segment> {
        let pos = self.order.partition_point(|&(b, _)| b <= addr);
        let (_, id) = *self.order.get(pos.checked_sub(1)?)?;
        Some(self.segment(id)).filter(|seg| seg.contains(addr))
    }

    /// Returns `true` if `addr` lies in some mapped segment.
    pub fn is_mapped(&self, addr: Addr) -> bool {
        self.find(addr).is_some()
    }

    /// Total bytes currently mapped.
    pub fn mapped_bytes(&self) -> u64 {
        self.segments().map(|s| u64::from(s.len())).sum()
    }

    #[inline]
    fn locate(&self, addr: Addr, width: u32) -> Result<(&Segment, usize), VmError> {
        let seg = self.find(addr).ok_or(VmError::Unmapped { addr })?;
        let off = addr - seg.base;
        if u64::from(addr.raw()) + u64::from(width) > seg.end() {
            return Err(VmError::Torn { addr, width });
        }
        Ok((seg, off as usize))
    }

    #[inline]
    fn locate_mut(&mut self, addr: Addr, width: u32) -> Result<(&mut Segment, usize), VmError> {
        let id = {
            let seg = self.find(addr).ok_or(VmError::Unmapped { addr })?;
            if u64::from(addr.raw()) + u64::from(width) > seg.end() {
                return Err(VmError::Torn { addr, width });
            }
            if !seg.is_writable() {
                return Err(VmError::ReadOnly { addr });
            }
            seg.id()
        };
        let seg = self.slots[id.0 as usize]
            .as_mut()
            .expect("segment is mapped");
        let off = (addr - seg.base) as usize;
        Ok((seg, off))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Unmapped`] for unmapped addresses.
    pub fn read_u8(&self, addr: Addr) -> Result<u8, VmError> {
        let (seg, off) = self.locate(addr, 1)?;
        Ok(seg.data[off])
    }

    /// Reads a 16-bit value at any byte alignment.
    ///
    /// # Errors
    ///
    /// Faults if unmapped or if the access crosses the segment end.
    pub fn read_u16(&self, addr: Addr) -> Result<u16, VmError> {
        let (seg, off) = self.locate(addr, 2)?;
        Ok(self.endian.read_u16(&seg.data[off..off + 2]))
    }

    /// Reads a 32-bit word at any byte alignment.
    ///
    /// # Errors
    ///
    /// Faults if unmapped or if the access crosses the segment end.
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> Result<u32, VmError> {
        let (seg, off) = self.locate(addr, 4)?;
        Ok(self.endian.read_u32(&seg.data[off..off + 4]))
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Faults if unmapped or read-only.
    pub fn write_u8(&mut self, addr: Addr, value: u8) -> Result<(), VmError> {
        let (seg, off) = self.locate_mut(addr, 1)?;
        seg.data[off] = value;
        Ok(())
    }

    /// Writes a 16-bit value at any byte alignment.
    ///
    /// # Errors
    ///
    /// Faults if unmapped, read-only, or crossing the segment end.
    pub fn write_u16(&mut self, addr: Addr, value: u16) -> Result<(), VmError> {
        let bytes = self.endian.u16_bytes(value);
        let (seg, off) = self.locate_mut(addr, 2)?;
        seg.data[off..off + 2].copy_from_slice(&bytes);
        Ok(())
    }

    /// Writes a 32-bit word at any byte alignment.
    ///
    /// # Errors
    ///
    /// Faults if unmapped, read-only, or crossing the segment end.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, value: u32) -> Result<(), VmError> {
        let bytes = self.endian.u32_bytes(value);
        let (seg, off) = self.locate_mut(addr, 4)?;
        seg.data[off..off + 4].copy_from_slice(&bytes);
        Ok(())
    }

    /// Writes consecutive 32-bit words starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults like [`AddressSpace::write_u32`]; on error a prefix of the
    /// words may already have been written.
    pub fn write_words(&mut self, addr: Addr, words: &[u32]) -> Result<(), VmError> {
        for (i, &w) in words.iter().enumerate() {
            self.write_u32(addr + (i as u32) * 4, w)?;
        }
        Ok(())
    }

    /// Reads `len` consecutive bytes as a borrowed slice.
    ///
    /// # Errors
    ///
    /// Faults if the whole range is not inside a single mapped segment.
    #[inline]
    pub fn bytes_at(&self, addr: Addr, len: u32) -> Result<&[u8], VmError> {
        let (seg, off) = self.locate(addr, len)?;
        Ok(&seg.data[off..off + len as usize])
    }

    /// Copies raw bytes into memory starting at `addr`.
    ///
    /// # Errors
    ///
    /// Faults if the whole range is not inside a single writable segment.
    pub fn write_bytes(&mut self, addr: Addr, bytes: &[u8]) -> Result<(), VmError> {
        let (seg, off) = self.locate_mut(addr, bytes.len() as u32)?;
        seg.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Fills `len` bytes starting at `addr` with `byte`.
    ///
    /// # Errors
    ///
    /// Faults if the whole range is not inside a single writable segment.
    #[inline]
    pub fn fill(&mut self, addr: Addr, len: u32, byte: u8) -> Result<(), VmError> {
        let (seg, off) = self.locate_mut(addr, len)?;
        seg.data[off..off + len as usize].fill(byte);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SegmentKind;

    fn space_with(base: u32, len: u32) -> (AddressSpace, SegmentId) {
        let mut s = AddressSpace::new(Endian::Big);
        let id = s
            .map(SegmentSpec::new(
                "t",
                SegmentKind::Data,
                Addr::new(base),
                len,
            ))
            .expect("mapping succeeds");
        (s, id)
    }

    #[test]
    fn read_write_roundtrip() {
        let (mut s, _) = space_with(0x1000, 0x1000);
        s.write_u32(Addr::new(0x1004), 0x0102_0304).unwrap();
        assert_eq!(s.read_u32(Addr::new(0x1004)).unwrap(), 0x0102_0304);
        // Big-endian byte layout.
        assert_eq!(s.read_u8(Addr::new(0x1004)).unwrap(), 0x01);
        assert_eq!(s.read_u8(Addr::new(0x1007)).unwrap(), 0x04);
        // Unaligned read sees the shifted word.
        s.write_u32(Addr::new(0x1008), 0x0506_0708).unwrap();
        assert_eq!(s.read_u32(Addr::new(0x1006)).unwrap(), 0x0304_0506);
    }

    #[test]
    fn little_endian_layout() {
        let mut s = AddressSpace::new(Endian::Little);
        s.map(SegmentSpec::new("t", SegmentKind::Data, Addr::new(0), 16))
            .unwrap();
        s.write_u32(Addr::new(0), 0x0102_0304).unwrap();
        assert_eq!(s.read_u8(Addr::new(0)).unwrap(), 0x04);
        assert_eq!(s.read_u8(Addr::new(3)).unwrap(), 0x01);
    }

    #[test]
    fn unmapped_faults() {
        let (s, _) = space_with(0x1000, 0x1000);
        assert_eq!(
            s.read_u32(Addr::new(0x4000)),
            Err(VmError::Unmapped {
                addr: Addr::new(0x4000)
            })
        );
        assert_eq!(
            s.read_u8(Addr::new(0xfff)),
            Err(VmError::Unmapped {
                addr: Addr::new(0xfff)
            })
        );
    }

    #[test]
    fn torn_access_faults() {
        let (s, _) = space_with(0x1000, 0x1000);
        assert_eq!(
            s.read_u32(Addr::new(0x1ffd)),
            Err(VmError::Torn {
                addr: Addr::new(0x1ffd),
                width: 4
            })
        );
        // Last valid word read.
        assert!(s.read_u32(Addr::new(0x1ffc)).is_ok());
    }

    #[test]
    fn read_only_segments_reject_writes() {
        let mut s = AddressSpace::new(Endian::Big);
        s.map(SegmentSpec::new(
            "text",
            SegmentKind::Text,
            Addr::new(0x2000),
            0x1000,
        ))
        .unwrap();
        assert_eq!(
            s.write_u32(Addr::new(0x2000), 1),
            Err(VmError::ReadOnly {
                addr: Addr::new(0x2000)
            })
        );
        assert_eq!(s.read_u32(Addr::new(0x2000)).unwrap(), 0);
    }

    #[test]
    fn overlap_rejected() {
        let (mut s, _) = space_with(0x1000, 0x1000);
        for (base, len) in [(0x1000, 1u32), (0xfff, 2), (0x1fff, 1), (0x800, 0x2000)] {
            let err = s
                .map(SegmentSpec::new(
                    "o",
                    SegmentKind::Data,
                    Addr::new(base),
                    len,
                ))
                .unwrap_err();
            assert_eq!(
                err,
                VmError::Overlap {
                    base: Addr::new(base),
                    len
                }
            );
        }
        // Adjacent segments are fine.
        assert!(s
            .map(SegmentSpec::new(
                "lo",
                SegmentKind::Data,
                Addr::new(0xf00),
                0x100
            ))
            .is_ok());
        assert!(s
            .map(SegmentSpec::new(
                "hi",
                SegmentKind::Data,
                Addr::new(0x2000),
                0x100
            ))
            .is_ok());
    }

    #[test]
    fn out_of_space_rejected() {
        let mut s = AddressSpace::new(Endian::Big);
        let err = s
            .map(SegmentSpec::new(
                "big",
                SegmentKind::Data,
                Addr::new(u32::MAX - 10),
                12,
            ))
            .unwrap_err();
        assert_eq!(
            err,
            VmError::OutOfSpace {
                base: Addr::new(u32::MAX - 10),
                len: 12
            }
        );
        // Ending exactly at 4 GiB is allowed.
        assert!(s
            .map(SegmentSpec::new(
                "top",
                SegmentKind::Data,
                Addr::new(u32::MAX - 11),
                12
            ))
            .is_ok());
    }

    #[test]
    fn extend_grows_in_place() {
        let (mut s, id) = space_with(0x1000, 0x1000);
        s.write_u32(Addr::new(0x1ffc), 7).unwrap();
        s.extend(id, 0x1000).unwrap();
        assert_eq!(s.segment(id).len(), 0x2000);
        assert_eq!(
            s.read_u32(Addr::new(0x1ffc)).unwrap(),
            7,
            "old data preserved"
        );
        assert_eq!(
            s.read_u32(Addr::new(0x2ffc)).unwrap(),
            0,
            "extension zeroed"
        );
        // A word access across the old boundary now works.
        assert!(s.read_u32(Addr::new(0x1ffe)).is_ok());
    }

    #[test]
    fn extend_rejects_collisions_and_overflow() {
        let (mut s, id) = space_with(0x1000, 0x1000);
        s.map(SegmentSpec::new(
            "next",
            SegmentKind::Data,
            Addr::new(0x3000),
            0x1000,
        ))
        .unwrap();
        assert!(
            matches!(s.extend(id, 0x1000), Ok(())),
            "gap up to 0x3000 is free"
        );
        assert!(matches!(s.extend(id, 1), Err(VmError::Overlap { .. })));
        let top = s
            .map(SegmentSpec::new(
                "top",
                SegmentKind::Data,
                Addr::new(u32::MAX - 0xfff),
                0x1000,
            ))
            .unwrap();
        assert!(matches!(s.extend(top, 1), Err(VmError::OutOfSpace { .. })));
    }

    #[test]
    fn unmap_frees_range_for_remapping() {
        let (mut s, id) = space_with(0x1000, 0x1000);
        s.unmap(id);
        assert!(!s.is_mapped(Addr::new(0x1000)));
        assert!(s.try_segment(id).is_none());
        let id2 = s
            .map(SegmentSpec::new(
                "again",
                SegmentKind::Data,
                Addr::new(0x1000),
                0x1000,
            ))
            .unwrap();
        assert_ne!(id, id2);
        assert!(s.is_mapped(Addr::new(0x1000)));
    }

    #[test]
    fn cache_consistency_across_unmap() {
        let (mut s, id) = space_with(0x1000, 0x1000);
        // Warm the cache.
        assert!(s.read_u8(Addr::new(0x1000)).is_ok());
        s.unmap(id);
        assert!(s.read_u8(Addr::new(0x1000)).is_err());
    }

    #[test]
    fn roots_filter() {
        let mut s = AddressSpace::new(Endian::Big);
        s.map(SegmentSpec::new(
            "text",
            SegmentKind::Text,
            Addr::new(0x1000),
            0x100,
        ))
        .unwrap();
        s.map(SegmentSpec::new(
            "data",
            SegmentKind::Data,
            Addr::new(0x2000),
            0x100,
        ))
        .unwrap();
        s.map(SegmentSpec::new(
            "heap",
            SegmentKind::Heap,
            Addr::new(0x3000),
            0x100,
        ))
        .unwrap();
        let roots: Vec<_> = s.roots().map(|r| r.name().to_owned()).collect();
        assert_eq!(roots, vec!["data"]);
        assert_eq!(s.mapped_bytes(), 0x300);
    }

    #[test]
    fn segments_iterate_in_address_order() {
        let mut s = AddressSpace::new(Endian::Big);
        s.map(SegmentSpec::new(
            "c",
            SegmentKind::Data,
            Addr::new(0x3000),
            0x100,
        ))
        .unwrap();
        s.map(SegmentSpec::new(
            "a",
            SegmentKind::Data,
            Addr::new(0x1000),
            0x100,
        ))
        .unwrap();
        s.map(SegmentSpec::new(
            "b",
            SegmentKind::Data,
            Addr::new(0x2000),
            0x100,
        ))
        .unwrap();
        let names: Vec<_> = s.segments().map(|x| x.name().to_owned()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn fill_and_bytes_at() {
        let (mut s, _) = space_with(0, 64);
        s.fill(Addr::new(8), 8, 0xab).unwrap();
        assert_eq!(s.bytes_at(Addr::new(8), 8).unwrap(), &[0xab; 8]);
        assert_eq!(s.bytes_at(Addr::new(0), 4).unwrap(), &[0; 4]);
        assert!(s.bytes_at(Addr::new(60), 8).is_err());
    }

    #[test]
    fn write_words_sequence() {
        let (mut s, _) = space_with(0, 64);
        s.write_words(Addr::new(16), &[1, 2, 3]).unwrap();
        assert_eq!(s.read_u32(Addr::new(16)).unwrap(), 1);
        assert_eq!(s.read_u32(Addr::new(20)).unwrap(), 2);
        assert_eq!(s.read_u32(Addr::new(24)).unwrap(), 3);
    }

    #[test]
    fn address_space_is_sync() {
        // The lookup cache is updated through `&self`; the space stays shareable.
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<AddressSpace>();
    }

    #[test]
    fn clone_preserves_cache_hint() {
        let (s, _) = space_with(0x1000, 0x1000);
        assert!(s.read_u8(Addr::new(0x1000)).is_ok()); // warm the cache
        let c = s.clone();
        assert!(c.read_u8(Addr::new(0x1000)).is_ok());
        assert_eq!(c.mapped_bytes(), s.mapped_bytes());
    }

    #[test]
    fn set_root_toggles_scanning() {
        let (mut s, id) = space_with(0x1000, 0x100);
        assert_eq!(s.roots().count(), 1);
        s.set_root(id, false);
        assert_eq!(s.roots().count(), 0);
    }

    /// A stack at the top of the space, a heap and static data, as a
    /// mutator maps them.
    fn three_segments() -> (AddressSpace, [SegmentId; 3]) {
        let mut s = AddressSpace::new(Endian::Big);
        let mut map = |name, kind, base: u32, len| {
            s.map(SegmentSpec::new(name, kind, Addr::new(base), len))
                .unwrap()
        };
        let ids = [
            map("static", SegmentKind::Data, 0x2_0000, 0x1000),
            map("heap", SegmentKind::Heap, 0x10_0000, 0x4_0000),
            map("stack", SegmentKind::Stack, 0xffff_0000, 0x1_0000),
        ];
        (s, ids)
    }

    #[test]
    fn cached_lookups_match_a_reference_scan_across_segments() {
        let (s, _) = three_segments();
        let reference = |addr: Addr| s.segments().find(|g| g.contains(addr)).map(|g| g.id());
        // Every segment's edges, the gaps beside them and the top of the
        // space, then a pseudo-random walk that keeps switching segments.
        let mut addrs: Vec<u32> = s
            .segments()
            .flat_map(|g| {
                let (base, end) = (g.base().raw(), (g.end() - 1) as u32);
                [
                    base.wrapping_sub(1),
                    base,
                    base + 4,
                    end,
                    end.wrapping_add(1),
                ]
            })
            .chain([0, u32::MAX])
            .collect();
        let mut x = 0x2545_f491_u32;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let seg = s.segments().nth(x as usize % 3).unwrap();
            let off = (x >> 8) % (seg.len() + 64);
            addrs.push(seg.base().raw().wrapping_add(off));
        }
        for (i, &a) in addrs.iter().enumerate() {
            let addr = Addr::new(a);
            assert_eq!(
                s.find(addr).map(Segment::id),
                reference(addr),
                "lookup {i} of {a:#x}"
            );
        }
    }

    #[test]
    fn unmap_clears_both_cache_entries() {
        let (mut s, [data, heap, stack]) = three_segments();
        let (in_heap, in_stack) = (Addr::new(0x10_0010), Addr::new(0xffff_fff0));
        // Both entries hold a segment about to go.
        assert_eq!(s.find(in_heap).map(Segment::id), Some(heap));
        assert_eq!(s.find(in_stack).map(Segment::id), Some(stack));
        let entries = |s: &AddressSpace| s.cache.each_ref().map(|e| e.load(Ordering::Relaxed));
        s.unmap(heap);
        assert!(!entries(&s).contains(&heap.raw()));
        assert!(s.find(in_heap).is_none());
        assert_eq!(s.find(in_stack).map(Segment::id), Some(stack));
        s.unmap(stack);
        assert!(!entries(&s).contains(&stack.raw()));
        assert!(s.find(in_stack).is_none());
        // A segment mapped over the old range is found under its new id.
        let again = s
            .map(SegmentSpec::new(
                "heap2",
                SegmentKind::Heap,
                Addr::new(0x10_0000),
                0x1000,
            ))
            .unwrap();
        assert_eq!(s.find(in_heap).map(Segment::id), Some(again));
        assert_eq!(s.find(Addr::new(0x2_0000)).map(Segment::id), Some(data));
    }
}
