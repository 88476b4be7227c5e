//! Simulated 32-bit address space substrate for conservative garbage collection.
//!
//! The collector described in Boehm's *Space Efficient Conservative Garbage
//! Collection* (PLDI 1993) scans the stacks, registers, static data and heap
//! of a real process. This crate provides the equivalent substrate as a
//! deterministic simulation: a byte-addressed 32-bit [`AddressSpace`] holding
//! mapped [`Segment`]s (text, static data, stacks, a register file, heap
//! chunks, an environment block).
//!
//! Pointer misidentification — the phenomenon the paper studies — is purely a
//! function of the bit patterns stored in scanned words versus the addresses
//! occupied by the heap. A simulated image therefore reproduces the paper's
//! mechanisms exactly, while remaining safe and reproducible.
//!
//! # Example
//!
//! ```
//! use gc_vmspace::{AddressSpace, Endian, SegmentKind, SegmentSpec, Addr};
//!
//! # fn main() -> Result<(), gc_vmspace::VmError> {
//! let mut space = AddressSpace::new(Endian::Big);
//! let data = space.map(
//!     SegmentSpec::new("data", SegmentKind::Data, Addr::new(0x1_0000), 4096).root(true),
//! )?;
//! space.write_u32(Addr::new(0x1_0000), 0xdead_beef)?;
//! assert_eq!(space.read_u32(Addr::new(0x1_0000))?, 0xdead_beef);
//! assert!(space.segment(data).is_root());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod endian;
mod error;
mod segment;
mod space;

pub use addr::{Addr, PageIdx, PAGE_BYTES, PAGE_WORDS, WORD_BYTES};
pub use endian::Endian;
pub use error::VmError;
pub use segment::{Segment, SegmentId, SegmentKind, SegmentSpec};
pub use space::AddressSpace;
