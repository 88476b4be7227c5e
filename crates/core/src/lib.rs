//! Conservative mark-sweep garbage collection with page-level blacklisting.
//!
//! This crate is the core of a reproduction of Hans-J. Boehm, *Space
//! Efficient Conservative Garbage Collection*, PLDI 1993. A conservative
//! collector has only partial knowledge of pointer locations and must treat
//! any plausible bit pattern as a pointer; the paper shows that cheap,
//! previously unused techniques nearly eliminate the resulting spurious
//! retention:
//!
//! * **Blacklisting** (figure 2, [`Blacklist`]): invalid candidate pointers
//!   near the heap are recorded during marking, and the allocator never
//!   places vulnerable objects on those pages. A collection at startup
//!   guarantees static data's false references are neutralized before any
//!   allocation.
//! * **Interior-pointer policies** ([`PointerPolicy`]): from the hard
//!   "any interior pointer retains" case to exact base-only pointers.
//! * **Stack hygiene** (§3.1): supported via the machine crate's stack
//!   clearing, with the collector exposing the statistics to observe it.
//! * **Leak diagnostics** ([`Collector::find_retainers`]): automates the
//!   paper's manual tracking-down of individual false references.
//!
//! The collector operates on a *simulated* 32-bit address space
//! ([`gc_vmspace::AddressSpace`]); see the repository's DESIGN.md for why
//! this substitution preserves the paper's phenomena exactly.
//!
//! # Example
//!
//! ```
//! use gc_core::{Collector, GcConfig};
//! use gc_heap::ObjectKind;
//! use gc_vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};
//!
//! # fn main() -> Result<(), gc_core::GcError> {
//! let mut space = AddressSpace::new(Endian::Big);
//! space.map(SegmentSpec::new("globals", SegmentKind::Data, Addr::new(0x1_0000), 4096))?;
//! let mut gc = Collector::new(space, GcConfig::default());
//! let obj = gc.alloc(16, ObjectKind::Composite)?;
//! gc.collect();
//! assert!(!gc.is_live(obj), "nothing references the object");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blacklist;
mod collector;
mod config;
mod dump;
mod error;
mod finalize;
mod mark;
mod stats;
mod telemetry;
mod trace;

pub(crate) use finalize::Finalizers;

pub use blacklist::{Blacklist, RootClass};
pub use collector::Collector;
pub use config::{BlacklistKind, GcConfig, GcConfigBuilder, PointerPolicy, ScanAlignment};
pub use error::GcError;
pub use stats::{CollectKind, CollectReason, CollectRequest, CollectionStats, GcStats};
pub use telemetry::{
    json_escape, observer, GcEvent, GcObserver, Histogram, JsonLinesSink, NullSink, PhaseTimes,
    RingBufferSink, SharedObserver, METRICS_SCHEMA_VERSION,
};
pub use trace::Retainer;
