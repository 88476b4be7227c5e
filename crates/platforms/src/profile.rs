//! The Table-1 platform profiles.
//!
//! Each profile packages an address-space layout, a static-data pollution
//! population, and a mutator discipline (frames, register windows, trap
//! noise) that together reproduce one row of the paper's Table 1. The
//! pollution magnitudes are the *calibrated* part (documented in
//! EXPERIMENTS.md); the mechanisms — which populations exist and why they
//! produce false references — follow appendix B directly.

use crate::{JunkArray, Pollution, StringTable, TrapNoise, ValueDist};
use gc_machine::{FramePolicy, StackClearing};
use gc_vmspace::{Addr, Endian};

/// Extra platform behaviours beyond static pollution (PCR, appendix B).
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Quirk {
    /// Static variables that track the heap size: they change occasionally
    /// to values just past recently allocated pages, so blacklisting cannot
    /// neutralize them ("the only variables responsible … basically
    /// contained the heap size", appendix B leak source 1).
    HeapSizeStatics {
        /// How many such variables exist.
        count: u32,
    },
    /// Parked background threads whose wakeups churn the shared register
    /// file and their own stacks (appendix B: more background threads
    /// "seemed to have a beneficial effect of clearing out thread stacks").
    BackgroundThreads {
        /// Number of background threads.
        count: u32,
        /// Stack size of each.
        stack_bytes: u32,
    },
    /// Other live data co-resident in the world (the 1.5–13 MB Cedar image
    /// of the PCR experiments), allocated before the experiment begins.
    CoResidentLive {
        /// Total bytes of co-resident live structures.
        bytes: u64,
    },
    /// Concurrently running clients allocating during the experiment (the
    /// "13 MB expansion in live data during the test" PCR runs).
    ConcurrentAllocation {
        /// Bytes allocated (and kept live) per platform tick.
        bytes_per_tick: u32,
    },
}

/// Options for instantiating a profile.
#[derive(Clone, Copy, Debug)]
pub struct BuildOptions {
    /// Seed for all profile nondeterminism (pollution values, trap noise).
    pub seed: u64,
    /// Whether the collector maintains its blacklist (the Table-1 toggle).
    pub blacklisting: bool,
    /// Interior-pointer policy (Table 1 uses the default,
    /// [`PointerPolicy::AllInterior`](gc_core::PointerPolicy)).
    pub pointer_policy: gc_core::PointerPolicy,
    /// Ignored: every collection marks serially. The field remains only
    /// because the benchmark assigns it (`perfbench/src/main.rs:236`); it
    /// goes with the benchmark change of ROADMAP item 2.
    pub mark_threads: Option<u32>,
    /// Lazy (allocation-driven) sweeping; `None` keeps the collector
    /// default, an eager sweep.
    pub lazy_sweep: Option<bool>,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            seed: 1,
            blacklisting: true,
            pointer_policy: gc_core::PointerPolicy::AllInterior,
            mark_threads: None,
            lazy_sweep: None,
        }
    }
}

/// One platform row of Table 1 (plus a clean `synthetic` profile for
/// tests).
///
/// # Example
///
/// ```
/// use gc_platforms::{BuildOptions, Profile};
///
/// let profile = Profile::sparc_static(false);
/// assert_eq!(profile.name, "SPARC(static)");
/// let platform = profile.build(BuildOptions::default());
/// assert!(platform.machine.gc().space().roots().count() >= 3);
/// ```
#[derive(Clone, Debug)]
pub struct Profile {
    /// Display name, matching the paper's Table 1 row label.
    pub name: String,
    /// Whether the client program was compiled with optimization.
    pub optimized: bool,
    /// Machine byte order.
    pub endian: Endian,
    /// Heap start (post-BSS break).
    pub heap_base: Addr,
    /// Heap limit.
    pub max_heap_bytes: u64,
    /// Base of the scanned static-data area.
    pub data_base: Addr,
    /// Base of the environment block.
    pub environ_base: Addr,
    /// Base of the program's own static segment (Program T's arrays).
    pub program_static_base: Addr,
    /// Size of the program's static segment.
    pub program_static_bytes: u32,
    /// Static pollution population.
    pub pollution: Pollution,
    /// Stack-frame discipline.
    pub frame: FramePolicy,
    /// Flat register count (when `register_windows == 0`).
    pub registers: u32,
    /// SPARC-style register windows (0 = flat file).
    pub register_windows: u32,
    /// Kernel droppings after syscalls/traps, if any.
    pub trap_noise: Option<TrapNoise>,
    /// Allocator stack-clearing policy.
    pub stack_clearing: StackClearing,
    /// Whether the allocator clears its own scratch droppings.
    pub allocator_hygiene: bool,
    /// Whether the collector clears its own frame area before scanning
    /// (§3.1's "clean up after themselves").
    pub collector_hygiene: bool,
    /// Whether static pollution is derived from a fixed seed (OS/2's
    /// "measurements appeared completely reproducible").
    pub deterministic_statics: bool,
    /// Extra platform behaviours.
    pub quirks: Vec<Quirk>,
}

impl Profile {
    /// SunOS 4.1.1 on a SPARCstation 2 with the statically linked C
    /// library: the paper's worst case. The image scans ~60 KB of static
    /// data including >35 KB of base-conversion-style integer arrays and a
    /// packed (unaligned) string table whose trailing-`NUL` words read as
    /// low heap addresses on this big-endian machine.
    pub fn sparc_static(optimized: bool) -> Profile {
        Profile {
            name: "SPARC(static)".into(),
            optimized,
            endian: Endian::Big,
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 192 << 20,
            data_base: Addr::new(0x0001_0000),
            environ_base: Addr::new(0xEFF1_0000),
            program_static_base: Addr::new(0x0002_6000),
            program_static_bytes: 0x8000,
            pollution: Pollution {
                // ~36 KB of "seemingly random integer values": mostly
                // harmless small ints / text / floats, with a log-uniform
                // component (base-conversion powers span magnitudes) that
                // lands in the low heap.
                junk: vec![JunkArray {
                    words: 9000,
                    dist: ValueDist::Mix(vec![
                        (0.575, ValueDist::SmallInt(4096)),
                        (0.12, ValueDist::AsciiWord),
                        (0.10, ValueDist::FloatBits),
                        (0.03, ValueDist::KernelAddr),
                        (0.15, ValueDist::LogUniform(1, 1 << 30)),
                        (0.025, ValueDist::Uniform(0, 0x0200_0000)),
                    ]),
                }],
                strings: Some(StringTable {
                    count: 1200,
                    min_len: 6,
                    max_len: 40,
                    aligned: false, // the bundled compiler did not align strings
                }),
                environ_bytes: 1024,
            },
            frame: FramePolicy {
                pad_words: if optimized { 6 } else { 16 },
                clear_on_push: false,
            },
            registers: 32,
            register_windows: 8,
            trap_noise: Some(TrapNoise {
                registers: 3,
                pad_words: 2,
                dist: ValueDist::Mix(vec![
                    (0.80, ValueDist::KernelAddr),
                    (0.20, ValueDist::Uniform(0x0001_0000, 0x0200_0000)),
                ]),
                palette_size: 16,
                fresh_probability: 0.08,
            }),
            stack_clearing: StackClearing::default(),
            allocator_hygiene: true,
            // The era's collector cleaned up after itself imperfectly
            // ("dead variable elimination … may make it difficult").
            collector_hygiene: false,
            deterministic_statics: false,
            quirks: Vec::new(),
        }
    }

    /// The same machine with the dynamically linked C library: the big
    /// junk arrays live in the shared library image and are no longer
    /// scanned; only the program's own (much smaller) static data remains.
    pub fn sparc_dynamic(optimized: bool) -> Profile {
        let mut p = Profile::sparc_static(optimized);
        p.name = "SPARC(dynamic)".into();
        p.pollution.junk = vec![JunkArray {
            words: 360,
            dist: ValueDist::Mix(vec![
                (0.60, ValueDist::SmallInt(4096)),
                (0.12, ValueDist::AsciiWord),
                (0.10, ValueDist::FloatBits),
                (0.03, ValueDist::KernelAddr),
                (0.15, ValueDist::LogUniform(1, 1 << 30)),
            ]),
        }];
        p.pollution.strings = Some(StringTable {
            count: 48,
            min_len: 6,
            max_len: 40,
            aligned: false,
        });
        p
    }

    /// SGI 4D/35 under IRIX 4.0.x (big-endian MIPS R3000): statically
    /// linked, but the IRIX libc lacks the junk arrays and its strings are
    /// word-aligned. Retention comes from "varying register contents after
    /// system call or trap returns" — modelled as kernel droppings in
    /// registers and frame padding — hence the paper's wide 1.5–8 % band.
    pub fn sgi(optimized: bool) -> Profile {
        Profile {
            name: "SGI(static)".into(),
            optimized,
            endian: Endian::Big,
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 192 << 20,
            data_base: Addr::new(0x0001_0000),
            environ_base: Addr::new(0xEFF1_0000),
            program_static_base: Addr::new(0x0002_6000),
            program_static_bytes: 0x8000,
            pollution: Pollution {
                junk: vec![JunkArray {
                    words: 2500,
                    dist: ValueDist::Mix(vec![
                        (0.70, ValueDist::SmallInt(4096)),
                        (0.15, ValueDist::AsciiWord),
                        (0.15, ValueDist::FloatBits),
                    ]),
                }],
                strings: Some(StringTable {
                    count: 1200,
                    min_len: 6,
                    max_len: 40,
                    aligned: true, // IRIX compiler aligns strings
                }),
                environ_bytes: 1024,
            },
            frame: FramePolicy {
                pad_words: if optimized { 6 } else { 16 },
                clear_on_push: false,
            },
            registers: 32,
            register_windows: 0,
            trap_noise: Some(TrapNoise {
                registers: 6,
                pad_words: 6,
                dist: ValueDist::Mix(vec![
                    (0.45, ValueDist::KernelAddr),
                    (0.35, ValueDist::Uniform(0x0001_0000, 0x0180_0000)),
                    (0.20, ValueDist::SmallInt(0xFFFF)),
                ]),
                palette_size: 24,
                fresh_probability: 0.0,
            }),
            stack_clearing: StackClearing::default(),
            allocator_hygiene: true,
            collector_hygiene: false,
            deterministic_statics: false,
            quirks: Vec::new(),
        }
    }

    /// 80486 PC under OS/2 2.0 with IBM C Set/2: little-endian, no
    /// register windows, no observed kernel droppings — the paper found
    /// the measurements "completely reproducible", so the pollution is
    /// derived from a fixed seed. Program T is scaled to 100 lists (10 MB)
    /// on this machine.
    pub fn os2(optimized: bool) -> Profile {
        Profile {
            name: "OS/2(static)".into(),
            optimized,
            endian: Endian::Little,
            heap_base: Addr::new(0x0003_0000),
            max_heap_bytes: 96 << 20,
            data_base: Addr::new(0x0001_0000),
            environ_base: Addr::new(0xEFF1_0000),
            program_static_base: Addr::new(0x0002_6000),
            program_static_bytes: 0x8000,
            pollution: Pollution {
                junk: vec![JunkArray {
                    words: 2000,
                    dist: ValueDist::Mix(vec![
                        (0.775, ValueDist::SmallInt(4096)),
                        (0.10, ValueDist::AsciiWord),
                        (0.08, ValueDist::FloatBits),
                        (0.045, ValueDist::LogUniform(1, 1 << 28)),
                    ]),
                }],
                strings: Some(StringTable {
                    count: 90,
                    min_len: 6,
                    max_len: 40,
                    aligned: true,
                }),
                environ_bytes: 512,
            },
            frame: FramePolicy {
                pad_words: if optimized { 4 } else { 10 },
                clear_on_push: false,
            },
            registers: 8, // x86
            register_windows: 0,
            trap_noise: None,
            stack_clearing: StackClearing::default(),
            // The C Set/2 runtime leaves allocator droppings on the stack:
            // "certain stack locations are likely to always contain
            // pointers to garbage objects" (appendix B).
            allocator_hygiene: false,
            collector_hygiene: false,
            deterministic_statics: true,
            quirks: Vec::new(),
        }
    }

    /// PCR inside the Cedar environment on a SPARCstation 2: a large world
    /// (1.5–13 MB of co-resident live data, several background threads,
    /// Cedar's own big static areas), running the 12 500 × 8-byte-cell
    /// variant of Program T with finalization-based accounting.
    pub fn pcr(co_resident_mb: u32, concurrent_client: bool) -> Profile {
        let mut quirks = vec![
            Quirk::HeapSizeStatics { count: 3 },
            Quirk::BackgroundThreads {
                count: 2 + co_resident_mb / 4,
                stack_bytes: 64 << 10,
            },
            Quirk::CoResidentLive {
                bytes: u64::from(co_resident_mb) << 20,
            },
        ];
        if concurrent_client {
            quirks.push(Quirk::ConcurrentAllocation {
                bytes_per_tick: 48 << 10,
            });
        }
        Profile {
            name: "PCR".into(),
            optimized: true, // "mixed" in the paper; Cedar code optimized
            endian: Endian::Big,
            heap_base: Addr::new(0x0004_0000),
            max_heap_bytes: 256 << 20,
            data_base: Addr::new(0x0001_0000),
            environ_base: Addr::new(0xEFF1_0000),
            program_static_base: Addr::new(0x0002_C000),
            program_static_bytes: 0x8000,
            pollution: Pollution {
                // Cedar's own static areas: pointer-dense world data with a
                // log-uniform component over the (large) heap range. More
                // loaded packages bring more static data, so the junk
                // volume scales with the world size.
                junk: vec![JunkArray {
                    words: 3400 + 400 * co_resident_mb,
                    dist: ValueDist::Mix(vec![
                        (0.715, ValueDist::SmallInt(1 << 16)),
                        (0.12, ValueDist::AsciiWord),
                        (0.08, ValueDist::FloatBits),
                        (0.085, ValueDist::LogUniform(0x0004_0000, 0x0300_0000)),
                    ]),
                }],
                strings: Some(StringTable {
                    count: 400,
                    min_len: 6,
                    max_len: 40,
                    aligned: false,
                }),
                environ_bytes: 1024,
            },
            frame: FramePolicy {
                pad_words: 12,
                clear_on_push: false,
            },
            registers: 32,
            register_windows: 8,
            trap_noise: Some(TrapNoise {
                registers: 3,
                pad_words: 2,
                dist: ValueDist::Mix(vec![
                    (0.80, ValueDist::KernelAddr),
                    (0.20, ValueDist::Uniform(0x0004_0000, 0x0300_0000)),
                ]),
                palette_size: 16,
                fresh_probability: 0.06,
            }),
            stack_clearing: StackClearing::default(),
            allocator_hygiene: true,
            collector_hygiene: false,
            deterministic_statics: false,
            quirks,
        }
    }

    /// A clean, pollution-free machine for tests and microbenchmarks.
    pub fn synthetic() -> Profile {
        Profile {
            name: "synthetic".into(),
            optimized: true,
            endian: Endian::Big,
            heap_base: Addr::new(0x0010_0000),
            max_heap_bytes: 128 << 20,
            data_base: Addr::new(0x0001_0000),
            environ_base: Addr::new(0xEFF1_0000),
            program_static_base: Addr::new(0x0002_0000),
            program_static_bytes: 0x1_0000,
            pollution: Pollution::default(),
            frame: FramePolicy {
                pad_words: 0,
                clear_on_push: false,
            },
            registers: 32,
            register_windows: 0,
            trap_noise: None,
            stack_clearing: StackClearing::default(),
            allocator_hygiene: true,
            collector_hygiene: true,
            deterministic_statics: true,
            quirks: Vec::new(),
        }
    }

    /// The nine Table-1 configurations in the paper's row order
    /// (PCR built with a mid-sized 4 MB world).
    pub fn table1_rows() -> Vec<Profile> {
        vec![
            Profile::sparc_static(false),
            Profile::sparc_static(true),
            Profile::sparc_dynamic(false),
            Profile::sparc_dynamic(true),
            Profile::sgi(false),
            Profile::sgi(true),
            Profile::os2(false),
            Profile::os2(true),
            Profile::pcr(4, false),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_match_paper_order() {
        let rows = Profile::table1_rows();
        assert_eq!(rows.len(), 9);
        let names: Vec<&str> = rows.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            [
                "SPARC(static)",
                "SPARC(static)",
                "SPARC(dynamic)",
                "SPARC(dynamic)",
                "SGI(static)",
                "SGI(static)",
                "OS/2(static)",
                "OS/2(static)",
                "PCR"
            ]
        );
        assert!(!rows[0].optimized && rows[1].optimized);
    }

    #[test]
    fn os2_is_little_endian_and_deterministic() {
        let p = Profile::os2(false);
        assert_eq!(p.endian, Endian::Little);
        assert!(p.deterministic_statics);
        assert!(p.trap_noise.is_none());
        assert_eq!(p.register_windows, 0);
    }

    #[test]
    fn sparc_has_register_windows_and_packed_strings() {
        let p = Profile::sparc_static(false);
        assert_eq!(p.register_windows, 8);
        assert!(!p.pollution.strings.as_ref().expect("has strings").aligned);
        // Dynamic variant has far less junk.
        let d = Profile::sparc_dynamic(false);
        let words = |p: &Profile| p.pollution.junk.iter().map(|j| j.words).sum::<u32>();
        assert!(words(&d) * 5 < words(&p));
    }

    #[test]
    fn sgi_strings_are_aligned() {
        let p = Profile::sgi(true);
        assert!(p.pollution.strings.as_ref().expect("has strings").aligned);
        assert!(p.trap_noise.is_some());
    }

    #[test]
    fn pcr_has_world_quirks() {
        let p = Profile::pcr(13, true);
        assert_eq!(p.quirks.len(), 4);
        assert!(p
            .quirks
            .iter()
            .any(|q| matches!(q, Quirk::CoResidentLive { bytes } if *bytes == 13 << 20)));
        assert!(p
            .quirks
            .iter()
            .any(|q| matches!(q, Quirk::ConcurrentAllocation { .. })));
    }

    #[test]
    fn optimization_shrinks_frames() {
        assert!(
            Profile::sparc_static(true).frame.pad_words
                < Profile::sparc_static(false).frame.pad_words
        );
    }
}
