//! Instantiated platforms: a machine plus the platform's live behaviours.

use crate::{pollution, BuildOptions, Profile, Quirk, ValueDist};
use gc_core::GcConfig;
use gc_heap::{HeapConfig, ObjectKind};
use gc_machine::{Machine, MachineConfig, ThreadId};
use gc_vmspace::Addr;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Kernel droppings deposited by syscalls and traps: some registers and
/// some words of the current frame's padding get overwritten with values
/// from a platform-specific distribution.
#[derive(Clone, Debug)]
pub struct TrapNoise {
    /// Registers trashed per trap.
    pub registers: u32,
    /// Frame-padding words scribbled per trap (when inside a frame).
    pub pad_words: u32,
    /// Distribution of the dropped values.
    pub dist: ValueDist,
    /// Size of the fixed per-boot value palette. Kernel droppings are
    /// largely *constant* across traps (kernel buffer addresses, saved
    /// context values), so the same values recur — which is why a startup
    /// collection can blacklist them before the heap grows over them.
    /// `0` draws fresh values every trap instead.
    pub palette_size: u32,
    /// Probability that a dropped value is freshly drawn rather than taken
    /// from the palette. Fresh values appearing *after* the heap has grown
    /// land on already-allocated pages, where blacklisting can no longer
    /// help — the source of the paper's small residual retention
    /// (observation 5: stack-origin references that "would be eventually
    /// overwritten in a longer running program").
    pub fresh_probability: f64,
}

/// The live, per-run behaviours of a platform, separate from the
/// [`Machine`] so workloads can borrow both at once:
///
/// ```ignore
/// let Platform { machine, hooks, .. } = &mut platform;
/// program_t::run(machine, &mut |m| hooks.tick(m), ...);
/// ```
#[derive(Debug)]
pub struct PlatformHooks {
    trap_noise: Option<TrapNoise>,
    palette: Vec<u32>,
    heap_size_statics: Vec<Addr>,
    background_threads: Vec<ThreadId>,
    concurrent: Option<(Addr, u32)>,
    rng: SmallRng,
    ticks: u64,
}

impl PlatformHooks {
    /// One unit of platform background activity, called periodically by
    /// workload harnesses (modelling IO syscalls, timer interrupts, PCR
    /// housekeeping and concurrent clients).
    pub fn tick(&mut self, m: &mut Machine) {
        self.ticks += 1;
        // Kernel droppings (appendix B: SGI trap returns, SPARC register
        // windows after kernel calls).
        if let Some(noise) = &self.trap_noise.clone() {
            let visible = if m.pad_words() > 0 { m.pad_words() } else { 0 };
            for _ in 0..noise.registers {
                let i = self.rng.random_range(0..24u32);
                let v = self.noise_value(noise);
                m.set_reg(i, v);
            }
            if m.frame_depth() > 0 && visible > 0 {
                for _ in 0..noise.pad_words.min(visible) {
                    let off = self.rng.random_range(0..visible);
                    let v = self.noise_value(noise);
                    m.scribble_pad(off, v);
                }
            }
        }
        // PCR: heap-size-tracking statics hold byte *counts* that, read as
        // addresses on a heap based near zero, point into recently filled
        // pages — after those pages were handed out, so blacklisting
        // cannot help (appendix B leak source 1: "the only variables
        // responsible … basically contained the heap size").
        if !self.heap_size_statics.is_empty() {
            let live = m.gc().heap().stats().bytes_live as u32;
            for (i, &slot) in self.heap_size_statics.iter().enumerate() {
                let v = live.saturating_sub(200_000 * i as u32);
                m.store(slot, v);
            }
        }
        // Background threads wake occasionally and run a little work,
        // churning the shared register file and their own stacks.
        if !self.background_threads.is_empty() && self.ticks.is_multiple_of(4) {
            let idx = self.rng.random_range(0..self.background_threads.len());
            let t = self.background_threads[idx];
            let home = m.current_thread();
            let val = self.rng.random_range(0u32..1 << 16);
            m.switch_thread(t);
            m.call(6, |m| {
                for i in 0..6 {
                    m.set_local(i, val.wrapping_add(i));
                }
                for r in 0..8 {
                    m.set_reg(8 + r, val.wrapping_mul(r + 3));
                }
            });
            m.switch_thread(home);
        }
        // Concurrent clients allocate (and keep) more live data during the
        // experiment.
        if let Some((root, bytes_per_tick)) = self.concurrent {
            let cells = bytes_per_tick / 8;
            for _ in 0..cells {
                let head = m.load(root);
                let cell = m
                    .alloc(8, ObjectKind::Composite)
                    .expect("concurrent client allocation fits the heap");
                m.store(cell, head);
                // Keep the chain rooted across every allocation.
                m.store(root, cell.raw());
            }
        }
    }

    /// Ticks performed so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    fn noise_value(&mut self, noise: &TrapNoise) -> u32 {
        if self.palette.is_empty() || self.rng.random_bool(noise.fresh_probability) {
            noise.dist.sample(&mut self.rng)
        } else {
            self.palette[self.rng.random_range(0..self.palette.len())]
        }
    }
}

/// An instantiated platform: machine + live behaviours + the profile it
/// came from.
#[derive(Debug)]
pub struct Platform {
    /// The mutator machine (owns the collector and address space).
    pub machine: Machine,
    /// The platform's live behaviours.
    pub hooks: PlatformHooks,
    /// The profile this platform was built from.
    pub profile: Profile,
}

impl Profile {
    /// Instantiates the profile: builds the machine, installs the static
    /// pollution, applies the quirks (threads, co-resident data), and
    /// returns the ready platform.
    ///
    /// # Panics
    ///
    /// Panics if the profile's layout is inconsistent (overlapping
    /// segments) or the co-resident data does not fit the heap.
    pub fn build(&self, opts: BuildOptions) -> Platform {
        self.build_custom(opts, |_| {})
    }

    /// Like [`Profile::build`], with a hook to adjust the collector
    /// configuration before the machine is created (used by the ablation
    /// studies: blacklist backends, TTLs, scan alignment, growth windows).
    pub fn build_custom(&self, opts: BuildOptions, tweak: impl FnOnce(&mut GcConfig)) -> Platform {
        let mut gc = GcConfig {
            heap: HeapConfig {
                heap_base: self.heap_base,
                max_heap_bytes: self.max_heap_bytes,
                ..HeapConfig::default()
            },
            blacklisting: opts.blacklisting,
            pointer_policy: opts.pointer_policy,
            ..GcConfig::default()
        };
        if let Some(lazy) = opts.lazy_sweep {
            gc.lazy_sweep = lazy;
        }
        tweak(&mut gc);
        let config = MachineConfig {
            endian: self.endian,
            gc,
            registers: self.registers,
            register_windows: self.register_windows,
            frame: self.frame,
            stack_clearing: self.stack_clearing,
            allocator_hygiene: self.allocator_hygiene,
            collector_hygiene: self.collector_hygiene,
            syscall_noise_registers: 0,
            seed: opts
                .seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(1),
            ..MachineConfig::default()
        };
        let mut machine = Machine::new(config);

        // Static pollution. OS/2-style deterministic platforms always
        // derive it from a fixed seed.
        let pollution_seed = if self.deterministic_statics {
            0xD0D0_CAFE
        } else {
            opts.seed ^ 0xB1AC_715B
        };
        let mut rng = SmallRng::seed_from_u64(pollution_seed);
        pollution::install(
            &self.pollution,
            machine.gc_mut().space_mut(),
            self.data_base,
            self.environ_base,
            &mut rng,
        );
        machine.add_static_segment(self.program_static_base, self.program_static_bytes);

        // Quirks.
        let mut heap_size_statics = Vec::new();
        let mut background_threads = Vec::new();
        let mut concurrent = None;
        for quirk in &self.quirks {
            match *quirk {
                Quirk::HeapSizeStatics { count } => {
                    for _ in 0..count {
                        heap_size_statics.push(machine.alloc_static(1));
                    }
                }
                Quirk::BackgroundThreads { count, stack_bytes } => {
                    for _ in 0..count {
                        background_threads.push(machine.spawn_thread(stack_bytes));
                    }
                }
                Quirk::CoResidentLive { bytes } => {
                    let root = machine.alloc_static(1);
                    build_co_resident(&mut machine, root, bytes);
                }
                Quirk::ConcurrentAllocation { bytes_per_tick } => {
                    let root = machine.alloc_static(1);
                    concurrent = Some((root, bytes_per_tick));
                }
            }
        }

        // Kernel droppings: generate the per-boot palette and deposit a
        // first helping into the registers *before* the startup collection,
        // as a real process image would show them from its first trap.
        let mut hooks_rng = SmallRng::seed_from_u64(opts.seed ^ 0x71C4);
        let mut palette = Vec::new();
        if let Some(noise) = &self.trap_noise {
            palette = noise
                .dist
                .sample_n(&mut hooks_rng, noise.palette_size as usize);
            for (k, &v) in palette.iter().enumerate().take(8) {
                let reg = (3 + 2 * k as u32) % 24;
                machine.set_reg(reg, v);
            }
        }

        Platform {
            machine,
            hooks: PlatformHooks {
                trap_noise: self.trap_noise.clone(),
                palette,
                heap_size_statics,
                background_threads,
                concurrent,
                rng: hooks_rng,
                ticks: 0,
            },
            profile: self.clone(),
        }
    }
}

/// Allocates `bytes` of live cons-cell structures rooted at static `root`.
fn build_co_resident(m: &mut Machine, root: Addr, bytes: u64) {
    let cells = bytes / 8;
    let mut head = 0u32;
    for i in 0..cells {
        let cell = m
            .alloc(8, ObjectKind::Composite)
            .expect("co-resident data fits the heap");
        m.store(cell, head);
        m.store(cell + 4, (i as u32) & 0xFFFF);
        head = cell.raw();
        // Root the head on every step: a collection may strike between any
        // two allocations, and a head held only in the harness would be
        // invisible to the conservative scan.
        m.store(root, head);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_platform_is_clean() {
        let mut p = Profile::synthetic().build(BuildOptions::default());
        let obj = p.machine.alloc(8, ObjectKind::Composite).unwrap();
        p.machine.collect();
        assert!(!p.machine.gc().is_live(obj), "no pollution pins anything");
        assert_eq!(p.machine.gc().blacklist().len(), 0, "nothing to blacklist");
    }

    #[test]
    fn sparc_static_pollution_blacklists_future_heap() {
        let mut p = Profile::sparc_static(false).build(BuildOptions::default());
        // The first allocation triggers the startup collection.
        let _ = p.machine.alloc(8, ObjectKind::Composite).unwrap();
        assert!(
            p.machine.gc().blacklist().len() > 20,
            "static junk must blacklist heap pages, got {}",
            p.machine.gc().blacklist().len()
        );
    }

    #[test]
    fn deterministic_statics_are_seed_independent() {
        let a = Profile::os2(false).build(BuildOptions {
            seed: 1,
            blacklisting: true,
            ..BuildOptions::default()
        });
        let b = Profile::os2(false).build(BuildOptions {
            seed: 999,
            blacklisting: true,
            ..BuildOptions::default()
        });
        let read = |p: &Platform| {
            let seg = p
                .machine
                .gc()
                .space()
                .segments()
                .find(|s| s.name() == "libc-junk")
                .expect("junk segment exists");
            seg.bytes().to_vec()
        };
        assert_eq!(read(&a), read(&b), "OS/2 pollution is reproducible");
        // SPARC pollution varies with the seed.
        let a = Profile::sparc_static(false).build(BuildOptions {
            seed: 1,
            blacklisting: true,
            ..BuildOptions::default()
        });
        let b = Profile::sparc_static(false).build(BuildOptions {
            seed: 999,
            blacklisting: true,
            ..BuildOptions::default()
        });
        assert_ne!(read(&a), read(&b));
    }

    #[test]
    fn pcr_builds_world() {
        let mut p = Profile::pcr(2, true).build(BuildOptions::default());
        let stats = p.machine.gc().heap().stats();
        assert!(
            stats.bytes_live >= 2 << 20,
            "co-resident world is live: {} bytes",
            stats.bytes_live
        );
        // Ticking performs concurrent allocation and updates heap statics.
        let live_before = p.machine.gc().heap().stats().bytes_live;
        let Platform { machine, hooks, .. } = &mut p;
        for _ in 0..8 {
            hooks.tick(machine);
        }
        machine.collect();
        let live_after = machine.gc().heap().stats().bytes_live;
        assert!(
            live_after > live_before,
            "concurrent client allocated live data"
        );
        assert_eq!(hooks.ticks(), 8);
    }

    #[test]
    fn trap_noise_needs_no_frame() {
        let mut p = Profile::sgi(false).build(BuildOptions::default());
        let Platform { machine, hooks, .. } = &mut p;
        hooks.tick(machine); // outside any frame: must not panic
        machine.call(2, |m| {
            let before: Vec<u32> = (0..8).map(|i| m.reg(i)).collect();
            let _ = before;
        });
    }

    #[test]
    fn co_resident_survives_collection() {
        let mut p = Profile::pcr(1, false).build(BuildOptions::default());
        p.machine.collect();
        let live = p.machine.gc().heap().stats().bytes_live;
        assert!(live >= 1 << 20, "1 MB world survives, got {live}");
    }
}
