//! The simulated mutator machine.

use crate::{MachineConfig, StackClearing};
use gc_core::{CollectionStats, Collector, GcError};
use gc_heap::ObjectKind;
use gc_vmspace::{Addr, SegmentId, SegmentKind, SegmentSpec, PAGE_BYTES};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// Identifier of a mutator thread.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ThreadId(usize);

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread {}", self.0)
    }
}

#[derive(Debug)]
struct Frame {
    /// First local word; padding (save areas, spill slots) sits *below*
    /// this, between `sp` and the locals, like a real RISC frame.
    locals_base: Addr,
    locals: u32,
    prev_sp: Addr,
}

#[derive(Debug)]
struct Thread {
    stack_seg: SegmentId,
    stack_limit: Addr,
    stack_top: Addr,
    sp: Addr,
    /// Minimum `sp` observed since the last full stack-clearing episode:
    /// `[deepest_sp, sp)` is the dead region eligible for clearing.
    deepest_sp: Addr,
    frames: Vec<Frame>,
}

/// A simulated mutator running against the conservative collector.
///
/// The machine's registers, stacks and static data all live inside the
/// collector's [`AddressSpace`](gc_vmspace::AddressSpace) as root-scanned
/// segments, so every value a program leaves behind — dead frame slots,
/// stale register windows, kernel droppings after a syscall — is visible to
/// the conservative scan, exactly as on the paper's machines.
///
/// Client programs are written as Rust closures using [`Machine::call`],
/// [`Machine::local`]/[`Machine::set_local`], [`Machine::reg`]/
/// [`Machine::set_reg`], [`Machine::alloc`], and [`Machine::load`]/
/// [`Machine::store`]. Heap pointers are plain `u32` addresses stored in
/// simulated memory; Rust-side copies held by a workload are *not* GC roots,
/// so workloads must keep live pointers in machine-visible locations.
///
/// # Example
///
/// ```
/// use gc_machine::{Machine, MachineConfig};
/// use gc_heap::ObjectKind;
///
/// let mut m = Machine::new(MachineConfig::default());
/// let obj = m.call(2, |m| {
///     let obj = m.alloc(8, ObjectKind::Composite).expect("heap has room");
///     m.set_local(0, obj.raw()); // rooted while the frame is live
///     m.collect();
///     assert!(m.gc().is_live(obj));
///     obj
/// });
/// // Frame popped; the stale slot may or may not still pin obj — that is
/// // the paper's §3.1 phenomenon.
/// let _ = obj;
/// ```
#[derive(Debug)]
pub struct Machine {
    gc: Collector,
    registers: u32,
    register_windows: u32,
    frame_policy: crate::FramePolicy,
    stack_clearing: StackClearing,
    allocator_hygiene: bool,
    collector_hygiene: bool,
    collector_frame_bytes: u32,
    syscall_noise_registers: u32,
    reg_base: Addr,
    threads: Vec<Thread>,
    current: usize,
    next_stack_top: Addr,
    alloc_count: u64,
    statics: Option<(Addr, Addr)>, // (bump cursor, end)
    rng: SmallRng,
}

const REG_FILE_BASE: u32 = 0xFFFF_0000;

impl Machine {
    /// Creates a machine: maps the register file and the main thread's
    /// stack, and wraps a fresh [`Collector`].
    ///
    /// # Panics
    ///
    /// Panics if the configured stack or register file cannot be mapped
    /// (overlapping bases are a configuration bug).
    pub fn new(config: MachineConfig) -> Self {
        let mut space = gc_vmspace::AddressSpace::new(config.endian);
        let reg_words = if config.register_windows > 0 {
            8 + config.register_windows * 16
        } else {
            config.registers
        };
        space
            .map(SegmentSpec::new(
                "registers",
                SegmentKind::Registers,
                Addr::new(REG_FILE_BASE),
                reg_words * 4,
            ))
            .expect("register file maps at the top of the address space");
        let stack_limit = config.stack_top - config.stack_bytes;
        let stack_seg = space
            .map(SegmentSpec::new(
                "stack-0",
                SegmentKind::Stack,
                stack_limit,
                config.stack_bytes,
            ))
            .expect("main stack maps below the register file");
        // The collector scans only the live part of each stack.
        space.set_root_window(stack_seg, Some((config.stack_top, config.stack_top)));
        let gc = Collector::new(space, config.gc.clone());
        Machine {
            gc,
            registers: config.registers,
            register_windows: config.register_windows,
            frame_policy: config.frame,
            stack_clearing: config.stack_clearing,
            allocator_hygiene: config.allocator_hygiene,
            collector_hygiene: config.collector_hygiene,
            collector_frame_bytes: config.collector_frame_bytes,
            syscall_noise_registers: config.syscall_noise_registers,
            reg_base: Addr::new(REG_FILE_BASE),
            threads: vec![Thread {
                stack_seg,
                stack_limit,
                stack_top: config.stack_top,
                sp: config.stack_top,
                deepest_sp: config.stack_top,
                frames: Vec::new(),
            }],
            current: 0,
            next_stack_top: stack_limit - PAGE_BYTES,
            alloc_count: 0,
            statics: None,
            rng: SmallRng::seed_from_u64(config.seed),
        }
    }

    /// Maps a zero-initialized static-data segment (scanned as roots) and
    /// makes it the target of [`Machine::alloc_static`].
    ///
    /// # Panics
    ///
    /// Panics if the range overlaps an existing segment.
    pub fn add_static_segment(&mut self, base: Addr, bytes: u32) -> SegmentId {
        let id = self
            .gc
            .space_mut()
            .map(SegmentSpec::new(
                "program-statics",
                SegmentKind::Bss,
                base,
                bytes,
            ))
            .expect("static segment maps cleanly");
        self.statics = Some((base, base + bytes));
        id
    }

    /// Bump-allocates `words` words of static data (e.g. Program T's
    /// `char *a[N]` array).
    ///
    /// # Panics
    ///
    /// Panics if no static segment was added or it is exhausted.
    pub fn alloc_static(&mut self, words: u32) -> Addr {
        let (cursor, end) = self.statics.expect("add_static_segment was called");
        let next = cursor + words * 4;
        assert!(next <= end, "static segment exhausted");
        self.statics = Some((next, end));
        cursor
    }

    // ---- threads ----------------------------------------------------

    /// Spawns a new thread with its own root-scanned stack; returns its id.
    /// The new thread is *not* switched to.
    ///
    /// # Example
    ///
    /// ```
    /// use gc_machine::{Machine, MachineConfig};
    ///
    /// let mut m = Machine::new(MachineConfig::default());
    /// let worker = m.spawn_thread(64 << 10);
    /// let main = m.current_thread();
    /// m.switch_thread(worker);
    /// m.call(1, |m| m.set_local(0, 7));
    /// m.switch_thread(main);
    /// assert_eq!(m.frame_depth(), 0, "frames are per thread");
    /// ```
    pub fn spawn_thread(&mut self, stack_bytes: u32) -> ThreadId {
        let top = self.next_stack_top;
        let limit = top - stack_bytes;
        let name = format!("stack-{}", self.threads.len());
        let seg = self
            .gc
            .space_mut()
            .map(SegmentSpec::new(
                name,
                SegmentKind::Stack,
                limit,
                stack_bytes,
            ))
            .expect("thread stack maps below previous stacks");
        self.next_stack_top = limit - PAGE_BYTES;
        self.gc.space_mut().set_root_window(seg, Some((top, top)));
        self.threads.push(Thread {
            stack_seg: seg,
            stack_limit: limit,
            stack_top: top,
            sp: top,
            deepest_sp: top,
            frames: Vec::new(),
        });
        ThreadId(self.threads.len() - 1)
    }

    /// Switches execution to `thread`.
    ///
    /// The register file is shared and *not* saved or restored: the
    /// previous thread's register values stay visible to the collector
    /// until overwritten, like the context-switch droppings of appendix B.
    ///
    /// # Panics
    ///
    /// Panics if `thread` was never spawned.
    pub fn switch_thread(&mut self, thread: ThreadId) {
        assert!(thread.0 < self.threads.len(), "unknown {thread}");
        self.current = thread.0;
    }

    /// The currently executing thread.
    pub fn current_thread(&self) -> ThreadId {
        ThreadId(self.current)
    }

    // ---- call stack --------------------------------------------------

    /// Calls `f` in a fresh stack frame with `locals` word slots.
    ///
    /// The frame additionally reserves the configured padding words; unless
    /// `FramePolicy::clear_on_push` is set, the frame is *not* zeroed, so
    /// `f` observes whatever the previous occupant of that stack region
    /// left there — and leaves its own droppings behind on return (§3.1).
    ///
    /// # Panics
    ///
    /// Panics on simulated stack overflow.
    pub fn call<R>(&mut self, locals: u32, f: impl FnOnce(&mut Machine) -> R) -> R {
        let pad = self.frame_policy.pad_words;
        let clear = self.frame_policy.clear_on_push;
        let frame_bytes = (locals + pad) * 4;
        // Pin the executing thread: if the closure switches threads, the
        // frame is still popped from the thread that pushed it.
        let tid = self.current;
        let base = {
            let t = &mut self.threads[tid];
            let new_base = t
                .sp
                .checked_sub(frame_bytes)
                .filter(|&b| b >= t.stack_limit)
                .unwrap_or_else(|| panic!("simulated stack overflow at depth {}", t.frames.len()));
            t.frames.push(Frame {
                locals_base: new_base + pad * 4,
                locals,
                prev_sp: t.sp,
            });
            t.sp = new_base;
            t.deepest_sp = t.deepest_sp.min(new_base);
            new_base
        };
        self.publish_stack_window(tid);
        if clear {
            self.gc
                .space_mut()
                .fill(base, frame_bytes, 0)
                .expect("frame memory is mapped");
        }
        let r = f(self);
        {
            let t = &mut self.threads[tid];
            let frame = t.frames.pop().expect("matching frame push");
            t.sp = frame.prev_sp;
        }
        self.publish_stack_window(tid);
        r
    }

    /// Publishes a thread's live stack extent `[sp, top)` as the
    /// collector's scan window for that stack. A sloppy collector's own
    /// frames sit below `sp` and are scanned too (it failed to clear its
    /// locals, §3.1), so the window is extended downward by the collector
    /// frame depth.
    fn publish_stack_window(&mut self, tid: usize) {
        let (seg, sp, top) = {
            let t = &self.threads[tid];
            let lo = if self.collector_hygiene {
                t.sp
            } else {
                t.stack_limit
                    .max(t.sp - self.collector_frame_bytes.min(t.sp - t.stack_limit))
            };
            (t.stack_seg, lo, t.stack_top)
        };
        self.gc.space_mut().set_root_window(seg, Some((sp, top)));
    }

    fn top_frame(&self) -> (Addr, u32) {
        let t = &self.threads[self.current];
        let f = t.frames.last().expect("inside a call frame");
        (f.locals_base, f.locals)
    }

    /// Reads local word `i` of the current frame (possibly stale garbage if
    /// never written and frames are not cleared).
    ///
    /// # Panics
    ///
    /// Panics outside any frame or if `i` is out of range.
    pub fn local(&self, i: u32) -> u32 {
        let (base, locals) = self.top_frame();
        assert!(i < locals, "local {i} out of range {locals}");
        self.gc
            .space()
            .read_u32(base + i * 4)
            .expect("frame memory is mapped")
    }

    /// Writes local word `i` of the current frame.
    ///
    /// # Panics
    ///
    /// Panics outside any frame or if `i` is out of range.
    #[inline]
    pub fn set_local(&mut self, i: u32, value: u32) {
        let (base, locals) = self.top_frame();
        assert!(i < locals, "local {i} out of range {locals}");
        self.gc
            .space_mut()
            .write_u32(base + i * 4, value)
            .expect("frame memory is mapped");
    }

    /// Number of padding words in every frame.
    pub fn pad_words(&self) -> u32 {
        self.frame_policy.pad_words
    }

    /// Writes `value` into padding word `offset` of the current frame — the
    /// area between `sp` and the locals that the program itself never
    /// touches. Models kernel trap-frame and signal-context droppings
    /// deposited on the user stack (appendix B's SGI effect).
    ///
    /// # Panics
    ///
    /// Panics outside any frame or if `offset` exceeds the configured
    /// padding.
    pub fn scribble_pad(&mut self, offset: u32, value: u32) {
        assert!(
            offset < self.frame_policy.pad_words,
            "pad offset {offset} out of range"
        );
        assert!(
            !self.threads[self.current].frames.is_empty(),
            "scribble_pad requires a live frame"
        );
        let sp = self.threads[self.current].sp;
        self.gc
            .space_mut()
            .write_u32(sp + offset * 4, value)
            .expect("pad memory is mapped");
    }

    /// Current stack pointer of the executing thread.
    pub fn sp(&self) -> Addr {
        self.threads[self.current].sp
    }

    /// Current call depth of the executing thread.
    pub fn frame_depth(&self) -> usize {
        self.threads[self.current].frames.len()
    }

    // ---- registers -----------------------------------------------------

    fn reg_addr(&self, i: u32) -> Addr {
        if self.register_windows == 0 {
            assert!(
                i < self.registers,
                "register {i} out of range {}",
                self.registers
            );
            self.reg_base + i * 4
        } else {
            assert!(
                i < 24,
                "windowed machines expose g0-g7 and 16 window registers"
            );
            if i < 8 {
                self.reg_base + i * 4
            } else {
                let depth = self.threads[self.current].frames.len() as u32;
                let window = depth % self.register_windows;
                self.reg_base + (8 + window * 16 + (i - 8)) * 4
            }
        }
    }

    /// Reads register `i`.
    ///
    /// On a windowed machine (`register_windows > 0`), `0..8` are globals
    /// and `8..24` address the current window, selected by call depth.
    /// Freshly entered windows are **not** cleared, so wrapped-around
    /// windows expose stale values.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the register model.
    pub fn reg(&self, i: u32) -> u32 {
        self.gc
            .space()
            .read_u32(self.reg_addr(i))
            .expect("register file is mapped")
    }

    /// Writes register `i`. See [`Machine::reg`] for the window model.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the register model.
    pub fn set_reg(&mut self, i: u32, value: u32) {
        let addr = self.reg_addr(i);
        self.gc
            .space_mut()
            .write_u32(addr, value)
            .expect("register file is mapped");
    }

    /// Simulates a system call: the kernel leaves droppings in the
    /// configured number of registers (appendix B's SGI/SPARC effect).
    pub fn syscall(&mut self) {
        let visible = if self.register_windows == 0 {
            self.registers
        } else {
            24
        };
        for _ in 0..self.syscall_noise_registers {
            let i = self.rng.random_range(0..visible);
            let v = self.rng.random::<u32>();
            self.set_reg(i, v);
        }
    }

    // ---- memory ----------------------------------------------------------

    /// Loads a word from simulated memory.
    ///
    /// # Panics
    ///
    /// Panics on a memory fault (a workload bug).
    pub fn load(&self, addr: Addr) -> u32 {
        self.gc
            .space()
            .read_u32(addr)
            .expect("workload reads mapped memory")
    }

    /// Stores a word to simulated memory, running the write barrier: it
    /// dirties `addr`'s heap page when the collector is generational or an
    /// incremental cycle is in progress, and is a no-op otherwise or
    /// outside the heap (see
    /// [`Collector::record_write`](gc_core::Collector::record_write)).
    ///
    /// # Panics
    ///
    /// Panics on a memory fault (a workload bug).
    #[inline]
    pub fn store(&mut self, addr: Addr, value: u32) {
        self.gc
            .space_mut()
            .write_u32(addr, value)
            .expect("workload writes mapped memory");
        self.gc.record_write(addr);
    }

    // ---- allocation and collection ---------------------------------------

    /// Allocates a heap object through the collector, applying the
    /// machine-level hygiene policies of §3.1 (periodic dead-stack clearing,
    /// allocator scratch-register droppings).
    ///
    /// # Errors
    ///
    /// Propagates [`GcError`] from the collector (e.g. heap exhaustion).
    ///
    /// # Example
    ///
    /// ```
    /// use gc_machine::{Machine, MachineConfig};
    /// use gc_heap::ObjectKind;
    ///
    /// let mut m = Machine::new(MachineConfig::default());
    /// m.add_static_segment(gc_vmspace::Addr::new(0x2_0000), 4096);
    /// let root = m.alloc_static(1);
    /// let cell = m.alloc(8, ObjectKind::Composite).expect("fresh heap");
    /// m.store(root, cell.raw());      // rooted through scanned statics
    /// m.collect();
    /// assert!(m.gc().is_live(cell));
    /// m.store(root, 0);
    /// m.collect();
    /// assert!(!m.gc().is_live(cell)); // dropped and reclaimed
    /// ```
    pub fn alloc(&mut self, bytes: u32, kind: ObjectKind) -> Result<Addr, GcError> {
        self.alloc_count += 1;
        if self.stack_clearing.enabled
            && self.stack_clearing.every_allocs > 0
            && self
                .alloc_count
                .is_multiple_of(u64::from(self.stack_clearing.every_allocs))
        {
            self.clear_dead_stack();
        }
        let addr = self.gc.alloc(bytes, kind)?;
        if !self.allocator_hygiene {
            // §3.1: "the initial pointer value that is then accidentally
            // preserved is stored by the allocator or collector itself …
            // out-of-line allocation code and garbage collector code is
            // triggered irregularly". The allocator's own call frame leaves
            // the fresh pointer in a scratch register and in its (now dead)
            // stack frame just below sp — invisible until the client stack
            // grows back over it without overwriting.
            let scratch = if self.register_windows == 0 {
                self.registers - 1
            } else {
                7
            };
            self.set_reg(scratch, addr.raw());
            let t = &self.threads[self.current];
            let (sp, limit) = (t.sp, t.stack_limit);
            // The allocator's internal call chain varies in depth (fast
            // path, refill path, expansion path…), so its droppings land at
            // irregular offsets below sp. Regular client execution cannot
            // reliably overwrite them — the crux of §3.1.
            if sp.raw() >= limit.raw() + 64 {
                let off1 = 4 * self.rng.random_range(2u32..16);
                let off2 = 4 * self.rng.random_range(2u32..16);
                let space = self.gc.space_mut();
                space
                    .write_u32(sp - off1, addr.raw())
                    .expect("allocator frame is mapped");
                space
                    .write_u32(sp - off2, addr.raw())
                    .expect("allocator frame is mapped");
            }
        }
        Ok(addr)
    }

    /// Allocates a typed heap object (exact pointer-location information;
    /// see [`gc_core::Collector::alloc_typed`]), applying the same machine
    /// hygiene policies as [`Machine::alloc`].
    ///
    /// # Errors
    ///
    /// Propagates [`GcError`] from the collector.
    pub fn alloc_typed(
        &mut self,
        bytes: u32,
        desc: gc_heap::DescriptorId,
    ) -> Result<Addr, GcError> {
        self.alloc_count += 1;
        if self.stack_clearing.enabled
            && self.stack_clearing.every_allocs > 0
            && self
                .alloc_count
                .is_multiple_of(u64::from(self.stack_clearing.every_allocs))
        {
            self.clear_dead_stack();
        }
        self.gc.alloc_typed(bytes, desc)
    }

    /// Clears (part of) the dead stack region below `sp` of the current
    /// thread — the paper's §3.1 technique. The region covers both popped
    /// frames (down to the deepest extent the stack has reached) and the
    /// zone just under `sp` where the allocator's and collector's own
    /// frames deposit droppings, like bdwgc's `GC_clear_stack`. Returns
    /// bytes cleared.
    pub fn clear_dead_stack(&mut self) -> u32 {
        // Even at a constant mutator depth, the out-of-line allocator and
        // collector ran below sp; always treat that zone as dead too.
        const RUNTIME_FRAME_ZONE: u32 = 256;
        let (lo, sp) = {
            let t = &self.threads[self.current];
            let lo = t
                .deepest_sp
                .min(t.sp)
                .checked_sub(RUNTIME_FRAME_ZONE)
                .map_or(t.stack_limit, |a| a.max(t.stack_limit));
            (lo, t.sp)
        };
        if lo >= sp {
            return 0;
        }
        let dead = sp - lo;
        let len = dead.min(self.stack_clearing.max_bytes_per_clear);
        let start = sp - len;
        self.gc
            .space_mut()
            .fill(start, len, 0)
            .expect("stack memory is mapped");
        if len == dead {
            let t = &mut self.threads[self.current];
            t.deepest_sp = t.sp;
        }
        self.gc.note_stack_clear(len);
        len
    }

    /// Forces a full collection.
    pub fn collect(&mut self) -> CollectionStats {
        self.gc.collect()
    }

    /// Total allocations performed through this machine.
    pub fn alloc_count(&self) -> u64 {
        self.alloc_count
    }

    /// The collector.
    pub fn gc(&self) -> &Collector {
        &self.gc
    }

    /// Mutable access to the collector.
    pub fn gc_mut(&mut self) -> &mut Collector {
        &mut self.gc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FramePolicy, MachineConfig};
    use gc_heap::HeapConfig;

    fn quiet_config() -> MachineConfig {
        MachineConfig {
            gc: gc_core::GcConfig {
                heap: HeapConfig {
                    heap_base: Addr::new(0x10_0000),
                    max_heap_bytes: 16 << 20,
                    growth_pages: 16,
                    ..HeapConfig::default()
                },
                min_bytes_between_gcs: u64::MAX,
                ..gc_core::GcConfig::default()
            },
            ..MachineConfig::default()
        }
    }

    #[test]
    fn locals_root_objects() {
        let mut m = Machine::new(quiet_config());
        m.call(1, |m| {
            let obj = m.alloc(8, ObjectKind::Composite).unwrap();
            m.set_local(0, obj.raw());
            m.collect();
            assert!(m.gc().is_live(obj));
            m.set_local(0, 0);
            m.collect();
            assert!(!m.gc().is_live(obj));
        });
    }

    #[test]
    fn registers_root_objects() {
        let mut m = Machine::new(quiet_config());
        let obj = m.alloc(8, ObjectKind::Composite).unwrap();
        m.set_reg(3, obj.raw());
        m.collect();
        assert!(m.gc().is_live(obj));
        m.set_reg(3, 0);
        m.collect();
        assert!(!m.gc().is_live(obj));
    }

    #[test]
    fn dead_stack_below_sp_is_not_scanned() {
        // Like a real collector, only [sp, top) is scanned: after the pop
        // the stale slot is invisible and the object is reclaimed.
        let mut m = Machine::new(quiet_config());
        let obj = m.call(1, |m| {
            let obj = m.alloc(8, ObjectKind::Composite).unwrap();
            m.set_local(0, obj.raw());
            obj
        });
        m.collect();
        assert!(!m.gc().is_live(obj));
    }

    #[test]
    fn stale_slot_reappears_when_stack_regrows() {
        // §3.1 verbatim: "a pointer a may be written to a stack location,
        // the stack may be popped to well below that pointer's location,
        // the stack may grow again, and the garbage collector may be
        // invoked, with a again appearing live, since it failed to be
        // overwritten during the second stack expansion."
        let mut cfg = quiet_config();
        cfg.frame = FramePolicy {
            pad_words: 0,
            clear_on_push: false,
        };
        let mut m = Machine::new(cfg);
        let obj = m.call(1, |m| {
            let obj = m.alloc(8, ObjectKind::Composite).unwrap();
            m.set_local(0, obj.raw());
            obj
        });
        // Regrow with a same-shaped frame whose local 0 is never written.
        m.call(1, |m| {
            m.collect();
            assert!(
                m.gc().is_live(obj),
                "stale word inside the live window pins obj"
            );
        });
        // Popped again: invisible, and reclaimed.
        m.collect();
        assert!(!m.gc().is_live(obj));
    }

    #[test]
    fn regular_execution_overwrites_stale_slots() {
        // "The client program may have a very regular execution, ensuring
        // that the same stack locations are always overwritten."
        let mut cfg = quiet_config();
        cfg.frame = FramePolicy {
            pad_words: 0,
            clear_on_push: false,
        };
        let mut m = Machine::new(cfg);
        let obj = m.call(1, |m| {
            let obj = m.alloc(8, ObjectKind::Composite).unwrap();
            m.set_local(0, obj.raw());
            obj
        });
        m.call(1, |m| {
            m.set_local(0, 7);
            m.collect();
            assert!(!m.gc().is_live(obj), "overwritten slot no longer pins");
        });
    }

    #[test]
    fn oversized_frames_preserve_droppings_under_pad() {
        // The RISC large-frame effect: padding words of the new frame cover
        // the old frame's pointer slot but are never written.
        let mut cfg = quiet_config();
        cfg.frame = FramePolicy {
            pad_words: 8,
            clear_on_push: false,
        };
        let mut m = Machine::new(cfg);
        let obj = m.call(8, |m| {
            let obj = m.alloc(8, ObjectKind::Composite).unwrap();
            m.set_local(0, obj.raw()); // deepest slot of a 16-word frame
            obj
        });
        // A *smaller* call whose padded frame still reaches the stale slot.
        m.call(1, |m| {
            m.set_local(0, 7); // the only slot the program writes
            m.collect();
            assert!(
                m.gc().is_live(obj),
                "stale pointer under the never-written padding pins obj"
            );
        });
    }

    #[test]
    fn clear_on_push_removes_stale_locals() {
        let mut cfg = quiet_config();
        cfg.frame = FramePolicy {
            pad_words: 8,
            clear_on_push: true,
        };
        let mut m = Machine::new(cfg);
        let obj = m.call(8, |m| {
            let obj = m.alloc(8, ObjectKind::Composite).unwrap();
            m.set_local(0, obj.raw());
            obj
        });
        m.call(1, |m| {
            m.collect();
            assert!(
                !m.gc().is_live(obj),
                "defensively cleared frame hides nothing"
            );
        });
    }

    #[test]
    fn explicit_stack_clearing_prevents_regrowth_exposure() {
        // §3.1's allocator technique, invoked directly.
        let mut cfg = quiet_config();
        cfg.frame = FramePolicy {
            pad_words: 0,
            clear_on_push: false,
        };
        let mut m = Machine::new(cfg);
        let obj = m.call(1, |m| {
            let obj = m.alloc(8, ObjectKind::Composite).unwrap();
            m.set_local(0, obj.raw());
            obj
        });
        let cleared = m.clear_dead_stack();
        assert!(cleared >= 4, "the dead frame was cleared ({cleared} bytes)");
        m.call(1, |m| {
            m.collect();
            assert!(!m.gc().is_live(obj));
        });
    }

    #[test]
    fn periodic_stack_clearing_bounds_stale_retention() {
        let mut cfg = quiet_config();
        cfg.frame = FramePolicy {
            pad_words: 0,
            clear_on_push: false,
        };
        cfg.stack_clearing = StackClearing {
            enabled: true,
            every_allocs: 1,
            max_bytes_per_clear: 1 << 20,
        };
        let mut m = Machine::new(cfg);
        let obj = m.call(1, |m| {
            let obj = m.alloc(8, ObjectKind::Composite).unwrap();
            m.set_local(0, obj.raw());
            obj
        });
        // The next allocation (at shallow depth) clears the dead region.
        let _ = m.alloc(8, ObjectKind::Composite).unwrap();
        m.call(1, |m| {
            m.collect();
            assert!(!m.gc().is_live(obj));
        });
    }

    #[test]
    fn all_thread_stacks_root_their_live_frames() {
        let mut m = Machine::new(quiet_config());
        let t1 = m.spawn_thread(64 << 10);
        let main = m.current_thread();
        let obj = m.alloc(8, ObjectKind::Composite).unwrap();
        m.switch_thread(t1);
        m.call(1, |m| {
            m.set_local(0, obj.raw());
            // While t1's frame is live, even a collection triggered from
            // the main thread sees the reference.
            m.switch_thread(main);
            m.collect();
            assert!(m.gc().is_live(obj), "another thread's live stack is a root");
            m.switch_thread(t1);
        });
        m.switch_thread(main);
        m.collect();
        assert!(!m.gc().is_live(obj), "t1's popped frame is below its sp");
    }

    #[test]
    fn syscall_noise_trashes_registers() {
        let mut cfg = quiet_config();
        cfg.syscall_noise_registers = 8;
        cfg.seed = 42;
        let mut m = Machine::new(cfg);
        let before: Vec<u32> = (0..32).map(|i| m.reg(i)).collect();
        m.syscall();
        let after: Vec<u32> = (0..32).map(|i| m.reg(i)).collect();
        assert_ne!(before, after, "kernel droppings must appear");
    }

    #[test]
    fn allocator_without_hygiene_pins_last_allocation() {
        let mut cfg = quiet_config();
        cfg.allocator_hygiene = false;
        let mut m = Machine::new(cfg);
        let obj = m.alloc(8, ObjectKind::Composite).unwrap();
        m.collect();
        assert!(
            m.gc().is_live(obj),
            "scratch register pins the fresh object"
        );
        // A hygienic allocator leaves nothing behind.
        let mut m = Machine::new(quiet_config());
        let obj = m.alloc(8, ObjectKind::Composite).unwrap();
        m.collect();
        assert!(!m.gc().is_live(obj));
    }

    #[test]
    fn sloppy_allocator_stack_droppings_survive_regrowth() {
        // The allocator's dead frame left a pointer below sp; a later call
        // whose padding covers that region re-exposes it to the collector.
        let mut cfg = quiet_config();
        cfg.allocator_hygiene = false;
        cfg.frame = FramePolicy {
            pad_words: 8,
            clear_on_push: false,
        };
        let mut m = Machine::new(cfg);
        let obj = m.alloc(8, ObjectKind::Composite).unwrap();
        m.set_reg(31, 0); // clear the allocator scratch register
        m.call(1, |m| {
            m.set_local(0, 0);
            m.collect();
            assert!(
                m.gc().is_live(obj),
                "allocator dropping under the new frame's padding pins the object"
            );
        });
    }

    #[test]
    fn static_segment_roots() {
        let mut m = Machine::new(quiet_config());
        m.add_static_segment(Addr::new(0x2_0000), 4096);
        let cell = m.alloc_static(4);
        let next = m.alloc_static(1);
        assert_eq!(next, cell + 16);
        let obj = m.alloc(8, ObjectKind::Composite).unwrap();
        m.store(cell, obj.raw());
        m.collect();
        assert!(m.gc().is_live(obj));
        m.store(cell, 0);
        m.collect();
        assert!(!m.gc().is_live(obj));
    }

    #[test]
    #[should_panic(expected = "simulated stack overflow")]
    fn stack_overflow_panics() {
        let mut cfg = quiet_config();
        cfg.stack_bytes = 4096;
        let mut m = Machine::new(cfg);
        fn recurse(m: &mut Machine) {
            m.call(64, recurse);
        }
        recurse(&mut m);
    }

    #[test]
    fn scribbled_pads_pin_objects_until_overwritten() {
        let mut cfg = quiet_config();
        cfg.frame = FramePolicy {
            pad_words: 4,
            clear_on_push: false,
        };
        let mut m = Machine::new(cfg);
        let obj = m.alloc(8, ObjectKind::Composite).unwrap();
        m.call(1, |m| {
            m.scribble_pad(2, obj.raw());
            m.collect();
            assert!(
                m.gc().is_live(obj),
                "trap dropping in the pad pins the object"
            );
        });
        m.collect();
        assert!(!m.gc().is_live(obj), "pad is below sp after the pop");
    }

    #[test]
    #[should_panic(expected = "pad offset")]
    fn scribble_pad_bounds_checked() {
        let mut cfg = quiet_config();
        cfg.frame = FramePolicy {
            pad_words: 2,
            clear_on_push: false,
        };
        let mut m = Machine::new(cfg);
        m.call(1, |m| m.scribble_pad(2, 1));
    }

    #[test]
    fn nested_locals_are_per_frame() {
        let mut m = Machine::new(quiet_config());
        m.call(1, |m| {
            m.set_local(0, 11);
            m.call(1, |m| {
                m.set_local(0, 22);
                assert_eq!(m.local(0), 22);
            });
            assert_eq!(m.local(0), 11);
        });
    }
}
