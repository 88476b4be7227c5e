//! The three workloads. Each is a closed loop: one mutator thread issues
//! its next allocation or store only after the previous one returned.
//! Every workload mutates the heap only through [`Mu`], and checks its own
//! output from the benchmark side afterwards.

use crate::probe::Mu;
use gc_core::GcError;
use gc_heap::{Descriptor, ObjectKind};
use gc_platforms::PlatformHooks;
use gc_vmspace::Addr;

/// SplitMix64: the benchmark's own generator, so inputs depend only on
/// the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE9C_0000_0001)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next() >> 32) * u64::from(n)) >> 32) as u32
    }
}

// ---------------------------------------------------------------------------
// gcbench
// ---------------------------------------------------------------------------

/// Depth of the long-lived tree and of the deepest short-lived tree.
pub const GCBENCH_DEPTH: u32 = 16;
const GCBENCH_MIN_DEPTH: u32 = 4;
const GCBENCH_ARRAY_BYTES: u32 = 4 << 20;

fn tree_size(depth: u32) -> u64 {
    (1u64 << (depth + 1)) - 1
}

/// GCBench `Node`: `[left, right, i, j]`.
fn new_node(mu: &mut Mu<'_>, left: u32, right: u32) -> Result<Addr, GcError> {
    let node = mu.alloc(16, ObjectKind::Composite)?;
    mu.store(node, left);
    mu.store(node + 4, right);
    Ok(node)
}

/// Classic `MakeTree`: the node first, then its subtrees.
fn tree_top_down(mu: &mut Mu<'_>, depth: u32) -> Result<Addr, GcError> {
    mu.call(2, |mu| {
        let node = new_node(mu, 0, 0)?;
        mu.m.set_local(0, node.raw());
        if depth > 0 {
            let left = tree_top_down(mu, depth - 1)?;
            mu.store(node, left.raw());
            let right = tree_top_down(mu, depth - 1)?;
            mu.store(node + 4, right.raw());
        }
        Ok(node)
    })
}

/// Classic `Populate` order: the subtrees first, then their parent.
fn tree_bottom_up(mu: &mut Mu<'_>, depth: u32) -> Result<Addr, GcError> {
    mu.call(2, |mu| {
        if depth == 0 {
            return new_node(mu, 0, 0);
        }
        let left = tree_bottom_up(mu, depth - 1)?;
        mu.m.set_local(0, left.raw());
        let right = tree_bottom_up(mu, depth - 1)?;
        mu.m.set_local(1, right.raw());
        new_node(mu, left.raw(), right.raw())
    })
}

/// Roots of GCBench's long-lived data.
pub struct GcBenchRoots {
    long_root: Addr,
    array_root: Addr,
}

/// Builds the long-lived depth-16 tree and the 4 MB pointer-free array,
/// then runs `rounds` of the classic short-lived sweep: depths 4, 6, …,
/// 16, alternating top-down and bottom-up construction.
pub fn gcbench(mu: &mut Mu<'_>, rounds: u32) -> Result<GcBenchRoots, GcError> {
    let long_root = mu.m.alloc_static(1);
    let array_root = mu.m.alloc_static(1);
    let scratch = mu.m.alloc_static(1);
    let tree = tree_bottom_up(mu, GCBENCH_DEPTH)?;
    mu.store(long_root, tree.raw());
    let array = mu.alloc(GCBENCH_ARRAY_BYTES, ObjectKind::Atomic)?;
    mu.store(array_root, array.raw());
    for k in 0..(GCBENCH_ARRAY_BYTES / 4).min(4096) {
        mu.store(array + k * 4, 1_000_000_000 / (k + 1));
    }
    for _ in 0..rounds {
        let mut depth = GCBENCH_MIN_DEPTH;
        while depth <= GCBENCH_DEPTH {
            let iterations = (tree_size(GCBENCH_DEPTH) / tree_size(depth)).clamp(1, 64);
            for i in 0..iterations {
                let tree = if i % 2 == 0 {
                    tree_top_down(mu, depth)?
                } else {
                    tree_bottom_up(mu, depth)?
                };
                mu.store(scratch, tree.raw());
                mu.store(scratch, 0);
            }
            depth += 2;
        }
    }
    Ok(GcBenchRoots {
        long_root,
        array_root,
    })
}

/// After a final collection: the array and every node of the long-lived
/// tree are live, and the tree still has its full shape.
pub fn check_gcbench(mu: &mut Mu<'_>, roots: &GcBenchRoots) {
    mu.collect();
    let array = Addr::new(mu.m.load(roots.array_root));
    let live = mu.m.gc().is_live(array);
    mu.probe
        .check(live, || "long-lived array was reclaimed".into());
    let mut nodes = 0u64;
    let mut dead = 0u64;
    let mut bad_shape = 0u64;
    let mut stack = vec![(mu.m.load(roots.long_root), GCBENCH_DEPTH)];
    while let Some((node, depth)) = stack.pop() {
        let node = Addr::new(node);
        nodes += 1;
        if !mu.m.gc().is_live(node) {
            dead += 1;
            continue;
        }
        let (left, right) = (mu.m.load(node), mu.m.load(node + 4));
        match (depth, left, right) {
            (0, 0, 0) => {}
            (0, _, _) | (_, 0, _) | (_, _, 0) => bad_shape += 1,
            _ => {
                stack.push((left, depth - 1));
                stack.push((right, depth - 1));
            }
        }
    }
    mu.probe.check(
        nodes == tree_size(GCBENCH_DEPTH) && dead == 0 && bad_shape == 0,
        || format!("long-lived tree: {nodes} nodes, {dead} reclaimed, {bad_shape} misshapen"),
    );
}

// ---------------------------------------------------------------------------
// program_t
// ---------------------------------------------------------------------------

/// Shape of Program T (appendix A): `lists` cycles of `nodes` 4-byte cells.
#[derive(Clone, Copy, Debug)]
pub struct ProgramTShape {
    pub lists: u32,
    pub nodes: u32,
}

impl ProgramTShape {
    /// The paper's scale 1: 200 lists of 25 000 cells.
    pub const PAPER: ProgramTShape = ProgramTShape {
        lists: 200,
        nodes: 25_000,
    };
}

const CELL_BYTES: u32 = 4;

/// Appendix A's Program T, operation for operation as the paper gives it:
/// `test(S)` allocates and drops the lists with one finalizer per list,
/// `test(2)` "simulates further program execution", and collections run
/// until no more lists are finalized. Returns the per-list reclaimed
/// flags (`false` = retained); a list reclaimed twice fails a check.
pub fn program_t(
    mu: &mut Mu<'_>,
    hooks: &mut PlatformHooks,
    shape: ProgramTShape,
) -> Result<Vec<bool>, GcError> {
    let a = mu.m.alloc_static(shape.lists);
    program_t_test(mu, Some(hooks), a, shape.lists, shape.nodes)?;
    mu.collect();
    program_t_test(mu, None, a, shape.lists, 2)?;
    let mut reclaimed = vec![false; shape.lists as usize];
    for _ in 0..5 {
        mu.collect();
        let newly = mu.m.gc_mut().drain_finalized();
        for &(_, token) in &newly {
            let slot = &mut reclaimed[token as usize];
            let first = !*slot;
            *slot = true;
            mu.probe
                .check(first, || format!("list {token} finalized twice"));
        }
        if newly.is_empty() {
            break;
        }
    }
    Ok(reclaimed)
}

/// `test(n)`: allocate `lists` cycles of `n` cells into the static array
/// `a`, then clear `a`, both loops in one frame whose slot 2 holds the
/// return-value temporary. Registers a finalizer per list and ticks the
/// platform once per list when `hooks` is given.
fn program_t_test(
    mu: &mut Mu<'_>,
    mut hooks: Option<&mut PlatformHooks>,
    a: Addr,
    lists: u32,
    n: u32,
) -> Result<(), GcError> {
    mu.call(4, |mu| {
        for i in 0..lists {
            let head = alloc_cycle(mu, n)?;
            mu.m.set_local(2, head.raw());
            mu.store(a + i * 4, head.raw());
            if let Some(hooks) = hooks.as_deref_mut() {
                mu.m.gc_mut().register_finalizer(head, u64::from(i))?;
                hooks.tick(mu.m);
            }
        }
        for i in 0..lists {
            mu.m.set_local(0, i);
            mu.store(a + i * 4, 0);
        }
        Ok(())
    })
}

/// `alloc_cycle(n)`: a circular list of `n` cells.
fn alloc_cycle(mu: &mut Mu<'_>, n: u32) -> Result<Addr, GcError> {
    mu.call(2, |mu| {
        let first = mu.alloc(CELL_BYTES, ObjectKind::Composite)?;
        mu.m.set_local(0, first.raw());
        let mut prev = first;
        for _ in 1..n {
            let cell = mu.alloc(CELL_BYTES, ObjectKind::Composite)?;
            mu.store(prev, cell.raw());
            mu.m.set_local(1, cell.raw());
            prev = cell;
        }
        mu.store(prev, first.raw());
        Ok(first)
    })
}

// ---------------------------------------------------------------------------
// typed_mutate
// ---------------------------------------------------------------------------

/// Table slots: one static word each.
pub const TABLE_SLOTS: u32 = 16 * 1024;
/// Record layout: `[pointer, pointer, data, data]`.
const RECORD_BYTES: u32 = 16;
const RECORD_POINTERS: u32 = 2;
/// Records are allocated in runs of this many of one kind, typed or
/// untyped at random: half the records are typed, and an incremental
/// cycle that starts in an untyped run takes a few increments before a
/// typed allocation collects stop-the-world.
const KIND_RUN: u32 = 5;
/// Seed of the typed/untyped run sequence. It is part of the workload's
/// definition rather than of its input, so that every seed gives the same
/// mix of pauses; the workload seed picks the slots and fields.
const KIND_SEED: u64 = 0x7E_C0DE;

/// The data word of record `id`: far above any heap address, so even a
/// conservatively scanned record never retains through it.
fn tag(id: u32) -> u32 {
    0xD000_0000 | id
}

/// What the benchmark expects the heap to hold: the record id (plus one;
/// 0 = empty) in every table slot and in every pointer field of it.
pub struct Shadow {
    table: Addr,
    slots: Vec<u32>,
    children: Vec<[u32; RECORD_POINTERS as usize]>,
}

/// Fills a static table with records, then runs `ops` operations. Each op
/// allocates a record (typed or untyped at random), writes its data word,
/// and then either stores it into a pointer field of a table record or
/// replaces a table slot with it. Every store runs the write barrier.
pub fn typed_mutate(mu: &mut Mu<'_>, seed: u64, ops: u32) -> Result<Shadow, GcError> {
    let mut rng = Rng::new(seed);
    let desc =
        mu.m.gc_mut()
            .register_descriptor(Descriptor::with_pointers_at(4, &[0, 1]));
    let table = mu.m.alloc_static(TABLE_SLOTS);
    let mut shadow = Shadow {
        table,
        slots: vec![0; TABLE_SLOTS as usize],
        children: vec![[0; RECORD_POINTERS as usize]; TABLE_SLOTS as usize],
    };
    let mut kinds = Rng::new(KIND_SEED);
    let mut typed = false;
    let mut record = |mu: &mut Mu<'_>, id: u32| -> Result<Addr, GcError> {
        if id.is_multiple_of(KIND_RUN) {
            typed = kinds.next() & 1 == 0;
        }
        let rec = if typed {
            mu.alloc_typed(RECORD_BYTES, desc)?
        } else {
            mu.alloc(RECORD_BYTES, ObjectKind::Composite)?
        };
        mu.store(rec + 8, tag(id));
        Ok(rec)
    };
    for s in 0..TABLE_SLOTS {
        let rec = record(mu, s)?;
        mu.store(table + s * 4, rec.raw());
        shadow.slots[s as usize] = s + 1;
    }
    for op in 0..ops {
        let id = TABLE_SLOTS + op;
        let rec = record(mu, id)?;
        let s = rng.below(TABLE_SLOTS);
        if rng.next() & 1 == 0 {
            let field = rng.below(RECORD_POINTERS);
            let old = Addr::new(mu.m.load(table + s * 4));
            mu.store(old + field * 4, rec.raw());
            shadow.children[s as usize][field as usize] = id + 1;
        } else {
            mu.store(table + s * 4, rec.raw());
            shadow.slots[s as usize] = id + 1;
            shadow.children[s as usize] = [0; RECORD_POINTERS as usize];
        }
    }
    Ok(shadow)
}

/// After a final collection, walks the table from the benchmark side:
/// every record the shadow says is reachable must be live and hold its
/// own data word and pointer fields.
pub fn check_typed_mutate(mu: &mut Mu<'_>, shadow: &Shadow) {
    mu.collect();
    let mut walked = 0u64;
    let mut wrong = 0u64;
    let mut record_ok = |mu: &Mu<'_>, addr: u32, id1: u32| {
        walked += 1;
        let addr = Addr::new(addr);
        addr.raw() != 0 && mu.m.gc().is_live(addr) && mu.m.load(addr + 8) == tag(id1 - 1)
    };
    for s in 0..TABLE_SLOTS {
        let rec = mu.m.load(shadow.table + s * 4);
        if !record_ok(mu, rec, shadow.slots[s as usize]) {
            wrong += 1;
            continue;
        }
        for (f, &child) in shadow.children[s as usize].iter().enumerate() {
            let ptr = mu.m.load(Addr::new(rec) + f as u32 * 4);
            let ok = if child == 0 {
                ptr == 0
            } else {
                record_ok(mu, ptr, child)
                    && mu.m.load(Addr::new(ptr)) == 0
                    && mu.m.load(Addr::new(ptr) + 4) == 0
            };
            wrong += u64::from(!ok);
        }
    }
    mu.probe.check(wrong == 0, || {
        format!("{wrong} of {walked} reachable records were reclaimed or overwritten")
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Probe, Trace};
    use gc_platforms::{BuildOptions, Platform, Profile};
    use gc_workloads::ProgramT;
    use std::time::Instant;

    fn platform(profile: Profile, seed: u64, incremental: bool, probe: &Probe) -> Platform {
        let opts = BuildOptions {
            seed,
            ..BuildOptions::default()
        };
        let mut p = profile.build_custom(opts, |gc| {
            gc.mark_threads = 1;
            gc.lazy_sweep = incremental;
            gc.incremental = incremental;
            gc.resolve_cache = true;
            gc.observer = Some(probe.sink.clone());
        });
        p.machine.gc_mut().start();
        p
    }

    #[test]
    fn program_t_replays_the_workloads_crate_exactly() {
        let shape = ProgramT::paper().scaled(10);
        for seed in [1, 2, 18] {
            let mut probe = Probe::new(Instant::now(), Trace::Off);
            let mut a = platform(Profile::sparc_static(false), seed, false, &probe);
            let Platform { machine, hooks, .. } = &mut a;
            let expected = shape.run(machine, &mut |m| hooks.tick(m));

            let mut b = platform(Profile::sparc_static(false), seed, false, &probe);
            let Platform { machine, hooks, .. } = &mut b;
            let mut mu = Mu {
                m: machine,
                probe: &mut probe,
            };
            let ours = ProgramTShape {
                lists: shape.lists,
                nodes: shape.nodes_per_list,
            };
            let reclaimed = program_t(&mut mu, hooks, ours).expect("heap has room");
            assert_eq!(reclaimed, expected.reclaimed, "seed {seed}");
            assert_eq!(machine.gc().gc_count(), expected.collections, "seed {seed}");
            assert_eq!(machine.gc().blacklist().len(), expected.blacklist_pages);
            assert_eq!(probe.failed, 0);
        }
    }

    #[test]
    fn gcbench_check_sees_a_broken_tree() {
        let mut probe = Probe::new(Instant::now(), Trace::Off);
        let mut p = platform(Profile::synthetic(), 1, false, &probe);
        let mut mu = Mu {
            m: &mut p.machine,
            probe: &mut probe,
        };
        let roots = gcbench(&mut mu, 1).expect("heap has room");
        check_gcbench(&mut mu, &roots);
        assert_eq!((mu.probe.attempted > 0, mu.probe.failed), (true, 0));
        // Cut one subtree off the long-lived tree: the walk must notice.
        let tree = Addr::new(mu.m.load(roots.long_root));
        mu.store(tree, 0);
        check_gcbench(&mut mu, &roots);
        assert_eq!(mu.probe.failed, 1);
    }

    #[test]
    fn typed_mutate_check_sees_an_overwritten_record() {
        let mut probe = Probe::new(Instant::now(), Trace::Off);
        let mut p = platform(Profile::synthetic(), 7, true, &probe);
        let mut mu = Mu {
            m: &mut p.machine,
            probe: &mut probe,
        };
        let shadow = typed_mutate(&mut mu, 7, 200_000).expect("heap has room");
        // Increments, abandoned cycles and stop-the-world collections mix
        // here; the observer's pause samples must match the histogram.
        let measured = mu.probe.finish(mu.m.gc());
        assert!(measured.work.increments > 0 && measured.work.collections > 0);
        assert_eq!(mu.probe.failed, 0);
        check_typed_mutate(&mut mu, &shadow);
        assert_eq!(mu.probe.failed, 0);
        let rec = Addr::new(mu.m.load(shadow.table));
        mu.store(rec + 8, 0);
        check_typed_mutate(&mut mu, &shadow);
        assert_eq!(mu.probe.failed, 1);
    }
}
