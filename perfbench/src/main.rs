//! The collector's benchmark: one workload per process, chosen by name.
//!
//! ```text
//! perfbench --workload <gcbench|program_t|typed_mutate> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! `--seconds` sets the amount of work at a fixed nominal rate, so a seed
//! and a length always give the same operations. With `--trace 0` the run
//! reports the end-to-end metrics. With `--trace 1` it runs the workload
//! untraced, then traced (and `gcbench` once more with two mark workers),
//! reports the per-layer metrics and writes the traced run's spans under
//! `.bench_out/`. Standard output ends with a `{"report": …}` line
//! (configuration and work counters) and then one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod probe;
mod workloads;

use gc_core::GcConfig;
use gc_platforms::{BuildOptions, Platform, Profile};
use probe::{EventLayers, Measured, Mu, OpTime, Probe, Span, Trace, Work};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::ProgramTShape;

/// `gcbench` short-lived sweep rounds per second of `--seconds`, and the
/// fewest rounds a run makes (about four collections each).
const GCBENCH_ROUNDS_PER_SECOND: f64 = 5.0;
const GCBENCH_MIN_ROUNDS: u32 = 30;
/// `program_t` repetitions per second of `--seconds`, and the fewest a
/// run makes (14 collections each).
const PROGRAM_T_REPS_PER_SECOND: f64 = 0.6;
const PROGRAM_T_MIN_REPS: u32 = 8;
/// `typed_mutate` operations per second of `--seconds`, and the fewest.
const TYPED_OPS_PER_SECOND: f64 = 1_600_000.0;
const TYPED_MIN_OPS: u32 = 1 << 20;
/// Platform builds per run on the synthetic image; `program_t` builds one
/// per repetition. `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;
/// Where traced runs write their spans, relative to the working directory.
const SPANS_DIR: &str = ".bench_out";
/// Fewest pause samples a run needs for its pause percentiles: the 90th
/// percentile then has at least ten samples beyond it.
const MIN_PAUSE_SAMPLES: usize = 100;
/// Program T's retention with blacklisting on SPARC(static): lists
/// retained for seeds 1 to 60, as measured. Any other seed may retain at
/// most 5% of its lists; without blacklisting this reproduction's Table 1
/// retains 77–83%.
const RECORDED_RETENTION: [u32; 60] = [
    1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 4, 0, 0, 1, 0, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0,
    0, 0, 1, 1, 1, 0, 1, 0, 1, 0, 3, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0,
];
const MAX_RETAINED_LISTS: u32 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    GcBench,
    ProgramT,
    TypedMutate,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "gcbench" => Some(Workload::GcBench),
            "program_t" => Some(Workload::ProgramT),
            "typed_mutate" => Some(Workload::TypedMutate),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::GcBench => "gcbench",
            Workload::ProgramT => "program_t",
            Workload::TypedMutate => "typed_mutate",
        }
    }

    fn profile(self) -> Profile {
        match self {
            Workload::ProgramT => Profile::sparc_static(false),
            Workload::GcBench | Workload::TypedMutate => Profile::synthetic(),
        }
    }

    /// Pins every collector setting that would otherwise come from the
    /// environment, and the mode each workload measures.
    fn configure(self, gc: &mut GcConfig, mark_threads: u32) {
        gc.mark_threads = mark_threads;
        gc.mark_threads_force = false;
        gc.resolve_cache = true;
        gc.lazy_sweep = self == Workload::TypedMutate;
        gc.incremental = self == Workload::TypedMutate;
        gc.generational = false;
        gc.blacklisting = true;
    }

    /// The amount of work `seconds` selects: `gcbench` rounds,
    /// `program_t` repetitions or `typed_mutate` operations.
    fn size(self, seconds: u32) -> u32 {
        let (rate, min) = match self {
            Workload::GcBench => (GCBENCH_ROUNDS_PER_SECOND, GCBENCH_MIN_ROUNDS),
            Workload::ProgramT => (PROGRAM_T_REPS_PER_SECOND, PROGRAM_T_MIN_REPS),
            Workload::TypedMutate => (TYPED_OPS_PER_SECOND, TYPED_MIN_OPS),
        };
        ((f64::from(seconds) * rate).round() as u32).max(min)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u32>().map_err(|_| bad())?;
                seconds = Some(Some(s).filter(|s| (1..=600).contains(s)).ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One platform's timed workload and what its probe measured.
struct Rep {
    build: Duration,
    setup: Duration,
    run: Duration,
    measured: Measured,
    attempted: u64,
    failed: u64,
    /// `program_t`: lists retained, of lists allocated.
    retained: Option<(u32, u32)>,
    config: String,
}

/// Every repetition of one workload in one mode.
struct RunOut {
    reps: Vec<Rep>,
    /// Build and setup times of platforms built only for the median.
    extra_setups: Vec<(Duration, Duration)>,
}

impl RunOut {
    fn work(&self) -> Work {
        let mut w = Work::default();
        for rep in &self.reps {
            w.merge(&rep.measured.work);
        }
        w
    }

    fn attempted(&self) -> u64 {
        self.reps.iter().map(|r| r.attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.reps.iter().map(|r| r.failed).sum()
    }

    fn run_s(&self) -> f64 {
        self.reps.iter().map(|r| r.run.as_secs_f64()).sum()
    }

    fn pauses_ns(&self) -> Vec<u64> {
        self.reps
            .iter()
            .flat_map(|r| r.measured.pauses_ns.iter().copied())
            .collect()
    }

    fn setups(&self) -> impl Iterator<Item = (Duration, Duration)> + '_ {
        self.extra_setups
            .iter()
            .copied()
            .chain(self.reps.iter().map(|r| (r.build, r.setup)))
    }

    fn retained(&self) -> Option<(u32, u32)> {
        self.reps
            .iter()
            .filter_map(|r| r.retained)
            .reduce(|a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// The event telemetry of every repetition, summed.
    fn events(&self) -> EventLayers {
        let mut sum = EventLayers::default();
        for rep in &self.reps {
            sum.add(rep.measured.events.as_ref().expect("run recorded events"));
        }
        sum
    }
}

/// Builds and starts one platform: the image, its static pollution, and
/// the startup collection. Returns it with its build and setup times.
fn setup(
    w: Workload,
    seed: u64,
    mark_threads: u32,
    probe: &mut Probe,
) -> (Platform, Duration, Duration) {
    let opts = BuildOptions {
        seed,
        blacklisting: true,
        mark_threads: Some(mark_threads),
        lazy_sweep: Some(w == Workload::TypedMutate),
        ..BuildOptions::default()
    };
    let sink = probe.sink.clone();
    let t0 = Instant::now();
    let mut platform = w.profile().build_custom(opts, |gc| {
        w.configure(gc, mark_threads);
        gc.observer = Some(sink);
    });
    let build = t0.elapsed();
    Mu {
        m: &mut platform.machine,
        probe,
    }
    .start();
    (platform, build, t0.elapsed())
}

enum Outcome {
    GcBench(workloads::GcBenchRoots),
    ProgramT(Vec<bool>),
    TypedMutate(workloads::Shadow),
}

/// Runs workload `w` at `size`, then checks its output.
fn run(
    w: Workload,
    seed: u64,
    size: u32,
    trace: Trace,
    mark_threads: u32,
    epoch: Instant,
) -> RunOut {
    let mut out = RunOut {
        reps: Vec::new(),
        extra_setups: Vec::new(),
    };
    let reps = if w == Workload::ProgramT {
        size
    } else {
        for _ in 1..SETUP_SAMPLES {
            let mut probe = Probe::new(epoch, Trace::Off);
            let (_, build, setup) = setup(w, seed, mark_threads, &mut probe);
            out.extra_setups.push((build, setup));
        }
        1
    };
    for _ in 0..reps {
        let mut probe = Probe::new(epoch, trace);
        let (mut platform, build, setup_time) = setup(w, seed, mark_threads, &mut probe);
        let Platform { machine, hooks, .. } = &mut platform;
        let mut mu = Mu {
            m: machine,
            probe: &mut probe,
        };
        mu.probe.begin_run();
        let t0 = Instant::now();
        let outcome = match w {
            Workload::GcBench => workloads::gcbench(&mut mu, size).map(Outcome::GcBench),
            Workload::ProgramT => {
                workloads::program_t(&mut mu, hooks, ProgramTShape::PAPER).map(Outcome::ProgramT)
            }
            Workload::TypedMutate => {
                workloads::typed_mutate(&mut mu, seed, size).map(Outcome::TypedMutate)
            }
        };
        let run_time = t0.elapsed();
        let measured = mu.probe.finish(mu.m.gc());
        let config = config_json(&mu.m.gc().metrics_json());
        let mut retained = None;
        match outcome {
            Ok(Outcome::GcBench(roots)) => workloads::check_gcbench(&mut mu, &roots),
            Ok(Outcome::ProgramT(reclaimed)) => {
                let kept = reclaimed.iter().filter(|&&r| !r).count() as u32;
                check_retention(&mut mu, seed, kept);
                retained = Some((kept, reclaimed.len() as u32));
            }
            Ok(Outcome::TypedMutate(shadow)) => workloads::check_typed_mutate(&mut mu, &shadow),
            // The wrapper counted the failed allocation.
            Err(_) => {}
        }
        out.reps.push(Rep {
            build,
            setup: setup_time,
            run: run_time,
            measured,
            attempted: probe.attempted,
            failed: probe.failed,
            retained,
            config,
        });
    }
    out
}

/// Program T must retain what this seed was recorded to retain, or for
/// an unrecorded seed no more than Table 1's range.
fn check_retention(mu: &mut Mu<'_>, seed: u64, kept: u32) {
    let recorded = usize::try_from(seed)
        .ok()
        .and_then(|s| s.checked_sub(1))
        .and_then(|i| RECORDED_RETENTION.get(i).copied());
    mu.probe.check(
        recorded.map_or(kept <= MAX_RETAINED_LISTS, |n| kept == n),
        || format!("retained {kept} lists; recorded {recorded:?}, at most {MAX_RETAINED_LISTS}"),
    );
}

/// The `config` object of a `metrics_json` snapshot.
fn config_json(metrics: &str) -> String {
    const KEY: &str = "\"config\":";
    let start = metrics.find(KEY).map(|i| i + KEY.len());
    let end = start.and_then(|s| metrics[s..].find('}').map(|e| s + e + 1));
    match (start, end) {
        (Some(s), Some(e)) => metrics[s..e].to_string(),
        _ => "null".to_string(),
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    percentile(&mut v, 50.0)
}

/// Linear interpolation between the closest ranks.
fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

const PAGE_MB: f64 = 4096.0 / (1024.0 * 1024.0);

/// A metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(out: &RunOut) -> Result<Vec<Metric>, String> {
    let pauses_ns = out.pauses_ns();
    if pauses_ns.len() < MIN_PAUSE_SAMPLES {
        return Err(format!(
            "{} pause samples; percentiles need at least {MIN_PAUSE_SAMPLES}",
            pauses_ns.len()
        ));
    }
    let mut pauses_ms: Vec<f64> = pauses_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let setup_s = median(out.setups().map(|(_, s)| s.as_secs_f64()).collect());
    let rss = peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    Ok(vec![
        ("setup_s", setup_s, "s"),
        ("run_s", out.run_s(), "s"),
        ("gc_s", pauses_ns.iter().sum::<u64>() as f64 / 1e9, "s"),
        ("pause_p50_ms", percentile(&mut pauses_ms, 50.0), "ms"),
        ("pause_p90_ms", percentile(&mut pauses_ms, 90.0), "ms"),
        (
            "peak_mapped_mb",
            out.work().peak_mapped_pages as f64 * PAGE_MB,
            "MB",
        ),
        ("peak_rss_mb", rss, "MB"),
    ])
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// All spans of a run, parent indices rebased into one list.
fn all_spans(out: &RunOut) -> Vec<Span> {
    let mut spans = Vec::new();
    for rep in &out.reps {
        let base = spans.len();
        let calls = rep.measured.calls.as_ref().expect("traced run");
        spans.extend(calls.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    spans
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(base: &RunOut, traced: &RunOut, par2: Option<&RunOut>, spans: &[Span]) -> Vec<Metric> {
    let ev = traced.events();
    let work = traced.work();
    let (mut alloc, mut alloc_typed, mut store) =
        (OpTime::default(), OpTime::default(), OpTime::default());
    let (mut hits, mut misses) = (0, 0);
    for rep in &traced.reps {
        let c = rep.measured.calls.as_ref().expect("traced run");
        alloc.merge(&c.alloc);
        alloc_typed.merge(&c.alloc_typed);
        store.merge(&c.store);
        hits += rep.measured.resolve_hits;
        misses += rep.measured.resolve_misses;
    }
    let (mut slow_count, mut slow_self_ns) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if matches!(s.name, "alloc_slow" | "alloc_typed_slow") {
            slow_count += 1;
            slow_self_ns += own;
        }
    }
    let (par2_drain, par2_steals, par2_imbalance) = par2.map_or((0.0, 0.0, 0.0), |p| {
        let pe = p.events();
        let busy = ratio(pe.worker_max.as_secs_f64(), pe.worker_min.as_secs_f64());
        (ms(pe.mark), pe.steals as f64, busy)
    });
    let retained = traced.retained().map_or(0.0, |r| f64::from(r.0));
    let build_ms = median(traced.setups().map(|(b, _)| ms(b)).collect());
    let count = |n: u64| n as f64;
    vec![
        ("collector.alloc.count", count(alloc.count), "count"),
        ("collector.alloc.ns_per_op", alloc.ns_per_op(), "ns/op"),
        (
            "collector.alloc_typed.count",
            count(alloc_typed.count),
            "count",
        ),
        (
            "collector.alloc_typed.ns_per_op",
            alloc_typed.ns_per_op(),
            "ns/op",
        ),
        ("collector.alloc_slow.count", count(slow_count), "count"),
        (
            "collector.alloc_slow.self_ms",
            slow_self_ns as f64 / 1e6,
            "ms",
        ),
        ("collector.store.count", count(store.count), "count"),
        ("collector.store.ns_per_op", store.ns_per_op(), "ns/op"),
        ("collector.increment.count", count(ev.increments), "count"),
        ("collector.increment.ms", ms(ev.increment_time), "ms"),
        ("collector.stw_collections", count(ev.stw), "count"),
        (
            "collector.abandoned_cycles",
            count(ev.abandoned_cycles),
            "count",
        ),
        ("collector.unattributed_ms", ms(ev.unattributed), "ms"),
        (
            "collector.unattributed_flagged",
            ev.flagged.len() as f64,
            "count",
        ),
        ("mark.root_scan_ms", ms(ev.root_scan), "ms"),
        ("mark.root_words", count(work.root_words), "count"),
        ("mark.drain_ms", ms(ev.mark), "ms"),
        ("mark.heap_words", count(work.heap_words), "count"),
        ("mark.objects", count(work.objects_marked), "count"),
        (
            "mark.resolve_hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        ),
        (
            "mark.valid_ratio",
            ratio(work.valid_pointers as f64, work.candidates_in_range as f64),
            "ratio",
        ),
        ("mark.false_refs", count(work.false_refs), "count"),
        ("mark.par2_drain_ms", par2_drain, "ms"),
        ("mark.par2_steals", par2_steals, "count"),
        ("mark.par2_worker_imbalance", par2_imbalance, "ratio"),
        ("blacklist.pages", count(work.blacklist_pages), "pages"),
        ("blacklist.new_pages", count(ev.blacklist_new), "pages"),
        ("finalize.ms", ms(ev.finalize), "ms"),
        ("finalize.ready", count(ev.finalizers_ready), "count"),
        ("finalize.retained_lists", retained, "count"),
        ("heap.sweep_ms", ms(ev.sweep), "ms"),
        ("heap.objects_freed", count(ev.objects_freed), "count"),
        ("heap.lazy_sweep_ms", ms(ev.lazy_time), "ms"),
        ("heap.lazy_sweep_blocks", count(ev.lazy_blocks), "count"),
        ("heap.grow.count", count(ev.grow_count), "count"),
        ("heap.grow.pages", count(ev.grow_pages), "pages"),
        ("platforms.build_ms", build_ms, "ms"),
        (
            "trace.overhead_pct",
            (traced.run_s() / base.run_s() - 1.0) * 100.0,
            "%",
        ),
    ]
}

fn work_json(w: &Work) -> String {
    format!(
        "{{\"collections\":{},\"increments\":{},\"objects_marked\":{},\"root_words\":{},\"heap_words\":{},\"candidates_in_range\":{},\"valid_pointers\":{},\"false_refs\":{},\"objects_freed\":{},\"finalizers_ready\":{},\"allocs\":{},\"stores\":{},\"pause_samples\":{},\"peak_mapped_pages\":{},\"blacklist_pages\":{}}}",
        w.collections,
        w.increments,
        w.objects_marked,
        w.root_words,
        w.heap_words,
        w.candidates_in_range,
        w.valid_pointers,
        w.false_refs,
        w.objects_freed,
        w.finalizers_ready,
        w.allocs,
        w.stores,
        w.pause_samples,
        w.peak_mapped_pages,
        w.blacklist_pages,
    )
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    s.push('}');
    s
}

/// Writes one span per line, with its self time.
fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"self_ns\":{own},\"gc_no\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns - s.start_ns,
            s.gc_no
        )?;
    }
    f.flush()
}

/// Checks of a whole invocation: every run's, plus those across runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, out: &RunOut) {
        self.attempted += out.attempted();
        self.failed += out.failed();
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// The traced run: per-layer metrics from a second, traced pass (and for
/// `gcbench` a third with two mark workers); spans written to disk.
fn traced_metrics(
    args: &Args,
    size: u32,
    base: &RunOut,
    tally: &mut Tally,
    epoch: Instant,
) -> Result<Vec<Metric>, String> {
    let w = args.workload;
    let traced = run(w, args.seed, size, Trace::Calls, 1, epoch);
    tally.add(&traced);
    let (base_work, traced_work) = (base.work(), traced.work());
    tally.check(traced_work == base_work, || {
        format!("tracing changed the work counters: {traced_work:?} vs {base_work:?}")
    });
    let par2 = (w == Workload::GcBench).then(|| run(w, args.seed, size, Trace::Events, 2, epoch));
    if let Some(p) = &par2 {
        tally.add(p);
        let (two, one) = (p.work().objects_marked, traced_work.objects_marked);
        tally.check(two == one, || {
            format!("two mark workers marked {two} objects, one marked {one}")
        });
    }
    let flagged = traced.events().flagged;
    if !flagged.is_empty() {
        eprintln!(
            "attribution: {} stop-the-world collections leave more than {:.0}% of their pause outside root scan, mark, finalize and sweep: {flagged:?}",
            flagged.len(),
            probe::UNATTRIBUTED_FLAG_SHARE * 100.0
        );
    }
    let spans = all_spans(&traced);
    let path = Path::new(SPANS_DIR).join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    write_spans(&path, &spans).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(per_layer(base, &traced, par2.as_ref(), &spans))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let size = w.size(args.seconds);
    let epoch = Instant::now();
    let base = run(w, args.seed, size, Trace::Off, 1, epoch);
    let mut tally = Tally::default();
    tally.add(&base);
    let metrics = if args.trace {
        traced_metrics(&args, size, &base, &mut tally, epoch)
    } else {
        end_to_end(&base)
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    let retention = base.retained().map_or("null".to_string(), |(kept, lists)| {
        let pct = f64::from(kept) / f64::from(lists) * 100.0;
        format!("{{\"lists\":{lists},\"retained\":{kept},\"retained_pct\":{pct}}}")
    });
    println!(
        "{{\"report\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"size\":{size},\"reps\":{},\"config\":{},\"work\":{},\"retention\":{retention},\"cores\":{}}}}}",
        w.name(),
        args.seed,
        args.seconds,
        base.reps.len(),
        base.reps[0].config,
        work_json(&base.work()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics_json(&metrics)
    );
    if tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
