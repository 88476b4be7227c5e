//! Integration tests for the telemetry subsystem: the observer event
//! stream under a real workload, phase-timing consistency, and the JSON
//! metrics snapshot.

use sec_gc::core::{observer, GcEvent, RingBufferSink, METRICS_SCHEMA_VERSION};
use sec_gc::platforms::{BuildOptions, Platform, Profile};
use sec_gc::workloads::ProgramT;

/// A parsed JSON value.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// The value of `key` in an object.
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// An object's keys, in document order.
    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Parses one complete JSON document (RFC 8259), by recursive descent.
fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        bytes: text.as_bytes(),
        at: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    match p.peek() {
        None => Ok(value),
        Some(_) => Err(p.error("trailing characters")),
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl JsonParser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() != Some(byte) {
            return Err(self.error(&format!("expected '{}'", byte as char)));
        }
        self.at += 1;
        Ok(())
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            _ => Err(self.error("expected a value")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if !self.bytes[self.at..].starts_with(word.as_bytes()) {
            return Err(self.error(&format!("expected {word}")));
        }
        self.at += word.len();
        Ok(value)
    }

    /// Reads the elements of an array or object: `item`s separated by
    /// commas up to `close`.
    fn sequence(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.at += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or a close")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut fields = Vec::new();
        self.sequence(b'}', |p| {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            fields.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Json::Object(fields))
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.sequence(b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Json::Array(items))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.at;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.at += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.at]).map_err(|e| e.to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.at += 1;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.at..self.at + 4)
                                .ok_or_else(|| self.error("short \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.at += 4;
                            // A lone surrogate half stands for itself.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.error("unknown escape")),
                    });
                }
                _ => return Err(self.error("unterminated string or control character")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        let digits = |p: &mut Self| {
            let from = p.at;
            while matches!(p.peek(), Some(b'0'..=b'9')) {
                p.at += 1;
            }
            if p.at == from {
                Err(p.error("expected a digit"))
            } else {
                Ok(())
            }
        };
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        if self.peek() == Some(b'0') {
            self.at += 1;
        } else {
            digits(self)?;
        }
        if self.peek() == Some(b'.') {
            self.at += 1;
            digits(self)?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            digits(self)?;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("ASCII digits");
        text.parse().map(Json::Number).map_err(|e| e.to_string())
    }
}

#[test]
fn the_json_checker_accepts_json_and_rejects_the_rest() {
    let doc =
        parse_json(r#" {"a":[1,-2.5e3,0.25,true,false,null],"b\u0041\n":{"c":"q\"\\/"},"d":[]} "#)
            .expect("valid JSON parses");
    assert_eq!(doc.keys(), ["a", "bA\n", "d"]);
    assert_eq!(
        doc.get("a"),
        Some(&Json::Array(vec![
            Json::Number(1.0),
            Json::Number(-2500.0),
            Json::Number(0.25),
            Json::Bool(true),
            Json::Bool(false),
            Json::Null,
        ]))
    );
    assert_eq!(
        doc.get("bA\n").and_then(|b| b.get("c")),
        Some(&Json::Str("q\"\\/".to_string()))
    );
    for bad in [
        "",
        "{",
        "}",
        "{\"a\":1,}",
        "[1,]",
        "[1 2]",
        "{\"a\" 1}",
        "{a:1}",
        "01",
        "1.",
        "-",
        "1e",
        "\"open",
        "\"\\x\"",
        "\"\\u12\"",
        "tru",
        "nul",
        "{} {}",
        "\"a\nb\"",
    ] {
        assert!(parse_json(bad).is_err(), "accepted {bad:?}");
    }
}

/// Runs Program T (scaled down) with a ring-buffer observer installed,
/// returning the retained event stream and the platform for further
/// inspection.
fn run_program_t_with_observer() -> (Vec<GcEvent>, Platform) {
    let sink = observer(RingBufferSink::new(100_000));
    let profile = Profile::sparc_static(false);
    let mut platform = profile.build_custom(
        BuildOptions {
            seed: 1,
            blacklisting: true,
            ..BuildOptions::default()
        },
        |gc| gc.observer = Some(sink.clone()),
    );
    let shape = ProgramT::paper().scaled(20);
    let Platform { machine, hooks, .. } = &mut platform;
    let report = shape.run(machine, &mut |m| hooks.tick(m));
    assert!(report.collections > 0, "Program T collects");
    let events = sink.lock().expect("sink uncontended").events();
    (events, platform)
}

#[test]
fn program_t_event_stream_is_ordered() {
    let (events, _platform) = run_program_t_with_observer();
    assert!(!events.is_empty(), "the run produces events");

    // Every CollectionBegin is closed by a CollectionEnd with the same
    // gc_no before the next begins, and gc_no increases monotonically.
    let mut open: Option<u64> = None;
    let mut last_gc_no = 0u64;
    let mut cycles = 0u32;
    for event in &events {
        match *event {
            GcEvent::CollectionBegin { gc_no, .. } => {
                assert_eq!(open, None, "GC#{gc_no} begins while another cycle is open");
                assert!(
                    gc_no > last_gc_no,
                    "gc_no increases: {gc_no} after {last_gc_no}"
                );
                open = Some(gc_no);
            }
            GcEvent::CollectionEnd {
                gc_no,
                duration,
                phases,
                ..
            } => {
                assert_eq!(open, Some(gc_no), "end pairs with the open begin");
                assert!(
                    phases.total() <= duration,
                    "phases fit in the cycle duration"
                );
                open = None;
                last_gc_no = gc_no;
                cycles += 1;
            }
            // Mid-cycle events carry the open cycle's number.
            GcEvent::BlacklistGrow { gc_no, .. } | GcEvent::FinalizersReady { gc_no, .. } => {
                assert_eq!(open, Some(gc_no), "cycle-scoped event inside its cycle");
            }
            _ => {}
        }
    }
    assert_eq!(open, None, "every begun cycle finished");
    assert!(cycles > 0, "at least one full begin/end pair observed");
}

#[test]
fn program_t_emits_slow_paths_and_blacklist_growth() {
    let (events, platform) = run_program_t_with_observer();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, GcEvent::AllocSlowPath { .. })),
        "automatic collections make some allocations slow"
    );
    assert!(
        events.iter().any(|e| matches!(e, GcEvent::HeapGrow { .. })),
        "the heap grows from empty"
    );
    // SPARC(static) pollution blacklists pages; growth must be reported.
    let final_pages = platform.machine.gc().blacklist().len();
    if final_pages > 0 {
        let reported: u32 = events
            .iter()
            .filter_map(|e| match e {
                GcEvent::BlacklistGrow {
                    newly_blacklisted, ..
                } => Some(*newly_blacklisted),
                _ => None,
            })
            .sum();
        assert!(
            reported > 0,
            "blacklist growth events cover the observed pages"
        );
    }
    // Histograms in GcStats agree with the event stream's cycle count.
    let stats = platform.machine.gc().stats();
    assert_eq!(
        stats.pause_times.count(),
        stats.collections + stats.increments,
        "one pause sample per stop-the-world cycle (no incremental mode here)"
    );
    assert!(stats.pause_times.p50() <= stats.pause_times.p95());
    assert!(stats.pause_times.p95() <= stats.pause_times.p99());
    assert!(stats.pause_times.p99() <= stats.pause_times.max());
}

#[test]
fn phase_breakdown_sums_within_total_duration() {
    let (_events, platform) = run_program_t_with_observer();
    let last = platform.machine.gc().stats().last.expect("collections ran");
    let phases = last.phases;
    assert!(
        phases.total() > std::time::Duration::ZERO,
        "phases were timed"
    );
    assert!(
        phases.total() <= last.duration,
        "root-scan {:?} + mark {:?} + finalize {:?} + sweep {:?} fits in {:?}",
        phases.root_scan,
        phases.mark,
        phases.finalize,
        phases.sweep,
        last.duration
    );
}

#[test]
fn metrics_json_snapshot_has_the_documented_schema() {
    let (events, platform) = run_program_t_with_observer();
    let json = platform.machine.gc().metrics_json();
    assert!(json.starts_with(&format!("{{\"version\":{METRICS_SCHEMA_VERSION},")));
    for key in [
        "\"collections\":",
        "\"last_collection\":",
        "\"phases\":",
        "\"root_scan_ns\":",
        "\"mark_ns\":",
        "\"finalize_ns\":",
        "\"sweep_ns\":",
        "\"pause_ns\":",
        "\"alloc_slow_path_ns\":",
        "\"fast_path_allocs\":",
        "\"slow_path_allocs\":",
        "\"p50\":",
        "\"p95\":",
        "\"p99\":",
        "\"heap\":",
        "\"page_table_bytes\":",
        "\"pop_words_scanned\":",
        "\"size_classes\":",
        "\"blacklist\":",
    ] {
        assert!(json.contains(key), "snapshot missing {key}: {json}");
    }
    let snapshot = parse_json(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
    let version = Json::Number(f64::from(METRICS_SCHEMA_VERSION));
    assert_eq!(snapshot.get("version"), Some(&version));
    let mut config = snapshot.get("config").expect("config").keys();
    config.sort_unstable();
    assert_eq!(
        config,
        [
            "generational",
            "incremental",
            "lazy_sweep",
            "pointer_policy",
            "scan_alignment",
        ]
    );
    assert!(!events.is_empty(), "the run produces events");
    for event in &events {
        let line = event.to_json();
        let parsed = parse_json(&line).unwrap_or_else(|e| panic!("{e}: {line}"));
        assert_eq!(parsed.get("v"), Some(&version), "{line}");
    }
}

#[test]
fn incremental_cycle_reports_pauses_and_phases() {
    use sec_gc::core::{CollectReason, Collector, GcConfig};
    use sec_gc::heap::ObjectKind;
    use sec_gc::vmspace::{Addr, AddressSpace, Endian, SegmentKind, SegmentSpec};

    let sink = observer(RingBufferSink::new(10_000));
    let mut space = AddressSpace::new(Endian::Big);
    space
        .map(SegmentSpec::new(
            "globals",
            SegmentKind::Data,
            Addr::new(0x1_0000),
            4096,
        ))
        .expect("maps");
    let mut gc = Collector::new(
        space,
        GcConfig {
            incremental: true,
            incremental_budget: 64,
            observer: Some(sink.clone()),
            ..GcConfig::default()
        },
    );
    // A live chain long enough to need several increments.
    let mut head = 0u32;
    for _ in 0..1000 {
        let cell = gc.alloc(16, ObjectKind::Composite).expect("room");
        gc.space_mut().write_u32(cell, head).expect("mapped");
        head = cell.raw();
        gc.space_mut()
            .write_u32(Addr::new(0x1_0000), head)
            .expect("mapped");
    }
    let stats = loop {
        if let Some(c) = gc.collect_increment(CollectReason::Explicit) {
            break c;
        }
    };
    assert!(
        stats.phases.total() <= stats.duration,
        "mutator time is excluded from phases"
    );
    assert!(
        stats.phases.mark > std::time::Duration::ZERO,
        "increments accumulated mark time"
    );
    let events = sink.lock().expect("uncontended").events();
    let pauses = events
        .iter()
        .filter(|e| matches!(e, GcEvent::IncrementalPause { .. }))
        .count() as u64;
    assert!(pauses >= 2, "several bounded pauses observed, got {pauses}");
    // One histogram sample per pause, plus one for the stop-the-world
    // startup collection (which is not an incremental pause).
    assert_eq!(gc.stats().pause_times.count(), pauses + 1);
}
