//! In-memory span recorder for the traced run.
//!
//! Spans nest workload → op → layer call. The benchmark opens them around
//! its own calls into the router's public functions; nothing inside the
//! router is instrumented. A layer span may cover a loop of calls into one
//! layer (`calls` says how many), so a 1000-board batch records a handful
//! of spans, not thousands. Spans stay in memory and are written out once,
//! at exit.
//!
//! When tracing is off every method is a no-op, so untraced rounds pay
//! nothing beyond one branch per call site.

use meander_fleet::LatencyHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the op-level span every workload opens around one op.
pub const OP: &str = "op";

/// Largest share of an op's traced wall that its layer spans may leave
/// unaccounted (glue between calls) before the op counts as over bound.
pub const SUM_BOUND: f64 = 0.05;

const NO_PARENT: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    parent: usize,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    calls: usize,
}

/// The recorder: closed spans, the open-span stack, and per-op counters.
pub struct Tracer {
    enabled: bool,
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Counters summed over traced ops.
    counts: BTreeMap<&'static str, f64>,
    /// Per traced op, one value per named series (e.g. the op's cache hit rate).
    series: BTreeMap<&'static str, Vec<f64>>,
    /// Unit-packet latencies of every traced fleet call, merged.
    pub packets: LatencyHistogram,
    traced_ops: usize,
    /// Per traced op: wall not covered by layer spans, as a share of the wall.
    unattributed: Vec<f64>,
}

impl Tracer {
    /// A recorder for one workload; `enabled` is the run's `--trace` flag.
    /// The workload span opens now.
    pub fn new(workload: &'static str, enabled: bool) -> Tracer {
        let mut t = Tracer {
            enabled,
            on: enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
            series: BTreeMap::new(),
            packets: LatencyHistogram::default(),
            traced_ops: 0,
            unattributed: Vec::new(),
        };
        t.open(workload);
        t.on = false;
        t
    }

    /// Whether the current round is traced.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns tracing on or off for the next round (only in a traced run).
    pub fn set_round(&mut self, traced: bool) {
        debug_assert_eq!(self.open.len(), usize::from(self.enabled));
        self.on = self.enabled && traced;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            calls: 1,
        });
    }

    /// Closes the innermost open span, recording how many layer calls it
    /// covered. Closing an op span checks that its layer spans add up.
    pub fn close(&mut self, calls: usize) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let Some(idx) = self.open.pop() else {
            return;
        };
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.calls = calls;
        if span.name == OP {
            let wall = (span.end_ns - span.start_ns) as f64;
            let covered: u64 = self.spans[idx + 1..]
                .iter()
                .filter(|s| s.parent == idx)
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            self.traced_ops += 1;
            self.unattributed.push(if wall > 0.0 {
                1.0 - covered as f64 / wall
            } else {
                0.0
            });
        }
    }

    /// Runs `f` inside a span named after the layer it calls.
    pub fn span<R>(&mut self, name: &'static str, calls: usize, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close(calls);
        r
    }

    /// Adds `v` to counter `name` (traced rounds only).
    pub fn count(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counts.entry(name).or_default() += v;
        }
    }

    /// Appends one per-op sample to series `name` (traced rounds only).
    pub fn sample(&mut self, name: &'static str, v: f64) {
        if self.on {
            self.series.entry(name).or_default().push(v);
        }
    }

    /// Merges one fleet call's packet latencies (traced rounds only).
    pub fn add_packets(&mut self, h: &LatencyHistogram) {
        if !self.on {
            return;
        }
        for (a, b) in self.packets.buckets.iter_mut().zip(h.buckets) {
            *a += b;
        }
        self.packets.count += h.count;
        self.packets.total += h.total;
        self.packets.max = self.packets.max.max(h.max);
    }

    /// Traced ops closed so far.
    pub fn traced_ops(&self) -> usize {
        self.traced_ops
    }

    /// Counter `name` summed over traced ops (0 when never counted).
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The samples of series `name`.
    pub fn series(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }

    /// Seconds spent in layer spans named `name`, summed over traced ops.
    pub fn layer_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent != NO_PARENT)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Per traced op, the share of its wall no layer span covers.
    pub fn unattributed(&self) -> &[f64] {
        &self.unattributed
    }

    /// Closes the workload span and renders every span as one JSON line:
    /// id, parent, name, start/end in ns since the run began, layer calls.
    pub fn finish_jsonl(&mut self) -> String {
        if self.enabled {
            self.on = true;
            while !self.open.is_empty() {
                self.close(1);
            }
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        out
    }
}
