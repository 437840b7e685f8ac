//! Offline stand-in for the `criterion` crate.
//!
//! The build environment cannot fetch crates.io dependencies, so this crate
//! provides a minimal wall-clock benchmarking harness behind the subset of
//! the criterion API the workspace's benches use: [`Criterion`],
//! [`BenchmarkGroup`], `iter` / `iter_batched`, [`BenchmarkId`],
//! [`BatchSize`], and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Methodology is deliberately simple: each benchmark is warmed up once,
//! then timed over `sample_size` samples whose per-iteration medians and
//! means are printed. There is no statistical regression analysis — the
//! numbers are indicative, which is all the offline environment supports.
//! `BENCH_QUICK=1` caps samples at 3 for smoke runs.

use std::fmt;
use std::time::{Duration, Instant};

/// How batched inputs are grouped (mirrors `criterion::BatchSize`; the
/// distinction does not change behavior here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// A benchmark identifier: function name plus optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Id with a function name and a parameter.
    pub fn new<P: fmt::Display>(function: &str, parameter: P) -> Self {
        BenchmarkId {
            label: format!("{function}/{parameter}"),
        }
    }

    /// Id carrying only a parameter.
    pub fn from_parameter<P: fmt::Display>(parameter: P) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

/// Per-benchmark timing driver handed to the closure.
pub struct Bencher {
    samples: usize,
    /// Collected per-sample durations (one sample = one routine call).
    pub times: Vec<Duration>,
}

impl Bencher {
    /// Times `routine` directly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (also forces lazy statics / caches).
        let _ = routine();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            let out = routine();
            self.times.push(t0.elapsed());
            drop(out);
        }
    }

    /// Times `routine` on fresh inputs from `setup`; setup time excluded.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let _ = routine(setup());
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            let out = routine(input);
            self.times.push(t0.elapsed());
            drop(out);
        }
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    criterion: &'a mut Criterion,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, label: String, mut f: F) {
        let samples = if std::env::var("BENCH_QUICK").is_ok() {
            self.sample_size.min(3)
        } else {
            self.sample_size
        };
        let mut b = Bencher {
            samples,
            times: Vec::with_capacity(samples),
        };
        f(&mut b);
        let mut sorted = b.times.clone();
        sorted.sort_unstable();
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or_default();
        let mean = if sorted.is_empty() {
            Duration::ZERO
        } else {
            sorted.iter().sum::<Duration>() / sorted.len() as u32
        };
        // A stand-alone bench (`Criterion::bench_function`) runs in a group
        // named "" and is identified by its label alone.
        let id = if self.name.is_empty() {
            label
        } else {
            format!("{}/{}", self.name, label)
        };
        println!(
            "bench {:<40} median {:>12.6} ms  mean {:>12.6} ms  ({} samples)",
            id,
            median.as_secs_f64() * 1e3,
            mean.as_secs_f64() * 1e3,
            sorted.len()
        );
        self.criterion
            .results
            .push(BenchResult { id, median, mean });
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, f: F) {
        let id: BenchmarkId = id.into();
        self.run(id.label, f);
    }

    /// Runs one parameterized benchmark.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        self.run(id.label, |b| f(b, input));
    }

    /// Ends the group (printing already happened per-bench).
    pub fn finish(self) {}
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/label`, or just `label` for a stand-alone bench.
    pub id: String,
    /// Median per-iteration time.
    pub median: Duration,
    /// Mean per-iteration time.
    pub mean: Duration,
}

/// Top-level bench context (mirrors `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    /// All completed measurements, for callers that post-process.
    pub results: Vec<BenchResult>,
}

impl Criterion {
    /// Opens a named group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            criterion: self,
            sample_size: 20,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) -> &mut Self {
        let mut g = self.benchmark_group("");
        g.bench_function(name, f);
        g.finish();
        self
    }
}

/// Opaque value barrier (best-effort without unstable intrinsics).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declares a bench entry group (mirrors `criterion::criterion_group!`).
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the bench `main` (mirrors `criterion::criterion_main!`).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        let mut g = c.benchmark_group("shim");
        g.sample_size(5);
        g.bench_function("iter", |b| b.iter(|| (0..100).sum::<u64>()));
        g.bench_with_input(BenchmarkId::new("batched", 4), &4u64, |b, &n| {
            b.iter_batched(
                || vec![n; 64],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        g.finish();
    }

    #[test]
    fn harness_collects_results() {
        let mut c = Criterion::default();
        sample_bench(&mut c);
        assert_eq!(c.results.len(), 2);
        assert!(c.results.iter().all(|r| r.id.starts_with("shim/")));
    }

    #[test]
    fn standalone_bench_id_is_its_label() {
        let mut c = Criterion::default();
        c.bench_function("x", |b| b.iter(|| 1 + 1));
        assert_eq!(c.results[0].id, "x");
    }

    criterion_group!(benches, sample_bench);

    #[test]
    fn group_macro_runs() {
        benches();
    }
}
