//! A minimal, std-only, in-repo stand-in for the [`criterion`] benchmark
//! crate.
//!
//! The build environment cannot reach the crates.io registry, so the
//! workspace vendors the subset of criterion's API its benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`] /
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkId`], [`Throughput`],
//! and the [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple: after one warm-up run, each
//! benchmark body is timed `sample_size` times with [`std::time::Instant`]
//! and the min / median / mean per-iteration times are printed. That is
//! enough to compare strategies within one machine and run (the only use
//! the workspace makes of benches); it does not attempt criterion's
//! statistical outlier analysis.
//!
//! Beyond printing, results can be captured machine-readably: point
//! [`Criterion::json_output`] at a path (the workspace convention is
//! `BENCH_<area>.json`, e.g. `BENCH_fea.json` in the repo root) and every
//! completed benchmark is appended to a JSON array of
//! `{group, id, min_ns, median_ns, mean_ns, samples}` records. The file
//! is rewritten after each benchmark, so a crashed run still leaves the
//! completed prefix on disk. This is how the perf trajectory is tracked
//! across PRs.
//!
//! [`criterion`]: https://docs.rs/criterion

use std::fmt::Display;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One completed benchmark measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Group name (empty for ungrouped benchmarks).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Fastest sample, nanoseconds.
    pub min_ns: u128,
    /// Median sample, nanoseconds.
    pub median_ns: u128,
    /// Mean sample, nanoseconds.
    pub mean_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    json_path: Option<PathBuf>,
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Mirrors criterion's CLI-argument handling; a no-op here.
    pub fn configure_from_args(self) -> Self {
        self
    }

    /// Writes every completed benchmark to `path` as a JSON array (shim
    /// extension; re-written after each benchmark so partial runs persist).
    pub fn json_output(&mut self, path: impl Into<PathBuf>) -> &mut Self {
        self.json_path = Some(path.into());
        self
    }

    /// The records measured so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Records an externally-measured result (shim extension). Load
    /// harnesses that measure latency distributions themselves — rather
    /// than timing a closure with [`Bencher::iter`] — report through this
    /// so their percentiles land in the same JSON stream as ordinary
    /// benchmarks. The record is printed and flushed like any other.
    pub fn record_custom(
        &mut self,
        group: &str,
        id: &str,
        min_ns: u128,
        median_ns: u128,
        mean_ns: u128,
        samples: usize,
    ) {
        println!(
            "  {group}/{id}: min {min_ns}ns  median {median_ns}ns  mean {mean_ns}ns  ({samples} samples)"
        );
        self.records.push(BenchRecord {
            group: group.to_owned(),
            id: id.to_owned(),
            min_ns,
            median_ns,
            mean_ns,
            samples,
        });
        self.flush_json();
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let group = name.into();
        println!("group {group}");
        BenchmarkGroup {
            criterion: self,
            group,
            sample_size: 20,
        }
    }

    /// Runs a single ungrouped benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: impl Display, f: F) {
        if let Some(stats) = run_benchmark(&name.to_string(), 20, f) {
            self.record("", &name.to_string(), stats);
        }
    }

    fn record(&mut self, group: &str, id: &str, stats: SampleStats) {
        self.records.push(BenchRecord {
            group: group.to_owned(),
            id: id.to_owned(),
            min_ns: stats.min.as_nanos(),
            median_ns: stats.median.as_nanos(),
            mean_ns: stats.mean.as_nanos(),
            samples: stats.samples,
        });
        self.flush_json();
    }

    fn flush_json(&self) {
        let Some(path) = &self.json_path else { return };
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("warning: cannot create {}: {e}", parent.display());
            }
        }
        let mut out = String::from("[\n");
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "  {{\"group\": {}, \"id\": {}, \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}}}",
                json_string(&r.group),
                json_string(&r.id),
                r.min_ns,
                r.median_ns,
                r.mean_ns,
                r.samples
            ));
        }
        out.push_str("\n]\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A named set of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    group: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Declares the amount of work one iteration represents (printed, not
    /// analyzed).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        match t {
            Throughput::Bytes(b) => println!("  throughput: {b} bytes/iter"),
            Throughput::Elements(e) => println!("  throughput: {e} elements/iter"),
        }
        self
    }

    /// Benchmarks `f` with shared setup data `input`.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        if let Some(stats) = run_benchmark(&id.0, self.sample_size, |b| f(b, input)) {
            self.criterion.record(&self.group, &id.0, stats);
        }
        self
    }

    /// Benchmarks a closure with no input.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        name: impl Display,
        f: F,
    ) -> &mut Self {
        let name = name.to_string();
        if let Some(stats) = run_benchmark(&name, self.sample_size, f) {
            self.criterion.record(&self.group, &name, stats);
        }
        self
    }

    /// Ends the group.
    pub fn finish(&mut self) {}
}

/// A benchmark name with an attached parameter, e.g. `solve/1024`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Combines a function name and a parameter into an id.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId(format!("{name}/{parameter}"))
    }
}

/// Work-per-iteration annotations.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Logical elements processed per iteration.
    Elements(u64),
}

/// Passed to each benchmark body; its [`iter`](Bencher::iter) method times
/// one sample.
pub struct Bencher {
    sample: Option<Duration>,
}

impl Bencher {
    /// Times one execution of `f` (the routine under benchmark).
    pub fn iter<T, F: FnMut() -> T>(&mut self, mut f: F) {
        let start = Instant::now();
        let out = f();
        self.sample = Some(start.elapsed());
        std::hint::black_box(out);
    }
}

/// Summary of one benchmark's timed samples.
#[derive(Debug, Clone, Copy)]
struct SampleStats {
    min: Duration,
    median: Duration,
    mean: Duration,
    samples: usize,
}

fn run_benchmark<F: FnMut(&mut Bencher)>(
    name: &str,
    samples: usize,
    mut f: F,
) -> Option<SampleStats> {
    // Warm-up: one untimed run populates caches and lazy state.
    let mut bench = Bencher { sample: None };
    f(&mut bench);
    let mut times: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        bench.sample = None;
        f(&mut bench);
        // A body that never calls iter() contributes nothing.
        if let Some(t) = bench.sample {
            times.push(t);
        }
    }
    if times.is_empty() {
        println!("  {name}: no samples (body never called iter)");
        return None;
    }
    times.sort();
    let stats = SampleStats {
        min: times[0],
        median: times[times.len() / 2],
        mean: times.iter().sum::<Duration>() / times.len() as u32,
        samples: times.len(),
    };
    println!(
        "  {name}: min {:?}  median {:?}  mean {:?}  ({} samples)",
        stats.min, stats.median, stats.mean, stats.samples
    );
    Some(stats)
}

/// Re-export for compatibility: benches import `black_box` from either
/// place.
pub use std::hint::black_box;

/// Collects benchmark functions into a runner, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main`, running each group in order.
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

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("solve", 1024).0, "solve/1024");
    }

    #[test]
    fn bencher_times_and_groups_run() {
        let mut c = Criterion::default().configure_from_args();
        let mut ran = 0;
        {
            let mut g = c.benchmark_group("shim");
            g.sample_size(3)
                .throughput(Throughput::Bytes(10))
                .bench_function("count", |b| {
                    b.iter(|| {
                        ran += 1;
                        std::hint::black_box(ran)
                    })
                });
            g.bench_with_input(BenchmarkId::new("with_input", 7), &7u32, |b, &x| {
                b.iter(|| x * 2)
            });
            g.finish();
        }
        // warm-up + 3 samples.
        assert_eq!(ran, 4);
        // Both benchmarks were recorded with their group attached.
        assert_eq!(c.records().len(), 2);
        assert_eq!(c.records()[0].group, "shim");
        assert_eq!(c.records()[0].id, "count");
        assert_eq!(c.records()[1].id, "with_input/7");
        assert_eq!(c.records()[0].samples, 3);
    }

    #[test]
    fn custom_records_join_the_stream() {
        let mut c = Criterion::default();
        c.record_custom("open_loop", "healthz/conns=8/p99", 10, 20, 30, 100);
        assert_eq!(c.records().len(), 1);
        let r = &c.records()[0];
        assert_eq!(r.group, "open_loop");
        assert_eq!(r.id, "healthz/conns=8/p99");
        assert_eq!(
            (r.min_ns, r.median_ns, r.mean_ns, r.samples),
            (10, 20, 30, 100)
        );
    }

    #[test]
    fn json_output_writes_valid_records() {
        let path =
            std::env::temp_dir().join(format!("criterion-shim-test-{}.json", std::process::id()));
        let mut c = Criterion::default();
        c.json_output(&path);
        c.bench_function("alpha \"quoted\"", |b| b.iter(|| 1 + 1));
        {
            let mut g = c.benchmark_group("grp");
            g.sample_size(2)
                .bench_function("beta", |b| b.iter(|| 2 + 2));
            g.finish();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.trim_start().starts_with('['), "{text}");
        assert!(text.contains("\"group\": \"grp\""), "{text}");
        assert!(text.contains("\"id\": \"beta\""), "{text}");
        assert!(text.contains("\\\"quoted\\\""), "{text}");
        assert!(text.contains("\"median_ns\""), "{text}");
        std::fs::remove_file(&path).ok();
    }
}
