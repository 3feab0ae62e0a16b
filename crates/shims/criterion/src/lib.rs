//! A minimal stand-in for the [`criterion`] benchmark harness, with no
//! external dependency.
//!
//! The build environment of this repository cannot reach crates.io, so this
//! crate vendors the subset of the criterion API the workspace's benches
//! use: [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`BenchmarkGroup::sample_size`],
//! [`BenchmarkId`], [`Bencher::iter`], [`black_box`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Instead of criterion's statistical analysis it reports the mean and
//! median wall-clock time of up to `sample_size` runs, bounded by a
//! per-benchmark time budget so accidental invocations stay cheap. Passing
//! `--test` (as `cargo test --benches` does) runs every benchmark exactly
//! once without timing, mirroring criterion's smoke-test mode.
//!
//! On top of the console report, every bench binary writes a
//! machine-readable artefact `BENCH_<bench>.json` (benchmark id →
//! `{"median_ms": …, "peak_rss_kib": …}`) so the perf trajectory — time
//! *and* memory — can be tracked across PRs instead of living only in
//! commit messages. `peak_rss_kib` is the process high-water mark
//! (`VmHWM` from `/proc/self/status`) observed right after the benchmark
//! ran, letting the out-of-core benches pin peak memory alongside the
//! median; the key is omitted on platforms without procfs. The file is
//! written through the workspace's one JSON writer
//! ([`hyperpraw_telemetry::json`]): ids are escaped, medians are rounded
//! to three decimals and a non-finite value is written as `null`, one id
//! per line. The output directory defaults to `target/` and is
//! overridable via `HYPERPRAW_BENCH_JSON_DIR`; nothing is written in
//! `--test` mode (single untimed runs are not measurements).
//!
//! [`criterion`]: https://crates.io/crates/criterion

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::collections::BTreeMap;
use std::fmt;
use std::hint;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use hyperpraw_telemetry::json::{self, ToJson};

/// Maximum wall-clock time spent measuring one benchmark.
const TIME_BUDGET: Duration = Duration::from_secs(2);

/// One measurement recorded for the JSON report.
#[derive(Clone, Copy, Debug)]
struct BenchRecord {
    /// Median wall-clock time in milliseconds.
    median_ms: f64,
    /// Process peak RSS (`VmHWM`) in KiB right after the benchmark ran;
    /// `None` where procfs is unavailable.
    peak_rss_kib: Option<u64>,
}

/// Process-wide registry of measurements (benchmark id → record), flushed
/// to `BENCH_<bench>.json` by [`write_json_report`].
fn registry() -> &'static Mutex<BTreeMap<String, BenchRecord>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<String, BenchRecord>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// The process peak resident set size in KiB: `VmHWM` from
/// `/proc/self/status`. `None` on platforms without procfs.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.strip_prefix("VmHWM:")?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The stem of the running bench binary with cargo's `-<hash>` suffix
/// stripped: `target/release/deps/partitioners-0f3a…` → `partitioners`.
fn bench_stem() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    match stem.rsplit_once('-') {
        Some((name, hash)) if !name.is_empty() && hash.chars().all(|c| c.is_ascii_hexdigit()) => {
            name.to_string()
        }
        _ => stem,
    }
}

/// The workspace `target/` directory the running bench binary lives in
/// (cargo executes benches with the *package* directory as CWD, so a
/// relative `target/` would scatter artefacts across crates). Falls back
/// to `target` under the CWD when the exe path gives no hint.
fn default_json_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| {
            exe.ancestors()
                .find(|a| a.file_name().is_some_and(|n| n == "target"))
                .map(PathBuf::from)
        })
        .unwrap_or_else(|| PathBuf::from("target"))
}

/// Writes the collected measurements as `BENCH_<bench>.json` (benchmark
/// id → `{"median_ms": …, "peak_rss_kib": …}`, sorted by id) into
/// `HYPERPRAW_BENCH_JSON_DIR` (default `target/`). Called by
/// [`criterion_main!`] after every group has run; a no-op when nothing
/// was measured (e.g. `--test` mode).
pub fn write_json_report() {
    let results = registry().lock().expect("bench registry poisoned");
    if results.is_empty() {
        return;
    }
    let dir = std::env::var_os("HYPERPRAW_BENCH_JSON_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(default_json_dir);
    let path = dir.join(format!("BENCH_{}.json", bench_stem()));
    if std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, render_report(&results)))
        .is_ok()
    {
        println!("bench medians written to {}", path.display());
    } else {
        eprintln!("warning: could not write {}", path.display());
    }
}

/// The `BENCH_<bench>.json` document: one
/// `"id": {"median_ms": …, "peak_rss_kib": …}` entry per line, so
/// regenerated snapshots diff line by line. Medians are rounded to three
/// decimals; `peak_rss_kib` is omitted when unknown.
fn render_report(results: &BTreeMap<String, BenchRecord>) -> String {
    let mut out = String::from("{\n");
    for (i, (id, record)) in results.iter().enumerate() {
        out.push_str(if i == 0 { "  " } else { ",\n  " });
        id.write_json(&mut out);
        out.push_str(": ");
        json::object(&mut out, |o| {
            o.field("median_ms", json::round3(record.median_ms));
            if let Some(kib) = record.peak_rss_kib {
                o.field("peak_rss_kib", kib);
            }
        });
    }
    out.push_str("\n}\n");
    out
}

/// Registers a pre-measured metric (in milliseconds) under `id` in the
/// JSON report, for benches whose figure of merit is not a routine's
/// wall-clock time — latency percentiles, queueing delays, end-to-end
/// client-side timings. The value lands in `BENCH_<bench>.json` next to
/// the timed medians. No-op under `--test` (single untimed smoke runs
/// are not measurements).
pub fn record_metric(id: impl Into<String>, value_ms: f64) {
    if std::env::args().any(|a| a == "--test") {
        return;
    }
    registry().lock().expect("bench registry poisoned").insert(
        id.into(),
        BenchRecord {
            median_ms: value_ms,
            peak_rss_kib: peak_rss_kib(),
        },
    );
}

/// Prevents the compiler from optimising away a benchmarked value.
pub fn black_box<T>(value: T) -> T {
    hint::black_box(value)
}

/// Identifier of one benchmark within a group.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter.
    pub fn new(name: impl Into<String>, parameter: impl fmt::Display) -> Self {
        Self {
            id: format!("{}/{parameter}", name.into()),
        }
    }

    /// An id made of a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// The top-level benchmark driver, created by [`criterion_main!`].
#[derive(Clone, Debug)]
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
            test_mode: self.test_mode,
            _criterion: self,
        }
    }
}

/// A named group of benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    test_mode: bool,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the target number of timed runs per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: if self.test_mode { 1 } else { self.sample_size },
            samples: Vec::new(),
            elapsed: Duration::ZERO,
        };
        routine(&mut bencher);
        self.report(&id, &bencher);
        self
    }

    /// Runs one benchmark against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| routine(b, input))
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn report(&self, id: &BenchmarkId, bencher: &Bencher) {
        if bencher.samples.is_empty() {
            println!("{}/{}: no samples", self.name, id.id);
            return;
        }
        let mean = bencher.elapsed / bencher.samples.len() as u32;
        let median = bencher.median();
        println!(
            "{}/{}: mean {mean:?} median {median:?} over {} sample(s)",
            self.name,
            id.id,
            bencher.samples.len()
        );
        if !self.test_mode {
            registry().lock().expect("bench registry poisoned").insert(
                format!("{}/{}", self.name, id.id),
                BenchRecord {
                    median_ms: median.as_secs_f64() * 1e3,
                    peak_rss_kib: peak_rss_kib(),
                },
            );
        }
    }
}

/// Times a closure handed to it by a benchmark routine.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
    elapsed: Duration,
}

impl Bencher {
    /// Calls `routine` repeatedly (up to the sample size or the time
    /// budget), accumulating wall-clock timings.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let started = Instant::now();
        for _ in 0..self.sample_size {
            let before = Instant::now();
            black_box(routine());
            let took = before.elapsed();
            self.elapsed += took;
            self.samples.push(took);
            if started.elapsed() > TIME_BUDGET {
                break;
            }
        }
    }

    /// Median of the recorded samples (lower middle for even counts).
    fn median(&self) -> Duration {
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted[(sorted.len() - 1) / 2]
    }
}

/// Declares a function running a list of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the `main` entry point of a bench binary. After every group
/// has run, the measured medians are flushed to `BENCH_<bench>.json` (see
/// [`write_json_report`]).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_run_their_routines_and_respect_sample_size() {
        let mut c = Criterion { test_mode: false };
        let mut calls = 0u32;
        let mut group = c.benchmark_group("shim");
        group.sample_size(5);
        group.bench_function(BenchmarkId::from_parameter("count"), |b| {
            b.iter(|| calls += 1)
        });
        group.finish();
        assert_eq!(calls, 5);
    }

    #[test]
    fn medians_are_registered_for_the_json_report() {
        let mut c = Criterion { test_mode: false };
        let mut group = c.benchmark_group("shim_json");
        group.sample_size(3);
        group.bench_function("registered", |b| {
            b.iter(|| std::thread::sleep(Duration::from_micros(50)))
        });
        group.finish();
        let reg = registry().lock().unwrap();
        let record = reg
            .get("shim_json/registered")
            .expect("median must be registered outside test mode");
        assert!(record.median_ms > 0.0);
        // Linux always exposes VmHWM; elsewhere the field is simply absent.
        if cfg!(target_os = "linux") {
            assert!(record.peak_rss_kib.is_some());
        }
    }

    #[test]
    fn test_mode_does_not_pollute_the_registry() {
        let mut c = Criterion { test_mode: true };
        let mut group = c.benchmark_group("shim_json");
        group.bench_function("skipped", |b| b.iter(|| ()));
        group.finish();
        assert!(!registry().lock().unwrap().contains_key("shim_json/skipped"));
    }

    #[test]
    fn record_metric_lands_in_the_registry() {
        // The test harness runs without `--test` in argv, so the guard
        // lets the value through here.
        record_metric("shim_json/custom_metric", 12.5);
        let reg = registry().lock().unwrap();
        let record = reg.get("shim_json/custom_metric").expect("metric recorded");
        assert!((record.median_ms - 12.5).abs() < 1e-12);
    }

    #[test]
    fn report_escapes_ids_and_writes_non_finite_values_as_null() {
        let mut results = BTreeMap::new();
        let record = |median_ms| BenchRecord {
            median_ms,
            peak_rss_kib: None,
        };
        results.insert("odd\"id\\".to_string(), record(f64::NAN));
        results.insert("plain/1".to_string(), record(1.23456));
        assert_eq!(
            render_report(&results),
            "{\n  \"odd\\\"id\\\\\": {\"median_ms\": null},\n  \
             \"plain/1\": {\"median_ms\": 1.235}\n}\n"
        );
    }

    #[test]
    fn bench_stem_strips_cargo_hashes() {
        // The test binary itself is `hyperpraw_criterion-<hex>`; the hash
        // must be stripped, the crate stem kept.
        let stem = bench_stem();
        assert!(!stem.is_empty());
        assert!(
            !stem
                .rsplit_once('-')
                .is_some_and(|(_, h)| h.len() >= 8 && h.chars().all(|c| c.is_ascii_hexdigit())),
            "hash suffix survived in {stem:?}"
        );
    }

    #[test]
    fn test_mode_runs_exactly_once() {
        let mut c = Criterion { test_mode: true };
        let mut calls = 0u32;
        let mut group = c.benchmark_group("shim");
        group.sample_size(50);
        group.bench_with_input(BenchmarkId::new("inp", 3), &3u32, |b, &x| {
            b.iter(|| calls += x)
        });
        group.finish();
        assert_eq!(calls, 3);
    }
}
