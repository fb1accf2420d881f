//! # Offline criterion subset
//!
//! An in-tree, dependency-free replacement for the parts of the
//! [`criterion`](https://docs.rs/criterion) API this workspace's bench
//! targets use, so they build and run with **no network / registry
//! access**. It measures plain wall-clock time per iteration and prints
//! one line per benchmark — no statistics, plots or baselines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target wall-clock time spent measuring one benchmark.
const MEASURE_BUDGET: Duration = Duration::from_millis(100);
/// Hard cap on measured iterations per benchmark.
const MAX_ITERS: u64 = 100_000;

/// The benchmark driver handed to `criterion_group!` target functions.
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Runs a standalone benchmark.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing a name prefix and throughput.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes runs by time.
    pub fn sample_size(&mut self, _samples: usize) -> &mut Self {
        self
    }

    /// Sets the per-iteration throughput used to report rates.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().label);
        run_one(&label, self.throughput, f);
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_one(&label, self.throughput, |b| f(b, input));
        self
    }

    /// Ends the group (no-op in the shim).
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        Self {
            label: format!("{function_name}/{parameter}"),
        }
    }

    /// An id made of a parameter value alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        Self {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(label: &str) -> Self {
        Self {
            label: label.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(label: String) -> Self {
        Self { label }
    }
}

/// Work units processed per iteration, for rate reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements (packets, flits, instructions...) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// Times a closure over repeated iterations.
#[derive(Debug, Default)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Measures `routine`, calling it until the time budget is spent.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // One untimed warm-up call.
        black_box(routine());
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            black_box(routine());
            iters += 1;
            if start.elapsed() >= MEASURE_BUDGET || iters >= MAX_ITERS {
                break;
            }
        }
        self.iters = iters;
        self.elapsed = start.elapsed();
    }

    fn ns_per_iter(&self) -> f64 {
        if self.iters == 0 {
            return f64::NAN;
        }
        self.elapsed.as_nanos() as f64 / self.iters as f64
    }
}

fn run_one<F>(label: &str, throughput: Option<Throughput>, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    let mut bencher = Bencher::default();
    f(&mut bencher);
    let ns = bencher.ns_per_iter();
    let rate = match throughput {
        Some(Throughput::Elements(n)) if ns > 0.0 => {
            format!("  {:>12.0} elem/s", n as f64 / (ns / 1e9))
        }
        Some(Throughput::Bytes(n)) if ns > 0.0 => {
            format!("  {:>12.0} B/s", n as f64 / (ns / 1e9))
        }
        _ => String::new(),
    };
    println!(
        "bench: {label:<48} {:>14.1} ns/iter  ({} iters){rate}",
        ns, bencher.iters
    );
}

/// Declares a group of benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench-target entry point running the listed groups.
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
    fn bencher_counts_iterations() {
        let mut b = Bencher::default();
        let mut calls = 0u64;
        b.iter(|| calls += 1);
        // warm-up + measured iterations
        assert_eq!(calls, b.iters + 1);
        assert!(b.ns_per_iter() >= 0.0);
    }

    #[test]
    fn group_api_chains() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim");
        group
            .sample_size(10)
            .throughput(Throughput::Elements(4))
            .bench_function("noop", |b| b.iter(|| 1 + 1));
        group.bench_with_input(BenchmarkId::new("param", 3), &3u32, |b, &x| {
            b.iter(|| x * 2)
        });
        group.finish();
        c.bench_function("top", |b| b.iter(|| black_box(2u64).pow(10)));
    }

    #[test]
    fn benchmark_ids_format() {
        assert_eq!(BenchmarkId::new("hops", 4).label, "hops/4");
        assert_eq!(BenchmarkId::from_parameter("p1").label, "p1");
        assert_eq!(BenchmarkId::from("x").label, "x");
    }
}
