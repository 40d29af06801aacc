//! Offline `criterion` shim: a minimal wall-clock benchmarking harness with
//! the API subset the workspace's benches use (`bench_function`,
//! `benchmark_group`/`bench_with_input`, `BenchmarkId`, `criterion_group!`,
//! `criterion_main!`).
//!
//! Each benchmark is warmed up, then timed for roughly the configured
//! measurement window; the harness reports the mean time per iteration and
//! iterations/second on stdout, one line per benchmark:
//!
//! ```text
//! bench: mapreduce/100k_records_4_workers ... 12.345 ms/iter (81.0 iter/s, 24 iters)
//! ```
//!
//! No statistics beyond the mean, no plots, no saved baselines — comparisons
//! are made by benching the alternatives side by side in the same target
//! (see `crates/bench/benches/micro.rs`, which races list ranking against
//! simplified S-V).

use std::fmt;
use std::time::{Duration, Instant};

/// Measures one closure; handed to benchmark bodies as `b`.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    /// Filled by [`Bencher::iter`]: (total elapsed, iterations).
    result: Option<(Duration, u64)>,
}

impl Bencher {
    /// Calls `f` repeatedly, timing each call, until the measurement window is
    /// filled.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up: run without recording.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.warm_up {
            std::hint::black_box(f());
        }
        let mut iters = 0u64;
        let start = Instant::now();
        loop {
            std::hint::black_box(f());
            iters += 1;
            if start.elapsed() >= self.measurement {
                break;
            }
        }
        self.result = Some((start.elapsed(), iters));
    }
}

/// Benchmark identifier composed of a function name and a parameter
/// (shim of `criterion::BenchmarkId`).
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `BenchmarkId::new("function", parameter)` formats as
    /// `function/parameter`.
    pub fn new(function_name: impl Into<String>, parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// An ID from a parameter alone.
    pub fn from_parameter(parameter: impl fmt::Display) -> BenchmarkId {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// The benchmark harness (shim of `criterion::Criterion`).
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // `cargo bench -- <filter>` passes the filter as the first free
        // argument; flag-style arguments (e.g. `--bench`) are ignored.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Criterion {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            filter,
        }
    }
}

impl Criterion {
    /// Sets the number of samples (accepted for API compatibility; the shim
    /// sizes runs by time, not sample count).
    pub fn sample_size(self, _n: usize) -> Criterion {
        self
    }

    /// Sets the measurement window per benchmark.
    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement = d;
        self
    }

    /// Sets the warm-up time per benchmark.
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up = d;
        self
    }

    fn run_one<F: FnMut(&mut Bencher)>(&self, id: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !id.contains(filter.as_str()) {
                return;
            }
        }
        let mut b = Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            result: None,
        };
        f(&mut b);
        match b.result {
            Some((elapsed, iters)) => {
                let per_iter = elapsed.as_secs_f64() / iters as f64;
                println!(
                    "bench: {id} ... {} ({:.1} iter/s, {iters} iters)",
                    format_time(per_iter),
                    1.0 / per_iter,
                );
            }
            None => println!("bench: {id} ... no measurement (b.iter never called)"),
        }
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Criterion {
        self.run_one(id, f);
        self
    }

    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Benchmarks `f` with the given input, labelled `group/id`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id);
        self.criterion.run_one(&full, |b| f(b, input));
        self
    }

    /// Runs a benchmark inside the group without an input parameter.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Self {
        let full = format!("{}/{}", self.name, id);
        self.criterion.run_one(&full, f);
        self
    }

    /// Ends the group (no-op in the shim; kept for API compatibility).
    pub fn finish(self) {}
}

/// Re-export so `criterion::black_box` callers work; prefer
/// `std::hint::black_box` in new code.
pub use std::hint::black_box;

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s/iter")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms/iter", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs/iter", seconds * 1e6)
    } else {
        format!("{:.1} ns/iter", seconds * 1e9)
    }
}

/// Shim of `criterion_group!`: collects benchmark functions into a runner
/// function, optionally with a custom `config = ...` constructor.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Shim of `criterion_main!`: generates `main` calling each group runner.
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
    fn bencher_measures_and_reports() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        // The filter picked up from the test harness arguments must not hide
        // explicit calls in unit tests.
        c.filter = None;
        let mut ran = 0u64;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| {
                ran += 1;
                ran
            })
        });
        assert!(ran > 0);
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::new("f", 10).to_string(), "f/10");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn time_formatting() {
        assert!(format_time(2.0).ends_with("s/iter"));
        assert!(format_time(2e-3).contains("ms"));
        assert!(format_time(2e-6).contains("µs"));
        assert!(format_time(2e-9).contains("ns"));
    }
}
