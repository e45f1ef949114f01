//! Environment-tunable benchmark configuration.
//!
//! The paper's full evaluation takes ~30 hours (Appendix A); defaults here
//! are scaled so `cargo bench` completes in minutes on a small machine
//! while preserving the comparisons' *shape*. Every knob can be restored
//! to paper scale through environment variables:
//!
//! | Variable | Meaning | Default |
//! |---|---|---|
//! | `ORC_BENCH_THREADS` | comma list of thread counts to sweep | `1,2,4,8` |
//! | `ORC_BENCH_OPS` | enq/deq pairs per queue data point | `200000` (paper: 10⁷) |
//! | `ORC_BENCH_SECONDS` | seconds per set data point | `0.4` (paper: 20 × 5 runs) |
//! | `ORC_BENCH_KEYS_SMALL` | key range for list benches | `1000` (paper: 10³) |
//! | `ORC_BENCH_KEYS_LARGE` | key range for tree/skip-list benches | `100000` (paper: 10⁶) |
//! | `ORC_BENCH_RUNS` | repetitions per point (median reported; outliers trimmed only from 4 runs up) | `1` (paper: 5) |
//!
//! Every knob is floored to its smallest useful value (like the torture
//! harness's `Config::from_env`): a typo'd `ORC_BENCH_RUNS=0` or
//! `ORC_BENCH_OPS=0` must degrade to the tiniest real run, not divide by
//! zero or produce an empty sweep.

use std::time::Duration;

#[derive(Debug, Clone)]
pub struct BenchConfig {
    pub threads: Vec<usize>,
    pub queue_pairs: u64,
    pub seconds_per_point: Duration,
    pub keys_small: u64,
    pub keys_large: u64,
    pub runs: usize,
}

impl BenchConfig {
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Builds the config from any `name -> value` lookup (the process
    /// environment in production; a closure in tests, avoiding the
    /// process-global `set_var` race between parallel tests).
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let u64_knob = |name: &str, default: u64| -> u64 {
            lookup(name)
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default)
        };
        let f64_knob = |name: &str, default: f64| -> f64 {
            lookup(name)
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(default)
        };
        let threads = lookup("ORC_BENCH_THREADS")
            .map(|v| {
                v.split(',')
                    .filter_map(|t| t.trim().parse().ok())
                    .filter(|&t: &usize| t > 0)
                    .collect::<Vec<usize>>()
            })
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| vec![1, 2, 4, 8]);
        // Floors: `0` (or a negative/NaN duration) would divide per-run op
        // counts by zero or run zero-length sweeps. NaN loses against the
        // floor in f64::max, so `ORC_BENCH_SECONDS=nan` also lands on it.
        let seconds = f64_knob("ORC_BENCH_SECONDS", 0.4).max(1e-3);
        let keys_small = u64_knob("ORC_BENCH_KEYS_SMALL", 1_000).max(2);
        Self {
            threads,
            queue_pairs: u64_knob("ORC_BENCH_OPS", 200_000).max(1),
            seconds_per_point: Duration::from_secs_f64(seconds),
            keys_small,
            keys_large: u64_knob("ORC_BENCH_KEYS_LARGE", 100_000).max(keys_small),
            runs: (u64_knob("ORC_BENCH_RUNS", 1) as usize).max(1),
        }
    }
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = BenchConfig::from_lookup(|_| None);
        assert_eq!(c.threads, vec![1, 2, 4, 8]);
        assert!(c.queue_pairs > 0);
        assert!(c.seconds_per_point > Duration::ZERO);
        assert!(c.keys_small >= 2);
        assert!(c.keys_large >= c.keys_small);
        assert!(c.runs >= 1);
    }

    #[test]
    fn zero_knobs_are_floored_not_propagated() {
        // Regression: `ORC_BENCH_RUNS=0` used to reach the per-run
        // `ops / runs` division in the bench drivers.
        let c = BenchConfig::from_lookup(|name| match name {
            "ORC_BENCH_RUNS"
            | "ORC_BENCH_OPS"
            | "ORC_BENCH_SECONDS"
            | "ORC_BENCH_KEYS_SMALL"
            | "ORC_BENCH_KEYS_LARGE" => Some("0".into()),
            _ => None,
        });
        assert_eq!(c.runs, 1);
        assert_eq!(c.queue_pairs, 1);
        assert!(c.seconds_per_point >= Duration::from_millis(1));
        assert_eq!(c.keys_small, 2);
        assert_eq!(c.keys_large, 2, "large floors to small, keeping the order");
    }

    #[test]
    fn pathological_floats_and_threads_are_floored() {
        let c = BenchConfig::from_lookup(|name| match name {
            "ORC_BENCH_SECONDS" => Some("NaN".into()),
            "ORC_BENCH_THREADS" => Some("0,0,3".into()),
            _ => None,
        });
        assert!(c.seconds_per_point >= Duration::from_millis(1));
        assert_eq!(c.threads, vec![3], "zero thread counts are dropped");
        let c = BenchConfig::from_lookup(|name| match name {
            "ORC_BENCH_SECONDS" => Some("-5".into()),
            "ORC_BENCH_THREADS" => Some("0".into()),
            _ => None,
        });
        assert!(c.seconds_per_point >= Duration::from_millis(1));
        assert_eq!(c.threads, vec![1, 2, 4, 8], "all-zero list falls back");
    }

    #[test]
    fn unparseable_values_fall_back_to_defaults() {
        let c = BenchConfig::from_lookup(|name| match name {
            "ORC_BENCH_OPS" => Some("lots".into()),
            "ORC_BENCH_RUNS" => Some(" 3 ".into()),
            _ => None,
        });
        assert_eq!(c.queue_pairs, 200_000);
        assert_eq!(c.runs, 3, "whitespace is trimmed before parsing");
    }
}
