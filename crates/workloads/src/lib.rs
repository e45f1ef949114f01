//! Benchmark harness for the OrcGC reproduction.
//!
//! Provides everything the per-figure bench targets share:
//!
//! * [`throughput`] — multi-threaded run loops for queues (enq/deq pairs,
//!   Figures 1–2) and sets (read/write mixes over a key range,
//!   Figures 3–8), with monotonic-clock timing and per-thread op counts.
//! * [`config`] — environment-variable–tunable parameters
//!   (`ORC_BENCH_THREADS`, `ORC_BENCH_OPS`, `ORC_BENCH_SECONDS`,
//!   `ORC_BENCH_KEYS_SMALL`, `ORC_BENCH_KEYS_LARGE`, `ORC_BENCH_RUNS`),
//!   defaulting to laptop-scale values.
//! * [`record`] — result records, JSON-lines output and aligned tables.
//! * [`bound`] — the stalled-reader adversary that measures each scheme's
//!   maximum retired-but-unreclaimed backlog (the empirical Table 1).
//! * [`runner`] — orc-bench: the registry-matrix sweep with warmup,
//!   repeated runs and IQR outlier trimming, emitting one
//!   schema-versioned report per run.
//!
//! This crate prints the paper's figures; whether a change made them
//! faster is the paired `benchmark/` harness's question, not this one's.

pub mod bound;
pub mod config;
pub mod record;
pub mod runner;
pub mod throughput;

pub use config::BenchConfig;
pub use record::{print_header, print_row, Measurement, TraceSummary};
