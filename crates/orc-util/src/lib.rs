//! Shared low-level utilities for the OrcGC reproduction.
//!
//! This crate hosts the substrate pieces every reclamation scheme and data
//! structure in the workspace relies on:
//!
//! * [`registry`] — a process-wide, lock-free thread registry that hands out
//!   dense thread ids (`tid`s) so schemes can index per-thread hazard arrays,
//!   and runs per-thread cleanup callbacks when a thread exits.
//! * [`marked`] — Harris-style marked-pointer helpers (tag bits in the low
//!   bits of aligned pointers).
//! * [`dwcas`] — a double-word (128-bit) atomic built on `cmpxchg16b`, needed
//!   by pass-the-buck and LCRQ.
//! * [`track`] — the allocation ledger used by the leak tests and the
//!   memory-usage experiments: a read-only view of the [`pool`] counters.
//! * [`rng`] — a tiny xorshift generator for hot paths (skip-list levels,
//!   workload key streams) and for the workspace's randomized tests.
//! * [`sync`] — in-tree [`CachePadded`] and [`Backoff`] (the workspace
//!   builds with zero external dependencies; see README "Building offline
//!   & CI").
//! * [`handover`] — every hazard-slot matrix ([`handover::Slots`]: HP, PTB,
//!   HE, Adaptive, PTP and OrcGC publish into one) with its one SC scan,
//!   pass-the-pointer's handover entries shared by PTP and OrcGC, and the
//!   one publish-and-revalidate loop.
//! * [`stall`] — stalled-reader fault injection used by the torture
//!   harness to validate the paper's unreclaimed-memory bounds.
//! * [`stats`] — orc-stats: per-thread sharded reclamation telemetry
//!   (retires, reclaims, scans, protect retries, handovers, batch-size
//!   and retire→reclaim delay histograms).
//! * [`obs`] — orc-obs: background sampler turning per-scheme stats and pool
//!   gauges into time series, operation-latency spans ([`obs::time_op`]), a
//!   rising-unreclaimed watchdog ([`obs::ObsAlert`]) and Prometheus/JSON-lines
//!   export ([`obs::ObsReport`]).
//! * [`trace`] — orc-trace: per-tid lock-free ring-buffer event tracer
//!   ([`trace_event!`]), flight recorder (panic-hook post-mortems) and
//!   Chrome trace-event/Perfetto exporter.
//! * [`sample`] — the per-thread stride that samples 1 reclamation call in
//!   64 for the clock, the header stamp and the trace, and 1 op in 128 for
//!   the obs latency spans.
//! * [`switch`] / [`ring`] / [`hist`] / [`json`] — the telemetry spine, one
//!   mechanism each: the latched `ORC_STATS`/`ORC_TRACE`/`ORC_OBS`/`ORC_POOL`
//!   kill switch, the seqlock ring, the HDR histogram, the JSON parser + writer.
//! * [`atomics`] — the workspace atomics facade: plain `std::sync::atomic`
//!   re-exports by default, instrumented orc-check shims under the
//!   `orc_check` feature. All scheme/structure code imports atomics from
//!   here (orc-lint's `facade_bypass` rule).
//! * [`chk_hooks`] — the seam to the orc-check model checker
//!   (`crates/check`): the hooks the shims, [`tracked`] and the schemes
//!   call, which are no-ops unless the checker has installed its table for
//!   a running exploration.
//! * [`pool`] — orc-pool: the type-segregated, per-thread slab allocator
//!   behind [`tracked`] allocation (size-classed slots, thread-cached
//!   frees, one lock-free spillway between threads, batch refill).
//! * [`tracked`] — the tracked object: the [`tracked::Block`] both scheme
//!   headers start with, and the one alloc / destroy funnel over [`pool`]
//!   and [`chk_hooks`].

pub mod atomics;
pub mod chk_hooks;
pub mod dwcas;
pub mod handover;
pub mod hist;
pub mod json;
pub mod marked;
pub mod obs;
pub mod pool;
pub mod registry;
pub mod ring;
pub mod rng;
pub mod sample;
pub mod stall;
pub mod stats;
pub mod switch;
pub mod sync;
pub mod trace;
pub mod track;
pub mod tracked;

pub use sync::Backoff;
pub use sync::CachePadded;
