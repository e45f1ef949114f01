//! Benchmark result records and output.
//!
//! Each data point becomes a [`Measurement`]; bench binaries print an
//! aligned human-readable table (mirroring the paper's figure series) and
//! can dump JSON lines for plotting.

use orc_util::json::Writer;
use orc_util::pool::PoolSnapshot;
use reclaim::StatsSnapshot;
use std::io::Write;
use std::time::Duration;

/// One benchmark data point (one figure series entry).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Which experiment (e.g. "fig1-queues").
    pub experiment: String,
    /// Series label (structure and/or scheme, as in the figure legend).
    pub series: String,
    /// Workload label (e.g. "50i-50r", "enq-deq-pairs").
    pub workload: String,
    pub threads: usize,
    pub ops: u64,
    pub elapsed_s: f64,
    /// Million operations per second.
    pub mops: f64,
    /// Optional memory metric (bytes) for the footprint experiments.
    pub mem_bytes: Option<i64>,
    /// Optional unreclaimed-objects metric for the bound experiments.
    pub max_unreclaimed: Option<i64>,
    /// Optional orc-stats snapshot (delta over the measured interval).
    pub stats: Option<StatsSnapshot>,
    /// Optional orc-trace summary (retire→reclaim latency + ring losses).
    pub trace: Option<TraceSummary>,
    /// Optional orc-pool slot/page flow over the measured run (a
    /// [`PoolSnapshot`] delta). `slot_allocs == 0` with nonzero traffic
    /// means the run bypassed the pool entirely (`ORC_POOL=0` or
    /// oversized nodes).
    pub pool: Option<PoolSnapshot>,
    /// Optional orc-obs capture: memory-over-time series for this cell's
    /// scheme plus per-op latency spans (the paper's §5 temporal view).
    pub obs: Option<ObsSummary>,
}

/// Orc-obs telemetry attached to a measurement: the time series the
/// sampler captured for this cell's source (unreclaimed / rates /
/// delay-p99 curves) and the operation-latency window
/// (insert/remove/contains/enqueue/dequeue p50/p99/max). Serialized as a
/// nested `"obs"` object — added keys only, so the `orc-bench/v1`
/// schema is unchanged for readers that ignore it.
#[derive(Debug, Clone)]
pub struct ObsSummary {
    /// Per-series samples + watchdog alert count for the cell's source.
    pub source: orc_util::obs::SourceReport,
    /// The cell's op-latency window (see `orc_util::obs::op_take_window`).
    pub op: orc_util::obs::OpSnapshot,
}

/// Condensed orc-trace telemetry attached to a measurement: the
/// retire→reclaim latency quantiles (from the scheme's delay histogram)
/// and how many events the bounded trace rings overwrote.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSummary {
    pub reclaim_delay_p50_ns: u64,
    pub reclaim_delay_p99_ns: u64,
    pub reclaim_delay_max_ns: u64,
    pub events_dropped: u64,
}

impl Measurement {
    pub fn new(
        experiment: &str,
        series: &str,
        workload: &str,
        threads: usize,
        ops: u64,
        elapsed: Duration,
    ) -> Self {
        let secs = elapsed.as_secs_f64().max(1e-9);
        Self {
            experiment: experiment.to_string(),
            series: series.to_string(),
            workload: workload.to_string(),
            threads,
            ops,
            elapsed_s: secs,
            mops: ops as f64 / secs / 1e6,
            mem_bytes: None,
            max_unreclaimed: None,
            stats: None,
            trace: None,
            pool: None,
            obs: None,
        }
    }

    pub fn with_mem(mut self, bytes: i64) -> Self {
        self.mem_bytes = Some(bytes);
        self
    }

    pub fn with_unreclaimed(mut self, n: i64) -> Self {
        self.max_unreclaimed = Some(n);
        self
    }

    /// Attaches an orc-stats snapshot; its scalar counters join the JSON
    /// output as a nested `"stats"` object.
    pub fn with_stats(mut self, s: StatsSnapshot) -> Self {
        self.stats = Some(s);
        self
    }

    /// Attaches an orc-trace summary derived from a stats snapshot's delay
    /// histogram plus the trace rings' overwrite counter; joins the JSON
    /// output as a nested `"trace"` object.
    pub fn with_trace(mut self, s: &StatsSnapshot, events_dropped: u64) -> Self {
        self.trace = Some(TraceSummary {
            reclaim_delay_p50_ns: s.delay_p50(),
            reclaim_delay_p99_ns: s.delay_p99(),
            reclaim_delay_max_ns: s.delay.max,
            events_dropped,
        });
        self
    }

    /// Attaches an orc-obs capture (cell series + op-latency window);
    /// joins the JSON output as a nested `"obs"` object.
    pub fn with_obs(
        mut self,
        source: orc_util::obs::SourceReport,
        op: orc_util::obs::OpSnapshot,
    ) -> Self {
        self.obs = Some(ObsSummary { source, op });
        self
    }

    /// Attaches an orc-pool snapshot delta; joins the JSON output as a
    /// nested `"pool"` object.
    pub fn with_pool(mut self, d: &PoolSnapshot) -> Self {
        self.pool = Some(*d);
        self
    }

    /// Serializes to one JSON object. `None` metrics are omitted,
    /// non-finite floats (the zero-elapsed / zero-ops corner cases of
    /// degenerate bench configs) become `null`.
    pub fn json(&self) -> String {
        let mut w = Writer::new();
        w.begin_obj();
        w.key("experiment").str(&self.experiment);
        w.key("series").str(&self.series);
        w.key("workload").str(&self.workload);
        w.key("threads").int(self.threads).key("ops").int(self.ops);
        w.key("elapsed_s").f64(self.elapsed_s);
        w.key("mops").f64(self.mops);
        if let Some(b) = self.mem_bytes {
            w.key("mem_bytes").int(b);
        }
        if let Some(n) = self.max_unreclaimed {
            w.key("max_unreclaimed").int(n);
        }
        if let Some(s) = &self.stats {
            w.key("stats").raw(&s.json());
        }
        if let Some(t) = &self.trace {
            w.key("trace").begin_obj();
            w.key("reclaim_delay_p50_ns").int(t.reclaim_delay_p50_ns);
            w.key("reclaim_delay_p99_ns").int(t.reclaim_delay_p99_ns);
            w.key("reclaim_delay_max_ns").int(t.reclaim_delay_max_ns);
            w.key("events_dropped").int(t.events_dropped);
            w.end_obj();
        }
        if let Some(p) = &self.pool {
            w.key("pool").begin_obj();
            w.key("slot_allocs").int(p.slot_allocs);
            w.key("slot_frees").int(p.slot_frees);
            w.key("remote_frees").int(p.remote_frees);
            w.key("refills").int(p.refills);
            w.key("pages").int(p.pages);
            w.key("oversize_allocs").int(p.oversize_allocs);
            w.end_obj();
        }
        if let Some(o) = &self.obs {
            w.key("obs").begin_obj();
            w.key("series").raw(&o.source.series_json());
            w.key("op").raw(&o.op.json());
            w.key("alerts").int(o.source.alerts);
            w.end_obj();
        }
        w.end_obj();
        w.finish()
    }
}

/// Prints the table header for a figure.
pub fn print_header(title: &str) {
    println!();
    println!("=== {title} ===");
    println!(
        "{:<28} {:<12} {:>7} {:>12} {:>10} {:>12} {:>12}",
        "series", "workload", "threads", "ops", "Mops/s", "mem", "unreclaimed"
    );
}

/// Prints one measurement row, aligned under [`print_header`].
pub fn print_row(m: &Measurement) {
    let mem = m
        .mem_bytes
        .map(human_bytes)
        .unwrap_or_else(|| "-".to_string());
    let unr = m
        .max_unreclaimed
        .map(|v| v.to_string())
        .unwrap_or_else(|| "-".to_string());
    println!(
        "{:<28} {:<12} {:>7} {:>12} {:>10.3} {:>12} {:>12}",
        m.series, m.workload, m.threads, m.ops, m.mops, mem, unr
    );
    let _ = std::io::stdout().flush();
}

/// Appends one JSON line per measurement to `path` when given (a bin's
/// `--json <path>` flag); does nothing otherwise.
pub fn maybe_dump_json_to(path: Option<&str>, ms: &[Measurement]) {
    let Some(path) = path else {
        return;
    };
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(mut f) => {
            for m in ms {
                let _ = writeln!(f, "{}", m.json());
            }
        }
        Err(e) => eprintln!("warning: could not append JSON lines to {path}: {e}"),
    }
}

fn human_bytes(b: i64) -> String {
    let abs = b.unsigned_abs() as f64;
    let sign = if b < 0 { "-" } else { "" };
    if abs >= 1e9 {
        format!("{sign}{:.2}GB", abs / 1e9)
    } else if abs >= 1e6 {
        format!("{sign}{:.2}MB", abs / 1e6)
    } else if abs >= 1e3 {
        format!("{sign}{:.1}KB", abs / 1e3)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mops_math() {
        let m = Measurement::new("e", "s", "w", 4, 2_000_000, Duration::from_secs(2));
        assert!((m.mops - 1.0).abs() < 1e-9);
    }

    // `Measurement::json` is pinned byte-exactly — nested objects,
    // omitted `None` metrics, escapes, non-finite floats, parser
    // round-trip — by `tests/golden.rs`.

    #[test]
    fn human_bytes_units() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2_048), "2.0KB");
        assert_eq!(human_bytes(3_000_000), "3.00MB");
        assert_eq!(human_bytes(19_000_000_000), "19.00GB");
    }
}
