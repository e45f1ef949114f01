//! Process-isolated, interleaved end-to-end and per-layer benchmark for
//! the OrcGC reproduction: schemes × structures, measured from outside
//! the program. See README.md for the metric dictionary.
//!
//! * [`spec`] — workloads, series and every metric name.
//! * [`slice`] — the load generators and their correctness checks.
//! * [`child`] — one slice in a fresh process.
//! * [`micro`] — single-call cost of each layer.
//! * [`driver`] — the parent: spawning, interleaving, medians, reports.

pub mod child;
pub mod driver;
pub mod json;
pub mod micro;
pub mod slice;
pub mod spec;

/// Median of `values` (mean of the middle two when even; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
