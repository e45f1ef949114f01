//! The correctness checks are live: a structure that gives a wrong
//! answer now and then is caught and counted.

use orc_benchmark::slice::{self, RunCfg};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use structures::registry::{DynSet, MatrixFilter};
use structures::ConcurrentSet;

const RANGE: u64 = 1_000;

fn michael_list() -> DynSet {
    MatrixFilter::full()
        .set_cells()
        .into_iter()
        .find(|c| c.label() == "PTP/MichaelList")
        .expect("PTP/MichaelList is registered")
        .build()
}

fn cfg() -> RunCfg {
    RunCfg {
        seed: 42,
        window: Duration::from_millis(100),
        traced: false,
        epoch: Instant::now(),
    }
}

/// Answers one `contains` in 1 000 wrongly.
struct Liar {
    inner: DynSet,
    calls: AtomicU64,
}

impl ConcurrentSet<u64> for Liar {
    fn add(&self, key: u64) -> bool {
        self.inner.add(key)
    }

    fn remove(&self, key: &u64) -> bool {
        self.inner.remove(key)
    }

    fn contains(&self, key: &u64) -> bool {
        let lie = self.calls.fetch_add(1, Ordering::Relaxed) % 1_000 == 999;
        self.inner.contains(key) != lie
    }

    fn name(&self) -> &'static str {
        "Liar"
    }
}

#[test]
fn a_set_that_lies_once_in_a_thousand_is_counted() {
    let liar = Liar {
        inner: michael_list(),
        calls: AtomicU64::new(0),
    };
    slice::prefill(&liar, RANGE, 42);
    let out = slice::run_list_read(&liar, RANGE, &cfg());
    assert!(
        out.ops >= 2_000,
        "window too short to lie in: {} ops",
        out.ops
    );
    assert!(
        out.failed > 0,
        "no lie among {} answers was noticed",
        out.ops
    );
    assert!(
        out.failed <= out.ops / 1_000 + 2,
        "{} of {}",
        out.failed,
        out.ops
    );
}

#[test]
fn an_honest_set_fails_nothing() {
    let set = michael_list();
    slice::prefill(&*set, RANGE, 42);
    let out = slice::run_list_read(&*set, RANGE, &cfg());
    assert!(out.ops > 0);
    assert_eq!(out.failed, 0, "{:?}", out.errors);
}

#[test]
fn a_tree_that_drops_an_insert_fails_the_key_sum() {
    /// Claims every `add` of key 7 succeeded without doing it.
    struct Forgetful(DynSet);
    impl ConcurrentSet<u64> for Forgetful {
        fn add(&self, key: u64) -> bool {
            key == 7 || self.0.add(key)
        }
        fn remove(&self, key: &u64) -> bool {
            self.0.remove(key)
        }
        fn contains(&self, key: &u64) -> bool {
            self.0.contains(key)
        }
        fn name(&self) -> &'static str {
            "Forgetful"
        }
    }
    let set = Forgetful(michael_list());
    let sum = slice::prefill(&set, 64, 42);
    let out = slice::run_tree_update(&set, 64, sum, &cfg());
    assert_eq!(out.failed, out.ops, "{:?}", out.errors);
}
