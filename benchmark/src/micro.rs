//! Micro cells: the cost in ns of one call into each layer, alone, on
//! one thread of a fresh process. Each cell runs a fixed iteration count
//! per batch and reports the median batch.

use crate::median;
use orc_util::atomics::{AtomicPtr, AtomicUsize, Ordering};
use orc_util::obs::{self, OpKind};
use orc_util::stats::{Event, SchemeStats};
use orc_util::trace::{self, EventKind};
use orc_util::{pool, registry};
use orcgc::{make_orc, OrcAtomic};
use reclaim::{AnySmr, SchemeKind, Smr};
use std::alloc::Layout;
use std::hint::black_box;
use std::time::Instant;
use structures::queue::MsQueue;
use structures::registry::{MatrixFilter, SchemeAxis};
use structures::ConcurrentQueue;

/// Timed batches per cell (after one untimed warm-up batch).
pub const BATCHES: usize = 15;
/// Objects per burst in the pool burst and remote cells.
const BURST: usize = 4096;
/// Enqueue/dequeue pairs per batch of the queue cells.
const DISPATCH_PAIRS: u64 = 20_000;

/// Median over [`BATCHES`] of the time `batch(iters)` takes, per
/// iteration, in ns.
fn per_iter(iters: u64, mut batch: impl FnMut(u64)) -> f64 {
    batch(iters);
    let ns: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            batch(iters);
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&ns)
}

fn each(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    per_iter(iters, |n| (0..n).for_each(&mut op))
}

fn pool_pair() -> f64 {
    let layout = Layout::from_size_align(64, 8).expect("valid layout");
    each(100_000, |_| {
        let (p, tag) = pool::alloc(layout);
        // SAFETY: `p` was just allocated with this layout and tag.
        unsafe { pool::dealloc(black_box(p), layout, tag) };
    })
}

fn pool_burst() -> f64 {
    let layout = Layout::from_size_align(64, 8).expect("valid layout");
    let mut held = Vec::with_capacity(BURST);
    per_iter(20 * BURST as u64, |n| {
        for _ in 0..n / BURST as u64 {
            held.extend((0..BURST).map(|_| pool::alloc(layout)));
            for (p, tag) in held.drain(..) {
                // SAFETY: allocated above with this layout and tag.
                unsafe { pool::dealloc(p, layout, tag) };
            }
        }
    })
}

/// Bursts allocated here and freed on a second thread.
fn pool_remote() -> f64 {
    let layout = Layout::from_size_align(64, 8).expect("valid layout");
    let (to_b, from_a) = std::sync::mpsc::channel::<Vec<(usize, pool::PoolTag)>>();
    let (to_a, from_b) = std::sync::mpsc::channel::<()>();
    let b = std::thread::spawn(move || {
        for burst in from_a {
            for (p, tag) in burst {
                // SAFETY: allocated by the sender with this layout and
                // tag, and sent away, so freed exactly once.
                unsafe { pool::dealloc(p as *mut u8, layout, tag) };
            }
            to_a.send(()).expect("main is waiting");
        }
    });
    let ns = per_iter(10 * BURST as u64, |n| {
        for _ in 0..n / BURST as u64 {
            let burst = (0..BURST)
                .map(|_| {
                    let (p, tag) = pool::alloc(layout);
                    (p as usize, tag)
                })
                .collect();
            to_b.send(burst).expect("freeing thread is alive");
            from_b.recv().expect("freeing thread is alive");
        }
    });
    drop(to_b);
    b.join().expect("freeing thread panicked");
    ns
}

fn protect(kind: SchemeKind) -> f64 {
    let smr = kind.build();
    let slot = AtomicPtr::new(smr.alloc(7u64));
    let ns = each(100_000, |_| {
        smr.begin_op();
        black_box(smr.protect_ptr(0, &slot));
        smr.end_op();
    });
    // SAFETY: single-threaded and nothing protects the object any more.
    unsafe { smr.dealloc_now(slot.load(Ordering::Relaxed)) };
    ns
}

fn retire(kind: SchemeKind) -> f64 {
    let smr = kind.build();
    let ns = each(20_000, |i| {
        let p = smr.alloc(i);
        // SAFETY: `p` was never published, so this thread is its only
        // owner and retires it once.
        unsafe { smr.retire(black_box(p)) };
    });
    smr.flush();
    ns
}

fn pairs(queue: &impl ConcurrentQueue<u64>, n: u64) {
    for i in 0..n {
        queue.enqueue(i);
        black_box(queue.dequeue());
    }
}

/// Cost of the registry's wrapping per call: the same PTP MSQueue driven
/// as the concrete type and as the boxed, observed cell, in alternating
/// batches of one process — the few ns between them are far below the
/// spread between two processes.
fn dispatch() -> f64 {
    let bare: MsQueue<u64, AnySmr> = MsQueue::new(SchemeKind::Ptp.build());
    let cell = ptp_cell_queue();
    let time = |batch: &dyn Fn()| {
        let t = Instant::now();
        batch();
        t.elapsed().as_nanos() as f64 / DISPATCH_PAIRS as f64
    };
    pairs(&bare, DISPATCH_PAIRS);
    pairs(&cell, DISPATCH_PAIRS);
    let gaps: Vec<f64> = (0..3 * BATCHES)
        .map(|_| time(&|| pairs(&cell, DISPATCH_PAIRS)) - time(&|| pairs(&bare, DISPATCH_PAIRS)))
        .collect();
    median(&gaps) / 2.0
}

fn ptp_cell_queue() -> structures::registry::DynQueue {
    MatrixFilter::full()
        .queue_cells()
        .into_iter()
        .find(|c| c.scheme == SchemeAxis::Manual(SchemeKind::Ptp) && c.structure == "MSQueue")
        .expect("PTP/MSQueue is registered")
        .build()
}

/// Runs the cell named `name`; `None` for an unknown name. Cells that
/// differ only by environment (`pool.off_pair_ns`) share code with
/// their default twin: the parent sets the switch.
pub fn run(name: &str) -> Option<f64> {
    let tid = registry::tid();
    let word = AtomicUsize::new(0);
    let scheme = |s: &str| SchemeKind::from_str(s);
    Some(match name.split('.').collect::<Vec<_>>().as_slice() {
        ["atomics", "load_ns"] => each(1_000_000, |_| {
            black_box(word.load(Ordering::SeqCst));
        }),
        ["atomics", "cas_ns"] => each(1_000_000, |i| {
            let i = i as usize;
            black_box(
                word.compare_exchange(i, i + 1, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok(),
            );
        }),
        ["atomics", "fetch_add_ns"] => each(1_000_000, |_| {
            black_box(word.fetch_add(1, Ordering::SeqCst));
        }),
        ["registry", "tid_ns"] => each(1_000_000, |_| {
            black_box(registry::tid());
        }),
        ["pool", "pair_ns" | "off_pair_ns"] => pool_pair(),
        ["pool", "burst_ns"] => pool_burst(),
        ["pool", "remote_ns"] => pool_remote(),
        ["reclaim", s, "protect_ns"] => protect(scheme(s)?),
        ["reclaim", s, "retire_ns"] => retire(scheme(s)?),
        ["orcgc", "load_ns"] => {
            let link = OrcAtomic::new(&make_orc(1u64));
            each(100_000, |_| {
                black_box(link.load());
            })
        }
        ["orcgc", "store_ns"] => {
            let (x, y) = (make_orc(1u64), make_orc(2u64));
            let link = OrcAtomic::new(&x);
            each(50_000, |_| {
                link.store(&y);
                link.store(&x);
            }) / 2.0
        }
        ["orcgc", "cas_ns"] => {
            let (x, y) = (make_orc(1u64), make_orc(2u64));
            let link = OrcAtomic::new(&x);
            each(50_000, |_| {
                black_box(link.cas(&x, &y));
                black_box(link.cas(&y, &x));
            }) / 2.0
        }
        ["orcgc", "make_drop_ns"] => each(50_000, |i| drop(black_box(make_orc(i)))),
        ["stats", "bump_ns"] => {
            let stats = SchemeStats::new();
            each(1_000_000, |_| stats.bump(tid, Event::Retire))
        }
        ["trace", "record_ns"] => each(200_000, |i| trace::record(EventKind::Retire, i, i)),
        ["trace", "now_ns"] => each(200_000, |_| {
            black_box(trace::now_ns());
        }),
        ["obs", "time_op_ns"] => each(1_000_000, |i| {
            black_box(obs::time_op(OpKind::Contains, || black_box(i)));
        }),
        ["obs", "sample_now_us"] => {
            // The parent sets ORC_OBS_INTERVAL_MS=0, so only these
            // explicit passes run.
            let smr = SchemeKind::Ptp.build();
            let registration = reclaim::observe("micro", &smr);
            let ns = each(2_000, |_| obs::sample_now());
            drop(registration);
            ns / 1e3
        }
        ["structures", "msqueue", "bare_pair_ns"] => {
            let queue: MsQueue<u64, AnySmr> = MsQueue::new(SchemeKind::Ptp.build());
            per_iter(DISPATCH_PAIRS, |n| pairs(&queue, n))
        }
        ["structures", "msqueue", "cell_pair_ns"] => {
            let queue = ptp_cell_queue();
            per_iter(DISPATCH_PAIRS, |n| pairs(&queue, n))
        }
        ["structures", "registry", "dispatch_ns"] => dispatch(),
        _ => return None,
    })
}
