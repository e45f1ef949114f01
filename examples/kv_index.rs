//! A concurrent key-value index on the Natarajan-Mittal tree with a mixed
//! workload and live statistics — the Figures 7-8 scenario as an
//! application.
//!
//! Run: `cargo run --release --example kv_index`

// orc-lint: allow-file(seqcst, example code: flag handshakes favor clarity over ordering minimality)

use orc_util::atomics::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use structures::tree::NmTreeOrc;

fn main() {
    let index = Arc::new(NmTreeOrc::new());
    let keys = 50_000u64;
    // Warm the index to half capacity (shuffled order: an external BST
    // degenerates under sorted insertion).
    workloads::throughput::prefill_set(&*index, keys);
    println!("index: prefilled {} keys", index.len());

    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let writes = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..4)
        .map(|t| {
            let index = index.clone();
            let stop = stop.clone();
            let reads = reads.clone();
            let writes = writes.clone();
            std::thread::spawn(move || {
                let mut rng = orc_util::rng::XorShift64::for_thread(t, 2026);
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.next_bounded(keys);
                    match rng.next_bounded(10) {
                        0 => {
                            index.add(k);
                            writes.fetch_add(1, Ordering::Relaxed);
                        }
                        1 => {
                            index.remove(&k);
                            writes.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => {
                            index.contains(&k);
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                orcgc::flush_thread();
            })
        })
        .collect();

    let start = Instant::now();
    for second in 1..=3 {
        std::thread::sleep(Duration::from_millis(500));
        println!(
            "t={:.1}s  reads={}  writes={}  live-objects={}  unreclaimed={}",
            start.elapsed().as_secs_f64(),
            reads.load(Ordering::Relaxed),
            writes.load(Ordering::Relaxed),
            orc_util::track::global().live_objects(),
            orcgc::domain().unreclaimed(),
        );
        let _ = second;
    }
    stop.store(true, Ordering::SeqCst);
    for w in workers {
        w.join().unwrap();
    }
    let total = reads.load(Ordering::Relaxed) + writes.load(Ordering::Relaxed);
    println!(
        "index: {total} ops in {:.2}s ({:.2} Mops/s), final size {}",
        start.elapsed().as_secs_f64(),
        total as f64 / start.elapsed().as_secs_f64() / 1e6,
        index.len()
    );
}
