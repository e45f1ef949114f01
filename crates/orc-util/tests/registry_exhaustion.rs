//! Registry exhaustion, the case where every tid is taken: the documented
//! abort, as a fact.
//! With `MAX_THREADS` threads each holding a tid, one more thread's
//! `tid()` panics with the registry's message — it does not hang, wrap
//! or hand a live tid out twice — and once the holders are gone a new
//! thread registers again.
//!
//! One test in a binary of its own: it holds every tid in the process,
//! so the test thread itself never asks for one.

use orc_util::registry::{self, MAX_THREADS};
use std::sync::mpsc::channel;
use std::sync::{Arc, Barrier};
use std::thread;

#[test]
fn the_thread_past_capacity_panics_and_capacity_comes_back() {
    let (tid_tx, tid_rx) = channel();
    let release = Arc::new(Barrier::new(MAX_THREADS + 1));
    let holders: Vec<_> = (0..MAX_THREADS)
        .map(|_| {
            let (tid_tx, release) = (tid_tx.clone(), release.clone());
            thread::Builder::new()
                .stack_size(64 * 1024)
                .spawn(move || {
                    tid_tx.send(registry::tid()).unwrap();
                    release.wait();
                })
                .unwrap()
        })
        .collect();
    let mut held: Vec<usize> = (0..MAX_THREADS).map(|_| tid_rx.recv().unwrap()).collect();
    held.sort_unstable();
    assert_eq!(held, (0..MAX_THREADS).collect::<Vec<_>>());
    assert_eq!(registry::registered_watermark(), MAX_THREADS);

    let panic = thread::spawn(registry::tid)
        .join()
        .expect_err("a tid was handed out past capacity");
    let message = panic
        .downcast_ref::<String>()
        .expect("the registry panics with a formatted message");
    assert!(message.contains("thread registry exhausted"), "{message}");

    release.wait();
    for holder in holders {
        holder.join().unwrap();
    }
    let tid = thread::spawn(registry::tid).join().unwrap();
    assert!(tid < MAX_THREADS);
}
