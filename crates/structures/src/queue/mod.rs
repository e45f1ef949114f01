//! The four queues of the paper's Figures 1–2.
//!
//! * [`MsQueue`] / [`MsQueueOrc`] — Michael & Scott 1996; the manual
//!   variant is the classic hazard-pointer deployment, the Orc variant is
//!   the paper's Algorithm 1 verbatim.
//! * [`LcrqOrc`] — Morrison & Afek 2013: ring segments updated with DWCAS,
//!   segments reclaimed by OrcGC.
//! * [`KpQueueOrc`] — Kogan & Petrank 2011 wait-free queue. Its helping
//!   descriptors and interleaving-dependent unlinking make it incompatible
//!   with the manual schemes (paper §2, first obstacle) — OrcGC reclaims
//!   both nodes and descriptors automatically.
//! * [`TurnQueueOrc`] — the Correia–Ramalhete wait-free "turn" queue,
//!   reconstructed from its published description (see module docs).

mod kpqueue;
mod lcrq;
mod msqueue;
mod msqueue_orc;
mod turnqueue;

pub use kpqueue::KpQueueOrc;
pub use lcrq::LcrqOrc;
pub use msqueue::MsQueue;
pub use msqueue_orc::MsQueueOrc;
pub use turnqueue::TurnQueueOrc;

/// Shared correctness tests run against every OrcGC queue, as
/// `list::set_tests` are against every set.
#[cfg(test)]
pub(crate) mod queue_tests {
    use crate::ConcurrentQueue;
    use orc_util::atomics::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// `n` items enqueued then dequeued in order, between two empty
    /// dequeues.
    pub fn fifo<Q: ConcurrentQueue<u64>>(q: &Q, n: u64) {
        assert_eq!(q.dequeue(), None);
        for i in 0..n {
            q.enqueue(i);
        }
        for i in 0..n {
            assert_eq!(q.dequeue(), Some(i), "at index {i}");
        }
        assert_eq!(q.dequeue(), None);
    }

    /// Two producers enqueue `per` distinct items each while two consumers
    /// drain them: the dequeued sum must match, so nothing is lost or
    /// duplicated.
    pub fn mpmc_no_loss_no_dup<Q: ConcurrentQueue<u64> + 'static>(q: Arc<Q>, per: u64) {
        let producers = 2;
        let consumers = 2;
        let want = producers * per;
        let sum = Arc::new(AtomicU64::new(0));
        let got = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = q.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.enqueue(p * per + i);
                }
                orcgc::flush_thread();
            }));
        }
        for _ in 0..consumers {
            let q = q.clone();
            let sum = sum.clone();
            let got = got.clone();
            handles.push(std::thread::spawn(move || {
                while got.load(Ordering::SeqCst) < want {
                    if let Some(v) = q.dequeue() {
                        sum.fetch_add(v, Ordering::SeqCst);
                        got.fetch_add(1, Ordering::SeqCst);
                    } else {
                        orc_util::atomics::spin_hint();
                    }
                }
                orcgc::flush_thread();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(sum.load(Ordering::SeqCst), (0..want).sum::<u64>());
        assert_eq!(q.dequeue(), None);
    }

    /// Every one of `threads` threads both enqueues `per` items and
    /// dequeues after every second one; dequeued plus left-over items must
    /// balance the enqueues.
    pub fn mixed_roles<Q: ConcurrentQueue<u64> + 'static>(q: Arc<Q>, threads: u64, per: u64) {
        let deqd = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let q = q.clone();
                let deqd = deqd.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        q.enqueue(t * per + i);
                        if i % 2 == 0 && q.dequeue().is_some() {
                            deqd.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    orcgc::flush_thread();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut rest = 0;
        while q.dequeue().is_some() {
            rest += 1;
        }
        assert_eq!(deqd.load(Ordering::SeqCst) + rest, threads * per);
    }
}
