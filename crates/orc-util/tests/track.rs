//! The `track` view's hard paths: objects that cross threads, frees from a
//! thread that never allocated, and registry tid reuse.
//!
//! Counting happens once, in `pool::alloc` / `pool::dealloc`, on the
//! *acting* thread's own shard (or the fallback cell when it has none).
//! So an object allocated on one thread and freed on another leaves `+1`
//! on one cell and `−1` on another: the process view must still return to
//! baseline, and a thread that later inherits the producer's tid — and
//! with it the producer's shard — must still see an own-thread delta of
//! exactly zero.
//!
//! The process-view assertions are exact, so the tests in this binary
//! serialize on one lock; and all allocation runs on helper threads that
//! are joined under it, so that no test thread holds a tid whose
//! release could race the successor's claim.

use orc_util::{pool, registry, track};
use reclaim::SmrHeader;
use std::sync::{Mutex, MutexGuard};

const N: usize = 500;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Spawns a thread, runs `f` on it, joins, and returns `f`'s result
/// together with the thread's registry tid.
fn on_thread<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> (R, usize) {
    std::thread::spawn(move || {
        let tid = registry::tid();
        (f(), tid)
    })
    .join()
    .expect("helper thread panicked")
}

/// After the producer and the freer are gone: a fresh thread inherits the
/// producer's tid (lowest free slot), sees its own ledger unmoved by the
/// `N` objects its predecessor left on the shard, and can churn on it.
fn assert_successor_is_clean(producer_tid: usize) {
    let ((), successor_tid) = on_thread(|| {
        let base = track::thread().snapshot();
        let p = SmrHeader::alloc(1u64, 0);
        // SAFETY: never published; destroyed exactly once.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(p)) };
        let now = track::thread().snapshot();
        assert_eq!(now.live_objects - base.live_objects, 0);
        assert_eq!(now.live_bytes - base.live_bytes, 0);
        assert_eq!(now.total_allocs - base.total_allocs, 1);
    });
    assert_eq!(
        successor_tid, producer_tid,
        "the successor must reuse the producer's tid for this test to bite"
    );
}

#[test]
fn manual_objects_freed_by_a_thread_that_never_allocated() {
    let _serial = serial();
    let process = track::global().snapshot();
    let pool_base = pool::snapshot();

    let (ptrs, producer_tid) = on_thread(|| {
        let base = track::thread().snapshot();
        let ptrs: Vec<usize> = (0..N).map(|i| SmrHeader::alloc(i, 0) as usize).collect();
        let held = track::thread().snapshot();
        assert_eq!(held.live_objects - base.live_objects, N as i64);
        ptrs
    });
    let held = track::global().snapshot();
    assert_eq!(held.live_objects - process.live_objects, N as i64);

    // The freer has never allocated: its first free gives it pool state,
    // and every free is counted on its own shard, not on the (dead)
    // producer's.
    on_thread(move || {
        for p in ptrs {
            // SAFETY: the producer handed the objects over and exited;
            // each is destroyed exactly once.
            unsafe { SmrHeader::destroy(SmrHeader::of_value(p as *mut usize)) };
        }
    });

    let done = track::global().snapshot();
    assert_eq!(done.live_objects, process.live_objects);
    assert_eq!(done.live_bytes, process.live_bytes);
    assert_eq!(done.total_allocs - process.total_allocs, N as u64);
    assert_eq!(done.total_frees - process.total_frees, N as u64);

    // The view and `pool::snapshot()` are sums of the same cells.
    let d = pool::snapshot().since(&pool_base);
    assert_eq!(d.slot_allocs + d.oversize_allocs, N as u64);
    assert_eq!(d.live_slots(), 0);
    if pool::enabled() {
        assert_eq!(
            (d.slot_allocs, d.slot_frees, d.oversize_allocs),
            (N as u64, N as u64, 0)
        );
    } else {
        assert_eq!(d.slot_allocs, 0);
    }
    assert_eq!(d.remote_frees, 0, "the freeing thread caches what it frees");

    assert_successor_is_clean(producer_tid);
}

#[test]
fn orc_objects_freed_by_another_thread() {
    let _serial = serial();
    let process = track::global().snapshot();

    let (links, producer_tid) = on_thread(|| {
        let links: Vec<orcgc::OrcAtomic<[u64; 4]>> = (0..N)
            .map(|i| orcgc::OrcAtomic::new(&orcgc::make_orc([i as u64; 4])))
            .collect();
        orcgc::flush_thread();
        links
    });
    let held = track::global().snapshot();
    assert_eq!(held.live_objects - process.live_objects, N as i64);
    assert!(held.live_bytes - process.live_bytes >= (N * size_of::<[u64; 4]>()) as i64);

    // Dropping the last hard link retires and frees each object on the
    // dropping thread.
    on_thread(move || {
        drop(links);
        orcgc::flush_thread();
    });

    let done = track::global().snapshot();
    assert_eq!(done.live_objects, process.live_objects);
    assert_eq!(done.live_bytes, process.live_bytes);
    assert_eq!(done.total_allocs - process.total_allocs, N as u64);

    assert_successor_is_clean(producer_tid);
}

#[test]
fn ledger_section_balances_and_detects_a_leak() {
    let _serial = serial();
    on_thread(|| {
        let ledger = track::Ledger::open();
        let p = SmrHeader::alloc([0u8; 100], 0);
        let d = ledger.delta();
        assert!(!d.is_balanced());
        assert_eq!((d.allocs, d.frees, d.live_objects), (1, 0, 1));
        assert_eq!(d.live_slots, i64::from(pool::enabled()));
        assert!(d.live_bytes >= 100);
        // SAFETY: never published; destroyed exactly once.
        unsafe { SmrHeader::destroy(SmrHeader::of_value(p)) };
        ledger.assert_balanced("balanced section");
    });
}
