//! The scheme shell: everything a manual scheme is *not*.
//!
//! A scheme's algorithm is a [`Core`]. What wraps it is the same for all of
//! them and is written here once: the clonable handle ([`Scheme`]), the
//! thread lifecycle (attach the calling thread on first use, run the core's
//! exit cleanup on that thread before its tid is released, re-arm the tid
//! for its next owner), the retire and flush prologues, and the [`Smr`]
//! methods that only read the ledger. All seven manual schemes, the
//! [`crate::Leaky`] baseline included, are a core in this shell.
//!
//! # The lazy tid
//!
//! A core method that always needs the caller's tid takes `tid: usize`;
//! the shell has attached already (`retire`, `flush`, `thread_exit`).
//! Every per-op method — `begin_op`, `end_op`, `protect`, `publish` and
//! `clear` — takes a [`Caller`], and [`Caller::tid`] is what attaches: a
//! path that needs no tid (EBR's per-hop methods, all of None's) never
//! reads the registry's thread-local, and a thread that only runs such
//! paths installs no hook.

use crate::header::{SmrBox, SmrHeader};
use crate::policy::RetireLedger;
use crate::Smr;
use orc_util::atomics::{AtomicBool, AtomicUsize, Ordering};
use orc_util::stats::{Event, StatsSnapshot};
use orc_util::{registry, stall};
use std::sync::Arc;

/// A manual scheme's algorithm. Every `tid` a method receives is the
/// calling thread's own registry slot, attached to this instance.
pub trait Core: Send + Sync + Sized + 'static {
    const NAME: &'static str;
    const LOCK_FREE: bool;

    /// The instance's ledger: both prologues and `unreclaimed` / `stats`.
    fn ledger(&self) -> &RetireLedger;

    /// The words [`Smr::alloc`] puts between an object's header and its
    /// value ([`SmrBox`]'s `extra`): `()` for every core but the era-based
    /// ones, whose scans read [`Eras`](crate::policy::Eras) there.
    type Extra: Send + Sync + 'static;

    /// The extra words of an object allocated now.
    fn extra(&self) -> Self::Extra;

    fn begin_op(&self, _me: Caller<'_, Self>) {
        stall::hit(stall::StallPoint::BeginOp);
    }

    fn end_op(&self, me: Caller<'_, Self>);
    fn protect(&self, me: Caller<'_, Self>, idx: usize, addr: &AtomicUsize) -> usize;
    fn publish(&self, me: Caller<'_, Self>, idx: usize, word: usize);
    fn clear(&self, me: Caller<'_, Self>, idx: usize);

    /// [`Smr::retire`] after the prologue; `stamp`, the retire stamp (0
    /// for an unsampled call), opens any pass this call goes on to run
    /// (`Pass::of_retire`).
    ///
    /// # Safety
    /// `h` is a live header the ledger has just counted as retired, owned
    /// by the calling thread; ownership transfers to the core.
    unsafe fn retire(&self, tid: usize, h: *mut SmrHeader, stamp: u64);

    /// [`Smr::flush`], after the shell has counted the pass.
    fn flush(&self, tid: usize);

    /// Drains `tid`'s state; runs on the exiting thread while it owns `tid`.
    fn thread_exit(&self, tid: usize);
}

/// The calling thread, not yet looked up (see the module docs).
pub struct Caller<'a, C: Core>(&'a Scheme<C>);

impl<C: Core> Caller<'_, C> {
    /// The calling thread's tid, attached to the scheme instance.
    #[inline(always)]
    pub fn tid(self) -> usize {
        self.0.attach()
    }
}

struct Shell<C> {
    core: C,
    /// Per tid: its owner has registered the exit hook (owner-only access).
    installed: Box<[AtomicBool]>,
}

/// The one handle: clones share an instance, dropped with the last of them.
pub struct Scheme<C: Core> {
    inner: Arc<Shell<C>>,
}

impl<C: Core> Clone for Scheme<C> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<C: Core> Scheme<C> {
    pub(crate) fn from_core(core: C) -> Self {
        Self {
            inner: Arc::new(Shell {
                core,
                installed: (0..registry::MAX_THREADS)
                    .map(|_| AtomicBool::new(false))
                    .collect(),
            }),
        }
    }

    pub(crate) fn core(&self) -> &C {
        &self.inner.core
    }

    #[inline]
    fn attach(&self) -> usize {
        let tid = registry::tid();
        let installed = &self.inner.installed[tid];
        if !installed.load(Ordering::Relaxed) {
            installed.store(true, Ordering::Relaxed);
            // Hold only a Weak reference: the hook must not keep the
            // scheme alive after its last user drops it (the core's `Drop`
            // then reclaims everything, which is strictly better).
            let inner = Arc::downgrade(&self.inner);
            registry::defer_at_exit(move || {
                if let Some(inner) = inner.upgrade() {
                    inner.core.thread_exit(tid);
                    // Re-arm: the next thread to get this tid installs again.
                    inner.installed[tid].store(false, Ordering::Relaxed);
                }
            });
        }
        tid
    }
}

// `inline(always)` on the pure forwards: a debug build inlines nothing else,
// and its timing tests sit on the call depth the schemes had without a shell.
impl<C: Core> Smr for Scheme<C> {
    fn name(&self) -> &'static str {
        C::NAME
    }

    fn alloc<T: Send>(&self, value: T) -> *mut T {
        SmrBox::alloc(self.inner.core.extra(), value)
    }

    #[inline(always)]
    fn begin_op(&self) {
        self.inner.core.begin_op(Caller(self));
    }

    #[inline(always)]
    fn end_op(&self) {
        self.inner.core.end_op(Caller(self));
    }

    #[inline(always)]
    fn protect(&self, idx: usize, addr: &AtomicUsize) -> usize {
        self.inner.core.protect(Caller(self), idx, addr)
    }

    #[inline(always)]
    fn publish(&self, idx: usize, word: usize) {
        self.inner.core.publish(Caller(self), idx, word);
    }

    #[inline(always)]
    fn clear(&self, idx: usize) {
        self.inner.core.clear(Caller(self), idx);
    }

    #[inline]
    unsafe fn retire<T: Send>(&self, ptr: *mut T) {
        let tid = self.attach();
        // SAFETY: `ptr` came from `Smr::alloc` (retire's contract), so it
        // is the value field of a live tracked allocation.
        let h = unsafe { SmrBox::<C::Extra, T>::header_of(ptr) };
        // SAFETY: `h` is the live header just recovered from `ptr`, retired
        // exactly once by this thread.
        let stamp = unsafe { self.inner.core.ledger().on_retire(tid, h) };
        // SAFETY: `tid` is the caller's slot; `h`, just counted, becomes the core's.
        unsafe { self.inner.core.retire(tid, h, stamp) };
    }

    #[inline]
    unsafe fn dealloc_now<T>(&self, ptr: *mut T) {
        // SAFETY: `ptr` came from this scheme's `alloc`, so it sits in a
        // `SmrBox<C::Extra, T>`, and the caller guarantees quiescence (this
        // method's contract) — exclusive, freed once.
        unsafe { SmrHeader::destroy(SmrBox::<C::Extra, T>::header_of(ptr)) };
    }

    fn flush(&self) {
        let tid = self.attach();
        self.inner.core.ledger().stats().bump(tid, Event::Flush);
        self.inner.core.flush(tid);
    }

    fn unreclaimed(&self) -> usize {
        self.inner.core.ledger().unreclaimed()
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.core.ledger().snapshot()
    }

    fn is_lock_free(&self) -> bool {
        C::LOCK_FREE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::sync::Mutex;
    use std::thread;

    /// What a [`Fake`] saw: `(tid passed in, registry::tid() inside the
    /// hook)` per `thread_exit` call, and whether the core was dropped.
    #[derive(Default)]
    struct Log {
        exits: Mutex<Vec<(usize, usize)>>,
        dropped: AtomicBool,
    }

    impl Log {
        fn exits(&self) -> Vec<(usize, usize)> {
            self.exits.lock().unwrap().clone()
        }
    }

    /// A core with no algorithm: it frees on retire and records its
    /// lifecycle calls. `lazy` makes the per-hop methods skip `me.tid()`,
    /// as EBR's do.
    struct Fake {
        ledger: RetireLedger,
        log: Arc<Log>,
        lazy: bool,
    }

    fn fake(lazy: bool) -> (Arc<Log>, Scheme<Fake>) {
        let log = Arc::new(Log::default());
        let core = Fake {
            ledger: RetireLedger::new(),
            log: log.clone(),
            lazy,
        };
        (log, Scheme::from_core(core))
    }

    impl Fake {
        fn touch(&self, me: Caller<'_, Self>) {
            if !self.lazy {
                me.tid();
            }
        }
    }

    impl Drop for Fake {
        fn drop(&mut self) {
            // Read only after a channel hand-off from the dropping thread.
            self.log.dropped.store(true, Ordering::Relaxed);
        }
    }

    impl Core for Fake {
        const NAME: &'static str = "Fake";
        const LOCK_FREE: bool = true;
        type Extra = ();

        fn extra(&self) {}

        fn ledger(&self) -> &RetireLedger {
            &self.ledger
        }

        fn end_op(&self, me: Caller<'_, Self>) {
            self.touch(me);
        }

        fn protect(&self, me: Caller<'_, Self>, _idx: usize, addr: &AtomicUsize) -> usize {
            self.touch(me);
            addr.load(Ordering::Acquire)
        }

        fn publish(&self, me: Caller<'_, Self>, _idx: usize, _word: usize) {
            self.touch(me);
        }

        fn clear(&self, me: Caller<'_, Self>, _idx: usize) {
            self.touch(me);
        }

        unsafe fn retire(&self, tid: usize, h: *mut SmrHeader, stamp: u64) {
            let mut pass = orc_util::sample::Pass::of_retire(stamp);
            // SAFETY: nothing protects under this core, so a retired
            // object is unreachable at once; freed exactly once, here.
            unsafe { self.ledger.free_scanned(tid, h, &mut pass) };
        }

        fn flush(&self, _tid: usize) {}

        fn thread_exit(&self, tid: usize) {
            self.log.exits.lock().unwrap().push((tid, registry::tid()));
        }
    }

    /// A few whole operations, every `Smr` entry point included.
    fn run_ops(s: &Scheme<Fake>) {
        let slot = AtomicUsize::new(0);
        for i in 0..50u64 {
            s.begin_op();
            s.protect(0, &slot);
            s.publish(1, 0);
            s.clear(1);
            let p = s.alloc(i);
            // SAFETY: allocated above, never shared, retired once.
            unsafe { s.retire(p) };
            s.end_op();
            s.flush();
        }
        assert_eq!(s.unreclaimed(), 0);
    }

    #[test]
    fn hook_runs_once_per_thread_and_instance_on_the_exiting_thread() {
        let (log_a, a) = fake(false);
        let (log_b, b) = fake(false);
        let (a2, b2) = (a.clone(), b.clone());
        let victim = thread::spawn(move || {
            run_ops(&a2);
            run_ops(&b2);
            registry::tid()
        })
        .join()
        .unwrap();
        // One call per instance however many operations ran; the tid it
        // was handed is the victim's, and `registry::tid()` inside the
        // hook still answers with it — the hook ran on the exiting
        // thread, before the tid was released.
        assert_eq!(log_a.exits(), [(victim, victim)]);
        assert_eq!(log_b.exits(), [(victim, victim)]);
        assert_eq!((a.name(), a.is_lock_free()), ("Fake", true));
    }

    #[test]
    fn a_thread_reusing_the_tid_installs_the_hook_again() {
        let (log, s) = fake(false);
        // One more sequential thread than there are tids: at least one
        // tid is handed out twice, whatever other tests hold.
        let rounds = registry::MAX_THREADS + 1;
        for _ in 0..rounds {
            let s = s.clone();
            thread::spawn(move || s.end_op()).join().unwrap();
        }
        let exits = log.exits();
        assert_eq!(exits.len(), rounds, "one exit per thread that attached");
        let mut tids: Vec<usize> = exits.iter().map(|&(tid, _)| tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert!(tids.len() < rounds, "no tid was reused");
    }

    #[test]
    fn pending_hook_does_not_keep_a_dropped_instance_alive() {
        let (log, s) = fake(false);
        let (attached_tx, attached_rx) = channel();
        let (exit_tx, exit_rx) = channel::<()>();
        let t = thread::spawn(move || {
            s.end_op();
            drop(s);
            attached_tx.send(()).unwrap();
            exit_rx.recv().unwrap();
        });
        attached_rx.recv().unwrap();
        assert!(
            log.dropped.load(Ordering::Relaxed),
            "the last handle went while the thread's hook was pending"
        );
        exit_tx.send(()).unwrap();
        t.join().unwrap();
        assert!(log.exits().is_empty(), "a dead instance's hook is a no-op");
    }

    #[test]
    fn a_core_that_never_asks_for_the_tid_leaves_the_thread_unattached() {
        let (log, s) = fake(true);
        let s2 = s.clone();
        thread::spawn(move || {
            let slot = AtomicUsize::new(7);
            for _ in 0..50 {
                s2.begin_op();
                assert_eq!(s2.protect(0, &slot), 7);
                s2.publish(1, 7);
                s2.clear(1);
                s2.end_op();
            }
        })
        .join()
        .unwrap();
        assert!(log.exits().is_empty(), "a per-op-only thread attached");
        // The same core attaches as soon as a path needs the tid.
        let s2 = s.clone();
        thread::spawn(move || s2.flush()).join().unwrap();
        assert_eq!(log.exits().len(), 1);
    }
}
