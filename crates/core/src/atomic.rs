//! `orc_atomic` — annotated shared links (paper Algorithm 4).
//!
//! An [`OrcAtomic<T>`] is the one-for-one replacement of
//! `std::atomic<Node*>` in an OrcGC-annotated structure: every mutation
//! (`store`, `cas`, `swap`) transparently maintains the `_orc` hard-link
//! counters of the old and new targets, and `load` returns a protected
//! [`OrcPtr`]. Link words may carry Harris-style mark/tag bits in their low
//! two bits; tag-only transitions (marking a link for deletion) are
//! counter-neutral because both words reference the same object.
//!
//! Safety is carried by the types: every operation that installs a new
//! non-sentinel pointer takes it as an `&OrcPtr<T>`, whose existence
//! guarantees the protection `incrementOrc` requires (Proposition 1).

// orc-lint: allow-file(seqcst, OrcAtomic link words are the SC synchronization variables of Algorithm 4 — every mutation pairs with protect-loop validation and the Lemma 1 scan)

use crate::domain::{built, domain, Domain};
use crate::header::{Linked, OrcHeader};
use crate::ptr::{poison_word, protectable, OrcPtr};
use orc_util::atomics::{AtomicUsize, Ordering};
use orc_util::{marked, registry};
use std::marker::PhantomData;

/// An annotated atomic link to a tracked object (`orc_atomic<T*>`).
pub struct OrcAtomic<T> {
    word: AtomicUsize,
    _pd: PhantomData<*mut Linked<T>>,
}

// SAFETY: only the raw `PhantomData<*mut Linked<T>>` blocks the auto
// impls; the link itself is a single atomic word, and every dereference of
// it goes through the domain's protection protocol with `T: Send + Sync`.
unsafe impl<T: Send + Sync> Send for OrcAtomic<T> {}
// SAFETY: as for `Send`.
unsafe impl<T: Send + Sync> Sync for OrcAtomic<T> {}

impl<T: Send + Sync> OrcAtomic<T> {
    /// A null link.
    pub const fn null() -> Self {
        Self {
            word: AtomicUsize::new(0),
            _pd: PhantomData,
        }
    }

    /// A link initialized to the poison sentinel (CRF-skip).
    pub fn poisoned() -> Self {
        Self {
            word: AtomicUsize::new(poison_word()),
            _pd: PhantomData,
        }
    }

    /// Constructs a link already pointing at `p` (the `orc_atomic(T ptr)`
    /// constructor): counts the hard link.
    pub fn new(p: &OrcPtr<T>) -> Self {
        count_link(registry::tid(), p);
        Self {
            word: AtomicUsize::new(p.raw()),
            _pd: PhantomData,
        }
    }

    /// Protected load: claims a hazard slot, publishes, re-validates.
    /// Returns the observed word (with tag bits) behind a guard.
    ///
    /// The link is read once before anything else; a sentinel (null or
    /// poison) read there is the result, returned without a slot, so a
    /// load that finds nothing publishes nothing.
    #[inline]
    pub fn load(&self) -> OrcPtr<T> {
        let word = Domain::read_link(&self.word);
        if protectable(word) == 0 {
            return OrcPtr::unprotected(word);
        }
        let tid = registry::tid();
        let d = domain();
        let idx = d.get_new_idx(tid);
        let word = d.get_protected(tid, idx, &self.word, word);
        if protectable(word) == 0 {
            d.clear(tid, idx, 0);
            return OrcPtr::unprotected(word);
        }
        OrcPtr::new(word, idx, tid)
    }

    /// Protected load into an existing guard: the result is exactly that
    /// of `*dst = self.load()`, only cheaper. A traversal that rotates its
    /// guards (`cur = next`) keeps one hazard slot per cursor this way.
    ///
    /// If `dst` is the only user of its slot, the new object is validated
    /// into that slot — no slot is claimed or released. Otherwise (a
    /// shared slot, a guard fresh from [`make_orc`](crate::make_orc), a
    /// sentinel, or an object only `dst` keeps alive) it falls back to
    /// [`load`](Self::load).
    ///
    /// Inline, the common hop compiles into the caller's loop as one
    /// straight line with one `xchg` publish: `dst` is the sole user of
    /// its slot and its object is still counted, the link holds an
    /// object, the first re-read validates it and nothing is parked on
    /// the slot. Every other case continues out of line.
    #[inline(always)]
    pub fn load_into(&self, dst: &mut OrcPtr<T>) {
        if let Some((tid, idx)) = dst.slot() {
            // The guard is `!Send`, so its tid is the caller's.
            debug_assert_eq!(tid, registry::tid());
            // SAFETY: `dst` holds a slot.
            let d = unsafe { built() };
            if let Some(word) = d.reprotect(tid, idx, dst.raw(), &self.word) {
                if protectable(word) == 0 {
                    // The slot is already released: skip `dst`'s drop.
                    std::mem::forget(std::mem::replace(dst, OrcPtr::unprotected(word)));
                } else {
                    dst.set_word(word);
                }
                return;
            }
        }
        self.reload_into(dst);
    }

    /// [`load_into`](Self::load_into)'s fallback: `*dst = self.load()`.
    #[cold]
    #[inline(never)]
    fn reload_into(&self, dst: &mut OrcPtr<T>) {
        *dst = self.load();
    }

    /// Unprotected raw read of the link word. For equality/mark tests only;
    /// the result must never be dereferenced.
    #[inline]
    pub fn load_raw(&self) -> usize {
        self.word.load(Ordering::SeqCst)
    }

    /// Unprotected dereferencing load, for quiescent contexts (sizing a
    /// structure in a test, walking it in a drop path). Claims no hazard
    /// slot, so arbitrarily deep traversals are fine.
    ///
    /// # Safety
    /// No thread may concurrently retire objects reachable from this link
    /// for the lifetime of the returned reference.
    #[inline]
    pub unsafe fn load_quiescent(&self) -> Option<&T> {
        // Quiescence (this function's contract) means no concurrent writer
        // exists; any needed happens-before came from the caller's join or
        // `&mut` access, so Relaxed suffices.
        let t = protectable(self.word.load(Ordering::Relaxed));
        if t == 0 {
            None
        } else {
            // SAFETY: the caller guarantees quiescence (this function's
            // contract), so the linked object cannot be retired under us.
            Some(unsafe { OrcHeader::value::<T>(t as *mut OrcHeader) })
        }
    }

    /// Store (Algorithm 4, lines 63–67): count the new link *first* (the
    /// guard protects it), exchange, then un-count the displaced link.
    pub fn store(&self, p: &OrcPtr<T>) {
        self.store_tagged(p, marked::tag_bits(p.raw()));
    }

    /// Store with explicit tag bits on the installed word.
    pub fn store_tagged(&self, p: &OrcPtr<T>, tag: usize) {
        let tid = registry::tid();
        let d = domain();
        count_link(tid, p);
        let old = self.word.swap(p.with_tag(tag), Ordering::SeqCst);
        d.decrement_orc(tid, protectable(old) as *mut OrcHeader);
    }

    /// Store null, un-counting the displaced link.
    pub fn store_null(&self) {
        let tid = registry::tid();
        let old = self.word.swap(0, Ordering::SeqCst);
        domain().decrement_orc(tid, protectable(old) as *mut OrcHeader);
    }

    /// CAS (Algorithm 4, lines 69–74): on success, count the new target and
    /// un-count the old. The link must hold `expected`'s object *unmarked*
    /// (whatever mark `expected` was loaded with); the new word is
    /// `new.with_tag(new_tag)`, protected by `new`'s guard. `expected`'s
    /// slot pins the displaced object as in [`cas`](Self::cas), so an
    /// unlink frees what it displaces at `expected`'s last release, in one
    /// pass.
    ///
    /// A CAS counts `new` with the RMW after it links, when others may
    /// already reach the object. A fresh `new` (from
    /// [`make_orc`](crate::make_orc), never installed) is the exception:
    /// nobody can reach it before the CAS, so it counts before, with a
    /// plain store, and a CAS that fails takes that back with another.
    pub fn cas_tagged(&self, expected: &OrcPtr<T>, new: &OrcPtr<T>, new_tag: usize) -> bool {
        let expected_word = marked::unmark(expected.raw());
        self.cas_guarded(expected_word, new, new.with_tag(new_tag), expected.slot())
    }

    /// CAS between two guards; installs `new`'s word as observed, and
    /// expects `expected`'s word, mark included.
    ///
    /// If `expected` holds a hazard slot, that slot already pins the
    /// object the CAS displaces, so its un-count needs no scratch publish.
    /// A claim the un-count takes (the counter reached zero) is held on
    /// that slot until `expected`'s release: its drop (the last one, if it
    /// was cloned) or a [`load_into`](Self::load_into) over it retires the
    /// object and frees it in one pass. A fresh or sentinel `expected`
    /// un-counts, claims and retires at the CAS.
    pub fn cas(&self, expected: &OrcPtr<T>, new: &OrcPtr<T>) -> bool {
        self.cas_guarded(expected.raw(), new, new.raw(), expected.slot())
    }

    /// CAS that moves a link: installs `new`, which `from` links, then
    /// poisons `from`, so the link `from` counted is the one `self` now
    /// holds and `new`'s counter is not touched. The words are compared
    /// and installed unmarked: a deletion mark on `from` stays behind.
    ///
    /// The count moves when only the caller writes `from` once the CAS
    /// has succeeded (a dequeued node's `next`, a marked level link being
    /// snipped). If `from` no longer held `new`'s object when it was
    /// poisoned, `new` is counted with the RMW and what `from` held is
    /// un-counted, as `cas` and a poison store would. `expected` is
    /// un-counted as in [`cas`](Self::cas): a guard with a slot holds a
    /// claim the un-count takes until its release.
    pub fn cas_moving(&self, expected: &OrcPtr<T>, new: &OrcPtr<T>, from: &OrcAtomic<T>) -> bool {
        let expected_word = marked::unmark(expected.raw());
        if !self.cas_word(expected_word, marked::unmark(new.raw())) {
            return false;
        }
        // orc-lint: allow(seqcst, the poison swap removes `from`'s link: readers validating through `from` and claimants scanning for `new` are ordered against it, as against any link store)
        let moved = from.word.swap(poison_word(), Ordering::SeqCst);
        let tid = registry::tid();
        let d = domain();
        if !new.is_object(moved) {
            // `new`'s guard pins it; the retire path undoes a claim that
            // this increment overtakes.
            new.take_fresh();
            d.increment_orc(tid, new.header());
            d.decrement_orc(tid, protectable(moved) as *mut OrcHeader);
        }
        uncount_displaced(tid, protectable(expected_word), expected.slot());
        true
    }

    /// CAS installing null; un-counts and claims the displaced object at
    /// once.
    pub fn cas_null(&self, expected: usize) -> bool {
        if !self.cas_word(expected, 0) {
            return false;
        }
        domain().decrement_orc(registry::tid(), protectable(expected) as *mut OrcHeader);
        true
    }

    /// Tag-only CAS: `expected` and `new` must reference the same object
    /// (or both be sentinels), so no counter updates are needed. This is
    /// how Harris-style logical deletion marks a link.
    pub fn cas_tag_only(&self, expected: usize, new: usize) -> bool {
        assert_eq!(
            protectable(expected),
            protectable(new),
            "cas_tag_only must not change the link target"
        );
        self.cas_word(expected, new)
    }

    /// The bare CAS of the link word.
    #[inline]
    fn cas_word(&self, expected: usize, new: usize) -> bool {
        self.word
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// A CAS installing `new_word`, which `new` protects, and its counter
    /// updates. `pin`: the slot of a guard of the caller's that publishes
    /// `expected`'s object until that guard is released.
    fn cas_guarded(
        &self,
        expected: usize,
        new: &OrcPtr<T>,
        new_word: usize,
        pin: Option<(usize, u16)>,
    ) -> bool {
        let d = domain();
        // A fresh `new` is unreachable until the SC CAS links it, so its
        // count goes in first, with plain stores (DESIGN.md §6.2 item 3).
        let fresh = new.is_fresh();
        if fresh {
            d.count_first_link(new.header());
        }
        if !self.cas_word(expected, new_word) {
            if fresh {
                d.uncount_first_link(new.header());
            }
            return false;
        }
        if fresh {
            new.take_fresh();
        }
        let newt = protectable(new_word);
        let oldt = protectable(expected);
        if newt != oldt {
            let tid = registry::tid();
            if !fresh {
                d.increment_orc(tid, newt as *mut OrcHeader);
            }
            uncount_displaced(tid, oldt, pin);
        }
        true
    }

    /// Exchange: installs `p` and returns the displaced link as a guard.
    ///
    /// The displaced object is published in a fresh hazard slot *before*
    /// its link is un-counted, so the returned guard keeps it alive even if
    /// the un-count drops its counter to zero (the retirement scan then
    /// parks it on our slot, and the guard's drop finishes the job).
    pub fn swap(&self, p: &OrcPtr<T>) -> OrcPtr<T> {
        let tid = registry::tid();
        count_link(tid, p);
        let old = self.word.swap(p.raw(), Ordering::SeqCst);
        self.guard_displaced(tid, old)
    }

    /// Exchange installing null; returns the displaced link as a guard.
    pub fn take(&self) -> OrcPtr<T> {
        let tid = registry::tid();
        let old = self.word.swap(0, Ordering::SeqCst);
        self.guard_displaced(tid, old)
    }

    fn guard_displaced(&self, tid: usize, old: usize) -> OrcPtr<T> {
        let d = domain();
        let oldt = protectable(old);
        if oldt == 0 {
            return OrcPtr::unprotected(old);
        }
        // `old` is alive here: its hard link was counted (or its writer
        // still protects it), and only our swap removed it — see the
        // module docs of `domain`. Publish first, then un-count.
        let idx = d.get_new_idx(tid);
        d.slots.publish(tid, idx.into(), oldt);
        d.decrement_orc(tid, oldt as *mut OrcHeader);
        OrcPtr::new(old, idx, tid)
    }
}

/// Un-counts the object `oldt` (0 for a sentinel) whose link a successful
/// CAS displaced. `pin`: the slot of the caller's guard that publishes it,
/// which then holds a claim the un-count takes (see [`OrcAtomic::cas`]);
/// without one, `decrementOrc` claims and retires at once.
#[inline]
fn uncount_displaced(tid: usize, oldt: usize, pin: Option<(usize, u16)>) {
    match pin {
        Some((pin_tid, idx)) => {
            // The guard is `!Send`, so its tid is the caller's.
            debug_assert_eq!(pin_tid, tid);
            // SAFETY: the guard's slot publishes the displaced object until
            // the guard is released, which also means the domain is built.
            unsafe { built().uncount_pinned(tid, idx, oldt as *mut OrcHeader) }
        }
        None => domain().decrement_orc(tid, oldt as *mut OrcHeader),
    }
}

/// Counts the link `p` is about to be installed in (Algorithm 4 counts
/// before it links). The first install of a fresh guard counts with a
/// plain store: no link holds its object and no other guard references
/// it, so no other thread can touch its `_orc` word until the SC
/// exchange that follows publishes the link.
#[inline]
fn count_link<T>(tid: usize, p: &OrcPtr<T>) {
    let d = domain();
    if p.take_fresh() {
        d.count_first_link(p.header());
    } else {
        d.increment_orc(tid, p.header());
    }
}

impl<T: Send + Sync> Default for OrcAtomic<T> {
    fn default() -> Self {
        Self::null()
    }
}

impl<T> Drop for OrcAtomic<T> {
    /// `~orc_atomic` (Algorithm 4, lines 58–61): un-count the final link.
    /// Runs both for structure roots dropping and, crucially, for the link
    /// fields of a node being deleted — which is what cascades reclamation
    /// through unreachable chains.
    fn drop(&mut self) {
        let old = *self.word.get_mut();
        let oldt = protectable(old);
        if oldt != 0 {
            let tid = registry::tid();
            domain().decrement_orc(tid, oldt as *mut OrcHeader);
        }
    }
}

impl<T> std::fmt::Debug for OrcAtomic<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let w = self.word.load(Ordering::Relaxed);
        f.debug_struct("OrcAtomic")
            .field("ptr", &(marked::unmark(w) as *const ()))
            .field("mark", &marked::is_marked(w))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::CLAIMED;
    use crate::make_orc;
    use orc_util::atomics::AtomicUsize as StdAtomicUsize;
    use std::sync::Arc;

    struct Probe(Arc<StdAtomicUsize>);
    impl Drop for Probe {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn probe() -> (Arc<StdAtomicUsize>, OrcPtr<Probe>) {
        let n = Arc::new(StdAtomicUsize::new(0));
        let p = make_orc(Probe(n.clone()));
        (n, p)
    }

    #[test]
    fn linked_object_survives_guard_drop() {
        let (drops, p) = probe();
        let link = OrcAtomic::new(&p);
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "hard link keeps it alive");
        drop(link);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "last link unlinks -> delete"
        );
    }

    #[test]
    fn store_replaces_and_collects_old() {
        let (d1, p1) = probe();
        let (d2, p2) = probe();
        let link = OrcAtomic::null();
        link.store(&p1);
        drop(p1);
        link.store(&p2);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "displaced object collected");
        assert_eq!(d2.load(Ordering::SeqCst), 0);
        drop(p2);
        drop(link);
        assert_eq!(d2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn load_protects_against_unlink() {
        let (drops, p) = probe();
        let link = OrcAtomic::new(&p);
        drop(p);
        let guard = link.load();
        link.store_null();
        assert_eq!(
            drops.load(Ordering::SeqCst),
            0,
            "guard must keep the unlinked object alive"
        );
        drop(guard);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cas_success_and_failure() {
        let (d1, p1) = probe();
        let (d2, p2) = probe();
        let link = OrcAtomic::new(&p1);
        assert!(!link.cas(&p2, &p2), "expected mismatch must fail");
        assert!(link.cas(&p1, &p2));
        drop(p1);
        assert_eq!(d1.load(Ordering::SeqCst), 1);
        drop(p2);
        drop(link);
        assert_eq!(d2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tag_only_cas_is_counter_neutral() {
        let (drops, p) = probe();
        let link = OrcAtomic::new(&p);
        let w = p.raw();
        assert!(link.cas_tag_only(w, orc_util::marked::mark(w)));
        assert!(orc_util::marked::is_marked(link.load_raw()));
        // Marking must not have disturbed the count: object still alive
        // through the (marked) link after the guard goes.
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(link);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn swap_returns_protected_old() {
        let (d1, p1) = probe();
        let (_d2, p2) = probe();
        let link = OrcAtomic::new(&p1);
        drop(p1);
        let old = link.swap(&p2);
        assert!(!old.is_null());
        assert_eq!(d1.load(Ordering::SeqCst), 0, "returned guard protects old");
        drop(old);
        assert_eq!(d1.load(Ordering::SeqCst), 1);
        drop(p2);
        drop(link);
    }

    #[test]
    fn take_empties_the_link() {
        let (drops, p) = probe();
        let link = OrcAtomic::new(&p);
        drop(p);
        let old = link.take();
        assert!(link.load().is_null());
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(old);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(link); // null: no effect
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn chain_deletion_cascades_without_stack_overflow() {
        // Build a long singly-linked chain and drop the head link: the
        // recursive_list must flatten the cascade.
        struct Node {
            _payload: u64,
            next: OrcAtomic<Node>,
        }
        let n = 200_000;
        let head: OrcAtomic<Node> = OrcAtomic::null();
        let mut prev = OrcPtr::<Node>::null();
        for i in 0..n {
            let node = make_orc(Node {
                _payload: i,
                next: OrcAtomic::null(),
            });
            if !prev.is_null() {
                node.next.store(&prev);
            }
            prev = node;
        }
        head.store(&prev);
        drop(prev);
        let before = orc_util::track::thread().live_objects();
        drop(head); // must not overflow the stack
        let after = orc_util::track::thread().live_objects();
        assert_eq!(
            before - after,
            n as i64,
            "cascade must free the whole chain"
        );
    }

    fn links<T>(p: &OrcPtr<T>) -> i64 {
        crate::word::link_count(p.orc_word().expect("non-null guard"))
    }

    #[test]
    fn a_clone_leaves_one_first_install_between_the_copies() {
        for install_clone_first in [true, false] {
            let (drops, p) = probe();
            let q = p.clone();
            let (installed, other) = if install_clone_first { (q, p) } else { (p, q) };
            let a = OrcAtomic::new(&installed);
            assert_eq!(links(&installed), 1);
            // Not fresh either: its drop is a plain clear, and the link
            // keeps the object.
            drop(other);
            assert_eq!(drops.load(Ordering::SeqCst), 0);
            let b = OrcAtomic::null();
            b.store(&installed);
            assert_eq!(links(&installed), 2);
            drop((installed, a, b));
            assert_eq!(drops.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn only_the_first_install_of_a_fresh_guard_is_plain() {
        let p = make_orc(6u64);
        let a = OrcAtomic::null();
        a.store(&p);
        let b = OrcAtomic::null();
        drop(b.swap(&p));
        assert_eq!(links(&p), 2);
    }

    #[test]
    fn a_fresh_cas_counts_one_link_only_when_it_installs() {
        // A failed CAS takes its plain-store count back and leaves the
        // guard fresh, so its drop is `free_fresh`: no claim, no scan.
        let (drops, p) = probe();
        let a = OrcAtomic::null();
        let poisoned = OrcAtomic::poisoned().load();
        assert!(
            !a.cas_tagged(&poisoned, &p, 0),
            "a failed CAS installs nothing"
        );
        assert_eq!(links(&p), 0);
        assert!(p.is_fresh());
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        // A successful one counts exactly one link and clears the flag.
        let p = make_orc(Probe(drops.clone()));
        assert!(!a.cas_tagged(&poisoned, &p, 0));
        assert!(a.cas(&OrcPtr::null(), &p));
        assert_eq!(links(&p), 1);
        assert!(!p.is_fresh());
        let b = OrcAtomic::null();
        b.store(&p);
        assert_eq!(links(&p), 2);
        drop((p, a, b));
        assert_eq!(drops.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn cas_moving_hands_from_s_count_to_the_link() {
        let (dn, n) = probe();
        let (dx, x) = probe();
        let from = OrcAtomic::new(&n);
        let link = OrcAtomic::new(&x);
        drop(x);
        let g = link.load();
        let orc = n.orc_word();
        assert!(!link.cas_moving(&n, &n, &from), "expected mismatch fails");
        assert!(link.cas_moving(&g, &n, &from));
        assert_eq!(n.orc_word(), orc, "no RMW on the moved object");
        assert_eq!(links(&n), 1);
        assert!(crate::is_poison(from.load_raw()));
        // `g` is guard-expected: the claim on `x` waits for its drop.
        assert_eq!(dx.load(Ordering::SeqCst), 0);
        drop(g);
        assert_eq!(dx.load(Ordering::SeqCst), 1);
        drop((n, from));
        assert_eq!(dn.load(Ordering::SeqCst), 0, "`link` holds it");
        drop(link);
        assert_eq!(dn.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn cas_moving_counts_both_links_when_from_holds_another_object() {
        let (dn, n) = probe();
        let (dy, y) = probe();
        let (dx, x) = probe();
        let from = OrcAtomic::new(&y);
        drop(y);
        let link = OrcAtomic::new(&x);
        let orc = n.orc_word().unwrap();
        assert!(link.cas_moving(&x, &n, &from));
        assert_eq!(links(&n), crate::word::link_count(orc) + 1);
        assert_eq!(
            dy.load(Ordering::SeqCst),
            1,
            "`from`'s object lost its link"
        );
        assert!(crate::is_poison(from.load_raw()));
        drop(x);
        assert_eq!(dx.load(Ordering::SeqCst), 1);
        drop(n);
        drop(link);
        assert_eq!(dn.load(Ordering::SeqCst), 1);
        assert_eq!(dy.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_guard_stays_two_words() {
        assert_eq!(std::mem::size_of::<OrcPtr<u64>>(), 16);
        assert_eq!(std::mem::size_of::<OrcPtr<[u8; 100]>>(), 16);
    }

    /// `(tid, idx)` of `p`'s slot, its use count and the word it publishes.
    fn slot_state<T>(p: &OrcPtr<T>) -> (usize, u16, u32, usize) {
        let (tid, idx) = p.slot().expect("a guard with a slot");
        let d = domain();
        let published = d.slots.hp(tid, idx as usize).load(Ordering::SeqCst);
        (tid, idx, d.used_count(tid, idx), published)
    }

    #[test]
    fn load_into_a_sole_guard_keeps_its_slot() {
        let (d1, p1) = probe();
        let (d2, p2) = probe();
        let (a, b) = (OrcAtomic::new(&p1), OrcAtomic::new(&p2));
        drop((p1, p2));
        let mut g = a.load();
        let (_, idx, used, _) = slot_state(&g);
        assert_eq!(used, 1);
        b.load_into(&mut g);
        let (_, idx2, used2, published) = slot_state(&g);
        assert_eq!((idx2, used2), (idx, 1), "the hop reuses the slot");
        assert_eq!(published, g.raw());
        a.store_null();
        assert_eq!(d1.load(Ordering::SeqCst), 1, "the old object lost its pin");
        b.store_null();
        assert_eq!(d2.load(Ordering::SeqCst), 0, "the new object is pinned");
        drop(g);
        assert_eq!(d2.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn load_into_a_cloned_guard_falls_back() {
        let (d1, p1) = probe();
        let (_d2, p2) = probe();
        let (a, b) = (OrcAtomic::new(&p1), OrcAtomic::new(&p2));
        drop((p1, p2));
        let mut g = a.load();
        let keep = g.clone();
        b.load_into(&mut g);
        let (_, idx, used, _) = slot_state(&keep);
        assert_eq!(used, 1, "the clone is now alone on the old slot");
        assert_ne!(g.slot().unwrap().1, idx, "the hop claimed its own slot");
        a.store_null();
        assert_eq!(d1.load(Ordering::SeqCst), 0, "the clone still protects it");
        assert!(keep.as_ref().is_some());
        drop(keep);
        assert_eq!(d1.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn load_into_a_fresh_guard_falls_back_and_frees_once() {
        let (d1, mut g) = probe();
        let (_d2, p2) = probe();
        let b = OrcAtomic::new(&p2);
        drop(p2);
        b.load_into(&mut g);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "the fresh object is freed");
        drop(g);
        drop(b);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "and only once");
    }

    #[test]
    fn load_into_over_the_last_guard_of_a_never_linked_object_frees_it() {
        let (drops, p) = probe();
        let mut q = p.clone();
        drop(p);
        let (_d2, p2) = probe();
        let b = OrcAtomic::new(&p2);
        drop(p2);
        b.load_into(&mut q);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "nothing else would free it"
        );
        drop(q);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn load_into_a_sentinel_link_releases_the_slot() {
        for sentinel in [OrcAtomic::<Probe>::null(), OrcAtomic::poisoned()] {
            let (_d1, p1) = probe();
            let a = OrcAtomic::new(&p1);
            drop(p1);
            let mut g = a.load();
            let (tid, idx, _, _) = slot_state(&g);
            sentinel.load_into(&mut g);
            assert_eq!(g.raw(), sentinel.load_raw());
            assert!(g.slot().is_none());
            let d = domain();
            assert_eq!(d.used_count(tid, idx), 0);
            assert_eq!(d.slots.hp(tid, idx as usize).load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn a_sentinel_load_claims_no_slot() {
        let d = domain();
        let tid = registry::tid();
        let p = make_orc(1u8);
        let a = OrcAtomic::new(&p);
        drop(p);
        // Hold guards up to the watermark, so that any claim would have
        // to raise it; no other test holds 16 guards at once.
        let mut held = vec![a.load()];
        while held.len() < 16
            || held.last().unwrap().slot().unwrap().1 as usize + 1
                < d.max_hps.load(Ordering::SeqCst)
        {
            held.push(a.load());
        }
        let used = || {
            (0..crate::MAX_HPS as u16)
                .map(|i| d.used_count(tid, i))
                .collect::<Vec<_>>()
        };
        let (used_before, max_before) = (used(), d.max_hps.load(Ordering::SeqCst));
        let null = OrcAtomic::<u8>::null().load();
        let poison = OrcAtomic::<u8>::poisoned().load();
        assert!(null.is_null() && poison.is_poison());
        assert!(null.slot().is_none() && poison.slot().is_none());
        assert_eq!(used(), used_before);
        assert_eq!(d.max_hps.load(Ordering::SeqCst), max_before);
    }

    /// A `'retry` re-read of a link that still holds `dst`'s object takes
    /// the reuse path too: the slot re-publishes the same word.
    #[test]
    fn load_into_the_same_object_keeps_the_slot_and_takes_the_tag() {
        let (_d1, p1) = probe();
        let a = OrcAtomic::new(&p1);
        drop(p1);
        let mut g = a.load();
        let (_, idx, _, published) = slot_state(&g);
        let w = g.raw();
        assert!(a.cas_tag_only(w, orc_util::marked::mark(w)));
        a.load_into(&mut g);
        assert!(g.is_marked());
        let (_, idx2, used, published2) = slot_state(&g);
        assert_eq!((idx2, used, published2), (idx, 1, published));
    }

    #[test]
    fn load_into_frees_an_object_parked_on_the_reused_slot() {
        let (d1, p1) = probe();
        let (_d2, p2) = probe();
        let (a, b) = (OrcAtomic::new(&p1), OrcAtomic::new(&p2));
        drop((p1, p2));
        let mut g = a.load();
        // The unlink claims the object and its scan parks it on `g`'s slot.
        a.store_null();
        assert_eq!(d1.load(Ordering::SeqCst), 0);
        let (_, idx, _, _) = slot_state(&g);
        b.load_into(&mut g);
        assert_eq!(slot_state(&g).1, idx);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "the hop drained the handover");
    }

    /// What `handovers[idx]` of `p`'s slot holds: non-zero once a
    /// claimant's hazard scan parked an object on the slot.
    fn parked_on<T>(p: &OrcPtr<T>) -> usize {
        let (tid, idx) = p.slot().expect("a guard with a slot");
        domain()
            .slots
            .entry(tid, idx as usize)
            .load(Ordering::SeqCst)
    }

    #[test]
    fn load_into_a_sentinel_link_releases_the_slot_and_frees_what_was_parked() {
        for sentinel in [OrcAtomic::<Probe>::null(), OrcAtomic::poisoned()] {
            let (d1, p1) = probe();
            let a = OrcAtomic::new(&p1);
            drop(p1);
            let mut g = a.load();
            let (tid, idx, _, _) = slot_state(&g);
            // The unlink claims the object and its scan parks it on `g`'s
            // slot, so the hop's sentinel release and its drain both run.
            a.store_null();
            assert_ne!(parked_on(&g), 0);
            sentinel.load_into(&mut g);
            assert!(g.slot().is_none());
            let d = domain();
            assert_eq!(d.used_count(tid, idx), 0);
            assert_eq!(d.slots.hp(tid, idx as usize).load(Ordering::SeqCst), 0);
            assert_eq!(d.slots.entry(tid, idx as usize).load(Ordering::SeqCst), 0);
            assert_eq!(d1.load(Ordering::SeqCst), 1, "the drain freed it");
            drop(g);
            assert_eq!(d1.load(Ordering::SeqCst), 1, "and only once");
        }
    }

    #[test]
    fn the_last_clear_of_a_shared_slot_frees_what_was_parked_on_it() {
        let (d1, p1) = probe();
        let a = OrcAtomic::new(&p1);
        drop(p1);
        let g = a.load();
        let keep = g.clone();
        a.store_null();
        assert_ne!(parked_on(&g), 0, "parked on the shared slot");
        let (tid, idx, _, _) = slot_state(&g);
        drop(g);
        assert_eq!(d1.load(Ordering::SeqCst), 0, "another use remains");
        assert_ne!(parked_on(&keep), 0);
        drop(keep);
        let d = domain();
        assert_eq!(d.used_count(tid, idx), 0);
        assert_eq!(d.slots.entry(tid, idx as usize).load(Ordering::SeqCst), 0);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "the last clear drained it");
    }

    #[test]
    fn a_guard_expected_cas_holds_the_claim_for_the_guard() {
        let (d1, p1) = probe();
        let (d2, p2) = probe();
        let link = OrcAtomic::new(&p1);
        drop(p1);
        let g = link.load();
        assert!(link.cas(&g, &p2));
        let orc = g.orc_word().unwrap();
        assert!(
            crate::word::is_zero_retired(orc),
            "claimed at the CAS: {orc:#x}"
        );
        let (tid, idx, used, _) = slot_state(&g);
        assert_eq!(used, CLAIMED | 1, "the claim is held on the guard's slot");
        assert_eq!(parked_on(&g), 0, "nothing was parked on the guard");
        assert_eq!(d1.load(Ordering::SeqCst), 0, "the guard pins it");
        drop(g);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "freed at the guard's drop");
        assert_eq!(domain().used_count(tid, idx), 0);
        drop((p2, link));
        assert_eq!(d2.load(Ordering::SeqCst), 1);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "and only once");
    }

    #[test]
    fn a_held_claim_on_a_reinstalled_object_is_given_back() {
        let (d1, p1) = probe();
        let (_d2, p2) = probe();
        let link = OrcAtomic::new(&p1);
        drop(p1);
        let g = link.load();
        assert!(link.cas(&g, &p2));
        assert!(crate::word::is_zero_retired(g.orc_word().unwrap()));
        // Re-installed while the claim is held: counted under BRETIRED.
        let again = OrcAtomic::new(&g);
        assert_eq!(links(&g), 1);
        drop(g);
        assert_eq!(
            d1.load(Ordering::SeqCst),
            0,
            "linked: the claim is given back"
        );
        let w = again.load();
        let orc = w.orc_word().unwrap();
        assert_eq!(orc & crate::word::BRETIRED, 0, "unclaimed: {orc:#x}");
        drop(w);
        again.store_null();
        assert_eq!(d1.load(Ordering::SeqCst), 1, "freed once unlinked");
        drop((p2, link, again));
        assert_eq!(d1.load(Ordering::SeqCst), 1, "and only once");
    }

    #[test]
    fn load_into_over_a_claim_holding_guard_frees_the_object_once() {
        // Into an object and into a sentinel: the flagged count sends both
        // hops to the fallback, whose drop of the old guard retires.
        for sentinel in [false, true] {
            let (d1, p1) = probe();
            let (_d2, p2) = probe();
            let link = OrcAtomic::new(&p1);
            drop(p1);
            let mut g = link.load();
            let (tid, idx, _, _) = slot_state(&g);
            assert!(link.cas(&g, &p2));
            assert_eq!(domain().used_count(tid, idx), CLAIMED | 1);
            if sentinel {
                OrcAtomic::<Probe>::null().load_into(&mut g);
                assert!(g.is_null());
            } else {
                link.load_into(&mut g);
                assert!(g.same_object(&p2));
            }
            assert_eq!(d1.load(Ordering::SeqCst), 1, "freed by the hop");
            assert_eq!(domain().used_count(tid, idx), 0);
            drop((g, p2, link));
            assert_eq!(d1.load(Ordering::SeqCst), 1, "and only once");
        }
    }

    #[test]
    fn a_cloned_claim_holding_guard_frees_at_the_last_drop() {
        let (d1, p1) = probe();
        let (_d2, p2) = probe();
        let link = OrcAtomic::new(&p1);
        drop(p1);
        let g = link.load();
        assert!(link.cas(&g, &p2));
        let (tid, idx, _, _) = slot_state(&g);
        let copies = [g.clone(), g.clone()];
        assert_eq!(domain().used_count(tid, idx), CLAIMED | 3);
        drop(g);
        let [a, b] = copies;
        drop(a);
        assert_eq!(d1.load(Ordering::SeqCst), 0, "the last copy pins it");
        assert_eq!(domain().used_count(tid, idx), CLAIMED | 1);
        assert_eq!(parked_on(&b), 0);
        drop(b);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "freed at the last drop");
        assert_eq!(domain().used_count(tid, idx), 0);
        drop((p2, link));
        assert_eq!(d1.load(Ordering::SeqCst), 1, "and only once");
    }

    #[test]
    fn a_guard_expected_cas_frees_at_the_last_drop_of_a_shared_slot() {
        for drop_the_clone_first in [true, false] {
            let (d1, p1) = probe();
            let (_d2, p2) = probe();
            let link = OrcAtomic::new(&p1);
            drop(p1);
            let g = link.load();
            let keep = g.clone();
            assert!(link.cas(&g, &p2));
            let (first, last) = if drop_the_clone_first {
                (keep, g)
            } else {
                (g, keep)
            };
            drop(first);
            assert_eq!(d1.load(Ordering::SeqCst), 0, "the other copy pins it");
            assert_eq!(parked_on(&last), 0);
            drop(last);
            assert_eq!(d1.load(Ordering::SeqCst), 1);
            drop((p2, link));
            assert_eq!(d1.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn a_guard_expected_cas_frees_when_the_guard_is_rotated() {
        let (d1, p1) = probe();
        let (d2, p2) = probe();
        let link = OrcAtomic::new(&p1);
        drop(p1);
        let mut g = link.load();
        assert!(link.cas(&g, &p2));
        drop(p2);
        assert_eq!(d1.load(Ordering::SeqCst), 0);
        link.load_into(&mut g);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "freed by the hop");
        assert_eq!(d2.load(Ordering::SeqCst), 0, "the new target is pinned");
        assert!(std::ptr::eq(
            g.as_ref().unwrap(),
            link.load().as_ref().unwrap()
        ));
        drop((g, link));
        assert_eq!(
            (d1.load(Ordering::SeqCst), d2.load(Ordering::SeqCst)),
            (1, 1)
        );
    }

    #[test]
    fn a_sentinel_or_fresh_expected_keeps_the_claim_at_the_cas() {
        let (d1, p1) = probe();
        let link = OrcAtomic::null();
        // A sentinel: nothing to un-count; `p1` is counted and linked.
        assert!(link.cas(&OrcPtr::null(), &p1));
        assert_eq!(links(&p1), 1);
        // A fresh guard was never linked, so it never matches a link.
        let (d2, fresh) = probe();
        assert!(!link.cas(&fresh, &fresh));
        drop(fresh);
        assert_eq!(d2.load(Ordering::SeqCst), 1, "still fresh: freed at drop");
        // Without a guard to leave it to (a raw expected word), the CAS
        // claims at once: the hazard scan finds `p1`'s slot and parks the
        // object there.
        assert!(link.cas_null(p1.raw()));
        assert_ne!(parked_on(&p1), 0, "claimed and parked by the CAS");
        drop(p1);
        assert_eq!(d1.load(Ordering::SeqCst), 1);
        drop(link);
    }

    #[test]
    fn reinsertion_revives_a_retired_object() {
        // The third obstacle of §2: an object taken out and re-linked must
        // not be freed. Hold a guard, unlink (counter -> 0, retired),
        // re-link from the guard, then verify it survives.
        let (drops, p) = probe();
        let link = OrcAtomic::new(&p);
        let guard = link.load();
        link.store_null(); // counter hits zero; object parked on our guard
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        let link2 = OrcAtomic::new(&guard); // re-insert
        drop(guard);
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 0, "revived object is alive");
        drop(link2);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        drop(link);
    }
}
