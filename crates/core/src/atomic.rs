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

use crate::domain::{domain, Domain};
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
    pub fn load(&self) -> OrcPtr<T> {
        let tid = registry::tid();
        let d = domain();
        let idx = d.get_new_idx(tid);
        let word = d.get_protected(tid, idx, &self.word);
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
    pub fn load_into(&self, dst: &mut OrcPtr<T>) {
        if let Some((tid, idx)) = dst.slot() {
            // The guard is `!Send`, so its tid is the caller's.
            debug_assert_eq!(tid, registry::tid());
            if let Some(word) = domain().reprotect(tid, idx, dst.raw(), &self.word) {
                if protectable(word) == 0 {
                    // The slot is already released: skip `dst`'s drop.
                    std::mem::forget(std::mem::replace(dst, OrcPtr::unprotected(word)));
                } else {
                    dst.set_word(word);
                }
                return;
            }
        }
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

    /// Store the poison sentinel, un-counting the displaced link
    /// (CRF-skip's node isolation).
    pub fn store_poison(&self) {
        let tid = registry::tid();
        let old = self.word.swap(poison_word(), Ordering::SeqCst);
        domain().decrement_orc(tid, protectable(old) as *mut OrcHeader);
    }

    /// CAS (Algorithm 4, lines 69–74): on success, count the new target and
    /// un-count the old. `expected` is a full word (use
    /// [`OrcPtr::with_tag`]/[`OrcPtr::raw`] to build it); the new word is
    /// `new.with_tag(new_tag)`, protected by `new`'s guard.
    ///
    /// A CAS counts only after it links, when others may already reach
    /// the object, so even a fresh `new` is counted with the RMW.
    pub fn cas_tagged(&self, expected: usize, new: &OrcPtr<T>, new_tag: usize) -> bool {
        self.cas_guarded(expected, new, new.with_tag(new_tag), false)
    }

    /// CAS between two guards; installs `new`'s word as observed.
    ///
    /// If `expected` holds a hazard slot, that slot already pins the
    /// object the CAS displaces, so its un-count is a bare counter RMW
    /// and the claim, should the counter reach zero, is left to
    /// `expected`'s release: its drop (the last one, if it was cloned) or
    /// a [`load_into`](Self::load_into) over it claims the object and
    /// frees it in one pass. A fresh or sentinel `expected` un-counts as
    /// [`cas_tagged`](Self::cas_tagged) does.
    pub fn cas(&self, expected: &OrcPtr<T>, new: &OrcPtr<T>) -> bool {
        self.cas_guarded(expected.raw(), new, new.raw(), expected.slot().is_some())
    }

    /// CAS installing null.
    pub fn cas_null(&self, expected: usize) -> bool {
        self.cas_words(expected, 0, false)
    }

    /// CAS installing the poison sentinel.
    pub fn cas_poison(&self, expected: usize) -> bool {
        self.cas_words(expected, poison_word(), false)
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
        self.word
            .compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// A CAS installing `new_word`, which `new` protects.
    fn cas_guarded(&self, expected: usize, new: &OrcPtr<T>, new_word: usize, pinned: bool) -> bool {
        let linked = self.cas_words(expected, new_word, pinned);
        if linked {
            new.take_fresh();
        }
        linked
    }

    /// The CAS and its counter updates. `pinned`: a guard of the caller's
    /// publishes `expected`'s object until that guard is released.
    fn cas_words(&self, expected: usize, new_word: usize, pinned: bool) -> bool {
        if self
            .word
            .compare_exchange(expected, new_word, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        let newt = protectable(new_word);
        let oldt = protectable(expected);
        if newt != oldt {
            let tid = registry::tid();
            let d = domain();
            d.increment_orc(tid, newt as *mut OrcHeader);
            if pinned {
                // The claim is left to the guard's release (see `cas`).
                // SAFETY: the caller's guard on `expected` publishes the
                // displaced object until it is released (`pinned`).
                unsafe { Domain::uncount(oldt as *mut OrcHeader) };
            } else {
                d.decrement_orc(tid, oldt as *mut OrcHeader);
            }
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
        d.publish(tid, idx, old);
        d.decrement_orc(tid, oldt as *mut OrcHeader);
        OrcPtr::new(old, idx, tid)
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
    fn a_cas_install_clears_the_fresh_flag() {
        let p = make_orc(7u64);
        let a = OrcAtomic::null();
        assert!(!a.cas_tagged(1, &p, 0), "a failed CAS installs nothing");
        assert!(a.cas(&OrcPtr::null(), &p));
        assert_eq!(links(&p), 1);
        let b = OrcAtomic::null();
        b.store(&p);
        assert_eq!(links(&p), 2);
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
        let published = d.tl(tid).hp[idx as usize].load(Ordering::SeqCst);
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
    fn load_into_a_null_link_releases_the_slot() {
        let (_d1, p1) = probe();
        let a = OrcAtomic::new(&p1);
        drop(p1);
        let mut g = a.load();
        let (tid, idx, _, _) = slot_state(&g);
        OrcAtomic::<Probe>::null().load_into(&mut g);
        assert!(g.is_null() && g.slot().is_none());
        let d = domain();
        assert_eq!(d.used_count(tid, idx), 0);
        assert_eq!(d.tl(tid).hp[idx as usize].load(Ordering::SeqCst), 0);
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
        domain().tl(tid).handovers[idx as usize].load(Ordering::SeqCst)
    }

    #[test]
    fn a_guard_expected_cas_leaves_the_claim_to_the_guard() {
        let (d1, p1) = probe();
        let (d2, p2) = probe();
        let link = OrcAtomic::new(&p1);
        drop(p1);
        let g = link.load();
        assert!(link.cas(&g, &p2));
        let orc = g.orc_word().unwrap();
        assert!(
            crate::word::is_zero_unclaimed(orc),
            "no claim yet: {orc:#x}"
        );
        assert_eq!(parked_on(&g), 0, "nothing was parked on the guard");
        assert_eq!(d1.load(Ordering::SeqCst), 0, "the guard pins it");
        drop(g);
        assert_eq!(d1.load(Ordering::SeqCst), 1, "freed at the guard's drop");
        drop((p2, link));
        assert_eq!(d2.load(Ordering::SeqCst), 1);
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
        // Without a guard to leave it to, the CAS claims at once: the
        // hazard scan finds `p1`'s slot and parks the object there.
        let (_d3, p3) = probe();
        assert!(link.cas_tagged(p1.raw(), &p3, 0));
        assert_ne!(parked_on(&p1), 0, "claimed and parked by the CAS");
        drop(p1);
        assert_eq!(d1.load(Ordering::SeqCst), 1);
        drop((p3, link));
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
