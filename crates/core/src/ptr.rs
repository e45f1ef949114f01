//! `orc_ptr` — the protected local-reference guard (paper Algorithm 7).
//!
//! An [`OrcPtr`] owns (a share of) one hazard slot of the calling thread;
//! while it is alive, the object it references cannot be deleted. Dropping
//! it runs the paper's `clear()`: release the slot share and, if the
//! object's hard-link counter is at zero, claim `BRETIRED` and retire it —
//! this is how objects that were never linked (or whose last local
//! reference just went away) get collected without any user call.
//!
//! Differences from the C++ listing, by necessity of Rust semantics:
//! C++ migrates protection between slots inside the copy/assignment
//! operators, constrained to move only in the hazard-scan direction. Rust
//! has no assignment hook, so this port never *migrates* a protection:
//! [`OrcAtomic::load`](crate::OrcAtomic::load) validates into a freshly
//! claimed slot, [`OrcAtomic::load_into`](crate::OrcAtomic::load_into)
//! validates into the destination guard's own slot (both safe regardless
//! of index order, because validation re-reads the shared link), and
//! [`OrcPtr::clone`] *shares* the existing slot via the `used_haz`
//! counts. All three preserve the paper's invariant that a protection is
//! never copied to a slot the concurrent hand-over scan has already
//! passed.
//!
//! A guard fresh from [`make_orc`](crate::make_orc) is the one reference
//! to an object no link has ever held (the `fresh` flag). Its first
//! install counts the link with a plain store, and its drop, if it was
//! never installed, frees the object at once (DESIGN.md §6.2).

use crate::domain::{built, NO_IDX};
use crate::header::{Linked, OrcHeader};
use orc_util::marked;
use std::cell::Cell;
use std::fmt;
use std::marker::PhantomData;

/// The poison sentinel used by CRF-skip (§5), stored in links of nodes
/// that have been fully isolated from the structure. Never counted, never
/// dereferenced, never protected. An address in the never-mapped first
/// page, so no object has it, with the tag bits clear; a constant, so a
/// test for it is an immediate compare and reads no memory.
const POISON: usize = 4;

/// The poison sentinel word.
#[inline]
pub fn poison_word() -> usize {
    POISON
}

/// True if `word` (after unmarking) is the poison sentinel.
#[inline]
pub fn is_poison(word: usize) -> bool {
    marked::unmark(word) == poison_word()
}

/// The pointer value a hazard slot should hold for `word`: unmarked, and 0
/// for the sentinels (null, poison) that are not tracked objects.
#[inline]
pub(crate) fn protectable(word: usize) -> usize {
    let t = marked::unmark(word);
    if t == POISON {
        0
    } else {
        t
    }
}

/// A protected local reference to a tracked object (the paper's
/// `orc_ptr<T*>`). Holds the full link word, including any Harris-style
/// mark bits observed at load time.
pub struct OrcPtr<T> {
    word: usize,
    idx: u16,
    /// Set only by `make_orc`: no link has held the object and no other
    /// guard references it. Cleared by the first install and by `clone`
    /// (on both copies), so at most one guard ever says so.
    fresh: Cell<bool>,
    tid: u32,
    _not_send: PhantomData<*mut Linked<T>>,
}

// The flag rides in the padding after `idx`; `T` is phantom.
const _: () = assert!(std::mem::size_of::<OrcPtr<u64>>() == 16);

impl<T> OrcPtr<T> {
    #[inline]
    pub(crate) fn new(word: usize, idx: u16, tid: usize) -> Self {
        Self {
            word,
            idx,
            fresh: Cell::new(false),
            tid: tid as u32,
            _not_send: PhantomData,
        }
    }

    /// The guard `make_orc` returns for the object at `h`, published in
    /// `idx`.
    #[inline]
    pub(crate) fn fresh(h: *mut OrcHeader, idx: u16, tid: usize) -> Self {
        let p = Self::new(h as usize, idx, tid);
        p.fresh.set(true);
        p
    }

    /// True while the guard is fresh (see `fresh`).
    #[inline]
    pub(crate) fn is_fresh(&self) -> bool {
        self.fresh.get()
    }

    /// Marks the object installed in a link; true if this was its first
    /// install through a fresh guard (nobody else can touch its `_orc`).
    #[inline]
    pub(crate) fn take_fresh(&self) -> bool {
        self.fresh.replace(false)
    }

    /// `(tid, idx)` of the hazard slot a non-fresh guard publishes its
    /// object in; `None` for a sentinel or fresh guard.
    #[inline]
    pub(crate) fn slot(&self) -> Option<(usize, u16)> {
        (self.idx != NO_IDX && !self.fresh.get()).then_some((self.tid as usize, self.idx))
    }

    /// Points the guard at `word`, which its slot already protects.
    #[inline]
    pub(crate) fn set_word(&mut self, word: usize) {
        self.word = word;
    }

    /// An unprotected guard for sentinel words (null / poison) that need no
    /// hazard slot.
    #[inline]
    pub(crate) fn unprotected(word: usize) -> Self {
        debug_assert_eq!(protectable(word), 0);
        Self::new(word, NO_IDX, u32::MAX as usize)
    }

    /// The null guard.
    #[inline]
    pub fn null() -> Self {
        Self::unprotected(0)
    }

    /// The full link word (pointer plus tag bits) this guard observed.
    #[inline]
    pub fn raw(&self) -> usize {
        self.word
    }

    /// The word with its tag bits replaced by `tag` — for building CAS
    /// expected/new values.
    #[inline]
    pub fn with_tag(&self, tag: usize) -> usize {
        marked::with_tag(self.word, tag)
    }

    /// True if the referenced pointer (ignoring tags) is null.
    #[inline]
    pub fn is_null(&self) -> bool {
        marked::unmark(self.word) == 0
    }

    /// True if this guard observed the poison sentinel.
    #[inline]
    pub fn is_poison(&self) -> bool {
        is_poison(self.word)
    }

    /// True if the observed word carried the Harris deletion mark.
    #[inline]
    pub fn is_marked(&self) -> bool {
        marked::is_marked(self.word)
    }

    /// True if `self` and `other` reference the same object (tags ignored).
    #[inline]
    pub fn same_object(&self, other: &Self) -> bool {
        marked::unmark(self.word) == marked::unmark(other.word)
    }

    /// True if this guard references the object behind `word` (tags
    /// ignored).
    #[inline]
    pub fn is_object(&self, word: usize) -> bool {
        marked::unmark(self.word) == marked::unmark(word)
    }

    #[inline]
    pub(crate) fn header(&self) -> *mut OrcHeader {
        protectable(self.word) as *mut OrcHeader
    }

    /// Borrow the referenced value; `None` for null/poison.
    #[inline]
    pub fn as_ref(&self) -> Option<&T> {
        let h = self.header();
        if h.is_null() {
            None
        } else {
            // SAFETY: a non-null `OrcPtr` occupies a hazard slot (or was
            // created from a counted link), pinning the object alive for
            // the guard's — and thus the reference's — lifetime.
            Some(unsafe { OrcHeader::value::<T>(h) })
        }
    }

    /// The `_orc` diagnostic word of the referenced object (tests).
    pub fn orc_word(&self) -> Option<u64> {
        let h = self.header();
        if h.is_null() {
            None
        } else {
            // SAFETY: pinned by this guard, as in `as_ref`.
            Some(unsafe { (*h).orc_word() })
        }
    }
}

impl<T> std::ops::Deref for OrcPtr<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.as_ref().expect("dereferenced a null/poison OrcPtr")
    }
}

impl<T> Clone for OrcPtr<T> {
    /// Shares the hazard slot (bumps `used_haz`); never re-publishes.
    /// Neither copy is fresh: either may be installed first.
    fn clone(&self) -> Self {
        if self.idx != NO_IDX {
            debug_assert_eq!(self.tid as usize, orc_util::registry::tid());
            // SAFETY: this guard holds a slot.
            unsafe { built() }.using_idx(self.tid as usize, self.idx);
        }
        self.fresh.set(false);
        Self::new(self.word, self.idx, self.tid as usize)
    }
}

impl<T> Drop for OrcPtr<T> {
    /// The paper's `~orc_ptr`: `clear(ptr, idx, false)` — or, for a
    /// fresh guard, the immediate free of an object nothing else reaches.
    #[inline]
    fn drop(&mut self) {
        if self.idx != NO_IDX {
            debug_assert_eq!(self.tid as usize, orc_util::registry::tid());
            // SAFETY: this guard holds a slot.
            let d = unsafe { built() };
            if self.fresh.get() {
                d.free_fresh(self.tid as usize, self.idx, self.header());
            } else {
                d.clear(self.tid as usize, self.idx, self.word);
            }
        }
    }
}

impl<T> PartialEq for OrcPtr<T> {
    /// Object identity, ignoring tag bits (matching the paper's pointer
    /// comparisons, e.g. `node != tail.load()`).
    fn eq(&self, other: &Self) -> bool {
        self.same_object(other)
    }
}

impl<T> Eq for OrcPtr<T> {}

impl<T> fmt::Debug for OrcPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrcPtr")
            .field("ptr", &(marked::unmark(self.word) as *const ()))
            .field("mark", &self.is_marked())
            .field("poison", &self.is_poison())
            .field("idx", &self.idx)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_guard_has_no_slot() {
        let p: OrcPtr<u64> = OrcPtr::null();
        assert!(p.is_null());
        assert!(!p.is_poison());
        assert!(p.as_ref().is_none());
    }

    #[test]
    fn poison_is_not_null_and_not_protectable() {
        let w = poison_word();
        assert_ne!(w, 0);
        assert!(is_poison(w));
        assert!(is_poison(marked::mark(w)));
        assert_eq!(protectable(w), 0);
        assert_eq!(protectable(marked::mark(w)), 0);
        let p: OrcPtr<u64> = OrcPtr::unprotected(w);
        assert!(!p.is_null());
        assert!(p.is_poison());
        assert!(p.as_ref().is_none());
    }

    #[test]
    #[should_panic(expected = "null/poison")]
    fn deref_null_panics() {
        let p: OrcPtr<u64> = OrcPtr::null();
        let _ = *p;
    }

    #[test]
    fn make_orc_guard_derefs() {
        let p = crate::make_orc(123u64);
        assert_eq!(*p, 123);
        assert!(!p.is_null());
        assert!(!p.is_marked());
    }

    #[test]
    fn clone_shares_the_slot_and_value() {
        let p = crate::make_orc(String::from("hello"));
        let q = p.clone();
        assert_eq!(&*q, "hello");
        assert!(p.same_object(&q));
        drop(p);
        // q still protects the object.
        assert_eq!(&*q, "hello");
    }

    #[test]
    fn unlinked_object_is_destroyed_when_last_guard_drops() {
        use orc_util::atomics::{AtomicUsize, Ordering};
        use std::sync::Arc;
        struct Probe(Arc<AtomicUsize>);
        impl Drop for Probe {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicUsize::new(0));
        let p = crate::make_orc(Probe(drops.clone()));
        let q = p.clone();
        drop(p);
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(q);
        assert_eq!(
            drops.load(Ordering::SeqCst),
            1,
            "never-linked object must be collected on last guard drop"
        );
    }
}
