//! The tracked-object header (`orc_base`) and allocation layout.
//!
//! The paper requires every shared object type to extend `orc_base`, which
//! holds the `_orc` word. Rust has no inheritance, so [`make_orc`]
//! allocates objects as `#[repr(C)] Linked<T> { header: OrcHeader, value: T }`
//! and every internal pointer (hazard slots, handover slots, link words) is
//! a `*mut OrcHeader` pointing at the start of the `Linked<T>` block. The
//! header begins with the [`Block`] every tracked object shares (the
//! type-erased destructor — the C++ version gets it from `orc_base`'s
//! vtable — the pool tag and the retire stamp), so a header pointer is a
//! block pointer; allocation and reclamation go through the one funnel,
//! `orc_util::tracked`.
//!
//! [`make_orc`]: crate::make_orc

use crate::word::ORC_INIT;
use orc_util::atomics::{AtomicU64, Ordering};
use orc_util::tracked::{self, Block};

/// Per-object metadata; the paper's `orc_base`.
#[repr(C)]
pub struct OrcHeader {
    /// The block every tracked object starts with.
    pub(crate) block: Block,
    /// The `_orc` word: biased hard-link counter + BRETIRED + sequence.
    pub(crate) orc: AtomicU64,
}

/// Allocation layout of every tracked object.
#[repr(C)]
pub struct Linked<T> {
    pub(crate) header: OrcHeader,
    pub(crate) value: T,
}

impl OrcHeader {
    /// Allocates `value` behind a fresh header with `_orc = ORC_INIT`.
    /// Returns the erased header pointer (== the `Linked<T>` pointer).
    pub(crate) fn alloc<T>(value: T) -> *mut OrcHeader {
        // SAFETY: `Linked<T>` is `repr(C)` and begins with the header,
        // which begins with the block; the value sits at the offset passed.
        let linked = unsafe {
            tracked::alloc(std::mem::offset_of!(Linked<T>, value), |block| Linked {
                header: OrcHeader {
                    block,
                    orc: AtomicU64::new(ORC_INIT),
                },
                value,
            })
        };
        linked.cast()
    }

    /// The value behind a header pointer.
    ///
    /// # Safety
    /// `h` must be a live `Linked<T>` for this exact `T`.
    #[inline(always)]
    pub(crate) unsafe fn value<'a, T>(h: *mut OrcHeader) -> &'a T {
        // SAFETY: `h` is a live `Linked<T>` per this function's contract,
        // and `repr(C)` makes the header pointer the block pointer.
        unsafe { &(*(h as *mut Linked<T>)).value }
    }

    /// Raw access to the `_orc` word (tests / diagnostics).
    pub fn orc_word(&self) -> u64 {
        // orc-lint: allow(seqcst, diagnostic read kept on the counter's SC order so test assertions see settled values)
        self.orc.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word;

    #[test]
    fn alloc_initializes_orc() {
        let h = OrcHeader::alloc(42u64);
        // SAFETY: freshly allocated as `Linked<u64>`, unshared, destroyed
        // exactly once.
        unsafe {
            assert!(word::is_zero_unclaimed((*h).orc.load(Ordering::SeqCst)));
            assert_eq!(*OrcHeader::value::<u64>(h), 42);
            tracked::destroy(h.cast());
        }
    }

    #[test]
    fn header_is_at_offset_zero() {
        // The erased header pointer must coincide with the Linked<T>
        // pointer for every T, and with its block (repr(C) guarantees
        // both; this guards against accidental layout changes).
        assert_eq!(std::mem::offset_of!(Linked<u8>, header), 0);
        assert_eq!(std::mem::offset_of!(Linked<[u64; 7]>, header), 0);
        assert_eq!(std::mem::offset_of!(OrcHeader, block), 0);
    }

    #[test]
    fn the_header_is_four_words() {
        // An OrcGC `MsQueue<u64>` node is 56 B, in the 64 B pool class; a
        // field added here must fail this test, not slip every OrcGC node
        // into a larger class.
        assert_eq!(std::mem::size_of::<OrcHeader>(), 32);
    }
}
