//! Double-word (128-bit) atomic compare-and-swap.
//!
//! Pass-the-buck (Herlihy et al. 2002) publishes *(pointer, version)* pairs
//! with a DWCAS, and LCRQ (Morrison–Afek 2013) updates *(index, value)* ring
//! slots the same way. Stable Rust exposes no `AtomicU128`, so on x86_64 we
//! emit `lock cmpxchg16b` through inline assembly (with the usual `rbx`
//! save/restore dance, since LLVM reserves `rbx`). On other architectures a
//! documented sharded-spinlock fallback keeps the code *correct* but not
//! lock-free; the benchmark harness prints a warning in that configuration.
//!
//! Loads are performed as a `cmpxchg16b` with identical old/new values — the
//! standard trick; it requires the target to be writable, which always holds
//! for the slots we use.

#[cfg(feature = "orc_check")]
use crate::chk_hooks::{access, Acc};
use std::cell::UnsafeCell;

/// A 16-byte-aligned 128-bit atomic word with sequentially consistent
/// compare-exchange, load and store.
#[repr(C, align(16))]
pub struct AtomicU128 {
    cell: UnsafeCell<u128>,
}

// SAFETY: the cell is only ever accessed through `cas128`/the spinlock
// fallback, both of which are atomic read-modify-writes; no mixed-size or
// non-atomic access exists, so sharing across threads is sound.
unsafe impl Send for AtomicU128 {}
// SAFETY: see the `Send` impl above — every access is a full-word atomic.
unsafe impl Sync for AtomicU128 {}

impl AtomicU128 {
    pub const fn new(v: u128) -> Self {
        Self {
            cell: UnsafeCell::new(v),
        }
    }

    /// Atomically compares the current value with `old`; if equal, writes
    /// `new`. Returns `(previous_value, success)`.
    #[inline]
    pub fn compare_exchange(&self, old: u128, new: u128) -> (u128, bool) {
        #[cfg(feature = "orc_check")]
        access(self.cell.get() as usize, Acc::Rmw, "dwcas");
        // SAFETY: `self.cell` is a live, 16-byte-aligned allocation owned by
        // this `AtomicU128` (guaranteed by `repr(align(16))`).
        unsafe { cas128(self.cell.get(), old, new) }
    }

    /// Atomic sequentially consistent load.
    #[inline]
    pub fn load(&self) -> u128 {
        #[cfg(feature = "orc_check")]
        access(self.cell.get() as usize, Acc::Load, "dwload");
        // cmpxchg16b with old == new == 0: if the slot is 0 it rewrites 0
        // (harmless); otherwise it fails and returns the current value.
        // SAFETY: `self.cell` is a live, 16-byte-aligned allocation owned by
        // this `AtomicU128`, and the slot is always writable (module docs).
        unsafe { cas128(self.cell.get(), 0, 0).0 }
    }

    /// Atomic store, implemented as a CAS loop.
    #[inline]
    pub fn store(&self, v: u128) {
        let mut cur = self.load();
        loop {
            let (prev, ok) = self.compare_exchange(cur, v);
            if ok {
                return;
            }
            cur = prev;
        }
    }

    /// Atomic exchange; returns the previous value.
    #[inline]
    pub fn swap(&self, v: u128) -> u128 {
        let mut cur = self.load();
        loop {
            let (prev, ok) = self.compare_exchange(cur, v);
            if ok {
                return cur;
            }
            cur = prev;
        }
    }
}

impl Default for AtomicU128 {
    fn default() -> Self {
        Self::new(0)
    }
}

/// Packs a `(lo, hi)` pair of 64-bit words into a 128-bit value.
#[inline(always)]
pub const fn pack(lo: u64, hi: u64) -> u128 {
    (lo as u128) | ((hi as u128) << 64)
}

/// Splits a 128-bit value into its `(lo, hi)` 64-bit halves.
#[inline(always)]
pub const fn unpack(v: u128) -> (u64, u64) {
    (v as u64, (v >> 64) as u64)
}

/// Whether the current build uses genuinely lock-free DWCAS.
#[inline]
pub const fn is_lock_free() -> bool {
    cfg!(target_arch = "x86_64")
}

#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn cas128(dst: *mut u128, old: u128, new: u128) -> (u128, bool) {
    debug_assert_eq!(dst as usize % 16, 0, "cmpxchg16b needs 16-byte alignment");
    let (old_lo, old_hi) = unpack(old);
    let (new_lo, new_hi) = unpack(new);
    let out_lo: u64;
    let out_hi: u64;
    // Every register cmpxchg16b touches is pinned explicitly — in
    // particular `dst` (rdi here): with a generic `reg` class the
    // allocator may choose rbx, which the instruction's implicit rbx
    // operand (staged via the xchg pair) would clobber. `nl` may itself
    // land on rbx; both xchgs then degenerate to no-ops and the discard
    // output still tells LLVM the register is clobbered. Success is
    // derived from the output value (RDX:RAX returns the previous
    // content; it equals `old` iff the exchange happened), avoiding a
    // flag-consuming `sete` whose byte register could alias rbx.
    core::arch::asm!(
        "xchg {nl}, rbx",
        "lock cmpxchg16b [rdi]",
        "xchg {nl}, rbx",
        nl = inout(reg) new_lo => _,
        in("rdi") dst,
        inout("rax") old_lo => out_lo,
        inout("rdx") old_hi => out_hi,
        in("rcx") new_hi,
        options(nostack),
    );
    let prev = pack(out_lo, out_hi);
    (prev, prev == old)
}

#[cfg(not(target_arch = "x86_64"))]
mod fallback {
    use std::sync::atomic::{AtomicBool, Ordering};

    const SHARDS: usize = 64;
    static LOCKS: [AtomicBool; SHARDS] = {
        #[allow(clippy::declare_interior_mutable_const)]
        const L: AtomicBool = AtomicBool::new(false);
        [L; SHARDS]
    };

    pub(super) unsafe fn cas128(dst: *mut u128, old: u128, new: u128) -> (u128, bool) {
        let lock = &LOCKS[(dst as usize >> 4) % SHARDS];
        while lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::hint::spin_loop();
        }
        let cur = *dst;
        let ok = cur == old;
        if ok {
            *dst = new;
        }
        lock.store(false, Ordering::Release);
        (cur, ok)
    }
}

#[cfg(not(target_arch = "x86_64"))]
use fallback::cas128;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pack_unpack_roundtrip() {
        let v = pack(0xdead_beef, 0xcafe_babe);
        assert_eq!(unpack(v), (0xdead_beef, 0xcafe_babe));
    }

    #[test]
    fn cas_succeeds_on_match() {
        let a = AtomicU128::new(pack(1, 2));
        let (prev, ok) = a.compare_exchange(pack(1, 2), pack(3, 4));
        assert!(ok);
        assert_eq!(prev, pack(1, 2));
        assert_eq!(a.load(), pack(3, 4));
    }

    #[test]
    fn cas_fails_on_mismatch() {
        let a = AtomicU128::new(pack(1, 2));
        let (prev, ok) = a.compare_exchange(pack(9, 9), pack(3, 4));
        assert!(!ok);
        assert_eq!(prev, pack(1, 2));
        assert_eq!(a.load(), pack(1, 2));
    }

    #[test]
    fn store_and_swap() {
        let a = AtomicU128::new(0);
        a.store(42);
        assert_eq!(a.load(), 42);
        assert_eq!(a.swap(7), 42);
        assert_eq!(a.load(), 7);
    }

    #[test]
    fn load_of_zero_slot() {
        let a = AtomicU128::new(0);
        assert_eq!(a.load(), 0);
    }

    #[test]
    fn concurrent_counter_increments_are_not_lost() {
        // Use the high half as a version and the low half as a counter; every
        // successful CAS must bump both consistently.
        let a = Arc::new(AtomicU128::new(0));
        let threads = 4;
        let per = 2_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let a = a.clone();
                std::thread::spawn(move || {
                    for _ in 0..per {
                        loop {
                            let cur = a.load();
                            let (lo, hi) = unpack(cur);
                            if a.compare_exchange(cur, pack(lo + 1, hi + 1)).1 {
                                break;
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (lo, hi) = unpack(a.load());
        assert_eq!(lo, (threads * per) as u64);
        assert_eq!(hi, (threads * per) as u64);
    }
}
