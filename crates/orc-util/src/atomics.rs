//! The workspace atomics facade.
//!
//! Every crate in the workspace that participates in a reclamation protocol
//! (`reclaim`, `orcgc`, `structures`, and the substrate modules of this
//! crate) imports its atomic types from here instead of from
//! `std::sync::atomic`. orc-lint's `facade_bypass` rule enforces this
//! everywhere outside `crates/orc-util` (see DESIGN.md §9.1).
//!
//! * **Default build** (no `orc_check` feature): the items below are plain
//!   re-exports of `std::sync::atomic` — the facade is name-resolution only
//!   and provably costs nothing.
//! * **`orc_check` build**: the types become `#[repr(transparent)]` shims
//!   that trap every load/store/RMW/CAS into the orc-check cooperative
//!   scheduler (`crates/check`, through `chk_hooks::access`)
//!   before executing the real operation, which is how the model checker
//!   observes and serializes every shared-memory step of a protocol under
//!   test. Outside an active exploration the shims fall through to the
//!   real operation after one load of the hook table and a branch.
//!
//! [`spin_hint`] wraps `std::hint::spin_loop` and additionally acts as a
//! voluntary yield under the checker (switching away from a spinning thread
//! is not charged against the preemption bound).

/// Raises the atomic maximum `$max` to `$v` (relaxed): a plain load
/// first, the RMW only when `$v` is higher. `fetch_max` alone is a
/// `lock cmpxchg` loop on x86 that takes the line exclusive even when it
/// loses, which for a watermark is nearly every call.
#[macro_export]
macro_rules! raise_max {
    ($max:expr, $v:expr) => {{
        let (max, v) = (&$max, $v);
        if v > max.load($crate::atomics::Ordering::Relaxed) {
            max.fetch_max(v, $crate::atomics::Ordering::Relaxed);
        }
    }};
}

#[cfg(not(feature = "orc_check"))]
mod passthrough {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
    };

    /// Emits a machine spin-wait hint (`std::hint::spin_loop`).
    #[inline(always)]
    pub fn spin_hint() {
        std::hint::spin_loop();
    }
}

#[cfg(not(feature = "orc_check"))]
pub use passthrough::*;

#[cfg(feature = "orc_check")]
mod shim {
    pub use std::sync::atomic::Ordering;

    use crate::chk_hooks::{access, Acc};

    macro_rules! arith_shim {
        ($name:ident, $prim:ty) => {
            impl $name {
                #[inline]
                pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                    access(self.addr(), Acc::Rmw, "fetch_add");
                    self.inner.fetch_add(val, order)
                }

                #[inline]
                pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                    access(self.addr(), Acc::Rmw, "fetch_sub");
                    self.inner.fetch_sub(val, order)
                }

                #[inline]
                pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                    access(self.addr(), Acc::Rmw, "fetch_max");
                    self.inner.fetch_max(val, order)
                }

                #[inline]
                pub fn fetch_min(&self, val: $prim, order: Ordering) -> $prim {
                    access(self.addr(), Acc::Rmw, "fetch_min");
                    self.inner.fetch_min(val, order)
                }
            }
        };
    }

    macro_rules! int_shim {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Instrumented drop-in for the `std::sync::atomic` type of the
            /// same name; every operation is a scheduling point of the
            /// orc-check model checker when an exploration is active.
            #[repr(transparent)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                #[inline]
                pub const fn new(v: $prim) -> Self {
                    Self {
                        inner: <$std>::new(v),
                    }
                }

                #[inline]
                fn addr(&self) -> usize {
                    self as *const Self as usize
                }

                #[inline]
                pub fn load(&self, order: Ordering) -> $prim {
                    access(self.addr(), Acc::Load, "load");
                    self.inner.load(order)
                }

                #[inline]
                pub fn store(&self, val: $prim, order: Ordering) {
                    access(self.addr(), Acc::Store, "store");
                    self.inner.store(val, order)
                }

                #[inline]
                pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                    access(self.addr(), Acc::Rmw, "swap");
                    self.inner.swap(val, order)
                }

                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    access(self.addr(), Acc::Rmw, "cas");
                    self.inner.compare_exchange(current, new, success, failure)
                }

                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    access(self.addr(), Acc::Rmw, "casw");
                    self.inner
                        .compare_exchange_weak(current, new, success, failure)
                }

                #[inline]
                pub fn fetch_and(&self, val: $prim, order: Ordering) -> $prim {
                    access(self.addr(), Acc::Rmw, "fetch_and");
                    self.inner.fetch_and(val, order)
                }

                #[inline]
                pub fn fetch_or(&self, val: $prim, order: Ordering) -> $prim {
                    access(self.addr(), Acc::Rmw, "fetch_or");
                    self.inner.fetch_or(val, order)
                }

                #[inline]
                pub fn get_mut(&mut self) -> &mut $prim {
                    // Exclusive access: not a concurrency event.
                    self.inner.get_mut()
                }

                #[inline]
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }

                #[inline]
                pub fn as_ptr(&self) -> *mut $prim {
                    self.inner.as_ptr()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(Default::default())
                }
            }

            impl From<$prim> for $name {
                fn from(v: $prim) -> Self {
                    Self::new(v)
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    std::fmt::Debug::fmt(&self.inner, f)
                }
            }
        };
    }

    int_shim!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    int_shim!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    int_shim!(AtomicU8, std::sync::atomic::AtomicU8, u8);
    int_shim!(AtomicI64, std::sync::atomic::AtomicI64, i64);
    int_shim!(AtomicBool, std::sync::atomic::AtomicBool, bool);
    arith_shim!(AtomicUsize, usize);
    arith_shim!(AtomicU64, u64);
    arith_shim!(AtomicU8, u8);
    arith_shim!(AtomicI64, i64);

    /// Instrumented drop-in for `std::sync::atomic::AtomicPtr<T>`.
    #[repr(transparent)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        #[inline]
        pub const fn new(p: *mut T) -> Self {
            Self {
                inner: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        #[inline]
        fn addr(&self) -> usize {
            self as *const Self as usize
        }

        #[inline]
        pub fn load(&self, order: Ordering) -> *mut T {
            access(self.addr(), Acc::Load, "load");
            self.inner.load(order)
        }

        #[inline]
        pub fn store(&self, p: *mut T, order: Ordering) {
            access(self.addr(), Acc::Store, "store");
            self.inner.store(p, order)
        }

        #[inline]
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            access(self.addr(), Acc::Rmw, "swap");
            self.inner.swap(p, order)
        }

        #[inline]
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            access(self.addr(), Acc::Rmw, "cas");
            self.inner.compare_exchange(current, new, success, failure)
        }

        #[inline]
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            access(self.addr(), Acc::Rmw, "casw");
            self.inner
                .compare_exchange_weak(current, new, success, failure)
        }

        #[inline]
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.inner.get_mut()
        }

        #[inline]
        pub fn into_inner(self) -> *mut T {
            self.inner.into_inner()
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self::new(std::ptr::null_mut())
        }
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            std::fmt::Debug::fmt(&self.inner, f)
        }
    }

    /// Instrumented memory fence: a scheduling point with no address.
    #[inline]
    pub fn fence(order: Ordering) {
        access(0, Acc::Fence, "fence");
        std::sync::atomic::fence(order)
    }

    /// Spin-wait hint; under the checker this is a voluntary yield (the
    /// scheduler prefers switching away, free of preemption-bound charge).
    #[inline]
    pub fn spin_hint() {
        access(0, Acc::SpinHint, "spin");
        std::hint::spin_loop();
    }
}

#[cfg(feature = "orc_check")]
pub use shim::*;

#[cfg(test)]
mod tests {
    use super::*;

    // Facade equivalence smoke: this module compiles and behaves identically
    // whether or not `orc_check` is enabled (crates/check runs the same
    // assertions with the feature on; `cargo test -p orc-util` runs them
    // with it off).
    #[test]
    fn single_threaded_op_sequence_matches_std() {
        let a = AtomicUsize::new(5);
        assert_eq!(a.load(Ordering::SeqCst), 5);
        a.store(7, Ordering::SeqCst);
        assert_eq!(a.swap(9, Ordering::SeqCst), 7);
        assert_eq!(a.fetch_add(1, Ordering::SeqCst), 9);
        assert_eq!(a.fetch_sub(2, Ordering::SeqCst), 10);
        assert_eq!(a.fetch_max(100, Ordering::SeqCst), 8);
        assert_eq!(
            a.compare_exchange(100, 3, Ordering::SeqCst, Ordering::SeqCst),
            Ok(100)
        );
        assert_eq!(
            a.compare_exchange(100, 4, Ordering::SeqCst, Ordering::SeqCst),
            Err(3)
        );
        let b = AtomicBool::new(false);
        assert!(!b.swap(true, Ordering::SeqCst));
        let p = AtomicPtr::new(std::ptr::null_mut::<u32>());
        assert!(p.load(Ordering::SeqCst).is_null());
        fence(Ordering::SeqCst);
        spin_hint();
        let mut c = AtomicI64::new(-1);
        *c.get_mut() += 1;
        assert_eq!(c.into_inner(), 0);
    }

    #[test]
    fn atomic_ptr_word_cast_is_sound() {
        // The schemes view `AtomicPtr<T>` as `AtomicUsize` (see
        // `reclaim::as_word`); both facade variants must keep the types
        // transparent over the std representation.
        assert_eq!(
            std::mem::size_of::<AtomicPtr<u64>>(),
            std::mem::size_of::<AtomicUsize>()
        );
        assert_eq!(
            std::mem::align_of::<AtomicPtr<u64>>(),
            std::mem::align_of::<AtomicUsize>()
        );
        let x = 0xBEEFusize as *mut u64;
        let p = AtomicPtr::new(x);
        // SAFETY: the layout assertions above establish identical size and
        // alignment; both types are a single atomic word.
        let w: &AtomicUsize = unsafe { &*(&p as *const AtomicPtr<u64> as *const AtomicUsize) };
        assert_eq!(w.load(Ordering::SeqCst), x as usize);
    }
}
