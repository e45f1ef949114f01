//! Planted violations for the driver tests.

use std::sync::atomic::AtomicU8;
use orc_util::atomics::Ordering;

fn planted(word: &AtomicU8) {
    word.store(1, Ordering::SeqCst);
}
