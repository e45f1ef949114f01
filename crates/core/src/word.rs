//! The `_orc` word encoding (paper Algorithm 3, lines 1–4).
//!
//! Every tracked object carries one 64-bit atomic word laid out as:
//!
//! ```text
//!   63            24 23          22                    0
//!  ┌────────────────┬────┬─────────────────────────────┐
//!  │    sequence    │ R  │   hard-link counter (+bias) │
//!  └────────────────┴────┴─────────────────────────────┘
//! ```
//!
//! * **counter** (bits 0–22, biased by `ORC_ZERO = 1<<22`): the number of
//!   hard links (references stored *in other objects*) to this object. The
//!   bias lets the counter go transiently negative — a `cas` of a non-fresh
//!   guard increments the counter only *after* the link is visible, so
//!   another thread may unlink and decrement first. (A fresh guard counts
//!   before its `cas`, with a plain store, and a `cas_moving` hands over
//!   the count of the link it moves without touching the counter.)
//! * **R = BRETIRED** (bit 23): set by the thread that observes the counter
//!   at zero and thereby claims responsibility for retiring the object.
//! * **sequence** (bits 24–63): incremented by every counter change. The
//!   retirement scan (Lemma 1) re-reads the word after traversing all
//!   hazard pointers; an unchanged sequence proves the counter stayed at
//!   zero for the whole traversal.
//!
//! Arithmetic trick: `fetch_add(SEQ + 1)` bumps counter *and* sequence;
//! adding `SEQ - 1` decrements the counter while still bumping the
//! sequence (the `+SEQ-1` carries out of the low 24 bits whenever the
//! biased counter is nonzero, which it always is within the supported
//! ±2²² link range). The un-count is a CAS from the word `x` to
//! `x + SEQ - 1`, or to `x + SEQ - 1 + BRETIRED` when that word is zero
//! and unclaimed: the decrement and the claim the paper makes with two
//! RMWs, as one.

/// One unit of the sequence field (bit 24).
pub const SEQ: u64 = 1 << 24;
/// The "retired" claim bit.
pub const BRETIRED: u64 = 1 << 23;
/// Counter bias: a word whose low 24 bits equal `ORC_ZERO` has zero hard
/// links and no retire claim.
pub const ORC_ZERO: u64 = 1 << 22;
/// Initial `_orc` value of a freshly created object.
pub const ORC_INIT: u64 = ORC_ZERO;

/// The paper's `ocnt(x)`: the low 24 bits — biased counter plus the
/// BRETIRED bit.
#[inline(always)]
pub const fn ocnt(x: u64) -> u64 {
    x & (SEQ - 1)
}

/// True if the counter is at zero with no retire claim (the state in which
/// a transition claims BRETIRED).
#[inline(always)]
pub const fn is_zero_unclaimed(x: u64) -> bool {
    ocnt(x) == ORC_ZERO
}

/// True if the counter is at zero *and* the retire claim is held — the only
/// state from which deletion may proceed (after the Lemma-1 scan).
#[inline(always)]
pub const fn is_zero_retired(x: u64) -> bool {
    ocnt(x) == (BRETIRED | ORC_ZERO)
}

/// Signed hard-link count (diagnostics / assertions).
#[inline(always)]
pub const fn link_count(x: u64) -> i64 {
    ((x & (BRETIRED - 1)) as i64) - (ORC_ZERO as i64)
}

/// Sequence field (diagnostics).
#[inline(always)]
pub const fn seq(x: u64) -> u64 {
    x >> 24
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_zero_unclaimed() {
        assert!(is_zero_unclaimed(ORC_INIT));
        assert!(!is_zero_retired(ORC_INIT));
        assert_eq!(link_count(ORC_INIT), 0);
        assert_eq!(seq(ORC_INIT), 0);
    }

    #[test]
    fn increment_bumps_counter_and_seq() {
        let w = ORC_INIT.wrapping_add(SEQ + 1);
        assert_eq!(link_count(w), 1);
        assert_eq!(seq(w), 1);
        assert!(!is_zero_unclaimed(w));
    }

    #[test]
    fn decrement_bumps_seq_too() {
        // +1 then -1: counter back at zero but sequence advanced twice.
        let w = ORC_INIT.wrapping_add(SEQ + 1).wrapping_add(SEQ - 1);
        assert_eq!(link_count(w), 0);
        assert_eq!(seq(w), 2);
        assert!(is_zero_unclaimed(w));
    }

    #[test]
    fn counter_can_go_negative() {
        // A non-fresh cas() increments after publication, so a racing
        // unlink can decrement first.
        let w = ORC_INIT.wrapping_add(SEQ - 1);
        assert_eq!(link_count(w), -1);
        assert_eq!(seq(w), 1);
        assert!(!is_zero_unclaimed(w));
        let back = w.wrapping_add(SEQ + 1);
        assert_eq!(link_count(back), 0);
        assert!(is_zero_unclaimed(back));
    }

    #[test]
    fn bretired_is_visible_in_ocnt() {
        let w = ORC_INIT | BRETIRED;
        assert!(!is_zero_unclaimed(w));
        assert!(is_zero_retired(w));
        assert_eq!(link_count(w), 0, "claim bit must not affect the count");
    }

    #[test]
    fn clearing_bretired_restores_zero_unclaimed() {
        let w = (ORC_INIT | BRETIRED).wrapping_sub(BRETIRED);
        assert!(is_zero_unclaimed(w));
    }

    #[test]
    fn deep_counts_roundtrip() {
        let mut w = ORC_INIT;
        for _ in 0..1000 {
            w = w.wrapping_add(SEQ + 1);
        }
        assert_eq!(link_count(w), 1000);
        for _ in 0..1000 {
            w = w.wrapping_add(SEQ - 1);
        }
        assert_eq!(link_count(w), 0);
        assert!(is_zero_unclaimed(w));
        assert_eq!(seq(w), 2000);
    }

    #[test]
    fn seq_wraps_without_touching_counter() {
        // Force the 40-bit sequence to wrap; counter must be unaffected.
        let near_wrap = !(SEQ - 1) | ORC_ZERO;
        let w = near_wrap.wrapping_add(SEQ + 1);
        assert_eq!(link_count(w), 1);
        assert_eq!(seq(w), 0);
    }
}
