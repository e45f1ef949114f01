//! The `SeqRing` battery, generic over the payload width so both live
//! instantiations — `SeqRing<4>` (orc-trace events) and `SeqRing<2>`
//! (orc-obs samples) — run it: wraparound keeps the newest `cap`
//! records, `dropped() == pushed − cap`, and readers scraping a ring
//! mid-churn never accept a torn record. `tests/trace.rs` and
//! `tests/obs.rs` check the same properties through each layer's public
//! path.

use orc_util::ring::SeqRing;
use std::sync::atomic::{AtomicBool, Ordering};

/// Record `i` of a `W`-word ring: word `w` is `i` rotated by `w`, so
/// every word determines the others and a mix of two records shows.
fn record<const W: usize>(i: u64) -> [u64; W] {
    std::array::from_fn(|w| i.rotate_left(w as u32 * 8))
}

fn wraparound_keeps_newest<const W: usize>() {
    const CAP: u64 = 8;
    let r = SeqRing::<W>::new(CAP as usize);
    assert!(r.snapshot().is_empty());
    assert_eq!((r.pushed(), r.dropped()), (0, 0));
    for i in 0..5 {
        r.push(record(i));
    }
    assert_eq!(r.snapshot().len(), 5);
    assert_eq!(r.dropped(), 0, "nothing is lost before the first lap");
    for i in 5..CAP + 12 {
        r.push(record(i));
    }
    let snap = r.snapshot();
    let want: Vec<(u64, [u64; W])> = (12..CAP + 12).map(|i| (i, record(i))).collect();
    assert_eq!(snap, want, "overwrite discards the oldest, keeps newest");
    assert_eq!(r.pushed(), CAP + 12);
    assert_eq!(r.dropped(), r.pushed() - CAP, "dropped == pushed − cap");
}

/// Three readers scrape a tiny ring while the writer laps it
/// thousands of times; any record they accept must be whole.
fn scrape_during_churn_never_tears<const W: usize>() {
    let r = SeqRing::<W>::new(8);
    let stop = AtomicBool::new(false);
    let start = std::sync::Barrier::new(4);
    std::thread::scope(|s| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    let mut seen = 0usize;
                    // `seen == 0` keeps a reader that lost the race
                    // to `stop` scraping until it has checked some.
                    while !stop.load(Ordering::Relaxed) || seen == 0 {
                        for (i, words) in r.snapshot() {
                            assert_eq!(words, record::<W>(i), "torn record {i}");
                            seen += 1;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        for i in 0..200_000 {
            r.push(record(i));
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
    });
    let whole: Vec<(u64, [u64; W])> = (200_000 - 8..200_000).map(|i| (i, record(i))).collect();
    assert_eq!(r.snapshot(), whole, "a quiescent full ring reads whole");
}

#[test]
fn wraparound_keeps_newest_w2_w4() {
    wraparound_keeps_newest::<2>();
    wraparound_keeps_newest::<4>();
}

#[test]
fn scrape_during_churn_never_tears_w2_w4() {
    scrape_during_churn_never_tears::<2>();
    scrape_during_churn_never_tears::<4>();
}

#[test]
#[should_panic(expected = "ring capacity")]
fn capacity_must_be_a_power_of_two() {
    let _ = SeqRing::<2>::new(12);
}
