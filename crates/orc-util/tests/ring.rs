//! The `SeqRing` battery, generic over the payload width so both live
//! instantiations — `SeqRing<4>` (orc-trace events) and `SeqRing<2>`
//! (orc-obs samples) — run it: wraparound keeps the newest `cap`
//! records, `dropped() == pushed − cap`, and readers scraping a ring
//! mid-churn never accept a torn record. Each battery runs on a ring
//! that owns its memory (`SeqRing::new`, as orc-obs's) and on the middle
//! ring of a zeroed `RingSlab` (as orc-trace's per-tid rings), whose
//! neighbours must stay empty. `tests/trace.rs` and `tests/obs.rs` check
//! the same properties through each layer's public path.

use orc_util::ring::{RingSlab, SeqRing};
use std::sync::atomic::{AtomicBool, Ordering};

/// Runs `battery` on ring 1 of a 3-ring slab, then checks that rings 0
/// and 2 were never written.
fn on_slab<const W: usize>(battery: fn(&SeqRing<W>)) {
    let slab = RingSlab::<W, 3>::zeroed(CAP as usize);
    battery(slab.get(1).unwrap());
    assert!(slab.get(3).is_none());
    for i in [0, 2] {
        let r = slab.get(i).unwrap();
        assert_eq!((r.pushed(), r.snapshot().len()), (0, 0), "neighbour {i}");
    }
}

/// Record `i` of a `W`-word ring: word `w` is `i` rotated by `w`, so
/// every word determines the others and a mix of two records shows.
fn record<const W: usize>(i: u64) -> [u64; W] {
    std::array::from_fn(|w| i.rotate_left(w as u32 * 8))
}

const CAP: u64 = 8;

fn wraparound_keeps_newest<const W: usize>(r: &SeqRing<W>) {
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
fn scrape_during_churn_never_tears<const W: usize>(r: &SeqRing<W>) {
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
    let whole: Vec<(u64, [u64; W])> = (200_000 - CAP..200_000).map(|i| (i, record(i))).collect();
    assert_eq!(r.snapshot(), whole, "a quiescent full ring reads whole");
}

#[test]
fn wraparound_keeps_newest_w2_w4() {
    wraparound_keeps_newest::<2>(&SeqRing::new(CAP as usize));
    wraparound_keeps_newest::<4>(&SeqRing::new(CAP as usize));
}

#[test]
fn scrape_during_churn_never_tears_w2_w4() {
    scrape_during_churn_never_tears::<2>(&SeqRing::new(CAP as usize));
    scrape_during_churn_never_tears::<4>(&SeqRing::new(CAP as usize));
}

#[test]
fn wraparound_keeps_newest_on_a_slab_w2_w4() {
    on_slab::<2>(wraparound_keeps_newest);
    on_slab::<4>(wraparound_keeps_newest);
}

#[test]
fn scrape_during_churn_never_tears_on_a_slab_w2_w4() {
    on_slab::<2>(scrape_during_churn_never_tears);
    on_slab::<4>(scrape_during_churn_never_tears);
}

#[test]
#[should_panic(expected = "ring capacity")]
fn capacity_must_be_a_power_of_two() {
    let _ = SeqRing::<2>::new(12);
}

/// A capacity whose word count overflows is refused, not allocated short.
#[test]
#[should_panic(expected = "ring fits in memory")]
fn an_overflowing_ring_is_refused() {
    let _ = SeqRing::<3>::new(1 << 62);
}

#[test]
#[should_panic(expected = "ring slab fits in memory")]
fn an_overflowing_slab_is_refused() {
    let _ = RingSlab::<4, 2>::zeroed(1 << 61);
}
