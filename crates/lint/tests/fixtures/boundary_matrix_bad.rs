//! Fixture: two per-thread announcement arrays of a scheme's own
//! (linted as `crates/reclaim/src/...`).

struct Pins {
    local: Box<[CachePadded<AtomicU64>]>,
    hazards: Box<[CachePadded<[AtomicUsize; 4]>]>,
}
