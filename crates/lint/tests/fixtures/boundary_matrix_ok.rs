//! Fixture: announcements published into the one matrix. A comment may
//! still say `[AtomicUsize; H]`.

struct Pins {
    local: Slots<1>,
    count: AtomicUsize,
}
