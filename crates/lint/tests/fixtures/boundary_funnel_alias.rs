//! Fixture: the funnel bypass a call-site grep misses — the pool's
//! allocator imported under another name.

use orc_util::pool::alloc as a;

fn raw_node(layout: Layout) -> *mut u8 {
    a(layout).0
}
