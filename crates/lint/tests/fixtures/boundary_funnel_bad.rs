//! Fixture: a scheme that allocates and frees around the tracked funnel
//! (linted as `crates/reclaim/src/...`; never compiled).

fn raw_node(layout: Layout) -> *mut u8 {
    let (p, tag) = orc_util::pool::alloc(layout);
    orc_util::chk_hooks::on_alloc(p as usize, layout.size());
    p
}

fn raw_free(p: *mut u8, layout: Layout, tag: PoolTag) {
    let _ = chk_hooks::on_reclaim(p as usize);
    pool::dealloc(p, layout, tag);
}
