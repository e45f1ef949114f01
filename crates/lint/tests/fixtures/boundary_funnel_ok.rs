//! Fixture: allocation through the funnel; the pool's names appear only
//! in prose (`pool::alloc(` is the funnel's business) and in a string.

fn node(v: u64) -> *mut Node {
    // SAFETY: `Node` is `#[repr(C)]` and starts with the block.
    unsafe { tracked::alloc(0, |block| Node { block, v }) }
}

const WHY: &str = "never call pool::dealloc( here";
