//! orc-pool: type-segregated, per-thread slab allocation for tracked
//! objects.
//!
//! Every reclamation scheme in this workspace allocates and frees nodes
//! through one funnel, [`crate::tracked`] (called by `SmrBox::alloc`
//! in crates/reclaim and `OrcHeader::alloc` in crates/core). Before this
//! module existed, node allocation round-tripped the global allocator, so
//! the retire path was malloc-bound rather than CAS-bound. This pool makes node turnover proportional to protocol
//! work instead:
//!
//! * **Size classes** — a ×1.5 ladder ([`SLOT_SIZES`]: 64, 96, 128, 192,
//!   … [`MAX_SLOT`]) rather than pure powers of two, keeping worst-case
//!   internal fragmentation near 33% instead of 100% — node footprint is
//!   what read-path cache behaviour lives and dies on. A request is
//!   served from the smallest class whose slot covers its size *and*
//!   whose slot stride guarantees its alignment; anything larger falls
//!   through to the global allocator (tagged [`TAG_GLOBAL`] so `dealloc`
//!   routes it back).
//! * **Per-thread free lists** — each thread owns one intrusive LIFO free
//!   list per class (the link lives in the first word of the free slot).
//!   Alloc and same-thread free are plain pointer pushes/pops: no atomics,
//!   no locks, no allocator call.
//! * **Pages with bump carving** — when a local list runs dry the thread
//!   grabs a fresh page (~[`PAGE_TARGET`] bytes, aligned so every
//!   slot-stride offset satisfies the class's alignment guarantee) and
//!   hands slots out by *bumping a cursor*: fresh slots are touched once,
//!   in address order, exactly like a bump allocator — no upfront pass
//!   linking the whole page into a list. Only slots that have actually
//!   been freed ever sit on a free list. Pages are type-stable: they are
//!   never returned to the OS.
//! * **Thread-cached frees** — a free lands on the *freeing* thread's
//!   own list for the class, whichever thread allocated the slot
//!   (glibc-/tcmalloc-style thread caching: a churning thread
//!   immediately reuses the cache-hot slots it just freed, and a
//!   reader/writer split doesn't strand every freed slot on an idle
//!   owner). A thread that frees before it ever allocates gets its pool
//!   state on that first free.
//! * **One spillway** — the only way a slot leaves a thread's cache is a
//!   sealed segment of at most `SPILL_CHUNK` slots, CAS-pushed onto a
//!   global per-class stack (`OVERFLOW`); the only way one comes back is
//!   a refill adopting such a segment (a *batch refill*,
//!   [`crate::trace::EventKind::PoolRefill`]). Local lists are capped
//!   (`LIST_CAP`) and spill their excess there, which bounds memory when
//!   one thread frees what another allocates (producer/consumer); an
//!   exiting thread parks its whole cache there, so any thread can reuse
//!   it. Free bursts are lazily address-sorted so structure prefills
//!   land dense again — see `sort_free_list`.
//!
//! # Interaction with orc-check and poisoning
//!
//! The pool sits *below* the reclamation funnel,
//! [`crate::tracked::destroy`], which consults
//! [`crate::chk_hooks::on_reclaim`] first. A `Quarantine`
//! verdict (model runs, flagged use-after-reclaim) means the funnel never
//! calls [`dealloc`]: the slot is leaked, never recycled, so a poisoned address
//! stays poisoned and the shadow-heap oracles keep firing on real bugs.
//! Within one model execution every reclaim is quarantined, so the pool
//! can never hand the same address out twice inside an exploration.
//!
//! # Accounting contract
//!
//! [`alloc`] and [`dealloc`] are the only place in the workspace an
//! allocation or a free is counted — both arms: pooled slots and the
//! global-allocator fallthrough (oversize, `ORC_POOL=0`, TLS down). Each
//! event lands on the *acting* thread's own per-tid shard, together with
//! its accounted bytes ([`slot_bytes`]: the slot size for a pooled block,
//! the exact layout size otherwise). A shard is **single-writer**: only
//! the thread holding the tid — it exists as that thread's pool TLS, torn
//! down before the registry releases the tid — ever writes it, so the
//! hot-path bumps are a plain load + store on a line nobody else writes.
//! A thread past TLS teardown has no pool TLS and counts on one
//! process-wide fallback cell instead. An object allocated on one thread
//! and freed on another therefore leaves `+1` on one cell and `−1` on
//! another; only sums over all cells — [`snapshot`], and
//! `orc_util::track`, which is a view of the same cells — are ledgers.
//! Page grants are *pool capacity*, not live objects: visible through
//! [`snapshot`] (`pages`/`page_bytes`) only.
//!
//! # Kill switch
//!
//! `ORC_POOL=0` disables the pool for the life of the process
//! ([`crate::switch`]) — the funnel then uses the global allocator
//! exactly as before (the tag is [`TAG_GLOBAL`]), which CI exercises to
//! keep that path tested.

// `std` atomics, not the facade: the pool's spillway and counters are
// allocator plumbing, not protocol state (DESIGN.md §9.1).
use std::alloc::Layout;
use std::cell::RefCell;
use std::ptr::null_mut;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};

use crate::registry;
use crate::switch::Switch;
use crate::trace;
use crate::CachePadded;

/// Slot sizes of the classes: a ×1.5 ladder (alternating ×1.5 / ×1.33)
/// so a node just past a power of two wastes ~33% at worst, not ~100%.
/// Every entry is a multiple of its largest power-of-two divisor (its
/// *stride alignment*, [`class_align`]), which is what slots carved at
/// this stride can guarantee.
pub const SLOT_SIZES: [usize; 15] = [
    64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192,
];
/// Smallest slot: one cache line, so distinct nodes never share a line.
pub const MIN_SLOT: usize = SLOT_SIZES[0];
/// Number of size classes.
pub const NUM_CLASSES: usize = SLOT_SIZES.len();
/// Largest pooled slot; bigger requests use the global allocator.
pub const MAX_SLOT: usize = SLOT_SIZES[NUM_CLASSES - 1];
/// Target page size a refill carves into slots (min 8 slots per page).
pub const PAGE_TARGET: usize = 64 * 1024;
const MIN_SLOTS_PER_PAGE: usize = 8;

/// Per-allocation routing tag. [`crate::tracked::alloc`] stores it in the
/// object's block and hands it back to [`dealloc`]: the size class plus
/// one, or 0 for "global allocator" ([`TAG_GLOBAL`]).
pub type PoolTag = u16;

/// Tag of an allocation served by the global allocator (pool disabled,
/// oversized layout, or allocating thread past TLS teardown).
pub const TAG_GLOBAL: PoolTag = 0;

#[inline]
fn tag_of(class: usize) -> PoolTag {
    class as PoolTag + 1
}

/// Slot size of a class index.
#[inline]
pub const fn class_slot_size(class: usize) -> usize {
    SLOT_SIZES[class]
}

/// Alignment every slot of `class` is guaranteed to satisfy: the largest
/// power of two dividing the slot size. Pages are allocated with this
/// alignment, so base + k·slot stays a multiple of it for every slot.
#[inline]
pub const fn class_align(class: usize) -> usize {
    let slot = SLOT_SIZES[class];
    1 << slot.trailing_zeros()
}

/// The size class serving `layout`, or `None` when it must go to the
/// global allocator: the smallest class whose slot holds `size` bytes
/// *and* whose stride alignment covers `align`. High-alignment requests
/// skip the non-power-of-two classes (a 96-byte stride only guarantees
/// 32-byte alignment) and land on a power-of-two class instead.
#[inline]
pub fn class_of(layout: Layout) -> Option<usize> {
    let (size, align) = (layout.size(), layout.align());
    if size > MAX_SLOT || align > MAX_SLOT {
        return None;
    }
    let mut c = 0;
    while c < NUM_CLASSES {
        if SLOT_SIZES[c] >= size && class_align(c) >= align {
            return Some(c);
        }
        c += 1;
    }
    None
}

/// Bytes an allocation with this `(layout, tag)` pair occupies — the slot
/// size for pooled allocations, the exact layout size otherwise. This is
/// the number [`alloc`] adds to and [`dealloc`] subtracts from the
/// live-bytes ledger, keeping it exact under pooling.
#[inline]
pub fn slot_bytes(layout: Layout, tag: PoolTag) -> usize {
    match tag {
        TAG_GLOBAL => layout.size(),
        code => class_slot_size(code as usize - 1),
    }
}

/// True when `tag` routes through the pool (not the global allocator).
#[inline]
pub fn is_pooled(tag: PoolTag) -> bool {
    tag != TAG_GLOBAL
}

static SWITCH: Switch = Switch::new("ORC_POOL");

/// Whether pooling is on (the `ORC_POOL` [`Switch`]).
#[inline]
pub fn enabled() -> bool {
    SWITCH.enabled()
}

// ---------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------

/// One counter cell. `SHARDS[tid]` is written only by the thread holding
/// `tid` (see the accounting contract above); [`FALLBACK`] is shared.
struct Shard {
    slot_allocs: AtomicU64,
    slot_frees: AtomicU64,
    remote_frees: AtomicU64,
    refills: AtomicU64,
    refill_slots: AtomicU64,
    /// Global-allocator arm: blocks handed out / taken back.
    global_allocs: AtomicU64,
    global_frees: AtomicU64,
    /// Accounted bytes ([`slot_bytes`]) allocated minus freed through this
    /// cell, wrapping: a cell that mostly frees goes "negative", and only
    /// the sum over all cells is a byte count.
    net_bytes: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SHARD: CachePadded<Shard> = {
    const Z: AtomicU64 = AtomicU64::new(0);
    CachePadded::new(Shard {
        slot_allocs: Z,
        slot_frees: Z,
        remote_frees: Z,
        refills: Z,
        refill_slots: Z,
        global_allocs: Z,
        global_frees: Z,
        net_bytes: Z,
    })
};

static SHARDS: [CachePadded<Shard>; registry::MAX_THREADS] = [EMPTY_SHARD; registry::MAX_THREADS];

/// The cell of threads that hold no shard: past TLS teardown, so they
/// have no pool state and no tid. Multi-writer, so it alone is updated
/// with `fetch_add`.
static FALLBACK: CachePadded<Shard> = EMPTY_SHARD;

/// `c += n` on a counter of the calling thread's **own** shard. Single
/// writer, so a load + store replaces the locked RMW; readers on other
/// threads see a slightly stale value, exactly as with a relaxed
/// `fetch_add`, and the registry's Release/Acquire tid handoff orders a
/// predecessor's last store before its successor's first load.
#[inline]
fn bump(c: &AtomicU64, n: u64) {
    c.store(c.load(Ordering::Relaxed).wrapping_add(n), Ordering::Relaxed);
}

/// Counts one global-arm alloc or free (`counter` picks which) and its
/// byte delta on the calling thread's cell: its own shard when it has
/// one, else [`FALLBACK`].
#[inline]
fn note_global(own: Option<usize>, counter: fn(&Shard) -> &AtomicU64, byte_delta: u64) {
    match own {
        Some(tid) => {
            bump(counter(&SHARDS[tid]), 1);
            bump(&SHARDS[tid].net_bytes, byte_delta);
        }
        None => {
            counter(&FALLBACK).fetch_add(1, Ordering::Relaxed);
            FALLBACK.net_bytes.fetch_add(byte_delta, Ordering::Relaxed);
        }
    }
}

// Slow-path counters (page carving, thread-exit flushes) — rare enough
// that shared cache lines cost nothing.
static PAGES: AtomicU64 = AtomicU64::new(0);
static PAGE_BYTES: AtomicU64 = AtomicU64::new(0);
static ORPHANED_SLOTS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time copy of the pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Pages carved from the global allocator (never returned).
    pub pages: u64,
    /// Total bytes in those pages.
    pub page_bytes: u64,
    /// Slots handed out by the pool.
    pub slot_allocs: u64,
    /// Slots returned to the pool.
    pub slot_frees: u64,
    /// Subset of `slot_frees` made with no pool state (past TLS
    /// teardown), each parked on the spillway as a one-slot segment.
    pub remote_frees: u64,
    /// Batch refills of a local list (spillway segment or fresh page).
    pub refills: u64,
    /// Slots gained across all refills.
    pub refill_slots: u64,
    /// Allocations that bypassed the pool (oversize / disabled / TLS down).
    pub oversize_allocs: u64,
    /// Free slots parked on the spillway by exiting threads.
    pub orphaned_slots: u64,
}

impl PoolSnapshot {
    /// Slots currently handed out and not yet returned. In a quiescent,
    /// leak-free section this returns to its pre-section value — the
    /// torture harness asserts exactly that at every cell teardown.
    pub fn live_slots(&self) -> i64 {
        self.slot_allocs as i64 - self.slot_frees as i64
    }

    /// Field-wise difference (`self - base`), for scoped deltas.
    pub fn since(&self, base: &PoolSnapshot) -> PoolSnapshot {
        PoolSnapshot {
            pages: self.pages - base.pages,
            page_bytes: self.page_bytes - base.page_bytes,
            slot_allocs: self.slot_allocs - base.slot_allocs,
            slot_frees: self.slot_frees - base.slot_frees,
            remote_frees: self.remote_frees - base.remote_frees,
            refills: self.refills - base.refills,
            refill_slots: self.refill_slots - base.refill_slots,
            oversize_allocs: self.oversize_allocs - base.oversize_allocs,
            orphaned_slots: self.orphaned_slots - base.orphaned_slots,
        }
    }
}

fn cells() -> impl Iterator<Item = &'static Shard> {
    SHARDS.iter().chain([&FALLBACK]).map(|c| &**c)
}

/// Sums every counter cell and the slow-path counters.
pub fn snapshot() -> PoolSnapshot {
    let mut s = PoolSnapshot {
        pages: PAGES.load(Ordering::Relaxed),
        page_bytes: PAGE_BYTES.load(Ordering::Relaxed),
        orphaned_slots: ORPHANED_SLOTS.load(Ordering::Relaxed),
        ..PoolSnapshot::default()
    };
    for cell in cells() {
        s.slot_allocs += cell.slot_allocs.load(Ordering::Relaxed);
        s.slot_frees += cell.slot_frees.load(Ordering::Relaxed);
        s.remote_frees += cell.remote_frees.load(Ordering::Relaxed);
        s.refills += cell.refills.load(Ordering::Relaxed);
        s.refill_slots += cell.refill_slots.load(Ordering::Relaxed);
        s.oversize_allocs += cell.global_allocs.load(Ordering::Relaxed);
    }
    s
}

/// The allocation ledger `orc_util::track` presents: `(allocs, frees,
/// net accounted bytes)` over both arms — summed over every cell, or,
/// with `own_thread`, the calling thread's own shard alone (claiming its
/// tid if it has none yet, so a later delta is taken against the shard
/// the thread will actually write; zeros past TLS teardown).
pub(crate) fn ledger(own_thread: bool) -> (u64, u64, i64) {
    let read = |c: &Shard| {
        (
            c.slot_allocs.load(Ordering::Relaxed) + c.global_allocs.load(Ordering::Relaxed),
            c.slot_frees.load(Ordering::Relaxed) + c.global_frees.load(Ordering::Relaxed),
            c.net_bytes.load(Ordering::Relaxed),
        )
    };
    let (allocs, frees, bytes) = if own_thread {
        with_local(|l| read(&SHARDS[l.tid])).unwrap_or_default()
    } else {
        cells().map(read).fold((0, 0, 0u64), |a, c| {
            (a.0 + c.0, a.1 + c.1, a.2.wrapping_add(c.2))
        })
    };
    (allocs, frees, bytes as i64)
}

// ---------------------------------------------------------------------
// Per-thread state.
// ---------------------------------------------------------------------

struct LocalClass {
    /// Intrusive LIFO free list; the link is the first word of each slot.
    /// Only slots that have actually been freed are ever on it.
    head: *mut u8,
    count: usize,
    /// Bump cursor into the newest page: fresh slots are handed out in
    /// address order without ever being linked, so a page is touched
    /// once per slot, not once to carve plus once to pop.
    bump: *mut u8,
    bump_end: *mut u8,
    /// List length at the last address sort, troughed down as slots pop.
    /// When `count` outgrows it by [`SORT_BURST`], a burst of frees (a
    /// structure teardown) has landed since we last handed slots out, and
    /// the next alloc re-sorts the list — see [`sort_free_list`].
    sorted_floor: usize,
    /// Thread-owned chain of adopted [`OVERFLOW`] segments (linked by
    /// their second word), drained one segment per refill without
    /// touching the shared stack again.
    seg_cache: *mut u8,
}

/// Free-list growth beyond the sorted floor that triggers an address
/// sort on the next alloc. Large enough that steady-state churn (whose
/// list length oscillates by the reclamation batch size, tens of slots)
/// never sorts; small enough that a structure teardown always does.
const SORT_BURST: usize = 1024;

/// Local free lists are capped near this length; the excess spills to
/// the global per-class segment stack ([`OVERFLOW`]) in fixed
/// [`SPILL_CHUNK`]-slot segments. The cap bounds the worst-case
/// [`sort_free_list`] to ~`LIST_CAP` slots (a leaky workload can
/// otherwise tear down millions of slots at once and a full sort would
/// dwarf the work it saves), and the shared spillway is what bounds
/// footprint under asymmetric free traffic: with frees thread-cached,
/// a consumer thread's overflow must become adoptable by the producer
/// or the producer would carve fresh pages forever.
const LIST_CAP: usize = 16 * 1024;

/// Most slots in one spillway segment. Spilling walks this many
/// (cache-hot, just-freed) links once per `SPILL_CHUNK` frees — O(1)
/// amortized — and adoption walks a segment once, in the sort that
/// restores its address order.
const SPILL_CHUNK: usize = 1024;

/// Global per-class stack of sealed free-list segments: the one channel
/// slots take between threads. Each segment head uses its first word for
/// the intra-segment chain (the ordinary free-list link) and its second
/// word for the next segment — every slot is at least [`MIN_SLOT`] = 64
/// bytes, so both words fit. Pushes are CAS; consumers `swap` the whole
/// stack into their thread-owned segment cache, so the stack is
/// push-only from outside and nothing ever dereferences a node it might
/// have lost a pop race for (no ABA).
///
/// It carries a capped list's overflow (with frees thread-cached, the
/// only way a consumer thread's surplus reaches the producer that keeps
/// allocating), an exiting thread's whole cache, and the rare free made
/// with no pool state at all. Adoption re-sorts each segment so the
/// scatter of a foreign teardown doesn't leak into the adopter's layout.
static OVERFLOW: [CachePadded<AtomicPtr<u8>>; NUM_CLASSES] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const H: CachePadded<AtomicPtr<u8>> = CachePadded::new(AtomicPtr::new(null_mut()));
    [H; NUM_CLASSES]
};

/// A thread's pool state. It exists only while the thread holds `tid`:
/// the registry tears it down ([`thread_exit`]) before releasing the tid,
/// which is what makes `SHARDS[tid]` single-writer.
struct LocalPools {
    tid: usize,
    classes: [LocalClass; NUM_CLASSES],
}

impl LocalPools {
    fn new(tid: usize) -> Self {
        LocalPools {
            tid,
            classes: std::array::from_fn(|_| LocalClass {
                head: null_mut(),
                count: 0,
                bump: null_mut(),
                bump_end: null_mut(),
                sorted_floor: 0,
                seg_cache: null_mut(),
            }),
        }
    }
}

impl Drop for LocalPools {
    /// Thread exit: seal every local free list into segments on the
    /// spillway, so any thread's next refill can reuse the slots instead
    /// of them being stranded in dead TLS.
    fn drop(&mut self) {
        for (class, c) in self.classes.iter_mut().enumerate() {
            // Link the unconsumed tail of the bump region onto the free
            // list first (rare path — only a dying thread pays it), so
            // the segments park everything this thread still holds.
            let slot = class_slot_size(class);
            while c.bump < c.bump_end {
                // SAFETY: `[bump, bump_end)` is an unhanded-out suffix of
                // a page this thread exclusively owns; writing the link
                // word of the next `slot`-sized chunk is in-bounds.
                unsafe {
                    c.bump.cast::<*mut u8>().write(c.head);
                    c.head = c.bump;
                    c.bump = c.bump.add(slot);
                }
                c.count += 1;
            }
            if c.count > 0 {
                ORPHANED_SLOTS.fetch_add(c.count as u64, Ordering::Relaxed);
                crate::trace_event_at!(
                    self.tid,
                    trace::EventKind::PoolRemoteFree,
                    c.count as u64,
                    class as u64
                );
            }
            while c.count > 0 {
                spill(c, class);
            }
            // Unconsumed adopted segments are already sealed: one push
            // each.
            while !c.seg_cache.is_null() {
                let seg = c.seg_cache;
                // SAFETY: this thread owns the chain; the second word of
                // each segment head is the next segment.
                c.seg_cache = unsafe { seg.add(size_of::<usize>()).cast::<*mut u8>().read() };
                push_segment(class, seg);
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Option<LocalPools>> = const { RefCell::new(None) };
}

/// Runs `f` on the calling thread's pool state, creating it (and claiming
/// a registry tid) on first use. `None` once either TLS is torn down.
#[inline]
fn with_local<R>(f: impl FnOnce(&mut LocalPools) -> R) -> Option<R> {
    LOCAL
        .try_with(|cell| {
            let mut slot = cell.borrow_mut();
            if slot.is_none() {
                first_use(&mut slot);
            }
            slot.as_mut().map(f)
        })
        .ok()
        .flatten()
}

/// Builds the calling thread's pool state on its first alloc or free,
/// leaving `None` when the registry's thread-local is already torn down.
/// Out of line, so the alloc and free fast paths carry only a cold call.
#[cold]
#[inline(never)]
fn first_use(slot: &mut Option<LocalPools>) {
    *slot = registry::try_tid().map(LocalPools::new);
}

/// Flushes and drops the calling thread's pool state. The registry calls
/// this after the thread's exit callbacks and exit drain and *before* it
/// releases the tid, so no [`LocalPools`] — hence no shard writer —
/// outlives its tid.
pub(crate) fn thread_exit() {
    let local = LOCAL.try_with(|cell| cell.borrow_mut().take());
    drop(local);
}

// ---------------------------------------------------------------------
// Alloc / dealloc.
// ---------------------------------------------------------------------

/// Allocates memory for `layout`. Returns the pointer and the
/// [`PoolTag`] the caller must retain and hand back to [`dealloc`].
///
/// Served from the calling thread's free list when the pool is enabled
/// and the layout fits a class; otherwise from the global allocator
/// (tag [`TAG_GLOBAL`]). Never returns null (aborts on OOM, like `Box`).
#[inline]
pub fn alloc(layout: Layout) -> (*mut u8, PoolTag) {
    let class = if enabled() { class_of(layout) } else { None };
    with_local(|l| match class {
        Some(class) => local_alloc(l, class),
        None => global_alloc(layout, Some(l.tid)),
    })
    .unwrap_or_else(|| global_alloc(layout, None))
}

/// The global-allocator arm of [`alloc`], counted on shard `own` (the
/// caller's) or, with no pool TLS, on [`FALLBACK`].
fn global_alloc(layout: Layout, own: Option<usize>) -> (*mut u8, PoolTag) {
    note_global(own, |c| &c.global_allocs, layout.size() as u64);
    // SAFETY: all layouts reaching the funnel have nonzero size (they
    // always contain a tracked block).
    let ptr = unsafe { std::alloc::alloc(layout) };
    if ptr.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    (ptr, TAG_GLOBAL)
}

#[inline]
fn local_alloc(l: &mut LocalPools, class: usize) -> (*mut u8, PoolTag) {
    let tid = l.tid;
    let c = &mut l.classes[class];
    let ptr = if !c.head.is_null() {
        if c.count > c.sorted_floor + SORT_BURST {
            sort_free_list(c);
        }
        let p = c.head;
        // SAFETY: `p` is the head of this thread's free list; its first
        // word is the next link.
        c.head = unsafe { p.cast::<*mut u8>().read() };
        c.count -= 1;
        c.sorted_floor = c.sorted_floor.min(c.count);
        p
    } else if c.bump < c.bump_end {
        let p = c.bump;
        // SAFETY: `bump < bump_end` means at least one whole slot is
        // left in the page; advancing by one slot stays ≤ `bump_end`.
        c.bump = unsafe { p.add(class_slot_size(class)) };
        p
    } else {
        refill(tid, c, class)
    };
    bump(&SHARDS[tid].slot_allocs, 1);
    bump(&SHARDS[tid].net_bytes, class_slot_size(class) as u64);
    (ptr, tag_of(class))
}

/// Out-of-slots path: adopt one spillway segment — from the thread-owned
/// segment cache, restocked by one `swap` of [`OVERFLOW`] — else grab a
/// fresh page and start bump-carving it. Either way, returns one slot for
/// the caller (never null; aborts on OOM).
#[cold]
fn refill(tid: usize, c: &mut LocalClass, class: usize) -> *mut u8 {
    debug_assert!(c.head.is_null() && c.bump >= c.bump_end);
    if c.seg_cache.is_null() {
        // Acquire pairs with the Release pushes: the adopting thread sees
        // every link write (and the freeing threads' final writes into
        // the slots) before reusing them.
        c.seg_cache = OVERFLOW[class].swap(null_mut(), Ordering::Acquire);
    }
    if !c.seg_cache.is_null() {
        let seg = c.seg_cache;
        // SAFETY: this thread owns the cached segment chain; the head
        // slot's second word is the next segment, its first word the
        // intra-segment free list.
        unsafe {
            c.seg_cache = seg.add(size_of::<usize>()).cast::<*mut u8>().read();
        }
        // Segments preserve spill (teardown) order; sorting one — which
        // also counts it, at most `SPILL_CHUNK` links — sends reuse out
        // ascending at a cost bounded per adoption.
        c.head = seg;
        sort_free_list(c);
        let n = c.count;
        let p = c.head;
        // SAFETY: a sealed segment holds at least one slot, so the
        // sorted head is non-null and its first word is the next link.
        c.head = unsafe { p.cast::<*mut u8>().read() };
        c.count -= 1;
        c.sorted_floor = c.count;
        note_refill(tid, class, n);
        return p;
    }

    let slot = class_slot_size(class);
    let slots = (PAGE_TARGET / slot).max(MIN_SLOTS_PER_PAGE);
    let bytes = slot * slots;
    let layout = Layout::from_size_align(bytes, class_align(class)).expect("valid page layout");
    // SAFETY: `layout` has nonzero size. The page base is aligned to the
    // class's stride alignment and the stride is a multiple of it, so
    // every slot offset satisfies any alignment this class guarantees.
    let page = unsafe { std::alloc::alloc(layout) };
    if page.is_null() {
        std::alloc::handle_alloc_error(layout);
    }
    // No carving pass: the page becomes the bump region and slots are
    // handed out cursor-style, touched for the first time by their user.
    // SAFETY: `slot` and `bytes` are in-bounds offsets of the page.
    unsafe {
        c.bump = page.add(slot);
        c.bump_end = page.add(bytes);
    }
    PAGES.fetch_add(1, Ordering::Relaxed);
    PAGE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    note_refill(tid, class, slots);
    page
}

/// Seals the newest (at most [`SPILL_CHUNK`]) slots of a non-empty local
/// list into a segment and parks it on the global per-class spillway.
/// On the free path the walk touches only just-freed (cache-hot) links,
/// once per `SPILL_CHUNK` frees; an exiting thread calls it until its
/// list is empty.
#[cold]
fn spill(c: &mut LocalClass, class: usize) {
    debug_assert!(c.count >= 1);
    let n = c.count.min(SPILL_CHUNK);
    let seg = c.head;
    let mut cut = seg;
    for _ in 1..n {
        // SAFETY: the local list holds `count` ≥ `n` nodes; each node's
        // first word is the next link.
        cut = unsafe { cut.cast::<*mut u8>().read() };
    }
    // SAFETY: `cut` is the segment's last node; reading its link yields
    // the retained remainder, and null-terminating it seals the segment
    // so an adopter never walks into this thread's retained list.
    unsafe {
        c.head = cut.cast::<*mut u8>().read();
        cut.cast::<*mut u8>().write(null_mut());
    }
    c.count -= n;
    c.sorted_floor = c.sorted_floor.min(c.count);
    push_segment(class, seg);
}

/// Lock-free push of a sealed segment onto [`OVERFLOW`]`[class]`; the
/// segment-next lives in the head slot's second word.
fn push_segment(class: usize, seg: *mut u8) {
    let stack = &OVERFLOW[class];
    let mut cur = stack.load(Ordering::Relaxed);
    loop {
        // SAFETY: `seg` is a free slot this thread exclusively holds
        // until the CAS publishes it; its second word (in-bounds: every
        // slot is ≥ 2 words) is the segment link.
        unsafe { seg.add(size_of::<usize>()).cast::<*mut u8>().write(cur) };
        match stack.compare_exchange_weak(cur, seg, Ordering::Release, Ordering::Relaxed) {
            Ok(_) => return,
            Err(now) => cur = now,
        }
    }
}

/// Restores address order to a free list after a burst of frees.
///
/// A structure teardown dumps thousands of slots onto the LIFO list in
/// whatever order the teardown walked them; the next structure's prefill
/// would then scatter logically-adjacent nodes across every page the
/// class ever carved, and traversal-bound workloads pay a cache miss per
/// node for the rest of the process (glibc avoids this by consolidating
/// freed chunks; a slab recycler must restore order explicitly — the
/// classic address-ordered free-list technique). Sorting only on
/// burst-then-alloc boundaries keeps steady-state churn at pure LIFO
/// cost: the list length must outgrow its floor by [`SORT_BURST`] before
/// a sort can trigger, and popping only lowers the floor. The walk also
/// recounts the list, which is how an adopted segment gets its count.
#[cold]
fn sort_free_list(c: &mut LocalClass) {
    // Bottom-up linked-list merge sort: bin `i` holds a sorted run of
    // 2^i nodes, so memory stays O(1) and work O(n log n) with no
    // recursion.
    let mut bins = [null_mut::<u8>(); usize::BITS as usize];
    let mut n = 0;
    let mut p = c.head;
    while !p.is_null() {
        n += 1;
        // SAFETY: `p` is a node of this thread's free list; its first
        // word is the next link. Detaching it into a single-node run
        // keeps the list invariant for `merge_by_addr`.
        let next = unsafe { p.cast::<*mut u8>().read() };
        // SAFETY: as above; `p` becomes a one-node run.
        unsafe { p.cast::<*mut u8>().write(null_mut()) };
        let mut run = p;
        let mut i = 0;
        while !bins[i].is_null() {
            run = merge_by_addr(bins[i], run);
            bins[i] = null_mut();
            i += 1;
        }
        bins[i] = run;
        p = next;
    }
    let mut all = null_mut();
    for b in bins {
        if !b.is_null() {
            all = merge_by_addr(all, b);
        }
    }
    c.head = all;
    c.count = n;
    c.sorted_floor = n;
}

/// Merges two address-sorted free-list runs, ascending. Null-safe.
fn merge_by_addr(a: *mut u8, b: *mut u8) -> *mut u8 {
    let (mut a, mut b) = (a, b);
    let mut head = null_mut::<u8>();
    let mut tail: *mut *mut u8 = &mut head;
    while !a.is_null() && !b.is_null() {
        let take = if (a as usize) <= (b as usize) {
            &mut a
        } else {
            &mut b
        };
        let n = *take;
        // SAFETY: `n` is a free-list node; its first word is the next
        // link of its run.
        *take = unsafe { n.cast::<*mut u8>().read() };
        // SAFETY: `tail` points either at the local `head` or at the
        // link word of the previous appended node — both writable.
        unsafe { tail.write(n) };
        tail = n.cast::<*mut u8>();
    }
    let rest = if a.is_null() { b } else { a };
    // SAFETY: as above for `tail`; terminates the merged run with the
    // leftover sorted suffix (possibly null).
    unsafe { tail.write(rest) };
    head
}

#[inline]
fn note_refill(tid: usize, class: usize, slots: usize) {
    bump(&SHARDS[tid].refills, 1);
    bump(&SHARDS[tid].refill_slots, slots as u64);
    crate::trace_event_at!(
        tid,
        trace::EventKind::PoolRefill,
        class as u64,
        slots as u64
    );
}

/// Returns an allocation to the pool (or the global allocator, per its
/// tag). A free lands on the *freeing* thread's local list — whichever
/// thread allocated the slot — so churn reuses cache-hot memory and a
/// reader/writer thread split doesn't strand every freed slot on an
/// idle owner (the same policy as glibc's tcache and tcmalloc's thread
/// caches; cross-thread imbalance drains through the `OVERFLOW`
/// spillway instead). A thread that frees before it allocates gets its
/// pool state here, exactly as [`alloc`] would give it. The free is
/// counted on the freeing thread's cell, never the allocator's.
///
/// # Safety
/// `ptr` must have come from [`alloc`] with this exact `layout`, be
/// returned exactly once, and no longer be accessible to any thread.
#[inline]
pub unsafe fn dealloc(ptr: *mut u8, layout: Layout, tag: PoolTag) {
    let freed = (slot_bytes(layout, tag) as u64).wrapping_neg();
    if tag == TAG_GLOBAL {
        note_global(with_local(|l| l.tid), |c| &c.global_frees, freed);
        // SAFETY: a TAG_GLOBAL allocation came from the global-allocator
        // arm of `alloc` with this same layout (this function's
        // contract).
        unsafe { std::alloc::dealloc(ptr, layout) };
        return;
    }
    let class = tag as usize - 1;
    debug_assert!(class < NUM_CLASSES);
    debug_assert_eq!(class_of(layout), Some(class), "layout/tag mismatch");
    let landed = with_local(|l| {
        let c = &mut l.classes[class];
        // SAFETY: the caller hands over exclusive ownership of `ptr`
        // (contract); writing the link word turns it into a free-list
        // node.
        unsafe { ptr.cast::<*mut u8>().write(c.head) };
        c.head = ptr;
        c.count += 1;
        if c.count >= LIST_CAP + SPILL_CHUNK {
            spill(c, class);
        }
        bump(&SHARDS[l.tid].slot_frees, 1);
        bump(&SHARDS[l.tid].net_bytes, freed);
    });
    if landed.is_none() {
        // Past TLS teardown, so no pool state and none to be had: park
        // the slot as a one-slot segment.
        // SAFETY: as above; a null link seals the segment.
        unsafe { ptr.cast::<*mut u8>().write(null_mut()) };
        push_segment(class, ptr);
        FALLBACK.slot_frees.fetch_add(1, Ordering::Relaxed);
        FALLBACK.remote_frees.fetch_add(1, Ordering::Relaxed);
        FALLBACK.net_bytes.fetch_add(freed, Ordering::Relaxed);
        // No trace event here: the ring protocol is single-writer per
        // tid, and a thread past TLS teardown must not resolve a fresh
        // tid just to attribute a free.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_of_covers_size_and_alignment() {
        let l = |s, a| Layout::from_size_align(s, a).unwrap();
        assert_eq!(class_of(l(1, 1)), Some(0));
        assert_eq!(class_of(l(64, 8)), Some(0));
        // Just past a power of two lands on a ×1.5 class, not ×2.
        assert_eq!(class_of(l(65, 8)), Some(1));
        assert_eq!(class_slot_size(1), 96);
        assert_eq!(class_of(l(130, 8)).map(class_slot_size), Some(192));
        assert_eq!(class_of(l(24, 16)), Some(0));
        // Alignment alone can push the class up — and skips the
        // non-power-of-two strides that cannot guarantee it.
        assert_eq!(class_of(l(8, 256)).map(class_slot_size), Some(256));
        assert_eq!(class_of(l(100, 128)).map(class_slot_size), Some(128));
        assert_eq!(class_of(l(MAX_SLOT, 64)), Some(NUM_CLASSES - 1));
        assert_eq!(class_of(l(MAX_SLOT + 1, 8)), None);
    }

    #[test]
    fn every_class_guarantees_its_stride_alignment() {
        for c in 0..NUM_CLASSES {
            let slot = class_slot_size(c);
            let align = class_align(c);
            assert!(align.is_power_of_two());
            assert_eq!(slot % align, 0, "stride must be a multiple of align");
            assert!(align >= 32, "even odd strides keep 32-byte alignment");
            if c > 0 {
                assert!(slot > class_slot_size(c - 1), "ladder is increasing");
            }
        }
        // Power-of-two requests of every size up to MAX_SLOT are served.
        let mut a = 1;
        while a <= MAX_SLOT {
            let l = Layout::from_size_align(8, a).unwrap();
            let c = class_of(l).expect("alignment must be coverable");
            assert!(class_align(c) >= a);
            a *= 2;
        }
    }

    #[test]
    fn slot_bytes_matches_tag() {
        let l = Layout::from_size_align(100, 8).unwrap();
        assert_eq!(slot_bytes(l, TAG_GLOBAL), 100);
        assert_eq!(slot_bytes(l, tag_of(2)), 128);
    }

    #[test]
    fn tag_encoding_roundtrips() {
        for class in 0..NUM_CLASSES {
            let tag = tag_of(class);
            assert!(is_pooled(tag));
            assert_eq!(tag as usize, class + 1);
        }
        assert!(!is_pooled(TAG_GLOBAL));
    }

    #[test]
    fn free_burst_restores_address_order() {
        if !enabled() {
            // Free-list order only exists with the pool on; the off arm's
            // fact is that no slot is ever handed out.
            assert_eq!(snapshot().slot_allocs, 0);
            return;
        }
        // Runs on its own test thread, so the local lists start empty.
        let layout = Layout::from_size_align(64, 8).unwrap();
        let n = 3 * SORT_BURST;
        let mut slots: Vec<(*mut u8, PoolTag)> = (0..n).map(|_| alloc(layout)).collect();
        // "Teardown": free in a scrambled order — evens ascending, then
        // odds descending — so plain LIFO would hand the next prefill a
        // thoroughly shuffled sequence.
        for k in (0..n).step_by(2).chain((0..n).filter(|k| k % 2 == 1).rev()) {
            let (p, t) = slots[k];
            // SAFETY: each slot allocated above, freed exactly once.
            unsafe { dealloc(p, layout, t) };
        }
        // "Prefill": the first alloc sees the burst and sorts, so the
        // whole batch comes back in ascending address order.
        slots = (0..n).map(|_| alloc(layout)).collect();
        for w in slots.windows(2) {
            assert!(
                (w[0].0 as usize) < (w[1].0 as usize),
                "prefill after a free burst must be address-ordered"
            );
        }
        for (p, t) in slots {
            // SAFETY: as above.
            unsafe { dealloc(p, layout, t) };
        }
    }

    #[test]
    fn small_churn_stays_lifo() {
        if !enabled() {
            assert_eq!(snapshot().slot_allocs, 0); // as above
            return;
        }
        // Below the burst threshold the hot path must keep LIFO reuse
        // (most-recently-freed slot is cache-hot).
        let layout = Layout::from_size_align(64, 8).unwrap();
        let batch: Vec<(*mut u8, PoolTag)> = (0..64).map(|_| alloc(layout)).collect();
        for &(p, t) in batch.iter().rev() {
            // SAFETY: allocated above, freed exactly once.
            unsafe { dealloc(p, layout, t) };
        }
        let (last, _) = batch[0];
        let (again, t2) = alloc(layout);
        assert_eq!(again, last, "small churn must pop the last free LIFO");
        // SAFETY: as above.
        unsafe { dealloc(again, layout, t2) };
    }

    #[test]
    fn overflow_spill_roundtrips_slots() {
        if !enabled() {
            assert_eq!(snapshot().slot_allocs, 0); // no spillway either
            return;
        }
        // Uses the 768-byte class, which no other test in this binary
        // touches, so no parallel test can race us for the spillway.
        let layout = Layout::from_size_align(768, 8).unwrap();
        let n = LIST_CAP + 2 * SPILL_CHUNK;
        let slots: Vec<(*mut u8, PoolTag)> = (0..n).map(|_| alloc(layout)).collect();
        let set: std::collections::HashSet<usize> =
            slots.iter().map(|&(p, _)| p as usize).collect();
        assert_eq!(set.len(), n);
        for &(p, t) in &slots {
            // SAFETY: allocated above with `layout`; freed exactly once.
            unsafe { dealloc(p, layout, t) };
        }
        // The frees overran LIST_CAP, so part of the batch must now sit
        // on the class's spillway; re-allocating the full batch drains
        // the local list and must adopt every spilled segment back
        // rather than carving fresh pages.
        let again: Vec<(*mut u8, PoolTag)> = (0..n).map(|_| alloc(layout)).collect();
        // The bump cursor may still hold the tail of the last phase-1
        // page (those addresses were never handed out, so they are not
        // in `set`); everything beyond one page's worth must be reuse.
        let fresh = again
            .iter()
            .filter(|&&(p, _)| !set.contains(&(p as usize)))
            .count();
        assert!(
            fresh <= PAGE_TARGET / 768,
            "{fresh} slots came from fresh pages — spilled segments were not adopted"
        );
        for &(p, t) in &again {
            // SAFETY: as above.
            unsafe { dealloc(p, layout, t) };
        }
    }

    #[test]
    fn snapshot_delta_arithmetic() {
        let base = PoolSnapshot {
            slot_allocs: 10,
            slot_frees: 4,
            ..Default::default()
        };
        let now = PoolSnapshot {
            slot_allocs: 25,
            slot_frees: 19,
            remote_frees: 3,
            ..Default::default()
        };
        let d = now.since(&base);
        assert_eq!(d.slot_allocs, 15);
        assert_eq!(d.slot_frees, 15);
        assert_eq!(d.remote_frees, 3);
        assert_eq!(d.live_slots(), 0);
        assert_eq!(base.live_slots(), 6);
    }
}
