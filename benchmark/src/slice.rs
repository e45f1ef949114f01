//! The load generators and their checkers: what one slice (one workload
//! × one series, in a fresh process) does between barrier release and
//! join. Everything here drives the program through its public traits
//! with keys generated from the seed, and verifies what comes back.

use orc_util::atomics::{AtomicBool, AtomicPtr, Ordering};
use orc_util::rng::XorShift64;
use orcgc::{make_orc, OrcAtomic};
use reclaim::{AnySmr, Smr};
use std::sync::Barrier;
use std::time::{Duration, Instant, SystemTime};
use structures::{ConcurrentQueue, ConcurrentSet};

/// Worker threads per slice: the box has two CPUs and the parent sleeps.
pub const THREADS: usize = 2;
/// Operations between two looks at the stop flag; one of them is timed.
pub const BATCH: u64 = 64;
/// Spans kept per thread (the newest ones).
pub const RING: usize = 1 << 15;
/// Slots the stalled reader protects (the paper's H for this workload).
pub const STALL_SLOTS: usize = reclaim::MAX_HPS;

/// Names of the structure calls a span can cover, indexed by `Span::kind`.
pub const OP_NAMES: [&str; 6] = [
    "enqueue",
    "dequeue",
    "contains",
    "insert",
    "remove",
    "swap_retire",
];
const ENQUEUE: u8 = 0;
const DEQUEUE: u8 = 1;
const CONTAINS: u8 = 2;
const INSERT: u8 = 3;
const REMOVE: u8 = 4;
const SWAP_RETIRE: u8 = 5;

/// One timed structure call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, in ns since the slice epoch.
    pub start_ns: u64,
    pub dur_ns: u32,
    pub kind: u8,
}

/// Per-thread span recorder: a preallocated ring holding the newest
/// [`RING`] timed calls. Untraced slices time one call per batch (the
/// 1-in-64 latency sample); traced slices time every call.
pub struct Recorder {
    every: bool,
    epoch: Instant,
    ring: Vec<Span>,
    recorded: u64,
}

impl Recorder {
    pub fn new(every: bool, epoch: Instant) -> Self {
        // A non-zero fill writes every page now, so no page fault lands
        // inside the timed window.
        let fill = Span {
            start_ns: u64::MAX,
            dur_ns: 0,
            kind: 0,
        };
        Self {
            every,
            epoch,
            ring: vec![fill; RING],
            recorded: 0,
        }
    }

    /// Runs `f`, timing it when the slice is traced or `sample` is set.
    #[inline]
    fn time<R>(&mut self, sample: bool, kind: u8, f: impl FnOnce() -> R) -> R {
        if !(self.every || sample) {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let dur = t0.elapsed();
        self.ring[(self.recorded as usize) & (RING - 1)] = Span {
            start_ns: t0.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: dur.as_nanos().min(u32::MAX as u128) as u32,
            kind,
        };
        self.recorded += 1;
        r
    }

    /// The spans still in the ring, oldest first.
    pub fn spans(&self) -> Vec<Span> {
        let kept = (self.recorded as usize).min(RING);
        let first = self.recorded as usize - kept;
        (first..first + kept)
            .map(|i| self.ring[i & (RING - 1)])
            .collect()
    }
}

/// How one window is run.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    /// Common clock of every span of the slice.
    pub epoch: Instant,
}

/// What one window did.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Structure calls completed inside the window.
    pub ops: u64,
    /// Calls whose result was wrong; all of `ops` when an end-of-run
    /// check fails.
    pub failed: u64,
    /// Σ over workers of ops ÷ that worker's own loop time, in ops/s.
    pub rate: f64,
    /// Wall-clock instant the barrier released the workers.
    pub released: Option<SystemTime>,
    /// Timed calls made (kept or overwritten).
    pub timed: u64,
    /// The newest spans of each worker.
    pub spans: Vec<Vec<Span>>,
    /// `stall_bound`: largest `unreclaimed()` the writer saw, and the
    /// Table-1 ceiling it was held against (0 = none).
    pub peak_unreclaimed: u64,
    pub bound: u64,
    /// Why `failed` is what it is.
    pub errors: Vec<String>,
}

impl RunOut {
    /// Fails the whole window: an end-of-run invariant does not hold, so
    /// no single call can be trusted.
    fn fail_all(&mut self, why: String) {
        self.failed = self.ops.max(1);
        self.errors.push(why);
    }
}

struct WorkerOut {
    ops: u64,
    failed: u64,
    loop_time: Duration,
    rec: Recorder,
    /// Workload-specific checksum (queue: Σ dequeued − Σ enqueued;
    /// tree: Σ added − Σ removed), wrapping.
    sum: u64,
}

/// Runs `body` on [`THREADS`] workers for `cfg.window`. `body` loops
/// batches until the stop flag is set and returns (ops, failed, checksum).
fn run_workers(
    cfg: &RunCfg,
    body: impl Fn(usize, &mut Recorder, &AtomicBool) -> (u64, u64, u64) + Sync,
) -> (RunOut, u64) {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(THREADS + 1);
    let mut released = None;
    let workers: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (stop, barrier, body) = (&stop, &barrier, &body);
                s.spawn(move || {
                    let mut rec = Recorder::new(cfg.traced, cfg.epoch);
                    barrier.wait();
                    let start = Instant::now();
                    let (ops, failed, sum) = body(t, &mut rec, stop);
                    let loop_time = start.elapsed();
                    orcgc::flush_thread();
                    WorkerOut {
                        ops,
                        failed,
                        loop_time,
                        rec,
                        sum,
                    }
                })
            })
            .collect();
        barrier.wait();
        released = Some(SystemTime::now());
        std::thread::sleep(cfg.window);
        // Pure termination flag; the joins below synchronise.
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let mut out = RunOut {
        released,
        ..RunOut::default()
    };
    let mut sum = 0u64;
    for w in &workers {
        out.ops += w.ops;
        out.failed += w.failed;
        out.rate += w.ops as f64 / w.loop_time.as_secs_f64();
        out.timed += w.rec.recorded;
        out.spans.push(w.rec.spans());
        sum = sum.wrapping_add(w.sum);
    }
    (out, sum)
}

/// The even keys of `0..range` in seeded random order: sets start half
/// full, and a shuffled order keeps the unbalanced tree from degenerating.
pub fn prefill_keys(range: u64, seed: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..range).step_by(2).collect();
    let mut rng = XorShift64::new(seed ^ 0x9E37_79B9_7F4A_7C15);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.next_bounded(i as u64 + 1) as usize);
    }
    keys
}

/// Inserts [`prefill_keys`]; returns their sum for the key-sum check.
pub fn prefill(set: &dyn ConcurrentSet<u64>, range: u64, seed: u64) -> u64 {
    let mut sum = 0u64;
    for k in prefill_keys(range, seed) {
        if set.add(k) {
            sum = sum.wrapping_add(k);
        }
    }
    sum
}

/// `list_read`: 100 % `contains` over a set nobody writes, so the answer
/// for `k` is exactly `k % 2 == 0` and every wrong answer is counted.
pub fn run_list_read(set: &dyn ConcurrentSet<u64>, range: u64, cfg: &RunCfg) -> RunOut {
    let (out, _) = run_workers(cfg, |t, rec, stop| {
        let mut rng = XorShift64::for_thread(t, cfg.seed);
        let (mut ops, mut failed) = (0u64, 0u64);
        while !stop.load(Ordering::Relaxed) {
            for i in 0..BATCH {
                let key = rng.next_bounded(range);
                let found = rec.time(i == 0, CONTAINS, || set.contains(&key));
                failed += (found != (key % 2 == 0)) as u64;
            }
            ops += BATCH;
        }
        (ops, failed, 0)
    });
    out
}

/// `tree_update`: 50 % insert / 50 % remove of uniform keys. Checked by
/// Brown's key-sum: prefill sum + Σ keys added − Σ keys removed must
/// equal the sum of the keys a final sweep finds.
pub fn run_tree_update(
    set: &dyn ConcurrentSet<u64>,
    range: u64,
    prefill_sum: u64,
    cfg: &RunCfg,
) -> RunOut {
    let (mut out, delta) = run_workers(cfg, |t, rec, stop| {
        let mut rng = XorShift64::for_thread(t, cfg.seed);
        let (mut ops, mut sum) = (0u64, 0u64);
        while !stop.load(Ordering::Relaxed) {
            for i in 0..BATCH {
                let key = rng.next_bounded(range);
                if rng.next_u64() >> 63 == 0 {
                    if rec.time(i == 0, INSERT, || set.add(key)) {
                        sum = sum.wrapping_add(key);
                    }
                } else if rec.time(i == 0, REMOVE, || set.remove(&key)) {
                    sum = sum.wrapping_sub(key);
                }
            }
            ops += BATCH;
        }
        (ops, 0, sum)
    });
    let expected = prefill_sum.wrapping_add(delta);
    let found = (0..range)
        .filter(|k| set.contains(k))
        .fold(0u64, |acc, k| acc.wrapping_add(k));
    if found != expected {
        out.fail_all(format!(
            "key-sum: sweep finds {found}, ledger says {expected}"
        ));
    }
    out
}

/// `queue_pairs`: every worker loops enqueue, then dequeue until `Some`.
/// Items carry (producer, sequence, seeded payload); each consumer checks
/// per-producer FIFO order, and at the end Σ dequeued = Σ enqueued and
/// the queue is empty.
pub fn run_queue_pairs(queue: &dyn ConcurrentQueue<u64>, cfg: &RunCfg) -> RunOut {
    let (mut out, imbalance) = run_workers(cfg, |t, rec, stop| {
        let mut rng = XorShift64::for_thread(t, cfg.seed);
        let mut last_seq = [0u64; THREADS];
        let (mut ops, mut failed, mut sum, mut seq, mut batch) = (0u64, 0u64, 0u64, 0u64, 0u64);
        while !stop.load(Ordering::Relaxed) {
            // One call in 64 is sampled: the batch's first enqueue on
            // even batches, its first dequeue on odd ones.
            for pair in 0..BATCH / 2 {
                seq += 1;
                let item = ((t as u64 + 1) << 56) | (seq << 16) | (rng.next_u64() & 0xFFFF);
                rec.time(pair == 0 && batch % 2 == 0, ENQUEUE, || queue.enqueue(item));
                sum = sum.wrapping_sub(item);
                let got = rec.time(pair == 0 && batch % 2 == 1, DEQUEUE, || loop {
                    // A sibling's dequeue can leave the queue empty for
                    // an instant.
                    if let Some(v) = queue.dequeue() {
                        break v;
                    }
                    orc_util::atomics::spin_hint();
                });
                sum = sum.wrapping_add(got);
                let (producer, got_seq) = ((got >> 56) as usize, (got >> 16) & 0xFF_FFFF_FFFF);
                match last_seq.get_mut(producer.wrapping_sub(1)) {
                    Some(last) if got_seq > *last => *last = got_seq,
                    _ => failed += 1,
                }
            }
            ops += BATCH;
            batch += 1;
        }
        (ops, failed, sum)
    });
    if imbalance != 0 {
        out.fail_all(format!("queue sum: dequeued − enqueued = {imbalance}"));
    }
    if let Some(v) = queue.dequeue() {
        out.fail_all(format!(
            "queue not empty after balanced pairs (holds {v:#x})"
        ));
    }
    out
}

/// The Table-1 ceiling on retired-but-unreclaimed objects for `t`
/// registered threads and H = [`STALL_SLOTS`]; 0 where the paper gives
/// none that a run can be held against (HE's depends on the era clock,
/// EBR and the leaky baseline are unbounded).
pub fn table1_bound(series: crate::spec::Series, t: u64) -> u64 {
    use crate::spec::Series;
    let h = STALL_SLOTS as u64;
    match series {
        // Pass-the-pointer hand-over: linear, t·(H+1).
        Series::Orcgc | Series::Ptp => t * (h + 1),
        // Per-thread retired lists scanned at 2·H·t + 8: O(H·t²).
        Series::Hp | Series::Ptb => t * (2 * h * t + 8),
        Series::He | Series::Adaptive | Series::Ebr | Series::None => 0,
    }
}

/// What the two `stall_bound` flavours (manual scheme, OrcGC) supply.
trait StallTarget: Sync {
    /// Reader side: take and hold [`STALL_SLOTS`] protections until
    /// `parked` returns.
    fn hold(&self, parked: &mut dyn FnMut());
    /// Writer side: install a fresh object holding `value` in slot `idx`
    /// and retire the displaced one.
    fn swap_retire(&self, idx: usize, value: u64);
    fn unreclaimed(&self) -> u64;
    /// Value currently in slot `idx` (quiescent).
    fn value(&self, idx: usize) -> u64;
}

struct ManualStall<'a> {
    smr: &'a AnySmr,
    slots: Vec<AtomicPtr<u64>>,
}

impl StallTarget for ManualStall<'_> {
    fn hold(&self, parked: &mut dyn FnMut()) {
        // Epoch schemes stall inside an operation, pointer schemes
        // holding their hazard slots.
        self.smr.begin_op();
        for (idx, slot) in self.slots.iter().enumerate() {
            assert!(!self.smr.protect_ptr(idx, slot).is_null());
        }
        parked();
        self.smr.end_op();
    }

    fn swap_retire(&self, idx: usize, value: u64) {
        let fresh = self.smr.alloc(value);
        let old = self.slots[idx].swap(fresh, Ordering::SeqCst);
        // SAFETY: the swap unlinked `old`, and the single writer is its
        // only unlinker, so it is retired exactly once.
        unsafe { self.smr.retire(old) };
    }

    fn unreclaimed(&self) -> u64 {
        self.smr.unreclaimed() as u64
    }

    fn value(&self, idx: usize) -> u64 {
        // SAFETY: called after the workers are joined; the slot's object
        // is linked, so it has not been retired.
        unsafe { *self.slots[idx].load(Ordering::SeqCst) }
    }
}

impl Drop for ManualStall<'_> {
    fn drop(&mut self) {
        for slot in &self.slots {
            let p = slot.swap(std::ptr::null_mut(), Ordering::SeqCst);
            // SAFETY: the null swap unlinked `p` exactly once and every
            // worker is joined.
            unsafe { self.smr.retire(p) };
        }
    }
}

struct OrcStall {
    slots: Vec<OrcAtomic<u64>>,
}

impl StallTarget for OrcStall {
    fn hold(&self, parked: &mut dyn FnMut()) {
        let guards: Vec<_> = self.slots.iter().map(OrcAtomic::load).collect();
        parked();
        drop(guards);
        orcgc::flush_thread();
    }

    fn swap_retire(&self, idx: usize, value: u64) {
        self.slots[idx].store(&make_orc(value));
    }

    fn unreclaimed(&self) -> u64 {
        orcgc::domain().unreclaimed()
    }

    fn value(&self, idx: usize) -> u64 {
        *self.slots[idx]
            .load()
            .as_ref()
            .expect("slot holds an object")
    }
}

/// `stall_bound`: one reader protects [`STALL_SLOTS`] links and parks;
/// one writer swaps fresh objects in and retires the displaced ones,
/// watching `unreclaimed()` after every retire. `smr` is `None` for the
/// OrcGC series.
pub fn run_stall_bound(series: crate::spec::Series, smr: Option<&AnySmr>, cfg: &RunCfg) -> RunOut {
    let (mut out, left) = match smr {
        Some(smr) => {
            let target = ManualStall {
                smr,
                slots: (0..STALL_SLOTS as u64)
                    .map(|i| AtomicPtr::new(smr.alloc(i)))
                    .collect(),
            };
            let out = stall_window(&target, cfg);
            drop(target);
            smr.flush();
            // The leaky baseline holds everything until its last handle
            // drops.
            let left = if smr.kind().reclaims() {
                smr.unreclaimed() as u64
            } else {
                0
            };
            (out, left)
        }
        None => {
            let target = OrcStall {
                slots: (0..STALL_SLOTS as u64)
                    .map(|i| OrcAtomic::new(&make_orc(i)))
                    .collect(),
            };
            let out = stall_window(&target, cfg);
            drop(target);
            orcgc::flush_thread();
            (out, orcgc::domain().unreclaimed())
        }
    };
    if left != 0 {
        out.fail_all(format!(
            "{left} objects unreclaimed after release and flush"
        ));
    }
    out.bound = table1_bound(series, orc_util::registry::registered_watermark() as u64);
    if out.bound != 0 && out.peak_unreclaimed > out.bound {
        let (peak, bound) = (out.peak_unreclaimed, out.bound);
        out.fail_all(format!(
            "peak unreclaimed {peak} above the Table-1 bound {bound}"
        ));
    }
    out
}

fn stall_window(target: &dyn StallTarget, cfg: &RunCfg) -> RunOut {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(3);
    let mut out = RunOut::default();
    let last = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            target.hold(&mut || {
                barrier.wait();
                while !stop.load(Ordering::Acquire) {
                    std::thread::park();
                }
            })
        });
        let writer = s.spawn(|| {
            let mut rec = Recorder::new(cfg.traced, cfg.epoch);
            let mut rng = XorShift64::for_thread(0, cfg.seed);
            let mut last = [0u64; STALL_SLOTS];
            let (mut ops, mut peak) = (0u64, 0u64);
            barrier.wait();
            let start = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                for i in 0..BATCH {
                    let idx = (ops + i) as usize % STALL_SLOTS;
                    let value = rng.next_u64();
                    rec.time(i == 0, SWAP_RETIRE, || {
                        target.swap_retire(idx, value);
                        peak = peak.max(target.unreclaimed());
                    });
                    last[idx] = value;
                }
                ops += BATCH;
            }
            let loop_time = start.elapsed();
            orcgc::flush_thread();
            (ops, peak, loop_time, rec, last)
        });
        barrier.wait();
        out.released = Some(SystemTime::now());
        std::thread::sleep(cfg.window);
        stop.store(true, Ordering::Release);
        let written = writer.join().expect("writer panicked");
        reader.thread().unpark();
        reader.join().expect("reader panicked");
        written
    });
    let (ops, peak, loop_time, rec, last) = last;
    out.ops = ops;
    out.rate = ops as f64 / loop_time.as_secs_f64();
    out.peak_unreclaimed = peak;
    out.timed = rec.recorded;
    out.spans.push(rec.spans());
    for (idx, want) in last.iter().enumerate() {
        let got = target.value(idx);
        if got != *want {
            out.fail_all(format!(
                "slot {idx} holds {got:#x}, last write was {want:#x}"
            ));
        }
    }
    out
}
