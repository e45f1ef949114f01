//! orc-check: a deterministic, cooperative-scheduling bounded model checker
//! for the workspace's reclamation protocols.
//!
//! This crate is the checker. It turns on orc-util's `orc_check` feature,
//! so every crate built with it compiles against the instrumented atomics
//! facade (Cargo feature unification takes care of `reclaim`, `orcgc` and
//! `structures`), and installs its `orc_util::chk_hooks::Hooks` table
//! into that seam for the length of each exploration. The checked
//! protocol suite lives in `tests/`; see DESIGN.md §9 for the architecture
//! and the `ORC_CHECK_*` environment knobs. Run it with
//! `cargo test -p check`: the default configuration is the per-push CI
//! setting (exhaustive, preemption bound 2), and CI's nightly soak raises
//! the bound and adds randomized schedules on top.
//!
//! # How it works
//!
//! [`explore`] re-runs a closure under every schedule a DFS with *iterative
//! preemption bounding* (CHESS-style) generates. Model threads are real OS
//! threads, but a Mutex/Condvar baton guarantees **exactly one** runs at a
//! time, and it may only advance to its next shared-memory operation when
//! the scheduler picks it — so an execution is a deterministic sequence of
//! sequentially-consistent steps. The facade shims in `orc_util::atomics`
//! are the yield points: each shim *declares* the upcoming operation
//! (address + kind) through [`orc_util::chk_hooks::access`], parks until
//! granted, then performs the real operation exclusively.
//!
//! Exploration branches only at steps whose address is touched by two or
//! more threads with at least one write (classified from the parent run's
//! own trace: private operations commute, so preempting before them cannot
//! change the outcome), plus forced/voluntary switches, which cost nothing
//! against the preemption bound. `CheckMode::Random` replaces the DFS with
//! seeded Bernoulli switching for configurations too big to exhaust. No
//! wall-clock or entropy API is consulted anywhere, so runs are
//! bit-reproducible.
//!
//! A child schedule is its parent's step-indexed deviation list plus one
//! more, so replay never compares addresses across runs; a replay that
//! drifts from its parent (a deviation's thread not runnable, or the run
//! ending before the deviation's step) is a checker failure, since the
//! schedule it stands for went unexplored. Sleep sets (Godefroid 1996)
//! prune sibling branches that would only commute. A sleep set is a mask
//! of thread ids: a sleeping thread has not moved since it fell asleep, so
//! its declared op is the op the entry stands for, at this run's own
//! addresses. A committed conflicting access to that address (same word,
//! at least one write) wakes it, and so does a free of the block that
//! contains it.
//!
//! # Reclamation oracles
//!
//! A per-execution *shadow heap* tracks every tracked allocation through
//! the `orc_util::chk_hooks` funnels (`alloc` → `retire` → `reclaim`). The
//! oracles report: use-after-reclaim (any shim access inside a reclaimed
//! block, checked *before* the real operation runs), double-retire,
//! retire-after-reclaim, double-free, and leak-at-quiescence (a tracked
//! block not reclaimed by path end). Under a model run reclaimed blocks are
//! *quarantined* — their destructor runs in place but the memory is leaked
//! — so the real operation behind a detected use-after-reclaim is still
//! physically safe and the execution can finish and print its trace.

pub use orc_util::chk_hooks::Acc;
use orc_util::chk_hooks::{Hooks, ReclaimAction};
use orc_util::rng::XorShift64;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Sentinel thread id ("no thread").
const NONE: usize = usize::MAX;

/// Model threads a sleep-set mask can name.
const MAX_THREADS: usize = u64::BITS as usize;

/// A sleep set: bit `t` is model thread `t`.
fn bit(tid: usize) -> u64 {
    1 << tid
}

/// How [`explore`] walks the schedule space.
#[derive(Clone, Copy, Debug)]
pub enum CheckMode {
    /// DFS over schedules with iterative preemption bounding + sleep sets.
    Exhaustive,
    /// Seeded random scheduling: `schedules` independent runs. Failures are
    /// still replayable (the generated deviation list is reported).
    Random { schedules: usize, seed: u64 },
}

/// Exploration knobs. `Config::default()` is the per-push CI setting;
/// [`Config::from_env`] applies the `ORC_CHECK_*` overrides documented in
/// the README.
#[derive(Clone, Debug)]
pub struct Config {
    pub mode: CheckMode,
    /// Maximum preemptive context switches per schedule (forced and
    /// voluntary switches are free), exhaustive mode only.
    pub preemption_bound: usize,
    /// Per-schedule step budget; exceeding it reports a livelock.
    pub max_steps: usize,
    /// Global schedule budget; exceeding it sets `Report::truncated`.
    pub max_schedules: usize,
    /// Check leak-at-quiescence at the end of every clean path.
    pub check_leaks: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            mode: CheckMode::Exhaustive,
            preemption_bound: 2,
            max_steps: 20_000,
            max_schedules: 20_000,
            check_leaks: true,
        }
    }
}

impl Config {
    /// `Config::default()` with `ORC_CHECK_{PREEMPTIONS,MAX_STEPS,SCHEDULES,
    /// MODE,SEED}` applied on top.
    pub fn from_env() -> Self {
        fn num(k: &str) -> Option<u64> {
            std::env::var(k).ok().and_then(|v| v.trim().parse().ok())
        }
        let mut c = Self::default();
        if let Some(v) = num("ORC_CHECK_PREEMPTIONS") {
            c.preemption_bound = v as usize;
        }
        if let Some(v) = num("ORC_CHECK_MAX_STEPS") {
            c.max_steps = v as usize;
        }
        if let Some(v) = num("ORC_CHECK_SCHEDULES") {
            c.max_schedules = v as usize;
        }
        if std::env::var("ORC_CHECK_MODE").as_deref() == Ok("random") {
            c.mode = CheckMode::Random {
                schedules: c.max_schedules,
                seed: num("ORC_CHECK_SEED").unwrap_or(0xC0FFEE),
            };
        }
        c
    }
}

/// Summary of a completed (failure-free) exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Schedules executed.
    pub schedules: usize,
    /// Total scheduling steps across all schedules.
    pub steps: u64,
    /// True if `max_schedules` stopped the walk before exhaustion.
    pub truncated: bool,
    pub preemption_bound: usize,
}

impl Report {
    /// Panics, naming `model`, unless the walk exhausted its bound and
    /// branched at least once.
    pub fn assert_exhausted(&self, model: &str) {
        assert!(!self.truncated, "{model}: the config must exhaust it");
        assert!(self.schedules > 1, "{model}: nothing was explored");
    }
}

/// One trace line: a scheduling step or an annotation event.
#[derive(Clone, Debug)]
pub struct TraceEv {
    pub step: u32,
    pub tid: u32,
    pub acc: Acc,
    pub name: &'static str,
    pub addr: usize,
    /// `(allocation serial, byte offset)` when `addr` falls inside a
    /// shadow-heap block.
    pub obj: Option<(u64, usize)>,
}

impl fmt::Display for TraceEv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let target = match self.acc {
            Acc::Spawn | Acc::Exit => format!("T{}", self.addr),
            Acc::Block if self.name == "join" => format!("T{}", self.addr),
            _ => match self.obj {
                Some((ser, off)) => format!("obj#{ser}+0x{off:x}"),
                None if self.addr == 0 => String::new(),
                None => format!("0x{:012x}", self.addr),
            },
        };
        write!(
            f,
            "#{:<5} T{} {:<9} {}",
            self.step, self.tid, self.name, target
        )
    }
}

/// A reported property violation, replayable from `schedule`.
#[derive(Clone, Debug, Default)]
pub struct Failure {
    pub message: String,
    /// Step counter at detection time.
    pub step: usize,
    /// `(step, thread)` deviations from the default schedule that reproduce
    /// this execution.
    pub schedule: Vec<(usize, usize)>,
    pub trace: Vec<TraceEv>,
    pub schedules_explored: usize,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "orc-check failure: {}", self.message)?;
        writeln!(
            f,
            "  detected at step {} after {} schedule(s)",
            self.step, self.schedules_explored
        )?;
        if !self.schedule.is_empty() {
            write!(f, "  schedule (step -> thread):")?;
            for (s, t) in &self.schedule {
                write!(f, " {s}->T{t}")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  trace ({} events):", self.trace.len())?;
        let n = self.trace.len();
        if n > 200 {
            for ev in &self.trace[..40] {
                writeln!(f, "    {ev}")?;
            }
            writeln!(f, "    ... {} events elided ...", n - 160)?;
            for ev in &self.trace[n - 120..] {
                writeln!(f, "    {ev}")?;
            }
        } else {
            for ev in &self.trace {
                writeln!(f, "    {ev}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for Failure {}

// ---------------------------------------------------------------------------
// Shadow heap
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BState {
    Live,
    Retired,
    Reclaimed,
}

#[derive(Clone, Debug)]
struct Block {
    len: usize,
    serial: u64,
    state: BState,
    retired_step: Option<usize>,
    reclaimed_step: Option<usize>,
}

#[derive(Default)]
struct Shadow {
    blocks: BTreeMap<usize, Block>,
    next_serial: u64,
}

impl Shadow {
    fn block_of(&self, addr: usize) -> Option<(usize, &Block)> {
        self.blocks
            .range(..=addr)
            .next_back()
            .filter(|(s, b)| addr < *s + b.len)
            .map(|(s, b)| (*s, b))
    }

    fn block_mut(&mut self, addr: usize) -> Option<(usize, &mut Block)> {
        self.blocks
            .range_mut(..=addr)
            .next_back()
            .filter(|(s, b)| addr < **s + b.len)
            .map(|(s, b)| (*s, b))
    }

    fn resolve(&self, addr: usize) -> Option<(u64, usize)> {
        self.block_of(addr).map(|(s, b)| (b.serial, addr - s))
    }

    fn insert(&mut self, start: usize, len: usize) -> u64 {
        let serial = self.next_serial;
        self.next_serial += 1;
        // A stale entry here would mean the allocator reused a quarantined
        // address, which quarantine prevents; tolerate it anyway.
        self.blocks.insert(
            start,
            Block {
                len,
                serial,
                state: BState::Live,
                retired_step: None,
                reclaimed_step: None,
            },
        );
        serial
    }

    /// Use-after-reclaim check, run before the access executes.
    fn check_access(&self, addr: usize) -> Option<String> {
        let (_, b) = self.block_of(addr)?;
        if b.state == BState::Reclaimed {
            Some(format!(
                "obj#{} (len {}) was reclaimed at step {:?} (retired at step {:?})",
                b.serial, b.len, b.reclaimed_step, b.retired_step
            ))
        } else {
            None
        }
    }

    /// `Ok(false)`: `addr` is not tracked.
    fn retire(&mut self, addr: usize, step: usize) -> Result<bool, String> {
        let Some((_, b)) = self.block_mut(addr) else {
            return Ok(false);
        };
        match b.state {
            BState::Live => {
                b.state = BState::Retired;
                b.retired_step = Some(step);
                Ok(true)
            }
            BState::Retired => Err(format!(
                "double retire: obj#{} already retired at step {:?}",
                b.serial, b.retired_step
            )),
            BState::Reclaimed => Err(format!(
                "retire after reclaim: obj#{} reclaimed at step {:?}",
                b.serial, b.reclaimed_step
            )),
        }
    }

    /// False: `addr` is not tracked.
    fn unretire(&mut self, addr: usize) -> bool {
        let Some((_, b)) = self.block_mut(addr) else {
            return false;
        };
        if b.state == BState::Retired {
            b.state = BState::Live;
            b.retired_step = None;
        }
        true
    }

    /// The freed block's address range; `Ok(None)`: `addr` is not tracked.
    fn reclaim(&mut self, addr: usize, step: usize) -> Result<Option<Range<usize>>, String> {
        let Some((start, b)) = self.block_mut(addr) else {
            return Ok(None);
        };
        match b.state {
            BState::Live | BState::Retired => {
                b.state = BState::Reclaimed;
                b.reclaimed_step = Some(step);
                Ok(Some(start..start + b.len))
            }
            BState::Reclaimed => Err(format!(
                "double free: obj#{} already reclaimed at step {:?}",
                b.serial, b.reclaimed_step
            )),
        }
    }

    /// Path-end oracle: every tracked block must have been reclaimed
    /// (retired − reclaimed == live-at-quiescence == 0 after teardown).
    fn leak_report(&self) -> Option<String> {
        let leaked: Vec<&Block> = self
            .blocks
            .values()
            .filter(|b| b.state != BState::Reclaimed)
            .collect();
        if leaked.is_empty() {
            return None;
        }
        let mut msg = format!(
            "leak at quiescence: {} tracked object(s) not reclaimed at path end:",
            leaked.len()
        );
        for b in leaked.iter().take(8) {
            msg.push_str(&format!(" obj#{}({:?})", b.serial, b.state));
        }
        if leaked.len() > 8 {
            msg.push_str(" ...");
        }
        Some(msg)
    }
}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
struct DeclaredOp {
    addr: usize,
    acc: Acc,
    name: &'static str,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum BlockTarget {
    Addr(usize),
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Run {
    Runnable,
    Blocked(BlockTarget),
    Finished,
}

struct ThreadSt {
    run: Run,
    declared: Option<DeclaredOp>,
    last_was_spin: bool,
}

impl ThreadSt {
    fn starting() -> Self {
        Self {
            run: Run::Runnable,
            declared: Some(DeclaredOp {
                addr: 0,
                acc: Acc::Start,
                name: "start",
            }),
            last_was_spin: false,
        }
    }
}

/// A point where the parent schedule is deviated from: at step `step`, run
/// `tid` instead of the default choice. `sleep` is the sleep set to install
/// when the deviation is applied (parent's set + already-explored siblings).
#[derive(Clone, Copy, Debug)]
struct Deviation {
    step: usize,
    tid: usize,
    sleep: u64,
}

/// Per-committed-step record used by the explorer to generate children.
#[derive(Clone)]
struct Cand {
    tid: usize,
    addr: usize,
    mem: bool,
    /// The thread's last committed op was a `spin_hint` and no write has
    /// been committed since: re-scheduling it would only replay an
    /// identical spin-loop iteration. The explorer never deviates *to* a
    /// spun thread — without this, every forced re-spin mints a fresh
    /// switch point two steps later and the DFS walks an unbounded chain
    /// of ever-longer schedules (CHESS's fair-scheduling reduction).
    spun: bool,
}

struct StepInfo {
    cands: Vec<Cand>,
    sleeping: u64,
    chosen: usize,
    /// Switching away here is not charged as a preemption (previous thread
    /// blocked/finished, or voluntarily yielded via `spin_hint`).
    free: bool,
}

struct State {
    threads: Vec<ThreadSt>,
    handles: Vec<Option<std::thread::JoinHandle<()>>>,
    active: usize,
    step: usize,
    deviations: Vec<Deviation>,
    next_dev: usize,
    /// Random-mode: switches taken, recorded for failure replay.
    recorded: Vec<Deviation>,
    trace: Vec<TraceEv>,
    steps: Vec<StepInfo>,
    sleep: u64,
    shadow: Shadow,
    rng: Option<XorShift64>,
    failure: Option<Failure>,
    abort: bool,
    done: bool,
    max_steps: usize,
}

impl State {
    /// Wakes every sleeper whose declared memory op `hits`. A sleeper has
    /// not run since it fell asleep, so its declared op is the one its
    /// entry stands for.
    fn wake(&mut self, hits: impl Fn(&DeclaredOp) -> bool) {
        for (tid, t) in self.threads.iter().enumerate() {
            if t.declared
                .as_ref()
                .is_some_and(|d| d.acc.is_mem() && hits(d))
            {
                self.sleep &= !bit(tid);
            }
        }
    }
}

struct Sched {
    state: Mutex<State>,
    cv: Condvar,
}

impl Sched {
    fn new(cfg: &Config, deviations: Vec<Deviation>, rng: Option<XorShift64>) -> Self {
        Self {
            state: Mutex::new(State {
                threads: Vec::new(),
                handles: Vec::new(),
                active: NONE,
                step: 0,
                deviations,
                next_dev: 0,
                recorded: Vec::new(),
                trace: Vec::new(),
                steps: Vec::new(),
                sleep: 0,
                shadow: Shadow::default(),
                rng,
                failure: None,
                abort: false,
                done: false,
                max_steps: cfg.max_steps,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, g: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        self.cv.wait(g).unwrap_or_else(|e| e.into_inner())
    }

    fn record_failure(&self, st: &mut State, message: String) {
        if st.failure.is_none() {
            st.failure = Some(Failure {
                message,
                step: st.step,
                schedule: Vec::new(),
                trace: Vec::new(),
                schedules_explored: 0,
            });
        }
    }

    fn push_event(&self, st: &mut State, tid: usize, acc: Acc, name: &'static str, addr: usize) {
        let obj = st.shadow.resolve(addr);
        st.trace.push(TraceEv {
            step: st.step as u32,
            tid: tid as u32,
            acc,
            name,
            addr,
            obj,
        });
    }

    /// Picks the thread that executes the next step. Returns `None` only on
    /// deadlock/abort (with `st.abort` set).
    fn decide(&self, st: &mut State) -> Option<usize> {
        if st.abort {
            return None;
        }
        let s = st.step;
        let cands: Vec<Cand> = st
            .threads
            .iter()
            .enumerate()
            .filter_map(|(tid, t)| match (&t.run, &t.declared) {
                (Run::Runnable, Some(d)) => Some(Cand {
                    tid,
                    addr: d.addr,
                    mem: d.acc.is_mem(),
                    spun: t.last_was_spin,
                }),
                _ => None,
            })
            .collect();
        if cands.is_empty() {
            let blocked: Vec<String> = st
                .threads
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t.run {
                    Run::Blocked(b) => Some(format!("T{i}:{b:?}")),
                    _ => None,
                })
                .collect();
            self.record_failure(
                st,
                format!("deadlock: no runnable thread [{}]", blocked.join(", ")),
            );
            st.abort = true;
            self.cv.notify_all();
            return None;
        }
        let prev = st.active;
        let prev_cand = prev != NONE && cands.iter().any(|c| c.tid == prev);
        let prev_spun = prev_cand && st.threads[prev].last_was_spin;
        let free = !prev_cand || prev_spun;
        st.steps.push(StepInfo {
            cands: cands.clone(),
            sleeping: st.sleep,
            chosen: NONE,
            free,
        });
        // Replay: apply the pending deviation if it names this step.
        if let Some(&d) = st.deviations.get(st.next_dev).filter(|d| d.step == s) {
            st.next_dev += 1;
            st.sleep = d.sleep;
            if cands.iter().any(|c| c.tid == d.tid) {
                return Some(d.tid);
            }
            self.record_failure(
                st,
                format!(
                    "replay diverged: T{} is not runnable at step {s}, where its parent \
                     schedule deviates to it (the body is nondeterministic)",
                    d.tid
                ),
            );
        }
        // Default policy: continue the previous thread; after a voluntary
        // spin_hint yield, round-robin to the next runnable thread.
        let default = if prev_cand && !prev_spun {
            prev
        } else if prev_cand {
            cands
                .iter()
                .map(|c| c.tid)
                .find(|&t| t != prev)
                .unwrap_or(prev)
        } else {
            cands[0].tid
        };
        if let Some(rng) = st.rng.as_mut() {
            let others: Vec<usize> = cands
                .iter()
                .filter(|c| c.tid != default && !c.spun)
                .map(|c| c.tid)
                .collect();
            if !others.is_empty() && rng.chance_permille(300) {
                let pick = others[rng.next_bounded(others.len() as u64) as usize];
                st.recorded.push(Deviation {
                    step: s,
                    tid: pick,
                    sleep: 0,
                });
                return Some(pick);
            }
        }
        Some(default)
    }

    /// Commits `chosen`'s declared op as the next step: trace, oracles,
    /// wakeups, sleep-set maintenance. The real operation runs right after,
    /// exclusively, on `chosen`'s OS thread.
    fn commit(&self, st: &mut State, chosen: usize) {
        let op = st.threads[chosen]
            .declared
            .take()
            .expect("chosen thread has a declared op");
        let s = st.step;
        st.step += 1;
        st.threads[chosen].last_was_spin = matches!(op.acc, Acc::SpinHint);
        if let Some(info) = st.steps.last_mut() {
            info.chosen = chosen;
        }
        let obj = st.shadow.resolve(op.addr);
        st.trace.push(TraceEv {
            step: s as u32,
            tid: chosen as u32,
            acc: op.acc,
            name: op.name,
            addr: op.addr,
            obj,
        });
        if op.acc.is_mem() {
            if let Some(msg) = st.shadow.check_access(op.addr) {
                self.record_failure(
                    st,
                    format!(
                        "use-after-reclaim: T{chosen} {} at step {s}: {msg}",
                        op.name
                    ),
                );
            }
        }
        if st.step >= st.max_steps && !st.abort {
            self.record_failure(
                st,
                format!(
                    "livelock: exceeded max_steps={} without quiescing",
                    st.max_steps
                ),
            );
            st.abort = true;
            self.cv.notify_all();
        }
        if op.acc.is_write() {
            for t in st.threads.iter_mut() {
                if t.run == Run::Blocked(BlockTarget::Addr(op.addr)) {
                    t.run = Run::Runnable;
                    t.declared = Some(DeclaredOp {
                        addr: 0,
                        acc: Acc::Resume,
                        name: "resume",
                    });
                }
                // A write may have changed whatever condition a spinner is
                // polling; its next iteration is meaningful again.
                t.last_was_spin = false;
            }
        }
        // Sleep-set maintenance: executing a thread removes it; a dependent
        // op (same location, at least one write) wakes sleepers.
        st.sleep &= !bit(chosen);
        if op.acc.is_mem() {
            let w = op.acc.is_write();
            st.wake(|d| d.addr == op.addr && (w || d.acc.is_write()));
        }
    }

    /// Decide + commit exactly one step and grant the baton to the winner.
    fn schedule_next(&self, st: &mut State) {
        if let Some(chosen) = self.decide(st) {
            self.commit(st, chosen);
            st.active = chosen;
            self.cv.notify_all();
        }
    }

    /// A model thread declares its next shared-memory op and parks until the
    /// scheduler grants it the step.
    fn yield_op(&self, my: usize, op: DeclaredOp) {
        let mut st = self.lock();
        if st.abort {
            return;
        }
        st.threads[my].declared = Some(op);
        self.schedule_next(&mut st);
        while st.active != my && !st.abort {
            st = self.wait(st);
        }
    }

    /// Parks `my` until some thread writes `addr` (used by the stall gate:
    /// a parked model thread counts as "scheduled elsewhere" instead of
    /// spinning the DFS into its step budget).
    fn block_addr(&self, my: usize, addr: usize) {
        let mut st = self.lock();
        if st.abort {
            return;
        }
        st.threads[my].run = Run::Blocked(BlockTarget::Addr(addr));
        st.threads[my].declared = None;
        self.push_event(&mut st, my, Acc::Block, "block", addr);
        self.schedule_next(&mut st);
        while !st.abort {
            if st.active == my && st.threads[my].run == Run::Runnable {
                break;
            }
            st = self.wait(st);
        }
    }

    fn join_model(&self, my: usize, target: usize) {
        let mut st = self.lock();
        loop {
            if st.abort || st.threads[target].run == Run::Finished {
                return;
            }
            st.threads[my].run = Run::Blocked(BlockTarget::Join(target));
            st.threads[my].declared = None;
            self.push_event(&mut st, my, Acc::Block, "join", target);
            self.schedule_next(&mut st);
            while !st.abort {
                if st.active == my && st.threads[my].run == Run::Runnable {
                    break;
                }
                st = self.wait(st);
            }
        }
    }

    fn thread_finished(&self, my: usize, panic_msg: Option<String>) {
        let mut st = self.lock();
        st.threads[my].run = Run::Finished;
        st.threads[my].declared = None;
        self.push_event(&mut st, my, Acc::Exit, "exit", my);
        if let Some(m) = panic_msg {
            self.record_failure(&mut st, format!("thread T{my} panicked: {m}"));
        }
        for t in st.threads.iter_mut() {
            if t.run == Run::Blocked(BlockTarget::Join(my)) {
                t.run = Run::Runnable;
                t.declared = Some(DeclaredOp {
                    addr: 0,
                    acc: Acc::Resume,
                    name: "resume",
                });
            }
        }
        if st.threads.iter().all(|t| t.run == Run::Finished) {
            st.done = true;
            self.cv.notify_all();
            return;
        }
        if st.abort {
            self.cv.notify_all();
            return;
        }
        self.schedule_next(&mut st);
    }

    fn spawn_model(self: &Arc<Self>, f: Box<dyn FnOnce() + Send>) -> usize {
        let tid;
        {
            let mut st = self.lock();
            tid = st.threads.len();
            assert!(
                tid < MAX_THREADS,
                "orc-check: at most {MAX_THREADS} model threads"
            );
            if st.abort {
                // Aborting: semantics no longer matter, but join handles
                // must resolve — run the body inline as a finished thread.
                let mut t = ThreadSt::starting();
                t.run = Run::Finished;
                t.declared = None;
                st.threads.push(t);
                st.handles.push(None);
                drop(st);
                let _ = catch_unwind(AssertUnwindSafe(f));
                return tid;
            }
            st.threads.push(ThreadSt::starting());
            st.handles.push(None);
            let me = st.active;
            self.push_event(
                &mut st,
                if me == NONE { 0 } else { me },
                Acc::Spawn,
                "spawn",
                tid,
            );
        }
        let s2 = Arc::clone(self);
        let h = std::thread::Builder::new()
            .name(format!("orc-check-t{tid}"))
            .spawn(move || model_main(s2, tid, f))
            .expect("orc-check: OS thread spawn failed");
        self.lock().handles[tid] = Some(h);
        tid
    }
}

// ---------------------------------------------------------------------------
// Model-thread context + shim/hook entry points
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct ModelCtx {
    sched: Arc<Sched>,
    tid: usize,
}

thread_local! {
    static MODEL: RefCell<Option<ModelCtx>> = const { RefCell::new(None) };
}

/// The table [`explore`] installs into `orc_util::chk_hooks` while it runs.
static HOOKS: Hooks = Hooks {
    access,
    in_model,
    aborting,
    block_hint,
    alloc: hook_alloc,
    retire: hook_retire,
    unretire: hook_unretire,
    reclaim: hook_reclaim,
};
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

fn cur_ctx() -> Option<ModelCtx> {
    MODEL.try_with(|m| m.borrow().clone()).ok().flatten()
}

/// Declares the op and parks until the scheduler grants the step. No-op
/// outside a model thread.
fn access(addr: usize, acc: Acc, name: &'static str) {
    if let Some(ctx) = cur_ctx() {
        ctx.sched.yield_op(ctx.tid, DeclaredOp { addr, acc, name });
    }
}

fn in_model() -> bool {
    cur_ctx().is_some()
}

fn aborting() -> bool {
    cur_ctx().is_some_and(|ctx| ctx.sched.lock().abort)
}

/// Parks the model thread until another thread writes `addr`; a plain
/// scheduler yield on any other thread.
fn block_hint(addr: usize) {
    match cur_ctx() {
        Some(ctx) => ctx.sched.block_addr(ctx.tid, addr),
        None => std::thread::yield_now(),
    }
}

fn hook_alloc(ptr: usize, len: usize) {
    let Some(ctx) = cur_ctx() else { return };
    let mut st = ctx.sched.lock();
    let serial = st.shadow.insert(ptr, len);
    let step = st.step as u32;
    st.trace.push(TraceEv {
        step,
        tid: ctx.tid as u32,
        acc: Acc::Alloc,
        name: "alloc",
        addr: ptr,
        obj: Some((serial, 0)),
    });
}

fn hook_retire(ptr: usize) {
    let Some(ctx) = cur_ctx() else { return };
    let mut st = ctx.sched.lock();
    let step = st.step;
    match st.shadow.retire(ptr, step) {
        Ok(true) => ctx
            .sched
            .push_event(&mut st, ctx.tid, Acc::Retire, "retire", ptr),
        Ok(false) => {}
        Err(msg) => {
            ctx.sched
                .push_event(&mut st, ctx.tid, Acc::Retire, "retire", ptr);
            ctx.sched
                .record_failure(&mut st, format!("T{} retire: {msg}", ctx.tid));
        }
    }
}

fn hook_unretire(ptr: usize) {
    let Some(ctx) = cur_ctx() else { return };
    let mut st = ctx.sched.lock();
    if st.shadow.unretire(ptr) {
        ctx.sched
            .push_event(&mut st, ctx.tid, Acc::Unretire, "unretire", ptr);
    }
}

fn hook_reclaim(ptr: usize) -> ReclaimAction {
    let Some(ctx) = cur_ctx() else {
        return ReclaimAction::Free;
    };
    let mut st = ctx.sched.lock();
    let step = st.step;
    match st.shadow.reclaim(ptr, step) {
        Ok(Some(block)) => {
            // A free conflicts with every access to the block: it wakes
            // each sleeper whose next op touches it.
            st.wake(|d| block.contains(&d.addr));
            ctx.sched
                .push_event(&mut st, ctx.tid, Acc::Reclaim, "reclaim", ptr)
        }
        Ok(None) => {}
        Err(msg) => {
            ctx.sched
                .push_event(&mut st, ctx.tid, Acc::Reclaim, "reclaim", ptr);
            ctx.sched
                .record_failure(&mut st, format!("T{} reclaim: {msg}", ctx.tid));
        }
    }
    // Never free for real inside an exploration: address reuse would mask
    // use-after-reclaim and make a detected one physically unsafe to ride
    // through.
    ReclaimAction::Quarantine
}

// ---------------------------------------------------------------------------
// Model threads: spawn/join
// ---------------------------------------------------------------------------

/// Handle to a model thread created with [`spawn`].
pub struct JoinHandle {
    sched: Arc<Sched>,
    tid: usize,
}

impl JoinHandle {
    /// Blocks the calling model thread until the target finishes. A panic in
    /// the target is already recorded as a checker failure, so this returns
    /// `()` rather than a `Result`.
    pub fn join(self) {
        let ctx = cur_ctx().expect("check::JoinHandle::join called outside a model thread");
        self.sched.join_model(ctx.tid, self.tid);
    }

    /// Model thread id (T1, T2, ... in traces; T0 is the explore body).
    pub fn tid(&self) -> usize {
        self.tid
    }
}

/// Spawns a model thread. Must be called from inside an [`explore`] body;
/// threads spawned with `std::thread::spawn` would run unscheduled.
pub fn spawn<F: FnOnce() + Send + 'static>(f: F) -> JoinHandle {
    let ctx = cur_ctx().expect("check::spawn called outside an exploration body");
    let tid = ctx.sched.spawn_model(Box::new(f));
    JoinHandle {
        sched: ctx.sched,
        tid,
    }
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn model_main<F: FnOnce()>(sched: Arc<Sched>, tid: usize, f: F) {
    {
        let mut st = sched.lock();
        while st.active != tid && !st.abort {
            st = sched.wait(st);
        }
    }
    MODEL.with(|m| {
        *m.borrow_mut() = Some(ModelCtx {
            sched: Arc::clone(&sched),
            tid,
        })
    });
    let r = catch_unwind(AssertUnwindSafe(f));
    // Release this thread's registry tid *inside* the scheduled region so
    // scheme exit-cleanups (handover drains etc.) are themselves checked
    // steps, not an unscheduled TLS-destructor race.
    let r2 = catch_unwind(orc_util::registry::retire_thread);
    MODEL.with(|m| *m.borrow_mut() = None);
    let msg = r.err().or_else(|| r2.err()).map(panic_msg);
    sched.thread_finished(tid, msg);
}

// ---------------------------------------------------------------------------
// Controller + explorers
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RunOutcome {
    failure: Option<Box<Failure>>,
    steps: Vec<StepInfo>,
    trace: Vec<TraceEv>,
}

fn run_schedule<F>(
    cfg: &Config,
    body: &Arc<F>,
    deviations: Vec<Deviation>,
    rng: Option<XorShift64>,
) -> RunOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    if let Err(message) = orc_util::chk_hooks::reset() {
        let failure = Some(Box::new(Failure {
            message,
            ..Default::default()
        }));
        return RunOutcome {
            failure,
            ..Default::default()
        };
    }
    let sched = Arc::new(Sched::new(cfg, deviations, rng));
    {
        let mut st = sched.lock();
        st.threads.push(ThreadSt::starting());
        st.handles.push(None);
    }
    let s2 = Arc::clone(&sched);
    let b2 = Arc::clone(body);
    let main = std::thread::Builder::new()
        .name("orc-check-t0".into())
        .spawn(move || model_main(s2, 0, move || b2()))
        .expect("orc-check: OS thread spawn failed");
    {
        // Kick: commit T0's Start pseudo-op, then wait for quiescence.
        let mut st = sched.lock();
        sched.schedule_next(&mut st);
        while !st.done && !st.abort {
            st = sched.wait(st);
        }
    }
    let _ = main.join();
    loop {
        // Under abort a model thread may still be mid-spawn; drain until
        // every handle has been joined.
        let handles: Vec<_> = sched
            .lock()
            .handles
            .iter_mut()
            .filter_map(Option::take)
            .collect();
        if handles.is_empty() {
            break;
        }
        for h in handles {
            let _ = h.join();
        }
    }
    let mut st = sched.lock();
    if let Some(&d) = st.deviations.get(st.next_dev) {
        let msg = format!(
            "replay diverged: the run ended at step {} before step {}, where its parent \
             schedule deviates to T{} (the body is nondeterministic)",
            st.step, d.step, d.tid
        );
        sched.record_failure(&mut st, msg);
    }
    if st.failure.is_none() && !st.abort && cfg.check_leaks {
        if let Some(msg) = st.shadow.leak_report() {
            sched.record_failure(&mut st, msg);
        }
    }
    let mut failure = st.failure.take().map(Box::new);
    let mut trace = std::mem::take(&mut st.trace);
    if let Some(f) = failure.as_mut() {
        f.trace = std::mem::take(&mut trace);
        f.schedule = st
            .deviations
            .iter()
            .chain(st.recorded.iter())
            .map(|d| (d.step, d.tid))
            .collect();
    }
    RunOutcome {
        failure,
        steps: std::mem::take(&mut st.steps),
        trace,
    }
}

/// Addresses accessed by ≥ 2 threads with ≥ 1 write in this trace, a free
/// counting as a write of its whole block: the only places a preemption
/// can change the outcome (private ops commute).
fn conflict_addrs(trace: &[TraceEv]) -> HashSet<usize> {
    let mut acc: HashMap<usize, (HashSet<u32>, bool)> = HashMap::new();
    // A free writes its whole block: every other thread's access to the
    // block conflicts with it.
    let mut freer: HashMap<u64, u32> = HashMap::new();
    for ev in trace {
        if ev.acc.is_mem() {
            let e = acc.entry(ev.addr).or_default();
            e.0.insert(ev.tid);
            e.1 |= ev.acc.is_write();
        } else if let (Acc::Reclaim, Some((serial, _))) = (ev.acc, ev.obj) {
            freer.insert(serial, ev.tid);
        }
    }
    let freed_by_another = |ev: &&TraceEv| {
        let by = ev.obj.and_then(|(serial, _)| freer.get(&serial));
        ev.acc.is_mem() && by.is_some_and(|&t| t != ev.tid)
    };
    let freed = trace.iter().filter(freed_by_another).map(|ev| ev.addr);
    acc.iter()
        .filter(|(_, (tids, w))| tids.len() >= 2 && *w)
        .map(|(&a, _)| a)
        .chain(freed)
        .collect()
}

struct Pending {
    devs: Vec<Deviation>,
    preemptions: usize,
}

fn explore_exhaustive<F>(cfg: &Config, body: &Arc<F>) -> Result<Report, Box<Failure>>
where
    F: Fn() + Send + Sync + 'static,
{
    let bound = cfg.preemption_bound;
    let mut buckets: Vec<Vec<Pending>> = (0..=bound).map(|_| Vec::new()).collect();
    buckets[0].push(Pending {
        devs: Vec::new(),
        preemptions: 0,
    });
    let mut schedules = 0usize;
    let mut steps_total = 0u64;
    let mut truncated = false;
    'buckets: for p in 0..=bound {
        while let Some(cand) = buckets[p].pop() {
            if schedules >= cfg.max_schedules {
                truncated = true;
                break 'buckets;
            }
            schedules += 1;
            let out = run_schedule(cfg, body, cand.devs.clone(), None);
            steps_total += out.steps.len() as u64;
            if let Some(mut f) = out.failure {
                f.schedules_explored = schedules;
                return Err(f);
            }
            // Children: deviate at steps strictly past this schedule's last
            // deviation (earlier alternatives are this node's siblings,
            // generated by its parent).
            let start = cand.devs.last().map(|d| d.step + 1).unwrap_or(0);
            let conflicts = conflict_addrs(&out.trace);
            for (s, info) in out.steps.iter().enumerate().skip(start) {
                if info.cands.len() < 2 || info.chosen == NONE {
                    continue;
                }
                let Some(chosen) = info.cands.iter().find(|c| c.tid == info.chosen) else {
                    continue;
                };
                let eligible = info.free || (chosen.mem && conflicts.contains(&chosen.addr));
                if !eligible {
                    continue;
                }
                let cost = usize::from(!info.free);
                if cand.preemptions + cost > bound {
                    continue;
                }
                let mut sib_sleep = info.sleeping | bit(chosen.tid);
                for alt in info.cands.iter().filter(|c| c.tid != info.chosen) {
                    let asleep = info.sleeping & bit(alt.tid) != 0;
                    if !asleep && !alt.spun {
                        let mut devs = cand.devs.clone();
                        devs.push(Deviation {
                            step: s,
                            tid: alt.tid,
                            sleep: sib_sleep,
                        });
                        buckets[cand.preemptions + cost].push(Pending {
                            devs,
                            preemptions: cand.preemptions + cost,
                        });
                    }
                    sib_sleep |= bit(alt.tid);
                }
            }
        }
    }
    Ok(Report {
        schedules,
        steps: steps_total,
        truncated,
        preemption_bound: bound,
    })
}

fn explore_random<F>(
    cfg: &Config,
    body: &Arc<F>,
    schedules: usize,
    seed: u64,
) -> Result<Report, Box<Failure>>
where
    F: Fn() + Send + Sync + 'static,
{
    let mut steps_total = 0u64;
    for i in 0..schedules {
        let rng =
            XorShift64::new(seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let out = run_schedule(cfg, body, Vec::new(), Some(rng));
        steps_total += out.steps.len() as u64;
        if let Some(mut f) = out.failure {
            f.schedules_explored = i + 1;
            return Err(f);
        }
    }
    Ok(Report {
        schedules,
        steps: steps_total,
        truncated: false,
        preemption_bound: 0,
    })
}

/// Runs `body` under every schedule the configured mode generates. Returns
/// the exploration summary, or the first property violation with a
/// deterministic, replayable trace.
///
/// `body` is re-invoked once per schedule; it must be self-contained
/// (construct its own shared state, spawn model threads with [`spawn`],
/// join them) and deterministic apart from scheduling. Explorations are
/// serialized process-wide.
///
/// Each schedule starts from one process state (`orc_util::chk_hooks::reset`),
/// so a thread outside the model that holds a registry tid fails it.
pub fn explore<F>(cfg: Config, body: F) -> Result<Report, Box<Failure>>
where
    F: Fn() + Send + Sync + 'static,
{
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    struct Installed;
    impl Drop for Installed {
        fn drop(&mut self) {
            orc_util::chk_hooks::install(None);
        }
    }
    orc_util::chk_hooks::install(Some(&HOOKS));
    let _installed = Installed;
    let body = Arc::new(body);
    match cfg.mode {
        CheckMode::Exhaustive => explore_exhaustive(&cfg, &body),
        CheckMode::Random { schedules, seed } => explore_random(&cfg, &body, schedules, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orc_util::atomics::{AtomicUsize, Ordering};
    use orc_util::chk_hooks::{on_alloc, on_reclaim, on_retire};

    const PINNED_LOST_UPDATE: usize = 7;
    const PINNED_TORN_READ: usize = 3;

    fn small(bound: usize) -> Config {
        Config {
            preemption_bound: bound,
            check_leaks: false,
            ..Config::default()
        }
    }

    #[test]
    fn finds_lost_update() {
        // Non-atomic increment (load; store) by two threads: some schedule
        // loses an update and the final assert panics.
        let err = explore(small(1), || {
            assert_eq!(lost_update_body(), 2, "lost update");
        })
        .expect_err("exploration must find the lost update");
        assert!(err.message.contains("lost update"), "got: {}", err.message);
        assert!(!err.trace.is_empty());
    }

    /// The one failing order is T1 load, T0 store, T1 load: a child that
    /// first runs T1 must wake T0 at T1's first load of `x`, an untracked
    /// heap word that a fresh run allocates at another address.
    #[test]
    fn a_sleeper_on_an_untracked_heap_word_wakes_in_the_child() {
        let err = explore(small(2), || torn_read_body(true))
            .expect_err("exploration must put the store between the loads");
        assert!(err.message.contains("torn read"), "got: {}", err.message);
    }

    /// T0's load is its only access to a block T1 frees, so only a
    /// preemption that counts the free as a write of the block puts the
    /// free first.
    #[test]
    fn a_free_conflicts_with_another_thread_s_access_to_the_block() {
        let err = explore(small(1), || {
            let cell: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(7)));
            let addr = cell as *const AtomicUsize as usize;
            on_alloc(addr, std::mem::size_of::<AtomicUsize>());
            let freer = spawn(move || {
                on_retire(addr);
                assert_eq!(on_reclaim(addr), ReclaimAction::Quarantine);
            });
            cell.load(Ordering::SeqCst);
            freer.join();
        })
        .expect_err("exploration must run the free before the load");
        assert!(
            err.message.contains("use-after-reclaim"),
            "got: {}",
            err.message
        );
    }

    /// Two threads' `load; store` increments of one word.
    fn lost_update_body() -> usize {
        let x = Arc::new(AtomicUsize::new(0));
        let hs: Vec<JoinHandle> = (0..2)
            .map(|_| {
                let x = Arc::clone(&x);
                spawn(move || {
                    let v = x.load(Ordering::SeqCst);
                    x.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in hs {
            h.join();
        }
        x.load(Ordering::SeqCst)
    }

    /// A reader loads a fresh heap word twice while T0 stores to it.
    fn torn_read_body(check: bool) {
        let x = Arc::new(AtomicUsize::new(0));
        let reader = {
            let x = Arc::clone(&x);
            spawn(move || {
                let first = x.load(Ordering::SeqCst);
                let second = x.load(Ordering::SeqCst);
                assert!(!check || first == second, "torn read");
            })
        };
        x.store(1, Ordering::SeqCst);
        reader.join();
    }

    /// Pins the explorer's reductions: a change to the sleep sets, the
    /// conflict filter or the preemption accounting moves these counts.
    #[test]
    fn the_lost_update_model_explores_a_pinned_number_of_schedules() {
        let report = explore(small(2), || {
            lost_update_body();
        })
        .expect("no assertion to fail");
        assert_eq!(report.schedules, PINNED_LOST_UPDATE, "{report:?}");
        assert!(!report.truncated);
    }

    /// As above, for the model whose sleeper sits on an untracked heap word.
    #[test]
    fn the_untracked_heap_sleeper_model_explores_a_pinned_number_of_schedules() {
        let report = explore(small(2), || torn_read_body(false)).expect("no assertion to fail");
        assert_eq!(report.schedules, PINNED_TORN_READ, "{report:?}");
        assert!(!report.truncated);
    }

    /// Only the first run spawns the thread its child schedule deviates
    /// to, so the child's replay drifts from its parent.
    #[test]
    fn a_replay_that_drifts_from_its_parent_is_a_failure() {
        static RUNS: Mutex<usize> = Mutex::new(0);
        let err = explore(small(1), || {
            let first = {
                let mut runs = RUNS.lock().unwrap();
                *runs += 1;
                *runs == 1
            };
            if first {
                let x = Arc::new(AtomicUsize::new(0));
                let writer = {
                    let x = Arc::clone(&x);
                    spawn(move || x.store(1, Ordering::SeqCst))
                };
                x.load(Ordering::SeqCst);
                writer.join();
            }
        })
        .expect_err("a nondeterministic body must fail");
        assert!(
            err.message.contains("replay diverged"),
            "got: {}",
            err.message
        );
        assert_eq!(err.schedules_explored, 2);
    }

    #[test]
    fn atomic_rmw_has_no_lost_update() {
        let report = explore(small(2), || {
            let x = Arc::new(AtomicUsize::new(0));
            let hs: Vec<JoinHandle> = (0..2)
                .map(|_| {
                    let x = Arc::clone(&x);
                    spawn(move || {
                        x.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in hs {
                h.join();
            }
            assert_eq!(x.load(Ordering::SeqCst), 2);
        })
        .expect("fetch_add increments commute");
        assert!(report.schedules >= 2, "expected branching, got {report:?}");
        assert!(!report.truncated);
    }

    #[test]
    fn failing_schedule_is_deterministic() {
        let run = || {
            explore(small(1), || {
                let x = Arc::new(AtomicUsize::new(0));
                let x2 = Arc::clone(&x);
                let h = spawn(move || {
                    let v = x2.load(Ordering::SeqCst);
                    x2.store(v + 1, Ordering::SeqCst);
                });
                let v = x.load(Ordering::SeqCst);
                x.store(v + 1, Ordering::SeqCst);
                h.join();
                assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
            })
            .expect_err("must fail")
        };
        let a = run();
        let b = run();
        assert_eq!(a.schedule, b.schedule, "replay schedule must be stable");
        assert_eq!(a.schedules_explored, b.schedules_explored);
        assert_eq!(a.trace.len(), b.trace.len());
    }

    #[test]
    fn shadow_heap_reports_use_after_reclaim() {
        let err = explore(small(0), || {
            let cell: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(7)));
            let addr = cell as *const AtomicUsize as usize;
            on_alloc(addr, std::mem::size_of::<AtomicUsize>());
            assert_eq!(cell.load(Ordering::SeqCst), 7); // live: fine
            on_retire(addr);
            assert_eq!(on_reclaim(addr), ReclaimAction::Quarantine);
            cell.load(Ordering::SeqCst); // use-after-reclaim
        })
        .expect_err("UAF must be detected");
        assert!(
            err.message.contains("use-after-reclaim"),
            "got: {}",
            err.message
        );
    }

    #[test]
    fn shadow_heap_reports_double_retire_and_leak() {
        let err = explore(small(0), || {
            let cell: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));
            let addr = cell as *const AtomicUsize as usize;
            on_alloc(addr, 8);
            on_retire(addr);
            on_retire(addr);
        })
        .expect_err("double retire must be detected");
        assert!(
            err.message.contains("double retire"),
            "got: {}",
            err.message
        );

        let cfg = Config {
            preemption_bound: 0,
            ..Config::default()
        };
        let err = explore(cfg, || {
            let cell: &'static AtomicUsize = Box::leak(Box::new(AtomicUsize::new(0)));
            on_alloc(cell as *const AtomicUsize as usize, 8);
            // never reclaimed -> leak at quiescence
        })
        .expect_err("leak must be detected");
        assert!(err.message.contains("leak"), "got: {}", err.message);
    }

    #[test]
    fn block_hint_parks_until_release_write() {
        let report = explore(small(1), || {
            let gate = Arc::new(AtomicUsize::new(0));
            let g2 = Arc::clone(&gate);
            let h = spawn(move || {
                while g2.load(Ordering::SeqCst) == 0 {
                    block_hint(g2.as_ptr() as usize);
                }
            });
            gate.store(1, Ordering::SeqCst);
            h.join();
        })
        .expect("gate handshake must quiesce under every schedule");
        assert!(report.schedules >= 1);
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let err = explore(small(0), || {
            let gate = Arc::new(AtomicUsize::new(0));
            // Nobody will ever write the gate: the model thread blocks
            // forever and the scheduler must report a deadlock.
            let g2 = Arc::clone(&gate);
            let h = spawn(move || {
                while g2.load(Ordering::SeqCst) == 0 && !aborting() {
                    block_hint(g2.as_ptr() as usize);
                }
            });
            h.join();
        })
        .expect_err("deadlock must be detected");
        assert!(err.message.contains("deadlock"), "got: {}", err.message);
    }

    #[test]
    fn random_mode_is_reproducible() {
        let cfg = Config {
            mode: CheckMode::Random {
                schedules: 40,
                seed: 42,
            },
            check_leaks: false,
            ..Config::default()
        };
        let run = |cfg: Config| {
            explore(cfg, || {
                let x = Arc::new(AtomicUsize::new(0));
                let x2 = Arc::clone(&x);
                let h = spawn(move || {
                    let v = x2.load(Ordering::SeqCst);
                    x2.store(v + 1, Ordering::SeqCst);
                });
                let v = x.load(Ordering::SeqCst);
                x.store(v + 1, Ordering::SeqCst);
                h.join();
                assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
            })
        };
        let a = run(cfg.clone());
        let b = run(cfg);
        match (a, b) {
            (Ok(ra), Ok(rb)) => assert_eq!(ra.schedules, rb.schedules),
            (Err(fa), Err(fb)) => {
                assert_eq!(fa.schedule, fb.schedule);
                assert_eq!(fa.schedules_explored, fb.schedules_explored);
            }
            _ => panic!("random mode diverged between identical seeds"),
        }
    }
}
