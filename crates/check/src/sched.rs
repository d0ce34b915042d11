//! The cooperative virtual scheduler.
//!
//! Each virtual thread ("vthread") is a real OS thread, but only one
//! runs at a time: a baton is passed at instrumented *yield points*
//! (mutex lock/unlock, condvar wait/notify, atomic accesses, spawns,
//! sleeps). Which thread receives the baton is decided by a pluggable
//! [`Decider`], so a whole execution is reproducible from either a
//! 64-bit seed or a recorded decision trace.
//!
//! On top of the baton the scheduler keeps logical state — who holds
//! which mutex, who waits on which condvar, per-thread vector clocks —
//! which is what makes deadlock, lost-wakeup, and happens-before race
//! detection possible without any `unsafe`: the *data* always sits
//! behind real `std::sync` primitives; only the *schedule* is virtual.
//!
//! Time is virtual too: a timed wait or a sleep arms a timer in a heap
//! ordered `(deadline, insertion sequence)`, and the clock advances
//! only when no vthread can run — then every timer due at the earliest
//! deadline fires at once and the decider picks among the woken, so a
//! trace replays its timestamps exactly.
//!
//! Teardown protocol: when a fatal finding is recorded the scheduler
//! sets an `abort` flag and wakes every parked vthread. Blocking entry
//! points then unwind with a private [`CheckAbort`] payload — unless
//! the calling thread is already panicking, in which case they degrade
//! to silent passthrough so `Drop` impls never double-panic.

use crate::clock::VClock;
use crate::report::{BlockInfo, Finding};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::sync::{Arc, Condvar as OsCondvar, Mutex as OsMutex, MutexGuard as OsGuard};
use std::time::{Duration, Instant};

/// Panic payload used to unwind vthreads during execution teardown.
/// Never escapes the explorer: it is caught and swallowed there.
pub(crate) struct CheckAbort;

/// Sentinel for "no thread holds the baton" (all finished).
const NOBODY: usize = usize::MAX;

// ---------------------------------------------------------------------------
// Deciders
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, seedable, good enough to scatter schedules.
#[derive(Clone, Debug)]
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One recorded branch point: `options` alternatives existed, `taken`
/// was chosen. Forced moves (a single runnable thread) are not
/// recorded, so a trace is exactly the schedule's decision string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Choice {
    pub options: u8,
    pub taken: u8,
}

/// Schedule decision source.
pub(crate) enum Decider {
    /// Seeded pseudo-random choices (replayable from the seed).
    Random(SplitMix64),
    /// Follow `script` while it lasts, then always take option 0. Used
    /// both for DFS exploration (script = prefix to revisit) and for
    /// replaying a recorded trace.
    Scripted { script: Vec<Choice>, pos: usize },
}

impl Decider {
    fn choose(&mut self, options: usize) -> usize {
        debug_assert!(options >= 2);
        match self {
            Decider::Random(rng) => rng.below(options),
            Decider::Scripted { script, pos } => {
                let taken = match script.get(*pos) {
                    Some(c) => (c.taken as usize).min(options - 1),
                    None => 0,
                };
                *pos += 1;
                taken
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduler state
// ---------------------------------------------------------------------------

enum Status {
    Runnable,
    Blocked(BlockInfo),
    /// In `thread::sleep`: only its timer wakes it.
    Sleeping,
    Finished,
}

struct VThread {
    status: Status,
    /// Per-thread parking condvar: the baton is handed over by waking
    /// exactly the chosen thread, not the whole herd.
    park: Arc<OsCondvar>,
    clock: VClock,
    /// Set when the scheduler resumed this thread by firing its timer
    /// instead of a notification.
    timed_out: bool,
}

/// Logical state of a mutex / condvar / atomic, keyed by address.
#[derive(Default)]
struct ObjState {
    clock: VClock,
    holder: Option<usize>,
}

struct CellAccess {
    thread: usize,
    clock: VClock,
}

/// Race-detector state for one [`crate::sync::RaceCell`].
struct CellState {
    name: &'static str,
    write: Option<CellAccess>,
    reads: Vec<CellAccess>,
    reported: bool,
}

struct SchedState {
    threads: Vec<VThread>,
    /// Baton holder (vthread id), or [`NOBODY`].
    current: usize,
    decider: Decider,
    trace: Vec<Choice>,
    steps: u64,
    step_limit: u64,
    objects: HashMap<usize, ObjState>,
    cells: HashMap<usize, CellState>,
    findings: Vec<Finding>,
    abort: bool,
    /// Virtual time zero, and virtual time since it.
    epoch: Instant,
    now: Duration,
    /// Armed timers `(deadline, step armed at, vthread)`, earliest
    /// first; a vthread has at most one.
    timers: BinaryHeap<Reverse<(Duration, u64, usize)>>,
    /// Detached vthreads and their OS threads, joined when the
    /// explored body ends.
    detached: Vec<(usize, std::thread::JoinHandle<()>)>,
}

/// Handle to one execution's scheduler. Cheap to clone.
#[derive(Clone)]
pub(crate) struct Sched(Arc<OsMutex<SchedState>>);

fn unpoison<'a, T>(
    r: Result<OsGuard<'a, T>, std::sync::PoisonError<OsGuard<'a, T>>>,
) -> OsGuard<'a, T> {
    r.unwrap_or_else(|e| e.into_inner())
}

/// Unwind with the teardown payload unless this thread is already
/// unwinding (drop-during-panic must not double-panic).
fn abort_unwind() -> ! {
    debug_assert!(!std::thread::panicking());
    std::panic::panic_any(CheckAbort)
}

impl Sched {
    pub(crate) fn new(decider: Decider, step_limit: u64) -> Self {
        let main = VThread {
            status: Status::Runnable,
            park: Arc::new(OsCondvar::new()),
            clock: {
                let mut c = VClock::new();
                c.bump(0);
                c
            },
            timed_out: false,
        };
        Sched(Arc::new(OsMutex::new(SchedState {
            threads: vec![main],
            current: 0,
            decider,
            trace: Vec::new(),
            steps: 0,
            step_limit,
            objects: HashMap::new(),
            cells: HashMap::new(),
            findings: Vec::new(),
            abort: false,
            epoch: Instant::now(),
            now: Duration::ZERO,
            timers: BinaryHeap::new(),
            detached: Vec::new(),
        })))
    }

    /// A decision among `options` alternatives that the explored code
    /// itself asks for (a seeded fault draw). Recorded like a schedule
    /// choice, so a seed or a trace replays it.
    pub(crate) fn draw(&self, options: usize) -> usize {
        if options < 2 {
            return 0;
        }
        Self::choose(&mut self.lock(), options)
    }

    /// The execution's current virtual instant.
    pub(crate) fn now(&self) -> Instant {
        let st = self.lock();
        st.epoch + st.now
    }

    fn lock(&self) -> OsGuard<'_, SchedState> {
        unpoison(self.0.lock())
    }

    // -- baton machinery ----------------------------------------------------

    /// Record a decision among `options` alternatives.
    fn choose(st: &mut SchedState, options: usize) -> usize {
        let taken = st.decider.choose(options);
        st.trace.push(Choice {
            options: options.min(u8::MAX as usize) as u8,
            taken: taken as u8,
        });
        taken
    }

    /// Pick the next baton holder and wake it. When nothing is
    /// runnable, advances virtual time to the earliest timer; when no
    /// timer is pending either, records a lost wakeup (someone is
    /// parked on a condvar) or a deadlock, and aborts.
    fn resched(&self, st: &mut SchedState) {
        loop {
            let runnable: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::Runnable))
                .map(|(i, _)| i)
                .collect();
            if !runnable.is_empty() {
                let idx = if runnable.len() == 1 {
                    0
                } else {
                    Self::choose(st, runnable.len())
                };
                st.current = runnable[idx];
                st.threads[st.current].park.notify_all();
                return;
            }
            if let Some(&Reverse((at, _, _))) = st.timers.peek() {
                st.now = st.now.max(at);
                while let Some(&Reverse((due, _, t))) = st.timers.peek() {
                    if due > at {
                        break;
                    }
                    st.timers.pop();
                    st.threads[t].status = Status::Runnable;
                    st.threads[t].timed_out = true;
                }
                continue;
            }
            if st
                .threads
                .iter()
                .all(|t| matches!(t.status, Status::Finished))
            {
                st.current = NOBODY;
                return;
            }
            let mut threads = BTreeMap::new();
            for (i, t) in st.threads.iter().enumerate() {
                if let Status::Blocked(info) = &t.status {
                    threads.insert(i, info.clone());
                }
            }
            let parked = (threads.values()).any(|b| matches!(b, BlockInfo::Condvar { .. }));
            st.findings.push(if parked {
                Finding::LostWakeup { threads }
            } else {
                Finding::Deadlock { threads }
            });
            Self::abort_all(st);
            return;
        }
    }

    /// Arm `me`'s timer to fire `after` from now. Every yield point is
    /// its own step, so the step count is the insertion sequence.
    fn arm(st: &mut SchedState, me: usize, after: Duration) {
        let at = st.now.saturating_add(after);
        st.timers.push(Reverse((at, st.steps, me)));
    }

    /// Set the abort flag and wake every parked vthread so it can
    /// unwind.
    fn abort_all(st: &mut SchedState) {
        st.abort = true;
        for t in &st.threads {
            t.park.notify_all();
        }
    }

    /// Park until this thread holds the baton (or the execution is
    /// aborting — the caller must check `abort` on return).
    fn park<'a>(&'a self, mut st: OsGuard<'a, SchedState>, me: usize) -> OsGuard<'a, SchedState> {
        loop {
            if st.abort || (st.current == me && matches!(st.threads[me].status, Status::Runnable)) {
                return st;
            }
            let cv = st.threads[me].park.clone();
            st = unpoison(cv.wait(st));
        }
    }

    /// Hand the baton over (my status must already be set) and park
    /// until it comes back.
    fn switch<'a>(&'a self, mut st: OsGuard<'a, SchedState>, me: usize) -> OsGuard<'a, SchedState> {
        self.resched(&mut st);
        self.park(st, me)
    }

    /// Common entry for yield points: refuse when already unwinding
    /// (returns `None` → passthrough), unwind on abort, count the step.
    fn enter(&self, _me: usize) -> Option<OsGuard<'_, SchedState>> {
        if std::thread::panicking() {
            return None;
        }
        let mut st = self.lock();
        if st.abort {
            drop(st);
            abort_unwind();
        }
        st.steps += 1;
        if st.steps > st.step_limit {
            let steps = st.steps;
            st.findings.push(Finding::StepLimit { steps });
            Self::abort_all(&mut st);
            drop(st);
            abort_unwind();
        }
        Some(st)
    }

    /// Final abort check after a switch; unwinds if teardown started
    /// while we were parked.
    fn leave(&self, st: OsGuard<'_, SchedState>) {
        if st.abort {
            drop(st);
            abort_unwind();
        }
    }

    // -- yield points -------------------------------------------------------

    /// Pure preemption point (spawn, pre-op scheduling choice).
    pub(crate) fn yield_now(&self, me: usize) {
        let Some(st) = self.enter(me) else { return };
        let st = self.switch(st, me);
        self.leave(st);
    }

    /// Block for `dur` of virtual time.
    pub(crate) fn sleep(&self, me: usize, dur: Duration) {
        let Some(mut st) = self.enter(me) else { return };
        Self::arm(&mut st, me, dur);
        st.threads[me].status = Status::Sleeping;
        let mut st = self.switch(st, me);
        st.threads[me].timed_out = false;
        self.leave(st);
    }

    /// Logical mutex acquisition (blocks; detects self-deadlock).
    pub(crate) fn mutex_lock(&self, me: usize, addr: usize) {
        let Some(st) = self.enter(me) else { return };
        // Preemption point *before* acquiring: lock-order races are the
        // main scheduling freedom worth exploring.
        let mut st = self.switch(st, me);
        loop {
            if st.abort {
                break;
            }
            let holder = st.objects.entry(addr).or_default().holder;
            match holder {
                None => {
                    let obj_clock = st.objects[&addr].clock.clone();
                    st.threads[me].clock.join(&obj_clock);
                    st.objects.get_mut(&addr).expect("object registered").holder = Some(me);
                    break;
                }
                Some(h) if h == me => {
                    st.findings.push(Finding::SelfDeadlock {
                        thread: me,
                        mutex: addr,
                    });
                    Self::abort_all(&mut st);
                    break;
                }
                Some(_) => {
                    st.threads[me].status = Status::Blocked(BlockInfo::Mutex(addr));
                    st = self.switch(st, me);
                }
            }
        }
        self.leave(st);
    }

    /// Logical mutex release: publish my clock, wake contenders. Safe
    /// to call while panicking (teardown) — it then only cleans up.
    pub(crate) fn mutex_unlock(&self, me: usize, addr: usize) {
        let panicking = std::thread::panicking();
        let mut st = self.lock();
        let my_clock = st.threads[me].clock.clone();
        let obj = st.objects.entry(addr).or_default();
        if obj.holder == Some(me) {
            obj.holder = None;
        }
        obj.clock.join(&my_clock);
        st.threads[me].clock.bump(me);
        for t in st.threads.iter_mut() {
            if matches!(t.status, Status::Blocked(BlockInfo::Mutex(a)) if a == addr) {
                t.status = Status::Runnable;
            }
        }
        if panicking {
            return;
        }
        if st.abort {
            drop(st);
            abort_unwind();
        }
        let st = self.switch(st, me);
        self.leave(st);
    }

    /// Logical condvar wait: releases `lock_addr`, blocks on `cv_addr`
    /// (for at most `timeout` of virtual time), re-acquires. Returns
    /// true iff resumed by the timer rather than a notification.
    pub(crate) fn condvar_wait(
        &self,
        me: usize,
        cv_addr: usize,
        lock_addr: usize,
        timeout: Option<Duration>,
    ) -> bool {
        let Some(mut st) = self.enter(me) else {
            return false;
        };
        // Release the mutex (same bookkeeping as mutex_unlock, minus
        // the preemption point — blocking below is the yield).
        let my_clock = st.threads[me].clock.clone();
        let obj = st.objects.entry(lock_addr).or_default();
        if obj.holder == Some(me) {
            obj.holder = None;
        }
        obj.clock.join(&my_clock);
        st.threads[me].clock.bump(me);
        for t in st.threads.iter_mut() {
            if matches!(t.status, Status::Blocked(BlockInfo::Mutex(a)) if a == lock_addr) {
                t.status = Status::Runnable;
            }
        }
        if let Some(after) = timeout {
            Self::arm(&mut st, me, after);
        }
        st.threads[me].status = Status::Blocked(BlockInfo::Condvar {
            cv: cv_addr,
            lock: lock_addr,
        });
        let mut st = self.switch(st, me);
        if st.abort {
            drop(st);
            abort_unwind();
        }
        let timed_out = std::mem::take(&mut st.threads[me].timed_out);
        if !timed_out {
            // Happens-before edge from the notifier. A timeout creates
            // no such edge — hiding races behind timer wakeups would
            // defeat the detector.
            let cv_clock = st.objects.entry(cv_addr).or_default().clock.clone();
            st.threads[me].clock.join(&cv_clock);
        }
        drop(st);
        self.mutex_lock(me, lock_addr);
        timed_out
    }

    /// Logical notify: wake one (decider-chosen) or all waiters.
    pub(crate) fn condvar_notify(&self, me: usize, cv_addr: usize, all: bool) {
        let Some(mut st) = self.enter(me) else { return };
        let my_clock = st.threads[me].clock.clone();
        st.objects.entry(cv_addr).or_default().clock.join(&my_clock);
        st.threads[me].clock.bump(me);
        let waiters: Vec<usize> = st
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(t.status, Status::Blocked(BlockInfo::Condvar { cv, .. }) if cv == cv_addr)
            })
            .map(|(i, _)| i)
            .collect();
        let woken = match waiters.len() {
            0 => &[][..],
            _ if all => &waiters[..],
            1 => &waiters[..1],
            n => {
                let idx = Self::choose(&mut st, n);
                &waiters[idx..=idx]
            }
        };
        for &w in woken {
            st.threads[w].status = Status::Runnable;
        }
        // A notified waiter's timer is discarded.
        st.timers.retain(|Reverse((_, _, t))| !woken.contains(t));
        let st = self.switch(st, me);
        self.leave(st);
    }

    /// Yield + happens-before bookkeeping for an atomic access. The
    /// caller performs the real `std` atomic op immediately after,
    /// while still holding the baton.
    pub(crate) fn atomic_access(&self, me: usize, addr: usize, acquire: bool, release: bool) {
        let Some(st) = self.enter(me) else { return };
        let mut st = self.switch(st, me);
        if st.abort {
            drop(st);
            abort_unwind();
        }
        if acquire {
            let obj_clock = st.objects.entry(addr).or_default().clock.clone();
            st.threads[me].clock.join(&obj_clock);
        }
        if release {
            let my_clock = st.threads[me].clock.clone();
            st.objects.entry(addr).or_default().clock.join(&my_clock);
            st.threads[me].clock.bump(me);
        }
    }

    /// Race-detector access to a [`crate::sync::RaceCell`].
    pub(crate) fn cell_access(&self, me: usize, addr: usize, name: &'static str, write: bool) {
        let Some(st) = self.enter(me) else { return };
        let mut st = self.switch(st, me);
        if st.abort {
            drop(st);
            abort_unwind();
        }
        let my_clock = st.threads[me].clock.clone();
        let mut race: Option<Finding> = None;
        let cell = st.cells.entry(addr).or_insert_with(|| CellState {
            name,
            write: None,
            reads: Vec::new(),
            reported: false,
        });
        let conflict = |prev: &CellAccess| -> bool {
            prev.thread != me && prev.clock.concurrent_with(&my_clock)
        };
        if let Some(w) = &cell.write {
            if conflict(w) {
                race = Some(Finding::Race {
                    cell: cell.name,
                    first_thread: w.thread,
                    second_thread: me,
                    second_is_write: write,
                });
            }
        }
        if write {
            for r in &cell.reads {
                if race.is_none() && conflict(r) {
                    race = Some(Finding::Race {
                        cell: cell.name,
                        first_thread: r.thread,
                        second_thread: me,
                        second_is_write: true,
                    });
                }
            }
            cell.write = Some(CellAccess {
                thread: me,
                clock: my_clock,
            });
            cell.reads.clear();
        } else {
            cell.reads.retain(|r| r.thread != me);
            cell.reads.push(CellAccess {
                thread: me,
                clock: my_clock,
            });
        }
        if let Some(f) = race {
            if !cell.reported {
                cell.reported = true;
                st.findings.push(f);
            }
        }
    }

    // -- thread lifecycle ---------------------------------------------------

    /// Register a child vthread; the parent keeps the baton until its
    /// next yield point.
    pub(crate) fn register_child(&self, parent: usize) -> usize {
        let mut st = self.lock();
        if st.abort && !std::thread::panicking() {
            drop(st);
            abort_unwind();
        }
        let tid = st.threads.len();
        let mut clock = st.threads[parent].clock.clone();
        clock.bump(tid);
        st.threads.push(VThread {
            status: Status::Runnable,
            park: Arc::new(OsCondvar::new()),
            clock,
            timed_out: false,
        });
        st.threads[parent].clock.bump(parent);
        tid
    }

    /// First park of a freshly spawned vthread: wait to be scheduled.
    pub(crate) fn thread_started(&self, me: usize) {
        let st = self.lock();
        let st = self.park(st, me);
        self.leave(st);
    }

    /// Mark a vthread finished, wake joiners, pass the baton on. Never
    /// unwinds (it is the tail of both normal and panicking exits).
    pub(crate) fn finish_thread(&self, me: usize) {
        let mut st = self.lock();
        st.threads[me].status = Status::Finished;
        st.threads[me].clock.bump(me);
        for t in st.threads.iter_mut() {
            if matches!(t.status, Status::Blocked(BlockInfo::Join)) {
                t.status = Status::Runnable;
            }
        }
        if !st.abort {
            self.resched(&mut st);
        }
    }

    /// Records the OS thread behind detached vthread `tid`, and reaps
    /// the OS threads of detached vthreads already finished: a long
    /// execution spawns many short-lived ones.
    pub(crate) fn add_detached(&self, tid: usize, handle: std::thread::JoinHandle<()>) {
        let mut st = self.lock();
        let (done, live): (Vec<_>, Vec<_>) = std::mem::take(&mut st.detached)
            .into_iter()
            .partition(|d| matches!(st.threads[d.0].status, Status::Finished));
        st.detached = live;
        st.detached.push((tid, handle));
        drop(st);
        for (_, h) in done {
            h.join().ok();
        }
    }

    /// Blocks `me` until every detached vthread — including any spawned
    /// while waiting — has finished: one still parked when nothing can
    /// run is a finding like any other hang.
    pub(crate) fn join_detached(&self, me: usize) {
        loop {
            let tids: Vec<usize> = self.lock().detached.iter().map(|d| d.0).collect();
            self.join_children(me, &tids);
            let st = self.lock();
            if (st.detached.iter()).all(|d| matches!(st.threads[d.0].status, Status::Finished)) {
                return;
            }
        }
    }

    /// The detached OS threads, for the explorer's final real join.
    pub(crate) fn take_detached(&self) -> Vec<std::thread::JoinHandle<()>> {
        self.lock().detached.drain(..).map(|d| d.1).collect()
    }

    /// Block until all `children` are finished (scope join).
    pub(crate) fn join_children(&self, me: usize, children: &[usize]) {
        loop {
            let Some(mut st) = self.enter(me) else { return };
            if children
                .iter()
                .all(|&c| matches!(st.threads[c].status, Status::Finished))
            {
                for &c in children {
                    let child_clock = st.threads[c].clock.clone();
                    st.threads[me].clock.join(&child_clock);
                }
                return;
            }
            st.threads[me].status = Status::Blocked(BlockInfo::Join);
            let st = self.switch(st, me);
            self.leave(st);
        }
    }

    /// Record a panic observed on a vthread and begin teardown.
    pub(crate) fn record_panic(&self, thread: usize, message: String) {
        let mut st = self.lock();
        st.findings.push(Finding::Panic { thread, message });
        Self::abort_all(&mut st);
    }

    /// Begin teardown without a dedicated finding (a panic on the main
    /// body is recorded by the explorer instead).
    pub(crate) fn abort(&self) {
        let mut st = self.lock();
        Self::abort_all(&mut st);
    }

    /// Harvest the execution's outcome. Call only after every vthread
    /// has really finished (the explorer's scope guarantees this).
    pub(crate) fn take_outcome(&self) -> Outcome {
        let mut st = self.lock();
        Outcome {
            findings: std::mem::take(&mut st.findings),
            trace: std::mem::take(&mut st.trace),
            steps: st.steps,
        }
    }
}

/// Everything harvested from one execution.
pub(crate) struct Outcome {
    pub findings: Vec<Finding>,
    pub trace: Vec<Choice>,
    pub steps: u64,
}

// ---------------------------------------------------------------------------
// Thread-local execution context
// ---------------------------------------------------------------------------

/// Per-OS-thread binding to a scheduler: which execution this thread
/// belongs to and which vthread id it carries.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub sched: Sched,
    pub tid: usize,
}

thread_local! {
    static CTX: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// The calling OS thread's scheduler binding, if any. `None` means the
/// virtual primitives degrade to plain std behavior.
pub(crate) fn current() -> Option<Ctx> {
    CTX.try_with(|c| c.borrow().clone()).ok().flatten()
}

pub(crate) fn set(ctx: Option<Ctx>) {
    let _ = CTX.try_with(|c| *c.borrow_mut() = ctx);
}
