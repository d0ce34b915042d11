//! Slot capacity and cooperative cancellation: the counting semaphores
//! that bound how many Map and Reduce tasks run at once across every
//! job sharing a [`SlotPool`], and the [`CancelToken`] that wakes a
//! job's parked workers.

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::chaos::{self, Mutation};
use crate::sync::{wait_until, Condvar, Mutex};
use std::sync::Arc;

use crate::error::MrError;
use crate::Result;

/// A blocking point's wake-up target: the condvar a worker may be
/// parked on, paired with the mutex that guards its predicate.
///
/// `wake` takes (and immediately drops) the mutex before notifying.
/// That closes the lost-wakeup window: a waiter that has already
/// checked the cancel flag under the lock but not yet entered
/// `wait()` still holds the lock, so the waker blocks until the
/// waiter is actually parked — the notification cannot land in the
/// gap.
pub trait CancelWake: Send + Sync {
    /// Wakes the blocking point so it re-checks its cancel predicate.
    fn wake(&self);
}

pub(crate) struct PairWaker<T: Send + 'static> {
    pub(crate) mutex: Arc<Mutex<T>>,
    pub(crate) cv: Arc<Condvar>,
}

impl<T: Send + 'static> CancelWake for PairWaker<T> {
    fn wake(&self) {
        drop(self.mutex.lock());
        self.cv.notify_all();
    }
}

struct TokenInner {
    cancelled: AtomicBool,
    next_id: AtomicU64,
    wakers: Mutex<Vec<(u64, Arc<dyn CancelWake>)>>,
}

/// Cooperative cancellation for a running job.
///
/// Cloning shares the flag: the serving layer keeps one clone per
/// `JobHandle` while the runtime's workers poll another. Cancellation
/// is observed at every blocking point (slot acquisition, eligibility
/// and barrier waits); each blocking point's condvar is registered as
/// a waker while the job runs, so [`cancel`](CancelToken::cancel)
/// wakes parked workers immediately and `run_job_shared` returns
/// [`MrError::Cancelled`] within notification latency, not within a
/// poll tick.
#[derive(Clone)]
pub struct CancelToken(Arc<TokenInner>);

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken(Arc::new(TokenInner {
            cancelled: AtomicBool::new(false),
            next_id: AtomicU64::new(0),
            wakers: Mutex::new(Vec::new()),
        }))
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

impl CancelToken {
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation and wakes every registered blocking
    /// point. Idempotent.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::SeqCst);
        let wakers: Vec<Arc<dyn CancelWake>> = self
            .0
            .wakers
            .lock()
            .iter()
            .map(|(_, w)| Arc::clone(w))
            .collect();
        for w in wakers {
            w.wake();
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::SeqCst)
    }

    /// Registers a blocking point to be woken on cancel, returning an
    /// RAII registration that unsubscribes on drop. If the token is
    /// already cancelled the waker fires immediately.
    ///
    /// Registration is *only* RAII — there is no manual unsubscribe —
    /// so a worker that exits (or unwinds) between registering and
    /// parking can never leak its waker slot on a long-lived token.
    pub fn register(&self, waker: Arc<dyn CancelWake>) -> WakerRegistration {
        let id = self.0.next_id.fetch_add(1, Ordering::Relaxed);
        self.0.wakers.lock().push((id, Arc::clone(&waker)));
        if self.is_cancelled() {
            waker.wake();
        }
        WakerRegistration {
            token: self.clone(),
            id,
        }
    }

    /// Blocking points currently registered (diagnostic: a quiesced
    /// token must report 0 or registrations have leaked).
    pub fn waker_count(&self) -> usize {
        self.0.wakers.lock().len()
    }
}

/// One blocking point's registration on a [`CancelToken`];
/// unsubscribes on drop (see [`CancelToken::register`]).
pub struct WakerRegistration {
    token: CancelToken,
    id: u64,
}

impl Drop for WakerRegistration {
    fn drop(&mut self) {
        self.token.0.wakers.lock().retain(|(i, _)| *i != self.id);
    }
}

/// The waker registrations for one job run, dropped — and thereby
/// unsubscribed — when the job returns.
pub(crate) fn subscribe_all(
    token: Option<&CancelToken>,
    wakers: impl IntoIterator<Item = Arc<dyn CancelWake>>,
) -> Vec<WakerRegistration> {
    match token {
        None => Vec::new(),
        Some(t) => wakers.into_iter().map(|w| t.register(w)).collect(),
    }
}

/// A counting semaphore over one slot class (map or reduce). The
/// mutex/condvar pair is `Arc`'d so cancel tokens can hold a
/// `PairWaker` over it. Public so sidr-check scenarios can drive
/// acquire/release/wake_all directly; jobs only ever touch it through
/// a [`SlotPool`].
pub struct Semaphore {
    total: usize,
    busy: Arc<Mutex<usize>>,
    cv: Arc<Condvar>,
    /// Occupancy gauge for this slot class (process-global).
    busy_gauge: Arc<sidr_obs::Gauge>,
}

impl std::fmt::Debug for Semaphore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Semaphore")
            .field("total", &self.total)
            .field("busy", &self.in_use())
            .finish()
    }
}

impl Semaphore {
    fn new(total: usize, busy_gauge: Arc<sidr_obs::Gauge>) -> Self {
        Semaphore {
            total,
            busy: Arc::new(Mutex::new(0)),
            cv: Arc::new(Condvar::new()),
            busy_gauge,
        }
    }

    /// Occupies one slot, blocking until one frees. Returns `false`
    /// without occupying anything if `abort()` turns true first.
    /// Blocked waiters are condvar-woken on release, on job failure
    /// and on cancellation.
    pub fn acquire(&self, abort: &dyn Fn() -> bool) -> bool {
        let mut busy = self.busy.lock();
        let got = wait_until(&self.cv, &mut busy, None, |busy| {
            if *busy < self.total {
                *busy += 1;
                Some(Some(()))
            } else {
                abort().then_some(None)
            }
        })
        .is_some();
        drop(busy);
        if got {
            self.busy_gauge.inc();
        }
        got
    }

    /// Frees one slot and wakes one waiter.
    pub fn release(&self) {
        let mut busy = self.busy.lock();
        debug_assert!(*busy > 0, "slot released but none occupied");
        *busy -= 1;
        drop(busy);
        self.busy_gauge.dec();
        if !chaos::on(Mutation::DropSemReleaseNotify) {
            self.cv.notify_one();
        }
    }

    /// Wakes every waiter so it re-checks its abort predicate (used
    /// when a sharing job fails or is cancelled).
    pub fn wake_all(&self) {
        drop(self.busy.lock());
        self.cv.notify_all();
    }

    /// A cancel waker parked on this semaphore's condvar.
    pub fn waker(&self) -> Arc<dyn CancelWake> {
        Arc::new(PairWaker {
            mutex: Arc::clone(&self.busy),
            cv: Arc::clone(&self.cv),
        })
    }

    /// Slots currently occupied.
    pub fn in_use(&self) -> usize {
        *self.busy.lock()
    }
}

/// Occupied slot; releases on drop.
pub(crate) struct SlotGuard<'p>(pub(crate) &'p Semaphore);

impl Drop for SlotGuard<'_> {
    fn drop(&mut self) {
        self.0.release();
    }
}

/// The cluster-wide slot capacity: `map_slots` concurrent Map tasks
/// and `reduce_slots` concurrent Reduce tasks, *across every job
/// sharing the pool*. Wrap it in an `Arc` and pass it to
/// [`run_job_shared`](crate::run_job_shared) from multiple threads to multiplex jobs over one
/// cluster's worth of slots — the multi-tenant serving configuration.
#[derive(Debug)]
pub struct SlotPool {
    pub(crate) map: Semaphore,
    pub(crate) reduce: Semaphore,
}

/// Point-in-time slot usage, for server stats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotOccupancy {
    pub map_busy: usize,
    pub map_total: usize,
    pub reduce_busy: usize,
    pub reduce_total: usize,
}

impl SlotPool {
    /// Builds a pool; both slot classes must be non-empty.
    pub fn new(map_slots: usize, reduce_slots: usize) -> Result<Self> {
        if map_slots == 0 || reduce_slots == 0 {
            return Err(MrError::BadConfig(
                "map_slots and reduce_slots must be > 0".into(),
            ));
        }
        let m = crate::metrics::runtime();
        m.map_slots_total.set(map_slots as i64);
        m.reduce_slots_total.set(reduce_slots as i64);
        Ok(SlotPool {
            map: Semaphore::new(map_slots, Arc::clone(&m.map_slots_busy)),
            reduce: Semaphore::new(reduce_slots, Arc::clone(&m.reduce_slots_busy)),
        })
    }

    pub fn map_slots(&self) -> usize {
        self.map.total
    }

    pub fn reduce_slots(&self) -> usize {
        self.reduce.total
    }

    pub fn occupancy(&self) -> SlotOccupancy {
        SlotOccupancy {
            map_busy: self.map.in_use(),
            map_total: self.map.total,
            reduce_busy: self.reduce.in_use(),
            reduce_total: self.reduce.total,
        }
    }

    /// Checker-scenario access to the raw map semaphore.
    #[cfg(check)]
    pub fn map_sem(&self) -> &Semaphore {
        &self.map
    }

    /// Checker-scenario access to the raw reduce semaphore.
    #[cfg(check)]
    pub fn reduce_sem(&self) -> &Semaphore {
        &self.reduce
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// A cancel must reach a waiter parked on a semaphore's condvar by
    /// notification — well inside one 25 ms safety tick — not by
    /// waiting for the next safety-net poll.
    #[test]
    fn cancel_wakes_semaphore_waiter_sub_tick() {
        let sem = Arc::new(Semaphore::new(1, Arc::new(sidr_obs::Gauge::default())));
        assert!(sem.acquire(&|| false)); // occupy the only slot
        let token = CancelToken::new();
        let registration = token.register(sem.waker());

        let waiter = {
            let sem = Arc::clone(&sem);
            let token = token.clone();
            std::thread::spawn(move || sem.acquire(&|| token.is_cancelled()))
        };
        // Give the waiter ample time to park on the condvar.
        std::thread::sleep(Duration::from_millis(60));
        let cancelled_at = Instant::now();
        token.cancel();
        let got = waiter.join().unwrap();
        let latency = cancelled_at.elapsed();
        assert!(!got, "waiter must abort, not acquire");
        assert!(
            latency < Duration::from_millis(10),
            "cancel→wake took {latency:?}; expected notification latency, \
             not a poll tick"
        );
        drop(registration);
        assert_eq!(token.waker_count(), 0);
        sem.release();
    }

    /// Subscribing to an already-cancelled token fires the waker
    /// immediately, so a waiter that raced past the flag check still
    /// gets woken.
    #[test]
    fn subscribe_after_cancel_fires_immediately() {
        let sem = Arc::new(Semaphore::new(1, Arc::new(sidr_obs::Gauge::default())));
        assert!(sem.acquire(&|| false));
        let token = CancelToken::new();
        token.cancel();
        let waiter = {
            let sem = Arc::clone(&sem);
            let token = token.clone();
            std::thread::spawn(move || sem.acquire(&|| token.is_cancelled()))
        };
        std::thread::sleep(Duration::from_millis(20));
        // The waiter aborts on its own flag check; the subscription
        // path must still wake, not deadlock, if it happens after.
        let _registration = token.register(sem.waker());
        assert!(!waiter.join().unwrap());
        sem.release();
    }

    /// A worker that exits — or unwinds — between registering its
    /// waker and parking must not leak its slot on the token: every
    /// registration path is RAII, so the token quiesces to zero wakers
    /// no matter how the registration scope ends.
    #[test]
    fn waker_registrations_never_leak_slots() {
        let sem = Arc::new(Semaphore::new(1, Arc::new(sidr_obs::Gauge::default())));
        let token = CancelToken::new();
        {
            let _a = token.register(sem.waker());
            let _b = token.register(sem.waker());
            assert_eq!(token.waker_count(), 2);
            // A worker dying between subscribe and wait unwinds
            // through its registration.
            let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _c = token.register(sem.waker());
                assert_eq!(token.waker_count(), 3);
                panic!("worker died between subscribe and wait");
            }));
            assert!(died.is_err());
            assert_eq!(token.waker_count(), 2, "unwound registration leaked");
        }
        assert_eq!(token.waker_count(), 0, "dropped registrations leaked");
        // Cancelling a quiesced token has nobody stale to wake.
        token.cancel();
        assert!(sem.acquire(&|| false));
        sem.release();
    }
}
