//! Slot capacity, wake-ups and cooperative cancellation: the counting
//! semaphores that bound how many Map and Reduce tasks run at once
//! across every job sharing a [`SlotPool`], the [`Inbox`] a job's
//! coordinator loop waits on, and the [`CancelToken`] that rings it.
//!
//! Nothing here parks a thread on a slot. A job's loop asks for a slot
//! with [`Semaphore::try_acquire`]; when none is free its inbox is
//! registered, and the next [`release`](Semaphore::release) — by any
//! job — rings it so the loop asks again. A cancel rings it the same
//! way.

use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::chaos::{self, Mutation};
use crate::sync::{wait_until, Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};
use std::time::Instant;

use crate::error::MrError;
use crate::Result;

/// Something a waiting loop can be woken through: rung by a slot
/// release or a cancel, it re-checks what it waits for.
pub trait Wake: Send + Sync {
    fn wake(&self);
}

/// A queue a thread waits on: a job's loop reads its attempts' reports
/// from one, and the job's slot threads read the attempts to run from
/// another. Beside the items, a ring wakes a reader with no item (a
/// slot freed, a cancel).
pub struct Inbox<T> {
    state: Mutex<(VecDeque<T>, bool)>,
    cv: Condvar,
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Inbox {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }
}

impl<T: Send> Inbox<T> {
    /// Queues `item` and wakes the reader.
    pub fn post(&self, item: T) {
        self.state.lock().0.push_back(item);
        if !chaos::on(Mutation::DropPostWake) {
            self.cv.notify_one();
        }
    }

    /// Wakes the reader with no item.
    pub fn ring(&self) {
        self.state.lock().1 = true;
        self.cv.notify_one();
    }

    /// Waits until something was posted or rung, or `until` passes,
    /// and takes the oldest item posted (`None` after a bare ring or a
    /// timeout).
    pub fn next(&self, until: Option<Instant>) -> Option<T> {
        let mut st = self.state.lock();
        wait_until(&self.cv, &mut st, until, |st| {
            (!st.0.is_empty() || st.1).then_some(Some(()))
        });
        st.1 = false;
        st.0.pop_front()
    }
}

impl<T: Send> Wake for Inbox<T> {
    fn wake(&self) {
        self.ring();
    }
}

struct TokenInner {
    cancelled: AtomicBool,
    /// Held weakly: a loop's inbox lives as long as its job, so a
    /// registration ends with the job, however it ends.
    wakers: Mutex<Vec<Weak<dyn Wake>>>,
}

/// Cooperative cancellation for a running job.
///
/// Cloning shares the flag: the serving layer keeps one clone per
/// `JobHandle` while the job's coordinator loop reads another. The
/// loop's inbox is registered as a waker while the job runs, so
/// [`cancel`](CancelToken::cancel) wakes it at once and
/// [`run_job_with_executor`](crate::run_job_with_executor) returns
/// [`MrError::Cancelled`] within notification latency, not within a
/// poll tick.
#[derive(Clone)]
pub struct CancelToken(Arc<TokenInner>);

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken(Arc::new(TokenInner {
            cancelled: AtomicBool::new(false),
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

    /// Requests cancellation and wakes every registered waker.
    /// Idempotent.
    pub fn cancel(&self) {
        self.0.cancelled.store(true, Ordering::SeqCst);
        let wakers: Vec<Arc<dyn Wake>> = self
            .0
            .wakers
            .lock()
            .iter()
            .filter_map(Weak::upgrade)
            .collect();
        for w in wakers {
            w.wake();
        }
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.cancelled.load(Ordering::SeqCst)
    }

    /// Registers `waker` to be woken on cancel for as long as it lives
    /// (dead ones are dropped here). If the token is already cancelled
    /// the waker fires at once.
    pub fn register(&self, waker: &Arc<dyn Wake>) {
        let mut wakers = self.0.wakers.lock();
        wakers.retain(|w| w.strong_count() > 0);
        wakers.push(Arc::downgrade(waker));
        drop(wakers);
        if self.is_cancelled() {
            waker.wake();
        }
    }

    /// Registered wakers still alive (diagnostic: a quiesced token must
    /// report 0).
    pub fn waker_count(&self) -> usize {
        (self.0.wakers.lock().iter())
            .filter(|w| w.strong_count() > 0)
            .count()
    }
}

/// A counting semaphore over one slot class (map or reduce) that never
/// blocks: a caller that finds no slot free is registered and woken by
/// the next release. Public so sidr-check scenarios can drive it
/// directly; jobs only ever touch it through a [`SlotPool`].
pub struct Semaphore {
    total: usize,
    /// Slots occupied, and the wakers of callers that found none free —
    /// held weakly, as a token holds them, so one ends with its job.
    state: Mutex<(usize, Vec<Weak<dyn Wake>>)>,
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
            state: Mutex::new((0, Vec::new())),
            busy_gauge,
        }
    }

    /// Occupies one slot if one is free. Otherwise registers `waiter`
    /// (once) to be woken by the next release, and returns false.
    pub fn try_acquire(&self, waiter: &Arc<dyn Wake>) -> bool {
        let mut st = self.state.lock();
        if st.0 < self.total {
            st.0 += 1;
            drop(st);
            self.busy_gauge.inc();
            return true;
        }
        let waiter = Arc::downgrade(waiter);
        if !st.1.iter().any(|w| w.ptr_eq(&waiter)) {
            st.1.push(waiter);
        }
        false
    }

    /// Frees one slot and wakes every registered waiter; each asks
    /// again, and those that lose re-register.
    pub fn release(&self) {
        let mut st = self.state.lock();
        debug_assert!(st.0 > 0, "slot released but none occupied");
        st.0 -= 1;
        let waiting = if chaos::on(Mutation::ReleaseWakesNoJob) {
            Vec::new()
        } else {
            std::mem::take(&mut st.1)
        };
        drop(st);
        self.busy_gauge.dec();
        for w in waiting.iter().filter_map(Weak::upgrade) {
            w.wake();
        }
    }

    /// Slots currently occupied.
    pub fn in_use(&self) -> usize {
        self.state.lock().0
    }
}

/// The cluster-wide slot capacity: `map_slots` concurrent Map tasks
/// and `reduce_slots` concurrent Reduce tasks, *across every job
/// sharing the pool*. Wrap it in an `Arc` and pass it to
/// [`run_job_with_executor`](crate::run_job_with_executor) from multiple
/// threads to multiplex jobs over one cluster's worth of slots — the
/// multi-tenant serving configuration.
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

    /// Whether `inbox` is rung, or rings, within `ms`.
    fn rung_within(inbox: &Inbox<()>, ms: u64) -> bool {
        let until = Instant::now() + Duration::from_millis(ms);
        inbox.next(Some(until));
        Instant::now() < until
    }

    /// A cancel must reach a loop waiting on its inbox by notification
    /// — well inside 25 ms — not by a poll: an untimed wait has no
    /// other way to end.
    #[test]
    fn cancel_wakes_a_waiting_inbox_sub_tick() {
        let inbox = Arc::new(Inbox::<()>::default());
        let waker = Arc::clone(&inbox) as Arc<dyn Wake>;
        let token = CancelToken::new();
        token.register(&waker);
        let waiter = {
            let inbox = Arc::clone(&inbox);
            std::thread::spawn(move || inbox.next(None))
        };
        // Give the waiter ample time to park.
        std::thread::sleep(Duration::from_millis(60));
        let cancelled_at = Instant::now();
        token.cancel();
        assert!(waiter.join().unwrap().is_none(), "a ring carries no item");
        let latency = cancelled_at.elapsed();
        assert!(
            latency < Duration::from_millis(10),
            "cancel→wake took {latency:?}; expected notification latency, \
             not a poll tick"
        );
        // Registering with a cancelled token rings at once, so a loop
        // that raced past the flag check still wakes.
        token.register(&waker);
        assert!(rung_within(&inbox, 1_000));
    }

    /// A registration ends with its waker, however the job holding it
    /// ends — unwinding included — so a long-lived token quiesces to 0.
    #[test]
    fn waker_registrations_never_leak_slots() {
        let token = CancelToken::new();
        let inbox: Arc<dyn Wake> = Arc::new(Inbox::<()>::default());
        token.register(&inbox);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dying: Arc<dyn Wake> = Arc::new(Inbox::<()>::default());
            token.register(&dying);
            assert_eq!(token.waker_count(), 2);
            panic!("loop died between register and wait");
        }));
        assert!(died.is_err());
        assert_eq!(token.waker_count(), 1, "an unwound registration leaked");
        drop(inbox);
        assert_eq!(token.waker_count(), 0, "a dropped registration leaked");
        token.cancel();
    }

    /// A caller that finds no slot is registered once and rung by the
    /// next release; one whose job has ended is simply dropped.
    #[test]
    fn release_rings_each_registered_waiter_once() {
        let sem = Semaphore::new(1, Arc::new(sidr_obs::Gauge::default()));
        let inbox = Arc::new(Inbox::<()>::default());
        let waiter = Arc::clone(&inbox) as Arc<dyn Wake>;
        assert!(sem.try_acquire(&waiter));
        assert!(!sem.try_acquire(&waiter) && !sem.try_acquire(&waiter));
        let ended: Arc<dyn Wake> = Arc::new(Inbox::<()>::default());
        assert!(!sem.try_acquire(&ended));
        assert_eq!(sem.state.lock().1.len(), 2, "each registered once");
        drop(ended);
        sem.release();
        assert!(rung_within(&inbox, 1_000), "release rang");
        assert!(sem.state.lock().1.is_empty());
        assert!(sem.try_acquire(&waiter));
        sem.release();
        assert_eq!(sem.in_use(), 0);
    }
}
