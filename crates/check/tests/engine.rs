//! Self-tests for the sidr-check engine on small hand-built models.
//!
//! These run under plain `cargo test` (no `--cfg check` needed): they
//! use the `sidr_check::sync` primitives directly rather than going
//! through the runtime's sync facade.

use sidr_check::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use sidr_check::sync::{thread, time};
use sidr_check::sync::{Condvar, Mutex, RaceCell};
use sidr_check::{Explorer, FindingKind, Strategy};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn exhaustive_covers_two_thread_interleavings_completely() {
    let report = Explorer::new("exhaustive-atomics").run(
        Strategy::Exhaustive {
            max_schedules: 5_000,
        },
        || {
            let x = Arc::new(AtomicUsize::new(0));
            thread::scope(|s| {
                for _ in 0..2 {
                    let x = Arc::clone(&x);
                    s.spawn(move || {
                        x.fetch_add(1, Ordering::SeqCst);
                        x.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(x.load(Ordering::SeqCst), 4);
        },
    );
    report.assert_clean();
    assert!(report.complete, "small model should be fully explored");
    // Two threads with two ops each admit C(4,2) = 6 op interleavings;
    // scheduling decisions around spawn/join add more decision points,
    // so the distinct count must be at least that.
    assert!(
        report.distinct >= 6,
        "expected >= 6 distinct schedules, got {}",
        report.distinct
    );
}

#[test]
fn mutex_protected_counter_is_clean() {
    let report = Explorer::new("mutex-counter").run(
        Strategy::Exhaustive {
            max_schedules: 5_000,
        },
        || {
            let n = Arc::new(Mutex::new(0u32));
            thread::scope(|s| {
                for _ in 0..2 {
                    let n = Arc::clone(&n);
                    s.spawn(move || {
                        let mut g = n.lock();
                        *g += 1;
                    });
                }
            });
            assert_eq!(*n.lock(), 2);
        },
    );
    report.assert_clean();
    assert!(report.complete);
}

#[test]
fn unsynchronized_racecell_access_is_a_race_finding() {
    let report = Explorer::new("racy-cell").run(
        Strategy::Exhaustive {
            max_schedules: 5_000,
        },
        || {
            let cell = Arc::new(RaceCell::new("racy_counter", 0u32));
            thread::scope(|s| {
                for _ in 0..2 {
                    let cell = Arc::clone(&cell);
                    s.spawn(move || {
                        let v = cell.get();
                        cell.set(v + 1);
                    });
                }
            });
        },
    );
    report.assert_finds(FindingKind::Race);
}

#[test]
fn mutex_guarded_racecell_access_is_clean() {
    let report = Explorer::new("guarded-cell").run(
        Strategy::Exhaustive {
            max_schedules: 20_000,
        },
        || {
            let cell = Arc::new(RaceCell::new("guarded_counter", 0u32));
            let lock = Arc::new(Mutex::new(()));
            thread::scope(|s| {
                for _ in 0..2 {
                    let cell = Arc::clone(&cell);
                    let lock = Arc::clone(&lock);
                    s.spawn(move || {
                        let _g = lock.lock();
                        let v = cell.get();
                        cell.set(v + 1);
                    });
                }
            });
            assert_eq!(cell.get(), 2);
        },
    );
    report.assert_clean();
}

#[test]
fn release_acquire_handoff_is_clean_and_relaxed_races() {
    // Writer publishes via a Release store; reader checks the flag a
    // bounded number of times with Acquire loads. When the flag is
    // observed, the preceding cell write happens-before the read.
    let clean = Explorer::new("release-acquire").run(
        Strategy::Exhaustive {
            max_schedules: 50_000,
        },
        || {
            let cell = Arc::new(RaceCell::new("published", 0u32));
            let flag = Arc::new(AtomicBool::new(false));
            thread::scope(|s| {
                {
                    let cell = Arc::clone(&cell);
                    let flag = Arc::clone(&flag);
                    s.spawn(move || {
                        cell.set(42);
                        flag.store(true, Ordering::Release);
                    });
                }
                {
                    let cell = Arc::clone(&cell);
                    let flag = Arc::clone(&flag);
                    s.spawn(move || {
                        for _ in 0..3 {
                            if flag.load(Ordering::Acquire) {
                                assert_eq!(cell.get(), 42);
                                break;
                            }
                        }
                    });
                }
            });
        },
    );
    clean.assert_clean();

    // The same handoff with Relaxed ordering has no happens-before
    // edge: the read must be flagged in some schedule.
    let racy = Explorer::new("relaxed-handoff").run(
        Strategy::Exhaustive {
            max_schedules: 50_000,
        },
        || {
            let cell = Arc::new(RaceCell::new("unpublished", 0u32));
            let flag = Arc::new(AtomicBool::new(false));
            thread::scope(|s| {
                {
                    let cell = Arc::clone(&cell);
                    let flag = Arc::clone(&flag);
                    s.spawn(move || {
                        cell.set(42);
                        flag.store(true, Ordering::Relaxed);
                    });
                }
                {
                    let cell = Arc::clone(&cell);
                    let flag = Arc::clone(&flag);
                    s.spawn(move || {
                        for _ in 0..3 {
                            if flag.load(Ordering::Relaxed) {
                                let _ = cell.get();
                                break;
                            }
                        }
                    });
                }
            });
        },
    );
    racy.assert_finds(FindingKind::Race);
}

#[test]
fn abba_lock_order_deadlock_is_detected() {
    let report = Explorer::new("abba").run(
        Strategy::Exhaustive {
            max_schedules: 5_000,
        },
        || {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            thread::scope(|s| {
                {
                    let a = Arc::clone(&a);
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let _ga = a.lock();
                        let _gb = b.lock();
                    });
                }
                {
                    let a = Arc::clone(&a);
                    let b = Arc::clone(&b);
                    s.spawn(move || {
                        let _gb = b.lock();
                        let _ga = a.lock();
                    });
                }
            });
        },
    );
    report.assert_finds(FindingKind::Deadlock);
}

#[test]
fn self_deadlock_is_detected() {
    let report =
        Explorer::new("self-deadlock").run(Strategy::Exhaustive { max_schedules: 100 }, || {
            let m = Mutex::new(0u32);
            let _g1 = m.lock();
            let _g2 = m.lock();
        });
    report.assert_finds(FindingKind::Deadlock);
}

#[test]
fn missed_notify_is_a_lost_wakeup_finding() {
    // The setter flips the flag but never notifies: the waiter parks
    // for good whenever it checked the flag first. The checker must
    // flag it.
    let report = Explorer::new("missed-notify").run(
        Strategy::Exhaustive {
            max_schedules: 5_000,
        },
        || {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            thread::scope(|s| {
                {
                    let state = Arc::clone(&state);
                    s.spawn(move || {
                        let (m, cv) = &*state;
                        let mut done = m.lock();
                        while !*done {
                            cv.wait(&mut done);
                        }
                    });
                }
                {
                    let state = Arc::clone(&state);
                    s.spawn(move || {
                        let (m, _cv) = &*state;
                        *m.lock() = true;
                        // BUG under test: no notify_all here.
                    });
                }
            });
        },
    );
    report.assert_finds(FindingKind::LostWakeup);
}

#[test]
fn correct_notify_has_no_lost_wakeup() {
    let report = Explorer::new("proper-notify").run(
        Strategy::Exhaustive {
            max_schedules: 20_000,
        },
        || {
            let state = Arc::new((Mutex::new(false), Condvar::new()));
            thread::scope(|s| {
                {
                    let state = Arc::clone(&state);
                    s.spawn(move || {
                        let (m, cv) = &*state;
                        let mut done = m.lock();
                        while !*done {
                            cv.wait_for(&mut done, Duration::from_millis(25));
                        }
                    });
                }
                {
                    let state = Arc::clone(&state);
                    s.spawn(move || {
                        let (m, cv) = &*state;
                        let mut done = m.lock();
                        *done = true;
                        drop(done);
                        cv.notify_all();
                    });
                }
            });
        },
    );
    report.assert_clean();
    assert!(report.complete);
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

#[test]
fn sleepers_wake_in_deadline_order_on_the_virtual_clock() {
    let report = Explorer::new("sleepers").run(
        Strategy::Exhaustive {
            max_schedules: 1_000,
        },
        || {
            let t0 = time::now();
            let woke = Mutex::new(Vec::new());
            thread::scope(|s| {
                for n in [30, 10] {
                    let woke = &woke;
                    s.spawn(move || {
                        thread::sleep(ms(n));
                        woke.lock().push((n, time::now() - t0));
                    });
                }
            });
            assert_eq!(*woke.lock(), vec![(10, ms(10)), (30, ms(30))]);
            assert_eq!(time::now() - t0, ms(30));
        },
    );
    report.assert_clean();
    assert!(report.complete);
}

#[test]
fn timed_wait_that_fires_is_not_a_finding() {
    let report = Explorer::new("timeout").run(
        Strategy::Exhaustive {
            max_schedules: 1_000,
        },
        || {
            let t0 = time::now();
            let (m, cv) = (Mutex::new(()), Condvar::new());
            let mut g = m.lock();
            assert!(cv.wait_for(&mut g, ms(25)).timed_out());
            assert_eq!(time::now() - t0, ms(25));
        },
    );
    report.assert_clean();
    assert!(report.complete);
}

#[test]
fn notified_waiter_discards_its_timer() {
    // The waiter's 20 ms timeout must not outlive the notification at
    // 5 ms that ended its wait: left armed, it would cut the 30 ms
    // sleep that follows short.
    let report = Explorer::new("notified-timer").run(
        Strategy::Exhaustive {
            max_schedules: 5_000,
        },
        || {
            let t0 = time::now();
            let state = (Mutex::new(false), Condvar::new());
            thread::scope(|s| {
                s.spawn(|| {
                    let mut done = state.0.lock();
                    while !*done {
                        assert!(!state.1.wait_for(&mut done, ms(20)).timed_out());
                    }
                    drop(done);
                    thread::sleep(ms(30));
                    assert_eq!(time::now() - t0, ms(35));
                });
                s.spawn(|| {
                    thread::sleep(ms(5));
                    *state.0.lock() = true;
                    state.1.notify_all();
                });
            });
        },
    );
    report.assert_clean();
    assert!(report.complete);
}

#[test]
fn replaying_a_seed_reproduces_virtual_timestamps() {
    // Three threads take one lock and sleep while holding it, so when
    // each finishes depends on the schedule's lock order.
    let stamps = std::sync::Mutex::new(Vec::new());
    let body = || {
        let t0 = time::now();
        let lock = Mutex::new(());
        thread::scope(|s| {
            for n in 1..=3 {
                let (lock, stamps) = (&lock, &stamps);
                s.spawn(move || {
                    let _held = lock.lock();
                    thread::sleep(ms(n));
                    stamps.lock().unwrap().push((n, time::now() - t0));
                });
            }
        });
    };
    let run = |seed| {
        Explorer::new("replay-time")
            .run(Strategy::ReplaySeed(seed), body)
            .assert_clean();
        std::mem::take(&mut *stamps.lock().unwrap())
    };
    let mut distinct = std::collections::HashSet::new();
    for seed in 0..8 {
        let first = run(seed);
        assert_eq!(run(seed), first, "seed {seed} replayed other timestamps");
        distinct.insert(first);
    }
    assert!(distinct.len() > 1, "every seed chose the same lock order");
}

#[test]
fn livelock_hits_the_step_limit() {
    let report = Explorer::new("livelock").step_limit(500).run(
        Strategy::Random {
            schedules: 1,
            seed: 7,
        },
        || {
            let stop = AtomicBool::new(false);
            // Never becomes true: spins until the step budget trips.
            while !stop.load(Ordering::SeqCst) {}
        },
    );
    report.assert_finds(FindingKind::StepLimit);
}

#[test]
fn panics_in_vthreads_become_findings() {
    let report = Explorer::new("child-panic").run(
        Strategy::Random {
            schedules: 3,
            seed: 1,
        },
        || {
            thread::scope(|s| {
                s.spawn(|| panic!("boom in child"));
            });
        },
    );
    report.assert_finds(FindingKind::Panic);
}

#[test]
fn random_exploration_replays_identically_from_seed() {
    let body = || {
        let n = Arc::new(Mutex::new(0u32));
        let cell = Arc::new(RaceCell::new("replay_cell", 0u32));
        thread::scope(|s| {
            for _ in 0..3 {
                let n = Arc::clone(&n);
                let cell = Arc::clone(&cell);
                s.spawn(move || {
                    *n.lock() += 1;
                    let v = cell.get();
                    cell.set(v + 1);
                });
            }
        });
    };
    let first = Explorer::new("replay").max_failures(1).run(
        Strategy::Random {
            schedules: 200,
            seed: 42,
        },
        body,
    );
    assert!(
        !first.failures.is_empty(),
        "three unsynchronized RaceCell writers must race somewhere in 200 schedules"
    );
    let seed = match first.failures[0].schedule {
        sidr_check::ScheduleRef::Seed(s) => s,
        ref other => panic!("random exploration must report a seed, got {other}"),
    };
    // Replaying the printed seed reproduces a failure, twice over.
    for _ in 0..2 {
        let replay = Explorer::new("replay").run(Strategy::ReplaySeed(seed), body);
        assert_eq!(
            replay.failures.len(),
            1,
            "replay of seed {seed:#x} must reproduce the failure"
        );
    }
}

#[test]
fn distinct_schedule_counting_spreads_with_random_seeds() {
    let report = Explorer::new("distinct").run(
        Strategy::Random {
            schedules: 100,
            seed: 9,
        },
        || {
            let n = Arc::new(Mutex::new(0u32));
            thread::scope(|s| {
                for _ in 0..3 {
                    let n = Arc::clone(&n);
                    s.spawn(move || {
                        *n.lock() += 1;
                    });
                }
            });
        },
    );
    report.assert_clean();
    assert!(
        report.distinct > 10,
        "random walk should hit many distinct schedules, got {}",
        report.distinct
    );
}
