//! Schedule exploration strategies and the execution driver.

use crate::report::{FailedSchedule, Report, ScheduleRef};
use crate::sched::{self, CheckAbort, Choice, Decider, Sched, SplitMix64};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How to walk the schedule space.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// Stateless DFS over the decision tree: covers *every* schedule of
    /// a small scenario, or reports `complete = false` when the budget
    /// runs out first.
    Exhaustive {
        /// Upper bound on executions.
        max_schedules: usize,
    },
    /// Seeded random walk: each execution derives its own seed from the
    /// base seed and iteration index; failures print that per-execution
    /// seed for exact replay.
    Random {
        /// Executions to run.
        schedules: usize,
        /// Base seed.
        seed: u64,
    },
    /// Re-run the single schedule a failure printed as `seed …`.
    ReplaySeed(u64),
    /// Re-run the single schedule a failure printed as `trace …`
    /// (hex-encoded decision string from an exhaustive run).
    ReplayTrace(String),
}

/// Configures and runs explorations of one scenario body.
pub struct Explorer {
    name: String,
    step_limit: u64,
    max_failures: usize,
}

impl Explorer {
    /// New explorer for the named scenario.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            step_limit: 200_000,
            max_failures: 4,
        }
    }

    /// Per-execution yield-point budget (exceeding it is a
    /// [`crate::Finding::StepLimit`]).
    pub fn step_limit(mut self, limit: u64) -> Self {
        self.step_limit = limit;
        self
    }

    /// Stop exploring once this many failing schedules are collected.
    pub fn max_failures(mut self, n: usize) -> Self {
        self.max_failures = n;
        self
    }

    /// Explore `body` under `strategy`. The body runs once per
    /// schedule on the calling thread (as vthread 0) and must be
    /// self-contained: create its state fresh, spawn via
    /// [`crate::sync::thread::scope`], and assert its own postconditions.
    pub fn run<F: Fn()>(&self, strategy: Strategy, body: F) -> Report {
        let mut report = Report {
            name: self.name.clone(),
            ..Report::default()
        };
        let mut distinct = HashSet::new();
        match strategy {
            Strategy::Random { schedules, seed } => {
                for i in 0..schedules {
                    let exec_seed = derive_seed(seed, i as u64);
                    let outcome = self.run_one(Decider::Random(SplitMix64::new(exec_seed)), &body);
                    record(
                        &mut report,
                        &mut distinct,
                        outcome,
                        ScheduleRef::Seed(exec_seed),
                    );
                    if report.failures.len() >= self.max_failures {
                        break;
                    }
                }
            }
            Strategy::ReplaySeed(exec_seed) => {
                let outcome = self.run_one(Decider::Random(SplitMix64::new(exec_seed)), &body);
                record(
                    &mut report,
                    &mut distinct,
                    outcome,
                    ScheduleRef::Seed(exec_seed),
                );
            }
            Strategy::ReplayTrace(ref hex) => {
                let script = decode_trace(hex);
                let outcome = self.run_one(Decider::Scripted { script, pos: 0 }, &body);
                let r = ScheduleRef::Trace(hex.clone());
                record(&mut report, &mut distinct, outcome, r);
            }
            Strategy::Exhaustive { max_schedules } => {
                let mut prefix: Vec<Choice> = Vec::new();
                loop {
                    if report.schedules >= max_schedules {
                        break;
                    }
                    let outcome = self.run_one(
                        Decider::Scripted {
                            script: prefix.clone(),
                            pos: 0,
                        },
                        &body,
                    );
                    let trace = outcome.trace.clone();
                    let r = ScheduleRef::Trace(encode_trace(&trace));
                    record(&mut report, &mut distinct, outcome, r);
                    if report.failures.len() >= self.max_failures {
                        break;
                    }
                    // Advance to the next unexplored branch: bump the
                    // deepest decision that still has an untaken
                    // alternative, drop everything below it.
                    let mut next = trace;
                    loop {
                        match next.pop() {
                            None => {
                                report.complete = true;
                                break;
                            }
                            Some(c) if (c.taken as usize) + 1 < c.options as usize => {
                                next.push(Choice {
                                    options: c.options,
                                    taken: c.taken + 1,
                                });
                                prefix = next;
                                break;
                            }
                            Some(_) => {}
                        }
                    }
                    if report.complete {
                        break;
                    }
                }
            }
        }
        report.distinct = distinct.len();
        report
    }

    fn run_one<F: Fn()>(&self, decider: Decider, body: &F) -> sched::Outcome {
        let sched = Sched::new(decider, self.step_limit);
        sched::set(Some(sched::Ctx {
            sched: sched.clone(),
            tid: 0,
        }));
        // Detached vthreads are joined when the body ends: one left
        // parked is a lost wakeup or a deadlock of this schedule.
        let result = catch_unwind(AssertUnwindSafe(|| {
            body();
            sched.join_detached(0);
        }));
        sched::set(None);
        if let Err(payload) = result {
            if payload.downcast_ref::<CheckAbort>().is_none() {
                sched.record_panic(0, payload_message(&*payload));
            }
            sched.abort();
        }
        for handle in sched.take_detached() {
            handle.join().ok();
        }
        sched.take_outcome()
    }
}

fn record(
    report: &mut Report,
    distinct: &mut HashSet<u64>,
    outcome: sched::Outcome,
    schedule: ScheduleRef,
) {
    report.schedules += 1;
    report.total_steps += outcome.steps;
    distinct.insert(hash_trace(&outcome.trace));
    if !outcome.findings.is_empty() {
        report.failures.push(FailedSchedule {
            schedule,
            findings: outcome.findings,
        });
    }
}

fn derive_seed(base: u64, i: u64) -> u64 {
    SplitMix64::new(base ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next()
}

fn hash_trace(trace: &[Choice]) -> u64 {
    // FNV-1a over the (options, taken) byte pairs.
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for c in trace {
        for b in [c.options, c.taken] {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01B3);
        }
    }
    h
}

fn encode_trace(trace: &[Choice]) -> String {
    let mut s = String::with_capacity(trace.len() * 4);
    for c in trace {
        s.push_str(&format!("{:02x}{:02x}", c.options, c.taken));
    }
    s
}

fn decode_trace(hex: &str) -> Vec<Choice> {
    let bytes: Vec<u8> = hex
        .as_bytes()
        .chunks(2)
        .filter_map(|pair| {
            let s = std::str::from_utf8(pair).ok()?;
            u8::from_str_radix(s, 16).ok()
        })
        .collect();
    bytes
        .chunks(2)
        .filter(|p| p.len() == 2)
        .map(|p| Choice {
            options: p[0],
            taken: p[1],
        })
        .collect()
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Convenience: explore with defaults and panic (replayably) on any
/// finding.
pub fn check(name: &str, strategy: Strategy, body: impl Fn()) -> Report {
    let report = Explorer::new(name).run(strategy, body);
    report.assert_clean();
    report
}
