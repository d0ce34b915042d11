//! The timeline protocol oracle, and the check every job runs.
//!
//! A job's [`TaskEvent`] stream is a total order (monotonic clock,
//! causal push order breaking ties), so the concurrency protocol the
//! runtime promises — attempt-stamped task lifecycles, per-reducer
//! dependency barriers, `I_ℓ`-confined recovery (§3.2, §6) — is
//! checkable after the fact from the events alone. The oracle is pure
//! data in, verdict out, and there is one way to build it:
//! [`for_plan`](TimelineOracle::for_plan), from the values that build
//! the job's [`Schedule`](crate::schedule::Schedule).
//! [`coordinate`](crate::coordinate) builds it and runs
//! [`check_complete`] over the timeline of every job that ends without
//! error — on the in-process engine, a served job, the fleet
//! coordinator and the simulator alike, in every build — and a
//! violation fails the job with [`MrError::Protocol`]. A failed,
//! cancelled or deadline-exceeded job is not checked: its stream stops
//! wherever the loop stopped. Under the sidr-check explorer the same
//! check runs on *every explored schedule*, where a violation that
//! needs one specific interleaving actually gets hit.
//!
//! Checked invariants:
//!
//! * **R1 — attempt monotonicity.** Each map's `MapStart` attempts are
//!   exactly 0, 1, 2, … (every launch counts), a map never starts
//!   while already running — unless the start was announced by a
//!   `MapSpeculated` grant, the one sanctioned way to race a second
//!   attempt against a running straggler — and each reducer's
//!   barrier/failure attempts count its `ReduceFailed` events.
//! * **R6 — at most one extra attempt.** `MapSpeculated(m, a)` must
//!   carry the next attempt id, name a map with an attempt running and
//!   no generation committed, and is illegal while another grant for
//!   `m` is outstanding; every lifecycle exit (`MapEnd`, `MapFailed`,
//!   `MapSpeculationLost`) must name an attempt that is actually
//!   running. A speculative start is *not* recovery.
//! * **R2 — barrier after dependencies.** `ReduceBarrierMet(r)`
//!   requires every map in `deps(r)` (all maps under a global barrier)
//!   to stand committed: a `MapEnd`, and no `MapLost` of it since.
//! * **R3 — volatile re-wait.** With volatile intermediate data,
//!   attempt `a`'s barrier consumed `a` earlier fetches, so every map
//!   in `deps(r)` needs ≥ `a + 1` commits by then. Counting commits
//!   (not windows) keeps the rule sound when overlapping recoveries
//!   share re-executions. Only checked for dependency-barrier
//!   reducers: SIDR's `I_ℓ` is by construction the set of maps that
//!   contribute data, which is exactly the set the runtime re-runs.
//! * **R4 — confined recovery.** A committed map starts again only
//!   after a `MapLost` of it. A `MapLost(m, a)` — the loop's record of
//!   re-opening a lost source, after a volatile reduce failure or a
//!   lost-sources report — must name `m`'s committed generation `a`,
//!   and `m` must be in the `I_ℓ` of a reducer that has started and
//!   not committed.
//! * **R5 — completion** ([`check_complete`]): exactly one
//!   `ReduceEnd` per reducer, each preceded by its own attempt's
//!   `ReduceBarrierMet`.
//!
//! [`check_complete`]: TimelineOracle::check_complete
//! [`MrError::Protocol`]: crate::MrError::Protocol

use crate::plan::JobPlan;
use crate::runtime::JobConfig;
use crate::split::MapTaskId;
use crate::timeline::{TaskEvent, TaskKind};

/// One broken invariant, with the index of the offending event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// Which invariant broke (`"R1"` … `"R6"`).
    pub invariant: &'static str,
    /// Human-readable account of the breakage.
    pub message: String,
    /// Index into the checked event slice (`events.len()` for
    /// end-of-stream violations).
    pub index: usize,
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "timeline protocol violation [{}] at event {}: {}",
            self.invariant, self.index, self.message
        )
    }
}

impl std::error::Error for ProtocolViolation {}

/// Checks a job's event stream against the runtime's concurrency
/// protocol. Built from the job's plan, it [`check`]s any prefix of a
/// run or [`check_complete`]s a finished one.
///
/// [`check`]: TimelineOracle::check
/// [`check_complete`]: TimelineOracle::check_complete
#[derive(Clone, Debug)]
pub struct TimelineOracle<'a> {
    num_maps: usize,
    num_reducers: usize,
    /// The plan's `I_ℓ` per reducer; `None` is the global barrier.
    deps: Option<&'a [Vec<MapTaskId>]>,
    volatile: bool,
}

impl<'a> TimelineOracle<'a> {
    /// The oracle of a job of `num_maps` maps running `plan` under
    /// `config`: the plan's barriers, and R3 armed exactly when
    /// intermediate data is volatile.
    pub fn for_plan(num_maps: usize, plan: &'a JobPlan, config: &JobConfig) -> Self {
        TimelineOracle {
            num_maps,
            num_reducers: plan.num_reducers(),
            deps: plan.reduce_deps.as_deref(),
            volatile: config.volatile_intermediate,
        }
    }

    /// The maps reducer `r` waits for: `I_ℓ`, or every map.
    fn deps(&self, r: usize) -> impl Iterator<Item = MapTaskId> + '_ {
        let (set, all) = match self.deps {
            Some(deps) => (deps[r].as_slice(), 0),
            None => (&[][..], self.num_maps),
        };
        set.iter().copied().chain(0..all)
    }

    /// Checks R1–R4 and R6 over any (prefix of a) job event stream, in
    /// stream order. The stream may belong to an unfinished, failed or
    /// cancelled job; only what happened is judged.
    pub fn check(&self, events: &[TaskEvent]) -> Result<(), ProtocolViolation> {
        self.run(events).map(|_| ())
    }

    /// [`check`](Self::check) plus R5: the stream must describe a
    /// complete successful job — every reducer committed exactly once,
    /// after a same-attempt barrier.
    pub fn check_complete(&self, events: &[TaskEvent]) -> Result<(), ProtocolViolation> {
        let st = self.run(events)?;
        match st.reduce_done.iter().position(|done| !done) {
            Some(r) => Err(ProtocolViolation {
                invariant: "R5",
                message: format!("reducer {r} never committed (no ReduceEnd)"),
                index: events.len(),
            }),
            None => Ok(()),
        }
    }

    fn run(&self, events: &[TaskEvent]) -> Result<OracleState, ProtocolViolation> {
        let nr = self.num_reducers;
        let mut st = OracleState::new(self.num_maps, nr);
        let violation = |invariant, index, message: String| {
            Err(ProtocolViolation {
                invariant,
                message,
                index,
            })
        };
        for (i, e) in events.iter().enumerate() {
            let m = e.task;
            match e.kind {
                TaskKind::MapStart => {
                    if m >= self.num_maps {
                        return violation("R1", i, format!("MapStart for nonexistent map {m}"));
                    }
                    if st.spec_grant[m] == Some(e.attempt) {
                        // A granted speculative start: the attempt id
                        // and the uncommitted primary were vetted (and
                        // `map_next_attempt` advanced) at the
                        // `MapSpeculated` event, and racing an
                        // already-running straggler is the whole point.
                        st.spec_grant[m] = None;
                        st.map_running[m].push(e.attempt);
                        continue;
                    }
                    if !st.map_running[m].is_empty() && !st.map_speculated_ever[m] {
                        // With speculation in play the one-attempt
                        // invariant is already gone for this map (a
                        // straggling loser may still be draining while
                        // recovery launches the next generation), so
                        // the check stays armed only for maps that
                        // were never raced.
                        return violation(
                            "R1",
                            i,
                            format!("map {m} started (attempt {}) while running", e.attempt),
                        );
                    }
                    if e.attempt != st.map_next_attempt[m] {
                        return violation(
                            "R1",
                            i,
                            format!(
                                "map {m} started attempt {} but attempt {} was next",
                                e.attempt, st.map_next_attempt[m]
                            ),
                        );
                    }
                    if let Some(epoch) = st.map_committed[m] {
                        return violation(
                            "R4",
                            i,
                            format!(
                                "map {m} started attempt {} while attempt {epoch} stands \
                                 committed, with no MapLost",
                                e.attempt
                            ),
                        );
                    }
                    st.map_next_attempt[m] += 1;
                    st.map_running[m].push(e.attempt);
                }
                TaskKind::MapSpeculated => {
                    if m >= self.num_maps {
                        return violation(
                            "R6",
                            i,
                            format!("MapSpeculated for nonexistent map {m}"),
                        );
                    }
                    if st.spec_grant[m].is_some() {
                        return violation(
                            "R6",
                            i,
                            format!(
                                "map {m} granted a second speculative attempt while one \
                                 is outstanding"
                            ),
                        );
                    }
                    if e.attempt != st.map_next_attempt[m] {
                        return violation(
                            "R6",
                            i,
                            format!(
                                "map {m} speculated attempt {} but attempt {} was next",
                                e.attempt, st.map_next_attempt[m]
                            ),
                        );
                    }
                    // The loop grants a twin only to a generation with
                    // its primary running and nothing committed, and
                    // records the grant and the twin's start together.
                    if st.map_running[m].is_empty() || st.map_committed[m].is_some() {
                        return violation(
                            "R6",
                            i,
                            format!("map {m} speculated with no uncommitted attempt running"),
                        );
                    }
                    st.spec_grant[m] = Some(e.attempt);
                    st.map_next_attempt[m] += 1;
                    st.map_speculated_ever[m] = true;
                }
                TaskKind::MapEnd => {
                    if m >= self.num_maps || !st.map_exit(m, e.attempt) {
                        return violation(
                            "R1",
                            i,
                            format!(
                                "MapEnd for map {m} attempt {} that isn't running",
                                e.attempt
                            ),
                        );
                    }
                    st.map_committed[m] = Some(e.attempt);
                    st.map_end_count[m] += 1;
                }
                TaskKind::MapFailed => {
                    if m >= self.num_maps || !st.map_exit(m, e.attempt) {
                        return violation(
                            "R1",
                            i,
                            format!(
                                "MapFailed for map {m} attempt {} that isn't running",
                                e.attempt
                            ),
                        );
                    }
                }
                TaskKind::MapSpeculationLost => {
                    if m >= self.num_maps || !st.map_exit(m, e.attempt) {
                        return violation(
                            "R6",
                            i,
                            format!(
                                "MapSpeculationLost for map {m} attempt {} that isn't running",
                                e.attempt
                            ),
                        );
                    }
                }
                TaskKind::MapLost => {
                    if m >= self.num_maps || st.map_committed[m] != Some(e.attempt) {
                        return violation(
                            "R4",
                            i,
                            format!(
                                "MapLost of map {m} attempt {}, which is not its committed \
                                 generation",
                                e.attempt
                            ),
                        );
                    }
                    let open = |r: &usize| st.reduce_started[*r] && !st.reduce_done[*r];
                    if !(0..nr).filter(open).any(|r| self.deps(r).any(|d| d == m)) {
                        return violation(
                            "R4",
                            i,
                            format!(
                                "map {m} lost, outside the I_ℓ of every started, uncommitted \
                                 reducer"
                            ),
                        );
                    }
                    st.map_committed[m] = None;
                }
                TaskKind::MapRetry => {}
                TaskKind::ReduceStart => {
                    if m >= nr {
                        return violation(
                            "R1",
                            i,
                            format!("ReduceStart for nonexistent reducer {m}"),
                        );
                    }
                    if st.reduce_started[m] {
                        return violation("R1", i, format!("reducer {m} started twice"));
                    }
                    st.reduce_started[m] = true;
                }
                TaskKind::ReduceBarrierMet => {
                    if m >= nr || !st.reduce_started[m] {
                        return violation(
                            "R1",
                            i,
                            format!("barrier met for reducer {m} that isn't started"),
                        );
                    }
                    if e.attempt != st.reduce_failures[m] {
                        return violation(
                            "R1",
                            i,
                            format!(
                                "reducer {m} met its barrier on attempt {} after {} failures",
                                e.attempt, st.reduce_failures[m]
                            ),
                        );
                    }
                    for d in self.deps(m) {
                        if st.map_committed[d].is_none() {
                            return violation(
                                "R2",
                                i,
                                format!(
                                    "reducer {m} met its barrier while dependency map {d} \
                                     stands uncommitted"
                                ),
                            );
                        }
                        if self.volatile
                            && self.deps.is_some()
                            && st.map_end_count[d] < e.attempt + 1
                        {
                            return violation(
                                "R3",
                                i,
                                format!(
                                    "reducer {m} attempt {} met its barrier with only {} \
                                     commit(s) of volatile dependency map {d} (needs {})",
                                    e.attempt,
                                    st.map_end_count[d],
                                    e.attempt + 1
                                ),
                            );
                        }
                    }
                    st.reduce_barrier_attempt[m] = Some(e.attempt);
                }
                TaskKind::ReduceFailed => {
                    if m >= nr || !st.reduce_started[m] {
                        return violation(
                            "R1",
                            i,
                            format!("ReduceFailed for reducer {m} that isn't started"),
                        );
                    }
                    if e.attempt != st.reduce_failures[m] {
                        return violation(
                            "R1",
                            i,
                            format!(
                                "reducer {m} failed attempt {} after {} failures",
                                e.attempt, st.reduce_failures[m]
                            ),
                        );
                    }
                    st.reduce_failures[m] += 1;
                }
                TaskKind::ReduceMergeDone => {
                    if m >= nr || st.reduce_barrier_attempt[m] != Some(e.attempt) {
                        return violation(
                            "R2",
                            i,
                            format!(
                                "ReduceMergeDone for reducer {m} attempt {} without that attempt's barrier",
                                e.attempt
                            ),
                        );
                    }
                }
                TaskKind::ReduceEnd => {
                    if m >= nr || st.reduce_barrier_attempt[m] != Some(e.attempt) {
                        return violation(
                            "R2",
                            i,
                            format!(
                                "reducer {m} committed attempt {} without that attempt's barrier",
                                e.attempt
                            ),
                        );
                    }
                    if st.reduce_done[m] {
                        return violation("R5", i, format!("reducer {m} committed twice"));
                    }
                    st.reduce_done[m] = true;
                }
            }
        }
        Ok(st)
    }
}

struct OracleState {
    map_next_attempt: Vec<u32>,
    /// Attempt ids currently running per map — at most two with a
    /// speculation race in flight, at most one otherwise.
    map_running: Vec<Vec<u32>>,
    /// Outstanding `MapSpeculated` grant not yet consumed by its
    /// `MapStart` (R6: at most one per map at a time).
    spec_grant: Vec<Option<u32>>,
    /// Whether the map was ever raced — once true, the one-attempt-
    /// at-a-time reading of R1 no longer applies to it.
    map_speculated_ever: Vec<bool>,
    /// The generation that stands committed: set by `MapEnd`, cleared
    /// by `MapLost` (R2, R4).
    map_committed: Vec<Option<u32>>,
    map_end_count: Vec<u32>,
    reduce_started: Vec<bool>,
    reduce_failures: Vec<u32>,
    reduce_barrier_attempt: Vec<Option<u32>>,
    reduce_done: Vec<bool>,
}

impl OracleState {
    fn new(nm: usize, nr: usize) -> Self {
        OracleState {
            map_next_attempt: vec![0; nm],
            map_running: vec![Vec::new(); nm],
            spec_grant: vec![None; nm],
            map_speculated_ever: vec![false; nm],
            map_committed: vec![None; nm],
            map_end_count: vec![0; nm],
            reduce_started: vec![false; nr],
            reduce_failures: vec![0; nr],
            reduce_barrier_attempt: vec![None; nr],
            reduce_done: vec![false; nr],
        }
    }

    /// Removes `attempt` from map `m`'s running set; false if it
    /// wasn't running.
    fn map_exit(&mut self, m: usize, attempt: u32) -> bool {
        let running = &mut self.map_running[m];
        match running.iter().position(|&a| a == attempt) {
            Some(idx) => {
                running.swap_remove(idx);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A stream in trace notation, one `kind task/attempt` token per
    /// event, event `i` at `i` ms: `ms` `me` `mf` start, commit and
    /// fail a map attempt, `sp` `sl` grant a twin and lose a race, `ml`
    /// is `MapLost`; `rs` `rb` `rf` `rm` `re` start a reducer, meet its
    /// barrier, fail it, finish its merge and commit it.
    fn stream(trace: &str) -> Vec<TaskEvent> {
        let event = |(i, token): (usize, &str)| {
            let (kind, id) = token.split_at(2);
            let (task, attempt) = id.split_once('/').expect("task/attempt");
            let kind = match kind {
                "ms" => TaskKind::MapStart,
                "me" => TaskKind::MapEnd,
                "mf" => TaskKind::MapFailed,
                "sp" => TaskKind::MapSpeculated,
                "sl" => TaskKind::MapSpeculationLost,
                "ml" => TaskKind::MapLost,
                "rs" => TaskKind::ReduceStart,
                "rb" => TaskKind::ReduceBarrierMet,
                "rf" => TaskKind::ReduceFailed,
                "rm" => TaskKind::ReduceMergeDone,
                "re" => TaskKind::ReduceEnd,
                other => panic!("no event kind {other}"),
            };
            let (task, attempt) = (task.parse().unwrap(), attempt.parse().unwrap());
            let at = Duration::from_millis(i as u64);
            TaskEvent {
                kind,
                task,
                attempt,
                at,
            }
        };
        trace.split_whitespace().enumerate().map(event).collect()
    }

    fn oracle(maps: usize, plan: &JobPlan, volatile: bool) -> TimelineOracle<'_> {
        let config = JobConfig {
            volatile_intermediate: volatile,
            ..JobConfig::default()
        };
        TimelineOracle::for_plan(maps, plan, &config)
    }

    /// The rule a verdict says broke, and where.
    fn broken(verdict: Result<(), ProtocolViolation>) -> (&'static str, usize) {
        let v = verdict.expect_err("a violation");
        (v.invariant, v.index)
    }

    const CLEAN: &str = "rs0/0 ms0/0 me0/0 ms1/0 me1/0 rb0/0 rm0/0 re0/0";

    #[test]
    fn clean_complete_run_passes() {
        let plan = JobPlan::with_deps(vec![vec![0, 1]]);
        oracle(2, &plan, false)
            .check_complete(&stream(CLEAN))
            .unwrap();
    }

    #[test]
    fn incomplete_run_fails_only_the_complete_check() {
        let plan = JobPlan::with_deps(vec![vec![0, 1]]);
        let events = stream(CLEAN.trim_end_matches(" re0/0"));
        oracle(2, &plan, false).check(&events).unwrap();
        let v = oracle(2, &plan, false).check_complete(&events);
        assert_eq!(broken(v), ("R5", 7));
    }

    #[test]
    fn barrier_before_dependency_commit_is_r2() {
        let plan = JobPlan::with_deps(vec![vec![0, 1]]);
        let v = oracle(2, &plan, false).check(&stream("rs0/0 ms0/0 me0/0 rb0/0"));
        assert_eq!(broken(v), ("R2", 3), "map 1 never committed");
        let plan = JobPlan::global(1);
        let v = oracle(1, &plan, false).check(&stream("rs0/0 ms0/0 me0/0 ml0/0 rb0/0"));
        assert_eq!(broken(v), ("R2", 4), "map 0 lost, not yet recommitted");
    }

    #[test]
    fn commit_without_same_attempt_barrier_is_r2() {
        let plan = JobPlan::global(1);
        let v = oracle(1, &plan, false).check(&stream("rs0/0 ms0/0 me0/0 rb0/0 re0/1"));
        assert_eq!(broken(v), ("R2", 4));
    }

    #[test]
    fn attempt_regression_is_r1() {
        let plan = JobPlan::global(1);
        let v = oracle(1, &plan, true).check(&stream("ms0/0 me0/0 ms0/0"));
        assert_eq!(broken(v), ("R1", 2), "attempt 0 again");
    }

    #[test]
    fn ungranted_second_start_is_still_r1() {
        let plan = JobPlan::global(1);
        let v = oracle(1, &plan, false).check(&stream("ms0/0 ms0/1"));
        assert_eq!(broken(v), ("R1", 1));
    }

    #[test]
    fn volatile_recovery_needs_recommit_before_rebarrier() {
        let plan = JobPlan::with_deps(vec![vec![0]]);
        let failed = "rs0/0 ms0/0 me0/0 rb0/0 rf0/0";
        let v = oracle(1, &plan, true).check(&stream(&format!("{failed} rb0/1")));
        assert_eq!(
            broken(v),
            ("R3", 5),
            "the barrier consumed map 0's only commit"
        );
        let recovered = format!("{failed} ml0/0 ms0/1 me0/1 rb0/1 re0/1");
        oracle(1, &plan, true)
            .check_complete(&stream(&recovered))
            .unwrap();
    }

    /// A committed map restarting with no `MapLost` is R4, whatever
    /// failed before it: with persistent intermediate data, and after
    /// a volatile reduce failure whose `I_ℓ` does not hold the map.
    #[test]
    fn committed_map_restarting_without_a_loss_is_r4() {
        let plan = JobPlan::global(1);
        let v = oracle(1, &plan, false).check(&stream("rs0/0 ms0/0 me0/0 ms0/1"));
        assert_eq!(broken(v), ("R4", 3));
        let plan = JobPlan::with_deps(vec![vec![0], vec![1]]);
        let trace = "rs0/0 ms0/0 me0/0 ms1/0 me1/0 rb0/0 rf0/0 ml0/0 ms1/1";
        assert_eq!(
            broken(oracle(2, &plan, true).check(&stream(trace))),
            ("R4", 8)
        );
    }

    /// A source lost under a started, uncommitted reducer — reported by
    /// its reduce, with persistent intermediate data — is re-opened and
    /// re-executed, and the reducer's barrier waits for it.
    #[test]
    fn loss_inside_an_open_reducers_i_ell_then_reexecution_passes() {
        let plan = JobPlan::with_deps(vec![vec![0, 1], vec![2]]);
        let trace = "rs0/0 ms0/0 me0/0 ms1/0 me1/0 rb0/0 ml1/0 ms1/1 me1/1 rb0/0 rm0/0 re0/0";
        oracle(3, &plan, false).check(&stream(trace)).unwrap();
    }

    #[test]
    fn loss_no_unfinished_reducer_needs_is_r4() {
        let plan = JobPlan::with_deps(vec![vec![0], vec![1]]);
        let verdict = |trace| broken(oracle(2, &plan, true).check(&stream(trace)));
        assert_eq!(
            verdict("rs0/0 ms1/0 me1/0 ml1/0"),
            ("R4", 3),
            "reducer 1 unstarted"
        );
        let committed = "rs0/0 ms0/0 me0/0 rb0/0 re0/0 ml0/0";
        assert_eq!(verdict(committed), ("R4", 5), "reducer 0 committed");
        assert_eq!(
            verdict("rs0/0 ms0/0 me0/0 ml0/1"),
            ("R4", 3),
            "not the committed generation"
        );
    }

    /// Map 0 straggles on attempt 0 and a granted twin (attempt 1)
    /// races it: whichever commits first, the loser exits with
    /// `MapSpeculationLost`.
    #[test]
    fn speculative_race_with_either_winner_passes() {
        let plan = JobPlan::with_deps(vec![vec![0]]);
        for trace in [
            "rs0/0 ms0/0 sp0/1 ms0/1 me0/1 rb0/0 sl0/0 re0/0",
            "rs0/0 ms0/0 sp0/1 ms0/1 me0/0 rb0/0 sl0/1 re0/0",
        ] {
            oracle(1, &plan, false)
                .check_complete(&stream(trace))
                .unwrap();
        }
    }

    #[test]
    fn second_outstanding_grant_is_r6() {
        let plan = JobPlan::global(1);
        let v = oracle(1, &plan, false).check(&stream("ms0/0 sp0/1 sp0/2"));
        assert_eq!(broken(v), ("R6", 2));
    }

    #[test]
    fn grant_without_an_uncommitted_running_attempt_is_r6() {
        let plan = JobPlan::global(1);
        let verdict = |trace| broken(oracle(1, &plan, false).check(&stream(trace)));
        assert_eq!(verdict("sp0/0"), ("R6", 0), "nothing running");
        assert_eq!(verdict("ms0/0 me0/0 sp0/1"), ("R6", 2), "already committed");
    }

    #[test]
    fn lifecycle_exit_for_idle_attempt_is_caught() {
        let plan = JobPlan::global(1);
        let verdict = |trace| broken(oracle(1, &plan, false).check(&stream(trace)));
        assert_eq!(verdict("ms0/0 sl0/1"), ("R6", 1), "attempt 1 never started");
        let twice = "ms0/0 sp0/1 ms0/1 me0/1 me0/1";
        assert_eq!(verdict(twice), ("R1", 4), "attempt 1 committed twice");
    }
}
