//! The runtime's timeline protocol oracle.
//!
//! A job's [`TaskEvent`] stream is a total order (monotonic clock,
//! causal push order breaking ties), so the concurrency protocol the
//! runtime promises — attempt-stamped task lifecycles, per-reducer
//! dependency barriers, `I_ℓ`-confined recovery (§3.2, §6) — is
//! checkable after the fact from the events alone. The oracle is pure
//! data in, verdict out: the recovery tests run it over real jobs, the
//! fault-plan property sweep runs it over thousands of random jobs,
//! and the sidr-check scenarios run it over *every explored schedule*,
//! where a protocol violation that needs one specific interleaving
//! actually gets hit.
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
//!   carry the next attempt id and is illegal while another grant for
//!   `m` is outstanding; every lifecycle exit (`MapEnd`, `MapFailed`,
//!   `MapSpeculationLost`) must name an attempt that is actually
//!   running. A speculative start is *not* recovery: it neither needs
//!   volatile mode nor a failed reducer's dependency set.
//! * **R2 — barrier after dependencies.** `ReduceBarrierMet(r)`
//!   requires a committed `MapEnd` for every map in `deps(r)` (all
//!   maps under a global barrier) earlier in the stream.
//! * **R3 — volatile re-wait.** With volatile intermediate data,
//!   attempt `a`'s barrier consumed `a` earlier fetches, so every map
//!   in `deps(r)` needs ≥ `a + 1` commits by then. Counting commits
//!   (not windows) keeps the rule sound when overlapping recoveries
//!   share re-executions. Only checked for dependency-barrier
//!   reducers: SIDR's `I_ℓ` is by construction the set of maps that
//!   contribute data, which is exactly the set the runtime re-runs.
//! * **R4 — confined recovery.** A re-execution of a *committed* map
//!   must be recovery (volatile mode) and confined to the union of
//!   `deps(r)` over reducers that have failed so far. Suppressed when
//!   [`corruption_possible`](TimelineOracle::corruption_possible):
//!   CRC-detected corrupt fetches re-enqueue without a timeline event,
//!   so confinement is not decidable from the stream.
//! * **R5 — completion** ([`check_complete`]): exactly one
//!   `ReduceEnd` per reducer, each preceded by its own attempt's
//!   `ReduceBarrierMet`.
//!
//! [`check_complete`]: TimelineOracle::check_complete

use sidr_mapreduce::{TaskEvent, TaskKind};

/// One broken invariant, with the index of the offending event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolViolation {
    /// Which invariant broke (`"R1"` … `"R5"`).
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
/// protocol. Construct with the job's shape, then [`check`] any
/// prefix of a run or [`check_complete`] a finished one.
///
/// [`check`]: TimelineOracle::check
/// [`check_complete`]: TimelineOracle::check_complete
#[derive(Clone, Debug)]
pub struct TimelineOracle {
    num_maps: usize,
    /// Per-reducer dependency sets; `None` is a global barrier (all
    /// maps).
    deps: Vec<Option<Vec<usize>>>,
    volatile_intermediate: bool,
    corruption_possible: bool,
}

impl TimelineOracle {
    /// Oracle for a job of `num_maps` maps and `num_reducers`
    /// reducers, all reducers on the global barrier, persistent
    /// intermediate data, no corruption faults.
    pub fn new(num_maps: usize, num_reducers: usize) -> Self {
        TimelineOracle {
            num_maps,
            deps: vec![None; num_reducers],
            volatile_intermediate: false,
            corruption_possible: false,
        }
    }

    /// Declares reducer `r`'s dependency set `I_ℓ` (builder-style).
    pub fn with_deps(mut self, r: usize, deps: Vec<usize>) -> Self {
        self.deps[r] = Some(deps);
        self
    }

    /// Declares the job volatile: fetches consume intermediate data,
    /// arming the R3 re-wait check.
    pub fn volatile_intermediate(mut self, yes: bool) -> Self {
        self.volatile_intermediate = yes;
        self
    }

    /// Declares that map-output corruption faults may fire, which
    /// makes recovery re-executions undecidable from the stream and
    /// suppresses R4.
    pub fn corruption_possible(mut self, yes: bool) -> Self {
        self.corruption_possible = yes;
        self
    }

    fn effective_deps(&self, r: usize) -> Vec<usize> {
        match &self.deps[r] {
            Some(d) => d.clone(),
            None => (0..self.num_maps).collect(),
        }
    }

    /// Checks R1–R4 over any (prefix of a) job event stream, in
    /// stream order. The stream may belong to an unfinished, failed
    /// or cancelled job; only what happened is judged.
    pub fn check(&self, events: &[TaskEvent]) -> Result<(), ProtocolViolation> {
        self.run(events).map(|_| ())
    }

    /// [`check`](Self::check) plus R5: the stream must describe a
    /// complete successful job — every reducer committed exactly once,
    /// after a same-attempt barrier.
    pub fn check_complete(&self, events: &[TaskEvent]) -> Result<(), ProtocolViolation> {
        let st = self.run(events)?;
        for (r, done) in st.reduce_done.iter().enumerate() {
            if !done {
                return Err(ProtocolViolation {
                    invariant: "R5",
                    message: format!("reducer {r} never committed (no ReduceEnd)"),
                    index: events.len(),
                });
            }
        }
        Ok(())
    }

    fn run(&self, events: &[TaskEvent]) -> Result<OracleState, ProtocolViolation> {
        let nr = self.deps.len();
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
                        // was vetted (and `map_next_attempt` advanced)
                        // at the `MapSpeculated` event, and racing an
                        // already-running straggler is the whole
                        // point, so neither the while-running nor the
                        // recovery-confinement checks apply.
                        st.spec_grant[m] = None;
                        st.map_running[m].push(e.attempt);
                        st.map_failed_last[m] = false;
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
                    // A committed map starting again is a recovery
                    // re-execution (a retry follows MapFailed, not
                    // MapEnd); recovery must be volatile-mode and
                    // confined to failed reducers' dependency sets —
                    // unless corrupt fetches (which re-enqueue without
                    // an event) are in play.
                    if st.map_committed_ever[m]
                        && !st.map_failed_last[m]
                        && !self.corruption_possible
                    {
                        if !self.volatile_intermediate {
                            return violation(
                                "R4",
                                i,
                                format!(
                                    "committed map {m} re-executed with persistent \
                                     intermediate data"
                                ),
                            );
                        }
                        if !st.recovery_allowed[m] {
                            return violation(
                                "R4",
                                i,
                                format!(
                                    "recovery re-ran map {m}, outside every failed \
                                     reducer's dependency set"
                                ),
                            );
                        }
                    }
                    st.map_next_attempt[m] += 1;
                    st.map_running[m].push(e.attempt);
                    st.map_failed_last[m] = false;
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
                    // No running-attempt requirement: the grant and
                    // the primary's exit are recorded by different
                    // threads, so the stream may legally show MapEnd
                    // before the already-decided MapSpeculated.
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
                    st.map_failed_last[m] = false;
                    st.map_committed_ever[m] = true;
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
                    st.map_failed_last[m] = true;
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
                    // Losing a race is not failure: the winner's
                    // commit stands and `map_failed_last` is whatever
                    // the committed lifecycle left it.
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
                    for d in self.effective_deps(m) {
                        if st.map_end_count[d] == 0 {
                            return violation(
                                "R2",
                                i,
                                format!(
                                    "reducer {m} met its barrier before dependency map {d} \
                                     committed"
                                ),
                            );
                        }
                        if self.volatile_intermediate
                            && self.deps[m].is_some()
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
                    for d in self.effective_deps(m) {
                        st.recovery_allowed[d] = true;
                    }
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
    /// Last lifecycle event was `MapFailed` (so the next start is a
    /// retry, not a recovery re-execution).
    map_failed_last: Vec<bool>,
    map_committed_ever: Vec<bool>,
    map_end_count: Vec<u32>,
    /// Maps inside some failed reducer's dependency set — the union
    /// recovery is allowed to re-run (R4).
    recovery_allowed: Vec<bool>,
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
            map_failed_last: vec![false; nm],
            map_committed_ever: vec![false; nm],
            map_end_count: vec![0; nm],
            recovery_allowed: vec![false; nm],
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

    fn ev(kind: TaskKind, task: usize, attempt: u32, ms: u64) -> TaskEvent {
        TaskEvent {
            kind,
            task,
            attempt,
            at: Duration::from_millis(ms),
        }
    }

    fn clean_run() -> Vec<TaskEvent> {
        vec![
            ev(TaskKind::ReduceStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 0, 1),
            ev(TaskKind::MapEnd, 0, 0, 2),
            ev(TaskKind::MapStart, 1, 0, 3),
            ev(TaskKind::MapEnd, 1, 0, 4),
            ev(TaskKind::ReduceBarrierMet, 0, 0, 5),
            ev(TaskKind::ReduceMergeDone, 0, 0, 6),
            ev(TaskKind::ReduceEnd, 0, 0, 7),
        ]
    }

    #[test]
    fn clean_complete_run_passes() {
        let oracle = TimelineOracle::new(2, 1).with_deps(0, vec![0, 1]);
        oracle.check_complete(&clean_run()).unwrap();
    }

    #[test]
    fn barrier_before_dependency_commit_is_r2() {
        let events = vec![
            ev(TaskKind::ReduceStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 0, 1),
            ev(TaskKind::MapEnd, 0, 0, 2),
            // map 1 never committed
            ev(TaskKind::ReduceBarrierMet, 0, 0, 3),
        ];
        let oracle = TimelineOracle::new(2, 1).with_deps(0, vec![0, 1]);
        let v = oracle.check(&events).unwrap_err();
        assert_eq!(v.invariant, "R2");
        assert_eq!(v.index, 3);
    }

    #[test]
    fn attempt_regression_is_r1() {
        let events = vec![
            ev(TaskKind::MapStart, 0, 0, 0),
            ev(TaskKind::MapEnd, 0, 0, 1),
            ev(TaskKind::MapStart, 0, 0, 2), // attempt 0 again
        ];
        let oracle = TimelineOracle::new(1, 1).volatile_intermediate(true);
        let v = oracle
            .clone()
            .corruption_possible(true)
            .check(&events)
            .unwrap_err();
        assert_eq!(v.invariant, "R1");
    }

    #[test]
    fn volatile_recovery_needs_recommit_before_rebarrier() {
        // Reducer fails attempt 0 and meets its attempt-1 barrier
        // without its volatile dependency ever recommitting: R3.
        let events = vec![
            ev(TaskKind::ReduceStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 0, 1),
            ev(TaskKind::MapEnd, 0, 0, 2),
            ev(TaskKind::ReduceBarrierMet, 0, 0, 3),
            ev(TaskKind::ReduceFailed, 0, 0, 4),
            ev(TaskKind::ReduceBarrierMet, 0, 1, 5),
        ];
        let oracle = TimelineOracle::new(1, 1)
            .with_deps(0, vec![0])
            .volatile_intermediate(true);
        let v = oracle.check(&events).unwrap_err();
        assert_eq!(v.invariant, "R3");

        // With the re-execution in between, the same stream is legal.
        let fixed = vec![
            ev(TaskKind::ReduceStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 0, 1),
            ev(TaskKind::MapEnd, 0, 0, 2),
            ev(TaskKind::ReduceBarrierMet, 0, 0, 3),
            ev(TaskKind::ReduceFailed, 0, 0, 4),
            ev(TaskKind::MapStart, 0, 1, 5),
            ev(TaskKind::MapEnd, 0, 1, 6),
            ev(TaskKind::ReduceBarrierMet, 0, 1, 7),
            ev(TaskKind::ReduceEnd, 0, 1, 8),
        ];
        oracle.check_complete(&fixed).unwrap();
    }

    #[test]
    fn recovery_outside_dependency_set_is_r4() {
        // Reducer 0 (deps {0}) fails; map 1 — only reducer 1 depends
        // on it — gets re-executed anyway.
        let events = vec![
            ev(TaskKind::ReduceStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 0, 1),
            ev(TaskKind::MapEnd, 0, 0, 2),
            ev(TaskKind::MapStart, 1, 0, 3),
            ev(TaskKind::MapEnd, 1, 0, 4),
            ev(TaskKind::ReduceBarrierMet, 0, 0, 5),
            ev(TaskKind::ReduceFailed, 0, 0, 6),
            ev(TaskKind::MapStart, 1, 1, 7),
        ];
        let oracle = TimelineOracle::new(2, 2)
            .with_deps(0, vec![0])
            .with_deps(1, vec![1])
            .volatile_intermediate(true);
        let v = oracle.check(&events).unwrap_err();
        assert_eq!(v.invariant, "R4");
        assert_eq!(v.index, 7);

        // The same re-execution is acceptable once corrupt fetches
        // (invisible re-enqueues) are possible.
        oracle.corruption_possible(true).check(&events).unwrap();
    }

    #[test]
    fn incomplete_run_fails_only_the_complete_check() {
        let mut events = clean_run();
        events.pop(); // drop the ReduceEnd
        let oracle = TimelineOracle::new(2, 1).with_deps(0, vec![0, 1]);
        oracle.check(&events).unwrap();
        let v = oracle.check_complete(&events).unwrap_err();
        assert_eq!(v.invariant, "R5");
    }

    #[test]
    fn speculative_race_with_either_winner_passes() {
        // Map 0 straggles on attempt 0; a granted twin (attempt 1)
        // races it. Whichever attempt commits first, the stream is
        // legal — the loser exits with MapSpeculationLost.
        let oracle = TimelineOracle::new(1, 1).with_deps(0, vec![0]);
        let twin_wins = vec![
            ev(TaskKind::ReduceStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 0, 1),
            ev(TaskKind::MapSpeculated, 0, 1, 2),
            ev(TaskKind::MapStart, 0, 1, 3),
            ev(TaskKind::MapEnd, 0, 1, 4),
            ev(TaskKind::ReduceBarrierMet, 0, 0, 5),
            ev(TaskKind::MapSpeculationLost, 0, 0, 6),
            ev(TaskKind::ReduceEnd, 0, 0, 7),
        ];
        oracle.check_complete(&twin_wins).unwrap();
        let primary_wins = vec![
            ev(TaskKind::ReduceStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 0, 1),
            ev(TaskKind::MapSpeculated, 0, 1, 2),
            ev(TaskKind::MapStart, 0, 1, 3),
            ev(TaskKind::MapEnd, 0, 0, 4),
            ev(TaskKind::ReduceBarrierMet, 0, 0, 5),
            ev(TaskKind::MapSpeculationLost, 0, 1, 6),
            ev(TaskKind::ReduceEnd, 0, 0, 7),
        ];
        oracle.check_complete(&primary_wins).unwrap();
    }

    #[test]
    fn second_outstanding_grant_is_r6() {
        let events = vec![
            ev(TaskKind::MapStart, 0, 0, 0),
            ev(TaskKind::MapSpeculated, 0, 1, 1),
            ev(TaskKind::MapSpeculated, 0, 2, 2), // grant 1 never consumed
        ];
        let oracle = TimelineOracle::new(1, 1);
        let v = oracle.check(&events).unwrap_err();
        assert_eq!(v.invariant, "R6");
        assert_eq!(v.index, 2);
    }

    #[test]
    fn lifecycle_exit_for_idle_attempt_is_caught() {
        // A MapSpeculationLost naming an attempt that never started.
        let events = vec![
            ev(TaskKind::MapStart, 0, 0, 0),
            ev(TaskKind::MapSpeculationLost, 0, 1, 1),
        ];
        let oracle = TimelineOracle::new(1, 1);
        let v = oracle.check(&events).unwrap_err();
        assert_eq!(v.invariant, "R6");

        // And a MapEnd for the attempt the twin already committed.
        let events = vec![
            ev(TaskKind::MapStart, 0, 0, 0),
            ev(TaskKind::MapSpeculated, 0, 1, 1),
            ev(TaskKind::MapStart, 0, 1, 2),
            ev(TaskKind::MapEnd, 0, 1, 3),
            ev(TaskKind::MapEnd, 0, 1, 4), // double commit of attempt 1
        ];
        let v = oracle.check(&events).unwrap_err();
        assert_eq!(v.invariant, "R1");
        assert_eq!(v.index, 4);
    }

    #[test]
    fn ungranted_second_start_is_still_r1() {
        // Without a MapSpeculated grant, a second concurrent start of
        // a never-raced map keeps tripping the classic R1 check.
        let events = vec![
            ev(TaskKind::MapStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 1, 1),
        ];
        let oracle = TimelineOracle::new(1, 1);
        let v = oracle.check(&events).unwrap_err();
        assert_eq!(v.invariant, "R1");
        assert_eq!(v.index, 1);
    }

    #[test]
    fn commit_without_same_attempt_barrier_is_r2() {
        let events = vec![
            ev(TaskKind::ReduceStart, 0, 0, 0),
            ev(TaskKind::MapStart, 0, 0, 1),
            ev(TaskKind::MapEnd, 0, 0, 2),
            ev(TaskKind::ReduceBarrierMet, 0, 0, 3),
            ev(TaskKind::ReduceEnd, 0, 1, 4), // attempt 1 never met a barrier
        ];
        let oracle = TimelineOracle::new(1, 1);
        let v = oracle.check(&events).unwrap_err();
        assert_eq!(v.invariant, "R2");
    }
}
