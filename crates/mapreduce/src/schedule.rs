//! SIDR's scheduling policy as plain data: which Reduce task launches
//! next (§3.4), which Map tasks that makes eligible and in what order
//! they are served (§3.3), when a Reduce task's barrier — its
//! dependency set `I_ℓ`, or every map under the global barrier — is
//! met (§3.2), and what each map attempt's launch and outcome mean:
//! attempt ids, first-commit-wins, the retry budget, speculative twins
//! and dependency-scoped recovery (§6).
//!
//! A [`Schedule`] holds no lock, clock, thread or executor. Its owner
//! serialises access and supplies time: the threaded
//! [`runtime`](crate::runtime) embeds one in the state its workers
//! lock, the `sidr-simcluster` event loop embeds one beside its event
//! heap. Both launch reduces with
//! [`launch_next_reduce`](Schedule::launch_next_reduce), launch map
//! attempts with [`claim_map`](Schedule::claim_map), commit them with
//! [`commit`](Schedule::commit) and wait on
//! [`barrier_met`](Schedule::barrier_met) — the same code.
//!
//! **One record per map generation.** A *generation* is one claim of a
//! map from the eligible queue: its primary attempt and at most one
//! speculative twin. Each map keeps one record of its current
//! generation, and every attempt decision is one method over it. A
//! retry and a recovery each start a fresh generation; recovery also
//! raises the *floor* past every attempt of the dead one, because only
//! there can one still be running (a retry waits for its racers). An
//! attempt below the floor can neither commit nor touch the running
//! count or the twin.
//!
//! **Eligible-queue order.** Maps are served in the order reduce
//! launches made them eligible (each `I_ℓ` in its own order; index
//! order when nothing is inverted), so a prioritized keyblock's maps
//! run first even when every reduce already holds a slot. A re-opened
//! map — a retry, or a recovery re-execution — re-enters at the
//! *front*: a launched reduce is already blocked on it.

use std::collections::VecDeque;

use crate::error::MrError;
use crate::split::MapTaskId;
use crate::sync::chaos::{self, Mutation};
use crate::Result;

/// Where one Map task stands.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MapStatus {
    /// Not yet eligible (inverted scheduling: no launched reduce
    /// depends on it yet, §3.3).
    Ineligible,
    /// Queued, ready to be claimed.
    Eligible,
    Running,
    Done,
    /// No reduce depends on this map; it never runs.
    Skipped,
}

/// The speculative twin of a map's current generation — at most one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Twin {
    /// None, and the primary's `MapStart` is not logged yet: a twin's
    /// `MapSpeculated` must never precede its racer's start.
    Unlogged,
    /// None; the primary is logged, so a twin may be granted or forced.
    Ready,
    /// The caller judged the primary slow; an idle map slot may launch
    /// the twin.
    Granted,
    Launched,
}

/// One map's current generation. The first-commit-wins claim is
/// `epoch`: [`Schedule::commit`] claims, marks `Done` and stamps the
/// epoch in one step, so there is no claimed-but-uncommitted state.
#[derive(Clone, Debug)]
struct MapGen {
    status: MapStatus,
    /// Attempt id of the next launch — first runs, retries, twins and
    /// recovery re-executions all count.
    next_attempt: u32,
    /// Failed attempts charged against the retry budget.
    failures: u32,
    /// The attempt whose output is committed, meaningful while `Done`:
    /// a reduce binds exactly this epoch.
    epoch: u32,
    /// Attempts below this belong to a generation recovery declared
    /// dead.
    floor: u32,
    /// Running attempts of this generation: 0, 1, or 2 while a race is
    /// on.
    running: u8,
    twin: Twin,
}

impl MapGen {
    /// Launches this generation's next attempt.
    fn launch(&mut self) -> u32 {
        self.running += 1;
        self.next_attempt += 1;
        self.next_attempt - 1
    }

    fn current(&self, attempt: u32) -> bool {
        attempt >= self.floor
    }

    /// `attempt` stopped running; only the current generation counts.
    fn finish(&mut self, attempt: u32) {
        if self.current(attempt) {
            self.running -= 1;
        }
    }

    /// Whether `attempt` can no longer commit: a racer committed, or
    /// recovery started a newer generation.
    fn race_lost(&self, attempt: u32) -> bool {
        !self.current(attempt) || self.status == MapStatus::Done
    }

    /// Whether a twin in state `twin` may launch against this
    /// generation: exactly one uncommitted primary running.
    fn raceable(&self, twin: Twin) -> bool {
        self.status == MapStatus::Running && self.running == 1 && self.twin == twin
    }
}

/// One job's scheduling state. See the module docs.
#[derive(Clone, Debug)]
pub struct Schedule {
    maps: Vec<MapGen>,
    /// Exactly the `Eligible` maps, in service order.
    eligible: VecDeque<MapTaskId>,
    reduce_order: Vec<usize>,
    /// Next position in `reduce_order`.
    cursor: usize,
    /// `I_ℓ` per reducer; `None` is the global barrier.
    deps: Vec<Option<Vec<MapTaskId>>>,
    /// Inverse of `deps`: the dependency-barrier reducers waiting on
    /// each map.
    dependents: Vec<Vec<usize>>,
    global_reducers: usize,
    /// Entries of `I_ℓ` not yet `Done`, per dependency-barrier reducer.
    pending: Vec<usize>,
    /// Maps neither `Done` nor `Skipped` — what a global barrier waits
    /// for.
    unfinished: usize,
    skipped: usize,
    invert: bool,
}

impl Schedule {
    /// Builds the schedule of a plan: `deps[r]` is reducer `r`'s
    /// `I_ℓ` (`None` = global barrier), `reduce_order` the launch
    /// order, `invert` SIDR's reduce-first scheduling. Without
    /// inversion every map starts eligible, in index order; with it
    /// none does, and maps no reducer depends on are skipped outright.
    pub fn new(
        num_maps: usize,
        deps: Vec<Option<Vec<MapTaskId>>>,
        reduce_order: Vec<usize>,
        invert: bool,
    ) -> Result<Self> {
        let num_reducers = deps.len();
        if reduce_order.len() != num_reducers || reduce_order.iter().any(|&r| r >= num_reducers) {
            return Err(MrError::BadConfig(format!(
                "reduce_order {reduce_order:?} does not cover {num_reducers} reducers"
            )));
        }
        let mut dependents = vec![Vec::new(); num_maps];
        let mut pending = vec![0; num_reducers];
        let mut global_reducers = 0;
        for (r, deps) in deps.iter().enumerate() {
            let Some(deps) = deps else {
                global_reducers += 1;
                continue;
            };
            for &m in deps {
                if m >= num_maps {
                    return Err(MrError::BadConfig(format!(
                        "reduce {r} depends on nonexistent map {m}"
                    )));
                }
                dependents[m].push(r);
            }
            pending[r] = deps.len();
        }
        let maps: Vec<MapGen> = (dependents.iter())
            .map(|waiting| MapGen {
                status: match (invert, global_reducers == 0 && waiting.is_empty()) {
                    (false, _) => MapStatus::Eligible,
                    (true, true) => MapStatus::Skipped,
                    (true, false) => MapStatus::Ineligible,
                },
                next_attempt: 0,
                failures: 0,
                epoch: 0,
                floor: 0,
                running: 0,
                twin: Twin::Unlogged,
            })
            .collect();
        let skipped = maps
            .iter()
            .filter(|g| g.status == MapStatus::Skipped)
            .count();
        Ok(Schedule {
            eligible: if invert {
                VecDeque::new()
            } else {
                (0..num_maps).collect()
            },
            maps,
            reduce_order,
            cursor: 0,
            deps,
            dependents,
            global_reducers,
            pending,
            unfinished: num_maps - skipped,
            skipped,
            invert,
        })
    }

    /// Whether the launch order still holds an unlaunched reduce.
    pub fn reduces_pending(&self) -> bool {
        self.cursor < self.reduce_order.len()
    }

    /// Launches the next reduce of the launch order (the caller holds
    /// a reduce slot for it). Under inverted scheduling this is what
    /// makes its `I_ℓ` eligible: "whenever a Reduce task is scheduled
    /// … all Map tasks that contribute to the Reduce task are marked
    /// as schedulable" (§3.3).
    pub fn launch_next_reduce(&mut self) -> Option<usize> {
        let &r = self.reduce_order.get(self.cursor)?;
        self.cursor += 1;
        if self.invert {
            let Schedule {
                maps,
                eligible,
                deps,
                ..
            } = self;
            let all = 0..maps.len();
            let mut open = |m: MapTaskId| {
                if maps[m].status == MapStatus::Ineligible {
                    maps[m].status = MapStatus::Eligible;
                    eligible.push_back(m);
                }
            };
            match &deps[r] {
                Some(deps) => deps.iter().copied().for_each(&mut open),
                None => all.for_each(&mut open),
            }
        }
        Some(r)
    }

    /// Claims an eligible map for a free map slot — the first queued
    /// map the caller `prefer`s (data locality, in the simulator),
    /// else the head of the queue — and launches a new generation's
    /// primary attempt: `(map, attempt id)`.
    pub fn claim_map(&mut self, prefer: impl Fn(MapTaskId) -> bool) -> Option<(MapTaskId, u32)> {
        let i = self.eligible.iter().position(|&m| prefer(m)).unwrap_or(0);
        let m = self.eligible.remove(i)?;
        let g = &mut self.maps[m];
        g.status = MapStatus::Running;
        g.twin = Twin::Unlogged;
        Some((m, g.launch()))
    }

    /// Launches the speculative twin of a straggling map: the first
    /// raceable `forced` map (the deterministic trigger), else the
    /// granted map blocking the most reducers. Only a generation with
    /// one logged, uncommitted primary running can be raced, and only
    /// once.
    pub(crate) fn claim_twin(&mut self, forced: &[MapTaskId]) -> Option<(MapTaskId, u32)> {
        let m = (forced.iter().copied())
            .find(|&m| self.maps.get(m).is_some_and(|g| g.raceable(Twin::Ready)))
            .or_else(|| {
                (0..self.maps.len())
                    .filter(|&m| self.maps[m].raceable(Twin::Granted))
                    .max_by_key(|&m| (self.blocking_weight(m), m))
            })?;
        let g = &mut self.maps[m];
        g.twin = Twin::Launched;
        Some((m, g.launch()))
    }

    /// Maps whose current generation may still be granted a twin: one
    /// logged primary running and no twin yet. Which of them are slow
    /// is the caller's judgement.
    pub(crate) fn twin_candidates(&self) -> impl Iterator<Item = MapTaskId> + '_ {
        (0..self.maps.len()).filter(|&m| self.maps[m].raceable(Twin::Ready))
    }

    /// Grants map `m`'s current generation its twin, for
    /// [`claim_twin`](Self::claim_twin) to launch.
    pub(crate) fn grant_twin(&mut self, m: MapTaskId) {
        let g = &mut self.maps[m];
        if g.twin == Twin::Ready {
            g.twin = Twin::Granted;
        }
    }

    /// `attempt`'s `MapStart` is on the timeline. Once the current
    /// generation's primary is logged, it may be raced.
    pub(crate) fn note_started(&mut self, m: MapTaskId, attempt: u32) {
        let g = &mut self.maps[m];
        if g.current(attempt) && g.twin == Twin::Unlogged {
            g.twin = Twin::Ready;
        }
    }

    /// First commit wins: `attempt` of map `m` finished its execution.
    /// Unless a racer committed first or `attempt` belongs to a dead
    /// generation, `m` is `Done` at epoch `attempt` and this returns
    /// true; a loser's output is never bound.
    pub fn commit(&mut self, m: MapTaskId, attempt: u32) -> bool {
        let g = &mut self.maps[m];
        g.finish(attempt);
        if g.race_lost(attempt) {
            return false;
        }
        debug_assert_eq!(g.status, MapStatus::Running, "map {m} commits");
        g.status = MapStatus::Done;
        g.epoch = attempt;
        self.unfinished -= 1;
        for &r in &self.dependents[m] {
            self.pending[r] -= 1;
        }
        true
    }

    /// Whether `attempt` of map `m` can no longer commit. A lost
    /// attempt aborts instead of finishing work nobody will consume.
    pub(crate) fn race_lost(&self, m: MapTaskId, attempt: u32) -> bool {
        self.maps[m].race_lost(attempt)
    }

    /// `attempt` of map `m` failed. `None` when its race was already
    /// decided — a loser, not a failure: no budget charged; otherwise
    /// the map's failures so far, this one included.
    pub(crate) fn attempt_failed(&mut self, m: MapTaskId, attempt: u32) -> Option<u32> {
        let g = &mut self.maps[m];
        g.finish(attempt);
        if g.race_lost(attempt) {
            return None;
        }
        g.failures += 1;
        Some(g.failures)
    }

    /// After failed `attempt`'s backoff: hands map `m` back for its
    /// next attempt, ahead of everything queued, and returns that
    /// attempt's id. `None` when there is nothing to retry — the race
    /// was decided meanwhile, a racer is still in flight (it will
    /// commit, or fail and retry through here), or a racer already
    /// re-opened the map.
    pub(crate) fn retry(&mut self, m: MapTaskId, attempt: u32) -> Option<u32> {
        let g = &self.maps[m];
        if g.race_lost(attempt) || g.running > 0 || g.status != MapStatus::Running {
            return None;
        }
        self.reopen(m);
        Some(self.maps[m].next_attempt)
    }

    /// Dependency-scoped recovery (§6): the output of map `m` a reduce
    /// bound at `bound_epoch` is gone. When that is still the committed
    /// generation, `m` is re-opened at the front of the queue as a
    /// fresh generation whose floor no attempt of the dead one reaches,
    /// and this returns true. A no-op when a concurrent reducer already
    /// recovered it or a re-execution recommitted.
    pub(crate) fn recover(&mut self, m: MapTaskId, bound_epoch: u32) -> bool {
        let g = &mut self.maps[m];
        if g.status != MapStatus::Done || g.epoch != bound_epoch {
            return false;
        }
        g.floor = g.next_attempt;
        if !chaos::on(Mutation::RecoveryInheritsRacers) {
            g.running = 0;
        }
        self.reopen(m);
        true
    }

    /// Moves a `Running` (retry) or `Done` (recovery) map to the front
    /// of the eligible queue.
    fn reopen(&mut self, m: MapTaskId) {
        if self.maps[m].status == MapStatus::Done {
            self.unfinished += 1;
            for &r in &self.dependents[m] {
                self.pending[r] += 1;
            }
        }
        self.maps[m].status = MapStatus::Eligible;
        self.eligible.push_front(m);
    }

    /// Whether every map reducer `r` waits for is `Done` (§3.2): its
    /// `I_ℓ`, or all maps under the global barrier.
    pub fn barrier_met(&self, r: usize) -> bool {
        match self.deps[r] {
            Some(_) => self.pending[r] == 0,
            None => self.unfinished == 0,
        }
    }

    /// Reduce `r`'s readiness: once its barrier is met and every
    /// source is committed at an epoch no older than its `min_epoch`
    /// (one per source, in [`sources`](Self::sources) order), the
    /// epochs a dispatch binds.
    pub(crate) fn bound_epochs(&self, r: usize, min_epoch: &[u32]) -> Option<Vec<u32>> {
        if !self.barrier_met(r) {
            return None;
        }
        let epochs: Vec<u32> = (self.sources(r).into_iter())
            .map(|m| self.maps[m].epoch)
            .collect();
        (epochs.iter().zip(min_epoch))
            .all(|(e, min)| e >= min)
            .then_some(epochs)
    }

    /// The maps reducer `r` waits for and fetches from: `I_ℓ`, or
    /// every map (stock Hadoop "requires that every Reduce task
    /// contact every completed Map task", §4.6).
    pub fn sources(&self, r: usize) -> Vec<MapTaskId> {
        match &self.deps[r] {
            Some(deps) => deps.clone(),
            None => (0..self.maps.len()).collect(),
        }
    }

    pub fn status(&self, m: MapTaskId) -> MapStatus {
        self.maps[m].status
    }

    /// Attempts of map `m` launched so far.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn attempts(&self, m: MapTaskId) -> u32 {
        self.maps[m].next_attempt
    }

    /// Maps that will never run because no reducer depends on them.
    pub fn maps_skipped(&self) -> usize {
        self.skipped
    }

    /// Maps neither `Done` nor `Skipped`.
    pub fn maps_unfinished(&self) -> usize {
        self.unfinished
    }

    /// How many reducers' barriers contain map `m` — what a straggling
    /// `m` stalls.
    pub fn blocking_weight(&self, m: MapTaskId) -> usize {
        self.dependents[m].len() + self.global_reducers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three reducers over six maps, `I_ℓ = {2ℓ, 2ℓ+1}`; map 6 feeds
    /// nobody.
    fn sidr(order: Vec<usize>) -> Schedule {
        let deps = (0..3).map(|r| Some(vec![2 * r, 2 * r + 1])).collect();
        Schedule::new(7, deps, order, true).unwrap()
    }

    fn drain(s: &mut Schedule) -> Vec<MapTaskId> {
        std::iter::from_fn(|| s.claim_map(|_| false).map(|(m, _)| m)).collect()
    }

    /// Every reduce of `sidr` launched and map 0's primary (attempt 0)
    /// running with its `MapStart` logged.
    fn racing() -> Schedule {
        let mut s = sidr(vec![0, 1, 2]);
        while s.launch_next_reduce().is_some() {}
        assert_eq!(s.claim_map(|m| m == 0), Some((0, 0)));
        s.note_started(0, 0);
        s
    }

    #[test]
    fn classic_scheduling_serves_every_map_in_index_order() {
        let mut s = Schedule::new(4, vec![None, None], vec![0, 1], false).unwrap();
        assert_eq!(s.maps_skipped(), 0);
        assert_eq!(drain(&mut s), vec![0, 1, 2, 3]);
        assert_eq!(s.launch_next_reduce(), Some(0));
        assert!(!s.barrier_met(0));
        for m in 0..4 {
            assert!(s.commit(m, 0));
        }
        assert!(s.barrier_met(0) && s.barrier_met(1));
        assert_eq!(s.sources(1), vec![0, 1, 2, 3]);
        assert_eq!(s.bound_epochs(1, &[0; 4]), Some(vec![0; 4]));
        assert_eq!(s.blocking_weight(2), 2);
    }

    #[test]
    fn inverted_scheduling_opens_maps_per_launched_reduce() {
        let mut s = sidr(vec![0, 1, 2]);
        assert_eq!(s.maps_skipped(), 1);
        assert_eq!(s.status(6), MapStatus::Skipped);
        assert_eq!(s.claim_map(|_| true), None, "nothing launched yet");
        assert_eq!(s.launch_next_reduce(), Some(0));
        assert_eq!(drain(&mut s), vec![0, 1]);
        assert!(s.commit(0, 0));
        assert!(!s.barrier_met(0));
        assert!(s.commit(1, 0));
        assert!(s.barrier_met(0) && !s.barrier_met(1));
        assert_eq!(s.maps_unfinished(), 4);
    }

    /// §3.4 steering with every reduce already in flight: the
    /// prioritized keyblock's maps still head the queue.
    #[test]
    fn eligible_queue_follows_the_launch_order() {
        let mut s = sidr(vec![2, 0, 1]);
        while s.launch_next_reduce().is_some() {}
        assert!(!s.reduces_pending());
        assert_eq!(drain(&mut s), vec![4, 5, 0, 1, 2, 3]);
    }

    #[test]
    fn claim_takes_the_first_preferred_map_else_the_head() {
        let mut s = sidr(vec![0, 1, 2]);
        while s.launch_next_reduce().is_some() {}
        assert_eq!(s.claim_map(|m| m >= 3), Some((3, 0)));
        assert_eq!(s.claim_map(|m| m > 9), Some((0, 0)));
    }

    #[test]
    fn reopened_maps_jump_the_queue_and_rearm_barriers() {
        let mut s = sidr(vec![0, 1, 2]);
        while s.launch_next_reduce().is_some() {}
        assert_eq!(s.claim_map(|_| true), Some((0, 0)));
        assert_eq!(s.claim_map(|_| true), Some((1, 0)));
        assert!(s.commit(0, 0) && s.commit(1, 0));
        assert!(s.barrier_met(0));
        // Recovery of a committed map, then a retry of a running one.
        assert!(s.recover(0, 0));
        assert!(!s.barrier_met(0));
        assert_eq!(s.claim_map(|_| true), Some((0, 1)));
        assert_eq!(s.attempt_failed(0, 1), Some(1));
        assert_eq!(s.retry(0, 1), Some(2));
        assert_eq!(drain(&mut s), vec![0, 2, 3, 4, 5]);
    }

    #[test]
    fn a_global_reducer_under_inversion_opens_everything_and_skips_nothing() {
        let mut s = Schedule::new(3, vec![Some(vec![1]), None], vec![0, 1], true).unwrap();
        assert_eq!(s.maps_skipped(), 0);
        s.launch_next_reduce();
        assert_eq!(s.status(0), MapStatus::Ineligible);
        s.launch_next_reduce();
        assert_eq!(drain(&mut s), vec![1, 0, 2]);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        assert!(Schedule::new(2, vec![None], vec![], false).is_err());
        assert!(Schedule::new(2, vec![None], vec![1], false).is_err());
        assert!(Schedule::new(2, vec![Some(vec![2])], vec![0], true).is_err());
    }

    #[test]
    fn primaries_and_twins_take_fresh_attempt_ids() {
        let mut s = racing();
        assert_eq!(s.claim_twin(&[0]), Some((0, 1)));
        assert_eq!(s.claim_map(|m| m == 1), Some((1, 0)));
        assert_eq!(s.attempts(0), 2);
        assert_eq!(s.attempts(1), 1);
    }

    #[test]
    fn first_commit_wins_and_the_loser_is_refused() {
        let mut s = racing();
        assert_eq!(s.claim_twin(&[0]), Some((0, 1)));
        assert!(!s.race_lost(0, 0));
        assert!(s.commit(0, 1), "the twin commits first");
        assert!(s.race_lost(0, 0));
        assert!(!s.commit(0, 0), "the primary loses");
        assert_eq!(s.claim_map(|m| m == 1), Some((1, 0)));
        s.note_started(1, 0);
        assert_eq!(s.claim_twin(&[1]), Some((1, 1)));
        assert!(s.commit(1, 0));
        assert_eq!(s.attempt_failed(1, 1), None, "a dying loser is no failure");
        assert_eq!(s.bound_epochs(0, &[0, 0]), Some(vec![1, 0]));
    }

    #[test]
    fn recovery_raises_the_floor_past_the_old_racer() {
        let mut s = racing();
        assert_eq!(s.claim_twin(&[0]), Some((0, 1)));
        assert!(s.commit(0, 1));
        assert!(s.recover(0, 1));
        assert_eq!(s.status(0), MapStatus::Eligible);
        assert!(
            s.race_lost(0, 0),
            "the straggling primary is below the floor"
        );
        assert!(!s.commit(0, 0));
        assert_eq!(s.claim_map(|m| m == 0), Some((0, 2)));
        assert!(s.commit(0, 2));
    }

    /// The lost-partition race at ledger level: a reducer that bound
    /// an old epoch must not re-open a recommitted generation.
    #[test]
    fn recovery_of_a_stale_epoch_is_a_no_op() {
        let mut s = racing();
        assert!(s.commit(0, 0));
        assert!(s.recover(0, 0));
        assert!(
            !s.recover(0, 0),
            "a concurrent reducer already recovered it"
        );
        assert_eq!(s.claim_map(|m| m == 0), Some((0, 1)));
        assert!(s.commit(0, 1));
        assert!(!s.recover(0, 0), "epoch 1 is committed, not the lost 0");
        assert_eq!(s.status(0), MapStatus::Done);
        assert_eq!(s.bound_epochs(0, &[1, 0]), None, "map 1 is not done");
    }

    #[test]
    fn two_failed_racers_reopen_once() {
        let mut s = racing();
        assert_eq!(s.claim_twin(&[0]), Some((0, 1)));
        assert_eq!(s.attempt_failed(0, 0), Some(1));
        assert_eq!(s.attempt_failed(0, 1), Some(2));
        assert_eq!(s.retry(0, 1), Some(2));
        assert_eq!(s.retry(0, 0), None, "already re-opened");
        assert_eq!(drain(&mut s), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_retry_waits_while_a_racer_is_in_flight() {
        let mut s = racing();
        assert_eq!(s.claim_twin(&[0]), Some((0, 1)));
        assert_eq!(s.attempt_failed(0, 0), Some(1));
        assert_eq!(s.retry(0, 0), None, "the twin still runs");
        assert_eq!(s.status(0), MapStatus::Running);
        assert!(s.commit(0, 1));
        assert_eq!(s.retry(0, 0), None, "the twin committed");
    }

    #[test]
    fn one_twin_per_generation_rearmed_by_recovery() {
        let mut s = racing();
        assert_eq!(s.twin_candidates().collect::<Vec<_>>(), vec![0]);
        s.grant_twin(0);
        assert_eq!(s.twin_candidates().count(), 0);
        assert_eq!(s.claim_twin(&[]), Some((0, 1)));
        assert_eq!(s.claim_twin(&[0]), None, "one twin per generation");
        assert!(s.commit(0, 0));
        assert!(s.recover(0, 0));
        assert_eq!(s.claim_map(|m| m == 0), Some((0, 2)));
        s.note_started(0, 2);
        assert_eq!(s.claim_twin(&[0]), Some((0, 3)), "a fresh generation");
    }

    #[test]
    fn no_twin_before_the_primary_start_is_logged() {
        let mut s = sidr(vec![0, 1, 2]);
        s.launch_next_reduce();
        assert_eq!(s.claim_map(|_| true), Some((0, 0)));
        assert_eq!(s.twin_candidates().count(), 0);
        assert_eq!(s.claim_twin(&[0]), None);
        s.note_started(0, 0);
        assert_eq!(s.claim_twin(&[0]), Some((0, 1)));
    }

    /// A twin commits, its holder dies and recovery re-opens the map;
    /// the straggling primary of the dead generation then replies. It
    /// must not decrement the new generation's running count, or the
    /// new primary could never be raced.
    #[test]
    fn a_dead_generation_reply_leaves_the_new_running_count() {
        let mut s = racing();
        assert_eq!(s.claim_twin(&[0]), Some((0, 1)));
        assert!(s.commit(0, 1));
        assert!(s.recover(0, 1));
        assert_eq!(s.claim_map(|m| m == 0), Some((0, 2)));
        assert!(!s.commit(0, 0), "the old primary loses at the floor");
        s.note_started(0, 2);
        assert_eq!(s.twin_candidates().collect::<Vec<_>>(), vec![0]);
        assert_eq!(s.claim_twin(&[0]), Some((0, 3)));
    }

    /// A twin granted to a generation that then commits and is
    /// recovered must not launch against the next generation, which
    /// nobody judged slow — and the dead generation's twin logging its
    /// start late must not arm the new primary before it is logged.
    #[test]
    fn a_dead_generation_twin_state_does_not_carry_over() {
        let mut s = racing();
        s.grant_twin(0);
        assert!(s.commit(0, 0), "committed before the twin launched");
        assert!(s.recover(0, 0));
        assert_eq!(s.claim_map(|m| m == 0), Some((0, 1)));
        s.note_started(0, 1);
        assert_eq!(s.claim_twin(&[]), None, "the stale grant is gone");

        assert_eq!(s.claim_map(|m| m == 1), Some((1, 0)));
        s.note_started(1, 0);
        assert_eq!(s.claim_twin(&[1]), Some((1, 1)));
        assert!(s.commit(1, 0));
        assert!(s.recover(1, 0));
        assert_eq!(s.claim_map(|m| m == 1), Some((1, 2)));
        s.note_started(1, 1); // the dead twin's late `MapStart`
        assert_eq!(s.claim_twin(&[1]), None, "primary 2 is not logged");
    }
}
