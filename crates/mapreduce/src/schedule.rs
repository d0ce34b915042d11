//! SIDR's scheduling policy as plain data: which Reduce task launches
//! next (§3.4), which Map tasks that makes eligible and in what order
//! they are served (§3.3), and when a Reduce task's barrier — its
//! dependency set `I_ℓ`, or every map under the global barrier — is
//! met (§3.2).
//!
//! A [`Schedule`] holds no lock, clock, thread or executor. Its owner
//! serialises access and supplies time: the threaded
//! [`runtime`](crate::runtime) embeds one in the state its workers
//! lock, the `sidr-simcluster` event loop embeds one beside its event
//! heap. Both therefore make the same five decisions —
//! [`launch_next_reduce`](Schedule::launch_next_reduce),
//! [`claim_map`](Schedule::claim_map), [`map_done`](Schedule::map_done),
//! [`reopen`](Schedule::reopen), [`barrier_met`](Schedule::barrier_met)
//! — from the same code.
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

/// One job's scheduling state. See the module docs.
#[derive(Clone, Debug)]
pub struct Schedule {
    maps: Vec<MapStatus>,
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
        let mut maps = vec![MapStatus::Eligible; num_maps];
        if invert {
            for (status, waiting) in maps.iter_mut().zip(&dependents) {
                *status = if global_reducers == 0 && waiting.is_empty() {
                    MapStatus::Skipped
                } else {
                    MapStatus::Ineligible
                };
            }
        }
        let skipped = maps.iter().filter(|&&s| s == MapStatus::Skipped).count();
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
                if maps[m] == MapStatus::Ineligible {
                    maps[m] = MapStatus::Eligible;
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

    /// Claims an eligible map for a free map slot: the first queued
    /// map the caller `prefer`s (data locality, in the simulator),
    /// else the head of the queue.
    pub fn claim_map(&mut self, prefer: impl Fn(MapTaskId) -> bool) -> Option<MapTaskId> {
        let i = self.eligible.iter().position(|&m| prefer(m)).unwrap_or(0);
        let m = self.eligible.remove(i)?;
        self.maps[m] = MapStatus::Running;
        Some(m)
    }

    /// Records running map `m`'s commit.
    pub fn map_done(&mut self, m: MapTaskId) {
        debug_assert_eq!(self.maps[m], MapStatus::Running, "map {m} commits");
        self.maps[m] = MapStatus::Done;
        self.unfinished -= 1;
        for &r in &self.dependents[m] {
            self.pending[r] -= 1;
        }
    }

    /// Hands map `m` back for another execution, ahead of everything
    /// queued: a failed attempt's retry (`Running`), or recovery of a
    /// committed output that is gone (`Done`). A map already queued —
    /// two failed racers both re-open it — stays queued once.
    pub fn reopen(&mut self, m: MapTaskId) {
        match self.maps[m] {
            MapStatus::Running => {}
            MapStatus::Done => {
                self.unfinished += 1;
                for &r in &self.dependents[m] {
                    self.pending[r] += 1;
                }
            }
            MapStatus::Eligible | MapStatus::Ineligible | MapStatus::Skipped => return,
        }
        self.maps[m] = MapStatus::Eligible;
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
        self.maps[m]
    }

    /// Maps that will never run because no reducer depends on them.
    pub fn maps_skipped(&self) -> usize {
        self.skipped
    }

    /// Maps that are `Done` or `Skipped`.
    pub fn maps_finished(&self) -> usize {
        self.maps.len() - self.unfinished
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
        std::iter::from_fn(|| s.claim_map(|_| false)).collect()
    }

    #[test]
    fn classic_scheduling_serves_every_map_in_index_order() {
        let mut s = Schedule::new(4, vec![None, None], vec![0, 1], false).unwrap();
        assert_eq!(s.maps_skipped(), 0);
        assert_eq!(drain(&mut s), vec![0, 1, 2, 3]);
        assert_eq!(s.launch_next_reduce(), Some(0));
        assert!(!s.barrier_met(0));
        for m in 0..4 {
            s.map_done(m);
        }
        assert!(s.barrier_met(0) && s.barrier_met(1));
        assert_eq!(s.sources(1), vec![0, 1, 2, 3]);
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
        s.map_done(0);
        assert!(!s.barrier_met(0));
        s.map_done(1);
        assert!(s.barrier_met(0) && !s.barrier_met(1));
        assert_eq!(s.maps_finished(), 3);
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
        assert_eq!(s.claim_map(|m| m >= 3), Some(3));
        assert_eq!(s.claim_map(|m| m > 9), Some(0));
    }

    #[test]
    fn reopened_maps_jump_the_queue_and_rearm_barriers() {
        let mut s = sidr(vec![0, 1, 2]);
        while s.launch_next_reduce().is_some() {}
        assert_eq!(s.claim_map(|_| true), Some(0));
        assert_eq!(s.claim_map(|_| true), Some(1));
        s.map_done(0);
        s.map_done(1);
        assert!(s.barrier_met(0));
        // Recovery of a committed map, then a retry of a running one.
        s.reopen(0);
        assert!(!s.barrier_met(0));
        assert_eq!(s.claim_map(|_| true), Some(0));
        s.reopen(0);
        s.reopen(0); // both failed racers re-open: queued once
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
}
