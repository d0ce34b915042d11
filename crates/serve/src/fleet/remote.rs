//! [`RemoteJob`]: one job's executor on the fleet.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

use sidr_coords::Coord;
use sidr_core::exec::ExecOptions;
use sidr_core::spec::JobSpec;
use sidr_mapreduce::executor::{MapTally, ReduceSource, RemoteReduceError, TaskExecutor};
use sidr_mapreduce::sync::{time, Mutex};
use sidr_mapreduce::{InputSplit, Keyblock, MapTaskId, MrError};

use super::membership::{fleet_metrics, mark_dead, Fleet, WorkerSlot};
use super::wire::{Reply, SourceLoc, WorkerRequest, WorkerResponse};
use crate::binframe;
use crate::frame::FrameError;

impl Fleet {
    /// A job's remote executor: its id is issued and open until the
    /// executor drops. No worker hears of the job yet: each joins when
    /// a dispatch first picks it.
    pub fn prepare_job(&self, spec: &JobSpec, input: &str, opts: &ExecOptions) -> RemoteJob<'_> {
        let (job, roster) = {
            let mut roster = self.roster.lock();
            let job = roster.issued;
            roster.issued += 1;
            roster.open.push(job);
            (job, roster.clone())
        };
        RemoteJob {
            fleet: self,
            job,
            prepare: WorkerRequest::Prepare {
                roster,
                job,
                spec: spec.clone(),
                input: input.to_string(),
                opts: opts.clone(),
            },
            members: self.slots.iter().map(|_| Mutex::default()).collect(),
            placement: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
        }
    }
}

/// A worker's standing in one job (see [`RemoteJob::join`]).
#[derive(Default)]
struct Member {
    /// `Prepare`s sent to it: the join an attempt goes out under.
    joins: u32,
    /// Its last `Prepare` was answered `Prepared`, and no task since
    /// was answered `UnknownJob`.
    holds: bool,
}

/// One job's remote executor: implements the engine's
/// [`TaskExecutor`] seam by dispatching attempts to the fleet and
/// tracking which worker holds each committed map generation. The job
/// ends when it drops: the next roster a worker hears ends it there.
pub struct RemoteJob<'f> {
    fleet: &'f Fleet,
    job: u64,
    /// The job's `Prepare`, sent to a worker when a dispatch first
    /// picks it, with the roster taken when the job was created.
    prepare: WorkerRequest,
    /// Each fleet slot's standing in this job, index-aligned with the
    /// fleet's slots. The lock is held across the slot's `Prepare`
    /// exchange, so concurrent dispatches prepare a worker once.
    members: Box<[Mutex<Member>]>,
    /// `(map, epoch)` → the fleet slot holding that committed
    /// generation.
    placement: Mutex<HashMap<(usize, u32), usize>>,
    /// map → fleet slot currently executing its *primary* attempt.
    /// Speculative dispatch reads this to place the twin on a
    /// different worker than the straggler.
    in_flight: Mutex<HashMap<usize, usize>>,
}

/// Why a worker did not join: it refused the job (the reason), or its
/// connection died (`None`).
type NoJoin = Option<String>;

impl RemoteJob<'_> {
    /// Workers eligible for this job's dispatch: live ones in slot
    /// order, those reporting memory pressure last (stable sort). A
    /// pressured worker stays a legal target: it is slower, not wrong,
    /// and may be the only one left.
    fn ranked_workers(&self) -> Vec<usize> {
        let slots = &self.fleet.slots;
        let mut ranked: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i].alive.load(Ordering::SeqCst))
            .collect();
        ranked.sort_by_key(|&i| slots[i].pressured.load(Ordering::SeqCst));
        ranked
    }

    /// Makes slot `idx` a member of this job unless it is one: sends it
    /// the job's `Prepare`, with the slot's standing locked across the
    /// exchange. Returns the join an attempt on it goes out under.
    fn join(&self, idx: usize) -> Result<u32, NoJoin> {
        let mut member = self.members[idx].lock();
        if member.holds {
            return Ok(member.joins);
        }
        member.joins += 1;
        let slot = &self.fleet.slots[idx];
        match slot.call(&*self.fleet.net, &self.prepare) {
            Ok((WorkerResponse::Prepared { .. }, _)) => {
                member.holds = true;
                Ok(member.joins)
            }
            Ok((WorkerResponse::Failed { detail, .. }, _)) => Err(Some(format!(
                "worker {} rejected the job: {detail}",
                slot.addr
            ))),
            Ok((other, _)) => Err(Some(format!(
                "worker {}: unexpected reply to Prepare: {other:?}",
                slot.addr
            ))),
            Err(_) => Err(None),
        }
    }

    /// Slot `idx` answered a task of join `joins` with `UnknownJob`: it
    /// lost the job (it restarted, or another coordinator took it
    /// over), and every map output placed on it with it. A later join
    /// is left alone — it went to the worker as it is now.
    fn leave(&self, idx: usize, joins: u32) {
        let mut member = self.members[idx].lock();
        if member.joins == joins {
            member.holds = false;
            self.placement.lock().retain(|_, &mut holder| holder != idx);
        }
    }

    /// The one walk over dispatch candidates: [join](Self::join) each
    /// slot in rank order, then `attempt_on` it, until a worker
    /// *answers* the attempt — whatever it answers, except
    /// `UnknownJob`. Every miss moves the same attempt to the next
    /// candidate, uncharged:
    /// - an `Err` is connection-level death on a fresh dial (a kept
    ///   connection that failed was already retried on one, see
    ///   [`WorkerSlot::call`]): the worker died mid-attempt, having
    ///   committed nothing (map) and released nothing (reduce), so it
    ///   is marked dead, and the attempt counts as reassigned — the
    ///   only miss that does;
    /// - a refused `Prepare` leaves the worker out of this attempt;
    /// - `UnknownJob` is a worker that lost the job: it
    ///   [leaves](Self::leave), and its next pick prepares it afresh.
    ///
    /// When every worker refused, the attempt fails with their reason.
    /// When nobody answered otherwise, every worker may only *look*
    /// dead (missed beats, a cut connection): the walk waits for the
    /// next heartbeat round and goes once more over the candidates
    /// ranked then. `Err` is the reason no candidate answered.
    fn dispatch(
        &self,
        candidates: impl Fn() -> Vec<usize>,
        mut attempt_on: impl FnMut(usize, &WorkerSlot) -> Result<Reply, FrameError>,
    ) -> Result<(usize, Reply), String> {
        let metrics = fleet_metrics();
        let mut refused = None;
        let died = |slot: &WorkerSlot| {
            mark_dead(slot);
            metrics.tasks_reassigned.inc();
        };
        for walk in 0..2 {
            let round = self.fleet.rounds();
            let mut refusals = 0;
            for idx in candidates() {
                let slot = &self.fleet.slots[idx];
                let joins = match self.join(idx) {
                    Ok(joins) => joins,
                    Err(Some(why)) => {
                        refusals += 1;
                        refused = Some(why);
                        continue;
                    }
                    Err(None) => {
                        died(slot);
                        continue;
                    }
                };
                let started = time::now();
                match attempt_on(idx, slot) {
                    Ok((WorkerResponse::UnknownJob { .. }, _)) => self.leave(idx, joins),
                    Ok(reply) => {
                        metrics
                            .dispatch_seconds
                            .observe_duration(time::now().saturating_duration_since(started));
                        return Ok((idx, reply));
                    }
                    Err(_) => died(slot),
                }
            }
            if refusals == self.fleet.slots.len() {
                break;
            }
            if walk == 0 {
                self.fleet.await_round(round);
            }
        }
        Err(refused.unwrap_or_else(|| "no live worker answered the dispatch".into()))
    }
}

impl Drop for RemoteJob<'_> {
    /// The job has ended: every attempt has reported, so no dispatch
    /// of it is in flight.
    fn drop(&mut self) {
        self.fleet.roster.lock().open.retain(|&job| job != self.job);
    }
}

impl TaskExecutor<Coord, f64> for RemoteJob<'_> {
    /// A speculative twin demotes the worker currently running the
    /// primary attempt to the *back* of the candidate list: racing on
    /// the machine that is already slow defeats the point, but it stays
    /// a legal last resort when it is the only live worker.
    fn execute_map(
        &self,
        task: MapTaskId,
        attempt: u32,
        speculative: bool,
        // Every worker opens the same input path: no candidate is
        // closer to a split than another.
        _split: &InputSplit,
        // The attempt runs on a worker, which cannot see the
        // scheduler's cancel or race state.
        _pause: &dyn Fn(Duration) -> bool,
    ) -> sidr_mapreduce::Result<MapTally> {
        let candidates = || {
            let mut ranked = self.ranked_workers();
            if speculative {
                // The twin may be here before its primary was dispatched,
                // which then takes the head of the same ranking.
                let in_flight = self.in_flight.lock().get(&task).copied();
                let busy = in_flight.or(ranked.first().copied());
                if let Some(pos) = busy.and_then(|b| ranked.iter().position(|&i| i == b)) {
                    let demoted = ranked.remove(pos);
                    ranked.push(demoted);
                }
            }
            ranked
        };
        let req = WorkerRequest::RunMap {
            job: self.job,
            task,
            attempt,
        };
        let reply = self.dispatch(candidates, |idx, slot| {
            if !speculative {
                self.in_flight.lock().insert(task, idx);
            }
            let reply = slot.call(&*self.fleet.net, &req);
            if !speculative {
                let mut in_flight = self.in_flight.lock();
                if in_flight.get(&task) == Some(&idx) {
                    in_flight.remove(&task);
                }
            }
            reply
        });
        match reply.map(|(idx, (reply, _))| (idx, reply)) {
            Ok((
                idx,
                WorkerResponse::MapDone {
                    records_in,
                    records_out,
                    partitions,
                    ..
                },
            )) => {
                self.placement.lock().insert((task, attempt), idx);
                Ok(MapTally {
                    records_in,
                    records_out,
                    partitions,
                })
            }
            // The worker is alive and the attempt itself failed
            // (injected fault, bad split): charge the retry budget
            // like a local failure.
            Ok((_, WorkerResponse::Failed { detail, fatal, .. })) => Err(if fatal {
                MrError::TaskFailed {
                    task: format!("map {task}"),
                    cause: detail,
                }
            } else {
                MrError::Source(detail)
            }),
            Ok((_, other)) => Err(MrError::Source(format!(
                "unexpected reply to RunMap: {other:?}"
            ))),
            Err(why) => Err(MrError::Source(format!("map {task}: {why}"))),
        }
    }

    fn execute_reduce(
        &self,
        reducer: usize,
        attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
    ) -> Result<Keyblock<Coord, f64>, RemoteReduceError> {
        // Resolve each source's holder. A generation whose holder is
        // dead or has lost the job since is already lost: report it
        // without burning a dispatch. Dispatch prefers the worker
        // already holding the most source partitions (shuffle-local),
        // then the rest.
        let mut locs = Vec::with_capacity(sources.len());
        let mut lost = Vec::new();
        let mut holder_count: HashMap<usize, usize> = HashMap::new();
        {
            let placement = self.placement.lock();
            let gone = |i: usize| !self.fleet.slots[i].alive.load(Ordering::SeqCst);
            for s in sources {
                match placement.get(&(s.map, s.epoch)) {
                    Some(&slot) if !gone(slot) => {
                        locs.push(SourceLoc {
                            map: s.map,
                            epoch: s.epoch,
                            holder: self.fleet.slots[slot].addr.clone(),
                        });
                        *holder_count.entry(slot).or_default() += 1;
                    }
                    _ => lost.push(s.map),
                }
            }
        }
        if !lost.is_empty() {
            return Err(RemoteReduceError::SourcesLost(lost));
        }

        // Pressure outranks shuffle locality: fetching over the wire
        // from an unpressured worker beats making an over-budget one
        // merge (and page its own partitions back from disk).
        let candidates = || {
            let mut ranked = self.ranked_workers();
            ranked.sort_by_key(|i| {
                (
                    self.fleet.slots[*i].pressured.load(Ordering::SeqCst),
                    std::cmp::Reverse(holder_count.get(i).copied().unwrap_or(0)),
                )
            });
            ranked
        };
        let req = WorkerRequest::RunReduce {
            job: self.job,
            reducer,
            attempt,
            sources: locs,
            expected_raw,
        };
        // A reduce attempt releases nothing until it has replied, so a
        // connection that breaks before the keyblock frame has arrived
        // whole is the walk's business: same attempt, next worker.
        let failed = RemoteReduceError::AttemptFailed;
        let net = &*self.fleet.net;
        let (emitted, fetch_ms, frame) =
            match (self.dispatch(candidates, |_, slot| slot.call(net, &req))).map(|r| r.1) {
                Ok((WorkerResponse::ReduceDone { emitted, fetch_ms }, Some(frame))) => {
                    (emitted, fetch_ms, frame)
                }
                Ok((
                    WorkerResponse::Failed {
                        detail,
                        fatal,
                        lost_sources,
                    },
                    _,
                )) => {
                    return Err(if fatal {
                        RemoteReduceError::Fatal(MrError::TaskFailed {
                            task: "remote reduce".into(),
                            cause: detail,
                        })
                    } else if !lost_sources.is_empty() {
                        RemoteReduceError::SourcesLost(lost_sources)
                    } else {
                        failed(detail)
                    });
                }
                Ok((other, _)) => {
                    return Err(failed(format!(
                        "unexpected frame in reply to RunReduce: {other:?}"
                    )))
                }
                Err(why) => return Err(failed(format!("reduce {reducer}: {why}"))),
            };
        // Nothing is committed unless the keyblock names this job, this
        // reducer and the record count `ReduceDone` announced; a frame
        // that fails any of those (or its CRC) costs the attempt. The
        // frame's buffer is the keyblock: no row is decoded.
        let keyblock = binframe::accept_keyblock(frame, self.job, reducer, emitted)
            .map_err(|e| failed(format!("keyblock frame: {e}")))?;
        fleet_metrics()
            .fetch_seconds
            .observe(Duration::from_millis(fetch_ms).as_secs_f64());
        Ok(keyblock)
    }
}
