//! [`RemoteJob`]: one job's executor on the fleet.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sidr_coords::Coord;
use sidr_core::exec::ExecOptions;
use sidr_core::spec::JobSpec;
use sidr_mapreduce::executor::{MapTally, ReduceSource, RemoteReduceError, TaskExecutor};
use sidr_mapreduce::sync::chaos::{self, Mutation};
use sidr_mapreduce::sync::{time, Mutex};
use sidr_mapreduce::{InputSplit, MapTaskId, MrError};

use super::membership::{fleet_metrics, mark_dead, Fleet, WorkerSlot, HEARTBEAT_TIMEOUT};
use super::wire::{call, Reply, SourceLoc, WorkerRequest, WorkerResponse};
use crate::binframe;
use crate::frame::FrameError;

impl Fleet {
    /// Prepares a job on every live worker and returns its remote
    /// executor.
    pub fn prepare_job(
        &self,
        spec: &JobSpec,
        input: &str,
        opts: &ExecOptions,
    ) -> Result<RemoteJob<'_>, MrError> {
        let job = self.job_seq.fetch_add(1, Ordering::Relaxed);
        let req = WorkerRequest::Prepare {
            session: self.session,
            job,
            spec: spec.clone(),
            input: input.to_string(),
            opts: opts.clone(),
        };
        // Every worker may only *look* dead: give the heartbeat one
        // round to say otherwise.
        if !(self.slots.iter()).any(|s| s.alive.load(Ordering::SeqCst)) {
            self.await_round(self.rounds());
        }
        // A slot is part of this job only if it answered `Prepare`: a
        // worker skipped as dead here that the heartbeat revives a
        // moment later never installed the job.
        let prepared: Box<[AtomicBool]> =
            self.slots.iter().map(|_| AtomicBool::new(false)).collect();
        let mut refused = None;
        for (slot, prepared) in self.slots.iter().zip(prepared.iter()) {
            if !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            match slot.call(&*self.net, &req) {
                Ok((WorkerResponse::Prepared { .. }, _)) => prepared.store(true, Ordering::SeqCst),
                Ok((WorkerResponse::Failed { detail, .. }, _)) => {
                    refused = Some(format!("worker {} rejected the job: {detail}", slot.addr));
                    break;
                }
                Ok((other, _)) => {
                    refused = Some(format!(
                        "worker {}: unexpected reply to Prepare: {other:?}",
                        slot.addr
                    ));
                    break;
                }
                // A worker dying during prepare is not fatal — it is
                // simply not part of this job.
                Err(_) => mark_dead(slot),
            }
        }
        let remote = RemoteJob {
            fleet: self,
            job,
            prepare: req,
            prepared,
            placement: Mutex::new(HashMap::new()),
            in_flight: Mutex::new(HashMap::new()),
        };
        if refused.is_none() && remote.members().next().is_none() {
            refused = Some("no live workers to run the job".into());
        }
        match refused {
            // The workers that did answer `Prepared` hold the job's
            // executor and open input until told otherwise.
            Some(why) => {
                remote.finish();
                Err(MrError::BadConfig(why))
            }
            None => Ok(remote),
        }
    }
}

/// One job's remote executor: implements the engine's
/// [`TaskExecutor`] seam by dispatching attempts to the fleet and
/// tracking which worker holds each committed map generation.
pub struct RemoteJob<'f> {
    fleet: &'f Fleet,
    job: u64,
    /// The job's `Prepare`, for enlisting late members.
    prepare: WorkerRequest,
    /// Which workers are members of this job (index-aligned with the
    /// fleet's slots): they answered `Prepare` and have not since
    /// rejoined. Dispatch never targets the others.
    prepared: Box<[AtomicBool]>,
    /// `(map, epoch)` → the fleet slot holding that committed
    /// generation.
    placement: Mutex<HashMap<(usize, u32), usize>>,
    /// map → fleet slot currently executing its *primary* attempt.
    /// Speculative dispatch reads this to place the twin on a
    /// different worker than the straggler.
    in_flight: Mutex<HashMap<usize, usize>>,
}

impl RemoteJob<'_> {
    /// The slots that are members of this job, in slot order.
    fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.prepared.len()).filter(|&i| self.prepared[i].load(Ordering::SeqCst))
    }

    /// Broadcasts `Finish`, dropping the job's state on every prepared
    /// worker — including one currently marked dead: a missed heartbeat
    /// may only mean slow, and a live worker left unfinished would keep
    /// the job's executor and partitions. The probe timeout bounds the
    /// call to one that really is gone.
    pub fn finish(&self) {
        for i in self.members() {
            let slot = &self.fleet.slots[i];
            if chaos::on(Mutation::FinishSkipsDeadWorkers) && !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            let finish = WorkerRequest::Finish { job: self.job };
            call(
                &*self.fleet.net,
                &slot.addr,
                &finish,
                Some(HEARTBEAT_TIMEOUT),
            )
            .ok();
        }
    }

    /// Workers eligible for this job's dispatch: live members in slot
    /// order, those reporting memory pressure last (stable sort). A
    /// pressured worker stays a legal target: it is slower, not wrong,
    /// and may be the only one left.
    fn ranked_workers(&self) -> Vec<usize> {
        let slots = &self.fleet.slots;
        let mut ranked: Vec<usize> = (self.members())
            .filter(|&i| slots[i].alive.load(Ordering::SeqCst))
            .collect();
        ranked.sort_by_key(|&i| slots[i].pressured.load(Ordering::SeqCst));
        ranked
    }

    /// Installs the job on live workers that are not members — they
    /// looked dead at `Prepare`, or rejoined since — for a dispatch no
    /// member answered.
    fn enlist(&self) {
        for (slot, prepared) in self.fleet.slots.iter().zip(self.prepared.iter()) {
            if prepared.load(Ordering::SeqCst) || !slot.alive.load(Ordering::SeqCst) {
                continue;
            }
            let reply = slot.call(&*self.fleet.net, &self.prepare);
            if let Ok((WorkerResponse::Prepared { .. }, _)) = reply {
                prepared.store(true, Ordering::SeqCst);
            }
        }
    }

    /// The one walk over dispatch candidates: `attempt_on` each slot in
    /// rank order until a worker *answers* — whatever it answers, except
    /// `UnknownJob`. An `Err` is connection-level death on a fresh dial
    /// (a kept connection that failed was already retried on one, see
    /// [`WorkerSlot::call`]): the worker died
    /// mid-attempt, having committed nothing (map) and released nothing
    /// (reduce), so it is marked dead and the same attempt moves to the
    /// next candidate. `UnknownJob` is a worker that rejoined since
    /// `Prepare`: it leaves this job and the attempt moves on, uncharged
    /// either way. When nobody answered, every member may only *look*
    /// dead (missed beats, a cut connection): the walk waits for the
    /// next heartbeat round, [enlists](Self::enlist) live non-members
    /// and goes once more over the candidates ranked then. `None` means
    /// no candidate answered either time.
    fn dispatch(
        &self,
        candidates: impl Fn() -> Vec<usize>,
        mut attempt_on: impl FnMut(usize, &WorkerSlot) -> Result<Reply, FrameError>,
    ) -> Option<(usize, Reply)> {
        let metrics = fleet_metrics();
        for walk in 0..2 {
            let round = self.fleet.rounds();
            for (nth, idx) in candidates().into_iter().enumerate() {
                if nth > 0 || walk > 0 {
                    metrics.tasks_reassigned.inc();
                }
                let slot = &self.fleet.slots[idx];
                let started = time::now();
                match attempt_on(idx, slot) {
                    Ok((WorkerResponse::UnknownJob { .. }, _)) => {
                        self.prepared[idx].store(false, Ordering::SeqCst);
                    }
                    Ok(reply) => {
                        metrics
                            .dispatch_seconds
                            .observe_duration(time::now().saturating_duration_since(started));
                        return Some((idx, reply));
                    }
                    Err(_) => mark_dead(slot),
                }
            }
            if walk == 0 {
                self.fleet.await_round(round);
                self.enlist();
            }
        }
        None
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
            Some((
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
            Some((_, WorkerResponse::Failed { detail, fatal, .. })) => Err(if fatal {
                MrError::TaskFailed {
                    task: format!("map {task}"),
                    cause: detail,
                }
            } else {
                MrError::Source(detail)
            }),
            Some((_, other)) => Err(MrError::Source(format!(
                "unexpected reply to RunMap: {other:?}"
            ))),
            None => Err(MrError::Source(format!(
                "map {task}: no live worker answered the dispatch"
            ))),
        }
    }

    fn execute_reduce(
        &self,
        reducer: usize,
        attempt: u32,
        sources: &[ReduceSource],
        expected_raw: Option<u64>,
    ) -> Result<Vec<(Coord, f64)>, RemoteReduceError> {
        // Resolve each source's holder. A generation whose holder is
        // dead or has rejoined since is already lost: report it
        // without burning a dispatch. Dispatch prefers the worker
        // already holding the most source partitions (shuffle-local),
        // then the rest.
        let mut locs = Vec::with_capacity(sources.len());
        let mut lost = Vec::new();
        let mut holder_count: HashMap<usize, usize> = HashMap::new();
        {
            let placement = self.placement.lock();
            let gone = |i: usize| {
                !self.fleet.slots[i].alive.load(Ordering::SeqCst)
                    || !self.prepared[i].load(Ordering::SeqCst)
            };
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
                Some((WorkerResponse::ReduceDone { emitted, fetch_ms }, Some(frame))) => {
                    (emitted, fetch_ms, frame)
                }
                Some((
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
                Some((other, _)) => {
                    return Err(failed(format!(
                        "unexpected frame in reply to RunReduce: {other:?}"
                    )))
                }
                None => {
                    return Err(failed(format!(
                        "reduce {reducer}: no live worker answered the dispatch"
                    )))
                }
            };
        // Nothing is committed unless the keyblock names this job, this
        // reducer and the record count `ReduceDone` announced; a frame
        // that fails any of those (or its CRC) costs the attempt.
        let kb = binframe::decode_keyblock(&frame)
            .map_err(|e| failed(format!("keyblock frame: {e}")))?;
        if (kb.job, kb.reducer, kb.records.len() as u64) != (self.job, reducer, emitted) {
            return Err(failed(format!(
                "keyblock frame names job {} reducer {} with {} records, \
                 not job {} reducer {reducer} with {emitted}",
                kb.job,
                kb.reducer,
                kb.records.len(),
                self.job
            )));
        }
        fleet_metrics()
            .fetch_seconds
            .observe(Duration::from_millis(fetch_ms).as_secs_f64());
        Ok(kb.records)
    }
}
