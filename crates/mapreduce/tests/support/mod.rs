//! Shared support for the scheduler tests: a job whose attempt bodies
//! are plain closures over `u64` records, run through the engine's one
//! entry point, `run_job_with_executor`, on an `InProcessExecutor`.
//!
//! A map attempt honours its injected fault (`begin_map_attempt`, and
//! `injected_source_error` once a `SourceError` fault's records are
//! read), maps every record of its split, routes each intermediate pair,
//! and seals one `MapOutputFile` per non-empty reducer — key-sorted,
//! its annotation the pairs it holds — with `encode_map_output`. A
//! reduce attempt is `run_reduce_attempt` with the job's reduce fn.
//!
//! Included by the `sidr-mapreduce` and `sidr-check` test binaries;
//! each uses a part of it.
#![allow(dead_code)]

use std::collections::BTreeMap;
use std::time::Duration;

use sidr_coords::{Shape, Slab};
use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::{
    begin_map_attempt, injected_source_error, run_job_with_executor, run_reduce_attempt,
    AttemptBodies, CancelToken, FaultKind, InProcessExecutor, InputSplit, JobConfig, JobPlan,
    JobResult, Keyblock, MapAttemptOutput, MapOutputFile, MapTaskId, ModuloPartitioner,
    OutputCollector, Partitioner, Result, SlotPool, Smof3View,
};

/// A job's attempt bodies over closures: see [`bodies`].
pub struct Closures<S, M, P, R> {
    source: S,
    map: M,
    route: P,
    reduce: R,
}

/// The attempt bodies of a job over closures:
/// * `source` — a split's records,
/// * `map` — a record's intermediate pairs,
/// * `route` — an intermediate key's reducer,
/// * `reduce` — the one output value of a key's values.
pub fn bodies<S, M, P, R>(source: S, map: M, route: P, reduce: R) -> Closures<S, M, P, R>
where
    S: Fn(MapTaskId, &InputSplit) -> Vec<(u64, u64)> + Sync,
    M: Fn(u64, u64, &mut dyn FnMut(u64, u64)) + Sync,
    P: Fn(u64) -> usize + Sync,
    R: Fn(&[u64]) -> u64 + Sync,
{
    Closures {
        source,
        map,
        route,
        reduce,
    }
}

impl<S, M, P, R> AttemptBodies for Closures<S, M, P, R>
where
    S: Fn(MapTaskId, &InputSplit) -> Vec<(u64, u64)> + Sync,
    M: Fn(u64, u64, &mut dyn FnMut(u64, u64)) + Sync,
    P: Fn(u64) -> usize + Sync,
    R: Fn(&[u64]) -> u64 + Sync,
{
    type Key = u64;
    type Value = u64;
    type Out = u64;

    fn map(
        &self,
        task: MapTaskId,
        attempt: u32,
        fault: Option<FaultKind>,
        split: &InputSplit,
        pause: &dyn Fn(Duration) -> bool,
    ) -> Result<MapAttemptOutput> {
        let source_err_after = begin_map_attempt(task, attempt, fault, pause)?;
        let mut parts: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        let (mut records_in, mut records_out) = (0u64, 0u64);
        for (k, v) in (self.source)(task, split) {
            if source_err_after.is_some_and(|after| records_in >= after) {
                return Err(injected_source_error(task, attempt, records_in));
            }
            records_in += 1;
            (self.map)(k, v, &mut |k2, v2| {
                parts.entry((self.route)(k2)).or_default().push((k2, v2));
                records_out += 1;
            });
        }
        let partitions = (parts.into_iter())
            .map(|(reducer, mut records)| {
                records.sort_by_key(|&(k, _)| k);
                let raw_count = records.len() as u64;
                Ok((
                    reducer,
                    encode_map_output(&MapOutputFile { records, raw_count })?,
                ))
            })
            .collect::<Result<_>>()?;
        Ok(MapAttemptOutput {
            partitions,
            records_in,
            records_out,
        })
    }

    fn reduce(
        &self,
        reducer: usize,
        inputs: Vec<Smof3View<u64, u64>>,
        expected_raw: Option<u64>,
    ) -> Result<Keyblock<u64, u64>> {
        run_reduce_attempt(reducer, inputs, expected_raw, |values, emit| {
            emit((self.reduce)(values))
        })
    }
}

/// The `(map, reduce)` slots most tests' pools have.
pub const SLOTS: (usize, usize) = (4, 3);

/// Runs `bodies` as one job on a slot pool of its own, of
/// `(map, reduce)` slots.
pub fn run<B: AttemptBodies<Key = u64, Out = u64>>(
    splits: &[InputSplit],
    bodies: B,
    plan: &JobPlan,
    output: &dyn OutputCollector<u64, u64>,
    config: &JobConfig,
    (map_slots, reduce_slots): (usize, usize),
) -> Result<JobResult> {
    let pool = SlotPool::new(map_slots, reduce_slots)?;
    run_shared(splits, bodies, plan, output, config, &pool, None)
}

/// Runs `bodies` as one job on `pool`, which other jobs may share,
/// abandoned when `cancel` is.
pub fn run_shared<B: AttemptBodies<Key = u64, Out = u64>>(
    splits: &[InputSplit],
    bodies: B,
    plan: &JobPlan,
    output: &dyn OutputCollector<u64, u64>,
    config: &JobConfig,
    pool: &SlotPool,
    cancel: Option<&CancelToken>,
) -> Result<JobResult> {
    let executor = InProcessExecutor::with_bodies(bodies, config);
    run_job_with_executor(splits, plan, output, config, pool, cancel, &executor)
}

/// Splits `0..n` into `pieces` integer-keyed splits.
pub fn number_splits(n: u64, pieces: u64) -> Vec<InputSplit> {
    let space = Shape::new(vec![n]).unwrap();
    Slab::whole(&space)
        .split_along_longest(pieces)
        .into_iter()
        .map(|slab| InputSplit { slab })
        .collect()
}

/// Source yielding `(i, i)` for each coordinate of the split.
pub fn identity_source(_id: MapTaskId, split: &InputSplit) -> Vec<(u64, u64)> {
    split.slab.iter_coords().map(|c| (c[0], c[0])).collect()
}

/// The reduce fn of most jobs here.
pub fn sum(values: &[u64]) -> u64 {
    values.iter().sum()
}

/// Sums `identity_source`'s values by `key % 10`, the keys dealt over
/// `reducers` by Hadoop's default for numeric keys, the modulo.
pub fn sum_by_mod10(reducers: usize) -> impl AttemptBodies<Key = u64, Value = u64, Out = u64> {
    bodies(
        identity_source,
        |k, v, emit| emit(k % 10, v),
        move |k| ModuloPartitioner.partition(&k, reducers),
        sum,
    )
}
