//! One benchmark run of one workload: set-up, the closed-loop timed
//! window, the output check of every job, and the metrics.
//!
//! `--trace 0` measures the end-to-end metrics with nothing observing
//! the system but two `/proc` reads; `--trace 1` measures the per-layer
//! metrics from a staged replay, outside observation of the real
//! workload and client-side timestamps.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::adapter::{read_array, BoxErr, Client};
use crate::expo::{delta, Scrape};
use crate::metrics::{Value, Values};
use crate::procs::{cpu_seconds, peak_rss_mb};
use crate::reference::Reference;
use crate::staged;
use crate::stats::{median, midmean, percentile, tail_percentile};
use crate::sut::{set_up, worker_table, JobOutput, Runner, Sut, WorkerRow};
use crate::workload::{Workload, MAP_SLOTS, REDUCE_SLOTS};

/// A job that neither completes nor fails within this long is a
/// failure; the system under test is killed to unblock its client.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// System instances per untraced run; each is set up, serves a share
/// of the timed window and is torn down.
const SETUP_REPEATS: usize = 3;

/// Worker-table sampling period during traced rounds.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where sandboxes and `trace-<workload>.jsonl` go.
    pub out_dir: PathBuf,
    /// Deliberately wrong reference: every job must then fail the check.
    pub corrupt_reference: bool,
}

pub struct RunResult {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub jobs_ok: u64,
    pub metrics: Vec<Value>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// One timed job as its client saw it.
struct JobSample {
    admit_ms: f64,
    keyblock_ms: Vec<f64>,
    done_ms: f64,
    /// Whether outside observation was sampling while it ran.
    traced: bool,
}

impl JobSample {
    fn first_keyblock_ms(&self) -> f64 {
        self.keyblock_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    fn last_keyblock_ms(&self) -> f64 {
        self.keyblock_ms.iter().copied().fold(0.0, f64::max)
    }
}

/// What a timed window produced.
struct Window {
    samples: Vec<JobSample>,
    attempted: u64,
    failed: u64,
    seconds: f64,
}

/// Runs one job on `runner` and checks its output.
fn checked_job(runner: &mut Runner, reference: &Reference) -> Result<JobOutput, BoxErr> {
    let mut out = runner.run_job()?;
    reference.check(std::mem::take(&mut out.keyblocks))?;
    Ok(out)
}

/// The closed-loop timed window: every client sends its next job when
/// the previous one's terminal frame arrived, until `seconds` have
/// passed. With `observe`, the clients move in rounds and every other
/// round runs with the flag raised, which the sampler obeys — so
/// traced and untraced jobs interleave under the same conditions.
fn timed_window(
    sut: &mut Sut,
    reference: &Reference,
    seconds: f64,
    observe: Option<&AtomicBool>,
) -> Window {
    let children = sut.sandbox.children();
    let clients = sut.runners.len();
    let round_gate = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<(Result<JobOutput, String>, bool)>();
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut window = Window {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        seconds: 0.0,
    };
    std::thread::scope(|s| {
        for runner in sut.runners.iter_mut() {
            let tx = tx.clone();
            let (round_gate, stop) = (&round_gate, &stop);
            s.spawn(move || {
                let mut round = 0u64;
                loop {
                    let mut traced = false;
                    if let Some(flag) = observe {
                        // The round's leader decides for everyone, so no
                        // client is left waiting at the gate.
                        if round_gate.wait().is_leader() {
                            if Instant::now() >= deadline {
                                stop.store(true, Ordering::SeqCst);
                            }
                            flag.store(round % 2 == 1, Ordering::SeqCst);
                        }
                        round_gate.wait();
                        traced = flag.load(Ordering::SeqCst);
                        round += 1;
                    } else if Instant::now() >= deadline {
                        stop.store(true, Ordering::SeqCst);
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let result = checked_job(runner, reference).map_err(|e| e.to_string());
                    let fatal = result.is_err();
                    let _ = tx.send((result, traced));
                    if fatal && observe.is_none() {
                        // A failed job may have left the connection
                        // mid-stream; this client stops, the others go on.
                        break;
                    }
                    if fatal {
                        // In rounds, stop everyone at the next gate.
                        stop.store(true, Ordering::SeqCst);
                    }
                }
            });
        }
        drop(tx);
        loop {
            match rx.recv_timeout(JOB_TIMEOUT) {
                Ok((Ok(out), traced)) => {
                    window.attempted += 1;
                    window.seconds = started.elapsed().as_secs_f64();
                    window.samples.push(JobSample {
                        admit_ms: out.admit_ms,
                        keyblock_ms: out.keyblock_ms,
                        done_ms: out.done_ms,
                        traced,
                    });
                }
                Ok((Err(e), _)) => {
                    window.attempted += 1;
                    window.failed += 1;
                    eprintln!("sidr-benchmark: job failed: {e}");
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    eprintln!(
                        "sidr-benchmark: no job finished in {} s; killing the system under test",
                        JOB_TIMEOUT.as_secs()
                    );
                    children.kill_all();
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            }
        }
    });
    if let Some(flag) = observe {
        flag.store(false, Ordering::SeqCst);
    }
    window
}

fn each_pid<T>(
    pids: &[(&'static str, u32)],
    f: impl Fn(u32) -> Result<T, BoxErr>,
) -> Result<Vec<T>, BoxErr> {
    pids.iter().map(|(_, pid)| f(*pid)).collect()
}

/// Sets the workload up, runs its warm-up job and returns the set-up
/// time: dataset generation, plan + spec export, process spawn,
/// handshake and the warm-up job (`cargo build` is not in it).
fn timed_set_up(
    w: &Workload,
    opts: &Options,
    reference: &mut Option<Reference>,
) -> Result<(Sut, f64), BoxErr> {
    let started = Instant::now();
    let mut sut = set_up(w, opts.seed, &opts.out_dir, MAP_SLOTS, REDUCE_SLOTS)?;
    let warm = sut.runners[0].run_job()?;
    let setup_s = started.elapsed().as_secs_f64();
    // The oracle reads the generated array once; that is the
    // benchmark's own work, so it sits outside the set-up clock.
    if reference.is_none() {
        let array = read_array(w, &sut.input)?;
        let mut r = Reference::compute(&array, w.space, w.extraction, w.op);
        if opts.corrupt_reference {
            r.corrupt();
        }
        *reference = Some(r);
    }
    let reference = reference.as_ref().expect("just computed");
    if !opts.corrupt_reference {
        reference
            .check(warm.keyblocks)
            .map_err(|e| format!("warm-up job output is wrong: {e}"))?;
    }
    Ok((sut, setup_s))
}

pub fn run(w: &'static Workload, opts: &Options) -> Result<RunResult, BoxErr> {
    if opts.trace {
        run_traced(w, opts)
    } else {
        run_untraced(w, opts)
    }
}

fn run_untraced(w: &'static Workload, opts: &Options) -> Result<RunResult, BoxErr> {
    let mut reference = None;
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    let mut samples = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut window_s, mut cpu_s) = (0.0f64, 0.0f64);
    // The system is set up `SETUP_REPEATS` times and each instance
    // serves its share of the timed window, so that `setup_s` and
    // `peak_rss_mb` are medians over instances and no figure hangs on
    // how one process happened to be laid out in memory.
    for _ in 0..SETUP_REPEATS {
        let (mut sut, setup_s) = timed_set_up(w, opts, &mut reference)?;
        setups.push(setup_s);
        let reference = reference.as_ref().expect("set-up computed it");
        let pids = sut.sandbox.pids();
        let cpu_before: f64 = each_pid(&pids, cpu_seconds)?.iter().sum();
        let share = opts.seconds / SETUP_REPEATS as f64;
        let window = timed_window(&mut sut, reference, share, None);
        attempted += window.attempted;
        failed += window.failed;
        if window.failed > 0 || window.samples.is_empty() {
            // The processes may be gone; there is nothing left to read.
            failed += u64::from(window.attempted == 0);
            break;
        }
        cpu_s += each_pid(&pids, cpu_seconds)?.iter().sum::<f64>() - cpu_before;
        peaks.push(each_pid(&pids, peak_rss_mb)?.iter().sum());
        window_s += window.seconds;
        samples.extend(window.samples);
        // `sut` drops here: the instance is torn down before the next.
    }
    let jobs_ok = samples.len() as u64;
    let mut metrics = Vec::new();
    if failed == 0 {
        let firsts: Vec<f64> = samples.iter().map(JobSample::first_keyblock_ms).collect();
        let arrivals: Vec<f64> = samples
            .iter()
            .flat_map(|j| j.keyblock_ms.iter().copied())
            .collect();
        let walls: Vec<f64> = samples.iter().map(|j| j.done_ms).collect();
        let mut values = Values::end_to_end();
        values.set("setup_s", median(&setups));
        values.set("first_keyblock_ms", midmean(&firsts));
        values.set("keyblock_p50_ms", percentile(&arrivals, 50.0));
        values.set("keyblock_p90_ms", percentile(&arrivals, 90.0));
        values.set("job_wall_ms", median(&walls));
        values.set(
            "input_records_per_s",
            (jobs_ok * w.input_records()) as f64 / window_s,
        );
        values.set("cpu_s_per_job", cpu_s / jobs_ok as f64);
        values.set("peak_rss_mb", median(&peaks));
        metrics = values.finish();
    }
    Ok(RunResult {
        workload: w.name,
        attempted: attempted.max(1),
        failed,
        jobs_ok,
        metrics,
    })
}

/// Polls the coordinator's worker table every [`SAMPLE_EVERY`] while
/// the flag is raised and returns the highest spilled-bytes figure any
/// worker reported (partitions are freed as they are consumed, so only
/// sampling during the job sees them).
fn sample_worker_table(mut client: Client, observe: &AtomicBool, done: &AtomicBool) -> u64 {
    let mut spilled_bytes_peak = 0;
    while !done.load(Ordering::SeqCst) {
        if !observe.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(2));
            continue;
        }
        if let Ok(rows) = worker_table(&mut client) {
            let spilled = rows.iter().map(|r| r.spilled_bytes).max().unwrap_or(0);
            spilled_bytes_peak = spilled_bytes_peak.max(spilled);
        }
        std::thread::sleep(SAMPLE_EVERY);
    }
    spilled_bytes_peak
}

/// What outside observation (source O) and the clients (source C) saw
/// of the real workload.
struct Observation {
    window: Window,
    /// `(role, pid)` of every process, and per process the CPU seconds
    /// used over the window and `VmHWM` at its end.
    pids: Vec<(&'static str, u32)>,
    cpu_s: Vec<f64>,
    peak_rss_mb: Vec<f64>,
    /// Metric scrapes and worker tables before and after the window.
    scrapes: (Scrape, Scrape),
    tables: (Vec<WorkerRow>, Vec<WorkerRow>),
    spilled_bytes_peak: u64,
}

fn observe(sut: &mut Sut, reference: &Reference, seconds: f64) -> Result<Observation, BoxErr> {
    let pids = sut.sandbox.pids();
    let connect = |sut: &Sut| -> Result<Option<Client>, BoxErr> {
        Ok(match &sut.coordinator {
            Some(addr) => Some(Client::connect(addr.as_str())?),
            None => None,
        })
    };
    let mut control = connect(sut)?;
    let mut table = || -> Result<Vec<WorkerRow>, BoxErr> {
        control.as_mut().map_or(Ok(Vec::new()), worker_table)
    };
    let scrape_before = Scrape::parse(&sut.runners[0].scrape()?);
    let table_before = table()?;
    let cpu_before = each_pid(&pids, cpu_seconds)?;
    let (flag, done) = (AtomicBool::new(false), AtomicBool::new(false));
    let sampler_client = connect(sut)?;
    let (window, spilled_bytes_peak) = std::thread::scope(|s| {
        let sampler =
            sampler_client.map(|client| s.spawn(|| sample_worker_table(client, &flag, &done)));
        let window = timed_window(sut, reference, seconds, Some(&flag));
        done.store(true, Ordering::SeqCst);
        let peak = sampler.map_or(0, |h| h.join().expect("sampler does not panic"));
        (window, peak)
    });
    let (mut cpu_s, mut peak_rss) = (Vec::new(), Vec::new());
    let mut table_after = Vec::new();
    let mut scrape_after = String::new();
    if window.failed == 0 {
        cpu_s = each_pid(&pids, cpu_seconds)?
            .iter()
            .zip(&cpu_before)
            .map(|(after, before)| after - before)
            .collect();
        peak_rss = each_pid(&pids, peak_rss_mb)?;
        table_after = table()?;
        scrape_after = sut.runners[0].scrape()?;
    }
    Ok(Observation {
        window,
        pids,
        cpu_s,
        peak_rss_mb: peak_rss,
        scrapes: (scrape_before, Scrape::parse(&scrape_after)),
        tables: (table_before, table_after),
        spilled_bytes_peak,
    })
}

impl Observation {
    /// Sets every source-O and source-C metric.
    fn report(&self, w: &Workload, v: &mut Values) {
        let s = &self.window.samples;
        let jobs = s.len() as f64;
        let scraped = |name: &str| delta(&self.scrapes.0, &self.scrapes.1, name);
        v.set(
            "mapreduce.runtime.barrier_wait_s_per_job",
            scraped("sidr_reduce_barrier_wait_seconds_sum") / jobs,
        );
        v.set(
            "mapreduce.runtime.copy_wait_s_per_job",
            scraped("sidr_reduce_copy_wait_seconds_sum") / jobs,
        );
        v.set(
            "serve.streamed_bytes_per_job",
            scraped("sidr_serve_streamed_bytes_total") / jobs,
        );
        let dispatch_s = scraped("sidr_fleet_dispatch_seconds_sum");
        let dispatch_n = scraped("sidr_fleet_dispatch_seconds_count");
        v.set(
            "serve.fleet.dispatch_mean_ms",
            if dispatch_n > 0.0 {
                dispatch_s / dispatch_n * 1e3
            } else {
                0.0
            },
        );
        v.set("serve.fleet.dispatch_count_per_job", dispatch_n / jobs);
        v.set("serve.fleet.dispatch_s_per_job", dispatch_s / jobs);
        v.set(
            "serve.fleet.fetch_s_per_job",
            scraped("sidr_fleet_fetch_seconds_sum") / jobs,
        );

        let of_role = |role: &str, per_pid: &[f64]| -> Vec<f64> {
            self.pids
                .iter()
                .zip(per_pid)
                .filter(|((r, _), _)| *r == role)
                .map(|(_, x)| *x)
                .collect()
        };
        v.set(
            "serve.coordinator_cpu_s_per_job",
            of_role("coordinator", &self.cpu_s).iter().sum::<f64>() / jobs,
        );
        v.set(
            "worker.cpu_s_per_job",
            of_role("worker", &self.cpu_s).iter().sum::<f64>() / jobs,
        );
        let attempts: Vec<f64> = self
            .tables
            .1
            .iter()
            .zip(&self.tables.0)
            .map(|(after, before)| (after.attempts - before.attempts) as f64)
            .collect();
        let attempts_total: f64 = attempts.iter().sum();
        v.set(
            "worker.task_share_max",
            if attempts_total > 0.0 {
                attempts.iter().copied().fold(0.0, f64::max) / attempts_total
            } else {
                0.0
            },
        );
        let worker_rss_max = of_role("worker", &self.peak_rss_mb)
            .into_iter()
            .fold(0.0, f64::max);
        v.set("worker.peak_rss_mb_max", worker_rss_max);
        v.set(
            "worker.rss_over_budget",
            if w.budget_bytes > 0 {
                worker_rss_max * 1e6 / w.budget_bytes as f64
            } else {
                0.0
            },
        );
        v.set("worker.spilled_bytes_peak", self.spilled_bytes_peak as f64);

        let walls_of = |traced: bool| -> Vec<f64> {
            s.iter()
                .filter(|j| j.traced == traced)
                .map(|j| j.done_ms)
                .collect()
        };
        let (traced, untraced) = (walls_of(true), walls_of(false));
        v.set(
            "trace.overhead_share",
            if traced.is_empty() {
                0.0
            } else {
                median(&traced) / median(&untraced) - 1.0
            },
        );
        let admits: Vec<f64> = s.iter().map(|j| j.admit_ms).collect();
        let drains: Vec<f64> = s.iter().map(|j| j.done_ms - j.last_keyblock_ms()).collect();
        v.set("serve.admit_ms", median(&admits));
        v.set("serve.drain_ms", median(&drains));
        let walls: Vec<f64> = s.iter().map(|j| j.done_ms).collect();
        let tail = tail_percentile(walls.len());
        v.set("job_wall_tail_pct", tail.unwrap_or(0.0));
        v.set(
            "job_wall_tail_ms",
            tail.map_or(0.0, |p| percentile(&walls, p)),
        );
    }
}

/// Share of a traced run's `--seconds` the real workload gets; the
/// single-slot system and the staged replay need the rest.
const OBSERVED_SHARE: f64 = 0.55;

fn run_traced(w: &'static Workload, opts: &Options) -> Result<RunResult, BoxErr> {
    let mut reference = None;
    let (mut sut, _) = timed_set_up(w, opts, &mut reference)?;
    let reference = reference.expect("set-up computed it");
    let seen = observe(&mut sut, &reference, opts.seconds * OBSERVED_SHARE)?;
    let mut result = RunResult {
        workload: w.name,
        attempted: seen.window.attempted.max(1),
        failed: seen.window.failed + u64::from(seen.window.attempted == 0),
        jobs_ok: seen.window.samples.len() as u64,
        metrics: Vec::new(),
    };
    if result.failed > 0 {
        return Ok(result);
    }
    let mut v = Values::per_layer();
    seen.report(w, &mut v);

    // The system has done its part; free its cores for what follows.
    sut.runners.clear();
    sut.sandbox.children().kill_all();
    let single_slot_wall_s = single_slot_wall(w, opts, &reference)?;
    let replay = staged::replay(w, &sut.input, &sut.sandbox.dir().join("staged"), &reference)?;
    replay.report(&mut v, single_slot_wall_s);
    crate::trace::write_jsonl(
        &opts.out_dir.join(format!("trace-{}.jsonl", w.name)),
        replay.spans(),
    )?;
    result.metrics = v.finish();
    Ok(result)
}

/// Median wall of the workload's job on the same kind of system with
/// one map and one reduce slot: what the staged sum is held against.
fn single_slot_wall(w: &Workload, opts: &Options, reference: &Reference) -> Result<f64, BoxErr> {
    let mut sut = set_up(w, opts.seed, &opts.out_dir, 1, 1)?;
    let runner = &mut sut.runners[0];
    runner.run_job()?; // warm-up
    let mut walls = Vec::new();
    let started = Instant::now();
    // Two jobs, or as many as fit in two seconds for a small job.
    while walls.len() < 2 || (started.elapsed().as_secs_f64() < 2.0 && walls.len() < 50) {
        walls.push(checked_job(runner, reference)?.done_ms / 1e3);
    }
    Ok(median(&walls))
}
