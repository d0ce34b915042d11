//! Setting up a workload's system under test — always in processes of
//! its own — and driving one closed-loop job at a time through it.

use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, ChildStdout};
use std::time::Instant;

use crate::adapter::{
    decode_keyblock, generate_dataset, is_binary, plan_spec, read_frame, serve_args, worker_args,
    BoxErr, Client, JobSpec, SubmitOptions,
};
use crate::procs::Sandbox;
use crate::reference::Keyblock;
use crate::workload::{Mode, Workload, FLEET_WORKERS};

/// One job as its client saw it, all times in ms since submit.
pub struct JobOutput {
    /// Submit → `Accepted` (0 on the engine, which has no admission).
    pub admit_ms: f64,
    /// Submit → arrival of each keyblock, in arrival order.
    pub keyblock_ms: Vec<f64>,
    /// Submit → terminal frame.
    pub done_ms: f64,
    pub keyblocks: Vec<Keyblock>,
}

/// The engine child's command pipe and frame stream.
pub struct EngineRunner {
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl EngineRunner {
    fn command(&mut self, cmd: &str) -> Result<(), BoxErr> {
        writeln!(self.stdin, "{cmd}")?;
        self.stdin.flush()?;
        Ok(())
    }

    fn next_frame(&mut self) -> Result<Vec<u8>, BoxErr> {
        read_frame(&mut self.stdout)?.ok_or_else(|| "engine child closed its stdout".into())
    }

    fn run_job(&mut self) -> Result<JobOutput, BoxErr> {
        self.command("job")?;
        let mut keyblock_ms = Vec::new();
        let mut keyblocks = Vec::new();
        loop {
            let frame = self.next_frame()?;
            if is_binary(&frame) {
                // The collector's stamp (µs since submit) rides in `at_ms`.
                let kb = decode_keyblock(&frame)?;
                keyblock_ms.push(kb.at_ms as f64 / 1e3);
                keyblocks.push(Keyblock {
                    reducer: kb.reducer,
                    records: kb.records,
                });
                continue;
            }
            let text = String::from_utf8_lossy(&frame).into_owned();
            return match text.split_once(' ') {
                Some(("done", wall_us)) => Ok(JobOutput {
                    admit_ms: 0.0,
                    keyblock_ms,
                    done_ms: wall_us.trim().parse::<f64>()? / 1e3,
                    keyblocks,
                }),
                _ => Err(format!("engine job failed: {text}").into()),
            };
        }
    }

    fn scrape(&mut self) -> Result<String, BoxErr> {
        self.command("metrics")?;
        Ok(String::from_utf8(self.next_frame()?)?)
    }
}

/// One binary-frame client connection to the coordinator.
pub struct FleetRunner {
    client: Client,
    spec: JobSpec,
    input: String,
}

impl FleetRunner {
    fn run_job(&mut self) -> Result<JobOutput, BoxErr> {
        let submitted = Instant::now();
        let ms = |t: Instant| t.duration_since(submitted).as_secs_f64() * 1e3;
        let ticket = self
            .client
            .submit(&self.spec, &self.input, SubmitOptions::default())?;
        let admit_ms = ms(Instant::now());
        let mut keyblock_ms = Vec::new();
        let mut keyblocks = Vec::new();
        let outcome = self
            .client
            .stream_job(ticket.job, |reducer, _at, records| {
                keyblock_ms.push(ms(Instant::now()));
                keyblocks.push(Keyblock {
                    reducer,
                    records: records.to_vec(),
                });
            })?;
        let done_ms = ms(Instant::now());
        if !outcome.completed {
            return Err(format!("job {} was cancelled", ticket.job).into());
        }
        Ok(JobOutput {
            admit_ms,
            keyblock_ms,
            done_ms,
            keyblocks,
        })
    }
}

pub enum Runner {
    Engine(EngineRunner),
    Fleet(Box<FleetRunner>),
}

impl Runner {
    pub fn run_job(&mut self) -> Result<JobOutput, BoxErr> {
        match self {
            Runner::Engine(r) => r.run_job(),
            Runner::Fleet(r) => r.run_job(),
        }
    }

    /// The system under test's metric registry as Prometheus text: the
    /// coordinator's over the job protocol, the engine child's over
    /// its command pipe.
    pub fn scrape(&mut self) -> Result<String, BoxErr> {
        match self {
            Runner::Engine(r) => r.scrape(),
            Runner::Fleet(r) => Ok(r.client.metrics()?),
        }
    }
}

/// Per-worker figures of the coordinator's stats table.
#[derive(Clone, Debug, Default)]
pub struct WorkerRow {
    pub attempts: u64,
    pub spilled_bytes: u64,
}

pub fn worker_table(client: &mut Client) -> Result<Vec<WorkerRow>, BoxErr> {
    Ok(client
        .stats()?
        .workers
        .iter()
        .map(|w| WorkerRow {
            attempts: w.map_attempts + w.reduce_attempts,
            spilled_bytes: w.spilled_bytes,
        })
        .collect())
}

/// A workload's system under test, set up and ready for jobs.
pub struct Sut {
    /// Owns the dataset, the spill dirs and every process; dropping
    /// the `Sut` tears all of it down.
    pub sandbox: Sandbox,
    pub input: PathBuf,
    /// One runner per closed-loop client.
    pub runners: Vec<Runner>,
    /// Coordinator address (fleet workloads), for extra connections.
    pub coordinator: Option<String>,
}

fn sibling_binary(name: &str) -> Result<PathBuf, BoxErr> {
    let exe = std::env::current_exe()?;
    let path = exe
        .parent()
        .ok_or("benchmark binary has no directory")?
        .join(name);
    if !path.is_file() {
        return Err(format!("{} is not built (run benchmark/run.sh)", path.display()).into());
    }
    Ok(path)
}

/// Spawns an engine child over a dataset and spec and waits for its
/// `ready` frame.
fn spawn_engine(
    sandbox: &Sandbox,
    input: &Path,
    spec_path: &Path,
    map_slots: usize,
    reduce_slots: usize,
) -> Result<EngineRunner, BoxErr> {
    let args = [
        "engine-child".to_string(),
        "--input".to_string(),
        input.display().to_string(),
        "--spec".to_string(),
        spec_path.display().to_string(),
        "--map-slots".to_string(),
        map_slots.to_string(),
        "--reduce-slots".to_string(),
        reduce_slots.to_string(),
    ];
    let (stdin, stdout) = sandbox.spawn_piped("engine", &std::env::current_exe()?, &args)?;
    let mut runner = EngineRunner { stdin, stdout };
    if runner.next_frame()? != b"ready" {
        return Err("engine child did not report ready".into());
    }
    Ok(runner)
}

/// Everything `setup_s` times except the warm-up job: dataset
/// generation from the seed, plan + spec export, process spawn and
/// handshakes.
pub fn set_up(
    w: &Workload,
    seed: u64,
    out_root: &Path,
    map_slots: usize,
    reduce_slots: usize,
) -> Result<Sut, BoxErr> {
    let sandbox = Sandbox::create(out_root, w.name)?;
    let input = sandbox.dir().join("input.scinc");
    generate_dataset(w, seed, &input)?;
    let spec = plan_spec(w)?;
    let spec_path = sandbox.dir().join("spec.json");
    std::fs::write(&spec_path, spec.to_json())?;

    let mut runners = Vec::new();
    let mut coordinator = None;
    match w.mode {
        Mode::Engine => {
            let runner = spawn_engine(&sandbox, &input, &spec_path, map_slots, reduce_slots)?;
            runners.push(Runner::Engine(runner));
        }
        Mode::Fleet => {
            let worker_bin = sibling_binary("sidr-worker")?;
            let mut workers = Vec::new();
            for i in 0..FLEET_WORKERS {
                let spill = sandbox.dir().join(format!("spill-{i}"));
                let args = worker_args(w.budget_bytes, &spill);
                workers.push(sandbox.spawn_daemon("worker", &worker_bin, &args)?);
            }
            let args = serve_args(map_slots, reduce_slots, &workers);
            let addr =
                sandbox.spawn_daemon("coordinator", &sibling_binary("sidr-serve")?, &args)?;
            for _ in 0..w.clients {
                let client = Client::connect_binary(addr.as_str())?;
                if !client.is_binary() {
                    return Err("coordinator refused binary keyblock frames".into());
                }
                runners.push(Runner::Fleet(Box::new(FleetRunner {
                    client,
                    spec: spec.clone(),
                    input: input.display().to_string(),
                })));
            }
            coordinator = Some(addr);
        }
    }
    Ok(Sut {
        sandbox,
        input,
        runners,
        coordinator,
    })
}
