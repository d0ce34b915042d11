//! `sidr-benchmark engine-child`: the in-process engine as a system
//! under test in its own process, so the parent reads its CPU seconds
//! and `VmHWM` from `/proc` exactly as it does for the daemons.
//!
//! The parent writes one command per line on stdin (`job`, `metrics`,
//! `quit`; EOF quits too, so an orphaned child never lingers). The
//! child answers on stdout in frames: `ready`, then per job one binary
//! keyblock frame per commit — stamped by the collector below, the
//! stamp (µs since submit) carried in the frame's `at_ms` field — and a
//! terminal `done <wall_us>` or `fail <reason>`.

use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use crate::adapter::{
    encode_keyblock, render_global, run_spec_on_pool, write_frame, BoxErr, Coord, JobSpec,
    MrResult, OutputCollector, ScincFile, SlotPool, SpecRunOptions,
};

struct Commit {
    reducer: usize,
    /// µs since the job was submitted.
    at_us: u64,
    records: Vec<(Coord, f64)>,
}

/// Stamps each commit with the time since the job was submitted.
struct StampingCollector {
    submitted: Instant,
    commits: Mutex<Vec<Commit>>,
}

impl OutputCollector<Coord, f64> for StampingCollector {
    fn commit(&self, reducer: usize, records: Vec<(Coord, f64)>) -> MrResult<()> {
        let at_us = self.submitted.elapsed().as_micros() as u64;
        self.commits
            .lock()
            .expect("no commit panics while holding the lock")
            .push(Commit {
                reducer,
                at_us,
                records,
            });
        Ok(())
    }
}

pub fn main(args: &[String]) -> Result<(), BoxErr> {
    let mut input: Option<PathBuf> = None;
    let mut spec_path: Option<PathBuf> = None;
    let (mut map_slots, mut reduce_slots) = (0usize, 0usize);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--input" => input = Some(value.into()),
            "--spec" => spec_path = Some(value.into()),
            "--map-slots" => map_slots = value.parse()?,
            "--reduce-slots" => reduce_slots = value.parse()?,
            other => return Err(format!("engine-child: unknown flag {other}").into()),
        }
    }
    let input = input.ok_or("engine-child: --input is required")?;
    let spec_path = spec_path.ok_or("engine-child: --spec is required")?;
    let file = ScincFile::open(&input)?;
    let spec = JobSpec::from_json(&std::fs::read_to_string(spec_path)?)?;
    let pool = SlotPool::new(map_slots, reduce_slots)?;
    let opts = SpecRunOptions {
        validate_annotations: true,
        ..SpecRunOptions::default()
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut reply = |payload: &[u8]| -> Result<(), BoxErr> {
        write_frame(&mut out, payload)?;
        out.flush()?;
        Ok(())
    };
    reply(b"ready")?;
    let mut job = 0u64;
    for line in std::io::stdin().lock().lines() {
        match line?.trim() {
            "job" => {
                job += 1;
                let collector = StampingCollector {
                    submitted: Instant::now(),
                    commits: Mutex::new(Vec::new()),
                };
                let result = run_spec_on_pool(&file, &spec, &opts, &collector, &pool, None);
                let wall_us = collector.submitted.elapsed().as_micros();
                match result {
                    Ok(_) => {
                        let commits = collector.commits.into_inner().expect("job has ended");
                        for c in commits {
                            reply(&encode_keyblock(job, c.reducer, c.at_us, &c.records)?)?;
                        }
                        reply(format!("done {wall_us}").as_bytes())?;
                    }
                    Err(e) => reply(format!("fail {e}").as_bytes())?,
                }
            }
            "metrics" => reply(render_global().as_bytes())?,
            "quit" => break,
            other => return Err(format!("engine-child: unknown command {other:?}").into()),
        }
    }
    Ok(())
}
