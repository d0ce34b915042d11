//! The staged replay: the benchmark itself drives one job of the
//! workload through the layers' public functions on one thread, each
//! call wrapped in a span, so every layer's time is measured at its
//! boundary without a line of instrumentation inside the program.
//!
//! `run_map` reads, maps and encodes in one call, and `run_reduce`
//! parses, merges and reduces in one call; their parts are therefore
//! also driven *standalone* (a pure split read, a pure re-encode, a
//! pure parse, a pure merge), and the drivers' own share is what is
//! left: `map_self = map − read − encode`, `reduce_self = reduce −
//! parse − merge`. The standalone spans repeat work the drivers already
//! did, so the staged sum counts the drivers and leaves them out.

use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::{mpsc, Arc};

use crate::adapter::{
    analyze_spec, decode_keyblock, decode_map_output, encode_keyblock, encode_map_output,
    partition_store, query_and_splits, read_frame, write_frame, AnalyzeOptions, BoxErr, Coord,
    Element, ExecOptions, FaultPlan, GroupBatch, InputSplit, JobSpec, MergeIter, PartitionStore,
    RecordSource, ScincFile, ScincRecordSource, SidrPlanner, Smof3View, SpecExecutor, VARIABLE,
};
use crate::metrics::Values;
use crate::reference::{Keyblock, Reference};
use crate::trace::{Span, Tracer};
use crate::workload::{Elem, Workload};

/// The replayed job's id in spans and store keys.
const JOB: u64 = 1;

/// Records per `fill_batch`, as the reduce driver batches them.
const MERGE_BATCH_RECORDS: usize = 4096;

pub struct Replay {
    tracer: Tracer,
    counts: Counts,
}

/// Work counted at the layer boundaries during the replay.
struct Counts {
    records_read: u64,
    map_records_out: u64,
    shuffle_bytes: u64,
    merged_records: u64,
    spilled_bytes: u64,
    peak_resident_bytes: u64,
    budgeted: bool,
}

/// Spans whose work happens once per job; their total is the staged sum.
const SUMMED: &[&str] = &[
    "core.plan.build",
    "core.spec.from_plan",
    "core.spec.to_json",
    "core.spec.from_json",
    "analyze.admit",
    "core.exec.map",
    "core.exec.reduce",
    "serve.binframe.encode",
    "serve.frame.roundtrip",
    "serve.binframe.decode",
];

impl Replay {
    pub fn spans(&self) -> &[Span] {
        self.tracer.spans()
    }

    /// Sets every staged (source S) metric. `single_slot_wall_s` is the
    /// same job's wall on a 1 map + 1 reduce slot engine: the staged
    /// sum plus the unattributed remainder equals it by construction.
    pub fn report(&self, v: &mut Values, single_slot_wall_s: f64) {
        let t = |name: &str| self.tracer.total(name);
        let rate = |n: u64, s: f64| if s > 0.0 { n as f64 / s } else { 0.0 };
        v.set("core.plan.build_ms", t("core.plan.build") * 1e3);
        v.set(
            "core.spec.roundtrip_ms",
            (t("core.spec.from_plan") + t("core.spec.to_json") + t("core.spec.from_json")) * 1e3,
        );
        v.set("analyze.admit_ms", t("analyze.admit") * 1e3);
        v.set("scifile.read_s", t("scifile.read"));
        v.set(
            "scifile.records_per_s",
            rate(self.counts.records_read, t("scifile.read")),
        );
        v.set("core.exec.map_s", t("core.exec.map"));
        v.set(
            "core.exec.map_self_s",
            t("core.exec.map") - t("scifile.read") - t("mapreduce.shuffle_file.encode"),
        );
        v.set(
            "core.exec.map_records_out",
            self.counts.map_records_out as f64,
        );
        v.set("core.exec.shuffle_bytes", self.counts.shuffle_bytes as f64);
        let encode_s = t("mapreduce.shuffle_file.encode");
        v.set("mapreduce.shuffle_file.encode_s", encode_s);
        v.set(
            "mapreduce.shuffle_file.encode_mb_per_s",
            if encode_s > 0.0 {
                self.counts.shuffle_bytes as f64 / 1e6 / encode_s
            } else {
                0.0
            },
        );
        v.set("mapreduce.smof3.parse_s", t("mapreduce.smof3.parse"));
        v.set("mapreduce.shuffle.merge_s", t("mapreduce.shuffle.merge"));
        v.set(
            "mapreduce.shuffle.merge_records_per_s",
            rate(self.counts.merged_records, t("mapreduce.shuffle.merge")),
        );
        v.set("core.exec.reduce_s", t("core.exec.reduce"));
        v.set(
            "core.exec.reduce_self_s",
            t("core.exec.reduce") - t("mapreduce.smof3.parse") - t("mapreduce.shuffle.merge"),
        );
        v.set("mapreduce.tier.insert_s", t("mapreduce.tier.insert"));
        v.set("mapreduce.tier.get_s", t("mapreduce.tier.get"));
        v.set(
            "mapreduce.tier.spill_insert_s",
            t("mapreduce.tier.spill_insert"),
        );
        v.set("mapreduce.tier.spill_get_s", t("mapreduce.tier.spill_get"));
        v.set(
            "mapreduce.tier.spilled_bytes",
            self.counts.spilled_bytes as f64,
        );
        v.set(
            "mapreduce.tier.peak_resident_bytes",
            self.counts.peak_resident_bytes as f64,
        );
        v.set("serve.binframe.encode_s", t("serve.binframe.encode"));
        v.set("serve.binframe.decode_s", t("serve.binframe.decode"));
        v.set("serve.frame.roundtrip_s", t("serve.frame.roundtrip"));

        // The store the workload's workers run with is the one whose
        // time belongs to the job.
        let tier = if self.counts.budgeted {
            t("mapreduce.tier.spill_insert") + t("mapreduce.tier.spill_get")
        } else {
            t("mapreduce.tier.insert") + t("mapreduce.tier.get")
        };
        let staged_sum: f64 = SUMMED.iter().map(|n| t(n)).sum::<f64>() + tier;
        v.set("mapreduce.runtime.staged_sum_s", staged_sum);
        v.set("mapreduce.runtime.single_slot_wall_s", single_slot_wall_s);
        v.set(
            "mapreduce.runtime.unattributed_share",
            1.0 - staged_sum / single_slot_wall_s,
        );
    }
}

/// Drains one split's records through the record source: the pure
/// split read.
fn drain_split<E: Element>(file: &ScincFile, split: &InputSplit) -> Result<u64, BoxErr> {
    let mut source = ScincRecordSource::<E>::open(file, VARIABLE, split)?;
    let mut n = 0u64;
    while let Some(record) = source.next_record()? {
        std::hint::black_box(&record);
        n += 1;
    }
    Ok(n)
}

/// An encoded partition, shared the way the store and the merge take it.
type Buffer = Arc<Vec<u8>>;

/// Inserts every partition, then fetches each reducer's in `I_ℓ`
/// order, as a worker's store sees one job. Returns the fetched
/// buffers per reducer.
fn through_store(
    t: &mut Tracer,
    store: &PartitionStore,
    spec: &JobSpec,
    outputs: &[Vec<(usize, Buffer)>],
    (insert_span, get_span): (&'static str, &'static str),
) -> Result<Vec<Vec<Buffer>>, BoxErr> {
    let mut pending = vec![0u64; spec.splits.len()];
    for deps in &spec.reduce_deps {
        for &m in deps {
            pending[m] += 1;
        }
    }
    store.prepare_job(JOB, FaultPlan::none(), &pending);
    for (map, partitions) in outputs.iter().enumerate() {
        for (reducer, bytes) in partitions {
            t.span(insert_span, |_| {
                store.insert((JOB, map, *reducer, 0), Arc::clone(bytes))
            });
        }
    }
    let mut fetched = Vec::with_capacity(spec.num_reducers);
    for (reducer, deps) in spec.reduce_deps.iter().enumerate() {
        let mut buffers = Vec::with_capacity(deps.len());
        for &map in deps {
            // Absent means that map produced nothing for this reducer.
            if let Some(bytes) = t.span(get_span, |_| store.get(&(JOB, map, reducer, 0)))? {
                buffers.push(bytes);
            }
        }
        fetched.push(buffers);
    }
    Ok(fetched)
}

pub fn replay(
    w: &Workload,
    input: &Path,
    scratch: &Path,
    reference: &Reference,
) -> Result<Replay, BoxErr> {
    std::fs::create_dir_all(scratch)?;
    let mut t = Tracer::new(JOB);
    let counts = t.span("staged.job", |t| -> Result<Counts, BoxErr> {
        // ---- core.plan / core.spec / analyze ----
        let (query, splits) = query_and_splits(w)?;
        let plan = t.span("core.plan.build", |_| {
            SidrPlanner::new(&query, w.reducers).build(&splits)
        })?;
        let spec = t.span("core.spec.from_plan", |_| {
            JobSpec::from_plan(&query, &splits, &plan)
        })?;
        let json = t.span("core.spec.to_json", |_| spec.to_json());
        let spec = t.span("core.spec.from_json", |_| JobSpec::from_json(&json))?;
        let report = t.span("analyze.admit", |_| {
            analyze_spec(&spec, &AnalyzeOptions::default())
        })?;
        if report.has_errors() {
            return Err("admission pre-flight rejected the workload's spec".into());
        }

        // ---- scifile: the pure split read ----
        let file = ScincFile::open(input)?;
        let mut records_read = 0u64;
        for split in &spec.splits {
            records_read += t.span("scifile.read", |_| match w.elem {
                Elem::F32 => drain_split::<f32>(&file, split),
                Elem::F64 => drain_split::<f64>(&file, split),
            })?;
        }

        // ---- core.exec: the map driver ----
        let exec = SpecExecutor::new(
            input,
            spec.clone(),
            ExecOptions {
                validate_annotations: true,
                ..ExecOptions::default()
            },
        )?;
        let mut map_records_out = 0u64;
        let mut shuffle_bytes = 0u64;
        let mut outputs = Vec::with_capacity(spec.splits.len());
        for map in 0..spec.splits.len() {
            let out = t.span("core.exec.map", |_| exec.run_map(map, 0))?;
            map_records_out += out.records_out;
            let partitions: Vec<_> = out
                .partitions
                .into_iter()
                .map(|(reducer, bytes)| (reducer, Arc::new(bytes)))
                .collect();
            shuffle_bytes += partitions.iter().map(|(_, b)| b.len() as u64).sum::<u64>();
            outputs.push(partitions);
        }

        // ---- mapreduce.shuffle_file: the pure SMOF encode ----
        for partitions in &outputs {
            for (_, bytes) in partitions {
                let file = decode_map_output::<Coord, f64>(bytes)?;
                let again = t.span("mapreduce.shuffle_file.encode", |_| {
                    encode_map_output(&file)
                })?;
                if again != **bytes {
                    return Err("re-encoding a map output changed its bytes".into());
                }
            }
        }

        // ---- mapreduce.tier: unbounded, and budgeted when the
        // workload's workers are ----
        let unbounded = partition_store(0, &scratch.join("unbounded"));
        let mut fetched = through_store(
            t,
            &unbounded,
            &spec,
            &outputs,
            ("mapreduce.tier.insert", "mapreduce.tier.get"),
        )?;
        let mut pressure = unbounded.pressure();
        drop(unbounded);
        if w.budget_bytes > 0 {
            let budgeted = partition_store(w.budget_bytes, &scratch.join("budgeted"));
            fetched = through_store(
                t,
                &budgeted,
                &spec,
                &outputs,
                ("mapreduce.tier.spill_insert", "mapreduce.tier.spill_get"),
            )?;
            pressure = budgeted.pressure();
            budgeted.remove_job(JOB);
        }
        drop(outputs);

        // ---- mapreduce.smof3 / mapreduce.shuffle / core.exec:
        // parse and merge standalone, then the reduce driver ----
        let mut merged_records = 0u64;
        let mut keyblocks = Vec::with_capacity(spec.num_reducers);
        for &reducer in &spec.reduce_order {
            let buffers = std::mem::take(&mut fetched[reducer]);
            let mut merge: MergeIter<Coord, f64> = MergeIter::new();
            for bytes in &buffers {
                let view = t
                    .span("mapreduce.smof3.parse", |_| {
                        Smof3View::<Coord, f64>::parse(Arc::clone(bytes))
                    })?
                    .ok_or("map output is not a SMOF v3 buffer")?;
                merge.push_frame(view);
            }
            merged_records += t.span("mapreduce.shuffle.merge", |_| {
                let mut batch: GroupBatch<Coord, f64> = GroupBatch::new();
                let mut n = 0u64;
                while merge.fill_batch(&mut batch, MERGE_BATCH_RECORDS) > 0 {
                    n += batch.records() as u64;
                    std::hint::black_box(&batch);
                }
                n
            });
            let mut records: Vec<(Coord, f64)> = Vec::new();
            t.span("core.exec.reduce", |_| {
                exec.run_reduce(reducer, &buffers, None, &mut |group| {
                    records.extend_from_slice(group);
                    Ok(())
                })
            })?;
            keyblocks.push(Keyblock { reducer, records });
        }

        // ---- serve.binframe / serve.frame: each keyblock across a
        // loopback socket pair ----
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let mut writer = TcpStream::connect(listener.local_addr()?)?;
        let (mut reader, _) = listener.accept()?;
        let (tx, rx) = mpsc::channel();
        let receiver = std::thread::spawn(move || {
            while let Ok(Some(frame)) = read_frame(&mut reader) {
                if tx.send(frame).is_err() {
                    break;
                }
            }
        });
        for kb in &keyblocks {
            let frame = t.span("serve.binframe.encode", |_| {
                encode_keyblock(JOB, kb.reducer, 0, &kb.records)
            })?;
            let arrived = t.span("serve.frame.roundtrip", |_| -> Result<Vec<u8>, BoxErr> {
                write_frame(&mut writer, &frame)?;
                Ok(rx.recv()?)
            })?;
            let decoded = t.span("serve.binframe.decode", |_| decode_keyblock(&arrived))?;
            if decoded.records != kb.records {
                return Err("a keyblock changed crossing the socket".into());
            }
        }
        drop(writer);
        receiver.join().map_err(|_| "frame reader panicked")?;

        reference
            .check(keyblocks)
            .map_err(|e| format!("staged replay output is wrong: {e}"))?;

        Ok(Counts {
            records_read,
            map_records_out,
            shuffle_bytes,
            merged_records,
            spilled_bytes: pressure.spilled_bytes,
            peak_resident_bytes: pressure.peak_resident_bytes,
            budgeted: w.budget_bytes > 0,
        })
    })?;
    Ok(Replay { tracer: t, counts })
}
