//! The metric tables: names, units, direction and — for end-to-end
//! metrics — the share of the parent's median by which each may get
//! worse before a change counts as a regression. `BENCHMARK.json` is
//! generated from these tables (`sidr-benchmark manifest`).

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Same names on every workload; measured on the untraced run. Every
/// bound is the widest the driver allows: on this shared 2-core host
/// the ten-seed spread of the CPU-bound figures reaches 8–16 % when the
/// machine is busy (README, "Steadiness"), and a bound has to be about
/// three times the spread to tell a regression from the weather.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("first_keyblock_ms", "ms", "lower", 0.25),
    e2e("keyblock_p50_ms", "ms", "lower", 0.25),
    e2e("keyblock_p90_ms", "ms", "lower", 0.25),
    e2e("job_wall_ms", "ms", "lower", 0.25),
    e2e("input_records_per_s", "rec/s", "higher", 0.25),
    e2e("cpu_s_per_job", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Measured on the traced run. S = staged replay, O = outside
/// observation, C = client-side timestamps (see README).
pub const PER_LAYER: &[PerLayer] = &[
    layer("core.plan.build_ms", "ms", "lower"),
    layer("core.spec.roundtrip_ms", "ms", "lower"),
    layer("analyze.admit_ms", "ms", "lower"),
    layer("scifile.read_s", "s", "lower"),
    layer("scifile.records_per_s", "rec/s", "higher"),
    layer("core.exec.map_s", "s", "lower"),
    layer("core.exec.map_self_s", "s", "lower"),
    layer("core.exec.map_records_out", "count", "lower"),
    layer("core.exec.shuffle_bytes", "bytes", "lower"),
    layer("mapreduce.shuffle_file.encode_s", "s", "lower"),
    layer("mapreduce.shuffle_file.encode_mb_per_s", "MB/s", "higher"),
    layer("mapreduce.smof3.parse_s", "s", "lower"),
    layer("mapreduce.shuffle.merge_s", "s", "lower"),
    layer("mapreduce.shuffle.merge_records_per_s", "rec/s", "higher"),
    layer("core.exec.reduce_s", "s", "lower"),
    layer("core.exec.reduce_self_s", "s", "lower"),
    layer("mapreduce.tier.insert_s", "s", "lower"),
    layer("mapreduce.tier.get_s", "s", "lower"),
    layer("mapreduce.tier.spill_insert_s", "s", "lower"),
    layer("mapreduce.tier.spill_get_s", "s", "lower"),
    layer("mapreduce.tier.spilled_bytes", "bytes", "lower"),
    layer("mapreduce.tier.peak_resident_bytes", "bytes", "lower"),
    layer("mapreduce.runtime.staged_sum_s", "s", "lower"),
    layer("mapreduce.runtime.single_slot_wall_s", "s", "lower"),
    layer("mapreduce.runtime.unattributed_share", "ratio", "lower"),
    layer("mapreduce.runtime.barrier_wait_s_per_job", "s", "lower"),
    layer("mapreduce.runtime.copy_wait_s_per_job", "s", "lower"),
    layer("serve.binframe.encode_s", "s", "lower"),
    layer("serve.binframe.decode_s", "s", "lower"),
    layer("serve.frame.roundtrip_s", "s", "lower"),
    layer("serve.streamed_bytes_per_job", "bytes", "lower"),
    layer("serve.admit_ms", "ms", "lower"),
    layer("serve.drain_ms", "ms", "lower"),
    layer("serve.fleet.dispatch_mean_ms", "ms", "lower"),
    layer("serve.fleet.dispatch_count_per_job", "count", "lower"),
    layer("serve.fleet.dispatch_s_per_job", "s", "lower"),
    layer("serve.fleet.fetch_s_per_job", "s", "lower"),
    layer("serve.coordinator_cpu_s_per_job", "s", "lower"),
    layer("worker.cpu_s_per_job", "s", "lower"),
    layer("worker.task_share_max", "ratio", "lower"),
    layer("worker.peak_rss_mb_max", "MB", "lower"),
    layer("worker.rss_over_budget", "ratio", "lower"),
    layer("worker.spilled_bytes_peak", "bytes", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    // Demoted from end-to-end (see README, "Demotions").
    layer("job_wall_tail_ms", "ms", "lower"),
    layer("job_wall_tail_pct", "%", "higher"),
];

/// A measured metric value.
#[derive(Clone, Debug)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects values against one of the tables, so that a run reports
/// every metric of its table exactly once, in table order.
pub struct Values {
    table: Vec<(&'static str, &'static str)>,
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn end_to_end() -> Values {
        Values::new(END_TO_END.iter().map(|m| (m.name, m.unit)).collect())
    }

    pub fn per_layer() -> Values {
        Values::new(PER_LAYER.iter().map(|m| (m.name, m.unit)).collect())
    }

    fn new(table: Vec<(&'static str, &'static str)>) -> Values {
        let values = vec![None; table.len()];
        Values { table, values }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        // `+ 0.0` turns the −0.0 an empty float sum yields into 0.0.
        self.values[i] = Some(value + 0.0);
    }

    /// Every metric of the table; panics on one that was never set,
    /// which is a bug in the benchmark, not a measurement.
    pub fn finish(self) -> Vec<Value> {
        self.table
            .into_iter()
            .zip(self.values)
            .map(|((name, unit), v)| Value {
                name,
                unit,
                value: v.unwrap_or_else(|| panic!("metric {name} was never measured")),
            })
            .collect()
    }
}
