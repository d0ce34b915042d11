//! The engine's metric inventory, registered in the process-global
//! [`sidr_obs`] registry.
//!
//! Handles are created once (first use) and shared by every job in
//! the process; hot-path updates are single atomic ops. Slot gauges
//! aggregate across every [`SlotPool`] alive in the process — the
//! serving daemon builds exactly one, which is the scrape target that
//! matters; transient per-test pools just add and remove their own
//! occupancy symmetrically. `*_slots_total` is stamped by the most
//! recently built pool.
//!
//! [`SlotPool`]: crate::slots::SlotPool

use sidr_obs::{global, Counter, Gauge, Histogram, DURATION_BUCKETS};
use std::sync::{Arc, OnceLock};

/// Every metric the engine emits.
pub struct RuntimeMetrics {
    /// `sidr_slots_busy{class=...}` — slots currently occupied.
    pub map_slots_busy: Arc<Gauge>,
    pub reduce_slots_busy: Arc<Gauge>,
    /// `sidr_slots_total{class=...}` — capacity of the latest pool.
    pub map_slots_total: Arc<Gauge>,
    pub reduce_slots_total: Arc<Gauge>,
    /// Whole-task wall time, start to committed end.
    pub map_task_seconds: Arc<Histogram>,
    pub reduce_task_seconds: Arc<Histogram>,
    /// Reduce start → barrier met: the whole copy phase.
    pub barrier_wait_seconds: Arc<Histogram>,
    /// Time actually spent blocked waiting for map outputs inside the
    /// copy phase (the rest of the phase is fetching).
    pub copy_wait_seconds: Arc<Histogram>,
    /// Records / approximate bytes consumed through `MergeIter`.
    pub merge_records: Arc<Counter>,
    pub merge_bytes: Arc<Counter>,
    /// `sidr_task_retries_total{kind=...}` — task attempts relaunched
    /// after a failure (map) or failed attempts re-entering the copy
    /// phase (reduce).
    pub task_retries_map: Arc<Counter>,
    pub task_retries_reduce: Arc<Counter>,
    /// Maps re-executed by dependency-scoped recovery (lost or
    /// corrupt output; exactly the maps in the affected `I_ℓ`).
    pub maps_recovered: Arc<Counter>,
    /// Re-enqueue of a lost/corrupt map output → its re-executed
    /// attempt committing: how long a recovery actually takes.
    pub recovery_seconds: Arc<Histogram>,
    /// `sidr_mr_speculative_launched_total` — speculative twin
    /// attempts launched against running stragglers.
    pub speculative_launched: Arc<Counter>,
    /// `sidr_mr_speculative_won_total` — races where the speculative
    /// twin committed first.
    pub speculative_won: Arc<Counter>,
    /// `sidr_mr_speculative_wasted_total` — attempts (either racer)
    /// that lost a race: work done and thrown away.
    pub speculative_wasted: Arc<Counter>,
    /// `sidr_mr_deadline_boosts_total` — jobs whose projected finish
    /// threatened their deadline, so the coordinator loop boosted the
    /// speculation trigger (`SIDR-I014`).
    pub deadline_boosts: Arc<Counter>,
}

/// The engine's metrics, registered on first use.
pub fn runtime() -> &'static RuntimeMetrics {
    static METRICS: OnceLock<RuntimeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        let busy_help = "Slots currently occupied, across every pool in the process";
        let total_help = "Slot capacity of the most recently built pool";
        let task_help = "Task wall time from start to committed end, seconds";
        RuntimeMetrics {
            map_slots_busy: r.gauge("sidr_slots_busy", busy_help, &[("class", "map")]),
            reduce_slots_busy: r.gauge("sidr_slots_busy", busy_help, &[("class", "reduce")]),
            map_slots_total: r.gauge("sidr_slots_total", total_help, &[("class", "map")]),
            reduce_slots_total: r.gauge("sidr_slots_total", total_help, &[("class", "reduce")]),
            map_task_seconds: r.histogram(
                "sidr_map_task_seconds",
                task_help,
                &[],
                DURATION_BUCKETS,
            ),
            reduce_task_seconds: r.histogram(
                "sidr_reduce_task_seconds",
                task_help,
                &[],
                DURATION_BUCKETS,
            ),
            barrier_wait_seconds: r.histogram(
                "sidr_reduce_barrier_wait_seconds",
                "Reduce start to barrier met (copy phase), seconds",
                &[],
                DURATION_BUCKETS,
            ),
            copy_wait_seconds: r.histogram(
                "sidr_reduce_copy_wait_seconds",
                "Time blocked waiting for map outputs during the copy phase, seconds",
                &[],
                DURATION_BUCKETS,
            ),
            merge_records: r.counter(
                "sidr_merge_records_total",
                "Records consumed through the k-way merge iterator",
                &[],
            ),
            merge_bytes: r.counter(
                "sidr_merge_bytes_total",
                "Bytes of the SMOF buffers consumed through the k-way merge iterator",
                &[],
            ),
            task_retries_map: r.counter(
                "sidr_task_retries_total",
                "Task attempts relaunched after a failed attempt",
                &[("kind", "map")],
            ),
            task_retries_reduce: r.counter(
                "sidr_task_retries_total",
                "Task attempts relaunched after a failed attempt",
                &[("kind", "reduce")],
            ),
            maps_recovered: r.counter(
                "sidr_maps_recovered_total",
                "Maps re-executed by dependency-scoped recovery",
                &[],
            ),
            recovery_seconds: r.histogram(
                "sidr_recovery_seconds",
                "Lost-output re-enqueue to recovered map commit, seconds",
                &[],
                DURATION_BUCKETS,
            ),
            speculative_launched: r.counter(
                "sidr_mr_speculative_launched_total",
                "Speculative twin attempts launched against running stragglers",
                &[],
            ),
            speculative_won: r.counter(
                "sidr_mr_speculative_won_total",
                "Speculation races won by the twin attempt",
                &[],
            ),
            speculative_wasted: r.counter(
                "sidr_mr_speculative_wasted_total",
                "Attempts that lost a speculation race (work thrown away)",
                &[],
            ),
            deadline_boosts: r.counter(
                "sidr_mr_deadline_boosts_total",
                "Speculation-trigger boosts issued under deadline pressure (SIDR-I014)",
                &[],
            ),
        }
    })
}
