//! Engine counters: the quantities the paper's evaluation measures.

/// A job's counters: what no event carries (a count of one event kind
/// is [`JobResult::count`](crate::JobResult::count)). Its coordinator
/// loop is their one writer, so they are plain numbers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Records read from input splits. Like every map counter, only
    /// committed attempts count: a losing racer's work does not.
    pub map_records_in: u64,
    /// Intermediate pairs the Map functions represent: the §3.2.1
    /// annotations' total, before any selection or combining.
    pub map_records_out: u64,
    /// Intermediate pairs the maps' partitions hold, after map-side
    /// selection and combining.
    pub combined_records: u64,
    /// Shuffle fetches: one per (map, reducer) contact — the network
    /// connections of Table 3.
    pub shuffle_connections: u64,
    /// Intermediate pairs actually transferred by fetches.
    pub shuffled_records: u64,
    /// Values emitted by Reduce functions.
    pub reduce_records_out: u64,
    /// Map tasks skipped because no Reduce task depends on them
    /// (possible under dependency-aware routing when a split lies
    /// entirely in a discarded partial region).
    pub maps_skipped: u64,
    /// Reduce attempts that reported lost sources — a fetch found a
    /// map's output corrupt or truncated, or its holder died or left the
    /// job, so none was made — each re-executing those maps (§6).
    pub lost_source_reports: u64,
}
