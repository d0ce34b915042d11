//! The partition store of every executor — one per worker daemon, one
//! per in-process job (unbounded) — with byte-budgeted resident memory
//! over a disk spill tier.
//!
//! SIDR's §6 keeps intermediate partitions volatile and in memory;
//! the worker fleet inherited that literally, so a large job (or one
//! slow reducer pinning the copy phase open) could OOM-kill a worker
//! instead of degrading. This store bounds resident bytes: when the
//! budget is exceeded, the *coldest* partitions are moved to
//! job-namespaced SMOF files on disk and read back — CRC-verified —
//! on fetch. Cold is ranked by the dependency matrix first: a map
//! output with few pending consumers has little future demand, so it
//! goes to disk before one that many reducers still need; ties break
//! least-recently-used.
//!
//! The spill tier is a first-class fault domain. A failed spill write
//! (ENOSPC, or a scripted [`FaultKind::SpillWriteFail`]) falls back
//! to keeping the partition resident — over budget, with a pressure
//! advisory — never to losing data. A corrupt or truncated read-back
//! ([`FaultKind::SpillReadCorrupt`] / [`FaultKind::SpillReadTruncate`],
//! or genuine disk rot) fails the type-free CRC check of
//! [`shuffle_file::verify_encoded`]; the caller then discards the
//! replica and reports the partition lost, which routes recovery
//! through the same `I_ℓ`-scoped re-execution path as a dead worker.
//!
//! Concurrency: a partition being written out is in the `Moving`
//! state. Fetches of a moving partition wait on a condvar (through
//! [`wait_until`]) until the move lands rather than racing the
//! mover — returning bytes mid-move would let a fetch→release pass
//! the mover's install and resurrect a consumed partition as an
//! orphaned spill file. The facade's
//! [`chaos::Mutation::DropTierMoveNotify`] drops the mover's wakeup
//! so the checker can prove the wait is notified.

use crate::error::MrError;
use crate::fault::{FaultKind, FaultPlan};
use crate::shuffle_file;
use crate::sync::{chaos, wait_until, Condvar, Mutex};
use sidr_obs::{global, Counter, Gauge, Histogram, BYTE_BUCKETS, DURATION_BUCKETS};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Store key: `(job, map, reducer, epoch)`. The epoch is the map
/// attempt that produced the bytes — fetches name the attempt the
/// scheduler observed committed.
pub type PartKey = (u64, usize, usize, u32);

/// Where the bytes of one partition live.
enum TierState {
    /// In memory.
    Resident(Arc<Vec<u8>>),
    /// In memory, with a spill write in flight. Fetchers wait;
    /// removal wins over the move (the mover deletes its file).
    Moving(Arc<Vec<u8>>),
    /// On disk under the store's backend; read back on fetch.
    Spilled,
}

struct Entry {
    state: TierState,
    /// Encoded length in bytes (same resident or spilled).
    len: u64,
    /// LRU stamp from the store's logical clock.
    touch: u64,
    /// Set when a spill of this entry failed: keep it resident and
    /// never pick it as a victim again.
    pinned: bool,
}

/// Durable half of the store: where spilled bytes actually go. The
/// production backend is a directory on disk; tests and the checker's
/// schedule-exploration scenarios use [`MemBackend`] so runs stay
/// deterministic and filesystem-free.
pub trait SpillBackend: Send + Sync {
    /// Persists `bytes` under the job-namespaced relative `name`.
    fn write(&self, name: &str, bytes: &[u8]) -> std::io::Result<()>;
    fn read(&self, name: &str) -> std::io::Result<Vec<u8>>;
    /// Best-effort delete of one spill file.
    fn delete(&self, name: &str);
    /// Best-effort recursive delete of everything under `prefix`
    /// (a job's namespace directory).
    fn delete_prefix(&self, prefix: &str);
    /// Fault injection: damages the stored copy of `name` so its CRC
    /// frame fails on read-back (bit flip, or truncation).
    fn damage(&self, name: &str, truncate: bool);
}

/// Spills to SMOF files under a root directory.
pub struct DiskBackend {
    root: PathBuf,
}

impl DiskBackend {
    pub fn new(root: impl Into<PathBuf>) -> Self {
        DiskBackend { root: root.into() }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

impl SpillBackend for DiskBackend {
    fn write(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        let path = self.path(name);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        // Write-then-rename so a crashed writer never leaves a
        // half-file that a read-back would have to CRC-reject.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &path)
    }

    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        std::fs::read(self.path(name))
    }

    fn delete(&self, name: &str) {
        std::fs::remove_file(self.path(name)).ok();
    }

    fn delete_prefix(&self, prefix: &str) {
        std::fs::remove_dir_all(self.root.join(prefix)).ok();
    }

    fn damage(&self, name: &str, truncate: bool) {
        shuffle_file::damage_file(self.path(name), truncate).ok();
    }
}

/// In-memory backend for tests and the checker's virtual scheduler.
#[derive(Default)]
pub struct MemBackend {
    files: std::sync::Mutex<HashMap<String, Vec<u8>>>,
}

impl MemBackend {
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// Names of the files currently stored (orphan sweeps in tests).
    pub fn names(&self) -> Vec<String> {
        self.files.lock().unwrap().keys().cloned().collect()
    }
}

impl SpillBackend for MemBackend {
    fn write(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.files
            .lock()
            .unwrap()
            .insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn read(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(name)
            .cloned()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, name.to_string()))
    }

    fn delete(&self, name: &str) {
        self.files.lock().unwrap().remove(name);
    }

    fn delete_prefix(&self, prefix: &str) {
        self.files
            .lock()
            .unwrap()
            .retain(|k, _| !k.starts_with(prefix));
    }

    fn damage(&self, name: &str, truncate: bool) {
        let mut files = self.files.lock().unwrap();
        if let Some(bytes) = files.get_mut(name) {
            shuffle_file::damage(bytes, truncate);
        }
    }
}

/// Store configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct TierConfig {
    /// Resident-byte budget; 0 means unbounded (never spill).
    pub budget_bytes: u64,
}

/// The memory-pressure summary one store reports: what heartbeats
/// carry to the coordinator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TierPressure {
    pub resident_bytes: u64,
    pub spilled_bytes: u64,
    pub budget_bytes: u64,
    /// High-water mark of resident bytes over the store's lifetime —
    /// the number the spill benchmark holds against the budget.
    pub peak_resident_bytes: u64,
    pub spill_failures: u64,
    pub resident_partitions: usize,
    pub spilled_partitions: usize,
}

impl TierPressure {
    /// Whether the store is over its budget (only possible when spill
    /// writes failed and partitions were pinned resident).
    pub fn over_budget(&self) -> bool {
        self.budget_bytes > 0 && self.resident_bytes > self.budget_bytes
    }
}

struct Inner {
    entries: HashMap<PartKey, Entry>,
    /// `(job, map)` → reducers that still depend on this map's output
    /// and have not released it: the spill-ranking temperature.
    pending: HashMap<(u64, usize), u64>,
    /// Per-job scripted faults for committed output and the spill tier.
    faults: HashMap<u64, FaultPlan>,
    resident: u64,
    spilled: u64,
    /// `(resident, spilled)` as this store last added them to the
    /// process-global gauges.
    published: (i64, i64),
    peak_resident: u64,
    spill_failures: u64,
    clock: u64,
}

/// A byte-budgeted two-tier partition store (see module docs).
pub struct PartitionStore {
    cfg: TierConfig,
    backend: Arc<dyn SpillBackend>,
    inner: Mutex<Inner>,
    /// Signalled when a `Moving` partition resolves (installed on
    /// disk, or reverted resident after a failed write).
    moved: Condvar,
    /// Serializes budgeted admissions end-to-end (make room, then
    /// tally): producers queue behind the spilling producer instead of
    /// overlapping their admissions, which is what makes "peak
    /// resident never exceeds the budget" a real invariant rather than
    /// a steady-state average. Fetches never take this lock.
    admission: Mutex<()>,
}

fn spill_name(key: &PartKey) -> String {
    let (job, map, reducer, epoch) = *key;
    format!("job{job:016x}/m{map:06}-r{reducer:05}-e{epoch:03}.smof")
}

fn job_prefix(job: u64) -> String {
    format!("job{job:016x}")
}

impl PartitionStore {
    pub fn new(cfg: TierConfig, backend: Arc<dyn SpillBackend>) -> Self {
        PartitionStore {
            cfg,
            backend,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                pending: HashMap::new(),
                faults: HashMap::new(),
                resident: 0,
                spilled: 0,
                published: (0, 0),
                peak_resident: 0,
                spill_failures: 0,
                clock: 0,
            }),
            moved: Condvar::new(),
            admission: Mutex::new(()),
        }
    }

    /// The production store: spills to SMOF files under `dir`.
    pub fn on_disk(cfg: TierConfig, dir: impl Into<PathBuf>) -> Self {
        PartitionStore::new(cfg, Arc::new(DiskBackend::new(dir)))
    }

    /// Registers a job: its scripted output and spill faults and the
    /// dependency matrix's pending-consumer count per map (`counts[m]`
    /// = number of reducers whose `I_ℓ` contains map `m`).
    pub fn prepare_job(&self, job: u64, plan: FaultPlan, counts: &[u64]) {
        let mut inner = self.inner.lock();
        if !plan.is_empty() {
            inner.faults.insert(job, plan);
        }
        for (m, &n) in counts.iter().enumerate() {
            if n > 0 {
                inner.pending.insert((job, m), n);
            }
        }
    }

    /// Commits map attempt `(task, attempt)`'s partitions `(reducer,
    /// bytes)`, every executor's one commit path, and returns the
    /// reducers it fed. The job's scripted `CorruptOutput` /
    /// `TruncateOutput` damages the bytes on their way in: the attempt
    /// succeeds, and the reduce that opens them fails their CRC.
    pub fn commit_map(
        &self,
        job: u64,
        task: usize,
        attempt: u32,
        partitions: Vec<(usize, Vec<u8>)>,
    ) -> Vec<usize> {
        let fault = (self.inner.lock().faults.get(&job)).and_then(|p| p.map_fault(task, attempt));
        let truncate = match fault {
            Some(FaultKind::CorruptOutput) => Some(false),
            Some(FaultKind::TruncateOutput) => Some(true),
            _ => None,
        };
        let mut fed = Vec::with_capacity(partitions.len());
        for (reducer, mut bytes) in partitions {
            if let Some(truncate) = truncate {
                shuffle_file::damage(&mut bytes, truncate);
            }
            // May spill *other* partitions on this thread: backpressure.
            self.insert((job, task, reducer, attempt), Arc::new(bytes));
            fed.push(reducer);
        }
        fed
    }

    /// Reducer `reducer` is done with the partitions of `maps`
    /// (`(map, epoch)`): each is dropped — spilled bytes are deleted
    /// from the backend; a `Moving` partition goes at once and its
    /// mover deletes its own file — and its map ranks colder for the
    /// next spill-victim selection. The one way a partition leaves the
    /// store, short of [`PartitionStore::remove_job`].
    pub fn release(&self, job: u64, reducer: usize, maps: &[(usize, u32)]) {
        let mut inner = self.inner.lock();
        for &(map, epoch) in maps {
            self.detach(&mut inner, &(job, map, reducer, epoch));
            if let Some(n) = inner.pending.get_mut(&(job, map)) {
                *n = n.saturating_sub(1);
            }
        }
        self.publish(&mut inner);
    }

    /// Stores one encoded partition, replacing any previous entry at
    /// the same key. Under a budget the admission makes room *first*
    /// (spilling cold partitions on the calling thread — the producer
    /// that overflowed the budget pays, which is the backpressure) and
    /// only then tallies the new bytes resident; a partition that
    /// cannot fit even after making room is written straight to the
    /// disk tier without ever counting as resident. Admissions are
    /// serialized, so resident bytes never exceed the budget — the
    /// peak watermark is a hard bound, not a steady-state average.
    /// Only failed spill writes (ENOSPC) can push the store over: the
    /// partition then stays pinned resident rather than being lost.
    pub fn insert(&self, key: PartKey, bytes: Arc<Vec<u8>>) {
        let len = bytes.len() as u64;
        let budget = self.cfg.budget_bytes;
        let _admit = self.admission.lock();
        if budget > 0 {
            // Spill coldest-first until the new bytes fit (target 0
            // when a single partition outsizes the whole budget).
            self.enforce_to(budget.saturating_sub(len));
        }
        let fits = {
            let mut inner = self.inner.lock();
            self.detach(&mut inner, &key);
            budget == 0 || inner.resident + len <= budget
        };
        // No room even after making it (the partition outsizes the
        // budget, or everything still resident is pinned by failed
        // writes): bypass the memory tier entirely. A failed write
        // leaves it pinned resident — degraded, never lost.
        let spilled = !fits && self.write_spill(&key, &bytes);
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let state = if spilled {
            inner.spilled += len;
            let m = tier_metrics();
            m.spills.inc();
            m.spill_file_bytes.observe(len as f64);
            TierState::Spilled
        } else {
            inner.resident += len;
            inner.peak_resident = inner.peak_resident.max(inner.resident);
            TierState::Resident(bytes)
        };
        let (touch, pinned) = (inner.clock, !fits && !spilled);
        let entry = Entry {
            state,
            len,
            touch,
            pinned,
        };
        inner.entries.insert(key, entry);
        self.publish(&mut inner);
    }

    /// Writes one partition's bytes to the backend under its spill
    /// name, applying the job's scripted spill fault: an injected
    /// ENOSPC instead of the write, or damage to the written copy so
    /// detection at fetch time is a genuine CRC failure, not
    /// bookkeeping. True when the bytes are on disk; a failure is
    /// counted and logged here, and the caller keeps the partition
    /// resident and pinned — degraded, never lost.
    fn write_spill(&self, key: &PartKey, bytes: &[u8]) -> bool {
        let m = tier_metrics();
        let fault = self
            .inner
            .lock()
            .faults
            .get(&key.0)
            .and_then(|plan| plan.map_fault(key.1, key.3));
        let name = spill_name(key);
        let t0 = Instant::now();
        let wrote = if fault == Some(FaultKind::SpillWriteFail) {
            Err(std::io::Error::new(
                std::io::ErrorKind::StorageFull,
                "injected ENOSPC",
            ))
        } else {
            self.backend.write(&name, bytes)
        };
        m.spill_seconds.observe(t0.elapsed().as_secs_f64());
        match wrote {
            Ok(()) => {
                match fault {
                    Some(FaultKind::SpillReadCorrupt) => self.backend.damage(&name, false),
                    Some(FaultKind::SpillReadTruncate) => self.backend.damage(&name, true),
                    _ => {}
                }
                true
            }
            Err(e) => {
                self.inner.lock().spill_failures += 1;
                m.spill_failures.inc();
                // The coordinator turns this condition into the
                // SIDR-I015 advisory from the heartbeat pressure
                // summary; this is the worker-local trace.
                eprintln!("spill write failed for {name}: {e}; partition stays resident");
                false
            }
        }
    }

    /// Fetches one partition: `Ok(None)` when absent, `Ok(Some)` with
    /// the encoded bytes whichever tier they live in. A spilled
    /// partition is read back and CRC-verified type-free; damage
    /// discards the replica and returns `CorruptShuffle`, after which
    /// the key is absent — re-fetches see a consistently lost
    /// partition, and recovery re-executes the producing map.
    pub fn get(&self, key: &PartKey) -> crate::Result<Option<Arc<Vec<u8>>>> {
        let mut inner = self.inner.lock();
        // Wait out an in-flight move: racing it could hand bytes to a
        // fetch→release that then loses to the mover's install.
        // `Ok` is the answer, `Err` the length of a spilled partition.
        let found = wait_until(&self.moved, &mut inner, None, |inner| {
            inner.clock += 1;
            let now = inner.clock;
            let Some(e) = inner.entries.get_mut(key) else {
                return Some(Some(Ok(None)));
            };
            e.touch = now;
            match &e.state {
                TierState::Resident(b) => Some(Some(Ok(Some(Arc::clone(b))))),
                TierState::Moving(_) => None,
                TierState::Spilled => Some(Some(Err(e.len))),
            }
        });
        drop(inner);
        let len = match found {
            Some(Err(len)) => len,
            Some(Ok(bytes)) => return Ok(bytes),
            None => unreachable!("an untimed wait returns only when ready"),
        };
        let name = spill_name(key);
        let t0 = Instant::now();
        let read = self
            .backend
            .read(&name)
            .map_err(|e| MrError::Source(format!("spill read-back {name}: {e}")));
        let verified = read.and_then(|bytes| {
            shuffle_file::verify_encoded(&bytes)?;
            Ok(bytes)
        });
        tier_metrics()
            .readback_seconds
            .observe(t0.elapsed().as_secs_f64());
        match verified {
            Ok(bytes) => Ok(Some(Arc::new(bytes))),
            Err(err) => {
                // Damaged replica: discard it so the loss is
                // consistent, then surface corruption.
                let mut inner = self.inner.lock();
                if (inner.entries.get(key)).is_some_and(|e| matches!(e.state, TierState::Spilled)) {
                    inner.entries.remove(key);
                    inner.spilled = inner.spilled.saturating_sub(len);
                    self.publish(&mut inner);
                }
                drop(inner);
                self.backend.delete(&name);
                Err(MrError::CorruptShuffle {
                    detail: format!("spill read-back {name}: {err}"),
                })
            }
        }
    }

    /// Whether the key is currently present (either tier).
    pub fn contains(&self, key: &PartKey) -> bool {
        self.inner.lock().entries.contains_key(key)
    }

    /// Drops everything a job owns — entries in both tiers, pending
    /// counts, scripted faults — and deletes the job's spill
    /// namespace. Nothing of a finished job survives on disk.
    pub fn remove_job(&self, job: u64) {
        let mut inner = self.inner.lock();
        let keys: Vec<PartKey> = inner
            .entries
            .keys()
            .filter(|k| k.0 == job)
            .copied()
            .collect();
        for key in keys {
            self.detach(&mut inner, &key);
        }
        inner.pending.retain(|(j, _), _| *j != job);
        inner.faults.remove(&job);
        self.publish(&mut inner);
        drop(inner);
        self.backend.delete_prefix(&job_prefix(job));
    }

    /// Total partitions held, across jobs and tiers.
    pub fn partition_count(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// The store's current memory-pressure summary.
    pub fn pressure(&self) -> TierPressure {
        let inner = self.inner.lock();
        let spilled_partitions = inner
            .entries
            .values()
            .filter(|e| matches!(e.state, TierState::Spilled))
            .count();
        TierPressure {
            resident_bytes: inner.resident,
            spilled_bytes: inner.spilled,
            budget_bytes: self.cfg.budget_bytes,
            peak_resident_bytes: inner.peak_resident,
            spill_failures: inner.spill_failures,
            resident_partitions: inner.entries.len() - spilled_partitions,
            spilled_partitions,
        }
    }

    /// Removes `key`'s entry and fixes the byte accounting; deletes
    /// an on-disk copy when one exists. (A `Moving` entry's file is
    /// deleted by the mover when it reacquires the lock and finds the
    /// entry gone.)
    fn detach(&self, inner: &mut Inner, key: &PartKey) {
        if let Some(e) = inner.entries.remove(key) {
            match e.state {
                TierState::Resident(_) | TierState::Moving(_) => {
                    inner.resident = inner.resident.saturating_sub(e.len);
                }
                TierState::Spilled => {
                    inner.spilled = inner.spilled.saturating_sub(e.len);
                    self.backend.delete(&spill_name(key));
                }
            }
        }
    }

    /// Moves the process-global gauges by what this store's byte
    /// tallies changed since it last published, so they sum every live
    /// store in the process.
    fn publish(&self, inner: &mut Inner) {
        let m = tier_metrics();
        let now = (inner.resident as i64, inner.spilled as i64);
        m.resident_bytes.add(now.0 - inner.published.0);
        m.spilled_bytes.add(now.1 - inner.published.1);
        inner.published = now;
    }

    /// Spills coldest-first until resident bytes are at or below
    /// `target` (or nothing is left to spill: everything still
    /// resident is pinned by a failed write or already moving).
    fn enforce_to(&self, target: u64) {
        let m = tier_metrics();
        loop {
            // Pick the coldest spillable partition under the lock.
            let mut inner = self.inner.lock();
            if inner.resident <= target {
                return;
            }
            let victim = inner
                .entries
                .iter()
                .filter(|(_, e)| !e.pinned && matches!(e.state, TierState::Resident(_)))
                .min_by_key(|(k, e)| {
                    let temp = inner.pending.get(&(k.0, k.1)).copied().unwrap_or(0);
                    (temp, e.touch)
                })
                .map(|(k, _)| *k);
            let Some(key) = victim else {
                // Over budget with nothing movable: degraded but
                // functional. The pressure summary carries the news.
                return;
            };
            let entry = inner.entries.get_mut(&key).expect("victim exists");
            let bytes = match std::mem::replace(&mut entry.state, TierState::Spilled) {
                TierState::Resident(b) => {
                    entry.state = TierState::Moving(Arc::clone(&b));
                    b
                }
                other => {
                    entry.state = other;
                    continue;
                }
            };
            let len = entry.len;
            drop(inner);

            // Write outside the lock — fetches of *other* partitions
            // proceed; fetches of this one wait on `moved`.
            let spilled = self.write_spill(&key, &bytes);
            let mut inner = self.inner.lock();
            let ours = inner
                .entries
                .get_mut(&key)
                .filter(|e| matches!(&e.state, TierState::Moving(b) if Arc::ptr_eq(b, &bytes)));
            let installed = match ours {
                Some(e) if spilled => {
                    e.state = TierState::Spilled;
                    true
                }
                // ENOSPC (real or injected): keep the partition
                // resident and pinned, move on to other victims.
                Some(e) => {
                    e.state = TierState::Resident(bytes);
                    e.pinned = true;
                    false
                }
                None => false,
            };
            if installed {
                inner.resident = inner.resident.saturating_sub(len);
                inner.spilled += len;
                m.spills.inc();
                m.spill_file_bytes.observe(len as f64);
            }
            self.publish(&mut inner);
            drop(inner);
            if spilled && !installed {
                // Released (or replaced) while we wrote: the consumer
                // won, our file is an orphan.
                self.backend.delete(&spill_name(&key));
            }
            if !(installed && chaos::on(chaos::Mutation::DropTierMoveNotify)) {
                self.moved.notify_all();
            }
        }
    }
}

impl Drop for PartitionStore {
    /// Takes what the store still holds out of the gauges.
    fn drop(&mut self) {
        let (resident, spilled) = self.inner.get_mut().published;
        let m = tier_metrics();
        m.resident_bytes.add(-resident);
        m.spilled_bytes.add(-spilled);
    }
}

/// The spill tier's metric inventory.
pub struct TierMetrics {
    /// `sidr_tier_resident_bytes` / `sidr_tier_spilled_bytes` —
    /// current bytes per tier, process-wide.
    pub resident_bytes: Arc<Gauge>,
    pub spilled_bytes: Arc<Gauge>,
    /// Spill write / read-back wall time.
    pub spill_seconds: Arc<Histogram>,
    pub readback_seconds: Arc<Histogram>,
    /// Size distribution of spilled partitions.
    pub spill_file_bytes: Arc<Histogram>,
    /// Partitions moved to the disk tier.
    pub spills: Arc<Counter>,
    /// Spill writes that failed (partition stayed resident).
    pub spill_failures: Arc<Counter>,
}

/// The spill tier's metrics, registered on first use.
pub fn tier_metrics() -> &'static TierMetrics {
    static METRICS: OnceLock<TierMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global();
        TierMetrics {
            resident_bytes: r.gauge(
                "sidr_tier_resident_bytes",
                "Partition bytes held in memory, across every store in the process",
                &[],
            ),
            spilled_bytes: r.gauge(
                "sidr_tier_spilled_bytes",
                "Partition bytes spilled to disk, across every store in the process",
                &[],
            ),
            spill_seconds: r.histogram(
                "sidr_tier_spill_seconds",
                "Spill write wall time, seconds",
                &[],
                DURATION_BUCKETS,
            ),
            readback_seconds: r.histogram(
                "sidr_tier_readback_seconds",
                "Spill read-back (read + CRC verify) wall time, seconds",
                &[],
                DURATION_BUCKETS,
            ),
            spill_file_bytes: r.histogram(
                "sidr_tier_spill_file_bytes",
                "Size of partitions moved to the disk tier, bytes",
                &[],
                BYTE_BUCKETS,
            ),
            spills: r.counter(
                "sidr_tier_spills_total",
                "Partitions moved from the resident to the disk tier",
                &[],
            ),
            spill_failures: r.counter(
                "sidr_tier_spill_failures_total",
                "Spill writes that failed; the partition stayed resident",
                &[],
            ),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultTarget};
    use crate::shuffle::MapOutputFile;
    use crate::shuffle_file::encode_map_output;

    fn frame(n: u64, salt: u64) -> Arc<Vec<u8>> {
        let file = MapOutputFile::<u64, u64> {
            records: (0..n).map(|i| (i, i.wrapping_mul(salt))).collect(),
            raw_count: n,
        };
        Arc::new(encode_map_output(&file).unwrap())
    }

    fn mem_store(budget_bytes: u64) -> (PartitionStore, Arc<MemBackend>) {
        let backend = Arc::new(MemBackend::new());
        let cfg = TierConfig { budget_bytes };
        (
            PartitionStore::new(cfg, Arc::clone(&backend) as Arc<dyn SpillBackend>),
            backend,
        )
    }

    #[test]
    fn unbounded_store_never_spills() {
        let (store, backend) = mem_store(0);
        for m in 0..8 {
            store.insert((1, m, 0, 0), frame(64, m as u64 + 1));
        }
        let p = store.pressure();
        assert_eq!(p.spilled_partitions, 0);
        assert_eq!(p.resident_partitions, 8);
        assert!(backend.names().is_empty());
    }

    #[test]
    fn over_budget_spills_coldest_first_and_reads_back_identical() {
        let f0 = frame(64, 3);
        let len = f0.len() as u64;
        // Room for two partitions and change: the third insert spills one.
        let (store, backend) = mem_store(len * 2 + len / 2);
        // Maps 0 and 1 still have pending consumers; map 2 does not —
        // it is the coldest and must be the one spilled.
        store.prepare_job(1, FaultPlan::none(), &[2, 2, 0]);
        let f2 = frame(64, 5);
        store.insert((1, 0, 0, 0), Arc::clone(&f0));
        store.insert((1, 2, 0, 0), Arc::clone(&f2));
        store.insert((1, 1, 0, 0), frame(64, 7));
        let p = store.pressure();
        assert_eq!(p.spilled_partitions, 1, "exactly one partition demoted");
        assert!(p.resident_bytes <= p.budget_bytes, "back under budget");
        assert_eq!(
            p.peak_resident_bytes,
            len * 2,
            "room is made before admission: the peak never exceeds the budget"
        );
        assert!(p.peak_resident_bytes <= p.budget_bytes);
        assert_eq!(backend.names().len(), 1);
        assert!(backend.names()[0].contains("m000002"), "victim is map 2");
        // Read-back is byte-identical, and fetches of resident
        // partitions are untouched.
        let back = store.get(&(1, 2, 0, 0)).unwrap().unwrap();
        assert_eq!(*back, *f2);
        let res = store.get(&(1, 0, 0, 0)).unwrap().unwrap();
        assert_eq!(*res, *f0);
    }

    #[test]
    fn lru_breaks_temperature_ties() {
        let f = frame(64, 3);
        let len = f.len() as u64;
        let (store, backend) = mem_store(len * 2 + len / 2);
        // No pending counts at all: pure LRU, oldest insert loses.
        store.insert((1, 0, 0, 0), Arc::clone(&f));
        store.insert((1, 1, 0, 0), frame(64, 5));
        // Touch map 0 so map 1 becomes the least recently used.
        store.get(&(1, 0, 0, 0)).unwrap().unwrap();
        store.insert((1, 2, 0, 0), frame(64, 7));
        assert_eq!(backend.names().len(), 1);
        assert!(
            backend.names()[0].contains("m000001"),
            "LRU victim is map 1"
        );
    }

    #[test]
    fn spill_write_failure_keeps_partition_resident() {
        let f = frame(64, 3);
        let len = f.len() as u64;
        let (store, backend) = mem_store(len);
        let plan = FaultPlan::none()
            .with(FaultTarget::Map(0), 0, FaultKind::SpillWriteFail)
            .with(FaultTarget::Map(1), 0, FaultKind::SpillWriteFail)
            .with(FaultTarget::Map(2), 0, FaultKind::SpillWriteFail);
        store.prepare_job(1, plan, &[]);
        store.insert((1, 0, 0, 0), Arc::clone(&f));
        store.insert((1, 1, 0, 0), frame(64, 5));
        store.insert((1, 2, 0, 0), frame(64, 7));
        let p = store.pressure();
        assert!(p.over_budget(), "nothing could move: degraded, not dead");
        assert_eq!(p.spilled_partitions, 0);
        assert!(p.spill_failures >= 2, "each failed victim counted");
        assert!(backend.names().is_empty());
        // Data is all still served.
        for m in 0..3 {
            assert!(store.get(&(1, m, 0, 0)).unwrap().is_some());
        }
    }

    #[test]
    fn damaged_readback_discards_the_replica() {
        for kind in [FaultKind::SpillReadCorrupt, FaultKind::SpillReadTruncate] {
            let f = frame(64, 3);
            let len = f.len() as u64;
            let (store, backend) = mem_store(len + len / 2);
            // Map 0 is coldest (no pending consumers) and scripted to
            // come back damaged; map 1 stays hot and resident.
            let plan = FaultPlan::none().with(FaultTarget::Map(0), 0, kind);
            store.prepare_job(1, plan, &[0, 1]);
            store.insert((1, 0, 0, 0), Arc::clone(&f));
            store.insert((1, 1, 0, 0), frame(64, 5));
            assert_eq!(store.pressure().spilled_partitions, 1);
            let err = store.get(&(1, 0, 0, 0)).unwrap_err();
            assert!(
                matches!(err, MrError::CorruptShuffle { .. }),
                "{kind:?} surfaces as CorruptShuffle, got {err:?}"
            );
            // The loss is consistent: the replica is gone, on disk too.
            assert!(store.get(&(1, 0, 0, 0)).unwrap().is_none());
            assert!(backend.names().is_empty());
            assert_eq!(store.pressure().spilled_partitions, 0);
        }
    }

    #[test]
    fn faults_are_scoped_to_their_epoch() {
        let f = frame(64, 3);
        let len = f.len() as u64;
        let (store, _backend) = mem_store(len + len / 2);
        let plan = FaultPlan::none().with(FaultTarget::Map(0), 0, FaultKind::SpillReadCorrupt);
        store.prepare_job(1, plan, &[0, 1]);
        // The re-executed attempt (epoch 1) is clean: its spill works.
        store.insert((1, 0, 0, 1), Arc::clone(&f));
        store.insert((1, 1, 0, 0), frame(64, 5));
        let back = store.get(&(1, 0, 0, 1)).unwrap().unwrap();
        assert_eq!(*back, *f);
    }

    #[test]
    fn release_deletes_the_on_disk_copy() {
        let f = frame(64, 3);
        let len = f.len() as u64;
        let (store, backend) = mem_store(len + len / 2);
        store.insert((1, 0, 0, 0), Arc::clone(&f));
        store.insert((1, 1, 0, 0), frame(64, 5));
        assert_eq!(backend.names().len(), 1);
        let spilled_key = if backend.names()[0].contains("m000000") {
            (1, 0, 0, 0)
        } else {
            (1, 1, 0, 0)
        };
        store.release(1, 0, &[(spilled_key.1, 0)]);
        assert!(backend.names().is_empty(), "release removed the spill file");
        assert!(store.get(&spilled_key).unwrap().is_none());
    }

    #[test]
    fn remove_job_sweeps_every_tier_and_namespace() {
        let f = frame(64, 3);
        let len = f.len() as u64;
        let (store, backend) = mem_store(len);
        for m in 0..4 {
            store.insert((7, m, 0, 0), frame(64, m as u64 + 2));
        }
        store.insert((8, 0, 0, 0), Arc::clone(&f));
        assert!(store.partition_count() >= 5);
        store.remove_job(7);
        assert_eq!(store.partition_count(), 1, "job 8 survives");
        assert!(
            backend
                .names()
                .iter()
                .all(|n| !n.starts_with("job0000000000000007")),
            "no orphaned spill files for the finished job: {:?}",
            backend.names()
        );
        store.remove_job(8);
        assert_eq!(store.partition_count(), 0);
        let p = store.pressure();
        assert_eq!((p.resident_bytes, p.spilled_bytes), (0, 0));
    }

    #[test]
    fn consumer_release_cools_the_map() {
        let f = frame(64, 3);
        let len = f.len() as u64;
        let (store, backend) = mem_store(len * 2 + len / 2);
        store.prepare_job(1, FaultPlan::none(), &[2, 2, 2]);
        store.insert((1, 0, 0, 0), Arc::clone(&f));
        store.insert((1, 1, 0, 0), frame(64, 5));
        // Reducer 1 is done with map 1: one consumer is left, against
        // map 0's two, so map 1 is now the coldest though map 0 is older.
        store.release(1, 1, &[(1, 0)]);
        store.insert((1, 2, 0, 0), frame(64, 7));
        assert_eq!(backend.names().len(), 1);
        assert!(backend.names()[0].contains("m000001"));
    }
}
