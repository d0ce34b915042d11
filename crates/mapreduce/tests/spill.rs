//! Spill-tier properties: over random partition sets squeezed under a
//! 1-byte resident budget, every partition the [`PartitionStore`]
//! pushes to the backend reads back byte-identical; any damaged
//! replica (truncated or bit-flipped) is rejected as `CorruptShuffle`
//! and becomes a *consistent* loss (re-fetches see absence, never the
//! damaged bytes); and releases delete the on-disk copy so a drained
//! store leaves zero orphaned spill files behind.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::encode_map_output;
use sidr_mapreduce::tier::{MemBackend, PartKey, PartitionStore};
use sidr_mapreduce::{FaultPlan, MapOutputFile, MrError, TierConfig};

const JOB: u64 = 42;

/// Encodes one synthetic map-output partition; the spill tier only
/// accepts bytes `verify_encoded` can re-validate, so the fixtures go
/// through the real encoder.
fn encoded(raw: &[(u64, u64)], salt: usize) -> Arc<Vec<u8>> {
    let mut records: Vec<(Coord, f64)> = raw
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| (Coord::from([a, b]), (i + salt) as f64 * 0.25))
        .collect();
    records.sort_by(|x, y| x.0.cmp(&y.0));
    let file = MapOutputFile {
        raw_count: records.len() as u64,
        records,
    };
    Arc::new(encode_map_output(&file).unwrap())
}

/// A store whose budget forces every insert straight to the backend,
/// loaded with `parts` — one partition per map task.
fn store_with(parts: &[Arc<Vec<u8>>]) -> (PartitionStore, Arc<MemBackend>, Vec<PartKey>) {
    let backend = Arc::new(MemBackend::new());
    let store = PartitionStore::new(
        TierConfig { budget_bytes: 1 },
        Arc::clone(&backend) as Arc<dyn sidr_mapreduce::SpillBackend>,
    );
    let counts: Vec<u64> = parts.iter().map(|_| 1).collect();
    store.prepare_job(JOB, FaultPlan::none(), &counts);
    let keys: Vec<PartKey> = parts
        .iter()
        .enumerate()
        .map(|(m, bytes)| {
            let key: PartKey = (JOB, m, m % 4, 0);
            store.insert(key, Arc::clone(bytes));
            key
        })
        .collect();
    (store, backend, keys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Round trip under pressure: a 1-byte budget spills every
    /// partition synchronously (the producer pays — resident drops to
    /// zero before `insert` returns), and each fetch reads back bytes
    /// identical to what went in. Releasing every partition deletes
    /// its backend copy: the sweep finds no orphans.
    #[test]
    fn spilled_partitions_read_back_byte_identical(
        raws in vec(vec((0u64..48, 0u64..48), 1..40), 1..10),
    ) {
        let parts: Vec<_> = raws.iter().enumerate().map(|(i, r)| encoded(r, i)).collect();
        let (store, backend, keys) = store_with(&parts);

        let p = store.pressure();
        prop_assert_eq!(p.resident_bytes, 0, "budget 1 leaves nothing resident");
        prop_assert_eq!(p.spilled_partitions, parts.len());
        prop_assert!(
            p.peak_resident_bytes <= 1,
            "admission makes room first: the watermark never exceeds the budget"
        );
        prop_assert_eq!(backend.names().len(), parts.len());

        for (key, expect) in keys.iter().zip(&parts) {
            let got = store.get(key).unwrap().expect("spilled partition present");
            prop_assert_eq!(&*got, &**expect, "read-back must be byte-identical");
        }

        // Release: the consumer is done, the backend copy must go.
        for key in &keys {
            store.release(JOB, key.2, &[(key.1, key.3)]);
        }
        prop_assert_eq!(store.partition_count(), 0);
        prop_assert!(backend.names().is_empty(), "orphans: {:?}", backend.names());
    }

    /// Damage detection: whatever single byte rot (truncation or a
    /// bit-flip) hits a spilled replica, the CRC-verified read-back
    /// rejects it as `CorruptShuffle`, discards the replica, and the
    /// key reads as consistently absent afterwards — the loss recovery
    /// re-executes from is stable, never the damaged bytes.
    #[test]
    fn damaged_spills_are_rejected_and_become_consistent_losses(
        raws in vec(vec((0u64..48, 0u64..48), 1..40), 1..8),
        truncate_seed in any::<u64>(),
    ) {
        let parts: Vec<_> = raws.iter().enumerate().map(|(i, r)| encoded(r, i)).collect();
        let (store, backend, keys) = store_with(&parts);

        for name in backend.names() {
            backend_damage(&backend, &name, truncate_seed);
        }
        for key in &keys {
            let err = store.get(key).expect_err("damage must not read back");
            prop_assert!(
                matches!(err, MrError::CorruptShuffle { .. }),
                "expected CorruptShuffle, got {:?}", err
            );
            prop_assert!(!store.contains(key), "damaged replica is discarded");
            prop_assert!(
                store.get(key).unwrap().is_none(),
                "re-fetch sees a consistent loss"
            );
        }
        prop_assert!(backend.names().is_empty(), "damaged replicas are deleted");

        // `remove_job` after the losses still leaves a clean backend.
        store.remove_job(JOB);
        prop_assert_eq!(store.partition_count(), 0);
        prop_assert!(backend.names().is_empty());
    }
}

/// Applies one of the two damage flavors, chosen per-name from the
/// seed so both paths get proptest coverage within a single case.
fn backend_damage(backend: &MemBackend, name: &str, seed: u64) {
    let h = name.bytes().fold(seed, |a, b| a.rotate_left(7) ^ b as u64);
    use sidr_mapreduce::tier::SpillBackend;
    backend.damage(name, h % 2 == 0);
}

/// `remove_job` (the worker's `Finish` path) sweeps the whole job
/// namespace even for partitions never individually released — the
/// deterministic orphan regression for the directory sweep.
#[test]
fn remove_job_sweeps_every_backend_file() {
    let parts: Vec<_> = (0..6)
        .map(|i| encoded(&[(i as u64, 2 * i as u64), (i as u64 + 9, 1)], i))
        .collect();
    let (store, backend, keys) = store_with(&parts);
    assert_eq!(backend.names().len(), parts.len());

    // Release only half; Finish must still clean up the rest.
    for key in keys.iter().take(3) {
        store.release(JOB, key.2, &[(key.1, key.3)]);
    }
    assert_eq!(backend.names().len(), 3);
    store.remove_job(JOB);
    assert_eq!(store.partition_count(), 0);
    assert!(backend.names().is_empty(), "orphans: {:?}", backend.names());
}
