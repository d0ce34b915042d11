//! `sidr_tier_resident_bytes` / `sidr_tier_spilled_bytes` sum every
//! live partition store in the process: each store adds what its
//! tallies change, and takes what it still holds out when dropped.
//! The gauges are process-global, so this is a test binary of its own
//! with one test.

use std::sync::Arc;

use sidr_mapreduce::tier::{tier_metrics, MemBackend, PartitionStore};
use sidr_mapreduce::TierConfig;

fn store(budget_bytes: u64) -> PartitionStore {
    PartitionStore::new(TierConfig { budget_bytes }, Arc::new(MemBackend::new()))
}

#[test]
fn gauges_sum_every_live_store_and_forget_dropped_ones() {
    let m = tier_metrics();
    let gauges = || (m.resident_bytes.get(), m.spilled_bytes.get());

    let a = store(0);
    let b = store(10);
    a.insert((1, 0, 0, 0), Arc::new(vec![0; 100]));
    a.insert((1, 1, 0, 0), Arc::new(vec![0; 20]));
    // Too big for `b`'s budget: straight to its disk tier.
    b.insert((1, 0, 0, 0), Arc::new(vec![0; 40]));
    b.insert((1, 1, 0, 0), Arc::new(vec![0; 7]));
    assert_eq!(gauges(), (127, 40), "both stores, both tiers");

    a.release(1, 0, &[(1, 0)]);
    assert_eq!(gauges(), (107, 40));

    drop(a);
    assert_eq!(gauges(), (7, 40), "only b is left");
    drop(b);
    assert_eq!(gauges(), (0, 0));
}
