//! Properties of the SMOF v3 fixed-width layout — the one map-output
//! byte format: over random coordinate record sets, the packed-LE
//! encoding round-trips the input records and raw counts through both
//! decoders, and the index-backed [`Smof3View::seek_ge`] matches a
//! linear scan at every probe. Truncations of v3 bytes, and every
//! version but 3 — a well-formed v2 buffer included — always fail
//! with a typed error at every entry point.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::{
    decode_map_output, encode_map_output, verify_encoded, INDEX_INTERVAL,
};
use sidr_mapreduce::{
    FaultPlan, MapOutputFile, MergeSource, MrError, PartitionStore, Smof3View, TierConfig,
    WireFormat,
};

/// A sorted coordinate-keyed map output from raw (unsorted) pairs.
/// Values carry the record's position so reorderings are visible.
fn make_file(raw: Vec<(u64, u64)>) -> MapOutputFile<Coord, f64> {
    let mut records: Vec<(Coord, f64)> = raw
        .into_iter()
        .enumerate()
        .map(|(i, (a, b))| (Coord::from([a, b]), i as f64 * 0.5))
        .collect();
    records.sort_by(|x, y| x.0.cmp(&y.0));
    MapOutputFile {
        raw_count: records.len() as u64 + 7,
        records,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fixed-width v3 encoding round-trips through both decoders
    /// — the zero-copy view and the materializing `decode_map_output`
    /// — against the input records.
    #[test]
    fn v3_round_trips_through_both_decoders(raw in vec((0u64..48, 0u64..48), 0..600)) {
        let file = make_file(raw);

        let v3 = encode_map_output(&file).unwrap();
        let view = Smof3View::<Coord, f64>::parse(Arc::new(v3.clone()))
            .unwrap()
            .expect("parse never yields None");
        prop_assert_eq!(view.records(), file.records.len());
        prop_assert_eq!(view.raw_count(), file.raw_count);
        for (i, (k, v)) in file.records.iter().enumerate() {
            prop_assert_eq!(&view.key_at(i), k);
            prop_assert_eq!(view.value_at(i), *v);
        }

        let via_decode = decode_map_output::<Coord, f64>(&v3).unwrap();
        prop_assert_eq!(&via_decode.records, &file.records);
        prop_assert_eq!(via_decode.raw_count, file.raw_count);
    }

    /// The key-offset index never lies: `seek_ge` equals the linear
    /// `partition_point` answer for present and absent probes alike,
    /// including record counts that straddle index-interval edges.
    #[test]
    fn seek_ge_matches_linear_scan(
        raw in vec((0u64..32, 0u64..32), 0..700),
        probes in vec((0u64..40, 0u64..40), 1..24),
    ) {
        let file = make_file(raw);
        let bytes = encode_map_output(&file).unwrap();
        let view = Smof3View::<Coord, f64>::parse(Arc::new(bytes))
            .unwrap()
            .expect("parse never yields None");
        for (a, b) in probes {
            let key = Coord::from([a, b]);
            let expect = file.records.partition_point(|(k, _)| k < &key);
            prop_assert_eq!(view.seek_ge(&key), expect);
        }
    }

    /// Every strict truncation of a v3 file is a typed decode error
    /// on both decoders — the index and payload never over-read.
    #[test]
    fn v3_truncations_are_rejected(len in 260usize..520, cut_seed in any::<u64>()) {
        let raw: Vec<(u64, u64)> = (0..len as u64).map(|i| (i % 37, i % 11)).collect();
        let file = make_file(raw);
        let bytes = encode_map_output(&file).unwrap();
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(decode_map_output::<Coord, f64>(&bytes[..cut]).is_err());
        prop_assert!(Smof3View::<Coord, f64>::parse(Arc::new(bytes[..cut].to_vec())).is_err());
    }
}

/// The packed key bytes are comparable as the index assumes: for
/// every adjacent pair in a sorted file, the codec's byte-level
/// comparison agrees with `Coord`'s ordering. Exercises the
/// word-wise numeric compare (plain memcmp would order 256 < 1).
#[test]
fn packed_key_order_matches_coord_order() {
    let raw: Vec<(u64, u64)> = (0..(3 * INDEX_INTERVAL as u64))
        .map(|i| (i.wrapping_mul(0x9E37_79B9) % 300, i % 257))
        .collect();
    let file = make_file(raw);
    let codec = Coord::fixed_codec();
    let bytes = encode_map_output(&file).unwrap();
    let view = Smof3View::<Coord, f64>::parse(Arc::new(bytes))
        .unwrap()
        .expect("v3 layout");
    for i in 1..view.records() {
        let byte_cmp = (codec.cmp)(view.key_bytes(i - 1), view.key_bytes(i));
        let coord_cmp = file.records[i - 1].0.cmp(&file.records[i].0);
        assert_eq!(byte_cmp, coord_cmp, "at record {i}");
    }
}

// ---------------------------------------------------------------
// Rejected inputs: one layout, every other version is corruption.
// ---------------------------------------------------------------

/// A well-formed SMOF **v2** buffer, written by hand (the encoder is
/// gone): one ⟨Coord [1, 2], 1.5⟩ record, raw count 5, in the
/// variable-width layout — rank-prefixed key, CRC over the payload.
const V2_FIXTURE: [u8; 56] = [
    b'S', b'M', b'O', b'F', // magic
    0x02, 0x00, 0x00, 0x00, // version 2
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // raw = 5
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // records = 1
    0x1F, 0x8B, 0x9D, 0xEF, // CRC-32 of the payload
    0x02, 0x00, 0x00, 0x00, // key: rank 2
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // key[0] = 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // key[1] = 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F, // value = 1.5
];

/// A sound v3 buffer with its version field overwritten.
fn with_version(version: u32) -> Vec<u8> {
    let mut bytes = encode_map_output(&make_file(vec![(1, 2), (3, 4)])).unwrap();
    bytes[4..8].copy_from_slice(&version.to_le_bytes());
    bytes
}

fn assert_corrupt<T>(what: &str, result: sidr_mapreduce::Result<T>) {
    match result {
        Err(MrError::CorruptShuffle { .. }) => {}
        Err(other) => panic!("{what}: expected CorruptShuffle, got {other:?}"),
        Ok(_) => panic!("{what}: accepted"),
    }
}

#[test]
fn every_version_but_3_is_corrupt_at_every_entry_point() {
    let hostile = [
        ("v2 fixture", V2_FIXTURE.to_vec()),
        ("version 0", with_version(0)),
        ("version 2", with_version(2)),
        ("version 4", with_version(4)),
        ("short header", with_version(3)[..30].to_vec()),
    ];
    for (name, bytes) in hostile {
        assert_corrupt(name, decode_map_output::<Coord, f64>(&bytes));
        assert_corrupt(name, verify_encoded(&bytes));
        let bytes = Arc::new(bytes);
        assert_corrupt(name, Smof3View::<Coord, f64>::parse(Arc::clone(&bytes)));
        assert_corrupt(name, MergeSource::<Coord, f64>::from_encoded(bytes));
    }
}

/// The worker's read-back path: a spilled copy whose version byte was
/// flipped on disk — or that was swapped for a well-formed v2 file —
/// is a corrupt replica, not a second format.
#[test]
fn spilled_copy_of_another_version_reads_back_corrupt() {
    fn files_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        entries
            .flat_map(|p| if p.is_dir() { files_under(&p) } else { vec![p] })
            .collect()
    }
    let dir = std::env::temp_dir().join(format!("sidr-smof3-version-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = PartitionStore::on_disk(
        TierConfig {
            budget_bytes: 1, // every insert goes straight to disk
        },
        &dir,
    );
    let mut flipped = with_version(3);
    flipped[4] = 2;
    for (map, on_disk) in [flipped, V2_FIXTURE.to_vec()].into_iter().enumerate() {
        let key = (7, map, 0, 0);
        store.prepare_job(key.0, FaultPlan::none(), &[1]);
        store.insert(key, Arc::new(with_version(3)));
        let spilled = files_under(&dir);
        assert_eq!(spilled.len(), 1, "{spilled:?}");
        std::fs::write(&spilled[0], on_disk).unwrap();
        assert_corrupt("spilled copy", store.get(&key));
        store.remove_job(key.0);
    }
    std::fs::remove_dir_all(&dir).ok();
}
