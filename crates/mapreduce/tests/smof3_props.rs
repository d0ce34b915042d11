//! Properties of the SMOF v4 run-grouped layout — the one map-output
//! byte format: over random coordinate record sets with repeated keys,
//! the encoding writes one run per distinct key and round-trips the
//! input records and raw counts through both decoders. Truncations of
//! v4 bytes, every version but 4 — well-formed v2 and v3 buffers
//! included — every header bit flip, and hostile values written field
//! by field into the layout (with the CRC re-sealed, so the structural
//! checks are what answers) always fail with a typed `CorruptShuffle`
//! at every entry point, never a panic.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::{crc32, decode_map_output, encode_map_output, verify_encoded};
use sidr_mapreduce::{
    FaultPlan, MapOutputFile, MrError, PartitionStore, Smof3View, TierConfig, WireFormat,
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

/// Distinct keys of a sorted file: its runs.
fn runs_of(file: &MapOutputFile<Coord, f64>) -> usize {
    file.records.chunk_by(|a, b| a.0 == b.0).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The v4 encoding round-trips through both decoders — the
    /// zero-copy view and the materializing `decode_map_output` —
    /// against the input records, with one run per distinct key.
    #[test]
    fn v4_round_trips_through_both_decoders(raw in vec((0u64..12, 0u64..12), 0..600)) {
        let file = make_file(raw);

        let v4 = encode_map_output(&file).unwrap();
        let view = Smof3View::<Coord, f64>::parse(Arc::new(v4.clone()))
            .unwrap()
            .expect("parse never yields None");
        prop_assert_eq!(view.records(), file.records.len());
        prop_assert_eq!(view.runs(), runs_of(&file));
        prop_assert_eq!(view.raw_count(), file.raw_count);
        let mut via_view = Vec::new();
        for r in 0..view.runs() {
            let key = view.run_key(r);
            via_view.extend(view.run_values(r).map(|v| (key.clone(), v)));
        }
        prop_assert_eq!(&via_view, &file.records);

        let via_decode = decode_map_output::<Coord, f64>(&v4).unwrap();
        prop_assert_eq!(&via_decode.records, &file.records);
        prop_assert_eq!(via_decode.raw_count, file.raw_count);
    }

    /// Every strict truncation of a v4 file is a typed decode error
    /// on both decoders — the run table and values never over-read.
    #[test]
    fn v4_truncations_are_rejected(len in 260usize..520, cut_seed in any::<u64>()) {
        let raw: Vec<(u64, u64)> = (0..len as u64).map(|i| (i % 37, i % 11)).collect();
        let file = make_file(raw);
        let bytes = encode_map_output(&file).unwrap();
        let cut = (cut_seed as usize) % bytes.len();
        prop_assert!(decode_map_output::<Coord, f64>(&bytes[..cut]).is_err());
        prop_assert!(Smof3View::<Coord, f64>::parse(Arc::new(bytes[..cut].to_vec())).is_err());
    }
}

/// The packed run keys are ordered as the merge assumes: for every
/// adjacent pair of runs, the codec's byte-level comparison agrees
/// with `Coord`'s ordering, and says strictly less. Exercises the
/// word-wise numeric compare (plain memcmp would order 256 < 1).
#[test]
fn packed_run_key_order_matches_coord_order() {
    let raw: Vec<(u64, u64)> = (0..768u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) % 300, i % 257))
        .collect();
    let codec = Coord::fixed_codec();
    let bytes = encode_map_output(&make_file(raw)).unwrap();
    let view = Smof3View::<Coord, f64>::parse(Arc::new(bytes))
        .unwrap()
        .expect("v4 layout");
    for r in 1..view.runs() {
        let byte_cmp = (codec.cmp)(view.run_key_bytes(r - 1), view.run_key_bytes(r));
        let coord_cmp = view.run_key(r - 1).cmp(&view.run_key(r));
        assert_eq!(byte_cmp, coord_cmp, "at run {r}");
        assert!(byte_cmp.is_lt(), "at run {r}");
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

/// A well-formed SMOF **v3** buffer, written by hand (the encoder is
/// gone): the same record in the per-row layout — a sparse key-offset
/// index of one entry, then key ++ value rows, under a frame CRC of
/// the 36 header bytes before it and the body.
const V3_FIXTURE: [u8; 88] = [
    b'S', b'M', b'O', b'F', // magic
    0x03, 0x00, 0x00, 0x00, // version 3
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // raw = 5
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // records = 1
    0x10, 0x00, 0x00, 0x00, // key width 16
    0x08, 0x00, 0x00, 0x00, // value width 8
    0x01, 0x00, 0x00, 0x00, // index entries 1
    0x96, 0x6F, 0x46, 0xC7, // frame CRC
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // index key[0] = 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // index key[1] = 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // at record 0
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // key[0] = 1
    0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, // key[1] = 2
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F, // value = 1.5
];

/// The v3 fixture is sound v3: its frame CRC checks out, so only its
/// version can be what the reader rejects.
#[test]
fn v3_fixture_is_well_formed_v3() {
    let framed = [&V3_FIXTURE[..CRC], &V3_FIXTURE[HEADER..]].concat();
    assert_eq!(crc32(&framed).to_le_bytes(), V3_FIXTURE[CRC..HEADER]);
}

/// A sound v4 buffer with its version field overwritten.
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

/// `bytes` rejected as `CorruptShuffle` by every typed decoder.
fn assert_corrupt_typed(what: &str, bytes: &[u8]) {
    assert_corrupt(what, decode_map_output::<Coord, f64>(bytes));
    let bytes = Arc::new(bytes.to_vec());
    assert_corrupt(what, Smof3View::<Coord, f64>::parse(Arc::clone(&bytes)));
    assert_corrupt(what, Smof3View::<Coord, f64>::open(bytes));
}

/// `bytes` rejected as `CorruptShuffle` by every decoder entry point,
/// the type-free `verify_encoded` included.
fn assert_corrupt_everywhere(what: &str, bytes: Vec<u8>) {
    assert_corrupt(what, verify_encoded(&bytes));
    assert_corrupt_typed(what, &bytes);
}

#[test]
fn every_version_but_4_is_corrupt_at_every_entry_point() {
    let hostile = [
        ("v2 fixture", V2_FIXTURE.to_vec()),
        ("v3 fixture", V3_FIXTURE.to_vec()),
        ("version 0", with_version(0)),
        ("version 2", with_version(2)),
        ("version 3", with_version(3)),
        ("version 5", with_version(5)),
        ("short header", with_version(4)[..30].to_vec()),
    ];
    for (name, bytes) in hostile {
        assert_corrupt_everywhere(name, bytes);
    }
}

/// The worker's read-back path: a spilled copy whose version byte was
/// flipped on disk — or that was swapped for a well-formed v2 or v3
/// file — is a corrupt replica, not a second format.
#[test]
fn spilled_copy_of_another_version_reads_back_corrupt() {
    fn files_under(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let entries = std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
        entries
            .flat_map(|p| if p.is_dir() { files_under(&p) } else { vec![p] })
            .collect()
    }
    let dir = std::env::temp_dir().join(format!("sidr-smof-version-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = PartitionStore::on_disk(
        TierConfig {
            budget_bytes: 1, // every insert goes straight to disk
        },
        &dir,
    );
    let mut flipped = with_version(4);
    flipped[4] = 3;
    let on_disk = [flipped, V2_FIXTURE.to_vec(), V3_FIXTURE.to_vec()];
    for (map, on_disk) in on_disk.into_iter().enumerate() {
        let key = (7, map, 0, 0);
        store.prepare_job(key.0, FaultPlan::none(), &[1]);
        store.insert(key, Arc::new(with_version(4)));
        let spilled = files_under(&dir);
        assert_eq!(spilled.len(), 1, "{spilled:?}");
        std::fs::write(&spilled[0], on_disk).unwrap();
        assert_corrupt("spilled copy", store.get(&key));
        store.remove_job(key.0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The CRC frame covers the header: every bit of every one of the 40
/// header bytes — annotation, geometry and the CRC field itself — is
/// caught when flipped, so a flipped `raw` annotation is a lost
/// partition (one map re-executes), never an `AnnotationMismatch` that
/// fails the job.
#[test]
fn every_header_bit_flip_is_corrupt() {
    let raw: Vec<(u64, u64)> = (0..300u64).map(|i| (i % 17, i % 5)).collect();
    let bytes = encode_map_output(&make_file(raw)).unwrap();
    for byte in 0..HEADER {
        for bit in 0..8 {
            let mut flipped = bytes.clone();
            flipped[byte] ^= 1 << bit;
            assert_corrupt_everywhere(&format!("byte {byte} bit {bit}"), flipped);
        }
    }
}

/// Header field offsets of the v4 layout.
const RECORDS: usize = 16;
const RUNS: usize = 24;
const KEY_WIDTH: usize = 28;
const VAL_WIDTH: usize = 32;
const CRC: usize = 36;
const HEADER: usize = 40;
/// A run-table entry of `make_file`'s 16-byte keys: key, then end.
const KEY: usize = 16;
const ENTRY: usize = KEY + 4;

/// Re-computes the frame CRC (header bytes 0..36, then the body) of a
/// hand-edited buffer, so the edit reaches the structural checks.
fn reseal(bytes: &mut [u8]) {
    let mut framed = bytes[..CRC].to_vec();
    framed.extend_from_slice(&bytes[HEADER..]);
    let crc = crc32(&framed);
    bytes[CRC..HEADER].copy_from_slice(&crc.to_le_bytes());
}

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Where run `r`'s cumulative end lives.
fn end_at(r: usize) -> usize {
    HEADER + r * ENTRY + KEY
}

fn end_of(bytes: &[u8], r: usize) -> u32 {
    u32::from_le_bytes(bytes[end_at(r)..end_at(r) + 4].try_into().unwrap())
}

/// One hostile edit of a sound buffer, aware of where each field lives.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    Records(u64),
    Runs(u32),
    KeyWidth(u32),
    ValWidth(u32),
    SwapWidths,
    /// Run `r` ends where run `r - 1` does: it holds no value.
    EmptyRun(usize),
    /// Run `r` ends past the last record.
    EndPastRecords(usize),
    /// The last run ends before the last record.
    LastEndShort,
    /// Run `r` repeats run `r - 1`'s key: one key's group in two runs.
    RepeatedKey(usize),
}

/// A field, a hostile value for it — `0`, the type's maximum, or an
/// arbitrary draw — and which run a run-table edit targets.
fn mutation() -> impl Strategy<Value = Mutation> {
    (0u8..9, 0usize..3, any::<u64>()).prop_map(|(field, pick, v)| {
        let wide = [0, u64::MAX, v][pick];
        let narrow = [0, u32::MAX, v as u32][pick];
        match field {
            0 => Mutation::Records(wide),
            // Overflowing run counts, or a small wrong one.
            1 => Mutation::Runs([u32::MAX, u32::MAX / 20 + 1, (v % 8) as u32][pick]),
            2 => Mutation::KeyWidth(narrow),
            3 => Mutation::ValWidth(narrow),
            4 => Mutation::SwapWidths,
            5 => Mutation::EmptyRun(v as usize),
            6 => Mutation::EndPastRecords(v as usize),
            7 => Mutation::LastEndShort,
            _ => Mutation::RepeatedKey(v as usize),
        }
    })
}

/// Applies `m` to `bytes` (an encoded `make_file`: 16-byte keys, 8-byte
/// values, `records` records in `runs` runs). Returns `false` when the
/// edit would leave the buffer unchanged, which is no mutation at all.
fn apply(m: Mutation, bytes: &mut [u8], records: u64, runs: usize) -> bool {
    match m {
        Mutation::Records(v) => {
            put_u64(bytes, RECORDS, v);
            v != records
        }
        Mutation::Runs(v) => {
            put_u32(bytes, RUNS, v);
            v as usize != runs
        }
        Mutation::KeyWidth(v) => {
            put_u32(bytes, KEY_WIDTH, v);
            v as usize != KEY
        }
        Mutation::ValWidth(v) => {
            put_u32(bytes, VAL_WIDTH, v);
            v != 8
        }
        Mutation::SwapWidths => {
            put_u32(bytes, KEY_WIDTH, 8);
            put_u32(bytes, VAL_WIDTH, 16);
            true
        }
        Mutation::EmptyRun(r) => {
            let r = r % runs;
            let prev = if r == 0 { 0 } else { end_of(bytes, r - 1) };
            put_u32(bytes, end_at(r), prev);
            true
        }
        Mutation::EndPastRecords(r) => {
            let over = records as u32 + 1 + (r % 3) as u32;
            put_u32(bytes, end_at(r % runs), over);
            true
        }
        Mutation::LastEndShort => {
            put_u32(bytes, end_at(runs - 1), records as u32 - 1);
            true
        }
        Mutation::RepeatedKey(r) => {
            if runs < 2 {
                return false;
            }
            let r = 1 + r % (runs - 1);
            let prev = HEADER + (r - 1) * ENTRY;
            bytes.copy_within(prev..prev + KEY, prev + ENTRY);
            true
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Layout-aware fuzzing of the v4 decoders: a hostile value in one
    /// header field — or a run table with an empty run, an end past the
    /// records, a short last end or one key in two runs — with the CRC
    /// re-sealed over the edit is a typed `CorruptShuffle` at every
    /// entry point, never a panic and never a view that addresses
    /// bytes it does not have. Without the re-seal the frame CRC
    /// answers first.
    #[test]
    fn hostile_fields_are_corrupt_at_every_entry_point(
        raw in vec((0u64..12, 0u64..12), 1..700),
        m in mutation(),
        sealed in any::<bool>(),
    ) {
        let file = make_file(raw);
        let (records, runs) = (file.records.len() as u64, runs_of(&file));
        let mut bytes = encode_map_output(&file).unwrap();
        if !apply(m, &mut bytes, records, runs) {
            return Ok(()); // the edit left the buffer as it was
        }
        if sealed {
            reseal(&mut bytes);
        }
        let what = format!("{m:?} sealed={sealed}");
        if matches!(m, Mutation::SwapWidths) && sealed && runs as u64 == records {
            // Same length: the swapped header can describe a sound
            // buffer of 8-byte keys and 16-byte values, which only a
            // reader that knows the types can refuse.
            assert_corrupt_typed(&what, &bytes);
        } else {
            assert_corrupt_everywhere(&what, bytes);
        }
    }

    /// Run keys that descend, re-sealed, are corrupt to every typed
    /// reader: the key codec orders them. (`verify_encoded` is
    /// type-free and sees two distinct keys; every reduce opens its
    /// sources through `Smof3View::open`.)
    #[test]
    fn descending_run_keys_are_corrupt_to_every_typed_reader(
        raw in vec((0u64..12, 0u64..12), 2..700),
        pick in any::<usize>(),
    ) {
        let file = make_file(raw);
        let runs = runs_of(&file);
        if runs < 2 {
            return Ok(()); // one run has no neighbour to swap with
        }
        let mut bytes = encode_map_output(&file).unwrap();
        let r = 1 + pick % (runs - 1);
        let (a, b) = (HEADER + (r - 1) * ENTRY, HEADER + r * ENTRY);
        let key_a = bytes[a..a + KEY].to_vec();
        bytes.copy_within(b..b + KEY, a);
        bytes[b..b + KEY].copy_from_slice(&key_a);
        reseal(&mut bytes);
        assert_corrupt_typed(&format!("runs {} and {r} swapped", r - 1), &bytes);
    }
}

/// The re-seal helper is the writer's frame CRC: re-sealing an
/// untouched buffer changes nothing, so the properties above test the
/// structural checks and not a broken seal.
#[test]
fn reseal_matches_the_writer() {
    let bytes = encode_map_output(&make_file(vec![(1, 2), (3, 4), (5, 6)])).unwrap();
    let mut again = bytes.clone();
    reseal(&mut again);
    assert_eq!(again, bytes);
    assert!(verify_encoded(&again).is_ok());
}
