//! End-to-end tests for the keyblock wire path: every keyblock
//! reaches a client as one packed [`binframe`](sidr_serve::binframe)
//! frame, and the decoded records are identical to the batch answer
//! for the same job. Plus adversarial property tests for the
//! `KeyblockBin` decoder, in the style of `frames.rs`: truncations,
//! bit flips and hostile geometry yield typed errors, never panics or
//! over-reads. And the packed path from merge to socket: the reduce's
//! sealed rows are the bytes the decode-and-encode path produced, the
//! coordinator's check refuses every damaged or misfiled worker frame,
//! and its restamped frame decodes to the worker's rows.

use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use proptest::collection::vec;
use proptest::prelude::*;

use sidr_analyze::presets;
use sidr_coords::{Coord, Shape, Slab};
use sidr_core::framework::{run_query, FrameworkMode, RunOptions};
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner};
use sidr_mapreduce::shuffle_file::{crc32_parts, encode_map_output};
use sidr_mapreduce::{
    run_reduce_attempt, AttemptBodies, FaultKind, InProcessExecutor, InputSplit, JobConfig,
    Keyblock, MapAttemptOutput, MapOutputFile, MapTaskId, MrError, ReduceSource, RemoteReduceError,
    Smof3View, TaskExecutor,
};
use sidr_scifile::gen::{DatasetSpec, ValueModel};
use sidr_serve::binframe::{
    accept_keyblock, decode_keyblock, encode_keyblock, is_binary, seal_keyblock, BIN_HEADER_LEN,
};
use sidr_serve::frame::{self, read_frame, FrameError, Role};
use sidr_serve::{Client, Request, Response, Server, ServerConfig, SubmitOptions, Tcp};

/// Builds the CI-scale preset's spec and (once per tag) its dataset.
fn tiny_fixture(tag: &str) -> (JobSpec, String) {
    let job = presets::preset("query1-tiny").expect("preset exists");
    let plan = SidrPlanner::new(&job.query, job.reducer_counts[0])
        .build(&job.splits)
        .unwrap();
    let spec = JobSpec::from_plan(&job.query, &job.splits, &plan).unwrap();

    let dir = std::env::temp_dir().join("sidr-serve-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("tiny-{}-{tag}.scinc", std::process::id()));
    if !path.exists() {
        let space = job.query.input_space().clone();
        DatasetSpec {
            variable: job.query.variable.clone(),
            dim_names: (0..space.rank()).map(|d| format!("d{d}")).collect(),
            space,
            model: ValueModel::LinearIndex,
            seed: 0,
        }
        .generate::<f32>(&path)
        .unwrap();
    }
    (spec, path.to_string_lossy().into_owned())
}

fn spawn_server(config: ServerConfig) -> (std::net::SocketAddr, sidr_serve::ServerHandle) {
    let server = Server::bind(Arc::new(Tcp), "127.0.0.1:0", config).unwrap();
    let addr: std::net::SocketAddr = server.local_addr().parse().unwrap();
    let handle = server.handle();
    thread::spawn(move || server.run());
    (addr, handle)
}

fn batch_truth(spec: &JobSpec, input: &str) -> Vec<(Coord, f64)> {
    let file = sidr_scifile::ScincFile::open(input).unwrap();
    let query = spec.query().unwrap();
    run_query(&file, &query, &RunOptions::new(FrameworkMode::Sidr, 4))
        .unwrap()
        .records
}

/// The acceptance test for the keyblock data path: what `Client`
/// decodes off the stream is the batch answer.
#[test]
fn streamed_keyblocks_decode_identical_to_batch() {
    let (spec, input) = tiny_fixture("binary-e2e");
    let (addr, handle) = spawn_server(ServerConfig::default());
    let truth = batch_truth(&spec, &input);

    let mut client = Client::connect(&addr.to_string()).unwrap();
    let ticket = client
        .submit(&spec, &input, SubmitOptions::default())
        .unwrap();
    let mut streamed = Vec::new();
    let outcome = client
        .stream_job(ticket.job, |_reducer, _at_ms, records| {
            streamed.extend(records.iter().cloned());
        })
        .unwrap();
    assert!(outcome.completed);
    assert_eq!(outcome.records, streamed.len() as u64);
    streamed.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(streamed, truth);
    handle.shutdown();
}

/// Proof at the byte level: every keyblock frame on the wire is
/// binary-tagged (the server never serializes a JSON keyblock), one
/// frame per keyblock, and hand-decoding those frames reproduces the
/// batch answer exactly.
#[test]
fn connection_carries_one_binary_frame_per_keyblock() {
    let (spec, input) = tiny_fixture("binary-wire");
    let (addr, handle) = spawn_server(ServerConfig::default());
    let truth = batch_truth(&spec, &input);

    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    frame::handshake_dial(&mut stream, Role::Client, Role::Coordinator).unwrap();

    frame::send(
        &mut stream,
        &Request::Submit {
            spec: spec.clone(),
            input: input.clone(),
            options: SubmitOptions::default(),
        },
    )
    .unwrap();

    let mut binary_frames = 0usize;
    let mut records: Vec<(Coord, f64)> = Vec::new();
    let committed;
    loop {
        let payload = read_frame(&mut stream).unwrap().expect("mid-job EOF");
        if is_binary(&payload) {
            binary_frames += 1;
            records.extend(decode_keyblock(&payload).unwrap().records);
            continue;
        }
        match frame::decode_json::<Response>(&payload).unwrap() {
            Response::Accepted { .. } => {}
            Response::Keyblock { .. } => panic!("JSON keyblock on the wire"),
            Response::Done { records: total, .. } => {
                committed = total;
                break;
            }
            other => panic!("unexpected frame: {other:?}"),
        }
    }
    assert_eq!(binary_frames, spec.num_reducers, "one frame per keyblock");
    assert_eq!(records.len() as u64, committed);
    records.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(records, truth);
    handle.shutdown();
}

/// The size bound a keyblock has on either hop: an encode that would
/// exceed `MAX_FRAME` is a typed error before any allocation, so the
/// sender can fail the attempt (worker) or the job (server) instead of
/// writing a frame no reader accepts.
#[test]
fn oversized_keyblock_is_a_typed_encode_error() {
    let row = Coord::from([0u64, 0]).packed_width() + 8;
    let n = (sidr_serve::MAX_FRAME as usize - BIN_HEADER_LEN) / row + 1;
    let records = vec![(Coord::from([0u64, 0]), 0.0); n];
    match encode_keyblock(1, 0, 0, &records) {
        Err(FrameError::Oversized { max, .. }) => assert_eq!(max, sidr_serve::MAX_FRAME),
        other => panic!("expected Oversized, got {:?}", other.map(|b| b.len())),
    }
    assert!(encode_keyblock(1, 0, 0, &records[..n - 1]).is_ok());
}

fn sample_frame() -> Vec<u8> {
    let records: Vec<(Coord, f64)> = (0..17u64)
        .map(|i| (Coord::from([i, 2 * i, 9 - (i % 10)]), i as f64 * 0.25))
        .collect();
    encode_keyblock(42, 5, 1234, &records).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary binary-tagged bytes never panic the keyblock
    /// decoder: every outcome is a decode or a typed error.
    #[test]
    fn arbitrary_binary_bytes_never_panic(mut bytes in vec(any::<u8>(), 0..512)) {
        if let Some(first) = bytes.first_mut() {
            *first = 0xBB;
        }
        match decode_keyblock(&bytes) {
            Ok(_) | Err(FrameError::Malformed(_)) | Err(FrameError::Oversized { .. }) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }

    /// A valid frame cut anywhere strictly inside fails with a typed
    /// error — the truncated geometry or header never over-reads.
    #[test]
    fn every_truncation_is_rejected(cut_seed in any::<u64>()) {
        let wire = sample_frame();
        let cut = (cut_seed as usize) % wire.len();
        prop_assert!(decode_keyblock(&wire[..cut]).is_err());
    }

    /// Any single bit flip in the payload is caught by the CRC; the
    /// header's bits are covered exhaustively below.
    #[test]
    fn single_bit_flips_never_panic(pos_seed in any::<u64>(), bit in 0u8..8) {
        let mut wire = sample_frame();
        let pos = BIN_HEADER_LEN + (pos_seed as usize) % (wire.len() - BIN_HEADER_LEN);
        wire[pos] ^= 1 << bit;
        match decode_keyblock(&wire) {
            Err(FrameError::Malformed(_)) => {}
            other => panic!("payload flip at {pos}: {:?}", other.map(|kb| kb.reducer)),
        }
    }

    /// Layout-aware fuzzing, in the style of `smof3_props.rs`: a hostile
    /// value in one header field, with the CRC re-sealed over the edit
    /// or not, is a typed `Malformed` — or, when the value happens to
    /// be the honest one, a decode whose re-encoding is the same bytes.
    /// Never a panic, never an over-read.
    #[test]
    fn hostile_header_fields_are_malformed(field in hostile(), sealed in any::<bool>()) {
        let mut wire = sample_frame();
        field.apply(&mut wire);
        if sealed {
            reseal(&mut wire);
        }
        match decode_keyblock(&wire) {
            Ok(kb) => {
                let again = encode_keyblock(kb.job, kb.reducer, kb.at_ms, &kb.records).unwrap();
                prop_assert_eq!(again, wire, "{:?} sealed={} decoded", field, sealed);
            }
            Err(FrameError::Malformed(_)) => {}
            Err(other) => panic!("{field:?} sealed={sealed}: unexpected error class {other:?}"),
        }
    }

    /// Hostile record counts (with everything else valid) are caught
    /// by the geometry check before any allocation or read.
    #[test]
    fn hostile_record_counts_are_rejected(count in any::<u32>()) {
        let mut wire = sample_frame();
        let honest = u32::from_le_bytes(wire[16..20].try_into().unwrap());
        if count == honest {
            return Ok(()); // sampled the one honest count; skip
        }
        wire[16..20].copy_from_slice(&count.to_le_bytes());
        prop_assert!(decode_keyblock(&wire).is_err());
    }
}

/// One header field of [`sample_frame`] set to a hostile value.
#[derive(Clone, Copy, Debug)]
enum Hostile {
    Records(u32),
    KeyWidth(u32),
    Kind(u8),
    Reserved(u16),
}

fn hostile() -> impl Strategy<Value = Hostile> {
    (0u8..4, 0usize..3, any::<u32>()).prop_map(|(field, pick, v)| match field {
        0 => Hostile::Records([0, u32::MAX, v][pick]),
        1 => Hostile::KeyWidth([0, 4, u32::MAX][pick]),
        2 => Hostile::Kind([1, u8::MAX, v as u8][pick]),
        _ => Hostile::Reserved([1, u16::MAX, v as u16][pick]),
    })
}

impl Hostile {
    fn apply(self, wire: &mut [u8]) {
        match self {
            Hostile::Records(n) => wire[16..20].copy_from_slice(&n.to_le_bytes()),
            Hostile::KeyWidth(w) => wire[28..32].copy_from_slice(&w.to_le_bytes()),
            Hostile::Kind(k) => wire[1] = k,
            Hostile::Reserved(r) => wire[2..4].copy_from_slice(&r.to_le_bytes()),
        }
    }
}

/// The encoder's CRC over an edited frame: header bytes `0..32`, then
/// the payload.
fn reseal(wire: &mut [u8]) {
    let crc = crc32_parts(&[&wire[..32], &wire[BIN_HEADER_LEN..]]);
    wire[32..BIN_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// Re-sealing an untouched frame changes nothing, so the property
/// above tests the structural checks and not a broken seal.
#[test]
fn reseal_matches_the_encoder() {
    let wire = sample_frame();
    let mut again = wire.clone();
    reseal(&mut again);
    assert_eq!(again, wire);
}

/// Every one of the header's 288 bits is covered: a flip fails the
/// CRC or an earlier check, so a keyblock can never be filed under
/// another job or reducer, or stamped with another time.
#[test]
fn every_header_bit_flip_is_malformed() {
    let wire = sample_frame();
    for byte in 0..BIN_HEADER_LEN {
        for bit in 0..8 {
            let mut flipped = wire.clone();
            flipped[byte] ^= 1 << bit;
            match decode_keyblock(&flipped) {
                Err(FrameError::Malformed(_)) => {}
                other => panic!(
                    "header byte {byte} bit {bit}: {:?}",
                    other.map(|kb| (kb.job, kb.reducer, kb.at_ms))
                ),
            }
        }
    }
}

/// The worker's frame of [`sample_frame`]'s rows: job 3, reducer 5,
/// sealed over the reduce's header room.
fn worker_frame() -> (Vec<u8>, Vec<(Coord, f64)>) {
    let records = decode_keyblock(&sample_frame()).unwrap().records;
    let frame = seal_keyblock(3, 5, 0, Keyblock::from_records(&records).unwrap()).unwrap();
    (frame, records)
}

/// One source partition of `records`, sorted by key, as a view.
fn view_of(mut records: Vec<(Coord, f64)>) -> Smof3View<Coord, f64> {
    records.sort_by(|a, b| a.0.cmp(&b.0));
    let file = MapOutputFile {
        raw_count: records.len() as u64,
        records,
    };
    Smof3View::open(Arc::new(encode_map_output(&file).unwrap())).unwrap()
}

/// The reduce path the packed rows replaced, kept only as the
/// reference: decode every source's records, stable-sort them by key
/// (equal keys in source order), apply `op` to each key's group and
/// collect `(Coord, f64)` rows — to be encoded by `encode_keyblock`.
fn decoded_reduce(sources: &[Smof3View<Coord, f64>], op: Operator) -> Vec<(Coord, f64)> {
    let mut all: Vec<(Coord, f64)> = Vec::new();
    for view in sources {
        let records = (0..view.runs()).flat_map(|r| {
            let key = view.run_key(r);
            view.run_values(r).map(move |v| (key.clone(), v))
        });
        all.extend(records);
    }
    all.sort_by(|a, b| a.0.cmp(&b.0));
    let mut rows = Vec::new();
    let mut rest = &all[..];
    while let Some((key, _)) = rest.first() {
        let n = rest.iter().take_while(|(k, _)| k == key).count();
        let mut values: Vec<f64> = rest[..n].iter().map(|(_, v)| *v).collect();
        op.reduce_group(&mut values, &mut |v| rows.push((key.clone(), v)));
        rest = &rest[n..];
    }
    rows
}

const OPERATORS: [Operator; 5] = [
    Operator::Median,
    Operator::Mean,
    Operator::Max,
    Operator::SortValues,
    Operator::Filter { threshold: 0.5 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The coordinator's check of a worker frame refuses, with a typed
    /// error and before any keyblock exists to commit, every
    /// single-byte change, every truncation, and a frame filed under
    /// another job or reducer or announced with another row count.
    #[test]
    fn the_coordinator_refuses_every_damaged_or_misfiled_frame(
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
        cut_seed in any::<u64>(),
        (job, reducer, rows) in (0u64..6, 3usize..8, 15u64..20),
    ) {
        let (frame, records) = worker_frame();
        let n = records.len() as u64;
        let refused = |frame: Vec<u8>, job, reducer, rows| {
            matches!(accept_keyblock(frame, job, reducer, rows), Err(FrameError::Malformed(_)))
        };
        prop_assert!(accept_keyblock(frame.clone(), 3, 5, n).is_ok());

        let mut flipped = frame.clone();
        let pos = (pos_seed as usize) % flipped.len();
        flipped[pos] ^= flip;
        prop_assert!(refused(flipped, 3, 5, n), "byte {} ^ {:#04x}", pos, flip);

        let cut = (cut_seed as usize) % frame.len();
        prop_assert!(refused(frame[..cut].to_vec(), 3, 5, n), "cut at {}", cut);

        if (job, reducer, rows) != (3, 5, n) {
            prop_assert!(refused(frame, job, reducer, rows), "as {:?}", (job, reducer, rows));
        }
    }

    /// The packed reduce's sealed frame is byte for byte
    /// `encode_keyblock` of the rows the decode-every-record path
    /// produced, for any sources — keys spread over several, and
    /// repeated inside one — and every kind of operator.
    #[test]
    fn the_packed_reduce_frame_is_the_encoded_decoded_rows(
        sources in vec(vec((0u64..6, 0u64..3, -4i32..4), 0..24), 0..6),
        op in 0usize..OPERATORS.len(),
    ) {
        let op = OPERATORS[op];
        let views: Vec<Smof3View<Coord, f64>> = (sources.into_iter())
            .map(|rows| {
                let records = rows.into_iter().map(|(a, b, v)| (Coord::from([a, b]), v as f64 / 4.0));
                view_of(records.collect())
            })
            .collect();
        let reference = encode_keyblock(9, 2, 77, &decoded_reduce(&views, op)).unwrap();
        let packed = run_reduce_attempt(2, views, None, |vs, emit| op.reduce_group(vs, emit)).unwrap();
        prop_assert_eq!(seal_keyblock(9, 2, 77, packed).unwrap(), reference);
    }
}

/// What the coordinator forwards is the worker's buffer under its own
/// job and time: it decodes, through the client's decoder, to the
/// worker's rows, under the coordinator's job and `at_ms`.
#[test]
fn a_restamped_frame_decodes_to_the_workers_rows() {
    let (frame, records) = worker_frame();
    let rows = accept_keyblock(frame, 3, 5, records.len() as u64).unwrap();
    let forwarded = seal_keyblock(42, 5, 1234, rows).unwrap();
    assert_eq!(
        forwarded,
        sample_frame(),
        "the same bytes as a fresh encode"
    );
    let kb = decode_keyblock(&forwarded).unwrap();
    assert_eq!((kb.job, kb.reducer, kb.at_ms), (42, 5, 1234));
    assert_eq!(kb.records, records);
}

/// Map `task` writes one key of rank `task + 1` for reducer 0: the
/// reduce's sources disagree on key width.
struct MixedRanks;

impl AttemptBodies for MixedRanks {
    type Key = Coord;
    type Value = f64;
    type Out = f64;

    fn map(
        &self,
        task: MapTaskId,
        _attempt: u32,
        _fault: Option<FaultKind>,
        _split: &InputSplit,
        _pause: &dyn Fn(std::time::Duration) -> bool,
    ) -> sidr_mapreduce::Result<MapAttemptOutput> {
        let file = MapOutputFile {
            records: vec![(Coord::from(vec![7; task + 1]), 1.0)],
            raw_count: 1,
        };
        Ok(MapAttemptOutput {
            partitions: vec![(0, encode_map_output(&file)?)],
            records_in: 1,
            records_out: 1,
        })
    }

    fn reduce(
        &self,
        reducer: usize,
        inputs: Vec<Smof3View<Coord, f64>>,
        expected_raw: Option<u64>,
    ) -> sidr_mapreduce::Result<Keyblock<Coord, f64>> {
        run_reduce_attempt(reducer, inputs, expected_raw, |vs, emit| {
            Operator::Mean.reduce_group(vs, emit)
        })
    }
}

/// A keyblock no frame can carry fails its attempt fatally, as
/// `encode_keyblock`'s refusals did: rows of two key widths are an
/// output error the executor makes fatal (a worker answers it
/// `fatal`), and rows past `MAX_FRAME` are a typed `Oversized` seal.
#[test]
fn a_keyblock_no_frame_can_carry_fails_fatally() {
    let config = JobConfig::default();
    let exec = InProcessExecutor::with_bodies(MixedRanks, &config);
    let split = InputSplit {
        slab: Slab::whole(&Shape::new(vec![1]).unwrap()),
    };
    for task in 0..2 {
        exec.execute_map(task, 0, false, &split, &|_| true).unwrap();
    }
    let sources = [0, 1].map(|map| ReduceSource { map, epoch: 0 });
    match exec.execute_reduce(0, 0, &sources, None) {
        Err(RemoteReduceError::Fatal(MrError::Output(why))) => {
            assert!(why.contains("key widths"), "{why}")
        }
        other => panic!("expected a fatal output error, got {other:?}"),
    }

    let row = Coord::from([0u64, 0]).packed_width() + 8;
    let n = (sidr_serve::MAX_FRAME as usize - BIN_HEADER_LEN) / row + 1;
    let mut kb = Keyblock::<Coord, f64>::with_hint(n);
    let key = [0u8; 16];
    (0..n).for_each(|_| assert!(kb.push(&key, &0.0)));
    match seal_keyblock(1, 0, 0, kb) {
        Err(FrameError::Oversized { max, .. }) => assert_eq!(max, sidr_serve::MAX_FRAME),
        other => panic!("expected Oversized, got {:?}", other.map(|b| b.len())),
    }
}
