//! Adversarial property tests for the framing layer: whatever bytes a
//! client sends — truncated frames, hostile length prefixes, garbage
//! payloads — the decoder returns a typed [`FrameError`] and never
//! panics or over-reads. Mirrors the `WireFormat` truncation tests in
//! `crates/mapreduce/src/wire.rs`, one protocol layer up.

use proptest::collection::vec;
use proptest::prelude::*;

use sidr_analyze::{analyze_spec, AnalyzeOptions};
use sidr_coords::Shape;
use sidr_core::spec::JobSpec;
use sidr_core::{Operator, SidrPlanner, StructuralQuery};
use sidr_mapreduce::SplitGenerator;
use sidr_serve::frame::{read_frame, recv, send, write_frame, FrameError, MAX_FRAME};
use sidr_serve::{Request, Response, SubmitOptions};

fn example_spec() -> JobSpec {
    let q = StructuralQuery::new(
        "v",
        Shape::new(vec![64, 10, 10]).unwrap(),
        Shape::new(vec![4, 5, 1]).unwrap(),
        Operator::Mean,
    )
    .unwrap();
    let splits = SplitGenerator::new(q.input_space().clone(), 8)
        .exact_count(8)
        .unwrap();
    let plan = SidrPlanner::new(&q, 4).build(&splits).unwrap();
    JobSpec::from_plan(&q, &splits, &plan).unwrap()
}

/// Encodes a request into its wire bytes.
fn encode(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    send(&mut buf, req).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes never panic the decoder: every outcome is a
    /// clean EOF, a decoded value, or a typed error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        let mut r = &bytes[..];
        match recv::<Request>(&mut r) {
            Ok(_) | Err(FrameError::Truncated { .. })
            | Err(FrameError::Oversized { .. })
            | Err(FrameError::Malformed(_))
            | Err(FrameError::Io(_))
            | Err(FrameError::VersionMismatch { .. }) => {}
        }
    }

    /// A valid frame cut anywhere strictly inside is `Truncated`;
    /// cut at zero it is a clean EOF.
    #[test]
    fn every_truncation_is_reported(cut_seed in any::<u64>(), job in any::<u64>()) {
        let wire = encode(&Request::Cancel { job });
        let cut = (cut_seed as usize) % wire.len();
        let mut r = &wire[..cut];
        match read_frame(&mut r) {
            Ok(None) => prop_assert_eq!(cut, 0),
            Err(FrameError::Truncated { expected, got }) => {
                prop_assert!(got < expected);
            }
            other => prop_assert!(false, "cut {} gave {:?}", cut, other),
        }
    }

    /// Length prefixes beyond the cap are rejected before any payload
    /// is read — regardless of what follows.
    #[test]
    fn oversized_lengths_are_rejected(extra in 1u32..1000, tail in vec(any::<u8>(), 0..32)) {
        let len = MAX_FRAME + extra;
        let mut wire = len.to_le_bytes().to_vec();
        wire.extend_from_slice(&tail);
        let mut r = &wire[..];
        prop_assert_eq!(
            read_frame(&mut r),
            Err(FrameError::Oversized { len, max: MAX_FRAME })
        );
    }

    /// Well-framed garbage payloads decode to `Malformed`, not a
    /// panic and not a bogus request.
    #[test]
    fn garbage_payloads_are_malformed(payload in vec(any::<u8>(), 1..128)) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut r = &wire[..];
        match recv::<Request>(&mut r) {
            Err(FrameError::Malformed(_)) => {}
            Ok(Some(req)) => {
                // Vanishingly unlikely, but only acceptable if the
                // payload really was a valid request document.
                let reencoded = serde_json::to_string(&req).unwrap();
                prop_assert_eq!(reencoded.as_bytes(), &payload[..]);
            }
            other => prop_assert!(false, "garbage gave {:?}", other),
        }
    }

    /// Back-to-back frames decode independently: a corrupt second
    /// frame never damages the first.
    #[test]
    fn frames_are_independent(job in any::<u64>(), junk in vec(any::<u8>(), 1..64)) {
        let mut wire = encode(&Request::Cancel { job });
        write_frame(&mut wire, &junk).unwrap();
        let mut r = &wire[..];
        match recv::<Request>(&mut r).unwrap().unwrap() {
            Request::Cancel { job: j } => prop_assert_eq!(j, job),
            other => prop_assert!(false, "first frame decoded as {:?}", other),
        }
    }
}

#[test]
fn requests_round_trip_through_the_wire() {
    let spec = example_spec();
    let requests = vec![
        Request::Submit {
            spec: spec.clone(),
            input: "/data/windspeed.scinc".into(),
            options: SubmitOptions::default(),
        },
        Request::Cancel { job: 42 },
        Request::Stats,
        Request::Shutdown,
    ];
    for req in &requests {
        let wire = encode(req);
        let mut r = &wire[..];
        let back: Request = recv(&mut r).unwrap().unwrap();
        // Compare via re-serialization: the protocol types carry no
        // PartialEq, but their JSON is canonical.
        assert_eq!(
            serde_json::to_string(req).unwrap(),
            serde_json::to_string(&back).unwrap()
        );
    }
}

#[test]
fn submitted_spec_survives_the_frame_hop_intact() {
    let spec = example_spec();
    let wire = encode(&Request::Submit {
        spec: spec.clone(),
        input: "in.scinc".into(),
        options: SubmitOptions::default(),
    });
    let mut r = &wire[..];
    let Some(Request::Submit { spec: back, .. }) = recv(&mut r).unwrap() else {
        panic!("frame did not decode to a Submit");
    };
    // The framed spec is the same document `sidr plan --spec` writes.
    assert_eq!(back.to_json(), spec.to_json());
    let report = analyze_spec(&back, &AnalyzeOptions::default()).unwrap();
    assert!(report.is_clean(), "unexpected findings:\n{report}");
}

#[test]
fn responses_round_trip_through_the_wire() {
    let resp = Response::Keyblock {
        job: 7,
        reducer: 3,
        at_ms: 120,
        records: vec![(sidr_coords::Coord::new(vec![1, 2]), 3.5)],
    };
    let mut wire = Vec::new();
    send(&mut wire, &resp).unwrap();
    let mut r = &wire[..];
    let back: Response = recv(&mut r).unwrap().unwrap();
    assert_eq!(
        serde_json::to_string(&resp).unwrap(),
        serde_json::to_string(&back).unwrap()
    );
}

/// A `Read` that serves bytes one at a time (the slow-loris shape)
/// and records the largest buffer the decoder ever asked it to fill —
/// a direct view of how much memory the decoder committed up front.
struct SlowLoris {
    data: Vec<u8>,
    pos: usize,
    max_buf: usize,
}

impl SlowLoris {
    fn new(data: Vec<u8>) -> Self {
        SlowLoris {
            data,
            pos: 0,
            max_buf: 0,
        }
    }
}

impl std::io::Read for SlowLoris {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.max_buf = self.max_buf.max(buf.len());
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        buf[0] = self.data[self.pos];
        self.pos += 1;
        Ok(1)
    }
}

/// A client that writes a maximal length prefix and then trickles (or
/// stops) must not make the server allocate the claimed 32 MiB: reads
/// are chunk-bounded and the connection ends in `Truncated`.
#[test]
fn slow_loris_prefix_cannot_pin_the_frame_cap() {
    use sidr_serve::frame::{read_frame, READ_CHUNK};

    let mut wire = MAX_FRAME.to_le_bytes().to_vec();
    wire.extend_from_slice(&[0xAB; 100]); // 100 of 33 554 432 bytes, then EOF
    let mut r = SlowLoris::new(wire);
    match read_frame(&mut r) {
        Err(FrameError::Truncated { expected, got }) => {
            assert_eq!(expected, MAX_FRAME as usize);
            assert_eq!(got, 100);
        }
        other => panic!("expected truncation, got {other:?}"),
    }
    assert!(
        r.max_buf <= READ_CHUNK,
        "decoder asked for a {} byte read — allocation tracks the \
         hostile prefix, not the bytes received",
        r.max_buf
    );
}

/// Payloads larger than one read chunk still round-trip byte-exact
/// through the chunked reader, even delivered one byte at a time.
#[test]
fn multi_chunk_payloads_reassemble_exactly() {
    use sidr_serve::frame::{read_frame, READ_CHUNK};

    let payload: Vec<u8> = (0..READ_CHUNK * 2 + 17).map(|i| (i % 251) as u8).collect();
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    let mut r = SlowLoris::new(wire);
    let got = read_frame(&mut r).unwrap().unwrap();
    assert_eq!(got, payload);
    assert!(r.max_buf <= READ_CHUNK);
}

/// An in-memory duplex for driving one side of the handshake: reads
/// come from a pre-scripted peer reply, writes are captured.
struct Scripted {
    reply: std::io::Cursor<Vec<u8>>,
    sent: Vec<u8>,
}

impl Scripted {
    fn replying(frames: Vec<u8>) -> Self {
        Scripted {
            reply: std::io::Cursor::new(frames),
            sent: Vec::new(),
        }
    }
}

impl std::io::Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reply.read(buf)
    }
}

impl std::io::Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.sent.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The version/role handshake over a real socket: a client dials a
/// coordinator, both sides learn the peer's role, and the connection
/// is immediately usable for framed traffic.
#[test]
fn handshake_round_trips_over_loopback() {
    use sidr_serve::{handshake_accept, handshake_dial, Hello, Role};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello: Hello = recv(&mut conn).unwrap().expect("dialer sends Hello first");
        let peer = handshake_accept(&mut conn, &hello, Role::Coordinator).unwrap();
        assert_eq!(peer, Role::Client);
        // The stream stays frame-aligned after the handshake.
        let req: Request = recv(&mut conn).unwrap().unwrap();
        let Request::Cancel { job } = req else {
            panic!("expected the post-handshake Cancel");
        };
        job
    });

    let mut conn = std::net::TcpStream::connect(addr).unwrap();
    handshake_dial(&mut conn, Role::Client, Role::Coordinator).unwrap();
    send(&mut conn, &Request::Cancel { job: 99 }).unwrap();
    assert_eq!(server.join().unwrap(), 99);
}

/// A peer speaking a different protocol version is refused with the
/// typed `VersionMismatch`, not a deserialization error.
#[test]
fn handshake_rejects_version_skew() {
    use sidr_serve::{handshake_dial, Hello, Role, HELLO_MAGIC, PROTOCOL_VERSION};

    let future = Hello {
        magic: HELLO_MAGIC.to_string(),
        version: PROTOCOL_VERSION + 1,
        role: Role::Coordinator,
    };
    let mut reply = Vec::new();
    send(&mut reply, &future).unwrap();
    let mut conn = Scripted::replying(reply);
    match handshake_dial(&mut conn, Role::Client, Role::Coordinator) {
        Err(FrameError::VersionMismatch { detail }) => {
            assert!(detail.contains("protocol"), "got: {detail}");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// Dialing the wrong kind of port (a worker's task port instead of
/// the coordinator) fails the handshake by role, same typed error.
#[test]
fn handshake_rejects_wrong_role() {
    use sidr_serve::{handshake_dial, Hello, Role};

    let mut reply = Vec::new();
    send(&mut reply, &Hello::new(Role::Worker)).unwrap();
    let mut conn = Scripted::replying(reply);
    match handshake_dial(&mut conn, Role::Client, Role::Coordinator) {
        Err(FrameError::VersionMismatch { detail }) => {
            assert!(detail.contains("worker"), "got: {detail}");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// The listener side refuses a Hello with the wrong magic before
/// answering — nothing protocol-shaped is sent back to a stranger.
#[test]
fn accept_rejects_bad_magic_without_replying() {
    use sidr_serve::{handshake_accept, Hello, Role, PROTOCOL_VERSION};

    let stranger = Hello {
        magic: "http".to_string(),
        version: PROTOCOL_VERSION,
        role: Role::Client,
    };
    let mut sink = Vec::new();
    match handshake_accept(&mut sink, &stranger, Role::Coordinator) {
        Err(FrameError::VersionMismatch { .. }) => {}
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
    assert!(sink.is_empty(), "no reply frame goes to a bad-magic peer");
}

/// A writer that accepts at most one byte per call — the
/// partial-write shape `write_all` must absorb.
struct TrickleWriter {
    written: Vec<u8>,
}

impl std::io::Write for TrickleWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.written.push(buf[0]);
        Ok(1)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A frame written through a transport that takes one byte per write
/// call still arrives byte-exact: the sender loops on partial writes
/// rather than truncating the frame.
#[test]
fn partial_writes_never_tear_a_frame() {
    let mut w = TrickleWriter {
        written: Vec::new(),
    };
    send(&mut w, &Request::Cancel { job: 7 }).unwrap();
    let mut r = &w.written[..];
    let back: Request = recv(&mut r).unwrap().unwrap();
    let Request::Cancel { job } = back else {
        panic!("reassembled frame decoded wrong");
    };
    assert_eq!(job, 7);
}
