//! Binary keyblock frames: how a keyblock crosses a socket.
//!
//! A keyblock — one reduce attempt's complete output — is the unit of
//! an early result, and it travels as exactly one `KeyblockBin` frame
//! on both hops: worker → coordinator (the raw frame after
//! `ReduceDone`) and coordinator → client. The frame carries the
//! records in the same packed little-endian encoding SMOF uses on
//! disk (`Coord::write_packed` + `f64::to_le_bytes`), and it is the
//! same bytes from the merge to the client's socket:
//! - the reduce writes its rows in this layout, behind room for the
//!   header ([`Keyblock`]), and the worker seals the header over that
//!   room in place ([`seal_keyblock`]);
//! - the coordinator checks the worker's frame without building a row
//!   ([`accept_keyblock`]), then restamps its job and `at_ms`, derives
//!   the new CRC from the checked one without reading a row, and
//!   forwards the same buffer;
//! - only the client decodes rows ([`decode_keyblock`]).
//!
//! An in-process job's keyblock is sealed the same way by the
//! serving collector. At fig. 8 scale a JSON keyblock's decimal text,
//! and later a decode and re-encode per hop, were the dominant cost
//! between a reduce commit and the bytes leaving the socket.
//!
//! Binary frames ride the same length-prefixed transport as JSON
//! frames ([`crate::frame`]) and are distinguished by their first
//! payload byte: [`BIN_TAG`] (`0xBB`), which no JSON document starts
//! with (JSON frames open with `{`, `0x7B`).
//!
//! Layout (all integers little-endian), after the transport's `u32`
//! length prefix:
//!
//! | offset | size | field                                      |
//! |--------|------|--------------------------------------------|
//! | 0      | 1    | tag `0xBB`                                 |
//! | 1      | 1    | kind (`0` = keyblock)                      |
//! | 2      | 2    | reserved, zero                             |
//! | 4      | 8    | `job`                                      |
//! | 12     | 4    | `reducer`                                  |
//! | 16     | 4    | `records`                                  |
//! | 20     | 8    | `at_ms`                                    |
//! | 28     | 4    | `key_width` (packed coord bytes)           |
//! | 32     | 4    | CRC-32 of bytes 0..32, then of the payload |
//! | 36     | —    | payload: `records` × (key + `f64` value)   |
//!
//! Like every decoder in this workspace, the frame check that
//! [`decode_keyblock`] and [`accept_keyblock`] both run trusts
//! nothing: tag, kind, reserved bytes, geometry and CRC are all
//! checked, and any mismatch is a typed [`FrameError`], never a panic
//! or over-read. A keyblock cannot arrive under another job or reducer.

use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::{crc32_amend, crc32_parts};
use sidr_mapreduce::{Keyblock, KEYBLOCK_HEADROOM};

use crate::frame::{FrameError, MAX_FRAME};

/// First payload byte of every binary frame.
pub const BIN_TAG: u8 = 0xBB;

/// `kind` byte of a keyblock frame (the only kind so far).
pub const KIND_KEYBLOCK: u8 = 0;

/// Fixed header length, bytes.
pub const BIN_HEADER_LEN: usize = 36;

// A reduce leaves exactly a header's room in front of its rows.
const _: () = assert!(BIN_HEADER_LEN == KEYBLOCK_HEADROOM);

/// Does this frame payload carry a binary message (vs. JSON)?
#[inline]
pub fn is_binary(payload: &[u8]) -> bool {
    payload.first() == Some(&BIN_TAG)
}

/// A decoded binary keyblock — the same information as
/// [`Response::Keyblock`](crate::proto::Response).
#[derive(Clone, Debug, PartialEq)]
pub struct KeyblockBin {
    pub job: u64,
    pub reducer: usize,
    pub at_ms: u64,
    pub records: Vec<(Coord, f64)>,
}

/// What a sound keyblock frame's header says.
struct KeyblockHead {
    job: u64,
    reducer: usize,
    records: usize,
    at_ms: u64,
    /// Packed key bytes per row.
    key_width: usize,
}

/// Encodes one keyblock as a complete binary frame payload, in one
/// exactly-sized allocation. Fails when the records' coordinates mix
/// ranks — the fixed-width payload needs one key width; every key of
/// a keyblock lies in one `K′`, so SIDR keyspaces deliver that, but
/// the wire never assumes it — or when the frame would exceed
/// [`MAX_FRAME`], the size bound a keyblock has on either hop.
pub fn encode_keyblock(
    job: u64,
    reducer: usize,
    at_ms: u64,
    records: &[(Coord, f64)],
) -> Result<Vec<u8>, FrameError> {
    let key_width = records.first().map_or(0, |(k, _)| k.packed_width());
    if records.iter().any(|(k, _)| k.packed_width() != key_width) {
        return Err(FrameError::Malformed(
            "keyblock mixes coordinate ranks; no fixed key width".into(),
        ));
    }
    let len = BIN_HEADER_LEN.saturating_add(records.len().saturating_mul(key_width + 8));
    fits(len)?;
    let mut out = Vec::with_capacity(len);
    out.resize(BIN_HEADER_LEN, 0);
    for (k, v) in records {
        k.write_packed(&mut out);
        out.extend_from_slice(&v.to_le_bytes());
    }
    seal(&mut out, job, reducer, records.len(), at_ms, key_width);
    Ok(out)
}

/// Seals `keyblock`'s frame in place: writes the header over the room
/// the reduce left in front of its rows, and the CRC over both. A
/// worker seals the keyblock its reduce wrote, and its CRC reads the
/// rows. The coordinator restamps a worker's, which
/// [`accept_keyblock`] checked, with its own job and `at_ms`; its CRC
/// is derived from the checked one, and no row is read. Fails, as
/// [`encode_keyblock`] does, when the frame would exceed
/// [`MAX_FRAME`].
pub fn seal_keyblock(
    job: u64,
    reducer: usize,
    at_ms: u64,
    keyblock: Keyblock<Coord, f64>,
) -> Result<Vec<u8>, FrameError> {
    let (records, key_width) = (keyblock.len(), keyblock.key_width());
    let mut frame = keyblock.into_frame();
    fits(frame.len())?;
    seal(&mut frame, job, reducer, records, at_ms, key_width);
    Ok(frame)
}

/// The coordinator's check of a worker's keyblock frame: a sound frame
/// (the checks [`decode_keyblock`] runs) of `job`'s `reducer` with the
/// `records` rows its `ReduceDone` announced. Returns the frame's
/// buffer as the keyblock it holds, no row decoded or copied; any
/// failure is a typed error, and nothing is committed.
pub fn accept_keyblock(
    frame: Vec<u8>,
    job: u64,
    reducer: usize,
    records: u64,
) -> Result<Keyblock<Coord, f64>, FrameError> {
    let head = check_keyblock(&frame)?;
    if (head.job, head.reducer, head.records as u64) != (job, reducer, records) {
        return Err(FrameError::Malformed(format!(
            "keyblock frame names job {} reducer {} with {} records, \
             not job {job} reducer {reducer} with {records}",
            head.job, head.reducer, head.records
        )));
    }
    // `check_keyblock` proved the geometry `from_frame` takes on trust.
    Ok(Keyblock::from_frame(frame, head.records, head.key_width))
}

/// A frame of `len` bytes fits the transport's bound.
fn fits(len: usize) -> Result<(), FrameError> {
    if len > MAX_FRAME as usize {
        return Err(FrameError::Oversized {
            len: u32::try_from(len).unwrap_or(u32::MAX),
            max: MAX_FRAME,
        });
    }
    Ok(())
}

/// Writes the header into `frame`'s first [`BIN_HEADER_LEN`] bytes and
/// then the CRC. A blank header, the zeros a reduce or
/// [`encode_keyblock`] left, gets the CRC over header and rows. A
/// sealed one, a received frame's (its tag set), is restamped: the new
/// CRC is the stored one amended by the header's change
/// ([`crc32_amend`]), reading no row, and it matches the frame exactly
/// when the stored one did. The frame fits [`MAX_FRAME`], so its
/// counts fit a `u32`.
fn seal(frame: &mut [u8], job: u64, reducer: usize, records: usize, at_ms: u64, key_width: usize) {
    let mut delta: [u8; 32] = frame[..32].try_into().expect("a header's room");
    let sealed = delta[0] == BIN_TAG;
    frame[0] = BIN_TAG;
    frame[1] = KIND_KEYBLOCK;
    frame[2..4].fill(0);
    frame[4..12].copy_from_slice(&job.to_le_bytes());
    frame[12..16].copy_from_slice(&(reducer as u32).to_le_bytes());
    frame[16..20].copy_from_slice(&(records as u32).to_le_bytes());
    frame[20..28].copy_from_slice(&at_ms.to_le_bytes());
    frame[28..32].copy_from_slice(&(key_width as u32).to_le_bytes());
    let crc = if sealed {
        for (d, b) in delta.iter_mut().zip(&frame[..32]) {
            *d ^= b;
        }
        crc32_amend(le_u32(frame, 32), &delta, frame.len() - BIN_HEADER_LEN)
    } else {
        frame_crc(frame)
    };
    frame[32..36].copy_from_slice(&crc.to_le_bytes());
}

/// The frame CRC: every header byte but the CRC field itself, then the
/// payload.
fn frame_crc(frame: &[u8]) -> u32 {
    crc32_parts(&[&frame[..32], &frame[BIN_HEADER_LEN..]])
}

#[inline]
fn le_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(b[at..at + 4].try_into().expect("bounds checked"))
}

#[inline]
fn le_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(b[at..at + 8].try_into().expect("bounds checked"))
}

/// Checks one binary keyblock frame payload and reads its header,
/// without building a row. Every malformation — wrong tag or kind,
/// impossible geometry, truncated or oversized payload, CRC mismatch —
/// is a typed error.
fn check_keyblock(payload: &[u8]) -> Result<KeyblockHead, FrameError> {
    if payload.len() < BIN_HEADER_LEN {
        return Err(FrameError::Malformed(format!(
            "binary frame of {} bytes is shorter than the {BIN_HEADER_LEN}-byte header",
            payload.len()
        )));
    }
    if payload[0] != BIN_TAG {
        return Err(FrameError::Malformed(format!(
            "binary frame tag {:#04x}, expected {BIN_TAG:#04x}",
            payload[0]
        )));
    }
    if payload[1..4] != [KIND_KEYBLOCK, 0, 0] {
        return Err(FrameError::Malformed(format!(
            "unknown binary frame kind {} (reserved bytes {:?})",
            payload[1],
            &payload[2..4]
        )));
    }
    let head = KeyblockHead {
        job: le_u64(payload, 4),
        reducer: le_u32(payload, 12) as usize,
        records: le_u32(payload, 16) as usize,
        at_ms: le_u64(payload, 20),
        key_width: le_u32(payload, 28) as usize,
    };
    let (records, key_width) = (head.records, head.key_width);
    let crc = le_u32(payload, 32);
    if !key_width.is_multiple_of(8) {
        return Err(FrameError::Malformed(format!(
            "key width {key_width} is not a whole number of packed coordinate words"
        )));
    }
    let row = key_width + 8;
    let expect = records
        .checked_mul(row)
        .and_then(|p| p.checked_add(BIN_HEADER_LEN));
    if expect != Some(payload.len()) {
        return Err(FrameError::Malformed(format!(
            "binary keyblock geometry: {records} records × {row} bytes \
             does not match a {}-byte frame",
            payload.len()
        )));
    }
    let actual = frame_crc(payload);
    if actual != crc {
        return Err(FrameError::Malformed(format!(
            "binary keyblock CRC mismatch: stored {crc:#010x}, frame {actual:#010x}"
        )));
    }
    Ok(head)
}

/// Decodes one binary keyblock frame payload: the frame check, then
/// every row.
pub fn decode_keyblock(payload: &[u8]) -> Result<KeyblockBin, FrameError> {
    let head = check_keyblock(payload)?;
    let (key_width, row) = (head.key_width, head.key_width + 8);
    let body = &payload[BIN_HEADER_LEN..];
    let mut out = Vec::with_capacity(head.records);
    for i in 0..head.records {
        let at = i * row;
        let key = Coord::from_packed(&body[at..at + key_width]);
        let val = f64::from_le_bytes(
            body[at + key_width..at + row]
                .try_into()
                .expect("row bounds checked"),
        );
        out.push((key, val));
    }
    Ok(KeyblockBin {
        job: head.job,
        reducer: head.reducer,
        at_ms: head.at_ms,
        records: out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<(Coord, f64)> {
        (0..10u64)
            .map(|i| (Coord::from([i, i * 3]), i as f64 / 4.0))
            .collect()
    }

    #[test]
    fn keyblock_round_trips() {
        let records = sample();
        let frame = encode_keyblock(7, 3, 1500, &records).unwrap();
        assert!(is_binary(&frame));
        let back = decode_keyblock(&frame).unwrap();
        assert_eq!(back.job, 7);
        assert_eq!(back.reducer, 3);
        assert_eq!(back.at_ms, 1500);
        assert_eq!(back.records, records);
    }

    #[test]
    fn empty_keyblock_round_trips() {
        let frame = encode_keyblock(1, 0, 2, &[]).unwrap();
        assert_eq!(frame.len(), BIN_HEADER_LEN);
        assert_eq!(decode_keyblock(&frame).unwrap().records, Vec::new());
    }

    #[test]
    fn mixed_rank_records_refuse_to_encode() {
        let records = vec![(Coord::from([1, 2]), 0.5), (Coord::from([3]), 1.5)];
        assert!(encode_keyblock(1, 0, 0, &records).is_err());
    }

    /// Restamping a sealed frame amends its CRC instead of reading the
    /// rows again, and the result is the CRC over the restamped frame:
    /// at every payload length to 4 KiB and at a few MiB-sized ones.
    #[test]
    fn resealed_crc_equals_the_full_crc() {
        let longest = (3 << 20) + 5;
        let payload: Vec<u8> = (0..longest as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect();
        for len in (0..=4096).chain([1 << 20, 3 << 20, longest]) {
            let mut frame = vec![0u8; BIN_HEADER_LEN + len];
            frame[BIN_HEADER_LEN..].copy_from_slice(&payload[..len]);
            seal(&mut frame, 3, 5, len / 24, 0, 16);
            let (job, at_ms) = (42 + len as u64, 1500 + len as u64);
            seal(&mut frame, job, 5, len / 24, at_ms, 16);
            let crc = le_u32(&frame, 32);
            assert_eq!(crc, frame_crc(&frame), "payload of {len} bytes");
        }
    }

    /// A row that changes between the coordinator's check and its
    /// reseal is not laundered: the amended CRC still mismatches, and
    /// the client's decode refuses the frame.
    #[test]
    fn a_row_flipped_before_the_reseal_is_still_refused() {
        let frame = encode_keyblock(3, 5, 0, &sample()).unwrap();
        let forwarded = |frame| seal_keyblock(42, 5, 1234, Keyblock::from_frame(frame, 10, 16));
        let sound = forwarded(frame.clone()).unwrap();
        assert_eq!(decode_keyblock(&sound).unwrap().records, sample());
        for bit in [0, 77, 8 * (frame.len() - BIN_HEADER_LEN) - 1] {
            let mut flipped = frame.clone();
            flipped[BIN_HEADER_LEN + bit / 8] ^= 1 << (bit % 8);
            let resealed = forwarded(flipped).unwrap();
            assert!(
                matches!(decode_keyblock(&resealed), Err(FrameError::Malformed(_))),
                "row bit {bit}"
            );
        }
    }

    #[test]
    fn json_payloads_are_not_binary() {
        assert!(!is_binary(b"{\"Keyblock\":{}}"));
        assert!(!is_binary(b""));
    }
}
