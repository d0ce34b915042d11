//! Binary keyblock frames: how a keyblock crosses a socket.
//!
//! A keyblock — one reduce attempt's complete output — is the unit of
//! an early result, and it travels as exactly one `KeyblockBin` frame
//! on both hops: worker → coordinator (the raw frame after
//! `ReduceDone`) and coordinator → client. The frame carries the
//! records in the same packed little-endian encoding SMOF uses on
//! disk (`Coord::write_packed` + `f64::to_le_bytes`), so the sender
//! serializes one keyblock with a single buffer allocation and no text
//! pass, and the receiver decodes it without a JSON parser — at fig. 8
//! scale a JSON keyblock's decimal text was the dominant cost between
//! a reduce commit and the bytes leaving the socket.
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
//! Like every decoder in this workspace, [`decode_keyblock`] trusts
//! nothing: tag, kind, reserved bytes, geometry and CRC are all
//! checked, and any mismatch is a typed [`FrameError`], never a panic
//! or over-read. A keyblock cannot arrive under another job or reducer.

use sidr_coords::Coord;
use sidr_mapreduce::shuffle_file::crc32_parts;

use crate::frame::FrameError;

/// First payload byte of every binary frame.
pub const BIN_TAG: u8 = 0xBB;

/// `kind` byte of a keyblock frame (the only kind so far).
pub const KIND_KEYBLOCK: u8 = 0;

/// Fixed header length, bytes.
pub const BIN_HEADER_LEN: usize = 36;

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

/// Encodes one keyblock as a complete binary frame payload, in one
/// exactly-sized allocation. Fails when the records' coordinates mix
/// ranks — the fixed-width payload needs one key width; every key of
/// a keyblock lies in one `K′`, so SIDR keyspaces deliver that, but
/// the wire never assumes it — or when the frame would exceed
/// [`MAX_FRAME`](crate::frame::MAX_FRAME), the size bound a keyblock
/// has on either hop.
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
    let row = key_width + 8;
    let max = crate::frame::MAX_FRAME;
    let len = BIN_HEADER_LEN.saturating_add(records.len().saturating_mul(row));
    if len > max as usize {
        return Err(FrameError::Oversized {
            len: u32::try_from(len).unwrap_or(u32::MAX),
            max,
        });
    }
    // The frame fits `MAX_FRAME`, so the record count fits a `u32`.
    let n = records.len() as u32;
    let mut out = Vec::with_capacity(len);
    out.push(BIN_TAG);
    out.push(KIND_KEYBLOCK);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&job.to_le_bytes());
    out.extend_from_slice(&(reducer as u32).to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&at_ms.to_le_bytes());
    out.extend_from_slice(&(key_width as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // CRC backpatched below
    for (k, v) in records {
        k.write_packed(&mut out);
        out.extend_from_slice(&v.to_le_bytes());
    }
    let crc = frame_crc(&out);
    out[32..36].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
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

/// Decodes one binary keyblock frame payload. Every malformation —
/// wrong tag or kind, impossible geometry, truncated or oversized
/// payload, CRC mismatch — is a typed error.
pub fn decode_keyblock(payload: &[u8]) -> Result<KeyblockBin, FrameError> {
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
    let job = le_u64(payload, 4);
    let reducer = le_u32(payload, 12) as usize;
    let records = le_u32(payload, 16) as usize;
    let at_ms = le_u64(payload, 20);
    let key_width = le_u32(payload, 28) as usize;
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
    let body = &payload[BIN_HEADER_LEN..];
    let mut out = Vec::with_capacity(records);
    for i in 0..records {
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
        job,
        reducer,
        at_ms,
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

    #[test]
    fn json_payloads_are_not_binary() {
        assert!(!is_binary(b"{\"Keyblock\":{}}"));
        assert!(!is_binary(b""));
    }
}
