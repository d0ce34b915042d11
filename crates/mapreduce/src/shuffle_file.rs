//! The map-output byte format (SMOF) with the §3.2.1 count annotation
//! in the header.
//!
//! "Approach 2 requires the addition of a field to the header for each
//! Map output file that indicates how many ⟨k,v⟩ are represented by
//! the set of all ⟨k′,v′⟩ in that file. With this addition, a Reduce
//! task can track the count of how many ⟨k,v⟩ are represented by the
//! contents of the files containing its intermediate data **without
//! having to read and parse those files**."
//!
//! Every committed partition is bytes in exactly one layout, from the
//! moment its map attempt writes it: in the in-process executor's
//! generation table, in a worker's
//! [`PartitionStore`](crate::tier::PartitionStore) and its spill files,
//! and inside the fetch frames. The layout is version 3
//! (little-endian):
//!
//! ```text
//! magic      b"SMOF"
//! version    u32   <- 3; anything else is rejected as corrupt
//! raw        u64   <- the annotation: raw ⟨k,v⟩ pairs represented
//! records    u64   <- ⟨k′,v′⟩ records that follow
//! key_width  u32   <- packed key bytes per record
//! val_width  u32   <- packed value bytes per record
//! index_len  u32   <- key-offset index entries
//! crc        u32   <- CRC-32 (IEEE) of the 36 header bytes above,
//!                     then index + payload
//! index      index_len × (key bytes, record offset u64)
//! payload    records × (key bytes ++ value bytes), no framing
//! ```
//!
//! Keys and values are packed by their
//! [`FixedCodec`](crate::wire::FixedCodec) and every record
//! of a file has the same widths (fixed-arity coordinate keyspaces
//! always do). Records then live at
//! `payload_off + i × (key_width + val_width)`, so a reader can address
//! record `i` — or binary-search the sparse key-offset index (one entry
//! every [`INDEX_INTERVAL`] records) to seek a keyrange — without
//! decoding any predecessor. That is what lets
//! [`Smof3View`](crate::smof3::Smof3View) merge records straight out of
//! the file bytes.
//!
//! The CRC frame makes a fetch of a corrupted or truncated file fail
//! with [`MrError::CorruptShuffle`] *before* any record is decoded,
//! which is what lets the copy phase trigger re-execution of the
//! producing map instead of reducing over damaged input (aggressive
//! checksum validation of intermediate layouts, after "Only Aggressive
//! Elephants are Fast Elephants").

use std::path::Path;

use crate::error::MrError;
use crate::shuffle::MapOutputFile;
use crate::task::{MrKey, MrValue};
use crate::wire::WireFormat;
use crate::Result;

pub(crate) const MAGIC: [u8; 4] = *b"SMOF";
pub const VERSION_V3: u32 = 3;
/// The annotation prefix: magic, version, raw, records.
const PREFIX_LEN: usize = 4 + 4 + 8 + 8;
pub(crate) const V3_HEADER_LEN: usize = PREFIX_LEN + 4 + 4 + 4 + 4;
/// Where the header's CRC field (its last four bytes) starts.
const CRC_OFF: usize = V3_HEADER_LEN - 4;
/// One sparse key-offset index entry per this many records (plus one
/// for record 0). Seeking a keyrange costs one binary search over the
/// index and at most this many direct record probes.
pub const INDEX_INTERVAL: usize = 256;

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
/// Slice-by-8: eight lookup tables consume 8 input bytes per step,
/// with a byte-at-a-time tail. Same digests as the classic
/// byte-at-a-time form — this sits on every shuffle fetch and SMOF
/// encode, so the inner loop matters.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// CRC-32 of `parts` concatenated, without concatenating them.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts.iter().fold(!0, |crc, part| crc32_update(crc, part))
}

/// The SMOF frame CRC of an encoded buffer: every header byte but the
/// CRC field itself, then the index and payload. A flipped annotation
/// or geometry field fails it like a flipped payload byte.
fn frame_crc(bytes: &[u8]) -> u32 {
    crc32_parts(&[&bytes[..CRC_OFF], &bytes[V3_HEADER_LEN..]])
}

/// Feeds `bytes` into a running (inverted) CRC-32 state.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = crc_tables();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes(c[0..4].try_into().expect("len 4")) ^ crc;
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for k in 1..8 {
            let (done, rest) = t.split_at_mut(k);
            let (t0, prev) = (&done[0], &done[k - 1]);
            for (slot, &p) in rest[0].iter_mut().zip(prev.iter()) {
                *slot = t0[(p & 0xFF) as usize] ^ (p >> 8);
            }
        }
        t
    })
}

/// Encodes one map-output file into a self-contained SMOF byte buffer
/// (header + CRC frame + index + payload) — the exact bytes a worker's
/// spill tier puts on disk, and what travels inside a raw frame when a
/// worker serves a shuffle fetch over TCP. Records of non-uniform
/// packed width (coords of different rank) cannot share a file: a
/// typed [`MrError::BadConfig`], never a second layout.
pub fn encode_map_output<K, V>(file: &MapOutputFile<K, V>) -> Result<Vec<u8>>
where
    K: MrKey + WireFormat,
    V: MrValue + WireFormat,
{
    let (kc, vc) = (K::fixed_codec(), V::fixed_codec());
    let (kw, vw) = match file.records.first() {
        Some((k, v)) => ((kc.width)(k), (vc.width)(v)),
        None => (0, 0),
    };
    // Zero-width rows can't be addressed by offset either.
    if (kw + vw == 0 && !file.records.is_empty())
        || file
            .records
            .iter()
            .any(|(k, v)| (kc.width)(k) != kw || (vc.width)(v) != vw)
    {
        return Err(MrError::BadConfig(format!(
            "map-output records must share one non-zero packed width \
             (first record: {kw}-byte key, {vw}-byte value)"
        )));
    }
    Ok(write_v3(
        file.raw_count,
        file.records.len(),
        kw,
        vw,
        |out| {
            for (k, v) in &file.records {
                (kc.write)(k, out);
                (vc.write)(v, out);
            }
        },
    ))
}

/// The one SMOF v3 writer: header, sparse key-offset index, payload
/// and CRC, into one exactly-sized buffer. `rows` appends exactly
/// `records` rows of `key_width + val_width` bytes each, in key order;
/// the index is then filled from the written rows' keys and the CRC
/// patched in, so a caller never lays out anything but its rows.
///
/// [`encode_map_output`] and the geometric map kernel of spec jobs
/// both write through here.
pub fn write_v3(
    raw: u64,
    records: usize,
    key_width: usize,
    val_width: usize,
    rows: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let row = key_width + val_width;
    let entry = key_width + 8;
    let index_len = records.div_ceil(INDEX_INTERVAL);
    let payload_off = V3_HEADER_LEN + index_len * entry;
    let len = payload_off + records * row;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION_V3.to_le_bytes());
    out.extend_from_slice(&raw.to_le_bytes());
    out.extend_from_slice(&(records as u64).to_le_bytes());
    out.extend_from_slice(&(key_width as u32).to_le_bytes());
    out.extend_from_slice(&(val_width as u32).to_le_bytes());
    out.extend_from_slice(&(index_len as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // CRC, patched in below
    out.resize(payload_off, 0); // the index, filled once the rows exist
    rows(&mut out);
    assert_eq!(out.len(), len, "rows must fill exactly {records} records");
    for e in 0..index_len {
        let rec = e * INDEX_INTERVAL;
        let at = V3_HEADER_LEN + e * entry;
        let key = payload_off + rec * row;
        out.copy_within(key..key + key_width, at);
        out[at + key_width..at + entry].copy_from_slice(&(rec as u64).to_le_bytes());
    }
    let crc = frame_crc(&out);
    out[CRC_OFF..V3_HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a SMOF byte buffer, verifying the CRC frame before decoding
/// a single record. Corruption, truncation, trailing bytes and any
/// version but 3 all surface as [`MrError::CorruptShuffle`].
pub fn decode_map_output<K, V>(bytes: &[u8]) -> Result<MapOutputFile<K, V>>
where
    K: MrKey + WireFormat,
    V: MrValue + WireFormat,
{
    let meta = parse_v3_meta(bytes)?;
    let (kc, vc) = (K::fixed_codec(), V::fixed_codec());
    let payload = &bytes[meta.payload_off..];
    let row = meta.key_width + meta.val_width;
    let records = (0..meta.records)
        .map(|i| {
            let off = i * row;
            (
                (kc.read)(&payload[off..off + meta.key_width]),
                (vc.read)(&payload[off + meta.key_width..off + row]),
            )
        })
        .collect();
    Ok(MapOutputFile {
        records,
        raw_count: meta.raw,
    })
}

pub(crate) struct Prefix {
    pub raw: u64,
    pub records: u64,
}

/// Parses the 24-byte annotation prefix — all the §3.2.1 tally path
/// ever reads — rejecting every version but 3.
pub(crate) fn parse_prefix(bytes: &[u8]) -> Result<Prefix> {
    if bytes.len() < PREFIX_LEN {
        return Err(MrError::CorruptShuffle {
            detail: "map-output file shorter than header".into(),
        });
    }
    if bytes[..4] != MAGIC {
        return Err(MrError::CorruptShuffle {
            detail: format!("not a map-output file (magic {:?})", &bytes[..4]),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("len 4"));
    if version != VERSION_V3 {
        return Err(MrError::CorruptShuffle {
            detail: format!("unsupported map-output version {version}"),
        });
    }
    Ok(Prefix {
        raw: u64::from_le_bytes(bytes[8..16].try_into().expect("len 8")),
        records: u64::from_le_bytes(bytes[16..24].try_into().expect("len 8")),
    })
}

/// Validated v3 geometry: where the index and payload live inside the
/// buffer. Produced only after the magic, version, length arithmetic,
/// CRC, and index invariants have all checked out, so downstream
/// record addressing can use plain slicing.
#[derive(Clone, Copy)]
pub(crate) struct V3Meta {
    pub raw: u64,
    pub records: usize,
    pub key_width: usize,
    pub val_width: usize,
    pub index_len: usize,
    pub index_off: usize,
    pub payload_off: usize,
}

pub(crate) fn parse_v3_meta(bytes: &[u8]) -> Result<V3Meta> {
    let corrupt = |detail: String| MrError::CorruptShuffle { detail };
    let prefix = parse_prefix(bytes)?;
    if bytes.len() < V3_HEADER_LEN {
        return Err(corrupt("v3 map-output file shorter than header".into()));
    }
    let key_width = u32::from_le_bytes(bytes[24..28].try_into().expect("len 4")) as usize;
    let val_width = u32::from_le_bytes(bytes[28..32].try_into().expect("len 4")) as usize;
    let index_len = u32::from_le_bytes(bytes[32..36].try_into().expect("len 4")) as usize;
    let crc = u32::from_le_bytes(bytes[36..40].try_into().expect("len 4"));
    let records = usize::try_from(prefix.records)
        .map_err(|_| corrupt(format!("record count {} overflows", prefix.records)))?;
    let row = key_width + val_width;
    if records > 0 && row == 0 {
        return Err(corrupt(format!("{records} records of zero width")));
    }
    let entry = key_width + 8;
    let index_bytes = index_len
        .checked_mul(entry)
        .ok_or_else(|| corrupt("index size overflows".into()))?;
    let payload_bytes = records
        .checked_mul(row)
        .ok_or_else(|| corrupt("payload size overflows".into()))?;
    let expected = V3_HEADER_LEN
        .checked_add(index_bytes)
        .and_then(|n| n.checked_add(payload_bytes))
        .ok_or_else(|| corrupt("file size overflows".into()))?;
    if bytes.len() != expected {
        return Err(corrupt(format!(
            "file is {} bytes, geometry implies {expected}",
            bytes.len()
        )));
    }
    let actual_crc = frame_crc(bytes);
    if actual_crc != crc {
        return Err(corrupt(format!(
            "frame CRC {actual_crc:#010x} != stored CRC {crc:#010x} ({} bytes)",
            bytes.len()
        )));
    }
    let index_off = V3_HEADER_LEN;
    let payload_off = index_off + index_bytes;
    // The index must point at real records, in order, and each entry's
    // key bytes must match the record it points at (byte equality is
    // value equality for fixed-width encodings).
    let mut prev: Option<u64> = None;
    for e in 0..index_len {
        let at = index_off + e * entry;
        let rec = u64::from_le_bytes(bytes[at + key_width..at + entry].try_into().expect("len 8"));
        if rec >= records as u64 {
            return Err(corrupt(format!(
                "index entry {e} points at record {rec} of {records}"
            )));
        }
        if prev.is_some_and(|p| rec <= p) {
            return Err(corrupt(format!("index entry {e} out of order")));
        }
        prev = Some(rec);
        let rec_key = payload_off + rec as usize * row;
        if bytes[at..at + key_width] != bytes[rec_key..rec_key + key_width] {
            return Err(corrupt(format!("index entry {e} key mismatch")));
        }
    }
    Ok(V3Meta {
        raw: prefix.raw,
        records,
        key_width,
        val_width,
        index_len,
        index_off,
        payload_off,
    })
}

/// Type-free integrity check of one encoded map-output buffer: magic,
/// version, geometry, and frame CRC — everything decoding would
/// check short of reading records, so callers that only move bytes
/// (the worker's spill tier reading a partition back from disk) can
/// reject bit flips and truncation as [`MrError::CorruptShuffle`]
/// without knowing the key/value types.
pub fn verify_encoded(bytes: &[u8]) -> Result<()> {
    parse_v3_meta(bytes).map(drop)
}

/// Fault injection on an encoded buffer: flips its last byte (a
/// silently corrupted intermediate file) or, with `truncate`, drops it
/// (a map output cut short by a crashed writer). The last byte is
/// payload, or the stored CRC when there is no payload, so the CRC
/// frame catches either damage before a record is decoded.
pub fn damage(bytes: &mut Vec<u8>, truncate: bool) {
    if truncate {
        bytes.pop();
    } else if let Some(last) = bytes.last_mut() {
        *last ^= 0xFF;
    }
}

/// [`damage`] applied to the file at `path`.
pub fn damage_file(path: impl AsRef<Path>, truncate: bool) -> Result<()> {
    let path = path.as_ref();
    let mut bytes = std::fs::read(path).map_err(io_err)?;
    damage(&mut bytes, truncate);
    std::fs::write(path, &bytes).map_err(io_err)
}

fn io_err(e: std::io::Error) -> MrError {
    MrError::Source(format!("shuffle spill I/O: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_coords::Coord;

    /// `sample()` encoded into a file of the test's own.
    fn sample_on_disk(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sidr-smof-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}", std::process::id()));
        std::fs::write(&path, encode_map_output(&sample()).unwrap()).unwrap();
        path
    }

    fn decode_file(path: &Path) -> Result<MapOutputFile<Coord, f64>> {
        decode_map_output(&std::fs::read(path).unwrap())
    }

    fn sample() -> MapOutputFile<Coord, f64> {
        MapOutputFile {
            records: vec![
                (Coord::from([0, 1]), 1.5),
                (Coord::from([0, 2]), -2.25),
                (Coord::from([1, 0]), 0.0),
            ],
            raw_count: 12, // combiner folded 12 raw pairs into 3
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Byte-at-a-time reference: the pre-slice-by-8 implementation,
    /// kept to pin the optimized loop to the same digests.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let t = &crc_tables()[0];
        let mut crc = !0u32;
        for &b in bytes {
            crc = t[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise_reference() {
        let mut rng = rand::SplitMix64::seed_from_u64(0x51D2);
        // All lengths through several 8-byte blocks, so every tail
        // shape (0..=7 remainder bytes) is hit, plus larger buffers.
        for len in (0..64).chain([255, 256, 4096, 10_000]) {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&data), crc32_bytewise(&data), "len {len}");
        }
    }

    #[test]
    fn coord_files_encode_as_v3_and_decode_back() {
        let encoded = encode_map_output(&sample()).unwrap();
        let meta = parse_v3_meta(&encoded).unwrap();
        assert_eq!((meta.key_width, meta.val_width), (16, 8));
        assert_eq!((meta.raw, meta.records), (12, 3));
        assert_eq!(meta.index_len, 1); // 3 records < INDEX_INTERVAL
        let back: MapOutputFile<Coord, f64> = decode_map_output(&encoded).unwrap();
        assert_eq!(back.records, sample().records);
        assert_eq!(back.raw_count, 12);
    }

    #[test]
    fn mixed_rank_coords_are_a_typed_encode_error() {
        let f = MapOutputFile {
            records: vec![(Coord::from([1, 2]), 1.0), (Coord::from([1, 2, 3]), 2.0)],
            raw_count: 2,
        };
        assert!(matches!(encode_map_output(&f), Err(MrError::BadConfig(_))));
    }

    #[test]
    fn annotation_read_is_header_only() {
        // Cut the buffer down to the prefix: the annotation must still
        // be readable (it never touches the records, nor the geometry
        // fields), while a full decode fails as a corruption, so the
        // copy phase can recover.
        let encoded = encode_map_output(&sample()).unwrap();
        let prefix = parse_prefix(&encoded[..PREFIX_LEN]).unwrap();
        assert_eq!((prefix.raw, prefix.records), (12, 3));
        assert!(matches!(
            decode_map_output::<Coord, f64>(&encoded[..PREFIX_LEN]),
            Err(MrError::CorruptShuffle { .. })
        ));
    }

    #[test]
    fn bad_magic_and_version_rejected() {
        let mut bytes = encode_map_output(&sample()).unwrap();
        bytes[0] = b'X';
        assert!(parse_prefix(&bytes).is_err());
        bytes[0] = b'S';
        bytes[4] = 9;
        assert!(parse_prefix(&bytes).is_err());
    }

    #[test]
    fn bit_flip_detected_by_crc() {
        let path = sample_on_disk("bitflip");
        damage_file(&path, false).unwrap();
        assert!(matches!(
            decode_file(&path),
            Err(MrError::CorruptShuffle { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncation_detected_by_crc() {
        let path = sample_on_disk("truncate");
        damage_file(&path, true).unwrap();
        assert!(matches!(
            decode_file(&path),
            Err(MrError::CorruptShuffle { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode_map_output(&sample()).unwrap();
        bytes.push(0xAB);
        assert!(decode_map_output::<Coord, f64>(&bytes).is_err());
    }

    #[test]
    fn v3_index_tampering_detected() {
        let f = MapOutputFile {
            records: (0..600u64).map(|i| (Coord::from([i]), i as f64)).collect(),
            raw_count: 600,
        };
        let encoded = encode_map_output(&f).unwrap();
        let meta = parse_v3_meta(&encoded).unwrap();
        assert_eq!(meta.index_len, 3); // records 0, 256, 512

        // Point the second index entry at the wrong record and re-seal
        // the CRC: the key-mismatch check must still reject it.
        let mut bad = encoded.clone();
        let entry = meta.key_width + 8;
        let off = meta.index_off + entry + meta.key_width;
        bad[off..off + 8].copy_from_slice(&300u64.to_le_bytes());
        let crc = frame_crc(&bad);
        bad[36..40].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            parse_v3_meta(&bad),
            Err(MrError::CorruptShuffle { .. })
        ));
    }

    #[test]
    fn empty_file_roundtrips() {
        let f = MapOutputFile::<Coord, f64> {
            records: Vec::new(),
            raw_count: 0,
        };
        let encoded = encode_map_output(&f).unwrap();
        assert_eq!(encoded.len(), V3_HEADER_LEN);
        let back: MapOutputFile<Coord, f64> = decode_map_output(&encoded).unwrap();
        assert!(back.records.is_empty());
    }

    #[test]
    fn damage_is_caught_with_or_without_a_payload() {
        let empty = MapOutputFile::<Coord, f64> {
            records: Vec::new(),
            raw_count: 0,
        };
        for file in [sample(), empty] {
            for truncate in [false, true] {
                let mut bytes = encode_map_output(&file).unwrap();
                damage(&mut bytes, truncate);
                assert!(matches!(
                    decode_map_output::<Coord, f64>(&bytes),
                    Err(MrError::CorruptShuffle { .. })
                ));
            }
        }
    }
}
