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
//! moment its map attempt writes it: in the
//! [`PartitionStore`](crate::tier::PartitionStore) of either executor
//! and its spill files, and inside the fetch frames. The layout is version 4
//! (little-endian):
//!
//! ```text
//! magic      b"SMOF"
//! version    u32   <- 4; anything else is rejected as corrupt
//! raw        u64   <- the annotation: raw ⟨k,v⟩ pairs represented
//! records    u64   <- ⟨k′,v′⟩ records that follow
//! runs       u32   <- runs of one key
//! key_width  u32   <- packed key bytes per run
//! val_width  u32   <- packed value bytes per record
//! crc        u32   <- CRC-32 (IEEE) of the 36 header bytes above,
//!                     then run table + values
//! run table  runs × (key bytes, cumulative end u32)
//! values     records × value bytes, no framing
//! ```
//!
//! A partition is sorted by key, and SIDR's `K → K′` is fixed before
//! any map runs, so a partition arrives as runs of one `K′` key (35
//! values each at fig. 8's `{7,5,1}`). Each run's key is written once,
//! in a fixed-width table whose keys strictly ascend; run `r` holds
//! values `end[r-1]..end[r]` of the values column. Keys and values are
//! packed by their [`FixedCodec`], and every key of a file has one
//! width, every value another (fixed-arity coordinate keyspaces always
//! do), so a reader addresses run `r` and value `i` directly, without
//! decoding any predecessor. That is what lets
//! [`Smof3View`](crate::smof3::Smof3View) merge runs straight out of
//! the file bytes.
//!
//! The CRC frame makes a fetch of a corrupted or truncated file fail
//! with [`MrError::CorruptShuffle`] *before* any record is decoded,
//! which is what lets the copy phase trigger re-execution of the
//! producing map instead of reducing over damaged input (aggressive
//! checksum validation of intermediate layouts, after "Only Aggressive
//! Elephants are Fast Elephants"). A run table that is out of key
//! order, holds an empty run, or does not end at `records` is
//! corruption too: a merge over it would split a key's group.

use std::path::Path;

use crate::error::MrError;
use crate::shuffle::MapOutputFile;
use crate::task::{MrKey, MrValue};
use crate::wire::{FixedCodec, WireFormat};
use crate::Result;

pub(crate) const MAGIC: [u8; 4] = *b"SMOF";
pub const VERSION: u32 = 4;
/// The annotation prefix: magic, version, raw, records.
const PREFIX_LEN: usize = 4 + 4 + 8 + 8;
pub(crate) const HEADER_LEN: usize = PREFIX_LEN + 4 + 4 + 4 + 4;
/// Where the header's CRC field (its last four bytes) starts.
const CRC_OFF: usize = HEADER_LEN - 4;
/// Bytes of a run's cumulative end in the run table.
const END_WIDTH: usize = 4;

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
/// CRC field itself, then the run table and values. A flipped
/// annotation or geometry field fails it like a flipped value byte.
fn frame_crc(bytes: &[u8]) -> u32 {
    crc32_parts(&[&bytes[..CRC_OFF], &bytes[HEADER_LEN..]])
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
/// (header + CRC frame + run table + values) — the exact bytes a
/// worker's spill tier puts on disk, and what travels inside a raw
/// frame when a worker serves a shuffle fetch over TCP. Adjacent equal
/// keys share one run. Records that are not key-sorted, or of
/// non-uniform packed width (coords of different rank), cannot be a
/// file: a typed [`MrError::BadConfig`], never a second layout.
pub fn encode_map_output<K, V>(file: &MapOutputFile<K, V>) -> Result<Vec<u8>>
where
    K: MrKey + WireFormat,
    V: MrValue + WireFormat,
{
    let (kc, vc) = (K::fixed_codec(), V::fixed_codec());
    let records = &file.records;
    let (kw, vw) = match records.first() {
        Some((k, v)) => ((kc.width)(k), (vc.width)(v)),
        None => (0, 0),
    };
    // Zero-width values can't be addressed by offset.
    if (vw == 0 && !records.is_empty())
        || records
            .iter()
            .any(|(k, v)| (kc.width)(k) != kw || (vc.width)(v) != vw)
    {
        return Err(MrError::BadConfig(format!(
            "map-output records must share one packed width, with non-zero \
             values (first record: {kw}-byte key, {vw}-byte value)"
        )));
    }
    if let Some(i) = (1..records.len()).find(|&i| records[i - 1].0 > records[i].0) {
        return Err(MrError::BadConfig(format!(
            "map-output records are not key-sorted (record {i} of {})",
            records.len()
        )));
    }
    let same_key = |a: &(K, V), b: &(K, V)| a.0 == b.0;
    Ok(write_v4(
        file.raw_count,
        records.len(),
        records.chunk_by(same_key).count(),
        kw,
        vw,
        |table| {
            for run in records.chunk_by(same_key) {
                table.push(run.len(), |out| (kc.write)(&run[0].0, out));
            }
        },
        |out| {
            for (_, v) in records {
                (vc.write)(v, out);
            }
        },
    ))
}

/// The one SMOF v4 writer: header, run table, values and CRC, into one
/// exactly-sized buffer. `table` pushes exactly `runs` runs in strictly
/// ascending key order, `records` values between them; `values` then
/// appends exactly `records` values of `val_width` bytes each, in run
/// order. The CRC is patched in last, so a caller never lays out
/// anything but its runs and values.
///
/// [`encode_map_output`] and the geometric map kernel of spec jobs
/// both write through here.
pub fn write_v4(
    raw: u64,
    records: usize,
    runs: usize,
    key_width: usize,
    val_width: usize,
    table: impl FnOnce(&mut RunTable<'_>),
    values: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    let values_off = HEADER_LEN + runs * (key_width + END_WIDTH);
    let len = values_off + records * val_width;
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&raw.to_le_bytes());
    out.extend_from_slice(&(records as u64).to_le_bytes());
    out.extend_from_slice(&(runs as u32).to_le_bytes());
    out.extend_from_slice(&(key_width as u32).to_le_bytes());
    out.extend_from_slice(&(val_width as u32).to_le_bytes());
    out.extend_from_slice(&[0; 4]); // CRC, patched in below
    let mut run_table = RunTable {
        out: &mut out,
        key_width,
        end: 0,
    };
    table(&mut run_table);
    let end = run_table.end;
    assert_eq!(
        (out.len(), end),
        (values_off, records),
        "the table must hold exactly {runs} runs over {records} records"
    );
    values(&mut out);
    assert_eq!(out.len(), len, "values must fill exactly {records} records");
    let crc = frame_crc(&out);
    out[CRC_OFF..HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
    out
}

/// The run table of a buffer [`write_v4`] is writing.
pub struct RunTable<'a> {
    out: &'a mut Vec<u8>,
    key_width: usize,
    /// Records covered by the runs pushed so far.
    end: usize,
}

impl RunTable<'_> {
    /// Appends the next run: `len` values (at least one) under the key
    /// that `key` appends, exactly `key_width` bytes of it.
    pub fn push(&mut self, len: usize, key: impl FnOnce(&mut Vec<u8>)) {
        assert!(len > 0, "a run holds at least one value");
        let at = self.out.len();
        key(self.out);
        assert_eq!(self.out.len() - at, self.key_width, "one packed key");
        self.end += len;
        let end = u32::try_from(self.end).expect("run ends fit u32");
        self.out.extend_from_slice(&end.to_le_bytes());
    }
}

/// Decodes a SMOF byte buffer, verifying the CRC frame and the run
/// table before decoding a single record. Corruption, truncation,
/// trailing bytes, a run table out of key order and any version but 4
/// all surface as [`MrError::CorruptShuffle`].
pub fn decode_map_output<K, V>(bytes: &[u8]) -> Result<MapOutputFile<K, V>>
where
    K: MrKey + WireFormat,
    V: MrValue + WireFormat,
{
    let (kc, vc) = (K::fixed_codec(), V::fixed_codec());
    let meta = parse_typed(bytes, &kc, &vc)?;
    let mut records = Vec::with_capacity(meta.records);
    for r in 0..meta.runs {
        let key = (kc.read)(meta.key_bytes(bytes, r));
        let values = meta.value_bytes(bytes, r).chunks_exact(meta.val_width);
        records.extend(values.map(|v| (key.clone(), (vc.read)(v))));
    }
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
/// ever reads — rejecting every version but 4.
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
    if version != VERSION {
        return Err(MrError::CorruptShuffle {
            detail: format!("unsupported map-output version {version}"),
        });
    }
    Ok(Prefix {
        raw: u64::from_le_bytes(bytes[8..16].try_into().expect("len 8")),
        records: u64::from_le_bytes(bytes[16..24].try_into().expect("len 8")),
    })
}

/// Validated v4 geometry: where the run table and values live inside
/// the buffer. Produced only after the magic, version, length
/// arithmetic, CRC and run table have all checked out, so downstream
/// run addressing can use plain slicing.
#[derive(Clone, Copy)]
pub(crate) struct Meta {
    pub raw: u64,
    pub records: usize,
    pub runs: usize,
    pub key_width: usize,
    pub val_width: usize,
    pub values_off: usize,
}

impl Meta {
    /// Where run `r`'s table entry starts.
    #[inline]
    fn entry(&self, r: usize) -> usize {
        HEADER_LEN + r * (self.key_width + END_WIDTH)
    }

    /// The packed key bytes of run `r`.
    #[inline]
    pub fn key_bytes<'a>(&self, bytes: &'a [u8], r: usize) -> &'a [u8] {
        let at = self.entry(r);
        &bytes[at..at + self.key_width]
    }

    /// One past run `r`'s last record.
    #[inline]
    pub fn end(&self, bytes: &[u8], r: usize) -> usize {
        let at = self.entry(r) + self.key_width;
        u32::from_le_bytes(bytes[at..at + END_WIDTH].try_into().expect("len 4")) as usize
    }

    /// The packed value bytes of run `r`.
    #[inline]
    pub fn value_bytes<'a>(&self, bytes: &'a [u8], r: usize) -> &'a [u8] {
        let start = if r == 0 { 0 } else { self.end(bytes, r - 1) };
        let end = self.end(bytes, r);
        &bytes[self.values_off + start * self.val_width..self.values_off + end * self.val_width]
    }
}

/// Validates `bytes` as a v4 buffer of `K` keys and `V` values: the
/// widths must be ones the codecs can read, and run keys must strictly
/// ascend by the key codec.
pub(crate) fn parse_typed<K, V>(
    bytes: &[u8],
    kc: &FixedCodec<K>,
    vc: &FixedCodec<V>,
) -> Result<Meta> {
    parse_meta(
        bytes,
        |kw, vw| (kc.width_ok)(kw) && (vc.width_ok)(vw),
        |a, b| (kc.cmp)(a, b).is_lt(),
    )
}

/// Validates `bytes` as a v4 buffer. `widths_ok(key_width,
/// val_width)` says a file with runs may have those widths, and
/// `in_order(a, b)` that run key `a` may precede run key `b`: the
/// codecs' answers for a typed reader ([`parse_typed`]); any widths and
/// merely distinct keys for the type-free [`verify_encoded`].
fn parse_meta(
    bytes: &[u8],
    widths_ok: impl Fn(usize, usize) -> bool,
    in_order: impl Fn(&[u8], &[u8]) -> bool,
) -> Result<Meta> {
    let corrupt = |detail: String| MrError::CorruptShuffle { detail };
    let prefix = parse_prefix(bytes)?;
    if bytes.len() < HEADER_LEN {
        return Err(corrupt("v4 map-output file shorter than header".into()));
    }
    let field = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("len 4"));
    let (runs, key_width, val_width) = (field(24) as usize, field(28) as usize, field(32) as usize);
    let crc = field(CRC_OFF);
    let records = usize::try_from(prefix.records)
        .map_err(|_| corrupt(format!("record count {} overflows", prefix.records)))?;
    if records > 0 && (val_width == 0 || !widths_ok(key_width, val_width)) {
        return Err(corrupt(format!(
            "{records} records of {key_width}-byte keys and {val_width}-byte values"
        )));
    }
    let table_bytes = runs
        .checked_mul(key_width + END_WIDTH)
        .ok_or_else(|| corrupt("run table size overflows".into()))?;
    let values_bytes = records
        .checked_mul(val_width)
        .ok_or_else(|| corrupt("values size overflows".into()))?;
    let expected = HEADER_LEN
        .checked_add(table_bytes)
        .and_then(|n| n.checked_add(values_bytes))
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
    let meta = Meta {
        raw: prefix.raw,
        records,
        runs,
        key_width,
        val_width,
        values_off: HEADER_LEN + table_bytes,
    };
    // Every run holds at least one record, the runs tile the values
    // column exactly, and their keys are in order: a merge over the
    // file then sees each key once.
    let mut prev_end = 0;
    for r in 0..runs {
        let end = meta.end(bytes, r);
        if end <= prev_end {
            return Err(corrupt(format!("run {r} is empty (end {end})")));
        }
        if end > records {
            return Err(corrupt(format!("run {r} ends at {end}, past {records}")));
        }
        if r > 0 && !in_order(meta.key_bytes(bytes, r - 1), meta.key_bytes(bytes, r)) {
            return Err(corrupt(format!("run {r}'s key is out of order")));
        }
        prev_end = end;
    }
    if prev_end != records {
        return Err(corrupt(format!(
            "the runs end at {prev_end}, not at {records} records"
        )));
    }
    Ok(meta)
}

/// Type-free integrity check of one encoded map-output buffer: magic,
/// version, geometry, frame CRC and run table — everything decoding
/// would check short of reading records, so callers that only move
/// bytes (the worker's spill tier reading a partition back from disk)
/// can reject bit flips and truncation as [`MrError::CorruptShuffle`]
/// without knowing the key/value types. Without the key codec, adjacent
/// run keys are checked to be distinct; their order is checked by every
/// typed reader ([`decode_map_output`], `Smof3View::open`).
pub fn verify_encoded(bytes: &[u8]) -> Result<()> {
    parse_meta(bytes, |_, _| true, |a, b| a != b).map(drop)
}

/// Fault injection on an encoded buffer: flips its last byte (a
/// silently corrupted intermediate file) or, with `truncate`, drops it
/// (a map output cut short by a crashed writer). The last byte is a
/// value, or the stored CRC when there are none, so the CRC
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
    use crate::wire::WireFormat;
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
    fn coord_files_encode_as_v4_and_decode_back() {
        let encoded = encode_map_output(&sample()).unwrap();
        let meta = parse_typed(&encoded, &Coord::fixed_codec(), &f64::fixed_codec()).unwrap();
        assert_eq!((meta.key_width, meta.val_width), (16, 8));
        assert_eq!((meta.raw, meta.records, meta.runs), (12, 3, 3));
        let back: MapOutputFile<Coord, f64> = decode_map_output(&encoded).unwrap();
        assert_eq!(back.records, sample().records);
        assert_eq!(back.raw_count, 12);
    }

    #[test]
    fn unsorted_records_are_a_typed_encode_error() {
        let f = MapOutputFile {
            records: vec![(Coord::from([1, 0]), 1.0), (Coord::from([0, 9]), 2.0)],
            raw_count: 2,
        };
        assert!(matches!(encode_map_output(&f), Err(MrError::BadConfig(_))));
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
    fn empty_file_roundtrips() {
        let f = MapOutputFile::<Coord, f64> {
            records: Vec::new(),
            raw_count: 0,
        };
        let encoded = encode_map_output(&f).unwrap();
        assert_eq!(encoded.len(), HEADER_LEN);
        let back: MapOutputFile<Coord, f64> = decode_map_output(&encoded).unwrap();
        assert!(back.records.is_empty());
    }

    #[test]
    fn damage_is_caught_with_or_without_values() {
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
