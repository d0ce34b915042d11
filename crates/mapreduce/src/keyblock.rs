//! A keyblock as bytes: one reduce attempt's whole output, packed in
//! the row layout a `KeyblockBin` frame carries.
//!
//! A reduce writes each output row straight into one buffer — the
//! key's packed bytes, then the value's — behind
//! [`KEYBLOCK_HEADROOM`] free bytes where a frame header fits. So the
//! rows a merge produced are the rows a socket sends: a sender seals
//! the header in place, and no row is decoded or copied on the way. A
//! [`Keyblock`] becomes `(K, V)` records only where a collector asks
//! for them ([`Keyblock::into_records`], the default of
//! [`OutputCollector::commit_keyblock`]).
//!
//! [`OutputCollector::commit_keyblock`]: crate::OutputCollector::commit_keyblock

use crate::wire::{FixedCodec, WireFormat};

/// Bytes kept free in front of a keyblock's rows: the length of a
/// `KeyblockBin` frame header.
pub const KEYBLOCK_HEADROOM: usize = 36;

/// One reduce attempt's output rows, in key order, all of one width.
///
/// The buffer is empty until the first row, and afterwards holds
/// [`KEYBLOCK_HEADROOM`] bytes and then the rows.
pub struct Keyblock<K, V> {
    buf: Vec<u8>,
    rows: usize,
    key_width: usize,
    row_width: usize,
    /// Rows the first push makes room for.
    hint: usize,
    kc: FixedCodec<K>,
    vc: FixedCodec<V>,
}

impl<K, V> std::fmt::Debug for Keyblock<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keyblock")
            .field("rows", &self.rows)
            .field("key_width", &self.key_width)
            .field("row_width", &self.row_width)
            .finish()
    }
}

impl<K: WireFormat, V: WireFormat> Keyblock<K, V> {
    /// An empty keyblock whose first row reserves room for `hint` rows.
    pub fn with_hint(hint: usize) -> Self {
        Keyblock {
            buf: Vec::new(),
            rows: 0,
            key_width: 0,
            row_width: 0,
            hint,
            kc: K::fixed_codec(),
            vc: V::fixed_codec(),
        }
    }

    /// `records` packed as the rows a reduce writes. `None` when their
    /// keys or values differ in width: a keyblock's rows have one.
    pub fn from_records(records: &[(K, V)]) -> Option<Self> {
        let mut kb = Self::with_hint(records.len());
        let mut key = Vec::new();
        for (k, v) in records {
            key.resize((kb.kc.width)(k), 0);
            (kb.kc.write)(k, &mut key);
            if !kb.push(&key, v) {
                return None;
            }
        }
        Some(kb)
    }

    /// The keyblock a received frame holds, its buffer moved in.
    ///
    /// The caller has proved the frame's geometry: `frame` is a header
    /// of [`KEYBLOCK_HEADROOM`] bytes, then `rows` rows, each a key
    /// `key_width` bytes wide and then a value, all of one width.
    pub fn from_frame(frame: Vec<u8>, rows: usize, key_width: usize) -> Self {
        let body = frame.len() - KEYBLOCK_HEADROOM;
        let row_width = body.checked_div(rows).unwrap_or(0);
        debug_assert!(row_width * rows == body && (rows == 0 || row_width >= key_width));
        Keyblock {
            buf: frame,
            rows,
            key_width,
            row_width,
            hint: 0,
            kc: K::fixed_codec(),
            vc: V::fixed_codec(),
        }
    }

    /// Appends one row: `key`'s packed bytes, then `value`. Returns
    /// false, and appends nothing, when the row's key or value width
    /// differs from the first row's: a keyblock's rows have one width.
    pub fn push(&mut self, key: &[u8], value: &V) -> bool {
        let row_width = key.len() + (self.vc.width)(value);
        if self.rows == 0 {
            (self.key_width, self.row_width) = (key.len(), row_width);
            let rows = self.hint.max(1);
            self.buf
                .reserve_exact(KEYBLOCK_HEADROOM + rows.saturating_mul(row_width));
            self.buf.resize(KEYBLOCK_HEADROOM, 0);
        } else if (key.len(), row_width) != (self.key_width, self.row_width) {
            return false;
        }
        self.buf.extend_from_slice(key);
        let at = self.buf.len();
        self.buf.resize(at + row_width - key.len(), 0);
        (self.vc.write)(value, &mut self.buf[at..]);
        self.rows += 1;
        true
    }
}

impl<K, V> Keyblock<K, V> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Packed width of every row's key; 0 when there is no row.
    pub fn key_width(&self) -> usize {
        self.key_width
    }

    /// The whole buffer: [`KEYBLOCK_HEADROOM`] bytes for a frame
    /// header, then the rows.
    pub fn into_frame(mut self) -> Vec<u8> {
        if self.buf.is_empty() {
            self.buf.resize(KEYBLOCK_HEADROOM, 0);
        }
        self.buf
    }

    /// The rows as `(K, V)` records, decoded once each.
    pub fn into_records(self) -> Vec<(K, V)> {
        let (kw, rw) = (self.key_width, self.row_width);
        let body = self.buf.get(KEYBLOCK_HEADROOM..).unwrap_or_default();
        (0..self.rows)
            .map(|i| {
                let row = &body[i * rw..(i + 1) * rw];
                ((self.kc.read)(&row[..kw]), (self.vc.read)(&row[kw..]))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_coords::Coord;

    fn packed(c: &Coord) -> Vec<u8> {
        let mut out = Vec::new();
        c.write_packed(&mut out);
        out
    }

    #[test]
    fn rows_round_trip_behind_the_header_room() {
        let records: Vec<(Coord, f64)> = (0..5u64)
            .map(|i| (Coord::from([i, i * 2]), i as f64 / 2.0))
            .collect();
        let mut kb = Keyblock::<Coord, f64>::with_hint(2);
        for (k, v) in &records {
            assert!(kb.push(&packed(k), v));
        }
        assert_eq!((kb.len(), kb.key_width()), (5, 16));
        let frame = kb.into_frame();
        assert_eq!(frame.len(), KEYBLOCK_HEADROOM + 5 * 24);
        // Row 0: the key's two LE words, then the value's LE bytes.
        let row = &frame[KEYBLOCK_HEADROOM..KEYBLOCK_HEADROOM + 24];
        assert_eq!(row, [&[0; 16][..], &0.0f64.to_le_bytes()].concat());
        let packed = Keyblock::<Coord, f64>::from_records(&records).unwrap();
        assert_eq!(packed.into_frame(), frame);
        let back = Keyblock::<Coord, f64>::from_frame(frame, 5, 16);
        assert_eq!(back.into_records(), records);
    }

    #[test]
    fn a_row_of_another_width_is_refused() {
        let mut kb = Keyblock::<Coord, f64>::with_hint(0);
        assert!(kb.push(&packed(&Coord::from([1, 2])), &0.5));
        assert!(!kb.push(&packed(&Coord::from([3])), &1.5));
        assert_eq!(kb.len(), 1);
        let mixed = [(Coord::from([1, 2]), 0.5), (Coord::from([3]), 1.5)];
        assert!(Keyblock::<Coord, f64>::from_records(&mixed).is_none());
    }

    #[test]
    fn an_empty_keyblock_is_its_header_room() {
        let kb = Keyblock::<u64, u64>::with_hint(10);
        assert!(kb.is_empty());
        assert_eq!(kb.into_frame(), vec![0; KEYBLOCK_HEADROOM]);
        let back = Keyblock::<u64, u64>::from_frame(vec![0; KEYBLOCK_HEADROOM], 0, 0);
        assert!(back.into_records().is_empty());
        let none = Keyblock::<u64, u64>::from_records(&[]).unwrap();
        assert_eq!(none.into_frame(), vec![0; KEYBLOCK_HEADROOM]);
    }
}
