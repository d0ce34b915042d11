//! Zero-copy view over a SMOF v3 buffer.
//!
//! [`Smof3View`] is the read side of the v3 fixed-width layout
//! (`crate::shuffle_file`): it validates a buffer **once** — magic,
//! version, geometry, CRC, index invariants — and then addresses
//! records directly inside the shared bytes. A merge cursor over a
//! view never materializes a `Vec<(K, V)>`: keys are compared as
//! packed bytes (or against decoded keys via the codec's
//! `cmp_decoded`), and values decode lazily as groups leave the
//! merge. The buffer travels as `Arc<Vec<u8>>`, so a worker can hand
//! the same fetched partition to the merge and keep serving it to
//! other reducers without copying.

use std::sync::Arc;

use crate::shuffle::MapOutputFile;
use crate::shuffle_file::{decode_rows, parse_v3_meta, V3Meta};
use crate::task::{MrKey, MrValue};
use crate::wire::{FixedCodec, WireFormat};
use crate::Result;

/// A validated, shareable window onto one v3 map-output buffer.
///
/// Cloning is cheap (one `Arc` bump plus copied offsets); the
/// underlying bytes are never copied or re-decoded.
pub struct Smof3View<K, V> {
    data: Arc<Vec<u8>>,
    meta: V3Meta,
    kc: FixedCodec<K>,
    vc: FixedCodec<V>,
}

impl<K, V> Clone for Smof3View<K, V> {
    fn clone(&self) -> Self {
        Smof3View {
            data: Arc::clone(&self.data),
            ..*self
        }
    }
}

impl<K, V> std::fmt::Debug for Smof3View<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Smof3View")
            .field("records", &self.meta.records)
            .field("raw", &self.meta.raw)
            .field("key_width", &self.meta.key_width)
            .field("val_width", &self.meta.val_width)
            .field("index_len", &self.meta.index_len)
            .finish()
    }
}

impl<K, V> Smof3View<K, V>
where
    K: MrKey + WireFormat,
    V: MrValue + WireFormat,
{
    pub(crate) fn open(data: Arc<Vec<u8>>) -> Result<Self> {
        let meta = parse_v3_meta(&data)?;
        Ok(Smof3View {
            data,
            meta,
            kc: K::fixed_codec(),
            vc: V::fixed_codec(),
        })
    }

    /// Validates `data` as a SMOF buffer: `Ok(Some(view))` for a sound
    /// v3 file, [`MrError::CorruptShuffle`](crate::MrError) for
    /// everything else, any other version included. Never yields
    /// `Ok(None)` (that was "a v2 file, decode it the classic way");
    /// the benchmark pins this signature, so dropping the `Option`
    /// needs a benchmark PR first.
    pub fn parse(data: Arc<Vec<u8>>) -> Result<Option<Self>> {
        Self::open(data).map(Some)
    }
}

// Record addressing needs only the captured codec fn pointers, so it
// carries no trait bounds — which keeps `MergeIter` (and through it
// the generic in-process engine) free of `WireFormat` bounds.
impl<K, V> Smof3View<K, V> {
    /// The §3.2.1 annotation: raw ⟨k,v⟩ pairs this file represents.
    #[inline]
    pub fn raw_count(&self) -> u64 {
        self.meta.raw
    }

    /// Number of ⟨k′,v′⟩ records.
    #[inline]
    pub fn records(&self) -> usize {
        self.meta.records
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.meta.records == 0
    }

    /// The codec the keys were packed with (for byte-level compares).
    #[inline]
    pub fn key_codec(&self) -> &FixedCodec<K> {
        &self.kc
    }

    #[inline]
    fn row(&self) -> usize {
        self.meta.key_width + self.meta.val_width
    }

    /// The packed key bytes of record `i`, borrowed from the buffer.
    #[inline]
    pub fn key_bytes(&self, i: usize) -> &[u8] {
        let off = self.meta.payload_off + i * self.row();
        &self.data[off..off + self.meta.key_width]
    }

    /// Decodes the key of record `i`.
    #[inline]
    pub fn key_at(&self, i: usize) -> K {
        (self.kc.read)(self.key_bytes(i))
    }

    /// Decodes the value of record `i`.
    #[inline]
    pub fn value_at(&self, i: usize) -> V {
        let off = self.meta.payload_off + i * self.row() + self.meta.key_width;
        (self.vc.read)(&self.data[off..off + self.meta.val_width])
    }

    /// First record index whose key is `>= key`, found without
    /// decoding any predecessor: binary-search the sparse key-offset
    /// index down to one [`INDEX_INTERVAL`] window, then
    /// binary-search records directly by packed-byte comparison.
    /// Requires the file to be key-sorted (all SMOF files are).
    ///
    /// [`INDEX_INTERVAL`]: crate::shuffle_file::INDEX_INTERVAL
    pub fn seek_ge(&self, key: &K) -> usize {
        // Narrow [lo, hi) via the index: the last entry whose key is
        // < `key` gives a lower bound; the next entry an upper bound.
        let entry = self.meta.key_width + 8;
        let (mut ilo, mut ihi) = (0usize, self.meta.index_len);
        while ilo < ihi {
            let mid = ilo + (ihi - ilo) / 2;
            let at = self.meta.index_off + mid * entry;
            let ekey = &self.data[at..at + self.meta.key_width];
            if (self.kc.cmp_decoded)(key, ekey).is_gt() {
                ilo = mid + 1;
            } else {
                ihi = mid;
            }
        }
        let rec_of = |e: usize| -> usize {
            let at = self.meta.index_off + e * entry + self.meta.key_width;
            u64::from_le_bytes(self.data[at..at + 8].try_into().expect("len 8")) as usize
        };
        let mut lo = if ilo == 0 { 0 } else { rec_of(ilo - 1) };
        let mut hi = if ilo < self.meta.index_len {
            rec_of(ilo)
        } else {
            self.meta.records
        };
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if (self.kc.cmp_decoded)(key, self.key_bytes(mid)).is_gt() {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Materializes the whole view into a decoded file (compatibility
    /// and testing; the hot paths never call this).
    pub fn to_file(&self) -> MapOutputFile<K, V> {
        MapOutputFile {
            records: decode_rows(
                &self.data[self.meta.payload_off..],
                &self.meta,
                &self.kc,
                &self.vc,
            ),
            raw_count: self.meta.raw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle_file::encode_map_output;
    use sidr_coords::Coord;

    fn file(n: u64) -> MapOutputFile<Coord, f64> {
        MapOutputFile {
            records: (0..n)
                .map(|i| (Coord::from([i / 3, i % 3]), i as f64))
                .collect(),
            raw_count: n * 2,
        }
    }

    fn view(f: &MapOutputFile<Coord, f64>) -> Smof3View<Coord, f64> {
        let bytes = encode_map_output(f).unwrap();
        Smof3View::open(Arc::new(bytes)).unwrap()
    }

    #[test]
    fn view_addresses_every_record() {
        let f = file(1000);
        let v = view(&f);
        assert_eq!(v.records(), 1000);
        assert_eq!(v.raw_count(), 2000);
        for (i, (k, val)) in f.records.iter().enumerate() {
            assert_eq!(&v.key_at(i), k);
            assert_eq!(v.value_at(i), *val);
        }
        assert_eq!(v.to_file().records, f.records);
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(Smof3View::<Coord, f64>::parse(Arc::new(vec![0xAB; 64])).is_err());
    }

    #[test]
    fn seek_ge_matches_linear_scan() {
        let f = file(700); // several index windows
        let v = view(&f);
        let probe_keys: Vec<Coord> = (0..720u64)
            .map(|i| Coord::from([i / 3, i % 3]))
            .chain([Coord::origin(2), Coord::from([u64::MAX, 0])])
            .collect();
        for key in &probe_keys {
            let expect = f.records.iter().position(|(k, _)| k >= key).unwrap_or(700);
            assert_eq!(v.seek_ge(key), expect, "seek {key}");
        }
    }

    #[test]
    fn clones_share_bytes() {
        let v = view(&file(10));
        let v2 = v.clone();
        assert!(std::ptr::eq(
            v.key_bytes(3).as_ptr(),
            v2.key_bytes(3).as_ptr()
        ));
    }
}
