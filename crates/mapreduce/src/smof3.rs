//! Zero-copy view over a SMOF v4 buffer.
//!
//! [`Smof3View`] is the read side of the run-grouped v4 layout
//! (`crate::shuffle_file`): it validates a buffer **once** — magic,
//! version, geometry, CRC, and a run table whose keys strictly ascend
//! by the key codec and whose runs tile the values — and then
//! addresses runs directly inside the shared bytes. A merge cursor
//! over a view steps run by run and never materializes a
//! `Vec<(K, V)>`: keys stay packed bytes, compared in place and copied
//! as bytes into the reduce's output rows, and values decode
//! lazily as groups leave the merge. The buffer travels as
//! `Arc<Vec<u8>>`, so a worker can hand the same fetched partition to
//! the merge and keep serving it to other reducers without copying.
//!
//! The name is from the v3 layout; the benchmark pins it (with
//! [`Smof3View::parse`]) until it re-pins its adapter (ROADMAP item
//! 7(a)).

use std::sync::Arc;

use crate::shuffle_file::{parse_typed, Meta};
use crate::task::{MrKey, MrValue};
use crate::wire::{FixedCodec, WireFormat};
use crate::Result;

/// A validated, shareable window onto one v4 map-output buffer.
///
/// Cloning is cheap (one `Arc` bump plus copied offsets); the
/// underlying bytes are never copied or re-decoded.
pub struct Smof3View<K, V> {
    data: Arc<Vec<u8>>,
    meta: Meta,
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
            .field("runs", &self.meta.runs)
            .field("raw", &self.meta.raw)
            .field("key_width", &self.meta.key_width)
            .field("val_width", &self.meta.val_width)
            .finish()
    }
}

impl<K, V> Smof3View<K, V>
where
    K: MrKey + WireFormat,
    V: MrValue + WireFormat,
{
    /// Validates `data` as a SMOF buffer — magic, version, geometry,
    /// frame CRC, run table — and opens a view on it. Anything but a
    /// sound v4 buffer of `K` keys and `V` values, run keys out of
    /// `K`'s order included, is
    /// [`MrError::CorruptShuffle`](crate::MrError).
    pub fn open(data: Arc<Vec<u8>>) -> Result<Self> {
        let (kc, vc) = (K::fixed_codec(), V::fixed_codec());
        let meta = parse_typed(&data, &kc, &vc)?;
        Ok(Smof3View { data, meta, kc, vc })
    }

    /// [`Smof3View::open`] wrapped in an `Option` that is never `None`
    /// (that was "a v2 file, decode it the classic way"); the benchmark
    /// pins this signature, so dropping it needs a benchmark PR first.
    pub fn parse(data: Arc<Vec<u8>>) -> Result<Option<Self>> {
        Self::open(data).map(Some)
    }
}

// Run addressing needs only the captured codec fn pointers, so it
// carries no trait bounds — which keeps `MergeIter` free of
// `WireFormat` bounds.
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

    /// Number of runs: distinct keys, each with at least one value.
    #[inline]
    pub fn runs(&self) -> usize {
        self.meta.runs
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.meta.records == 0
    }

    /// Length of the whole encoded buffer: header, run table and values.
    #[inline]
    pub(crate) fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// The codec the keys were packed with (for byte-level compares).
    #[inline]
    pub fn key_codec(&self) -> &FixedCodec<K> {
        &self.kc
    }

    /// The packed key bytes of run `r`, borrowed from the buffer.
    #[inline]
    pub fn run_key_bytes(&self, r: usize) -> &[u8] {
        self.meta.key_bytes(&self.data, r)
    }

    /// Decodes the key of run `r`.
    #[inline]
    pub fn run_key(&self, r: usize) -> K {
        (self.kc.read)(self.run_key_bytes(r))
    }

    /// Decodes run `r`'s values, in record order.
    #[inline]
    pub fn run_values(&self, r: usize) -> impl ExactSizeIterator<Item = V> + '_ {
        let read = self.vc.read;
        (self.meta.value_bytes(&self.data, r))
            .chunks_exact(self.meta.val_width)
            .map(read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::MapOutputFile;
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
    fn view_addresses_every_run() {
        let f = file(1000);
        let v = view(&f);
        assert_eq!((v.records(), v.runs()), (1000, 1000));
        assert_eq!(v.raw_count(), 2000);
        for (r, (k, val)) in f.records.iter().enumerate() {
            assert_eq!(&v.run_key(r), k);
            assert_eq!(v.run_values(r).collect::<Vec<_>>(), [*val]);
        }
    }

    #[test]
    fn garbage_is_an_error() {
        assert!(Smof3View::<Coord, f64>::parse(Arc::new(vec![0xAB; 64])).is_err());
    }

    #[test]
    fn clones_share_bytes() {
        let v = view(&file(10));
        let v2 = v.clone();
        assert!(std::ptr::eq(
            v.run_key_bytes(3).as_ptr(),
            v2.run_key_bytes(3).as_ptr()
        ));
    }
}
