//! Wire encoding for intermediate keys and values.
//!
//! Intermediate data is bytes from the moment a map attempt commits it
//! — in every executor's partition store, its spill files, the fetch
//! frames — and it has one layout: SMOF v4 ([`crate::shuffle_file`]),
//! a fixed-width run table of keys and a column of values. So an
//! intermediate key or value type must have an encoding that is
//! *fixed-width within one file* (numerics, and
//! `Coord` within a fixed-arity keyspace); [`WireFormat`] names its
//! [`FixedCodec`], a bundle of fn pointers that packs records with no
//! per-record framing and lets merge cursors compare keys directly on
//! the encoded bytes.

use std::cmp::Ordering;

/// A type that can cross the shuffle: it has a fixed-width codec.
pub trait WireFormat: Sized {
    /// The type's [`FixedCodec`].
    fn fixed_codec() -> FixedCodec<Self>;
}

/// Fixed-width binary codec for a [`WireFormat`] type: width, raw
/// read/write, and order comparisons that work directly on encoded
/// bytes. Plain fn pointers (not a trait object) so views and merge
/// cursors can capture it by value with no allocation or vtable.
///
/// Contract: for values of equal `width`, `cmp` on encoded bytes must
/// agree with the type's `Ord` (or total order, for floats), and byte
/// equality must coincide with value equality.
pub struct FixedCodec<T> {
    /// Encoded width of this value in bytes. Constant per value; all
    /// records of one file must agree.
    pub width: fn(&T) -> usize,
    /// Whether some value encodes in exactly this many bytes: a reader
    /// checks a file's widths with it before decoding anything.
    pub width_ok: fn(usize) -> bool,
    /// Writes `v` into `out`, exactly `width(v)` bytes long.
    pub write: fn(&T, &mut [u8]),
    /// Decodes from exactly one encoded value's bytes.
    pub read: fn(&[u8]) -> T,
    /// Total order on encoded bytes.
    pub cmp: fn(&[u8], &[u8]) -> Ordering,
}

// fn pointers are Copy no matter what `T` is; derive would demand
// `T: Clone`/`T: Copy` bounds the codec doesn't need.
impl<T> Clone for FixedCodec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for FixedCodec<T> {}

macro_rules! impl_wire_num {
    ($t:ty, $cmp:expr) => {
        impl WireFormat for $t {
            fn fixed_codec() -> FixedCodec<Self> {
                fn read_one(b: &[u8]) -> $t {
                    <$t>::from_le_bytes(
                        b[..std::mem::size_of::<$t>()]
                            .try_into()
                            .expect("fixed width"),
                    )
                }
                FixedCodec {
                    width: |_| std::mem::size_of::<$t>(),
                    width_ok: |w| w == std::mem::size_of::<$t>(),
                    write: |v, out| out.copy_from_slice(&v.to_le_bytes()),
                    read: read_one,
                    cmp: |a, b| $cmp(&read_one(a), &read_one(b)),
                }
            }
        }
    };
}

impl_wire_num!(u32, Ord::cmp);
impl_wire_num!(u64, Ord::cmp);
impl_wire_num!(i32, Ord::cmp);
impl_wire_num!(i64, Ord::cmp);
impl_wire_num!(f32, f32::total_cmp);
impl_wire_num!(f64, f64::total_cmp);

impl WireFormat for sidr_coords::Coord {
    fn fixed_codec() -> FixedCodec<Self> {
        use sidr_coords::Coord;
        FixedCodec {
            width: Coord::packed_width,
            width_ok: |w| w % 8 == 0,
            write: |c, out| Coord::pack_words(c.components(), out),
            read: Coord::from_packed,
            cmp: Coord::cmp_packed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_coords::Coord;

    #[test]
    fn fixed_codec_roundtrips_and_orders_consistently() {
        fn check<T: WireFormat + Clone + PartialEq + std::fmt::Debug>(values: &[T]) {
            let codec = T::fixed_codec();
            for v in values {
                let mut packed = vec![0; (codec.width)(v)];
                (codec.write)(v, &mut packed);
                assert_eq!(packed.len(), (codec.width)(v));
                assert!((codec.width_ok)(packed.len()));
                assert_eq!(&(codec.read)(&packed), v);
            }
            for a in values {
                for b in values {
                    let (mut pa, mut pb) = (vec![0; (codec.width)(a)], vec![0; (codec.width)(b)]);
                    (codec.write)(a, &mut pa);
                    (codec.write)(b, &mut pb);
                    assert_eq!((codec.cmp)(&pa, &pb).reverse(), (codec.cmp)(&pb, &pa));
                    assert_eq!((codec.cmp)(&pa, &pb).is_eq(), pa == pb);
                }
            }
        }
        check(&[0u64, 1, 256, u64::MAX]);
        check(&[-5i64, 0, 7, i64::MAX]);
        check(&[-1.5f64, 0.0, 2.25, f64::INFINITY]);
        check(&[
            Coord::from([0, 9]),
            Coord::from([1, 0]),
            Coord::from([256, 256]),
        ]);
    }

    #[test]
    fn fixed_codec_orders_numerics_numerically() {
        // LE bytes of 256 are [0,1,...]; memcmp would call that less
        // than 1's [1,0,...]. The codec must compare by value.
        let codec = u64::fixed_codec();
        let (mut a, mut b) = ([0; 8], [0; 8]);
        (codec.write)(&256u64, &mut a);
        (codec.write)(&1u64, &mut b);
        assert_eq!((codec.cmp)(&a, &b), Ordering::Greater);
    }
}
