//! n-dimensional coordinates (points in a logical keyspace).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Index;

use crate::error::CoordError;
use crate::Result;

/// A point in an n-dimensional logical space.
///
/// In the paper's notation a `Coord` is a key `k ∈ K` (input keyspace)
/// or `k′ ∈ K′` (intermediate keyspace). Coordinates are unsigned and
/// relative to the origin of the space they live in, matching the
/// corner/shape addressing used by scientific access libraries.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Coord(Vec<u64>);

impl Coord {
    /// Creates a coordinate from per-dimension components.
    pub fn new(components: impl Into<Vec<u64>>) -> Self {
        Coord(components.into())
    }

    /// The origin (all-zero) coordinate of a `rank`-dimensional space.
    pub fn origin(rank: usize) -> Self {
        Coord(vec![0; rank])
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Per-dimension components.
    #[inline]
    pub fn components(&self) -> &[u64] {
        &self.0
    }

    /// Component-wise addition. Errors on rank mismatch.
    pub fn checked_add(&self, other: &Coord) -> Result<Coord> {
        self.same_rank(other)?;
        Ok(Coord(
            self.0.iter().zip(&other.0).map(|(a, b)| a + b).collect(),
        ))
    }

    /// Component-wise subtraction. Errors on rank mismatch or underflow
    /// (reported as `OutOfBounds` in the offending dimension).
    pub fn checked_sub(&self, other: &Coord) -> Result<Coord> {
        self.same_rank(other)?;
        let mut out = Vec::with_capacity(self.rank());
        for (dim, (a, b)) in self.0.iter().zip(&other.0).enumerate() {
            out.push(a.checked_sub(*b).ok_or(CoordError::OutOfBounds {
                dim,
                coordinate: *a,
                extent: *b,
            })?);
        }
        Ok(Coord(out))
    }

    /// Component-wise integer division (used by extraction-shape key
    /// translation: `k′[d] = k[d] / e[d]`, §3 Area 2).
    pub fn component_div(&self, divisors: &[u64]) -> Result<Coord> {
        if divisors.len() != self.rank() {
            return Err(CoordError::RankMismatch {
                expected: self.rank(),
                actual: divisors.len(),
            });
        }
        let mut out = Vec::with_capacity(self.rank());
        for (dim, (a, d)) in self.0.iter().zip(divisors).enumerate() {
            if *d == 0 {
                return Err(CoordError::ZeroDim { dim });
            }
            out.push(a / d);
        }
        Ok(Coord(out))
    }

    /// Component-wise multiplication (inverse of `component_div` up to
    /// remainder; used to compute tile corners).
    pub fn component_mul(&self, factors: &[u64]) -> Result<Coord> {
        if factors.len() != self.rank() {
            return Err(CoordError::RankMismatch {
                expected: self.rank(),
                actual: factors.len(),
            });
        }
        Ok(Coord(
            self.0.iter().zip(factors).map(|(a, f)| a * f).collect(),
        ))
    }

    /// True when every component of `self` is strictly less than the
    /// matching component of `extents`.
    pub fn strictly_below(&self, extents: &[u64]) -> bool {
        debug_assert_eq!(self.rank(), extents.len());
        self.0.iter().zip(extents).all(|(c, e)| c < e)
    }

    /// Byte width of this coordinate in the packed fixed-width
    /// encoding: `rank` little-endian `u64` words, no length prefix.
    /// Every key in a fixed-arity keyspace packs to the same width,
    /// which is what lets SMOF v3 address records by offset alone.
    #[inline]
    pub fn packed_width(&self) -> usize {
        self.0.len() * 8
    }

    /// Appends the packed encoding (LE words, no prefix) to `out`.
    pub fn write_packed(&self, out: &mut Vec<u8>) {
        for &c in &self.0 {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }

    /// Writes `words`' packed encoding (LE words, no prefix) into
    /// `out`, exactly `8 × words.len()` bytes long.
    pub fn pack_words(words: &[u64], out: &mut [u8]) {
        assert_eq!(out.len(), words.len() * 8, "one slot per word");
        for (slot, &w) in out.chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Reconstructs a coordinate from its packed encoding. The rank is
    /// implied by the slice length, which must be a multiple of 8.
    pub fn from_packed(bytes: &[u8]) -> Coord {
        debug_assert_eq!(bytes.len() % 8, 0, "packed coord length not word-aligned");
        Coord(
            bytes
                .chunks_exact(8)
                .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
                .collect(),
        )
    }

    /// Compares two packed encodings in coordinate order (row-major
    /// lexicographic over components, shorter prefix first) without
    /// decoding. Packed words are little-endian, so plain `memcmp`
    /// would order them wrongly — each 8-byte word must be compared as
    /// a `u64`. Byte *equality* of equal-width slices is still valid
    /// for equality checks.
    pub fn cmp_packed(a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        for (wa, wb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
            let wa = u64::from_le_bytes(wa.try_into().expect("8-byte chunk"));
            let wb = u64::from_le_bytes(wb.try_into().expect("8-byte chunk"));
            match wa.cmp(&wb) {
                std::cmp::Ordering::Equal => {}
                other => return other,
            }
        }
        a.len().cmp(&b.len())
    }

    /// Compares a decoded coordinate against a packed encoding, with
    /// the same ordering contract as [`Coord::cmp_packed`].
    pub fn cmp_decoded_packed(&self, packed: &[u8]) -> std::cmp::Ordering {
        for (ca, wb) in self.0.iter().zip(packed.chunks_exact(8)) {
            let wb = u64::from_le_bytes(wb.try_into().expect("8-byte chunk"));
            match ca.cmp(&wb) {
                std::cmp::Ordering::Equal => {}
                other => return other,
            }
        }
        self.packed_width().cmp(&packed.len())
    }

    fn same_rank(&self, other: &Coord) -> Result<()> {
        if self.rank() == other.rank() {
            Ok(())
        } else {
            Err(CoordError::RankMismatch {
                expected: self.rank(),
                actual: other.rank(),
            })
        }
    }
}

impl fmt::Debug for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Coord{:?}", self.0)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

impl Index<usize> for Coord {
    type Output = u64;
    #[inline]
    fn index(&self, dim: usize) -> &u64 {
        &self.0[dim]
    }
}

impl From<Vec<u64>> for Coord {
    fn from(v: Vec<u64>) -> Self {
        Coord(v)
    }
}

impl From<&[u64]> for Coord {
    fn from(v: &[u64]) -> Self {
        Coord(v.to_vec())
    }
}

impl<const N: usize> From<[u64; N]> for Coord {
    fn from(v: [u64; N]) -> Self {
        Coord(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_is_all_zero() {
        let o = Coord::origin(4);
        assert_eq!(o.rank(), 4);
        assert!(o.components().iter().all(|&c| c == 0));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Coord::from([5, 7, 9]);
        let b = Coord::from([1, 2, 3]);
        let sum = a.checked_add(&b).unwrap();
        assert_eq!(sum, Coord::from([6, 9, 12]));
        assert_eq!(sum.checked_sub(&b).unwrap(), a);
    }

    #[test]
    fn sub_underflow_reports_dimension() {
        let a = Coord::from([5, 1]);
        let b = Coord::from([1, 2]);
        match a.checked_sub(&b) {
            Err(CoordError::OutOfBounds { dim: 1, .. }) => {}
            other => panic!("expected underflow in dim 1, got {other:?}"),
        }
    }

    #[test]
    fn rank_mismatch_detected() {
        let a = Coord::from([1, 2]);
        let b = Coord::from([1, 2, 3]);
        assert!(matches!(
            a.checked_add(&b),
            Err(CoordError::RankMismatch {
                expected: 2,
                actual: 3
            })
        ));
    }

    #[test]
    fn component_div_matches_paper_example() {
        // §3 Area 2: key {157, 34, 82} with extraction shape {7, 5, 1}
        // maps to {22, 6, 82}.
        let k = Coord::from([157, 34, 82]);
        let kp = k.component_div(&[7, 5, 1]).unwrap();
        assert_eq!(kp, Coord::from([22, 6, 82]));
    }

    #[test]
    fn component_div_by_zero_rejected() {
        let k = Coord::from([4, 4]);
        assert!(matches!(
            k.component_div(&[2, 0]),
            Err(CoordError::ZeroDim { dim: 1 })
        ));
    }

    #[test]
    fn display_uses_brace_notation() {
        assert_eq!(Coord::from([100, 0, 0]).to_string(), "{100, 0, 0}");
    }

    #[test]
    fn ordering_is_row_major_lexicographic() {
        let a = Coord::from([0, 9]);
        let b = Coord::from([1, 0]);
        assert!(a < b);
    }

    #[test]
    fn packed_roundtrip_preserves_value_and_width() {
        for c in [
            Coord::from([157, 34, 82]),
            Coord::origin(0),
            Coord::from([u64::MAX]),
            Coord::from([0, u64::MAX, 1 << 40]),
        ] {
            let mut buf = Vec::new();
            c.write_packed(&mut buf);
            assert_eq!(buf.len(), c.packed_width());
            assert_eq!(Coord::from_packed(&buf), c);
        }
    }

    #[test]
    fn cmp_packed_matches_coord_ord() {
        // The case memcmp would get wrong: 256 packs as [0,1,0,...]
        // which is bytewise *less* than 1's [1,0,0,...].
        let pairs = [
            (Coord::from([256]), Coord::from([1])),
            (Coord::from([0, 9]), Coord::from([1, 0])),
            (Coord::from([5, 5]), Coord::from([5, 5])),
            (Coord::from([7]), Coord::from([7, 0])),
        ];
        for (a, b) in pairs {
            let (mut pa, mut pb) = (Vec::new(), Vec::new());
            a.write_packed(&mut pa);
            b.write_packed(&mut pb);
            assert_eq!(Coord::cmp_packed(&pa, &pb), a.cmp(&b), "{a} vs {b}");
            assert_eq!(a.cmp_decoded_packed(&pb), a.cmp(&b), "{a} vs packed {b}");
        }
    }
}
