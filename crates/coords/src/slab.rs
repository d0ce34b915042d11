//! Slabs: corner + shape regions, SciHadoop's unit of work.
//!
//! SciHadoop "specifies its units of work via pairs of n-dimensional
//! coordinates specifying a corner and a shape in the input data set"
//! (§2.1). Input splits, extraction-shape preimages and keyblock
//! extents are all slabs.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::coord::Coord;
use crate::error::CoordError;
use crate::shape::Shape;
use crate::Result;

/// An axis-aligned hyper-rectangular region: `corner + shape`.
///
/// E.g. `corner: {100,0,0} shape: {20,50,50}` is a 50 000-element cube
/// with its origin at `{100,0,0}` (paper §2.1).
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Slab {
    corner: Coord,
    shape: Shape,
}

impl Slab {
    /// Creates a slab; corner and shape must share a rank.
    pub fn new(corner: Coord, shape: Shape) -> Result<Self> {
        if corner.rank() != shape.rank() {
            return Err(CoordError::RankMismatch {
                expected: corner.rank(),
                actual: shape.rank(),
            });
        }
        // Reject slabs whose far corner overflows u64.
        for (dim, (&c, &e)) in corner.components().iter().zip(shape.extents()).enumerate() {
            c.checked_add(e).ok_or(CoordError::OutOfBounds {
                dim,
                coordinate: c,
                extent: e,
            })?;
        }
        Ok(Slab { corner, shape })
    }

    /// A slab covering an entire space (corner at the origin).
    pub fn whole(space: &Shape) -> Self {
        Slab {
            corner: Coord::origin(space.rank()),
            shape: space.clone(),
        }
    }

    /// The low corner (inclusive).
    #[inline]
    pub fn corner(&self) -> &Coord {
        &self.corner
    }

    /// Extents of the region.
    #[inline]
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Number of elements in the region.
    #[inline]
    pub fn count(&self) -> u64 {
        self.shape.count()
    }

    /// Exclusive upper corner: `corner + shape` per dimension.
    pub fn end(&self) -> Coord {
        Coord::new(
            self.corner
                .components()
                .iter()
                .zip(self.shape.extents())
                .map(|(&c, &e)| c + e)
                .collect::<Vec<_>>(),
        )
    }

    /// True when `coord` lies inside the slab.
    pub fn contains(&self, coord: &Coord) -> bool {
        if coord.rank() != self.rank() {
            return false;
        }
        coord
            .components()
            .iter()
            .zip(self.corner.components())
            .zip(self.shape.extents())
            .all(|((&c, &lo), &e)| c >= lo && c < lo + e)
    }

    /// True when `other` lies entirely inside `self`.
    pub fn contains_slab(&self, other: &Slab) -> bool {
        if other.rank() != self.rank() {
            return false;
        }
        self.contains(other.corner())
            && other
                .end()
                .components()
                .iter()
                .zip(self.end().components())
                .all(|(&oe, &se)| oe <= se)
    }

    /// Intersection of two slabs, or `None` when disjoint.
    ///
    /// This is the core primitive of dependency derivation: a split
    /// `Iᵢ` feeds keyblock ℓ iff the split's slab intersects the
    /// preimage of the keyblock (§3.2).
    pub fn intersect(&self, other: &Slab) -> Result<Option<Slab>> {
        if other.rank() != self.rank() {
            return Err(CoordError::RankMismatch {
                expected: self.rank(),
                actual: other.rank(),
            });
        }
        let mut corner = Vec::with_capacity(self.rank());
        let mut extents = Vec::with_capacity(self.rank());
        for dim in 0..self.rank() {
            let lo = self.corner[dim].max(other.corner[dim]);
            let hi = (self.corner[dim] + self.shape[dim]).min(other.corner[dim] + other.shape[dim]);
            if lo >= hi {
                return Ok(None);
            }
            corner.push(lo);
            extents.push(hi - lo);
        }
        Ok(Some(Slab::new(Coord::new(corner), Shape::new(extents)?)?))
    }

    /// True when the slabs share at least one coordinate.
    pub fn intersects(&self, other: &Slab) -> bool {
        matches!(self.intersect(other), Ok(Some(_)))
    }

    /// Clips this slab against a space `[0, space)`, returning the
    /// contained portion (or `None` if entirely outside).
    pub fn clip_to(&self, space: &Shape) -> Result<Option<Slab>> {
        self.intersect(&Slab::whole(space))
    }

    /// Iterates all coordinates in the slab in row-major order
    /// (relative to the global space, i.e. absolute coordinates).
    pub fn iter_coords(&self) -> SlabIter {
        SlabIter {
            corner: self.corner.clone(),
            inner: self.shape.iter_coords(),
        }
    }

    /// Splits the slab into at most `n` pieces along its longest
    /// dimension, preserving row-major contiguity of the pieces.
    /// Used by split generation to respect a target split size.
    pub fn split_along_longest(&self, n: u64) -> Vec<Slab> {
        if n <= 1 {
            return vec![self.clone()];
        }
        // Longest dimension wins; ties go to the outermost (dimension
        // 0) so pieces stay contiguous in row-major file order.
        let (dim, &len) = self
            .shape
            .extents()
            .iter()
            .enumerate()
            .max_by_key(|&(i, &l)| (l, std::cmp::Reverse(i)))
            .expect("shape rank >= 1");
        let pieces = n.min(len);
        let base = len / pieces;
        let rem = len % pieces;
        let mut out = Vec::with_capacity(pieces as usize);
        let mut offset = 0u64;
        for p in 0..pieces {
            let this_len = base + u64::from(p < rem);
            let mut corner = self.corner.components().to_vec();
            corner[dim] += offset;
            let mut extents = self.shape.extents().to_vec();
            extents[dim] = this_len;
            out.push(
                Slab::new(
                    Coord::new(corner),
                    Shape::new(extents).expect("nonzero piece"),
                )
                .expect("piece within parent"),
            );
            offset += this_len;
        }
        out
    }
}

impl fmt::Debug for Slab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Slab{{corner: {}, shape: {}}}", self.corner, self.shape)
    }
}

impl fmt::Display for Slab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "corner: {} shape: {}", self.corner, self.shape)
    }
}

/// Row-major iterator over the absolute coordinates of a slab.
pub struct SlabIter {
    corner: Coord,
    inner: crate::shape::ShapeIter,
}

impl Iterator for SlabIter {
    type Item = Coord;
    fn next(&mut self) -> Option<Coord> {
        let rel = self.inner.next()?;
        Some(
            rel.checked_add(&self.corner)
                .expect("slab end checked at construction"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab(corner: &[u64], shape: &[u64]) -> Slab {
        Slab::new(Coord::from(corner), Shape::new(shape.to_vec()).unwrap()).unwrap()
    }

    #[test]
    fn paper_example_cube() {
        let s = slab(&[100, 0, 0], &[20, 50, 50]);
        assert_eq!(s.count(), 50_000);
        assert_eq!(s.to_string(), "corner: {100, 0, 0} shape: {20, 50, 50}");
    }

    #[test]
    fn contains_boundaries() {
        let s = slab(&[10, 10], &[5, 5]);
        assert!(s.contains(&Coord::from([10, 10])));
        assert!(s.contains(&Coord::from([14, 14])));
        assert!(!s.contains(&Coord::from([15, 10])));
        assert!(!s.contains(&Coord::from([9, 10])));
    }

    #[test]
    fn intersect_overlapping() {
        let a = slab(&[0, 0], &[10, 10]);
        let b = slab(&[5, 5], &[10, 10]);
        let i = a.intersect(&b).unwrap().unwrap();
        assert_eq!(i, slab(&[5, 5], &[5, 5]));
    }

    #[test]
    fn intersect_disjoint() {
        let a = slab(&[0, 0], &[5, 5]);
        let b = slab(&[5, 0], &[5, 5]);
        assert!(a.intersect(&b).unwrap().is_none());
        assert!(!a.intersects(&b));
    }

    #[test]
    fn intersect_is_commutative() {
        let a = slab(&[2, 3], &[7, 4]);
        let b = slab(&[5, 1], &[3, 9]);
        assert_eq!(a.intersect(&b).unwrap(), b.intersect(&a).unwrap());
    }

    #[test]
    fn contains_slab_checks_both_corners() {
        let outer = slab(&[0, 0], &[10, 10]);
        assert!(outer.contains_slab(&slab(&[2, 2], &[8, 8])));
        assert!(!outer.contains_slab(&slab(&[2, 2], &[9, 8])));
    }

    #[test]
    fn iter_coords_absolute_row_major() {
        let s = slab(&[1, 2], &[2, 2]);
        let got: Vec<Coord> = s.iter_coords().collect();
        assert_eq!(
            got,
            vec![
                Coord::from([1, 2]),
                Coord::from([1, 3]),
                Coord::from([2, 2]),
                Coord::from([2, 3]),
            ]
        );
    }

    #[test]
    fn split_along_longest_covers_exactly() {
        let s = slab(&[0, 0], &[10, 3]);
        let pieces = s.split_along_longest(4);
        assert_eq!(pieces.len(), 4);
        let total: u64 = pieces.iter().map(Slab::count).sum();
        assert_eq!(total, s.count());
        // Pieces are disjoint and ordered along dim 0.
        for w in pieces.windows(2) {
            assert!(!w[0].intersects(&w[1]));
            assert!(w[0].corner()[0] < w[1].corner()[0]);
        }
    }

    #[test]
    fn split_caps_at_dimension_length() {
        let s = slab(&[0], &[3]);
        assert_eq!(s.split_along_longest(10).len(), 3);
    }

    #[test]
    fn clip_to_space() {
        let space = Shape::new(vec![10, 10]).unwrap();
        let s = slab(&[8, 8], &[5, 5]);
        let clipped = s.clip_to(&space).unwrap().unwrap();
        assert_eq!(clipped, slab(&[8, 8], &[2, 2]));
        let outside = slab(&[10, 0], &[2, 2]);
        assert!(outside.clip_to(&space).unwrap().is_none());
    }
}
