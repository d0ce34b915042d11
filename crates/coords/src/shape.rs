//! Shapes: per-dimension extents of an n-dimensional space, plus
//! row-major linearization.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Index;

use crate::coord::Coord;
use crate::error::CoordError;
use crate::Result;

/// The extents of an n-dimensional space (e.g. `{365, 250, 200}` for
/// the paper's temperature dataset: 365 days × 250 latitudes × 200
/// longitudes).
///
/// Shapes are validated at construction: every dimension must be
/// non-zero, the rank must be at least 1, and the total element count
/// must fit in `u64`. This lets the rest of the crate rely on those
/// invariants without re-checking.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape(Vec<u64>);

impl Shape {
    /// Creates a shape, validating all invariants.
    pub fn new(extents: impl Into<Vec<u64>>) -> Result<Self> {
        let extents = extents.into();
        if extents.is_empty() {
            return Err(CoordError::EmptyRank);
        }
        let mut count: u64 = 1;
        for (dim, &e) in extents.iter().enumerate() {
            if e == 0 {
                return Err(CoordError::ZeroDim { dim });
            }
            count = count.checked_mul(e).ok_or(CoordError::Overflow)?;
        }
        Ok(Shape(extents))
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Per-dimension extents.
    #[inline]
    pub fn extents(&self) -> &[u64] {
        &self.0
    }

    /// Total number of elements (product of extents). Cannot overflow:
    /// checked at construction.
    #[inline]
    pub fn count(&self) -> u64 {
        self.0.iter().product()
    }

    /// True when `coord` lies inside this shape (interpreted as the
    /// space `[0, e₀) × [0, e₁) × …`).
    pub fn contains(&self, coord: &Coord) -> bool {
        coord.rank() == self.rank() && coord.strictly_below(&self.0)
    }

    /// Row-major (C-order, last dimension fastest) linear index of a
    /// coordinate. This is the on-disk order of SciNC variables and
    /// the key order used throughout the paper's examples.
    pub fn linearize(&self, coord: &Coord) -> Result<u64> {
        if coord.rank() != self.rank() {
            return Err(CoordError::RankMismatch {
                expected: self.rank(),
                actual: coord.rank(),
            });
        }
        let mut index: u64 = 0;
        for (dim, (&c, &e)) in coord.components().iter().zip(&self.0).enumerate() {
            if c >= e {
                return Err(CoordError::OutOfBounds {
                    dim,
                    coordinate: c,
                    extent: e,
                });
            }
            index = index * e + c;
        }
        Ok(index)
    }

    /// Inverse of [`Shape::linearize`].
    pub fn delinearize(&self, mut index: u64) -> Result<Coord> {
        let count = self.count();
        if index >= count {
            return Err(CoordError::IndexOutOfBounds { index, count });
        }
        let mut components = vec![0u64; self.rank()];
        for dim in (0..self.rank()).rev() {
            let e = self.0[dim];
            components[dim] = index % e;
            index /= e;
        }
        Ok(Coord::new(components))
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Shape{:?}", self.0)
    }
}

impl fmt::Display for Shape {
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

impl Index<usize> for Shape {
    type Output = u64;
    #[inline]
    fn index(&self, dim: usize) -> &u64 {
        &self.0[dim]
    }
}

impl TryFrom<Vec<u64>> for Shape {
    type Error = CoordError;
    fn try_from(v: Vec<u64>) -> Result<Self> {
        Shape::new(v)
    }
}

/// Iterator over all coordinates of a shape in row-major order.
///
/// Yields `count()` coordinates; the last dimension varies fastest,
/// matching [`Shape::linearize`].
pub struct ShapeIter {
    extents: Vec<u64>,
    next: Option<Vec<u64>>,
}

impl ShapeIter {
    pub(crate) fn new(shape: &Shape) -> Self {
        ShapeIter {
            extents: shape.extents().to_vec(),
            next: Some(vec![0; shape.rank()]),
        }
    }
}

impl Iterator for ShapeIter {
    type Item = Coord;

    fn next(&mut self) -> Option<Coord> {
        let current = self.next.take()?;
        let mut succ = current.clone();
        // Row-major increment: bump the last dimension, carrying left.
        let mut dim = self.extents.len();
        loop {
            if dim == 0 {
                // Carried past the first dimension: iteration complete.
                self.next = None;
                break;
            }
            dim -= 1;
            succ[dim] += 1;
            if succ[dim] < self.extents[dim] {
                self.next = Some(succ);
                break;
            }
            succ[dim] = 0;
        }
        Some(Coord::new(current))
    }
}

impl Shape {
    /// Iterates every coordinate of the space in row-major order.
    pub fn iter_coords(&self) -> ShapeIter {
        ShapeIter::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_dim_and_empty() {
        assert!(matches!(
            Shape::new(vec![3, 0, 2]),
            Err(CoordError::ZeroDim { dim: 1 })
        ));
        assert!(matches!(
            Shape::new(Vec::<u64>::new()),
            Err(CoordError::EmptyRank)
        ));
    }

    #[test]
    fn rejects_overflowing_count() {
        assert!(matches!(
            Shape::new(vec![u64::MAX, 2]),
            Err(CoordError::Overflow)
        ));
    }

    #[test]
    fn count_is_product() {
        let s = Shape::new(vec![365, 250, 200]).unwrap();
        assert_eq!(s.count(), 365 * 250 * 200);
    }

    #[test]
    fn linearize_row_major() {
        let s = Shape::new(vec![2, 3, 4]).unwrap();
        assert_eq!(s.linearize(&Coord::from([0, 0, 0])).unwrap(), 0);
        assert_eq!(s.linearize(&Coord::from([0, 0, 1])).unwrap(), 1);
        assert_eq!(s.linearize(&Coord::from([0, 1, 0])).unwrap(), 4);
        assert_eq!(s.linearize(&Coord::from([1, 0, 0])).unwrap(), 12);
        assert_eq!(s.linearize(&Coord::from([1, 2, 3])).unwrap(), 23);
    }

    #[test]
    fn linearize_out_of_bounds() {
        let s = Shape::new(vec![2, 3]).unwrap();
        assert!(matches!(
            s.linearize(&Coord::from([0, 3])),
            Err(CoordError::OutOfBounds { dim: 1, .. })
        ));
    }

    #[test]
    fn delinearize_inverts_linearize() {
        let s = Shape::new(vec![3, 4, 5]).unwrap();
        for idx in 0..s.count() {
            let c = s.delinearize(idx).unwrap();
            assert_eq!(s.linearize(&c).unwrap(), idx);
        }
    }

    #[test]
    fn iter_coords_in_linear_order() {
        let s = Shape::new(vec![2, 3]).unwrap();
        let coords: Vec<Coord> = s.iter_coords().collect();
        assert_eq!(coords.len(), 6);
        for (i, c) in coords.iter().enumerate() {
            assert_eq!(s.linearize(c).unwrap(), i as u64);
        }
    }

    #[test]
    fn contains_checks_rank_and_bounds() {
        let s = Shape::new(vec![2, 2]).unwrap();
        assert!(s.contains(&Coord::from([1, 1])));
        assert!(!s.contains(&Coord::from([2, 0])));
        assert!(!s.contains(&Coord::from([0, 0, 0])));
    }
}
