//! Exact-cover checks over slab collections.
//!
//! `partition+` promises that keyblock covers *tile* the intermediate
//! keyspace `K′ᵀ`: every key belongs to exactly one keyblock (§3.1).
//! The static plan verifier proves this by intersecting the slabs of a
//! candidate cover pairwise and balancing their element counts against
//! the space. These helpers are the geometric core of that proof and
//! are usable for any "do these slabs partition this space?" question.

use crate::shape::Shape;
use crate::slab::Slab;

/// How a slab collection fails to be an exact cover of a space.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoverDefect {
    /// Slab `index` sticks out of (or lies outside) the space.
    OutOfBounds { index: usize },
    /// Slabs `a` and `b` share `shared` coordinates.
    Overlap { a: usize, b: usize, shared: u64 },
    /// The slabs are in-bounds and pairwise disjoint but their total
    /// element count differs from the space's: `covered < expected`
    /// means at least one key is owned by no slab.
    CountMismatch { covered: u64, expected: u64 },
}

impl std::fmt::Display for CoverDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoverDefect::OutOfBounds { index } => {
                write!(f, "slab #{index} extends outside the space")
            }
            CoverDefect::Overlap { a, b, shared } => {
                write!(f, "slabs #{a} and #{b} overlap in {shared} coordinates")
            }
            CoverDefect::CountMismatch { covered, expected } => {
                write!(
                    f,
                    "slabs cover {covered} coordinates, space holds {expected}"
                )
            }
        }
    }
}

/// Number of coordinates two slabs share (0 when disjoint or of
/// different rank).
pub fn overlap_count(a: &Slab, b: &Slab) -> u64 {
    match a.intersect(b) {
        Ok(Some(i)) => i.count(),
        _ => 0,
    }
}

/// Sum of the element counts of a slab collection.
pub fn total_count(slabs: &[Slab]) -> u64 {
    slabs.iter().map(Slab::count).sum()
}

/// First overlapping pair in a slab collection, as
/// `(index_a, index_b, shared_count)`.
///
/// O(n²) pairwise intersection; fine for keyblock covers (a few slabs
/// per grid row), not meant for millions of slabs.
pub fn first_overlap(slabs: &[Slab]) -> Option<(usize, usize, u64)> {
    for (i, a) in slabs.iter().enumerate() {
        for (j, b) in slabs.iter().enumerate().skip(i + 1) {
            let shared = overlap_count(a, b);
            if shared > 0 {
                return Some((i, j, shared));
            }
        }
    }
    None
}

/// Index of the first slab not inside `[0, space)`.
pub fn first_out_of_bounds(slabs: &[Slab], space: &Shape) -> Option<usize> {
    let whole = Slab::whole(space);
    slabs.iter().position(|s| !whole.contains_slab(s))
}

/// Checks that `slabs` exactly tile `[0, space)`: all in bounds,
/// pairwise disjoint, counts summing to `space.count()`. Disjointness
/// plus an exact count balance implies every coordinate is covered
/// exactly once, so no per-key enumeration is needed. Returns the
/// first defect found, or `None` for an exact cover.
pub fn exact_cover_defect(slabs: &[Slab], space: &Shape) -> Option<CoverDefect> {
    if let Some(index) = first_out_of_bounds(slabs, space) {
        return Some(CoverDefect::OutOfBounds { index });
    }
    if let Some((a, b, shared)) = first_overlap(slabs) {
        return Some(CoverDefect::Overlap { a, b, shared });
    }
    let covered = total_count(slabs);
    if covered != space.count() {
        return Some(CoverDefect::CountMismatch {
            covered,
            expected: space.count(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coord::Coord;

    fn slab(corner: &[u64], shape: &[u64]) -> Slab {
        Slab::new(
            Coord::new(corner.to_vec()),
            Shape::new(shape.to_vec()).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn exact_cover_passes() {
        let space = Shape::new(vec![4, 6]).unwrap();
        let slabs = vec![slab(&[0, 0], &[2, 6]), slab(&[2, 0], &[2, 6])];
        assert_eq!(exact_cover_defect(&slabs, &space), None);
    }

    #[test]
    fn overlap_detected_with_shared_count() {
        let space = Shape::new(vec![4, 6]).unwrap();
        let slabs = vec![slab(&[0, 0], &[3, 6]), slab(&[2, 0], &[2, 6])];
        assert_eq!(
            exact_cover_defect(&slabs, &space),
            Some(CoverDefect::Overlap {
                a: 0,
                b: 1,
                shared: 6
            })
        );
        assert_eq!(overlap_count(&slabs[0], &slabs[1]), 6);
    }

    #[test]
    fn gap_detected_as_count_mismatch() {
        let space = Shape::new(vec![4, 6]).unwrap();
        let slabs = vec![slab(&[0, 0], &[2, 6]), slab(&[3, 0], &[1, 6])];
        assert_eq!(
            exact_cover_defect(&slabs, &space),
            Some(CoverDefect::CountMismatch {
                covered: 18,
                expected: 24
            })
        );
    }

    #[test]
    fn out_of_bounds_detected_first() {
        let space = Shape::new(vec![4, 6]).unwrap();
        let slabs = vec![slab(&[0, 0], &[2, 6]), slab(&[2, 0], &[3, 6])];
        assert_eq!(
            exact_cover_defect(&slabs, &space),
            Some(CoverDefect::OutOfBounds { index: 1 })
        );
    }

    #[test]
    fn disjoint_slabs_report_zero_overlap() {
        assert_eq!(
            overlap_count(&slab(&[0, 0], &[2, 2]), &slab(&[2, 2], &[2, 2])),
            0
        );
        assert_eq!(first_overlap(&[slab(&[0, 0], &[1, 1])]), None);
    }
}
