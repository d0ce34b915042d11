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
/// `(index_a, index_b, shared_count)`: of all overlapping pairs, the
/// lowest `(a, b)` with `a < b`, the pair a pairwise scan meets first.
///
/// A sweep along dimension 0: slabs in order of their first corner
/// component, each intersected only with the slabs whose dim-0 range is
/// still open where it starts. Slabs stacked along dim 0 (row splits)
/// cost O(n log n); slabs that all span dim 0 still meet pairwise.
pub fn first_overlap(slabs: &[Slab]) -> Option<(usize, usize, u64)> {
    // Dim-0 range; a rank-0 slab is one point, so two of them still meet.
    let span = |i: usize| {
        let s = &slabs[i];
        match s.corner().components().first() {
            Some(&lo) => (lo, lo.saturating_add(s.shape()[0])),
            None => (0, 1),
        }
    };
    let mut order: Vec<usize> = (0..slabs.len()).collect();
    order.sort_by_key(|&i| span(i).0);
    let mut open: Vec<usize> = Vec::new();
    let mut first: Option<(usize, usize, u64)> = None;
    for j in order {
        let start = span(j).0;
        open.retain(|&i| span(i).1 > start);
        for &i in &open {
            let shared = overlap_count(&slabs[i], &slabs[j]);
            let (a, b) = (i.min(j), i.max(j));
            if shared > 0 && first.is_none_or(|(fa, fb, _)| (a, b) < (fa, fb)) {
                first = Some((a, b, shared));
            }
        }
        open.push(j);
    }
    first
}

/// Index of the first slab not inside `[0, space)`.
pub fn first_out_of_bounds(slabs: &[Slab], space: &Shape) -> Option<usize> {
    let whole = Slab::whole(space);
    slabs.iter().position(|s| !whole.contains_slab(s))
}

/// Checks that `slabs` exactly tile `[0, space)`: all in bounds,
/// pairwise disjoint ([`first_overlap`]), counts summing to
/// `space.count()`. Disjointness plus an exact count balance implies
/// every coordinate is covered exactly once, so no per-key enumeration
/// is needed. Returns the first defect found, or `None` for an exact
/// cover.
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

    /// The sweep reports the pair a pairwise scan meets first, however
    /// the slabs are ordered along dimension 0.
    #[test]
    fn first_overlap_is_the_lowest_pair() {
        // #3 overlaps #1 and #0; #2 overlaps #1. Lowest: (0, 3).
        let slabs = vec![
            slab(&[6, 0], &[2, 2]),
            slab(&[0, 0], &[4, 2]),
            slab(&[3, 1], &[1, 1]),
            slab(&[1, 0], &[6, 1]),
        ];
        assert_eq!(first_overlap(&slabs), Some((0, 3, 1)));
        let brute = |s: &[Slab]| {
            (0..s.len())
                .flat_map(|a| (a + 1..s.len()).map(move |b| (a, b)))
                .map(|(a, b)| (a, b, overlap_count(&s[a], &s[b])))
                .find(|p| p.2 > 0)
        };
        for n in 0..slabs.len() {
            let mut rotated = slabs.clone();
            rotated.rotate_left(n);
            assert_eq!(first_overlap(&rotated), brute(&rotated), "rotated by {n}");
        }
        // Columns: every dim-0 range meets every other, none overlap.
        let columns: Vec<Slab> = (0..5).map(|c| slab(&[0, c], &[4, 1])).collect();
        assert_eq!(first_overlap(&columns), None);
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
