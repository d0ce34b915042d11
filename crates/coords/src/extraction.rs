//! Extraction shapes: the deterministic `K → K′` key translation.
//!
//! The extraction shape "is a concrete representation of the units of
//! data that the operator … will be applied to. The extraction shape
//! is logically tiled, in a given order, over `K_T` with each instance
//! representing a unique `k′` key in `K′`" (§2.4.2). SIDR resolves the
//! three opaque areas of the MapReduce dataflow with it (§3):
//!
//! * **Area 2** — [`ExtractionShape::map_key`] translates an input key
//!   `k` to its intermediate key `k′` by component-wise division.
//! * **Area 3** — [`ExtractionShape::intermediate_space`] computes the
//!   exact extent of `K′ᵀ` from the input space and the shape, before
//!   any Map task runs.
//! * Dependency derivation — [`ExtractionShape::image_of_slab`] maps an
//!   input split's slab to the set of `K′` keys it can produce.

use serde::{Deserialize, Serialize};

use crate::coord::Coord;
use crate::error::CoordError;
use crate::shape::Shape;
use crate::slab::Slab;
use crate::tiling::{PartialPolicy, Tiling};
use crate::Result;

/// A query's extraction shape over a concrete input space.
///
/// Couples the shape (e.g. `{7, 5, 1}`: weekly averages, ½°-latitude
/// down-sampling) with the input space it tiles (e.g. `{365, 250,
/// 200}`), an optional stride for strided access, and the paper's
/// partial-instance policy (partials are discarded).
///
/// ```
/// use sidr_coords::{Coord, ExtractionShape, Shape};
///
/// // §3's running example: weekly, half-degree-latitude averages.
/// let es = ExtractionShape::new(
///     Shape::new(vec![365, 250, 200])?,
///     Shape::new(vec![7, 5, 1])?,
/// )?;
/// assert_eq!(es.intermediate_space()?, Shape::new(vec![52, 50, 200])?);
/// assert_eq!(
///     es.map_key(&Coord::from([157, 34, 82]))?,
///     Some(Coord::from([22, 6, 82])),
/// );
/// # Ok::<(), sidr_coords::CoordError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExtractionShape {
    tiling: Tiling,
}

impl ExtractionShape {
    /// Disjoint extraction: instances tile the space edge to edge.
    pub fn new(input_space: Shape, shape: Shape) -> Result<Self> {
        Ok(ExtractionShape {
            tiling: Tiling::new(input_space, shape, PartialPolicy::Discard)?,
        })
    }

    /// Strided extraction: instance corners every `stride` elements
    /// (`stride[d] >= shape[d]`, §2.4.2).
    pub fn with_stride(input_space: Shape, shape: Shape, stride: Vec<u64>) -> Result<Self> {
        Ok(ExtractionShape {
            tiling: Tiling::with_stride(input_space, shape, stride, PartialPolicy::Discard)?,
        })
    }

    /// The input space `Kᵀ` this extraction is defined over.
    pub fn input_space(&self) -> &Shape {
        self.tiling.space()
    }

    /// The extraction shape itself.
    pub fn shape(&self) -> &Shape {
        self.tiling.tile()
    }

    /// Per-dimension stride.
    pub fn stride(&self) -> &[u64] {
        self.tiling.stride()
    }

    /// The underlying tiling (shared machinery with `partition+`).
    pub fn tiling(&self) -> &Tiling {
        &self.tiling
    }

    /// The exact intermediate keyspace `K′ᵀ` (§3 Area 3).
    ///
    /// E.g. a `{365, 250, 200}` input with a `{7, 5, 1}` extraction
    /// shape yields `{52, 50, 200}` — 52 weekly measurements at ½°
    /// latitude, 1/10° longitude. Errors with [`CoordError::ZeroDim`]
    /// when the shape is larger than the space in some dimension (the
    /// query produces no output).
    pub fn intermediate_space(&self) -> Result<Shape> {
        for (dim, &g) in self.tiling.grid().iter().enumerate() {
            if g == 0 {
                return Err(CoordError::ZeroDim { dim });
            }
        }
        Shape::new(self.tiling.grid().to_vec())
    }

    /// Translates an input key `k ∈ K` to its intermediate key
    /// `k′ ∈ K′` (§3 Area 2), or `None` when the key falls in a
    /// discarded partial instance or a stride gap.
    pub fn map_key(&self, k: &Coord) -> Result<Option<Coord>> {
        self.tiling.instance_of(k)
    }

    /// Row-major linear index of the instance containing `k` — the
    /// scalar form of [`ExtractionShape::map_key`], used as the sort
    /// key for intermediate data.
    pub fn map_key_linear(&self, k: &Coord) -> Result<Option<u64>> {
        self.tiling.instance_index_of(k)
    }

    /// The preimage in `K` of a single intermediate key: the slab of
    /// input keys that fold into `k′`.
    pub fn preimage_of_key(&self, k_prime: &Coord) -> Result<Slab> {
        let idx = self.tiling.linearize_grid(k_prime)?;
        self.tiling.instance_slab(idx)
    }

    /// The slab of intermediate keys an input slab can produce, or
    /// `None` when it produces none (entirely inside discarded
    /// partials / stride gaps). Superset-safe under strides (§3.2).
    pub fn image_of_slab(&self, input: &Slab) -> Result<Option<Slab>> {
        self.tiling.instances_touched_by(input)
    }

    /// Number of input keys that fold into intermediate key `k_prime`
    /// (the size of its preimage — all extraction instances here are
    /// full because partials are discarded).
    pub fn fold_in_count(&self, k_prime: &Coord) -> Result<u64> {
        Ok(self.preimage_of_key(k_prime)?.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    fn slab(corner: &[u64], sh: &[u64]) -> Slab {
        Slab::new(Coord::from(corner), shape(sh)).unwrap()
    }

    #[test]
    fn paper_intermediate_space() {
        // §3 Area 3: {365,250,200} with {7,5,1} → {52,50,200}.
        let es = ExtractionShape::new(shape(&[365, 250, 200]), shape(&[7, 5, 1])).unwrap();
        assert_eq!(es.intermediate_space().unwrap(), shape(&[52, 50, 200]));
    }

    #[test]
    fn paper_key_translation() {
        // §3 Area 2: {157,34,82} / {7,5,1} = {22,6,82}.
        let es = ExtractionShape::new(shape(&[365, 250, 200]), shape(&[7, 5, 1])).unwrap();
        assert_eq!(
            es.map_key(&Coord::from([157, 34, 82])).unwrap(),
            Some(Coord::from([22, 6, 82]))
        );
    }

    #[test]
    fn query1_windspeed_space() {
        // §4.1 Query 1: {7200,360,720,50} with {2,36,36,10} →
        // {3600,10,20,5}.
        let es =
            ExtractionShape::new(shape(&[7200, 360, 720, 50]), shape(&[2, 36, 36, 10])).unwrap();
        assert_eq!(es.intermediate_space().unwrap(), shape(&[3600, 10, 20, 5]));
    }

    #[test]
    fn upsampling_not_expressible_downsampling_is() {
        // Figure 6(b): a {2,2} extraction folds 4 input keys into 1.
        let es = ExtractionShape::new(shape(&[4, 4]), shape(&[2, 2])).unwrap();
        assert_eq!(es.fold_in_count(&Coord::from([0, 0])).unwrap(), 4);
        for k in slab(&[0, 0], &[2, 2]).iter_coords() {
            assert_eq!(es.map_key(&k).unwrap(), Some(Coord::from([0, 0])));
        }
    }

    #[test]
    fn discarded_tail_maps_to_none() {
        let es = ExtractionShape::new(shape(&[365, 250, 200]), shape(&[7, 5, 1])).unwrap();
        // Day 364 is in the discarded 53rd week.
        assert_eq!(es.map_key(&Coord::from([364, 0, 0])).unwrap(), None);
    }

    #[test]
    fn preimage_inverts_map() {
        let es = ExtractionShape::new(shape(&[12, 9]), shape(&[3, 3])).unwrap();
        for kp in es.intermediate_space().unwrap().iter_coords() {
            let pre = es.preimage_of_key(&kp).unwrap();
            assert_eq!(pre.count(), 9);
            for k in pre.iter_coords() {
                assert_eq!(es.map_key(&k).unwrap().as_ref(), Some(&kp));
            }
        }
    }

    #[test]
    fn image_of_slab_covers_all_produced_keys() {
        let es = ExtractionShape::new(shape(&[10, 10]), shape(&[3, 3])).unwrap();
        let split = slab(&[2, 4], &[5, 3]);
        let image = es.image_of_slab(&split).unwrap().unwrap();
        for k in split.iter_coords() {
            if let Some(kp) = es.map_key(&k).unwrap() {
                assert!(image.contains(&kp), "key {k} → {kp} outside image {image}");
            }
        }
    }

    #[test]
    fn image_of_slab_none_when_in_discarded_region() {
        // Space {10}, shape {4}: grid {2} covers [0,8); [8,10) discarded.
        let es = ExtractionShape::new(shape(&[10]), shape(&[4])).unwrap();
        assert!(es.image_of_slab(&slab(&[8], &[2])).unwrap().is_none());
    }

    #[test]
    fn strided_extraction_image() {
        // Tile {2}, stride {4} over {16}: instances at 0,4,8,12.
        let es = ExtractionShape::with_stride(shape(&[16]), shape(&[2]), vec![4]).unwrap();
        assert_eq!(es.intermediate_space().unwrap(), shape(&[4]));
        assert_eq!(
            es.map_key(&Coord::from([5])).unwrap(),
            Some(Coord::from([1]))
        );
        assert_eq!(es.map_key(&Coord::from([6])).unwrap(), None);
        // A slab covering only a gap still yields a bounding image —
        // superset-safe, possibly non-empty.
        let img = es.image_of_slab(&slab(&[4], &[2])).unwrap().unwrap();
        assert!(img.contains(&Coord::from([1])));
    }

    #[test]
    fn oversized_shape_yields_zero_dim_error() {
        let es = ExtractionShape::new(shape(&[3, 10]), shape(&[5, 2])).unwrap();
        assert!(matches!(
            es.intermediate_space(),
            Err(CoordError::ZeroDim { dim: 0 })
        ));
    }
}
