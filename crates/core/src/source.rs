//! Record sources and the structural Map function.
//!
//! SciHadoop's RecordReader reads a logical-coordinate split and
//! emits `(coordinate, value)` records (§2.4.1). The structural Map
//! function then translates each input key through the extraction
//! shape — the deterministic `K → K′` mapping that resolves Area 2 of
//! the opaque dataflow (§3) — and forwards the value unchanged.
//! Structural queries do all value computation in the Reduce operator,
//! so one input record produces at most one intermediate record,
//! which is the contract the count annotations rely on (§3.2.1).

use sidr_coords::{Coord, ExtractionShape};
use sidr_mapreduce::{InputSplit, MapTaskId, Mapper, MrError, RecordSource};
use sidr_scifile::{Element, ScincFile, SlabRecordReader};

/// Streams `(Coord, f64)` records of one split from a SciNC file,
/// converting the variable's native element type to `f64`.
pub struct ScincRecordSource<'f, E: Element> {
    inner: SlabRecordReader<'f, E>,
}

impl<'f, E: Element> ScincRecordSource<'f, E> {
    pub fn open(
        file: &'f ScincFile,
        variable: &str,
        split: &InputSplit,
    ) -> sidr_mapreduce::Result<Self> {
        let inner = SlabRecordReader::new(file, variable, split.slab.clone())
            .map_err(|e| MrError::Source(e.to_string()))?;
        Ok(ScincRecordSource { inner })
    }
}

impl<E: Element> RecordSource for ScincRecordSource<'_, E> {
    type Key = Coord;
    type Value = f64;

    fn next_record(&mut self) -> sidr_mapreduce::Result<Option<(Coord, f64)>> {
        match self.inner.next_record() {
            Ok(Some((c, v))) => Ok(Some((c, v.to_f64()))),
            Ok(None) => Ok(None),
            Err(e) => Err(MrError::Source(e.to_string())),
        }
    }

    fn total_hint(&self) -> Option<u64> {
        Some(self.inner.total())
    }
}

/// A factory closure for the engine: opens one source per Map task.
pub fn scinc_source_factory<'f, E: Element>(
    file: &'f ScincFile,
    variable: &'f str,
) -> impl Fn(MapTaskId, &InputSplit) -> sidr_mapreduce::Result<ScincRecordSource<'f, E>> + Sync + 'f
{
    move |_id, split| ScincRecordSource::open(file, variable, split)
}

/// The structural Map function: `emit(extraction.map_key(k), v)`.
///
/// Keys in discarded partial instances or stride gaps produce nothing
/// ("assuming we throw away the data from the 365-th day", §3 Area 3).
pub struct StructuralMapper {
    pub(crate) extraction: ExtractionShape,
    /// Corner of the query's input region; record keys are absolute
    /// and must be translated before extraction (§2.1's corner+shape
    /// query inputs).
    pub(crate) region_corner: Option<Coord>,
    /// Emit the instance's *corner coordinate* in `K` instead of the
    /// normalized instance index — how a SciHadoop query author
    /// naturally names output positions, and the key pattern
    /// ("coordinates at fixed intervals") whose binary representation
    /// defeats hash-modulo partitioning (§4.3).
    pub(crate) corner_keys: bool,
    /// Map-side selection push-down: emit only values strictly above
    /// this threshold. Query 2's 3σ filter passes 0.1 % of the data
    /// (§4.1) — pushing the predicate below the shuffle is what makes
    /// its Reduce tasks "process far less data". Filtering is a local,
    /// per-value decision, so the final output is unchanged; the count
    /// annotations no longer equal the geometric expectation, so
    /// §3.2.1 approach-2 validation is unavailable (approach 1, the
    /// `I_ℓ` barrier, still guarantees correctness).
    pub(crate) predicate_gt: Option<f64>,
}

impl StructuralMapper {
    pub fn new(extraction: ExtractionShape) -> Self {
        StructuralMapper {
            extraction,
            region_corner: None,
            corner_keys: false,
            predicate_gt: None,
        }
    }

    /// Builds the mapper for a query, honoring its input region.
    pub fn for_query(query: &crate::query::StructuralQuery) -> Self {
        let region = query.region();
        let corner = region.corner();
        StructuralMapper {
            extraction: query.extraction.clone(),
            region_corner: corner
                .components()
                .iter()
                .any(|&c| c != 0)
                .then(|| corner.clone()),
            corner_keys: false,
            predicate_gt: None,
        }
    }

    /// Switches to corner-coordinate intermediate keys (§4.3's
    /// pattern). Only meaningful under hash partitioning — SIDR's
    /// `partition+` expects normalized `K′` keys.
    pub fn emit_corner_keys(mut self) -> Self {
        self.corner_keys = true;
        self
    }

    /// Pushes a `value > threshold` selection below the shuffle.
    pub fn push_down_filter(mut self, threshold: f64) -> Self {
        self.predicate_gt = Some(threshold);
        self
    }
}

impl Mapper for StructuralMapper {
    type InKey = Coord;
    type InValue = f64;
    type OutKey = Coord;
    type OutValue = f64;

    fn map(&self, key: &Coord, value: &f64, emit: &mut dyn FnMut(Coord, f64)) {
        if let Some(threshold) = self.predicate_gt {
            if *value <= threshold {
                return;
            }
        }
        // Translate absolute keys into the query region's frame.
        let rel;
        let key = match &self.region_corner {
            None => key,
            Some(corner) => {
                let Ok(r) = key.checked_sub(corner) else {
                    return; // outside the region: below the corner
                };
                if !self.extraction.input_space().contains(&r) {
                    return; // outside the region: beyond the extent
                }
                rel = r;
                &rel
            }
        };
        // A key beyond the extent of a region cornered at the origin
        // is outside the region too.
        if let Ok(Some(k_prime)) = self.extraction.map_key(key) {
            if self.corner_keys {
                let corner = k_prime
                    .component_mul(self.extraction.stride())
                    .expect("rank matches by construction");
                emit(corner, *value);
            } else {
                emit(k_prime, *value);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_coords::Shape;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    #[test]
    fn structural_mapper_translates_and_drops() {
        let es = ExtractionShape::new(shape(&[10]), shape(&[4])).unwrap();
        let m = StructuralMapper::new(es);
        let mut out = Vec::new();
        for i in 0..10u64 {
            m.map(&Coord::from([i]), &(i as f64), &mut |k, v| out.push((k, v)));
        }
        // Keys 0..8 map to instances 0 and 1; keys 8..10 discarded.
        assert_eq!(out.len(), 8);
        assert!(out[..4].iter().all(|(k, _)| k == &Coord::from([0])));
        assert!(out[4..].iter().all(|(k, _)| k == &Coord::from([1])));
    }
}
