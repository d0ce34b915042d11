//! Record sources and the structural Map function.
//!
//! SciHadoop's RecordReader reads a logical-coordinate split and
//! emits `(coordinate, value)` records (§2.4.1). The structural Map
//! function then translates each input key through the extraction
//! shape — the deterministic `K → K′` mapping that resolves Area 2 of
//! the opaque dataflow (§3) — and forwards the value unchanged.
//! Structural queries do all value computation in the Reduce operator,
//! so one input record produces at most one intermediate record,
//! which is the contract the count annotations rely on (§3.2.1): a
//! partition's annotation counts the records that map to its keys,
//! also where a `Filter`'s map-side selection or a combiner keeps
//! fewer. The map kernel ([`crate::geomap`]) applies it per key, not
//! per record.

use sidr_coords::{Coord, ExtractionShape};
use sidr_mapreduce::{InputSplit, MrError, RecordSource};
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

/// The structural Map function: `emit(extraction.map_key(k), v)`.
///
/// Keys in discarded partial instances or stride gaps produce nothing
/// ("assuming we throw away the data from the 365-th day", §3 Area 3),
/// and a `Filter` query's map keeps only the values that pass.
pub struct StructuralMapper {
    pub(crate) extraction: ExtractionShape,
    /// Corner of the query's input region; record keys are absolute
    /// and must be translated before extraction (§2.1's corner+shape
    /// query inputs).
    pub(crate) region_corner: Option<Coord>,
    /// Map-side selection: a `Filter` query's map emits only values
    /// strictly above its threshold. Query 2's 3σ filter passes 0.1 %
    /// of the data (§4.1), and selecting below the shuffle is what
    /// makes its Reduce tasks "process far less data". The selection is
    /// a local, per-value decision that the reduce repeats, so output
    /// is unchanged, and each partition's annotation still counts the
    /// pairs its map *represents* — the geometric tally (§3.2.1).
    pub(crate) predicate_gt: Option<f64>,
}

impl StructuralMapper {
    /// Builds the mapper for a query, honoring its input region and,
    /// for a `Filter`, its predicate.
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
            predicate_gt: match query.operator {
                crate::operators::Operator::Filter { threshold } => Some(threshold),
                _ => None,
            },
        }
    }
}
