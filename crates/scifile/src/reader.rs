//! RecordReader: iterate the key/value pairs of an input split.
//!
//! "Each split is assigned to one Map task that employs a file-format
//! specific library, called a RecordReader, to read the assigned `Iᵢ`
//! and output key/value pairs" (§2.3). In SciHadoop — and therefore
//! here — the split is a [`Slab`] in logical coordinates, so the keys
//! produced are exactly the coordinates of the slab: `Iᵢ ≡ K_Tᵢ`
//! (§2.4.1), the equivalence SIDR's Area-1 resolution rests on.

use sidr_coords::{Coord, Slab};

use crate::file::ScincFile;
use crate::value::Element;
use crate::Result;

/// The chunks a split is read in, in reading order: at most 64 pieces
/// cut along the slab's longest dimension (ties go to the leading one),
/// so memory stays bounded by one chunk.
///
/// This is the one definition of a split's *record order*: chunk-major,
/// each chunk row-major. When the longest dimension is not the leading
/// one, that is not the slab's global row-major order. MapReduce
/// correctness does not depend on record order within a Map task
/// (§2.3), but the order in which equal keys' values reach a reducer
/// does fix floating-point sums, so [`SlabRecordReader`] and the
/// geometric map kernel of spec jobs both read through here.
pub fn read_chunks(slab: &Slab) -> Vec<Slab> {
    slab.split_along_longest(slab.shape()[0].min(64))
}

/// Streams `(Coord, E)` records of one slab of one variable, reading
/// the file in bounded chunks, in [`read_chunks`] order.
pub struct SlabRecordReader<'f, E: Element> {
    file: &'f ScincFile,
    variable: String,
    slab: Slab,
    /// [`read_chunks`] of the slab, read one at a time.
    chunks: Vec<Slab>,
    next_chunk: usize,
    current: Vec<E>,
    current_coords: Option<sidr_coords::slab::SlabIter>,
    pos_in_chunk: usize,
    produced: u64,
}

impl<'f, E: Element> SlabRecordReader<'f, E> {
    /// Opens a reader over `slab` of `variable`.
    pub fn new(file: &'f ScincFile, variable: &str, slab: Slab) -> Result<Self> {
        let chunks = read_chunks(&slab);
        Ok(SlabRecordReader {
            file,
            variable: variable.to_string(),
            slab,
            chunks,
            next_chunk: 0,
            current: Vec::new(),
            current_coords: None,
            pos_in_chunk: 0,
            produced: 0,
        })
    }

    /// The split this reader serves.
    pub fn slab(&self) -> &Slab {
        &self.slab
    }

    /// Records produced so far.
    pub fn produced(&self) -> u64 {
        self.produced
    }

    /// Total records this reader will produce (`|K_Tᵢ|`).
    pub fn total(&self) -> u64 {
        self.slab.count()
    }

    fn load_next_chunk(&mut self) -> Result<bool> {
        if self.next_chunk >= self.chunks.len() {
            return Ok(false);
        }
        let chunk = self.chunks[self.next_chunk].clone();
        self.next_chunk += 1;
        self.current = self.file.read_slab::<E>(&self.variable, &chunk)?;
        self.current_coords = Some(chunk.iter_coords());
        self.pos_in_chunk = 0;
        Ok(true)
    }

    /// Reads the next record, or `None` at end of split.
    pub fn next_record(&mut self) -> Result<Option<(Coord, E)>> {
        loop {
            if let Some(iter) = &mut self.current_coords {
                if let Some(coord) = iter.next() {
                    let value = self.current[self.pos_in_chunk];
                    self.pos_in_chunk += 1;
                    self.produced += 1;
                    return Ok(Some((coord, value)));
                }
                self.current_coords = None;
            }
            if !self.load_next_chunk()? {
                return Ok(None);
            }
        }
    }

    /// Drains the remaining records into a vector (test convenience).
    pub fn collect_all(mut self) -> Result<Vec<(Coord, E)>> {
        let mut out = Vec::with_capacity(self.total() as usize);
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

/// Convenience: reads every record of a slab at once.
pub fn read_records<E: Element>(
    file: &ScincFile,
    variable: &str,
    slab: &Slab,
) -> Result<Vec<(Coord, E)>> {
    SlabRecordReader::new(file, variable, slab.clone())?.collect_all()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{DataType, Dimension, Metadata, Variable};
    use sidr_coords::Shape;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sidr-reader-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn make_file(path: &std::path::Path) -> ScincFile {
        let md = Metadata::new(
            vec![Dimension::new("t", 6), Dimension::new("x", 4)],
            vec![Variable::new(
                "v",
                DataType::I64,
                vec!["t".into(), "x".into()],
            )],
        )
        .unwrap();
        let f = ScincFile::create(path, md).unwrap();
        let whole = Slab::whole(&Shape::new(vec![6, 4]).unwrap());
        let data: Vec<i64> = (0..24).collect();
        f.write_slab("v", &whole, &data).unwrap();
        f
    }

    #[test]
    fn reads_all_records_in_row_major_order() {
        let path = temp_path("order");
        let f = make_file(&path);
        let slab = Slab::new(Coord::from([1, 1]), Shape::new(vec![3, 2]).unwrap()).unwrap();
        let recs = read_records::<i64>(&f, "v", &slab).unwrap();
        assert_eq!(recs.len(), 6);
        // Value at {t,x} is t*4+x.
        let expect: Vec<(Coord, i64)> = slab
            .iter_coords()
            .map(|c| {
                let v = (c[0] * 4 + c[1]) as i64;
                (c, v)
            })
            .collect();
        assert_eq!(recs, expect);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_order_is_chunk_major() {
        let path = temp_path("chunk-major");
        let f = make_file(&path);
        // {2,4}: the longer second dimension is cut in two, so the
        // reader yields the left {2,2} chunk, then the right one.
        let slab = Slab::new(Coord::from([0, 0]), Shape::new(vec![2, 4]).unwrap()).unwrap();
        let chunks = read_chunks(&slab);
        assert_eq!(chunks.len(), 2);
        let keys: Vec<Coord> = read_records::<i64>(&f, "v", &slab)
            .unwrap()
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        let expect: Vec<Coord> = chunks.iter().flat_map(Slab::iter_coords).collect();
        assert_eq!(keys, expect);
        assert_eq!(keys[2], Coord::from([1, 0]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn produced_and_total_track_progress() {
        let path = temp_path("progress");
        let f = make_file(&path);
        let slab = Slab::whole(&Shape::new(vec![6, 4]).unwrap());
        let mut r = SlabRecordReader::<i64>::new(&f, "v", slab).unwrap();
        assert_eq!(r.total(), 24);
        let mut n = 0;
        while r.next_record().unwrap().is_some() {
            n += 1;
            assert_eq!(r.produced(), n);
        }
        assert_eq!(n, 24);
        std::fs::remove_file(&path).unwrap();
    }
}
