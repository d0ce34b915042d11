//! The file-backed output collector: dense contiguous slabs (SIDR,
//! §4.4), and their reassembly into one file.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::path::PathBuf;

use sidr_coords::{Coord, Slab};
use sidr_mapreduce::{MrError, OutputCollector};
use sidr_scifile::sparse::write_dense_output;

use crate::partition_plus::PartitionPlus;

/// Writes each reducer's output as dense, contiguous SciNC slabs —
/// possible because `partition+` keyblocks are contiguous in `K′`:
/// "contiguous blocks of keys in K′ often translate in contiguous keys
/// in `O_T` that should result in efficient writes" (§3.1, §4.4).
///
/// One file per cover slab of the keyblock, named
/// `part-r{reducer:05}-s{slab_index}.scinc`, with the slab's global
/// origin in the metadata.
pub struct DenseSlabOutput {
    dir: PathBuf,
    variable: String,
    /// Keyblock geometry: which slabs each reducer owns.
    covers: Vec<Vec<Slab>>,
    written: Mutex<Vec<PathBuf>>,
}

impl DenseSlabOutput {
    /// Creates the collector; `dir` must exist.
    pub fn new(
        dir: impl Into<PathBuf>,
        variable: impl Into<String>,
        partition: &PartitionPlus,
    ) -> crate::Result<Self> {
        let covers = (0..partition.num_reducers())
            .map(|r| partition.keyblock_cover(r))
            .collect::<crate::Result<Vec<_>>>()?;
        Ok(DenseSlabOutput {
            dir: dir.into(),
            variable: variable.into(),
            covers,
            written: Mutex::new(Vec::new()),
        })
    }

    /// Paths of all files written so far.
    pub fn files(&self) -> Vec<PathBuf> {
        self.written.lock().clone()
    }
}

impl OutputCollector<Coord, f64> for DenseSlabOutput {
    fn commit(&self, reducer: usize, records: Vec<(Coord, f64)>) -> sidr_mapreduce::Result<()> {
        // Single-valued operators emit exactly one value per key; a
        // duplicate means the operator is list-valued, which a dense
        // file cannot hold.
        let by_key: HashMap<&Coord, f64> = records.iter().map(|(k, v)| (k, *v)).collect();
        if by_key.len() != records.len() {
            return Err(MrError::Output(format!(
                "reducer {reducer} emitted multiple values per key; \
                 dense slab output requires a single-valued operator"
            )));
        }
        for (i, slab) in self.covers[reducer].iter().enumerate() {
            let mut data = Vec::with_capacity(slab.count() as usize);
            for c in slab.iter_coords() {
                match by_key.get(&c) {
                    Some(&v) => data.push(v),
                    None => {
                        return Err(MrError::Output(format!(
                            "reducer {reducer} output missing key {c}; dense output \
                             requires a value for every key of its keyblock"
                        )))
                    }
                }
            }
            let path = self.dir.join(format!("part-r{reducer:05}-s{i}.scinc"));
            write_dense_output(&path, &self.variable, slab, &data)
                .map_err(|e| MrError::Output(e.to_string()))?;
            self.written.lock().push(path);
        }
        Ok(())
    }
}

/// Reassembles a set of dense part files into one SciNC file covering
/// the full output space `K′ᵀ`.
///
/// §4.4 notes that stock Hadoop's sentinel part files "are not very
/// useful individually and will likely need to be merged later,
/// requiring extra data movement" — for SIDR's dense parts the merge
/// is a pure re-layout: every part carries its origin, the parts
/// tile the output space exactly, and no sentinel filtering is needed.
pub fn reassemble_dense_output(
    parts: &[PathBuf],
    variable: &str,
    output_space: &sidr_coords::Shape,
    destination: impl Into<PathBuf>,
) -> crate::Result<sidr_scifile::ScincFile> {
    use sidr_scifile::{Dimension, Metadata, ScincFile, Variable};

    let dims: Vec<Dimension> = output_space
        .extents()
        .iter()
        .enumerate()
        .map(|(i, &e)| Dimension::new(format!("d{i}"), e))
        .collect();
    let names = dims.iter().map(|d| d.name.clone()).collect();
    let md = Metadata::new(
        dims,
        vec![Variable::new(variable, sidr_scifile::DataType::F64, names)],
    )?;
    let out = ScincFile::create(destination.into(), md)?;

    let mut covered = 0u64;
    for path in parts {
        let part = ScincFile::open(path)?;
        let origin = sidr_scifile::sparse::read_origin(part.metadata()).ok_or_else(|| {
            crate::SidrError::Plan(format!(
                "{} is not a dense part file (missing origin attribute)",
                path.display()
            ))
        })?;
        let local_shape = part.metadata().variable_shape(variable)?;
        let data = part.read_slab::<f64>(variable, &Slab::whole(&local_shape))?;
        let global = Slab::new(origin, local_shape)?;
        if !Slab::whole(output_space).contains_slab(&global) {
            return Err(crate::SidrError::Plan(format!(
                "part {} ({global}) exceeds the output space",
                path.display()
            )));
        }
        out.write_slab(variable, &global, &data)?;
        covered += global.count();
    }
    if covered != output_space.count() {
        return Err(crate::SidrError::Plan(format!(
            "parts cover {covered} of {} output keys",
            output_space.count()
        )));
    }
    out.sync()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::Operator;
    use crate::query::StructuralQuery;
    use sidr_coords::Shape;
    use sidr_scifile::ScincFile;

    fn shape(v: &[u64]) -> Shape {
        Shape::new(v.to_vec()).unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sidr-output-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn dense_output_writes_cover_slabs() {
        let dir = temp_dir("dense");
        let q = StructuralQuery::new("t", shape(&[8, 4]), shape(&[2, 2]), Operator::Mean).unwrap();
        let pp = PartitionPlus::for_query(&q, 2).unwrap();
        let out = DenseSlabOutput::new(&dir, "t", &pp).unwrap();

        for r in 0..2usize {
            let mut records = Vec::new();
            for slab in pp.keyblock_cover(r).unwrap() {
                for c in slab.iter_coords() {
                    let v = c[0] as f64 * 10.0 + c[1] as f64;
                    records.push((c, v));
                }
            }
            out.commit(r, records).unwrap();
        }
        let files = out.files();
        assert!(!files.is_empty());
        // Re-read one file and check the origin-relative values.
        let f = ScincFile::open(&files[0]).unwrap();
        let origin = sidr_scifile::sparse::read_origin(f.metadata()).unwrap();
        let local_shape = f.metadata().variable_shape("t").unwrap();
        let data = f.read_slab::<f64>("t", &Slab::whole(&local_shape)).unwrap();
        for (i, rel) in local_shape.iter_coords().enumerate() {
            let abs = rel.checked_add(&origin).unwrap();
            assert_eq!(data[i], abs[0] as f64 * 10.0 + abs[1] as f64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dense_output_rejects_missing_or_duplicate_keys() {
        let dir = temp_dir("dense-bad");
        let q = StructuralQuery::new("t", shape(&[4, 4]), shape(&[2, 2]), Operator::Mean).unwrap();
        let pp = PartitionPlus::for_query(&q, 1).unwrap();
        let out = DenseSlabOutput::new(&dir, "t", &pp).unwrap();
        // Missing keys.
        assert!(out.commit(0, vec![(Coord::from([0, 0]), 1.0)]).is_err());
        // Duplicate keys.
        let mut records: Vec<(Coord, f64)> = pp
            .keyblock_cover(0)
            .unwrap()
            .iter()
            .flat_map(|s| s.iter_coords())
            .map(|c| (c, 0.0))
            .collect();
        records.push(records[0].clone());
        assert!(out.commit(0, records).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reassembled_output_matches_committed_values() {
        let dir = temp_dir("reassemble");
        let q = StructuralQuery::new("t", shape(&[12, 6]), shape(&[2, 3]), Operator::Mean).unwrap();
        let pp = PartitionPlus::for_query(&q, 3).unwrap();
        let out = DenseSlabOutput::new(&dir, "t", &pp).unwrap();
        let kspace = q.intermediate_space();
        for r in 0..3usize {
            let records: Vec<(Coord, f64)> = pp
                .keyblock_cover(r)
                .unwrap()
                .iter()
                .flat_map(|s| s.iter_coords())
                .map(|c| {
                    let v = kspace.linearize(&c).unwrap() as f64;
                    (c, v)
                })
                .collect();
            out.commit(r, records).unwrap();
        }
        let dest = dir.join("combined.scinc");
        let combined = reassemble_dense_output(&out.files(), "t", &kspace, &dest).unwrap();
        for c in kspace.iter_coords() {
            let got: f64 = combined.read_point("t", &c).unwrap();
            assert_eq!(got, kspace.linearize(&c).unwrap() as f64);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reassembly_rejects_incomplete_parts() {
        let dir = temp_dir("reassemble-bad");
        let q = StructuralQuery::new("t", shape(&[8, 4]), shape(&[2, 2]), Operator::Mean).unwrap();
        let pp = PartitionPlus::for_query(&q, 2).unwrap();
        let out = DenseSlabOutput::new(&dir, "t", &pp).unwrap();
        let records: Vec<(Coord, f64)> = pp
            .keyblock_cover(0)
            .unwrap()
            .iter()
            .flat_map(|s| s.iter_coords())
            .map(|c| (c, 0.0))
            .collect();
        out.commit(0, records).unwrap(); // only keyblock 0
        let dest = dir.join("combined.scinc");
        let err = reassemble_dense_output(&out.files(), "t", &q.intermediate_space(), &dest);
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
