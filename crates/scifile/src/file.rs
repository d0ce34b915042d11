//! Coordinate-addressed SciNC files: create, open, slab read/write.

use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::Path;

use sidr_coords::{Coord, Shape, Slab};

use crate::error::ScifileError;
use crate::format;
use crate::metadata::Metadata;
use crate::value::Element;
use crate::Result;

/// An open SciNC file.
///
/// Reads and writes are addressed by [`Slab`] (corner + shape), the
/// coordinate-based contract of scientific access libraries (§2.1):
/// the library translates coordinates into file accesses, so callers
/// never see byte offsets. Data is stored dense and row-major; slab
/// I/O is decomposed into maximal contiguous runs.
pub struct ScincFile {
    file: File,
    metadata: Metadata,
    data_start: u64,
}

impl ScincFile {
    /// Creates a new file with the given metadata. Variable data is
    /// initially a hole (sparse file); readers see zeroes until
    /// written.
    pub fn create(path: impl AsRef<Path>, metadata: Metadata) -> Result<Self> {
        let header = format::encode_header(&metadata);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.write_all_at(&header, 0)?;
        let data_start = header.len() as u64;
        let scinc = ScincFile {
            file,
            metadata,
            data_start,
        };
        // Reserve the full extent so partial writes and sentinel
        // benchmarks see a file of the final size.
        let total = scinc.total_len()?;
        scinc.file.set_len(total)?;
        Ok(scinc)
    }

    /// Opens an existing file, decoding its metadata.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut fixed = [0u8; 16];
        file.read_exact(&mut fixed)?;
        let block_len = u64::from_le_bytes(fixed[8..16].try_into().expect("slice len 8"));
        // The metadata block is names and counts; anything beyond a few
        // MiB is a corrupt length field, not a real header.
        const MAX_HEADER: u64 = 64 << 20;
        if block_len > MAX_HEADER {
            return Err(ScifileError::CorruptHeader(format!(
                "metadata block claims {block_len} bytes (limit {MAX_HEADER})"
            )));
        }
        let header_len = format::align8(16 + block_len);
        let mut header = vec![0u8; header_len as usize];
        file.read_exact_at(&mut header, 0)?;
        let (metadata, data_start) = format::decode_header(&header)?;
        Ok(ScincFile {
            file,
            metadata,
            data_start,
        })
    }

    /// A second handle on the same open file (a duplicated
    /// descriptor): readable even after the path is gone.
    pub fn try_clone(&self) -> Result<Self> {
        Ok(ScincFile {
            file: self.file.try_clone()?,
            metadata: self.metadata.clone(),
            data_start: self.data_start,
        })
    }

    /// The file's structural metadata.
    pub fn metadata(&self) -> &Metadata {
        &self.metadata
    }

    /// Total file length implied by the metadata.
    pub fn total_len(&self) -> Result<u64> {
        let mut end = self.data_start;
        for v in self.metadata.variables() {
            end = format::align8(end) + self.metadata.variable_byte_len(&v.name)?;
        }
        Ok(end)
    }

    /// Byte offset of a variable's dense array.
    pub fn variable_offset(&self, name: &str) -> Result<u64> {
        let mut offset = self.data_start;
        for v in self.metadata.variables() {
            offset = format::align8(offset);
            if v.name == name {
                return Ok(offset);
            }
            offset += self.metadata.variable_byte_len(&v.name)?;
        }
        Err(ScifileError::NoSuchVariable(name.to_string()))
    }

    fn check_type<E: Element>(&self, variable: &str) -> Result<()> {
        let var = self.metadata.variable(variable)?;
        if var.dtype != E::DATA_TYPE {
            return Err(ScifileError::TypeMismatch {
                variable: variable.to_string(),
                expected: E::DATA_TYPE,
                actual: var.dtype,
            });
        }
        Ok(())
    }

    /// Decomposes a slab of `vshape` into maximal contiguous runs,
    /// calling `f(file_element_offset, slab_element_offset, run_len)`
    /// once per run, in row-major slab order.
    fn for_each_run(
        vshape: &Shape,
        slab: &Slab,
        mut f: impl FnMut(u64, u64, u64) -> Result<()>,
    ) -> Result<()> {
        let rank = vshape.rank();
        if slab.rank() != rank {
            return Err(ScifileError::Coord(sidr_coords::CoordError::RankMismatch {
                expected: rank,
                actual: slab.rank(),
            }));
        }
        // Find the outermost dimension `j` such that the slab spans
        // the full extent of every dimension after `j`: dims j..rank
        // then form one contiguous run per choice of dims 0..j.
        let mut j = rank - 1;
        while j > 0 && slab.corner()[j] == 0 && slab.shape()[j] == vshape[j] {
            j -= 1;
        }
        let run_len: u64 = (j..rank).map(|d| slab.shape()[d]).product();

        if j == 0 {
            let start = vshape.linearize(slab.corner())?;
            return f(start, 0, run_len);
        }

        // Iterate the outer dims 0..j of the slab in row-major order.
        let outer = Shape::new(slab.shape().extents()[..j].to_vec())?;
        let mut slab_off = 0u64;
        for outer_rel in outer.iter_coords() {
            let mut abs = slab.corner().components().to_vec();
            for (d, &c) in outer_rel.components().iter().enumerate() {
                abs[d] += c;
            }
            let start = vshape.linearize(&Coord::new(abs))?;
            f(start, slab_off, run_len)?;
            slab_off += run_len;
        }
        Ok(())
    }

    /// Reads a hyperslab of `variable` into a `Vec` in row-major slab
    /// order.
    pub fn read_slab<E: Element>(&self, variable: &str, slab: &Slab) -> Result<Vec<E>> {
        self.check_type::<E>(variable)?;
        let vshape = self.metadata.variable_shape(variable)?;
        if !Slab::whole(&vshape).contains_slab(slab) {
            return Err(ScifileError::Coord(sidr_coords::CoordError::OutOfBounds {
                dim: 0,
                coordinate: slab.end()[0],
                extent: vshape[0],
            }));
        }
        let var_off = self.variable_offset(variable)?;
        let esize = E::SIZE as u64;
        let mut out: Vec<E> = Vec::with_capacity(slab.count() as usize);
        let mut buf: Vec<u8> = Vec::new();
        Self::for_each_run(&vshape, slab, |file_el, _slab_el, run| {
            buf.resize((run * esize) as usize, 0);
            self.file
                .read_exact_at(&mut buf, var_off + file_el * esize)?;
            out.extend(buf.chunks_exact(E::SIZE).map(E::read_le));
            Ok(())
        })?;
        Ok(out)
    }

    /// Writes a hyperslab of `variable`; `data` is row-major slab
    /// order and must contain exactly `slab.count()` elements.
    pub fn write_slab<E: Element>(&self, variable: &str, slab: &Slab, data: &[E]) -> Result<()> {
        self.check_type::<E>(variable)?;
        if data.len() as u64 != slab.count() {
            return Err(ScifileError::LengthMismatch {
                expected: slab.count(),
                actual: data.len() as u64,
            });
        }
        let vshape = self.metadata.variable_shape(variable)?;
        if !Slab::whole(&vshape).contains_slab(slab) {
            return Err(ScifileError::Coord(sidr_coords::CoordError::OutOfBounds {
                dim: 0,
                coordinate: slab.end()[0],
                extent: vshape[0],
            }));
        }
        let var_off = self.variable_offset(variable)?;
        let esize = E::SIZE as u64;
        let mut buf: Vec<u8> = Vec::new();
        Self::for_each_run(&vshape, slab, |file_el, slab_el, run| {
            buf.clear();
            buf.reserve((run * esize) as usize);
            for e in &data[slab_el as usize..(slab_el + run) as usize] {
                e.write_le(&mut buf);
            }
            self.file.write_all_at(&buf, var_off + file_el * esize)?;
            Ok(())
        })?;
        Ok(())
    }

    /// Reads a single element.
    pub fn read_point<E: Element>(&self, variable: &str, coord: &Coord) -> Result<E> {
        let slab = Slab::new(coord.clone(), Shape::new(vec![1; coord.rank()])?)?;
        Ok(self.read_slab::<E>(variable, &slab)?[0])
    }

    /// Fills an entire variable with a constant (used by the sentinel
    /// sparse-output strategy of §4.4 and by dataset generators).
    pub fn fill<E: Element>(&self, variable: &str, value: E) -> Result<()> {
        self.check_type::<E>(variable)?;
        let count = self.metadata.variable_shape(variable)?.count();
        let var_off = self.variable_offset(variable)?;
        let esize = E::SIZE as u64;
        // 1 MiB chunks keep memory flat for paper-scale variables.
        let chunk_elems = (1 << 20) / esize;
        let mut buf = Vec::with_capacity((chunk_elems * esize) as usize);
        for _ in 0..chunk_elems.min(count) {
            value.write_le(&mut buf);
        }
        let mut written = 0u64;
        while written < count {
            let n = chunk_elems.min(count - written);
            self.file
                .write_all_at(&buf[..(n * esize) as usize], var_off + written * esize)?;
            written += n;
        }
        Ok(())
    }

    /// Flushes file contents and metadata to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metadata::{DataType, Dimension, Variable};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sidr-scifile-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn small_md() -> Metadata {
        Metadata::new(
            vec![
                Dimension::new("t", 4),
                Dimension::new("y", 3),
                Dimension::new("x", 5),
            ],
            vec![
                Variable::new("a", DataType::F64, vec!["t".into(), "y".into(), "x".into()]),
                Variable::new("b", DataType::I32, vec!["y".into(), "x".into()]),
            ],
        )
        .unwrap()
    }

    fn slab(corner: &[u64], shape: &[u64]) -> Slab {
        Slab::new(Coord::from(corner), Shape::new(shape.to_vec()).unwrap()).unwrap()
    }

    #[test]
    fn create_open_roundtrip() {
        let path = temp_path("roundtrip");
        {
            let f = ScincFile::create(&path, small_md()).unwrap();
            f.sync().unwrap();
        }
        let f = ScincFile::open(&path).unwrap();
        assert_eq!(f.metadata(), &small_md());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn whole_variable_write_read() {
        let path = temp_path("whole");
        let f = ScincFile::create(&path, small_md()).unwrap();
        let whole = slab(&[0, 0, 0], &[4, 3, 5]);
        let data: Vec<f64> = (0..60).map(|i| i as f64 * 0.5).collect();
        f.write_slab("a", &whole, &data).unwrap();
        assert_eq!(f.read_slab::<f64>("a", &whole).unwrap(), data);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_slab_read_matches_points() {
        let path = temp_path("interior");
        let f = ScincFile::create(&path, small_md()).unwrap();
        let whole = slab(&[0, 0, 0], &[4, 3, 5]);
        let data: Vec<f64> = (0..60).map(|i| (i * i) as f64).collect();
        f.write_slab("a", &whole, &data).unwrap();
        let inner = slab(&[1, 1, 2], &[2, 2, 3]);
        let got = f.read_slab::<f64>("a", &inner).unwrap();
        let expect: Vec<f64> = inner
            .iter_coords()
            .map(|c| f.read_point::<f64>("a", &c).unwrap())
            .collect();
        assert_eq!(got, expect);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn second_variable_does_not_alias_first() {
        let path = temp_path("alias");
        let f = ScincFile::create(&path, small_md()).unwrap();
        let wa = slab(&[0, 0, 0], &[4, 3, 5]);
        let wb = slab(&[0, 0], &[3, 5]);
        f.write_slab("a", &wa, &vec![1.5f64; 60]).unwrap();
        f.write_slab("b", &wb, &[7i32; 15]).unwrap();
        assert!(f
            .read_slab::<f64>("a", &wa)
            .unwrap()
            .iter()
            .all(|&v| v == 1.5));
        assert!(f
            .read_slab::<i32>("b", &wb)
            .unwrap()
            .iter()
            .all(|&v| v == 7));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn type_mismatch_rejected() {
        let path = temp_path("types");
        let f = ScincFile::create(&path, small_md()).unwrap();
        let s = slab(&[0, 0], &[1, 1]);
        assert!(matches!(
            f.read_slab::<f64>("b", &s),
            Err(ScifileError::TypeMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_bounds_slab_rejected() {
        let path = temp_path("oob");
        let f = ScincFile::create(&path, small_md()).unwrap();
        let s = slab(&[3, 0, 0], &[2, 3, 5]);
        assert!(f.read_slab::<f64>("a", &s).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn length_mismatch_rejected() {
        let path = temp_path("len");
        let f = ScincFile::create(&path, small_md()).unwrap();
        let s = slab(&[0, 0, 0], &[1, 1, 2]);
        assert!(matches!(
            f.write_slab("a", &s, &[1.0f64]),
            Err(ScifileError::LengthMismatch {
                expected: 2,
                actual: 1
            })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fill_sets_every_element() {
        let path = temp_path("fill");
        let f = ScincFile::create(&path, small_md()).unwrap();
        f.fill("b", -1i32).unwrap();
        let wb = slab(&[0, 0], &[3, 5]);
        assert!(f
            .read_slab::<i32>("b", &wb)
            .unwrap()
            .iter()
            .all(|&v| v == -1));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unwritten_data_reads_zero() {
        let path = temp_path("zero");
        let f = ScincFile::create(&path, small_md()).unwrap();
        let wb = slab(&[0, 0], &[3, 5]);
        assert!(f
            .read_slab::<i32>("b", &wb)
            .unwrap()
            .iter()
            .all(|&v| v == 0));
        std::fs::remove_file(&path).unwrap();
    }
}
