//! SciNC — a NetCDF-like scientific file format, built from scratch as
//! the storage substrate for the SIDR reproduction.
//!
//! The paper's datasets live in NetCDF: binary files whose header
//! carries *structural metadata* (dimensions, variables, types) next
//! to dense row-major array data, accessed through a coordinate-based
//! API ("functions that take coordinate arguments in lieu of
//! byte-offsets", §2.1). SciNC reproduces exactly that contract:
//!
//! * [`Metadata`] — dimensions + variables + attributes, printable in
//!   the CDL-like notation of the paper's Figure 1,
//! * [`ScincFile`] — create/open files, read and write hyperslabs
//!   ([`Slab`]s) of a variable by coordinates,
//! * [`sparse`] — the two sparse-output strategies §4.4 compares
//!   against SIDR's dense output (sentinel-filled full-space files and
//!   coordinate/value pairs),
//! * [`reader::SlabRecordReader`] — the RecordReader equivalent:
//!   iterate `(Coord, value)` pairs of a slab,
//! * [`gen`] — deterministic dataset generators for the paper's
//!   workloads (temperature grid, wind speed, normal-distributed
//!   filter data).
//!
//! [`Slab`]: sidr_coords::Slab

pub mod error;
pub mod format;
pub mod gen;
pub mod metadata;
pub mod reader;
pub mod sparse;
pub mod value;

mod file;

pub use error::ScifileError;
pub use file::ScincFile;
pub use metadata::{DataType, Dimension, Metadata, Variable};
pub use reader::{read_chunks, SlabRecordReader};
pub use value::{Element, Value};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, ScifileError>;
