//! n-dimensional logical-coordinate geometry for the SIDR reproduction.
//!
//! Scientific file formats (NetCDF, HDF5, …) expose data through a
//! coordinate-based API: reads and writes name a *corner* and a *shape*
//! rather than byte offsets. SciHadoop defines its input splits in this
//! logical space, and SIDR's entire contribution — deterministic key
//! translation, `partition+`, dependency derivation — is geometry over
//! that space. This crate is that geometry:
//!
//! * [`Coord`] / [`Shape`] / [`Slab`] — points, extents and
//!   corner+shape regions of an n-dimensional space,
//! * row-major linearization ([`Shape::linearize`]) used for on-disk
//!   layout and key ordering,
//! * [`Tiling`] — logically tiling a space with a shape, as the paper's
//!   extraction shape tiles the input keyspace `K` (§2.4.2),
//! * [`ExtractionShape`] — the `K → K′` key translation and its
//!   preimage (§3, Areas 2 and 3),
//! * [`partition`] — contiguous, skew-bounded partition geometry used
//!   by `partition+` (§3.1, Fig. 7),
//! * [`cover`] — slab-intersection and exact-cover checks used by the
//!   static plan verifier to prove keyblocks tile `K′ᵀ`.
//!
//! All public constructors validate dimensionality and return
//! [`CoordError`] on mismatch; hot-path accessors assume validated
//! inputs and use debug assertions.

pub mod coord;
pub mod cover;
pub mod error;
pub mod extraction;
pub mod partition;
pub mod shape;
pub mod slab;
pub mod tiling;

pub use coord::Coord;
pub use cover::{exact_cover_defect, first_overlap, overlap_count, CoverDefect};
pub use error::CoordError;
pub use extraction::ExtractionShape;
pub use partition::{choose_skew_shape, ContiguousPartition, KeyblockId};
pub use shape::Shape;
pub use slab::Slab;
pub use tiling::{PartialPolicy, Tiling};

/// Convenience alias for results in this crate.
pub type Result<T> = std::result::Result<T, CoordError>;
