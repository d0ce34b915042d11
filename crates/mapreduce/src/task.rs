//! Key and value bounds, and the record source of an input split.
//!
//! Keys and values are generic; the engine only requires intermediate
//! keys to be orderable and hashable so it can sort-merge the shuffle
//! (§2.3: Reduce tasks "merge all their data into a sorted list").

use std::fmt::Debug;
use std::hash::Hash;

use crate::Result;

/// Bounds every intermediate key must satisfy.
pub trait MrKey: Clone + Ord + Hash + Send + Sync + Debug + 'static {}
impl<T: Clone + Ord + Hash + Send + Sync + Debug + 'static> MrKey for T {}

/// Bounds every value must satisfy.
pub trait MrValue: Clone + Send + Sync + Debug + 'static {}
impl<T: Clone + Send + Sync + Debug + 'static> MrValue for T {}

/// Produces the records of one input split — the RecordReader of
/// §2.3, abstracted so tests can feed in-memory data and the real
/// path can stream from SciNC files.
pub trait RecordSource: Send {
    type Key: MrKey;
    type Value: MrValue;

    /// The next record, or `None` at end of split.
    fn next_record(&mut self) -> Result<Option<(Self::Key, Self::Value)>>;

    /// Total records this source will produce, when known up front
    /// (SciHadoop always knows: `Iᵢ ≡ K_Tᵢ`).
    fn total_hint(&self) -> Option<u64> {
        None
    }
}
