//! User-supplied task functions: record sources, mappers, combiners
//! and reducers.
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

/// A record source over an in-memory slice (tests, micro-benches).
pub struct SliceRecordSource<K: MrKey, V: MrValue> {
    records: std::vec::IntoIter<(K, V)>,
    total: u64,
}

impl<K: MrKey, V: MrValue> SliceRecordSource<K, V> {
    pub fn new(records: Vec<(K, V)>) -> Self {
        let total = records.len() as u64;
        SliceRecordSource {
            records: records.into_iter(),
            total,
        }
    }
}

impl<K: MrKey, V: MrValue> RecordSource for SliceRecordSource<K, V> {
    type Key = K;
    type Value = V;

    fn next_record(&mut self) -> Result<Option<(K, V)>> {
        Ok(self.records.next())
    }

    fn total_hint(&self) -> Option<u64> {
        Some(self.total)
    }
}

/// The user Map function. One instance is shared by all Map tasks
/// (hence `Sync`); per-record state belongs in the emitted values.
pub trait Mapper: Send + Sync {
    type InKey: MrKey;
    type InValue: MrValue;
    type OutKey: MrKey;
    type OutValue: MrValue;

    /// Maps one record, emitting zero or more intermediate pairs.
    fn map(
        &self,
        key: &Self::InKey,
        value: &Self::InValue,
        emit: &mut dyn FnMut(Self::OutKey, Self::OutValue),
    );
}

/// The user Reduce function: all values of one intermediate key,
/// delivered together (MapReduce guarantee 2, §2.3).
pub trait Reducer: Send + Sync {
    type Key: MrKey;
    type InValue: MrValue;
    type OutValue: MrValue;

    /// Reduces one key group, emitting zero or more output values.
    /// The group is the caller's scratch: a reducer may reorder it in
    /// place (the holistic query operators select or sort there), and
    /// the caller reads nothing of it afterwards.
    fn reduce(
        &self,
        key: &Self::Key,
        values: &mut [Self::InValue],
        emit: &mut dyn FnMut(Self::OutValue),
    );
}

/// Optional map-side combiner: folds the values a single Map task
/// produced for one key into fewer values ("Map tasks often combine
/// key/value pairs sharing the same key in an effort to reduce disk
/// and network IO", §3.2.1). The shuffle's count annotations keep
/// track of how many raw pairs each combined pair represents.
pub trait Combiner: Send + Sync {
    type Key: MrKey;
    type Value: MrValue;

    /// Combines the values of one key *in place*: on entry `values`
    /// holds every value the Map task produced for `key`; on return
    /// it holds the combined (usually shorter) list. In-place so the
    /// engine can hand the same group buffer to every key of a sorted
    /// run — zero steady-state allocation in the map-side combine.
    fn combine(&self, key: &Self::Key, values: &mut Vec<Self::Value>);
}

/// A mapper from a plain function pointer / closure.
pub struct FnMapper<IK, IV, OK, OV, F> {
    f: F,
    // Variance/ownership marker, not data: keep the fn signature.
    #[allow(clippy::type_complexity)]
    _marker: std::marker::PhantomData<fn(IK, IV) -> (OK, OV)>,
}

impl<IK, IV, OK, OV, F> FnMapper<IK, IV, OK, OV, F>
where
    F: Fn(&IK, &IV, &mut dyn FnMut(OK, OV)) + Send + Sync,
{
    pub fn new(f: F) -> Self {
        FnMapper {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<IK, IV, OK, OV, F> Mapper for FnMapper<IK, IV, OK, OV, F>
where
    IK: MrKey,
    IV: MrValue,
    OK: MrKey,
    OV: MrValue,
    F: Fn(&IK, &IV, &mut dyn FnMut(OK, OV)) + Send + Sync,
{
    type InKey = IK;
    type InValue = IV;
    type OutKey = OK;
    type OutValue = OV;

    fn map(&self, key: &IK, value: &IV, emit: &mut dyn FnMut(OK, OV)) {
        (self.f)(key, value, emit)
    }
}

/// A reducer from a plain function pointer / closure.
pub struct FnReducer<K, IV, OV, F> {
    f: F,
    _marker: std::marker::PhantomData<fn(K, IV) -> OV>,
}

impl<K, IV, OV, F> FnReducer<K, IV, OV, F>
where
    F: Fn(&K, &[IV], &mut dyn FnMut(OV)) + Send + Sync,
{
    pub fn new(f: F) -> Self {
        FnReducer {
            f,
            _marker: std::marker::PhantomData,
        }
    }
}

impl<K, IV, OV, F> Reducer for FnReducer<K, IV, OV, F>
where
    K: MrKey,
    IV: MrValue,
    OV: MrValue,
    F: Fn(&K, &[IV], &mut dyn FnMut(OV)) + Send + Sync,
{
    type Key = K;
    type InValue = IV;
    type OutValue = OV;

    fn reduce(&self, key: &K, values: &mut [IV], emit: &mut dyn FnMut(OV)) {
        (self.f)(key, values, emit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_source_yields_in_order() {
        let mut s = SliceRecordSource::new(vec![(1u64, "a"), (2, "b")]);
        assert_eq!(s.total_hint(), Some(2));
        assert_eq!(s.next_record().unwrap(), Some((1, "a")));
        assert_eq!(s.next_record().unwrap(), Some((2, "b")));
        assert_eq!(s.next_record().unwrap(), None);
    }

    #[test]
    fn fn_mapper_and_reducer_adapt_closures() {
        let m =
            FnMapper::new(|k: &u64, v: &u64, emit: &mut dyn FnMut(u64, u64)| emit(k % 2, v * 10));
        let mut out = Vec::new();
        m.map(&3, &7, &mut |k, v| out.push((k, v)));
        assert_eq!(out, vec![(1, 70)]);

        let r =
            FnReducer::new(|_k: &u64, vs: &[u64], emit: &mut dyn FnMut(u64)| emit(vs.iter().sum()));
        let mut out = Vec::new();
        r.reduce(&1, &mut [70, 30], &mut |v| out.push(v));
        assert_eq!(out, vec![100]);
    }
}
