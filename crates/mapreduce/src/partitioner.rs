//! Partition functions: intermediate key → keyblock.
//!
//! "Hadoop's default partition function assigns intermediate key/value
//! pairs to keyblocks by taking the modulo value of the key's binary
//! representation by the number of Reduce tasks" (§3.1). For
//! coordinate keys the binary representation is Java-style
//! `31·h + component` hashing — which is exactly what makes patterned
//! keys (e.g. all-even coordinates) collapse onto a subset of
//! reducers, the pathology §4.3 measures. `partition+`, the
//! structure-aware alternative, lives in `sidr-core` and implements
//! the same [`Partitioner`] trait.

use sidr_coords::Coord;

/// Maps an intermediate key to one of `num_reducers` keyblocks.
pub trait Partitioner<K>: Send + Sync {
    fn partition(&self, key: &K, num_reducers: usize) -> usize;
}

/// Hadoop's default for coordinate keys: Java-style polynomial hash of
/// the components, modulo the reducer count. Deliberately *not* a
/// mixing hash — Hadoop's `hashCode % r` preserves arithmetic patterns
/// in the key, which is the source of the intermediate-key skew the
/// paper demonstrates ("we've seen cases where every intermediate key
/// was even, resulting in all odd-numbered Reduce tasks being assigned
/// no data", §4.3).
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordHashPartitioner;

impl CoordHashPartitioner {
    /// Java-style `h = 31·h + c` over a key's components.
    pub fn hash_code(key: &[u64]) -> u64 {
        key.iter()
            .fold(1u64, |h, &c| h.wrapping_mul(31).wrapping_add(c))
    }

    /// The keyblock of a key given by its components: the hash modulo
    /// the reducer count.
    pub fn keyblock_of(key: &[u64], num_reducers: usize) -> usize {
        debug_assert!(num_reducers > 0);
        (Self::hash_code(key) % num_reducers as u64) as usize
    }
}

impl Partitioner<Coord> for CoordHashPartitioner {
    fn partition(&self, key: &Coord, num_reducers: usize) -> usize {
        Self::keyblock_of(key.components(), num_reducers)
    }
}

/// Modulo over an integer key's value — Hadoop's default for numeric
/// keys.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModuloPartitioner;

impl Partitioner<u64> for ModuloPartitioner {
    fn partition(&self, key: &u64, num_reducers: usize) -> usize {
        debug_assert!(num_reducers > 0);
        (key % num_reducers as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_coords::Shape;

    #[test]
    fn coord_hash_is_deterministic() {
        let p = CoordHashPartitioner;
        let k = Coord::from([3, 7, 9]);
        assert_eq!(p.partition(&k, 22), p.partition(&k, 22));
    }

    #[test]
    fn typical_keys_spread_roughly_evenly() {
        // Un-patterned keys: every reducer gets a sensible share.
        let p = CoordHashPartitioner;
        let space = Shape::new(vec![13, 17, 11]).unwrap();
        let r = 22;
        let mut counts = vec![0u64; r];
        for k in space.iter_coords() {
            counts[p.partition(&k, r)] += 1;
        }
        let total: u64 = counts.iter().sum();
        assert_eq!(total, space.count());
        let expect = total as f64 / r as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64) > 0.5 * expect && (c as f64) < 1.5 * expect,
                "reducer {i} got {c}, expected ~{expect}"
            );
        }
    }

    #[test]
    fn patterned_keys_skew_as_in_section_4_3() {
        // All-even coordinates with an even reducer count: the hash
        // h = 31·(31·1 + even) + even ≡ parity of 31+even... walk the
        // actual distribution and require the pathology: at least
        // half of the reducers receive nothing.
        let p = CoordHashPartitioner;
        let r = 22;
        let mut counts = vec![0u64; r];
        for a in (0..60u64).step_by(2) {
            for b in (0..60u64).step_by(2) {
                counts[p.partition(&Coord::from([a, b]), r)] += 1;
            }
        }
        let empty = counts.iter().filter(|&&c| c == 0).count();
        assert!(
            empty >= r / 2,
            "expected >= half the reducers empty, got {empty} of {r}: {counts:?}"
        );
    }

    #[test]
    fn modulo_partitioner_is_identity_mod_r() {
        let p = ModuloPartitioner;
        assert_eq!(p.partition(&45u64, 22), 1);
        assert_eq!(p.partition(&44u64, 22), 0);
    }
}
