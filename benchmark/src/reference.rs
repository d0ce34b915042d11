//! The correctness oracle: a brute-force reference computed straight
//! from the generated array — group by extraction shape, apply the
//! operator — with no engine code on the path, and the check of one
//! job's keyblocks against it.

use crate::adapter::Coord;
use crate::workload::Op;

/// One keyblock as a client saw it.
pub struct Keyblock {
    pub reducer: usize,
    pub records: Vec<(Coord, f64)>,
}

/// What every job of a workload must produce.
pub struct Reference {
    key_space: Vec<u64>,
    key_strides: Vec<u64>,
    /// One value per key of `K'`, in row-major key order.
    values: Vec<f64>,
    op: Op,
    checksum: u64,
}

fn row_major_strides(extents: &[u64]) -> Vec<u64> {
    let mut strides = vec![1u64; extents.len()];
    for d in (0..extents.len().saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * extents[d + 1];
    }
    strides
}

/// FNV-1a over `(key index, value bits)`, order-sensitive.
fn fold_checksum(acc: u64, index: u64, value: f64) -> u64 {
    let mut h = acc;
    for word in [index, value.to_bits()] {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

const CHECKSUM_SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn apply(op: Op, group: &mut [f64]) -> f64 {
    match op {
        Op::Max => group.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        Op::Mean => group.iter().sum::<f64>() / group.len() as f64,
        Op::Median => {
            group.sort_by(f64::total_cmp);
            let n = group.len();
            if n % 2 == 1 {
                group[n / 2]
            } else {
                (group[n / 2 - 1] + group[n / 2]) / 2.0
            }
        }
    }
}

impl Reference {
    /// Groups the row-major `array` over `space` into whole extraction
    /// instances (a trailing partial instance is discarded) and applies
    /// `op` to each.
    pub fn compute(array: &[f64], space: &[u64], extraction: &[u64], op: Op) -> Reference {
        assert_eq!(array.len() as u64, space.iter().product::<u64>());
        let rank = space.len();
        let key_space: Vec<u64> = space.iter().zip(extraction).map(|(s, e)| s / e).collect();
        let key_strides = row_major_strides(&key_space);
        let keys: u64 = key_space.iter().product();
        let per_group: u64 = extraction.iter().product();
        let mut groups: Vec<Vec<f64>> = (0..keys)
            .map(|_| Vec::with_capacity(per_group as usize))
            .collect();
        let mut coord = vec![0u64; rank];
        for &value in array {
            let mut key = Some(0u64);
            for d in 0..rank {
                let k = coord[d] / extraction[d];
                key = key
                    .filter(|_| k < key_space[d])
                    .map(|i| i + k * key_strides[d]);
            }
            if let Some(i) = key {
                groups[i as usize].push(value);
            }
            // Row-major odometer.
            for d in (0..rank).rev() {
                coord[d] += 1;
                if coord[d] < space[d] {
                    break;
                }
                coord[d] = 0;
            }
        }
        let values: Vec<f64> = groups.iter_mut().map(|g| apply(op, g)).collect();
        let checksum = values
            .iter()
            .enumerate()
            .fold(CHECKSUM_SEED, |h, (i, v)| fold_checksum(h, i as u64, *v));
        Reference {
            key_space,
            key_strides,
            values,
            op,
            checksum,
        }
    }

    #[cfg(test)]
    fn values(&self) -> &[f64] {
        &self.values
    }

    /// Makes the reference wrong in its first value — the check must
    /// then fail every job (`--corrupt-reference`).
    pub fn corrupt(&mut self) {
        self.values[0] += 1.0;
        self.checksum ^= 1;
    }

    fn key_index(&self, key: &Coord) -> Option<u64> {
        let key = key.components();
        if key.len() != self.key_space.len() {
            return None;
        }
        key.iter()
            .zip(&self.key_space)
            .zip(&self.key_strides)
            .try_fold(0u64, |acc, ((k, extent), stride)| {
                (k < extent).then(|| acc + k * stride)
            })
    }

    /// Checks one job's keyblocks, taken in key order, against the
    /// reference: every key exactly once, and the values bit-exact
    /// (`max`, `median`; compared through the checksum over
    /// `(key, f64 bits)`) or within 1e-9 relative (`mean`, whose
    /// summation order may differ).
    pub fn check(&self, mut keyblocks: Vec<Keyblock>) -> Result<(), String> {
        keyblocks.retain(|kb| !kb.records.is_empty());
        let mut first_index = Vec::with_capacity(keyblocks.len());
        for kb in &keyblocks {
            let key = &kb.records[0].0;
            first_index.push(
                self.key_index(key)
                    .ok_or_else(|| format!("keyblock {}: key {key:?} outside K'", kb.reducer))?,
            );
        }
        let mut order: Vec<usize> = (0..keyblocks.len()).collect();
        order.sort_by_key(|&i| first_index[i]);

        let mut expected = 0u64;
        let mut checksum = CHECKSUM_SEED;
        for i in order {
            let kb = &keyblocks[i];
            for (key, value) in &kb.records {
                let index = self
                    .key_index(key)
                    .ok_or_else(|| format!("keyblock {}: key {key:?} outside K'", kb.reducer))?;
                if index != expected {
                    return Err(format!(
                        "keyblock {}: key {key:?} is index {index}, expected {expected} \
                         (missing, duplicated or out of order)",
                        kb.reducer
                    ));
                }
                if self.op == Op::Mean {
                    let want = self.values[index as usize];
                    if (value - want).abs() > 1e-9 * want.abs().max(f64::MIN_POSITIVE) {
                        return Err(format!("key {key:?}: mean {value} differs from {want}"));
                    }
                } else {
                    checksum = fold_checksum(checksum, index, *value);
                }
                expected += 1;
            }
        }
        if expected != self.values.len() as u64 {
            return Err(format!(
                "{expected} output records, expected {}",
                self.values.len()
            ));
        }
        if self.op != Op::Mean && checksum != self.checksum {
            return Err(format!(
                "output checksum {checksum:016x} differs from the reference's {:016x}",
                self.checksum
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-worked 4×4 array grouped by a 2×2 extraction shape:
    ///
    /// ```text
    ///  1  2 |  3  4        groups:  (0,0) = {1,2,5,6}    (0,1) = {3,4,7,8}
    ///  5  6 |  7  8                 (1,0) = {9,10,13,14} (1,1) = {11,12,15,16}
    /// ------+------
    ///  9 10 | 11 12
    /// 13 14 | 15 16
    /// ```
    fn four_by_four() -> Vec<f64> {
        (1..=16).map(f64::from).collect()
    }

    #[test]
    fn reference_matches_the_hand_worked_4x4_example() {
        let a = four_by_four();
        let max = Reference::compute(&a, &[4, 4], &[2, 2], Op::Max);
        assert_eq!(max.values(), &[6.0, 8.0, 14.0, 16.0]);
        let mean = Reference::compute(&a, &[4, 4], &[2, 2], Op::Mean);
        assert_eq!(mean.values(), &[3.5, 5.5, 11.5, 13.5]);
        // Even groups: the median is the mean of the two middle values.
        let median = Reference::compute(&a, &[4, 4], &[2, 2], Op::Median);
        assert_eq!(median.values(), &[3.5, 5.5, 11.5, 13.5]);
        // A 3-row extraction leaves row 3 in a partial instance: dropped.
        let partial = Reference::compute(&a, &[4, 4], &[3, 4], Op::Median);
        assert_eq!(partial.values(), &[6.5]);
    }

    fn key(a: u64, b: u64) -> Coord {
        Coord::new(vec![a, b])
    }

    fn keyblocks_of(values: &[f64]) -> Vec<Keyblock> {
        // Two keyblocks, delivered out of order: keys (1,*) then (0,*).
        vec![
            Keyblock {
                reducer: 1,
                records: vec![(key(1, 0), values[2]), (key(1, 1), values[3])],
            },
            Keyblock {
                reducer: 0,
                records: vec![(key(0, 0), values[0]), (key(0, 1), values[1])],
            },
        ]
    }

    #[test]
    fn check_accepts_the_reference_and_rejects_any_deviation() {
        let a = four_by_four();
        let r = Reference::compute(&a, &[4, 4], &[2, 2], Op::Max);
        assert_eq!(r.check(keyblocks_of(r.values())), Ok(()));

        let mut flipped = r.values().to_vec();
        flipped[3] = f64::from_bits(flipped[3].to_bits() ^ 1);
        assert!(r.check(keyblocks_of(&flipped)).is_err());

        let mut missing = keyblocks_of(r.values());
        missing[0].records.pop();
        assert!(r.check(missing).is_err());

        let mut duplicated = keyblocks_of(r.values());
        let dup = duplicated[1].records[1].clone();
        duplicated[1].records.push(dup);
        assert!(r.check(duplicated).is_err());
    }

    #[test]
    fn mean_is_compared_within_tolerance_and_a_corrupt_reference_fails() {
        let a = four_by_four();
        let mut r = Reference::compute(&a, &[4, 4], &[2, 2], Op::Mean);
        let mut nudged = r.values().to_vec();
        nudged[0] *= 1.0 + 1e-12;
        assert_eq!(r.check(keyblocks_of(&nudged)), Ok(()));
        nudged[0] *= 1.0 + 1e-6;
        assert!(r.check(keyblocks_of(&nudged)).is_err());

        let mut m = Reference::compute(&a, &[4, 4], &[2, 2], Op::Median);
        let honest = m.values().to_vec();
        m.corrupt();
        assert!(m.check(keyblocks_of(&honest)).is_err());
        r.corrupt();
        assert!(r.check(keyblocks_of(&honest)).is_err());
    }
}
