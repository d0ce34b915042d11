//! The placement model at the paper's configuration: a golden record
//! of the ranked hosts of Query 1's input, and the properties any
//! 3-replica placement keeps.

use proptest::prelude::*;

use sidr_dfs::{hosts, BLOCK_SIZE, DATANODES, REPLICAS};

/// Figure 9's input file: Query 1's `{7200,360,720,50}` f32s.
const PATH: &str = "/sim/input.scinc";
const LEN: u64 = 7200 * 360 * 720 * 50 * 4;

/// Hosts of a range with the bytes each holds, as [`hosts`] ranks them.
type Ranked<'a> = &'a [(usize, u64)];

/// Ranked hosts recorded from the namenode model this function
/// replaced, in its default configuration: placement must not move
/// under the simulator's figures.
#[rustfmt::skip]
#[test]
fn query1_placement_matches_the_recorded_namenode() {
    let bs = BLOCK_SIZE;
    let golden: [(u64, u64, Ranked<'_>); 7] = [
        // Inside one block.
        (5 * bs + 100, 5 * bs + 1_000_100, &[(1, 1_000_000), (15, 1_000_000), (16, 1_000_000)]),
        // Straddles blocks 6 and 7, which share node 15.
        (7 * bs - 4096, 7 * bs + 4096, &[(15, 8192), (2, 4096), (4, 4096), (7, 4096), (23, 4096)]),
        // The first block.
        (0, bs, &[(6, bs), (10, bs), (11, bs)]),
        // The last, short block.
        (2780 * bs, LEN, &[(3, 122_716_160), (17, 122_716_160), (18, 122_716_160)]),
        // Ends exactly on a block edge.
        (10 * bs + 12345, 11 * bs, &[(3, 134_205_383), (18, 134_205_383), (20, 134_205_383)]),
        // Figure 9's second map: two rows across blocks 0 and 1.
        (103_680_000, 207_360_000, &[
            (0, 73_142_272), (8, 73_142_272), (23, 73_142_272),
            (6, 30_537_728), (10, 30_537_728), (11, 30_537_728),
        ]),
        // Five blocks and seven bytes of a sixth.
        (0, 5 * bs + 7, &[
            (10, 3 * bs), (2, 2 * bs), (6, 2 * bs), (23, 2 * bs),
            (0, bs), (7, bs), (8, bs), (11, bs), (18, bs), (20, bs),
            (1, 7), (15, 7), (16, 7),
        ]),
    ];
    for (start, end, want) in golden {
        assert_eq!(hosts(PATH, LEN, start, end), want, "[{start}, {end})");
    }
    assert!(hosts("/e", 0, 0, 0).is_empty());
}

/// 200 blocks × 3 replicas over 24 datanodes: every node hosts some.
#[test]
fn placement_spreads_across_cluster() {
    let len = 200 * BLOCK_SIZE;
    assert_eq!(hosts("/big", len, 0, len).len(), DATANODES);
}

fn range(len: u64) -> impl Strategy<Value = (u64, u64)> {
    (0..len, 0..len).prop_map(|(a, b)| (a.min(b), a.max(b) + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A range inside one block is hosted whole by its three distinct
    /// replicas, all on real datanodes.
    #[test]
    fn replicas_are_distinct_and_valid(block in 0u64..2781, at in 0u64..BLOCK_SIZE / 2, n in 1u64..4096) {
        let start = block * BLOCK_SIZE + at;
        let ranked = hosts(PATH, LEN, start, start + n);
        prop_assert_eq!(ranked.len(), REPLICAS);
        for (node, bytes) in ranked {
            prop_assert!(node < DATANODES);
            prop_assert_eq!(bytes, n);
        }
    }

    #[test]
    fn ranking_follows_overlap_and_sums_to_replication(
        (len, (start, end)) in (1u64..(4 << 30)).prop_flat_map(|len| (Just(len), range(len)))
    ) {
        let ranked = hosts("/f", len, start, end);
        for w in ranked.windows(2) {
            prop_assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
        let total: u64 = ranked.iter().map(|(_, b)| b).sum();
        prop_assert_eq!(total, (end - start) * REPLICAS as u64);
    }

    #[test]
    fn placement_is_deterministic_in_inputs((start, end) in range(LEN)) {
        prop_assert_eq!(hosts(PATH, LEN, start, end), hosts(PATH, LEN, start, end));
    }

    #[test]
    fn subrange_locality_never_exceeds_full_range((start, end) in range(1 << 31)) {
        let len = 1u64 << 31;
        let full = hosts("/f", len, 0, len);
        for (node, part) in hosts("/f", len, start, end) {
            let whole = full.iter().find(|(n, _)| *n == node).map(|(_, b)| *b);
            prop_assert!(whole.is_some_and(|b| part <= b));
        }
    }
}
