//! Named lint targets: the paper's experiment configurations.
//!
//! `sidr-lint --preset <name>` verifies the exact (query, splits,
//! reducers) combinations the experiment binaries run, so CI proves
//! the plans behind the figures before the figures are produced.

use sidr_coords::Shape;
use sidr_core::{Operator, StructuralQuery};
use sidr_mapreduce::{InputSplit, SplitGenerator};

/// One named lint target: a query, its splits and the reducer counts
/// to verify plans for.
pub struct PresetJob {
    pub name: &'static str,
    pub about: &'static str,
    pub query: StructuralQuery,
    pub splits: Vec<InputSplit>,
    pub reducer_counts: Vec<usize>,
}

/// The available preset names.
pub fn preset_names() -> &'static [(&'static str, &'static str)] {
    &[
        (
            "query1-tiny",
            "CI-scale Query 1 analog: 2.5 MB dataset, 24 keyblocks' worth of keys",
        ),
        ("query1-small", "laptop-scale Query 1 (§5), 22 keyblocks"),
        ("query2-small", "laptop-scale Query 2 (§5), 10 keyblocks"),
        (
            "query1",
            "full-scale Query 1: 348 GB dataset geometry, 22 keyblocks",
        ),
        (
            "fig08",
            "Figure 8 weekly-averages config: {364,250,200}/{7,5,1}, 22 keyblocks",
        ),
        (
            "table3",
            "Table 3 connection-scaling config: Query 1 at 22…1024 keyblocks",
        ),
    ]
}

/// Builds a preset by name.
pub fn preset(name: &str) -> Option<PresetJob> {
    match name {
        "query1-tiny" => {
            // Query 1's geometry scaled until the dataset fits in a CI
            // artifact: {48,36,36,10} f32 inputs (~2.5 MB), averaged
            // over 2-row windows → K′ᵀ = {24,1,1,1}. Small enough that
            // `sidr-submit --generate` builds it in well under a
            // second, structured enough that 12 maps feed 4 keyblocks
            // with real dependency overlap.
            let query = StructuralQuery::new(
                "windspeed",
                Shape::new(vec![48, 36, 36, 10]).expect("valid"),
                Shape::new(vec![2, 36, 36, 10]).expect("valid"),
                Operator::Mean,
            )
            .expect("query is structural");
            // Four extraction-aligned rows per split → 12 map tasks.
            let splits = SplitGenerator::new(query.input_space().clone(), 4)
                .aligned(36 * 36 * 10 * 4 * 4, 2)
                .expect("splits generate");
            Some(PresetJob {
                name: "query1-tiny",
                about: "CI-scale Query 1 analog",
                query,
                splits,
                reducer_counts: vec![4],
            })
        }
        "query1-small" => {
            let query = StructuralQuery::query1_small().expect("paper query is valid");
            let splits = aligned_splits(&query, 4, 1 << 20);
            Some(PresetJob {
                name: "query1-small",
                about: "laptop-scale Query 1",
                query,
                splits,
                reducer_counts: vec![22],
            })
        }
        "query2-small" => {
            let query = StructuralQuery::query2_small(0.0, 1.0).expect("paper query is valid");
            let splits = aligned_splits(&query, 4, 1 << 20);
            Some(PresetJob {
                name: "query2-small",
                about: "laptop-scale Query 2",
                query,
                splits,
                reducer_counts: vec![10],
            })
        }
        "query1" => {
            let query = StructuralQuery::query1().expect("paper query is valid");
            // The SciHadoop split regime of §5: 128 MB splits of the
            // 348 GB dataset, aligned to the extraction shape.
            let splits = aligned_splits(&query, 4, 128 << 20);
            Some(PresetJob {
                name: "query1",
                about: "full-scale Query 1 geometry",
                query,
                splits,
                reducer_counts: vec![22],
            })
        }
        "fig08" => {
            // The weekly-averages example Figure 8 draws: two weeks
            // of rows per split (see crates/experiments/src/bin/fig08.rs).
            let query = StructuralQuery::new(
                "temperature",
                Shape::new(vec![364, 250, 200]).expect("valid"),
                Shape::new(vec![7, 5, 1]).expect("valid"),
                Operator::Mean,
            )
            .expect("query is structural");
            let splits = SplitGenerator::new(query.input_space().clone(), 4)
                .aligned(250 * 200 * 4 * 14, 7)
                .expect("splits generate");
            Some(PresetJob {
                name: "fig08",
                about: "Figure 8 weekly-averages config",
                query,
                splits,
                reducer_counts: vec![22],
            })
        }
        "table3" => {
            let query = StructuralQuery::query1().expect("paper query is valid");
            let splits = aligned_splits(&query, 4, 128 << 20);
            Some(PresetJob {
                name: "table3",
                about: "Table 3 connection scaling",
                query,
                splits,
                reducer_counts: vec![22, 66, 132, 264, 528, 1024],
            })
        }
        _ => None,
    }
}

fn aligned_splits(query: &StructuralQuery, element_size: u64, split_bytes: u64) -> Vec<InputSplit> {
    SplitGenerator::new(query.input_space().clone(), element_size)
        .aligned(split_bytes, query.extraction.shape()[0])
        .expect("paper geometries generate valid splits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidr_core::SidrPlanner;

    /// Every build proves its plan, so a preset that stops proving
    /// clean fails here, not only in `sidr-lint`.
    #[test]
    fn every_listed_preset_builds() {
        for &(name, _) in preset_names() {
            let job = preset(name).expect("listed preset builds");
            assert_eq!(job.name, name);
            assert!(!job.splits.is_empty());
            assert!(!job.reducer_counts.is_empty());
            for &reducers in &job.reducer_counts {
                let built = SidrPlanner::new(&job.query, reducers).build(&job.splits);
                if let Err(e) = built {
                    panic!("{name} @ {reducers} keyblocks: {e}");
                }
            }
        }
        assert!(preset("no-such").is_none());
    }
}
