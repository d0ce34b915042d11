//! The paper's evaluation claims, checked at test scale on the
//! cluster simulator (the `sidr-experiments` binaries run the same
//! checks at paper scale).

use sidr_repro::coords::Shape;
use sidr_repro::core::{FrameworkMode, Operator, StructuralQuery};
use sidr_repro::mapreduce::{JobResult, TaskKind};
use sidr_repro::simcluster::workload::{connection_count, hash_key_weights, HashKeyModel};
use sidr_repro::simcluster::{
    build_sim_job, first_result_s, makespan_s, secs, simulate, CostModel, SimClusterConfig,
    SimWorkload,
};

fn shape(v: &[u64]) -> Shape {
    Shape::new(v.to_vec()).unwrap()
}

/// A Query-1-like workload shrunk for tests but keeping the paper's
/// proportions: ~1200 map tasks over 96 slots (≈12 waves), per-task
/// compute well above scheduling overhead, reduce phase a modest
/// fraction of the job.
fn small_query1() -> (StructuralQuery, SimWorkload) {
    let q = StructuralQuery::new(
        "windspeed",
        shape(&[2400, 36, 72, 50]),
        shape(&[2, 36, 36, 10]),
        Operator::Median,
    )
    .unwrap();
    let mut w = SimWorkload::new(q.clone(), FrameworkMode::Sidr, 22);
    w.split_bytes = 36 * 72 * 50 * 4 * 2; // 2 leading rows per split
    (q, w)
}

/// Cost model with overheads scaled to the shrunken task sizes.
fn test_model() -> CostModel {
    CostModel {
        task_overhead_s: 0.2,
        jitter_frac: 0.02,
        ..Default::default()
    }
}

fn run(w: &SimWorkload) -> JobResult {
    simulate(
        &build_sim_job(w).unwrap(),
        &SimClusterConfig::default(),
        &test_model(),
    )
}

#[test]
fn fig9_sidr_first_result_beats_scihadoop_beats_hadoop() {
    let (_, base) = small_query1();
    let sidr = run(&base);
    let sh = run(&SimWorkload {
        mode: FrameworkMode::SciHadoop,
        ..base.clone()
    });
    let h = run(&SimWorkload {
        mode: FrameworkMode::Hadoop,
        ..base.clone()
    });
    assert!(
        first_result_s(&sidr) < 0.6 * first_result_s(&sh),
        "SIDR {} vs SH {}",
        first_result_s(&sidr),
        first_result_s(&sh)
    );
    assert!(first_result_s(&h) > 1.5 * first_result_s(&sh));
    assert!(makespan_s(&h) > 1.5 * makespan_s(&sidr));
    // SIDR total within 15 % of SciHadoop at 22 reducers.
    assert!((makespan_s(&sidr) / makespan_s(&sh) - 1.0).abs() < 0.15);
}

#[test]
fn fig9_headline_first_result_with_small_fraction_of_maps() {
    let (_, base) = small_query1();
    let sidr = run(&base);
    let frac = sidr.maps_done_at_first_result().unwrap();
    assert!(
        frac < 0.35,
        "first result only after {:.0} % of maps",
        frac * 100.0
    );
}

#[test]
fn fig10_more_reducers_earlier_results() {
    let (_, base) = small_query1();
    let mut firsts = Vec::new();
    let mut totals = Vec::new();
    for r in [22usize, 44, 88] {
        let t = run(&SimWorkload {
            num_reducers: r,
            ..base.clone()
        });
        firsts.push(first_result_s(&t));
        totals.push(makespan_s(&t));
    }
    assert!(
        firsts.windows(2).all(|w| w[1] <= w[0] * 1.05),
        "first results not improving: {firsts:?}"
    );
    assert!(
        totals.windows(2).all(|w| w[1] <= w[0] * 1.05),
        "makespans not improving: {totals:?}"
    );
}

#[test]
fn fig10_global_barrier_gains_nothing_from_reducers() {
    let (_, base) = small_query1();
    let sh22 = run(&SimWorkload {
        mode: FrameworkMode::SciHadoop,
        num_reducers: 22,
        ..base.clone()
    });
    let sh88 = run(&SimWorkload {
        mode: FrameworkMode::SciHadoop,
        num_reducers: 88,
        ..base.clone()
    });
    // "Increasing the number of Reduce tasks for either yields no
    // benefit" (§4.1): no speedup; per-task overhead may even cost a
    // little.
    assert!(makespan_s(&sh88) >= 0.97 * makespan_s(&sh22));
    assert!(makespan_s(&sh88) <= 1.25 * makespan_s(&sh22));
    // First results can't precede the last map either way.
    let last_map = secs(*sh88.completions(TaskKind::MapEnd).last().unwrap());
    assert!(first_result_s(&sh88) >= last_map);
}

#[test]
fn fig11_filter_query_leaves_little_room() {
    let (_, base) = small_query1();
    let filter = |mode| {
        let mut w = SimWorkload {
            mode,
            ..base.clone()
        };
        w.selectivity = 0.001;
        run(&w)
    };
    let sh = filter(FrameworkMode::SciHadoop);
    let ss = filter(FrameworkMode::Sidr);
    let improvement = (makespan_s(&sh) - makespan_s(&ss)) / makespan_s(&sh);
    assert!(
        improvement < 0.15,
        "filter query improved {:.0} % — paper says little room",
        improvement * 100.0
    );
}

#[test]
fn fig12_more_reducers_less_variance() {
    let (_, base) = small_query1();
    let spread = |r: usize| {
        let mut makespans = Vec::new();
        for seed in 0..6u64 {
            let model = CostModel {
                seed,
                jitter_frac: 0.10,
                ..Default::default()
            };
            let t = simulate(
                &build_sim_job(&SimWorkload {
                    num_reducers: r,
                    ..base.clone()
                })
                .unwrap(),
                &SimClusterConfig::default(),
                &model,
            );
            makespans.push(makespan_s(&t));
        }
        let mean = makespans.iter().sum::<f64>() / makespans.len() as f64;
        (makespans.iter().map(|m| (m - mean).powi(2)).sum::<f64>() / makespans.len() as f64).sqrt()
    };
    let s22 = spread(22);
    let s88 = spread(88);
    assert!(s88 <= s22 * 1.2, "88R spread {s88} vs 22R {s22}");
}

#[test]
fn fig13_corner_keys_skew_hash_but_not_partition_plus() {
    let (q, _) = small_query1();
    let hash = hash_key_weights(&q, 22, HashKeyModel::CornerCoords);
    let starved = hash.iter().filter(|&&w| w == 0).count();
    assert!(starved >= 11, "hash starved only {starved} reducers");
    let uniform = hash_key_weights(&q, 22, HashKeyModel::Uniform);
    assert_eq!(uniform.iter().filter(|&&w| w == 0).count(), 0);
}

#[test]
fn table3_connection_scaling() {
    let (_, base) = small_query1();
    let job = build_sim_job(&base).unwrap();
    let maps = job.maps.len() as u64;
    for r in [22usize, 66] {
        let sidr = connection_count(&SimWorkload {
            num_reducers: r,
            ..base.clone()
        })
        .unwrap();
        let hadoop = connection_count(&SimWorkload {
            mode: FrameworkMode::SciHadoop,
            num_reducers: r,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(hadoop, maps * r as u64, "Hadoop contacts everything");
        assert!(
            sidr < maps * 2,
            "SIDR connections {sidr} not near map count {maps}"
        );
    }
}
