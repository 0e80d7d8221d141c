//! Closed-form oracle for the static DES, independent of the engine's own
//! past output.
//!
//! With no interference and no noise every chunk's service time is its
//! isolated cost `Σ cost::latency + sync_overhead_us`, and an interval
//! mapping obeys the period/latency formulas of Benoit et al.,
//! "Multi-criteria scheduling of pipeline workflows":
//!
//! - the steady-state period is the largest chunk cost (chains and DAGs);
//! - with one task object in flight the latency is the sum of the chunk
//!   costs on a chain, and the longest source-to-sink path on a DAG;
//! - a stage replicated over a round-robin group of `k` members divides
//!   its period by `k`;
//! - tenants that do not interfere each keep their own period.

use bt_soc::des::ChunkSpec;
use bt_soc::{
    cost, simulate_dag, simulate_multi, DagPipelineSpec, InterferenceModel, PuClass, PuSpec,
    RunConfig, RunStats, SocBuilder, SocSpec, TenantSpec, WorkProfile,
};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

/// A device with no interference at all, so service times are exactly the
/// isolated costs.
fn clean_soc() -> SocSpec {
    SocBuilder::new("clean")
        .pu(PuSpec::new(PuClass::BigCpu, "big", 4, 2.0))
        .pu(PuSpec::new(PuClass::MediumCpu, "med", 4, 1.5))
        .pu(PuSpec::new(PuClass::Gpu, "gpu", 8, 1.0))
        .dram_bw_gbs(1e9) // effectively unlimited
        .interference(InterferenceModel::none())
        .build()
        .expect("valid device")
}

const CLASSES: [PuClass; 3] = [PuClass::BigCpu, PuClass::MediumCpu, PuClass::Gpu];

/// One chunk: a class index and 1–3 stage sizes.
fn chunk() -> impl Strategy<Value = ChunkSpec> {
    (0usize..3, proptest::collection::vec(1.0e5f64..5.0e7, 1..4)).prop_map(|(class, flops)| {
        ChunkSpec::new(
            CLASSES[class],
            flops
                .into_iter()
                .map(|f| WorkProfile::new(f, f / 4.0))
                .collect(),
        )
    })
}

/// A chunk's isolated cost: its stages back to back plus one sync.
fn chunk_cost(soc: &SocSpec, c: &ChunkSpec) -> f64 {
    let pu = soc.pu(c.pu).expect("present");
    c.stages
        .iter()
        .map(|w| cost::latency(w, pu, soc, &cost::LoadContext::isolated()).as_f64())
        .sum::<f64>()
        + pu.sync_overhead_us()
}

fn cfg(buffers: u32, seed: u64) -> RunConfig {
    RunConfig {
        tasks: 24,
        warmup: 8,
        buffers,
        seed,
        noise_sigma: 0.0,
        ..RunConfig::default()
    }
}

fn run(soc: &SocSpec, spec: &DagPipelineSpec, cfg: &RunConfig) -> RunStats {
    let r = simulate_dag(soc, spec, cfg, None).expect("simulates");
    assert_eq!(r.completed, r.submitted);
    r.expect_stats().clone()
}

fn close(got: f64, want: f64) {
    let rel = (got - want).abs() / want;
    assert!(rel <= TOL, "got {got}, want {want} (rel err {rel:e})");
}

fn diamond(chunks: Vec<ChunkSpec>) -> DagPipelineSpec {
    DagPipelineSpec::new(chunks, vec![(0, 1), (0, 2), (1, 3), (2, 3)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn chain_period_is_max_and_latency_is_sum(
        chunks in proptest::collection::vec(chunk(), 1..=4),
        seed in 0u64..1000,
    ) {
        let soc = clean_soc();
        let costs: Vec<f64> = chunks.iter().map(|c| chunk_cost(&soc, c)).collect();
        let spec = DagPipelineSpec::chain(chunks);
        let steady = run(&soc, &spec, &cfg(0, seed));
        close(steady.time_per_task.as_f64(), costs.iter().cloned().fold(0.0, f64::max));
        let single = run(&soc, &spec, &cfg(1, seed));
        close(single.mean_task_latency.as_f64(), costs.iter().sum());
    }

    #[test]
    fn diamond_period_is_max_and_latency_is_longest_path(
        chunks in proptest::collection::vec(chunk(), 4),
        seed in 0u64..1000,
    ) {
        let soc = clean_soc();
        let c: Vec<f64> = chunks.iter().map(|ch| chunk_cost(&soc, ch)).collect();
        let spec = diamond(chunks);
        let steady = run(&soc, &spec, &cfg(0, seed));
        close(steady.time_per_task.as_f64(), c.iter().cloned().fold(0.0, f64::max));
        let single = run(&soc, &spec, &cfg(1, seed));
        close(single.mean_task_latency.as_f64(), c[0] + c[1].max(c[2]) + c[3]);
    }

    #[test]
    fn replica_pair_halves_its_stage_period(
        ends in proptest::collection::vec(chunk(), 2),
        member in proptest::collection::vec(1.0e5f64..5.0e7, 1..4),
        classes in (0usize..3, 0usize..3),
        seed in 0u64..1000,
    ) {
        let soc = clean_soc();
        let stages: Vec<WorkProfile> =
            member.iter().map(|&f| WorkProfile::new(f, f / 4.0)).collect();
        let chunks = vec![
            ends[0].clone(),
            ChunkSpec::new(CLASSES[classes.0], stages.clone()),
            ChunkSpec::new(CLASSES[classes.1], stages),
            ends[1].clone(),
        ];
        let c: Vec<f64> = chunks.iter().map(|ch| chunk_cost(&soc, ch)).collect();
        let spec = diamond(chunks).with_replica_group(vec![1, 2]);
        let steady = run(&soc, &spec, &cfg(0, seed));
        close(steady.time_per_task.as_f64(), c[0].max(c[3]).max(c[1].max(c[2]) / 2.0));
    }

    #[test]
    fn co_run_tenants_keep_their_own_periods(
        a in proptest::collection::vec(chunk(), 1..=3),
        b in proptest::collection::vec(chunk(), 1..=3),
        seeds in (0u64..1000, 0u64..1000),
    ) {
        let soc = clean_soc();
        let period = |chunks: &[ChunkSpec]| {
            chunks.iter().map(|c| chunk_cost(&soc, c)).fold(0.0, f64::max)
        };
        let want = [period(&a), period(&b)];
        let r = simulate_multi(
            &soc,
            &[
                TenantSpec::new("a", a, cfg(0, seeds.0)),
                TenantSpec::new("b", b, cfg(0, seeds.1)),
            ],
            None,
        )
        .expect("co-runs");
        for (t, want) in r.tenants.iter().zip(want) {
            close(t.expect_stats().time_per_task.as_f64(), want);
        }
    }
}
