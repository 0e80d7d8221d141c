//! Contract tests of the static DES engine across pipeline shapes:
//!
//! - a DAG priced by `simulate_dag` equals the same DAG run as the only
//!   tenant of `simulate_multi`, bit for bit, across devices, work sizes,
//!   seeds, buffer depths and fault plans;
//! - hostile `FaultSpec` values (NaN, infinities, negative factors or
//!   times) are rejected with a typed error at every simulator entry point
//!   instead of panicking or running time backwards;
//! - multi-tenant co-runs honour each tenant's telemetry configuration
//!   without perturbing its stats.

use bt_soc::des::{simulate, ChunkSpec};
use bt_soc::des_dynamic::{simulate_dynamic, simulate_dynamic_dag, DynamicPolicy};
use bt_soc::{
    devices, simulate_batch, simulate_batch_parallel, simulate_dag, simulate_multi,
    DagPipelineSpec, DesSeedSpec, FaultSpec, PuClass, PuLoss, RunConfig, SlowdownRamp, SocError,
    SocSpec, StageFault, StageFaultKind, Straggler, TenantSpec, WorkProfile,
};
use bt_telemetry::TelemetryConfig;

/// Diamond `0 → {1, 2} → 3` whose branches carry `mid` flops each.
fn diamond(mid: f64) -> DagPipelineSpec {
    let w = |f: f64| WorkProfile::new(f, f / 4.0);
    DagPipelineSpec::new(
        vec![
            ChunkSpec::new(PuClass::BigCpu, vec![w(5e6), w(2e6)]),
            ChunkSpec::new(PuClass::MediumCpu, vec![w(mid)]),
            ChunkSpec::new(PuClass::Gpu, vec![w(mid * 1.3)]),
            ChunkSpec::new(PuClass::LittleCpu, vec![w(4e6)]),
        ],
        vec![(0, 1), (0, 2), (1, 3), (2, 3)],
    )
}

fn run_cfg(seed: u64, buffers: u32) -> RunConfig {
    RunConfig {
        tasks: 24,
        warmup: 4,
        seed,
        buffers,
        noise_sigma: 0.05,
        record_timeline: true,
        ..RunConfig::default()
    }
}

/// The three fault plans of the equivalence grid: none, a branch stage
/// `Error`, and a mid-run loss of a branch PU plus a straggler.
fn fault_plans(soc: &SocSpec, spec: &DagPipelineSpec, cfg: &RunConfig) -> Vec<Option<FaultSpec>> {
    let clean = simulate_dag(soc, spec, cfg, None).expect("clean run");
    let t_end = clean.timeline.iter().map(|e| e.end_us).fold(0.0, f64::max);
    vec![
        None,
        Some(FaultSpec {
            stage_faults: vec![StageFault {
                chunk: 1,
                task: 9,
                stage: 0,
                kind: StageFaultKind::Error,
            }],
            ..FaultSpec::default()
        }),
        Some(FaultSpec {
            losses: vec![PuLoss {
                class: PuClass::Gpu,
                at_us: t_end / 2.0,
            }],
            stragglers: vec![Straggler {
                chunk: 1,
                task: 5,
                factor: 6.0,
            }],
            ..FaultSpec::default()
        }),
    ]
}

#[test]
fn simulate_dag_equals_single_dag_tenant_co_run() {
    let mut cases = 0;
    for soc in [devices::pixel_7a(), devices::oneplus_11()] {
        for mid in [2e6, 8e6, 2.4e7] {
            let spec = diamond(mid);
            for seed in 0..6u64 {
                for buffers in [0, 1, 2, 8] {
                    let cfg = run_cfg(seed, buffers);
                    for faults in fault_plans(&soc, &spec, &cfg) {
                        let dag = simulate_dag(&soc, &spec, &cfg, faults.as_ref()).unwrap();
                        let tenant = TenantSpec::new("dag", spec.chunks.clone(), cfg.clone())
                            .with_edges(spec.edges.clone());
                        let multi = simulate_multi(&soc, &[tenant], faults.as_ref()).unwrap();
                        assert_eq!(
                            format!("{dag:?}"),
                            format!("{:?}", multi.tenants[0]),
                            "{} mid={mid} seed={seed} buffers={buffers} faults={faults:?}",
                            soc.name()
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert_eq!(cases, 432);
}

// ------------------------- hostile fault specs -------------------------

/// Fault specs no generator should produce, each paired with the
/// parameter name the typed error must report.
fn hostile_specs() -> Vec<(&'static str, FaultSpec)> {
    let straggler = |factor: f64| FaultSpec {
        stragglers: vec![Straggler {
            chunk: 0,
            task: 3,
            factor,
        }],
        ..FaultSpec::default()
    };
    let ramp = |start_us: f64, ramp_us: f64, factor: f64| FaultSpec {
        slowdowns: vec![SlowdownRamp {
            class: PuClass::BigCpu,
            start_us,
            ramp_us,
            factor,
        }],
        ..FaultSpec::default()
    };
    let timeout = |extra_us: f64| FaultSpec {
        stage_faults: vec![StageFault {
            chunk: 0,
            task: 2,
            stage: 0,
            kind: StageFaultKind::Timeout { extra_us },
        }],
        ..FaultSpec::default()
    };
    let loss = |at_us: f64| FaultSpec {
        losses: vec![PuLoss {
            class: PuClass::Gpu,
            at_us,
        }],
        ..FaultSpec::default()
    };
    vec![
        ("straggler.factor", straggler(f64::NAN)),
        ("straggler.factor", straggler(f64::INFINITY)),
        ("straggler.factor", straggler(0.0)),
        ("straggler.factor", straggler(-2.0)),
        ("slowdown.factor", ramp(0.0, 0.0, f64::NAN)),
        ("slowdown.factor", ramp(0.0, 0.0, f64::INFINITY)),
        ("slowdown.factor", ramp(0.0, 0.0, -1.0)),
        ("slowdown.start_us", ramp(f64::NAN, 10.0, 2.0)),
        ("slowdown.start_us", ramp(-5.0, 10.0, 2.0)),
        ("slowdown.ramp_us", ramp(0.0, f64::NAN, 2.0)),
        ("slowdown.ramp_us", ramp(0.0, f64::INFINITY, 2.0)),
        ("slowdown.ramp_us", ramp(0.0, -1.0, 2.0)),
        ("timeout.extra_us", timeout(f64::NAN)),
        ("timeout.extra_us", timeout(f64::INFINITY)),
        ("timeout.extra_us", timeout(-100.0)),
        ("loss.at_us", loss(f64::NAN)),
        ("loss.at_us", loss(-1.0)),
    ]
}

#[test]
fn hostile_fault_specs_are_typed_errors_at_every_entry_point() {
    let soc = devices::pixel_7a();
    let spec = diamond(6e6);
    let chain = spec.chunks.clone();
    let works: Vec<WorkProfile> = chain.iter().flat_map(|c| c.stages.clone()).collect();
    let cfg = RunConfig {
        tasks: 12,
        warmup: 2,
        ..RunConfig::default()
    };
    for (param, bad) in hostile_specs() {
        let f = Some(&bad);
        let lanes = [
            DesSeedSpec::new(1),
            DesSeedSpec::with_faults(2, bad.clone()),
        ];
        let tenants = [
            TenantSpec::new("a", chain.clone(), cfg.clone()),
            TenantSpec::new("b", chain.clone(), cfg.clone()),
        ];
        let results: Vec<(&str, Result<(), SocError>)> = vec![
            ("simulate", simulate(&soc, &chain, &cfg, f).map(drop)),
            (
                "simulate_dag(chain)",
                simulate_dag(&soc, &DagPipelineSpec::chain(chain.clone()), &cfg, f).map(drop),
            ),
            ("simulate_dag", simulate_dag(&soc, &spec, &cfg, f).map(drop)),
            (
                "simulate_multi",
                simulate_multi(&soc, &tenants, f).map(drop),
            ),
            (
                "simulate_batch",
                simulate_batch(&soc, &chain, &cfg, &lanes).map(drop),
            ),
            (
                "simulate_batch_parallel",
                simulate_batch_parallel(&soc, &chain, &cfg, &lanes, 2).map(drop),
            ),
            (
                "simulate_dynamic",
                simulate_dynamic(&soc, &works, &cfg, DynamicPolicy::BestFit, f).map(drop),
            ),
            (
                "simulate_dynamic_dag",
                simulate_dynamic_dag(&soc, &works, &[(0, 1)], &cfg, DynamicPolicy::Fifo, f)
                    .map(drop),
            ),
        ];
        for (entry, r) in results {
            match r {
                Err(SocError::InvalidSpec { param: p, .. }) => {
                    assert_eq!(p, param, "{entry}: wrong parameter for {bad:?}")
                }
                other => panic!("{entry}: {bad:?} must be rejected, got {other:?}"),
            }
        }
    }
}

#[test]
fn well_formed_fault_specs_validate() {
    let spec = FaultSpec {
        slowdowns: vec![SlowdownRamp {
            class: PuClass::Gpu,
            start_us: 0.0,
            ramp_us: 0.0,
            factor: 0.5,
        }],
        stragglers: vec![Straggler {
            chunk: 1,
            task: 0,
            factor: 1.0,
        }],
        stage_faults: vec![StageFault {
            chunk: 0,
            task: 0,
            stage: 0,
            kind: StageFaultKind::Timeout { extra_us: 0.0 },
        }],
        losses: vec![PuLoss {
            class: PuClass::BigCpu,
            at_us: 0.0,
        }],
    };
    assert_eq!(spec.validate(), Ok(()));
    assert_eq!(FaultSpec::none().validate(), Ok(()));
}

// ------------------------- multi-tenant telemetry -------------------------

#[test]
fn co_run_telemetry_reports_each_tenant_without_perturbing_stats() {
    let soc = devices::pixel_7a();
    let dag = diamond(6e6);
    let chain = vec![
        ChunkSpec::new(PuClass::MediumCpu, vec![WorkProfile::new(7e6, 2e6)]),
        ChunkSpec::new(PuClass::Gpu, vec![WorkProfile::new(9e6, 2e6)]),
    ];
    let tenants = |telemetry: TelemetryConfig| {
        let cfg = |seed| RunConfig {
            tasks: 20,
            warmup: 4,
            seed,
            telemetry,
            ..RunConfig::default()
        };
        [
            TenantSpec::new("dag", dag.chunks.clone(), cfg(3)).with_edges(dag.edges.clone()),
            TenantSpec::new("chain", chain.clone(), cfg(4)),
        ]
    };
    let on = simulate_multi(&soc, &tenants(TelemetryConfig::full()), None).unwrap();
    let off = simulate_multi(&soc, &tenants(TelemetryConfig::default()), None).unwrap();
    for (i, (t_on, t_off)) in on.tenants.iter().zip(&off.tenants).enumerate() {
        let chunks = tenants(TelemetryConfig::full())[i].chunks.len();
        let tele = t_on.telemetry.as_ref().expect("telemetry requested");
        assert_eq!(tele.dispatchers.len(), chunks, "tenant {i}");
        assert_eq!(format!("{:?}", t_on.stats), format!("{:?}", t_off.stats));
        assert!(t_off.telemetry.is_none());
    }
}
