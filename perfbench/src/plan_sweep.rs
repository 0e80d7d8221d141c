//! `plan-sweep`: the Fig. 2 loop as a developer runs it — one caller, a
//! closed loop over every `devices::all()` device × {the three paper chain
//! apps through `BetterTogether::run`, perception through `optimize_dag` +
//! `measure_dag`}, plus `mcu_m7` × sensor through `McuBackend` and one
//! `simulate_multi` co-run of the three paper apps. Every loop scales its
//! app's work profiles by its own factor, so no two loops share inputs.
//!
//! Its end-to-end figures, `setup_s` too, are CPU time of every thread of
//! the process, not wall time. Every `autotune` and `measure_baselines`
//! call spawns scoped workers; on a shared 2-vCPU guest, the wall time of
//! such a loop is mostly the wait for the hypervisor to wake an idle vCPU,
//! so runs of the same code ranged over 245–614 loops/s at 20–40% steal,
//! against 567–687 loops per CPU-second. The CPU figures still carry the
//! fan-out's own cost (spawning, joining and re-warming two workers per
//! call: 2.2–2.6× the serial loop's CPU on the paper chain cells). Each
//! layer's wall time stays in the traced run.

use std::time::Instant;

use bt_core::{
    autotune, measure_baselines, optimize_dag, optimize_with, validate_dag_schedule,
    BetterTogether, Deployment, ExecutionBackend, McuBackend, OptimizerConfig, Plan, SimBackend,
};
use bt_kernels::{apps, AppModel};
use bt_pipeline::{to_chunk_specs, Schedule};
use bt_profiler::ProfileMode;
use bt_soc::{devices, simulate_multi, PuClass, RunConfig, SocSpec, TenantSpec};

use crate::report::{peak_rss_mb, timed_setup_on, Outcome};
use crate::stamp::process_cpu_s;
use crate::stats::{geomean, golden, Blocks, Rng};
use crate::trace::Tracer;
use crate::Opts;

/// Loops whose work counters and plan quality are reported: the first
/// rounds over every loop kind, identical for a given seed everywhere.
const WINDOW_ROUNDS: usize = 8;

/// Loops per timing block (56 rounds of the 18 loop kinds): enough that
/// each block's p99 has ten loops beyond it.
const BLOCK: usize = 56 * 18;

/// At most this many loops are re-run to check that a second run of the
/// same inputs picks the same winner at the same virtual latency.
const MAX_RECHECKS: usize = 48;

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Device index × paper chain app index, through `BetterTogether::run`.
    Chain(usize, usize),
    /// Device index × perception, through `optimize_dag` + `measure_dag`.
    Dag(usize),
    /// `mcu_m7` × sensor through `McuBackend`.
    Mcu,
    /// The three paper apps co-run through `simulate_multi`.
    Corun,
}

/// The models and devices every loop draws from.
#[derive(Debug)]
struct Fixture {
    devices: Vec<SocSpec>,
    chain: Vec<AppModel>,
    perception: AppModel,
    sensor: AppModel,
    mcu: SocSpec,
    corun_soc: SocSpec,
    corun_schedules: Vec<Schedule>,
    kinds: Vec<Kind>,
}

impl Fixture {
    fn new() -> Result<Fixture, String> {
        let devices = devices::all();
        let chain = vec![
            apps::alexnet_dense_app(apps::AlexNetConfig::default()).model(),
            apps::alexnet_sparse_app(apps::AlexNetConfig::default()).model(),
            apps::octree_app(apps::OctreeConfig::default()).model(),
        ];
        let mut kinds = Vec::new();
        for d in 0..devices.len() {
            for a in 0..chain.len() {
                kinds.push(Kind::Chain(d, a));
            }
            kinds.push(Kind::Dag(d));
        }
        kinds.push(Kind::Mcu);
        kinds.push(Kind::Corun);
        let corun_schedules = corun_schedules(&chain)?;
        Ok(Fixture {
            devices,
            chain,
            perception: apps::perception_app(apps::PerceptionConfig::default()).model(),
            sensor: apps::sensor_app(apps::SensorConfig::default()).model(),
            mcu: devices::mcu_m7(),
            corun_soc: devices::pixel_7a(),
            corun_schedules,
            kinds,
        })
    }

    fn window(&self) -> usize {
        WINDOW_ROUNDS * self.kinds.len()
    }
}

/// A fixed co-placement of the three paper apps on the Pixel 7a, each
/// leaning on a different cluster mix: dense on the GPU, sparse split over
/// big and medium cores, octree spread over all four classes.
fn corun_schedules(chain: &[AppModel]) -> Result<Vec<Schedule>, String> {
    use PuClass::*;
    let sparse = chain[1].stage_count();
    let split = (0..sparse)
        .map(|i| if i < sparse / 2 { BigCpu } else { MediumCpu })
        .collect();
    Ok(vec![
        Schedule::homogeneous(chain[0].stage_count(), Gpu),
        Schedule::new(split).map_err(|e| e.to_string())?,
        Schedule::new(vec![
            BigCpu, BigCpu, MediumCpu, Gpu, Gpu, LittleCpu, LittleCpu,
        ])
        .map_err(|e| e.to_string())?,
    ])
}

/// `app` with every stage's work profile scaled by `factor`.
fn scaled(app: &AppModel, factor: f64) -> AppModel {
    let mut app = app.clone();
    for stage in &mut app.stages {
        stage.work = stage.work.scaled(factor);
    }
    app
}

/// The work-scale factor of loop `i`: spread over [0.8, 1.25] by a
/// seed-shifted golden-ratio sequence, distinct for every loop.
fn factor(i: usize, offset: f64) -> f64 {
    (0.8f64.ln() + (1.25f64 / 0.8).ln() * golden(i as u64, offset)).exp()
}

fn seed_offset(seed: u64) -> f64 {
    Rng::new(seed, 0x5157).unit()
}

/// What one loop produced.
#[derive(Debug, Clone)]
struct LoopOut {
    /// Wall time of the library work, ms.
    ms: f64,
    /// CPU time of the library work over every thread, ms.
    cpu_ms: f64,
    /// The winning schedule (the co-run reports its placement tag).
    winner: String,
    /// Virtual-time per-task latency of the winner (co-run: makespan).
    sim_us: f64,
    /// Whether this loop produced a plan (the co-run does not).
    plan: bool,
    /// Candidates levels 1–2 returned.
    candidates: u64,
    /// Stage-service events the DES processed while autotuning.
    des_events: u64,
    /// Homogeneous baseline runs.
    baseline_runs: u64,
    /// Whether the loop's outputs passed their checks.
    valid: bool,
    /// Co-run loops, for the per-op figure.
    corun: bool,
    /// Fork/join (perception) loops, for the second-path figure.
    dag: bool,
}

/// Stage-service events of one simulated run: every task (measured and
/// warmup) is served once by every stage under the shipped run shape.
fn events_per_run(stages: usize) -> u64 {
    let run = RunConfig::default();
    u64::from(run.tasks + run.warmup) * stages as u64
}

/// Runs loop `i`. With a tracer, the loop runs as the same public calls
/// `BetterTogether::run` makes, each inside its own span under a root span
/// for the loop; without one, it calls `run` itself.
fn run_loop(
    fx: &Fixture,
    i: usize,
    offset: f64,
    tracer: Option<&Tracer>,
) -> Result<LoopOut, String> {
    let t0 = Instant::now();
    let cpu0 = process_cpu_s();
    let root = tracer.map(|t| t.open("loop", i as u64, None));
    let f = factor(i, offset);
    let span = tracer.zip(root);
    let mut out = match fx.kinds[i % fx.kinds.len()] {
        Kind::Chain(d, a) => {
            let bt = BetterTogether::new(fx.devices[d].clone(), scaled(&fx.chain[a], f));
            chain_loop(&bt, i, span)?
        }
        Kind::Mcu => {
            let bt = BetterTogether::with_backend(McuBackend::new(
                fx.mcu.clone(),
                scaled(&fx.sensor, f),
            ));
            chain_loop(&bt, i, span)?
        }
        Kind::Dag(d) => dag_loop(&fx.devices[d], &scaled(&fx.perception, f), i, span)?,
        Kind::Corun => corun_loop(fx, f, i, span)?,
    };
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root, "");
    }
    out.ms = t0.elapsed().as_secs_f64() * 1e3;
    out.cpu_ms = (process_cpu_s() - cpu0) * 1e3;
    Ok(out)
}

fn scope<T>(
    span: Option<(&Tracer, usize)>,
    name: &'static str,
    op: usize,
    f: impl FnOnce() -> T,
) -> T {
    match span {
        Some((t, root)) => t.scope(name, op as u64, root, f),
        None => f(),
    }
}

fn chain_loop<B: ExecutionBackend>(
    bt: &BetterTogether<B>,
    i: usize,
    span: Option<(&Tracer, usize)>,
) -> Result<LoopOut, String> {
    let err = |e: bt_core::BtError| e.to_string();
    let d = match span {
        None => bt.run().map_err(err)?,
        Some(_) => {
            let backend = bt.backend();
            let table = scope(span, "profile", i, || bt.profile());
            let plan = scope(span, "solve", i, || {
                optimize_with(&table, &bt.config().optimizer, |c| backend.schedulable(c))
                    .map(|candidates| Plan { table, candidates })
                    .and_then(|plan| plan.validate(backend).map(|()| plan))
            })
            .map_err(err)?;
            let outcome =
                scope(span, "autotune", i, || autotune(backend, &plan.candidates)).map_err(err)?;
            let baselines =
                scope(span, "baselines", i, || measure_baselines(backend)).map_err(err)?;
            Deployment {
                plan,
                outcome,
                baselines,
            }
        }
    };
    let backend = bt.backend();
    let winner = d.best_schedule().ok_or("no measured-best schedule")?;
    let sim_us = d
        .best_latency()
        .ok_or("best schedule not measured")?
        .as_f64();
    Ok(LoopOut {
        ms: 0.0,
        cpu_ms: 0.0,
        winner: winner.to_string(),
        sim_us,
        plan: true,
        candidates: d.plan.candidates.len() as u64,
        des_events: d.outcome.measured.len() as u64 * events_per_run(backend.stage_count()),
        baseline_runs: d.baselines.entries().len() as u64,
        valid: d.plan.validate(backend).is_ok()
            && d.outcome.measured.len() == d.plan.candidates.len(),
        corun: false,
        dag: false,
    })
}

fn dag_loop(
    soc: &SocSpec,
    app: &AppModel,
    i: usize,
    span: Option<(&Tracer, usize)>,
) -> Result<LoopOut, String> {
    let err = |e: bt_core::BtError| e.to_string();
    let backend = SimBackend::new(soc.clone(), app.clone());
    let table = scope(span, "profile", i, || {
        backend.profile(ProfileMode::InterferenceHeavy)
    });
    let graph = app.task_graph();
    let cands = scope(span, "solve", i, || {
        optimize_dag(soc, &table, &graph, &OptimizerConfig::default())
    })
    .map_err(err)?;
    let measured = scope(span, "autotune", i, || {
        cands
            .iter()
            .enumerate()
            .map(|(k, c)| backend.measure_dag(&c.schedule, k as u64))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(err)?;
    let (best, m) = measured
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.latency.as_f64().total_cmp(&b.1.latency.as_f64()))
        .ok_or("no DAG candidates")?;
    Ok(LoopOut {
        ms: 0.0,
        cpu_ms: 0.0,
        winner: cands[best].schedule.to_string(),
        sim_us: m.latency.as_f64(),
        plan: true,
        candidates: cands.len() as u64,
        des_events: measured.len() as u64 * events_per_run(app.stage_count()),
        baseline_runs: 0,
        valid: cands
            .iter()
            .all(|c| validate_dag_schedule(&c.schedule, &backend).is_ok()),
        corun: false,
        dag: true,
    })
}

fn corun_loop(
    fx: &Fixture,
    f: f64,
    i: usize,
    span: Option<(&Tracer, usize)>,
) -> Result<LoopOut, String> {
    let specs = fx
        .chain
        .iter()
        .zip(&fx.corun_schedules)
        .enumerate()
        .map(|(k, (app, schedule))| {
            let app = scaled(app, f);
            let chunks = to_chunk_specs(&app, schedule).map_err(|e| e.to_string())?;
            let run = RunConfig {
                seed: (i * 3 + k) as u64,
                ..RunConfig::default()
            };
            Ok(TenantSpec::new(app.name.clone(), chunks, run))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let report = scope(span, "corun", i, || {
        simulate_multi(&fx.corun_soc, &specs, None)
    })
    .map_err(|e| e.to_string())?;
    let valid = report
        .tenants
        .iter()
        .all(|r| r.completed == r.submitted && r.dropped == 0 && r.degraded.is_none());
    Ok(LoopOut {
        ms: 0.0,
        cpu_ms: 0.0,
        winner: "corun".to_string(),
        sim_us: report.makespan_us,
        plan: false,
        candidates: 0,
        des_events: 0,
        baseline_runs: 0,
        valid,
        corun: true,
        dag: false,
    })
}

/// Same winner at the same virtual latency (bit-exact).
fn same_result(a: &LoopOut, b: &LoopOut) -> bool {
    a.winner == b.winner && a.sim_us.to_bits() == b.sim_us.to_bits()
}

#[derive(Debug, Default)]
struct Counters {
    candidates: u64,
    des_events: u64,
    baseline_runs: u64,
    sims: Vec<f64>,
}

impl Counters {
    fn add(&mut self, out: &LoopOut) {
        self.candidates += out.candidates;
        self.des_events += out.des_events;
        self.baseline_runs += out.baseline_runs;
        if out.plan {
            self.sims.push(out.sim_us);
        }
    }
}

/// Builds the fixture and runs one warm round over every loop kind, so
/// lazy set-up and caches are done before timing; timed in CPU seconds.
fn setup() -> Result<(f64, Fixture), String> {
    timed_setup_on(process_cpu_s, 7, || {
        let fx = Fixture::new()?;
        for i in 0..fx.kinds.len() {
            run_loop(&fx, i, 0.0, None)?;
        }
        Ok(fx)
    })
}

/// The deterministic work counters of the window for `seed`.
pub fn window_counters(seed: u64) -> Result<Vec<(&'static str, u64)>, String> {
    let fx = Fixture::new()?;
    let offset = seed_offset(seed);
    let mut c = Counters::default();
    for i in 0..fx.window() {
        c.add(&run_loop(&fx, i, offset, None)?);
    }
    Ok(vec![
        ("solve.candidates", c.candidates),
        ("autotune.des_events", c.des_events),
        ("baselines.runs", c.baseline_runs),
    ])
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (setup_s, fx) = setup()?;
    let offset = seed_offset(opts.seed);
    let mut pick = Rng::new(opts.seed, 0xC4EC);
    let mut outcome = Outcome::default();
    let mut window = Counters::default();
    let mut rechecks: Vec<(usize, LoopOut)> = Vec::new();
    let tracer = Tracer::new();
    let (mut untraced_ms, mut traced_ms) = (0.0, 0.0);
    let (mut traced_loops, mut corun_ops) = (0u64, 0u64);
    let cpu0 = process_cpu_s();
    // Timing blocks of per-loop CPU ms.
    let mut blocks = Blocks::new(BLOCK, 0.99);
    // The fork/join path (perception through `optimize_dag`), timed on
    // its own: one loop kind per device, so a block holds as many rounds.
    let mut dag_blocks = Blocks::new(BLOCK / fx.kinds.len() * fx.devices.len(), 0.5);
    let start = Instant::now();
    let mut i = 0;
    while i < fx.window() || start.elapsed() < opts.budget {
        // The traced run times every loop twice on the same inputs,
        // alternating which of the two goes first.
        let (out, traced) = if opts.trace && i % 2 == 1 {
            let traced = run_loop(&fx, i, offset, Some(&tracer));
            (run_loop(&fx, i, offset, None), Some(traced))
        } else {
            let out = run_loop(&fx, i, offset, None);
            (
                out,
                opts.trace.then(|| run_loop(&fx, i, offset, Some(&tracer))),
            )
        };
        match (out, traced) {
            (Ok(out), None) => {
                outcome.check(out.valid);
                blocks.push(out.cpu_ms);
                if out.dag {
                    dag_blocks.push(out.cpu_ms);
                }
                if i < fx.window() {
                    window.add(&out);
                }
                if rechecks.len() < MAX_RECHECKS && pick.next_u64().is_multiple_of(8) {
                    rechecks.push((i, out));
                }
            }
            (Ok(out), Some(Ok(tr))) => {
                // The two runs of the same inputs must agree.
                outcome.check(out.valid && tr.valid && same_result(&out, &tr));
                untraced_ms += out.ms;
                traced_ms += tr.ms;
                traced_loops += 1;
                corun_ops += u64::from(tr.corun);
                if i < fx.window() {
                    window.add(&tr);
                }
            }
            (Err(e), _) | (_, Some(Err(e))) => {
                eprintln!("perfbench: plan-sweep loop {i} failed: {e}");
                outcome.check(false);
            }
        }
        i += 1;
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    for (i, first) in &rechecks {
        let ok = run_loop(&fx, *i, offset, None).is_ok_and(|again| same_result(first, &again));
        outcome.check(ok);
    }

    if opts.trace {
        let per_loop = |name: &str| {
            tracer
                .self_times()
                .get(name)
                .map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
                / traced_loops as f64
        };
        outcome.push("profile.ms_per_loop", per_loop("profile"));
        outcome.push("solve.ms_per_loop", per_loop("solve"));
        outcome.push("autotune.ms_per_loop", per_loop("autotune"));
        outcome.push("baselines.ms_per_loop", per_loop("baselines"));
        outcome.push("glue.ms_per_loop", per_loop("loop"));
        let corun_ns = tracer.self_times().get("corun").map_or(0, |&(ns, _)| ns);
        outcome.push(
            "corun.ms_per_op",
            corun_ns as f64 / 1e6 / corun_ops.max(1) as f64,
        );
        outcome.push("solve.candidates", window.candidates as f64);
        outcome.push("autotune.des_events", window.des_events as f64);
        outcome.push("baselines.runs", window.baseline_runs as f64);
        outcome.push("plan.cpu_per_wall", cpu_s / wall_s);
        outcome.push("plan.sim_us_geomean", geomean(&window.sims));
        outcome.push(
            "trace.overhead_pct",
            100.0 * (traced_ms - untraced_ms) / untraced_ms,
        );
        tracer.write_jsonl(&crate::trace::spans_path(&opts.workload));
    } else {
        let b = blocks.summary();
        outcome.push("ops_per_s", b.rate * 1e3);
        outcome.push("op_ms_p50", b.p50);
        outcome.push("op_ms_tail", b.tail);
        outcome.push("alt_ops_per_s", dag_blocks.summary().rate * 1e3);
        outcome.push("setup_s", setup_s);
        outcome.push("peak_rss_mb", peak_rss_mb());
    }
    Ok(outcome)
}
