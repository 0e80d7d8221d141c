//! The host workloads: real kernels on real threads.
//!
//! - `host-kernels`: `run_host` on octree and `run_host_dag` on
//!   perception, where kernels take nearly all busy time.
//! - `host-relay`: the sensor stream at 256 samples per task through
//!   `run_host` and through `run_multi_host` (two tenants, two workers),
//!   where ring, wake-up and steal costs dominate.
//!
//! Each uses a fixed two-chunk schedule written here, so optimizer changes
//! cannot change what runs, and one thread per PU class. The benchmark
//! wraps every stage kernel (`Stage::new` around `Stage::kernel()`) and the
//! input source, all sharing the task's sequence number: the source stamps
//! the task's start, the sink stage its end, and in the traced run every
//! call also records a span.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bt_kernels::{apps, Application, FactoryFn, KernelFn, ParCtx, SourceFn, Stage};
use bt_pipeline::{
    run_host, run_host_dag, run_multi_host, DagSchedule, PipelineError, PuThreads, RunConfig,
    RunReport, Schedule, Tenant, TenantSet, WorkerBudget,
};
use bt_soc::PuClass;
use bt_telemetry::TelemetryConfig;

use crate::report::{peak_rss_mb, timed_setup, Outcome};
use crate::stats::{Blocks, Rng};
use crate::trace::{Span, Tracer};
use crate::Opts;

/// Sensor samples per task on `host-relay`: about 6–12 µs of compute, so
/// per-task runtime costs are a large share of the task.
const RELAY_BLOCK: usize = 256;

/// Tasks per run (warmup excluded). Runs are the timing blocks of the
/// rates: an octree run takes about 2.5 s (long enough that pipeline fill
/// and drain stay small); a perception run about 0.3 s and a sensor run
/// well under 0.1 s.
const OCTREE_TASKS: u32 = 50;
const PERCEPTION_TASKS: u32 = 100;
const SENSOR_TASKS: u32 = 2_000;

/// Second-path runs per round (see [`rounds`]): about a third of
/// `host-kernels` time goes to the perception relay, and the pool gets
/// about as much time as the `run_host` relay.
const DAG_RUNS_PER_ROUND: usize = 3;
const POOL_RUNS_PER_ROUND: usize = 2;

/// Octree tasks per round through `run_sequential`: the kernels alone, on
/// one thread, with no runtime between them.
const SEQUENTIAL_TASKS: u32 = 10;

/// Tasks per run of the untimed output-check runs.
const CHECK_TASKS: u32 = 12;

/// A task payload tagged with its sequence number and start instant.
#[derive(Debug)]
struct Tagged<P> {
    inner: P,
    seq: u64,
    start: Option<Instant>,
}

/// Renders a payload's outputs for comparison with the sequential
/// reference.
type Extract<P> = Arc<dyn Fn(&P) -> String + Send + Sync>;

/// Shared state of one wrapped application.
#[derive(Debug)]
struct Probe {
    /// Record spans.
    traced: AtomicBool,
    /// Record per-task latencies.
    timing: AtomicBool,
    /// Keep the outputs of tasks with `seq % SAMPLE_EVERY == sample_at`.
    sampling: AtomicBool,
    sample_at: u64,
    /// Tasks with a smaller sequence number are warmup.
    warmup: u64,
    latencies_ms: Mutex<Vec<f64>>,
    samples: Mutex<Vec<(u64, String)>>,
    tracer: Tracer,
    /// The spans of the first traced run, written out at exit.
    kept: Mutex<Vec<Span>>,
}

const SAMPLE_EVERY: u64 = 4;

impl Probe {
    fn new(seed: u64, warmup: u32) -> Arc<Probe> {
        Arc::new(Probe {
            traced: AtomicBool::new(false),
            timing: AtomicBool::new(true),
            sampling: AtomicBool::new(false),
            sample_at: Rng::new(seed, 0x5A3F).next_u64() % SAMPLE_EVERY,
            warmup: u64::from(warmup),
            latencies_ms: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
            tracer: Tracer::new(),
            kept: Mutex::new(Vec::new()),
        })
    }

    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock()
            .expect("no thread panics while holding a probe lock")
    }

    /// Takes the latencies recorded so far.
    fn take_latencies(&self) -> Vec<f64> {
        std::mem::take(&mut *Probe::lock(&self.latencies_ms))
    }

    /// Takes the per-run trace totals (µs in kernels, µs in the source,
    /// kernel calls) and clears them.
    fn take_trace(&self) -> (f64, f64, u64) {
        let times = self.tracer.self_times();
        let (kernel_ns, calls) = times.get("kernel").copied().unwrap_or_default();
        let source_ns = times.get("source").map_or(0, |&(ns, _)| ns);
        let out = (kernel_ns as f64 / 1e3, source_ns as f64 / 1e3, calls);
        let spans = self.tracer.take();
        let mut kept = Probe::lock(&self.kept);
        if kept.is_empty() {
            *kept = spans;
        }
        out
    }
}

/// Wraps `app` so every task is timed from `load_input` to its sink
/// stage, and traced when the probe says so.
fn wrap<P: Send + 'static>(
    app: &Application<P>,
    probe: &Arc<Probe>,
    extract: Extract<P>,
) -> Result<Application<Tagged<P>>, String> {
    let n = app.stage_count();
    if app.graph().sinks() != [n - 1] {
        return Err(format!(
            "{}: the last stage must be the only sink",
            app.name()
        ));
    }
    let stages: Vec<Stage<Tagged<P>>> = app
        .stages()
        .iter()
        .enumerate()
        .map(|(s, stage)| {
            let kernel = stage.kernel();
            let probe = Arc::clone(probe);
            let extract = Arc::clone(&extract);
            let name: &'static str = Box::leak(stage.name().to_string().into_boxed_str());
            let wrapped: KernelFn<Tagged<P>> = Arc::new(move |t: &mut Tagged<P>, ctx: &ParCtx| {
                let traced = probe.traced.load(Ordering::Relaxed);
                let k0 = traced.then(Instant::now);
                kernel(&mut t.inner, ctx);
                let end = Instant::now();
                if let Some(k0) = k0 {
                    probe.tracer.record("kernel", t.seq, None, name, k0, end);
                }
                if s + 1 == n {
                    let start = t.start.take();
                    if let Some(start) = start.filter(|_| probe.timing.load(Ordering::Relaxed)) {
                        if t.seq >= probe.warmup {
                            Probe::lock(&probe.latencies_ms)
                                .push((end - start).as_secs_f64() * 1e3);
                        }
                    }
                    if probe.sampling.load(Ordering::Relaxed)
                        && t.seq % SAMPLE_EVERY == probe.sample_at
                    {
                        Probe::lock(&probe.samples).push((t.seq, extract(&t.inner)));
                    }
                }
            });
            Stage::new(stage.name(), stage.work().clone(), wrapped)
        })
        .collect();
    let factory = app.factory();
    let factory: FactoryFn<Tagged<P>> = Arc::new(move || Tagged {
        inner: factory(),
        seq: 0,
        start: None,
    });
    let source = app.source();
    let probe = Arc::clone(probe);
    let source: SourceFn<Tagged<P>> = Arc::new(move |t: &mut Tagged<P>, seq| {
        let start = Instant::now();
        t.seq = seq;
        t.start = Some(start);
        source(&mut t.inner, seq);
        if probe.traced.load(Ordering::Relaxed) {
            probe
                .tracer
                .record("source", seq, None, "", start, Instant::now());
        }
    });
    let wrapped = Application::from_task_graph(app.name(), stages, app.graph(), factory, source)
        .map_err(|e| e.to_string())?;
    let same_order = wrapped
        .stages()
        .iter()
        .zip(app.stages())
        .all(|(a, b)| a.name() == b.name());
    if !same_order {
        return Err(format!("{}: wrapping reordered the stages", app.name()));
    }
    Ok(wrapped)
}

/// Compares every sampled output with `run_sequential` on the unwrapped
/// application; returns (checked, mismatched).
fn check_samples<P>(app: &Application<P>, probe: &Probe, extract: &Extract<P>) -> (u64, u64) {
    let samples = std::mem::take(&mut *Probe::lock(&probe.samples));
    let ctx = ParCtx::serial();
    let mut bad = 0;
    for (seq, got) in &samples {
        let mut payload = app.new_payload();
        app.run_sequential(&mut payload, *seq, &ctx);
        if extract(&payload) != *got {
            eprintln!(
                "perfbench: {} task {seq} differs from the sequential reference",
                app.name()
            );
            bad += 1;
        }
    }
    (samples.len() as u64, bad)
}

/// Accounts one run's tasks: every submitted task must complete, none be
/// dropped, and the run must not degrade.
fn account(outcome: &mut Outcome, report: &RunReport) {
    outcome.attempted += report.submitted;
    let lost = report.submitted.saturating_sub(report.completed) + report.dropped;
    outcome.failed += lost.max(u64::from(report.degraded.is_some()));
}

/// One wrapped application with its probe, reference and extractor.
struct Rig<P> {
    app: Application<P>,
    wrapped: Application<Tagged<P>>,
    probe: Arc<Probe>,
    extract: Extract<P>,
}

impl<P: Send + 'static> Rig<P> {
    fn new(app: Application<P>, seed: u64, extract: Extract<P>) -> Result<Rig<P>, String> {
        let probe = Probe::new(seed, RunConfig::default().warmup);
        let wrapped = wrap(&app, &probe, Arc::clone(&extract))?;
        Ok(Rig {
            app,
            wrapped,
            probe,
            extract,
        })
    }

    fn set_traced(&self, on: bool) {
        self.probe.traced.store(on, Ordering::Relaxed);
    }

    /// An untimed run that keeps sampled outputs and checks them against
    /// the sequential reference.
    fn check(
        &self,
        run: impl FnOnce(&Application<Tagged<P>>) -> Result<RunReport, PipelineError>,
        outcome: &mut Outcome,
    ) {
        self.probe.sampling.store(true, Ordering::Relaxed);
        match run(&self.wrapped) {
            Ok(report) => account(outcome, &report),
            Err(e) => {
                eprintln!("perfbench: check run of {} failed: {e}", self.app.name());
                outcome.check(false);
            }
        }
        self.probe.sampling.store(false, Ordering::Relaxed);
        self.probe.take_latencies();
        let (checked, bad) = check_samples(&self.app, &self.probe, &self.extract);
        outcome.attempted += checked;
        outcome.failed += bad;
        if checked == 0 {
            outcome.check(false);
        }
    }
}

fn run_cfg(tasks: u32, traced: bool) -> RunConfig {
    RunConfig {
        tasks,
        telemetry: if traced {
            TelemetryConfig::counters_only()
        } else {
            TelemetryConfig::OFF
        },
        ..RunConfig::default()
    }
}

/// Prefix/suffix two-chunk split of a chain at `split`.
fn two_chunks(stages: usize, split: usize) -> Result<Schedule, String> {
    Schedule::new(
        (0..stages)
            .map(|s| {
                if s < split {
                    PuClass::BigCpu
                } else {
                    PuClass::MediumCpu
                }
            })
            .collect(),
    )
    .map_err(|e| e.to_string())
}

/// Timings of one timed phase (runs of one runtime on one app). Every
/// untraced run is one timing block of both streams below.
#[derive(Debug)]
struct Phase {
    /// Wall seconds per completed task, one sample per untraced run.
    secs_per_task: Blocks,
    /// Per-task latencies of every untraced run (warmup excluded), pooled:
    /// a relay's per-run latency distribution is multi-modal (handoffs
    /// that catch the next dispatcher spinning, yielding or asleep), so
    /// the pooled quantiles are far steadier than a median of per-run ones.
    latencies_ms: Vec<f32>,
    /// Wall seconds and tasks of untraced / traced runs.
    untraced: (f64, u64),
    traced: (f64, u64),
    /// Traced totals: kernel µs, source µs, kernel calls, dispatcher
    /// self µs, blocked-pop µs, blocked-push µs, queue-depth sum, samples.
    kernel_us: f64,
    source_us: f64,
    window_calls: Option<u64>,
    dispatch_self_us: f64,
    blocked_pop_us: f64,
    blocked_push_us: f64,
    depth_sum: f64,
    depth_samples: f64,
    /// Worker-thread capacity of traced runs (threads × wall), µs.
    capacity_us: f64,
}

impl Phase {
    fn new() -> Phase {
        Phase {
            secs_per_task: Blocks::new(usize::MAX, 0.5),
            // Reserved up front so the memory figure grows smoothly with
            // the task count instead of jumping at each reallocation.
            latencies_ms: Vec::with_capacity(1 << 22),
            untraced: (0.0, 0),
            traced: (0.0, 0),
            kernel_us: 0.0,
            source_us: 0.0,
            window_calls: None,
            dispatch_self_us: 0.0,
            blocked_pop_us: 0.0,
            blocked_push_us: 0.0,
            depth_sum: 0.0,
            depth_samples: 0.0,
            capacity_us: 0.0,
        }
    }

    /// Median tasks per second over the quieter half of the runs.
    fn tasks_per_s(&mut self) -> f64 {
        1.0 / self.secs_per_task.summary().p50
    }

    fn overhead_pct(&self) -> f64 {
        let per_task = |(s, n): (f64, u64)| s / n.max(1) as f64;
        100.0 * (per_task(self.traced) / per_task(self.untraced) - 1.0)
    }
}

/// Threads of either host runtime: one dispatcher per chunk of a two-chunk
/// schedule, or the pool's two workers.
const THREADS: f64 = 2.0;

impl Phase {
    /// One run of `rig` through `run`, traced or not, folded into the
    /// phase. Per-task latencies are kept only with `latencies`.
    fn run_once<P: Send + 'static>(
        &mut self,
        rig: &Rig<P>,
        traced: bool,
        latencies: bool,
        outcome: &mut Outcome,
        run: impl FnOnce(&Application<Tagged<P>>, bool) -> Result<RunReport, PipelineError>,
    ) {
        rig.probe.timing.store(latencies, Ordering::Relaxed);
        rig.set_traced(traced);
        self.secs_per_task.restart();
        let t0 = Instant::now();
        let result = run(&rig.wrapped, traced);
        let wall = t0.elapsed().as_secs_f64();
        rig.set_traced(false);
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: {} run failed: {e}", rig.app.name());
                outcome.check(false);
                return;
            }
        };
        account(outcome, &report);
        let latencies = rig.probe.take_latencies();
        if !traced {
            self.secs_per_task
                .push(wall / report.completed.max(1) as f64);
            self.secs_per_task.close();
            self.latencies_ms
                .extend(latencies.iter().map(|&l| l as f32));
            self.untraced.0 += wall;
            self.untraced.1 += report.completed;
            return;
        }
        self.traced.0 += wall;
        self.traced.1 += report.completed;
        let (kernel_us, source_us, calls) = rig.probe.take_trace();
        self.kernel_us += kernel_us;
        self.source_us += source_us;
        self.window_calls.get_or_insert(calls);
        self.capacity_us += THREADS * wall * 1e6;
        if let Some(tele) = &report.telemetry {
            // Dispatcher time outside kernels, blocking and the input
            // source (which the head runs outside its busy time).
            self.dispatch_self_us -= source_us;
            for d in &tele.dispatchers {
                self.dispatch_self_us +=
                    wall * 1e6 - d.busy_us - d.blocked_pop_us - d.blocked_push_us;
                self.blocked_pop_us += d.blocked_pop_us;
                self.blocked_push_us += d.blocked_push_us;
                self.depth_sum += d.mean_queue_depth * d.queue_samples as f64;
                self.depth_samples += d.queue_samples as f64;
            }
        }
    }
}

/// Repeats `round` until `budget` is spent (at least one round, two when
/// tracing), passing whether the round is traced: in the traced mode
/// untraced and traced rounds alternate. A round runs both paths of a
/// host workload, so both sample the whole run: on a shared host the
/// speed of one thread drifts by up to 2× over seconds.
fn rounds(budget: Duration, trace: bool, mut round: impl FnMut(bool)) {
    let start = Instant::now();
    let mut i = 0u64;
    while i < 1 + u64::from(trace) || start.elapsed() < budget {
        round(trace && i % 2 == 1);
        i += 1;
    }
}

/// Writes the kept spans (the first traced run of each phase) at exit.
fn write_kept(workload: &str, probes: &[&Probe]) {
    let spans: Vec<Span> = probes
        .iter()
        .flat_map(|p| std::mem::take(&mut *Probe::lock(&p.kept)))
        .collect();
    crate::trace::write_jsonl(&spans, &crate::trace::spans_path(workload));
}

/// Pushes the `run_host` per-layer figures.
fn push_traced_host(outcome: &mut Outcome, p: &Phase) {
    let n = p.traced.1.max(1) as f64;
    outcome.push("trace.overhead_pct", p.overhead_pct());
    outcome.push("kernel.us_per_task", p.kernel_us / n);
    outcome.push("kernel.calls", p.window_calls.unwrap_or(0) as f64);
    outcome.push("source.us_per_task", p.source_us / n);
    outcome.push("dispatch.self_us_per_task", p.dispatch_self_us / n);
    outcome.push("dispatch.blocked_pop_us_per_task", p.blocked_pop_us / n);
    outcome.push("dispatch.blocked_push_us_per_task", p.blocked_push_us / n);
    outcome.push(
        "dispatch.queue_depth_mean",
        p.depth_sum / p.depth_samples.max(1.0),
    );
}

/// Pushes the `run_host` end-to-end figures.
fn push_untraced_host(outcome: &mut Outcome, p: &mut Phase) {
    p.latencies_ms.sort_by(f32::total_cmp);
    let at = |q: f64| {
        let lat = &p.latencies_ms;
        lat.get((q * (lat.len() as f64 - 1.0)).round() as usize)
            .map_or(f64::NAN, |&l| f64::from(l))
    };
    outcome.push("op_ms_p50", at(0.5));
    outcome.push("op_ms_tail", at(0.9));
    outcome.push("ops_per_s", p.tasks_per_s());
}

fn octree_rig(seed: u64) -> Result<Rig<apps::OctreeTask>, String> {
    let cfg = apps::OctreeConfig {
        seed,
        ..apps::OctreeConfig::default()
    };
    Rig::new(
        apps::octree_app(cfg),
        seed,
        Arc::new(|t: &apps::OctreeTask| format!("{:?}", (t.edge_total, &t.octree))),
    )
}

fn perception_rig(seed: u64) -> Result<Rig<apps::PerceptionTask>, String> {
    let cfg = apps::PerceptionConfig {
        seed,
        ..apps::PerceptionConfig::default()
    };
    Rig::new(
        apps::perception_app(cfg),
        seed,
        Arc::new(|t: &apps::PerceptionTask| format!("{:?}", (t.track, &t.detections))),
    )
}

fn sensor_rig(seed: u64) -> Result<Rig<apps::SensorTask>, String> {
    let cfg = apps::SensorConfig {
        block: RELAY_BLOCK,
        seed,
    };
    Rig::new(
        apps::sensor_app(cfg),
        seed,
        Arc::new(|t: &apps::SensorTask| format!("{:?}", (t.class, &t.features))),
    )
}

/// Octree split after the radix tree (about 44 ms | 22 ms of kernels).
fn octree_schedule(stages: usize) -> Result<Schedule, String> {
    two_chunks(stages, 4)
}

/// Perception: both branches in the first chunk, fuse + track in the
/// second — a genuine fork/join relay.
fn perception_schedule<P>(app: &Application<P>) -> Result<DagSchedule, String> {
    let n = app.stage_count();
    let classes = (0..n)
        .map(|s| {
            if s + 2 < n {
                PuClass::BigCpu
            } else {
                PuClass::MediumCpu
            }
        })
        .collect();
    DagSchedule::new(classes, app.graph()).map_err(|e| e.to_string())
}

/// Sensor split after the FIR filter.
fn sensor_schedule(stages: usize) -> Result<Schedule, String> {
    two_chunks(stages, 2)
}

struct KernelsRigs {
    octree: Rig<apps::OctreeTask>,
    octree_schedule: Schedule,
    perception: Rig<apps::PerceptionTask>,
    perception_schedule: DagSchedule,
}

fn kernels_rigs(seed: u64) -> Result<KernelsRigs, String> {
    let octree = octree_rig(seed)?;
    let octree_schedule = octree_schedule(octree.app.stage_count())?;
    let perception = perception_rig(seed)?;
    let perception_schedule = perception_schedule(&perception.app)?;
    Ok(KernelsRigs {
        octree,
        octree_schedule,
        perception,
        perception_schedule,
    })
}

/// `host-kernels`.
pub fn run_kernels(opts: &Opts) -> Result<Outcome, String> {
    let threads = PuThreads::uniform(1);
    // Set-up: build both applications and their payload pools, and run
    // one short pass of each so lazy initialisation is done before timing.
    let (setup_s, rigs) = timed_setup(3, || {
        let rigs = kernels_rigs(opts.seed)?;
        run_host(
            &rigs.octree.wrapped,
            &rigs.octree_schedule,
            &threads,
            &run_cfg(1, false),
            None,
        )
        .map_err(|e| e.to_string())?;
        run_host_dag(
            &rigs.perception.wrapped,
            &rigs.perception_schedule,
            &threads,
            &run_cfg(8, false),
            None,
        )
        .map_err(|e| e.to_string())?;
        rigs.octree.probe.take_latencies();
        rigs.perception.probe.take_latencies();
        Ok::<_, String>(rigs)
    })?;
    let mut outcome = Outcome::default();
    let (mut chain, mut dag) = (Phase::new(), Phase::new());
    // Seconds per task of octree's `run_sequential`, one sample per round.
    let mut sequential = Blocks::new(usize::MAX, 0.5);
    let mut payload = rigs.octree.app.new_payload();
    let mut seq = 0;
    rounds(opts.budget, opts.trace, |traced| {
        chain.run_once(&rigs.octree, traced, true, &mut outcome, |app, traced| {
            let cfg = run_cfg(OCTREE_TASKS, traced);
            run_host(app, &rigs.octree_schedule, &threads, &cfg, None)
        });
        if !traced {
            sequential.restart();
            let t0 = Instant::now();
            for _ in 0..SEQUENTIAL_TASKS {
                rigs.octree
                    .app
                    .run_sequential(&mut payload, seq, &ParCtx::serial());
                seq += 1;
            }
            sequential.push(t0.elapsed().as_secs_f64() / f64::from(SEQUENTIAL_TASKS));
            sequential.close();
        }
        for _ in 0..DAG_RUNS_PER_ROUND {
            dag.run_once(
                &rigs.perception,
                traced,
                false,
                &mut outcome,
                |app, traced| {
                    let cfg = run_cfg(PERCEPTION_TASKS, traced);
                    run_host_dag(app, &rigs.perception_schedule, &threads, &cfg, None)
                },
            );
        }
    });
    rigs.octree.check(
        |app| {
            run_host(
                app,
                &rigs.octree_schedule,
                &threads,
                &run_cfg(CHECK_TASKS, false),
                None,
            )
        },
        &mut outcome,
    );
    rigs.perception.check(
        |app| {
            run_host_dag(
                app,
                &rigs.perception_schedule,
                &threads,
                &run_cfg(CHECK_TASKS, false),
                None,
            )
        },
        &mut outcome,
    );
    if opts.trace {
        push_traced_host(&mut outcome, &chain);
        outcome.push("trace.alt_overhead_pct", dag.overhead_pct());
        outcome.push("dag.tasks_per_s", dag.tasks_per_s());
        write_kept(
            &opts.workload,
            &[&rigs.octree.probe, &rigs.perception.probe],
        );
    } else {
        push_untraced_host(&mut outcome, &mut chain);
        outcome.push("alt_ops_per_s", 1.0 / sequential.summary().p50);
        outcome.push("setup_s", setup_s);
        outcome.push("peak_rss_mb", peak_rss_mb());
    }
    Ok(outcome)
}

/// Two sensor tenants of `SENSOR_TASKS` tasks each on a two-worker pool.
fn pool_set(
    app: &Application<Tagged<apps::SensorTask>>,
    schedule: &Schedule,
    tasks: u32,
) -> Result<TenantSet, PipelineError> {
    let mut set = TenantSet::new();
    for name in ["sensor-a", "sensor-b"] {
        set.push(Tenant::new(name, app, schedule, run_cfg(tasks, false))?);
    }
    Ok(set)
}

/// Runs the two-tenant pool once, folding both tenants into one report.
fn run_pool(
    app: &Application<Tagged<apps::SensorTask>>,
    schedule: &Schedule,
    tasks: u32,
) -> Result<RunReport, PipelineError> {
    let set = pool_set(app, schedule, tasks)?;
    let mut reports = run_multi_host(&set, &WorkerBudget::new(2))?.into_iter();
    let mut total = reports.next().ok_or(PipelineError::NoTasks)?;
    for r in reports {
        total.submitted += r.submitted;
        total.completed += r.completed;
        total.dropped += r.dropped;
        total.degraded = total.degraded.or(r.degraded);
    }
    Ok(total)
}

/// `host-relay`.
pub fn run_relay(opts: &Opts) -> Result<Outcome, String> {
    let threads = PuThreads::uniform(1);
    let (setup_s, (rig, schedule)) = timed_setup(7, || {
        let rig = sensor_rig(opts.seed)?;
        let schedule = sensor_schedule(rig.app.stage_count())?;
        run_host(
            &rig.wrapped,
            &schedule,
            &threads,
            &run_cfg(1000, false),
            None,
        )
        .map_err(|e| e.to_string())?;
        run_pool(&rig.wrapped, &schedule, 1000).map_err(|e| e.to_string())?;
        rig.probe.take_latencies();
        Ok::<_, String>((rig, schedule))
    })?;
    let mut outcome = Outcome::default();
    let (mut chain, mut pool) = (Phase::new(), Phase::new());
    rounds(opts.budget, opts.trace, |traced| {
        chain.run_once(&rig, traced, true, &mut outcome, |app, traced| {
            run_host(
                app,
                &schedule,
                &threads,
                &run_cfg(SENSOR_TASKS, traced),
                None,
            )
        });
        for _ in 0..POOL_RUNS_PER_ROUND {
            pool.run_once(&rig, traced, false, &mut outcome, |app, _| {
                run_pool(app, &schedule, SENSOR_TASKS)
            });
        }
    });
    rig.check(
        |app| {
            run_host(
                app,
                &schedule,
                &threads,
                &run_cfg(CHECK_TASKS * 8, false),
                None,
            )
        },
        &mut outcome,
    );
    rig.check(
        |app| run_pool(app, &schedule, CHECK_TASKS * 8),
        &mut outcome,
    );
    if opts.trace {
        push_traced_host(&mut outcome, &chain);
        let n = pool.traced.1.max(1) as f64;
        outcome.push(
            "pool.self_us_per_task",
            (pool.capacity_us - pool.kernel_us - pool.source_us).max(0.0) / n,
        );
        outcome.push("trace.alt_overhead_pct", pool.overhead_pct());
        write_kept(&opts.workload, &[&rig.probe]);
    } else {
        push_untraced_host(&mut outcome, &mut chain);
        outcome.push("alt_ops_per_s", pool.tasks_per_s());
        outcome.push("setup_s", setup_s);
        outcome.push("peak_rss_mb", peak_rss_mb());
    }
    Ok(outcome)
}

/// `kernel.calls` of the first traced octree run for `seed`.
pub fn kernels_window_counters(seed: u64) -> Result<Vec<(&'static str, u64)>, String> {
    let rigs = kernels_rigs(seed)?;
    rigs.octree.set_traced(true);
    run_host(
        &rigs.octree.wrapped,
        &rigs.octree_schedule,
        &PuThreads::uniform(1),
        &run_cfg(OCTREE_TASKS, true),
        None,
    )
    .map_err(|e| e.to_string())?;
    Ok(vec![("kernel.calls", rigs.octree.probe.take_trace().2)])
}

/// `kernel.calls` of the first traced sensor run for `seed`.
pub fn relay_window_counters(seed: u64) -> Result<Vec<(&'static str, u64)>, String> {
    let rig = sensor_rig(seed)?;
    let schedule = sensor_schedule(rig.app.stage_count())?;
    rig.set_traced(true);
    run_host(
        &rig.wrapped,
        &schedule,
        &PuThreads::uniform(1),
        &run_cfg(SENSOR_TASKS, true),
        None,
    )
    .map_err(|e| e.to_string())?;
    Ok(vec![("kernel.calls", rig.probe.take_trace().2)])
}
