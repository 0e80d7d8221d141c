//! `serve-fleet`: `PlanService::serve` from one closed-loop client, each
//! device waiting for its plan. Requests are Zipf-popular over the
//! registry fleet (devices × apps × scales {1, 2} × both objectives); a
//! fixed share carries a fresh `fault_history` factor, so the cache probe
//! (hits) and the cold path (drift-triggered solves) both carry load.

use std::path::Path;
use std::time::Instant;

use bt_serve::{CountingAlloc, PlanObjective, PlanRequest, PlanService, ServeConfig, ServedFrom};
use bt_soc::PuClass;

use crate::report::{peak_rss_mb, timed_setup, Outcome};
use crate::stats::{median, Blocks, Rng};
use crate::trace::Tracer;
use crate::Opts;

/// Share of requests that report a fresh slowdown on the big cores. Each
/// such request re-signs its cell and forces a cold solve, and the cell's
/// next drift-free request restores it, so about twice this share of
/// requests misses the cache — enough that the p99 lands on the cold path.
const DRIFT_SHARE: f64 = 0.02;

/// Slowdown levels a cell cycles through on successive drift reports,
/// each at least 1.5× from its neighbours (after jitter) and from the
/// pristine 1.0, so every drift report exceeds the service's 30% drift
/// threshold and is answered by a cold solve at exactly its own factor.
const DRIFT_LEVELS: [f64; 4] = [1.6, 2.6, 4.2, 6.8];

/// Zipf exponent of key popularity.
const ZIPF_S: f64 = 1.0;

/// Requests whose work counters are reported (identical for a seed).
const WINDOW: u64 = 20_000;

/// Requests per timing block; each block's p99 has 200 requests beyond it.
const BLOCK: usize = 20_000;

/// Cold solves per timing block of the second path.
const SOLVE_BLOCK: usize = 400;

/// The memory high-water mark is read after this many requests. The cache
/// grows by two plans per drift report, so reading it after a fixed
/// amount of work keeps the figure independent of how fast the machine
/// happened to run.
const RSS_AT: u64 = 400_000;

/// Sampled responses re-solved cold on a separate service, at most.
const MAX_ORACLE_CHECKS: usize = 64;

/// One request shape of the fleet.
#[derive(Debug, Clone)]
struct Key {
    device: String,
    app: String,
    scale: f64,
    objective: PlanObjective,
    /// Serving cell (device, app, scale) index, for the drift cycle.
    cell: usize,
}

/// A service over the builtin fleet plus the repository's `devices/`
/// registry, with the four builtin workloads, under shipped defaults.
fn fleet_service() -> Result<PlanService, String> {
    let mut service = PlanService::builtin(ServeConfig::default());
    service
        .load_devices(Path::new("devices"))
        .map_err(|e| format!("cannot load the device registry from ./devices: {e}"))?;
    Ok(service)
}

fn keys(service: &PlanService) -> Vec<Key> {
    let mut keys = Vec::new();
    let mut cell = 0;
    for entry in service.registry().entries() {
        for app in service.app_names() {
            for scale in [1.0, 2.0] {
                for objective in [PlanObjective::MinLatency, PlanObjective::MinEnergy] {
                    keys.push(Key {
                        device: entry.name.clone(),
                        app: app.to_string(),
                        scale,
                        objective,
                        cell,
                    });
                }
                cell += 1;
            }
        }
    }
    keys
}

/// The seeded request stream: key popularity, drift reports, and which
/// responses get an oracle check.
#[derive(Debug)]
struct Stream {
    rng: Rng,
    /// Cumulative popularity over `order`.
    cdf: Vec<f64>,
    /// Key index by popularity rank (a seeded permutation).
    order: Vec<usize>,
    /// Drift reports sent so far, per cell.
    drifts: Vec<usize>,
}

/// One generated request (owned parts; borrowed into a `PlanRequest`).
#[derive(Debug, Clone, Copy)]
struct Draw {
    key: usize,
    drift: Option<f64>,
    oracle: bool,
}

impl Stream {
    fn new(seed: u64, keys: &[Key]) -> Stream {
        // Popularity order is one fixed shuffle for every seed, so the mix
        // of devices and apps (and so the cost of a cold solve) is the
        // same workload on every run; the seed draws the request sequence.
        let mut shuffle = Rng::new(0, 0x2170);
        let mut order: Vec<usize> = (0..keys.len()).collect();
        for i in (1..order.len()).rev() {
            let j = (shuffle.next_u64() % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let rng = Rng::new(seed, 0x5E7E);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..keys.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let cells = keys.iter().map(|k| k.cell + 1).max().unwrap_or(0);
        Stream {
            rng,
            cdf,
            order,
            drifts: vec![0; cells],
        }
    }

    fn next(&mut self, keys: &[Key]) -> Draw {
        let u = self.rng.unit();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        let key = self.order[rank];
        let drift = (self.rng.unit() < DRIFT_SHARE).then(|| {
            let cell = keys[key].cell;
            let level = DRIFT_LEVELS[self.drifts[cell] % DRIFT_LEVELS.len()];
            self.drifts[cell] += 1;
            level * (1.0 + 0.04 * (2.0 * self.rng.unit() - 1.0))
        });
        let oracle = self.rng.unit() < 1.0 / 256.0;
        Draw { key, drift, oracle }
    }
}

/// Serves every key once so every cell is profiled and every pristine
/// plan cached before timing.
fn warm(service: &PlanService, keys: &[Key]) -> Result<(), String> {
    for k in keys {
        let req = PlanRequest {
            device: &k.device,
            app: &k.app,
            input_scale: k.scale,
            fault_history: &[],
            objective: k.objective,
        };
        service.serve(&req).map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn setup() -> Result<(f64, PlanService, Vec<Key>), String> {
    let (setup_s, (service, keys)) = timed_setup(5, || {
        let service = fleet_service()?;
        let keys = keys(&service);
        warm(&service, &keys)?;
        Ok::<_, String>((service, keys))
    })?;
    Ok((setup_s, service, keys))
}

/// What one served request looked like to the client.
#[derive(Debug, Clone, Copy)]
struct Served {
    us: f64,
    from: Option<ServedFrom>,
    allocs: u64,
}

/// Issues `draw` against `service`, timing it; under a tracer the call sits
/// in a `serve` span (tagged with how it was served) under a `client` root
/// span that also covers generating the request.
fn issue(
    service: &PlanService,
    keys: &[Key],
    draw: Draw,
    tracer: Option<(&Tracer, usize)>,
    op: u64,
) -> (Served, Option<bt_serve::PlanResponse>) {
    let k = &keys[draw.key];
    let history = draw.drift.map(|f| [(PuClass::BigCpu, f)]);
    let req = PlanRequest {
        device: &k.device,
        app: &k.app,
        input_scale: k.scale,
        fault_history: history.as_ref().map_or(&[][..], |h| &h[..]),
        objective: k.objective,
    };
    let a0 = if tracer.is_some() {
        CountingAlloc::allocations()
    } else {
        0
    };
    let t0 = Instant::now();
    let resp = service.serve(&req);
    let t1 = Instant::now();
    let allocs = if tracer.is_some() {
        CountingAlloc::allocations() - a0
    } else {
        0
    };
    let from = resp.as_ref().ok().map(|r| r.from);
    if let Some((t, root)) = tracer {
        let tag = match (from, draw.drift) {
            (Some(ServedFrom::Cache), _) => "hit",
            (Some(ServedFrom::ColdSolve), Some(_)) => "solve",
            (Some(ServedFrom::ColdSolve), None) => "restore",
            (None, _) => "error",
        };
        t.record("serve", op, Some(root), tag, t0, t1);
    }
    let served = Served {
        us: (t1 - t0).as_secs_f64() * 1e6,
        from,
        allocs,
    };
    (served, resp.ok())
}

/// Re-solves `draw` cold on `oracle` and compares schedule and table
/// signature with `resp`.
fn oracle_matches(
    oracle: &PlanService,
    keys: &[Key],
    draw: Draw,
    resp: &bt_serve::PlanResponse,
) -> bool {
    let k = &keys[draw.key];
    let history = draw.drift.map(|f| [(PuClass::BigCpu, f)]);
    let req = PlanRequest {
        device: &k.device,
        app: &k.app,
        input_scale: k.scale,
        fault_history: history.as_ref().map_or(&[][..], |h| &h[..]),
        objective: k.objective,
    };
    oracle.serve(&req).is_ok_and(|cold| {
        cold.artifact.assignment == resp.artifact.assignment
            && cold.artifact.table_sig == resp.artifact.table_sig
    })
}

/// The deterministic work counters of the window for `seed`.
pub fn window_counters(seed: u64) -> Result<Vec<(&'static str, u64)>, String> {
    let service = fleet_service()?;
    let keys = keys(&service);
    warm(&service, &keys)?;
    let before = service.stats();
    let mut stream = Stream::new(seed, &keys);
    for op in 0..WINDOW {
        let (served, _) = issue(&service, &keys, stream.next(&keys), None, op);
        if served.from.is_none() {
            return Err(format!("request {op} failed"));
        }
    }
    let after = service.stats();
    Ok(vec![
        ("serve.solves", after.solves - before.solves),
        (
            "serve.invalidations",
            after.invalidations - before.invalidations,
        ),
    ])
}

/// One client step against `service`: generate nothing new (the draw is
/// given), serve, and time the whole step; traced steps sit in a `client`
/// root span. Returns the step time in µs with what was served.
fn step(
    service: &PlanService,
    keys: &[Key],
    draw: Draw,
    tracer: Option<&Tracer>,
    op: u64,
) -> (f64, Served, Option<bt_serve::PlanResponse>) {
    let c0 = Instant::now();
    let root = tracer.map(|t| t.open("client", op, None));
    let (served, resp) = issue(service, keys, draw, tracer.zip(root), op);
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root, "");
    }
    (c0.elapsed().as_secs_f64() * 1e6, served, resp)
}

/// Runs the workload.
///
/// The traced run drives two identically warmed services with the same
/// request stream, one untraced and one traced, alternating which goes
/// first; both see the same hits and misses, so the difference in their
/// client time is the tracing overhead.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (setup_s, service, keys) = setup()?;
    let twin = if opts.trace { Some(setup()?.1) } else { None };
    let oracle = fleet_service()?;
    let mut stream = Stream::new(opts.seed, &keys);
    let mut outcome = Outcome::default();
    let tracer = Tracer::new();
    let (mut hit_us, mut cold_ms) = (Vec::new(), Vec::new());
    let (mut hit_allocs, mut hits_traced) = (0u64, 0u64);
    let (mut untraced_us, mut traced_us) = (0.0, 0.0);
    let mut oracle_checks = 0;
    let before = service.stats();
    let mut window = None;
    // Serve-call latency and whole client-step time, cut into the same
    // blocks; drift reports answered by a cold solve are the second path.
    let (mut lat_blocks, mut step_blocks) = (Blocks::new(BLOCK, 0.99), Blocks::new(BLOCK, 0.5));
    let mut solve_blocks = Blocks::new(SOLVE_BLOCK, 0.5);
    let mut rss_mb = None;
    let start = Instant::now();
    let mut op = 0u64;
    while op < WINDOW.max(RSS_AT) || start.elapsed() < opts.budget {
        let draw = stream.next(&keys);
        let traced_first = op % 2 == 1;
        let traced_step = || {
            twin.as_ref().map(|twin| {
                crate::alloc::set_counting(true);
                let out = step(twin, &keys, draw, Some(&tracer), op);
                crate::alloc::set_counting(false);
                out
            })
        };
        let traced = if traced_first { traced_step() } else { None };
        let (us, served, resp) = step(&service, &keys, draw, None, op);
        let traced = if traced_first { traced } else { traced_step() };
        untraced_us += us;
        step_blocks.push(us);
        lat_blocks.push(served.us);
        if draw.drift.is_some() && served.from == Some(ServedFrom::ColdSolve) {
            solve_blocks.push(served.us);
        }
        if let Some((us, t, _)) = traced {
            traced_us += us;
            match t.from {
                Some(ServedFrom::Cache) => {
                    hit_us.push(t.us);
                    hit_allocs += t.allocs;
                    hits_traced += 1;
                }
                // Drift reports are the requests answered by a solve; a
                // drift-free miss only restores a cell's pristine table.
                Some(ServedFrom::ColdSolve) if draw.drift.is_some() => cold_ms.push(t.us / 1e3),
                _ => {}
            }
        }
        let ok = match &resp {
            Some(resp) if draw.oracle && oracle_checks < MAX_ORACLE_CHECKS => {
                oracle_checks += 1;
                oracle_matches(&oracle, &keys, draw, resp)
            }
            Some(_) => true,
            None => false,
        };
        if !ok {
            eprintln!("perfbench: serve-fleet request {op} failed its check");
        }
        outcome.check(ok);
        op += 1;
        if op == WINDOW {
            window = Some(service.stats());
        }
        if op == RSS_AT {
            rss_mb = Some(peak_rss_mb());
        }
    }
    let after = service.stats();
    let window = window.expect("the loop runs at least the window");

    if opts.trace {
        let self_us = |name: &str| {
            tracer
                .self_times()
                .get(name)
                .map_or(0.0, |&(ns, _)| ns as f64 / 1e3)
        };
        let hit_self = tracer.tagged("serve", "hit").0 as f64 / 1e3;
        let n = op as f64;
        outcome.push("serve.hit_us_per_req", hit_self / n);
        outcome.push("serve.cold_us_per_req", (self_us("serve") - hit_self) / n);
        outcome.push("client.us_per_req", self_us("client") / n);
        outcome.push("serve.hit_us_p50", median(&mut hit_us));
        outcome.push(
            "serve.allocs_per_hit",
            hit_allocs as f64 / hits_traced.max(1) as f64,
        );
        outcome.push("serve.cold_ms_p50", median(&mut cold_ms));
        outcome.push("serve.solves", (window.solves - before.solves) as f64);
        outcome.push(
            "serve.invalidations",
            (window.invalidations - before.invalidations) as f64,
        );
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        outcome.push(
            "serve.hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        outcome.push("serve.plans_cached", after.plans as f64);
        outcome.push(
            "trace.overhead_pct",
            100.0 * (traced_us / untraced_us - 1.0),
        );
        // Write the window's spans only: all of them run to about 100 MB.
        // Every span is recorded on this thread, in request order, so the
        // window is a prefix and its parent links stay valid.
        let spans: Vec<_> = tracer
            .take()
            .into_iter()
            .take_while(|s| s.op < WINDOW)
            .collect();
        crate::trace::write_jsonl(&spans, &crate::trace::spans_path(&opts.workload));
    } else {
        let lat = lat_blocks.summary();
        outcome.push("ops_per_s", step_blocks.summary().rate * 1e6);
        outcome.push("op_ms_p50", lat.p50 / 1e3);
        outcome.push("op_ms_tail", lat.tail / 1e3);
        outcome.push("alt_ops_per_s", solve_blocks.summary().rate * 1e6);
        outcome.push("setup_s", setup_s);
        outcome.push("peak_rss_mb", rss_mb.unwrap_or_else(peak_rss_mb));
    }
    Ok(outcome)
}
