//! The result record every run prints as its last line.

use std::time::Instant;

use std::collections::BTreeMap;

/// The end-to-end metrics, with units, that every untraced run prints.
/// Every workload defines them for its own primary and second path (see
/// the benchmark's `README.md`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("alt_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, with units, that every traced run prints. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("profile.ms_per_loop", "ms"),
    ("solve.ms_per_loop", "ms"),
    ("solve.candidates", "count"),
    ("autotune.ms_per_loop", "ms"),
    ("autotune.des_events", "count"),
    ("baselines.ms_per_loop", "ms"),
    ("baselines.runs", "count"),
    ("corun.ms_per_op", "ms"),
    ("glue.ms_per_loop", "ms"),
    ("plan.cpu_per_wall", "ratio"),
    ("plan.sim_us_geomean", "us"),
    ("serve.hit_us_p50", "us"),
    ("serve.allocs_per_hit", "count"),
    ("serve.cold_ms_p50", "ms"),
    ("serve.solves", "count"),
    ("serve.invalidations", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.plans_cached", "count"),
    ("serve.hit_us_per_req", "us"),
    ("serve.cold_us_per_req", "us"),
    ("client.us_per_req", "us"),
    ("kernel.us_per_task", "us"),
    ("kernel.calls", "count"),
    ("source.us_per_task", "us"),
    ("dispatch.self_us_per_task", "us"),
    ("dispatch.blocked_pop_us_per_task", "us"),
    ("dispatch.blocked_push_us_per_task", "us"),
    ("dispatch.queue_depth_mean", "tasks"),
    ("dag.tasks_per_s", "1/s"),
    ("pool.self_us_per_task", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.alt_overhead_pct", "%"),
];

/// What one run did and measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted (loops, requests or tasks).
    pub attempted: u64,
    /// Operations that failed or whose output did not check out.
    pub failed: u64,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric; `name` must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub fn push(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name),
            "unlisted metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics` —
    /// every [`END_TO_END`] metric, or with `trace` every [`PER_LAYER`]
    /// one. A run is correct when nothing failed and every end-to-end
    /// metric was measured and is finite.
    pub fn to_json(&self, trace: bool) -> String {
        let listed: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let values: Vec<f64> = listed
            .iter()
            .map(|(name, _)| match self.metrics.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => f64::NAN,
            })
            .collect();
        let finite = values.iter().all(|v| v.is_finite());
        let metrics: Vec<String> = listed
            .iter()
            .zip(&values)
            .map(|(&(name, unit), &v)| {
                let value = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0 && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `build` `reps` times and returns the median wall time in seconds
/// with the last result — the `setup_s` protocol: set-up repeated in every
/// run, reported as a median so one slow repetition does not move it.
///
/// # Errors
///
/// Propagates the first error `build` returns.
pub fn timed_setup<T, E>(reps: usize, build: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    let origin = Instant::now();
    timed_setup_on(move || origin.elapsed().as_secs_f64(), reps, build)
}

/// [`timed_setup`] on any `clock` that reads seconds (wall or CPU time).
///
/// # Errors
///
/// Propagates the first error `build` returns.
pub fn timed_setup_on<T, E>(
    clock: impl Fn() -> f64,
    reps: usize,
    mut build: impl FnMut() -> Result<T, E>,
) -> Result<(f64, T), E> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = clock();
        let built = build()?;
        times.push(clock() - t0);
        last = Some(built);
    }
    let setup = crate::stats::median(&mut times);
    Ok((setup, last.expect("at least one repetition")))
}

/// Resident-set high-water mark of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
