//! End-to-end and per-layer benchmark of the BetterTogether workspace.
//!
//! One process runs one named workload for a fixed wall-clock budget,
//! checks the program's outputs, and reports either the end-to-end metrics
//! (untraced run) or the per-layer split (traced run). See `README.md` in
//! this directory for the workloads, the metrics, and what each layer's
//! optimisation is expected to move.

pub mod alloc;
pub mod host;
pub mod plan_sweep;
pub mod report;
pub mod serve_fleet;
pub mod stamp;
pub mod stats;
pub mod trace;

use std::time::Duration;

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (see [`WORKLOADS`]).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement budget.
    pub budget: Duration,
    /// Traced run: report the per-layer split instead of end-to-end
    /// metrics.
    pub trace: bool,
}

/// The workloads this benchmark defines.
pub const WORKLOADS: [&str; 4] = ["plan-sweep", "serve-fleet", "host-kernels", "host-relay"];

/// Runs one workload end to end and returns its outcome.
///
/// # Errors
///
/// Returns a message when the workload name is unknown or its set-up
/// cannot complete (for example, the device registry is missing).
pub fn run(opts: &Opts) -> Result<report::Outcome, String> {
    match opts.workload.as_str() {
        "plan-sweep" => plan_sweep::run(opts),
        "serve-fleet" => serve_fleet::run(opts),
        "host-kernels" => host::run_kernels(opts),
        "host-relay" => host::run_relay(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Deterministic work counters of one workload's counter window: the
/// first fixed slice of operations, identical for a given seed on any
/// machine. The determinism test calls this twice per seed.
///
/// # Errors
///
/// As [`run`].
pub fn window_counters(workload: &str, seed: u64) -> Result<Vec<(&'static str, u64)>, String> {
    match workload {
        "plan-sweep" => plan_sweep::window_counters(seed),
        "serve-fleet" => serve_fleet::window_counters(seed),
        "host-kernels" => host::kernels_window_counters(seed),
        "host-relay" => host::relay_window_counters(seed),
        other => Err(format!("unknown workload {other:?}")),
    }
}
