//! The machine stamp printed with every run (informational, not a
//! metric): core count, CPU model, hypervisor steal over the run, and a
//! fixed calibration microloop. With these a slow figure can be put down
//! to the machine or to the code.

use std::time::Instant;

/// Steal ticks (`/proc/stat`, aggregate `cpu` line, 8th field) so far;
/// `None` where the file is unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// CPU time (user + system, all threads) this process has used so far,
/// in seconds, from the kernel's per-thread runtime accounting
/// (`CLOCK_PROCESS_CPUTIME_ID`, which keeps the time of threads that have
/// exited): time a thread spends waiting for a CPU, whether on the guest
/// scheduler or to hypervisor steal, is not counted. `NaN` if the clock
/// cannot be read.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Milliseconds for a fixed 2^24-step integer recurrence (best of three):
/// a machine-speed reference that no change to the repository can move.
pub fn calibration_ms() -> f64 {
    (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..(1u32 << 24) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The stamp line, as one JSON object: `{"machine": {...}}`.
pub fn line(steal_start: Option<u64>, calibration_ms: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal = match (steal_start, steal_ticks()) {
        (Some(a), Some(b)) => format!("{}", b.saturating_sub(a)),
        _ => "null".to_string(),
    };
    format!(
        "{{\"machine\": {{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"steal_ticks\": {steal}, \"calibration_ms\": {calibration_ms:.3}}}}}",
        cpu_model()
    )
}
