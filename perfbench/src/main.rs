//! `bt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the BetterTogether benchmark from the repository
//! root and prints, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the machine
//! stamp. Exits non-zero, printing no result, on bad arguments or when the
//! workload cannot be set up.

use std::process::ExitCode;
use std::time::Duration;

use bt_perfbench::{alloc::SwitchAlloc, report, stamp, Opts, WORKLOADS};

#[global_allocator]
static ALLOC: SwitchAlloc = SwitchAlloc;

fn parse() -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or(format!("--workload is required (one of {WORKLOADS:?})"))?,
        seed: seed.unwrap_or(0),
        budget: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let steal0 = stamp::steal_ticks();
    let calibration_ms = stamp::calibration_ms();
    let outcome: report::Outcome = match bt_perfbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", stamp::line(steal0, calibration_ms));
    println!("{}", outcome.to_json(opts.trace));
    ExitCode::SUCCESS
}
