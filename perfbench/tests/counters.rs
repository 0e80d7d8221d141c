//! The deterministic work counters of every workload's counter window
//! repeat exactly for a given seed.

use bt_perfbench::{window_counters, WORKLOADS};

#[test]
fn work_counters_repeat_exactly_for_a_seed() {
    // The serve workload reads the repository's `devices/` registry, so
    // run from the repository root as the benchmark itself does.
    std::env::set_current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/..")).expect("repository root");
    for workload in WORKLOADS {
        let first = window_counters(workload, 7).expect("window runs");
        let second = window_counters(workload, 7).expect("window runs");
        assert_eq!(
            first, second,
            "{workload}: counters differ between runs of one seed"
        );
        assert!(
            first.iter().all(|&(_, v)| v > 0),
            "{workload}: a counter did no work: {first:?}"
        );
    }
}
