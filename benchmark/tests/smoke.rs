//! Every workload, both modes, at `--quick` size, through the real binary:
//! the one line a CI step needs is `cargo test --release --manifest-path
//! benchmark/Cargo.toml`.
//!
//! Release only, like the mega-tier test in `crates/sim`: in a debug build
//! the scheduler's `debug_assert` oracles rebuild the whole index on every
//! pass, which on the 10 000-node workloads is the very cost they exist to
//! avoid paying.
#![cfg(not(debug_assertions))]

use std::path::Path;
use std::process::Command;

use drom_benchmark::manifest::{END_TO_END, PER_LAYER, WORKLOADS};
use drom_benchmark::suite::parse_result_line;

fn quick_run(workload: &str, trace: &str, out_dir: &Path) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_drom-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", trace, "--quick", "--out"])
        .arg(out_dir)
        .output()
        .expect("the benchmark binary starts");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn every_workload_runs_in_both_modes_at_quick_size() {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-out");
    for workload in &WORKLOADS {
        for (trace, table) in [("0", &END_TO_END[..]), ("1", &PER_LAYER[..])] {
            let (ok, stdout) = quick_run(workload.name, trace, &out_dir);
            assert!(ok, "{} --trace {trace} failed:\n{stdout}", workload.name);
            assert!(
                stdout.contains("QUICK"),
                "a quick run must say its numbers are not comparable"
            );
            let last = stdout.lines().last().expect("a result line");
            let result = parse_result_line(last).expect("the last line is the result");
            assert!(result.correct && result.failed == 0 && result.attempted >= 1);
            let printed: Vec<&str> = result.metrics.iter().map(|(n, _)| n.as_str()).collect();
            let wanted: Vec<&str> = table.iter().map(|m| m.name).collect();
            assert_eq!(printed, wanted, "{} --trace {trace}", workload.name);
            if trace == "0" {
                for (name, value) in &result.metrics {
                    assert!(*value > 0.0, "{name} must never be 0");
                }
            }
        }
        let spans = out_dir.join(format!("{}.spans.csv", workload.name));
        let text = std::fs::read_to_string(&spans).expect("the traced run wrote its spans");
        assert!(text.starts_with("name,start_ns,end_ns,parent,op_id\nsim.cluster.run,"));
        assert!(text.contains("\ncoalloc.sched_cycle,"));
    }
}

#[test]
fn a_wrong_workload_name_is_refused() {
    let (ok, stdout) = quick_run(
        "no_such_workload",
        "0",
        Path::new(env!("CARGO_TARGET_TMPDIR")),
    );
    assert!(!ok);
    assert!(stdout.is_empty(), "no result line for a run that never ran");
}
