//! Sets of runs: every workload, each in a child process of its own (so peak
//! memory is per workload), and the comparison of sets against the bounds.

use std::process::Command;

use crate::manifest::{Better, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

/// What a child run printed on its last line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    /// `correct`
    pub correct: bool,
    /// `attempted`
    pub attempted: u64,
    /// `failed`
    pub failed: u64,
    /// `metrics`, as `(name, value)` in printed order.
    pub metrics: Vec<(String, f64)>,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim())
}

/// Parses the result line [`RunResult::json_line`](crate::run::RunResult::json_line)
/// writes. Not a JSON parser: it reads this program's own output.
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let correct = field(line, "correct")?.parse().ok()?;
    let attempted = field(line, "attempted")?.parse().ok()?;
    let failed = field(line, "failed")?.parse().ok()?;
    let mut metrics = Vec::new();
    let body = &line[line.find("\"metrics\": {")? + 12..];
    for entry in body.split("\"}") {
        // `"name": {"value": 1.5, "unit": "us` (after the split)
        let Some(name_start) = entry.find('"') else {
            continue;
        };
        let rest = &entry[name_start + 1..];
        let (Some(name_end), Some(value)) = (rest.find('"'), field(entry, "value")) else {
            continue;
        };
        metrics.push((rest[..name_end].to_string(), value.parse().ok()?));
    }
    Some(ParsedResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Options shared by every child run of a set.
#[derive(Debug, Clone)]
pub struct SetOptions {
    /// `--seconds` for the children.
    pub seconds: f64,
    /// `--quick` for the children.
    pub quick: bool,
    /// `--out` for the children.
    pub out_dir: std::path::PathBuf,
}

/// Runs one workload in a child process and returns its parsed result line;
/// the child's own report goes to this process's standard output when
/// `echo` is set.
pub fn run_child(
    workload: &str,
    seed: u64,
    trace: bool,
    opts: &SetOptions,
    echo: bool,
) -> Result<ParsedResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir);
    if opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    let parsed = stdout
        .lines()
        .last()
        .and_then(parse_result_line)
        .ok_or_else(|| format!("{workload}: no result line"))?;
    if !output.status.success() || !parsed.correct {
        return Err(format!(
            "{workload}: run failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(parsed)
}

/// End-to-end results of one set: per workload, in [`WORKLOADS`] order.
pub type Set = Vec<ParsedResult>;

/// Runs every workload untraced — and, when `with_trace` is set, traced as
/// well, echoing both reports — and returns the untraced results.
pub fn run_set(seed: u64, opts: &SetOptions, with_trace: bool) -> Result<Set, String> {
    let mut set = Vec::with_capacity(WORKLOADS.len());
    for w in &WORKLOADS {
        set.push(run_child(w.name, seed, false, opts, with_trace)?);
        if with_trace {
            run_child(w.name, seed, true, opts, true)?;
        }
    }
    Ok(set)
}

fn value(set: &Set, workload: usize, metric: &str) -> Option<f64> {
    set[workload]
        .metrics
        .iter()
        .find(|(n, _)| n == metric)
        .map(|&(_, v)| v)
}

/// `--check-repeat`: two sets of the same code and seed, back to back; every
/// end-to-end metric of every workload must agree within its bound. Prints
/// one row per pair and returns the number of violations.
pub fn check_repeat(seed: u64, opts: &SetOptions) -> Result<usize, String> {
    let first = run_set(seed, opts, false)?;
    let second = run_set(seed, opts, false)?;
    println!(
        "{:<22} {:<22} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut violations = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for m in &END_TO_END {
            let (Some(a), Some(b)) = (value(&first, w, m.name), value(&second, w, m.name)) else {
                return Err(format!("{}: {} missing", workload.name, m.name));
            };
            let diff = (b - a).abs() / a;
            let verdict = if diff > m.bound {
                violations += 1;
                "  VIOLATED"
            } else {
                ""
            };
            println!(
                "{:<22} {:<22} {:>14.4} {:>14.4} {:>7.2}% {:>6.0}%{verdict}",
                workload.name,
                m.name,
                a,
                b,
                diff * 100.0,
                m.bound * 100.0
            );
        }
    }
    Ok(violations)
}

/// Today's date (UTC) as `YYYY-MM-DD`, from the system clock.
fn today() -> String {
    let days = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() / 86_400) as i64;
    // Civil-from-days (Howard Hinnant's algorithm).
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let (d, m) = (
        doy - (153 * mp + 2) / 5 + 1,
        if mp < 10 { mp + 3 } else { mp - 9 },
    );
    let y = yoe + era * 400 + i64::from(m <= 2);
    format!("{y:04}-{m:02}-{d:02}")
}

/// `--sets N`: N sets on seeds `seed`, `seed + 1`, …; prints the quartiles of
/// every end-to-end metric per workload next to its bound, and returns the
/// same as the text of `baseline.json`.
pub fn baseline(seed: u64, sets: usize, opts: &SetOptions) -> Result<String, String> {
    let mut all = Vec::with_capacity(sets);
    for i in 0..sets {
        eprintln!("set {} of {sets} (seed {})", i + 1, seed + i as u64);
        all.push(run_set(seed + i as u64, opts, false)?);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut json = format!(
        "{{\n  \"date\": \"{}\",\n  \"nproc\": {nproc},\n  \"sets\": {sets},\n  \"first_seed\": {seed},\n  \"seconds\": {},\n  \"quick\": {},\n  \"workloads\": {{\n",
        today(),
        opts.seconds,
        opts.quick
    );
    println!(
        "{:<22} {:<22} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        json += &format!("    \"{}\": {{\n", workload.name);
        for (i, m) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = all.iter().filter_map(|s| value(s, w, m.name)).collect();
            if values.len() != sets || sets < 2 {
                return Err(format!("{}: {} needs two sets", workload.name, m.name));
            }
            let (q1, q2, q3) = quartiles(&values);
            let spread = (q3 - q1) / q2;
            let worse = match m.better {
                Better::Lower => "",
                Better::Higher => " (higher is better)",
            };
            println!(
                "{:<22} {:<22} {:>12.4} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}%{worse}",
                workload.name,
                m.name,
                q1,
                q2,
                q3,
                spread * 100.0,
                m.bound * 100.0
            );
            json += &format!(
                "      \"{}\": {{\"unit\": \"{}\", \"q1\": {q1}, \"median\": {q2}, \"q3\": {q3}, \"spread\": {:.4}, \"bound\": {}}}{}\n",
                m.name,
                m.unit,
                spread,
                m.bound,
                if i + 1 < END_TO_END.len() { "," } else { "" }
            );
        }
        json += &format!("    }}{}\n", if w + 1 < WORKLOADS.len() { "," } else { "" });
    }
    json += "  }\n}\n";
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{Metric, RunResult};

    #[test]
    fn the_result_line_round_trips() {
        let result = RunResult {
            correct: true,
            attempted: 47_110,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "setup_s",
                    value: 0.3127,
                    unit: "s",
                    samples: 3,
                },
                Metric {
                    name: "replay_events_per_s",
                    value: 6146.25,
                    unit: "1/s",
                    samples: 9,
                },
            ],
            errors: Vec::new(),
        };
        let parsed = parse_result_line(&result.json_line()).unwrap();
        assert_eq!(
            parsed,
            ParsedResult {
                correct: true,
                attempted: 47_110,
                failed: 0,
                metrics: vec![
                    ("setup_s".into(), 0.3127),
                    ("replay_events_per_s".into(), 6146.25)
                ],
            }
        );
        assert_eq!(parse_result_line("not a result"), None);
    }

    #[test]
    fn today_is_a_date() {
        let date = today();
        assert_eq!(date.len(), 10);
        assert!(date.as_str() >= "2024-01-01", "{date}");
    }
}
