//! Workspace lint driver: `cargo run -p drom-verify --bin drom_lint`.
//!
//! Runs two analysis layers over the workspace (see `docs/verification.md`):
//!
//! 1. **Line rules** (`drom_verify::lint`) — justified `Ordering::Relaxed`,
//!    no `partial_cmp`-fallback sorting, `// SAFETY:` on `unsafe`. Always
//!    fatal.
//! 2. **Graph rules** (`drom_verify::rules`) — determinism taint, hot-path
//!    allocations, and panic sites in the scheduler decision/pass closures.
//!    Unjustified determinism taint and entry-registry drift are always
//!    fatal; everything else ratchets against the committed baseline
//!    (`crates/verify/lint_baseline.tsv`).
//!
//! ```text
//! drom_lint [ROOT] [--ratchet] [--update-baseline] [--baseline PATH]
//!           [--why FN] [--list-closure decision|pass]
//! ```
//!
//! * `--ratchet` — compare findings to the baseline; any new or grown
//!   finding fails the run (CI mode).
//! * `--update-baseline` — regenerate the baseline file from the current
//!   findings (run after deliberately adding a justified construct, or to
//!   lock in improvements).
//! * `--why FN` — print the call chain that pulls `FN` into a closure.
//! * `--list-closure decision|pass` — dump one closure's functions.

use std::path::PathBuf;
use std::process::ExitCode;

use drom_verify::rules;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut ratchet_mode = false;
    let mut update_baseline = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut why: Option<String> = None;
    let mut list_closure: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ratchet" => ratchet_mode = true,
            "--update-baseline" => update_baseline = true,
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage("--baseline needs a path"),
            },
            "--why" => match args.next() {
                Some(q) => why = Some(q),
                None => return usage("--why needs a function name"),
            },
            "--list-closure" => match args.next() {
                Some(w) if w == "decision" || w == "pass" => list_closure = Some(w),
                _ => return usage("--list-closure needs `decision` or `pass`"),
            },
            other if !other.starts_with('-') && root.is_none() => {
                root = Some(PathBuf::from(other));
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let root = root.unwrap_or_else(|| {
        // The binary lives at <root>/crates/verify; default to the
        // workspace root it belongs to.
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
    });
    let root = root.canonicalize().unwrap_or(root);
    let baseline_path = baseline_path.unwrap_or_else(|| root.join(rules::BASELINE_PATH));

    // One walk: the graph rules read and split every source, the line
    // rules run over those same split lines.
    let analysis = match rules::analyze_workspace(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("drom_lint: failed to analyze {}: {e}", root.display());
            return ExitCode::FAILURE;
        }
    };
    let line_violations = drom_verify::lint::lint_sources(&analysis.files);

    if let Some(query) = &why {
        match analysis.why(query) {
            Some(chain) => {
                println!("{}", chain.join("\n  -> "));
                return ExitCode::SUCCESS;
            }
            None => {
                eprintln!("drom_lint: `{query}` is not in any closure");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(which) = &list_closure {
        for line in analysis.list_closure(which) {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }

    let mut failed = false;
    for v in &line_violations {
        eprintln!("{v}");
        failed = true;
    }
    for d in &analysis.registry_drift {
        eprintln!("drom_lint: {d}");
        failed = true;
    }
    for f in analysis.hard_violations() {
        eprintln!("{f}");
        failed = true;
    }

    if update_baseline {
        let rendered = rules::render_baseline(&analysis.findings);
        if let Err(e) = std::fs::write(&baseline_path, rendered) {
            eprintln!(
                "drom_lint: failed to write {}: {e}",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
        println!(
            "drom_lint: baseline updated ({} finding keys) at {}",
            analysis.findings.len(),
            baseline_path.display()
        );
    } else if ratchet_mode {
        let baseline = match std::fs::read_to_string(&baseline_path) {
            Ok(text) => rules::parse_baseline(&text),
            Err(e) => {
                eprintln!(
                    "drom_lint: cannot read baseline {}: {e} (run --update-baseline?)",
                    baseline_path.display()
                );
                return ExitCode::FAILURE;
            }
        };
        let regressions = rules::ratchet(&analysis.findings, &baseline);
        for r in &regressions {
            eprintln!("drom_lint: {r}");
            failed = true;
        }
    }

    let justified = analysis.findings.iter().filter(|f| f.justified).count();
    println!(
        "drom_lint: {} files, {} fns, decision closure {}, pass closure {}, \
         {} finding keys ({} justified)",
        analysis.files.len(),
        analysis.fns.len(),
        analysis.decision.len(),
        analysis.pass.len(),
        analysis.findings.len(),
        justified,
    );
    if failed {
        eprintln!("drom_lint: FAILED");
        ExitCode::FAILURE
    } else {
        println!("drom_lint: clean ({})", root.display());
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "drom_lint: {msg}\nusage: drom_lint [ROOT] [--ratchet] [--update-baseline] \
         [--baseline PATH] [--why FN] [--list-closure decision|pass]"
    );
    ExitCode::FAILURE
}
