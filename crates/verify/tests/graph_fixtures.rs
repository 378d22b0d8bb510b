//! The graph rules (determinism taint, hot-path allocation, panic-freedom)
//! exercised against the seeded-violation fixture tree, mutation-style
//! tests that flip verdicts and extend closures, and the clean-tree gates
//! CI relies on: the real workspace must analyze clean and its findings
//! must match the committed baseline byte for byte.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

use drom_verify::items::SourceFile;
use drom_verify::rules::{self, Analysis};

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/verify; the workspace root is two up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn ratchet_tree() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ratchet_tree")
}

fn seeded_source() -> String {
    let path = ratchet_tree().join("crates/seeded/src/lib.rs");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Analyzes one in-memory source as the whole workspace of crate `seeded`.
fn analyze_source(source: &str) -> Analysis {
    let files = vec![SourceFile::new(
        "crates/seeded/src/lib.rs",
        "seeded",
        false,
        source,
    )];
    rules::analyze_files(files, &BTreeMap::new())
}

/// Finding keys as (rule, function, construct, justified) for assertions.
fn keys(a: &Analysis) -> BTreeSet<(String, String, String, bool)> {
    a.findings
        .iter()
        .map(|f| {
            (
                f.rule.name().to_string(),
                f.func.clone(),
                f.construct.clone(),
                f.justified,
            )
        })
        .collect()
}

#[test]
fn seeded_tree_catches_every_rule() {
    let a = rules::analyze_workspace(&ratchet_tree()).unwrap();
    assert!(
        a.registry_drift.is_empty(),
        "the fixture tree carries all five entry shapes: {:?}",
        a.registry_drift
    );

    let got = keys(&a);
    // Every seeded violation, by rule / function / construct / verdict.
    let expected = [
        // Determinism taint, all five construct families.
        ("determinism", "SeededPolicy::schedule", "float", false),
        ("determinism", "SeededPolicy::schedule", "hash-iter", false),
        (
            "determinism",
            "PolicyScheduler::apply_start",
            "wall-clock",
            false,
        ),
        ("determinism", "PolicyScheduler::tick", "env-read", false),
        (
            "determinism",
            "PolicyScheduler::helper",
            "random-hash",
            false,
        ),
        // Hot-path allocation (pass closure only).
        ("alloc", "SeededPolicy::schedule", "Vec::new", false),
        ("alloc", "SeededPolicy::schedule", "format!", false),
        // Panic-freedom.
        ("panic", "SeededPolicy::schedule", "index[]", false),
        ("panic", "PolicyScheduler::apply_start", "index[]", false),
        ("panic", "PolicyScheduler::tick", "unwrap()", false),
        // The one deliberately justified site.
        ("panic", "SchedIndex::on_start", "expect()", true),
    ];
    for (rule, func, construct, justified) in expected {
        assert!(
            got.contains(&(
                rule.to_string(),
                func.to_string(),
                construct.to_string(),
                justified
            )),
            "missing seeded finding {rule}/{func}/{construct}/justified={justified}; got {got:#?}"
        );
    }

    // Unjustified determinism taint is fatal regardless of any baseline.
    assert!(
        !a.hard_violations().is_empty(),
        "seeded determinism taint must be a hard violation"
    );

    // apply_start is a decision entry but not a pass entry: its wall-clock
    // read and raw index are findings, but the alloc rule must not reach it.
    assert!(
        !got.iter()
            .any(|(r, f, ..)| r == "alloc" && f == "PolicyScheduler::apply_start"),
        "alloc rule leaked outside the pass closure: {got:#?}"
    );

    // The off-path float helper is unreachable: no closure, no finding.
    assert!(
        !a.list_closure("decision")
            .iter()
            .chain(a.list_closure("pass").iter())
            .any(|n| n.contains("off_path_float")),
        "off_path_float must stay out of both closures"
    );
    assert!(
        !got.iter().any(|(_, f, ..)| f.contains("off_path_float")),
        "off_path_float must produce no finding in the base tree"
    );
}

#[test]
fn mutation_removing_justification_flips_verdict() {
    let base = seeded_source();
    let a = analyze_source(&base);
    let justified_key = (
        "panic".to_string(),
        "SchedIndex::on_start".to_string(),
        "expect()".to_string(),
        true,
    );
    assert!(keys(&a).contains(&justified_key), "{:#?}", keys(&a));

    // Strip the `// PANIC:` justification block above the expect() site.
    let mutated: String = base
        .lines()
        .filter(|l| !l.trim_start().starts_with("// PANIC:") && !l.contains("verdict to flip"))
        .map(|l| format!("{l}\n"))
        .collect();
    let a = analyze_source(&mutated);
    let got = keys(&a);
    assert!(
        !got.contains(&justified_key),
        "stripped justification must not stay justified"
    );
    assert!(
        got.contains(&(
            "panic".to_string(),
            "SchedIndex::on_start".to_string(),
            "expect()".to_string(),
            false,
        )),
        "verdict must flip to unjustified: {got:#?}"
    );
}

#[test]
fn mutation_adding_call_extends_closure() {
    let base = seeded_source();
    let a = analyze_source(&base);
    assert!(
        a.why("off_path_float").is_none(),
        "off_path_float must start outside every closure"
    );

    let mutated = base.replace("let _ = self;", "off_path_float();");
    assert_ne!(mutated, base, "mutation splice point missing from fixture");
    let a = analyze_source(&mutated);
    let chain = a
        .why("off_path_float")
        .expect("ClusterSim::run -> off_path_float must join the decision closure");
    assert!(
        chain.iter().any(|s| s.contains("ClusterSim::run")),
        "chain must pass through the run entry: {chain:?}"
    );
    // The newly reachable float is an unjustified determinism finding.
    assert!(
        a.hard_violations()
            .iter()
            .any(|f| f.func == "off_path_float" && f.construct == "float"),
        "{:#?}",
        a.findings
    );
}

#[test]
fn ratchet_fails_seeded_tree_against_committed_empty_baseline() {
    let a = rules::analyze_workspace(&ratchet_tree()).unwrap();
    let baseline_text = std::fs::read_to_string(ratchet_tree().join("lint_baseline.tsv")).unwrap();
    let baseline = rules::parse_baseline(&baseline_text);
    assert!(baseline.is_empty(), "the fixture baseline is header-only");
    let regressions = rules::ratchet(&a.findings, &baseline);
    assert_eq!(
        regressions.len(),
        a.findings.len(),
        "every seeded finding is a ratchet regression: {regressions:#?}"
    );
}

#[test]
fn workspace_analyzes_clean() {
    let a = rules::analyze_workspace(&workspace_root()).unwrap();
    assert!(a.registry_drift.is_empty(), "{:?}", a.registry_drift);
    assert!(
        a.hard_violations().is_empty(),
        "unjustified determinism taint in the workspace:\n{}",
        a.hard_violations()
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // The acceptance floor: the decision closure must cover the scheduler
    // decision path end to end.
    let decision = a.list_closure("decision").join("\n");
    for file in [
        "crates/slurm/src/policy/",
        "crates/sim/src/cluster.rs",
        "crates/sim/src/progress.rs",
        "crates/sim/src/rate.rs",
    ] {
        assert!(
            decision.contains(file),
            "decision closure must reach {file}:\n{decision}"
        );
    }
}

#[test]
fn workspace_findings_match_committed_baseline() {
    let root = workspace_root();
    let a = rules::analyze_workspace(&root).unwrap();
    let committed = std::fs::read_to_string(root.join(rules::BASELINE_PATH)).unwrap();
    let rendered = rules::render_baseline(&a.findings);
    assert_eq!(
        rendered, committed,
        "baseline drift — rerun `cargo run -q --release -p drom-verify --bin drom_lint -- --update-baseline`"
    );
    // Everything in the committed inventory carries a justification.
    assert!(
        a.findings.iter().all(|f| f.justified),
        "the committed inventory must be fully justified"
    );
}
