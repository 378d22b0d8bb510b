//! The lint rules exercised against known-bad fixture sources, plus the
//! clean-tree gate CI relies on: the real workspace must lint clean.

use std::path::Path;

use drom_verify::lint::{lint_file, lint_sources};
use drom_verify::rules::gather_workspace;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs a fixture under an arbitrary (non-exempt) crate path.
fn lint_fixture(name: &str) -> Vec<(String, usize)> {
    let source = fixture(name);
    lint_file(Path::new("crates/fixture/src/lib.rs"), &source)
        .into_iter()
        .map(|v| (v.rule.to_string(), v.line))
        .collect()
}

#[test]
fn relaxed_without_justification_trips() {
    let violations = lint_fixture("relaxed_unjustified.rs");
    assert_eq!(
        violations,
        vec![("relaxed-ordering-justification".to_string(), 14)],
        "exactly the unjustified load must trip, not the justified fetch_add"
    );
}

#[test]
fn partial_cmp_fallback_trips() {
    let violations = lint_fixture("partial_cmp_fallback.rs");
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].0, "partial-cmp-fallback");
}

#[test]
fn unsafe_without_safety_comment_trips() {
    let violations = lint_fixture("unsafe_uncommented.rs");
    assert_eq!(
        violations,
        vec![("unsafe-needs-safety-comment".to_string(), 12)],
        "exactly the undocumented unsafe must trip"
    );
}

#[test]
fn workspace_tree_is_clean() {
    // CARGO_MANIFEST_DIR = crates/verify; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let (files, _) = gather_workspace(&root).unwrap();
    let violations = lint_sources(&files);
    assert!(
        violations.is_empty(),
        "the workspace must lint clean:\n{}",
        violations
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
