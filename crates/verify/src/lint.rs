//! Source-level workspace line lints for invariants the compiler can't
//! enforce.
//!
//! Rules (see `docs/verification.md` for rationale and examples):
//!
//! * **relaxed-ordering-justification** — every `Ordering::Relaxed` outside
//!   the audited registry fast path (`crates/shmem/src/registry.rs`) must
//!   carry a `// SAFETY(ordering):` comment on the same line or within the
//!   five preceding lines.
//! * **partial-cmp-fallback** — no `partial_cmp(...)` with an
//!   `unwrap_or`/`unwrap_or_else` fallback: NaN-tolerant sorting must use
//!   `total_cmp` (the PR-4 metrics bug class).
//! * **unsafe-needs-safety-comment** — every `unsafe` keyword must carry a
//!   `// SAFETY:` comment on the same line or within the five preceding
//!   lines.
//!
//! The old **float-in-decision-path** rule (a per-file allowlist over
//! `crates/slurm/src/policy.rs`) is subsumed by the call-graph-aware
//! determinism-taint rule in [`crate::rules`], which checks the *transitive
//! closure* of the decision entry points instead of a hardcoded file list.
//!
//! The scanner is line-based over comment-stripped code from
//! [`crate::lex::split_lines`]: string/char literals and `//`/`/* */`
//! comments (including nested block comments) are removed before rules run,
//! and comment text is kept separately for the justification searches.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::items::SourceFile;
use crate::lex::{split_lines, SplitLine};

/// How many lines above an occurrence a justification comment may sit.
const JUSTIFICATION_WINDOW: usize = 5;

/// Files (relative to the workspace root) whose `Ordering::Relaxed` uses are
/// exempt from per-site justification: the registry fast path's orderings
/// are audited wholesale by the model checker and `docs/verification.md`,
/// and the checker's own self-tests use `Relaxed` *as the subject under
/// test* (each occurrence is deliberate test input, not a shortcut).
const RELAXED_EXEMPT: &[&str] = &[
    "crates/shmem/src/registry.rs",
    "crates/verify/tests/model_self.rs",
];

/// A single lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub file: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Does any of lines `start..=at` (0-based) carry `marker` in its comment?
fn justified(lines: &[SplitLine], at: usize, marker: &str) -> bool {
    let start = at.saturating_sub(JUSTIFICATION_WINDOW);
    lines[start..=at].iter().any(|l| l.comment.contains(marker))
}

/// Finds `word` in `code` at identifier boundaries (so `unsafe_code` does not
/// match `unsafe`).
fn has_word(code: &str, word: &str) -> bool {
    let mut rest = code;
    let mut offset = 0;
    while let Some(pos) = rest.find(word) {
        let abs = offset + pos;
        let before_ok = abs == 0
            || !code[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = abs + word.len();
        let after_ok = !code[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        offset = abs + word.len();
        rest = &code[offset..];
    }
    false
}

/// Lints one file's source. `rel` is the path relative to the workspace root
/// (used for rule exemptions and reporting).
pub fn lint_file(rel: &Path, source: &str) -> Vec<Violation> {
    lint_lines(rel, &split_lines(source))
}

/// The line rules over one file's comment-split lines.
fn lint_lines(rel: &Path, lines: &[SplitLine]) -> Vec<Violation> {
    let mut violations = Vec::new();
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    let relaxed_exempt = RELAXED_EXEMPT.iter().any(|e| rel_str == *e);

    for (i, line) in lines.iter().enumerate() {
        let lineno = i + 1;
        let code = line.code.as_str();

        // relaxed-ordering-justification
        if !relaxed_exempt
            && (code.contains("Ordering::Relaxed") || code.contains("atomic::Ordering::Relaxed"))
            && !justified(lines, i, "SAFETY(ordering):")
        {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "relaxed-ordering-justification",
                message: "Ordering::Relaxed outside the audited registry fast path needs a \
                          `// SAFETY(ordering):` comment within the 5 preceding lines"
                    .to_string(),
            });
        }

        // partial-cmp-fallback: partial_cmp with an unwrap_or* fallback on
        // the same or following two lines (the sort-comparator shape).
        if code.contains("partial_cmp") {
            let window_end = (i + 3).min(lines.len());
            if lines[i..window_end]
                .iter()
                .any(|l| l.code.contains("unwrap_or"))
            {
                violations.push(Violation {
                    file: rel.to_path_buf(),
                    line: lineno,
                    rule: "partial-cmp-fallback",
                    message: "partial_cmp with an unwrap_or fallback is order-dependent under \
                              NaN; use total_cmp"
                        .to_string(),
                });
            }
        }

        // unsafe-needs-safety-comment
        if has_word(code, "unsafe") && !justified(lines, i, "SAFETY:") {
            violations.push(Violation {
                file: rel.to_path_buf(),
                line: lineno,
                rule: "unsafe-needs-safety-comment",
                message: "`unsafe` needs a `// SAFETY:` comment within the 5 preceding lines"
                    .to_string(),
            });
        }
    }
    violations
}

/// Runs the line rules over sources [`gather_workspace`] already read and
/// split — the one workspace walk the graph rules use too.
///
/// [`gather_workspace`]: crate::rules::gather_workspace
pub fn lint_sources(files: &[SourceFile]) -> Vec<Violation> {
    files
        .iter()
        .flat_map(|f| lint_lines(Path::new(&f.rel), &f.lines))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_str(rel: &str, src: &str) -> Vec<Violation> {
        lint_file(Path::new(rel), src)
    }

    #[test]
    fn strips_comments_and_strings() {
        let lines = split_lines(
            "let x = \"Ordering::Relaxed\"; // Ordering::Relaxed in comment\nlet y = 'u'; /* unsafe */ let z = 1;",
        );
        assert!(!lines[0].code.contains("Relaxed"));
        assert!(lines[0].comment.contains("Relaxed"));
        assert!(!lines[1].code.contains("unsafe"));
        assert!(lines[1].code.contains("let z"));
    }

    #[test]
    fn nested_block_comments() {
        let lines = split_lines("/* a /* b */ still comment */ let ok = 1;");
        assert!(lines[0].code.contains("let ok"));
        assert!(!lines[0].code.contains("still"));
    }

    #[test]
    fn raw_strings_blanked() {
        let lines = split_lines("let p = r#\"unsafe Ordering::Relaxed\"#; let q = 2;");
        assert!(!lines[0].code.contains("unsafe"));
        assert!(lines[0].code.contains("let q"));
    }

    #[test]
    fn relaxed_requires_justification() {
        let v = lint_str("crates/x/src/lib.rs", "a.load(Ordering::Relaxed);");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "relaxed-ordering-justification");

        let ok = lint_str(
            "crates/x/src/lib.rs",
            "// SAFETY(ordering): monotonic counter, no data depends on it.\na.load(Ordering::Relaxed);",
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn registry_fast_path_exempt() {
        let v = lint_str("crates/shmem/src/registry.rs", "a.load(Ordering::Relaxed);");
        assert!(v.is_empty());
    }

    #[test]
    fn partial_cmp_fallback_flagged() {
        let v = lint_str(
            "crates/x/src/lib.rs",
            "xs.sort_by(|a, b| a.partial_cmp(b)\n    .unwrap_or(std::cmp::Ordering::Equal));",
        );
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "partial-cmp-fallback");

        let ok = lint_str("crates/x/src/lib.rs", "xs.sort_by(|a, b| a.total_cmp(b));");
        assert!(ok.is_empty());
        // partial_cmp without a fallback (e.g. returning Option) is fine.
        let ok = lint_str("crates/x/src/lib.rs", "let o = a.partial_cmp(&b);");
        assert!(ok.is_empty());
    }

    #[test]
    fn float_rule_moved_to_graph_analysis() {
        // The old per-file float rule is subsumed by the determinism-taint
        // graph rule; plain float code must not trip the line lints anywhere.
        let ok = lint_str("crates/slurm/src/policy.rs", "let x: f64 = 1.0;");
        assert!(ok.is_empty());
    }

    #[test]
    fn unsafe_needs_safety_comment() {
        let v = lint_str("crates/x/src/lib.rs", "unsafe { do_it() }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "unsafe-needs-safety-comment");

        let ok = lint_str(
            "crates/x/src/lib.rs",
            "// SAFETY: pointer is valid for the call.\nunsafe { do_it() }",
        );
        assert!(ok.is_empty());
        // `unsafe_code` (the lint name) must not match the keyword.
        let ok = lint_str("crates/x/src/lib.rs", "#![forbid(unsafe_code)]");
        assert!(ok.is_empty());
    }
}
