//! Graph rules: determinism taint, hot-path allocation, panic freedom.
//!
//! The engine lexes every workspace source ([`crate::lex`]), extracts
//! functions ([`crate::items`]), builds an approximate call graph
//! ([`crate::callgraph`]), and computes two reachability closures from an
//! entry-point registry:
//!
//! * **decision closure** — everything reachable from a scheduler decision
//!   entry point. Decisions must replay byte-identically, so this closure
//!   must be free of *determinism taint* (floats, hash-order iteration,
//!   random hashing, wall-clock reads, environment reads) and — because a
//!   panicking controller cannot replay at all — free of unjustified
//!   panic sites.
//! * **pass closure** — everything reachable from a per-pass entry point
//!   (`SchedulerPolicy::schedule` impls). Allocations here run once per
//!   scheduling pass; each needs an `// ALLOC(pass):` justification, and
//!   the aggregate is the committed allocation inventory
//!   (`crates/verify/lint_baseline.tsv`) that quantifies the O(nodes)
//!   pass-seeding cost named in ROADMAP.md. `schedule` impls in a
//!   `policy/reference.rs` file are decision entries only: reference
//!   implementations must replay deterministically and panic-free, but no
//!   production pass runs them, so they stay out of the inventory.
//!
//! Findings carry a justification bit (marker comment within
//! [`JUSTIFICATION_WINDOW`] lines above the site, or above the `fn` line to
//! cover a whole function). Unjustified determinism findings are hard
//! violations; everything else ratchets against the committed baseline:
//! `--ratchet` fails on any new or grown finding, `--update-baseline`
//! regenerates the file.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::path::Path;

use crate::callgraph::{extract_calls, Call, CallGraph};
use crate::items::{extract_items, FileItems, FnItem, SourceFile};
use crate::lex::Tok;

/// Lines above a site (or a `fn` declaration) searched for a justification
/// marker. Matches the line-rule window in [`crate::lint`].
pub const JUSTIFICATION_WINDOW: usize = 5;

/// Relative path of the committed baseline / allocation inventory.
pub const BASELINE_PATH: &str = "crates/verify/lint_baseline.tsv";

/// Crate name -> transitive dependency closure, bounding call resolution.
pub type CrateDeps = BTreeMap<String, BTreeSet<String>>;

/// Which closure a rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Determinism taint in the decision closure.
    Determinism,
    /// Allocating constructs in the per-pass closure.
    Alloc,
    /// Panic sites in the decision closure.
    Panic,
}

impl Rule {
    /// Stable name used in baselines and messages.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Alloc => "alloc",
            Rule::Panic => "panic",
        }
    }

    /// The justification marker this rule accepts.
    pub fn marker(self) -> &'static str {
        match self {
            Rule::Determinism => "DETERMINISM:",
            Rule::Alloc => "ALLOC(pass):",
            Rule::Panic => "PANIC:",
        }
    }
}

/// One aggregated finding: a construct kind inside one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule that produced the finding.
    pub rule: Rule,
    /// Workspace-relative file path.
    pub file: String,
    /// Qualified function name (`Type::fn` or `fn`).
    pub func: String,
    /// Construct label (`float`, `hash-iter`, `Vec::new`, `unwrap()`, …).
    pub construct: String,
    /// First site line (1-based), for messages; not part of the baseline key.
    pub line: usize,
    /// Whether a justification marker covers the site.
    pub justified: bool,
    /// Number of sites aggregated into this finding.
    pub count: usize,
}

impl Finding {
    /// The baseline key: everything except `line` and `count`.
    pub fn key(&self) -> (String, String, String, String, String) {
        (
            self.rule.name().to_string(),
            self.file.clone(),
            self.func.clone(),
            self.construct.clone(),
            if self.justified {
                "justified"
            } else {
                "unjustified"
            }
            .to_string(),
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} in {} ({} site{}, {})",
            self.file,
            self.line,
            self.rule.name(),
            self.construct,
            self.func,
            self.count,
            if self.count == 1 { "" } else { "s" },
            if self.justified {
                "justified"
            } else {
                "UNJUSTIFIED"
            },
        )
    }
}

/// The five fixed entry-point specs. Each must match at least one non-test
/// function or the analysis reports *registry drift* — a rename silently
/// emptying a closure is exactly the failure mode this lint exists to stop.
/// `SchedulerPolicy::schedule` impls in a file with this path suffix are
/// reference implementations: decision entries, not pass entries.
const REFERENCE_POLICY_FILE: &str = "policy/reference.rs";

const REGISTRY: &[(&str, &str)] = &[
    ("SchedulerPolicy::schedule impls", "pass"),
    ("PolicyScheduler::apply_*", "decision"),
    (
        "PolicyScheduler::{tick,submit,requeue,job_finished,set_expected_end}",
        "decision",
    ),
    ("SchedIndex::on_*", "decision"),
    ("ClusterSim::run", "decision"),
];

const POLICY_SCHEDULER_EXACT: &[&str] = &[
    "tick",
    "submit",
    "requeue",
    "job_finished",
    "set_expected_end",
];

/// Classifies one function (defined in the file at workspace-relative path
/// `rel`) against the registry: returns
/// `(is_decision_entry, is_pass_entry, matched_spec_index)`.
fn match_registry(f: &FnItem, rel: &str) -> (bool, bool, Option<usize>) {
    if f.is_test || f.body.is_none() {
        return (false, false, None);
    }
    if f.trait_name.as_deref() == Some("SchedulerPolicy") && f.name == "schedule" {
        return (true, !rel.ends_with(REFERENCE_POLICY_FILE), Some(0));
    }
    match f.self_ty.as_deref() {
        Some("PolicyScheduler") if f.name.starts_with("apply_") => (true, false, Some(1)),
        Some("PolicyScheduler") if POLICY_SCHEDULER_EXACT.contains(&f.name.as_str()) => {
            (true, false, Some(2))
        }
        Some("SchedIndex") if f.name.starts_with("on_") => (true, false, Some(3)),
        Some("ClusterSim") if f.name == "run" => (true, false, Some(4)),
        _ => (false, false, None),
    }
}

/// Scans the comment channel above `fn_line` for a `LINT-ENTRY(kind)`
/// annotation; returns the kind (`decision` / `pass`) if present.
fn lint_entry_annotation(file: &SourceFile, fn_line: usize) -> Option<&'static str> {
    let lo = fn_line.saturating_sub(JUSTIFICATION_WINDOW + 1);
    for line in (lo..fn_line).rev() {
        let Some(sl) = file.lines.get(line) else {
            continue;
        };
        if sl.comment.contains("LINT-ENTRY(pass)") {
            return Some("pass");
        }
        if sl.comment.contains("LINT-ENTRY(decision)") {
            return Some("decision");
        }
    }
    None
}

/// True when `marker` appears in the comment channel within the window
/// ending at (and including) 1-based `line`.
fn marker_above(file: &SourceFile, line: usize, marker: &str) -> bool {
    let hi = line.min(file.lines.len());
    let lo = hi.saturating_sub(JUSTIFICATION_WINDOW + 1);
    file.lines[lo..hi]
        .iter()
        .any(|sl| sl.comment.contains(marker))
}

/// Site-level justification: marker above the site, or above the `fn`
/// declaration (function-level justification covers every site inside).
fn justified(file: &SourceFile, f: &FnItem, site_line: usize, rule: Rule) -> bool {
    marker_above(file, site_line, rule.marker()) || marker_above(file, f.line, rule.marker())
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];

const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "into_iter",
    "into_keys",
    "into_values",
];

const ALLOC_TYPES: &[&str] = &[
    "Vec",
    "VecDeque",
    "String",
    "Box",
    "Rc",
    "Arc",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
    "HashMap",
    "HashSet",
];

const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "with_hasher", "from", "from_iter"];

const ALLOC_METHODS: &[&str] = &[
    "clone",
    "to_vec",
    "to_owned",
    "to_string",
    "collect",
    "concat",
    "join",
    "repeat",
    "into_vec",
];

const PANIC_METHODS: &[&str] = &["unwrap", "unwrap_err", "expect", "expect_err"];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// The full analysis result.
pub struct Analysis {
    /// Lexed sources, indexable by [`FnItem::file`].
    pub files: Vec<SourceFile>,
    /// All extracted functions.
    pub fns: Vec<FnItem>,
    /// The resolved call graph.
    pub graph: CallGraph,
    /// Function indices in the decision closure.
    pub decision: BTreeSet<usize>,
    /// Function indices in the pass closure.
    pub pass: BTreeSet<usize>,
    /// Decision-closure BFS parents (reached → reached-from), for `--why`.
    pub decision_parent: BTreeMap<usize, usize>,
    /// Pass-closure BFS parents.
    pub pass_parent: BTreeMap<usize, usize>,
    /// Aggregated rule findings, sorted by baseline key.
    pub findings: Vec<Finding>,
    /// Registry specs that matched no function (hard error on the real tree).
    pub registry_drift: Vec<String>,
}

impl Analysis {
    /// Findings that fail the run regardless of the baseline.
    pub fn hard_violations(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.rule == Rule::Determinism && !f.justified)
            .collect()
    }

    /// Resolves a `--why` query: the call chain from an entry point to the
    /// first function whose qualified name equals (or ends with) `query`.
    pub fn why(&self, query: &str) -> Option<Vec<String>> {
        let target = self
            .fns
            .iter()
            .position(|f| f.qualified() == query)
            .or_else(|| self.fns.iter().position(|f| f.qualified().ends_with(query)))?;
        for (closure, parent, label) in [
            (&self.decision, &self.decision_parent, "decision"),
            (&self.pass, &self.pass_parent, "pass"),
        ] {
            if closure.contains(&target) {
                let mut chain = vec![target];
                while let Some(&p) = parent.get(chain.last().expect("non-empty")) {
                    chain.push(p);
                }
                chain.reverse();
                let mut out: Vec<String> = chain
                    .iter()
                    .map(|&i| {
                        format!(
                            "{} ({})",
                            self.fns[i].qualified(),
                            self.files[self.fns[i].file].rel
                        )
                    })
                    .collect();
                out.insert(0, format!("[{label} closure]"));
                return Some(out);
            }
        }
        None
    }

    /// Sorted qualified names of one closure, for `--list-closure`.
    pub fn list_closure(&self, which: &str) -> Vec<String> {
        let set = if which == "pass" {
            &self.pass
        } else {
            &self.decision
        };
        set.iter()
            .map(|&i| {
                format!(
                    "{} ({})",
                    self.fns[i].qualified(),
                    self.files[self.fns[i].file].rel
                )
            })
            .collect()
    }
}

/// Scans one function for determinism-taint constructs.
fn scan_determinism(
    file: &SourceFile,
    f: &FnItem,
    graph: &CallGraph,
    fn_idx: usize,
) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let tokens = &file.tokens;
    let ranges = [Some(f.sig.clone()), f.body.clone()];
    for range in ranges.into_iter().flatten() {
        for i in range {
            let t = &tokens[i];
            match &t.tok {
                Tok::Ident(s) if s == "f32" || s == "f64" => out.push(("float".into(), t.line)),
                Tok::Number { float: true } => out.push(("float".into(), t.line)),
                Tok::Ident(s) if s == "RandomState" || s == "DefaultHasher" => {
                    out.push(("random-hash".into(), t.line))
                }
                Tok::Ident(s) if s == "Instant" || s == "SystemTime" => {
                    out.push(("wall-clock".into(), t.line))
                }
                _ => {}
            }
        }
    }
    if let Some(body) = &f.body {
        for call in extract_calls(tokens, body.clone()) {
            match &call {
                Call::Path { segments, line } => {
                    let n = segments.len();
                    if n >= 2 && segments[n - 2] == "env" {
                        let name = segments[n - 1].as_str();
                        if matches!(name, "var" | "var_os" | "vars" | "vars_os") {
                            out.push(("env-read".into(), *line));
                        }
                    }
                }
                Call::Method {
                    name,
                    receiver,
                    line,
                } if HASH_ITER_METHODS.contains(&name.as_str()) && !receiver.is_empty() => {
                    let ty = CallGraph::receiver_type(
                        receiver,
                        f,
                        &graph.local_types[fn_idx],
                        &graph.field_types,
                    );
                    if ty.as_deref().is_some_and(|t| HASH_TYPES.contains(&t)) {
                        out.push(("hash-iter".into(), *line));
                    }
                }
                _ => {}
            }
        }
        // `for x in hash_typed { … }` iterates in hash order without any
        // method call — catch the chain after `in` when a `for` is nearby.
        let toks = &tokens[body.clone()];
        for (k, t) in toks.iter().enumerate() {
            if t.ident() != Some("in") {
                continue;
            }
            let recent_for = toks[k.saturating_sub(8)..k]
                .iter()
                .any(|p| p.ident() == Some("for"));
            if !recent_for {
                continue;
            }
            let mut j = k + 1;
            while toks.get(j).is_some_and(|t| t.is_punct('&'))
                || toks.get(j).and_then(|t| t.ident()) == Some("mut")
            {
                j += 1;
            }
            let mut chain = Vec::new();
            while let Some(id) = toks.get(j).and_then(|t| t.ident()) {
                chain.push(id.to_string());
                if toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
                    && toks.get(j + 2).and_then(|t| t.ident()).is_some()
                {
                    j += 2;
                } else {
                    j += 1;
                    break;
                }
            }
            // Only a bare chain directly followed by the loop body: method
            // calls on the chain were already handled above.
            if chain.is_empty() || !toks.get(j).is_some_and(|t| t.is_punct('{')) {
                continue;
            }
            let ty =
                CallGraph::receiver_type(&chain, f, &graph.local_types[fn_idx], &graph.field_types);
            if ty.as_deref().is_some_and(|t| HASH_TYPES.contains(&t)) {
                out.push(("hash-iter".into(), toks[k].line));
            }
        }
    }
    out
}

/// Scans one function for allocating constructs.
fn scan_alloc(file: &SourceFile, f: &FnItem) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let Some(body) = &f.body else { return out };
    for call in extract_calls(&file.tokens, body.clone()) {
        match &call {
            Call::Path { segments, line } => {
                let n = segments.len();
                if n >= 2
                    && ALLOC_TYPES.contains(&segments[n - 2].as_str())
                    && ALLOC_CTORS.contains(&segments[n - 1].as_str())
                {
                    out.push((format!("{}::{}", segments[n - 2], segments[n - 1]), *line));
                }
            }
            Call::Method { name, line, .. } if ALLOC_METHODS.contains(&name.as_str()) => {
                out.push((format!("{name}()"), *line));
            }
            Call::Macro { name, line } if name == "vec" || name == "format" => {
                out.push((format!("{name}!"), *line));
            }
            _ => {}
        }
    }
    out
}

/// Scans one function for panic sites.
fn scan_panic(file: &SourceFile, f: &FnItem) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let Some(body) = &f.body else { return out };
    for call in extract_calls(&file.tokens, body.clone()) {
        match &call {
            Call::Method { name, line, .. } if PANIC_METHODS.contains(&name.as_str()) => {
                out.push((format!("{name}()"), *line));
            }
            Call::Macro { name, line } if PANIC_MACROS.contains(&name.as_str()) => {
                out.push((format!("{name}!"), *line));
            }
            Call::Index { line } => out.push(("index[]".into(), *line)),
            _ => {}
        }
    }
    out
}

/// Runs the full analysis over in-memory sources. `crate_deps` maps a crate
/// name to its transitive dependency closure (used to bound ambiguous call
/// resolution).
pub fn analyze_files(
    files: Vec<SourceFile>,
    crate_deps: &BTreeMap<String, BTreeSet<String>>,
) -> Analysis {
    let items: Vec<FileItems> = files
        .iter()
        .enumerate()
        .map(|(i, f)| extract_items(i, f))
        .collect();
    let fns: Vec<FnItem> = items.iter().flat_map(|it| it.fns.iter().cloned()).collect();
    let graph = CallGraph::build(&files, &items, &fns, crate_deps);

    // Entry points: registry matches + LINT-ENTRY annotations.
    let mut decision_entries = Vec::new();
    let mut pass_entries = Vec::new();
    let mut matched = [false; 5];
    for (idx, f) in fns.iter().enumerate() {
        let (mut dec, mut pass, spec) = match_registry(f, &files[f.file].rel);
        if let Some(s) = spec {
            matched[s] = true;
        }
        if !f.is_test && f.body.is_some() {
            match lint_entry_annotation(&files[f.file], f.line) {
                Some("pass") => {
                    pass = true;
                    dec = true;
                }
                Some("decision") => dec = true,
                _ => {}
            }
        }
        if dec {
            decision_entries.push(idx);
        }
        if pass {
            pass_entries.push(idx);
        }
    }
    let registry_drift: Vec<String> = REGISTRY
        .iter()
        .zip(matched)
        .filter(|(_, m)| !*m)
        .map(|((spec, kind), _)| format!("registry drift: no function matches {spec} ({kind})"))
        .collect();

    let (decision, decision_parent) = graph.reachable(&decision_entries);
    let (pass, pass_parent) = graph.reachable(&pass_entries);

    // Rule scans over the closures.
    let mut agg: BTreeMap<(Rule, usize, String, bool), (usize, usize)> = BTreeMap::new();
    let mut add = |rule: Rule, fn_idx: usize, sites: Vec<(String, usize)>| {
        let f = &fns[fn_idx];
        let file = &files[f.file];
        for (construct, line) in sites {
            let j = justified(file, f, line, rule);
            let e = agg
                .entry((rule, fn_idx, construct, j))
                .or_insert((0, usize::MAX));
            e.0 += 1;
            e.1 = e.1.min(line);
        }
    };
    for &i in &decision {
        add(
            Rule::Determinism,
            i,
            scan_determinism(&files[fns[i].file], &fns[i], &graph, i),
        );
        add(Rule::Panic, i, scan_panic(&files[fns[i].file], &fns[i]));
    }
    for &i in &pass {
        add(Rule::Alloc, i, scan_alloc(&files[fns[i].file], &fns[i]));
    }

    let mut findings: Vec<Finding> = agg
        .into_iter()
        .map(
            |((rule, fn_idx, construct, justified), (count, line))| Finding {
                rule,
                file: files[fns[fn_idx].file].rel.clone(),
                func: fns[fn_idx].qualified(),
                construct,
                line,
                justified,
                count,
            },
        )
        .collect();
    findings.sort_by_key(|f| (f.key(), f.line));

    Analysis {
        files,
        fns,
        graph,
        decision,
        pass,
        decision_parent,
        pass_parent,
        findings,
        registry_drift,
    }
}

// ---------------------------------------------------------------------------
// Workspace gathering.
// ---------------------------------------------------------------------------

/// Parses `name = "…"` out of a Cargo.toml `[package]` section.
fn package_name(toml: &str) -> Option<String> {
    let mut in_package = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
        } else if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start().strip_prefix('=')?.trim();
                return Some(rest.trim_matches('"').to_string());
            }
        }
    }
    None
}

/// Parses the workspace-internal dependency names out of a Cargo.toml:
/// lines like `drom-core.workspace = true` or `drom-core = { … }` inside
/// plain `[dependencies]` only. Dev-dependencies feed test code (never a
/// resolution target) and cfg-gated sections (the `cfg(drom_verify)`
/// model-check shims) are not production scheduling builds — including
/// either would widen the decision closure with edges no deployed
/// controller can take.
fn direct_deps(toml: &str, workspace_names: &BTreeSet<String>) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for line in toml.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_deps = line == "[dependencies]";
            continue;
        }
        if !in_deps || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let key: String = line
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '-' || *c == '_')
            .collect();
        if workspace_names.contains(&key) {
            out.insert(key);
        }
    }
    out
}

/// Computes the transitive closure of a direct-dependency map. Each crate's
/// closure includes itself.
fn transitive(direct: &BTreeMap<String, BTreeSet<String>>) -> BTreeMap<String, BTreeSet<String>> {
    let mut closure: BTreeMap<String, BTreeSet<String>> = direct
        .iter()
        .map(|(k, v)| {
            let mut s = v.clone();
            s.insert(k.clone());
            (k.clone(), s)
        })
        .collect();
    loop {
        let mut grew = false;
        let keys: Vec<String> = closure.keys().cloned().collect();
        for k in &keys {
            let reach: Vec<String> = closure[k].iter().cloned().collect();
            for r in reach {
                if r == *k {
                    continue;
                }
                if let Some(next) = closure.get(&r).cloned() {
                    let set = closure.get_mut(k).expect("key exists");
                    let before = set.len();
                    set.extend(next);
                    grew |= set.len() > before;
                }
            }
        }
        if !grew {
            return closure;
        }
    }
}

/// Recursively collects `.rs` files under `dir`, skipping `target/`,
/// `fixtures/`, and dot-directories. Paths are returned sorted.
fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<io::Result<_>>()?;
    entries.sort_by_key(|e| e.path());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Gathers every analyzable source in the workspace rooted at `root`
/// (member crates under `crates/` plus the root package's `src/`, `tests/`
/// and `examples/`) and the crate dependency closure. `vendor/` stubs are
/// not analyzed.
pub fn gather_workspace(root: &Path) -> io::Result<(Vec<SourceFile>, CrateDeps)> {
    // (dir, crate name, manifest text) per analyzable package.
    let mut crate_dirs: Vec<(std::path::PathBuf, String, String)> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates)?.collect::<io::Result<_>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let dir = entry.path();
            let manifest = dir.join("Cargo.toml");
            if let Ok(toml) = std::fs::read_to_string(&manifest) {
                if let Some(name) = package_name(&toml) {
                    crate_dirs.push((dir, name, toml));
                }
            }
        }
    }
    if let Ok(toml) = std::fs::read_to_string(root.join("Cargo.toml")) {
        if let Some(name) = package_name(&toml) {
            crate_dirs.push((root.to_path_buf(), name, toml));
        }
    }

    let names: BTreeSet<String> = crate_dirs.iter().map(|(_, n, _)| n.clone()).collect();
    let direct: BTreeMap<String, BTreeSet<String>> = crate_dirs
        .iter()
        .map(|(_, n, toml)| (n.clone(), direct_deps(toml, &names)))
        .collect();
    let deps = transitive(&direct);

    let mut files = Vec::new();
    for (dir, name, _) in &crate_dirs {
        for sub in ["src", "tests", "examples", "benches"] {
            let mut paths = Vec::new();
            collect_rs(&dir.join(sub), &mut paths)?;
            for path in paths {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .to_string_lossy()
                    .replace('\\', "/");
                let test_context = sub != "src";
                let source = std::fs::read_to_string(&path)?;
                files.push(SourceFile::new(&rel, name, test_context, &source));
            }
        }
    }
    Ok((files, deps))
}

/// Convenience: gather + analyze a workspace on disk.
pub fn analyze_workspace(root: &Path) -> io::Result<Analysis> {
    let (files, deps) = gather_workspace(root)?;
    Ok(analyze_files(files, &deps))
}

// ---------------------------------------------------------------------------
// Baseline (ratchet + allocation inventory).
// ---------------------------------------------------------------------------

/// Renders the committed baseline: one TSV row per finding key, sorted.
/// Doubles as the allocation inventory — `alloc` rows quantify every
/// allocating construct reachable from a scheduling pass.
pub fn render_baseline(findings: &[Finding]) -> String {
    let mut out = String::from(
        "# drom_lint finding baseline / allocation inventory.\n\
         # Regenerate with: cargo run -q --release -p drom-verify --bin drom_lint -- --update-baseline\n\
         # rule\tfile\tfunction\tconstruct\tstatus\tcount\n",
    );
    for f in findings {
        let (rule, file, func, construct, status) = f.key();
        out.push_str(&format!(
            "{rule}\t{file}\t{func}\t{construct}\t{status}\t{}\n",
            f.count
        ));
    }
    out
}

/// Parses a baseline file into key → count.
pub fn parse_baseline(text: &str) -> BTreeMap<(String, String, String, String, String), usize> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 6 {
            continue;
        }
        let count = cols[5].parse().unwrap_or(0);
        out.insert(
            (
                cols[0].to_string(),
                cols[1].to_string(),
                cols[2].to_string(),
                cols[3].to_string(),
                cols[4].to_string(),
            ),
            count,
        );
    }
    out
}

/// Ratchet comparison: every current finding key must exist in the baseline
/// with at least the current count. Returns human-readable regressions
/// (empty = pass). Shrinking or disappearing findings never fail — rerun
/// `--update-baseline` to lock in improvements.
pub fn ratchet(
    findings: &[Finding],
    baseline: &BTreeMap<(String, String, String, String, String), usize>,
) -> Vec<String> {
    let mut out = Vec::new();
    for f in findings {
        let key = f.key();
        match baseline.get(&key) {
            None => out.push(format!("new finding not in baseline: {f}")),
            Some(&allowed) if f.count > allowed => out.push(format!(
                "finding grew beyond baseline ({allowed} → {}): {f}",
                f.count
            )),
            Some(_) => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_one(src: &str) -> Analysis {
        let files = vec![SourceFile::new("crates/x/src/lib.rs", "drom-x", false, src)];
        analyze_files(files, &BTreeMap::new())
    }

    const POLICY_PRELUDE: &str = "trait SchedulerPolicy { fn schedule(&self); }\n";

    #[test]
    fn schedule_impl_is_pass_and_decision_entry() {
        let a = analyze_one(&format!(
            "{POLICY_PRELUDE}struct P;\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ helper(); }} }}\nfn helper() {{}}\nfn unrelated() {{}}\n"
        ));
        let names: Vec<String> = a.list_closure("pass");
        assert!(names.iter().any(|n| n.contains("P::schedule")));
        assert!(names.iter().any(|n| n.contains("helper")));
        assert!(!names.iter().any(|n| n.contains("unrelated")));
        assert!(
            a.decision.len() >= 2,
            "pass entries are decision entries too"
        );
    }

    #[test]
    fn reference_schedule_impl_is_decision_entry_only() {
        let src = format!(
            "{POLICY_PRELUDE}struct R;\nimpl SchedulerPolicy for R {{ fn schedule(&self) {{ let _v = Vec::new(); helper(&[]); }} }}\n\
             fn helper(xs: &[u64]) -> u64 {{ xs[0] }}\n"
        );
        let files = vec![SourceFile::new(
            "crates/x/src/policy/reference.rs",
            "drom-x",
            false,
            &src,
        )];
        let a = analyze_files(files, &BTreeMap::new());
        assert!(a.registry_drift.iter().all(|d| !d.contains("schedule")));
        assert!(a.pass.is_empty(), "{:?}", a.list_closure("pass"));
        assert!(
            !a.findings.iter().any(|f| f.rule == Rule::Alloc),
            "reference allocations stay out of the inventory: {:?}",
            a.findings
        );
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == Rule::Panic && f.func == "helper"),
            "panic (and determinism) rules still reach reference code: {:?}",
            a.findings
        );
    }

    #[test]
    fn float_in_closure_is_hard_violation_until_justified() {
        let tainted = format!(
            "{POLICY_PRELUDE}struct P;\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ helper(); }} }}\nfn helper() -> f64 {{ 1.5 }}\n"
        );
        let a = analyze_one(&tainted);
        assert!(
            !a.hard_violations().is_empty(),
            "unjustified float must be a hard violation"
        );
        let justified = tainted.replace(
            "fn helper()",
            "// DETERMINISM: fixture, constant fold\nfn helper()",
        );
        let a = analyze_one(&justified);
        assert!(a.hard_violations().is_empty(), "{:?}", a.hard_violations());
        assert!(
            a.findings
                .iter()
                .any(|f| f.rule == Rule::Determinism && f.justified),
            "justified finding still recorded for the baseline"
        );
    }

    #[test]
    fn float_outside_closure_is_ignored() {
        let a = analyze_one(&format!(
            "{POLICY_PRELUDE}struct P;\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{}} }}\nfn metrics_only() -> f64 {{ 1.5 }}\n"
        ));
        assert!(a.hard_violations().is_empty());
    }

    #[test]
    fn hash_iteration_detected_through_field_typing() {
        let a = analyze_one(&format!(
            "{POLICY_PRELUDE}struct P {{ map: HashMap<u64, u64> }}\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ for v in self.map.values() {{ let _ = v; }} }} }}\n"
        ));
        assert!(
            a.hard_violations()
                .iter()
                .any(|f| f.construct == "hash-iter"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn for_loop_over_hash_field_detected() {
        let a = analyze_one(&format!(
            "{POLICY_PRELUDE}struct P {{ set: HashSet<u64> }}\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ for v in &self.set {{ let _ = v; }} }} }}\n"
        ));
        assert!(
            a.hard_violations()
                .iter()
                .any(|f| f.construct == "hash-iter"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let a = analyze_one(&format!(
            "{POLICY_PRELUDE}struct P {{ map: BTreeMap<u64, u64> }}\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ for v in self.map.values() {{ let _ = v; }} }} }}\n"
        ));
        assert!(a.hard_violations().is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn wall_clock_and_env_reads_detected() {
        let a = analyze_one(&format!(
            "{POLICY_PRELUDE}struct P;\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ let _t = Instant::now(); let _e = std::env::var(\"X\"); }} }}\n"
        ));
        let constructs: BTreeSet<&str> = a
            .hard_violations()
            .iter()
            .map(|f| f.construct.as_str())
            .collect();
        assert!(constructs.contains("wall-clock"), "{constructs:?}");
        assert!(constructs.contains("env-read"), "{constructs:?}");
    }

    #[test]
    fn alloc_findings_cover_pass_closure_only() {
        let a = analyze_one(&format!(
            "{POLICY_PRELUDE}struct P;\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ let _v = Vec::new(); }} }}\n\
             struct ClusterSim;\nimpl ClusterSim {{ fn run(&self) {{ let _s = String::new(); }} }}\n"
        ));
        let alloc: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Alloc)
            .collect();
        assert!(alloc.iter().any(|f| f.construct == "Vec::new"));
        assert!(
            !alloc.iter().any(|f| f.construct == "String::new"),
            "ClusterSim::run is decision-only, not a pass entry: {alloc:?}"
        );
    }

    #[test]
    fn panic_sites_detected_and_fn_level_justification_covers_all() {
        let src = format!(
            "{POLICY_PRELUDE}struct P;\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ helper(&[]); }} }}\n\
             fn helper(xs: &[u64]) -> u64 {{ assert!(!xs.is_empty()); xs[0] }}\n"
        );
        let a = analyze_one(&src);
        let panics: Vec<&Finding> = a
            .findings
            .iter()
            .filter(|f| f.rule == Rule::Panic)
            .collect();
        assert!(panics
            .iter()
            .any(|f| f.construct == "assert!" && !f.justified));
        assert!(panics
            .iter()
            .any(|f| f.construct == "index[]" && !f.justified));
        let justified_src = src.replace(
            "fn helper(",
            "// PANIC: fixture, invariant-checked\nfn helper(",
        );
        let a = analyze_one(&justified_src);
        assert!(
            a.findings
                .iter()
                .filter(|f| f.rule == Rule::Panic)
                .all(|f| f.justified),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn lint_entry_annotation_adds_entry() {
        let a = analyze_one("// LINT-ENTRY(decision)\nfn custom_entry() { let _x = 1.5; }\n");
        assert!(
            a.hard_violations().iter().any(|f| f.func == "custom_entry"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn registry_drift_reported() {
        let a = analyze_one("fn nothing() {}\n");
        assert_eq!(a.registry_drift.len(), REGISTRY.len());
    }

    #[test]
    fn baseline_roundtrip_and_ratchet() {
        let f = |construct: &str, count: usize, justified: bool| Finding {
            rule: Rule::Alloc,
            file: "crates/x/src/lib.rs".into(),
            func: "P::schedule".into(),
            construct: construct.into(),
            line: 3,
            justified,
            count,
        };
        let old = vec![f("Vec::new", 2, true)];
        let baseline = parse_baseline(&render_baseline(&old));
        assert!(ratchet(&old, &baseline).is_empty());
        // Same key, same count, different line: still clean.
        let mut moved = old.clone();
        moved[0].line = 7;
        assert!(ratchet(&moved, &baseline).is_empty());
        // Count grows: regression.
        assert_eq!(ratchet(&[f("Vec::new", 3, true)], &baseline).len(), 1);
        // New construct: regression.
        assert_eq!(
            ratchet(&[f("Vec::new", 2, true), f("vec!", 1, true)], &baseline).len(),
            1
        );
        // Losing the justification flips the key: regression.
        assert_eq!(ratchet(&[f("Vec::new", 2, false)], &baseline).len(), 1);
        // Shrinking is never a regression.
        assert!(ratchet(&[f("Vec::new", 1, true)], &baseline).is_empty());
    }

    #[test]
    fn why_reports_a_chain() {
        let a = analyze_one(&format!(
            "{POLICY_PRELUDE}struct P;\nimpl SchedulerPolicy for P {{ fn schedule(&self) {{ mid(); }} }}\nfn mid() {{ leaf(); }}\nfn leaf() {{}}\n"
        ));
        let chain = a.why("leaf").expect("leaf is reachable");
        let joined = chain.join(" -> ");
        assert!(joined.contains("P::schedule"), "{joined}");
        assert!(joined.contains("mid"), "{joined}");
        assert!(joined.contains("leaf"), "{joined}");
    }
}
