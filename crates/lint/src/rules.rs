//! The rule engine: path scoping, item-tree-based test-region detection,
//! inline suppressions, and the rule catalog — the v1 token rules
//! (determinism, panic-safety, float hygiene, telemetry-name integrity,
//! `forbid(unsafe_code)` presence) plus the v2 syntax-aware families built
//! on [`crate::tree`]: concurrency (the `conc` pass: lock-order,
//! detached-spawn, unordered-merge) and canonical-purity (wall-clock-shaped
//! telemetry names must be withheld by the registry exported from
//! `telemetry::names`).

use crate::conc;
use crate::scanner::{self, Token, TokenKind};
use crate::tree::ItemTree;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// How bad a finding is. Both severities gate CI when the finding is new
/// (absent from the baseline); severity is for triage, not for exemption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Breaks a reproducibility or integrity invariant.
    Error,
    /// Undermines robustness; fix or suppress with a reason.
    Warning,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        }
    }
}

/// Static description of one rule, driving `explain` and the catalog table.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable kebab-case rule name (used in suppressions and baselines).
    pub name: &'static str,
    /// Default severity.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
    /// Longer `explain` text: what it catches, why, and how to fix it.
    pub explain: &'static str,
}

/// The v1 rule catalog.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "determinism-rng",
        severity: Severity::Error,
        summary: "ambient randomness (thread_rng/from_entropy/rand::random) is banned everywhere",
        explain: "The paper's Accuracy (Eq. 1) and Litho# (Eq. 2) are only citable because every \
                  run is a pure function of its seeds. `thread_rng()`, `SeedableRng::from_entropy()` \
                  and `rand::random()` read operating-system entropy, so two runs with identical \
                  seeds diverge. Thread a seeded `ChaCha8Rng` (or a seed derived from one) instead. \
                  This rule applies to every scanned file, tests included: a nondeterministic test \
                  is a flaky test.",
    },
    RuleInfo {
        name: "determinism-clock",
        severity: Severity::Error,
        summary: "wall-clock reads (Instant::now/SystemTime::now) outside the telemetry crate",
        explain: "Wall-clock reads in library code leak nondeterminism into results and journals. \
                  Time belongs in one crate only: telemetry, which owns timing as an explicitly \
                  non-deterministic concern (redacted by canonical journals) and the one \
                  injectable `hotspot_telemetry::Clock` with its `SystemClock` (tests substitute \
                  a `VirtualClock`). Elsewhere, accept a `Clock` or move the measurement behind \
                  telemetry; a site whose timing provably never reaches results may carry a \
                  reasoned `// lithohd-lint: allow(determinism-clock) — why` suppression.",
    },
    RuleInfo {
        name: "hash-order",
        severity: Severity::Warning,
        summary: "HashMap/HashSet in library code: iteration order is nondeterministic",
        explain: "`std::collections::HashMap`/`HashSet` iterate in randomized order (SipHash keys \
                  are seeded per process), so any iteration that reaches selection results, \
                  metrics, or journal output breaks bit-identical reproduction. Use `BTreeMap`/\
                  `BTreeSet`, or sort before iterating. Lookup-only maps are still flagged because \
                  nothing stops a later change from iterating them; switch anyway (the workspace's \
                  maps are small) or suppress with a reason.",
    },
    RuleInfo {
        name: "panic-safety",
        severity: Severity::Warning,
        summary: "unwrap/expect/panic!/unreachable!/todo! in library non-test code",
        explain: "The fault-tolerance layer (retry, quorum, degradation-aware sampling) promises \
                  that oracle faults degrade runs instead of killing them — a promise a stray \
                  `unwrap()` on a hot path silently revokes. In library crates, propagate a typed \
                  error (`OracleError`, `ActiveError`, …) or handle the case. Tests, examples, \
                  benches and binaries may panic freely (a panic there is a failed test or a CLI \
                  abort, which is the intended behavior). Grandfathered sites live in the \
                  baseline; new ones need a fix or a reasoned suppression.",
    },
    RuleInfo {
        name: "float-eq",
        severity: Severity::Warning,
        summary: "== / != against a float literal",
        explain: "Exact float comparison is almost never what a numerical pipeline wants: \
                  accumulation order, FMA contraction, or a changed optimization level flip the \
                  result. Compare against an epsilon, use `total_cmp`, or restructure. The lexical \
                  check flags comparisons where either operand is a float literal (`x == 1.0`); \
                  comparisons between float variables are out of lexical reach and remain the \
                  reviewer's job.",
    },
    RuleInfo {
        name: "telemetry-names",
        severity: Severity::Error,
        summary: "string-literal metric/span name at a telemetry call site",
        explain: "Metric and span names are an API: journal parsers, the Prometheus exporter, \
                  `lithohd-report`, and CI gates all match on them. A name spelled inline at the \
                  call site (`counter(\"litho.oracle.calls\")`) can drift from its consumers \
                  without any compiler help. Every name passed to `counter`/`gauge`/`histogram`/\
                  `span` in library code must be a constant exported from `telemetry::names`; add \
                  missing names there (and to `names::ALL`) rather than suppressing.",
    },
    RuleInfo {
        name: "telemetry-unused-name",
        severity: Severity::Warning,
        summary: "a telemetry::names constant no call site references",
        explain: "A registered name nothing emits is dead weight at best and a stale contract at \
                  worst (a dashboard or gate may still be watching for it). Remove the constant \
                  or wire the call site back up.",
    },
    RuleInfo {
        name: "forbid-unsafe",
        severity: Severity::Error,
        summary: "library crate root missing #![forbid(unsafe_code)]",
        explain: "The workspace contains no `unsafe` today; `#![forbid(unsafe_code)]` at every \
                  crate root turns that observation into a compiler-checked invariant that a \
                  future PR cannot silently regress (forbid, unlike deny, cannot be overridden \
                  by an inner allow).",
    },
    RuleInfo {
        name: "lock-order",
        severity: Severity::Error,
        summary: "cyclic Mutex/RwLock acquisition order within a crate",
        explain: "Two functions that acquire the same pair of locks in opposite orders can \
                  deadlock the moment they run concurrently — and the shard coordinator, the \
                  metrics registry, and the journal writer all run concurrently. The rule \
                  reconstructs each crate's lock acquisition graph lexically (a let-bound guard \
                  is held until its block closes, a temporary until its statement ends) and \
                  flags every cycle. Fix by choosing one global acquisition order, or narrow a \
                  guard's scope so the overlap disappears. Heuristic false positives (e.g. locks \
                  proven disjoint by construction) take a reasoned suppression at the reported \
                  acquisition site.",
    },
    RuleInfo {
        name: "detached-spawn",
        severity: Severity::Warning,
        summary: "thread::spawn handle neither joined in-function nor stored",
        explain: "A discarded `JoinHandle` means the spawned thread's panics vanish and nothing \
                  ever waits for its work — the exact failure mode the shard coordinator's \
                  dead-worker recovery exists to prevent. Join the handle, store it for a later \
                  join, or use scoped threads. A genuinely fire-and-forget thread (a daemon \
                  whose lifetime is the process) takes a reasoned suppression.",
    },
    RuleInfo {
        name: "unordered-merge",
        severity: Severity::Warning,
        summary: "channel results accumulated in arrival order without sorting",
        explain: "Worker completion order depends on scheduling, so folding channel results in \
                  arrival order makes the reduction nondeterministic — the bug class the \
                  N=1-vs-N=4 canonical-journal CI jobs catch dynamically, caught here \
                  statically. Tag results with their shard/clip ordinal and sort before \
                  reducing (the shard coordinator's merge does exactly this), or accumulate \
                  into an ordered container keyed by ordinal.",
    },
    RuleInfo {
        name: "canonical-purity",
        severity: Severity::Error,
        summary: "wall-clock-shaped telemetry name not withheld in canonical mode",
        explain: "`--canonical-journal` promises byte-identical journals for identically seeded \
                  runs; any metric or field whose value comes from a wall clock breaks that \
                  promise. `telemetry::names` exports the machine-readable withhold registry \
                  (CANONICAL_WITHHELD_* lists) that `JsonlSink` enforces at run time; this rule \
                  is its static twin, verifying that every registered or call-site name shaped \
                  like a duration (`.seconds` suffix, `elapsed_*`, `duration_*`) is covered by \
                  a withhold prefix or suffix. Fix by extending the withhold lists in \
                  `telemetry::names`, not by renaming the metric to dodge the shape check.",
    },
    RuleInfo {
        name: "suppression-reason",
        severity: Severity::Error,
        summary: "a lithohd-lint suppression without a reason",
        explain: "`// lithohd-lint: allow(rule) — reason` trades a checked invariant for a \
                  documented judgement call; without the reason it is just an unchecked \
                  invariant. Reasonless suppressions always fail the gate and are never \
                  grandfathered by a baseline.",
    },
    RuleInfo {
        name: "unused-suppression",
        severity: Severity::Warning,
        summary: "a suppression that matched no finding",
        explain: "The code it excused was fixed or moved; delete the comment so the next reader \
                  does not assume the hazard is still there.",
    },
];

/// Looks up a rule's static description.
pub fn rule_info(name: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.name == name)
}

pub(crate) fn severity_of(rule: &str) -> Severity {
    rule_info(rule).map_or(Severity::Warning, |r| r.severity)
}

/// One reported violation (or suppressed would-be violation).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// Rule name from the catalog.
    pub rule: String,
    /// Severity at report time.
    pub severity: Severity,
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human message.
    pub message: String,
    /// The trimmed source line (also the baseline key).
    pub excerpt: String,
    /// The suppression reason when an inline allow matched this finding.
    pub suppression_reason: Option<String>,
}

/// Outcome of scanning a set of files.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Active findings (not suppressed), sorted by path/line/rule.
    pub findings: Vec<Finding>,
    /// Findings silenced by a reasoned inline suppression.
    pub suppressed: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// How strictly a file is scanned, derived from its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Library source: every rule applies outside `#[cfg(test)]` regions.
    Library,
    /// Tests, benches, examples, and `src/bin/` binaries: only the
    /// everywhere-rules (`determinism-rng`) apply.
    Relaxed,
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> FileClass {
    let relaxed = ["tests", "benches", "examples", "bin"];
    if rel_path
        .split('/')
        .any(|component| relaxed.contains(&component))
    {
        FileClass::Relaxed
    } else {
        FileClass::Library
    }
}

/// An inline `// lithohd-lint: allow(rule, …) — reason` comment.
#[derive(Debug, Clone)]
struct Suppression {
    rules: Vec<String>,
    reason: Option<String>,
    line: u32,
    used: std::cell::Cell<bool>,
}

const SUPPRESSION_MARKER: &str = "lithohd-lint:";

/// Doc comments never carry suppressions — they are rendered documentation,
/// and examples of the suppression syntax inside them must not take effect.
fn is_doc_comment(comment: &str) -> bool {
    comment.starts_with("///")
        || comment.starts_with("//!")
        || comment.starts_with("/**")
        || comment.starts_with("/*!")
}

fn parse_suppression(comment: &str, line: u32) -> Option<Suppression> {
    if is_doc_comment(comment) {
        return None;
    }
    let rest = comment.split(SUPPRESSION_MARKER).nth(1)?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect();
    let tail = rest[close + 1..]
        .trim_start_matches([' ', '\t', '—', '–', '-', ':'])
        .trim();
    let reason = if tail.is_empty() {
        None
    } else {
        Some(tail.to_string())
    };
    Some(Suppression {
        rules,
        reason,
        line,
        used: std::cell::Cell::new(false),
    })
}

/// Everything the per-file pass needs in one place.
pub(crate) struct FileContext<'a> {
    pub(crate) rel_path: &'a str,
    pub(crate) source: &'a str,
    pub(crate) tokens: &'a [Token],
    /// Indices into `tokens` of non-trivia tokens.
    pub(crate) sig: Vec<usize>,
    pub(crate) class: FileClass,
    /// The brace-matched item tree built over the token stream.
    pub(crate) tree: ItemTree,
    /// Byte ranges covered by `#[cfg(test)]` / `#[test]` items, derived
    /// from the tree.
    pub(crate) test_regions: Vec<(usize, usize)>,
    suppressions: Vec<Suppression>,
}

impl<'a> FileContext<'a> {
    fn new(rel_path: &'a str, source: &'a str, tokens: &'a [Token], class: FileClass) -> Self {
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let tree = ItemTree::build(source, tokens, &sig);
        let test_regions = tree.test_regions();
        let suppressions = tokens
            .iter()
            .filter(|t| matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .filter_map(|t| parse_suppression(t.text(source), t.line))
            .collect();
        FileContext {
            rel_path,
            source,
            tokens,
            sig,
            class,
            tree,
            test_regions,
            suppressions,
        }
    }

    fn in_test_region(&self, offset: usize) -> bool {
        self.test_regions
            .iter()
            .any(|&(start, end)| (start..end).contains(&offset))
    }

    /// The significant token at stream position `i`, if any.
    pub(crate) fn sig_token(&self, i: usize) -> Option<&Token> {
        self.sig.get(i).map(|&idx| &self.tokens[idx])
    }

    pub(crate) fn sig_text(&self, i: usize) -> &str {
        self.sig_token(i).map_or("", |t| t.text(self.source))
    }

    /// Whether significant tokens `i` and `i + 1` touch in the source (no
    /// trivia between them) — used to recognise two-character operators.
    fn sig_adjacent(&self, i: usize) -> bool {
        match (self.sig_token(i), self.sig_token(i + 1)) {
            (Some(a), Some(b)) => a.end == b.start,
            _ => false,
        }
    }

    pub(crate) fn excerpt_at(&self, line: u32) -> String {
        self.source
            .lines()
            .nth(line.saturating_sub(1) as usize)
            .unwrap_or("")
            .trim()
            .to_string()
    }

    pub(crate) fn finding(&self, rule: &str, token: &Token, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            severity: severity_of(rule),
            path: self.rel_path.to_string(),
            line: token.line,
            message,
            excerpt: self.excerpt_at(token.line),
            suppression_reason: None,
        }
    }
}

/// The telemetry name registry parsed from `telemetry/src/names.rs`:
/// constant identifier → string value, plus the `&[&str]` list constants
/// that make up the canonical-mode withhold registry.
#[derive(Debug, Clone, Default)]
pub struct NameRegistry {
    /// const ident → (string value, 1-based line in names.rs).
    pub constants: BTreeMap<String, (String, u32)>,
    /// `&[&str]` const ident → (string values, 1-based line in names.rs).
    pub lists: BTreeMap<String, (Vec<String>, u32)>,
    /// Workspace-relative path of the registry file.
    pub path: String,
}

/// List-constant names making up the canonical-mode withhold registry.
const WITHHELD_PREFIXES_CONST: &str = "CANONICAL_WITHHELD_METRIC_PREFIXES";
const WITHHELD_SUFFIXES_CONST: &str = "CANONICAL_WITHHELD_METRIC_SUFFIXES";

impl NameRegistry {
    /// Parses `pub const IDENT: &str = "value";` and
    /// `pub const IDENT: &[&str] = &["a", "b"];` items from source text.
    pub fn parse(rel_path: &str, source: &str) -> Self {
        let tokens = scanner::scan(source);
        let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_trivia()).collect();
        let text = |t: &Token| t.text(source);
        let mut constants = BTreeMap::new();
        let mut lists = BTreeMap::new();
        let mut i = 0;
        while i < sig.len() {
            if text(sig[i]) != "const" || i + 1 >= sig.len() || sig[i + 1].kind != TokenKind::Ident
            {
                i += 1;
                continue;
            }
            let ident = text(sig[i + 1]).to_string();
            let line = sig[i + 1].line;
            // const IDENT : & str = "…"
            let shape = |from: usize, expect: &[&str]| {
                expect
                    .iter()
                    .enumerate()
                    .all(|(k, want)| sig.get(from + k).is_some_and(|t| text(t) == *want))
            };
            if shape(i + 2, &[":", "&", "str", "="])
                && sig.get(i + 6).is_some_and(|t| t.kind == TokenKind::Str)
            {
                let value = text(sig[i + 6]).trim_matches('"').to_string();
                constants.insert(ident, (value, line));
                i += 7;
                continue;
            }
            // const IDENT : & [ & str ] = & [ "a" , "b" , ] ;
            if shape(i + 2, &[":", "&", "[", "&", "str", "]", "=", "&", "["]) {
                let mut values = Vec::new();
                let mut j = i + 11;
                while j < sig.len() && text(sig[j]) != "]" {
                    if sig[j].kind == TokenKind::Str {
                        values.push(text(sig[j]).trim_matches('"').to_string());
                    }
                    j += 1;
                }
                lists.insert(ident, (values, line));
                i = j + 1;
                continue;
            }
            i += 2;
        }
        NameRegistry {
            constants,
            lists,
            path: rel_path.to_string(),
        }
    }

    /// The constant name registered for a string value, if any.
    pub fn constant_for(&self, value: &str) -> Option<&str> {
        self.constants
            .iter()
            .find(|(_, (v, _))| v == value)
            .map(|(k, _)| k.as_str())
    }

    fn list(&self, ident: &str) -> &[String] {
        self.lists.get(ident).map_or(&[], |(values, _)| values)
    }

    /// Whether the parsed withhold registry covers `name`: it matches a
    /// `CANONICAL_WITHHELD_METRIC_PREFIXES` prefix or a
    /// `CANONICAL_WITHHELD_METRIC_SUFFIXES` suffix. The static mirror of
    /// `telemetry::names::is_withheld_canonical_metric`.
    pub fn is_withheld_metric(&self, name: &str) -> bool {
        self.list(WITHHELD_PREFIXES_CONST)
            .iter()
            .any(|prefix| name.starts_with(prefix))
            || self
                .list(WITHHELD_SUFFIXES_CONST)
                .iter()
                .any(|suffix| name.ends_with(suffix))
    }
}

/// Whether a telemetry name is shaped like a wall-clock measurement: it
/// ends in `.seconds`, or its final dotted segment starts with `elapsed`
/// or `duration`. Such names must be withheld in canonical mode.
pub fn wall_clock_shaped(name: &str) -> bool {
    let last = name.rsplit('.').next().unwrap_or(name);
    name.ends_with(".seconds") || last.starts_with("elapsed") || last.starts_with("duration")
}

/// One file's input to [`check_files`].
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// File contents.
    pub source: String,
    /// Scanning strictness.
    pub class: FileClass,
}

/// Paths (workspace-relative) whose crate roots must carry
/// `#![forbid(unsafe_code)]`: `src/lib.rs` at the workspace root or under
/// `crates/<name>/`.
fn is_crate_root(rel_path: &str) -> bool {
    rel_path == "src/lib.rs"
        || (rel_path.starts_with("crates/")
            && rel_path.ends_with("/src/lib.rs")
            && rel_path.matches('/').count() == 3)
}

/// Runs every rule over the given files, resolving suppressions, and —
/// when a [`NameRegistry`] is supplied — checking telemetry-name integrity
/// across the whole set.
pub fn check_files(files: &[SourceFile], registry: Option<&NameRegistry>) -> CheckReport {
    let mut raw: Vec<Finding> = Vec::new();
    let mut contexts_meta: Vec<(Vec<Suppression>, String)> = Vec::new();
    let mut used_constants: BTreeSet<String> = BTreeSet::new();
    let mut lock_edges: Vec<conc::LockEdge> = Vec::new();

    for file in files {
        let tokens = scanner::scan(&file.source);
        let ctx = FileContext::new(&file.rel_path, &file.source, &tokens, file.class);
        scan_file(&ctx, registry, &mut raw, &mut used_constants);
        // Concurrency rules run on library code only; their lock edges are
        // resolved into per-crate cycles once every file is scanned.
        if ctx.class == FileClass::Library {
            let mut conc_scan = conc::analyze(&ctx);
            raw.append(&mut conc_scan.findings);
            lock_edges.append(&mut conc_scan.edges);
        }
        // Resolve suppressions against this file's raw findings now, while
        // the context is alive.
        contexts_meta.push((ctx.suppressions, file.rel_path.clone()));
    }

    raw.extend(conc::lock_cycle_findings(&lock_edges));

    // Canonical-purity over the registry itself: every registered name
    // shaped like a wall-clock measurement must be covered by the withhold
    // lists, exactly as the canonical JsonlSink would withhold it.
    if let Some(registry) = registry {
        for (constant, (value, line)) in &registry.constants {
            if wall_clock_shaped(value) && !registry.is_withheld_metric(value) {
                raw.push(Finding {
                    rule: "canonical-purity".to_string(),
                    severity: severity_of("canonical-purity"),
                    path: registry.path.clone(),
                    line: *line,
                    message: format!(
                        "registered name `{constant}` (\"{value}\") is wall-clock-shaped but \
                         no CANONICAL_WITHHELD_METRIC_* entry withholds it in canonical mode"
                    ),
                    excerpt: format!("pub const {constant}: &str = \"{value}\";"),
                    suppression_reason: None,
                });
            }
        }
    }

    // Telemetry-unused-name: registry constants nothing referenced.
    if let Some(registry) = registry {
        for (constant, (value, line)) in &registry.constants {
            if !used_constants.contains(constant) {
                raw.push(Finding {
                    rule: "telemetry-unused-name".to_string(),
                    severity: severity_of("telemetry-unused-name"),
                    path: registry.path.clone(),
                    line: *line,
                    message: format!(
                        "registered name `{constant}` (\"{value}\") has no call site referencing it"
                    ),
                    excerpt: format!("pub const {constant}: &str = \"{value}\";"),
                    suppression_reason: None,
                });
            }
        }
    }

    // Apply suppressions: an allow on line L silences matching findings on
    // line L (trailing comment) or L + 1 (comment above the code).
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for mut finding in raw {
        let matched = contexts_meta
            .iter()
            .filter(|(_, path)| *path == finding.path)
            .flat_map(|(sups, _)| sups.iter())
            .find(|s| {
                (s.line == finding.line || s.line + 1 == finding.line)
                    && s.rules.iter().any(|r| r == &finding.rule)
            });
        match matched {
            Some(suppression) => {
                suppression.used.set(true);
                match &suppression.reason {
                    Some(reason) => {
                        finding.suppression_reason = Some(reason.clone());
                        suppressed.push(finding);
                    }
                    None => {
                        // Reasonless: the suppression itself is the finding;
                        // the original violation stays active too.
                        findings.push(finding);
                    }
                }
            }
            None => findings.push(finding),
        }
    }

    // Suppression meta-findings.
    for (sups, path) in &contexts_meta {
        for suppression in sups {
            if suppression.reason.is_none() {
                findings.push(Finding {
                    rule: "suppression-reason".to_string(),
                    severity: severity_of("suppression-reason"),
                    path: path.clone(),
                    line: suppression.line,
                    message: format!(
                        "suppression of {} lacks a reason (write `// lithohd-lint: \
                         allow({}) — why`)",
                        suppression.rules.join(", "),
                        suppression.rules.join(", "),
                    ),
                    excerpt: String::new(),
                    suppression_reason: None,
                });
            } else if !suppression.used.get() {
                findings.push(Finding {
                    rule: "unused-suppression".to_string(),
                    severity: severity_of("unused-suppression"),
                    path: path.clone(),
                    line: suppression.line,
                    message: format!(
                        "suppression of {} matched no finding; delete it",
                        suppression.rules.join(", ")
                    ),
                    excerpt: String::new(),
                    suppression_reason: None,
                });
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
    suppressed.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    CheckReport {
        findings,
        suppressed,
        files_scanned: files.len(),
    }
}

/// Runs the per-file rules, pushing raw findings and recording which
/// registry constants the file references.
fn scan_file(
    ctx: &FileContext<'_>,
    registry: Option<&NameRegistry>,
    out: &mut Vec<Finding>,
    used_constants: &mut BTreeSet<String>,
) {
    let strict = ctx.class == FileClass::Library;
    let in_telemetry = ctx.rel_path.starts_with("crates/telemetry/");
    let is_registry_file = registry.is_some_and(|r| r.path == ctx.rel_path);

    // forbid-unsafe: crate roots must carry the attribute.
    if is_crate_root(ctx.rel_path) {
        let has_forbid = ctx.sig.iter().enumerate().any(|(i, _)| {
            ctx.sig_text(i) == "#"
                && ctx.sig_text(i + 1) == "!"
                && ctx.sig_text(i + 2) == "["
                && ctx.sig_text(i + 3) == "forbid"
                && ctx.sig_text(i + 4) == "("
                && ctx.sig_text(i + 5) == "unsafe_code"
        });
        if !has_forbid {
            out.push(Finding {
                rule: "forbid-unsafe".to_string(),
                severity: severity_of("forbid-unsafe"),
                path: ctx.rel_path.to_string(),
                line: 1,
                message: "crate root lacks #![forbid(unsafe_code)]".to_string(),
                excerpt: String::new(),
                suppression_reason: None,
            });
        }
    }

    for i in 0..ctx.sig.len() {
        let token = &ctx.tokens[ctx.sig[i]];
        let text = token.text(ctx.source);
        let in_test = ctx.in_test_region(token.start);

        if registry.is_some() && token.kind == TokenKind::Ident {
            if let Some(registry) = registry {
                if !is_registry_file && registry.constants.contains_key(text) {
                    used_constants.insert(text.to_string());
                }
            }
        }

        // determinism-rng: banned everywhere, tests included.
        if token.kind == TokenKind::Ident {
            match text {
                "thread_rng" | "from_entropy" => {
                    out.push(ctx.finding(
                        "determinism-rng",
                        token,
                        format!("`{text}` draws OS entropy; thread a seeded RNG instead"),
                    ));
                }
                "random"
                    if ctx.sig_text(i.wrapping_sub(1)) == ":"
                        && ctx.sig_text(i.wrapping_sub(2)) == ":"
                        && ctx.sig_text(i.wrapping_sub(3)) == "rand" =>
                {
                    out.push(ctx.finding(
                        "determinism-rng",
                        token,
                        "`rand::random` draws OS entropy; thread a seeded RNG instead".to_string(),
                    ));
                }
                _ => {}
            }
        }

        // The remaining rules only run on strict (library) non-test code.
        if !strict || in_test {
            continue;
        }

        // determinism-clock.
        if token.kind == TokenKind::Ident
            && text == "now"
            && ctx.sig_text(i.wrapping_sub(1)) == ":"
            && ctx.sig_text(i.wrapping_sub(2)) == ":"
            && matches!(ctx.sig_text(i.wrapping_sub(3)), "Instant" | "SystemTime")
            && !in_telemetry
        {
            let source_type = ctx.sig_text(i - 3).to_string();
            out.push(ctx.finding(
                "determinism-clock",
                token,
                format!(
                    "`{source_type}::now()` outside telemetry; inject a \
                     `hotspot_telemetry::Clock` or move timing behind telemetry"
                ),
            ));
        }

        // hash-order.
        if token.kind == TokenKind::Ident && matches!(text, "HashMap" | "HashSet") {
            let ordered = if text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(ctx.finding(
                "hash-order",
                token,
                format!("`{text}` iteration order is nondeterministic; use `{ordered}` or sort"),
            ));
        }

        // panic-safety.
        if token.kind == TokenKind::Ident {
            let followed_by = |s: &str| ctx.sig_text(i + 1) == s;
            let preceded_by_dot = ctx.sig_text(i.wrapping_sub(1)) == "." && i > 0;
            match text {
                "unwrap" | "expect" if preceded_by_dot && followed_by("(") => {
                    out.push(ctx.finding(
                        "panic-safety",
                        token,
                        format!("`.{text}()` in library code; propagate a typed error instead"),
                    ));
                }
                "panic" | "unreachable" | "todo" | "unimplemented"
                    if followed_by("!") && ctx.sig_adjacent(i) =>
                {
                    out.push(ctx.finding(
                        "panic-safety",
                        token,
                        format!("`{text}!` in library code; return an error instead"),
                    ));
                }
                _ => {}
            }
        }

        // float-eq: `==` or `!=` with a float literal on either side.
        if (text == "=" && ctx.sig_text(i + 1) == "=" && ctx.sig_adjacent(i))
            || (text == "!" && ctx.sig_text(i + 1) == "=" && ctx.sig_adjacent(i))
        {
            // Skip the middle of `===`-like runs and `<=`/`>=`/`..=`.
            let prev = ctx.sig_text(i.wrapping_sub(1));
            if i > 0 && matches!(prev, "=" | "<" | ">" | "!" | ".") {
                continue;
            }
            let before_is_float = i > 0
                && ctx.sig_token(i - 1).is_some_and(|t| {
                    t.kind == TokenKind::Number && scanner::number_is_float(t.text(ctx.source))
                });
            let after_is_float = ctx.sig_token(i + 2).is_some_and(|t| {
                t.kind == TokenKind::Number && scanner::number_is_float(t.text(ctx.source))
            });
            if before_is_float || after_is_float {
                let op = if text == "=" { "==" } else { "!=" };
                out.push(ctx.finding(
                    "float-eq",
                    token,
                    format!("`{op}` against a float literal; compare with a tolerance"),
                ));
            }
        }

        // telemetry-names: string literal fed straight to a metric/span API.
        if token.kind == TokenKind::Ident
            && matches!(text, "counter" | "gauge" | "histogram" | "span")
            && ctx.sig_text(i + 1) == "("
            && !is_registry_file
        {
            if let Some(arg) = ctx.sig_token(i + 2) {
                if arg.kind == TokenKind::Str {
                    let value = arg.text(ctx.source).trim_matches('"').to_string();
                    let message = match registry.and_then(|r| r.constant_for(&value)) {
                        Some(constant) => format!(
                            "literal telemetry name \"{value}\"; use telemetry::names::{constant}"
                        ),
                        None => format!(
                            "literal telemetry name \"{value}\" is not registered in \
                             telemetry::names; add a constant and use it"
                        ),
                    };
                    out.push(ctx.finding("telemetry-names", token, message));
                }
            }
        }

        // canonical-purity at call sites: a literal metric name shaped like
        // a wall-clock measurement must be provably withheld by the parsed
        // withhold registry (span names are not metric names; the derived
        // `span.<name>.seconds` histogram is withheld by suffix).
        if token.kind == TokenKind::Ident
            && matches!(text, "counter" | "gauge" | "histogram")
            && ctx.sig_text(i + 1) == "("
            && !is_registry_file
        {
            if let Some(arg) = ctx.sig_token(i + 2) {
                if arg.kind == TokenKind::Str {
                    let value = arg.text(ctx.source).trim_matches('"').to_string();
                    let withheld = registry.map(|r| r.is_withheld_metric(&value));
                    if wall_clock_shaped(&value) && withheld != Some(true) {
                        let why = match withheld {
                            Some(false) => {
                                "no CANONICAL_WITHHELD_METRIC_* entry withholds it in \
                                 canonical mode"
                            }
                            _ => {
                                "no withhold registry is in scope to prove it withheld in \
                                 canonical mode"
                            }
                        };
                        out.push(ctx.finding(
                            "canonical-purity",
                            token,
                            format!("wall-clock-shaped metric name \"{value}\": {why}"),
                        ));
                    }
                }
            }
        }
    }
}

/// Reads and classifies files on disk, then runs [`check_files`].
///
/// `root` anchors relative-path computation; `paths` are the files to scan.
/// When `strict_override` is set, every file is scanned as library code
/// regardless of its path (used for explicitly passed fixture files).
pub fn check_on_disk(
    root: &Path,
    paths: &[std::path::PathBuf],
    registry: Option<&NameRegistry>,
    strict_override: bool,
) -> std::io::Result<CheckReport> {
    let mut files = Vec::new();
    for path in paths {
        let source = std::fs::read_to_string(path)?;
        let rel_path = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let class = if strict_override {
            FileClass::Library
        } else {
            classify(&rel_path)
        };
        files.push(SourceFile {
            rel_path,
            source,
            class,
        });
    }
    Ok(check_files(&files, registry))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file(rel_path: &str, source: &str) -> SourceFile {
        SourceFile {
            rel_path: rel_path.to_string(),
            source: source.to_string(),
            class: FileClass::Library,
        }
    }

    fn rules_of(report: &CheckReport) -> Vec<&str> {
        report.findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn catalog_names_are_unique_and_explainable() {
        let mut names: Vec<&str> = RULES.iter().map(|r| r.name).collect();
        names.sort_unstable();
        let len_before = names.len();
        names.dedup();
        assert_eq!(names.len(), len_before, "duplicate rule name in catalog");
        for rule in RULES {
            assert!(!rule.explain.is_empty());
            assert!(rule_info(rule.name).is_some());
        }
    }

    #[test]
    fn flags_thread_rng_even_in_tests_dir() {
        let file = SourceFile {
            rel_path: "crates/x/tests/t.rs".to_string(),
            source: "fn f() { let mut r = thread_rng(); }".to_string(),
            class: classify("crates/x/tests/t.rs"),
        };
        let report = check_files(&[file], None);
        assert_eq!(rules_of(&report), vec!["determinism-rng"]);
    }

    #[test]
    fn relaxed_paths_skip_panic_safety() {
        let file = SourceFile {
            rel_path: "crates/x/examples/e.rs".to_string(),
            source: "fn main() { foo().unwrap(); }".to_string(),
            class: classify("crates/x/examples/e.rs"),
        };
        assert!(check_files(&[file], None).findings.is_empty());
    }

    #[test]
    fn flags_unwrap_expect_and_panic_macros_in_library_code() {
        let report = check_files(
            &[lib_file(
                "crates/x/src/a.rs",
                "fn f() { a.unwrap(); b.expect(\"msg\"); panic!(\"boom\"); todo!(); }",
            )],
            None,
        );
        assert_eq!(
            rules_of(&report),
            vec!["panic-safety"; 4],
            "{:?}",
            report.findings
        );
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let report = check_files(
            &[lib_file(
                "crates/x/src/a.rs",
                "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); }",
            )],
            None,
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn cfg_test_regions_are_exempt_from_panic_safety() {
        let source = "fn lib() -> u8 { 0 }\n\
                      #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { lib().unwrap(); }\n}\n";
        let report = check_files(&[lib_file("crates/x/src/a.rs", source)], None);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn code_after_a_test_region_is_strict_again() {
        let source = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n\
                      fn lib() { y.unwrap(); }\n";
        let report = check_files(&[lib_file("crates/x/src/a.rs", source)], None);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].line, 3);
    }

    #[test]
    fn flags_clock_reads_but_not_in_telemetry() {
        let lib = lib_file(
            "crates/x/src/a.rs",
            "fn f() { let t = Instant::now(); let s = SystemTime::now(); }",
        );
        let telemetry = lib_file(
            "crates/telemetry/src/span.rs",
            "fn f() { let t = Instant::now(); }",
        );
        let report = check_files(&[lib, telemetry], None);
        assert_eq!(rules_of(&report), vec!["determinism-clock"; 2]);
        assert!(report
            .findings
            .iter()
            .all(|f| f.path.starts_with("crates/x")));
    }

    #[test]
    fn flags_hash_collections_and_float_eq() {
        let report = check_files(
            &[lib_file(
                "crates/x/src/a.rs",
                "use std::collections::HashMap;\nfn f(x: f64) -> bool { x == 1.0 }",
            )],
            None,
        );
        assert_eq!(rules_of(&report), vec!["hash-order", "float-eq"]);
    }

    #[test]
    fn float_eq_ignores_integer_comparisons_and_compound_ops() {
        let report = check_files(
            &[lib_file(
                "crates/x/src/a.rs",
                "fn f(x: usize) -> bool { let y = x <= 1; let r = 0..=10; x == 1 }",
            )],
            None,
        );
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn comments_and_strings_never_fire() {
        let source = r##"
            // thread_rng() and x.unwrap() in a comment
            /* Instant::now() in /* nested */ comment */
            fn f() -> &'static str { "thread_rng() unwrap() 1.0 == 2.0" }
            fn g() -> &'static str { r#"panic!() HashMap"# }
        "##;
        let report = check_files(&[lib_file("crates/x/src/a.rs", source)], None);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
    }

    #[test]
    fn reasoned_suppressions_silence_and_are_reported() {
        let source = "fn f() { // lithohd-lint: allow(panic-safety) — demo reason\n    \
                      x.unwrap();\n}";
        let report = check_files(&[lib_file("crates/x/src/a.rs", source)], None);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(
            report.suppressed[0].suppression_reason.as_deref(),
            Some("demo reason")
        );
    }

    #[test]
    fn same_line_suppression_works() {
        let source = "fn f() { x.unwrap(); } // lithohd-lint: allow(panic-safety) — trailing";
        let report = check_files(&[lib_file("crates/x/src/a.rs", source)], None);
        assert!(report.findings.is_empty(), "{:?}", report.findings);
        assert_eq!(report.suppressed.len(), 1);
    }

    #[test]
    fn reasonless_suppression_is_itself_a_violation() {
        let source = "fn f() { // lithohd-lint: allow(panic-safety)\n    x.unwrap();\n}";
        let report = check_files(&[lib_file("crates/x/src/a.rs", source)], None);
        let rules = rules_of(&report);
        assert!(rules.contains(&"suppression-reason"), "{rules:?}");
        assert!(rules.contains(&"panic-safety"), "{rules:?}");
    }

    #[test]
    fn unused_suppression_is_flagged() {
        let source = "// lithohd-lint: allow(panic-safety) — nothing here\nfn f() {}\n";
        let report = check_files(&[lib_file("crates/x/src/a.rs", source)], None);
        assert_eq!(rules_of(&report), vec!["unused-suppression"]);
    }

    #[test]
    fn telemetry_literal_names_are_flagged_against_the_registry() {
        let registry = NameRegistry::parse(
            "crates/telemetry/src/names.rs",
            "pub const ORACLE_CALLS: &str = \"litho.oracle.calls\";\n\
             pub const UNUSED: &str = \"never.used\";\n",
        );
        let source = "fn f() {\n\
                      telemetry::counter(\"litho.oracle.calls\").incr();\n\
                      telemetry::counter(\"not.registered\").incr();\n\
                      telemetry::counter(telemetry::names::ORACLE_CALLS).incr();\n}";
        let report = check_files(&[lib_file("crates/x/src/a.rs", source)], Some(&registry));
        let rules = rules_of(&report);
        // Sorted by path: the registry file sorts before crates/x.
        assert_eq!(
            rules,
            vec![
                "telemetry-unused-name",
                "telemetry-names",
                "telemetry-names"
            ],
            "{:?}",
            report.findings
        );
        assert!(report.findings[0].message.contains("UNUSED"));
        assert!(report.findings[1].message.contains("ORACLE_CALLS"));
        assert!(report.findings[2].message.contains("not registered"));
    }

    #[test]
    fn crate_roots_require_forbid_unsafe() {
        let missing = lib_file("crates/x/src/lib.rs", "//! docs\npub fn f() {}\n");
        let present = lib_file(
            "crates/y/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn f() {}\n",
        );
        let not_a_root = lib_file("crates/x/src/util.rs", "pub fn f() {}\n");
        let report = check_files(&[missing, present, not_a_root], None);
        assert_eq!(rules_of(&report), vec!["forbid-unsafe"]);
        assert_eq!(report.findings[0].path, "crates/x/src/lib.rs");
    }

    #[test]
    fn registry_parses_consts_and_values() {
        let registry = NameRegistry::parse(
            "crates/telemetry/src/names.rs",
            "/// doc\npub const A: &str = \"a.b\";\nconst PRIVATE: &str = \"c.d\";\n\
             pub fn span_seconds(s: &str) -> String { format!(\"span.{s}.seconds\") }\n",
        );
        assert_eq!(registry.constants.len(), 2);
        assert_eq!(registry.constant_for("a.b"), Some("A"));
        assert_eq!(registry.constant_for("missing"), None);
    }
}
