//! # hotspot-lint — workspace-wide static analysis for lithohd
//!
//! A self-contained static-analysis pass over the workspace's Rust sources,
//! enforcing the invariants the paper reproduction depends on but the
//! compiler cannot see:
//!
//! * **Determinism** — no ambient randomness ([`rules`]: `determinism-rng`),
//!   no wall-clock reads outside telemetry, home of the injectable
//!   `hotspot_telemetry::Clock` (`determinism-clock`), no order-randomized hash collections in library
//!   code (`hash-order`). Bit-identical runs under a fixed seed are what
//!   make Eq. 1 / Eq. 2 citable.
//! * **Panic-safety** — `unwrap`/`expect`/`panic!` banned in library
//!   non-test code (`panic-safety`); the fault-tolerance layer's guarantees
//!   end at the first stray panic.
//! * **Float hygiene** — `==`/`!=` against float literals (`float-eq`).
//! * **Telemetry-name integrity** — metric/span names at call sites must be
//!   `telemetry::names` constants (`telemetry-names`), and registered names
//!   must have call sites (`telemetry-unused-name`).
//! * **Concurrency discipline** (over the syntax [`tree`]) —
//!   cyclic per-crate `Mutex` acquisition orders (`lock-order`), spawned
//!   threads whose handles are dropped unjoined (`detached-spawn`), and
//!   cross-worker merges without a deterministic sort (`unordered-merge`).
//! * **Canonical purity** — wall-clock-shaped metric names (`.seconds`,
//!   `elapsed_*`, `duration_*`) must appear in the withhold registry that
//!   `JsonlSink` consults in `--canonical-journal` mode
//!   (`canonical-purity`); the rule reads the same
//!   `telemetry::names` constants the runtime does, so the static and
//!   dynamic views cannot drift apart.
//! * **`#![forbid(unsafe_code)]`** present at every crate root
//!   (`forbid-unsafe`).
//!
//! The workspace has no crates.io access, so this is built the same way as
//! `vendor/`: a small lossless token [`scanner`] (comments, strings, raw
//! strings — no false positives from text inside literals), a brace-matched
//! [`tree`] of items ([`ItemTree`]: modules, fns, impls, traits, with
//! `#[cfg(test)]` inheritance) for the rules that need syntax rather than
//! tokens, and a rule engine with path scoping (library crates strict;
//! `tests/`, `benches/`, `examples/`, `src/bin/` relaxed),
//! `#[cfg(test)]`-region detection, and inline suppressions that *require*
//! a reason:
//!
//! ```text
//! // lithohd-lint: allow(determinism-clock) — timing feeds telemetry only
//! ```
//!
//! The `lithohd-lint` binary exposes `check` (human + JSON output, exit 2
//! on findings, exit 1 on usage/I/O errors), `rules`, and
//! `explain <rule>`. There is no baseline *writer* any more: the committed
//! `lint-baseline.json` is empty, every finding is a hard failure, and the
//! [`baseline`] module only survives to read (and verify emptiness of) the
//! committed file.
//!
//! ```
//! use hotspot_lint::rules::{check_files, FileClass, SourceFile};
//!
//! let file = SourceFile {
//!     rel_path: "crates/demo/src/lib.rs".to_string(),
//!     source: "fn f(x: Option<u8>) -> u8 { x.unwrap() }".to_string(),
//!     class: FileClass::Library,
//! };
//! let report = check_files(&[file], None);
//! assert_eq!(report.findings.len(), 2); // panic-safety + missing forbid(unsafe_code)
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod baseline;
pub(crate) mod conc;
pub mod rules;
pub mod scanner;
pub mod tree;
pub mod workspace;

pub use baseline::{Baseline, BaselineEntry};
pub use rules::{
    check_files, check_on_disk, classify, rule_info, wall_clock_shaped, CheckReport, FileClass,
    Finding, NameRegistry, RuleInfo, Severity, RULES,
};
pub use tree::{Item, ItemKind, ItemTree};
