//! Project-invariant static analysis for the Ocasta workspace
//! (`DESIGN.md §5.14`).
//!
//! `rustc` and clippy check Rust's invariants; this crate checks
//! *Ocasta's*. The reproduction's credibility rests on properties no
//! general-purpose linter knows about:
//!
//! * **Determinism** — engine, store, and service code must not read the
//!   wall clock; the VOPR's replayable-seed guarantee dies the moment a
//!   timestamp sneaks into a decision. The
//!   `wallclock-in-deterministic-path` rule denies `Instant::now()` /
//!   `SystemTime::now()` everywhere except the module tree the policy
//!   allows (the obs timing seam).
//! * **Worker paths don't panic** — a panic inside an ingest worker, the
//!   WAL appender, or the retention sweeper poisons locks and cascades;
//!   those call graphs must return structured errors. The
//!   `panic-in-worker-path` rule bans `unwrap`/`expect`/`panic!`-family
//!   macros and direct indexing on the registered files.
//! * **Lock discipline** — the stripe locks and the pin registry have a
//!   documented order and must never be held across I/O. The
//!   `lock-discipline` rule tracks guards through each registered file
//!   and flags nested acquisition and I/O under a live guard.
//! * **Crate hygiene** — every workspace crate carries
//!   `#![forbid(unsafe_code)]` and `#![deny(missing_docs)]`, and every
//!   suppression carries a reason. The `crate-hygiene` rule enforces
//!   both, and flags suppressions that no longer suppress anything.
//!
//! The implementation is dependency-free in the workspace's offline
//! style: a hand-rolled Rust lexer feeds token-sequence matchers, so
//! nothing in a string literal or comment can ever fire a rule. Scope
//! comes from the checked-in `lint.toml`; findings use the doctor's
//! severity model and the run exits non-zero on any Error.
//!
//! Run it as `cargo run -p ocasta-lint -- --workspace`, the one front
//! end; CI runs it with `--json` and fails on Errors.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod lexer;
pub mod policy;
pub mod report;
pub mod rules;
pub mod workspace;

pub use policy::{LockFamily, Policy, PolicyError};
pub use report::{Finding, LintReport, Severity};
pub use rules::{check_crate_hygiene, lint_source, RULES};
pub use workspace::{discover_members, lint_members, lint_workspace, Member};
