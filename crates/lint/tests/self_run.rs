//! The self-run gate: the checked-in tree must satisfy its own lints.
//!
//! This is the tier-1 enforcement point — `cargo test` fails the moment
//! a clock read, a panicking construct, a lock-discipline violation, or
//! a hygiene regression lands on a registered path, without waiting for
//! the CI lint job.

use std::path::Path;

use ocasta_lint::lint_workspace;

#[test]
fn the_workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = lint_workspace(&root).expect("workspace discovery and policy parse");
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — discovery broke",
        report.files_scanned
    );
    assert!(
        report.crates_checked >= 11,
        "expected every non-vendor crate root, saw {}",
        report.crates_checked
    );
    assert_eq!(
        report.errors(),
        0,
        "the tree must lint clean:\n{}",
        report.render_table()
    );
}

/// Without `--root`, the binary walks up from the current directory to
/// the nearest `lint.toml`, so it lints the whole workspace from inside
/// any crate.
#[test]
fn the_binary_finds_the_workspace_from_a_subdirectory() {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_ocasta-lint"))
        .arg("--workspace")
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("src"))
        .output()
        .expect("run ocasta-lint");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    assert!(stdout.contains(" 0 error(s)"), "{stdout}");
}
