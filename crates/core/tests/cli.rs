//! The `ocasta` binary's exit-code contract: 2 for a usage error, with
//! `error: …` and the usage text on stderr; 1 for a runtime error,
//! without the usage text; 0 otherwise, with the output on stdout.

use std::process::{Command, Output};

fn ocasta(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ocasta"))
        .args(args)
        .output()
        .expect("run the ocasta binary")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn no_arguments_is_a_usage_error() {
    let output = ocasta(&[]);
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn a_rejected_flag_combination_is_a_usage_error() {
    let output = ocasta(&[
        "stream",
        "--machines",
        "2",
        "--days",
        "3",
        "--retain-days",
        "1",
        "--verify",
    ]);
    assert_eq!(output.status.code(), Some(2), "{}", stderr(&output));
}

#[test]
fn a_missing_file_is_a_runtime_error_without_usage() {
    let missing = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-dir/trace.txt");
    let output = ocasta(&["stats", missing.to_str().expect("UTF-8 path")]);
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: open"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

#[test]
fn vopr_list_prints_one_scenario_per_line() {
    let output = ocasta(&["vopr", "--list"]);
    assert_eq!(output.status.code(), Some(0), "{}", stderr(&output));
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 stdout");
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names, ocasta::vopr_scenario_names());
}

/// A write that fails only when the output is flushed at the end is a
/// runtime error, not a success with a truncated file.
#[test]
fn a_failed_final_flush_is_a_runtime_error() {
    if !std::path::Path::new("/dev/full").exists() {
        return;
    }
    let output = ocasta(&[
        "generate",
        "--app",
        "gedit",
        "--days",
        "1",
        "-o",
        "/dev/full",
    ]);
    let stderr = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: write /dev/full"), "{stderr}");
}
