//! `ocasta-lint` — run the project-invariant lints over the workspace.
//!
//! ```text
//! ocasta-lint --workspace [--root <dir>] [--json]
//! ```
//!
//! Without `--root`, the root is the nearest directory holding a
//! `lint.toml`, the current directory or one of its ancestors.
//!
//! Exit codes: 0 clean (warnings allowed), 1 at least one Error finding,
//! 2 usage or I/O problem.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::path::PathBuf;
use std::process::ExitCode;

use ocasta_lint::lint_workspace;

const USAGE: &str = "usage: ocasta-lint --workspace [--root <dir>] [--json]

Checks the Ocasta project invariants (see lint.toml):
  wallclock-in-deterministic-path  no Instant/SystemTime::now outside the allow list
  panic-in-worker-path             no unwrap/expect/panic!/indexing on worker paths
  lock-discipline                  no nested lock acquisition or I/O under a guard
  crate-hygiene                    crate attributes + suppression hygiene
";

fn main() -> ExitCode {
    let mut workspace = false;
    let mut json = false;
    let mut root = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if !workspace {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    match root
        .map_or_else(find_lint_root, Ok)
        .and_then(|root| lint_workspace(&root))
    {
        Ok(report) => {
            if json {
                print!("{}", report.render_json());
            } else {
                print!("{}", report.render_table());
            }
            if report.has_errors() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(message) => {
            eprintln!("ocasta-lint: {message}");
            ExitCode::from(2)
        }
    }
}

/// The nearest ancestor of the current directory (itself included) that
/// holds a `lint.toml`.
fn find_lint_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read current dir: {e}"))?;
    start
        .ancestors()
        .find(|dir| dir.join("lint.toml").is_file())
        .map(PathBuf::from)
        .ok_or_else(|| {
            format!(
                "no lint.toml found in {} or any parent — run from the workspace or pass \
                 --root <dir>",
                start.display()
            )
        })
}
