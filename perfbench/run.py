#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <paper-repair|fleet-ingest|live-repair> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default `.bench_build`, relative to
the current directory) and its output to stderr, so the last line of
stdout is the benchmark's result. Exits non-zero, printing no result, when
the build or the run fails.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(os.path.abspath(env["CARGO_TARGET_DIR"]), "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
