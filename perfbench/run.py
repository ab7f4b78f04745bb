#!/usr/bin/env python3
"""Build the server and the benchmark binary, then run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oltp-keyed --seed 1 --seconds 20 --trace 0

Both binaries are built in release mode into CARGO_TARGET_DIR (default
`.bench_build`). Build output goes to stderr; stdout carries only the
benchmark's report line and, last, its result line. Every inherited PDSM_*
variable is removed before the benchmark starts, so the caller's shell
cannot change a setting the workload does not fix.
"""

import os
import subprocess
import sys


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "sql"))):
        print("perfbench: run from the root of a source checkout "
              "(no Cargo.toml or crates/sql here)", file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if not k.startswith("PDSM_")}
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "-q",
         "-p", "pdsm-sql", "--bin", "pdsm-server"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        status = subprocess.run(cmd, env=env, stdout=sys.stderr).returncode
        if status != 0:
            print(f"perfbench: {' '.join(cmd)} failed", file=sys.stderr)
            return status
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    bench = [os.path.join(release, "perfbench"),
              "--server", os.path.join(release, "pdsm-server")]
    return subprocess.run(bench + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
