#!/usr/bin/env python3
"""Build the `sunmap` binary and the benchmark in release mode, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. Both builds go to `$CARGO_TARGET_DIR`
(`.bench_build` when unset); their output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit code
is the benchmark's, or the failing build's.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo = ["cargo", "build", "--release", "--offline", "--locked", "--quiet"]
    builds = [
        # The daemon `serve-mixed` drives is the real `sunmap serve`.
        cargo + ["--manifest-path", str(ROOT / "Cargo.toml"), "-p", "sunmap-cli"],
        cargo + ["--manifest-path", str(HERE / "Cargo.toml")],
    ]
    for build in builds:
        done = subprocess.run(build, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"build failed: {' '.join(build)}", file=sys.stderr)
            return done.returncode or 1
    bench = target / "release" / "sunmap-perfbench"
    sunmap = target / "release" / "sunmap"
    return subprocess.run([str(bench), *sys.argv[1:], "--sunmap", str(sunmap)], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
