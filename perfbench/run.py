#!/usr/bin/env python3
"""Build the ImaGen benchmark and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload compile-cold --seed 1 --seconds 20 --trace 0

Builds the `imagen` CLI (the workspace's `imagen-cli` package) and the
harness package in `perfbench/`, both in release mode, into
`$CARGO_TARGET_DIR` (default `.bench_build` at the repository root), then
replaces itself with the harness, passing the arguments on together with
the path of the `imagen` binary that `serve-zipf` drives. The harness
prints its result as the last line of stdout; build output goes to stderr.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, *extra in (
        (os.path.join(root, "Cargo.toml"), "-p", "imagen-cli"),
        (os.path.join(here, "Cargo.toml"),),
    ):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest, *extra]
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    harness = os.path.join(release, "perfbench")
    sys.stdout.flush()
    os.execv(harness, [harness, *sys.argv[1:], "--imagen", os.path.join(release, "imagen")])


if __name__ == "__main__":
    sys.exit(main())
