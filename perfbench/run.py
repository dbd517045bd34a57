#!/usr/bin/env python3
"""Builds the release `magik` binary and the `perfbench` binary, then runs one
benchmark run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. Both builds go to `$CARGO_TARGET_DIR`
(default `.bench_build`). Stdout ends with the JSON result; build output
goes to stderr. The exit code is `perfbench`'s, or the failing build's.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "magik-cli"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
    ]
    for cmd in builds:
        code = subprocess.call(cmd, cwd=root, env=env, stdout=sys.stderr)
        if code != 0:
            print(f"perfbench: `{' '.join(cmd)}` failed with exit code {code}", file=sys.stderr)
            return code or 1
    bench = os.path.join(target, "release", "perfbench")
    magik = os.path.join(target, "release", "magik")
    work = os.path.join(root, ".bench_work")
    return subprocess.call([bench, "--magik", magik, "--work", work] + sys.argv[1:], cwd=root)


if __name__ == "__main__":
    sys.exit(main())
