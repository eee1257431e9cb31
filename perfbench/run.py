#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload qbone-paper --seed 2001 --seconds 30 --trace 0

The Go program in this directory is compiled from source into
.bench_build/perfbench/ (Go's build cache, temporary files and config
live under .bench_build/ too, so nothing is written outside the
checkout), then run with the arguments given. Its exit code and output
pass through unchanged; the last line of standard output is the result
JSON. The build fails, and this script exits non-zero without a result,
when the repository sources are not there.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    for name, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"),
                      ("GOPATH", "gopath"), ("XDG_CONFIG_HOME", "config"),
                      ("XDG_CACHE_HOME", "cache"), ("HOME", "home")):
        env[name] = os.path.join(BUILD, sub)
        os.makedirs(env[name], exist_ok=True)
    env.update(GOWORK="off", GOFLAGS="-mod=readonly", GOPROXY="off", GOTOOLCHAIN="local",
               GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def main():
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=BENCH_DIR,
                           env=go_env(), stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
