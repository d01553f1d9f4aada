#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload grid|mm-churn|dirty-rw --seed N --seconds S --trace 0|1

perfbench/ is a Go module of its own that uses the repository module one
directory up. This script builds it into $CARGO_TARGET_DIR (default
.bench_build), keeping the Go build cache and temporary files there too,
then runs the binary with the given arguments. The binary prints the JSON
result as the last line of standard output. A failed build or run exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850  # the first build compiles the standard library
RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GO111MODULE="on",
        CGO_ENABLED="0",
    )
    binary = os.path.join(out, "perfbench", "perfbench")
    try:
        build = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=here, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = [binary, "--out", os.path.join(out, "perfbench")] + sys.argv[1:]
    try:
        run = subprocess.run(args, env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
