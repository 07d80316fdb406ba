#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <repro-bulk|repro-small|gxhc-mix> \
        --seed <n> --seconds <s> --trace <0|1>

perfbench/ is a Go module of its own that imports the repository through
`replace xhc => ../`, so it always measures the code beside it. This script
builds it into .bench_build/ at the repository root, keeping the Go build
cache and every Go config or state directory there too, then runs the
binary with the same arguments. The binary's output and exit status pass
through unchanged; the result is the last line of standard output.
"""
import os
import subprocess
import sys

# The measured run must end within 180 s; the binary's own budget is far
# below this, so hitting it means a hang.
RUN_TIMEOUT_S = 170


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(os.path.dirname(here), ".bench_build")
    binary = os.path.join(build, "perfbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
