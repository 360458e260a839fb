#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 10 --trace 0

Every build output and Go cache goes under $CARGO_TARGET_DIR (default
.bench_build) in the working directory, so a run writes nothing outside the
checkout. The arguments are passed to the binary unchanged; its exit code is
this script's exit code. A failed build exits nonzero without a result line.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(out, "gocache"),
        "GOPATH": os.path.join(out, "gopath"),
        "GOMODCACHE": os.path.join(out, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(out, "config"),
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(out, "perfbench")
    os.makedirs(out, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.run([binary] + sys.argv[1:], env=env)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
