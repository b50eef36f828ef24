#!/usr/bin/env python3
"""Build RedPlane and its benchmark from source, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload perpkt-volatile --seed 1 --seconds 36 --trace 0

Everything the build and the run write (Go build cache, binaries, WALs,
traces) stays under .bench_build/ in the current directory. The last line
of standard output is the benchmark's JSON result; see BENCHMARK.json for
the workloads and metrics and perfbench/README.md for how they are made.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    bindir = os.path.join(build, "bin")
    tmp = os.path.join(build, "tmp")
    for d in (bindir, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    steps = [
        (root, ["go", "build", "-o", bindir + os.sep,
                "./cmd/redplane-store", "./cmd/redplane-ctl"]),
        (here, ["go", "build", "-o", os.path.join(bindir, "perfbench"), "."]),
    ]
    for cwd, cmd in steps:
        if subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    args = [os.path.join(bindir, "perfbench"), "-bin", bindir,
            "-work", os.path.join(build, "work")] + sys.argv[1:]
    # Replace this process, so a signal to it reaches the benchmark.
    os.execve(args[0], args, env)


if __name__ == "__main__":
    sys.exit(main())
