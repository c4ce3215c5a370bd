#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <http-psd|http-overhead|sim-sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Everything the build and the run write
stays under .bench_build/ in the checkout: the Go build cache, the
binary, and the traced run's spans. The binary is rebuilt whenever a Go
source, go.mod or go.sum of the checkout changes. The last line of
standard output is the run's JSON result (see perfbench/README.md).
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
STAMP = os.path.join(BUILD, "perfbench.stamp")
RUN_TIMEOUT_S = 170


def source_digest():
    """Hash every file the build reads, so a changed source rebuilds."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s: run from the root of a checkout" % ROOT)
    digest = source_digest()
    if os.path.isfile(BINARY) and os.path.isfile(STAMP):
        with open(STAMP) as f:
            if f.read() == digest:
                return
    os.makedirs(BUILD, exist_ok=True)
    res = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=go_env())
    if res.returncode != 0:
        sys.exit("perfbench: build failed")
    with open(STAMP, "w") as f:
        f.write(digest)


def main():
    build()
    args = [BINARY] + sys.argv[1:] + ["--trace-dir", os.path.join(BUILD, "trace")]
    try:
        res = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
