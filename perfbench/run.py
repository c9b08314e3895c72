#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload study --seed 1 --seconds 10 --trace 0

The Go build cache, the binary, the edit-loop cache directories and the
span files all live under .bench_build/ in the checkout, so the run
reads and writes nothing outside it. Every argument is passed to the
benchmark binary; see perfbench/README.md.
"""
import os
import signal
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        print("perfbench: no go.mod beside perfbench/; run from a full checkout of the analyzer",
              file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    work = os.path.join(build, "work")
    tmp = os.path.join(build, "tmp")
    for d in (work, tmp):
        os.makedirs(d, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOMODCACHE=os.path.join(build, "gomod"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOPROXY="off", GOWORK="off", GOTOOLCHAIN="local", GOFLAGS="")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([binary] + sys.argv[1:] + ["-work-dir", work], cwd=root, env=env)
    # A terminated run stops the benchmark binary too, and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.terminate()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
