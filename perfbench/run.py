#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The Go benchmark program (this directory, its own module) is built
from the checkout's sources into .bench_build/ (or $CARGO_TARGET_DIR
when set), with the Go build cache, temporary files and every other
file the toolchain writes kept inside that directory. It is rebuilt
whenever a .go, go.mod or golden.json file of the checkout is newer
than the binary. All arguments are passed to the program, whose last
line of standard output is the JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def newest_source(build_dir):
    newest = 0.0
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith(".") and os.path.join(dirpath, d) != build_dir]
        for f in filenames:
            if f.endswith(".go") or f in ("go.mod", "go.sum", "golden.json"):
                newest = max(newest, os.path.getmtime(os.path.join(dirpath, f)))
    return newest


def main():
    build_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    binary = os.path.join(build_dir, "perfbench")
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config"), ("HOME", "home")):
        env[var] = os.path.join(build_dir, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOMODCACHE"] = os.path.join(env["GOPATH"], "pkg", "mod")
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = ""
    env["GOWORK"] = "off"
    env["GOTELEMETRY"] = "off"

    if not os.path.exists(binary) or os.path.getmtime(binary) < newest_source(build_dir):
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, stderr=sys.stderr)
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return build.returncode or 1
    workdir = os.path.join(build_dir, "perfbench-work")
    args = [binary, "-workdir", workdir] + sys.argv[1:]
    return subprocess.run(args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
