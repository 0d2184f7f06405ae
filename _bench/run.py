#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 _bench/run.py --workload tcp-zipf --seed 1 --seconds 10 --trace 0

The Go program in this directory is its own module (it imports the
repository's packages through a `replace` directive), built into
.bench_build/ with the Go build cache kept there too, so nothing is
written outside the checkout. All arguments are passed to the program;
its last output line is the JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    root = os.getcwd()
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "TMPDIR": os.path.join(build, "tmp"),
        "HOME": os.path.join(build, "home"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "XDG_CACHE_HOME": os.path.join(build, "cache"),
        "GOENV": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for key in ("TMPDIR", "HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "bench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 2
    args = list(sys.argv[1:]) + ["--dir", build]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
