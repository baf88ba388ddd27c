#!/usr/bin/env python3
"""Build and run one perfbench workload from the repository root.

    python3 perfbench/run.py --workload train-long --seed 1 --seconds 25 --trace 0

The first run configures and builds perfbench (and the library sources
it compiles from src/) in Release into .bench_build/ at the repository
root; later runs only re-check the build. The build log goes to standard
error, so the last line of standard output is the benchmark's JSON result.

Other modes:
    --selftest          build and run the benchmark's own unit tests
    --record FILE       run, and write the fingerprints seen to FILE
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
EXPECTED = os.path.join(HERE, "expected.txt")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs, "--target"] + targets)


def source_revision():
    """Git revision of a clone, else a digest of the library sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse",
                                  "--short=12", "HEAD"], capture_output=True,
                                 text=True, timeout=10)
            if rev.returncode == 0 and rev.stdout.strip():
                return rev.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha1()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_tests"])
        sys.exit(subprocess.run(
            [os.path.join(BUILD, "perfbench_tests")]).returncode)
    if not args.workload:
        fail("--workload is required")

    build(["perfbench"])
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--expected", EXPECTED,
           "--rev", source_revision()]
    if args.record:
        cmd += ["--record", os.path.abspath(args.record)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)

    # The result must name exactly the metrics BENCHMARK.json declares.
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace == 1)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(want.items())))
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
