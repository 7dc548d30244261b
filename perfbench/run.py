#!/usr/bin/env python3
"""End-to-end benchmark of the GeoShuffle simulator.

Run from the repository root:

    python3 perfbench/run.py --workload terasort-cells --seed 1 \
        --seconds 10 --trace 0

Builds the library and the perfbench binary from source into .bench_build
(RelWithDebInfo; incremental after the first run), then runs one
workload. The binary's output passes through unchanged: provenance and
every metric with its unit as text, and as the last line one JSON result
object. A copy of the output goes to .bench_build/results/.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
SRC = os.path.join(ROOT, "src")


def source_id():
    """Git commit of the checkout, else a digest of the library sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for base in (SRC, HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds perfbench; build logs go to stderr."""
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found at " + SRC)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--commit=" + source_id()]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d.txt" % (args.workload, args.seed, args.trace)
    with open(os.path.join(results, name), "w") as f:
        f.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
