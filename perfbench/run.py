#!/usr/bin/env python3
"""Builds and runs the csm end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload ingest_scale|match_scale|service_open \
        --seed N --seconds S --trace 0|1

The first run configures and compiles the library and the perfbench program
in Release under .bench_build/ (CARGO_TARGET_DIR, when set, names that
directory instead); later runs reuse the build.  Build output goes to stderr,
so the last line of stdout is the program's JSON result record.  The exit
code is the program's: 0 only when every output checked correct.  A record
whose metrics are not exactly the ones BENCHMARK.json declares for the mode
(end_to_end untraced, per_layer traced), each in its declared unit, also
fails the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ingest_scale", "match_scale", "service_open")


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no csm sources at %s/src; run from a checkout root"
                 % root)
    binary = os.path.join(build_dir, "perfbench")
    configure = ["cmake", "-S", src, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return binary


def check_record(line, manifest_path, trace):
    """Returns why the result record breaks the manifest, or None."""
    try:
        record = json.loads(line)
        with open(manifest_path) as f:
            manifest = json.load(f)
    except (OSError, ValueError) as err:
        return "cannot read the record or %s: %s" % (manifest_path, err)
    if not isinstance(record, dict) or sorted(record) != [
            "attempted", "correct", "failed", "metrics"]:
        return "the last line is not a result record"
    declared = {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    printed = {name: m.get("unit") for name, m in record["metrics"].items()}
    if printed != declared:
        missing = sorted(set(declared) - set(printed))
        extra = sorted(set(printed) - set(declared))
        wrong = sorted(n for n in set(declared) & set(printed)
                       if declared[n] != printed[n])
        return "metrics differ from the manifest: missing %s, extra %s, " \
               "wrong unit %s" % (missing, extra, wrong)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(root, os.path.join(out_dir, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)
    sys.stdout.flush()
    last = ""
    with subprocess.Popen([binary, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(args.trace),
                           "--workdir", os.path.join(out_dir, "work")],
                          stdout=subprocess.PIPE, text=True) as proc:
        for line in proc.stdout:
            sys.stdout.write(line)
            if line.strip():
                last = line
        sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    why = check_record(last, os.path.join(root, "BENCHMARK.json"), args.trace)
    if why:
        sys.exit("perfbench: %s" % why)


if __name__ == "__main__":
    main()
