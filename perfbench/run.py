#!/usr/bin/env python3
"""Repository benchmark: builds sam_perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload census_inram --seed 1 --seconds 50 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is the result: {"correct", "attempted", "failed", "metrics"},
with the end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
metrics (--trace 1). The full run record (host facts, configuration,
determinism digests, failed checks) is appended to --runs-file, which
perfbench/compare.py reads. Workloads and metrics: perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census_inram", "imdb_spill")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the samdb sources (src/) are missing; nothing to build")
    configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "sam_perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    with open(os.path.join(HERE, "seeds.json")) as f:
        seeds = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=seeds["default"])
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs-file", default=None,
                        help="JSON-lines file the run record is appended to "
                             "(default: <build dir>/runs.jsonl)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)

    work_dir = os.path.join(build_dir, "work-%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--work-dir=" + work_dir]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(work_dir, ignore_errors=True)
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    record = None
    for line in proc.stdout.splitlines():
        if line.startswith("RECORD "):
            record = json.loads(line[len("RECORD "):])
        else:
            print(line)
    if proc.returncode != 0 or record is None:
        fail("sam_perfbench exited with %d and no record" % proc.returncode)

    units = expected_metrics(args.trace)
    # A run that failed a check may stop before it measured everything.
    if set(units) != set(record["metrics"]) and record["failed"] == 0:
        fail("metric names differ from BENCHMARK.json: %s" %
             sorted(set(units) ^ set(record["metrics"])))
    record["host"]["source_sha256"] = source_digest()
    record["host"]["commit"] = git_commit()
    record["time"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    runs_file = args.runs_file or os.path.join(build_dir, "runs.jsonl")
    with open(runs_file, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")

    print("host: " + json.dumps(record["host"], sort_keys=True))
    print("digests: " + json.dumps(record["digests"], sort_keys=True))
    for failure in record["failures"]:
        print("failed check: " + failure)
    print(json.dumps({
        "correct": record["failed"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"].get(n, 0), "unit": u}
                    for n, u in units.items()},
    }))


if __name__ == "__main__":
    main()
