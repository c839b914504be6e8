#!/usr/bin/env python3
"""End-to-end benchmark of cfx: build, run one workload, report.

    python3 e2ebench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --self-test

Run from the root of a checkout. The script builds the cfx library and the
measuring binary in Release into .bench_build/ (CMake project in e2ebench/),
runs the binary with CFX_THREADS=1 and every other CFX_* variable cleared,
and prints a provenance line followed by the result as the last line of
stdout. --trace 1 runs the workload a second time with per-layer timing and
reports the per-layer metrics plus overhead.<metric> (traced minus
untraced) for each end-to-end metric. Layers the workload does not exercise
are measured by a short traced probe run of the workloads that do, so every
traced run reports the same per-layer metrics, those BENCHMARK.json lists.
See e2ebench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "cfx_e2ebench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("serve", "serve_bulk", "table4", "manifold")
# A run must finish within 180 s of its start, or of the end of the build
# when it builds; the measuring processes share this budget.
RUN_BUDGET_S = 165.0
# Size of a layer probe: one set-up and the rounds of a one-second run.
PROBE_SECONDS = 1
PROBE_SETUPS = 1


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cfx sources (src/CMakeLists.txt) in " + ROOT)
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cfx_e2ebench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    build_type = None
    with open(cache) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    if build_type != "Release":
        fail("refusing to measure a %r build; delete %s to rebuild as Release"
             % (build_type, BUILD_DIR))


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CFX_")}
    env["CFX_THREADS"] = "1"
    return env


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "e2ebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, name)
            for d, _, names in os.walk(path) for name in names
            if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def manifest_metrics():
    """(end_to_end, per_layer) of BENCHMARK.json, each a list of
    (name, unit)."""
    try:
        with open(MANIFEST) as f:
            manifest = json.load(f)
        return tuple([(m["name"], m["unit"]) for m in manifest[key]]
                     for key in ("end_to_end", "per_layer"))
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail("cannot read the metric lists of %s: %s" % (MANIFEST, e))


def select(measured, wanted, what):
    """The metrics named in `wanted`, in its order, each checked for its
    unit and a finite value."""
    out = {}
    for name, unit in wanted:
        metric = measured.get(name)
        if metric is None:
            fail("%s: no %s was measured" % (what, name))
        value = metric["value"]
        if (metric["unit"] != unit or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            fail("%s: %s is %r, not a finite number in %s"
                 % (what, name, metric, unit))
        out[name] = metric
    return out


def measure(workload, seed, seconds, trace, deadline, setups=None):
    """Runs the binary once; returns its JSON record."""
    work = os.path.join(BUILD_DIR, "work", str(os.getpid()))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    if setups is not None:
        cmd += ["--setups", str(setups)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish within the run budget" % workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("measuring process exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("measuring process printed no result")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark's own code, no workload")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test"], cwd=ROOT,
                                env=bench_env()).returncode)
    end_to_end, per_layer = manifest_metrics()
    deadline = time.monotonic() + RUN_BUDGET_S

    plain = measure(args.workload, args.seed, args.seconds, False, deadline)
    records = [plain]
    metrics = select(plain["end_to_end"], end_to_end, args.workload)
    layer_sources = {}
    if args.trace:
        traced = measure(args.workload, args.seed, args.seconds, True,
                         deadline)
        records.append(traced)
        layers = dict(traced["per_layer"])
        for name, unit in end_to_end:
            layers["overhead." + name] = {
                "value": (traced["end_to_end"][name]["value"]
                          - metrics[name]["value"]),
                "unit": unit}
        # Layers this workload does not exercise come from a short traced
        # run of each other workload that does, in WORKLOADS order.
        for other in WORKLOADS:
            if all(name in layers for name, _ in per_layer):
                break
            if other == args.workload:
                continue
            probe = measure(other, args.seed, PROBE_SECONDS, True, deadline,
                            setups=PROBE_SETUPS)
            records.append(probe)
            for name, metric in probe["per_layer"].items():
                if name not in layers:
                    layers[name] = metric
                    layer_sources[name] = other
        metrics = select(layers, per_layer, args.workload + " traced")

    provenance = dict(plain["provenance"])
    provenance.update({
        "commit": commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failures": [f for r in records for f in r["failures"]],
    })
    if args.trace:
        provenance["untraced_end_to_end"] = plain["end_to_end"]
        provenance["layer_probes"] = layer_sources
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
