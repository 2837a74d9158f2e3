#!/usr/bin/env python3
"""Build and run the repo's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
library sources and the perfbench program (Release) under .bench_build/;
later runs reuse that build. The program's output is passed through; its
last line is one JSON object {correct, attempted, failed, metrics}, whose
metric names and units are checked here against BENCHMARK.json: end_to_end
with --trace 0, per_layer with --trace 1, where a layer the workload does
not touch is reported as 0. A traced run also writes a Chrome trace-event
file under .bench_build/traces/.

Exits non-zero, without a result line, when the build fails or the output
does not match BENCHMARK.json; exits non-zero after the result line when an
output check failed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0:
                return "git-" + sha.stdout.strip()[:12]
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", SOURCE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-" + digest.hexdigest()[:12]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile_paper", "serve_gpt2", "sweep_faults"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    expected = expected_metrics(args.trace)
    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id()]
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(TRACES / f"{args.workload}-seed{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(run.stdout)
        fail(f"no result line (perfbench exit code {run.returncode})")
    metrics = result["metrics"]
    if args.trace:
        for name, unit in expected.items():
            metrics.setdefault(name, {"value": 0, "unit": unit})
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        sys.stderr.write(run.stdout)
        fail("metrics do not match BENCHMARK.json: missing "
             f"{sorted(set(expected) - set(got))}, unexpected "
             f"{sorted(set(got) - set(expected))}, unit mismatches "
             f"{sorted(n for n in got if n in expected and got[n] != expected[n])}")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(0 if run.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
