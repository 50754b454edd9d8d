#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <mst_gnm|flood_gnm> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (and the library from
src/) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload, and prints the binary's output:
a `context {...}` diagnostics line, then the result JSON as the last line.

The wrapper also checks that the reported metrics are exactly the ones
BENCHMARK.json declares for the mode, with the declared units, and guards
determinism across runs: the exact counts of a (binary, workload, seed) are
remembered in the build directory, and a later run of the same binary and
seed that reports different counts is marked incorrect.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
EXACT = ("rounds", "messages", "msgs_per_m", "rounds_per_bound")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not (ROOT / "src").is_dir():
        fail(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_counts(build_dir, binary, workload, seed, metrics):
    """Returns False when this binary reported other counts for this seed."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    path = build_dir / "counts" / digest / f"{workload}-{seed}.json"
    counts = {k: metrics[k]["value"] for k in EXACT}
    if path.exists():
        before = json.loads(path.read_text())
        if before != counts:
            print(f"perfbench: determinism guard: {workload} seed {seed} "
                  f"reported {counts}, an earlier run of this binary "
                  f"reported {before}", file=sys.stderr)
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counts))
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["mst_gnm", "flood_gnm"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    trace = args.trace == "1"

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")) / "perfbench"
    binary = build(build_dir.resolve())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if trace:
        traces = build_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
    if not trace and not check_counts(build_dir, binary, args.workload,
                                      args.seed, result["metrics"]):
        result["correct"] = False
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
