"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--trace 0|1] [--out FILE]

For every metric prints the median of the per-seed values and the distance
between their first and third quartiles as a share of the median, the
figure BENCHMARK.json's bounds are compared with.  --out records the
figures, the machine and the per-seed values in a JSON file (such as
perfbench/baseline.json), under the workload's name; the rest of the file
is kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine() -> dict:
    import numpy

    model = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values: dict[str, list[float]] = {}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                     "failed": result["failed"], "notes": lines[:3]})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {lines[2]}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        share = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "spread": share, "values": vals}
        bound = bounds.get(name)
        flag = "" if bound is None else f" bound {bound} ({'ok' if share < bound / 3 else 'WIDE'})"
        print(f"{name}: median {median:.6g} spread {share:.4f}{flag}")

    if args.out:
        record = {}
        if os.path.exists(args.out):
            with open(args.out) as fh:
                record = json.load(fh)
        record["machine"] = machine()
        section = "end_to_end" if args.trace == 0 else "per_layer"
        entry = record.setdefault("workloads", {}).setdefault(args.workload, {})
        entry[section] = {"seeds": args.seeds, "runs": runs, "metrics": summary}
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
