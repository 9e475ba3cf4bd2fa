"""finabel's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition of a workload runs in a
fresh single-threaded Python process (perfbench/worker.py), so every
repetition starts with cold memos and caches, as a CLI invocation does.
Repetitions continue until S seconds have passed (at least three; with
--trace 1, at least one untraced and one traced), and each draws its inputs
from one of eight streams derived from the seed.  Extra processes that
only import finabel measure set-up.  Per-repetition figures are reported
as their 10%-trimmed mean; the query_* latencies likewise, as the trimmed
mean of each untraced repetition's percentile.  The parent checks every answer
against perfbench/expected.json and the closed forms in formulas.py.

Times are reported in reference seconds.  Every worker also times a fixed
pure-Python calibration loop (worker.calibrate, no finabel code: arithmetic
and dict updates, then a pointer chase through 5 MB) before and
after its workload, and set-up probes after their import.  A shared host
runs Python at speeds that differ by up to 2x from one stretch of seconds or
minutes to the next, for workload and loop alike; each time is multiplied
by REFERENCE_CALIBRATION_S over the run's mean loop time, which gives the
time the run would have taken on a host whose loop takes
REFERENCE_CALIBRATION_S.  The raw figures and the scale are printed too.

Workloads: table-sweep, query-session, oracle-verify (see workloads.py).
With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics.  The last line of output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5
MIN_REPS = 3
STREAMS = 8
HARD_LIMIT_S = 160  # the whole run, set-up probes included
REFERENCE_CALIBRATION_S = 0.1  # calibration loop time that times are scaled to
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, started: float) -> None:
        self.workload = workload
        self.seed = seed
        self.started = started
        self.env = dict(os.environ, **CHILD_ENV)

    def spawn(self, rep: int, *extra: str) -> dict:
        """Run one worker; returns its JSON record plus its set-up time.
        Repetition ``rep`` draws its inputs from stream ``rep % STREAMS``
        of the seed, so a run's medians average over several streams."""
        stream = self.seed * STREAMS + rep % STREAMS
        argv = [sys.executable, WORKER, "--workload", self.workload, "--seed", str(stream), *extra]
        launched = time.monotonic()
        timeout = max(1.0, self.started + HARD_LIMIT_S - launched)
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise WorkerFailed(f"worker exceeded {timeout:.0f} s: {' '.join(argv[1:])}") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise WorkerFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        record = json.loads(lines[-1])
        record["setup_s"] = record["ready"] - launched
        return record


def trimmed_mean(values: list[float], share: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``share`` of the values.

    Co-tenants on a shared host switch this process between fast and slow
    phases; the median of repetitions jumps between the two speeds as the
    mix of phases changes, while a mean moves in proportion to it.  The
    trimming keeps a rare stalled repetition from moving the figure."""
    ordered = sorted(values)
    k = int(len(ordered) * share)
    kept = ordered[k : len(ordered) - k]
    return sum(kept) / len(kept)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(args) -> tuple[list[dict], list[dict], list[float], list[dict]]:
    started = time.monotonic()
    runner = Runner(args.workload, args.seed, started)
    probes = [runner.spawn(0, "--setup-only") for _ in range(SETUP_PROBES)]
    setups = [r["setup_s"] for r in probes]
    plain: list[dict] = []
    traced: list[dict] = []
    spans = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.json")
    if args.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
    min_reps = 1 if args.trace else MIN_REPS
    while True:
        cycle_start = time.monotonic()
        rep = len(plain)
        plain.append(runner.spawn(rep))
        if args.trace:
            traced.append(runner.spawn(rep, "--trace", "1", "--spans", spans))
        now = time.monotonic()
        cycle = now - cycle_start
        if now + cycle > started + HARD_LIMIT_S:
            break
        if len(plain) >= min_reps and now + cycle > started + args.seconds:
            break
    setups += [r["setup_s"] for r in plain + traced]
    return plain, traced, setups, probes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "finabel", "__init__.py")):
        print(f"no finabel sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    problems = workloads.consistency_problems(expected)
    if problems:
        print("expected.json disagrees with the closed forms:", *problems[:10], sep="\n", file=sys.stderr)
        return 1

    try:
        plain, traced, setups, probes = measure(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    outcomes = [workloads.check(args.workload, r["result"], expected) for r in plain + traced]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    refused = sum(o.refused for o in outcomes)
    for problem in [p for o in outcomes for p in o.problems][:20]:
        print(f"mismatch: {problem}", file=sys.stderr)

    loops = [t for r in probes + plain + traced for t in r["calibration_s"]]
    scale = REFERENCE_CALIBRATION_S / statistics.fmean(loops)
    walls = [r["wall_s"] for r in plain]
    # One list per repetition: a percentile within one session, averaged over
    # sessions, is steadier than one order statistic of the pooled operations,
    # which a few slow moments of the host decide.
    latencies = [[t * 1e3 for t in o.latencies] for o in outcomes[: len(plain)] if o.latencies]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, each in a fresh process")
    print("wall_s per repetition, raw: " + " ".join(f"{w:.4f}" for w in walls))
    print(f"calibration loop: mean {statistics.fmean(loops):.4f} s over {len(loops)} timings "
          f"(min {min(loops):.4f}, max {max(loops):.4f}); times below are scaled by {scale:.4f}")
    print(f"failed_ratio {(failed + refused) / attempted:.6f} "
          f"({refused} refused + {failed} failed of {attempted} operations attempted)")

    if args.trace:
        names = spec["per_layer"]
        layer_runs = [r["layers"] for r in traced]
        values = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
        values.update({key: v * scale for key, v in values.items() if key.endswith("self_s")})
        values["trace_overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(walls)
        )
        top = max(tracing.LAYERS, key=lambda layer: values[f"{layer}.self_s"])
        print(f"most self time: layer {top} ({values[f'{top}.self_s']:.4f} s of "
              f"{statistics.median(r['wall_s'] for r in traced) * scale:.4f} s traced wall)")
        sample_note = f"median of {len(traced)} traced runs"
    else:
        names = spec["end_to_end"]
        values = {
            "setup_s": trimmed_mean(setups) * scale,
            "wall_s": trimmed_mean(walls) * scale,
            "peak_rss_mb": trimmed_mean([r["peak_rss_mb"] for r in plain]),
            "query_p50_ms": trimmed_mean([percentile(rep, 0.50) for rep in latencies]) * scale,
            "query_p90_ms": trimmed_mean([percentile(rep, 0.90) for rep in latencies]) * scale,
            "query_p99_ms": trimmed_mean([percentile(rep, 0.99) for rep in latencies]) * scale,
        }
        print(f"query_p50_ms {values['query_p50_ms']} ms (not gated)")
        print(f"raw, unscaled: setup_s {trimmed_mean(setups)} s, wall_s {trimmed_mean(walls)} s")
        sample_note = (f"setup_s: trimmed mean of {len(setups)} set-ups; wall_s, peak_rss_mb: "
                       f"trimmed mean of {len(plain)} repetitions; query_*: trimmed mean of the percentiles of "
                       f"{len(latencies)} repetitions with {min(map(len, latencies))}-"
                       f"{max(map(len, latencies))} completed operations each")

    metrics = {}
    for m in names:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    print(f"({sample_note})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
